import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from claimlattice import assessment as asmt
from claimlattice.assessment import (
    BASES,
    ConfidenceBasis,
    DomainKind,
    FourValue,
    GradedValue,
    Strength,
    StratifiedPolarity,
    StratifiedValue,
)
from claimlattice.errors import DomainMismatch

ALL_KINDS = (DomainKind.FOUR, DomainKind.GRADED, DomainKind.STRATIFIED)


# --- independent oracles ------------------------------------------------------

def oracle_height(elements, leq) -> int:
    """Longest strict chain by memoized DFS over the full order relation.

    Deliberately ignores the production code's measure-sorting trick: the two
    routes share nothing but the element list and the order itself.
    """
    index = {e: i for i, e in enumerate(elements)}
    memo: dict[int, int] = {}

    def longest_up_from(i: int) -> int:
        if i in memo:
            return memo[i]
        e = elements[i]
        best = 0
        for f in elements:
            if e != f and leq(e, f):
                best = max(best, 1 + longest_up_from(index[f]))
        memo[i] = best
        return best

    return max(longest_up_from(i) for i in range(len(elements)))


def oracle_summary(records) -> StratifiedPolarity:
    """Per-record antitone map, then pointwise join.

    Each record of strength g vetted to basis k contributes g at every
    threshold up to k and BOT beyond; the summary is the pointwise maximum of
    those contributions. Same function as summarize_polarity, different
    decomposition.
    """
    levels = [Strength.BOT] * len(BASES)
    for strength, basis in records:
        for i, threshold in enumerate(BASES):
            if threshold <= basis:
                levels[i] = max(levels[i], strength)
    return StratifiedPolarity(tuple(levels))


def random_polarity(rng: random.Random) -> StratifiedPolarity:
    levels = [Strength(rng.randint(0, 2))]
    for _ in range(len(BASES) - 1):
        levels.append(Strength(rng.randint(0, levels[-1])))
    return StratifiedPolarity(tuple(levels))


def random_stratified(rng: random.Random) -> StratifiedValue:
    return StratifiedValue(random_polarity(rng), random_polarity(rng))


# --- lattice laws -------------------------------------------------------------

def assert_laws(x, y, z, kind):
    bot = asmt.bottom(kind)
    assert asmt.join(x, x) == x
    assert asmt.join(x, y) == asmt.join(y, x)
    assert asmt.join(x, asmt.join(y, z)) == asmt.join(asmt.join(x, y), z)
    assert asmt.join(bot, x) == x
    assert asmt.leq(x, asmt.join(x, y))
    assert asmt.leq(x, y) == (asmt.join(x, y) == y)


@pytest.mark.parametrize("kind", (DomainKind.FOUR, DomainKind.GRADED))
def test_laws_exhaustive_small_domains(kind):
    elements = asmt.enumerate_domain(kind)
    for x, y, z in itertools.product(elements, repeat=3):
        assert_laws(x, y, z, kind)


def test_graded_domain_is_the_nine_element_grid():
    elements = asmt.enumerate_domain(DomainKind.GRADED)
    assert len(elements) == 9
    assert len(set(elements)) == 9
    assert asmt.bottom(DomainKind.GRADED) in elements
    assert GradedValue(Strength.STRONG, Strength.STRONG) in elements


def test_four_domain_has_four_elements():
    assert len(asmt.enumerate_domain(DomainKind.FOUR)) == 4


def test_stratified_domain_has_441_elements():
    # 21 antitone maps per polarity, squared.
    elements = asmt.enumerate_domain(DomainKind.STRATIFIED)
    assert len(elements) == 441
    assert len(set(elements)) == 441


@given(st.integers(min_value=0, max_value=2 ** 63))
@settings(max_examples=300, deadline=None)
def test_laws_stratified_randomized(seed):
    rng = random.Random(seed)
    x, y, z = (random_stratified(rng) for _ in range(3))
    assert_laws(x, y, z, DomainKind.STRATIFIED)


def test_join_rejects_mixed_domains():
    with pytest.raises(DomainMismatch):
        asmt.join(asmt.bottom(DomainKind.FOUR), asmt.bottom(DomainKind.GRADED))
    with pytest.raises(DomainMismatch):
        asmt.leq(asmt.bottom(DomainKind.GRADED),
                 asmt.bottom(DomainKind.STRATIFIED))


def test_graded_join_examples():
    w_bot = GradedValue(Strength.WEAK, Strength.BOT)
    bot_s = GradedValue(Strength.BOT, Strength.STRONG)
    assert asmt.join(w_bot, bot_s) == GradedValue(Strength.WEAK, Strength.STRONG)
    bot_w = GradedValue(Strength.BOT, Strength.WEAK)
    assert asmt.join(bot_w, bot_s) == bot_s


def test_stratified_leq_and_join_pointwise():
    x = StratifiedValue(
        StratifiedPolarity((Strength.WEAK, Strength.WEAK, Strength.BOT,
                            Strength.BOT, Strength.BOT)),
        StratifiedPolarity((Strength.WEAK, Strength.BOT, Strength.BOT,
                            Strength.BOT, Strength.BOT)),
    )
    y = StratifiedValue(
        StratifiedPolarity((Strength.STRONG, Strength.STRONG, Strength.WEAK,
                            Strength.BOT, Strength.BOT)),
        StratifiedPolarity((Strength.STRONG, Strength.WEAK, Strength.BOT,
                            Strength.BOT, Strength.BOT)),
    )
    assert asmt.leq(x, y)
    assert not asmt.leq(y, x)
    assert asmt.join(x, y) == y


# --- heights ------------------------------------------------------------------

def test_heights_match_independent_oracle():
    for kind in ALL_KINDS:
        elements = asmt.enumerate_domain(kind)
        assert asmt.domain_height(kind) == oracle_height(elements, asmt.leq)


def test_height_literals():
    assert asmt.domain_height(DomainKind.FOUR) == 2
    assert asmt.domain_height(DomainKind.GRADED) == 4
    # Two strict raises per basis level and polarity: 2 * 5 * 2.
    assert asmt.domain_height(DomainKind.STRATIFIED) == 20


# --- antitone structure -------------------------------------------------------

def test_non_antitone_polarity_rejected():
    with pytest.raises(ValueError):
        StratifiedPolarity((Strength.BOT, Strength.WEAK, Strength.BOT,
                            Strength.BOT, Strength.BOT))
    with pytest.raises(ValueError):
        StratifiedPolarity((Strength.WEAK, Strength.WEAK))


def test_polarity_level_lookup():
    p = StratifiedPolarity((Strength.STRONG, Strength.WEAK, Strength.WEAK,
                            Strength.BOT, Strength.BOT))
    assert p.level(ConfidenceBasis.MODEL) is Strength.STRONG
    assert p.level(ConfidenceBasis.LOCATED) is Strength.WEAK
    assert p.level(ConfidenceBasis.CHECKED) is Strength.BOT


# --- basis-indexed summaries --------------------------------------------------

def test_summary_non_collapse_example():
    # A strong shallow record plus a weak fully-checked one must both stay
    # visible: strong at the weakest threshold, weak at the strictest.
    records = [(Strength.STRONG, ConfidenceBasis.MODEL),
               (Strength.WEAK, ConfidenceBasis.CHECKED)]
    summary = asmt.summarize_polarity(records)
    assert summary.level(ConfidenceBasis.MODEL) is Strength.STRONG
    assert summary.level(ConfidenceBasis.CHECKED) is Strength.WEAK
    for mid in (ConfidenceBasis.LOCATED, ConfidenceBasis.APPLICABLE,
                ConfidenceBasis.CORROBORATED):
        assert summary.level(mid) is Strength.WEAK


def test_summary_of_nothing_is_bottom():
    assert asmt.summarize_polarity([]) == StratifiedPolarity.constant(Strength.BOT)


def test_summary_single_checked_record_is_constant():
    summary = asmt.summarize_polarity([(Strength.WEAK, ConfidenceBasis.CHECKED)])
    assert summary == StratifiedPolarity.constant(Strength.WEAK)


@given(st.lists(st.tuples(st.sampled_from(tuple(Strength)),
                          st.sampled_from(tuple(ConfidenceBasis))),
                max_size=12))
@settings(max_examples=400, deadline=None)
def test_summary_matches_oracle_and_is_antitone(records):
    summary = asmt.summarize_polarity(records)
    assert summary == oracle_summary(records)
    for a, b in zip(summary.levels, summary.levels[1:]):
        assert b <= a


# --- conversions --------------------------------------------------------------

def test_presence_to_graded_is_explicit_widening():
    assert asmt.presence_to_graded(FourValue(False, False)) == \
        GradedValue(Strength.BOT, Strength.BOT)
    assert asmt.presence_to_graded(FourValue(True, False)) == \
        GradedValue(Strength.STRONG, Strength.BOT)
    assert asmt.presence_to_graded(FourValue(True, True)) == \
        GradedValue(Strength.STRONG, Strength.STRONG)


# --- serialization ------------------------------------------------------------

def test_json_round_trip_every_small_element():
    for kind in (DomainKind.FOUR, DomainKind.GRADED):
        for e in asmt.enumerate_domain(kind):
            assert asmt.from_json(kind, asmt.to_json(e)) == e


def test_json_round_trip_every_stratified_element():
    kind = DomainKind.STRATIFIED
    for e in asmt.enumerate_domain(kind):
        assert asmt.from_json(kind, asmt.to_json(e)) == e


@pytest.mark.parametrize("kind,payload", [
    (DomainKind.FOUR, ["yes", "no"]),
    (DomainKind.FOUR, [True]),
    (DomainKind.GRADED, ["w"]),
    (DomainKind.GRADED, ["medium", "bot"]),
    (DomainKind.STRATIFIED, [["w"], ["bot"]]),
    (DomainKind.STRATIFIED, "not a pair"),
    (DomainKind.STRATIFIED, [["w", "w", "w", "w", "s"],
                             ["bot", "bot", "bot", "bot", "bot"]]),
])
def test_json_rejects_malformed_payloads(kind, payload):
    with pytest.raises(ValueError):
        asmt.from_json(kind, payload)


def test_strength_and_basis_tokens():
    assert Strength.from_token("s") is Strength.STRONG
    assert Strength.STRONG.token == "s"
    assert ConfidenceBasis.from_token("corroborated") is ConfidenceBasis.CORROBORATED
    assert ConfidenceBasis.APPLICABLE.token == "applicable"
    with pytest.raises(ValueError):
        Strength.from_token("medium")
    with pytest.raises(ValueError):
        ConfidenceBasis.from_token("vibes")


# --- rendering ----------------------------------------------------------------

def test_pretty_forms():
    assert asmt.pretty(asmt.bottom(DomainKind.GRADED)) == "⊥²"
    assert asmt.pretty(asmt.bottom(DomainKind.FOUR)) == "⊥²"
    assert asmt.pretty(asmt.bottom(DomainKind.STRATIFIED)) == "⊥²"
    assert asmt.pretty(GradedValue(Strength.WEAK, Strength.BOT)) == "⟨w,⊥⟩"
    assert asmt.pretty(GradedValue(Strength.BOT, Strength.STRONG)) == "⟨⊥,s⟩"
    assert asmt.pretty(FourValue(True, False)) == "⟨+,⊥⟩"
    sv = StratifiedValue(
        StratifiedPolarity((Strength.STRONG, Strength.WEAK, Strength.WEAK,
                            Strength.WEAK, Strength.WEAK)),
        StratifiedPolarity.constant(Strength.BOT),
    )
    assert asmt.pretty(sv) == "⟨swwww,⊥⊥⊥⊥⊥⟩"
