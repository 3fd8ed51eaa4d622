"""Assessment domains: the finite lattices claim verdicts live in.

Three domains are supported, selected once per run:

* ``FOUR``: two presence bits (supporting evidence seen, refuting evidence
  seen), ordered pointwise.
* ``GRADED``: a pair of strengths from the chain bot < w < s, one per
  polarity, ordered and joined pointwise.
* ``STRATIFIED``: a pair of antitone maps from the confidence-basis chain to
  the strength chain. Each map answers "how strong is this polarity if I only
  trust evidence vetted to at least basis k". Keeping the whole map instead
  of one collapsed grade is what lets a strong-but-shallow reading coexist
  with a weak-but-checked one without either masking the other.

All three are finite lattices with a bottom element; joins are pointwise
maxima and never invent information that is not in one of the operands.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Iterable, Union

from .errors import DomainMismatch

__all__ = [
    "Strength",
    "ConfidenceBasis",
    "DomainKind",
    "FourValue",
    "GradedValue",
    "StratifiedPolarity",
    "StratifiedValue",
    "Assessment",
    "kind_of",
    "join",
    "leq",
    "bottom",
    "domain_height",
    "enumerate_domain",
    "summarize_polarity",
    "presence_to_graded",
    "to_json",
    "from_json",
    "pretty",
]


class Strength(IntEnum):
    """Grade chain for one polarity: BOT < WEAK < STRONG."""

    BOT = 0
    WEAK = 1
    STRONG = 2

    @property
    def token(self) -> str:
        return _STRENGTH_TOKENS[self]

    @classmethod
    def from_token(cls, token: str) -> "Strength":
        if isinstance(token, str) and token in _STRENGTH_BY_TOKEN:
            return _STRENGTH_BY_TOKEN[token]
        raise ValueError(f"unknown strength token {token!r}")


_STRENGTH_TOKENS = {Strength.BOT: "bot", Strength.WEAK: "w", Strength.STRONG: "s"}
_STRENGTH_BY_TOKEN = {v: k for k, v in _STRENGTH_TOKENS.items()}
_STRENGTH_CHARS = {Strength.BOT: "⊥", Strength.WEAK: "w", Strength.STRONG: "s"}


class ConfidenceBasis(IntEnum):
    """How an evidence record was vetted, from cheapest to most demanding.

    MODEL: the agent asserts it from general knowledge, nothing concrete.
    LOCATED: a concrete artifact (doc passage, advisory, code line) was found.
    APPLICABLE: the artifact was matched to the exact version and code path.
    CORROBORATED: independent artifacts agree.
    CHECKED: confirmed by direct inspection or execution.
    """

    MODEL = 0
    LOCATED = 1
    APPLICABLE = 2
    CORROBORATED = 3
    CHECKED = 4

    @property
    def token(self) -> str:
        return self.name.lower()

    @classmethod
    def from_token(cls, token: str) -> "ConfidenceBasis":
        if isinstance(token, str) and token.upper() in cls.__members__:
            return cls[token.upper()]
        raise ValueError(f"unknown confidence basis {token!r}")


BASES: tuple[ConfidenceBasis, ...] = tuple(ConfidenceBasis)


class DomainKind(str, Enum):
    FOUR = "four"
    GRADED = "graded"
    STRATIFIED = "stratified"


@dataclass(frozen=True)
class FourValue:
    """Two-bit presence record: has any support / any refutation been seen."""

    support_present: bool
    refute_present: bool


@dataclass(frozen=True)
class GradedValue:
    """Strength per polarity; written ``<support,refute>`` in traces."""

    support: Strength
    refute: Strength


@dataclass(frozen=True)
class StratifiedPolarity:
    """Antitone map from confidence basis to strength, one polarity.

    ``levels[i]`` is the strength available when only evidence vetted to at
    least basis ``i`` counts. Demanding a stricter basis can only shrink the
    evidence pool, so levels never increase along the basis chain; the
    constructor rejects non-antitone tuples outright.
    """

    levels: tuple[Strength, Strength, Strength, Strength, Strength]

    def __post_init__(self):
        if len(self.levels) != len(BASES):
            raise ValueError(
                f"stratified polarity needs {len(BASES)} levels, got {len(self.levels)}"
            )
        for earlier, later in zip(self.levels, self.levels[1:]):
            if later > earlier:
                raise ValueError(
                    "stratified polarity must be antitone along the basis chain"
                )

    def level(self, basis: ConfidenceBasis) -> Strength:
        return self.levels[basis]

    @classmethod
    def constant(cls, grade: Strength) -> "StratifiedPolarity":
        return cls(tuple(grade for _ in BASES))  # type: ignore[arg-type]


@dataclass(frozen=True)
class StratifiedValue:
    support: StratifiedPolarity
    refute: StratifiedPolarity


Assessment = Union[FourValue, GradedValue, StratifiedValue]

_KIND_BY_TYPE = {
    FourValue: DomainKind.FOUR,
    GradedValue: DomainKind.GRADED,
    StratifiedValue: DomainKind.STRATIFIED,
}


def kind_of(value: Assessment) -> DomainKind:
    try:
        return _KIND_BY_TYPE[type(value)]
    except KeyError:
        raise DomainMismatch(f"not an assessment value: {value!r}") from None


def _require_same_kind(a: Assessment, b: Assessment) -> DomainKind:
    ka, kb = kind_of(a), kind_of(b)
    if ka is not kb:
        raise DomainMismatch(f"cannot combine {ka.value} with {kb.value}")
    return ka


def bottom(kind: DomainKind) -> Assessment:
    if kind is DomainKind.FOUR:
        return FourValue(False, False)
    if kind is DomainKind.GRADED:
        return GradedValue(Strength.BOT, Strength.BOT)
    if kind is DomainKind.STRATIFIED:
        empty = StratifiedPolarity.constant(Strength.BOT)
        return StratifiedValue(empty, empty)
    raise DomainMismatch(f"unknown domain kind {kind!r}")


def join(a: Assessment, b: Assessment) -> Assessment:
    kind = _require_same_kind(a, b)
    if kind is DomainKind.FOUR:
        return FourValue(a.support_present or b.support_present,
                         a.refute_present or b.refute_present)
    if kind is DomainKind.GRADED:
        return GradedValue(max(a.support, b.support), max(a.refute, b.refute))
    return StratifiedValue(
        _join_polarity(a.support, b.support),
        _join_polarity(a.refute, b.refute),
    )


def _join_polarity(x: StratifiedPolarity, y: StratifiedPolarity) -> StratifiedPolarity:
    # Pointwise max of two antitone maps is antitone, so this never trips
    # the constructor check.
    return StratifiedPolarity(tuple(max(p, q) for p, q in zip(x.levels, y.levels)))  # type: ignore[arg-type]


def leq(a: Assessment, b: Assessment) -> bool:
    kind = _require_same_kind(a, b)
    if kind is DomainKind.FOUR:
        return (a.support_present <= b.support_present
                and a.refute_present <= b.refute_present)
    if kind is DomainKind.GRADED:
        return a.support <= b.support and a.refute <= b.refute
    return (_leq_polarity(a.support, b.support)
            and _leq_polarity(a.refute, b.refute))


def _leq_polarity(x: StratifiedPolarity, y: StratifiedPolarity) -> bool:
    return all(p <= q for p, q in zip(x.levels, y.levels))


def summarize_polarity(
    records: Iterable[tuple[Strength, ConfidenceBasis]],
) -> StratifiedPolarity:
    """Fold graded-and-based evidence records into one stratified polarity.

    The level at basis k is the join of the strengths of every record vetted
    to k or beyond; with no qualifying record it is BOT. Records vetted to a
    high basis count at every lower threshold too, which is exactly what
    makes the result antitone.
    """
    pool = list(records)
    levels = []
    for threshold in BASES:
        grade = Strength.BOT
        for strength, basis in pool:
            if basis >= threshold and strength > grade:
                grade = strength
        levels.append(grade)
    return StratifiedPolarity(tuple(levels))  # type: ignore[arg-type]


def presence_to_graded(value: FourValue) -> GradedValue:
    """Explicit widening of a presence pair into the graded domain.

    A set bit carries no strength information of its own, so it maps to the
    top of the strength chain; conversion is never implicit.
    """
    as_grade = {False: Strength.BOT, True: Strength.STRONG}
    return GradedValue(as_grade[value.support_present], as_grade[value.refute_present])


def enumerate_domain(kind: DomainKind) -> tuple[Assessment, ...]:
    """Every element of the domain. Small by construction (4 / 9 / 441)."""
    factor = _polarity_lattice(kind)
    value = {k: t for t, k in _KIND_BY_TYPE.items()}[kind]
    return tuple(value(s, r) for s in factor for r in factor)


def _polarity_lattice(kind: DomainKind) -> tuple:
    """The lattice one polarity ranges over; each domain is its square."""
    if kind is DomainKind.FOUR:
        return (False, True)
    if kind is DomainKind.GRADED:
        return tuple(Strength)
    out = []
    for levels in itertools.product(Strength, repeat=len(BASES)):
        if all(b <= a for a, b in zip(levels, levels[1:])):
            out.append(StratifiedPolarity(levels))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def domain_height(kind: DomainKind) -> int:
    """Number of strict steps in the longest ascending chain of the domain.

    Computed by longest-path search rather than hard-coded, so the
    termination budget stays correct if a domain is ever reshaped. The
    search runs over one polarity lattice: a product's height is the sum of
    its factors' heights, and both factors are that lattice.
    """
    # As grade tuples, a polarity lattice is ordered pointwise, and the grade
    # sum grows along every strict step, so sorting by it is a topological
    # order for the longest-path pass.
    ordered = sorted((x.levels if isinstance(x, StratifiedPolarity) else (x,)
                      for x in _polarity_lattice(kind)), key=sum)
    best: dict = {}
    for i, e in enumerate(ordered):
        best[e] = max((best[f] + 1 for f in ordered[:i]
                       if all(p <= q for p, q in zip(f, e))), default=0)
    return 2 * max(best.values())


# --- serialization -----------------------------------------------------------

def to_json(value: Assessment):
    """JSON-compatible form: FOUR as [bool, bool], GRADED as a token pair,
    STRATIFIED as two five-token arrays ordered MODEL..CHECKED."""
    if isinstance(value, FourValue):
        return [value.support_present, value.refute_present]
    if isinstance(value, GradedValue):
        return [value.support.token, value.refute.token]
    if isinstance(value, StratifiedValue):
        return [
            [g.token for g in value.support.levels],
            [g.token for g in value.refute.levels],
        ]
    raise DomainMismatch(f"not an assessment value: {value!r}")


def from_json(kind: DomainKind, payload) -> Assessment:
    if not isinstance(payload, (list, tuple)) or len(payload) != 2:
        raise ValueError(f"assessment must be a two-element array, got {payload!r}")
    a, b = payload
    if kind is DomainKind.FOUR:
        if not (isinstance(a, bool) and isinstance(b, bool)):
            raise ValueError("four-domain assessment takes two booleans")
        return FourValue(a, b)
    if kind is DomainKind.GRADED:
        return GradedValue(Strength.from_token(a), Strength.from_token(b))
    return StratifiedValue(_polarity_from_json(a), _polarity_from_json(b))


def _polarity_from_json(payload) -> StratifiedPolarity:
    if not isinstance(payload, (list, tuple)) or len(payload) != len(BASES):
        raise ValueError(
            f"stratified polarity must list {len(BASES)} strengths, got {payload!r}"
        )
    return StratifiedPolarity(tuple(Strength.from_token(t) for t in payload))  # type: ignore[arg-type]


def pretty(value: Assessment) -> str:
    """Compact symbolic form used in traces and reports.

    Any domain's bottom prints as the squared-bottom shorthand. Graded pairs
    print per-polarity grade characters; four-valued pairs print a plus for a
    set presence bit; stratified pairs print one grade character per basis.
    """
    if value == bottom(kind_of(value)):
        return "⊥²"
    if isinstance(value, FourValue):
        mark = {True: "+", False: "⊥"}
        return f"⟨{mark[value.support_present]},{mark[value.refute_present]}⟩"
    if isinstance(value, GradedValue):
        return (f"⟨{_STRENGTH_CHARS[value.support]},"
                f"{_STRENGTH_CHARS[value.refute]}⟩")
    sup = "".join(_STRENGTH_CHARS[g] for g in value.support.levels)
    ref = "".join(_STRENGTH_CHARS[g] for g in value.refute.levels)
    return f"⟨{sup},{ref}⟩"
