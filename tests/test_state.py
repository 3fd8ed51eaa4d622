"""Claim tables, evidence records, and the functional state updates."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from claimlattice import assessment as asmt
from claimlattice.errors import (
    DomainMismatch,
    DuplicateClaim,
    EmptyClaim,
    UnknownClaim,
    UnknownNode,
)
from claimlattice.state import (
    EvidenceRecord,
    EvidenceSeed,
    EvidenceStatus,
    Polarity,
    SourceKind,
    assessment_projection,
    canonicalize_claim,
    export_evidence_log,
    initial_state,
    insert_claim,
    mark_evidence,
    mint_evidence,
    record_update,
)

from conftest import chain_graph, seeded_claim

W = asmt.Strength.WEAK
S = asmt.Strength.STRONG
BOT = asmt.Strength.BOT


def graded(sup, ref):
    return asmt.GradedValue(sup, ref)


def seed(polarity=Polarity.SUPPORT, strength=W, basis=asmt.ConfidenceBasis.LOCATED,
         kind=SourceKind.DOC, excerpt="saw it", ref=None):
    return EvidenceSeed(polarity=polarity, strength=strength, basis=basis,
                        source_kind=kind, excerpt=excerpt, ref=ref)


# --- canonicalization ---------------------------------------------------

def test_canonicalize_folds_case_and_strips():
    assert canonicalize_claim("The parser is SAFE. ") == "the parser is safe"


def test_canonicalize_collapses_whitespace():
    assert canonicalize_claim("  a \t b\n  c ") == "a b c"


def test_canonicalize_trailing_punctuation_run():
    assert canonicalize_claim("really ok?!") == "really ok"
    assert canonicalize_claim("ends with colon:;") == "ends with colon"


def test_canonicalize_keeps_interior_punctuation():
    assert canonicalize_claim("v1.2 parses x, then y") == "v1.2 parses x, then y"


def test_canonicalize_empty_rejected():
    with pytest.raises(EmptyClaim):
        canonicalize_claim("   ")
    with pytest.raises(EmptyClaim):
        canonicalize_claim(" ... ")


def test_paraphrase_stays_distinct():
    a = canonicalize_claim("the parser rejects bad input")
    b = canonicalize_claim("bad input is rejected by the parser")
    assert a != b


@given(st.text(min_size=1).filter(lambda t: any(c.isalnum() for c in t)))
def test_canonicalize_idempotent(text):
    once = canonicalize_claim(text)
    assert canonicalize_claim(once) == once


# --- claim tables -------------------------------------------------------

def test_initial_state_covers_all_nodes(two_node):
    graph, claims, state = two_node
    assert set(state.nodes) == {"m", "n"}
    assert set(state.nodes["m"].entries) == {claims[0].key}
    entry = state.nodes["m"].entries[claims[0].key]
    assert entry.assessment == asmt.bottom(asmt.DomainKind.GRADED)
    assert entry.evidence_ids == ()


def _insert_each(graph, kind, claims):
    """The reference: one insert_claim per claim on the bottom state."""
    state = initial_state(graph, kind)
    for claim in claims:
        state = insert_claim(state, claim.node, claim)
    return state


@pytest.mark.parametrize("kind", list(asmt.DomainKind))
def test_initial_state_equals_one_insert_per_claim(kind):
    graph = chain_graph("a", "b", "c")
    claims = [seeded_claim(node, f"claim {i} at {node}", f"c{i}{node}")
              for i in range(3) for node in ("c", "a")]
    state = initial_state(graph, kind, claims)
    reference = _insert_each(graph, kind, claims)
    assert state == reference
    # Equal dicts may differ in order; the tables must not.
    assert [list(t.entries) for t in state.nodes.values()] == [
        list(t.entries) for t in reference.nodes.values()]
    for bad, error in (
            ([*claims, seeded_claim("zz", "lost claim")], UnknownNode),
            ([*claims, seeded_claim("a", "Claim 1 at a!")], DuplicateClaim)):
        with pytest.raises(error) as ours:
            initial_state(graph, kind, bad)
        with pytest.raises(error) as reference:
            _insert_each(graph, kind, bad)
        assert str(ours.value) == str(reference.value)


def test_insert_claim_duplicate_rejected(two_node):
    graph, claims, state = two_node
    with pytest.raises(DuplicateClaim):
        insert_claim(state, "m", claims[0])


def test_insert_claim_unknown_node(two_node):
    graph, claims, state = two_node
    with pytest.raises(UnknownNode):
        insert_claim(state, "zz", seeded_claim("zz", "anything"))


def test_insert_is_functional(two_node):
    graph, claims, state = two_node
    extra = seeded_claim("m", "a second claim at m")
    after = insert_claim(state, "m", extra)
    assert extra.key not in state.nodes["m"].entries
    assert extra.key in after.nodes["m"].entries
    # Untouched node tables are shared, which is what keeps the per-step
    # frame comparison cheap.
    assert after.nodes["n"] is state.nodes["n"]


# --- record_update ------------------------------------------------------

def test_record_update_joins_upward(two_node):
    graph, claims, state = two_node
    key = claims[0].key
    s1 = record_update(state, "m", key, graded(W, BOT))
    s2 = record_update(s1, "m", key, graded(BOT, S))
    assert s2.nodes["m"].entries[key].assessment == graded(W, S)
    # A lower contribution cannot pull the stored value back down.
    s3 = record_update(s2, "m", key, graded(W, BOT))
    assert s3.nodes["m"].entries[key].assessment == graded(W, S)


def test_record_update_unknown_claim(two_node):
    graph, claims, state = two_node
    with pytest.raises(UnknownClaim):
        record_update(state, "m", "no such key", graded(W, BOT))


def test_record_update_domain_mismatch(two_node):
    graph, claims, state = two_node
    with pytest.raises(DomainMismatch):
        record_update(state, "m", claims[0].key, asmt.FourValue(True, False))


def test_record_update_attaches_and_unions_evidence(two_node):
    graph, claims, state = two_node
    key = claims[0].key
    state, (rec,) = mint_evidence(state, "m", key, [seed()], epoch=1, step=1)
    s1 = record_update(state, "m", key, graded(W, BOT), [rec])
    assert s1.nodes["m"].entries[key].evidence_ids == (rec.id,)
    # Re-citing the same record is a no-op on the id list.
    s2 = record_update(s1, "m", key, graded(W, BOT), [rec])
    assert s2.nodes["m"].entries[key].evidence_ids == (rec.id,)
    assert s2.evidence[rec.id] == rec


def test_record_update_rejects_conflicting_reuse(two_node):
    graph, claims, state = two_node
    key = claims[0].key
    state, (rec,) = mint_evidence(state, "m", key, [seed()], epoch=1, step=1)
    state = record_update(state, "m", key, graded(W, BOT), [rec])
    forged = EvidenceRecord(
        id=rec.id, node="m", claim_key=key, polarity=Polarity.REFUTE,
        strength=S, basis=asmt.ConfidenceBasis.CHECKED,
        source_kind=SourceKind.TOOL_OUTPUT, excerpt="different", epoch=1, step=2,
    )
    with pytest.raises(ValueError):
        record_update(state, "m", key, graded(W, BOT), [forged])


@given(st.lists(st.sampled_from([
    graded(BOT, BOT), graded(W, BOT), graded(BOT, W), graded(W, W),
    graded(S, BOT), graded(BOT, S), graded(S, W), graded(W, S), graded(S, S),
]), max_size=6))
def test_record_update_order_insensitive(updates):
    graph = chain_graph("m", "n")
    claim = seeded_claim("m", "order does not matter here")
    base = initial_state(graph, asmt.DomainKind.GRADED, (claim,))
    forward = base
    for a in updates:
        forward = record_update(forward, "m", claim.key, a)
    backward = base
    for a in reversed(updates):
        backward = record_update(backward, "m", claim.key, a)
    key = claim.key
    assert (forward.nodes["m"].entries[key].assessment
            == backward.nodes["m"].entries[key].assessment)


# --- mint_evidence and refs ---------------------------------------------

def test_mint_assigns_sequential_ids(two_node):
    graph, claims, state = two_node
    key = claims[0].key
    state, recs = mint_evidence(
        state, "m", key, [seed(excerpt="a"), seed(excerpt="b")], epoch=1, step=1)
    assert [r.id for r in recs] == ["e000001", "e000002"]
    assert state.evidence_seq == 3


def test_ref_reuse_cites_existing_active_record(two_node):
    graph, claims, state = two_node
    key = claims[0].key
    state, (first,) = mint_evidence(
        state, "m", key, [seed(ref="doc-1")], epoch=1, step=1)
    state = record_update(state, "m", key, graded(W, BOT), [first])
    state, (again,) = mint_evidence(
        state, "m", key, [seed(ref="doc-1", excerpt="changed text ignored")],
        epoch=1, step=5)
    assert again is first
    assert state.evidence_seq == 2  # nothing new minted


def test_ref_scoped_per_claim(two_node):
    graph, claims, state = two_node
    state, (at_m,) = mint_evidence(
        state, "m", claims[0].key, [seed(ref="doc-1")], epoch=1, step=1)
    state, (at_n,) = mint_evidence(
        state, "n", claims[1].key, [seed(ref="doc-1")], epoch=1, step=2)
    assert at_m.id != at_n.id


def test_superseded_ref_re_mints_and_rebinds(two_node):
    graph, claims, state = two_node
    key = claims[0].key
    state, (first,) = mint_evidence(
        state, "m", key, [seed(ref="doc-1")], epoch=1, step=1)
    state = record_update(state, "m", key, graded(W, BOT), [first])
    state = mark_evidence(state, [first.id], EvidenceStatus.SUPERSEDED, "re-derived")
    state, (fresh,) = mint_evidence(
        state, "m", key, [seed(ref="doc-1")], epoch=2, step=1)
    assert fresh.id != first.id
    assert fresh.status is EvidenceStatus.ACTIVE
    state = record_update(state, "m", key, graded(BOT, S), [fresh])
    # The ref now points at the fresh record.
    state2, (cited,) = mint_evidence(
        state, "m", key, [seed(ref="doc-1")], epoch=2, step=3)
    assert cited.id == fresh.id


def test_mint_without_ref_always_fresh(two_node):
    graph, claims, state = two_node
    key = claims[0].key
    state, (a,) = mint_evidence(state, "m", key, [seed()], epoch=1, step=1)
    state = record_update(state, "m", key, graded(W, BOT), [a])
    state, (b,) = mint_evidence(state, "m", key, [seed()], epoch=1, step=2)
    assert b.id != a.id


# --- mark_evidence ------------------------------------------------------

def test_mark_evidence_supersedes_with_reason(two_node):
    graph, claims, state = two_node
    key = claims[0].key
    state, (rec,) = mint_evidence(state, "m", key, [seed()], epoch=1, step=1)
    state = record_update(state, "m", key, graded(W, BOT), [rec])
    state = mark_evidence(state, [rec.id], EvidenceStatus.SUPERSEDED, "plan 1")
    marked = state.evidence[rec.id]
    assert marked.status is EvidenceStatus.SUPERSEDED
    assert marked.status_reason == "plan 1"
    # Content survives for the audit trail.
    assert marked.excerpt == rec.excerpt


def test_mark_evidence_only_moves_from_active(two_node):
    graph, claims, state = two_node
    key = claims[0].key
    state, (rec,) = mint_evidence(state, "m", key, [seed()], epoch=1, step=1)
    state = record_update(state, "m", key, graded(W, BOT), [rec])
    state = mark_evidence(state, [rec.id], EvidenceStatus.SUPERSEDED, "first")
    state = mark_evidence(state, [rec.id], EvidenceStatus.RETRACTED, "second")
    marked = state.evidence[rec.id]
    assert marked.status is EvidenceStatus.SUPERSEDED
    assert marked.status_reason == "first"


def test_mark_evidence_to_active_rejected(two_node):
    graph, claims, state = two_node
    with pytest.raises(ValueError):
        mark_evidence(state, [], EvidenceStatus.ACTIVE, "nope")


def test_mark_evidence_unknown_id(two_node):
    graph, claims, state = two_node
    with pytest.raises(UnknownClaim):
        mark_evidence(state, ["e999999"], EvidenceStatus.RETRACTED, "gone")


# --- projections and export ----------------------------------------------

def test_projection_ignores_evidence_only_change(two_node):
    graph, claims, state = two_node
    key = claims[0].key
    before = assessment_projection(state.nodes["m"])
    state, (rec,) = mint_evidence(state, "m", key, [seed()], epoch=1, step=1)
    same = record_update(state, "m", key, asmt.bottom(asmt.DomainKind.GRADED), [rec])
    after = assessment_projection(same.nodes["m"])
    assert before == after
    assert same.nodes["m"].entries[key].evidence_ids == (rec.id,)


def test_export_evidence_log_ordering(two_node):
    graph, claims, state = two_node
    key = claims[0].key
    state, (late,) = mint_evidence(state, "m", key, [seed(excerpt="late")],
                                   epoch=2, step=1)
    state = record_update(state, "m", key, graded(W, BOT), [late])
    state, (early,) = mint_evidence(state, "m", key, [seed(excerpt="early")],
                                    epoch=1, step=4)
    state = record_update(state, "m", key, graded(W, BOT), [early])
    lines = [json.loads(line) for line in export_evidence_log(state).splitlines()]
    assert [entry["excerpt"] for entry in lines] == ["early", "late"]
    assert [entry["epoch"] for entry in lines] == [1, 2]
    for entry in lines:
        assert entry["status"] == "active"
        assert entry["claim"] == key


def test_export_evidence_log_empty(two_node):
    graph, claims, state = two_node
    assert export_evidence_log(state) == ""
