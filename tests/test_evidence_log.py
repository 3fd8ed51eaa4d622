"""The shared evidence log against the copy-on-write functions it replaced.

``Reference`` below is the state as it was before records and ref bindings
moved into one run-owned log: plain dicts, copied on every write. Random
operation sequences run through both, each operation starting from any
state made so far, and afterwards every state made so far, old ones
included, must read the same from both.
"""

import bisect
from dataclasses import dataclass, field, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from claimlattice import assessment as asmt
from claimlattice.errors import UnknownClaim
from claimlattice.state import (
    ClaimEntry,
    EvidenceRecord,
    EvidenceSeed,
    EvidenceStatus,
    NodeState,
    Polarity,
    SourceKind,
    initial_state,
    mark_evidence,
    mint_evidence,
    record_update,
)

from conftest import chain_graph, seeded_claim

W = asmt.Strength.WEAK
BOT = asmt.Strength.BOT
REFS = (None, "r1", "r2")


@dataclass(frozen=True)
class Reference:
    nodes: dict
    evidence: dict
    evidence_seq: int = 1
    citations: dict = field(default_factory=dict)


def ref_record_update(state, node, claim_key, contributed, records=()):
    table = state.nodes[node]
    entry = table.entries[claim_key]
    joined = asmt.join(entry.assessment, contributed)
    seen = set(entry.evidence_ids)
    merged_ids = list(entry.evidence_ids)
    evidence = dict(state.evidence)
    for record in records:
        existing = evidence.get(record.id)
        if existing is None:
            evidence[record.id] = record
        elif existing != record:
            raise ValueError(f"evidence id {record.id!r} reused with different content")
        if record.id not in seen:
            seen.add(record.id)
            bisect.insort(merged_ids, record.id, key=lambda i: (
                evidence[i].epoch, evidence[i].step, i))
    entries = dict(table.entries)
    entries[claim_key] = ClaimEntry(entry.claim, joined, tuple(merged_ids))
    nodes = dict(state.nodes)
    nodes[node] = NodeState(entries=entries)
    return replace(state, nodes=nodes, evidence=evidence)


def ref_mint_evidence(state, node, claim_key, seeds, *, epoch, step):
    records = []
    seq = state.evidence_seq
    citations = dict(state.citations)
    for seed in seeds:
        if seed.ref is not None:
            bound = citations.get((node, claim_key, seed.ref))
            if bound is not None:
                existing = state.evidence.get(bound)
                if existing is not None and existing.status is EvidenceStatus.ACTIVE:
                    records.append(existing)
                    continue
        record = EvidenceRecord(
            id=f"e{seq:06d}", node=node, claim_key=claim_key,
            polarity=seed.polarity, strength=seed.strength, basis=seed.basis,
            source_kind=seed.source_kind, excerpt=seed.excerpt,
            epoch=epoch, step=step)
        seq += 1
        records.append(record)
        if seed.ref is not None:
            citations[(node, claim_key, seed.ref)] = record.id
    return replace(state, evidence_seq=seq, citations=citations), tuple(records)


def ref_mark_evidence(state, ids, status, reason):
    evidence = dict(state.evidence)
    for record_id in ids:
        record = evidence.get(record_id)
        if record is None:
            raise UnknownClaim(f"no evidence record {record_id!r}")
        if record.status is not EvidenceStatus.ACTIVE:
            continue
        evidence[record_id] = replace(record, status=status, status_reason=reason)
    return replace(state, evidence=evidence)


def seed(excerpt, ref):
    return EvidenceSeed(polarity=Polarity.SUPPORT, strength=W,
                        basis=asmt.ConfidenceBasis.LOCATED,
                        source_kind=SourceKind.DOC, excerpt=excerpt, ref=ref)


def assert_same(new, ref, claims):
    """Every reading of ``new`` agrees with ``ref``: records and their order,
    the count, the id counter, each ref's binding and the claim tables."""
    assert list(new.evidence.items()) == list(ref.evidence.items())
    assert len(new.evidence) == len(ref.evidence)
    assert new.evidence_seq == ref.evidence_seq
    for record_id in ref.evidence:
        assert record_id in new.evidence
        assert new.evidence.get(record_id) is not None
    assert "e999999" not in new.evidence and new.evidence.get("e999999") is None
    with pytest.raises(KeyError):
        new.evidence["e999999"]
    for claim in claims:
        for name in REFS[1:]:
            key = (claim.node, claim.key, name)
            assert new.evidence.cited(key) == ref.citations.get(key)
    assert new.nodes == ref.nodes


OPS = st.lists(st.one_of(
    # From history state i, mint seeds under these refs for claim c and
    # record them, as one engine evaluation does; a repeated ref re-cites.
    st.tuples(st.just("cite"), st.integers(0, 99), st.integers(0, 2),
              st.lists(st.sampled_from(REFS), min_size=1, max_size=3),
              st.integers(1, 3)),
    # Mint only: binds refs and advances the counter, attaches nothing.
    st.tuples(st.just("mint"), st.integers(0, 99), st.integers(0, 2),
              st.lists(st.sampled_from(REFS), min_size=1, max_size=3),
              st.integers(1, 3)),
    # Attach the j-th record minted on any branch so far to claim c.
    st.tuples(st.just("record"), st.integers(0, 99), st.integers(0, 2),
              st.integers(0, 99)),
    # Move the j-th visible record (or an unknown id) out of ACTIVE.
    st.tuples(st.just("mark"), st.integers(0, 99), st.integers(-1, 99),
              st.sampled_from([EvidenceStatus.SUPERSEDED,
                               EvidenceStatus.RETRACTED])),
), max_size=40)


def both(new_call, ref_call):
    """Run one operation on both sides: the same result, or the same error."""
    try:
        expected = ref_call()
    except (ValueError, UnknownClaim) as exc:
        with pytest.raises(type(exc)):
            new_call()
        return None
    return new_call(), expected


@settings(max_examples=300, deadline=None)
@given(ops=OPS)
def test_evidence_log_matches_copy_on_write(ops):
    graph = chain_graph("m", "n")
    claims = (seeded_claim("m", "first claim", "c0"),
              seeded_claim("m", "second claim", "c1"),
              seeded_claim("n", "third claim", "c2"))
    start = initial_state(graph, asmt.DomainKind.GRADED, claims)
    history = [(start, Reference(nodes=dict(start.nodes), evidence={}))]
    minted: list[EvidenceRecord] = []
    for number, op in enumerate(ops):
        new, ref = history[op[1] % len(history)]
        if op[0] in ("cite", "mint"):
            _, _, which, refs, step = op
            claim = claims[which]
            seeds = [seed(f"x{number}.{k}", name) for k, name in enumerate(refs)]
            (new, records), (ref, expected) = both(
                lambda: mint_evidence(new, claim.node, claim.key, seeds,
                                      epoch=1, step=step),
                lambda: ref_mint_evidence(ref, claim.node, claim.key, seeds,
                                          epoch=1, step=step))
            assert records == expected
            minted.extend(records)
            attach = records if op[0] == "cite" else None
        elif op[0] == "record":
            if not minted:
                continue
            claim = claims[op[2]]
            attach = [minted[op[3] % len(minted)]]
        else:
            _, _, index, status = op
            ids = list(ref.evidence)
            target = ids[index % len(ids)] if ids and index >= 0 else "e999999"
            outcome = both(
                lambda: mark_evidence(new, [target], status, f"op {number}"),
                lambda: ref_mark_evidence(ref, [target], status, f"op {number}"))
            if outcome is None:
                continue
            new, ref = outcome
            attach = None
        if attach is not None:
            # A record minted on another branch may reuse an id this state
            # already holds with other content; both sides must refuse it.
            contributed = asmt.GradedValue(W if op[0] == "cite" else BOT, BOT)
            outcome = both(
                lambda: record_update(new, claim.node, claim.key, contributed,
                                      attach),
                lambda: ref_record_update(ref, claim.node, claim.key,
                                          contributed, attach))
            if outcome is None:
                continue
            new, ref = outcome
        history.append((new, ref))
        for new, ref in history:
            assert_same(new, ref, claims)


def test_a_write_through_an_older_state_leaves_newer_states_alone():
    graph = chain_graph("m")
    claim = seeded_claim("m", "only claim")
    base = initial_state(graph, asmt.DomainKind.GRADED, (claim,))
    older, (a,) = mint_evidence(base, "m", claim.key, [seed("a", "r1")],
                                epoch=1, step=1)
    older = record_update(older, "m", claim.key, asmt.GradedValue(W, BOT), [a])
    newer, (b,) = mint_evidence(older, "m", claim.key, [seed("b", None)],
                                epoch=1, step=2)
    newer = record_update(newer, "m", claim.key, asmt.GradedValue(W, BOT), [b])
    branch, (c,) = mint_evidence(older, "m", claim.key, [seed("c", None)],
                                 epoch=1, step=2)
    branch = record_update(branch, "m", claim.key, asmt.GradedValue(W, BOT), [c])
    # The branch reused the counter value the newer state spent on ``b``.
    assert c.id == b.id and c != b
    assert newer.evidence[b.id] is b and branch.evidence[c.id] is c
    assert list(older.evidence) == [a.id]
    marked = mark_evidence(newer, [a.id], EvidenceStatus.SUPERSEDED, "gone")
    assert marked.evidence[a.id].status is EvidenceStatus.SUPERSEDED
    for state in (older, newer, branch):
        assert state.evidence[a.id] is a
        assert state.evidence.cited(("m", claim.key, "r1")) == a.id
