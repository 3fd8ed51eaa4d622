"""Claims, evidence records, and the run state they live in.

State maps every graph node to its claim table; each claim carries an
assessment and the ids of the evidence records behind it. Updates are
functional: every operation returns a new state value and shares untouched
node tables with its input, which keeps the per-step frame check cheap
(untouched nodes compare identical by object identity).
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable, Mapping, Sequence

from . import assessment as asmt
from .errors import DomainMismatch, DuplicateClaim, EmptyClaim, UnknownClaim, UnknownNode
from .graph import EvaluationGraph

__all__ = [
    "ClaimOrigin",
    "Polarity",
    "SourceKind",
    "EvidenceStatus",
    "Claim",
    "EvidenceRecord",
    "EvidenceSeed",
    "ClaimEntry",
    "NodeState",
    "AnalysisState",
    "canonicalize_claim",
    "initial_state",
    "insert_claim",
    "record_update",
    "mint_evidence",
    "mark_evidence",
    "assessment_projection",
    "export_evidence_log",
]

_TRAILING_PUNCTUATION = ".,;:!?"


def canonicalize_claim(text: str) -> str:
    """Normalize claim text into its identity key.

    Whitespace is trimmed and collapsed, case is folded, trailing punctuation
    is dropped. Purely syntactic: paraphrases stay distinct claims.
    """
    collapsed = " ".join(text.split())
    folded = collapsed.casefold()
    stripped = folded.rstrip(_TRAILING_PUNCTUATION).rstrip()
    if not stripped:
        raise EmptyClaim(f"claim text is empty after canonicalization: {text!r}")
    return stripped


class ClaimOrigin(str, Enum):
    SEEDED = "seeded"
    GENERATED = "generated"


class Polarity(str, Enum):
    SUPPORT = "support"
    REFUTE = "refute"


class SourceKind(str, Enum):
    DOC = "doc"
    ADVISORY = "advisory"
    CODE_OBSERVATION = "code_observation"
    TOOL_OUTPUT = "tool_output"
    MODEL_JUDGMENT = "model_judgment"


class EvidenceStatus(str, Enum):
    ACTIVE = "active"
    SUPERSEDED = "superseded"
    RETRACTED = "retracted"


@dataclass(frozen=True)
class Claim:
    key: str
    text: str
    origin: ClaimOrigin
    node: str
    label: str


@dataclass(frozen=True)
class EvidenceRecord:
    """One piece of cited evidence. Identity is the id alone; two records
    with identical content from different steps stay distinct."""

    id: str
    node: str
    claim_key: str
    polarity: Polarity
    strength: asmt.Strength
    basis: asmt.ConfidenceBasis
    source_kind: SourceKind
    excerpt: str
    epoch: int
    step: int
    status: EvidenceStatus = EvidenceStatus.ACTIVE
    status_reason: str | None = None


@dataclass(frozen=True)
class EvidenceSeed:
    """Evidence as an agent reports it, before the engine assigns an id.

    ``ref`` is an optional scenario-scoped citation handle: reusing a ref for
    the same claim re-cites the existing active record instead of minting a
    duplicate, which is how a revisit can answer "same evidence as before".
    """

    polarity: Polarity
    strength: asmt.Strength
    basis: asmt.ConfidenceBasis
    source_kind: SourceKind
    excerpt: str
    ref: str | None = None


@dataclass(frozen=True)
class ClaimEntry:
    claim: Claim
    assessment: asmt.Assessment
    evidence_ids: tuple[str, ...]


@dataclass(frozen=True)
class NodeState:
    # Insertion-ordered claim table, keyed by canonical claim key.
    entries: Mapping[str, ClaimEntry]


@dataclass(frozen=True)
class AnalysisState:
    kind: asmt.DomainKind
    nodes: Mapping[str, NodeState]
    evidence: Mapping[str, EvidenceRecord]
    evidence_seq: int = 1
    claim_seq: int = 1
    # (node, claim_key, ref) -> evidence id, for re-citation.
    citations: Mapping[tuple[str, str, str], str] = field(default_factory=dict)


def initial_state(
    graph: EvaluationGraph,
    kind: asmt.DomainKind,
    claims: Iterable[Claim] = (),
) -> AnalysisState:
    """Bottom state over the graph with the seeded claims installed; equal,
    errors included, to one ``insert_claim`` per claim."""
    tables: dict[str, dict[str, ClaimEntry]] = {n: {} for n in graph.all_nodes}
    bottom = asmt.bottom(kind)
    for claim in claims:
        table = tables.get(claim.node)
        if table is None:
            raise UnknownNode(f"node {claim.node!r} is not part of this run")
        if claim.key in table:
            raise DuplicateClaim(
                f"claim {claim.key!r} already present at node {claim.node!r}")
        table[claim.key] = ClaimEntry(claim, bottom, evidence_ids=())
    nodes = {n: NodeState(entries=tables[n]) for n in sorted(tables)}
    return AnalysisState(kind=kind, nodes=nodes, evidence={})


def _node_state(state: AnalysisState, node: str) -> NodeState:
    try:
        return state.nodes[node]
    except KeyError:
        raise UnknownNode(f"node {node!r} is not part of this run") from None


def insert_claim(state: AnalysisState, node: str, claim: Claim) -> AnalysisState:
    """Install a new claim at the domain's bottom with no evidence."""
    table = _node_state(state, node)
    if claim.key in table.entries:
        raise DuplicateClaim(f"claim {claim.key!r} already present at node {node!r}")
    entry = ClaimEntry(
        claim=claim,
        assessment=asmt.bottom(state.kind),
        evidence_ids=(),
    )
    entries = dict(table.entries)
    entries[claim.key] = entry
    nodes = dict(state.nodes)
    nodes[node] = NodeState(entries=entries)
    return replace(state, nodes=nodes)


def record_update(
    state: AnalysisState,
    node: str,
    claim_key: str,
    contributed: asmt.Assessment,
    records: Sequence[EvidenceRecord] = (),
) -> AnalysisState:
    """Join a contributed assessment into a claim and attach its evidence.

    The stored assessment can only move up the lattice; evidence ids are
    unioned, so re-citing an already attached record is a no-op. They stay
    in ascending (epoch, step, id) order, so the newest are read first.
    """
    table = _node_state(state, node)
    if claim_key not in table.entries:
        raise UnknownClaim(f"no claim {claim_key!r} at node {node!r}")
    if asmt.kind_of(contributed) is not state.kind:
        raise DomainMismatch(
            f"run is {state.kind.value}, update is {asmt.kind_of(contributed).value}"
        )
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
            # Appends unless the record sorts before the current last one.
            bisect.insort(merged_ids, record.id, key=lambda i: (
                evidence[i].epoch, evidence[i].step, i))
    new_entry = ClaimEntry(entry.claim, joined, tuple(merged_ids))
    entries = dict(table.entries)
    entries[claim_key] = new_entry
    nodes = dict(state.nodes)
    nodes[node] = NodeState(entries=entries)
    return replace(state, nodes=nodes, evidence=evidence)


def mint_evidence(
    state: AnalysisState,
    node: str,
    claim_key: str,
    seeds: Sequence[EvidenceSeed],
    *,
    epoch: int,
    step: int,
) -> tuple[AnalysisState, tuple[EvidenceRecord, ...]]:
    """Turn agent-reported seeds into records with run-unique ids.

    A seed with a ref already bound to an active record for this claim
    resolves to that record; otherwise a fresh id is allocated and, when the
    seed carries a ref, the ref is (re)bound to it. Superseded and retracted
    records are never re-cited.
    """
    records: list[EvidenceRecord] = []
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
            id=f"e{seq:06d}",
            node=node,
            claim_key=claim_key,
            polarity=seed.polarity,
            strength=seed.strength,
            basis=seed.basis,
            source_kind=seed.source_kind,
            excerpt=seed.excerpt,
            epoch=epoch,
            step=step,
        )
        seq += 1
        records.append(record)
        if seed.ref is not None:
            citations[(node, claim_key, seed.ref)] = record.id
    new_state = replace(state, evidence_seq=seq, citations=citations)
    return new_state, tuple(records)


def mark_evidence(
    state: AnalysisState,
    ids: Iterable[str],
    status: EvidenceStatus,
    reason: str,
) -> AnalysisState:
    """Move records out of ACTIVE, keeping their content for the audit trail."""
    if status is EvidenceStatus.ACTIVE:
        raise ValueError("evidence can only move away from ACTIVE")
    evidence = dict(state.evidence)
    for record_id in ids:
        record = evidence.get(record_id)
        if record is None:
            raise UnknownClaim(f"no evidence record {record_id!r}")
        if record.status is not EvidenceStatus.ACTIVE:
            continue
        evidence[record_id] = replace(record, status=status, status_reason=reason)
    return replace(state, evidence=evidence)


def assessment_projection(node_state: NodeState) -> dict[str, asmt.Assessment]:
    """Assessment-only view of a node's claim table; evidence is dropped.

    Equality of two projections is exactly the engine's "did anything that
    should wake successors change" test.
    """
    return {key: entry.assessment for key, entry in node_state.entries.items()}


def export_evidence_log(state: AnalysisState) -> str:
    """All evidence records as JSON lines, ordered by (epoch, step, id)."""
    records = sorted(state.evidence.values(), key=lambda r: (r.epoch, r.step, r.id))
    lines = []
    for r in records:
        lines.append(json.dumps({
            "id": r.id,
            "node": r.node,
            "claim": r.claim_key,
            "polarity": r.polarity.value,
            "strength": r.strength.token,
            "basis": r.basis.token,
            "source_kind": r.source_kind.value,
            "excerpt": r.excerpt,
            "epoch": r.epoch,
            "step": r.step,
            "status": r.status.value,
            "status_reason": r.status_reason,
        }, ensure_ascii=False, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")
