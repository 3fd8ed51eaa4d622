"""Claims, evidence records, and the run state they live in.

State maps every graph node to its claim table; each claim carries an
assessment and the ids of the evidence records behind it. Every operation
returns a new state value and leaves its input as it was. Node tables are
functional: an update copies the one table it changes and shares the rest,
which keeps the per-step frame check cheap (untouched nodes compare
identical by object identity).

Evidence records and ref bindings live in one run-owned, append-only
``EvidenceLog``. A state sees a prefix of it through an ``EvidenceView``,
so adding a record costs what is added, not a copy of the run's evidence.
A write through a view that is not its log's tip (the state is older than
the newest write) first copies the visible prefix into a new log, and
``mark_evidence`` always copies. So no state ever sees a record, binding or
status change made after it.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass, replace
from enum import Enum
from itertools import islice
from typing import Iterable, Iterator, Mapping, Sequence

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
    "EvidenceLog",
    "EvidenceView",
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


# (node, claim_key, ref): the scope of a citation handle.
RefKey = tuple[str, str, str]
# A log entry: a record, or a binding that points a ref at a record id.
LogEntry = EvidenceRecord | tuple[RefKey, str]


class EvidenceLog:
    """A run's evidence records and ref bindings, in the order written.

    ``entries`` only grows, except that ``mark_evidence`` rewrites records
    in a log of its own. A binding points its ref at the record it cites
    from then on.
    """

    __slots__ = ("entries", "slots", "bindings")

    def __init__(self, entries: Iterable[LogEntry] = ()):
        self.entries: list[LogEntry] = []
        self.slots: dict[str, int] = {}  # record id -> its index in entries
        # ref key -> the indices of its bindings, ascending
        self.bindings: dict[RefKey, tuple[int, ...]] = {}
        self.extend(entries)

    def extend(self, entries: Iterable[LogEntry]) -> None:
        for entry in entries:
            if isinstance(entry, EvidenceRecord):
                self.slots[entry.id] = len(self.entries)
            else:
                self.bindings[entry[0]] = (
                    self.bindings.get(entry[0], ()) + (len(self.entries),))
            self.entries.append(entry)


class EvidenceView(Mapping[str, EvidenceRecord]):
    """One state's evidence: the first ``length`` entries of ``log``, of
    which ``count`` are records, as a read-only map from id to record in
    the order the records were first attached."""

    __slots__ = ("log", "length", "count")

    def __init__(self, log: EvidenceLog | None = None, length: int = 0,
                 count: int = 0):
        self.log = log if log is not None else EvidenceLog()
        self.length = length
        self.count = count

    def __getitem__(self, record_id: str) -> EvidenceRecord:
        index = self.log.slots.get(record_id, self.length)
        if index >= self.length:
            raise KeyError(record_id)
        return self.log.entries[index]

    def get(self, record_id: str, default=None):
        index = self.log.slots.get(record_id, self.length)
        return self.log.entries[index] if index < self.length else default

    def __iter__(self) -> Iterator[str]:
        return (entry.id for entry in islice(self.log.entries, self.length)
                if isinstance(entry, EvidenceRecord))

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:
        return f"EvidenceView({dict(self)!r})"

    def cited(self, ref_key: RefKey) -> str | None:
        """The record id ``ref_key`` was last bound to, as this view sees it."""
        for index in reversed(self.log.bindings.get(ref_key, ())):
            if index < self.length:
                return self.log.entries[index][1]
        return None

    def fork(self) -> EvidenceLog:
        """A new log holding exactly what this view sees."""
        source = self.log
        if self.length != len(source.entries):
            return EvidenceLog(islice(source.entries, self.length))
        # The view sees the whole log, so shallow copies do: the binding
        # index tuples are never changed in place.
        log = EvidenceLog()
        log.entries = source.entries.copy()
        log.slots = source.slots.copy()
        log.bindings = source.bindings.copy()
        return log

    def appended(self, entries: Sequence[LogEntry]) -> "EvidenceView":
        """This view plus ``entries``. Appends in place when this view is its
        log's tip, so every older view keeps its length and sees nothing new;
        otherwise the entries go after a fork of what this view sees."""
        if not entries:
            return self
        log = self.log
        if self.length != len(log.entries):
            log = self.fork()
        log.extend(entries)
        added = sum(isinstance(entry, EvidenceRecord) for entry in entries)
        return EvidenceView(log, len(log.entries), self.count + added)


@dataclass(frozen=True)
class AnalysisState:
    kind: asmt.DomainKind
    nodes: Mapping[str, NodeState]
    # Records by id, and each ref's binding for re-citation (``cited``).
    evidence: EvidenceView
    evidence_seq: int = 1
    claim_seq: int = 1


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
    return AnalysisState(kind=kind, nodes=nodes, evidence=EvidenceView())


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
    evidence = state.evidence
    fresh: dict[str, EvidenceRecord] = {}

    def order(record_id: str) -> tuple[int, int, str]:
        record = fresh.get(record_id) or evidence[record_id]
        return record.epoch, record.step, record_id

    for record in records:
        existing = fresh.get(record.id) or evidence.get(record.id)
        if existing is None:
            fresh[record.id] = record
        elif existing != record:
            raise ValueError(f"evidence id {record.id!r} reused with different content")
        if record.id not in seen:
            seen.add(record.id)
            # Appends unless the record sorts before the current last one.
            bisect.insort(merged_ids, record.id, key=order)
    new_entry = ClaimEntry(entry.claim, joined, tuple(merged_ids))
    entries = dict(table.entries)
    entries[claim_key] = new_entry
    nodes = dict(state.nodes)
    nodes[node] = NodeState(entries=entries)
    return replace(state, nodes=nodes,
                   evidence=evidence.appended(tuple(fresh.values())))


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
    bindings: dict[RefKey, str] = {}
    for seed in seeds:
        if seed.ref is not None:
            ref_key = (node, claim_key, seed.ref)
            bound = bindings.get(ref_key) or state.evidence.cited(ref_key)
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
            bindings[ref_key] = record.id
    new_state = replace(state, evidence_seq=seq,
                        evidence=state.evidence.appended(tuple(bindings.items())))
    return new_state, tuple(records)


def mark_evidence(
    state: AnalysisState,
    ids: Iterable[str],
    status: EvidenceStatus,
    reason: str,
) -> AnalysisState:
    """Move records out of ACTIVE, keeping their content for the audit trail.

    Works on a fork of the state's evidence, so the input state and every
    other state keep seeing the old statuses.
    """
    if status is EvidenceStatus.ACTIVE:
        raise ValueError("evidence can only move away from ACTIVE")
    log = state.evidence.fork()
    for record_id in ids:
        index = log.slots.get(record_id)
        if index is None:
            raise UnknownClaim(f"no evidence record {record_id!r}")
        record = log.entries[index]
        if record.status is not EvidenceStatus.ACTIVE:
            continue
        log.entries[index] = replace(record, status=status, status_reason=reason)
    return replace(state, evidence=EvidenceView(log, len(log.entries),
                                                state.evidence.count))


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
