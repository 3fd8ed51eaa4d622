"""Non-monotone maintenance: taking back what turned out to be wrong.

Plain worklist runs only ever move assessments up, so a misjudged early
verdict needs an explicit mechanism to undo. Two are provided:

* Bounded replacement: declared moves (lower a claim, retract it, introduce
  a replacement) applied between worklist steps, each charged against
  per-node counters so the run stays finitely revisable.
* Epochal recomputation: let the run stabilize, apply a revision plan,
  re-seed the affected region, and run a fresh epoch, up to a declared epoch
  limit. Every revision is journaled with the value it erased, so any
  pre-revision state can be reconstructed from the log plus the evidence
  store.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

from . import assessment as asmt
from .agent import DEFAULT_RETRIES
from .errors import RevisionDuringRun, UnknownRevisionTarget
from .graph import EvaluationGraph, extended_successors
from .queries import DEFAULT_EXCERPT_CAP
from .state import (
    AnalysisState,
    Claim,
    ClaimOrigin,
    EvidenceStatus,
    canonicalize_claim,
    insert_claim,
    mark_evidence,
)
from .trace import ColumnRegistry, RunTrace
from .worklist import ClaimCaps, OrderPolicy, RunResult, TerminationBudget, run

log = logging.getLogger(__name__)

__all__ = [
    "RevisionLimits",
    "RevisionGuard",
    "RevisionTarget",
    "RevisionPlan",
    "RevisionEntry",
    "BoundedMove",
    "BoundedRevision",
    "EpochConfig",
    "EpochResult",
    "apply_revision",
    "run_epochs",
    "export_revision_log",
    "STATUS_STABILIZED",
    "STATUS_EPOCH_LIMIT",
]

STATUS_STABILIZED = "stabilized"
STATUS_EPOCH_LIMIT = "epoch_limit_reached"

ACTION_LOWER = "lower"
ACTION_RETRACT = "retract"
ACTION_INTRODUCE = "introduce"


@dataclass(frozen=True)
class RevisionLimits:
    """Per-node ceilings for bounded replacement. All zero means the engine
    behaves exactly like the plain monotone loop."""

    introductions: int = 0
    retractions: int = 0
    downward: int = 0

    def limit_for(self, action: str) -> int:
        limits = {
            ACTION_INTRODUCE: self.introductions,
            ACTION_RETRACT: self.retractions,
            ACTION_LOWER: self.downward,
        }
        if action not in limits:
            raise UnknownRevisionTarget(f"unknown revision action {action!r}")
        return limits[action]


class RevisionGuard:
    """Counts revision events per node and refuses any past its limit.

    Allowed events increment the counter; denials do not, and each denial is
    journaled so the refusal itself is auditable.
    """

    def __init__(self, limits: RevisionLimits):
        self.limits = limits
        self._counts: dict[tuple[str, str], int] = {}
        self.denials: list[dict] = []

    def count(self, node: str, action: str) -> int:
        return self._counts.get((node, action), 0)

    def allow(self, node: str, action: str) -> bool:
        used = self.count(node, action)
        if used >= self.limits.limit_for(action):
            self.denials.append({
                "node": node,
                "action": action,
                "used": used,
                "limit": self.limits.limit_for(action),
            })
            return False
        self._counts[(node, action)] = used + 1
        return True


@dataclass(frozen=True)
class RevisionTarget:
    node: str
    claim: str  # label or canonical key; resolved against the live state
    reason: str


@dataclass(frozen=True)
class RevisionPlan:
    lowers: tuple[RevisionTarget, ...] = ()
    retractions: tuple[RevisionTarget, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.lowers or self.retractions)


@dataclass(frozen=True)
class RevisionEntry:
    """Journal line for one applied revision event."""

    epoch: int
    node: str
    claim_key: str
    claim_label: str
    action: str
    reason: str
    old_assessment: asmt.Assessment | None


def _resolve_claim(state: AnalysisState, node: str, ref: str) -> str:
    table = state.nodes.get(node)
    if table is None:
        raise UnknownRevisionTarget(f"revision names unknown node {ref!r} at {node!r}")
    if ref in table.entries:
        return ref
    for key, entry in table.entries.items():
        if entry.claim.label == ref:
            return key
    raise UnknownRevisionTarget(f"no claim {ref!r} at node {node!r}")


def _apply_move(state: AnalysisState, node: str, action: str, ref: str,
                reason: str, epoch: int) -> tuple[AnalysisState, RevisionEntry]:
    """Lower a claim to bottom or retract it outright.

    Either way the claim's evidence is flagged (superseded or retracted, never
    deleted) and the journal entry keeps the erased assessment.
    """
    key = _resolve_claim(state, node, ref)
    entry = state.nodes[node].entries[key]
    journal = RevisionEntry(
        epoch=epoch, node=node, claim_key=key, claim_label=entry.claim.label,
        action=action, reason=reason, old_assessment=entry.assessment)
    entries = dict(state.nodes[node].entries)
    if action == ACTION_LOWER:
        status = EvidenceStatus.SUPERSEDED
        entries[key] = replace(entry, assessment=asmt.bottom(state.kind))
    else:
        status = EvidenceStatus.RETRACTED
        del entries[key]
    state = mark_evidence(state, entry.evidence_ids, status, reason)
    nodes = dict(state.nodes)
    nodes[node] = replace(state.nodes[node], entries=entries)
    return replace(state, nodes=nodes), journal


def apply_revision(
    state: AnalysisState,
    graph: EvaluationGraph,
    plan: RevisionPlan,
    *,
    epoch: int,
    pending_worklist: Sequence[str] = (),
) -> tuple[AnalysisState, tuple[str, ...], tuple[RevisionEntry, ...]]:
    """Apply a declarative plan to a stabilized state.

    Lowered claims drop to bottom and their evidence is superseded; retracted
    claims disappear and their evidence is marked retracted. Either way the
    journal keeps the erased assessment with the reason. Returns the new
    state, the nodes to re-seed (every touched node plus its extended
    successors), and the journal entries.
    """
    if pending_worklist:
        raise RevisionDuringRun(
            "revision plans apply only between epochs; the worklist still has "
            + ", ".join(pending_worklist))
    entries: list[RevisionEntry] = []
    touched: set[str] = set()
    for action, targets in ((ACTION_LOWER, plan.lowers),
                            (ACTION_RETRACT, plan.retractions)):
        for target in targets:
            state, entry = _apply_move(state, target.node, action, target.claim,
                                       target.reason, epoch)
            entries.append(entry)
            touched.add(target.node)

    reseed: set[str] = set(touched)
    for node in touched:
        reseed |= extended_successors(graph, node)
    return state, tuple(sorted(reseed)), tuple(entries)


# --- bounded replacement (mid-run) -------------------------------------------

@dataclass(frozen=True)
class BoundedMove:
    """One declared in-flight revision, applied after a given step count."""

    after_step: int
    node: str
    action: str  # lower | retract | introduce
    claim: str | None = None  # target label/key for lower and retract
    text: str | None = None  # replacement text for introduce
    reason: str = ""
    label: str | None = None  # display label for an introduced claim


class BoundedRevision:
    """Mid-run hook driving bounded replacement.

    Moves fire once, in declaration order, after their step index; each is
    cleared with the guard first and denied moves are dropped (the guard
    journals the denial). Lowers widen the trigger budget by the domain
    height, introductions by height plus one, since that is exactly how much
    re-raising they can re-enable.
    """

    def __init__(self, moves: Sequence[BoundedMove], guard: RevisionGuard,
                 graph: EvaluationGraph, caps: ClaimCaps):
        self._pending = sorted(moves, key=lambda m: m.after_step)
        self.guard = guard
        self._graph = graph
        self._caps = caps
        self.journal: list[RevisionEntry] = []

    def after_step(self, state: AnalysisState, step_index: int, epoch: int):
        due = [m for m in self._pending if m.after_step <= step_index]
        if not due:
            return None
        self._pending = [m for m in self._pending if m.after_step > step_index]
        height = asmt.domain_height(state.kind)
        journal_before = len(self.journal)
        wake: list[str] = []
        allowance = 0
        for move in due:
            if not self.guard.allow(move.node, move.action):
                log.info("bounded %s at %s denied by revision limits",
                         move.action, move.node)
                continue
            if move.action == ACTION_INTRODUCE:
                if not move.text:
                    raise UnknownRevisionTarget(
                        f"introduce move at {move.node!r} has no claim text")
                key = canonicalize_claim(move.text)
                table = state.nodes[move.node].entries
                if key in table or len(table) >= self._caps.cap_for(move.node):
                    log.info("introduce at %s skipped (duplicate or cap)", move.node)
                    continue
                claim = Claim(key=key, text=move.text, origin=ClaimOrigin.GENERATED,
                              node=move.node,
                              label=move.label or f"r{len(self.journal) + 1}@{move.node}")
                state = insert_claim(state, move.node, claim)
                self.journal.append(RevisionEntry(
                    epoch=epoch, node=move.node, claim_key=key,
                    claim_label=claim.label, action=ACTION_INTRODUCE,
                    reason=move.reason, old_assessment=None))
                allowance += height + 1
            else:
                # The guard has already rejected any action it has no
                # limit for, so this is a lower or a retract.
                state, entry = _apply_move(state, move.node, move.action,
                                           move.claim or "", move.reason, epoch)
                self.journal.append(entry)
                if move.action == ACTION_LOWER:
                    allowance += height
            wake.append(move.node)
            wake.extend(sorted(extended_successors(self._graph, move.node)))
        if len(self.journal) == journal_before:
            # Every due move was denied or skipped; nothing to show.
            return None
        return state, wake, allowance


# --- epochal recomputation ----------------------------------------------------

@dataclass(frozen=True)
class EpochConfig:
    """How many stabilize-revise rounds to run, and what each boundary does.
    Plans are keyed by the epoch they follow."""

    epoch_limit: int = 1
    plans: Mapping[int, RevisionPlan] = field(default_factory=dict)


@dataclass
class EpochResult:
    state: AnalysisState
    traces: list[RunTrace]
    revision_log: list[RevisionEntry]
    status: str
    steps: int
    trigger_events: int


def run_epochs(
    graph: EvaluationGraph,
    state: AnalysisState,
    *,
    goal: str,
    queries,
    backend,
    caps: ClaimCaps,
    policy: OrderPolicy,
    budget: TerminationBudget,
    epochs: EpochConfig,
    declared_order: Sequence[str] | None = None,
    excerpt_cap: int = DEFAULT_EXCERPT_CAP,
    agent_retries: int = DEFAULT_RETRIES,
    bounded: BoundedRevision | None = None,
) -> EpochResult:
    """Stabilize, apply the boundary plan, re-seed, repeat.

    With no plans this is exactly one plain run. Hitting the epoch limit with
    plans still unapplied is a normal way to finish and is reported as such;
    each epoch individually respects the same trigger budget. The agent
    backend is shared across epochs, so visit indices keep counting.
    """
    columns = ColumnRegistry()
    traces: list[RunTrace] = []
    journal: list[RevisionEntry] = []
    reseed: tuple[str, ...] | None = None
    total_steps = 0
    total_triggers = 0
    status = STATUS_STABILIZED

    for epoch in range(1, epochs.epoch_limit + 1):
        result: RunResult = run(
            graph, state,
            goal=goal,
            queries=queries,
            backend=backend,
            caps=caps,
            policy=policy,
            budget=budget,
            declared_order=declared_order,
            excerpt_cap=excerpt_cap,
            agent_retries=agent_retries,
            epoch=epoch,
            seeds=reseed,
            columns=columns,
            mid_run=bounded,
        )
        state = result.state
        traces.append(result.trace)
        total_steps += result.steps
        total_triggers += result.trigger_events

        plan = epochs.plans.get(epoch)
        if plan is None or not plan:
            status = STATUS_STABILIZED
            break
        if epoch == epochs.epoch_limit:
            # A plan remains but no epoch is left to honor it.
            status = STATUS_EPOCH_LIMIT
            log.info("epoch limit %d reached with a plan still pending",
                     epochs.epoch_limit)
            break
        state, reseed, entries = apply_revision(state, graph, plan, epoch=epoch)
        journal.extend(entries)

    if bounded is not None:
        journal.extend(bounded.journal)
    return EpochResult(state=state, traces=traces, revision_log=journal,
                       status=status, steps=total_steps,
                       trigger_events=total_triggers)


def export_revision_log(entries: Sequence[RevisionEntry]) -> str:
    lines = []
    for e in entries:
        lines.append(json.dumps({
            "epoch": e.epoch,
            "node": e.node,
            "claim": e.claim_key,
            "label": e.claim_label,
            "action": e.action,
            "reason": e.reason,
            "old_assessment": (asmt.to_json(e.old_assessment)
                               if e.old_assessment is not None else None),
        }, ensure_ascii=False, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")
