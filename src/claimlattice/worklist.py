"""The worklist engine: seed, process, propagate, stabilize.

The loop is the classic chaotic iteration shape. A node comes off the
worklist, its transformer runs, and its extended successors are enqueued
exactly when the node's assessment view changed; evidence-only growth never
wakes anyone. The worklist is an ordered set: membership is policy-free,
ordering is the policy's whole job.

Every run enforces its termination budget and two soundness checks: the
frame property (a step touches only its own node's claim table) and enqueue
justification (every non-seed enqueue names the change that caused it).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import count
from typing import Callable, Mapping, Sequence

from . import assessment as asmt
from .agent import DEFAULT_RETRIES, AgentBackend
from .errors import BudgetExceeded, InvariantViolation, ScenarioError, UnknownNode
from .graph import EvaluationGraph, extended_predecessors, extended_successors
from .queries import DEFAULT_EXCERPT_CAP, QuerySpec
from .state import AnalysisState, assessment_projection
from .trace import ColumnRegistry, RunTrace, TraceStep
from .transformer import process_node

log = logging.getLogger(__name__)

__all__ = [
    "ClaimCaps",
    "TerminationBudget",
    "Worklist",
    "OrderPolicy",
    "FifoPolicy",
    "LifoPolicy",
    "parse_policy",
    "POLICY_NAMES",
    "weak_topological_order",
    "flatten_wto",
    "initial_worklist",
    "RunResult",
    "run",
]


@dataclass(frozen=True)
class ClaimCaps:
    """Per-node claim budgets; the sum is the K term of the step budget."""

    default: int = 16
    per_node: Mapping[str, int] = field(default_factory=dict)

    def cap_for(self, node: str) -> int:
        return self.per_node.get(node, self.default)

    def total(self, nodes: Sequence[str]) -> int:
        return sum(self.cap_for(n) for n in nodes)


@dataclass(frozen=True)
class TerminationBudget:
    """Hard limits a correct run can never hit.

    With at most ``claim_capacity`` claims ever in play and a domain of
    height ``height``, at most claim_capacity insertions plus
    height * claim_capacity strict raises can change any assessment view, so
    worklist-triggering events are bounded by their sum. The step cap backs
    that up against engine bugs with a generous multiple.
    """

    height: int
    claim_capacity: int
    max_trigger_events: int
    hard_step_cap: int

    @classmethod
    def for_run(
        cls,
        kind: asmt.DomainKind,
        caps: ClaimCaps,
        nodes: Sequence[str],
        hard_step_cap: int | None = None,
    ) -> "TerminationBudget":
        height = asmt.domain_height(kind)
        capacity = caps.total(nodes)
        max_events = capacity + height * capacity
        if hard_step_cap is None:
            hard_step_cap = max(10 * max_events, 16)
        return cls(height=height, claim_capacity=capacity,
                   max_trigger_events=max_events, hard_step_cap=hard_step_cap)


# --- worklist structures -----------------------------------------------------

class Worklist:
    """Ordered set of pending nodes; membership and deduplication are common.

    Without a ``key``, nodes pop in arrival order, or newest first when
    ``lifo`` is set, and trace rows list them in arrival order. With
    ``key(node, via_feedback)`` the smallest key pops first and trace rows
    list nodes in key order.
    """

    def __init__(self, key: Callable[[str, bool], tuple] | None = None, *,
                 lifo: bool = False):
        self._key = key
        self._lifo = lifo
        self._items: list[str] = []
        self._member: set[str] = set()
        self._via_feedback: set[str] = set()

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, node: str) -> bool:
        return node in self._member

    def push(self, node: str, *, feedback: bool = False) -> bool:
        """Add a node; returns True only when it was not already pending."""
        if feedback:
            self._via_feedback.add(node)
        if node in self._member:
            return False
        self._member.add(node)
        self._items.append(node)
        return True

    def _sort_key(self, node: str) -> tuple:
        return self._key(node, node in self._via_feedback)

    def _take(self, index: int) -> str:
        node = self._items.pop(index)
        self._member.discard(node)
        self._via_feedback.discard(node)
        return node

    def pop(self) -> str:
        if self._key is None:
            return self._take(-1 if self._lifo else 0)
        return self._take(min(range(len(self._items)),
                              key=lambda i: self._sort_key(self._items[i])))

    def members(self) -> tuple[str, ...]:
        """Policy-eye view of the pending set, used for trace rows."""
        if self._key is None:
            return tuple(self._items)
        return tuple(sorted(self._items, key=self._sort_key))

    def finish(self) -> None:
        """Hook called when the loop drains; policies may object."""


def RankedWorklist(rank: Mapping[str, int]) -> Worklist:
    """Pops by ``rank``; unranked nodes go last, ties go by node id."""
    rank = dict(rank)
    return Worklist(lambda node, _: (rank.get(node, len(rank)), node))


class ScriptedWorklist(Worklist):
    """Pops follow a pinned node sequence; any divergence from what the run
    actually needs is a scenario bug and says so."""

    def __init__(self, steps: Sequence[str]):
        super().__init__()
        self._steps = list(steps)
        self._cursor = 0

    def pop(self) -> str:
        if self._cursor >= len(self._steps):
            raise ScenarioError(
                "scripted order ran out of steps with work still pending: "
                + ", ".join(self._items))
        node = self._steps[self._cursor]
        self._cursor += 1
        if node not in self._member:
            raise ScenarioError(
                f"scripted order names {node!r} at position {self._cursor}, "
                "but it is not pending")
        return self._take(self._items.index(node))

    def finish(self) -> None:
        if self._cursor < len(self._steps):
            leftover = self._steps[self._cursor:]
            raise ScenarioError(
                "scripted order has unused steps after stabilization: "
                + ", ".join(leftover))


# --- ordering policies -------------------------------------------------------

class OrderPolicy:
    """A named worklist order: which pending node pops next.

    ``steps`` parameterizes scripted-order and ``goal_node`` goal-directed,
    which seeds only the goal node and pulls in extended predecessors lazily
    whenever a processed node still sees nothing but bottoms upstream.
    Subclasses may override ``build`` to supply an order of their own.
    """

    def __init__(self, name: str, *, steps: Sequence[str] = (),
                 goal_node: str | None = None):
        self.name = name
        self.steps = tuple(steps)
        self.goal_node = goal_node

    @property
    def goal_probes(self) -> bool:
        return self.name == "goal-directed"

    def build(self, graph: EvaluationGraph) -> Worklist:
        return _BUILDERS[self.name](self, graph)

    def seed_nodes(self, candidates: Sequence[str]) -> Sequence[str]:
        return [self.goal_node] if self.goal_probes else candidates


def FifoPolicy() -> OrderPolicy:
    return OrderPolicy("fifo")


def LifoPolicy() -> OrderPolicy:
    return OrderPolicy("lifo")


def _wto_worklist(policy: OrderPolicy, graph: EvaluationGraph) -> Worklist:
    order = flatten_wto(weak_topological_order(graph))
    return RankedWorklist({node: i for i, node in enumerate(order)})


_BUILDERS: dict[str, Callable[[OrderPolicy, EvaluationGraph], Worklist]] = {
    "fifo": lambda policy, graph: Worklist(),
    "lifo": lambda policy, graph: Worklist(lifo=True),
    "wto": _wto_worklist,
    "goal-directed": lambda policy, graph: Worklist(),
    # Feedback-edge arrivals outrank everything else; ties go by node id.
    "feedback-priority": lambda policy, graph: Worklist(
        lambda node, via_feedback: (not via_feedback, node)),
    "scripted-order": lambda policy, graph: ScriptedWorklist(policy.steps),
}

POLICY_NAMES = tuple(_BUILDERS)


def parse_policy(
    name: str,
    *,
    steps: Sequence[str] | None = None,
    goal_node: str | None = None,
) -> OrderPolicy:
    if name not in _BUILDERS:
        raise ValueError(f"unknown worklist policy {name!r}")
    if name == "goal-directed" and not goal_node:
        raise ValueError("goal-directed ordering needs a goal node")
    if name == "scripted-order" and not steps:
        raise ValueError("scripted-order needs an explicit step list")
    return OrderPolicy(name, steps=steps or (), goal_node=goal_node)


# --- weak topological order --------------------------------------------------

def weak_topological_order(graph: EvaluationGraph):
    """Bourdoncle-style hierarchical ordering over the extended edges.

    Returns a nested tuple: plain node ids interleaved with component tuples
    whose first element is the component head. Deterministic because roots
    and successors are always visited in node-id order.

    ``visit`` and ``component`` are the algorithm's mutually recursive
    procedures written as generators: each yields the call it would make,
    and a driver loop keeps the pending calls on an explicit stack, so a
    chain or a nest of any depth orders without touching Python's recursion
    limit. A partition is built back to front by appending, and read
    reversed.
    """
    nodes = sorted(graph.all_nodes)
    succs = {n: sorted(extended_successors(graph, n)) for n in nodes}

    dfn: dict[str, float] = dict.fromkeys(nodes, 0)
    stack: list[str] = []
    counter = count(1)

    def visit(vertex: str, partition: list):
        stack.append(vertex)
        number = next(counter)
        dfn[vertex] = number
        head: float = number
        loop = False
        for succ in succs[vertex]:
            if dfn[succ] == 0:
                minimum = yield visit(succ, partition)
            else:
                minimum = dfn[succ]
            if minimum <= head:
                head = minimum
                loop = True
        if head == dfn[vertex]:
            dfn[vertex] = float("inf")
            element = stack.pop()
            if loop:
                while element != vertex:
                    dfn[element] = 0
                    element = stack.pop()
                partition.append((yield component(vertex)))
            else:
                partition.append(vertex)
        return head

    def component(vertex: str):
        members: list = []
        for succ in succs[vertex]:
            if dfn[succ] == 0:
                yield visit(succ, members)
        return (vertex, *reversed(members))

    def drive(call) -> None:
        calls = [call]
        value = None
        while calls:
            try:
                calls.append(calls[-1].send(value))
                value = None
            except StopIteration as done:
                calls.pop()
                value = done.value

    partition: list = []
    for vertex in nodes:
        if dfn[vertex] == 0:
            drive(visit(vertex, partition))
    return tuple(reversed(partition))


def flatten_wto(ordering) -> list[str]:
    out: list[str] = []
    pending = [iter(ordering)]
    while pending:
        for element in pending[-1]:
            if isinstance(element, tuple):
                pending.append(iter(element))
                break
            out.append(element)
        else:
            pending.pop()
    return out


# --- the engine --------------------------------------------------------------

def initial_worklist(
    graph: EvaluationGraph,
    state: AnalysisState,
    queries: Mapping[str, QuerySpec],
    declared_order: Sequence[str] | None = None,
) -> list[str]:
    """Exactly the nodes with something to do at step zero: a claim already
    present, or a generative query that could mint one."""
    order = list(declared_order) if declared_order is not None else sorted(
        graph.all_nodes)
    seeds = []
    for node in order:
        if node not in graph.all_nodes:
            raise UnknownNode(f"declared order names unknown node {node!r}")
        spec = queries.get(node)
        if state.nodes[node].entries or (spec is not None and spec.gen):
            seeds.append(node)
    return seeds


@dataclass
class RunResult:
    state: AnalysisState
    trace: RunTrace
    steps: int
    trigger_events: int


def _keyframe_cells(columns: ColumnRegistry,
                    state: AnalysisState) -> tuple[tuple[str, asmt.Assessment | None], ...]:
    cells = []
    for column in columns.columns:
        entry = state.nodes[column.node].entries.get(column.key)
        cells.append((column.label, entry.assessment if entry else None))
    return tuple(cells)


def _register_columns(columns: ColumnRegistry, state: AnalysisState,
                      order: Sequence[str]) -> None:
    for node in order:
        for key, entry in state.nodes[node].entries.items():
            columns.add(entry.claim.label, node, key)


def run(
    graph: EvaluationGraph,
    state: AnalysisState,
    *,
    goal: str,
    queries: Mapping[str, QuerySpec],
    backend: AgentBackend,
    caps: ClaimCaps,
    policy: OrderPolicy,
    budget: TerminationBudget,
    declared_order: Sequence[str] | None = None,
    excerpt_cap: int = DEFAULT_EXCERPT_CAP,
    agent_retries: int = DEFAULT_RETRIES,
    epoch: int = 1,
    seeds: Sequence[str] | None = None,
    columns: ColumnRegistry | None = None,
    mid_run=None,
    check_invariants: bool = True,
) -> RunResult:
    """Drive the worklist to empty and return the stabilized state.

    ``seeds`` overrides the computed initial worklist (used when an epoch
    resumes after revision); ``columns`` carries the claim-column order
    across epochs. Epochs after the first open with a "revision" row instead
    of "init". ``mid_run`` is an optional hook with an
    ``after_step(state, step_index, epoch)`` method; it may return
    (new_state, nodes_to_enqueue, trigger_allowance_delta) to apply an
    in-flight revision between steps, and the delta widens the trigger
    budget by the re-raises that revision legitimately re-enables.
    """
    order = list(declared_order) if declared_order is not None else sorted(
        graph.all_nodes)
    if columns is None:
        columns = ColumnRegistry()
    _register_columns(columns, state, order)

    worklist = policy.build(graph)
    if seeds is None:
        seed_list = list(policy.seed_nodes(initial_worklist(
            graph, state, queries, order)))
    else:
        seed_set = set(seeds)
        seed_list = [n for n in order if n in seed_set]
    for node in seed_list:
        worklist.push(node)

    trace = RunTrace(epoch=epoch)
    trace.steps.append(TraceStep(
        index=0,
        node=None,
        action="init" if epoch == 1 else "revision",
        cells=_keyframe_cells(columns, state),
        joins=(),
        worklist_after=worklist.members(),
        ac_changed=False,
        enqueued=tuple((n, "seed") for n in seed_list),
    ))

    steps_done = 0
    trigger_events = 0
    trigger_budget = budget.max_trigger_events
    probed: set[str] = set()
    pred_cache: dict = {}

    while len(worklist):
        if steps_done >= budget.hard_step_cap:
            raise BudgetExceeded(
                f"hard step cap {budget.hard_step_cap} reached with work pending")
        node = worklist.pop()
        before = state
        before_view = assessment_projection(state.nodes[node])
        state, report = process_node(
            graph, state, node,
            goal=goal,
            queries=queries,
            backend=backend,
            claim_cap=caps.cap_for(node),
            epoch=epoch,
            step=steps_done + 1,
            excerpt_cap=excerpt_cap,
            agent_retries=agent_retries,
            pred_cache=pred_cache,
        )
        steps_done += 1

        if check_invariants:
            for other in before.nodes:
                if other == node:
                    continue
                if state.nodes[other] is not before.nodes[other] \
                        and state.nodes[other] != before.nodes[other]:
                    raise InvariantViolation(
                        f"step {steps_done} at {node!r} modified node {other!r}")

        after_view = assessment_projection(state.nodes[node])
        ac_changed = after_view != before_view
        if check_invariants and ac_changed != report.ac_changed:
            raise InvariantViolation(
                f"step {steps_done} at {node!r}: transformer and engine disagree "
                "on whether the assessment view changed")

        enqueued: list[tuple[str, str]] = []
        if ac_changed:
            trigger_events += 1
            if trigger_events > trigger_budget:
                raise BudgetExceeded(
                    f"assessment-change events exceeded the budget of "
                    f"{trigger_budget}")
            # Forward flow enqueues before feedback re-examination; the split
            # fixes the FIFO ordering (and the rendered worklist column).
            for succ in graph.context_successors.get(node, ()):
                if worklist.push(succ):
                    enqueued.append((succ, "ac_change"))
            for succ in graph.feedback_successors.get(node, ()):
                if worklist.push(succ, feedback=True):
                    enqueued.append((succ, "ac_change"))

        if policy.goal_probes:
            # Lazy upstream expansion: pull in predecessors that have never
            # produced anything, so the goal's support gets built on demand.
            # Each predecessor is probed at most once per epoch; later visits
            # come from its own changes, so probes are bounded by the node
            # count even though they are not trigger events.
            for pred in sorted(extended_predecessors(graph, node)):
                table = state.nodes[pred].entries
                spec = queries.get(pred)
                has_work = bool(table) or (spec is not None and bool(spec.gen))
                all_bottom = all(
                    entry.assessment == asmt.bottom(state.kind)
                    for entry in table.values())
                if (has_work and all_bottom and pred not in probed
                        and worklist.push(pred)):
                    probed.add(pred)
                    enqueued.append((pred, "goal_probe"))

        # The row stores what the step changed: each inserted claim, and each
        # moving join on a claim that has a column. A claim whose first
        # evaluation failed has none until the next keyframe.
        for update in report.updates:
            if update.inserted:
                columns.add(update.label, node, update.key)
        cells = tuple((u.label, u.new) for u in report.updates
                      if u.inserted or (not u.absorbed
                                        and columns.holds(u.label, node, u.key)))

        trace.steps.append(TraceStep(
            index=steps_done,
            node=node,
            action=report.action,
            cells=cells,
            joins=report.updates,
            worklist_after=worklist.members(),
            ac_changed=ac_changed,
            evidence_only=report.evidence_only_change,
            diagnostics=report.diagnostics,
            enqueued=tuple(enqueued),
            previous=trace.steps[-1],
        ))

        if mid_run is not None:
            outcome = mid_run.after_step(state, steps_done, epoch)
            if outcome is not None:
                state, wake, allowance = outcome
                # A cached read of a predecessor stays valid while its
                # NodeState object does. A step only mints records and
                # attaches them, which replaces that node's NodeState, and
                # each epoch is its own run with an empty cache. A revision
                # here may change a record's status (mark_evidence) and keep
                # the NodeState, so every cached read goes.
                pred_cache.clear()
                trigger_budget += allowance
                _register_columns(columns, state, order)
                revision_enqueued = []
                for woken in wake:
                    if worklist.push(woken):
                        revision_enqueued.append((woken, "revision"))
                trace.steps.append(TraceStep(
                    index=steps_done,
                    node=None,
                    action="revision",
                    cells=_keyframe_cells(columns, state),
                    joins=(),
                    worklist_after=worklist.members(),
                    ac_changed=False,
                    enqueued=tuple(revision_enqueued),
                ))

    worklist.finish()
    trace.columns = columns.columns
    log.info("stabilized after %d step(s), %d trigger event(s)",
             steps_done, trigger_events)
    return RunResult(state=state, trace=trace, steps=steps_done,
                     trigger_events=trigger_events)
