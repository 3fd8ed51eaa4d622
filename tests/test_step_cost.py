"""A step's memory cost follows what the step changed, not the run's size.

Clock-free: tracemalloc counts bytes, which repeat exactly from run to run,
where step timings on a shared host do not.
"""

import statistics
import tracemalloc

from claimlattice import assessment as asmt
from claimlattice.agent import EvalScript, ScriptEntry, ScriptedAgent
from claimlattice.graph import EvaluationGraph, ProgramGraph
from claimlattice.state import EvidenceSeed, Polarity, SourceKind, initial_state
from claimlattice.worklist import ClaimCaps, FifoPolicy, TerminationBudget, run

from conftest import plain_queries, seeded_claim

W = asmt.Strength.WEAK
S = asmt.Strength.STRONG
BOT = asmt.Strength.BOT


def graded_chain(n):
    """n nodes in a context chain with a feedback edge closing each block of
    10, 4 claims per node: the shape of perfbench's chain-trace. A claim
    answers weak support citing ref ``a`` first, then strong support citing
    ``a`` again and a new ``b``."""
    nodes = [f"n{i:04d}" for i in range(n)]
    graph = EvaluationGraph(
        program=ProgramGraph(nodes=frozenset(nodes), edges=frozenset(),
                             sources={x: f"def step_{x}(payload):\n"
                                         "    return check(payload)"
                                      for x in nodes}),
        aux_nodes=frozenset(),
        context_edges=frozenset(zip(nodes, nodes[1:])),
        feedback_edges=frozenset((nodes[i + 9], nodes[i])
                                 for i in range(0, n - 9, 10)),
        neighborhood={x: frozenset({x}) for x in nodes},
    )
    claims, entries = [], []
    for i, node in enumerate(nodes):
        for j in range(4):
            claim = seeded_claim(
                node, f"Component {i} upholds invariant {j} of the input policy",
                f"c{i:04d}_{j}")
            claims.append(claim)
            first, second = (EvidenceSeed(
                polarity=Polarity.SUPPORT, strength=strength,
                basis=asmt.ConfidenceBasis.LOCATED, source_kind=SourceKind.DOC,
                excerpt=f"{node} invariant {j}: {what}, seed {i * 4 + j}",
                ref=f"r{i}_{j}_{ref}")
                for strength, ref, what in (
                    (W, "a", "first reading of the relevant code path"),
                    (S, "b", "targeted follow-up after upstream change")))
            entries.append(ScriptEntry(node, claim.key, 0, EvalScript(
                asmt.GradedValue(W, BOT), evidence=(first,))))
            entries.append(ScriptEntry(node, claim.key, None, EvalScript(
                asmt.GradedValue(S, BOT), evidence=(first, second))))
    return graph, tuple(claims), ScriptedAgent(entries)


class TransientProbe:
    """Mid-run hook that changes nothing. After each step it reads the peak
    traced size since the previous step ended, less the size then."""

    def __init__(self):
        self.samples = []
        tracemalloc.reset_peak()
        self.start = tracemalloc.get_traced_memory()[0]

    def after_step(self, state, step, epoch):
        self.samples.append(tracemalloc.get_traced_memory()[1] - self.start)
        tracemalloc.reset_peak()
        self.start = tracemalloc.get_traced_memory()[0]
        return None


def transient_bytes_per_step(n):
    graph, claims, agent = graded_chain(n)
    state = initial_state(graph, asmt.DomainKind.GRADED, claims)
    caps = ClaimCaps()
    tracemalloc.start()
    try:
        probe = TransientProbe()
        result = run(graph, state, goal="the goal",
                     queries=plain_queries(graph), backend=agent, caps=caps,
                     policy=FifoPolicy(),
                     budget=TerminationBudget.for_run(
                         state.kind, caps, sorted(graph.all_nodes)),
                     mid_run=probe)
    finally:
        tracemalloc.stop()
    # Every claim took both answers: record a, then a re-cited and b.
    assert len(result.state.evidence) == 2 * len(claims)
    return statistics.median(probe.samples)


def test_transient_bytes_per_step_stay_flat_in_chain_length():
    # It reads about 1.1. Copying the run's evidence in every update reads
    # 3.4, and copying the whole node map in every update 2.1.
    ratio = transient_bytes_per_step(400) / transient_bytes_per_step(100)
    assert ratio <= 1.5, ratio
