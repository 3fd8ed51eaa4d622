"""Worklist structures, ordering policies, budgets, and the engine loop."""

import random
from itertools import count

import pytest

from claimlattice import assessment as asmt
from claimlattice import worklist as wl
from claimlattice.agent import EvalScript, ScriptEntry, ScriptedAgent
from claimlattice.errors import (
    BudgetExceeded,
    InvariantViolation,
    ScenarioError,
    UnknownNode,
)
from claimlattice.graph import EvaluationGraph, ProgramGraph
from claimlattice.queries import EvalQuery, GenQuery, PredecessorClaim, QuerySpec
from claimlattice.state import (
    EvidenceSeed,
    EvidenceStatus,
    Polarity,
    SourceKind,
    initial_state,
    insert_claim,
    mark_evidence,
)
from claimlattice.transformer import StepReport
from claimlattice.worklist import (
    ClaimCaps,
    FifoPolicy,
    RankedWorklist,
    ScriptedWorklist,
    TerminationBudget,
    Worklist,
    flatten_wto,
    initial_worklist,
    parse_policy,
    run,
    weak_topological_order,
)

from conftest import GOLDEN, chain_graph, plain_queries, seeded_claim
from genutil import generate_scenario, random_graph

W = asmt.Strength.WEAK
S = asmt.Strength.STRONG
BOT = asmt.Strength.BOT


def graded(sup, ref):
    return asmt.GradedValue(sup, ref)


def engine_run(graph, state, agent, *, policy=None, queries=None,
               caps=None, budget=None, **kw):
    caps = caps or ClaimCaps()
    budget = budget or TerminationBudget.for_run(
        state.kind, caps, sorted(graph.all_nodes))
    return run(
        graph, state,
        goal="the goal",
        queries=queries or plain_queries(graph),
        backend=agent,
        caps=caps,
        policy=policy or FifoPolicy(),
        budget=budget,
        **kw,
    )


# --- caps and budgets ------------------------------------------------------

def test_claim_caps_lookup_and_total():
    caps = ClaimCaps(default=4, per_node={"big": 10})
    assert caps.cap_for("big") == 10
    assert caps.cap_for("other") == 4
    assert caps.total(["big", "x", "y"]) == 18


def test_budget_formula():
    caps = ClaimCaps(default=16)
    budget = TerminationBudget.for_run(asmt.DomainKind.GRADED, caps, ["m", "n"])
    assert budget.claim_capacity == 32
    assert budget.height == 4
    assert budget.max_trigger_events == 32 + 4 * 32
    assert budget.hard_step_cap == 10 * budget.max_trigger_events


def test_budget_respects_explicit_step_cap():
    caps = ClaimCaps(default=1)
    budget = TerminationBudget.for_run(asmt.DomainKind.FOUR, caps, ["m"],
                                       hard_step_cap=7)
    assert budget.hard_step_cap == 7
    assert budget.max_trigger_events == 1 + 2 * 1


# --- worklist structures ----------------------------------------------------

def test_push_deduplicates():
    q = Worklist()
    assert q.push("a")
    assert not q.push("a")
    assert q.members() == ("a",)
    assert "a" in q and len(q) == 1


def test_fifo_and_lifo_order():
    fifo = Worklist()
    lifo = Worklist(lifo=True)
    for node in ("a", "b", "c"):
        fifo.push(node)
        lifo.push(node)
    assert [fifo.pop() for _ in range(3)] == ["a", "b", "c"]
    assert [lifo.pop() for _ in range(3)] == ["c", "b", "a"]


def test_ranked_pops_by_rank_then_id():
    q = RankedWorklist({"a": 2, "b": 0, "c": 1})
    for node in ("a", "b", "c", "zz"):  # zz has no rank: goes last
        q.push(node)
    assert q.members() == ("b", "c", "a", "zz")
    assert [q.pop() for _ in range(4)] == ["b", "c", "a", "zz"]


def test_feedback_first_prioritizes_feedback_arrivals():
    q = parse_policy("feedback-priority").build(chain_graph("w", "x", "y"))
    q.push("x")
    q.push("y", feedback=True)
    q.push("w")
    assert q.members() == ("y", "w", "x")
    assert q.pop() == "y"
    # Once drained of feedback arrivals, plain node-id order.
    assert q.pop() == "w"


def test_scripted_worklist_error_paths():
    q = ScriptedWorklist(["a", "b"])
    q.push("a")
    assert q.pop() == "a"
    with pytest.raises(ScenarioError):
        q.pop()  # script names b, but b is not pending

    q2 = ScriptedWorklist([])
    q2.push("a")
    with pytest.raises(ScenarioError):
        q2.pop()  # out of steps with work pending

    q3 = ScriptedWorklist(["a", "b"])
    q3.push("a")
    q3.pop()
    with pytest.raises(ScenarioError):
        q3.finish()  # unused steps left over


# --- policies ---------------------------------------------------------------

def test_parse_policy_round_trip():
    for name in ("fifo", "lifo", "wto", "feedback-priority"):
        assert parse_policy(name).name == name
    assert parse_policy("goal-directed", goal_node="g").name == "goal-directed"
    assert parse_policy("scripted-order", steps=["a"]).name == "scripted-order"


def test_parse_policy_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_policy("random")
    with pytest.raises(ValueError):
        parse_policy("goal-directed")
    with pytest.raises(ValueError):
        parse_policy("scripted-order")


# --- weak topological order ---------------------------------------------------

def test_wto_of_review_graph():
    from claimlattice.scenario import load_scenario
    scenario = load_scenario(GOLDEN)
    wto = weak_topological_order(scenario.graph)
    assert wto == ("n_4", "n_3", ("n_1", ("n_C", "n_2")), "n_5", "n_0")
    assert flatten_wto(wto) == ["n_4", "n_3", "n_1", "n_C", "n_2", "n_5", "n_0"]


def _heads_containing(ordering, heads=(), out=None):
    if out is None:
        out = {}
    for element in ordering:
        if isinstance(element, tuple):
            inner = heads + (element[0],)
            out[element[0]] = inner
            _heads_containing(element[1:], inner, out)
        else:
            out[element] = heads
    return out


def assert_wto_property(graph):
    """Every backward extended edge must target the head of a component
    containing its source; that is the whole point of the ordering."""
    wto = weak_topological_order(graph)
    order = flatten_wto(wto)
    assert sorted(order) == sorted(graph.all_nodes)
    assert len(order) == len(set(order))
    pos = {node: i for i, node in enumerate(order)}
    heads = _heads_containing(wto)
    for src, dst in graph.extended_edges:
        if pos[dst] <= pos[src]:
            assert dst in heads[src], (
                f"edge {src}->{dst} goes backward but {dst} does not head a "
                f"component containing {src}")


def test_wto_property_on_random_graphs():
    for i in range(40):
        assert_wto_property(random_graph(random.Random(1000 + i)))


def test_wto_property_on_review_graph():
    from claimlattice.scenario import load_scenario
    assert_wto_property(load_scenario(GOLDEN).graph)


def test_wto_linear_chain_is_flat():
    graph = chain_graph("a", "b", "c")
    assert weak_topological_order(graph) == ("a", "b", "c")


def test_wto_self_loop_is_component():
    graph = EvaluationGraph(
        program=ProgramGraph(nodes=frozenset({"a"}), edges=frozenset(),
                             sources={"a": ""}),
        aux_nodes=frozenset(),
        context_edges=frozenset({("a", "a")}),
        feedback_edges=frozenset(),
        neighborhood={"a": frozenset()},
    )
    assert weak_topological_order(graph) == (("a",),)


def _recursive_wto(graph):
    """The recursive form of Bourdoncle's algorithm the engine first
    shipped, kept as the reference its ordering must not drift from."""
    nodes = sorted(graph.all_nodes)
    succs = {n: sorted(wl.extended_successors(graph, n)) for n in nodes}
    dfn = dict.fromkeys(nodes, 0)
    stack = []
    counter = count(1)

    def visit(vertex, partition):
        stack.append(vertex)
        number = next(counter)
        dfn[vertex] = number
        head = number
        loop = False
        for succ in succs[vertex]:
            minimum = visit(succ, partition) if dfn[succ] == 0 else dfn[succ]
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
                partition.insert(0, component(vertex))
            else:
                partition.insert(0, vertex)
        return head

    def component(vertex):
        members = []
        for succ in succs[vertex]:
            if dfn[succ] == 0:
                visit(succ, members)
        members.insert(0, vertex)
        return tuple(members)

    partition = []
    for vertex in nodes:
        if dfn[vertex] == 0:
            visit(vertex, partition)
    return tuple(partition)


def _recursive_flatten(ordering):
    out = []
    for element in ordering:
        if isinstance(element, tuple):
            out.extend(_recursive_flatten(element))
        else:
            out.append(element)
    return out


def test_wto_matches_recursive_reference():
    graphs = [generate_scenario(seed).graph for seed in range(200)]
    # Larger, denser graphs nest components several levels deep.
    graphs += [random_graph(random.Random(5000 + i), max_nodes=60)
               for i in range(50)]
    for graph in graphs:
        wto = weak_topological_order(graph)
        assert wto == _recursive_wto(graph)
        assert flatten_wto(wto) == _recursive_flatten(wto)


def test_wto_of_a_20000_node_chain():
    nodes = [f"v{i:05d}" for i in range(20000)]
    graph = chain_graph(*nodes)
    wto = weak_topological_order(graph)
    assert wto == tuple(nodes)
    assert flatten_wto(wto) == nodes
    worklist = parse_policy("wto").build(graph)
    for node in reversed(nodes):
        worklist.push(node)
    assert worklist.pop() == nodes[0]


def test_wto_of_a_deeply_nested_loop():
    # Feedback edges from the last node to every earlier one nest each loop
    # inside the previous: (v0, (v1, ... (v1198, v1199))). Bourdoncle's
    # algorithm re-visits a loop's members once per enclosing head, so the
    # cost grows with depth squared; 1,200 levels is past the default
    # recursion limit and still quick.
    depth = 1199
    nodes = [f"v{i:05d}" for i in range(depth + 1)]
    graph = chain_graph(*nodes, feedback=tuple((nodes[-1], n) for n in nodes[:-1]))
    (element,) = weak_topological_order(graph)
    # Walked level by level: == and repr on the whole nest would recurse.
    for node in nodes[:-2]:
        assert len(element) == 2 and element[0] == node
        element = element[1]
    assert element == tuple(nodes[-2:])
    assert flatten_wto(weak_topological_order(graph)) == nodes


# --- initial worklist ---------------------------------------------------------

def test_initial_worklist_seeds_claim_nodes(two_node):
    graph, claims, state = two_node
    assert initial_worklist(graph, state, plain_queries(graph)) == ["m", "n"]
    assert initial_worklist(graph, state, plain_queries(graph),
                            declared_order=["n", "m"]) == ["n", "m"]


def test_initial_worklist_skips_idle_nodes():
    graph = chain_graph("m", "n", "p")
    state = initial_state(graph, asmt.DomainKind.GRADED,
                          (seeded_claim("n", "only n has a claim"),))
    queries = plain_queries(graph)
    assert initial_worklist(graph, state, queries) == ["n"]
    # A generative query makes an empty node worth seeding.
    queries["p"] = QuerySpec(
        eval=queries["p"].eval,
        gen=(GenQuery(id="gen@p", template="propose", max_claims=1),))
    assert initial_worklist(graph, state, queries) == ["n", "p"]


def test_initial_worklist_rejects_unknown_declared_node(two_node):
    graph, claims, state = two_node
    with pytest.raises(UnknownNode):
        initial_worklist(graph, state, plain_queries(graph),
                         declared_order=["m", "zz"])


# --- the engine loop -----------------------------------------------------------

def test_run_propagates_and_stabilizes(two_node):
    graph, claims, state = two_node
    cm, cn = claims
    agent = ScriptedAgent([
        ScriptEntry("m", cm.key, 0, EvalScript(graded(W, BOT))),
        ScriptEntry("n", cn.key, 0, EvalScript(graded(BOT, W))),
    ])
    result = engine_run(graph, state, agent)
    # Both nodes seed; m's change finds n already pending, so no revisit.
    assert result.steps == 2
    assert result.trigger_events == 2
    assert [s.node for s in result.trace.steps[1:]] == ["m", "n"]
    final = result.state
    assert final.nodes["m"].entries[cm.key].assessment == graded(W, BOT)
    assert final.nodes["n"].entries[cn.key].assessment == graded(BOT, W)
    assert result.trace.steps[0].action == "init"
    assert result.trace.steps[0].enqueued == (("m", "seed"), ("n", "seed"))
    assert result.trace.steps[-1].worklist_after == ()


def test_run_feedback_edge_reenqueues():
    graph = chain_graph("m", "n", feedback=(("n", "m"),))
    cm = seeded_claim("m", "claim at m", "cm")
    cn = seeded_claim("n", "claim at n", "cn")
    state = initial_state(graph, asmt.DomainKind.GRADED, (cm, cn))
    agent = ScriptedAgent([
        ScriptEntry("m", cm.key, None, EvalScript(graded(W, BOT))),
        ScriptEntry("n", cn.key, None, EvalScript(graded(BOT, W))),
    ])
    result = engine_run(graph, state, agent)
    # m, n, then m again via the feedback edge; second m visit absorbs.
    assert [s.node for s in result.trace.steps[1:]] == ["m", "n", "m"]
    n_step = result.trace.steps[2]
    assert ("m", "ac_change") in n_step.enqueued
    assert result.trace.steps[3].ac_changed is False


def test_enqueue_order_context_before_feedback():
    graph = EvaluationGraph(
        program=ProgramGraph(nodes=frozenset({"m", "n", "p"}),
                             edges=frozenset(), sources={}),
        aux_nodes=frozenset(),
        context_edges=frozenset({("m", "n")}),
        feedback_edges=frozenset({("m", "p")}),
        neighborhood={},
    )
    cm = seeded_claim("m", "claim at m", "cm")
    cn = seeded_claim("n", "claim at n", "cn")
    cp = seeded_claim("p", "claim at p", "cp")
    state = initial_state(graph, asmt.DomainKind.GRADED, (cm, cn, cp))
    agent = ScriptedAgent([
        ScriptEntry("m", cm.key, None, EvalScript(graded(W, BOT))),
        ScriptEntry("n", cn.key, None, EvalScript(graded(BOT, BOT))),
        ScriptEntry("p", cp.key, None, EvalScript(graded(BOT, BOT))),
    ])
    result = engine_run(graph, state, agent, declared_order=["m"])
    m_step = result.trace.steps[1]
    assert m_step.node == "m"
    assert m_step.enqueued == (("n", "ac_change"), ("p", "ac_change"))
    assert m_step.worklist_after == ("n", "p")


def test_run_goal_directed_pulls_predecessors(two_node):
    graph, claims, state = two_node
    cm, cn = claims
    agent = ScriptedAgent([
        ScriptEntry("n", cn.key, 0, EvalScript(graded(BOT, W))),
        ScriptEntry("m", cm.key, 0, EvalScript(graded(W, BOT))),
        ScriptEntry("n", cn.key, 1, EvalScript(graded(BOT, W))),
    ])
    result = engine_run(graph, state, agent, policy=parse_policy("goal-directed", goal_node="n"))
    assert result.trace.steps[0].enqueued == (("n", "seed"),)
    assert [s.node for s in result.trace.steps[1:]] == ["n", "m", "n"]
    assert ("m", "goal_probe") in result.trace.steps[1].enqueued
    assert result.state.nodes["m"].entries[cm.key].assessment == graded(W, BOT)


def test_run_scripted_order_divergence_raises(two_node):
    graph, claims, state = two_node
    cm, cn = claims
    agent = ScriptedAgent([
        ScriptEntry("m", cm.key, None, EvalScript(graded(W, BOT))),
        ScriptEntry("n", cn.key, None, EvalScript(graded(BOT, W))),
    ])
    with pytest.raises(ScenarioError):
        engine_run(graph, state, agent,
                   policy=parse_policy("scripted-order", steps=["m", "m", "n"]))


def test_run_wto_policy_orders_chain():
    graph = chain_graph("c", "a", "b")  # context edges c->a->b
    claims = tuple(seeded_claim(n, f"claim at {n}", f"c{n}") for n in ("c", "a", "b"))
    state = initial_state(graph, asmt.DomainKind.GRADED, claims)
    agent = ScriptedAgent([
        ScriptEntry(n, c.key, None, EvalScript(graded(W, BOT)))
        for n, c in zip(("c", "a", "b"), claims)
    ])
    result = engine_run(graph, state, agent, policy=parse_policy("wto"))
    # Chain order, not node-id order: c before a before b, no rework.
    assert [s.node for s in result.trace.steps[1:]] == ["c", "a", "b"]
    assert result.steps == 3


def test_run_hard_step_cap(two_node):
    graph, claims, state = two_node
    cm, cn = claims
    agent = ScriptedAgent([
        ScriptEntry("m", cm.key, None, EvalScript(graded(W, BOT))),
        ScriptEntry("n", cn.key, None, EvalScript(graded(BOT, W))),
    ])
    tight = TerminationBudget(height=4, claim_capacity=2,
                              max_trigger_events=100, hard_step_cap=1)
    with pytest.raises(BudgetExceeded):
        engine_run(graph, state, agent, budget=tight)


def test_run_trigger_budget(two_node):
    graph, claims, state = two_node
    cm, cn = claims
    agent = ScriptedAgent([
        ScriptEntry("m", cm.key, None, EvalScript(graded(W, BOT))),
        ScriptEntry("n", cn.key, None, EvalScript(graded(BOT, W))),
    ])
    tight = TerminationBudget(height=4, claim_capacity=2,
                              max_trigger_events=1, hard_step_cap=100)
    with pytest.raises(BudgetExceeded):
        engine_run(graph, state, agent, budget=tight)


def test_run_frame_violation_detected(two_node, monkeypatch):
    graph, claims, state = two_node

    def tampering(graph_, state_, node, **kw):
        other = "n" if node == "m" else "m"
        sneaky = insert_claim(state_, other, seeded_claim(other, "sneaky extra"))
        report = StepReport(
            node=node, visit=0, action="evil", updates=(), generated=(),
            discarded=(), skipped_duplicates=(), diagnostics=(),
            ac_changed=False, evidence_only_change=False)
        return sneaky, report

    monkeypatch.setattr(wl, "process_node", tampering)
    with pytest.raises(InvariantViolation):
        engine_run(graph, state, ScriptedAgent([]))


def test_run_seed_override(two_node):
    graph, claims, state = two_node
    cm, cn = claims
    agent = ScriptedAgent([
        ScriptEntry("n", cn.key, 0, EvalScript(graded(BOT, W))),
    ])
    result = engine_run(graph, state, agent, seeds=["n"])
    assert [s.node for s in result.trace.steps[1:]] == ["n"]
    # m was never processed and keeps its bottom.
    assert result.state.nodes["m"].entries[cm.key].assessment == graded(BOT, BOT)


def test_goal_directed_generated_runs_stabilize():
    # Goal probes are not trigger events, so only the once-per-epoch probe
    # rule keeps two all-bottom neighbours from re-probing each other forever
    # (seeds 6, 129 and 130 did until that rule).
    for seed in range(200):
        gen = generate_scenario(seed, visit_sensitive=True)
        goal_node = gen.declared_order[-1]
        result = run(
            gen.graph, gen.fresh_state(),
            goal="the goal",
            queries=gen.queries,
            backend=gen.fresh_backend(),
            caps=gen.caps,
            policy=parse_policy("goal-directed", goal_node=goal_node),
            budget=TerminationBudget.for_run(gen.kind, gen.caps,
                                             sorted(gen.graph.all_nodes)),
            declared_order=gen.declared_order,
        )
        assert result.trace.steps[-1].worklist_after == ()
        probes = [target for step in result.trace.steps
                  for target, cause in step.enqueued if cause == "goal_probe"]
        assert len(probes) == len(set(probes))


# --- contexts across steps ----------------------------------------------------

class RecordingAgent(ScriptedAgent):
    """Scripted agent that keeps every evaluation context it is handed."""

    def __init__(self, entries):
        super().__init__(entries)
        self.contexts = []

    def evaluate_claim(self, ctx, query, claim):
        self.contexts.append(ctx)
        return super().evaluate_claim(ctx, query, claim)


class SupersedeUpstream:
    """Mid-run hook: after step 2, supersede every record behind m's claims
    without touching m's claim table, and wake n."""

    def after_step(self, state, step, epoch):
        if step != 2:
            return None
        table = state.nodes["m"]
        ids = [i for entry in table.entries.values() for i in entry.evidence_ids]
        revised = mark_evidence(state, ids, EvidenceStatus.SUPERSEDED, "re-derived")
        assert revised.nodes["m"] is table
        return revised, ["n"], 0


def test_mid_run_mark_evidence_reaches_the_next_context(two_node):
    graph, claims, state = two_node
    cm, cn = claims
    finding = EvidenceSeed(polarity=Polarity.SUPPORT, strength=W,
                           basis=asmt.ConfidenceBasis.LOCATED,
                           source_kind=SourceKind.DOC,
                           excerpt="first reading at m")
    agent = RecordingAgent([
        ScriptEntry("m", cm.key, None,
                    EvalScript(graded(W, BOT), evidence=(finding,))),
        ScriptEntry("n", cn.key, None, EvalScript(graded(BOT, W))),
    ])
    result = engine_run(graph, state, agent, mid_run=SupersedeUpstream())
    assert [s.node for s in result.trace.steps if s.node] == ["m", "n", "n"]
    seen_at_n = [ctx.pred_states for ctx in agent.contexts if ctx.node == "n"]
    assert [[p.excerpts for p in preds] for preds in seen_at_n] == [
        [("first reading at m",)],
        [()],
    ]


def test_a_step_reads_only_the_predecessors_that_changed(monkeypatch):
    nodes = [f"q{i}" for i in range(6)]
    graph = EvaluationGraph(
        program=ProgramGraph(nodes=frozenset(nodes), edges=frozenset(),
                             sources={n: f"// body of {n}" for n in nodes}),
        aux_nodes=frozenset(),
        context_edges=frozenset((a, b) for a in nodes for b in nodes if a != b),
        feedback_edges=frozenset(),
        neighborhood={n: frozenset({n}) for n in nodes},
    )
    claims = tuple(seeded_claim(n, f"property {j} holds at {n}", f"{n}.{j}")
                   for n in nodes for j in range(2))
    entries = []
    for claim in claims:
        # Two raises, then answers that add records but never move the value.
        for visit, strength in ((0, W), (1, S), (None, S)):
            finding = EvidenceSeed(
                polarity=Polarity.SUPPORT, strength=strength,
                basis=asmt.ConfidenceBasis.LOCATED, source_kind=SourceKind.DOC,
                excerpt=f"{claim.label} reading {visit}")
            entries.append(ScriptEntry(claim.node, claim.key, visit, EvalScript(
                graded(strength, BOT), evidence=(finding,))))
    built = []
    original = PredecessorClaim.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(PredecessorClaim, "__init__", counting)
    state = initial_state(graph, asmt.DomainKind.GRADED, claims)
    result = engine_run(graph, state, ScriptedAgent(entries))
    assert result.steps > 2 * len(nodes)
    # Each step replaces one node's table, so the run reads each table once
    # at the start and once after every step that replaced it, and no more.
    assert len(built) <= (result.steps + len(nodes)) * 2


def test_goal_directed_never_probes_a_node_with_nothing_to_do():
    # u has no claim and no generative query, so a probe would be a step
    # with nothing to evaluate; m upstream of the goal is probed.
    graph = chain_graph("u", "m", "n")
    cm = seeded_claim("m", "claim at m holds", "cm")
    cn = seeded_claim("n", "claim at n holds", "cn")
    state = initial_state(graph, asmt.DomainKind.GRADED, (cm, cn))
    agent = ScriptedAgent([
        ScriptEntry("n", cn.key, None, EvalScript(graded(BOT, W))),
        ScriptEntry("m", cm.key, None, EvalScript(graded(BOT, BOT))),
    ])
    result = engine_run(graph, state, agent,
                        policy=parse_policy("goal-directed", goal_node="n"))
    assert [s.node for s in result.trace.steps[1:]] == ["n", "m"]
    probes = [target for step in result.trace.steps
              for target, cause in step.enqueued if cause == "goal_probe"]
    assert probes == ["m"]


def test_goal_directed_probes_afresh_each_epoch():
    # Epoch 1 probes m from the goal n, then p from m. Lowering m reseeds
    # m and n, and processing m in epoch 2 probes p again: p still holds
    # only bottoms, and the probe set belongs to one epoch's worklist.
    from claimlattice.revision import (EpochConfig, RevisionPlan,
                                       RevisionTarget, run_epochs)
    graph = chain_graph("p", "m", "n")
    claims = tuple(seeded_claim(n, f"claim at {n} holds", f"c{n}")
                   for n in ("p", "m", "n"))
    cp, cm, cn = claims
    agent = ScriptedAgent([
        ScriptEntry("p", cp.key, None, EvalScript(graded(BOT, BOT))),
        ScriptEntry("m", cm.key, None, EvalScript(graded(W, BOT))),
        ScriptEntry("n", cn.key, None, EvalScript(graded(BOT, W))),
    ])
    caps = ClaimCaps()
    state = initial_state(graph, asmt.DomainKind.GRADED, claims)
    plan = RevisionPlan(lowers=(RevisionTarget("m", "cm", "re-examine"),))
    result = run_epochs(
        graph, state, goal="the goal", queries=plain_queries(graph),
        backend=agent, caps=caps,
        policy=parse_policy("goal-directed", goal_node="n"),
        budget=TerminationBudget.for_run(state.kind, caps,
                                         sorted(graph.all_nodes)),
        epochs=EpochConfig(epoch_limit=2, plans={1: plan}))
    first, second = result.traces
    assert first.steps[0].enqueued == (("n", "seed"),)
    assert second.steps[0].enqueued == (("m", "seed"), ("n", "seed"))
    for trace in (first, second):
        probes = [target for step in trace.steps
                  for target, cause in step.enqueued if cause == "goal_probe"]
        assert "p" in probes
