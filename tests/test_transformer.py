"""Node processing: one context, claim re-evaluation, generation, the frame."""

import pytest

from claimlattice import assessment as asmt
from claimlattice.agent import (
    AgentEvalResult,
    AgentGenResult,
    EvalScript,
    GenScript,
    ScriptEntry,
    ScriptedAgent,
)
from claimlattice.errors import MalformedResponse, UnknownNode
from claimlattice.graph import EvaluationGraph, ProgramGraph
from claimlattice.queries import EvalQuery, GenQuery, QuerySpec
from claimlattice.state import (
    EvidenceSeed,
    Polarity,
    SourceKind,
    canonicalize_claim,
    initial_state,
)
from claimlattice.transformer import process_node

from conftest import chain_graph, plain_queries, seeded_claim

W = asmt.Strength.WEAK
S = asmt.Strength.STRONG
BOT = asmt.Strength.BOT


def graded(sup, ref):
    return asmt.GradedValue(sup, ref)


def seed(excerpt="saw it", ref=None):
    return EvidenceSeed(polarity=Polarity.SUPPORT, strength=W,
                        basis=asmt.ConfidenceBasis.LOCATED,
                        source_kind=SourceKind.DOC, excerpt=excerpt, ref=ref)


class Recording:
    """Delegating backend that captures every context it is handed."""

    def __init__(self, inner):
        self.inner = inner
        self.contexts = []

    def begin_node_visit(self, node):
        return self.inner.begin_node_visit(node)

    def evaluate_claim(self, ctx, query, claim):
        self.contexts.append(ctx)
        return self.inner.evaluate_claim(ctx, query, claim)

    def generate_claims(self, ctx, query):
        self.contexts.append(ctx)
        return self.inner.generate_claims(ctx, query)


class Flaky:
    """Backend that raises MalformedResponse a set number of times."""

    def __init__(self, failures, result):
        self.remaining = failures
        self.result = result
        self.calls = 0

    def begin_node_visit(self, node):
        return 0

    def evaluate_claim(self, ctx, query, claim):
        self.calls += 1
        if self.remaining > 0:
            self.remaining -= 1
            raise MalformedResponse("flaky reply")
        return self.result

    def generate_claims(self, ctx, query):
        return AgentGenResult()


def self_loop_graph(node="m"):
    return EvaluationGraph(
        program=ProgramGraph(nodes=frozenset({node}), edges=frozenset(),
                             sources={node: "// src"}),
        aux_nodes=frozenset(),
        context_edges=frozenset({(node, node)}),
        feedback_edges=frozenset(),
        neighborhood={node: frozenset({node})},
    )


def run_step(graph, state, node, backend, queries=None, cap=16, **kw):
    return process_node(
        graph, state, node,
        goal="the goal",
        queries=queries or plain_queries(graph),
        backend=backend,
        claim_cap=cap,
        **kw,
    )


def test_updates_join_and_report(two_node):
    graph, claims, state = two_node
    cm = claims[0]
    agent = ScriptedAgent([
        ScriptEntry("m", cm.key, None,
                    EvalScript(graded(W, BOT), evidence=(seed(),),
                               action="first look")),
    ])
    after, report = run_step(graph, state, "m", agent, step=1)
    assert report.node == "m"
    assert report.visit == 0
    assert report.action == "first look"
    assert report.ac_changed
    assert not report.evidence_only_change
    (update,) = report.updates
    assert update.old == graded(BOT, BOT)
    assert update.contributed == graded(W, BOT)
    assert update.new == graded(W, BOT)
    assert not update.absorbed
    assert len(update.evidence_added) == 1
    assert after.nodes["m"].entries[cm.key].assessment == graded(W, BOT)


def test_frame_only_processed_node_changes(two_node):
    graph, claims, state = two_node
    cm = claims[0]
    agent = ScriptedAgent([
        ScriptEntry("m", cm.key, None, EvalScript(graded(S, BOT))),
    ])
    after, report = run_step(graph, state, "m", agent)
    assert after.nodes["n"] is state.nodes["n"]
    assert after.nodes["m"] is not state.nodes["m"]


def test_context_built_once_per_step():
    graph = self_loop_graph("m")
    first = seeded_claim("m", "claim one", "c1")
    second = seeded_claim("m", "claim two", "c2")
    state = initial_state(graph, asmt.DomainKind.GRADED, (first, second))
    inner = ScriptedAgent([
        ScriptEntry("m", first.key, None,
                    EvalScript(graded(S, BOT), evidence=(seed("new fact"),))),
        ScriptEntry("m", second.key, None, EvalScript(graded(W, BOT))),
    ])
    agent = Recording(inner)
    after, report = run_step(graph, state, "m", agent)
    a, b = agent.contexts
    assert a is b
    # The self-loop exposes m's own claims, still at their pre-step values.
    assert all(p.assessment == graded(BOT, BOT) for p in a.pred_states)
    assert after.nodes["m"].entries[first.key].assessment == graded(S, BOT)


def test_absorbed_update_not_a_change(two_node):
    graph, claims, state = two_node
    cm = claims[0]
    agent = ScriptedAgent([
        ScriptEntry("m", cm.key, 0, EvalScript(graded(W, BOT))),
        ScriptEntry("m", cm.key, 1, EvalScript(graded(W, BOT))),
    ])
    mid, first = run_step(graph, state, "m", agent)
    assert first.ac_changed
    after, again = run_step(graph, mid, "m", agent)
    assert not again.ac_changed
    assert not again.evidence_only_change
    (update,) = again.updates
    assert update.absorbed


def test_evidence_only_change_flagged(two_node, caplog):
    graph, claims, state = two_node
    cm = claims[0]
    agent = ScriptedAgent([
        ScriptEntry("m", cm.key, 0, EvalScript(graded(BOT, BOT),
                                               evidence=(seed("background"),))),
    ])
    with caplog.at_level("INFO"):
        after, report = run_step(graph, state, "m", agent, step=3)
    assert not report.ac_changed
    assert report.evidence_only_change
    assert after.nodes["m"].entries[cm.key].evidence_ids != ()
    assert any("successors not enqueued" in r.message for r in caplog.records)


def test_generation_inserts_caps_and_labels():
    graph = chain_graph("m")
    state = initial_state(graph, asmt.DomainKind.GRADED, ())
    gen = GenQuery(id="gen@m", template="propose", max_claims=4)
    queries = {"m": QuerySpec(eval=EvalQuery(id="eval@m"), gen=(gen,))}
    texts = ("Alpha holds.", "Beta holds.", "Gamma holds.")
    entries = [ScriptEntry("m", "gen@m", None, GenScript(claims=texts,
                                                         action="survey"))]
    for text in texts:
        entries.append(ScriptEntry("m", canonicalize_claim(text), None,
                                   EvalScript(graded(W, BOT))))
    agent = ScriptedAgent(entries)
    after, report = run_step(graph, state, "m", agent, queries=queries, cap=2)
    assert report.generated == ("g1@m", "g2@m")
    assert report.discarded == ("Gamma holds.",)
    assert report.action == "survey"
    table = after.nodes["m"].entries
    assert set(table) == {"alpha holds", "beta holds"}
    for key in table:
        assert table[key].assessment == graded(W, BOT)
        assert table[key].claim.origin.value == "generated"


def test_generation_skips_duplicates_silently(two_node):
    graph, claims, state = two_node
    cm = claims[0]
    gen = GenQuery(id="gen@m", template="propose", max_claims=4)
    queries = plain_queries(graph)
    queries["m"] = QuerySpec(eval=queries["m"].eval, gen=(gen,))
    agent = ScriptedAgent([
        ScriptEntry("m", cm.key, None, EvalScript(graded(W, BOT))),
        # Same text as the seeded claim, modulo case and punctuation.
        ScriptEntry("m", "gen@m", None,
                    GenScript(claims=("  CLAIM at m HOLDS!  ",))),
    ])
    after, report = run_step(graph, state, "m", agent, queries=queries)
    assert report.generated == ()
    assert report.skipped_duplicates == (cm.key,)
    assert report.diagnostics == ()
    assert len(after.nodes["m"].entries) == 1


def test_generated_claims_evaluated_same_step():
    graph = chain_graph("m")
    state = initial_state(graph, asmt.DomainKind.GRADED, ())
    gen = GenQuery(id="gen@m", template="propose", max_claims=2)
    queries = {"m": QuerySpec(eval=EvalQuery(id="eval@m"), gen=(gen,))}
    agent = ScriptedAgent([
        ScriptEntry("m", "gen@m", 0, GenScript(claims=("fresh claim",))),
        ScriptEntry("m", "fresh claim", 0, EvalScript(graded(BOT, S))),
    ])
    after, report = run_step(graph, state, "m", agent, queries=queries)
    (update,) = report.updates
    assert update.inserted
    assert update.new == graded(BOT, S)
    assert report.ac_changed


def test_malformed_eval_retries_then_succeeds(two_node):
    graph, claims, state = two_node
    cm = claims[0]
    flaky = Flaky(1, AgentEvalResult(assessment=graded(W, BOT)))
    after, report = run_step(graph, state, "m", flaky, agent_retries=1)
    assert flaky.calls == 2
    assert report.diagnostics == ()
    # Only cm is touched; cn lives at node n.
    assert after.nodes["m"].entries[cm.key].assessment == graded(W, BOT)


def test_persistent_malformed_is_noop_with_diagnostic(two_node):
    graph, claims, state = two_node
    cm = claims[0]
    flaky = Flaky(5, AgentEvalResult(assessment=graded(W, BOT)))
    after, report = run_step(graph, state, "m", flaky, agent_retries=1)
    assert flaky.calls == 2  # one retry, then give up
    assert len(report.diagnostics) == 1
    assert "flaky reply" in report.diagnostics[0]
    assert not report.ac_changed
    assert after.nodes["m"].entries[cm.key].assessment == graded(BOT, BOT)


def test_wrong_domain_answer_is_diagnostic_not_crash(two_node):
    graph, claims, state = two_node
    cm = claims[0]
    agent = ScriptedAgent([
        ScriptEntry("m", cm.key, None, EvalScript(asmt.FourValue(True, False))),
    ])
    after, report = run_step(graph, state, "m", agent, agent_retries=0)
    assert len(report.diagnostics) == 1
    assert "domain" in report.diagnostics[0]
    assert after.nodes["m"].entries[cm.key].assessment == graded(BOT, BOT)


def test_unknown_node_rejected(two_node):
    graph, claims, state = two_node
    agent = ScriptedAgent([])
    with pytest.raises(UnknownNode):
        run_step(graph, state, "zz", agent)
