"""Prompt contexts and template rendering."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from claimlattice import assessment as asmt
from claimlattice.errors import MissingPlaceholderData
from claimlattice.queries import (
    DEFAULT_EVAL_TEMPLATE,
    EvalQuery,
    GenQuery,
    build_context,
    render_prompt,
    template_placeholders,
)
from claimlattice.state import (
    EvidenceSeed,
    EvidenceStatus,
    Polarity,
    SourceKind,
    initial_state,
    mark_evidence,
    mint_evidence,
    record_update,
)

from conftest import chain_graph, seeded_claim

W = asmt.Strength.WEAK
S = asmt.Strength.STRONG
BOT = asmt.Strength.BOT


def seed(excerpt, ref=None):
    return EvidenceSeed(polarity=Polarity.SUPPORT, strength=W,
                        basis=asmt.ConfidenceBasis.LOCATED,
                        source_kind=SourceKind.DOC, excerpt=excerpt, ref=ref)


def test_template_placeholders():
    assert template_placeholders(DEFAULT_EVAL_TEMPLATE) == {
        "goal", "claim", "code", "pred_states"}
    assert template_placeholders("no holes") == set()


def test_eval_query_rejects_unknown_placeholder():
    with pytest.raises(ValueError):
        EvalQuery(id="bad", template="look at {secrets}")


def test_gen_query_rejects_claim_placeholder():
    with pytest.raises(ValueError):
        GenQuery(id="bad", template="propose about {claim}", max_claims=2)
    with pytest.raises(ValueError):
        GenQuery(id="bad", template="propose", max_claims=0)


def test_build_context_collects_extended_predecessors(two_node):
    graph, claims, state = two_node
    cm, cn = claims
    state, recs = mint_evidence(state, "m", cm.key, [seed("first look")],
                                epoch=1, step=1)
    state = record_update(state, "m", cm.key, asmt.GradedValue(W, BOT), recs)
    ctx = build_context(graph, state, "the goal", "n")
    assert ctx.node == "n"
    assert ctx.goal == "the goal"
    assert [p.label for p in ctx.pred_states] == ["cm"]
    assert ctx.pred_states[0].assessment == asmt.GradedValue(W, BOT)
    assert ctx.pred_states[0].excerpts == ("first look",)


def test_build_context_no_self_claims_without_loop(two_node):
    graph, claims, state = two_node
    ctx = build_context(graph, state, "g", "m")
    # m has no extended predecessors, so it sees no findings, not even its own.
    assert ctx.pred_states == ()


def test_build_context_claims_keep_insertion_order():
    graph = chain_graph("m", "n")
    claims = (seeded_claim("m", "zz last alphabetically but first inserted", "z"),
              seeded_claim("m", "aa first alphabetically", "a"))
    state = initial_state(graph, asmt.DomainKind.GRADED, claims)
    ctx = build_context(graph, state, "g", "n")
    assert [p.label for p in ctx.pred_states] == ["z", "a"]


def test_build_context_excerpts_active_only_newest_first(two_node):
    graph, claims, state = two_node
    cm = claims[0]
    state, (old,) = mint_evidence(state, "m", cm.key, [seed("old")],
                                  epoch=1, step=1)
    state = record_update(state, "m", cm.key, asmt.GradedValue(W, BOT), [old])
    state, (new,) = mint_evidence(state, "m", cm.key, [seed("new")],
                                  epoch=1, step=4)
    state = record_update(state, "m", cm.key, asmt.GradedValue(W, BOT), [new])
    state, (dead,) = mint_evidence(state, "m", cm.key, [seed("dead")],
                                   epoch=1, step=6)
    state = record_update(state, "m", cm.key, asmt.GradedValue(W, BOT), [dead])
    state = mark_evidence(state, [dead.id], EvidenceStatus.RETRACTED, "wrong")
    ctx = build_context(graph, state, "g", "n")
    assert ctx.pred_states[0].excerpts == ("new", "old")


def test_build_context_excerpt_cap(two_node):
    graph, claims, state = two_node
    cm = claims[0]
    for i in range(12):
        state, recs = mint_evidence(state, "m", cm.key, [seed(f"x{i}")],
                                    epoch=1, step=i)
        state = record_update(state, "m", cm.key, asmt.GradedValue(W, BOT), recs)
    ctx = build_context(graph, state, "g", "n", excerpt_cap=3)
    assert ctx.pred_states[0].excerpts == ("x11", "x10", "x9")


def reference_excerpts(state, entry, excerpt_cap):
    """The filter-then-sort reading of a claim's excerpts: every active
    record it cites, newest (epoch, step, id) first, cut at the cap."""
    cited = [state.evidence[i] for i in entry.evidence_ids
             if state.evidence[i].status is EvidenceStatus.ACTIVE]
    cited.sort(key=lambda r: (r.epoch, r.step, r.id), reverse=True)
    return tuple(r.excerpt for r in cited[:excerpt_cap])


EVIDENCE_OPS = st.lists(st.one_of(
    # Mint 1-3 records for claim 0 or 1 at an (epoch, step) in any order,
    # optionally under a ref, and attach them.
    st.tuples(st.just("mint"), st.integers(0, 1), st.integers(1, 3),
              st.integers(0, 4), st.integers(1, 3),
              st.sampled_from([None, "r1", "r2"])),
    # Move the i-th record (mod the count) out of ACTIVE.
    st.tuples(st.just("mark"), st.integers(0, 99),
              st.sampled_from([EvidenceStatus.SUPERSEDED,
                               EvidenceStatus.RETRACTED])),
    # Attach the i-th record (mod the count) to claim 0 or 1 again.
    st.tuples(st.just("cite"), st.integers(0, 1), st.integers(0, 99)),
), max_size=30)


@settings(max_examples=300, deadline=None)
@given(ops=EVIDENCE_OPS, first_id=st.sampled_from([1, 999_990]))
def test_build_context_excerpts_match_filter_and_sort(ops, first_id):
    # Ids start near e999999 too, where e1000000 sorts first as a string.
    graph = chain_graph("m", "n")
    claims = (seeded_claim("m", "first claim", "c0"),
              seeded_claim("m", "second claim", "c1"))
    state = initial_state(graph, asmt.DomainKind.GRADED, claims)
    state = replace(state, evidence_seq=first_id)
    minted = 0
    for op in ops:
        if op[0] == "mint":
            _, which, epoch, step, count, ref = op
            seeds = []
            for _ in range(count):
                seeds.append(seed(f"x{minted}", ref))
                minted += 1
            state, recs = mint_evidence(state, "m", claims[which].key, seeds,
                                        epoch=epoch, step=step)
            state = record_update(state, "m", claims[which].key,
                                  asmt.GradedValue(W, BOT), recs)
        elif state.evidence and op[0] == "mark":
            ids = sorted(state.evidence)
            state = mark_evidence(state, [ids[op[1] % len(ids)]], op[2], "r")
        elif state.evidence:
            ids = sorted(state.evidence)
            record = state.evidence[ids[op[2] % len(ids)]]
            state = record_update(state, "m", claims[op[1]].key,
                                  asmt.GradedValue(BOT, BOT), [record])
    entries = state.nodes["m"].entries
    for entry in entries.values():
        order = [(r.epoch, r.step, r.id)
                 for r in map(state.evidence.get, entry.evidence_ids)]
        assert order == sorted(order)
    for cap in range(4):
        ctx = build_context(graph, state, "g", "n", excerpt_cap=cap)
        assert [p.excerpts for p in ctx.pred_states] == [
            reference_excerpts(state, entry, cap) for entry in entries.values()]


def test_build_context_code_from_neighborhood(two_node):
    graph, claims, state = two_node
    ctx = build_context(graph, state, "g", "m")
    assert ctx.code == (("m", "// source of m"),)


def test_render_eval_substitutes_everything(two_node):
    graph, claims, state = two_node
    cm = claims[0]
    query = EvalQuery(id="q", bilateral=False)
    ctx = build_context(graph, state, "overall goal", "m")
    text = render_prompt(query, ctx, cm)
    assert "overall goal" in text
    assert cm.text in text
    assert "// source of m" in text
    assert "(none yet)" in text
    assert "{" not in text


def test_render_bilateral_block_tracks_domain():
    graph = chain_graph("m")
    for kind, marker in [
        (asmt.DomainKind.FOUR, "two booleans"),
        (asmt.DomainKind.GRADED, "bot (nothing found)"),
        (asmt.DomainKind.STRATIFIED, "confidence basis"),
    ]:
        claim = seeded_claim("m", "bilateral block names the scale")
        state = initial_state(graph, kind, (claim,))
        ctx = build_context(graph, state, "g", "m")
        text = render_prompt(EvalQuery(id="q"), ctx, claim)
        assert "[support]" in text
        assert "[refute]" in text
        assert marker in text


def test_render_eval_requires_claim(two_node):
    graph, claims, state = two_node
    ctx = build_context(graph, state, "g", "m")
    with pytest.raises(MissingPlaceholderData):
        render_prompt(EvalQuery(id="q"), ctx, None)


def test_render_gen_rejects_claim(two_node):
    graph, claims, state = two_node
    ctx = build_context(graph, state, "g", "m")
    gen = GenQuery(id="g1", template="propose checks for {code}", max_claims=2)
    with pytest.raises(MissingPlaceholderData):
        render_prompt(gen, ctx, claims[0])
    text = render_prompt(gen, ctx, None)
    assert "// source of m" in text


def test_render_pred_states_include_assessment_and_excerpts(two_node):
    graph, claims, state = two_node
    cm, cn = claims
    state, recs = mint_evidence(state, "m", cm.key, [seed("the finding")],
                                epoch=1, step=1)
    state = record_update(state, "m", cm.key, asmt.GradedValue(BOT, S), recs)
    ctx = build_context(graph, state, "g", "n")
    text = render_prompt(EvalQuery(id="q", bilateral=False), ctx, cn)
    assert "m/cm = ⟨⊥,s⟩" in text
    assert "the finding" in text
