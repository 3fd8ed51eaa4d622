"""The per-node processing step.

One application does, in order: build the node's context once, re-evaluate
every existing claim against it, let generation propose new claims (capped,
duplicates skipped), then evaluate the newcomers against that same context.
Only the processed node's claim table changes; everything else in the state
is passed through untouched.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Mapping

from . import assessment as asmt
from .agent import DEFAULT_RETRIES, AgentBackend
from .errors import MalformedResponse, UnknownNode
from .graph import EvaluationGraph
from .queries import DEFAULT_EXCERPT_CAP, QuerySpec, build_context
from .state import (
    AnalysisState,
    Claim,
    ClaimOrigin,
    assessment_projection,
    canonicalize_claim,
    insert_claim,
    mint_evidence,
    record_update,
)
from .trace import JoinRecord

log = logging.getLogger(__name__)

__all__ = ["StepReport", "process_node"]


@dataclass(frozen=True)
class StepReport:
    """What one node processing did, in enough detail to replay the joins."""

    node: str
    visit: int
    action: str
    updates: tuple[JoinRecord, ...]
    generated: tuple[str, ...]
    discarded: tuple[str, ...]
    skipped_duplicates: tuple[str, ...]
    diagnostics: tuple[str, ...]
    ac_changed: bool
    evidence_only_change: bool


def _call_with_retry(call, diagnostics: list[str], what: str, retries: int):
    """Run an agent call, retrying past malformed replies. Returns None when
    every attempt failed; the failure is recorded, never raised."""
    for attempt in range(retries + 1):
        try:
            return call()
        except MalformedResponse as exc:
            if attempt < retries:
                log.info("%s failed (%s); retrying", what, exc)
                continue
            diagnostics.append(f"{what}: {exc}")
            log.warning("%s failed after %d attempt(s): %s", what, attempt + 1, exc)
    return None


def process_node(
    graph: EvaluationGraph,
    state: AnalysisState,
    node: str,
    *,
    goal: str,
    queries: Mapping[str, QuerySpec],
    backend: AgentBackend,
    claim_cap: int,
    epoch: int = 1,
    step: int = 0,
    excerpt_cap: int = DEFAULT_EXCERPT_CAP,
    agent_retries: int = DEFAULT_RETRIES,
    pred_cache: dict | None = None,
) -> tuple[AnalysisState, StepReport]:
    if node not in state.nodes:
        raise UnknownNode(f"node {node!r} is not part of this run")
    spec = queries[node]
    ctx = build_context(graph, state, goal, node, excerpt_cap=excerpt_cap,
                        pred_cache=pred_cache)
    visit = backend.begin_node_visit(node)

    # The step's updates run on a state whose node map holds this node
    # alone, so no update copies the whole map; it is copied once, at the end.
    working = replace(state, nodes={node: state.nodes[node]})
    updates: list[JoinRecord] = []
    diagnostics: list[str] = []
    action: str | None = None

    def evaluate(claim: Claim, inserted: bool) -> None:
        """Ask for one claim's assessment against the step's context and
        join it in; a failed or wrong-domain answer leaves a diagnostic."""
        nonlocal working, action
        what = f"eval {node}/{claim.label}"
        result = _call_with_retry(
            lambda: backend.evaluate_claim(ctx, spec.eval, claim),
            diagnostics, what, agent_retries)
        if result is None:
            return
        answered = asmt.kind_of(result.assessment)
        if answered is not state.kind:
            diagnostics.append(f"{what}: agent answered in the {answered.value} "
                               f"domain, run is {state.kind.value}")
            return
        old = working.nodes[node].entries[claim.key].assessment
        working, records = mint_evidence(
            working, node, claim.key, result.evidence, epoch=epoch, step=step)
        working = record_update(working, node, claim.key,
                                result.assessment, records)
        new = working.nodes[node].entries[claim.key].assessment
        updates.append(JoinRecord(
            node=node,
            key=claim.key,
            label=claim.label,
            old=old,
            contributed=result.assessment,
            new=new,
            evidence_added=tuple(r.id for r in records),
            inserted=inserted,
        ))
        if action is None and result.action_label:
            action = result.action_label

    # Existing claims first, in insertion order, all against the one context.
    for entry in list(state.nodes[node].entries.values()):
        evaluate(entry.claim, inserted=False)

    # Generation: canonicalize, skip duplicates silently, discard past cap.
    generated: list[str] = []
    discarded: list[str] = []
    skipped: list[str] = []
    new_claims: list[Claim] = []
    for gen_query in spec.gen:
        result = _call_with_retry(
            lambda: backend.generate_claims(ctx, gen_query),
            diagnostics, f"gen {node}/{gen_query.id}", agent_retries)
        if result is None:
            continue
        if action is None and result.action_label:
            action = result.action_label
        for text in result.claims[:gen_query.max_claims]:
            try:
                key = canonicalize_claim(text)
            except Exception as exc:
                diagnostics.append(f"gen {node}/{gen_query.id}: {exc}")
                continue
            if key in working.nodes[node].entries:
                skipped.append(key)
                continue
            if len(working.nodes[node].entries) >= claim_cap:
                discarded.append(text)
                log.info("claim cap %d reached at %s; discarding %r",
                         claim_cap, node, text)
                continue
            claim = Claim(
                key=key,
                text=text,
                origin=ClaimOrigin.GENERATED,
                node=node,
                label=f"g{working.claim_seq}@{node}",
            )
            working = insert_claim(working, node, claim)
            working = replace(working, claim_seq=working.claim_seq + 1)
            new_claims.append(claim)
            generated.append(claim.label)

    # Newly inserted claims are evaluated in the same step, same context.
    for claim in new_claims:
        evaluate(claim, inserted=True)

    before_view = assessment_projection(state.nodes[node])
    after_view = assessment_projection(working.nodes[node])
    ac_changed = before_view != after_view
    # A new record is always attached to a claim's ids, so comparing the
    # entries also catches evidence growth.
    evidence_only = (not ac_changed) and (
        working.nodes[node].entries != state.nodes[node].entries)
    if evidence_only:
        # Evidence growth alone never wakes successors; leave a trail so the
        # suppression can be studied later.
        log.info("step %d at %s changed evidence but no assessment; "
                 "successors not enqueued", step, node)

    report = StepReport(
        node=node,
        visit=visit,
        action=action or "evaluate",
        updates=tuple(updates),
        generated=tuple(generated),
        discarded=tuple(discarded),
        skipped_duplicates=tuple(skipped),
        diagnostics=tuple(diagnostics),
        ac_changed=ac_changed,
        evidence_only_change=evidence_only,
    )
    nodes = dict(state.nodes)
    nodes[node] = working.nodes[node]
    return replace(working, nodes=nodes), report
