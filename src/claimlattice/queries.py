"""Query templates and the per-node context they are rendered against.

A node is always processed against one context, built once per step: the
source text its neighborhood allows it to see, the global goal, and the
current findings of its extended predecessors. Templates are plain strings
with {claim}, {goal}, {code} and {pred_states} placeholders.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Union

from . import assessment as asmt
from .errors import MissingPlaceholderData
from .graph import EvaluationGraph, code_context, extended_predecessors
from .state import AnalysisState, Claim, EvidenceStatus

__all__ = [
    "EvalQuery",
    "GenQuery",
    "QuerySpec",
    "PredecessorClaim",
    "PromptContext",
    "template_placeholders",
    "build_context",
    "render_prompt",
    "DEFAULT_EVAL_TEMPLATE",
]

DEFAULT_EXCERPT_CAP = 8

ALLOWED_PLACEHOLDERS = frozenset({"claim", "goal", "code", "pred_states"})
_PLACEHOLDER = re.compile(r"\{([a-zA-Z_]+)\}")

DEFAULT_EVAL_TEMPLATE = (
    "Goal under review:\n{goal}\n\n"
    "Claim under assessment:\n{claim}\n\n"
    "Code in scope:\n{code}\n\n"
    "Findings already recorded upstream:\n{pred_states}\n"
)


def template_placeholders(template: str) -> set[str]:
    return set(_PLACEHOLDER.findall(template))


@dataclass(frozen=True)
class EvalQuery:
    """Assessment rubric for one claim. Bilateral queries instruct the agent
    to argue both directions before grading."""

    id: str
    template: str = DEFAULT_EVAL_TEMPLATE
    bilateral: bool = True

    def __post_init__(self):
        unknown = template_placeholders(self.template) - ALLOWED_PLACEHOLDERS
        if unknown:
            raise ValueError(f"unknown placeholders in eval query {self.id!r}: "
                             f"{sorted(unknown)}")


@dataclass(frozen=True)
class GenQuery:
    """Prompt for proposing new claims at a node, with a hard result cap."""

    id: str
    template: str
    max_claims: int

    def __post_init__(self):
        if self.max_claims < 1:
            raise ValueError(f"gen query {self.id!r} needs max_claims >= 1")
        unknown = template_placeholders(self.template) - ALLOWED_PLACEHOLDERS
        if unknown:
            raise ValueError(f"unknown placeholders in gen query {self.id!r}: "
                             f"{sorted(unknown)}")
        if "claim" in template_placeholders(self.template):
            raise ValueError(f"gen query {self.id!r} cannot use the claim placeholder")


@dataclass(frozen=True)
class QuerySpec:
    eval: EvalQuery
    gen: tuple[GenQuery, ...] = ()


@dataclass(frozen=True)
class PredecessorClaim:
    node: str
    key: str
    label: str
    assessment: asmt.Assessment
    excerpts: tuple[str, ...]


@dataclass(frozen=True)
class PromptContext:
    """Everything an agent call at one node may rest on, fixed per step."""

    node: str
    kind: asmt.DomainKind
    goal: str
    code: tuple[tuple[str, str], ...]
    pred_states: tuple[PredecessorClaim, ...] = field(default_factory=tuple)


def build_context(
    graph: EvaluationGraph,
    state: AnalysisState,
    goal: str,
    node: str,
    *,
    excerpt_cap: int = DEFAULT_EXCERPT_CAP,
    pred_cache: dict | None = None,
) -> PromptContext:
    """Deterministic context for one node: neighborhood sources plus every
    extended predecessor's claims with their active evidence excerpts.

    Excerpts are capped per claim, newest first, so late corrections are what
    downstream nodes see when a record budget bites. Evidence ids are kept
    in (epoch, step, id) order, so only the newest active ones are read. A
    node sees its own sibling claims only if a context self-loop says so.

    ``pred_cache`` maps a predecessor to the ``NodeState`` it was last read
    from and the tuple of claims read from it; the tuple is reused while
    ``state`` holds that same object. Its owner keeps the excerpt cap fixed
    and drops it when a record's status changes, which replaces no table.
    """
    if pred_cache is None:
        pred_cache = {}
    preds = []
    for pred in sorted(extended_predecessors(graph, node)):
        table = state.nodes[pred]
        cached = pred_cache.get(pred)
        if cached is None or cached[0] is not table:
            claims = []
            for key, entry in table.entries.items():
                excerpts: list[str] = []
                for record in map(state.evidence.__getitem__,
                                  reversed(entry.evidence_ids)):
                    if len(excerpts) >= excerpt_cap:
                        break
                    if record.status is EvidenceStatus.ACTIVE:
                        excerpts.append(record.excerpt)
                claims.append(PredecessorClaim(
                    node=pred,
                    key=key,
                    label=entry.claim.label,
                    assessment=entry.assessment,
                    excerpts=tuple(excerpts),
                ))
            cached = pred_cache[pred] = (table, tuple(claims))
        preds.extend(cached[1])
    return PromptContext(
        node=node,
        kind=state.kind,
        goal=goal,
        code=tuple(code_context(graph, node)),
        pred_states=tuple(preds),
    )


def _format_code(ctx: PromptContext) -> str:
    if not ctx.code:
        return "(no source in scope)"
    blocks = []
    for node, text in ctx.code:
        body = text if text.strip() else "(no source recorded)"
        blocks.append(f"--- {node} ---\n{body}")
    return "\n".join(blocks)


def _format_pred_states(ctx: PromptContext) -> str:
    if not ctx.pred_states:
        return "(none yet)"
    lines = []
    for p in ctx.pred_states:
        line = f"{p.node}/{p.label} = {asmt.pretty(p.assessment)}"
        if p.excerpts:
            line += " :: " + " | ".join(p.excerpts)
        lines.append(line)
    return "\n".join(lines)


_GRADING_BY_KIND = {
    asmt.DomainKind.FOUR: (
        "Report two booleans: whether any supporting evidence exists and "
        "whether any refuting evidence exists."
    ),
    asmt.DomainKind.GRADED: (
        "Grade each direction as bot (nothing found), w, or s. Use w for "
        "evidence that is indirect, incomplete, generic, argued from silence, "
        "or not clearly tied to the exact version and code path in scope. "
        "Use s only for direct, specific findings that apply as-is and are "
        "sufficient on their own."
    ),
    asmt.DomainKind.STRATIFIED: (
        "Return evidence records rather than a verdict. For each record give "
        "its direction, a strength of w or s, and the confidence basis that "
        "was actually earned: model (recalled knowledge only), located (a "
        "concrete artifact was found), applicable (matched to the exact "
        "version and path), corroborated (independent artifacts agree), or "
        "checked (confirmed by direct inspection or execution). The overall "
        "verdict is computed from the records; do not collapse them yourself."
    ),
}


def _bilateral_block(kind: asmt.DomainKind) -> str:
    return (
        "\n[support] Search for evidence that the claim holds. List each "
        "finding with a short excerpt of what you saw.\n"
        "[refute] Search for evidence that the claim fails. Treat absence of "
        "an expected guarantee as a finding worth reporting.\n"
        f"[grading] {_GRADING_BY_KIND[kind]}\n"
    )


def render_prompt(
    query: Union[EvalQuery, GenQuery],
    ctx: PromptContext,
    claim: Claim | None = None,
) -> str:
    """Substitute a template against a context.

    A claim must be supplied exactly when the query is an eval query.
    Bilateral eval prompts always end with both polarity sections and the
    domain's grading instructions, whatever the template says.
    """
    if isinstance(query, EvalQuery):
        if claim is None:
            raise MissingPlaceholderData(
                f"eval query {query.id!r} needs a claim to render")
    else:
        if claim is not None:
            raise MissingPlaceholderData(
                f"gen query {query.id!r} does not take a claim")

    values = {
        "goal": ctx.goal,
        "code": _format_code(ctx),
        "pred_states": _format_pred_states(ctx),
    }
    if claim is not None:
        values["claim"] = claim.text

    def _sub(match: re.Match) -> str:
        name = match.group(1)
        if name not in values:
            raise MissingPlaceholderData(
                f"template for query {query.id!r} uses {{{name}}} "
                "but no value is available")
        return values[name]

    rendered = _PLACEHOLDER.sub(_sub, query.template)
    if isinstance(query, EvalQuery) and query.bilateral:
        rendered += _bilateral_block(ctx.kind)
    return rendered
