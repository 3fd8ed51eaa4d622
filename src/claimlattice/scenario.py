"""Scenario files: one JSON document describing a whole run.

A scenario carries the graph, the seeded claims, the query templates, the
ordering policy, the agent wiring, budgets, and any revision configuration.
Loading is all-or-nothing: every validation problem found is reported in a
single batch, and a scenario that loads is ready to run. A list element, or
an item of a keyed section, reports its first problem and is dropped, so its
later fields are not checked.
"""

from __future__ import annotations

import json
import re
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from . import assessment as asmt
from .agent import (
    DEFAULT_RETRIES,
    DEFAULT_TIMEOUT,
    EvalScript,
    GenScript,
    ScriptedAgent,
    ScriptEntry,
    check_result_consistency,
)
from .errors import EmptyClaim, ParseError, ValidationError
from .graph import EvaluationGraph, ProgramGraph, validate_graph
from .queries import (
    DEFAULT_EVAL_TEMPLATE,
    DEFAULT_EXCERPT_CAP,
    EvalQuery,
    GenQuery,
    QuerySpec,
)
from .revision import (
    BoundedMove,
    EpochConfig,
    RevisionLimits,
    RevisionPlan,
    RevisionTarget,
)
from .state import (
    AnalysisState,
    Claim,
    ClaimOrigin,
    EvidenceSeed,
    Polarity,
    SourceKind,
    canonicalize_claim,
    initial_state,
)
from .worklist import ClaimCaps, OrderPolicy, POLICY_NAMES, parse_policy

__all__ = ["AgentConfig", "Scenario", "load_scenario", "parse_scenario",
           "build_initial_state", "build_backend"]


@dataclass(frozen=True)
class AgentConfig:
    backend: str  # scripted | remote
    entries: tuple[ScriptEntry, ...]
    endpoint: str | None
    timeout: float
    retries: int


@dataclass(frozen=True)
class Scenario:
    goal: str
    kind: asmt.DomainKind
    graph: EvaluationGraph
    claims: tuple[Claim, ...]
    declared_order: tuple[str, ...]
    queries: Mapping[str, QuerySpec]
    caps: ClaimCaps
    policy: OrderPolicy
    hard_step_cap: int | None
    agent: AgentConfig
    epochs: EpochConfig
    limits: RevisionLimits
    bounded_moves: tuple[BoundedMove, ...]
    excerpt_cap: int
    goal_claim: str | None
    path: Path | None


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read scenario {path}: {exc}") from None
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:  # also a repeated key, deep nesting
        raise ParseError(f"scenario {path} is not valid JSON: {exc}") from None
    return parse_scenario(data, path=path)


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A JSON object, refused if a key repeats: the last value would win."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
        raise ValueError(f"key {key!r} repeats within one object")
    return obj


class _Reject(Exception):
    """The first problem found in one list element or dict item, which is
    then dropped. Raised with no message when the problem is already
    reported."""


def _fail(message: str, diags: list[str] | None, fallback: Any) -> Any:
    """Reject the element being parsed, or, given ``diags``, report the
    problem and carry on with ``fallback``."""
    if diags is None:
        raise _Reject(message)
    diags.append(message)
    return fallback


def _collect(items, diags: list[str], parse) -> list:
    """``parse(*item)`` for each item, dropping those it rejects."""
    out = []
    for item in items:
        try:
            out.append(parse(*item))
        except _Reject as exc:
            diags.extend(exc.args)
    return out


def _each(raw: Any, label: str, diags: list[str], parse) -> list:
    """Parse each element of the list section ``label`` as
    ``parse(where, element)``."""
    if not isinstance(raw, list):
        diags.append(f"{label} must be a list")
        return []
    return _collect(((f"{label}[{i}]", item) for i, item in enumerate(raw)),
                    diags, parse)


def _object(raw: Any, label: str, diags: list[str] | None = None,
            tail: str = "") -> dict:
    """``raw`` if it is a JSON object; an empty one stands in for a section
    that is not."""
    if isinstance(raw, dict):
        return raw
    return _fail(f"{label} must be an object{tail}", diags, {})


def _is_number(value: Any, low: int | None = None, real: bool = False) -> bool:
    """An integer no smaller than ``low``, or, if ``real``, a positive finite
    number. JSON booleans are neither."""
    if isinstance(value, bool):
        return False
    if real:
        return isinstance(value, (int, float)) and 0 < value <= sys.float_info.max
    return isinstance(value, int) and (low is None or value >= low)


def _number(section: dict, key: str, label: str, default: Any = None, *,
            low: int | None = None, real: bool = False,
            diags: list[str] | None = None) -> Any:
    """``section[key]``, or ``default`` when absent, checked by
    ``_is_number``."""
    value = section.get(key, default)
    if _is_number(value, low, real):
        return value
    what = "a positive number" if real else {
        None: "an integer", 0: "a non-negative integer",
        1: "a positive integer"}[low]
    return _fail(f"{label} must be {what}", diags, default)


def _string(section: dict, key: str, label: str, default: Any = None, *,
            empty: bool = True, null: bool = False,
            diags: list[str] | None = None) -> Any:
    """``section[key]``, or ``default`` when absent, as a string (non-empty
    unless ``empty``), or as None if ``null``."""
    value = section.get(key, default)
    if isinstance(value, str) and (empty or value) or null and value is None:
        return value
    return _fail(f"{label} must be a {'' if empty else 'non-empty '}string",
                 diags, None)


def _node(value: Any, where: str, nodes: frozenset[str]) -> str:
    if not isinstance(value, str) or value not in nodes:
        raise _Reject(f"{where}: unknown node {value!r}")
    return value


def _attempt(where: str, make, errors=ValueError):
    """``make()``, with the message of an ``errors`` it raises as the
    element's problem."""
    try:
        return make()
    except errors as exc:
        raise _Reject(f"{where}: {exc}") from None


def _parse_edges(raw: Any, label: str, diags: list[str]) -> frozenset[tuple[str, str]]:
    seen: set[tuple[str, str]] = set()

    def edge(where: str, item: Any) -> tuple[str, str]:
        if (not isinstance(item, (list, tuple)) or len(item) != 2
                or not all(isinstance(x, str) for x in item)):
            raise _Reject(f"{where} must be a [src, dst] pair of node ids")
        pair = (item[0], item[1])
        if pair in seen:
            raise _Reject(f"{where} duplicates edge {pair}; parallel edges "
                          "are not allowed")
        seen.add(pair)
        return pair

    return frozenset(_each(raw, label, diags, edge))


def _parse_node_list(raw: Any, label: str, diags: list[str]) -> list[str]:
    seen: set[str] = set()

    def node(where: str, item: Any) -> str:
        if not isinstance(item, str) or not item:
            raise _Reject(f"{where} must be a non-empty node id")
        if item in seen:
            raise _Reject(f"{where} repeats node {item!r}")
        seen.add(item)
        return item

    return _each(raw, label, diags, node)


def _parse_graph(raw: Any, diags: list[str]) -> tuple[EvaluationGraph, list[str]]:
    raw = _object(raw, "graph section", diags)
    program_nodes = _parse_node_list(raw.get("program_nodes", []),
                                     "graph.program_nodes", diags)
    aux_nodes = _parse_node_list(raw.get("aux_nodes", []),
                                 "graph.aux_nodes", diags)

    def source(node: str, text: Any) -> tuple[str, str]:
        if not isinstance(text, str):
            raise _Reject(f"graph.sources[{node!r}] must be a string")
        return node, text

    def members(owner: str, value: Any) -> tuple[str, frozenset[str]]:
        if not isinstance(value, list) or any(not isinstance(m, str)
                                              for m in value):
            raise _Reject(f"graph.neighborhood[{owner!r}] must be a list of "
                          "node ids")
        return owner, frozenset(value)

    sources = dict(_collect(_object(raw.get("sources", {}), "graph.sources",
                                    diags).items(), diags, source))
    for node in program_nodes:
        sources.setdefault(node, "")
    neighborhood = dict(_collect(_object(raw.get("neighborhood", {}),
                                         "graph.neighborhood", diags).items(),
                                 diags, members))

    graph = EvaluationGraph(
        program=ProgramGraph(
            nodes=frozenset(program_nodes),
            edges=_parse_edges(raw.get("program_edges", []),
                               "graph.program_edges", diags),
            sources=sources,
        ),
        aux_nodes=frozenset(aux_nodes),
        context_edges=_parse_edges(raw.get("context_edges", []),
                                   "graph.context_edges", diags),
        feedback_edges=_parse_edges(raw.get("feedback_edges", []),
                                    "graph.feedback_edges", diags),
        neighborhood=neighborhood,
    )
    for violation in validate_graph(graph):
        diags.append(f"graph: {violation.rule} at {violation.subject}: "
                     f"{violation.detail}")
    return graph, program_nodes + aux_nodes


def _check_label(where: str, label: str, used: set[str],
                 nodes: frozenset[str]) -> None:
    """Trace cells are keyed by label, so a label must be unused and not of
    a form the engine mints: g<n>@<node> (generated), r<n>@<node> (introduced)."""
    if label in used:
        raise _Reject(f"{where}: label {label!r} is already in use")
    minted = re.fullmatch(r"[gr][0-9]+@(.*)", label, re.DOTALL)
    if minted is not None and minted.group(1) in nodes:
        raise _Reject(f"{where}: label {label!r} has the form the engine gives "
                      "generated (g<n>@<node>) and introduced (r<n>@<node>) "
                      "claims")


def _parse_claims(raw: Any, nodes: frozenset[str], kind: asmt.DomainKind,
                  diags: list[str]) -> tuple[Claim, ...]:
    labels: set[str] = set()
    keys: set[tuple[str, str]] = set()

    def claim(where: str, item: Any) -> Claim:
        item = _object(item, where)
        node = _node(item.get("node"), where, nodes)
        text = _string(item, "text", f"{where}: text")
        key = _attempt(where, lambda: canonicalize_claim(text), EmptyClaim)
        label = _string(item, "label", f"{where}: label", empty=False,
                        null=True) or key
        _check_label(where, label, labels, nodes)
        if (node, key) in keys:
            raise _Reject(f"{where}: claim {key!r} is already seeded at {node!r}")
        if "assessment" in item:
            seeded = _attempt(f"{where}: bad seeded assessment",
                              lambda: asmt.from_json(kind, item["assessment"]))
            if seeded != asmt.bottom(kind):
                raise _Reject(f"{where}: seeded assessments must be the domain "
                              "bottom; runs start from nothing")
        labels.add(label)
        keys.add((node, key))
        return Claim(key=key, text=text, origin=ClaimOrigin.SEEDED, node=node,
                     label=label)

    return tuple(_each(raw, "claims", diags, claim))


def _parse_queries(raw: Any, nodes: frozenset[str],
                   diags: list[str]) -> dict[str, QuerySpec]:
    raw = _object({} if raw is None else raw, "queries section", diags)

    def eval_query(where: str, payload: Any, fallback_id: str) -> EvalQuery:
        payload = _object(payload, where)
        template = _string(payload, "template", f"{where}.template",
                           DEFAULT_EVAL_TEMPLATE)
        qid = _string(payload, "id", f"{where}.id", fallback_id)
        bilateral = payload.get("bilateral", True)
        if not isinstance(bilateral, bool):
            raise _Reject(f"{where}.bilateral must be a boolean")
        return _attempt(where, lambda: EvalQuery(id=qid, template=template,
                                                 bilateral=bilateral))

    def node_query(node: str, payload: Any) -> tuple[str, EvalQuery]:
        _node(node, "queries.per_node", nodes)
        return node, eval_query(f"queries.per_node[{node!r}]", payload,
                                f"eval@{node}")

    gen_by_node: dict[str, list[GenQuery]] = {}
    gen_ids: set[tuple[str, str]] = set()

    def gen_query(where: str, payload: Any) -> None:
        payload = _object(payload, where)
        node = _node(payload.get("node"), where, nodes)
        qid = _string(payload, "id", f"{where}: id", empty=False)
        template = _string(payload, "template", f"{where}: template")
        max_claims = _number(payload, "max_claims", f"{where}: max_claims")
        if (node, qid) in gen_ids:
            raise _Reject(f"{where}: id {qid!r} already used at node {node!r}")
        query = _attempt(where, lambda: GenQuery(id=qid, template=template,
                                                 max_claims=max_claims))
        gen_ids.add((node, qid))
        gen_by_node.setdefault(node, []).append(query)

    default_eval = EvalQuery(id="default")
    if "default_eval" in raw:
        parsed = _collect([("queries.default_eval", raw["default_eval"],
                            "default")], diags, eval_query)
        default_eval = parsed[0] if parsed else default_eval
    per_node = dict(_collect(_object(raw.get("per_node", {}), "queries.per_node",
                                     diags).items(), diags, node_query))
    _each(raw.get("gen", []), "queries.gen", diags, gen_query)
    return {
        node: QuerySpec(
            eval=per_node.get(node, default_eval),
            gen=tuple(gen_by_node.get(node, ())),
        )
        for node in sorted(nodes)
    }


def _parse_seed(where: str, payload: Any) -> EvidenceSeed:
    payload = _object(payload, where)
    polarity, strength, basis, source = _attempt(where, lambda: (
        Polarity(payload.get("polarity")),
        asmt.Strength.from_token(payload.get("strength")),
        asmt.ConfidenceBasis.from_token(payload.get("basis")),
        SourceKind(payload.get("source_kind")),
    ), (ValueError, KeyError, TypeError))
    return EvidenceSeed(polarity=polarity, strength=strength, basis=basis,
                        source_kind=source,
                        excerpt=_string(payload, "excerpt", f"{where}.excerpt", ""),
                        ref=_string(payload, "ref", f"{where}.ref", null=True))


def _parse_script(raw: Any, nodes: frozenset[str], kind: asmt.DomainKind,
                  claims: tuple[Claim, ...],
                  queries: Mapping[str, QuerySpec],
                  diags: list[str]) -> tuple[ScriptEntry, ...]:
    label_to_key = {(c.node, c.label): c.key for c in claims}
    claim_keys = {(c.node, c.key) for c in claims}
    stratified = kind is asmt.DomainKind.STRATIFIED
    seen: set[tuple[str, str, int | None]] = set()

    def entry(where: str, item: Any) -> ScriptEntry:
        item = _object(item, where)
        node = _node(item.get("node"), where, nodes)
        visit = item.get("visit", "*")
        if visit == "*":
            visit = None
        elif not _is_number(visit, 0):
            raise _Reject(f"{where}: visit must be a non-negative integer or '*'")
        action = _string(item, "action", f"{where}: action", null=True)

        if "gen" in item:
            key = item["gen"]
            if (not isinstance(key, str)
                    or key not in {q.id for q in queries[node].gen}):
                raise _Reject(f"{where}: dangling gen reference {key!r} at "
                              f"{node!r}")
            texts = item.get("claims", [])
            if not isinstance(texts, list) or any(not isinstance(c, str)
                                                  for c in texts):
                raise _Reject(f"{where}: claims must be a list of strings")
            result: EvalScript | GenScript = GenScript(claims=tuple(texts),
                                                       action=action)
        else:
            ref = item.get("claim")
            if not isinstance(ref, str):
                raise _Reject(f"{where}: needs a claim (or gen) reference")
            key = label_to_key.get((node, ref), ref)
            if (node, key) not in claim_keys:
                # Generated claims are scripted by their canonical key, which
                # cannot be checked against the seed list; only flag refs
                # that look like labels gone missing.
                try:
                    key = canonicalize_claim(key)
                except EmptyClaim:
                    raise _Reject(f"{where}: dangling claim reference {ref!r} "
                                  f"at {node!r}") from None
            assessment = None
            if "assessment" in item:
                if stratified:
                    raise _Reject(f"{where}: stratified runs derive assessments "
                                  "from evidence; drop the assessment field")
                assessment = _attempt(f"{where}: bad assessment", lambda:
                                      asmt.from_json(kind, item["assessment"]))
            elif not stratified:
                raise _Reject(f"{where}: eval entries need an assessment in the "
                              f"{kind.value} domain")
            evidence = item.get("evidence", [])
            if not isinstance(evidence, list):
                raise _Reject(f"{where}: evidence must be a list")
            seeds = _each(evidence, f"{where}.evidence", diags, _parse_seed)
            if len(seeds) < len(evidence):
                raise _Reject()  # each bad seed has reported itself
            if assessment is not None:
                complaint = check_result_consistency(assessment, seeds)
                if complaint is not None:
                    raise _Reject(f"{where}: {complaint}")
            result = EvalScript(
                assessment=assessment, evidence=tuple(seeds), action=action,
                rationale=_string(item, "rationale", f"{where}: rationale", ""))

        if (node, key, visit) in seen:
            raise _Reject(f"{where}: duplicate wildcard entry for {node!r}/{key!r}"
                          if visit is None else f"{where}: duplicate entry for "
                          f"{node!r}/{key!r} visit {visit}")
        seen.add((node, key, visit))
        return ScriptEntry(node=node, key=key, visit=visit, result=result)

    return tuple(_each(raw, "agent.script", diags, entry))


def _parse_revision(raw: Any, nodes: frozenset[str], labels: set[str],
                    diags: list[str]
                    ) -> tuple[EpochConfig, RevisionLimits, tuple[BoundedMove, ...]]:
    """``labels`` holds the seeded labels; introduced labels join it."""
    raw = _object({} if raw is None else raw, "revision section", diags)
    epoch_limit = _number(raw, "epoch_limit", "revision.epoch_limit", 1, low=1,
                          diags=diags)

    def target(where: str, item: Any) -> RevisionTarget:
        item = _object(item, where)
        node = _node(item.get("node"), where, nodes)
        return RevisionTarget(
            node=node, claim=_string(item, "claim", f"{where}: claim", empty=False),
            reason=_string(item, "reason", f"{where}: reason", ""))

    def plan(epoch_key: str, body: Any) -> tuple[int, RevisionPlan]:
        try:
            epoch = int(epoch_key)
        except (TypeError, ValueError):
            epoch = None
        if str(epoch) != epoch_key:  # "01", " 1" or "1_0" would alias a key
            raise _Reject(f"revision.plans key {epoch_key!r} is not an epoch "
                          "number")
        if epoch < 1:
            raise _Reject(f"revision.plans key {epoch_key!r} must be >= 1")
        where = f"revision.plans[{epoch_key!r}]"
        body = _object(body, where)
        lowers, retractions = (
            tuple(_each(body.get(name, []), f"{where}.{name}", diags, target))
            for name in ("lowers", "retractions"))
        return epoch, RevisionPlan(lowers=lowers, retractions=retractions)

    def move(where: str, item: Any) -> BoundedMove:
        item = _object(item, where)
        node = _node(item.get("node"), where, nodes)
        action = item.get("action")
        if action not in ("lower", "retract", "introduce"):
            raise _Reject(f"{where}: action must be lower, retract, or introduce")
        after_step = _number(item, "after_step", f"{where}: after_step", low=1)
        claim = item.get("claim")
        text = item.get("text")
        if action != "introduce" and not isinstance(claim, str):
            raise _Reject(f"{where}: {action} needs a claim reference")
        if action == "introduce" and not isinstance(text, str):
            raise _Reject(f"{where}: introduce needs replacement claim text")
        reason = item.get("reason", "")
        label = item.get("label")
        if not isinstance(reason, str) or (label is not None
                                           and not isinstance(label, str)):
            raise _Reject(f"{where}: reason and label must be strings")
        if action == "introduce" and label is not None:
            _check_label(where, label, labels, nodes)
            labels.add(label)
        return BoundedMove(after_step=after_step, node=node, action=action,
                           claim=claim, text=text, reason=reason, label=label)

    plans = dict(_collect(_object(raw.get("plans", {}), "revision.plans", diags,
                                  " keyed by epoch").items(), diags, plan))
    limits = _object(raw.get("limits", {}), "revision.limits", diags)
    limits = RevisionLimits(**{
        name: _number(limits, name, f"revision.limits.{name}", 0, low=0,
                      diags=diags)
        for name in ("introductions", "retractions", "downward")})
    moves = _each(raw.get("bounded_moves", []), "revision.bounded_moves", diags,
                  move)
    return EpochConfig(epoch_limit=epoch_limit, plans=plans), limits, tuple(moves)


def _parse_caps(raw: Any, nodes: frozenset[str], claims: tuple[Claim, ...],
                diags: list[str]) -> ClaimCaps:
    raw = _object(raw, "caps", diags)
    default = _number(raw, "default", "caps.default", ClaimCaps.default, low=1,
                      diags=diags)
    per_node_raw = _object(raw.get("per_node", {}), "caps.per_node", diags)

    def node_cap(node: str, _: Any) -> tuple[str, int]:
        _node(node, "caps.per_node", nodes)
        return node, _number(per_node_raw, node, f"caps.per_node[{node!r}]",
                             low=1)

    caps = ClaimCaps(default=default, per_node=dict(
        _collect(per_node_raw.items(), diags, node_cap)))
    for node, count in sorted(Counter(c.node for c in claims).items()):
        if count > caps.cap_for(node):
            diags.append(f"node {node!r} seeds {count} claims but its cap is "
                         f"{caps.cap_for(node)}")
    return caps


def _parse_policy(raw: Any, nodes: frozenset[str],
                  diags: list[str]) -> OrderPolicy:
    raw = _object(raw, "policy", diags)
    name = raw.get("kind", "fifo")
    steps = raw.get("steps")
    goal_node = raw.get("goal_node")
    if name not in POLICY_NAMES:
        diags.append(f"policy.kind must be one of {list(POLICY_NAMES)}")
        return parse_policy("fifo")
    if steps is not None:
        if not isinstance(steps, list) or any(not isinstance(s, str)
                                              for s in steps):
            diags.append("policy.steps must be a list of node ids")
            steps = None
        else:
            diags.extend(f"policy.steps names unknown node {s!r}"
                         for s in steps if s not in nodes)
    if goal_node is not None and (not isinstance(goal_node, str)
                                  or goal_node not in nodes):
        diags.append(f"policy.goal_node {goal_node!r} is not in the graph")
    try:
        return parse_policy(name, steps=steps, goal_node=goal_node)
    except ValueError as exc:
        diags.append(f"policy: {exc}")
        return parse_policy("fifo")


def parse_scenario(data: Any, *, path: Path | None = None) -> Scenario:
    if not isinstance(data, dict):
        raise ValidationError(["scenario must be a JSON object"])
    diags: list[str] = []

    goal = data.get("goal")
    if not isinstance(goal, str) or not goal.strip():
        diags.append("goal must be a non-empty string")
        goal = ""

    kind_raw = data.get("domain", "graded")
    try:
        kind = asmt.DomainKind(kind_raw)
    except ValueError:
        diags.append(f"domain must be one of "
                     f"{[k.value for k in asmt.DomainKind]}, got {kind_raw!r}")
        kind = asmt.DomainKind.GRADED

    graph, node_declaration = _parse_graph(data.get("graph"), diags)
    nodes = graph.all_nodes
    claims = _parse_claims(data.get("claims", []), nodes, kind, diags)
    queries = _parse_queries(data.get("queries"), nodes, diags)
    caps = _parse_caps(data.get("caps", {}), nodes, claims, diags)
    policy = _parse_policy(data.get("policy", {}), nodes, diags)

    budget = _object(data.get("budget", {}), "budget", diags)
    hard_step_cap = None
    if budget.get("hard_step_cap") is not None:
        hard_step_cap = _number(budget, "hard_step_cap", "budget.hard_step_cap",
                                low=1, diags=diags)

    agent_raw = _object(data.get("agent", {}), "agent", diags)
    backend = agent_raw.get("backend", "scripted")
    entries: tuple[ScriptEntry, ...] = ()
    if backend == "scripted":
        entries = _parse_script(agent_raw.get("script", []), nodes, kind,
                                claims, queries, diags)
    elif backend != "remote":  # a remote endpoint may come from the environment
        diags.append("agent.backend must be scripted or remote")
        backend = "scripted"
    endpoint = _string(agent_raw, "endpoint", "agent.endpoint", null=True,
                       diags=diags)
    timeout = _number(agent_raw, "timeout", "agent.timeout", DEFAULT_TIMEOUT,
                      real=True, diags=diags)
    retries = _number(agent_raw, "retries", "agent.retries", DEFAULT_RETRIES,
                      low=0, diags=diags)
    agent = AgentConfig(backend=backend, entries=entries, endpoint=endpoint,
                        timeout=float(timeout), retries=retries)

    epochs, limits, bounded_moves = _parse_revision(
        data.get("revision"), nodes, {c.label for c in claims}, diags)

    context = _object(data.get("context", {}), "context", diags)
    excerpt_cap = _number(context, "excerpt_cap", "context.excerpt_cap",
                          DEFAULT_EXCERPT_CAP, low=0, diags=diags)

    goal_claim = data.get("goal_claim")
    if goal_claim is not None and (not isinstance(goal_claim, str)
                                   or goal_claim not in {c.label for c in claims}):
        diags.append(f"goal_claim {goal_claim!r} does not name a seeded claim")
        goal_claim = None

    if diags:
        raise ValidationError(diags)

    # Seed order: nodes in order of first seeded claim, then nodes that only
    # generate, then everything else in declaration order.
    declared = dict.fromkeys([
        *(claim.node for claim in claims),
        *(node for node in node_declaration if queries[node].gen),
        *node_declaration,
    ])
    return Scenario(
        goal=goal,
        kind=kind,
        graph=graph,
        claims=claims,
        declared_order=tuple(declared),
        queries=queries,
        caps=caps,
        policy=policy,
        hard_step_cap=hard_step_cap,
        agent=agent,
        epochs=epochs,
        limits=limits,
        bounded_moves=bounded_moves,
        excerpt_cap=excerpt_cap,
        goal_claim=goal_claim,
        path=path,
    )


def build_initial_state(scenario: Scenario) -> AnalysisState:
    return initial_state(scenario.graph, scenario.kind, scenario.claims)


def build_backend(scenario: Scenario, *, override: str | None = None,
                  audit_sink: list | None = None):
    backend = override or scenario.agent.backend
    if backend == "scripted":
        return ScriptedAgent(scenario.agent.entries)
    if backend == "remote":
        from .agent import RemoteAgent
        return RemoteAgent(
            kind=scenario.kind,
            endpoint=scenario.agent.endpoint,
            timeout=scenario.agent.timeout,
            audit_sink=audit_sink,
        )
    raise ValueError(f"unknown backend {backend!r}")
