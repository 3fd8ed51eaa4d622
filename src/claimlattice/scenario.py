"""Scenario files: one JSON document describing a whole run.

A scenario carries the graph, the seeded claims, the query templates, the
ordering policy, the agent wiring, budgets, and any revision configuration.
Loading is all-or-nothing: every validation problem found is reported in a
single batch, and a scenario that loads is ready to run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from . import assessment as asmt
from .agent import (
    EvalScript,
    GenScript,
    ScriptedAgent,
    ScriptEntry,
    check_result_consistency,
)
from .errors import EmptyClaim, ParseError, ValidationError
from .graph import EvaluationGraph, ProgramGraph, validate_graph
from .queries import DEFAULT_EVAL_TEMPLATE, EvalQuery, GenQuery, QuerySpec
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

DEFAULT_EXCERPT_CAP = 8


@dataclass(frozen=True)
class AgentConfig:
    backend: str = "scripted"  # scripted | remote
    entries: tuple[ScriptEntry, ...] = ()
    endpoint: str | None = None
    timeout: float = 120.0
    retries: int = 1


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
    excerpt_cap: int = DEFAULT_EXCERPT_CAP
    goal_claim: str | None = None
    path: Path | None = None


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read scenario {path}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"scenario {path} is not valid JSON: {exc}") from None
    return parse_scenario(data, path=path)


class _Check:
    """Accumulates diagnostics so one load reports every problem at once."""

    def __init__(self):
        self.diagnostics: list[str] = []

    def fail(self, message: str) -> None:
        self.diagnostics.append(message)

    def require(self, condition: bool, message: str) -> bool:
        if not condition:
            self.fail(message)
        return condition


def _parse_edges(raw: Any, label: str, check: _Check) -> frozenset[tuple[str, str]]:
    edges: list[tuple[str, str]] = []
    if not check.require(isinstance(raw, list), f"{label} must be a list"):
        return frozenset()
    for i, item in enumerate(raw):
        if (not isinstance(item, (list, tuple)) or len(item) != 2
                or not all(isinstance(x, str) for x in item)):
            check.fail(f"{label}[{i}] must be a [src, dst] pair of node ids")
            continue
        edge = (item[0], item[1])
        if edge in edges:
            check.fail(f"{label}[{i}] duplicates edge {edge}; parallel edges "
                       "are not allowed")
            continue
        edges.append(edge)
    return frozenset(edges)


def _parse_node_list(raw: Any, label: str, check: _Check) -> list[str]:
    if not check.require(isinstance(raw, list), f"{label} must be a list"):
        return []
    out: list[str] = []
    for i, item in enumerate(raw):
        if not isinstance(item, str) or not item:
            check.fail(f"{label}[{i}] must be a non-empty node id")
            continue
        if item in out:
            check.fail(f"{label}[{i}] repeats node {item!r}")
            continue
        out.append(item)
    return out


def _parse_graph(raw: Any, check: _Check) -> tuple[EvaluationGraph, list[str]]:
    if not isinstance(raw, dict):
        check.fail("graph section must be an object")
        raw = {}
    program_nodes = _parse_node_list(raw.get("program_nodes", []),
                                     "graph.program_nodes", check)
    aux_nodes = _parse_node_list(raw.get("aux_nodes", []),
                                 "graph.aux_nodes", check)
    sources_raw = raw.get("sources", {})
    if not isinstance(sources_raw, dict):
        check.fail("graph.sources must be an object")
        sources_raw = {}
    sources = {}
    for node, text in sources_raw.items():
        if not isinstance(text, str):
            check.fail(f"graph.sources[{node!r}] must be a string")
            continue
        sources[node] = text
    for node in program_nodes:
        sources.setdefault(node, "")

    neighborhood_raw = raw.get("neighborhood", {})
    if not isinstance(neighborhood_raw, dict):
        check.fail("graph.neighborhood must be an object")
        neighborhood_raw = {}
    neighborhood = {}
    for owner, members in neighborhood_raw.items():
        if not isinstance(members, list) or any(not isinstance(m, str)
                                                for m in members):
            check.fail(f"graph.neighborhood[{owner!r}] must be a list of node ids")
            continue
        neighborhood[owner] = frozenset(members)

    graph = EvaluationGraph(
        program=ProgramGraph(
            nodes=frozenset(program_nodes),
            edges=_parse_edges(raw.get("program_edges", []),
                               "graph.program_edges", check),
            sources=sources,
        ),
        aux_nodes=frozenset(aux_nodes),
        context_edges=_parse_edges(raw.get("context_edges", []),
                                   "graph.context_edges", check),
        feedback_edges=_parse_edges(raw.get("feedback_edges", []),
                                    "graph.feedback_edges", check),
        neighborhood=neighborhood,
    )
    for violation in validate_graph(graph):
        check.fail(f"graph: {violation.rule} at {violation.subject}: "
                   f"{violation.detail}")
    return graph, program_nodes + aux_nodes


def _parse_claims(raw: Any, graph: EvaluationGraph, kind: asmt.DomainKind,
                  check: _Check) -> tuple[Claim, ...]:
    if not check.require(isinstance(raw, list), "claims must be a list"):
        return ()
    claims: list[Claim] = []
    labels: set[str] = set()
    keys: set[tuple[str, str]] = set()
    for i, item in enumerate(raw):
        where = f"claims[{i}]"
        if not isinstance(item, dict):
            check.fail(f"{where} must be an object")
            continue
        node = item.get("node")
        text = item.get("text")
        label = item.get("label")
        if not isinstance(node, str) or node not in graph.all_nodes:
            check.fail(f"{where}: unknown node {node!r}")
            continue
        if not isinstance(text, str):
            check.fail(f"{where}: text must be a string")
            continue
        try:
            key = canonicalize_claim(text)
        except EmptyClaim as exc:
            check.fail(f"{where}: {exc}")
            continue
        if label is None:
            label = key
        if not isinstance(label, str) or not label:
            check.fail(f"{where}: label must be a non-empty string")
            continue
        if label in labels:
            check.fail(f"{where}: label {label!r} is already in use")
            continue
        if (node, key) in keys:
            check.fail(f"{where}: claim {key!r} is already seeded at {node!r}")
            continue
        if "assessment" in item:
            try:
                seeded = asmt.from_json(kind, item["assessment"])
            except ValueError as exc:
                check.fail(f"{where}: bad seeded assessment: {exc}")
                continue
            if seeded != asmt.bottom(kind):
                check.fail(f"{where}: seeded assessments must be the domain "
                           "bottom; runs start from nothing")
                continue
        labels.add(label)
        keys.add((node, key))
        claims.append(Claim(key=key, text=text, origin=ClaimOrigin.SEEDED,
                            node=node, label=label))
    return tuple(claims)


def _parse_queries(raw: Any, graph: EvaluationGraph,
                   check: _Check) -> dict[str, QuerySpec]:
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        check.fail("queries section must be an object")
        raw = {}

    def eval_query(payload: Any, where: str, fallback_id: str) -> EvalQuery | None:
        if not isinstance(payload, dict):
            check.fail(f"{where} must be an object")
            return None
        template = payload.get("template", DEFAULT_EVAL_TEMPLATE)
        bilateral = payload.get("bilateral", True)
        qid = payload.get("id", fallback_id)
        if not isinstance(template, str):
            check.fail(f"{where}.template must be a string")
            return None
        if not isinstance(qid, str):
            check.fail(f"{where}.id must be a string")
            return None
        if not isinstance(bilateral, bool):
            check.fail(f"{where}.bilateral must be a boolean")
            return None
        try:
            return EvalQuery(id=qid, template=template, bilateral=bilateral)
        except ValueError as exc:
            check.fail(f"{where}: {exc}")
            return None

    default_eval = EvalQuery(id="default")
    if "default_eval" in raw:
        parsed = eval_query(raw["default_eval"], "queries.default_eval", "default")
        if parsed is not None:
            default_eval = parsed

    per_node: dict[str, EvalQuery] = {}
    per_node_raw = raw.get("per_node", {})
    if not isinstance(per_node_raw, dict):
        check.fail("queries.per_node must be an object")
        per_node_raw = {}
    for node, payload in per_node_raw.items():
        if node not in graph.all_nodes:
            check.fail(f"queries.per_node: unknown node {node!r}")
            continue
        parsed = eval_query(payload, f"queries.per_node[{node!r}]", f"eval@{node}")
        if parsed is not None:
            per_node[node] = parsed

    gen_by_node: dict[str, list[GenQuery]] = {}
    gen_raw = raw.get("gen", [])
    if not isinstance(gen_raw, list):
        check.fail("queries.gen must be a list")
        gen_raw = []
    for i, payload in enumerate(gen_raw):
        where = f"queries.gen[{i}]"
        if not isinstance(payload, dict):
            check.fail(f"{where} must be an object")
            continue
        node = payload.get("node")
        if not isinstance(node, str) or node not in graph.all_nodes:
            check.fail(f"{where}: unknown node {node!r}")
            continue
        qid = payload.get("id")
        template = payload.get("template")
        max_claims = payload.get("max_claims")
        if not isinstance(qid, str) or not qid:
            check.fail(f"{where}: id must be a non-empty string")
            continue
        if not isinstance(template, str):
            check.fail(f"{where}: template must be a string")
            continue
        if not isinstance(max_claims, int):
            check.fail(f"{where}: max_claims must be an integer")
            continue
        if any(q.id == qid for q in gen_by_node.get(node, [])):
            check.fail(f"{where}: id {qid!r} already used at node {node!r}")
            continue
        try:
            query = GenQuery(id=qid, template=template, max_claims=max_claims)
        except ValueError as exc:
            check.fail(f"{where}: {exc}")
            continue
        gen_by_node.setdefault(node, []).append(query)

    return {
        node: QuerySpec(
            eval=per_node.get(node, default_eval),
            gen=tuple(gen_by_node.get(node, ())),
        )
        for node in sorted(graph.all_nodes)
    }


def _parse_seed(payload: Any, where: str, check: _Check) -> EvidenceSeed | None:
    if not isinstance(payload, dict):
        check.fail(f"{where} must be an object")
        return None
    try:
        polarity = Polarity(payload.get("polarity"))
        strength = asmt.Strength.from_token(payload.get("strength"))
        basis = asmt.ConfidenceBasis.from_token(payload.get("basis"))
        source = SourceKind(payload.get("source_kind"))
    except (ValueError, KeyError, TypeError) as exc:
        check.fail(f"{where}: {exc}")
        return None
    excerpt = payload.get("excerpt", "")
    if not isinstance(excerpt, str):
        check.fail(f"{where}.excerpt must be a string")
        return None
    ref = payload.get("ref")
    if ref is not None and not isinstance(ref, str):
        check.fail(f"{where}.ref must be a string")
        return None
    return EvidenceSeed(polarity=polarity, strength=strength, basis=basis,
                        source_kind=source, excerpt=excerpt, ref=ref)


def _parse_script(raw: Any, graph: EvaluationGraph, kind: asmt.DomainKind,
                  claims: tuple[Claim, ...],
                  queries: Mapping[str, QuerySpec],
                  check: _Check) -> tuple[ScriptEntry, ...]:
    if not check.require(isinstance(raw, list), "agent.script must be a list"):
        return ()
    label_to_key = {(c.node, c.label): c.key for c in claims}
    claim_keys = {(c.node, c.key) for c in claims}
    entries: list[ScriptEntry] = []
    seen_exact: set[tuple[str, str, int]] = set()
    seen_any: set[tuple[str, str]] = set()
    for i, item in enumerate(raw):
        where = f"agent.script[{i}]"
        if not isinstance(item, dict):
            check.fail(f"{where} must be an object")
            continue
        node = item.get("node")
        if not isinstance(node, str) or node not in graph.all_nodes:
            check.fail(f"{where}: unknown node {node!r}")
            continue
        visit_raw = item.get("visit", "*")
        if visit_raw == "*":
            visit: int | None = None
        elif isinstance(visit_raw, int) and visit_raw >= 0:
            visit = visit_raw
        else:
            check.fail(f"{where}: visit must be a non-negative integer or '*'")
            continue
        action = item.get("action")
        if action is not None and not isinstance(action, str):
            check.fail(f"{where}: action must be a string")
            continue

        if "gen" in item:
            gen_id = item.get("gen")
            spec = queries.get(node)
            known = {q.id for q in spec.gen} if spec else set()
            if not isinstance(gen_id, str) or gen_id not in known:
                check.fail(f"{where}: dangling gen reference {gen_id!r} at "
                           f"{node!r}")
                continue
            raw_claims = item.get("claims", [])
            if (not isinstance(raw_claims, list)
                    or any(not isinstance(c, str) for c in raw_claims)):
                check.fail(f"{where}: claims must be a list of strings")
                continue
            key = gen_id
            result: EvalScript | GenScript = GenScript(
                claims=tuple(raw_claims), action=action)
        else:
            ref = item.get("claim")
            if not isinstance(ref, str):
                check.fail(f"{where}: needs a claim (or gen) reference")
                continue
            key = label_to_key.get((node, ref), ref)
            if (node, key) not in claim_keys:
                # Generated claims are scripted by their canonical key, which
                # cannot be checked against the seed list; only flag refs that
                # look like labels gone missing.
                try:
                    key = canonicalize_claim(key)
                except EmptyClaim:
                    check.fail(f"{where}: dangling claim reference {ref!r} at "
                               f"{node!r}")
                    continue
            assessment = None
            if "assessment" in item:
                if kind is asmt.DomainKind.STRATIFIED:
                    check.fail(f"{where}: stratified runs derive assessments "
                               "from evidence; drop the assessment field")
                    continue
                try:
                    assessment = asmt.from_json(kind, item["assessment"])
                except ValueError as exc:
                    check.fail(f"{where}: bad assessment: {exc}")
                    continue
            elif kind is not asmt.DomainKind.STRATIFIED:
                check.fail(f"{where}: eval entries need an assessment in the "
                           f"{kind.value} domain")
                continue
            evidence_raw = item.get("evidence", [])
            if not isinstance(evidence_raw, list):
                check.fail(f"{where}: evidence must be a list")
                continue
            seeds = []
            bad = False
            for j, seed_raw in enumerate(evidence_raw):
                seed = _parse_seed(seed_raw, f"{where}.evidence[{j}]", check)
                if seed is None:
                    bad = True
                    continue
                seeds.append(seed)
            if bad:
                continue
            if assessment is not None:
                complaint = check_result_consistency(assessment, seeds)
                if complaint is not None:
                    check.fail(f"{where}: {complaint}")
                    continue
            rationale = item.get("rationale", "")
            if not isinstance(rationale, str):
                check.fail(f"{where}: rationale must be a string")
                continue
            result = EvalScript(assessment=assessment, evidence=tuple(seeds),
                                rationale=rationale, action=action)

        if visit is None:
            if (node, key) in seen_any:
                check.fail(f"{where}: duplicate wildcard entry for "
                           f"{node!r}/{key!r}")
                continue
            seen_any.add((node, key))
        else:
            if (node, key, visit) in seen_exact:
                check.fail(f"{where}: duplicate entry for "
                           f"{node!r}/{key!r} visit {visit}")
                continue
            seen_exact.add((node, key, visit))
        entries.append(ScriptEntry(node=node, key=key, visit=visit,
                                   result=result))
    return tuple(entries)


def _parse_revision(raw: Any, graph: EvaluationGraph, check: _Check
                    ) -> tuple[EpochConfig, RevisionLimits, tuple[BoundedMove, ...]]:
    if raw is None:
        return EpochConfig(), RevisionLimits(), ()
    if not isinstance(raw, dict):
        check.fail("revision section must be an object")
        return EpochConfig(), RevisionLimits(), ()

    epoch_limit = raw.get("epoch_limit", 1)
    if not isinstance(epoch_limit, int) or epoch_limit < 1:
        check.fail("revision.epoch_limit must be a positive integer")
        epoch_limit = 1

    plans: dict[int, RevisionPlan] = {}
    plans_raw = raw.get("plans", {})
    if not isinstance(plans_raw, dict):
        check.fail("revision.plans must be an object keyed by epoch")
        plans_raw = {}
    for epoch_key, body in plans_raw.items():
        try:
            epoch = int(epoch_key)
        except (TypeError, ValueError):
            check.fail(f"revision.plans key {epoch_key!r} is not an epoch number")
            continue
        if epoch < 1:
            check.fail(f"revision.plans key {epoch_key!r} must be >= 1")
            continue
        if not isinstance(body, dict):
            check.fail(f"revision.plans[{epoch_key!r}] must be an object")
            continue

        def targets(name: str) -> tuple[RevisionTarget, ...]:
            items = body.get(name, [])
            if not isinstance(items, list):
                check.fail(f"revision.plans[{epoch_key!r}].{name} must be a list")
                return ()
            out = []
            for i, t in enumerate(items):
                where = f"revision.plans[{epoch_key!r}].{name}[{i}]"
                if not isinstance(t, dict):
                    check.fail(f"{where} must be an object")
                    continue
                node = t.get("node")
                claim = t.get("claim")
                reason = t.get("reason", "")
                if not isinstance(node, str) or node not in graph.all_nodes:
                    check.fail(f"{where}: unknown node {node!r}")
                    continue
                if not isinstance(claim, str) or not claim:
                    check.fail(f"{where}: claim must be a non-empty string")
                    continue
                if not isinstance(reason, str):
                    check.fail(f"{where}: reason must be a string")
                    continue
                out.append(RevisionTarget(node=node, claim=claim, reason=reason))
            return tuple(out)

        plans[epoch] = RevisionPlan(lowers=targets("lowers"),
                                    retractions=targets("retractions"))

    limits_raw = raw.get("limits", {})
    if not isinstance(limits_raw, dict):
        check.fail("revision.limits must be an object")
        limits_raw = {}
    limit_values = {}
    for name in ("introductions", "retractions", "downward"):
        value = limits_raw.get(name, 0)
        if not isinstance(value, int) or value < 0:
            check.fail(f"revision.limits.{name} must be a non-negative integer")
            value = 0
        limit_values[name] = value
    limits = RevisionLimits(**limit_values)

    moves: list[BoundedMove] = []
    moves_raw = raw.get("bounded_moves", [])
    if not isinstance(moves_raw, list):
        check.fail("revision.bounded_moves must be a list")
        moves_raw = []
    for i, m in enumerate(moves_raw):
        where = f"revision.bounded_moves[{i}]"
        if not isinstance(m, dict):
            check.fail(f"{where} must be an object")
            continue
        node = m.get("node")
        action = m.get("action")
        after_step = m.get("after_step")
        if not isinstance(node, str) or node not in graph.all_nodes:
            check.fail(f"{where}: unknown node {node!r}")
            continue
        if action not in ("lower", "retract", "introduce"):
            check.fail(f"{where}: action must be lower, retract, or introduce")
            continue
        if not isinstance(after_step, int) or after_step < 1:
            check.fail(f"{where}: after_step must be a positive integer")
            continue
        claim = m.get("claim")
        text = m.get("text")
        if action in ("lower", "retract") and not isinstance(claim, str):
            check.fail(f"{where}: {action} needs a claim reference")
            continue
        if action == "introduce" and not isinstance(text, str):
            check.fail(f"{where}: introduce needs replacement claim text")
            continue
        reason = m.get("reason", "")
        label = m.get("label")
        if not isinstance(reason, str) or (label is not None
                                           and not isinstance(label, str)):
            check.fail(f"{where}: reason and label must be strings")
            continue
        moves.append(BoundedMove(after_step=after_step, node=node, action=action,
                                 claim=claim, text=text, reason=reason,
                                 label=label))

    return EpochConfig(epoch_limit=epoch_limit, plans=plans), limits, tuple(moves)


def parse_scenario(data: Any, *, path: Path | None = None) -> Scenario:
    check = _Check()
    if not isinstance(data, dict):
        raise ValidationError(["scenario must be a JSON object"])

    goal = data.get("goal")
    if not isinstance(goal, str) or not goal.strip():
        check.fail("goal must be a non-empty string")
        goal = ""

    kind_raw = data.get("domain", "graded")
    try:
        kind = asmt.DomainKind(kind_raw)
    except ValueError:
        check.fail(f"domain must be one of "
                   f"{[k.value for k in asmt.DomainKind]}, got {kind_raw!r}")
        kind = asmt.DomainKind.GRADED

    graph, node_declaration = _parse_graph(data.get("graph"), check)
    claims = _parse_claims(data.get("claims", []), graph, kind, check)
    queries = _parse_queries(data.get("queries"), graph, check)

    caps_raw = data.get("caps", {})
    if not isinstance(caps_raw, dict):
        check.fail("caps must be an object")
        caps_raw = {}
    default_cap = caps_raw.get("default", ClaimCaps().default)
    if not isinstance(default_cap, int) or default_cap < 1:
        check.fail("caps.default must be a positive integer")
        default_cap = ClaimCaps().default
    per_node_raw = caps_raw.get("per_node", {})
    if not isinstance(per_node_raw, dict):
        check.fail("caps.per_node must be an object")
        per_node_raw = {}
    per_node_caps = {}
    for node, value in per_node_raw.items():
        if node not in graph.all_nodes:
            check.fail(f"caps.per_node: unknown node {node!r}")
            continue
        if not isinstance(value, int) or value < 1:
            check.fail(f"caps.per_node[{node!r}] must be a positive integer")
            continue
        per_node_caps[node] = value
    caps = ClaimCaps(default=default_cap, per_node=per_node_caps)
    seeded_count: dict[str, int] = {}
    for claim in claims:
        seeded_count[claim.node] = seeded_count.get(claim.node, 0) + 1
    for node, count in sorted(seeded_count.items()):
        if count > caps.cap_for(node):
            check.fail(f"node {node!r} seeds {count} claims but its cap is "
                       f"{caps.cap_for(node)}")

    policy_raw = data.get("policy", {})
    if not isinstance(policy_raw, dict):
        check.fail("policy must be an object")
        policy_raw = {}
    policy_kind = policy_raw.get("kind", "fifo")
    steps = policy_raw.get("steps")
    goal_node = policy_raw.get("goal_node")
    policy: OrderPolicy | None = None
    if policy_kind not in POLICY_NAMES:
        check.fail(f"policy.kind must be one of {list(POLICY_NAMES)}")
    else:
        if steps is not None:
            if (not isinstance(steps, list)
                    or any(not isinstance(s, str) for s in steps)):
                check.fail("policy.steps must be a list of node ids")
                steps = None
            else:
                for s in steps:
                    if s not in graph.all_nodes:
                        check.fail(f"policy.steps names unknown node {s!r}")
        if goal_node is not None and (not isinstance(goal_node, str)
                                      or goal_node not in graph.all_nodes):
            check.fail(f"policy.goal_node {goal_node!r} is not in the graph")
        try:
            policy = parse_policy(policy_kind, steps=steps, goal_node=goal_node)
        except ValueError as exc:
            check.fail(f"policy: {exc}")
    if policy is None:
        policy = parse_policy("fifo")

    budget_raw = data.get("budget", {})
    if not isinstance(budget_raw, dict):
        check.fail("budget must be an object")
        budget_raw = {}
    hard_step_cap = budget_raw.get("hard_step_cap")
    if hard_step_cap is not None and (not isinstance(hard_step_cap, int)
                                      or hard_step_cap < 1):
        check.fail("budget.hard_step_cap must be a positive integer")
        hard_step_cap = None

    agent_raw = data.get("agent", {})
    if not isinstance(agent_raw, dict):
        check.fail("agent must be an object")
        agent_raw = {}
    backend = agent_raw.get("backend", "scripted")
    entries: tuple[ScriptEntry, ...] = ()
    if backend == "scripted":
        entries = _parse_script(agent_raw.get("script", []), graph, kind,
                                claims, queries, check)
    elif backend == "remote":
        pass  # endpoint may come from the environment at run time
    else:
        check.fail("agent.backend must be scripted or remote")
        backend = "scripted"
    endpoint = agent_raw.get("endpoint")
    if endpoint is not None and not isinstance(endpoint, str):
        check.fail("agent.endpoint must be a string")
        endpoint = None
    timeout = agent_raw.get("timeout", 120.0)
    if not isinstance(timeout, (int, float)) or timeout <= 0:
        check.fail("agent.timeout must be a positive number")
        timeout = 120.0
    retries = agent_raw.get("retries", 1)
    if not isinstance(retries, int) or retries < 0:
        check.fail("agent.retries must be a non-negative integer")
        retries = 1
    agent = AgentConfig(backend=backend, entries=entries, endpoint=endpoint,
                        timeout=float(timeout), retries=retries)

    epochs, limits, bounded_moves = _parse_revision(data.get("revision"),
                                                    graph, check)

    context_raw = data.get("context", {})
    if not isinstance(context_raw, dict):
        check.fail("context must be an object")
        context_raw = {}
    excerpt_cap = context_raw.get("excerpt_cap", DEFAULT_EXCERPT_CAP)
    if not isinstance(excerpt_cap, int) or excerpt_cap < 0:
        check.fail("context.excerpt_cap must be a non-negative integer")
        excerpt_cap = DEFAULT_EXCERPT_CAP

    goal_claim = data.get("goal_claim")
    if goal_claim is not None:
        if not isinstance(goal_claim, str) \
                or goal_claim not in {c.label for c in claims}:
            check.fail(f"goal_claim {goal_claim!r} does not name a seeded claim")
            goal_claim = None

    # Seed order: nodes in order of first seeded claim, then nodes that only
    # generate, then everything else in declaration order.
    declared: list[str] = []
    for claim in claims:
        if claim.node not in declared:
            declared.append(claim.node)
    for node in node_declaration:
        spec = queries.get(node)
        if spec is not None and spec.gen and node not in declared:
            declared.append(node)
    for node in node_declaration:
        if node not in declared:
            declared.append(node)

    if check.diagnostics:
        raise ValidationError(check.diagnostics)

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
