"""Agent backends: where claim judgments come from.

Two backends ship. The scripted backend replays canned answers keyed by
(node, claim or query id, visit index) and is what golden traces and property
tests run on. The remote backend POSTs rendered prompts to an HTTP endpoint
and strictly validates what comes back; a malformed reply never touches run
state.

In the stratified domain both backends derive the assessment from the
reported evidence records; an agent-claimed stratified verdict is checked
against that derivation and replaced by it when they disagree.
"""

from __future__ import annotations

import http.client
import json
import logging
import os
import urllib.request
from dataclasses import dataclass, field
from typing import Callable, Mapping, Protocol, Sequence, Union

from . import assessment as asmt
from .errors import AgentTransportError, MalformedResponse, NoScriptEntry
from .queries import EvalQuery, GenQuery, PromptContext, render_prompt
from .state import Claim, EvidenceSeed, Polarity, SourceKind

log = logging.getLogger(__name__)

__all__ = [
    "AgentEvalResult",
    "AgentGenResult",
    "AgentBackend",
    "ScriptEntry",
    "EvalScript",
    "GenScript",
    "ScriptedAgent",
    "RemoteAgent",
    "WILDCARD_VISIT",
    "decode_remote",
    "derive_stratified",
    "check_result_consistency",
    "ENDPOINT_ENV",
    "TOKEN_ENV",
]

ENDPOINT_ENV = "AGENT_ENDPOINT"
TOKEN_ENV = "AGENT_TOKEN"
DEFAULT_TIMEOUT = 120.0
DEFAULT_RETRIES = 1

WILDCARD_VISIT = None  # script entries with visit=None match any visit index


@dataclass(frozen=True)
class AgentEvalResult:
    assessment: asmt.Assessment
    evidence: tuple[EvidenceSeed, ...] = ()
    rationale: str = ""
    action_label: str | None = None


@dataclass(frozen=True)
class AgentGenResult:
    claims: tuple[str, ...] = ()
    rationale: str = ""
    action_label: str | None = None


class AgentBackend(Protocol):
    def begin_node_visit(self, node: str) -> int: ...

    def evaluate_claim(self, ctx: PromptContext, query: EvalQuery,
                       claim: Claim) -> AgentEvalResult: ...

    def generate_claims(self, ctx: PromptContext,
                        query: GenQuery) -> AgentGenResult: ...


def derive_stratified(seeds: Sequence[EvidenceSeed]) -> asmt.StratifiedValue:
    """Stratified verdict implied by a batch of evidence seeds."""
    support = asmt.summarize_polarity(
        (s.strength, s.basis) for s in seeds if s.polarity is Polarity.SUPPORT)
    refute = asmt.summarize_polarity(
        (s.strength, s.basis) for s in seeds if s.polarity is Polarity.REFUTE)
    return asmt.StratifiedValue(support, refute)


def check_result_consistency(
    assessment: asmt.Assessment,
    seeds: Sequence[EvidenceSeed],
) -> str | None:
    """For graded and four-valued runs: when evidence was reported, each
    assessment coordinate must equal what that polarity's records add up to.
    Returns a human-readable complaint, or None when consistent."""
    if not seeds or isinstance(assessment, asmt.StratifiedValue):
        return None
    strongest = {Polarity.SUPPORT: asmt.Strength.BOT,
                 Polarity.REFUTE: asmt.Strength.BOT}
    for seed in seeds:
        if seed.strength > strongest[seed.polarity]:
            strongest[seed.polarity] = seed.strength
    if isinstance(assessment, asmt.GradedValue):
        expected = asmt.GradedValue(strongest[Polarity.SUPPORT],
                                    strongest[Polarity.REFUTE])
    else:
        expected = asmt.FourValue(
            strongest[Polarity.SUPPORT] is not asmt.Strength.BOT,
            strongest[Polarity.REFUTE] is not asmt.Strength.BOT)
    if assessment != expected:
        return (f"assessment {asmt.pretty(assessment)} disagrees with reported "
                f"evidence, which adds up to {asmt.pretty(expected)}")
    return None


# --- scripted backend --------------------------------------------------------

@dataclass(frozen=True)
class EvalScript:
    assessment: asmt.Assessment | None  # None for stratified: derived from seeds
    evidence: tuple[EvidenceSeed, ...] = ()
    rationale: str = ""
    action: str | None = None


@dataclass(frozen=True)
class GenScript:
    claims: tuple[str, ...] = ()
    action: str | None = None


@dataclass(frozen=True)
class ScriptEntry:
    """One canned answer: matches a node, a claim key or gen query id, and
    either a specific visit index or any visit (visit=None)."""

    node: str
    key: str
    visit: int | None
    result: Union[EvalScript, GenScript]


class ScriptedAgent:
    """Deterministic playback backend.

    Answers are a pure function of (node, key, visit index); the visit index
    ticks once per node processing via begin_node_visit and keeps counting
    across epochs. Exact-visit entries win over wildcard entries; a call with
    no entry at all is a scenario bug and raises.
    """

    def __init__(self, entries: Sequence[ScriptEntry]):
        self._exact: dict[tuple[str, str, int], ScriptEntry] = {}
        self._any: dict[tuple[str, str], ScriptEntry] = {}
        for entry in entries:
            if entry.visit is WILDCARD_VISIT:
                slot = (entry.node, entry.key)
                if slot in self._any:
                    raise ValueError(f"duplicate wildcard script entry for {slot}")
                self._any[slot] = entry
            else:
                slot3 = (entry.node, entry.key, entry.visit)
                if slot3 in self._exact:
                    raise ValueError(f"duplicate script entry for {slot3}")
                self._exact[slot3] = entry
        self._next_visit: dict[str, int] = {}
        self._active_visit: dict[str, int] = {}

    def begin_node_visit(self, node: str) -> int:
        visit = self._next_visit.get(node, 0)
        self._next_visit[node] = visit + 1
        self._active_visit[node] = visit
        return visit

    def _lookup(self, node: str, key: str) -> ScriptEntry:
        visit = self._active_visit.get(node, 0)
        entry = self._exact.get((node, key, visit))
        if entry is None:
            entry = self._any.get((node, key))
        if entry is None:
            raise NoScriptEntry(
                f"no script entry for node={node!r} key={key!r} visit={visit}")
        return entry

    def evaluate_claim(self, ctx: PromptContext, query: EvalQuery,
                       claim: Claim) -> AgentEvalResult:
        entry = self._lookup(ctx.node, claim.key)
        script = entry.result
        if not isinstance(script, EvalScript):
            raise NoScriptEntry(
                f"script entry for {ctx.node!r}/{claim.key!r} is not an eval answer")
        if ctx.kind is asmt.DomainKind.STRATIFIED:
            assessment: asmt.Assessment = derive_stratified(script.evidence)
        else:
            if script.assessment is None:
                raise NoScriptEntry(
                    f"script entry for {ctx.node!r}/{claim.key!r} carries no assessment")
            assessment = script.assessment
        return AgentEvalResult(
            assessment=assessment,
            evidence=script.evidence,
            rationale=script.rationale,
            action_label=script.action,
        )

    def generate_claims(self, ctx: PromptContext, query: GenQuery) -> AgentGenResult:
        entry = self._lookup(ctx.node, query.id)
        script = entry.result
        if not isinstance(script, GenScript):
            raise NoScriptEntry(
                f"script entry for {ctx.node!r}/{query.id!r} is not a gen answer")
        claims = script.claims
        if len(claims) > query.max_claims:
            log.warning("gen script for %s/%s returned %d claims, cap is %d; truncating",
                        ctx.node, query.id, len(claims), query.max_claims)
            claims = claims[:query.max_claims]
        return AgentGenResult(claims=claims, action_label=script.action)


# --- remote backend ----------------------------------------------------------

def _decode_seed(payload, where: str) -> EvidenceSeed:
    if not isinstance(payload, dict):
        raise MalformedResponse("evidence record must be an object", field=where)

    def pick(name: str, decode: Callable):
        if name not in payload:
            raise MalformedResponse("missing evidence field", field=f"{where}.{name}")
        try:
            return decode(payload[name])
        except (ValueError, KeyError, TypeError) as exc:
            raise MalformedResponse(str(exc), field=f"{where}.{name}") from None

    excerpt = pick("excerpt", str)
    ref = payload.get("ref")
    if ref is not None and not isinstance(ref, str):
        raise MalformedResponse("ref must be a string", field=f"{where}.ref")
    return EvidenceSeed(
        polarity=pick("polarity", Polarity),
        strength=pick("strength", asmt.Strength.from_token),
        basis=pick("basis", asmt.ConfidenceBasis.from_token),
        source_kind=pick("source_kind", SourceKind),
        excerpt=excerpt,
        ref=ref,
    )


def decode_remote(body: bytes | str, kind: asmt.DomainKind
                  ) -> Union[AgentEvalResult, AgentGenResult]:
    """Strictly decode a remote reply.

    A reply is a gen result when it has a ``claims`` array and an eval result
    when it has ``assessment`` and/or ``evidence``; carrying both shapes, or
    neither, is malformed. Stratified assessments are never taken at face
    value: the verdict is recomputed from the evidence and a disagreeing
    claimed value is logged and replaced.
    """
    try:
        data = json.loads(body)
    except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
        raise MalformedResponse(f"reply is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise MalformedResponse("reply must be a JSON object")

    rationale = data.get("rationale", "")
    if not isinstance(rationale, str):
        raise MalformedResponse("rationale must be a string", field="rationale")

    has_claims = "claims" in data
    has_eval = "assessment" in data or "evidence" in data
    if has_claims and has_eval:
        raise MalformedResponse("reply mixes gen and eval shapes")
    if has_claims:
        claims = data["claims"]
        if (not isinstance(claims, list)
                or any(not isinstance(c, str) for c in claims)):
            raise MalformedResponse("claims must be an array of strings",
                                    field="claims")
        return AgentGenResult(claims=tuple(claims), rationale=rationale)
    if not has_eval:
        raise MalformedResponse("reply carries neither claims nor an assessment")

    raw_evidence = data.get("evidence", [])
    if not isinstance(raw_evidence, list):
        raise MalformedResponse("evidence must be an array", field="evidence")
    seeds = tuple(_decode_seed(item, f"evidence[{i}]")
                  for i, item in enumerate(raw_evidence))

    if kind is asmt.DomainKind.STRATIFIED:
        derived = derive_stratified(seeds)
        if "assessment" in data:
            try:
                claimed = asmt.from_json(kind, data["assessment"])
            except ValueError as exc:
                raise MalformedResponse(str(exc), field="assessment") from None
            if claimed != derived:
                log.warning("stratified reply claimed %s but its evidence derives %s; "
                            "using the derivation", asmt.pretty(claimed),
                            asmt.pretty(derived))
        return AgentEvalResult(assessment=derived, evidence=seeds,
                               rationale=rationale)

    if "assessment" not in data:
        raise MalformedResponse("eval reply needs an assessment", field="assessment")
    try:
        assessment = asmt.from_json(kind, data["assessment"])
    except ValueError as exc:
        raise MalformedResponse(str(exc), field="assessment") from None
    complaint = check_result_consistency(assessment, seeds)
    if complaint is not None:
        raise MalformedResponse(complaint, field="assessment")
    return AgentEvalResult(assessment=assessment, evidence=seeds,
                           rationale=rationale)


def _serialize_context(ctx: PromptContext) -> dict:
    return {
        "code": [{"node": n, "text": t} for n, t in ctx.code],
        "pred_states": [
            {
                "node": p.node,
                "claim": p.key,
                "label": p.label,
                "assessment": asmt.to_json(p.assessment),
                "excerpts": list(p.excerpts),
            }
            for p in ctx.pred_states
        ],
    }


# Opens http(s) URLs only and hands back every reply as it came, without
# following redirects: urlopen would also read file:, ftp: and data: URLs.
_OPENER = urllib.request.OpenerDirector()
for _handler in (urllib.request.ProxyHandler(), urllib.request.UnknownHandler(),
                 urllib.request.HTTPHandler(), urllib.request.HTTPSHandler()):
    _OPENER.add_handler(_handler)


class RemoteAgent:
    """HTTP JSON backend.

    Endpoint and bearer token come from the constructor or from the
    AGENT_ENDPOINT / AGENT_TOKEN environment variables. Network-level
    failures raise AgentTransportError; anything the server actually said
    that fails validation raises MalformedResponse, including timeouts and
    any status but 200, redirects too, so the engine's no-op-and-retry path
    handles it.
    """

    def __init__(
        self,
        kind: asmt.DomainKind,
        endpoint: str | None = None,
        token: str | None = None,
        timeout: float = DEFAULT_TIMEOUT,
        audit_sink: list | None = None,
    ):
        self.kind = kind
        self.endpoint = endpoint or os.environ.get(ENDPOINT_ENV)
        if not self.endpoint:
            raise AgentTransportError(
                f"no remote endpoint configured and {ENDPOINT_ENV} is unset")
        self.token = token if token is not None else os.environ.get(TOKEN_ENV)
        self.timeout = timeout
        self.audit_sink = audit_sink
        self._next_visit: dict[str, int] = {}

    def begin_node_visit(self, node: str) -> int:
        visit = self._next_visit.get(node, 0)
        self._next_visit[node] = visit + 1
        return visit

    def _post(self, payload: dict) -> bytes:
        headers = {"Content-Type": "application/json"}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        try:
            request = urllib.request.Request(
                self.endpoint, data=json.dumps(payload).encode("utf-8"),
                headers=headers, method="POST")
            with _OPENER.open(request, timeout=self.timeout) as response:
                status, body = response.status, response.read()
        except (OSError, http.client.HTTPException, ValueError,
                OverflowError) as exc:
            # A timeout surfaces bare or wrapped in URLError, depending on
            # whether it hit while connecting or while awaiting the reply.
            # A timeout too large for the platform's clock overflows.
            if isinstance(getattr(exc, "reason", exc), TimeoutError):
                raise MalformedResponse(
                    f"remote agent timed out after {self.timeout}s") from None
            raise AgentTransportError(
                f"cannot reach remote agent at {self.endpoint}: {exc}") from None
        if self.audit_sink is not None:
            self.audit_sink.append({
                "request": payload,
                "status": status,
                "response": body.decode("utf-8", errors="replace"),
            })
        if status != 200:
            raise MalformedResponse(f"remote agent answered HTTP {status}")
        return body

    def evaluate_claim(self, ctx: PromptContext, query: EvalQuery,
                       claim: Claim) -> AgentEvalResult:
        payload = {
            "kind": "eval",
            "node": ctx.node,
            "goal": ctx.goal,
            "claim": claim.text,
            "query": render_prompt(query, ctx, claim),
            **_serialize_context(ctx),
        }
        body = self._post(payload)
        result = decode_remote(body, self.kind)
        if not isinstance(result, AgentEvalResult):
            raise MalformedResponse("expected an eval reply, got a gen reply")
        return result

    def generate_claims(self, ctx: PromptContext, query: GenQuery) -> AgentGenResult:
        payload = {
            "kind": "gen",
            "node": ctx.node,
            "goal": ctx.goal,
            "query": render_prompt(query, ctx),
            **_serialize_context(ctx),
        }
        body = self._post(payload)
        result = decode_remote(body, self.kind)
        if not isinstance(result, AgentGenResult):
            raise MalformedResponse("expected a gen reply, got an eval reply")
        if len(result.claims) > query.max_claims:
            log.warning("remote gen returned %d claims, cap is %d; truncating",
                        len(result.claims), query.max_claims)
            result = AgentGenResult(claims=result.claims[:query.max_claims],
                                    rationale=result.rationale)
        return result
