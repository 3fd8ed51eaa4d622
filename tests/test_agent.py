"""Scripted and remote agent backends."""

import json
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from claimlattice import assessment as asmt
from claimlattice.agent import (
    AgentEvalResult,
    AgentGenResult,
    EvalScript,
    GenScript,
    RemoteAgent,
    ScriptEntry,
    ScriptedAgent,
    check_result_consistency,
    decode_remote,
    derive_stratified,
)
from claimlattice.errors import AgentTransportError, MalformedResponse, NoScriptEntry
from claimlattice.queries import EvalQuery, GenQuery, PromptContext
from claimlattice.state import EvidenceSeed, Polarity, SourceKind

from conftest import seeded_claim

W = asmt.Strength.WEAK
S = asmt.Strength.STRONG
BOT = asmt.Strength.BOT


def ctx_for(node="m", kind=asmt.DomainKind.GRADED):
    return PromptContext(node=node, kind=kind, goal="the goal",
                         code=((node, "// code"),))


def seed(polarity=Polarity.SUPPORT, strength=W,
         basis=asmt.ConfidenceBasis.LOCATED, excerpt="saw it", ref=None):
    return EvidenceSeed(polarity=polarity, strength=strength, basis=basis,
                        source_kind=SourceKind.DOC, excerpt=excerpt, ref=ref)


@pytest.fixture(autouse=True)
def no_requests(monkeypatch):
    """The runtime has no third-party dependency: importing requests fails."""
    monkeypatch.setitem(sys.modules, "requests", None)


# --- scripted backend ----------------------------------------------------

def test_scripted_visit_index_advances():
    claim = seeded_claim("m", "the claim")
    agent = ScriptedAgent([
        ScriptEntry("m", claim.key, 0, EvalScript(asmt.GradedValue(W, BOT))),
        ScriptEntry("m", claim.key, 1, EvalScript(asmt.GradedValue(S, BOT))),
    ])
    query = EvalQuery(id="q")
    assert agent.begin_node_visit("m") == 0
    first = agent.evaluate_claim(ctx_for(), query, claim)
    assert first.assessment == asmt.GradedValue(W, BOT)
    assert agent.begin_node_visit("m") == 1
    second = agent.evaluate_claim(ctx_for(), query, claim)
    assert second.assessment == asmt.GradedValue(S, BOT)


def test_scripted_exact_beats_wildcard():
    claim = seeded_claim("m", "the claim")
    agent = ScriptedAgent([
        ScriptEntry("m", claim.key, None, EvalScript(asmt.GradedValue(W, BOT))),
        ScriptEntry("m", claim.key, 1, EvalScript(asmt.GradedValue(S, S))),
    ])
    query = EvalQuery(id="q")
    agent.begin_node_visit("m")
    assert agent.evaluate_claim(ctx_for(), query, claim).assessment \
        == asmt.GradedValue(W, BOT)
    agent.begin_node_visit("m")
    assert agent.evaluate_claim(ctx_for(), query, claim).assessment \
        == asmt.GradedValue(S, S)
    agent.begin_node_visit("m")
    assert agent.evaluate_claim(ctx_for(), query, claim).assessment \
        == asmt.GradedValue(W, BOT)


def test_scripted_missing_entry_raises():
    agent = ScriptedAgent([])
    claim = seeded_claim("m", "the claim")
    agent.begin_node_visit("m")
    with pytest.raises(NoScriptEntry):
        agent.evaluate_claim(ctx_for(), EvalQuery(id="q"), claim)


def test_scripted_duplicate_entries_rejected():
    claim = seeded_claim("m", "the claim")
    entry = ScriptEntry("m", claim.key, 0, EvalScript(asmt.GradedValue(W, BOT)))
    with pytest.raises(ValueError):
        ScriptedAgent([entry, entry])
    wild = ScriptEntry("m", claim.key, None, EvalScript(asmt.GradedValue(W, BOT)))
    with pytest.raises(ValueError):
        ScriptedAgent([wild, wild])


def test_scripted_stratified_derives_from_evidence():
    claim = seeded_claim("m", "the claim")
    seeds = (seed(strength=S, basis=asmt.ConfidenceBasis.MODEL),
             seed(strength=W, basis=asmt.ConfidenceBasis.CHECKED))
    agent = ScriptedAgent([
        ScriptEntry("m", claim.key, None, EvalScript(None, evidence=seeds)),
    ])
    agent.begin_node_visit("m")
    result = agent.evaluate_claim(
        ctx_for(kind=asmt.DomainKind.STRATIFIED), EvalQuery(id="q"), claim)
    assert result.assessment == derive_stratified(seeds)
    support = result.assessment.support
    assert support.level(asmt.ConfidenceBasis.MODEL) is S
    assert support.level(asmt.ConfidenceBasis.CHECKED) is W


def test_scripted_graded_entry_without_assessment_raises():
    claim = seeded_claim("m", "the claim")
    agent = ScriptedAgent([
        ScriptEntry("m", claim.key, None, EvalScript(None, evidence=(seed(),))),
    ])
    agent.begin_node_visit("m")
    with pytest.raises(NoScriptEntry):
        agent.evaluate_claim(ctx_for(), EvalQuery(id="q"), claim)


def test_scripted_gen_and_truncation(caplog):
    gen = GenQuery(id="gen@m", template="propose", max_claims=2)
    agent = ScriptedAgent([
        ScriptEntry("m", "gen@m", None, GenScript(claims=("a", "b", "c"))),
    ])
    agent.begin_node_visit("m")
    with caplog.at_level("WARNING"):
        result = agent.generate_claims(ctx_for(), gen)
    assert result.claims == ("a", "b")
    assert any("truncating" in r.message for r in caplog.records)


def test_scripted_shape_mismatch_raises():
    agent = ScriptedAgent([
        ScriptEntry("m", "gen@m", None, GenScript(claims=("a",))),
    ])
    claim = seeded_claim("m", "gen@m")  # same key as the gen id
    agent.begin_node_visit("m")
    with pytest.raises(NoScriptEntry):
        agent.evaluate_claim(ctx_for(), EvalQuery(id="q"), claim)


# --- consistency and stratified derivation --------------------------------

def test_check_result_consistency_accepts_matching():
    seeds = [seed(strength=W), seed(polarity=Polarity.REFUTE, strength=S)]
    assert check_result_consistency(asmt.GradedValue(W, S), seeds) is None


def test_check_result_consistency_complains_on_mismatch():
    seeds = [seed(strength=W)]
    complaint = check_result_consistency(asmt.GradedValue(S, BOT), seeds)
    assert complaint is not None
    assert "disagrees" in complaint


def test_check_result_consistency_skips_without_evidence():
    assert check_result_consistency(asmt.GradedValue(S, S), []) is None


def test_check_result_consistency_four_domain():
    seeds = [seed(strength=S)]
    assert check_result_consistency(asmt.FourValue(True, False), seeds) is None
    complaint = check_result_consistency(asmt.FourValue(False, True), seeds)
    assert complaint is not None


def test_derive_stratified_empty_is_bottom():
    derived = derive_stratified(())
    assert derived == asmt.bottom(asmt.DomainKind.STRATIFIED)


# --- remote reply decoding -------------------------------------------------

def test_decode_eval_reply_graded():
    body = json.dumps({
        "assessment": ["w", "s"],
        "evidence": [
            {"polarity": "support", "strength": "w", "basis": "located",
             "source_kind": "doc", "excerpt": "spotted"},
            {"polarity": "refute", "strength": "s", "basis": "checked",
             "source_kind": "tool_output", "excerpt": "failed test"},
        ],
        "rationale": "both directions",
    })
    result = decode_remote(body, asmt.DomainKind.GRADED)
    assert isinstance(result, AgentEvalResult)
    assert result.assessment == asmt.GradedValue(W, S)
    assert len(result.evidence) == 2
    assert result.evidence[0].ref is None
    assert result.rationale == "both directions"


def test_decode_gen_reply():
    result = decode_remote(json.dumps({"claims": ["x holds", "y holds"]}),
                           asmt.DomainKind.GRADED)
    assert isinstance(result, AgentGenResult)
    assert result.claims == ("x holds", "y holds")


def test_decode_rejects_mixed_shape():
    with pytest.raises(MalformedResponse):
        decode_remote(json.dumps({"claims": [], "assessment": ["w", "w"]}),
                      asmt.DomainKind.GRADED)


def test_decode_rejects_empty_shape():
    with pytest.raises(MalformedResponse):
        decode_remote(json.dumps({"rationale": "nothing else"}),
                      asmt.DomainKind.GRADED)


def test_decode_rejects_bad_json():
    with pytest.raises(MalformedResponse):
        decode_remote(b"{not json", asmt.DomainKind.GRADED)
    with pytest.raises(MalformedResponse):
        decode_remote(b"[1, 2]", asmt.DomainKind.GRADED)
    with pytest.raises(MalformedResponse):  # not UTF-8
        decode_remote(b'{"rationale": "\xff"}', asmt.DomainKind.GRADED)


def test_decode_bad_strength_names_field():
    body = json.dumps({
        "assessment": ["w", "bot"],
        "evidence": [{"polarity": "support", "strength": "medium",
                      "basis": "located", "source_kind": "doc", "excerpt": "x"}],
    })
    with pytest.raises(MalformedResponse) as exc:
        decode_remote(body, asmt.DomainKind.GRADED)
    assert exc.value.field == "evidence[0].strength"


def test_decode_missing_evidence_field_named():
    body = json.dumps({
        "assessment": ["w", "bot"],
        "evidence": [{"polarity": "support", "strength": "w",
                      "basis": "located", "source_kind": "doc"}],
    })
    with pytest.raises(MalformedResponse) as exc:
        decode_remote(body, asmt.DomainKind.GRADED)
    assert exc.value.field == "evidence[0].excerpt"


def test_decode_bad_assessment_payload():
    with pytest.raises(MalformedResponse) as exc:
        decode_remote(json.dumps({"assessment": ["w"]}), asmt.DomainKind.GRADED)
    assert exc.value.field == "assessment"


def test_decode_inconsistent_graded_reply_rejected():
    body = json.dumps({
        "assessment": ["s", "bot"],
        "evidence": [{"polarity": "support", "strength": "w",
                      "basis": "located", "source_kind": "doc", "excerpt": "x"}],
    })
    with pytest.raises(MalformedResponse):
        decode_remote(body, asmt.DomainKind.GRADED)


def test_decode_stratified_derives_and_overrides(caplog):
    seeds = [{"polarity": "support", "strength": "s", "basis": "model",
              "source_kind": "model_judgment", "excerpt": "recalled"}]
    claimed = asmt.to_json(asmt.StratifiedValue(
        asmt.StratifiedPolarity.constant(S),
        asmt.StratifiedPolarity.constant(BOT)))
    with caplog.at_level("WARNING"):
        result = decode_remote(
            json.dumps({"assessment": claimed, "evidence": seeds}),
            asmt.DomainKind.STRATIFIED)
    derived = derive_stratified([seed(strength=S, basis=asmt.ConfidenceBasis.MODEL,
                                      polarity=Polarity.SUPPORT)])
    assert result.assessment == derived
    assert any("derives" in r.message for r in caplog.records)


def test_decode_stratified_without_assessment_ok():
    seeds = [{"polarity": "refute", "strength": "w", "basis": "checked",
              "source_kind": "code_observation", "excerpt": "branch missing"}]
    result = decode_remote(json.dumps({"evidence": seeds}),
                           asmt.DomainKind.STRATIFIED)
    assert result.assessment.refute.level(asmt.ConfidenceBasis.CHECKED) is W


# --- remote backend over live HTTP ----------------------------------------

class _Handler(BaseHTTPRequestHandler):
    reply: dict = {}
    status = 200
    delay = 0.0
    body_delay = 0.0
    headers_out: dict = {}
    requests_seen: list = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(length))
        type(self).requests_seen.append(
            {"payload": payload, "auth": self.headers.get("Authorization")})
        if self.delay:
            time.sleep(self.delay)
        body = json.dumps(self.reply).encode()
        self.send_response(self.status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in self.headers_out.items():
            self.send_header(name, value)
        self.end_headers()
        if self.body_delay:
            self.wfile.flush()
            time.sleep(self.body_delay)
        self.wfile.write(body)

    def log_message(self, *args):  # keep pytest output clean
        pass


@pytest.fixture
def http_endpoint():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    _Handler.reply = {}
    _Handler.status = 200
    _Handler.delay = 0.0
    _Handler.body_delay = 0.0
    _Handler.headers_out = {}
    _Handler.requests_seen = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/agent"
    server.shutdown()


def test_remote_eval_round_trip(http_endpoint):
    _Handler.reply = {"assessment": ["bot", "s"], "evidence": [], "rationale": "r"}
    audit = []
    agent = RemoteAgent(asmt.DomainKind.GRADED, endpoint=http_endpoint,
                        token="sekrit", audit_sink=audit)
    claim = seeded_claim("m", "the remote claim")
    result = agent.evaluate_claim(ctx_for(), EvalQuery(id="q"), claim)
    assert result.assessment == asmt.GradedValue(BOT, S)
    sent = _Handler.requests_seen[0]
    assert sent["payload"]["kind"] == "eval"
    assert sent["payload"]["claim"] == "the remote claim"
    assert "the goal" in sent["payload"]["query"]
    assert sent["auth"] == "Bearer sekrit"
    assert audit and audit[0]["status"] == 200


def test_remote_gen_round_trip_truncates(http_endpoint):
    _Handler.reply = {"claims": ["one", "two", "three"]}
    agent = RemoteAgent(asmt.DomainKind.GRADED, endpoint=http_endpoint)
    gen = GenQuery(id="g", template="propose", max_claims=2)
    result = agent.generate_claims(ctx_for(), gen)
    assert result.claims == ("one", "two")
    assert _Handler.requests_seen[0]["payload"]["kind"] == "gen"


def test_remote_wrong_shape_rejected(http_endpoint):
    _Handler.reply = {"claims": ["oops"]}
    agent = RemoteAgent(asmt.DomainKind.GRADED, endpoint=http_endpoint)
    claim = seeded_claim("m", "the claim")
    with pytest.raises(MalformedResponse):
        agent.evaluate_claim(ctx_for(), EvalQuery(id="q"), claim)


def test_remote_http_error_is_malformed(http_endpoint):
    _Handler.reply = {"error": "overloaded"}
    _Handler.status = 503
    agent = RemoteAgent(asmt.DomainKind.GRADED, endpoint=http_endpoint)
    claim = seeded_claim("m", "the claim")
    with pytest.raises(MalformedResponse):
        agent.evaluate_claim(ctx_for(), EvalQuery(id="q"), claim)


def test_remote_timeout_is_malformed(http_endpoint):
    _Handler.reply = {"assessment": ["w", "bot"], "evidence": []}
    _Handler.delay = 1.0
    agent = RemoteAgent(asmt.DomainKind.GRADED, endpoint=http_endpoint,
                        timeout=0.2)
    claim = seeded_claim("m", "the claim")
    with pytest.raises(MalformedResponse):
        agent.evaluate_claim(ctx_for(), EvalQuery(id="q"), claim)


def _closed_port() -> int:
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def test_remote_error_reply_stalling_mid_body_is_malformed(http_endpoint):
    _Handler.reply = {"error": "overloaded"}
    _Handler.status = 500
    _Handler.body_delay = 1.0
    audit = []
    agent = RemoteAgent(asmt.DomainKind.GRADED, endpoint=http_endpoint,
                        timeout=0.2, audit_sink=audit)
    claim = seeded_claim("m", "the claim")
    with pytest.raises(MalformedResponse, match="timed out"):
        agent.evaluate_claim(ctx_for(), EvalQuery(id="q"), claim)
    assert audit == []


def test_remote_redirect_is_audited_not_followed(http_endpoint):
    _Handler.reply = {"moved": True}
    _Handler.status = 302
    _Handler.headers_out = {"Location": f"ftp://127.0.0.1:{_closed_port()}/x"}
    audit = []
    agent = RemoteAgent(asmt.DomainKind.GRADED, endpoint=http_endpoint,
                        audit_sink=audit)
    claim = seeded_claim("m", "the claim")
    with pytest.raises(MalformedResponse, match="HTTP 302"):
        agent.evaluate_claim(ctx_for(), EvalQuery(id="q"), claim)
    assert [(r["status"], r["response"]) for r in audit] == [
        (302, '{"moved": true}')]


@pytest.mark.parametrize("scheme", ["file", "ftp", "data"])
def test_remote_non_http_endpoint_is_transport_error(tmp_path, scheme):
    secret = tmp_path / "secret.txt"
    secret.write_text("not for the audit log")
    endpoint = {"file": secret.as_uri(),
                "ftp": f"ftp://127.0.0.1:{_closed_port()}/secret.txt",
                "data": "data:,not%20for%20the%20audit%20log"}[scheme]
    audit = []
    agent = RemoteAgent(asmt.DomainKind.GRADED, endpoint=endpoint,
                        audit_sink=audit)
    claim = seeded_claim("m", "the claim")
    with pytest.raises(AgentTransportError, match="unknown url type"):
        agent.evaluate_claim(ctx_for(), EvalQuery(id="q"), claim)
    assert audit == []


def test_remote_connection_refused_is_transport_error():
    agent = RemoteAgent(asmt.DomainKind.GRADED,
                        endpoint=f"http://127.0.0.1:{_closed_port()}/agent")
    claim = seeded_claim("m", "the claim")
    with pytest.raises(AgentTransportError):
        agent.evaluate_claim(ctx_for(), EvalQuery(id="q"), claim)


def test_remote_endpoint_from_env(monkeypatch, http_endpoint):
    monkeypatch.setenv("AGENT_ENDPOINT", http_endpoint)
    _Handler.reply = {"assessment": ["w", "bot"], "evidence": []}
    agent = RemoteAgent(asmt.DomainKind.GRADED)
    claim = seeded_claim("m", "the claim")
    result = agent.evaluate_claim(ctx_for(), EvalQuery(id="q"), claim)
    assert result.assessment == asmt.GradedValue(W, BOT)


def test_remote_requires_some_endpoint(monkeypatch):
    monkeypatch.delenv("AGENT_ENDPOINT", raising=False)
    with pytest.raises(AgentTransportError):
        RemoteAgent(asmt.DomainKind.GRADED)


# --- fuzzing: no reply escapes the malformed-reply path --------------------

_TOKENS = {
    "polarity": ["support", "refute"],
    "strength": ["bot", "w", "s"],
    "basis": ["model", "located", "applicable", "corroborated", "checked"],
    "source_kind": ["doc", "code_observation"],
    "excerpt": ["seen"],
    "ref": ["r1"],
}
_ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.floats(allow_nan=False)
    | st.text(max_size=4) | st.sampled_from(["bot", "w", "s", "support"]),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
_EVIDENCE_RECORD = st.fixed_dictionaries({}, optional={
    name: st.sampled_from(tokens) | _ANY_JSON
    for name, tokens in _TOKENS.items()})
_REPLY = st.fixed_dictionaries({}, optional={
    "assessment": _ANY_JSON,
    "evidence": st.lists(_EVIDENCE_RECORD | _ANY_JSON, max_size=3) | _ANY_JSON,
    "claims": st.lists(st.text(max_size=4), max_size=2) | _ANY_JSON,
    "rationale": st.text(max_size=4) | _ANY_JSON,
})


@settings(max_examples=600, derandomize=True, deadline=None)
@given(body=_REPLY | _ANY_JSON, kind=st.sampled_from(list(asmt.DomainKind)))
@example(body={"assessment": [[], "s"]}, kind=asmt.DomainKind.GRADED)
@example(body={"evidence": [{"polarity": "support", "strength": "w",
                             "basis": None, "source_kind": "doc",
                             "excerpt": "seen"}]},
         kind=asmt.DomainKind.STRATIFIED)
def test_decode_any_json_returns_or_is_malformed(body, kind):
    try:
        result = decode_remote(json.dumps(body), kind)
    except MalformedResponse:
        return
    assert isinstance(result, (AgentEvalResult, AgentGenResult))
