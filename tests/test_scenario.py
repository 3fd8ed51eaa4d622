"""Scenario loading and batch validation."""

import copy
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from claimlattice import assessment as asmt
from claimlattice.agent import ScriptedAgent
from claimlattice.errors import AgentTransportError, ParseError, ValidationError
from claimlattice.scenario import (
    build_backend,
    build_initial_state,
    load_scenario,
    parse_scenario,
)

from conftest import GOLDEN, GOLDEN_REVISION


def base_data():
    return {
        "goal": "overall goal",
        "domain": "graded",
        "graph": {
            "program_nodes": ["m", "n"],
            "aux_nodes": ["aux"],
            "program_edges": [["m", "n"]],
            "context_edges": [["m", "n"], ["n", "aux"]],
            "feedback_edges": [["aux", "m"]],
            "sources": {"m": "// m", "n": "// n"},
            "neighborhood": {"aux": ["m"]},
        },
        "claims": [
            {"node": "m", "text": "Claim at m holds", "label": "cm"},
            {"node": "n", "text": "Claim at n holds", "label": "cn"},
        ],
        "agent": {"backend": "scripted", "script": [
            {"node": "m", "claim": "cm", "assessment": ["w", "bot"]},
            {"node": "n", "claim": "cn", "assessment": ["bot", "w"]},
        ]},
    }


def diags(data):
    with pytest.raises(ValidationError) as exc:
        parse_scenario(data)
    return exc.value.diagnostics


def assert_flagged(data, *fragments):
    found = diags(data)
    for fragment in fragments:
        assert any(fragment in d for d in found), (fragment, found)


# --- the shipped scenario files ----------------------------------------------

def test_load_review_scenario():
    scenario = load_scenario(GOLDEN)
    assert scenario.kind is asmt.DomainKind.GRADED
    assert scenario.policy.name == "scripted-order"
    assert len(scenario.policy.steps) == 12
    assert len(scenario.claims) == 7
    assert scenario.goal_claim == "c_G"
    assert scenario.declared_order == ("n_1", "n_2", "n_3", "n_4", "n_C",
                                       "n_5", "n_0")
    assert scenario.caps.default == 16
    state = build_initial_state(scenario)
    for node_state in state.nodes.values():
        for entry in node_state.entries.values():
            assert entry.assessment == asmt.bottom(scenario.kind)
    backend = build_backend(scenario)
    assert isinstance(backend, ScriptedAgent)


def test_load_revision_scenario():
    scenario = load_scenario(GOLDEN_REVISION)
    assert scenario.policy.name == "fifo"
    assert scenario.epochs.epoch_limit == 2
    plan = scenario.epochs.plans[1]
    assert len(plan.lowers) == 1
    assert plan.lowers[0].node == "n_1"


def test_parse_round_trip_of_base():
    scenario = parse_scenario(base_data())
    assert scenario.declared_order == ("m", "n", "aux")
    assert scenario.agent.entries[0].key == "claim at m holds"
    assert scenario.excerpt_cap == 8
    assert scenario.epochs.epoch_limit == 1
    assert not scenario.epochs.plans


# --- file level errors ---------------------------------------------------------

def test_missing_file_is_parse_error(tmp_path):
    with pytest.raises(ParseError):
        load_scenario(tmp_path / "absent.scenario")


def test_bad_json_is_parse_error(tmp_path):
    bad = tmp_path / "bad.scenario"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ParseError):
        load_scenario(bad)
    bad.write_bytes(b'{"goal": "\xff"}')  # not UTF-8
    with pytest.raises(ParseError):
        load_scenario(bad)


@pytest.mark.parametrize("text, key", [
    ('{"goal": "a", "goal": "b"}', "goal"),
    ('{"goal": "g", "graph": {"program_nodes": [], "program_nodes": ["m"]}}',
     "program_nodes"),
])
def test_repeated_key_is_parse_error(tmp_path, text, key):
    # json.loads alone keeps the last value and loads without a word.
    bad = tmp_path / "repeated.scenario"
    bad.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError, match=f"key '{key}' repeats"):
        load_scenario(bad)


def test_non_object_scenario_rejected():
    with pytest.raises(ValidationError):
        parse_scenario(["not", "an", "object"])


# --- batch reporting -------------------------------------------------------------

def test_all_problems_reported_at_once():
    data = base_data()
    del data["goal"]
    data["domain"] = "tetravalent"
    data["claims"].append({"node": "zz", "text": "dangling"})
    data["policy"] = {"kind": "random-walk"}
    data["goal_claim"] = "missing"
    found = diags(data)
    assert len(found) >= 5
    joined = "\n".join(found)
    assert "goal must be" in joined
    assert "domain must be" in joined
    assert "unknown node 'zz'" in joined
    assert "policy.kind" in joined
    assert "goal_claim" in joined


# --- graph and claims ------------------------------------------------------------

def test_parallel_edges_rejected():
    data = base_data()
    data["graph"]["context_edges"].append(["m", "n"])
    assert_flagged(data, "duplicates edge")


def test_graph_violations_surface():
    data = base_data()
    data["graph"]["aux_nodes"].append("m")  # breaks disjointness
    data["graph"]["context_edges"].append(["m", "ghost"])
    assert_flagged(data, "disjointness", "outside the graph")


def test_duplicate_claim_label_rejected():
    data = base_data()
    data["claims"].append({"node": "n", "text": "Another claim", "label": "cm"})
    assert_flagged(data, "label 'cm' is already in use")


@pytest.mark.parametrize("label, text", [
    ("g1@m", "Claim at m holds"),
    ("r2@n", "Claim at m holds"),
    (None, "G1@m"),  # the label defaults to the canonical key
])
def test_seeded_label_of_a_minted_form_rejected(label, text):
    data = base_data()
    data["claims"][0].update(label=label, text=text)
    assert_flagged(data, "claims[0]: label 'g1@m' has the form the engine "
                   "gives" if label is None else
                   f"claims[0]: label {label!r} has the form the engine gives")


@pytest.mark.parametrize("label", ["g1@ghost", "gx@m", "g1@", "q1@m"])
def test_label_like_a_minted_form_but_not_one_loads(label):
    data = base_data()
    data["claims"][0]["label"] = label
    assert parse_scenario(data).claims[0].label == label


@pytest.mark.parametrize("label, problem", [
    ("cm", "is already in use"),
    ("first", "is already in use"),
    ("r1@n", "has the form the engine gives"),
])
def test_introduce_label_must_be_new(label, problem):
    data = base_data()
    data["revision"] = {"limits": {"introductions": 2}, "bounded_moves": [
        {"after_step": 1, "node": "m", "action": "introduce",
         "text": "A new claim", "label": "first"},
        {"after_step": 2, "node": "n", "action": "introduce",
         "text": "Another new claim", "label": label},
    ]}
    assert_flagged(data, f"revision.bounded_moves[1]: label {label!r} {problem}")


def test_duplicate_claim_key_rejected():
    data = base_data()
    data["claims"].append({"node": "m", "text": "claim at M holds!",
                           "label": "other"})
    assert_flagged(data, "already seeded")


def test_seeded_assessment_must_be_bottom():
    data = base_data()
    data["claims"][0]["assessment"] = ["w", "bot"]
    assert_flagged(data, "must be the domain bottom")
    ok = base_data()
    ok["claims"][0]["assessment"] = ["bot", "bot"]
    parse_scenario(ok)


def test_caps_must_cover_seeded_claims():
    data = base_data()
    data["claims"].append({"node": "m", "text": "Second claim at m",
                           "label": "cm2"})
    data["agent"]["script"].append(
        {"node": "m", "claim": "cm2", "assessment": ["bot", "bot"]})
    data["caps"] = {"per_node": {"m": 1}}
    assert_flagged(data, "seeds 2 claims but its cap is 1")


# --- script validation -------------------------------------------------------------

def test_script_entry_resolves_labels():
    scenario = parse_scenario(base_data())
    entry = scenario.agent.entries[0]
    assert entry.node == "m"
    assert entry.key == "claim at m holds"
    assert entry.visit is None


def test_script_rejects_unknown_node():
    data = base_data()
    data["agent"]["script"].append(
        {"node": "zz", "claim": "cm", "assessment": ["w", "bot"]})
    assert_flagged(data, "unknown node 'zz'")


def test_script_rejects_empty_claim_ref():
    data = base_data()
    data["agent"]["script"].append(
        {"node": "m", "claim": " . ", "assessment": ["w", "bot"]})
    assert_flagged(data, "dangling claim reference")


def test_script_duplicate_entries_rejected():
    data = base_data()
    data["agent"]["script"].append(
        {"node": "m", "claim": "cm", "assessment": ["s", "bot"]})
    assert_flagged(data, "duplicate wildcard entry")
    data2 = base_data()
    data2["agent"]["script"][0]["visit"] = 0
    data2["agent"]["script"].append(
        {"node": "m", "claim": "cm", "visit": 0, "assessment": ["s", "bot"]})
    assert_flagged(data2, "duplicate entry")


def test_script_visit_must_be_index_or_star():
    data = base_data()
    data["agent"]["script"][0]["visit"] = -1
    assert_flagged(data, "visit must be")
    ok = base_data()
    ok["agent"]["script"][0]["visit"] = "*"
    parse_scenario(ok)


def test_graded_script_needs_assessment():
    data = base_data()
    del data["agent"]["script"][0]["assessment"]
    assert_flagged(data, "need an assessment")


def test_stratified_script_must_not_carry_assessment():
    data = base_data()
    data["domain"] = "stratified"
    assert_flagged(data, "drop the assessment field")


def test_stratified_script_with_evidence_only_ok():
    data = base_data()
    data["domain"] = "stratified"
    data["agent"]["script"] = [
        {"node": "m", "claim": "cm", "evidence": [
            {"polarity": "support", "strength": "w", "basis": "located",
             "source_kind": "doc", "excerpt": "x"}]},
        {"node": "n", "claim": "cn", "evidence": []},
    ]
    scenario = parse_scenario(data)
    assert scenario.agent.entries[0].result.assessment is None


def test_script_assessment_must_match_evidence():
    data = base_data()
    data["agent"]["script"][0]["evidence"] = [
        {"polarity": "support", "strength": "s", "basis": "located",
         "source_kind": "doc", "excerpt": "strong find"}]
    # Entry claims ⟨w,⊥⟩ but its own evidence adds up to ⟨s,⊥⟩.
    assert_flagged(data, "disagrees with reported evidence")


def test_script_bad_evidence_field():
    data = base_data()
    data["agent"]["script"][0]["evidence"] = [
        {"polarity": "support", "strength": "medium", "basis": "located",
         "source_kind": "doc", "excerpt": "x"}]
    assert_flagged(data, "agent.script[0].evidence[0]")


def test_gen_script_requires_known_query():
    data = base_data()
    data["agent"]["script"].append({"node": "m", "gen": "gen@m", "claims": []})
    assert_flagged(data, "dangling gen reference")
    ok = base_data()
    ok["queries"] = {"gen": [{"node": "m", "id": "gen@m",
                              "template": "propose", "max_claims": 2}]}
    ok["agent"]["script"].append({"node": "m", "gen": "gen@m",
                                  "claims": ["a new claim"]})
    scenario = parse_scenario(ok)
    assert any(e.key == "gen@m" for e in scenario.agent.entries)


# --- queries ------------------------------------------------------------------------

def test_queries_validation():
    data = base_data()
    data["queries"] = {
        "default_eval": {"template": "look at {secrets}"},
        "per_node": {"zz": {"template": "x"}},
        "gen": [
            {"node": "zz", "id": "g", "template": "t", "max_claims": 1},
            {"node": "m", "id": "g", "template": "t", "max_claims": 0},
        ],
    }
    assert_flagged(data, "unknown placeholders", "unknown node 'zz'",
                   "max_claims")


def test_eval_query_ids_must_be_strings():
    data = base_data()
    data["queries"] = {"default_eval": {"id": 3},
                       "per_node": {"m": {"id": ["eval"]}}}
    assert_flagged(data, "queries.default_eval.id must be a string",
                   "queries.per_node['m'].id must be a string")


def test_gen_duplicate_id_rejected():
    data = base_data()
    data["queries"] = {"gen": [
        {"node": "m", "id": "g", "template": "t", "max_claims": 1},
        {"node": "m", "id": "g", "template": "t2", "max_claims": 1},
    ]}
    assert_flagged(data, "already used at node")


def test_declared_order_includes_gen_only_nodes():
    data = base_data()
    # Claims only at n; m becomes gen-only; aux idle.
    data["claims"] = [{"node": "n", "text": "Claim at n holds", "label": "cn"}]
    data["agent"]["script"] = [
        {"node": "n", "claim": "cn", "assessment": ["bot", "w"]}]
    data["queries"] = {"gen": [{"node": "m", "id": "g", "template": "t",
                                "max_claims": 1}]}
    scenario = parse_scenario(data)
    assert scenario.declared_order == ("n", "m", "aux")


# --- policy and budget -----------------------------------------------------------

def test_policy_parsing():
    data = base_data()
    data["policy"] = {"kind": "scripted-order", "steps": ["m", "n"]}
    assert parse_scenario(data).policy.name == "scripted-order"

    missing_steps = base_data()
    missing_steps["policy"] = {"kind": "scripted-order"}
    assert_flagged(missing_steps, "needs an explicit step list")

    bad_step = base_data()
    bad_step["policy"] = {"kind": "scripted-order", "steps": ["m", "zz"]}
    assert_flagged(bad_step, "unknown node 'zz'")

    goalless = base_data()
    goalless["policy"] = {"kind": "goal-directed"}
    assert_flagged(goalless, "needs a goal node")


def test_budget_validation():
    data = base_data()
    data["budget"] = {"hard_step_cap": 0}
    assert_flagged(data, "hard_step_cap")
    ok = base_data()
    ok["budget"] = {"hard_step_cap": 40}
    assert parse_scenario(ok).hard_step_cap == 40


# --- revision section ---------------------------------------------------------------

def test_revision_parsing():
    data = base_data()
    data["revision"] = {
        "epoch_limit": 3,
        "plans": {"1": {"lowers": [{"node": "m", "claim": "cm",
                                    "reason": "redo"}]},
                  "2": {"retractions": [{"node": "n", "claim": "cn",
                                         "reason": "gone"}]}},
        "limits": {"downward": 2},
        "bounded_moves": [{"node": "m", "action": "lower", "claim": "cm",
                           "after_step": 3, "reason": "r"}],
    }
    scenario = parse_scenario(data)
    assert scenario.epochs.epoch_limit == 3
    assert set(scenario.epochs.plans) == {1, 2}
    assert scenario.limits.downward == 2
    assert scenario.bounded_moves[0].after_step == 3


def test_revision_validation():
    data = base_data()
    data["revision"] = {
        "epoch_limit": 0,
        "plans": {"x": {}, "1": {"lowers": [{"node": "zz", "claim": "c"}]}},
        "limits": {"downward": -1},
        "bounded_moves": [
            {"node": "m", "action": "poke", "after_step": 1},
            {"node": "m", "action": "lower", "after_step": 0, "claim": "cm"},
            {"node": "m", "action": "introduce", "after_step": 1},
            {"node": "m", "action": "lower", "after_step": 1},
        ],
    }
    found = diags(data)
    joined = "\n".join(found)
    assert "epoch_limit" in joined
    assert "not an epoch number" in joined
    assert "unknown node 'zz'" in joined
    assert "downward" in joined
    assert "action must be" in joined
    assert "after_step" in joined
    assert "introduce needs replacement claim text" in joined
    assert "lower needs a claim reference" in joined


@pytest.mark.parametrize("key", ["01", " 1", "1 ", "+1", "1_0", "\u0661"])
def test_revision_plan_keys_must_be_canonical(key):
    # Each key used to alias "1" or "10", and the later plan replaced the
    # earlier one without a diagnostic.
    data = base_data()
    data["revision"] = {"epoch_limit": 2, "plans": {
        "1": {"lowers": [{"node": "m", "claim": "cm"}]},
        key: {"retractions": [{"node": "n", "claim": "cn"}]}}}
    assert diags(data) == [f"revision.plans key {key!r} is not an epoch number"]


# --- agent config ---------------------------------------------------------------------

def test_agent_config_validation():
    data = base_data()
    data["agent"] = {"backend": "psychic", "timeout": -1, "retries": -2}
    assert_flagged(data, "backend must be", "timeout", "retries")


def test_remote_backend_needs_no_script():
    data = base_data()
    data["agent"] = {"backend": "remote", "endpoint": "http://example.test"}
    scenario = parse_scenario(data)
    assert scenario.agent.backend == "remote"
    assert scenario.agent.entries == ()


def test_build_backend_remote_without_endpoint(monkeypatch):
    monkeypatch.delenv("AGENT_ENDPOINT", raising=False)
    data = base_data()
    data["agent"] = {"backend": "remote"}
    scenario = parse_scenario(data)
    with pytest.raises(AgentTransportError):
        build_backend(scenario)


def test_build_backend_override(monkeypatch):
    monkeypatch.delenv("AGENT_ENDPOINT", raising=False)
    scenario = parse_scenario(base_data())
    assert isinstance(build_backend(scenario), ScriptedAgent)
    with pytest.raises(AgentTransportError):
        build_backend(scenario, override="remote")


# --- context knobs ----------------------------------------------------------------------

# JSON booleans are not numbers, and a timeout must be finite. Each case
# loaded (or crashed) before these were checked.
NUMERIC_CASES = {
    "hard_step_cap=true": (("budget", "hard_step_cap"), True,
                           "budget.hard_step_cap must be a positive integer"),
    "timeout=true": (("agent", "timeout"), True,
                     "agent.timeout must be a positive number"),
    "timeout=nan": (("agent", "timeout"), float("nan"),
                    "agent.timeout must be a positive number"),
    "timeout=inf": (("agent", "timeout"), float("inf"),
                    "agent.timeout must be a positive number"),
    "timeout=10**400": (("agent", "timeout"), 10**400,
                        "agent.timeout must be a positive number"),
    "retries=true": (("agent", "retries"), True,
                     "agent.retries must be a non-negative integer"),
    "excerpt_cap=false": (("context", "excerpt_cap"), False,
                          "context.excerpt_cap must be a non-negative integer"),
    "caps.default=true": (("caps", "default"), True,
                          "caps.default must be a positive integer"),
    "caps.per_node=true": (("caps", "per_node", "m"), True,
                           "caps.per_node['m'] must be a positive integer"),
    "epoch_limit=true": (("revision", "epoch_limit"), True,
                         "revision.epoch_limit must be a positive integer"),
    "limits.downward=false": (
        ("revision", "limits", "downward"), False,
        "revision.limits.downward must be a non-negative integer"),
    "after_step=true": (
        ("revision", "bounded_moves", 0, "after_step"), True,
        "revision.bounded_moves[0]: after_step must be a positive integer"),
    "max_claims=true": (("queries", "gen", 0, "max_claims"), True,
                        "queries.gen[0]: max_claims must be an integer"),
    "visit=true": (("agent", "script", 0, "visit"), True,
                   "agent.script[0]: visit must be a non-negative integer or '*'"),
}


@pytest.mark.parametrize("path, value, message", NUMERIC_CASES.values(),
                         ids=list(NUMERIC_CASES))
def test_numeric_fields_reject_booleans_and_non_finite(path, value, message):
    data = base_data()
    data["queries"] = {"gen": [{"node": "m", "id": "g", "template": "t",
                                "max_claims": 1}]}
    data["revision"] = {"bounded_moves": [
        {"node": "m", "action": "lower", "claim": "cm", "after_step": 1}]}
    parse_scenario(copy.deepcopy(data))
    _set_path(data, path, value)
    assert diags(data) == [message]


def test_excerpt_cap_validation():
    data = base_data()
    data["context"] = {"excerpt_cap": -1}
    assert_flagged(data, "excerpt_cap")
    ok = base_data()
    ok["context"] = {"excerpt_cap": 2}
    assert parse_scenario(ok).excerpt_cap == 2


def test_scenario_files_round_trip_as_json():
    # Both shipped files stay plain JSON: re-serializing the parsed document
    # must not lose anything the loader depends on.
    for path in (GOLDEN, GOLDEN_REVISION):
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        reparsed = parse_scenario(copy.deepcopy(data))
        assert reparsed.goal == data["goal"]


# --- fuzzing: no input makes the loader crash ----------------------------------

SHIPPED = {path: json.loads(Path(path).read_text(encoding="utf-8"))
           for path in (GOLDEN, GOLDEN_REVISION)}

# Optional fields the shipped files leave out; missing parents are created.
OPTIONAL_FIELDS = (
    ("caps", "per_node"),
    ("caps", "per_node", "n_1"),
    ("policy", "goal_node"),
    ("policy", "steps"),
    ("queries",),
    ("queries", "default_eval"),
    ("queries", "default_eval", "id"),
    ("queries", "default_eval", "template"),
    ("queries", "per_node"),
    ("queries", "per_node", "n_1", "id"),
    ("queries", "gen"),
    ("queries", "gen", 0),
    ("claims", 0, "assessment"),
    ("agent", "script", 0, "gen"),
    ("budget", "hard_step_cap"),
    ("context", "excerpt_cap"),
    ("agent", "endpoint"),
    ("agent", "timeout"),
    ("agent", "retries"),
    ("revision", "limits"),
    ("revision", "limits", "downward"),
    ("revision", "bounded_moves"),
    ("revision", "bounded_moves", 0),
    ("revision", "plans", "1", "retractions"),
)


def _all_paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _all_paths(value, prefix + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _all_paths(value, prefix + (index,))


def _mutation_targets(doc):
    """Concrete paths grouped by shape (list indices folded), so every field
    kind is drawn equally often however many script entries repeat it."""
    groups: dict[tuple, list[tuple]] = {}
    for path in list(_all_paths(doc))[1:]:
        shape = tuple("*" if isinstance(p, int) else p for p in path)
        groups.setdefault(shape, []).append(path)
    for path in OPTIONAL_FIELDS:
        groups.setdefault(path, [path])
    return [groups[shape] for shape in sorted(groups, key=repr)]


def _set_path(doc, path, value):
    for step in path[:-1]:
        if isinstance(doc, dict):
            doc = doc.setdefault(step, {} if isinstance(step, str) else [])
        else:
            doc = doc[step]
    if isinstance(doc, list) and path[-1] >= len(doc):
        doc.append(value)
    else:
        doc[path[-1]] = value


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 20)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6) | st.sampled_from(["n_1", "c_P", "w", "bot", "*"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


TARGETS = {name: _mutation_targets(doc) for name, doc in SHIPPED.items()}


@settings(max_examples=600, derandomize=True, deadline=None)
@given(data=st.data())
def test_any_single_value_mutation_loads_or_reports(data):
    name = data.draw(st.sampled_from(sorted(SHIPPED)))
    doc = copy.deepcopy(SHIPPED[name])
    path = data.draw(st.sampled_from(data.draw(st.sampled_from(TARGETS[name]))))
    _set_path(doc, path, data.draw(JSON_VALUES))
    try:
        parse_scenario(doc)
    except (ValidationError, ParseError):
        pass
