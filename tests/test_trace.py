"""Trace rendering and replay."""

import hashlib
import json
from dataclasses import replace

import pytest

from claimlattice import assessment as asmt
from claimlattice.agent import EvalScript, GenScript, ScriptEntry, ScriptedAgent
from claimlattice.cli import execute, write_report
from claimlattice.errors import ScenarioError
from claimlattice.queries import EvalQuery, GenQuery, QuerySpec
from claimlattice.scenario import load_scenario, parse_scenario
from claimlattice.state import initial_state
from claimlattice.trace import (
    SCHEMA,
    ColumnRegistry,
    JoinRecord,
    render_table,
    replay_json_lines,
    to_json_lines,
)
from claimlattice.worklist import (
    ClaimCaps,
    FifoPolicy,
    TerminationBudget,
    parse_policy,
    run,
)

from conftest import GOLDEN, chain_graph, plain_queries, seeded_claim
from genutil import generate_scenario
from test_differential import cli_scenarios
from test_scenario import base_data

W = asmt.Strength.WEAK
S = asmt.Strength.STRONG
BOT = asmt.Strength.BOT


def graded(sup, ref):
    return asmt.GradedValue(sup, ref)


def small_run(label_m="cm"):
    graph = chain_graph("m", "n")
    cm = seeded_claim("m", "claim at m", label_m)
    cn = seeded_claim("n", "claim at n", "cn")
    state = initial_state(graph, asmt.DomainKind.GRADED, (cm, cn))
    agent = ScriptedAgent([
        ScriptEntry("m", cm.key, None, EvalScript(graded(W, BOT))),
        ScriptEntry("n", cn.key, None, EvalScript(graded(BOT, S))),
    ])
    caps = ClaimCaps()
    return run(
        graph, state,
        goal="g",
        queries=plain_queries(graph),
        backend=agent,
        caps=caps,
        policy=FifoPolicy(),
        budget=TerminationBudget.for_run(asmt.DomainKind.GRADED, caps, ["m", "n"]),
    )


def test_join_expression_forms():
    moved = JoinRecord(node="m", key="k", label="c",
                       old=graded(W, BOT), contributed=graded(BOT, S),
                       new=graded(W, S))
    assert not moved.absorbed
    assert moved.expression() == "⟨w,⊥⟩ ⊔ ⟨⊥,s⟩"
    stuck = JoinRecord(node="m", key="k", label="c",
                       old=graded(W, S), contributed=graded(BOT, S),
                       new=graded(W, S))
    assert stuck.absorbed
    assert stuck.expression() == "⟨w,s⟩ ⊔ ⟨⊥,s⟩ = ⟨w,s⟩"


def test_column_registry_dedup_and_order():
    reg = ColumnRegistry()
    reg.add("b", "n", "kb")
    reg.add("a", "m", "ka")
    reg.add("b", "n", "kb")
    assert [c.label for c in reg.columns] == ["b", "a"]


def test_render_table_shape():
    result = small_run()
    table = render_table(result.trace)
    lines = table.splitlines()
    assert lines[0].startswith("Step | Node | Action")
    assert "cm" in lines[0] and "cn" in lines[0]
    assert "W after step" in lines[0]
    # Step 0 snapshot shows both bottoms; later unchanged cells are dotted.
    assert "⊥²" in lines[2]
    final_row = lines[-1]
    assert "·" in final_row
    assert "∅" in final_row


def test_json_lines_replay_matches_final_state():
    result = small_run()
    text = to_json_lines(result.trace)
    final = replay_json_lines(text, asmt.DomainKind.GRADED)
    assert final == {
        "cm": asmt.to_json(graded(W, BOT)),
        "cn": asmt.to_json(graded(BOT, S)),
    }


def test_replay_rejects_bad_join():
    result = small_run()
    lines = to_json_lines(result.trace).splitlines()
    doctored = []
    for line in lines:
        row = json.loads(line)
        for j in row["joins"]:
            j["new"] = ["s", "s"]  # not what old ⊔ contributed gives
        doctored.append(json.dumps(row))
    with pytest.raises(ScenarioError):
        replay_json_lines("\n".join(doctored), asmt.DomainKind.GRADED)


def test_replay_rejects_chain_drift():
    result = small_run()
    lines = to_json_lines(result.trace).splitlines()
    doctored = []
    for line in lines:
        row = json.loads(line)
        for j in row["joins"]:
            if j["label"] == "cm":
                # Claim the join started from a value the replay never saw.
                j["old"] = ["w", "w"]
                j["new"] = ["w", "w"]
                j["contributed"] = ["bot", "bot"]
        doctored.append(json.dumps(row))
    with pytest.raises(ScenarioError):
        replay_json_lines("\n".join(doctored), asmt.DomainKind.GRADED)


def test_replay_empty_trace():
    assert replay_json_lines("", asmt.DomainKind.GRADED) == {}


def _rows(result):
    return [json.loads(line) for line in to_json_lines(result.trace).split("\n")
            if line]


def _replay_rows(rows):
    text = "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows)
    return replay_json_lines(text, asmt.DomainKind.GRADED)


def test_json_rows_store_keyframes_and_changed_cells():
    rows = _rows(small_run())
    assert rows[0]["schema"] == SCHEMA
    assert rows[0]["assessments"] == {"cm": ["bot", "bot"], "cn": ["bot", "bot"]}
    assert [row.get("changed") for row in rows[1:]] == [
        {"cm": ["w", "bot"]}, {"cn": ["bot", "s"]}]
    assert not any("assessments" in row or "schema" in row for row in rows[1:])


@pytest.mark.parametrize("edit", ["edited cell", "missing move", "unexplained cell"])
def test_replay_rejects_changed_cells_the_joins_do_not_imply(edit):
    rows = _rows(small_run())
    _replay_rows(rows)  # the untouched trace replays
    if edit == "edited cell":
        rows[1]["changed"]["cm"] = ["s", "bot"]
    elif edit == "missing move":
        del rows[1]["changed"]["cm"]
    else:
        rows[1]["changed"]["cn"] = ["bot", "bot"]
    with pytest.raises(ScenarioError, match="step 1 records changed cells"):
        _replay_rows(rows)


def test_replay_rejects_schema_1_rows():
    rows = _rows(small_run())
    full = dict(rows[0].pop("assessments"))
    del rows[0]["schema"]
    rows[0]["assessments"] = dict(full)
    for row in rows[1:]:
        full.update(row.pop("changed"))
        row["assessments"] = dict(full)
    with pytest.raises(ScenarioError, match=f"schema {SCHEMA}"):
        _replay_rows(rows)


def _malformed(case):
    rows = [json.dumps(row) for row in _rows(small_run())]
    if case == "not an object":
        return "[1]\n", 1
    if case == "truncated row":
        return '{"step": 1\n', 1
    if case == "keyframe without cells":
        return '{"node": null}\n', 1
    row = json.loads(rows[1])
    if case == "row without joins":
        del row["joins"]
    elif case == "join without old":
        del row["joins"][0]["old"]
    else:  # a keyframe cell of 1, which the join on cm then reads
        keyframe = json.loads(rows[0])
        keyframe["assessments"]["cm"] = 1
        rows[0] = json.dumps(keyframe)
    rows[1] = json.dumps(row)
    return "\n".join(rows), 2


@pytest.mark.parametrize("case", [
    "not an object", "truncated row", "keyframe without cells",
    "row without joins", "join without old", "cell of 1"])
def test_replay_rejects_malformed_rows_by_line(case):
    text, line = _malformed(case)
    with pytest.raises(ScenarioError, match=f"trace line {line} is not a valid row"):
        replay_json_lines(text, asmt.DomainKind.GRADED)


def test_label_with_line_separator_replays():
    result = small_run(label_m="c\u2028m")
    text = to_json_lines(result.trace)
    assert "\u2028" in text
    assert replay_json_lines(text, asmt.DomainKind.GRADED) == {
        "c\u2028m": asmt.to_json(graded(W, BOT)),
        "cn": asmt.to_json(graded(BOT, S)),
    }


def test_claim_without_column_folds_without_cell():
    # m generates claim x on its first visit, but that evaluation answers in
    # the wrong domain, so the claim gets no column until the next keyframe.
    # The feedback edge brings m back, and its join then moves with no cell.
    graph = chain_graph("m", "n", feedback=(("n", "m"),))
    cm = seeded_claim("m", "claim at m", "cm")
    cn = seeded_claim("n", "claim at n", "cn")
    queries = plain_queries(graph)
    queries["m"] = QuerySpec(eval=EvalQuery(id="eval@m"),
                             gen=(GenQuery(id="more", template="t", max_claims=1),))
    agent = ScriptedAgent([
        ScriptEntry("m", cm.key, None, EvalScript(graded(W, BOT))),
        ScriptEntry("m", "more", None, GenScript(claims=("claim x",))),
        ScriptEntry("m", "claim x", 0, EvalScript(asmt.FourValue(True, False))),
        ScriptEntry("m", "claim x", None, EvalScript(graded(W, BOT))),
        ScriptEntry("n", cn.key, None, EvalScript(graded(BOT, S))),
    ])
    caps = ClaimCaps()
    result = run(
        graph, initial_state(graph, asmt.DomainKind.GRADED, (cm, cn)),
        goal="g", queries=queries, backend=agent, caps=caps,
        policy=FifoPolicy(),
        budget=TerminationBudget.for_run(asmt.DomainKind.GRADED, caps, ["m", "n"]))
    rows = _rows(result)
    moved = [row for row in rows
             if any(j["label"] == "g1@m" and not j["absorbed"] for j in row["joins"])]
    assert len(moved) == 1 and moved[0]["changed"] == {}
    assert "g1@m" not in [c.label for c in result.trace.columns]
    assert _replay_rows(rows) == {
        "cm": asmt.to_json(graded(W, BOT)),
        "cn": asmt.to_json(graded(BOT, S)),
        "g1@m": asmt.to_json(graded(W, BOT)),
    }


def _expected_changed(previous, step):
    """The cells a node row implies: its moving joins on claims that have a
    column, plus the claims it inserted (columns new in this row)."""
    current = dict(step.assessments)
    before = {label for label, _ in previous.assessments}
    cells = {j.label: j.new for j in step.joins
             if not j.absorbed and j.label in current}
    cells.update((label, value) for label, value in current.items()
                 if label not in before)
    return {label: asmt.to_json(value) for label, value in cells.items()}


GENERATED_POLICIES = ["fifo", "lifo", "wto", "feedback-priority"]


def _run_generated(gen, policy_name, **extra):
    return run(
        gen.graph, gen.fresh_state(),
        goal="the goal", queries=gen.queries, backend=gen.fresh_backend(),
        caps=gen.caps, policy=parse_policy(policy_name),
        budget=TerminationBudget.for_run(gen.kind, gen.caps,
                                         sorted(gen.graph.all_nodes)),
        declared_order=gen.declared_order, **extra)


@pytest.mark.parametrize("policy_name", GENERATED_POLICIES)
def test_changed_cells_are_moving_joins_plus_insertions(policy_name):
    for seed in range(200):
        gen = generate_scenario(seed, visit_sensitive=True)
        result = _run_generated(gen, policy_name)
        steps = result.trace.steps
        text = to_json_lines(result.trace)
        rows = [json.loads(line) for line in text.split("\n") if line]
        assert len(rows) == len(steps)
        assert rows[0]["action"] == "init" and "assessments" in rows[0]
        for previous, step, row in zip(steps, steps[1:], rows[1:]):
            assert step.node is not None and "assessments" not in row
            assert row["changed"] == _expected_changed(previous, step), seed
        final = {entry.claim.label: asmt.to_json(entry.assessment)
                 for table in result.state.nodes.values()
                 for entry in table.entries.values()}
        assert replay_json_lines(text, gen.kind) == final


def _full_row(columns, state):
    """Reference row: every claim column read from the live state, in column
    order, None where the claim does not exist."""
    cells = []
    for column in columns.columns:
        entry = state.nodes[column.node].entries.get(column.key)
        cells.append((column.label, entry.assessment if entry else None))
    return tuple(cells)


class _FullRowRecorder:
    """A ``mid_run`` hook that records the full row after every step and
    changes nothing."""

    def __init__(self, columns):
        self.columns = columns
        self.rows = {}

    def after_step(self, state, step_index, epoch):
        self.rows[step_index] = _full_row(self.columns, state)


@pytest.mark.parametrize("policy_name", GENERATED_POLICIES)
def test_row_view_equals_full_column_read(policy_name):
    for seed in range(200):
        gen = generate_scenario(seed, visit_sensitive=True)
        columns = ColumnRegistry()
        recorder = _FullRowRecorder(columns)
        result = _run_generated(gen, policy_name, columns=columns,
                                mid_run=recorder)
        node_steps = result.trace.steps[1:]
        assert [step.index for step in node_steps] == list(recorder.rows)
        for step, row in zip(node_steps, _rows(result)[1:]):
            assert step.assessments == recorder.rows[step.index], seed
            assert dict(step.cells) == {
                label: asmt.from_json(gen.kind, value)
                for label, value in row["changed"].items()}, seed


def test_keyframes_only_at_init_and_revision_rows():
    actions = set()
    for data in cli_scenarios().values():
        result = execute(parse_scenario(data))
        for trace in result.traces:
            for line in to_json_lines(trace).split("\n"):
                if not line:
                    continue
                row = json.loads(line)
                keyframe = row["node"] is None
                assert keyframe == (row["action"] in ("init", "revision"))
                assert keyframe == ("assessments" in row) == ("schema" in row)
                assert keyframe != ("changed" in row)
                if keyframe:
                    actions.add((row["action"], row["step"] > 0))
    # Epoch starts and a mid-run revision row are both covered.
    assert actions == {("init", False), ("revision", False), ("revision", True)}


# sha256 of the shipped review scenario's trace.jsonl, in schema 2. The
# differential fixture hashes traces through a full-row expander, so these
# bytes are pinned here.
GOLDEN_JSONL_SHA256 = (
    "cd783e0334ffb3ac151af0b3c0d601649fb4dfb8e42478a75d6029be8232beec")


def test_golden_json_trace_bytes_are_pinned():
    result = execute(load_scenario(GOLDEN))
    text = "".join(to_json_lines(trace) for trace in result.traces)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN_JSONL_SHA256


# An answer in the four-valued domain, which a graded run refuses.
WRONG_DOMAIN = asmt.FourValue(True, False)


def _claim_x_scenario(answers, *, retract=False):
    """base_data plus a gen query at m that proposes claim x, minted g1@m.
    ``answers`` maps a visit of m (None: every other visit) to claim x's
    assessment. ``retract`` adds a plan that retracts g1@m after epoch 1."""
    data = base_data()
    data["queries"] = {"gen": [{"node": "m", "id": "more", "template": "t",
                                "max_claims": 1}]}
    data["agent"]["script"].append(
        {"node": "m", "gen": "more", "claims": ["Claim x"]})
    refused = []
    for visit, answer in answers.items():
        if answer is WRONG_DOMAIN:
            refused.append(ScriptEntry("m", "claim x", visit, EvalScript(answer)))
            continue
        entry = {"node": "m", "claim": "claim x", "assessment": answer}
        if visit is not None:
            entry["visit"] = visit
        data["agent"]["script"].append(entry)
    if retract:
        data["revision"] = {"epoch_limit": 2, "plans": {"1": {"retractions": [
            {"node": "m", "claim": "g1@m", "reason": "re-modeled"}]}}}
    scenario = parse_scenario(data)
    return replace(scenario, agent=replace(
        scenario.agent, entries=scenario.agent.entries + tuple(refused)))


def test_regenerated_claim_gets_its_own_column():
    # m generates claim x as g1@m, the epoch-1 plan retracts it, and epoch 2
    # generates it again as g2@m. The slot (m, "claim x") then holds another
    # label, so g2@m gets a column and g1@m's column reads nothing.
    scenario = _claim_x_scenario({0: ["w", "bot"], None: ["bot", "s"]},
                                 retract=True)
    result = execute(scenario)
    first, second = result.traces
    assert [c.label for c in first.columns] == ["cm", "cn", "g1@m"]
    assert [c.label for c in second.columns] == ["cm", "cn", "g1@m", "g2@m"]
    assert all(dict(step.assessments).get("g1@m") is None
               for step in second.steps)
    moved = [dict(step.assessments)["g2@m"] for step in second.steps
             if "g2@m" in dict(step.assessments)]
    assert moved[-1] == graded(BOT, S)
    header = render_table(second).splitlines()[0]
    assert "g1@m" in header and "g2@m" in header
    text = "".join(to_json_lines(trace) for trace in result.traces)
    final = {entry.claim.label: asmt.to_json(entry.assessment)
             for table in result.state.nodes.values()
             for entry in table.entries.values()}
    assert "g1@m" not in final
    assert replay_json_lines(text, scenario.kind) == final
    report = write_report(scenario, result)
    assert "  g1@m = (retracted)\n" in report
    assert "  g2@m = ⟨⊥,s⟩\n" in report


def test_report_lists_claims_without_a_column():
    # g1@m's first evaluation is refused, so it has no column, but the final
    # state holds it.
    scenario = _claim_x_scenario({0: WRONG_DOMAIN, None: ["w", "bot"]})
    result = execute(scenario)
    assert [c.label for c in result.traces[-1].columns] == ["cm", "cn"]
    report = write_report(scenario, result)
    assert report.split("final assessments:\n")[1].startswith(
        "  cm@m = ⟨w,⊥⟩\n  cn@n = ⟨⊥,w⟩\n  g1@m = ⊥²\n\n")


def test_regenerated_claim_refused_at_first_keeps_the_old_column_empty():
    # As in test_regenerated_claim_gets_its_own_column, but epoch 2's first
    # evaluation of g2@m is refused. g2@m then has no column, and the column
    # retracted g1@m left behind still holds the slot: it must read nothing.
    scenario = _claim_x_scenario(
        {0: ["w", "bot"], 1: WRONG_DOMAIN, None: ["bot", "s"]}, retract=True)
    result = execute(scenario)
    second = result.traces[-1]
    assert [c.label for c in second.columns] == ["cm", "cn", "g1@m"]
    assert all(dict(step.assessments)["g1@m"] is None for step in second.steps)
    assert "g2@m" in {entry.claim.label
                      for entry in result.state.nodes["m"].entries.values()}
    text = "".join(to_json_lines(trace) for trace in result.traces)
    assert "g1@m" not in replay_json_lines(text, scenario.kind)
    report = write_report(scenario, result)
    assert "  g1@m = (retracted)\n" in report
    assert "  g2@m = ⊥²\n" in report
