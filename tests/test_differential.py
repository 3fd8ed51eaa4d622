"""Differential guard: engine refactors must not move a single output byte.

Each entry is a short sha256 over what one run writes. Generated runs hash
the rendered table, the JSON trace and the evidence log; runs through
``cli.execute`` hash every epoch's trace, the evidence log, the revision log
and the status. A run that raises is recorded as its exception type and
message. Each JSON trace is hashed through ``expand_json_lines``, which
rebuilds every row's full ``assessments`` map, so the hashes pin the cells
a trace implies, not how it stores them. Goal-directed ordering is left
out: its traces follow the probe rule, which ``test_worklist`` checks on
its own. A ``ctx/`` entry per run
hashes the ``repr`` of every prompt context its steps built, so a wrong
upstream finding or excerpt moves a hash even though the scripted agent
never reads the context.

A second fixture pins the scenario loader. Every mutation-target shape of
both shipped scenarios (the shapes ``test_scenario`` fuzzes, optional fields
included) is set to each of a fixed list of JSON values. Each entry hashes
the exact ordered diagnostics, or, when the input loads, a canonical dump of
the ``Scenario``: sets and dicts sorted, the policy as its name, steps and
goal node, and no ``path``.

Rewrite both fixtures only for an intended change in behaviour, with
``PYTHONPATH=src python tests/test_differential.py`` from the repository
root.
"""

from __future__ import annotations

import copy
import dataclasses
import enum
import hashlib
import json
from pathlib import Path

import pytest

import claimlattice.transformer as transformer
from claimlattice.cli import execute
from claimlattice.errors import ValidationError
from claimlattice.revision import export_revision_log
from claimlattice.scenario import parse_scenario
from claimlattice.state import canonicalize_claim, export_evidence_log
from claimlattice.trace import render_table, to_json_lines
from claimlattice.worklist import (
    OrderPolicy,
    TerminationBudget,
    parse_policy,
    run,
)

from genutil import generate_scenario
from test_scenario import SHIPPED, TARGETS, _set_path

REPO = Path(__file__).resolve().parents[1]
FIXTURE = Path(__file__).resolve().parent / "differential_hashes.json"
LOADER_FIXTURE = Path(__file__).resolve().parent / "loader_hashes.json"
POLICIES = ("fifo", "lifo", "wto", "feedback-priority")
SEEDS = range(200)


def _digest(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()[:16]


def expand_json_lines(text: str) -> str:
    """Full-row form of a JSON trace: a node row that stores only its
    ``changed`` cells gets the ``assessments`` map of the last keyframe with
    every change since folded in, and ``schema`` is dropped. Rows that
    already carry ``assessments`` pass through unchanged."""
    out = []
    full: dict = {}
    for line in text.split("\n"):
        if not line:
            continue
        row = json.loads(line)
        row.pop("schema", None)
        if "changed" in row:
            full = {**full, **row.pop("changed")}
            row["assessments"] = full
        else:
            full = row["assessments"]
        out.append(json.dumps(row, ensure_ascii=False, sort_keys=True))
    return "\n".join(out) + ("\n" if out else "")


def _guarded(produce) -> str:
    try:
        return _digest(*produce())
    except Exception as exc:  # the failure itself is the recorded behaviour
        return f"{type(exc).__name__}: {exc}"


def _generated_run(seed: int, policy_name: str):
    gen = generate_scenario(seed, visit_sensitive=True)
    result = run(
        gen.graph, gen.fresh_state(),
        goal="the goal",
        queries=gen.queries,
        backend=gen.fresh_backend(),
        caps=gen.caps,
        policy=parse_policy(policy_name),
        budget=TerminationBudget.for_run(gen.kind, gen.caps,
                                         sorted(gen.graph.all_nodes)),
        declared_order=gen.declared_order,
    )
    return (render_table(result.trace),
            expand_json_lines(to_json_lines(result.trace)),
            export_evidence_log(result.state))


def _cli_run(scenario, policy_name: str | None):
    policy = None if policy_name is None else parse_policy(policy_name)
    result = execute(scenario, policy=policy)
    parts = []
    for trace in result.traces:
        parts.append(render_table(trace))
        parts.append(expand_json_lines(to_json_lines(trace)))
    parts.append(export_evidence_log(result.state))
    parts.append(export_revision_log(result.revision_log))
    parts.append(result.status)
    return parts


def _load(name: str) -> dict:
    return json.loads((REPO / "scenarios" / name).read_text("utf-8"))


def _add_wildcard_tails(data: dict) -> None:
    # A wildcard tail per claim repeats its last scripted answer, so any
    # revisit a revision causes still finds an entry.
    script = data["agent"]["script"]
    last: dict[tuple[str, str], dict] = {}
    for entry in script:
        if "claim" in entry:
            slot = (entry["node"], entry["claim"])
            if slot not in last or entry["visit"] > last[slot]["visit"]:
                last[slot] = entry
    for entry in last.values():
        tail = copy.deepcopy(entry)
        tail["visit"] = "*"
        script.append(tail)


def _with_retraction() -> dict:
    data = _load("opaque_review_revision.scenario")
    _add_wildcard_tails(data)
    data["revision"]["plans"]["1"]["retractions"] = [
        {"node": "n_4", "claim": "c_R", "reason": "rejection branch re-modeled"},
    ]
    return data


def _with_bounded_moves() -> dict:
    data = _load("opaque_review_revision.scenario")
    _add_wildcard_tails(data)
    introduced = "The rejection path logs the raw input before discarding it"
    data["agent"]["script"].append({
        "node": "n_4", "claim": canonicalize_claim(introduced), "visit": "*",
        "assessment": ["bot", "w"]})
    data["revision"]["limits"] = {"downward": 1, "retractions": 1,
                                  "introductions": 1}
    data["revision"]["bounded_moves"] = [
        {"after_step": 3, "node": "n_1", "action": "lower", "claim": "c_P",
         "reason": "parser advisory withdrawn"},
        {"after_step": 5, "node": "n_1", "action": "lower", "claim": "c_P",
         "reason": "second lowering, past the limit"},
        {"after_step": 6, "node": "n_4", "action": "introduce",
         "text": introduced, "label": "c_L", "reason": "new finding"},
        {"after_step": 8, "node": "n_3", "action": "retract", "claim": "c_U",
         "reason": "processor claim out of scope"},
    ]
    return data


def cli_scenarios() -> dict[str, object]:
    return {
        "opaque_review": _load("opaque_review.scenario"),
        "opaque_review_revision": _load("opaque_review_revision.scenario"),
        "revision_with_retraction": _with_retraction(),
        "revision_with_bounded_moves": _with_bounded_moves(),
    }


def record(monkeypatch) -> dict[str, str]:
    """Hash every run, and under ``ctx/`` the contexts its steps built;
    ``monkeypatch`` wraps ``build_context`` where the transformer calls it."""
    entries: dict[str, str] = {}
    contexts: list[str] = []
    build = transformer.build_context

    def capture(*args, **kwargs):
        ctx = build(*args, **kwargs)
        contexts.append(repr(ctx))
        return ctx

    monkeypatch.setattr(transformer, "build_context", capture)

    def hashed(key: str, produce) -> None:
        contexts.clear()
        entries[key] = _guarded(produce)
        entries[f"ctx/{key}"] = _digest(*contexts)

    for seed in SEEDS:
        for name in POLICIES:
            hashed(f"gen/{seed}/{name}", lambda: _generated_run(seed, name))
    for label, data in cli_scenarios().items():
        scenario = parse_scenario(data, path=Path(label))
        for name in (None, *POLICIES):
            hashed(f"cli/{label}/{name or 'own'}",
                   lambda: _cli_run(scenario, name))
    return entries


def test_differential_fixture_unchanged(monkeypatch):
    expected = json.loads(FIXTURE.read_text("utf-8"))
    actual = record(monkeypatch)
    assert len(expected) == 1640
    assert sorted(actual) == sorted(expected)
    changed = [key for key in expected if actual[key] != expected[key]]
    assert not changed, f"{len(changed)} entries moved, first: {changed[:5]}"


# --- the scenario loader ------------------------------------------------------

LOADER_VALUES = (None, True, False, -1, 0, 1, 2.5, "", "zz", "n_1", "*",
                 [], {}, ["x"], {"k": 1})


def _canonical(obj):
    """A JSON-ready dump that does not depend on set or dict order."""
    if isinstance(obj, OrderPolicy):
        return ["OrderPolicy", obj.name, list(obj.steps), obj.goal_node]
    if isinstance(obj, enum.Enum):
        return f"{type(obj).__name__}.{obj.name}"
    if dataclasses.is_dataclass(obj):
        return [type(obj).__name__] + [
            [f.name, _canonical(getattr(obj, f.name))]
            for f in dataclasses.fields(obj) if f.name != "path"]
    if isinstance(obj, dict):
        return sorted(([_canonical(k), _canonical(v)] for k, v in obj.items()),
                      key=json.dumps)
    if isinstance(obj, (set, frozenset)):
        return sorted((_canonical(x) for x in obj), key=json.dumps)
    if isinstance(obj, (list, tuple)):
        return [_canonical(x) for x in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"no canonical form for {type(obj).__name__}")


def _load_outcome(doc) -> str:
    try:
        scenario = parse_scenario(doc)
    except ValidationError as exc:
        return "rejects " + _digest(*exc.diagnostics)
    except Exception as exc:  # the failure itself is the recorded behaviour
        return f"{type(exc).__name__}: {exc}"
    return "loads " + _digest(json.dumps(_canonical(scenario)))


def record_loader() -> dict[str, str]:
    entries: dict[str, str] = {}
    for name, shipped in SHIPPED.items():
        for group in TARGETS[name]:
            path = group[0]
            field_name = ".".join(str(step) for step in path)
            for value in LOADER_VALUES:
                doc = copy.deepcopy(shipped)
                _set_path(doc, path, copy.deepcopy(value))
                key = f"{Path(name).stem}/{field_name}={json.dumps(value)}"
                entries[key] = _load_outcome(doc)
    return entries


def test_loader_fixture_unchanged():
    expected = json.loads(LOADER_FIXTURE.read_text("utf-8"))
    actual = record_loader()
    assert sorted(actual) == sorted(expected)
    changed = [key for key in expected if actual[key] != expected[key]]
    assert not changed, f"{len(changed)} entries moved, first: {changed[:5]}"


if __name__ == "__main__":
    with pytest.MonkeyPatch.context() as patch:
        runs = record(patch)
    for path, entries in ((FIXTURE, runs), (LOADER_FIXTURE, record_loader())):
        path.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
