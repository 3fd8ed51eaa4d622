"""Command line behavior, driven through real subprocesses."""

import json
import os
import socket
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from claimlattice import assessment as asmt
from claimlattice.trace import replay_json_lines

REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "scenarios" / "opaque_review.scenario"
GOLDEN_REVISION = REPO / "scenarios" / "opaque_review_revision.scenario"


def run_cli(*args, drop_env=()):
    env = {k: v for k, v in os.environ.items() if k not in drop_env}
    # The child imports the package from this checkout, as pytest does.
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "claimlattice.cli", *args],
        capture_output=True, text=True, cwd=REPO, env=env)


def test_run_writes_table_and_verdict():
    proc = run_cli("run", str(GOLDEN))
    assert proc.returncode == 0, proc.stderr
    assert "Step | Node" in proc.stdout
    assert "status: stabilized" in proc.stdout
    assert proc.stdout.rstrip().splitlines()[-1] == "c_G@n_5 = ⟨⊥,s⟩"


def test_run_out_dir_files():
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        proc = run_cli("run", str(GOLDEN), "--trace", "both", "--out", tmp)
        assert proc.returncode == 0, proc.stderr
        out = Path(tmp)
        for name in ("trace.txt", "trace.jsonl", "report.txt",
                     "evidence.jsonl", "revision.jsonl"):
            assert (out / name).exists(), name
        # Stdout carries the report when files go to a directory.
        assert "final assessments:" in proc.stdout
        assert "Step | Node" not in proc.stdout
        # The JSON trace replays to the reported final assessments.
        final = replay_json_lines((out / "trace.jsonl").read_text("utf-8"),
                                  asmt.DomainKind.GRADED)
        assert final["c_G"] == ["bot", "s"]
        assert final["c_P"] == ["w", "s"]
        report = (out / "report.txt").read_text("utf-8")
        assert report.rstrip().splitlines()[-1] == "c_G@n_5 = ⟨⊥,s⟩"
        # No remote calls were made, so no request log appears.
        assert not (out / "requests.jsonl").exists()


def test_run_json_trace_only():
    proc = run_cli("run", str(GOLDEN), "--trace", "json")
    assert proc.returncode == 0
    assert "Step | Node" not in proc.stdout
    first_line = proc.stdout.splitlines()[0]
    row = json.loads(first_line)
    assert row["step"] == 0 and row["node"] is None


def test_run_policy_override_same_verdict():
    proc = run_cli("run", str(GOLDEN), "--policy", "fifo")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.rstrip().splitlines()[-1] == "c_G@n_5 = ⟨⊥,s⟩"


def test_run_policy_restating_scripted_order_keeps_steps():
    proc = run_cli("run", str(GOLDEN), "--policy", "scripted-order")
    assert proc.returncode == 0, proc.stderr


def test_run_revision_scenario():
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        proc = run_cli("run", str(GOLDEN_REVISION), "--trace", "both",
                       "--out", tmp)
        assert proc.returncode == 0, proc.stderr
        assert "status: stabilized" in proc.stdout
        assert "revision entries: 1" in proc.stdout
        assert "c_P@n_1 = ⟨⊥,s⟩" in proc.stdout
        (line,) = (Path(tmp) / "revision.jsonl").read_text("utf-8") \
            .strip().splitlines()
        entry = json.loads(line)
        assert entry["old_assessment"] == ["w", "s"]
        assert entry["action"] == "lower"


def test_run_epoch_limit_override():
    # Forcing a single epoch leaves the revision plan unapplied.
    proc = run_cli("run", str(GOLDEN_REVISION), "--epochs", "1")
    assert proc.returncode == 0, proc.stderr
    assert "status: epoch_limit_reached" in proc.stdout
    assert "c_P@n_1 = ⟨w,s⟩" in proc.stdout


def test_check_reports_shape():
    proc = run_cli("check", str(GOLDEN))
    assert proc.returncode == 0
    assert proc.stdout.strip() == (
        "ok: 6 program node(s), 1 aux node(s), 7 seeded claim(s), "
        "domain graded, policy scripted-order")


def test_check_invalid_scenario(tmp_path):
    bad = tmp_path / "broken.scenario"
    bad.write_text(json.dumps({
        "goal": "g",
        "graph": {"program_nodes": ["m"], "context_edges": [["m", "zz"]]},
        "claims": [{"node": "zz", "text": "dangling"}],
    }), encoding="utf-8")
    proc = run_cli("check", str(bad))
    assert proc.returncode == 1
    assert "scenario validation failed:" in proc.stderr
    assert "unknown node 'zz'" in proc.stderr
    assert "outside the graph" in proc.stderr


def test_deeply_nested_scenario_is_parse_error(tmp_path, capsys):
    from claimlattice.cli import main
    deep = tmp_path / "deep.scenario"
    deep.write_text('{"goal": ' + "[" * 100_000 + "]" * 100_000 + "}",
                    encoding="utf-8")
    code = main(["check", str(deep)])
    captured = capsys.readouterr()
    assert code == 1
    (line,) = captured.err.splitlines()
    assert line.startswith(f"error: scenario {deep} is not valid JSON: ")
    assert "recursion" in line


def test_missing_scenario_file():
    proc = run_cli("run", str(REPO / "scenarios" / "absent.scenario"))
    assert proc.returncode == 1
    assert "error:" in proc.stderr


def test_budget_cap_exit_code():
    proc = run_cli("run", str(GOLDEN), "--budget-cap", "3")
    assert proc.returncode == 2
    assert "budget exceeded" in proc.stderr


def test_bad_epochs_flag():
    proc = run_cli("run", str(GOLDEN), "--epochs", "0")
    assert proc.returncode == 1
    assert "--epochs" in proc.stderr


def test_remote_agent_without_endpoint_is_transport_failure():
    proc = run_cli("run", str(GOLDEN), "--agent", "remote",
                   drop_env=("AGENT_ENDPOINT",))
    assert proc.returncode == 3
    assert "agent transport failure" in proc.stderr


def test_remote_endpoint_without_scheme_is_transport_failure(monkeypatch,
                                                             capsys):
    from claimlattice.cli import main
    monkeypatch.setenv("AGENT_ENDPOINT", "localhost:9")
    code = main(["run", str(GOLDEN), "--agent", "remote"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("agent transport failure: ")


def test_file_endpoint_in_scenario_is_transport_failure(tmp_path, capsys):
    from claimlattice.cli import main
    secret = tmp_path / "secret.txt"
    secret.write_text("not for the run's artifacts")
    raw = json.loads(GOLDEN.read_text(encoding="utf-8"))
    raw["agent"]["endpoint"] = secret.as_uri()
    scenario = tmp_path / "file_endpoint.scenario"
    scenario.write_text(json.dumps(raw), encoding="utf-8")
    out = tmp_path / "out"
    code = main(["run", str(scenario), "--agent", "remote", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("agent transport failure: ")
    assert not (out / "requests.jsonl").exists()


@pytest.mark.parametrize("timeout", [1e10, 1e300])
def test_huge_agent_timeout_is_transport_failure(timeout, tmp_path, capsys):
    from claimlattice.cli import main
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    raw = json.loads(GOLDEN.read_text(encoding="utf-8"))
    raw["agent"] = {"backend": "remote", "timeout": timeout,
                    "endpoint": f"http://127.0.0.1:{port}/"}
    scenario = tmp_path / "huge_timeout.scenario"
    scenario.write_text(json.dumps(raw), encoding="utf-8")
    code = main(["run", str(scenario)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("agent transport failure: ")


def test_invariant_violation_is_engine_bug_exit(monkeypatch, capsys):
    from claimlattice import cli
    from claimlattice.errors import InvariantViolation

    def broken(*args, **kwargs):
        raise InvariantViolation("step 3 at 'n_2' modified node 'n_1'")

    monkeypatch.setattr(cli, "execute", broken)
    code = cli.main(["run", str(GOLDEN)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_BUG == 4
    assert captured.out == ""
    assert captured.err == "engine bug: step 3 at 'n_2' modified node 'n_1'\n"


def test_unexpected_exception_is_one_engine_bug_line(monkeypatch, capsys):
    from claimlattice import cli
    from claimlattice.scenario import build_initial_state
    from claimlattice.state import (EvidenceSeed, Polarity, SourceKind,
                                    mint_evidence, record_update)

    def reusing_an_id(scenario, **kwargs):
        state = build_initial_state(scenario)
        claim = scenario.claims[0]
        seed = EvidenceSeed(Polarity.SUPPORT, asmt.Strength.WEAK,
                            asmt.ConfidenceBasis.LOCATED, SourceKind.DOC,
                            "first reading")
        state, (record,) = mint_evidence(state, claim.node, claim.key, [seed],
                                         epoch=1, step=1)
        state = record_update(state, claim.node, claim.key,
                              asmt.bottom(state.kind), [record])
        forged = replace(record, excerpt="other content")
        record_update(state, claim.node, claim.key, asmt.bottom(state.kind),
                      [forged])

    monkeypatch.setattr(cli, "execute", reusing_an_id)
    code = cli.main(["run", str(GOLDEN)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_BUG == 4
    assert captured.out == ""
    assert captured.err == ("engine bug: ValueError: evidence id 'e000001' "
                            "reused with different content\n")


def test_budget_cap_of_one_passes_validation():
    proc = run_cli("run", str(GOLDEN), "--budget-cap", "1")
    assert proc.returncode == 2
    assert proc.stderr == ("budget exceeded: hard step cap 1 reached with "
                           "work pending\n")


def test_unusable_out_dir_fails_before_the_run(tmp_path, capsys, monkeypatch):
    from claimlattice import cli
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    runs = []
    monkeypatch.setattr(cli, "execute", lambda *a, **k: runs.append(a))
    code = cli.main(["run", str(GOLDEN), "--out", str(blocker / "sub")])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INPUT == 1
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: --out: ")
    assert runs == []
