"""Benchmark: time to verdict, audit replay and agent overhead.

Run from the repository root:

    python3 perfbench/run.py --workload chain-trace --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` reports the end-to-end metrics of untraced operations;
``--trace 1`` reports per-layer metrics from operations with spans around
each layer, plus the tracing overhead. Every operation runs in a fresh child
process, as one CLI run would. The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Any wrong verdict,
wrong final state, failed replay or drifting count makes the command exit 1.
Without ``src/claimlattice`` next to this directory it exits 2 and prints no
result. ``perfbench/README.md`` describes the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
CHILD_TIMEOUT_S = 120
REPLAY_MIN_S = 0.3
MAX_OPERATIONS = 64

SHIPPED_VERDICTS = {
    "opaque_review.scenario": "c_G@n_5 = ⟨⊥,s⟩",
    "opaque_review_revision.scenario": "c_G@n_5 = ⟨⊥,s⟩",
}
# Counts that must repeat exactly across every run of one seed.
EXACT = ("steps", "trigger_events", "evidence_records", "trace_jsonl_bytes",
         "artifact_bytes")


class Tally:
    """Operations attempted and the ones that failed, with the reason."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        self.failed += bool(problems)
        for problem in problems:
            self.errors.append(f"{what}: {problem}")
            print(f"FAIL {what}: {problem}", file=sys.stderr)
        return not problems


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _src_digest() -> str:
    return _digest((ROOT / "src" / "claimlattice").rglob("*.py"))


def _environment(seed: int) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    try:
        from importlib.metadata import PackageNotFoundError, version
        requests_version = version("requests")
    except PackageNotFoundError:
        requests_version = None
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": _src_digest(),
        "requests": requests_version,
        "seed": seed,
    }


# --- one operation, in a fresh child process ---------------------------------

def setup_once(path: Path):
    """Load and validate, build the initial state, construct the backend.
    Returns ((total, load, initial state) seconds, the loaded scenario)."""
    from claimlattice import scenario

    t0 = time.perf_counter()
    scn = scenario.load_scenario(path)
    t1 = time.perf_counter()
    scenario.build_initial_state(scn)
    t2 = time.perf_counter()
    scenario.build_backend(scn)
    t3 = time.perf_counter()
    return (t3 - t0, t1 - t0, t2 - t1), scn


def operation(scn, out: Path, replay_min_s: float) -> dict:
    """Run a loaded scenario to its verdict, write every ``--out`` artifact
    into a fresh directory, then replay ``trace.jsonl`` from disk, repeating
    the replay until ``replay_min_s`` of it has been timed."""
    from claimlattice import assessment as asmt, cli, trace

    shutil.rmtree(out, ignore_errors=True)
    gc.collect()
    sink: list = []
    t0 = time.perf_counter()
    result = cli.execute(scn, audit_sink=sink)
    t1 = time.perf_counter()
    table = "\n".join(cli.render_table(t) for t in result.traces)
    if not table.endswith("\n"):
        table += "\n"
    jsonl = "".join(cli.to_json_lines(t) for t in result.traces)
    report = cli.write_report(scn, result)
    t2 = time.perf_counter()
    out.mkdir(parents=True, exist_ok=True)
    files = {
        "trace.txt": table,
        "trace.jsonl": jsonl,
        "report.txt": report,
        "evidence.jsonl": cli.export_evidence_log(result.state),
        "revision.jsonl": cli.export_revision_log(result.revision_log),
    }
    if sink:
        files["requests.jsonl"] = "".join(
            json.dumps(r, ensure_ascii=False, sort_keys=True) + "\n" for r in sink)
    for name, text in files.items():
        (out / name).write_text(text, encoding="utf-8")
    t3 = time.perf_counter()
    del table, jsonl, files

    final = {}
    for column in result.traces[-1].columns:
        entry = result.state.nodes[column.node].entries.get(column.key)
        if entry is not None:
            final[column.label] = asmt.to_json(entry.assessment)
    steps = [s for t in result.traces for s in t.steps]
    node_steps = [s for s in steps if s.node is not None]
    sizes = {name: (out / name).stat().st_size for name in os.listdir(out)}
    counts = {
        "steps": result.steps,
        "trigger_events": result.trigger_events,
        "evidence_records": len(result.state.evidence),
        "trace_jsonl_bytes": sizes["trace.jsonl"],
        "artifact_bytes": sum(sizes.values()),
        "trace_table_bytes": sizes["trace.txt"],
        "enqueues": sum(len(s.enqueued) for s in steps),
        "rows": len(steps),
        "cells": sum(len(s.assessments) for s in steps),
        "useful_steps": sum(1 for s in node_steps if s.ac_changed),
        "evidence_only_steps": sum(1 for s in node_steps if s.evidence_only),
        "revision_entries": len(result.revision_log),
    }
    status, kind = result.status, scn.kind
    # The audit replays the trace file alone, as an auditor would, so the
    # run's objects are dropped first and do not load the replay's collector.
    del result, steps, node_steps, sink
    gc.collect()
    written = (out / "trace.jsonl").read_text(encoding="utf-8")
    replays: list[float] = []
    while not replays or sum(replays) < replay_min_s:
        t4 = time.perf_counter()
        replayed = trace.replay_json_lines(written, kind)
        replays.append(time.perf_counter() - t4)
    return {
        "run_s": t3 - t0,
        "execute_s": t1 - t0,
        "write_s": t3 - t2,
        "replay_s": statistics.median(replays),
        "status": status,
        "verdict": report.rstrip().splitlines()[-1],
        "final": final,
        "replay_matches": replayed == final,
        "counts": counts,
    }


def child_main(name: str, seed: int, path: Path, traced: bool) -> int:
    """Set up, run one operation, print its measurements as one JSON line."""
    import layers

    work = WORK / f"{name}-{seed}"
    setup, scn = setup_once(path)
    tracer = layers.Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    try:
        # A small trace replays in milliseconds, so untraced operations time
        # several replays and keep the median; a traced one replays once, so
        # its per-layer counts stay exact.
        op = operation(scn, work / "out", 0.0 if traced else REPLAY_MIN_S)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        op["tracer"] = tracer.summary()
        op["missing_layers"] = tracer.missing(name)
        tracer.write_spans(work / "spans.jsonl")
    op["setup"] = setup
    op["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(op))
    return 0


# --- the parent: gate, operations, verification, metrics ---------------------

def run_shipped(cli, tally: Tally) -> None:
    """Both shipped scenarios through ``cli.main``; check the goal verdicts."""
    for name, verdict in SHIPPED_VERDICTS.items():
        out = io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = cli.main(["run", str(ROOT / "scenarios" / name)])
        except Exception as exc:
            tally.check(f"shipped {name}", [f"raised {exc!r}"])
            continue
        lines = out.getvalue().rstrip().splitlines()
        last = lines[-1] if lines else ""
        problems = [] if code == 0 else [f"exit code {code}"]
        if last != verdict:
            problems.append(f"verdict {last!r}, expected {verdict!r}")
        tally.check(f"shipped {name}", problems)


def spawn_operation(wl, path: Path, traced: bool,
                    server) -> tuple[dict | None, list[str]]:
    """One operation in a fresh process. The loopback agent, when the
    workload has one, runs here in the parent, so its threads never compete
    with the engine for the child's interpreter lock."""
    from claimlattice.agent import ENDPOINT_ENV

    cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl.name,
           "--seed", str(wl.seed), "--trace", str(int(traced)),
           "--child", str(path)]
    # Loopback only: never route the agent calls through a configured proxy.
    env = {**os.environ, "NO_PROXY": "127.0.0.1", "no_proxy": "127.0.0.1"}
    if server is not None:
        server.reset()
        env[ENDPOINT_ENV] = server.url
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, [f"operation took over {CHILD_TIMEOUT_S} s"]
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, [f"exit {proc.returncode}: {proc.stderr.strip()[-600:]}"]
    op = json.loads(lines[-1])
    op["server"] = None if server is None else {
        "handled_s": server.handled_s, "connections": server.connections,
        "requests": server.requests}
    return op, []


def verify(wl, op: dict) -> list[str]:
    problems = []
    if op["status"] != "stabilized":
        problems.append(f"status {op['status']}")
    final = op["final"]
    wrong = sorted(k for k in wl.reference if final.get(k) != wl.reference[k])
    if wrong or len(final) != len(wl.reference):
        problems.append(f"{len(wrong)} final assessments differ from the "
                        f"reference, first {wrong[:3]}")
    if not op["replay_matches"]:
        problems.append("replaying trace.jsonl does not reproduce the final state")
    if op["verdict"] != wl.expected_verdict:
        problems.append(f"verdict {op['verdict']!r}, expected {wl.expected_verdict!r}")
    if op.get("missing_layers"):
        problems.append("layers recorded no calls: " + ", ".join(op["missing_layers"]))
    return problems


def check_counts(wl, counts: dict, tally: Tally) -> None:
    """Exact-repeat counts across every run of this seed, for unchanged
    program and benchmark sources."""
    record_path = WORK / "counts" / f"{wl.name}-{wl.seed}.json"
    record = {
        "bench_sha256": _digest(HERE.glob("*.py")),
        "src_sha256": _src_digest(),
        "scenario_sha256": wl.sha256,
        "counts": {k: counts[k] for k in EXACT},
    }
    problems = []
    if record_path.exists():
        old = json.loads(record_path.read_text())
        if (old["bench_sha256"], old["src_sha256"]) == (record["bench_sha256"],
                                                       record["src_sha256"]):
            for key in ("scenario_sha256", "counts"):
                if old[key] != record[key]:
                    problems.append(f"{key} drifted from an earlier run of this "
                                    f"seed: {old[key]} -> {record[key]}")
    if not problems:
        record_path.parent.mkdir(parents=True, exist_ok=True)
        record_path.write_text(json.dumps(record, indent=1) + "\n")
    tally.check("repeat counts across runs", problems)


def tail(values: list[float]) -> tuple[float, str]:
    """The highest nearest-rank percentile with at least 10 samples beyond
    it. Below 20 samples no percentile above the median qualifies, so the
    tail is the slowest sample."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return ordered[-1], f"max of {n}"
    q = math.floor(100 * (n - 10) / n)
    return ordered[math.ceil(n * q / 100) - 1], f"p{q} of {n}"


def _declared(kind: str, values: dict) -> dict:
    """The metrics ``BENCHMARK.json`` declares under ``kind``, with units."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared}


def end_to_end(plain: list[dict]) -> dict:
    values = {
        "setup_s": statistics.median(op["setup"][0] for op in plain),
        "run_s": statistics.median(op["run_s"] for op in plain),
        "steps_per_s": statistics.median(op["counts"]["steps"] / op["execute_s"]
                                         for op in plain),
        "replay_s": statistics.median(op["replay_s"] for op in plain),
        "peak_rss_mb": statistics.median(op["peak_rss_mb"] for op in plain),
        "trace_jsonl_bytes": plain[0]["counts"]["trace_jsonl_bytes"],
        "artifact_bytes": plain[0]["counts"]["artifact_bytes"],
    }
    return _declared("end_to_end", values)


def unbounded(plain: list[dict], tally: Tally) -> dict:
    """Reported, but too unsteady between runs on a shared 2-CPU host to
    hold to a bound (see README.md)."""
    out = {"failed_frac": {"value": tally.failed / tally.attempted,
                           "unit": "ratio"}}
    if plain:
        tail_s, tail_label = tail([op["run_s"] for op in plain])
        out["run_s_tail"] = {"value": tail_s, "unit": "s", "of": tail_label}
        out["engine_overhead_s"] = {"value": statistics.median(
            op["run_s"] - (op["server"]["handled_s"] if op["server"] else 0.0)
            for op in plain), "unit": "s"}
    return out


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    import layers

    per_op = [layers.layer_metrics(op["tracer"], {**op["counts"],
                                                  "write_s": op["write_s"]},
                                   op["server"]) for op in traced]
    values = {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
    setups = [op["setup"] for op in plain + traced]
    values["scenario.load_s"] = statistics.median(s[1] for s in setups)
    values["state.initial_state_s"] = statistics.median(s[2] for s in setups)
    values["tracing.overhead_s"] = (
        statistics.median(op["run_s"] for op in traced)
        - statistics.median(op["run_s"] for op in plain))
    return _declared("per_layer", values)


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    from claimlattice import cli
    import workloads

    tally = Tally()
    env = _environment(seed)
    run_shipped(cli, tally)

    wl = workloads.generate(name, seed)
    tally.check("generator determinism",
                [] if workloads.generate(name, seed).scenario_bytes == wl.scenario_bytes
                else ["same seed gave different scenario bytes"])
    work = WORK / f"{name}-{seed}"
    work.mkdir(parents=True, exist_ok=True)
    path = work / "scenario.json"
    path.write_bytes(wl.scenario_bytes)

    # Untraced operations only, or untraced and traced ones alternating.
    plain: list[dict] = []
    traced_ops: list[dict] = []
    first_counts = None
    server_cm = nullcontext()
    if wl.answers is not None:
        from loopback import LoopbackAgent
        server_cm = LoopbackAgent(wl.answers)
    deadline = time.perf_counter() + seconds
    with server_cm as server:
        for index in range(MAX_OPERATIONS):
            use_tracer = traced and index % 2 == 1
            op, problems = spawn_operation(wl, path, use_tracer, server)
            if op is not None:
                problems += verify(wl, op)
                if first_counts is None:
                    first_counts = op["counts"]
                elif op["counts"] != first_counts:
                    problems.append(f"counts drifted within the run: "
                                    f"{first_counts} -> {op['counts']}")
            if tally.check(f"operation {index}", problems):
                (traced_ops if use_tracer else plain).append(op)
            if op is None:
                break  # crashed or hung: more operations would only repeat it
            enough = len(plain) >= 3 and (len(traced_ops) >= 1 or not traced)
            if time.perf_counter() >= deadline and (enough or tally.failed):
                break
    if first_counts is not None:
        check_counts(wl, first_counts, tally)

    metrics = {}
    if plain and not traced:
        metrics = end_to_end(plain)
    elif plain and traced_ops:
        metrics = per_layer(plain, traced_ops)
    extra = unbounded(plain, tally)

    results = {"workload": name, "trace": int(traced), "env": env,
               "scenario_sha256": wl.sha256, "attempted": tally.attempted,
               "failed": tally.failed, "errors": tally.errors,
               "operations": {"untraced": len(plain), "traced": len(traced_ops)},
               "run_s_samples": [op["run_s"] for op in plain],
               "metrics": metrics, "unbounded": extra}
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    (WORK / "results" / f"{name}-seed{seed}-trace{int(traced)}.json").write_text(
        json.dumps(results, indent=1, ensure_ascii=False) + "\n")

    print(f"perfbench {name} seed={seed} trace={int(traced)} "
          f"scenario_sha256={wl.sha256[:16]} " + " ".join(
              f"{k}={v}" for k, v in env.items() if k != "seed"))
    print(f"  operations: {len(plain)} untraced, {len(traced_ops)} traced; "
          f"{tally.failed} of {tally.attempted} checks failed")
    for key, metric in metrics.items():
        print(f"  {key:34s} {metric['value']:16.6f} {metric['unit']}")
    for key, metric in extra.items():
        note = f", {metric['of']}" if "of" in metric else ""
        print(f"  {key:34s} {metric['value']:16.6f} {metric['unit']}"
              f"  (not bounded{note})")
    correct = tally.failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, traced: bool) -> int:
    """Every workload in its own process; one row per workload."""
    import workloads

    rows = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(traced))],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        rows[name] = json.loads(lines[-1]) if lines else {
            "correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        results = WORK / "results" / f"{name}-seed{seed}-trace{int(traced)}.json"
        rows[name]["shown"] = {**rows[name]["metrics"], **(
            json.loads(results.read_text())["unbounded"] if results.exists() else {})}
    units = {k: m["unit"] for r in rows.values() for k, m in r["shown"].items()}
    heads = {k: f"{k} ({u})" for k, u in units.items()}
    print("workload".ljust(16) + "".join(f"  {h:>12s}" for h in heads.values()))
    for name, r in rows.items():
        print(name.ljust(16) + "".join(
            f"  {(format(r['shown'][k]['value'], '.6g') if k in r['shown'] else '-'):>{len(h)}s}"
            for k, h in heads.items()))
    correct = all(r["correct"] for r in rows.values())
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in rows.values()),
                      "failed": sum(r["failed"] for r in rows.values()),
                      "metrics": {f"{w}/{k}": m for w, r in rows.items()
                                  for k, m in r["metrics"].items()}}))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "claimlattice" / "__init__.py").is_file():
        print(f"perfbench: no src/claimlattice under {ROOT}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be all or one of {workloads.WORKLOADS}")
    if args.child is not None:
        return child_main(args.workload, args.seed, args.child, bool(args.trace))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
