"""Command line front end.

Two subcommands: ``run`` executes a scenario end to end and writes the trace,
report, and logs; ``check`` validates a scenario file and reports every
problem found without running anything.

Exit codes: 0 for a completed run (stabilized or epoch limit reached), 1 for
bad input of any kind, 2 for a blown termination budget, 3 for an agent
transport failure, 4 for an engine bug (a failed runtime soundness check, or
any exception the engine does not raise on purpose).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from . import assessment as asmt
from .errors import (
    AgentTransportError,
    BudgetExceeded,
    ClaimLatticeError,
    InvariantViolation,
    NoScriptEntry,
    ParseError,
    ScenarioError,
    ValidationError,
)
from .revision import (
    BoundedRevision,
    EpochConfig,
    EpochResult,
    RevisionGuard,
    export_revision_log,
    run_epochs,
)
from .scenario import Scenario, build_backend, build_initial_state, load_scenario
from .state import export_evidence_log
from .trace import render_table, to_json_lines
from .worklist import POLICY_NAMES, TerminationBudget, parse_policy

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BUDGET = 2
EXIT_TRANSPORT = 3
EXIT_BUG = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="claimlattice",
        description="Run claim-based program review scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario")
    run_p.add_argument("scenario", help="path to a scenario JSON file")
    run_p.add_argument("--policy", choices=POLICY_NAMES,
                       help="override the scenario's ordering policy")
    run_p.add_argument("--budget-cap", type=int, metavar="N",
                       help="override the hard step cap")
    run_p.add_argument("--trace", choices=("table", "json", "both"),
                       default="table", help="trace format (default: table)")
    run_p.add_argument("--out", metavar="DIR",
                       help="write trace, report, and logs into DIR instead "
                            "of stdout")
    run_p.add_argument("--epochs", type=int, metavar="N",
                       help="override the scenario's epoch limit")
    run_p.add_argument("--agent", choices=("scripted", "remote"),
                       help="override the scenario's agent backend")

    check_p = sub.add_parser("check", help="validate a scenario file")
    check_p.add_argument("scenario", help="path to a scenario JSON file")
    return parser


def _resolve_policy(scenario: Scenario, name: str | None):
    if name is None or name == scenario.policy.name:
        # Re-stating the scenario's own kind keeps its parameters (scripted
        # steps, goal node); only a genuine change rebuilds the policy.
        return scenario.policy
    goal_node = None
    if name == "goal-directed" and scenario.goal_claim is not None:
        for claim in scenario.claims:
            if claim.label == scenario.goal_claim:
                goal_node = claim.node
                break
    return parse_policy(name, goal_node=goal_node)


def execute(scenario: Scenario, *, policy=None, hard_step_cap: int | None = None,
            epoch_limit: int | None = None, backend_override: str | None = None,
            audit_sink: list | None = None) -> EpochResult:
    """Wire a loaded scenario into the engine and run it to completion."""
    state = build_initial_state(scenario)
    backend = build_backend(scenario, override=backend_override,
                            audit_sink=audit_sink)
    cap = hard_step_cap if hard_step_cap is not None else scenario.hard_step_cap
    budget = TerminationBudget.for_run(
        scenario.kind, scenario.caps, sorted(scenario.graph.all_nodes),
        hard_step_cap=cap)
    epochs = scenario.epochs
    if epoch_limit is not None:
        epochs = EpochConfig(epoch_limit=epoch_limit, plans=scenario.epochs.plans)
    bounded = None
    if scenario.bounded_moves:
        bounded = BoundedRevision(scenario.bounded_moves,
                                  RevisionGuard(scenario.limits),
                                  scenario.graph, scenario.caps)
    return run_epochs(
        scenario.graph, state,
        goal=scenario.goal,
        queries=scenario.queries,
        backend=backend,
        caps=scenario.caps,
        policy=policy if policy is not None else scenario.policy,
        budget=budget,
        epochs=epochs,
        declared_order=scenario.declared_order,
        excerpt_cap=scenario.excerpt_cap,
        agent_retries=scenario.agent.retries,
        bounded=bounded,
    )


def write_report(scenario: Scenario, result: EpochResult) -> str:
    """Human-readable run summary. The last line is the goal claim verdict."""
    lines = [
        f"scenario: {scenario.path or '<inline>'}",
        f"domain: {scenario.kind.value}",
        f"status: {result.status}",
        f"epochs run: {len(result.traces)}",
        f"steps: {result.steps}",
        f"assessment-change events: {result.trigger_events}",
        f"evidence records: {len(result.state.evidence)}",
        f"revision entries: {len(result.revision_log)}",
        "",
        "final assessments:",
    ]
    goal_line = None
    registry = result.traces[-1].columns if result.traces else ()
    claims = [(c.label, c.node, result.state.nodes[c.node].entries.get(c.key))
              for c in registry]
    # Then the claims that have no column: a generated claim whose first
    # evaluation failed gets one only at the next keyframe.
    labels = {c.label for c in registry}
    claims += [(entry.claim.label, node, entry)
               for node, table in result.state.nodes.items()
               for entry in table.entries.values()
               if entry.claim.label not in labels]
    for label, node, entry in claims:
        if entry is None or entry.claim.label != label:
            rendered = "(retracted)"
        else:
            rendered = asmt.pretty(entry.assessment)
        # Engine-minted labels (g<n>@<node>, r<n>@<node>) name their node.
        name = label if label.endswith(f"@{node}") else f"{label}@{node}"
        line = f"{name} = {rendered}"
        lines.append(f"  {line}")
        if label == scenario.goal_claim:
            goal_line = line
    lines.append("")
    if goal_line is not None:
        lines.append(goal_line)
    else:
        lines.append("no goal claim declared")
    return "\n".join(lines) + "\n"


def _render_traces(result: EpochResult, mode: str) -> tuple[str | None, str | None]:
    table = None
    jsonl = None
    if mode in ("table", "both"):
        table = "\n".join(render_table(trace) for trace in result.traces)
        if not table.endswith("\n"):
            table += "\n"
    if mode in ("json", "both"):
        jsonl = "".join(to_json_lines(trace) for trace in result.traces)
    return table, jsonl


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    if args.epochs is not None and args.epochs < 1:
        raise ValidationError(["--epochs must be a positive integer"])
    if args.budget_cap is not None and args.budget_cap < 1:
        raise ValidationError(["--budget-cap must be a positive integer"])
    try:
        policy = _resolve_policy(scenario, args.policy)
    except ValueError as exc:
        raise ValidationError([f"--policy: {exc}"]) from None
    if args.out:
        try:
            Path(args.out).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ClaimLatticeError(f"--out: {exc}") from None

    audit_sink: list = []
    backend_override = args.agent
    result = execute(
        scenario,
        policy=policy,
        hard_step_cap=args.budget_cap,
        epoch_limit=args.epochs,
        backend_override=backend_override,
        audit_sink=audit_sink,
    )

    table, jsonl = _render_traces(result, args.trace)
    report = write_report(scenario, result)

    if args.out:
        out_dir = Path(args.out)
        if table is not None:
            (out_dir / "trace.txt").write_text(table, encoding="utf-8")
        if jsonl is not None:
            (out_dir / "trace.jsonl").write_text(jsonl, encoding="utf-8")
        (out_dir / "report.txt").write_text(report, encoding="utf-8")
        (out_dir / "evidence.jsonl").write_text(
            export_evidence_log(result.state), encoding="utf-8")
        (out_dir / "revision.jsonl").write_text(
            export_revision_log(result.revision_log), encoding="utf-8")
        if audit_sink:
            payload = "".join(json.dumps(r, ensure_ascii=False, sort_keys=True)
                              + "\n" for r in audit_sink)
            (out_dir / "requests.jsonl").write_text(payload, encoding="utf-8")
        sys.stdout.write(report)
    else:
        if table is not None:
            sys.stdout.write(table)
        if jsonl is not None:
            sys.stdout.write(jsonl)
        sys.stdout.write(report)
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    print(f"ok: {len(scenario.graph.program.nodes)} program node(s), "
          f"{len(scenario.graph.aux_nodes)} aux node(s), "
          f"{len(scenario.claims)} seeded claim(s), "
          f"domain {scenario.kind.value}, policy {scenario.policy.name}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_check(args)
    except ValidationError as exc:
        print("scenario validation failed:", file=sys.stderr)
        for diagnostic in exc.diagnostics:
            print(f"  - {diagnostic}", file=sys.stderr)
        return EXIT_INPUT
    except (ParseError, ScenarioError, NoScriptEntry) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except AgentTransportError as exc:
        print(f"agent transport failure: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    except InvariantViolation as exc:
        print(f"engine bug: {exc}", file=sys.stderr)
        return EXIT_BUG
    except ClaimLatticeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        # Anything else is a fault in the engine, not in the input: one
        # line for the user, the traceback for whoever configures logging.
        log.debug("engine bug", exc_info=True)
        print(f"engine bug: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_BUG


if __name__ == "__main__":
    sys.exit(main())
