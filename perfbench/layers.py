"""Per-layer spans, recorded from outside the program.

``Tracer.install()`` swaps each traced public function for a timing wrapper
in every ``claimlattice`` module that holds it, found by identity, so a name
imported with ``from .x import f`` is traced where it is looked up and not
only where it is defined. Spans are kept in memory (id, parent, name, start,
end); a span's self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from claimlattice.errors import MalformedResponse

# (defining module, attribute, span name). Functions are patched at every
# module that holds them; the agent entries are methods patched on the class.
SPANNED = (
    ("worklist", "run", "worklist.run"),
    ("transformer", "process_node", "transformer.process_node"),
    ("queries", "build_context", "queries.build_context"),
    ("queries", "render_prompt", "queries.render_prompt"),
    ("graph", "extended_predecessors", "graph.extended_predecessors"),
    ("state", "mint_evidence", "state.mint_evidence"),
    ("state", "record_update", "state.record_update"),
    ("revision", "apply_revision", "revision.apply_revision"),
    ("trace", "render_table", "trace.render_table"),
    ("trace", "to_json_lines", "trace.to_json_lines"),
    ("trace", "replay_json_lines", "trace.replay_json_lines"),
    ("cli", "execute", "cli.execute"),
    ("cli", "write_report", "cli.write_report"),
)
COUNTED = (("assessment", "join", "assessment.join"),)
AGENT_METHODS = (
    ("ScriptedAgent", "evaluate_claim"),
    ("ScriptedAgent", "generate_claims"),
    ("RemoteAgent", "evaluate_claim"),
    ("RemoteAgent", "generate_claims"),
)

# Spans every workload must record at least once; a rename in the program
# then fails the traced run instead of reading as zero.
ALWAYS_ACTIVE = (
    "worklist.run", "transformer.process_node", "queries.build_context",
    "graph.extended_predecessors", "state.mint_evidence", "state.record_update",
    "assessment.join", "agent.call", "trace.render_table", "trace.to_json_lines",
    "trace.replay_json_lines", "cli.execute", "cli.write_report",
)
ACTIVE_BY_WORKLOAD = {
    "chain-trace": ALWAYS_ACTIVE + ("revision.apply_revision",),
    "dense-context": ALWAYS_ACTIVE,
    "remote-loopback": ALWAYS_ACTIVE + ("revision.apply_revision",
                                        "queries.render_prompt"),
}


class Tracer:
    """Spans and counts of one traced operation, kept in memory."""

    def __init__(self):
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.agent_call_s: list[float] = []
        self.malformed = 0
        self.pred_claims = 0
        self._stack: list[list] = []  # [span id, time in direct children]
        self._restore: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.spans) + len(self._stack)
            parent = self._stack[-1][0] if self._stack else None
            frame = [sid, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except MalformedResponse:
                self.malformed += 1
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                if self._stack:
                    self._stack[-1][1] += duration
                self.spans.append((sid, parent, name, start, end))
                self.calls[name] += 1
                self.total_s[name] += duration
                self.self_s[name] += duration - frame[1]
                if name == "agent.call":
                    self.agent_call_s.append(duration)
            if name == "queries.build_context":
                self.pred_claims += len(result.pred_states)
            return result
        return wrapper

    def _counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch_everywhere(self, module: str, attr: str, make) -> None:
        original = getattr(sys.modules[f"claimlattice.{module}"], attr)
        wrapped = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "claimlattice" and not mod_name.startswith("claimlattice."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def install(self) -> None:
        import claimlattice.agent as agent_mod
        import claimlattice.cli  # noqa: F401  (loads every layer module)

        for module, attr, name in SPANNED:
            self._patch_everywhere(module, attr,
                                   functools.partial(self._span, name))
        for module, attr, name in COUNTED:
            self._patch_everywhere(module, attr,
                                   functools.partial(self._counter, name))
        for cls_name, method in AGENT_METHODS:
            cls = getattr(agent_mod, cls_name)
            original = cls.__dict__[method]
            self._restore.append((cls, method, original))
            setattr(cls, method, self._span("agent.call", original))

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def missing(self, workload: str) -> list[str]:
        return [name for name in ACTIVE_BY_WORKLOAD[workload]
                if self.calls[name] == 0]

    def summary(self) -> dict:
        """What ``layer_metrics`` needs, as plain JSON-ready data."""
        return {"calls": dict(self.calls), "total_s": dict(self.total_s),
                "self_s": dict(self.self_s),
                "agent_call_s": self.agent_call_s,
                "malformed": self.malformed, "pred_claims": self.pred_claims}

    def write_spans(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in sorted(self.spans):
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def layer_metrics(tr: dict, it: dict, server: dict | None) -> dict[str, float]:
    """Per-layer numbers of one traced operation.

    ``tr`` is ``Tracer.summary()``; ``it`` holds what the benchmark measured
    around the run (step counts, artifact sizes, phase times); ``server`` the
    loopback agent's own tallies, or None on scripted workloads.
    """
    calls = Counter(tr["calls"])
    total = defaultdict(float, tr["total_s"])
    self_s = defaultdict(float, tr["self_s"])
    agent_calls = calls["agent.call"]
    call_ms = [d * 1e3 for d in tr["agent_call_s"]] or [0.0]
    client_s = total["agent.call"] - total["queries.render_prompt"]
    server_s = server["handled_s"] if server else 0.0
    contexts = calls["queries.build_context"]
    return {
        "worklist.self_s": self_s["worklist.run"],
        "worklist.steps": it["steps"],
        "worklist.trigger_events": it["trigger_events"],
        "worklist.enqueues": it["enqueues"],
        "worklist.useful_step_ratio": it["useful_steps"] / it["steps"],
        "worklist.evidence_only_steps": it["evidence_only_steps"],
        "trace.rows": it["rows"],
        "trace.cells": it["cells"],
        "trace.to_json_lines_s": total["trace.to_json_lines"],
        "trace.render_table_s": total["trace.render_table"],
        "trace.replay_s": total["trace.replay_json_lines"],
        "trace.jsonl_bytes": it["trace_jsonl_bytes"],
        "trace.table_bytes": it["trace_table_bytes"],
        "cli.execute_s": total["cli.execute"],
        "cli.write_report_s": total["cli.write_report"],
        "cli.write_artifacts_s": it["write_s"],
        "queries.build_context_s": self_s["queries.build_context"],
        "queries.pred_claims_per_context": (tr["pred_claims"] / contexts
                                            if contexts else 0.0),
        "queries.render_prompt_s": total["queries.render_prompt"],
        "graph.extended_predecessors_s": total["graph.extended_predecessors"],
        "graph.extended_predecessors_calls": calls["graph.extended_predecessors"],
        "state.mint_evidence_s": total["state.mint_evidence"],
        "state.record_update_s": total["state.record_update"],
        "state.record_update_calls": calls["state.record_update"],
        "state.evidence_records": it["evidence_records"],
        "assessment.join_calls": calls["assessment.join"],
        "transformer.process_node_s": total["transformer.process_node"],
        "transformer.self_s": self_s["transformer.process_node"],
        "agent.calls": agent_calls,
        "agent.call_p50_ms": percentile(call_ms, 50),
        "agent.call_p99_ms": percentile(call_ms, 99),
        "agent.server_s": server_s,
        "agent.transport_ms_per_call": ((client_s - server_s) * 1e3 / agent_calls
                                        if server and agent_calls else 0.0),
        "agent.connections_per_call": (server["connections"] / agent_calls
                                       if server and agent_calls else 0.0),
        "agent.malformed": tr["malformed"],
        "revision.apply_revision_s": total["revision.apply_revision"],
        "revision.entries": it["revision_entries"],
    }
