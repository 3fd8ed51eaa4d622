"""Run traces: the step-by-step record a run leaves behind.

Two renderings share one structure: an analyst-facing text table (one row
per step, one column per claim, a join column, the worklist after the step)
and machine-readable JSON lines. The JSON form carries every join with its
operands, so a trace can be replayed from its first row and checked against
the final state bit for bit.

Each row stores its changes: a keyframe (an init or revision row, which has
no node) holds every cell, and a node row only the cells its step changed.
By the frame property those are all cells of the row's own node.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

from . import assessment as asmt
from .errors import ScenarioError

__all__ = [
    "ClaimColumn",
    "ColumnRegistry",
    "JoinRecord",
    "TraceStep",
    "RunTrace",
    "render_table",
    "to_json_lines",
    "replay_json_lines",
    "SCHEMA",
]

# Version of the JSON trace: keyframes carry it, node rows store ``changed``.
SCHEMA = 2


@dataclass(frozen=True)
class ClaimColumn:
    label: str
    node: str
    key: str


class ColumnRegistry:
    """Stable claim-column order: seeded claims first (declaration order),
    then generated claims as they appear. Shared across epochs so tables
    stay aligned. A slot that gets a new label (its claim was retracted)
    retires the old column: its key becomes "", which no claim key equals."""

    def __init__(self):
        self._columns: list[ClaimColumn] = []
        self._slots: dict[tuple[str, str], int] = {}

    def add(self, label: str, node: str, key: str) -> None:
        slot = (node, key)
        index = self._slots.get(slot)
        if index is not None:
            if self._columns[index].label == label:
                return
            self._columns[index] = replace(self._columns[index], key="")
        self._slots[slot] = len(self._columns)
        self._columns.append(ClaimColumn(label=label, node=node, key=key))

    def holds(self, label: str, node: str, key: str) -> bool:
        """Whether ``label`` has the live column of slot (node, key)."""
        index = self._slots.get((node, key))
        return index is not None and self._columns[index].label == label

    @property
    def columns(self) -> tuple[ClaimColumn, ...]:
        return tuple(self._columns)


@dataclass(frozen=True)
class JoinRecord:
    node: str
    key: str
    label: str
    old: asmt.Assessment
    contributed: asmt.Assessment
    new: asmt.Assessment
    evidence_added: tuple[str, ...] = ()
    inserted: bool = False

    @property
    def absorbed(self) -> bool:
        return self.new == self.old

    def expression(self) -> str:
        expr = f"{asmt.pretty(self.old)} ⊔ {asmt.pretty(self.contributed)}"
        if self.absorbed:
            expr += f" = {asmt.pretty(self.new)}"
        return expr


@dataclass(frozen=True)
class TraceStep:
    index: int
    node: str | None
    action: str
    # (label, assessment) pairs this row stores: every claim column, in
    # column order, for a keyframe (None marks a claim that does not exist);
    # the cells its step changed for a node row.
    cells: tuple[tuple[str, asmt.Assessment | None], ...]
    joins: tuple[JoinRecord, ...]
    worklist_after: tuple[str, ...]
    ac_changed: bool
    evidence_only: bool = False
    diagnostics: tuple[str, ...] = ()
    enqueued: tuple[tuple[str, str], ...] = ()  # (node, cause) audit
    previous: TraceStep | None = field(default=None, compare=False,
                                       repr=False)

    @property
    def assessments(self) -> tuple[tuple[str, asmt.Assessment | None], ...]:
        """Every claim column at this step, in column order: the last
        keyframe with the rows after it folded on."""
        rows = []
        step = self
        while step.node is not None:
            rows.append(step.cells)
            step = step.previous
        cells = dict(step.cells)
        for changed in reversed(rows):
            cells.update(changed)
        return tuple(cells.items())


@dataclass
class RunTrace:
    epoch: int
    columns: tuple[ClaimColumn, ...] = ()
    steps: list[TraceStep] = field(default_factory=list)


def _join_cell(step: TraceStep) -> str:
    """Join column: expressions of the claims that moved, or, when nothing
    moved, the absorbing expressions that prove it. Multiple expressions get
    their claim labels as prefixes."""
    if step.node is None:
        return "-"
    shown = [j for j in step.joins if not j.absorbed]
    if not shown:
        shown = list(step.joins)
    if not shown:
        return "-"
    if len(shown) == 1:
        return shown[0].expression()
    return "; ".join(f"{j.label}: {j.expression()}" for j in shown)


def _worklist_cell(members: tuple[str, ...]) -> str:
    if not members:
        return "∅"
    return "{" + ", ".join(members) + "}"


def render_table(trace: RunTrace) -> str:
    """Fixed-width text table, one row per step. Unchanged claim cells print
    a middle dot; claims that do not exist print a dash. A row pads only the
    cells it stores, over a running base of dots and dashes."""
    labels = [c.label for c in trace.columns]
    header = ["Step", "Node", "Action", *labels, "Join", "W after step"]
    widths = [len(h) for h in header]
    fixed = (0, 1, 2, -2, -1)  # the columns that are not claims
    position = {label: i for i, label in enumerate(labels)}
    values: list = [None] * len(labels)
    rows: list[tuple[list[str], list[tuple[int, str]]]] = []
    for step in trace.steps:
        printed = []
        for label, value in step.cells:
            i = position[label]
            text = ("-" if value is None else "·" if rows and value == values[i]
                    else asmt.pretty(value))
            values[i] = value
            printed.append((i, text))
            widths[3 + i] = max(widths[3 + i], len(text))
        row = [str(step.index), step.node or "-", step.action,
               _join_cell(step), _worklist_cell(step.worklist_after)]
        for column, cell in zip(fixed, row):
            widths[column] = max(widths[column], len(cell))
        rows.append((row, printed))

    dots = ["·".ljust(w) for w in widths[3:-2]]
    dashes = ["-".ljust(w) for w in widths[3:-2]]
    base = dashes.copy()
    lines = [" | ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip(),
             "-+-".join("-" * w for w in widths)]
    for row, printed in rows:
        padded = [cell.ljust(widths[column]) for column, cell in zip(fixed, row)]
        claims = base.copy()
        for i, text in printed:
            claims[i] = text.ljust(widths[3 + i])
            base[i] = dashes[i] if text == "-" else dots[i]
        lines.append(" | ".join(padded[:3] + claims + padded[3:]).rstrip())
    return "\n".join(lines) + "\n"


def to_json_lines(trace: RunTrace) -> str:
    """One JSON object per row: a keyframe stores every cell under
    ``assessments`` and its ``schema``, a node row its ``changed`` cells."""
    out = []
    for step in trace.steps:
        stored = {label: None if value is None else asmt.to_json(value)
                  for label, value in step.cells}
        payload = {
            "step": step.index,
            "epoch": trace.epoch,
            "node": step.node,
            "action": step.action,
            "joins": [
                {
                    "node": j.node,
                    "claim": j.key,
                    "label": j.label,
                    "old": asmt.to_json(j.old),
                    "contributed": asmt.to_json(j.contributed),
                    "new": asmt.to_json(j.new),
                    "absorbed": j.absorbed,
                }
                for j in step.joins
            ],
            "worklist_after": list(step.worklist_after),
            "ac_changed": step.ac_changed,
            "evidence_only": step.evidence_only,
            "diagnostics": list(step.diagnostics),
        }
        if step.node is None:
            payload.update(assessments=stored, schema=SCHEMA)
        else:
            payload["changed"] = stored
        out.append(json.dumps(payload, ensure_ascii=False, sort_keys=True))
    return "\n".join(out) + ("\n" if out else "")


def replay_json_lines(text: str, kind: asmt.DomainKind) -> dict[str, list]:
    """Re-derive the final assessments from a JSON trace.

    Folds every join from the last keyframe, checking that old values chain
    (a claim unseen since the keyframe starts at bottom), that old ⊔
    contributed is the recorded new value, and that a row's ``changed`` is
    exactly the claims with a column that a join moved plus those it
    inserted, at their new values. Rows split on "\\n" only: labels may hold
    other line separators. Returns the final label -> serialized-assessment
    map. Raises ScenarioError on any drift, and on a malformed row with
    its 1-based line number.
    """
    bottom = asmt.to_json(asmt.bottom(kind))
    values: dict[str, list] = {}
    columns: set[str] = set()
    for number, line in enumerate(text.split("\n"), 1):
        if not line.strip():
            continue
        try:
            step = json.loads(line)
            if step["node"] is None:
                columns = set(step["assessments"])
                values = {label: value
                          for label, value in step["assessments"].items()
                          if value is not None}
                continue
            if "changed" not in step:
                raise ScenarioError(
                    f"step {step['step']} has no 'changed' cells; replay reads "
                    f"trace schema {SCHEMA}, whose node rows store only those")
            changed = step["changed"]
            implied: dict[str, list] = {}
            for join_rec in step["joins"]:
                label = join_rec["label"]
                old = asmt.from_json(kind, join_rec["old"])
                contributed = asmt.from_json(kind, join_rec["contributed"])
                new = asmt.from_json(kind, join_rec["new"])
                if asmt.join(old, contributed) != new:
                    raise ScenarioError(
                        f"step {step['step']} records a join that does not "
                        f"hold for {label}")
                chained = values.get(label, bottom)
                if asmt.from_json(kind, chained) != old:
                    raise ScenarioError(
                        f"step {step['step']} join for {label} starts from "
                        f"{join_rec['old']} but the replayed value is {chained}")
                values[label] = join_rec["new"]
                if (new != old) if label in columns else label in changed:
                    implied[label] = join_rec["new"]
            if changed != implied:
                raise ScenarioError(
                    f"step {step['step']} records changed cells {changed} but "
                    f"its joins imply {implied}")
            columns.update(changed)
        except (AttributeError, KeyError, TypeError, ValueError,
                RecursionError) as exc:
            raise ScenarioError(f"trace line {number} is not a valid row: "
                                f"{type(exc).__name__}: {exc}") from None
    return values
