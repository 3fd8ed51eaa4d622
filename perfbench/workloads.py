"""Seeded scenario generators for the benchmark workloads.

Each generator is a pure function of its seed: it returns the scenario file
bytes the program loads, the reference final assessment of every claim, and,
for the remote workload, the answer table the loopback agent serves.

The references never touch ``claimlattice.assessment``. Every claim's
scripted answers rise monotonically and every answer is consumed by a correct
run (see the notes on each generator), so the final assessment of a claim is
the join of all its scripted answers:

* graded: the pointwise maximum of the (support, refute) strengths;
* stratified: per polarity, the level at basis k is the strongest record
  vetted to k or beyond (the rule in ``summarize_polarity``'s docstring),
  taken over every record of every answer.
"""

from __future__ import annotations

import hashlib
import json
import random

STRENGTHS = ("bot", "w", "s")
BASES = ("model", "located", "applicable", "corroborated", "checked")
GOAL = ("Determine whether the synthetic service enforces its input policy "
        "on every modeled path.")

WORKLOADS = ("chain-trace", "dense-context", "remote-loopback")


class Workload:
    """One generated input: the file the program sees and what it must yield."""

    def __init__(self, name: str, seed: int, data: dict,
                 reference: dict[str, list], answers: dict | None = None):
        self.name = name
        self.seed = seed
        self.scenario_bytes = (json.dumps(data, indent=1, sort_keys=True,
                                          ensure_ascii=False) + "\n").encode()
        self.sha256 = hashlib.sha256(self.scenario_bytes).hexdigest()
        self.reference = reference
        # (node, claim text) -> [visit-0 reply, later-visit reply]
        self.answers = answers
        goal = data["goal_claim"]
        node = next(c["node"] for c in data["claims"] if c["label"] == goal)
        self.expected_verdict = f"{goal}@{node} = {_pretty(reference[goal])}"


def _pretty(value: list) -> str:
    """The report's rendering of a serialized assessment."""
    chars = {"bot": "⊥", "w": "w", "s": "s"}
    support, refute = ("".join(chars[t] for t in (part if isinstance(part, list)
                                                  else [part]))
                       for part in value)
    if set(support + refute) == {"⊥"}:
        return "⊥²"
    return f"⟨{support},{refute}⟩"


def _record(polarity: str, strength: str, basis: str, excerpt: str,
            ref: str | None = None) -> dict:
    rec = {"polarity": polarity, "strength": strength, "basis": basis,
           "source_kind": "doc" if basis != "checked" else "code_observation",
           "excerpt": excerpt}
    if ref is not None:
        rec["ref"] = ref
    return rec


def _graded_of(records: list[dict]) -> list[str]:
    best = {"support": 0, "refute": 0}
    for rec in records:
        best[rec["polarity"]] = max(best[rec["polarity"]],
                                    STRENGTHS.index(rec["strength"]))
    return [STRENGTHS[best["support"]], STRENGTHS[best["refute"]]]


def _stratified_of(records: list[dict]) -> list[list[str]]:
    out = []
    for polarity in ("support", "refute"):
        levels = []
        for threshold in range(len(BASES)):
            grade = 0
            for rec in records:
                if (rec["polarity"] == polarity
                        and BASES.index(rec["basis"]) >= threshold):
                    grade = max(grade, STRENGTHS.index(rec["strength"]))
            levels.append(STRENGTHS[grade])
        out.append(levels)
    return out


def _chain(name: str, seed: int, n_nodes: int, lowered_nodes: int,
           remote: bool) -> Workload:
    """A graded chain: context edges i -> i+1, a feedback edge closing every
    block of 10 nodes, 4 seeded claims per node, FIFO order.

    Each claim answers A0 on its first visit and A1 > A0 on every later one,
    re-citing the first record by ``ref``. Every node is visited at least
    twice (a block's feedback edge re-wakes its head, and the head's rise
    re-wakes the whole block and the next block's head), so both answers are
    consumed and the final value is A0 ⊔ A1 = A1. A second epoch lowers every
    claim of ``lowered_nodes`` nodes; their re-visit answers A1 again.
    """
    rng = random.Random(f"{name}:{seed}")
    nodes = [f"n{i:04d}" for i in range(n_nodes)]
    chain_edges = [[nodes[i], nodes[i + 1]] for i in range(n_nodes - 1)]
    feedback = [[nodes[i + 9], nodes[i]] for i in range(0, n_nodes - 9, 10)]
    claims, script, reference, answers = [], [], {}, {}
    for i, node in enumerate(nodes):
        for j in range(4):
            label = f"c{i:04d}_{j}"
            text = f"Component {i} upholds invariant {j} of the input policy"
            claims.append({"node": node, "label": label, "text": text})
            first_pol = rng.choice(("support", "refute"))
            first = _record(first_pol, "w", rng.choice(BASES),
                            f"{node} invariant {j}: first reading of the "
                            f"relevant code path, seed {rng.randrange(10**6)}",
                            ref=f"r{i}_{j}_a")
            # The later answer adds a strictly stronger or new-polarity record.
            second_pol, second_strength = rng.choice(
                ((first_pol, "s"), ("support" if first_pol == "refute"
                                    else "refute", rng.choice(("w", "s")))))
            second = _record(second_pol, second_strength, rng.choice(BASES),
                             f"{node} invariant {j}: targeted follow-up after "
                             f"upstream change, seed {rng.randrange(10**6)}",
                             ref=f"r{i}_{j}_b")
            a0 = {"assessment": _graded_of([first]), "evidence": [first],
                  "rationale": "first look"}
            a1 = {"assessment": _graded_of([first, second]),
                  "evidence": [first, second], "rationale": "follow-up"}
            reference[label] = _graded_of([first, second])
            answers[(node, text)] = [a0, a1]
            for visit, reply in ((0, a0), ("*", a1)):
                script.append({"node": node, "claim": label, "visit": visit,
                               "action": "review", **reply})
    lowered = sorted(rng.sample(nodes, lowered_nodes))
    data = {
        "goal": GOAL,
        "domain": "graded",
        "graph": {
            "program_nodes": nodes,
            "program_edges": chain_edges,
            "aux_nodes": [],
            "context_edges": chain_edges,
            "feedback_edges": feedback,
            "neighborhood": {n: [n] for n in nodes},
            "sources": {n: f"def step_{n}(payload):\n    return check(payload)"
                        for n in nodes},
        },
        "claims": claims,
        "caps": {"default": 16},
        "policy": {"kind": "fifo"},
        "agent": ({"backend": "remote", "timeout": 30.0} if remote
                  else {"backend": "scripted", "script": script}),
        "goal_claim": f"c{n_nodes - 1:04d}_0",
        "revision": {
            "epoch_limit": 2,
            "plans": {"1": {"lowers": [
                {"node": n, "claim": f"c{int(n[1:]):04d}_{j}",
                 "reason": "re-establish after upstream advisory withdrawn"}
                for n in lowered for j in range(4)]}},
        },
    }
    return Workload(name, seed, data, reference, answers if remote else None)


def _dense(name: str, seed: int, n_nodes: int = 40) -> Workload:
    """A stratified clique: a context edge between every ordered pair of
    nodes, 2 claims per node, WTO order.

    Each claim's answers for visits 0, 1 and 2 rise strictly; the wildcard
    answer for every later visit is dominated by visit 2 (same or lower
    strength at the same or lower basis), so it mints two fresh records
    (no ``ref``) without moving the assessment. Every node is re-woken by 39
    predecessors, so it sees far more than three visits and every answer is
    consumed.
    """
    rng = random.Random(f"{name}:{seed}")
    nodes = [f"d{i:03d}" for i in range(n_nodes)]
    edges = [[a, b] for a in nodes for b in nodes if a != b]
    claims, script, reference = [], [], {}
    for i, node in enumerate(nodes):
        for j in range(2):
            label = f"k{i:03d}_{j}"
            text = f"Stage {i} keeps property {j} under every caller"
            claims.append({"node": node, "label": label, "text": text})
            p = rng.choice(("support", "refute"))
            q = "refute" if p == "support" else "support"
            b2 = rng.choice(BASES[2:])
            bw = rng.choice(BASES[:BASES.index(b2) + 1])

            def rec(pol, strength, basis, visit):
                return _record(pol, strength, basis,
                               f"{node} property {j}, visit {visit}: "
                               f"{pol} at {basis} ({rng.randrange(10**6)})")

            visits = [
                [rec(p, "w", "model", 0), rec(q, "w", "model", 0)],
                [rec(p, "w", "located", 1), rec(p, "s", "model", 1)],
                [rec(p, "s", b2, 2), rec(q, "w", "located", 2)],
                [rec(p, "w", bw, "n"), rec(q, "w", "model", "n")],
            ]
            pool = [r for batch in visits for r in batch]
            reference[label] = _stratified_of(pool)
            for visit, batch in zip((0, 1, 2, "*"), visits):
                script.append({"node": node, "claim": label, "visit": visit,
                               "action": "review", "evidence": batch,
                               "rationale": "stratified reading"})
    data = {
        "goal": GOAL,
        "domain": "stratified",
        "graph": {
            "program_nodes": nodes,
            "program_edges": [[nodes[i], nodes[i + 1]]
                              for i in range(n_nodes - 1)],
            "aux_nodes": [],
            "context_edges": edges,
            "feedback_edges": [],
            "neighborhood": {n: [n] for n in nodes},
            "sources": {n: f"def stage_{n}(x):\n    return guard(x)"
                        for n in nodes},
        },
        "claims": claims,
        "caps": {"default": 16},
        "policy": {"kind": "wto"},
        "agent": {"backend": "scripted", "script": script},
        "goal_claim": f"k{n_nodes - 1:03d}_0",
    }
    return Workload(name, seed, data, reference)


def generate(name: str, seed: int) -> Workload:
    if name == "chain-trace":
        return _chain(name, seed, n_nodes=400, lowered_nodes=8, remote=False)
    if name == "dense-context":
        return _dense(name, seed)
    if name == "remote-loopback":
        return _chain(name, seed, n_nodes=100, lowered_nodes=2, remote=True)
    raise ValueError(f"unknown workload {name!r}")
