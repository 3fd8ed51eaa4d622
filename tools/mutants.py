"""Small mutation tester: flip one operator at a time and run named tests.

Each mutant flips one comparison (``==``/``!=``, ``<``/``>=``, ``in``/``not
in``, ...), one ``and``/``or``, drops one ``not`` (``not x`` becomes ``not
not x``) or flips one boolean constant, inside the named functions only. It
is written into a copy of ``src/`` and ``tests/`` under ``--workdir``, and
the named tests run there with ``-x``. One JSON line per mutant goes to
stdout; ``killed`` is false for a mutant that every test let through. A
mutant whose tests run past ``TIMEOUT_S`` (a loop that no longer ends)
counts as killed.

    python tools/mutants.py --workdir /tmp/mutants \\
        --file src/claimlattice/worklist.py --functions push,pop \\
        tests/test_worklist.py tests/test_differential.py
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
FLIP = {ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.GtE, ast.GtE: ast.Lt,
        ast.Gt: ast.LtE, ast.LtE: ast.Gt, ast.In: ast.NotIn, ast.NotIn: ast.In,
        ast.Is: ast.IsNot, ast.IsNot: ast.Is}
TIMEOUT_S = 600


def sites(tree: ast.AST, functions: set[str]):
    """Yield (function, node, operand index or None) in a fixed order."""
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef) or fn.name not in functions:
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Compare):
                for i, op in enumerate(node.ops):
                    if type(op) in FLIP:
                        yield fn.name, node, i
            elif isinstance(node, ast.BoolOp) or (
                    isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not)) or (
                    isinstance(node, ast.Constant) and isinstance(node.value, bool)):
                yield fn.name, node, None


def mutate(node: ast.AST, index: int | None) -> str:
    """Apply one mutation in place and name it."""
    if isinstance(node, ast.Compare):
        old = node.ops[index]
        node.ops[index] = FLIP[type(old)]()
        return f"{type(old).__name__} -> {type(node.ops[index]).__name__}"
    if isinstance(node, ast.BoolOp):
        node.op = ast.Or() if isinstance(node.op, ast.And) else ast.And()
        return f"boolop -> {type(node.op).__name__}"
    if isinstance(node, ast.UnaryOp):
        node.operand = ast.UnaryOp(ast.Not(), node.operand)
        return "drop not"
    node.value = not node.value
    return f"constant -> {node.value}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--file", required=True, help="path from the repo root")
    parser.add_argument("--functions", required=True, help="comma-separated names")
    parser.add_argument("tests", nargs="+")
    args = parser.parse_args()
    functions = set(args.functions.split(","))
    shutil.rmtree(args.workdir, ignore_errors=True)
    for part in ("src", "tests", "scenarios", "pyproject.toml"):
        copy = shutil.copytree if (REPO / part).is_dir() else shutil.copy
        copy(REPO / part, args.workdir / part)
    source = (REPO / args.file).read_text("utf-8")
    target = args.workdir / args.file
    env = {**os.environ, "PYTHONPATH": str(args.workdir / "src")}

    def tests_fail() -> bool:
        try:
            return subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p",
                 "no:cacheprovider", *args.tests], cwd=args.workdir, env=env,
                capture_output=True, timeout=TIMEOUT_S).returncode != 0
        except subprocess.TimeoutExpired:
            return True

    if tests_fail():
        print("the named tests fail without a mutant", file=sys.stderr)
        return 2
    count = sum(1 for _ in sites(ast.parse(source), functions))
    for k in range(count):
        tree = ast.parse(source)
        function, node, index = list(sites(tree, functions))[k]
        mutation = mutate(node, index)
        target.write_text(ast.unparse(tree), "utf-8")
        print(json.dumps({"function": function, "line": node.lineno,
                          "mutation": mutation, "killed": tests_fail()}),
              flush=True)
    target.write_text(source, "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
