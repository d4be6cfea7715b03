#!/usr/bin/env python3
"""Mutation check: how many small faults in named functions does tier-1 catch?

Run from the repository root:

    python3 tools/mutants.py src/chaosdet/tensors.py contract symmetrize _drop_zeros
    python3 tools/mutants.py src/chaosdet/multiindex.py splits merge _multiplicity

Each mutant changes one site inside one of the named functions (a method
is named ``Class.method``):

  - an arithmetic operator is swapped (+ and -, * and /, // to *, % to //,
    ** to *, << and >>), also in augmented assignments;
  - a comparison is flipped (< and >=, > and <=, == and !=, is and is not,
    in and not in);
  - a small int constant c (|c| <= 64, not a bool) becomes c + 1.

The repository, without .git and build or test leftovers, is copied to
a temporary directory; every mutant is written there, never to the
working tree.  For each mutant the tier-1 suite runs with ``-x``: a
failing run, or one past TIMEOUT_S, kills the mutant.  The unmutated
copy runs first and must pass.  The last line of stdout is the kill
count; survivors are listed above it.
"""
from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import textwrap
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", "out")
SMALL_INT = 64
# tier-1 takes ~20 s on a 2-core machine; a mutant whose loop runs away is killed
TIMEOUT_S = 600

ARITH = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
    ast.FloorDiv: ast.Mult, ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult,
    ast.LShift: ast.RShift, ast.RShift: ast.LShift,
}
COMPARE = {
    ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.Gt: ast.LtE, ast.LtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}


def find_functions(tree: ast.Module, names: list[str]) -> dict[str, ast.AST]:
    """Function nodes by qualified name (``f`` or ``Class.method``)."""
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualname = prefix + child.name
                if qualname in names and not isinstance(child, ast.ClassDef):
                    found[qualname] = child
                visit(child, qualname + ".")

    visit(tree, "")
    missing = [n for n in names if n not in found]
    if missing:
        raise SystemExit(f"error: no function named {', '.join(missing)}")
    return found


def sites(func: ast.AST):
    """Yield (node, field, index, new value, description) for each mutation."""
    for node in ast.walk(func):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in ARITH:
            new = ARITH[type(node.op)]
            yield node, "op", None, new, f"{type(node.op).__name__} -> {new.__name__}"
        elif isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in COMPARE:
                    new = COMPARE[type(op)]
                    which = f" (comparison {i + 1})" if len(node.ops) > 1 else ""
                    yield node, "ops", i, new, f"{type(op).__name__} -> {new.__name__}{which}"
        elif (
            isinstance(node, ast.Constant)
            and type(node.value) is int
            and abs(node.value) <= SMALL_INT
        ):
            yield node, "value", None, node.value + 1, f"{node.value} -> {node.value + 1}"


def mutated_source(lines: list[str], func: ast.AST, node, field, index, new) -> str:
    """The file with ``func`` re-rendered from its AST after one mutation."""
    old = getattr(node, field)
    if field == "ops":
        ops = list(old)
        ops[index] = new()
        setattr(node, field, ops)
    elif field == "op":
        setattr(node, field, new())
    else:
        setattr(node, field, new)
    try:
        body = textwrap.indent(ast.unparse(func), " " * func.col_offset)
    finally:
        setattr(node, field, old)
    start = min([func.lineno] + [d.lineno for d in func.decorator_list])
    return "".join(lines[: start - 1]) + body + "\n" + "".join(lines[func.end_lineno :])


def mutants(path: str, names: list[str]):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    lines = text.splitlines(keepends=True)
    tree = ast.parse(text)
    for qualname, func in find_functions(tree, names).items():
        for node, field, index, new, what in sites(func):
            label = f"{qualname}:{node.lineno}:{node.col_offset} {what}"
            yield label, mutated_source(lines, func, node, field, index, new)


def run_suite(copy: str) -> str:
    """'pass', 'fail' or 'timeout' for tier-1 with -x on the copy."""
    env = dict(os.environ)
    src = os.path.join(copy, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # a mutant often keeps the file's size, so a cached .pyc could pass for it
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "--continue-on-collection-errors"]
    try:
        proc = subprocess.run(cmd, cwd=copy, env=env, timeout=TIMEOUT_S,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "pass" if proc.returncode == 0 else "fail"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("path", help="source file, relative to the repository root")
    parser.add_argument("functions", nargs="+", help="function names, Class.method for methods")
    args = parser.parse_args(argv)

    rel = os.path.relpath(os.path.join(ROOT, args.path), ROOT)
    todo = list(mutants(os.path.join(ROOT, rel), args.functions))
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = os.path.join(tmp, "repo")
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        target = os.path.join(copy, rel)
        if run_suite(copy) != "pass":
            raise SystemExit("error: the unmutated copy does not pass the suite")
        survivors = []
        for label, text in todo:
            with open(target, "w", encoding="utf-8") as fh:
                fh.write(text)
            start = time.perf_counter()
            outcome = run_suite(copy)
            status = "survived" if outcome == "pass" else f"killed ({outcome})"
            print(f"{label}: {status} in {time.perf_counter() - start:.1f} s", flush=True)
            if outcome == "pass":
                survivors.append(label)
    for label in survivors:
        print(f"survivor: {label}")
    print(f"killed {len(todo) - len(survivors)} of {len(todo)} mutants")
    return 0


if __name__ == "__main__":
    sys.exit(main())
