"""Mutation testing of one module of `src/zonotile`, stdlib only.

Makes each mutant of the module, one small change at a time, runs the tests
on it in a scratch copy of the checkout, and lists the mutants no test
kills.  From the root of a source checkout:

    python tools/mutate.py src/zonotile/_planar.py            # tier-1, -x
    python tools/mutate.py src/zonotile/_planar.py --tests tests/test_combi.py

The mutants:

  - each comparison operator swapped for its partner: < and <=, > and >=,
    == and !=, is and is not, in and not in;
  - each `and` swapped for `or` and each `or` for `and`;
  - each integer constant, plus one and minus one;
  - each `raise` statement replaced by `pass`;
  - each `return False` replaced by `pass`, so the code after it runs.

Decorator arguments and f-strings are left alone.  A mutant replaces only
the source of the node it changes, padded to the same number of lines, so
comments stay and tracebacks name the original lines.  Each mutant runs
`pytest -x -q` on the named tests (by default `tests`, the tier-1 suite)
in one of two copies of the checkout at once, and is killed
when pytest fails or runs past ten times the unmutated run.  The run
first checks that the unmutated module passes.  The 53 mutants of
`_planar.py` take about 50 s under `tests/test_combi.py tests/test_rhombus.py`
on a 2-core host, and far longer under tier-1, so this is a tool to run by
hand, not a test; CI runs it on `rhombus.py` alone, whose every mutant
dies.  The exit code is 1 if a mutant survives.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIES = 2  # mutants run at once, one copy of the checkout each
PARTNER = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In, ast.And: ast.Or, ast.Or: ast.And,
}
SYMBOL = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Is: "is", ast.IsNot: "is not", ast.In: "in", ast.NotIn: "not in",
    ast.And: "and", ast.Or: "or",
}


def _skipped(tree: ast.Module) -> set[int]:
    """The ids of the nodes inside decorators and f-strings."""
    out = set()
    for node in ast.walk(tree):
        tops = list(getattr(node, "decorator_list", ()))
        if isinstance(node, ast.JoinedStr):
            tops.append(node)
        for top in tops:
            out.update(id(n) for n in ast.walk(top))
    return out


def mutants(source: str) -> list[tuple[int, int, str, str]]:
    """Each mutant as (line, column, what changed, mutated source), in
    source order."""
    tree = ast.parse(source)
    skip = _skipped(tree)
    lines = source.encode().splitlines(keepends=True)
    out = []

    def splice(node: ast.AST, text: str, what: str) -> None:
        # columns are utf-8 byte offsets; the padding keeps the line count
        start = sum(map(len, lines[: node.lineno - 1])) + node.col_offset
        end = sum(map(len, lines[: node.end_lineno - 1])) + node.end_col_offset
        pad = "\n" * (node.end_lineno - node.lineno)
        if isinstance(node, ast.expr):
            text = f"({text}{pad})"
        else:
            text += pad
        raw = b"".join(lines)
        new = raw[:start] + text.encode() + raw[end:]
        out.append((node.lineno, node.col_offset, what, new.decode()))

    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Compare):
            for k, op in enumerate(node.ops):
                other = PARTNER[type(op)]
                swapped = ast.Compare(node.left, [*node.ops[:k], other(), *node.ops[k + 1:]],
                                      node.comparators)
                splice(node, ast.unparse(swapped), f"{SYMBOL[type(op)]} -> {SYMBOL[other]}")
        elif isinstance(node, ast.BoolOp):
            other = PARTNER[type(node.op)]
            swapped = ast.BoolOp(other(), node.values)
            splice(node, ast.unparse(swapped), f"{SYMBOL[type(node.op)]} -> {SYMBOL[other]}")
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            for step in (1, -1):
                value = node.value + step
                splice(node, str(value), f"{ast.unparse(node)} -> {value}")
        elif isinstance(node, ast.Raise):
            splice(node, "pass", "raise -> pass")
        elif (isinstance(node, ast.Return) and isinstance(node.value, ast.Constant)
              and node.value.value is False):
            splice(node, "pass", "return False -> pass")
    out.sort(key=lambda m: (m[0], m[1]))
    return out


def _copy(dest: Path) -> None:
    """The checkout without its history, caches and benchmark output."""
    ignore = shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_out", ".bench_build"
    )
    shutil.copytree(ROOT, dest, ignore=ignore)


def _run_tests(copy: Path, tests: list[str], timeout: float | None) -> str:
    """'passed', 'failed' or 'timeout' for pytest on the copy."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(argv, cwd=copy, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if done.returncode == 0 else "failed"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", help="the module to mutate, e.g. src/zonotile/_planar.py")
    parser.add_argument("--tests", nargs="+", default=["tests"], help="pytest paths (default: tests)")
    args = parser.parse_args()
    module = Path(args.module).resolve()
    rel = module.relative_to(ROOT)
    found = mutants(module.read_text())
    scratch = Path(tempfile.mkdtemp(prefix="zonotile-mutate-"))
    try:
        copies = [scratch / f"copy{k}" for k in range(COPIES)]
        for copy in copies:
            _copy(copy)
        start = time.perf_counter()
        if _run_tests(copies[0], args.tests, None) != "passed":
            print("the tests fail on the unmutated module", file=sys.stderr)
            return 2
        timeout = 10 * (time.perf_counter() - start) + 10
        free = list(copies)

        def run(mutant: tuple[int, int, str, str]) -> str:
            copy = free.pop()
            try:
                (copy / rel).write_text(mutant[3])
                return _run_tests(copy, args.tests, timeout)
            finally:
                (copy / rel).write_text(module.read_text())
                free.append(copy)

        survivors = 0
        with ThreadPoolExecutor(max_workers=COPIES) as pool:
            for (line, col, what, _), verdict in zip(found, pool.map(run, found)):
                state = "SURVIVED" if verdict == "passed" else f"killed ({verdict})"
                survivors += verdict == "passed"
                print(f"{rel}:{line}:{col}  {what:24s} {state}", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    killed = len(found) - survivors
    print(f"{rel}: {killed} of {len(found)} mutants killed, {survivors} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
