"""Statement coverage of `src/zonotile` under the tier-1 tests, stdlib only.

Runs pytest on `tests/` in this process under `sys.settrace`, then lists
every statement of `src/zonotile` that no test executed, by file and line,
and the totals.  From the root of a source checkout:

    python tools/coverage.py                    # the whole tier-1 suite
    python tools/coverage.py -k separation      # extra arguments go to pytest
    python tools/coverage.py --max-unrun 2      # exit 1 past 2 unrun statements

The statements are the `ast` statement nodes of each module, docstrings
and the bodies of `if TYPE_CHECKING:` blocks, which never run, excepted.  A
statement has run when a line event fires on one of its own lines: the
whole of a simple statement, the header of a compound one (for a decorated
definition, its decorators too).  A `try` has run when its first
body statement has.  Tracing makes the run about five times slower than
plain pytest, so this is a tool to run by hand or in CI, not a test.  The
exit code is pytest's, or 1 when the tests pass but more statements go unrun
than `--max-unrun` allows.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "zonotile"


def _docstrings(tree: ast.Module) -> set[int]:
    """The ids of the docstring expressions of the module, classes and functions."""
    out = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and body:
            first = body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                out.add(id(first))
    return out


def _type_checking_only(tree: ast.Module) -> set[int]:
    """The ids of the statements in the body of an `if TYPE_CHECKING:`."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and ast.unparse(node.test) in ("TYPE_CHECKING", "typing.TYPE_CHECKING"):
            out.update(id(s) for stmt in node.body for s in ast.walk(stmt) if isinstance(s, ast.stmt))
    return out


def statements(source: str) -> dict[int, set[int]]:
    """Each statement, by its first line, to the lines whose execution shows it ran."""
    tree = ast.parse(source)
    skip = _docstrings(tree) | _type_checking_only(tree)
    out: dict[int, set[int]] = {}
    tries = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or id(node) in skip:
            continue
        body = getattr(node, "body", None)
        if isinstance(node, (ast.Try, getattr(ast, "TryStar", ast.Try))):
            tries.append(node)
            continue
        if body and isinstance(body[0], ast.stmt):
            lines = set(range(node.lineno, max(body[0].lineno, node.lineno + 1)))
        else:
            lines = set(range(node.lineno, node.end_lineno + 1))
        for dec in getattr(node, "decorator_list", ()):
            lines.update(range(dec.lineno, dec.end_lineno + 1))
        out[node.lineno] = lines
    # a try's header line may fire no event; it ran if its body began
    for node in sorted(tries, key=lambda t: -t.lineno):
        out[node.lineno] = out.get(node.body[0].lineno, set()) | {node.lineno}
    return out


def _trace_run(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest under a line tracer confined to `src/zonotile`."""
    prefix = str(SRC) + os.sep
    hits: dict[str, set[int]] = defaultdict(set)
    ours: dict[str, str | None] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[ours[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            real = os.path.realpath(name)
            ours[name] = real if real.startswith(prefix) else None
        return local if ours[name] else None

    sys.path.insert(0, str(SRC.parent))
    import pytest  # imported before tracing starts; zonotile is imported by the tests

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def main() -> int:
    parser = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    parser.add_argument("--max-unrun", type=int, metavar="N", help="exit 1 if more than N statements never run")
    opts, pytest_args = parser.parse_known_args()
    code, hits = _trace_run(pytest_args)
    total = missed = 0
    for path in sorted(SRC.glob("*.py")):
        stmts = statements(path.read_text(encoding="utf-8"))
        ran = hits.get(str(path.resolve()), set())
        never = sorted(line for line, lines in stmts.items() if not lines & ran)
        total += len(stmts)
        missed += len(never)
        if never:
            print(f"{path.relative_to(ROOT)}: {len(never)} of {len(stmts)} never run: "
                  + ", ".join(map(str, never)))
    print(f"total: {missed} of {total} statements never run ({total - missed} run)")
    if code == 0 and opts.max_unrun is not None and missed > opts.max_unrun:
        print(f"more than the {opts.max_unrun} allowed never run")
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
