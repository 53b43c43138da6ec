"""The benchmark's tracer (`perfbench/spans.py`) names zonotile functions by
string, and its workloads call the package's public names as `zt.<name>`.
A rename that misses either would break only benchmark runs, so these tests
check that every name they use still resolves."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

from zonotile.suite import run_suite

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS_PATH = PERFBENCH / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_and_counted_functions_exist():
    spans = _spans()
    for module, func, _ in spans.SPANS + spans.COUNTED:
        target = importlib.import_module(f"zonotile.{module}")
        assert callable(getattr(target, func, None)), f"zonotile.{module}.{func} is gone"
    # the tracer also wraps the relations where separation's loops look them up
    assert isinstance(importlib.import_module("zonotile.separation")._RELATION_FUNC, dict)
    # and counts planar tile edges from the cycles, the second argument
    planar = importlib.import_module("zonotile._planar")
    assert list(inspect.signature(planar.check_planar_cover).parameters)[1] == "cycles"


def test_suite_checks_match_report_keys():
    checks = run_suite(max_n=3, seed=7, samples=5)["checks"]
    assert tuple(checks) == _spans().SUITE_CHECKS


def test_package_names_the_benchmark_reads_exist():
    names = {
        node.attr
        for path in sorted(PERFBENCH.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "zt"
    }
    assert {"cli", "suite", "from_w_collection", "enumerate_maximal"} <= names
    zt = importlib.import_module("zonotile")
    importlib.import_module("zonotile.cli")
    missing = sorted(name for name in names if not hasattr(zt, name))
    assert not missing, f"perfbench reads zonotile names that are gone: {missing}"
