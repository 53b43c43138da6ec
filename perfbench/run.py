"""Layered benchmark of zonotile: certified answers, end to end and per module.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload certify-n6 --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 60 --trace 0

One run builds the workload's inputs from the seed, then repeats a fixed
number of whole rounds of the same work: as many as fit in --seconds at the
workload's budgeted round time (at least two), so that the count depends on
--seconds alone and never on the speed of the program measured.  wall_s is
the round's pieces (its operations, or their parts), each timed by its
fastest repetition in the run, summed.  It checks the outputs and prints one
JSON object as its last line.  --trace 0 reports
the end-to-end metrics; --trace 1 runs an untraced, a traced and another
untraced round and reports the per-layer metrics from the traced one,
writing its spans to .bench_out/.  The program is imported from
the checkout's src/ directory; without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 20  # set-ups timed per run: this process plus fresh interpreters
PROBE_TIMEOUT_S = 120
MIN_ROUNDS = 2  # an untraced run keeps the fastest of at least this many rounds
TRACED_ROUND = 1  # a traced run: untraced, traced, untraced

sys.path.insert(0, str(HERE))
from spans import PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed, Ops  # noqa: E402


def setup(workload, seed: int):
    """Import the program from the checkout and build the inputs; returns
    (zonotile, inputs, seconds taken)."""
    start = perf_counter()
    sys.path.insert(0, str(SRC))
    import zonotile
    import zonotile.cli  # noqa: F401  (the paper-suite entry point; a layer of its own)

    if Path(zonotile.__file__).resolve().parent != SRC / "zonotile":
        raise ImportError(f"zonotile was imported from {zonotile.__file__}, not from {SRC}")
    OUT_DIR.mkdir(exist_ok=True)
    inputs = workload.setup(zonotile, seed, OUT_DIR)
    return zonotile, inputs, perf_counter() - start


def probe_setup(name: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter, which imports anew."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed), "--setup-probe"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    return float(done.stdout.split()[-1])


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        print(setup(workload, args.seed)[2])
        return 0
    zt, inputs, own = setup(workload, args.seed)
    setups = [own]

    ops = Ops()
    n_rounds = 3 if args.trace else max(MIN_ROUNDS, int(args.seconds // workload.round_s))
    # The other set-ups run in fresh interpreters spread between the rounds,
    # so that setup_s samples the host over the whole run, as wall_s does,
    # and not over one burst of a second or two.
    probes = [] if args.trace else [j * n_rounds // (SETUP_SAMPLES - 1) for j in range(SETUP_SAMPLES - 1)]
    rounds: list[float] = []
    digests = []
    tracer = Tracer() if args.trace else None
    for i in range(n_rounds):
        setups += [probe_setup(workload.name, args.seed) for _ in range(probes.count(i))]
        traced = tracer is not None and i == TRACED_ROUND
        if traced:
            tracer.install()
        out = None  # the previous round's outputs are freed before the next round
        start = perf_counter()
        try:
            out = workload.run_round(zt, inputs, ops)
        finally:
            rounds.append(perf_counter() - start)
            if traced:
                tracer.uninstall()
        ops.end_round()
        digests.append(hash(out))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    for err in ops.errors:
        print(f"operation failed: {err}", file=sys.stderr)
    if args.tamper:
        out = workload.TAMPERS[args.tamper](zt, out)
    correct = True
    try:
        if ops.failed:
            raise CheckFailed(f"{ops.failed} of {ops.attempted} operations failed; their outputs are unchecked")
        if len(set(digests)) != 1:
            raise CheckFailed("rounds of the same work gave different outputs")
        if not args.trace and len(set(ops.pieces)) != 1:
            raise CheckFailed(f"rounds of the same work were cut into different pieces: {ops.pieces}")
        workload.check(zt, inputs, out, args.seed)
    except CheckFailed as exc:
        print(f"CHECK FAILED ({workload.name}): {exc}", file=sys.stderr)
        correct = False

    if tracer is not None:
        tracer.write(OUT_DIR / f"trace-{workload.name}-seed{args.seed}.jsonl")
        untraced = [r for i, r in enumerate(rounds) if i != TRACED_ROUND]
        values = tracer.metrics(overhead_s=rounds[TRACED_ROUND] - min(untraced))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        # The same work varies by tens of percent from round to round on a
        # shared host, and interference only ever adds time, so each piece
        # of a round, and each set-up, is timed by its fastest repetition.
        values = {
            "setup_s": (min(setups), "s"),
            "wall_s": (ops.best_round(), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}
    for name, m in metrics.items():
        print(f"{workload.name}  {name} = {m['value']:.6g} {m['unit']}")
    lat = ops.best_latencies
    if lat and not args.trace:
        # Too unsteady on a shared host to gate on (see README); shown only.
        print(f"{workload.name}  operation p50 = {percentile(lat, 50) * 1e3:.4g} ms, p99 = "
              f"{percentile(lat, 99) * 1e3:.4g} ms over {len(lat)} operations, each its fastest of {len(rounds)}")
    print(f"{workload.name}  rounds (s) = {' '.join(f'{r:.3f}' for r in rounds)}  ops = {ops.attempted}"
          f"  pieces per round = {ops.pieces[0]}")
    if not args.trace:
        print(f"{workload.name}  set-ups (s) = {' '.join(f'{t:.3f}' for t in setups)}")
    print(json.dumps({"correct": correct, "attempted": ops.attempted, "failed": ops.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, one at a time, each in a fresh interpreter."""
    results, failed = {}, False
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        failed |= done.returncode != 0
    print(json.dumps(results))
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tamper", help="apply a named wrong answer before the checks (they must fail)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.tamper and (args.workload == "all" or args.tamper not in WORKLOADS[args.workload].TAMPERS):
        parser.error(f"--tamper needs one workload and one of its tampers")
    if not (SRC / "zonotile" / "__init__.py").is_file():
        print(f"no zonotile sources under {SRC}; run from the root of a source checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
