"""The four benchmark workloads.

Each workload has:

  setup(zt, seed, workdir)  inputs, built once per run (timed as set-up);
  round_s                   the time budgeted for one round; a run does
                            --seconds // round_s rounds;
  run_round(zt, inp, ops)   one round of the timed work, every operation
                            through `ops.call`; returns a hashable value,
                            which must be the same in every round;
  check(zt, inp, out, seed) raises CheckFailed unless the outputs agree
                            with the oracles or with properties the method
                            must have (never with a stored copy of output);
                            it runs only when no operation failed;
  TAMPERS                   named wrong answers, tamper(zt, out) -> out,
                            that `check` must reject.

`zt` is the zonotile package; every call goes through a module attribute
looked up at call time, so a traced run sees the wrapped functions.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import random
from array import array
from time import perf_counter

import oracles


class CheckFailed(Exception):
    pass


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


class Ops:
    """Counts and times the operations of the timed rounds.

    Every round runs the same operations in the same order, so each
    operation, or each piece of one, is kept as its fastest time so far;
    nothing grows with the number of rounds."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.pieces: list[int] = []  # pieces timed, one count per round
        self.best = array("d")  # fastest time of each piece
        self.best_latencies = array("d")  # fastest time of each chosen operation
        self.errors: list[str] = []
        self._times = array("d")
        self._latencies = array("d")

    def end_round(self) -> None:
        self.pieces.append(len(self._times))
        self.best = _fastest(self.best, self._times)
        self.best_latencies = _fastest(self.best_latencies, self._latencies)
        self._times, self._latencies = array("d"), array("d")

    def call(self, fn, *args, timed: bool = False, marks: array | None = None):
        """Run one operation.  `marks`, if given, is an empty array that gets
        clock readings while the operation runs; the operation is then timed
        as the pieces between them."""
        self.attempted += 1
        start = perf_counter()
        try:
            return fn(*args)
        except Exception as exc:  # a failing operation is counted, not fatal
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{getattr(fn, '__name__', fn)}: {exc!r}")
            return None
        finally:
            end = perf_counter()
            cuts = [start, *(marks or ()), end]
            self._times.extend(b - a for a, b in zip(cuts, cuts[1:]))
            if timed:
                self._latencies.append(end - start)

    def best_round(self) -> float:
        """A round's pieces, each timed by its fastest repetition, summed."""
        return sum(self.best)


def _fastest(best: array, times: array) -> array:
    return array("d", map(min, best, times)) if best else times


def _cycles(combi) -> list[list[int]]:
    return [t.cycle() for t in combi.tiles()]


def _minus_one_tile(zt, combi, rng: random.Random):
    tiles = [("deltas", t) for t in sorted(combi.deltas)] + [("nablas", t) for t in sorted(combi.nablas)]
    kind, gone = rng.choice(tiles)
    parts = {"deltas": combi.deltas, "nablas": combi.nablas, "lenses": combi.lenses}
    parts[kind] = parts[kind] - {gone}
    return zt.Combi(combi.n, parts["deltas"], parts["nablas"], parts["lenses"])


class PurityN7:
    """`zonotile purity --hypercube 7`, weak then strong."""

    name = "purity-n7"
    n = 7
    round_s = 12

    @staticmethod
    def setup(zt, seed, workdir):
        return zt.hypercube_domain(PurityN7.n)

    @staticmethod
    def run_round(zt, domain, ops):
        weak = ops.call(zt.enumerate_maximal, domain, "weak")
        strong = ops.call(zt.enumerate_maximal, domain, "strong")
        return weak, strong

    @staticmethod
    def check(zt, domain, out, seed):
        n, want_rank = PurityN7.n, oracles.rank(PurityN7.n)
        weak, strong = out
        rng = random.Random(seed)
        for rel, report in (("weak", weak), ("strong", strong)):
            expect(report.pure and report.ranks == (want_rank,), f"{rel}: not pure of rank {want_rank}: {report.ranks}")
            cols = report.maximal_collections
            expect(len({c.members for c in cols}) == len(cols), f"{rel}: a collection is listed twice")
            for fam in rng.sample(cols, 60):
                why = oracles.maximal_in_cube(fam.members, n, rel)
                expect(why is None, f"{rel} collection {fam.members}: {why}")
        got = len(strong.maximal_collections)
        expect(got == oracles.A006245[n], f"strong count {got} != A006245 {oracles.A006245[n]}")
        got = len(weak.maximal_collections)
        expect(got == oracles.WEAK_7, f"weak count {got} != {oracles.WEAK_7}")
        # Expanding 6-combis along legal paths must land on enumerated collections.
        found = {c.members for c in weak.maximal_collections}
        smaller = zt.enumerate_maximal(zt.hypercube_domain(n - 1), "weak").maximal_collections
        for fam in rng.sample(smaller, 40):
            combi = zt.from_w_collection(fam)
            path = rng.choice(zt.enumerate_legal_paths(combi))
            big = tuple(sorted(zt.n_expand(combi, path).vertex_masks()))
            expect(big in found, f"expansion of {fam.members} along {path} was not enumerated")

    TAMPERS = {
        "drop-collection": lambda zt, out: (
            dataclasses.replace(out[0], maximal_collections=out[0].maximal_collections[1:]),
            out[1],
        ),
    }


class CertifyN6:
    """Reconstruct the combi of every maximal collection of the 6-cube."""

    name = "certify-n6"
    n = 6
    round_s = 7.5

    @staticmethod
    def setup(zt, seed, workdir):
        rng = random.Random(seed)
        cube = zt.hypercube_domain(CertifyN6.n)
        weak = list(zt.enumerate_maximal(cube, "weak").maximal_collections)
        strong = list(zt.enumerate_maximal(cube, "strong").maximal_collections)
        rng.shuffle(weak)
        rng.shuffle(strong)
        return weak, strong

    @staticmethod
    def _strong(zt, fam):
        tiling = zt.from_s_collection(fam)
        combi = zt.from_rhombus(tiling)
        zt.validate_combi(combi)
        return tiling, combi

    @staticmethod
    def run_round(zt, inp, ops):
        weak_in, strong_in = inp
        weak = []
        for fam in weak_in:
            combi = ops.call(zt.from_w_collection, fam, timed=True)
            spec = None if combi is None else ops.call(zt.spectrum, combi)
            weak.append(None if spec is None else (combi, spec))
        strong = tuple(ops.call(CertifyN6._strong, zt, fam) for fam in strong_in)
        return tuple(weak), strong

    @staticmethod
    def check(zt, inp, out, seed):
        n, want_rank = CertifyN6.n, oracles.rank(CertifyN6.n)
        weak_in, strong_in = inp
        weak, strong = out
        rng = random.Random(seed)
        expect(len(strong_in) == oracles.A006245[n], f"{len(strong_in)} strong collections != A006245")
        for fam in rng.sample(weak_in, 20):
            why = oracles.maximal_in_cube(fam.members, n, "weak")
            expect(why is None, f"input {fam.members}: {why}")
        for fam, (combi, spec) in zip(weak_in, weak):
            expect(spec == fam, f"spectrum of the combi of {fam.members} differs from it")
        for fam, (tiling, combi) in zip(strong_in, strong):
            expect(len(tiling.tiles) == oracles.rhombus_count(n), f"tiling of {fam.members}: {len(tiling.tiles)} tiles")
            expect(combi.vertex_masks() == fam.as_set(), f"semi-rhombus combi of {fam.members} has other vertices")
        combis = [r[0] for r in weak] + [r[1] for r in strong]
        for combi in combis:
            expect(len(combi.vertex_masks()) == want_rank, f"combi with {len(combi.vertex_masks())} vertices")
            why = oracles.tiled_zonogon(_cycles(combi), n)
            expect(why is None, f"combi does not tile the zonogon: {why}")
        # Negative controls: a certification that is skipped must show here.
        for fam in rng.sample(weak_in, 20):
            gone = rng.choice(fam.members)
            short = zt.SetFamily(n, [m for m in fam.members if m != gone])
            try:
                zt.from_w_collection(short)
            except ValueError:
                continue
            raise CheckFailed(f"from_w_collection accepted {fam.members} without {gone}")
        for combi in rng.sample(combis, 20):
            try:
                zt.validate_combi(_minus_one_tile(zt, combi, rng))
            except zt.TilingError:
                continue
            raise CheckFailed("validate_combi accepted a combi with a tile removed")

    TAMPERS = {
        "mutate-combi": lambda zt, out: (
            ((_minus_one_tile(zt, out[0][0][0], random.Random(0)), out[0][0][1]),) + out[0][1:],
            out[1],
        ),
    }


class TransformN6:
    """Descents, contraction round trips and the converse bijection."""

    name = "transform-n6"
    n = 6
    round_s = 12
    descents = 300

    @staticmethod
    def setup(zt, seed, workdir):
        rng = random.Random(seed)
        n = TransformN6.n
        cols6 = zt.enumerate_maximal(zt.hypercube_domain(n), "weak").maximal_collections
        start = [zt.from_w_collection(f, check_input=False) for f in rng.sample(cols6, TransformN6.descents)]
        cols5 = zt.enumerate_maximal(zt.hypercube_domain(n - 1), "weak").maximal_collections
        smaller = [zt.from_w_collection(f, check_input=False) for f in cols5]
        return start, smaller, cols6

    @staticmethod
    def _descend(zt, combi):
        low, trace = zt.descend_to_minimum(combi)
        return low, tuple(trace)

    @staticmethod
    def _round_trip(zt, combi):
        small, path = zt.n_contract(combi)
        return zt.n_expand(small, path)

    @staticmethod
    def _legal_paths(zt, combi):
        return tuple(zt.enumerate_legal_paths(combi))

    @staticmethod
    def _converse(zt, combi, path):
        big = zt.n_expand(combi, path)
        back, path2 = zt.n_contract(big)
        return big, back, path2

    @staticmethod
    def run_round(zt, inp, ops):
        start, smaller, _ = inp
        descents = tuple(ops.call(TransformN6._descend, zt, c) for c in start)
        trips = tuple(ops.call(TransformN6._round_trip, zt, c) for c in start)
        paths = tuple(ops.call(TransformN6._legal_paths, zt, c) for c in smaller)
        converse = tuple(
            (c, p, ops.call(TransformN6._converse, zt, c, p, timed=True))
            for c, ps in zip(smaller, paths)
            for p in ps or ()
        )
        graph = ops.call(zt.flip_graph, TransformN6.n - 1)
        return descents, trips, paths, converse, graph

    @staticmethod
    def check(zt, inp, out, seed):
        n = TransformN6.n
        start, smaller, cols6 = inp
        descents, trips, paths, converse, graph = out
        intervals = oracles.interval_collection(n)
        floor = oracles.size_sum(intervals)
        expect(len(intervals) == oracles.rank(n) and floor == 56, "interval oracle disagrees with its known figures")
        for combi, (low, trace) in zip(start, descents):
            expect(low.vertex_masks() == intervals, "a descent ended away from the interval collection")
            want = oracles.size_sum(combi.vertex_masks()) - floor
            expect(len(trace) == want, f"a descent took {len(trace)} flips, size sum says {want}")
        for combi, back in zip(start, trips):
            expect(back == combi, "n_expand(n_contract(c)) != c")
        for combi, path, (big, back, path2) in converse:
            expect(back == combi and path2 == path, f"expand/contract along {path} did not return its input")
        expect(len(converse) == len(cols6) == 3694, f"{len(converse)} converse pairs, want 3694")
        spectra = {frozenset(big.vertex_masks()) for _, _, (big, _, _) in converse}
        expect(spectra == {c.as_set() for c in cols6}, "expansions are not exactly the weak 6-cube collections")
        expect(len(graph.nodes) == 124, f"flip_graph(5) has {len(graph.nodes)} nodes")
        src, snk = graph.sources(), graph.sinks()
        expect(len(src) == 1 and len(snk) == 1, f"flip_graph(5): {len(src)} sources, {len(snk)} sinks")
        expect(graph.nodes[src[0]] == oracles.interval_collection(n - 1), "flip_graph(5) source is not the intervals")
        expect(graph.nodes[snk[0]] == oracles.cointerval_collection(n - 1), "flip_graph(5) sink is not the co-intervals")

    TAMPERS = {
        "alter-count": lambda zt, out: (
            ((out[0][0][0], out[0][0][1] + out[0][0][1][:1]),) + out[0][1:],
        ) + out[1:],
        "mutate-combi": lambda zt, out: (
            out[0],
            (_minus_one_tile(zt, out[1][0], random.Random(0)),) + out[1][1:],
        ) + out[2:],
    }


class PaperSuite:
    """`zonotile verify --paper-suite --max-n 5 --seed <seed>` via the CLI entry point."""

    name = "paper-suite"
    max_n = 5
    round_s = 3.0

    @staticmethod
    def setup(zt, seed, workdir):
        report = workdir / f"paper-suite-seed{seed}.json"
        argv = ["verify", "--paper-suite", "--max-n", str(PaperSuite.max_n), "--seed", str(seed), "--out", str(report)]
        return argv, report

    @staticmethod
    def _verify(zt, argv, report):
        code = zt.cli.cmd(argv)
        return code, report.read_bytes()

    @staticmethod
    def run_round(zt, inp, ops):
        # Every call the suite's own code makes to a zonotile function gets a
        # clock reading as it starts and as it ends, which cuts the one
        # operation into some 20,000 pieces of a few ms at most.
        suite = zt.suite
        marks = array("d")
        plain = {name: fn for name, fn in vars(suite).items()
                 if inspect.isfunction(fn) and fn.__module__.startswith("zonotile")}

        def marked(fn):
            def call(*args, **kwargs):
                marks.append(perf_counter())
                try:
                    return fn(*args, **kwargs)
                finally:
                    marks.append(perf_counter())
            return call

        for name, fn in plain.items():
            setattr(suite, name, marked(fn))
        try:
            return ops.call(PaperSuite._verify, zt, *inp, marks=marks)
        finally:
            for name, fn in plain.items():
                setattr(suite, name, fn)

    @staticmethod
    def check(zt, inp, out, seed):
        # That the rounds of one run (two at least, same seed) wrote
        # byte-identical reports is checked by the runner, which requires
        # every round's output, here (exit code, report bytes), to hash equal.
        code, text = out
        expect(code == 0, f"verify exited {code}")
        report = json.loads(text)
        expect(report["pass"] is True, "verify report does not pass")
        expect(report["seed"] == seed and report["max_n"] == PaperSuite.max_n, "report names other arguments")
        purity = report["checks"]["hypercube_purity"]["detail"]
        for n in range(3, PaperSuite.max_n + 1):
            got = purity[str(n)]
            expect(got["ranks"] == [oracles.rank(n)], f"hypercube {n}: ranks {got['ranks']}, want C(n+1,2)+1")

    @staticmethod
    def _alter_rank(zt, out):
        report = json.loads(out[1])
        report["checks"]["hypercube_purity"]["detail"]["5"]["ranks"] = [17]
        return out[0], json.dumps(report, indent=2, sort_keys=True).encode() + b"\n"

    TAMPERS = {"alter-count": _alter_rank}


WORKLOADS = {w.name: w for w in (PurityN7, CertifyN6, TransformN6, PaperSuite)}
