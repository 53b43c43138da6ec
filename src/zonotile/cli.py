"""Command-line entry points.

One binary with subcommands; inputs and outputs are the JSON schemas of
:mod:`zonotile.jsonio`.  Exit codes: 0 success, 1 validation or input
error (with an error object on stderr), 2 resource guard or out of memory.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from pathlib import Path

from . import bitsets as bs
from . import jsonio
from ._planar import TilingError
from .combi import Combi, MConfig, WConfig, from_w_collection, validate_combi
from .contraction import n_contract, n_expand
from .flips import descend_to_minimum, lowering_flip, raising_flip
from .patterns import classify_pattern, domains, verify_complementary
from .render import render_svg
from .separation import (
    RELATION_KINDS,
    ResourceGuardError,
    base_relation,
    enumerate_maximal,
    hypercube_domain,
    purity_verdict,
    strongly_separated,
    weakly_separated,
)
from .suite import run_suite


def _load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _load_combi(path: str) -> Combi:
    """A combi read from a JSON file and validated."""
    combi = jsonio.combi_from_json(_load(path))
    validate_combi(combi)
    return combi


def _write_output(text: str, out: str | None) -> None:
    """`text`, which ends in a newline (JSON dumps and SVG documents), to
    stdout or to the file `out`."""
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _dump(data, out: str | None) -> None:
    _write_output(json.dumps(data, indent=2, sort_keys=True) + "\n", out)


@cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call of a process: parsing
    leaves it unchanged, and building it costs more than most commands."""
    parser = argparse.ArgumentParser(prog="zonotile", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("separation", help="print relation verdicts for two subsets")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("enumerate", help="write the maximal-collection report of a domain")
    p.add_argument("--domain", required=True, help="SetFamily JSON file")
    p.add_argument("--relation", choices=("weak", "strong"), default="weak")
    p.add_argument("--out")

    p = sub.add_parser("purity", help="print pure/ranks for a domain")
    p.add_argument("--domain", help="SetFamily JSON file")
    p.add_argument("--hypercube", type=int, help="use the full power set of this ground size")
    p.add_argument("--relation", choices=("weak", "strong"), default="weak")

    p = sub.add_parser("build-combi", help="reconstruct the combi of a maximal w-collection")
    p.add_argument("--family", required=True)
    p.add_argument("--out")

    p = sub.add_parser("flip", help="apply one flip to a combi")
    p.add_argument("--combi", required=True)
    p.add_argument("--op", choices=("lower", "raise"), required=True)
    p.add_argument("--core", required=True, help="subset like '1,3' (the common part)")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out")
    p.add_argument("--trace")

    p = sub.add_parser("descend", help="lowering flips down to the interval combi")
    p.add_argument("--combi", required=True)
    p.add_argument("--out")
    p.add_argument("--trace")

    p = sub.add_parser("contract", help="contract away the largest element")
    p.add_argument("--combi", required=True)
    p.add_argument("--out-combi")
    p.add_argument("--out-path")

    p = sub.add_parser("expand", help="expand a combi along a legal path")
    p.add_argument("--combi", required=True)
    p.add_argument("--path", required=True)
    p.add_argument("--out")

    p = sub.add_parser("pattern", help="cyclic pattern operations")
    p.add_argument("action", choices=("classify", "domains", "verify"))
    p.add_argument("--pattern", required=True)
    p.add_argument("--out")

    p = sub.add_parser("verify", help="run the verification battery")
    p.add_argument("--paper-suite", action="store_true")
    p.add_argument("--max-n", type=int, default=4)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--out")

    p = sub.add_parser("render", help="emit deterministic SVG")
    p.add_argument("--combi")
    p.add_argument("--tiling")
    p.add_argument("--pattern")
    p.add_argument("--out")
    p.add_argument("--no-labels", action="store_true")
    return parser


def cmd(argv: list[str]) -> int:
    args = _parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ResourceGuardError as exc:
        sys.stderr.write(json.dumps({"error": "resource-guard", "detail": str(exc)}) + "\n")
        return 2
    except TilingError as exc:
        sys.stderr.write(
            json.dumps({"error": exc.axiom, "detail": exc.detail}) + "\n"
        )
        return 1
    except (ValueError, KeyError, OSError) as exc:
        sys.stderr.write(json.dumps({"error": "invalid-input", "detail": str(exc)}) + "\n")
        return 1
    except MemoryError:
        pass  # reported below, once the failed command's frames are freed
    sys.stderr.write(json.dumps({"error": "out-of-memory", "detail": "ran out of memory"}) + "\n")
    return 2


def _dispatch(args) -> int:
    if args.command == "separation":
        a, b = bs.parse_subset(args.first), bs.parse_subset(args.second)
        n = bs.check_ground(args.n)
        bs.check_subset(a, n)
        bs.check_subset(b, n)
        verdicts = {}
        for kind in RELATION_KINDS:
            try:
                verdicts[kind] = base_relation(kind, a, b, n)
            except ValueError:
                verdicts[kind] = None
        verdicts["strongly_separated"] = strongly_separated(a, b)
        verdicts["weakly_separated"] = weakly_separated(a, b)
        for key, value in verdicts.items():
            shown = "undefined" if value is None else str(value).lower()
            print(f"{key}: {shown}")
        return 0

    if args.command == "enumerate":
        family = jsonio.family_from_json(_load(args.domain))
        report = enumerate_maximal(family, args.relation)
        _dump(jsonio.report_to_json(report), args.out)
        return 0

    if args.command == "purity":
        if (args.domain is None) == (args.hypercube is None):
            raise ValueError("pass exactly one of --domain or --hypercube")
        family = (
            hypercube_domain(args.hypercube)
            if args.hypercube is not None
            else jsonio.family_from_json(_load(args.domain))
        )
        verdict = purity_verdict(family, args.relation)
        if verdict.pure:
            print(f"pure, rank {verdict.ranks[0]}")
        else:
            print("impure, ranks " + ",".join(map(str, verdict.ranks)))
        return 0

    if args.command == "build-combi":
        family = jsonio.family_from_json(_load(args.family))
        combi = from_w_collection(family)
        _dump(jsonio.combi_to_json(combi), args.out)
        return 0

    if args.command == "flip":
        combi = _load_combi(args.combi)
        core = bs.check_subset(bs.parse_subset(args.core), combi.n)
        if not all(1 <= t <= combi.n for t in (args.i, args.j, args.k)):
            raise ValueError(f"--i, --j and --k must lie in 1..{combi.n}")
        if args.op == "lower":
            flipped = lowering_flip(combi, WConfig(core, args.i, args.j, args.k))
        else:
            flipped = raising_flip(combi, MConfig(core, args.i, args.j, args.k))
        if args.trace:
            line = jsonio.flip_trace_line(args.op, core, args.i, args.j, args.k)
            with open(args.trace, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(line, sort_keys=True) + "\n")
        _dump(jsonio.combi_to_json(flipped), args.out)
        return 0

    if args.command == "descend":
        combi = _load_combi(args.combi)
        final, trace = descend_to_minimum(combi)
        if args.trace:
            with open(args.trace, "w", encoding="utf-8") as fh:
                for w in trace:
                    line = jsonio.flip_trace_line("lower", w.core, w.i, w.j, w.k)
                    fh.write(json.dumps(line, sort_keys=True) + "\n")
        _dump(jsonio.combi_to_json(final), args.out)
        return 0

    if args.command == "contract":
        combi = _load_combi(args.combi)
        smaller, path = n_contract(combi)
        _dump(jsonio.combi_to_json(smaller), args.out_combi)
        if args.out_path:
            _dump(jsonio.path_to_json(path), args.out_path)
        return 0

    if args.command == "expand":
        combi = _load_combi(args.combi)
        path = jsonio.path_from_json(_load(args.path))
        _dump(jsonio.combi_to_json(n_expand(combi, path)), args.out)
        return 0

    if args.command == "pattern":
        pattern = jsonio.pattern_from_json(_load(args.pattern))
        if args.action == "classify":
            print(classify_pattern(pattern))
            return 0
        inner, outer = domains(pattern)
        if args.action == "domains":
            _dump(
                {
                    "inside": jsonio.family_to_json(inner),
                    "outside": jsonio.family_to_json(outer),
                },
                args.out,
            )
            return 0
        comp = verify_complementary(inner, outer)
        rin, rout = purity_verdict(inner, "weak"), purity_verdict(outer, "weak")
        result = {
            "complementary": comp,
            "inside": {"pure": rin.pure, "ranks": list(rin.ranks)},
            "outside": {"pure": rout.pure, "ranks": list(rout.ranks)},
        }
        _dump(result, args.out)
        return 0 if comp and rin.pure and rout.pure else 1

    if args.command == "verify":
        if not args.paper_suite:
            raise ValueError("only --paper-suite verification is available")
        report = run_suite(max_n=args.max_n, seed=args.seed, samples=args.samples)
        _dump(report, args.out)
        return 0 if report["pass"] else 1

    # render, the last of the commands: argparse admits no other
    chosen = [x for x in (args.combi, args.tiling, args.pattern) if x]
    if len(chosen) != 1:
        raise ValueError("pass exactly one of --combi, --tiling, --pattern")
    if args.combi:
        obj = _load_combi(args.combi)
    elif args.tiling:
        obj = jsonio.tiling_from_json(_load(args.tiling))
        validate_combi(obj.combi)
    else:
        obj = jsonio.pattern_from_json(_load(args.pattern))
    _write_output(render_svg(obj, labels=not args.no_labels), args.out)
    return 0


def main() -> None:
    sys.exit(cmd(sys.argv[1:]))


if __name__ == "__main__":
    main()
