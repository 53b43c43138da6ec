"""Recount the maximal weakly separated collections of the 7-cube anew.

Every 7-combi contracts to a unique pair (6-combi, legal path) and every
such pair expands back (the paper's contraction bijection), so the count
equals the sum of legal-path counts over all 6-combis.  This route never
runs the clique enumeration at n = 7 that purity-n7 times.  Run from the
checkout root (about 16 s):

    python3 perfbench/recount_weak7.py

Prints the count and exits 0 when it equals the figure the benchmark's
checks compare against.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
import oracles  # noqa: E402
import zonotile as zt  # noqa: E402


def main() -> int:
    sixes = zt.enumerate_maximal(zt.hypercube_domain(6), "weak").maximal_collections
    total = sum(len(zt.enumerate_legal_paths(zt.from_w_collection(f))) for f in sixes)
    print(f"{total} maximal weakly separated collections of the 7-cube "
          f"(from {len(sixes)} 6-combis); stored figure {oracles.WEAK_7}")
    return 0 if total == oracles.WEAK_7 else 1


if __name__ == "__main__":
    sys.exit(main())
