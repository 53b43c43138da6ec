"""Show that every workload's checks reject a wrong answer.

For each workload and each of its named tampers (a dropped collection, a
mutated combi, an altered count), runs one short round of the benchmark
with that wrong answer swapped in for the program's output, and requires
the run to fail its checks and exit non-zero.  Run from the checkout root:

    python3 perfbench/tamper_check.py

Exits 0 when every tamper was caught.  Takes about two minutes.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    missed = 0
    for name, workload in WORKLOADS.items():
        for tamper in workload.TAMPERS:
            argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "1",
                    "--seconds", "1", "--trace", "0", "--tamper", tamper]
            done = subprocess.run(argv, cwd=HERE.parent, capture_output=True, text=True)
            caught = done.returncode != 0 and "CHECK FAILED" in done.stderr
            reason = next((ln for ln in done.stderr.splitlines() if "CHECK FAILED" in ln), "not caught")
            print(f"{name:13s} {tamper:16s} exit {done.returncode}  {reason}")
            missed += not caught
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
