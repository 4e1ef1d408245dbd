"""Counter determinism self-check: two traced runs, one seed, equal counts.

    python3 aldbench/selfcheck.py --workload relax-mixed --seed 3

Runs ``run.py --trace 1`` twice (one round each) and compares every
per-layer figure that is a count, a bit length or a ratio: call counts,
slice solves, ``nullspace_basis.calls``, ``kkt_checked``, ``max_bits``.
Times are not compared.  Exits 1 and names the figures that differ.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def traced_counts(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "1"],
        check=True, capture_output=True, text=True).stdout
    metrics = json.loads(out.strip().splitlines()[-1])["metrics"]
    return {k: m["value"] for k, m in metrics.items()
            if m["unit"] in ("count", "bits", "ratio")}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args()
    first = traced_counts(args.workload, args.seed)
    second = traced_counts(args.workload, args.seed)
    diff = [k for k in first if first[k] != second.get(k)]
    for k in diff:
        print(f"DIFFERS {k}: {first[k]} vs {second.get(k)}")
    print(f"{args.workload} seed {args.seed}: {len(first)} counts compared, "
          f"{len(diff)} differ")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
