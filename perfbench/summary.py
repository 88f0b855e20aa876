"""Every workload's end-to-end metrics in one table.

    python3 perfbench/summary.py --seed 1

Runs ``run.py --trace 0`` once per workload of ``workloads.WORKLOADS``,
each in a fresh process for BENCHMARK.json's ``run_seconds``, and prints,
with units: setup_s; wall, pipeline_p50 and largest both in seconds and
in multiples of the reference work (see README.md); fail_ratio (failed /
attempted operations); peak_rss_mb; and whether every output was
verified.  `deep` is the two_cycle window enumeration past radius 5,
which fails at this point in the library's history; it is kept out of
BENCHMARK.json so that the measured workloads have no failing operation,
and shown here so that the defect stays visible.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from workloads import WORKLOADS  # noqa: E402

COLUMNS = (("setup_s", "s"), ("wall_s", "s"), ("wall_ref", "ref"),
           ("pipeline_p50_s", "s"), ("pipeline_p50_ref", "ref"),
           ("largest_s", "s"), ("largest_ref", "ref"), ("fail_ratio", "1"),
           ("peak_rss_mb", "MB"))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    with open(HERE.parent / "BENCHMARK.json") as fh:
        seconds = json.load(fh)["run_seconds"]

    print(f"{'workload':10}" + "".join(f"{f'{c} [{u}]':>24}" for c, u in COLUMNS)
          + "  verified  attempted")
    for w in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", w,
             "--seed", str(args.seed), "--seconds", str(seconds),
             "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        row = json.loads(lines[-2].split(": ", 1)[1])
        row.update({k: v["value"] for k, v in result["metrics"].items()})
        row["fail_ratio"] = result["failed"] / result["attempted"]
        print(f"{w:10}" + "".join(f"{row[c]:>24.4f}" for c, _ in COLUMNS)
              + f"  {str(result['correct']):8}  {result['attempted']:9}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
