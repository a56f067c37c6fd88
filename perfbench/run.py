#!/usr/bin/env python3
"""Run one ltbp benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

With ``--trace 0`` the last line of standard output is a JSON object holding
the end-to-end metrics named in BENCHMARK.json; with ``--trace 1`` it holds
the per-layer metrics of a traced run. The lines before it print finer,
ungated results (per stage, per template, p50/p90) and ``failed_share``.
The exit code is 1 when any operation failed or any output check failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "ltbp" / "__init__.py").is_file():
    sys.exit(f"error: no ltbp sources under {ROOT / 'src'}; run from a checkout")
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import WORKLOADS  # noqa: E402


def _emit(workload: str, out, trace: bool) -> bool:
    correct = not out.failed
    for message in out.messages:
        print(f"FAIL {workload}: {message}")
    if not trace:
        for name, (value, unit) in out.summary.items():
            print(f"{workload} {name} = {value:.6g} {unit}")
        for name, (value, unit) in out.metrics.items():
            print(f"{workload} {name} = {value:.6g} {unit}")
    share = len(out.failed) / out.attempted if out.attempted else 1.0
    print(f"{workload} failed_share = {share:g} "
          f"({len(out.failed)} of {out.attempted} operations)")
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": len(out.failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in out.metrics.items()},
    }), flush=True)
    return correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="least time each run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":  # one process per workload keeps peak RSS apart
        codes = [subprocess.run([sys.executable, __file__, "--workload", name,
                                 "--seed", str(args.seed),
                                 "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for name in WORKLOADS]
        return 1 if any(codes) else 0

    out = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    return 0 if _emit(args.workload, out, bool(args.trace)) else 1


if __name__ == "__main__":
    sys.exit(main())
