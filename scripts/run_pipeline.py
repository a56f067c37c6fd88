#!/usr/bin/env python3
"""End-to-end experiment: generate, price, analyze, report.

Runs the whole pipeline through the CLI into one output directory and prints
the revenue comparison. Defaults to a quick desk-scale run; use --full for
the 65,000-order / 177-customer configuration.

    python scripts/run_pipeline.py --out runs/demo
    python scripts/run_pipeline.py --out runs/full --full
"""

import argparse
import json
import sys
from pathlib import Path

# Run from a checkout without installing: import ltbp from the sibling src/.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ltbp.cli import main as ltbp_main  # noqa: E402


def run(step):
    code = ltbp_main([str(part) for part in step])
    if code != 0:
        sys.exit(code)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/demo", help="output directory")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--full", action="store_true",
                        help="65,000 orders / 177 customers instead of 2,000 / 60")
    args = parser.parse_args()

    out = Path(args.out)
    data = out / "data"
    orders, customers = (65_000, 177) if args.full else (2_000, 60)

    run(["generate", "--seed", args.seed, "--orders", orders,
         "--customers", customers, "--out", data])
    run(["price", "--orders", data / "orders.csv",
         "--portfolio", data / "customers.csv",
         "--products", data / "products.csv", "--out", out])
    run(["--out-dir", out, "analyze", "--graph", out / "graph.nt"])
    run(["report", "--graph", out / "graph.nt", "--out", out / "report.json",
         "--manifest", data / "manifest.json"])

    payload = json.loads((out / "report.json").read_text())
    totals = payload["totals"]
    print()
    print(f"orders priced:   {payload['counts']['orders']}")
    print(f"eligible orders: {payload['counts']['eligible']}")
    print(f"total original:  {totals['original']}")
    print(f"total rm:        {totals['rm']}")
    print(f"total convex:    {totals['convex']}")
    print(f"ordering holds:  {payload['ordering_holds']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
