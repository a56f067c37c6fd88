"""Child processes of the benchmark; run as ``python -m perfbench.child``.

    cli <stage> <request> <trace.json> -- <ltbp argv...>
        install the tracer, run ``ltbp.cli.main(argv)`` under a ``cli.<stage>``
        span, write the trace, exit with main's code
    price <data dir> <out dir> <result.json> [<trace.json>]
        the ``ltbp price`` steps before the graph: load the CSVs, price with
        the default PricingConfig, write premiums.csv and priced_orders.csv;
        traced when a trace path is given
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from perfbench.tracer import Tracer


def run_cli(stage: str, request: str, trace_path: str, argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    tracer.request = request
    import ltbp.cli

    code = tracer.wrap(f"cli.{stage}", ltbp.cli.main)(argv)
    Path(trace_path).write_text(json.dumps(tracer.dump()))
    return code


def run_price(data: Path, out: Path, result_path: str, trace_path=None) -> int:
    tracer = Tracer()
    if trace_path:
        tracer.install()
        tracer.request = "pricing-run"
    from ltbp import ingest, pricing
    from ltbp.model import PricingConfig

    steps = []
    start = time.perf_counter()
    dataset = ingest.load_dataset(data / "orders.csv", data / "customers.csv",
                                  data / "products.csv")
    steps.append(time.perf_counter())
    result = pricing.price_dataset(dataset, PricingConfig())
    steps.append(time.perf_counter())
    out.mkdir(parents=True, exist_ok=True)
    pricing.write_premiums(result, out / "premiums.csv")
    pricing.write_priced_orders(result, out / "priced_orders.csv")
    steps.append(time.perf_counter())
    Path(result_path).write_text(json.dumps({
        "orders_read": len(dataset.orders),
        "orders_priced": len(result.priced_orders),
        "issues": len(result.issues),
        "step_s": [b - a for a, b in zip([start] + steps, steps)],
    }))
    if trace_path:
        Path(trace_path).write_text(json.dumps(tracer.dump()))
    return 0


def main(argv: list[str]) -> int:
    if argv[0] == "cli":
        stage, request, trace_path, sep, *rest = argv[1:]
        if sep != "--":
            raise SystemExit("usage: cli <stage> <request> <trace.json> -- argv")
        return run_cli(stage, request, trace_path, rest)
    if argv[0] == "price":
        data, out, result_path, *trace = argv[1:]
        return run_price(Path(data), Path(out), result_path, *trace)
    raise SystemExit(f"unknown mode {argv[0]!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
