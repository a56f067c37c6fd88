"""The three workloads. Each is a closed loop with one client.

A workload returns an ``Outcome``: the operations it attempted and which of
them failed (a failed output check fails the operation that produced the
output), plus its metrics. ``seconds`` is a floor: the loop keeps issuing
work until that much time has passed and it has done at least its minimum.
"""

from __future__ import annotations

import gc
import json
import random
import shutil
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

from perfbench import checks
from perfbench.common import (
    TRACES, WORK, Ledger, child_argv, file_digests, ltbp_argv, nearest_rank,
    run_child, self_peak_rss_mb, source_digest,
)
from perfbench.tracer import EXACT_COUNTS, Tracer, layer_metrics

# pipeline and lookup use one store size: paper scale (65k orders, 177
# customers) / 5; pricing-10x uses paper scale * 10.
ORDERS, CUSTOMERS = 13_000, 35
PRICING_ORDERS, PRICING_CUSTOMERS = 650_000, 1_770

LOOKUP_SETUPS = 5  # set-ups a lookup run times
PIPELINE_SETUPS_PER_PASS = 3  # each pass generates its input anew this often
PIPELINE_MIN_PASSES = 3
PRICING_MIN_RUNS = 2
LOOKUP_MIN_MIXES = 250
LOOKUP_TRACED_MIXES = 34  # 102 requests leave 10 beyond the nearest-rank p90

# Output counts recorded at seed 42; every later commit must reproduce them.
SEED_42 = {
    ("pipeline", "graph.triples"): 156_342,
    ("pipeline", "graph.nt_bytes"): 15_395_697,
    ("lookup", "graph.triples"): 156_342,
}


@dataclass
class Outcome:
    attempted: int = 0
    failed: set = field(default_factory=set)
    messages: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    summary: dict = field(default_factory=dict)  # printed, not gated: name -> (value, unit)

    def fail(self, op, message: str) -> None:
        self.failed.add(op)
        self.messages.append(message)


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _check_counts(out: Outcome, workload: str, seed: int, scale: str,
                  metrics: dict, op) -> None:
    ledger = Ledger()
    code = source_digest()  # a change to ltbp may change these counts
    for name in EXACT_COUNTS:
        value = metrics[name]
        key = f"counts/{code}/{workload}/{scale}/seed={seed}/{name}"
        if not ledger.agrees(key, value):
            out.fail(op, f"determinism fault: {name} = {value} differs from an "
                         f"earlier run of seed {seed}")
        expected = SEED_42.get((workload, name))
        if seed == 42 and expected is not None and value != expected:
            out.fail(op, f"{name} = {value}, expected {expected} at seed 42")


def _write_trace(workload: str, seed: int, traces: list) -> None:
    TRACES.mkdir(parents=True, exist_ok=True)
    (TRACES / f"{workload}-seed{seed}.json").write_text(json.dumps(traces))


def _layers(out: Outcome, traces, rss, traced_s, untraced_s) -> dict:
    """Fill ``out.metrics`` from one traced run; ``traced_s`` and
    ``untraced_s`` time the same work with and without the tracer."""
    metrics = layer_metrics(traces, rss)
    metrics["trace.overhead_share"] = traced_s / untraced_s - 1
    out.metrics = {name: (value, _unit(name)) for name, value in metrics.items()}
    return metrics


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("nt_bytes"):
        return "bytes"
    if name.endswith(("_share", "_per_row")):
        return "ratio"
    return "count"


# --- pipeline ----------------------------------------------------------------

def _stage_argvs(data: str, run: str) -> dict[str, list]:
    return {
        "price": ["price", "--orders", f"{data}/orders.csv",
                  "--portfolio", f"{data}/customers.csv",
                  "--products", f"{data}/products.csv", "--out", run],
        "analyze": ["--out-dir", run, "analyze", "--graph", f"{run}/graph.nt"],
        "report": ["report", "--graph", f"{run}/graph.nt",
                   "--out", f"{run}/report.json",
                   "--manifest", f"{data}/manifest.json"],
    }


def pipeline(seed: int, seconds: float, trace: bool) -> Outcome:
    """generate (set-up), then price -> analyze -> report as CLI processes."""
    out = Outcome()
    work = _fresh(WORK / "pipeline")
    log = work / "stages.log"
    generate = ["generate", "--seed", seed, "--orders", ORDERS,
                "--customers", CUSTOMERS, "--out", "data"]
    traces, rss = [], {}

    def traced(stage, request, args):
        path = work / f"trace-{request.replace('/', '-')}.json"
        result = run_child(child_argv("cli", stage, request, path, "--", *args),
                           work, log)
        if path.exists():
            traces.append(json.loads(path.read_text()))
        rss[stage] = result.rss_mb
        return result

    setup_s, inputs = [], None

    def set_up() -> None:
        """Generate the input anew; every generate must write the same bytes."""
        nonlocal inputs
        shutil.rmtree(work / "data", ignore_errors=True)
        result = (traced("generate", "setup", generate) if trace
                  else run_child(ltbp_argv(*generate), work, log))
        if result.code != 0:
            raise RuntimeError(f"set-up failed: ltbp generate exited {result.code}")
        setup_s.append(result.wall_s)
        digests = file_digests(work / "data")
        if inputs not in (None, digests):
            raise RuntimeError("set-up is not deterministic: inputs differ")
        inputs = digests

    passes = []  # (run dir, {stage: ChildResult})
    start = time.perf_counter()

    def more() -> bool:  # a traced run makes one plain and one traced pass
        if trace:
            return len(passes) < 2
        return (len(passes) < PIPELINE_MIN_PASSES
                or time.perf_counter() - start < seconds)

    # An untraced run spreads its set-ups over the run, like the passes, so
    # that setup_s samples the host over the same span as mix_s, not over
    # its first seconds alone. A traced run sets up once, traced.
    if trace:
        set_up()
    while more():
        if not trace:
            for _ in range(PIPELINE_SETUPS_PER_PASS):
                set_up()
        run = f"run-{len(passes) + 1}"
        tracing = trace and len(passes) == 1
        stages = {}
        for stage, args in _stage_argvs("data", run).items():
            stages[stage] = (traced(stage, f"{run}/{stage}", args) if tracing
                             else run_child(ltbp_argv(*args), work, log))
            out.attempted += 1
            if stages[stage].code != 0:
                out.fail((run, stage), f"{run}: ltbp {stage} exited "
                                       f"{stages[stage].code}")
        passes.append((run, stages))

    _check_pipeline_outputs(out, work, seed, passes)
    totals = [sum(r.wall_s for r in stages.values()) for _, stages in passes]
    if trace:
        values = _layers(out, traces, rss, totals[1], totals[0])
        _check_counts(out, "pipeline", seed, f"{ORDERS}", values,
                      (passes[1][0], "price"))
        _write_trace("pipeline", seed, traces)
    else:
        stage_s = {stage: median(st[stage].wall_s for _, st in passes)
                   for stage in ("price", "analyze", "report")}
        out.metrics = {
            "setup_s": (median(setup_s), "s"),
            "peak_rss_mb": (max(r.rss_mb for _, st in passes for r in st.values()), "MB"),
            "mix_s": (median(totals), "s"),
        }
        out.summary = {
            **{f"{stage}_s": (value, "s") for stage, value in stage_s.items()},
            "pipeline_s": (median(totals), "s"),
            "passes": (len(passes), "count"),
        }
    shutil.rmtree(work)
    return out


def _check_pipeline_outputs(out: Outcome, work: Path, seed: int, passes) -> None:
    """Every pass must write the same bytes as every earlier pass and run of
    this seed, and the first tree must agree with the CSVs."""
    ledger = Ledger()
    for run, _ in passes:
        digests = file_digests(work / run)
        for name, stage in checks.STAGE_OF.items():
            digest = digests.get(name)
            key = f"outputs/pipeline/{ORDERS}/seed={seed}/{name}"
            if digest is None:
                out.fail((run, stage), f"{run}/{name} is missing")
            elif not ledger.agrees(key, digest):
                out.fail((run, stage), f"determinism fault: {run}/{name} differs")
    first_run, _ = passes[0]
    try:
        failures = checks.check_pipeline(work / "data", work / first_run)
    except (OSError, KeyError, ValueError, ArithmeticError) as exc:
        failures = [(stage, f"unreadable output: {exc!r}") for stage in ("analyze", "report")]
    for stage, message in failures:
        for run, _ in passes:  # the trees are byte-identical, so all passes fail
            out.fail((run, stage), f"{run}: {message}")


# --- lookup --------------------------------------------------------------------

TEMPLATES = {
    "order_prices": """SELECT ?rm ?convex WHERE {{
  ?o :hasOrderNumber "{key}" .
  ?o :hasRMPrice ?rm .
  ?o :hasConvexPrice ?convex .
}}""",
    "customer_premium": """SELECT ?cls ?premium WHERE {{
  ?c :hasCustomerCode "{key}" .
  ?c :hasAccountType ?cls .
  ?c :hasPremium ?premium .
}}""",
    "customer_orders": """SELECT ?num ?rm WHERE {{
  ?o :wasPlacedBy ?c .
  ?c :hasCustomerCode "{key}" .
  ?o :hasOrderNumber ?num .
  ?o :hasRMPrice ?rm .
}} ORDER BY ?num""",
}


def lookup_setup(seed: int):
    """Generate and price the pipeline's dataset; build its graph in memory."""
    from ltbp import graph, ingest, pricing
    from ltbp.model import PricingConfig

    config = PricingConfig()
    dataset = ingest.generate_synthetic(ingest.GeneratorConfig(
        seed=seed, n_orders=ORDERS, n_customers=CUSTOMERS))
    result = pricing.price_dataset(dataset, config)
    return dataset, result, graph.build_graph(dataset, result, config)


def lookup_requests(seed: int, dataset):
    """Endless (template, key) stream: each mix holds every template once,
    in a seeded order, with ids drawn uniformly."""
    rng = random.Random(f"lookup-{seed}")
    names = list(TEMPLATES)
    while True:
        rng.shuffle(names)
        for name in names:
            pool = dataset.orders if name == "order_prices" else dataset.customers
            item = rng.choice(pool)
            yield name, getattr(item, "order_number", None) or item.customer_code


def wrong_answers(requests, answers, dataset, result) -> list[int]:
    """Indexes of the requests whose answer differs from the rows read
    directly from the set-up's Dataset and PricingResult."""
    priced = {p.order_number: p for p in result.priced_orders}
    premium = {p.customer_code: p.premium for p in result.premiums}
    cls = {c.customer_code: c.account_class.value for c in dataset.customers}
    orders_of = defaultdict(list)
    for order in dataset.orders:
        if order.order_number in priced:
            orders_of[order.customer_code].append(
                (order.order_number, priced[order.order_number].rm))
    expected = {
        "order_prices": lambda key: [(priced[key].rm, priced[key].convex)],
        "customer_premium": lambda key: [(cls[key], premium[key])],
        "customer_orders": lambda key: sorted(orders_of[key]),
    }
    return [i for i, ((name, key), rows) in enumerate(zip(requests, answers))
            if list(rows) != expected[name](key)]


def _serve(graph_obj, texts):
    from ltbp import graph, query

    answers, latency = [], []
    for text in texts:
        start = time.perf_counter()
        table = graph.evaluate(graph_obj, query.parse_query(text))
        latency.append(time.perf_counter() - start)
        answers.append(table.rows)
    return answers, latency


def lookup(seed: int, seconds: float, trace: bool) -> Outcome:
    """parse_query + evaluate requests against the graph held in memory."""
    out = Outcome()
    tracer = Tracer()
    setup_s, state = [], None
    for _ in range(1 if trace else LOOKUP_SETUPS):
        state = None  # free the previous set-up before timing the next
        gc.collect()
        if trace:
            tracer.install()
            tracer.request = "setup"
        start = time.perf_counter()
        state = lookup_setup(seed)
        setup_s.append(time.perf_counter() - start)
        tracer.uninstall()
    dataset, result, graph_obj = state

    stream = lookup_requests(seed, dataset)
    requests, answers, latency = [], [], []
    start = time.perf_counter()
    least = LOOKUP_TRACED_MIXES if trace else LOOKUP_MIN_MIXES
    while len(requests) < 3 * least or (
            not trace and time.perf_counter() - start < seconds):
        mix = [next(stream) for _ in TEMPLATES]
        mix_answers, mix_latency = _serve(
            graph_obj, [TEMPLATES[name].format(key=key) for name, key in mix])
        requests += mix
        answers += mix_answers
        latency += mix_latency

    if trace:
        tracer.install()
        for i, (name, key) in enumerate(requests):
            tracer.request = f"request-{i}"
            traced_answers, traced_latency = _serve(
                graph_obj, [TEMPLATES[name].format(key=key)])
            answers.append(traced_answers[0])
            latency.append(traced_latency[0])
        tracer.uninstall()
        requests = requests * 2

    out.attempted = len(requests)
    for i in wrong_answers(requests, answers, dataset, result):
        out.fail(i, f"request {i} {requests[i]}: wrong answer")

    if trace:
        half = len(latency) // 2
        traces = [tracer.dump()]
        values = _layers(out, traces, {}, sum(latency[half:]), sum(latency[:half]))
        _check_counts(out, "lookup", seed, f"{ORDERS}", values, 0)
        _write_trace("lookup", seed, traces)
        return out

    by_template = {name: [] for name in TEMPLATES}
    for (name, _), seconds_taken in zip(requests, latency):
        by_template[name].append(seconds_taken * 1e3)
    mixes = [sum(latency[i:i + 3]) for i in range(0, len(latency), 3)]
    p90, beyond = nearest_rank(latency, 0.9)
    out.metrics = {
        "setup_s": (median(setup_s), "s"),
        "peak_rss_mb": (self_peak_rss_mb(), "MB"),
        "mix_s": (median(mixes), "s"),
    }
    out.summary = {
        "lookup_p50_ms": (median(latency) * 1e3, "ms"),
        "lookup_p90_ms": (p90 * 1e3, "ms"),
        "requests": (len(latency), "count"),
        "beyond_p90": (beyond, "count"),
        **{f"{name}_p50_ms": (median(values), "ms")
           for name, values in by_template.items()},
    }
    return out


# --- pricing-10x ----------------------------------------------------------------

def pricing_10x(seed: int, seconds: float, trace: bool) -> Outcome:
    """``ltbp price`` before the graph, at ten times paper scale, in a process
    that did not run the set-up."""
    from ltbp.model import PricingConfig

    out = Outcome()
    work = _fresh(WORK / "pricing-10x")
    log = work / "stages.log"
    generate = ["generate", "--seed", seed, "--orders", PRICING_ORDERS,
                "--customers", PRICING_CUSTOMERS, "--out", "data"]
    traces, rss = [], {}
    if trace:
        path = work / "trace-setup.json"
        setup = run_child(child_argv("cli", "generate", "setup", path, "--", *generate),
                          work, log)
        if path.exists():
            traces.append(json.loads(path.read_text()))
        rss["generate"] = setup.rss_mb
    else:
        setup = run_child(ltbp_argv(*generate), work, log)
    if setup.code != 0:
        raise RuntimeError(f"set-up failed: ltbp generate exited {setup.code}")

    runs = []  # (out dir, ChildResult, result dict)
    start = time.perf_counter()

    def more() -> bool:  # a traced run makes one plain and one traced run
        if trace:
            return len(runs) < 2
        return (len(runs) < PRICING_MIN_RUNS
                or time.perf_counter() - start < seconds)

    while more():
        name = f"out-{len(runs) + 1}"
        args = ["price", "data", name, f"{name}.json"]
        if trace and runs:
            args.append(work / "trace-price.json")
        child = run_child(child_argv(*args), work, log)
        out.attempted += 1
        result = None
        if child.code != 0:
            out.fail(name, f"{name}: pricing run exited {child.code}")
        else:
            result = json.loads((work / f"{name}.json").read_text())
        runs.append((name, child, result))
    if trace and (work / "trace-price.json").exists():
        traces.append(json.loads((work / "trace-price.json").read_text()))

    ledger = Ledger()
    p_max = PricingConfig().p_max
    for name, child, result in runs:
        if result is None:
            continue
        for message in checks.check_pricing(work / "data", work / name, result, p_max):
            out.fail(name, f"{name}: {message}")
        for file, digest in file_digests(work / name).items():
            key = f"outputs/pricing-10x/{PRICING_ORDERS}/seed={seed}/{file}"
            if not ledger.agrees(key, digest):
                out.fail(name, f"determinism fault: {name}/{file} differs")

    if trace:
        values = _layers(out, traces, rss, runs[1][1].wall_s, runs[0][1].wall_s)
        _check_counts(out, "pricing-10x", seed, f"{PRICING_ORDERS}", values,
                      runs[1][0])
        _write_trace("pricing-10x", seed, traces)
    else:
        steps = [r["step_s"] for _, _, r in runs if r is not None] or [[0.0] * 3]
        out.metrics = {
            "setup_s": (setup.wall_s, "s"),
            "peak_rss_mb": (max(child.rss_mb for _, child, _ in runs), "MB"),
            "mix_s": (median(child.wall_s for _, child, _ in runs), "s"),
        }
        out.summary = {
            "pricing_s": out.metrics["mix_s"],
            "runs": (len(runs), "count"),
            **{f"{step}_s": (median(s[i] for s in steps), "s")
               for i, step in enumerate(("load_dataset", "price_dataset", "write_csv"))},
        }
    shutil.rmtree(work)
    return out


WORKLOADS = {"pipeline": pipeline, "lookup": lookup, "pricing-10x": pricing_10x}
