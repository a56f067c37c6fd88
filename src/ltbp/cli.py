"""Command-line entry point.

    ltbp generate --seed 42 --out data/            synthetic dataset + manifest
    ltbp price --orders ... --portfolio ... --products ... --out run/
    ltbp --out-dir run analyze --graph run/graph.nt --top 20
    ltbp query --graph run/graph.nt --query src/ltbp/totals.rq
    ltbp report --graph run/graph.nt --out run/report.json

Exit codes: 0 ok, 1 usage, 2 data error, 3 internal error. All outputs are
deterministic for fixed inputs and seed.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import fields
from datetime import date
from pathlib import Path

from . import analytics, graph as graphmod, ingest, pricing, report as reportmod
from . import terms
from .model import InvalidField, PricingConfig, collector_paused
from .query import QueryError, parse_query

log = logging.getLogger("ltbp")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    pass


class ConfigError(Exception):
    """A generator or pricing setting outside its range."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems must exit 1, not argparse's 2
        raise UsageError(message)


# The pricing settings a config file or flag may set.
_CONFIG_KEYS = tuple(f.name for f in fields(PricingConfig))


def _read_text(path) -> str:
    """A small input file's text; text that is not UTF-8 is a data error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise ingest.LoadError(ingest.not_utf8(path)) from None


def _checked(config_class, **values):
    """``config_class(**values)``, a value its rules reject being a data error."""
    try:
        return config_class(**values)
    except InvalidField as exc:
        raise ConfigError(str(exc)) from None


def read_config_file(path) -> dict[str, float]:
    """Flat key = value file mirroring PricingConfig fields; a key may be
    set once."""
    values: dict[str, float] = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep or key not in _CONFIG_KEYS:
            raise ingest.LoadError(
                f"{path}: line {lineno}: expected 'key = value' with key in "
                f"{_CONFIG_KEYS}, got {raw.strip()!r}"
            )
        if key in first_line:
            raise ingest.LoadError(
                f"{path}: line {lineno}: {key} is already set on line "
                f"{first_line[key]}"
            )
        first_line[key] = lineno
        try:
            values[key] = float(value)
        except ValueError:
            raise ingest.LoadError(
                f"{path}: line {lineno}: not a number: {value!r}"
            ) from None
    return values


def build_pricing_config(args) -> PricingConfig:
    """Each setting from its flag, else the ``--config`` file, else
    ``PricingConfig``'s default."""
    values = read_config_file(args.config) if args.config else {}
    for key in _CONFIG_KEYS:
        if getattr(args, key, None) is not None:
            values[key] = getattr(args, key)
    return _checked(PricingConfig, **values)


def _parse_iso(text: str) -> date:
    try:
        return terms.read(date, text)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def cmd_generate(args) -> int:
    start, end = ingest.GeneratorConfig.date_span
    span = (
        _parse_iso(args.start) if args.start else start,
        _parse_iso(args.end) if args.end else end,
    )
    config = _checked(
        ingest.GeneratorConfig,
        seed=args.seed,
        n_customers=args.customers,
        n_orders=args.orders,
        n_products=args.products,
        date_span=span,
    )
    dataset = ingest.generate_synthetic(config)
    out = Path(args.out or args.out_dir)
    paths = ingest.write_dataset(dataset, out)
    ingest.write_manifest(config, out / "manifest.json")
    log.info(
        "wrote %d customers, %d products, %d orders under %s",
        len(dataset.customers), len(dataset.products), len(dataset.orders), out,
    )
    print(f"generated {len(dataset.orders)} orders -> {paths['orders']}")
    return EXIT_OK


def _load_dataset(args) -> ingest.Dataset:
    issues = [] if args.skip_invalid else None
    dataset = ingest.load_dataset(
        args.orders, args.portfolio, args.products, issues=issues
    )
    for issue in issues or ():
        print(f"skipped: {issue}", file=sys.stderr)
    return dataset


def cmd_price(args) -> int:
    config = build_pricing_config(args)
    dataset = _load_dataset(args)
    result = pricing.price_dataset(dataset, config)
    for issue in result.issues:
        print(f"unpriced order {issue.order_number}: {issue.message}",
              file=sys.stderr)
    out = Path(args.out or args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    pricing.write_premiums(result, out / "premiums.csv")
    pricing.write_priced_orders(result, out / "priced_orders.csv")
    g = graphmod.build_graph(dataset, result, config)
    graphmod.export_ntriples(g, out / "graph.nt")
    print(
        f"priced {len(result.priced_orders)} orders "
        f"({len(result.issues)} skipped), graph: {len(g)} triples -> {out}"
    )
    return EXIT_OK


def cmd_analyze(args) -> int:
    g = graphmod.load_ntriples(args.graph)
    cq = analytics.run_competency_questions(g, top_n=args.top, pair_k=args.pairs)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    analytics.write_cq_csvs(cq, out)
    analytics.write_cq_json(cq, out / "cq_report.json")
    print(f"wrote cq1..cq4 CSVs and cq_report.json -> {out}")
    return EXIT_OK


def cmd_query(args) -> int:
    g = graphmod.load_ntriples(args.graph)
    table = graphmod.evaluate(g, parse_query(_read_text(args.query)))
    print("\t".join(table.columns))
    for row in table.rows:  # an unbound cell is empty; a bound one reads back
        print("\t".join("" if cell is None else terms.text(cell) for cell in row))
    return EXIT_OK


def cmd_report(args) -> int:
    # The report names a pricing config only when the command line sets one.
    configured = args.config or any(getattr(args, key) is not None
                                    for key in _CONFIG_KEYS)
    config = build_pricing_config(args) if configured else None
    g = graphmod.load_ntriples(args.graph)
    comparison = reportmod.revenue_totals(g)
    out = Path(args.out) if args.out else Path(args.out_dir) / "report.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    reportmod.emit_report(comparison, out, config=config,
                          manifest_ref=args.manifest)
    print(
        f"totals: original={comparison.total_original} rm={comparison.total_rm} "
        f"convex={comparison.total_convex} ordering_holds={comparison.ordering_holds}"
    )
    return EXIT_OK


def _add_config_flags(parser) -> None:
    parser.add_argument("--config", help="flat key=value pricing config file")
    for key in _CONFIG_KEYS:
        parser.add_argument(f"--{key.replace('_', '-')}", dest=key, type=float)


def make_parser() -> _Parser:
    parser = _Parser(prog="ltbp", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out-dir", default=".", help="default output directory")
    parser.add_argument("--skip-invalid", action="store_true",
                        help="collect bad input rows instead of aborting")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a seeded synthetic dataset")
    defaults = ingest.GeneratorConfig
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.add_argument("--orders", type=int, default=defaults.n_orders)
    p.add_argument("--customers", type=int, default=defaults.n_customers)
    p.add_argument("--products", type=int, default=defaults.n_products)
    p.add_argument("--start", help="first order date (ISO)")
    p.add_argument("--end", help="last order date (ISO)")
    p.add_argument("--out", help="output directory (defaults to --out-dir)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("price", help="price a dataset and export its graph")
    p.add_argument("--orders", required=True, help="orders CSV")
    p.add_argument("--portfolio", required=True, help="customers CSV")
    p.add_argument("--products", required=True, help="products CSV")
    p.add_argument("--out", help="output directory (defaults to --out-dir)")
    _add_config_flags(p)
    p.set_defaults(func=cmd_price)

    p = sub.add_parser("analyze", help="answer the competency questions")
    p.add_argument("--graph", required=True, help="N-Triples graph file")
    p.add_argument("--top", type=int, default=20, help="customers in the ranking")
    p.add_argument("--pairs", type=int, default=20,
                   help="(customer, product) pairs in the selection")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("query", help="evaluate a query file against a graph")
    p.add_argument("--graph", required=True, help="N-Triples graph file")
    p.add_argument("--query", required=True, help="query file")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("report", help="revenue comparison across regimes")
    p.add_argument("--graph", required=True, help="N-Triples graph file")
    p.add_argument("--out", help="report path (defaults to <out-dir>/report.json)")
    p.add_argument("--manifest", help="dataset manifest reference to record")
    _add_config_flags(p)
    p.set_defaults(func=cmd_report)
    return parser


# Errors raised for bad input. A bare ValueError is not among them: it comes
# from a bug, and exits 3.
DATA_ERRORS = (
    ingest.LoadError,
    ConfigError,
    graphmod.GraphError,
    QueryError,
    reportmod.IncompleteDataError,
    reportmod.InconsistentTotalsError,
)

# Errors opening a path the user gave: an input or output file that is
# missing, a directory, under a file, or not readable or writable.
PATH_ERRORS = (FileNotFoundError, IsADirectoryError, NotADirectoryError,
               PermissionError)


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    with collector_paused():  # for the whole command
        try:
            return args.func(args)
        except UsageError as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except PATH_ERRORS as exc:
            reason = ("no such file" if isinstance(exc, FileNotFoundError)
                      else exc.strerror.lower())
            print(f"error: {reason}: {exc.filename}", file=sys.stderr)
            return EXIT_DATA
        except DATA_ERRORS as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_DATA
        except Exception as exc:  # anything unexpected is an internal error
            log.exception("internal error")
            print(f"internal error: {exc}", file=sys.stderr)
            return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
