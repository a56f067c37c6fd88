"""In-memory triple store: entity assertion, pattern matching, aggregation.

Triples follow the domain ontology: orders link to customers and products via
``wasPlacedBy`` / ``containsProduct``; data properties carry codes, dates,
quantities, and prices. Matching is a natural join over triple patterns with
shared variables; evaluation adds filters, grouping, aggregates, ordering,
and limits. Monetary aggregation is exact fixed-point decimal.

Store layout (after Hexastore and RDF-3X): every term is interned once to an
int id, and the graph keeps two nested-dict indexes over those ids,
``spo: s -> p -> [o]`` and ``pos: p -> o -> [s]``. A pattern with a bound
subject is answered from ``spo``; one with a bound predicate or object from
``pos``; one with nothing bound scans ``spo``. A query joins its patterns in
greedy order over rows of ids, looking each row's triples up through
``Graph.match(..., ids=True)``; its filters run once every pattern is joined.

A term's identity is the N-Triples text it exports as, so a literal is its
lexical form plus datatype. ``100`` (integer), ``100.00`` and ``1.00``
(decimal) are equal as Python values but are three terms, and each exports
as it was asserted. The loader reads a typed literal to its value and keys
it by that value's text: ``"007"^^xsd:integer`` loads as ``"7"`` and
``"+1.0"^^xsd:decimal`` as ``"1.0"``, so lines that differ only in such a
form load as one triple.

Iteration order is deterministic for a deterministically built graph,
regardless of hash randomization: ``spo`` yields subjects in first-insertion
order, then each subject's predicates and objects in insertion order; ``pos``
does the same by predicate, object and subject.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import date
from decimal import Decimal
from typing import Iterable, Iterator, Optional, Sequence, Union

from . import terms as T
from .model import Customer, Order, PricingConfig, Product, adjustment_factor, to_factor
from .query import (
    Arith,
    BoolOp,
    Compare,
    Const,
    Expr,
    Neg,
    Not,
    QueryError,
    QuerySpec,
    VarRef,
    expr_variables,
    render_expr,
)
from .terms import Iri, Literal, Triple, Variable

BindingValue = Union[Iri, str, int, Decimal, date]
Binding = dict  # variable name -> BindingValue


class GraphError(Exception):
    pass


class DuplicateSubjectError(GraphError):
    pass


class DanglingReferenceError(GraphError):
    pass


class UnknownOrderError(GraphError):
    pass


class GraphParseError(GraphError):
    pass


class EvaluationError(QueryError):
    pass


class FilterTypeError(EvaluationError):
    pass


# --- N-Triples term text -----------------------------------------------------

_XSD_INTEGER = f"{T.XSD}integer"
_XSD_DECIMAL = f"{T.XSD}decimal"
_XSD_DATE = f"{T.XSD}date"

_NT_ESCAPES = str.maketrans(
    {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}
)


def _nt_term(term: Union[Iri, Literal]) -> str:
    """A term's N-Triples text, which is also its identity in the store."""
    if isinstance(term, Iri):
        return f"<{term.value}>"
    value = term.value
    if isinstance(value, str):
        return f'"{value.translate(_NT_ESCAPES)}"'
    if isinstance(value, bool):
        raise GraphError("boolean literals are not supported")
    if isinstance(value, int):
        return f'"{value}"^^<{_XSD_INTEGER}>'
    if isinstance(value, Decimal):  # plain notation: xsd:decimal has no exponent
        return f'"{value:f}"^^<{_XSD_DECIMAL}>'
    if isinstance(value, date):
        return f'"{value.isoformat()}"^^<{_XSD_DATE}>'
    raise GraphError(f"unsupported literal value {value!r}")


class Graph:
    """Set of triples over interned term ids, indexed as spo and pos."""

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}  # N-Triples text -> id
        self._text: list[str] = []  # id -> N-Triples text
        self._values: list[BindingValue] = []  # id -> Iri or literal value
        self._spo: dict[int, dict[int, list[int]]] = {}
        self._pos: dict[int, dict[int, list[int]]] = {}
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Triple]:
        return self._triples(self._match_ids(None, None, None))

    def __contains__(self, triple: Triple) -> bool:
        found = self.match(triple.subject, triple.predicate, triple.object)
        return next(found, None) is not None

    def add(self, triple: Triple) -> bool:
        """Insert a triple; returns False when it was already present."""
        return self._add_ids(
            self._intern(triple.subject),
            self._intern(triple.predicate),
            self._intern(triple.object),
        )

    def has_subject(self, iri: Iri) -> bool:
        return self._ids.get(f"<{iri.value}>") in self._spo

    def match(
        self,
        subject: Optional[Union[Iri, int]] = None,
        predicate: Optional[Union[Iri, int]] = None,
        object: Optional[Union[Iri, Literal, int]] = None,
        *,
        ids: bool = False,
    ) -> Iterable:
        """Iterate triples matching the given concrete terms (None = any).

        With ``ids=True`` the arguments and the yielded ``(s, p, o)`` tuples
        are interned term ids; query joins look triples up this way, so a
        wrapper on this method (as in ``perfbench/tracer.py``) sees every
        lookup a query makes.
        """
        if ids:
            return self._match_ids(subject, predicate, object)
        return self._match_terms(subject, predicate, object)

    # -- ids ------------------------------------------------------------------

    def _intern(self, term: Union[Iri, Literal]) -> int:
        return self._intern_text(_nt_term(term), term)

    def _intern_text(self, text: str, term: Union[Iri, Literal]) -> int:
        tid = self._ids.get(text)
        if tid is None:
            tid = self._ids[text] = len(self._text)
            self._text.append(text)
            self._values.append(term if isinstance(term, Iri) else term.value)
        return tid

    def _id_of(self, term: Union[Iri, Literal]) -> Optional[int]:
        try:
            return self._ids.get(_nt_term(term))
        except GraphError:  # a value no stored term can have
            return None

    def _match_terms(self, subject, predicate, object) -> Iterator[Triple]:
        ids = []
        for term in (subject, predicate, object):
            if term is None:
                ids.append(None)
                continue
            tid = self._id_of(term)
            if tid is None:
                return
            ids.append(tid)
        yield from self._triples(self._match_ids(*ids))

    def _term(self, tid: int) -> Union[Iri, Literal]:
        value = self._values[tid]
        return value if isinstance(value, Iri) else Literal(value)

    def _triples(self, ids) -> Iterator[Triple]:
        values, term = self._values, self._term
        for s, p, o in ids:
            yield Triple(values[s], values[p], term(o))

    def _add_ids(self, s: int, p: int, o: int) -> bool:
        by_p = self._spo.get(s)
        if by_p is None:
            by_p = self._spo[s] = {}
        objects = by_p.get(p)
        if objects is None:
            by_p[p] = [o]
        elif o in objects:
            return False
        else:
            objects.append(o)
        by_o = self._pos.get(p)
        if by_o is None:
            by_o = self._pos[p] = {}
        subjects = by_o.get(o)
        if subjects is None:
            by_o[o] = [s]
        else:
            subjects.append(s)
        self._size += 1
        return True

    def _match_ids(self, s, p, o) -> Iterable[tuple[int, int, int]]:
        """(s, p, o) id triples matching the given ids (None = any).

        A list, except for the lazy scan of the whole store when none is given.
        """
        if s is not None:
            by_p = self._spo.get(s)
            if not by_p:
                return []
            pairs = by_p.items() if p is None else ((p, by_p.get(p, ())),)
            if o is None:
                return [(s, p2, o2) for p2, objects in pairs for o2 in objects]
            return [(s, p2, o) for p2, objects in pairs if o in objects]
        if p is None and o is None:
            return (
                (s2, p2, o2)
                for s2, by_p in self._spo.items()
                for p2, objects in by_p.items()
                for o2 in objects
            )
        groups = self._pos.items() if p is None else ((p, self._pos.get(p, {})),)
        if o is None:
            return [
                (s2, p2, o2)
                for p2, by_o in groups
                for o2, subjects in by_o.items()
                for s2 in subjects
            ]
        return [(s2, p2, o) for p2, by_o in groups for s2 in by_o.get(o, ())]


# --- entity assertion --------------------------------------------------------


def _assert(graph: Graph, subject: Iri, pairs) -> list[Triple]:
    """Add (subject, predicate, object) per pair; returns the new triples."""
    s = graph._intern(subject)
    added = []
    for predicate, obj in pairs:
        if graph._add_ids(s, graph._intern(predicate), graph._intern(obj)):
            added.append(Triple(subject, predicate, obj))
    return added


def assert_customer(
    graph: Graph, customer: Customer, config: PricingConfig
) -> list[Triple]:
    """Assert one customer: 5 triples, 6 when a region is present."""
    subject = T.customer_iri(customer.customer_code)
    if graph.has_subject(subject):
        raise DuplicateSubjectError(f"customer already asserted: {subject.value}")
    rho = adjustment_factor(customer.account_class, config)
    pairs = [
        (T.TYPE, T.CUSTOMER_CLASS),
        (T.HAS_CUSTOMER_CODE, Literal(customer.customer_code)),
        (T.HAS_ACCOUNT_TYPE, Literal(customer.account_class.value)),
        (T.HAS_ADJUSTMENT_FACTOR, Literal(to_factor(rho))),
        (T.HAS_ANNUAL_REVENUE, Literal(customer.annual_revenue)),
    ]
    if customer.region is not None:
        pairs.append((T.HAS_REGION, Literal(customer.region)))
    return _assert(graph, subject, pairs)


def assert_product(graph: Graph, product: Product) -> list[Triple]:
    """Assert one product: exactly 4 triples."""
    subject = T.product_iri(product.product_number)
    if graph.has_subject(subject):
        raise DuplicateSubjectError(f"product already asserted: {subject.value}")
    return _assert(graph, subject, [
        (T.TYPE, T.PRODUCT_CLASS),
        (T.HAS_PRODUCT_NUMBER, Literal(product.product_number)),
        (T.HAS_BASIC_TYPE, Literal(product.basic_type)),
        (T.HAS_PRODUCT_LINE, Literal(product.product_line)),
    ])


def assert_order(graph: Graph, order: Order) -> list[Triple]:
    """Assert one order: exactly 10 triples linking customer and product."""
    subject = T.order_iri(order.order_number)
    if graph.has_subject(subject):
        raise DuplicateSubjectError(f"order already asserted: {subject.value}")
    customer = T.customer_iri(order.customer_code)
    product = T.product_iri(order.product_number)
    if not graph.has_subject(customer):
        raise DanglingReferenceError(
            f"order {order.order_number} references unknown customer "
            f"{order.customer_code}"
        )
    if not graph.has_subject(product):
        raise DanglingReferenceError(
            f"order {order.order_number} references unknown product "
            f"{order.product_number}"
        )
    return _assert(graph, subject, [
        (T.TYPE, T.ORDER_CLASS),
        (T.HAS_ORDER_NUMBER, Literal(order.order_number)),
        (T.HAS_QUANTITY, Literal(order.quantity)),
        (T.HAS_ORIGINAL_PRICE, Literal(order.original_price)),
        (T.HAS_ORDER_DATE, Literal(order.order_date)),
        (T.HAS_REQUESTED_DATE, Literal(order.customer_request_date)),
        (T.HAS_CONFIRMED_DATE, Literal(order.customer_delivery_date)),
        (T.HAS_STANDARD_DATE, Literal(order.standard_delivery_date)),
        (T.WAS_PLACED_BY, customer),
        (T.CONTAINS_PRODUCT, product),
    ])


def assert_premium(graph: Graph, premium) -> list[Triple]:
    """Attach a customer's premium: 1 triple; idempotent on re-assert."""
    subject = T.customer_iri(premium.customer_code)
    if not graph.has_subject(subject):
        raise DanglingReferenceError(
            f"premium references unknown customer {premium.customer_code}"
        )
    return _assert(
        graph, subject, [(T.HAS_PREMIUM, Literal(to_factor(premium.premium)))]
    )


def assert_priced(graph: Graph, priced) -> list[Triple]:
    """Attach RM and convex prices to an asserted order: 2 triples."""
    subject = T.order_iri(priced.order_number)
    if not graph.has_subject(subject):
        raise UnknownOrderError(
            f"priced order references unknown order {priced.order_number}"
        )
    return _assert(graph, subject, [
        (T.HAS_RM_PRICE, Literal(priced.rm)),
        (T.HAS_CONVEX_PRICE, Literal(priced.convex)),
    ])


def build_graph(dataset, pricing=None, config: PricingConfig | None = None) -> Graph:
    """Materialize a dataset (and optional pricing output) as a graph."""
    config = config or PricingConfig()
    graph = Graph()
    for product in dataset.products:
        assert_product(graph, product)
    for customer in dataset.customers:
        assert_customer(graph, customer, config)
    for order in dataset.orders:
        assert_order(graph, order)
    if pricing is not None:
        for premium in pricing.premiums:
            assert_premium(graph, premium)
        for priced in pricing.priced_orders:
            assert_priced(graph, priced)
    return graph


# --- pattern matching --------------------------------------------------------

_MISSING = -1  # id of a constant the graph does not hold; it matches nothing


def _plan(graph: Graph, patterns: Sequence[tuple]):
    """Compile patterns to row cells and order them greedily.

    A row holds one cell per variable and one per constant, in order of first
    appearance; the start row has the constants' ids filled in. The next
    pattern is the one with the most bound positions (constants and
    variables earlier patterns bind), ties in text order. Each step is the
    pattern's cells and, per position, whether it is bound when the step runs.
    """
    slots: dict[str, int] = {}
    start: list[Optional[int]] = []
    pending = []
    for pattern in patterns:
        if len(pattern) != 3:
            raise QueryError(f"malformed pattern: {pattern!r}")
        cells = []
        for term in pattern:
            if isinstance(term, Variable):
                if term.name not in slots:
                    slots[term.name] = len(start)
                    start.append(None)
                cells.append(slots[term.name])
                continue
            if not isinstance(term, (Iri, Literal)):
                term = Literal(term)
            tid = graph._id_of(term)
            cells.append(len(start))
            start.append(_MISSING if tid is None else tid)
        pending.append(tuple(cells))

    bound = {cell for cell, tid in enumerate(start) if tid is not None}
    steps = []
    while pending:
        flags = [[cell in bound for cell in cells] for cells in pending]
        best = max(range(len(pending)), key=lambda i: sum(flags[i]))
        cells = pending.pop(best)
        steps.append((cells, flags[best]))
        bound.update(cells)
    return slots, start, steps


def _join(graph: Graph, cells, bound, rows: list[list]) -> list[list]:
    """Extend every row by each triple matching the step's pattern."""
    cs, cp, co = cells
    free = [(k, cell) for k, (cell, b) in enumerate(zip(cells, bound)) if not b]
    match = graph.match
    out = []
    for row in rows:
        for triple in match(row[cs], row[cp], row[co], ids=True):
            new = row.copy()
            for k, cell in free:
                seen = new[cell]
                if seen is None:
                    new[cell] = triple[k]
                elif seen != triple[k]:  # same variable twice within one pattern
                    break
            else:
                out.append(new)
    return out


def _solve(graph: Graph, patterns, filters):
    """Variable slots and the id rows satisfying every pattern and filter.

    Filters run in order once every pattern is joined, so a filter sees only
    rows that satisfy all patterns.
    """
    slots, start, steps = _plan(graph, patterns)
    rows = [start]
    for cells, bound in steps:
        if not rows:
            break
        rows = _join(graph, cells, bound, rows)
    values = graph._values
    for expr in filters:
        cells = [(name, slots[name]) for name in expr_variables(expr) if name in slots]
        rows = [
            row for row in rows
            if _truth(expr, {name: values[row[cell]] for name, cell in cells})
        ]
    return slots, rows


def match_patterns(
    graph: Graph,
    patterns: Sequence[tuple],
    filters: Sequence[Expr] = (),
) -> list[Binding]:
    """All variable bindings satisfying every pattern and filter.

    Patterns join naturally on shared variables. Row order is deterministic
    but otherwise unspecified; use evaluate() for ordering.
    """
    slots, rows = _solve(graph, patterns, filters)
    values = graph._values
    named = list(slots.items())
    return [{name: values[row[cell]] for name, cell in named} for row in rows]


# --- filter evaluation -------------------------------------------------------


def _type_name(value) -> str:
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, Decimal)):
        return "number"
    if isinstance(value, str):
        return "string"
    if isinstance(value, date):
        return "date"
    if isinstance(value, Iri):
        return "iri"
    return type(value).__name__


def _eval_expr(expr: Expr, row: Binding):
    if isinstance(expr, VarRef):
        if expr.name not in row:
            raise EvaluationError(f"unbound variable ?{expr.name} in filter")
        return row[expr.name]
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Compare):
        return _compare(expr, row)
    if isinstance(expr, Arith):
        left = _eval_expr(expr.left, row)
        right = _eval_expr(expr.right, row)
        if not (_is_number(left) and _is_number(right)):
            raise FilterTypeError(
                f"arithmetic needs numbers, got {_type_name(left)} and "
                f"{_type_name(right)} in {render_expr(expr)}"
            )
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        if right == 0:
            raise EvaluationError(f"division by zero in {render_expr(expr)}")
        return Decimal(left) / Decimal(right)
    if isinstance(expr, Neg):
        value = _eval_expr(expr.operand, row)
        if not _is_number(value):
            raise FilterTypeError(
                f"negation needs a number, got {_type_name(value)} "
                f"in {render_expr(expr)}"
            )
        return -value
    if isinstance(expr, BoolOp):
        left = _require_bool(_eval_expr(expr.left, row), expr)
        if expr.op == "&&":
            return left and _require_bool(_eval_expr(expr.right, row), expr)
        return left or _require_bool(_eval_expr(expr.right, row), expr)
    if isinstance(expr, Not):
        return not _require_bool(_eval_expr(expr.operand, row), expr)
    raise EvaluationError(f"cannot evaluate {expr!r}")


def _is_number(value) -> bool:
    return isinstance(value, (int, Decimal)) and not isinstance(value, bool)


def _require_bool(value, expr: Expr) -> bool:
    if not isinstance(value, bool):
        raise FilterTypeError(
            f"expected a boolean, got {_type_name(value)} in {render_expr(expr)}"
        )
    return value


def _compare(expr: Compare, row: Binding) -> bool:
    left = _eval_expr(expr.left, row)
    right = _eval_expr(expr.right, row)
    numeric = _is_number(left) and _is_number(right)
    same_kind = (
        numeric
        or (isinstance(left, str) and isinstance(right, str))
        or (isinstance(left, date) and isinstance(right, date))
        or (isinstance(left, Iri) and isinstance(right, Iri))
    )
    if not same_kind:
        raise FilterTypeError(
            f"type mismatch: cannot compare {_type_name(left)} to "
            f"{_type_name(right)} in {render_expr(expr)}"
        )
    if expr.op == "=":
        return left == right
    if expr.op == "!=":
        return left != right
    if isinstance(left, Iri):
        raise FilterTypeError(f"IRIs are not ordered in {render_expr(expr)}")
    if expr.op == "<":
        return left < right
    if expr.op == "<=":
        return left <= right
    if expr.op == ">":
        return left > right
    return left >= right


def _truth(expr: Expr, row: Binding) -> bool:
    return _require_bool(_eval_expr(expr, row), expr)


# --- evaluation --------------------------------------------------------------


@dataclass
class ResultTable:
    columns: list[str]
    rows: list[tuple]

    def mappings(self) -> list[dict]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def column(self, name: str) -> list:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]


_SORT_RANK = {int: 0, Decimal: 0, str: 1, date: 2, Iri: 3}


def _sort_key(value):
    if isinstance(value, Iri):
        return (3, value.value)
    return (_SORT_RANK[type(value)], value)


def _group_key(values: tuple):
    return tuple(_sort_key(v) for v in values)


def _aggregate(func: str, values: list, alias: str):
    if func == "COUNT":
        return len(values)
    if not values:
        return 0 if func == "SUM" else None
    if func in ("SUM", "AVG"):
        total = 0
        for v in values:
            if not _is_number(v):
                raise EvaluationError(
                    f"{func} needs numeric values, got {_type_name(v)} "
                    f"for ?{alias}"
                )
            total = total + v
        if func == "SUM":
            return total
        return Decimal(total) / Decimal(len(values))
    # MIN / MAX over one comparable kind
    first = values[0]
    kinds = {_type_name(v) for v in values}
    if len(kinds) > 1 or isinstance(first, Iri):
        raise EvaluationError(
            f"{func} needs one ordered value kind, got {sorted(kinds)} for ?{alias}"
        )
    return min(values) if func == "MIN" else max(values)


def evaluate(graph: Graph, spec: QuerySpec) -> ResultTable:
    """Run a query: match, group, aggregate, order, and limit."""
    spec.validate()
    slots, rows = _solve(graph, spec.patterns, spec.filters)
    values = graph._values
    aggregates = spec.aggregates
    columns = [p if isinstance(p, str) else p.alias for p in spec.projections]

    if aggregates or spec.group_by:
        key_cells = [slots[name] for name in spec.group_by]
        groups: dict[tuple, list[list]] = {}
        for row in rows:
            key = tuple(values[row[cell]] for cell in key_cells)
            groups.setdefault(key, []).append(row)
        if not spec.group_by and not groups:
            groups[()] = []  # global aggregates over no rows still yield one row
        out_rows = []
        for key in sorted(groups, key=_group_key):
            members = groups[key]
            named = dict(zip(spec.group_by, key))
            record = []
            for proj in spec.projections:
                if isinstance(proj, str):
                    record.append(named[proj])
                else:
                    cell = slots[proj.var]
                    record.append(
                        _aggregate(
                            proj.func,
                            [values[m[cell]] for m in members],
                            proj.alias,
                        )
                    )
            out_rows.append(tuple(record))
    else:
        cells = [slots[name] for name in spec.projections]
        out_rows = [tuple(values[row[cell]] for cell in cells) for row in rows]

    if spec.order_by is not None:
        try:
            idx = columns.index(spec.order_by.key)
        except ValueError:
            raise EvaluationError(
                f"order key ?{spec.order_by.key} is not a result column"
            ) from None
        keyed = [r for r in out_rows if r[idx] is not None]
        absent = [r for r in out_rows if r[idx] is None]
        keyed.sort(key=lambda r: _sort_key(r[idx]), reverse=spec.order_by.descending)
        out_rows = keyed + absent
    if spec.limit is not None:
        out_rows = out_rows[: spec.limit]
    return ResultTable(columns, out_rows)


# --- N-Triples I/O -----------------------------------------------------------


def export_ntriples(graph: Graph, path) -> None:
    """One triple per line in lexicographic order; reload round-trips.

    Lines stream out one subject at a time, subjects in text order and each
    subject's lines sorted, which is the order of the sorted file: no subject
    text is a prefix of another (``>`` ends an IRI and cannot occur inside
    it), so the subject decides between lines of different subjects.
    """
    text = graph._text
    spo = graph._spo
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for s in sorted(spo, key=text.__getitem__):
            head = text[s]
            lines = [
                f"{head} {text[p]} {text[o]} ."
                for p, objects in spo[s].items()
                for o in objects
            ]
            lines.sort()
            handle.writelines([f"{line}\n" for line in lines])


_NT_LITERAL = re.compile(r'"(?P<body>(?:[^"\\]|\\.)*)"(?:\^\^<(?P<dtype>[^<>\s]*)>)?')
# N-Triples IRIREF excludes controls, space and <>"{}|^`\ (W3C, 2014); other
# whitespace is excluded too, as the loader splits terms on it.
_IRI_FORBIDDEN = re.compile(r'[\x00-\x20\s<>"{}|^`\\]')
_NT_ESCAPE = re.compile(r"\\(?:u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|(.?))", re.DOTALL)
_NT_UNESCAPES = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}
# Lexical forms per datatype; decimals as xsd:decimal, which has no exponent.
_LEXICAL = {
    _XSD_INTEGER: (re.compile(r"[+-]?[0-9]+"), int),
    _XSD_DECIMAL: (re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)"), Decimal),
    _XSD_DATE: (re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}"), date.fromisoformat),
}


def _nt_unescape(body: str, lineno: int) -> str:
    if "\\" not in body:
        return body

    def replace(m: re.Match) -> str:
        short, long, char = m.groups()
        if char is None:
            code = int(short or long, 16)
            if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
                raise GraphParseError(f"line {lineno}: invalid code point {m.group()}")
            return chr(code)
        if char not in _NT_UNESCAPES:
            raise GraphParseError(f"line {lineno}: invalid escape \\{char}")
        return _NT_UNESCAPES[char]

    return _NT_ESCAPE.sub(replace, body)


def _parse_iri(token: str, lineno: int) -> Iri:
    if not (token.startswith("<") and token.endswith(">")):
        raise GraphParseError(f"line {lineno}: expected an IRI, got {token!r}")
    body = token[1:-1]
    bad = _IRI_FORBIDDEN.search(body)
    if bad is not None:
        raise GraphParseError(
            f"line {lineno}: character {bad.group()!r} not allowed in IRI {token}"
        )
    return Iri(body)


def _parse_object(token: str, lineno: int) -> Union[Iri, Literal]:
    if token.startswith("<") and token.endswith(">"):
        return _parse_iri(token, lineno)
    m = _NT_LITERAL.fullmatch(token)
    if m is None:
        raise GraphParseError(f"line {lineno}: malformed object term: {token!r}")
    body = _nt_unescape(m.group("body"), lineno)
    dtype = m.group("dtype")
    if dtype is None:
        return Literal(body)
    if dtype not in _LEXICAL:
        raise GraphParseError(f"line {lineno}: unsupported datatype <{dtype}>")
    lexical, convert = _LEXICAL[dtype]
    if lexical.fullmatch(body):
        try:
            return Literal(convert(body))
        except ValueError:  # a well-formed but impossible date
            pass
    raise GraphParseError(f"line {lineno}: invalid literal {body!r} for <{dtype}>")


def _token_ids(graph: Graph, tokens, lineno: int, iris: dict, objects: dict):
    s_token, p_token, o_token = tokens
    ids = []
    for token in (s_token, p_token):
        tid = iris.get(token)
        if tid is None:
            tid = iris[token] = graph._intern_text(token, _parse_iri(token, lineno))
        ids.append(tid)
    tid = objects.get(o_token)
    if tid is None:
        tid = objects[o_token] = graph._intern(_parse_object(o_token, lineno))
    ids.append(tid)
    return ids


def _malformed(lineno: int, line: str) -> GraphParseError:
    return GraphParseError(f"line {lineno}: malformed triple: {line!r}")


def load_ntriples(path) -> Graph:
    """Read an N-Triples file; GraphParseError names the first bad line.

    A line is three terms split at whitespace and a final "."; the object,
    which may hold spaces, is all that follows the predicate. Each distinct
    token is parsed and checked once, so a line whose tokens were all seen
    before costs a split and three dict lookups.
    """
    graph = Graph()
    iris: dict[str, int] = {}  # subject and predicate tokens -> id
    objects: dict[str, int] = {}  # object tokens -> id
    with open(path, "r", encoding="utf-8") as handle:
        try:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line:
                    continue
                if line[-1] != ".":
                    raise _malformed(lineno, line)
                try:
                    s_token, p_token, o_token = line[:-1].split(None, 2)
                except ValueError:  # fewer than three terms
                    raise _malformed(lineno, line) from None
                o_token = o_token.rstrip()
                s = iris.get(s_token)
                p = iris.get(p_token)
                o = objects.get(o_token)
                if s is None or p is None or o is None:
                    s, p, o = _token_ids(
                        graph, (s_token, p_token, o_token), lineno, iris, objects
                    )
                graph._add_ids(s, p, o)
        except UnicodeDecodeError as exc:
            raise GraphParseError(f"{path}: not UTF-8 text: {exc}") from None
    return graph
