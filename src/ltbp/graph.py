"""In-memory triple store: graph building, pattern matching, aggregation.

Triples follow the domain ontology: orders link to customers and products via
``wasPlacedBy`` / ``containsProduct``; data properties carry codes, dates,
quantities, and prices. Matching is a natural join over triple patterns with
shared variables; evaluation adds filters, grouping, aggregates, ordering,
and limits. Monetary aggregation is exact fixed-point decimal.

Store layout (after vertical partitioning and Hexastore): every term is
interned once to an int id, counted up from 0 in order of first appearance.
Two term tables hold them: ``_ids`` maps a term's N-Triples text to its id,
so its keys, in insertion order, are the texts by id, and ``_values`` holds
each id's Iri or literal value. The graph keeps two maps per predicate over
those ids, ``so: p -> {s: o}`` and ``os: p -> {o: s}``. Each entry holds a
bare id, and becomes a list of ids only when a second value arrives for the
same key; an ltbp graph has one object per (subject, predicate) pair, so its
``so`` entries stay bare. A pattern with a bound predicate is answered from
that predicate's maps: ``so`` when the subject is bound, ``os`` otherwise.
One with an unbound predicate tries each predicate's maps in turn; one with
nothing bound scans ``so``. ``Graph.match`` takes and yields ids only. A
query joins its patterns in greedy order over rows of ids. A step with its
subject or object bound probes the predicate's ``so`` or ``os`` map once
per row, with no ``Graph.match`` call; a step with neither bound scans the
predicate through one ``Graph.match`` call per row. Its filters run once
every pattern is joined.

A term's identity is the N-Triples text it exports as, so a literal is its
lexical form plus datatype. ``100`` (integer), ``100.00`` and ``1.00``
(decimal) are equal as Python values but are three terms, and each exports
as it was built. The loader keys each token by the store's own term text, so
a token already in the store is one dict lookup. A typed literal loads as
its value's text: ``"007"^^xsd:integer`` loads as ``"7"`` and
``"+1.0"^^xsd:decimal`` as ``"1.0"``, so lines that differ only in such a
form load as one triple.

``build_graph`` adds entities through a ``_Builder``, which adds id triples
directly and makes no ``Literal`` object. Per build it interns each
predicate and class IRI once, quotes each entity id into its IRI once, and
keys dates by ``date`` and quantities by ``int``. Its duplicate-subject and
dangling-reference checks read per-build dicts from entity id to subject id.
Decimals are not keyed by value: ``Decimal("100")`` equals
``Decimal("100.00")``, yet the two are different terms (above), so a decimal
is formatted and interned by its text.

Match order is deterministic for a deterministically built graph,
regardless of hash randomization. A full scan is grouped by predicate: the
predicates in the order their first triple was added, then each one's
subjects in first-insertion order and each subject's objects in insertion
order. A scan of one predicate by object yields its objects in
first-insertion order, each with its subjects in insertion order.
"""

from __future__ import annotations

import decimal
import re
from dataclasses import dataclass
from datetime import date
from decimal import Decimal
from typing import Iterable, Optional, Sequence, Union

from . import terms as T
from .ingest import not_utf8
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
from .terms import Iri, Literal, Variable

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

# Export escapes what a quoted N-Triples string may not hold raw, and tabs.
_NT_ESCAPES = str.maketrans(
    {char: f"\\{name}" for name, char in T.ECHAR.items() if char in '\\"\n\r\t'}
)


def _nt_term(term: Union[Iri, Literal]) -> str:
    """A term's N-Triples text, which is also its identity in the store."""
    if isinstance(term, Iri):
        return f"<{term.value}>"
    return _nt_literal(term.value)


def _nt_literal(value) -> str:
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


_MISSING = -1  # id of a term the graph does not hold; it matches nothing

_Ids = Union[int, list]  # one id, or a list of two or more

_NO_ENTRIES: dict = {}  # the map of a predicate the graph does not hold


def _each(ids: _Ids):
    """The ids an index entry holds."""
    return (ids,) if ids.__class__ is int else ids


class Graph:
    """Set of triples over interned term ids.

    Each predicate has a subject -> object map and an object -> subject map;
    an entry is a bare id, or a list once the key has two values.
    """

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}  # N-Triples text -> id, in id order
        self._values: list[BindingValue] = []  # id -> Iri or literal value
        self._so: dict[int, dict[int, _Ids]] = {}  # p -> s -> o
        self._os: dict[int, dict[int, _Ids]] = {}  # p -> o -> s
        self._size = 0

    def __len__(self) -> int:
        return self._size

    # -- ids ------------------------------------------------------------------

    def _intern(self, term: Union[Iri, Literal]) -> int:
        value = term if isinstance(term, Iri) else term.value
        return self._intern_text(_nt_term(term), value)

    def _intern_text(self, text: str, value: BindingValue) -> int:
        """The id of the term whose N-Triples text is ``text``.

        ``value``, the term's Iri or literal value, is stored when it is new.
        """
        tid = self._ids.get(text)
        if tid is None:
            tid = self._ids[text] = len(self._values)
            self._values.append(value)
        return tid

    def _id_of(self, term: Union[Iri, Literal]) -> int:
        """The term's id, or ``_MISSING`` when the graph does not hold it."""
        try:
            return self._ids.get(_nt_term(term), _MISSING)
        except GraphError:  # a value no stored term can have
            return _MISSING

    def _add_ids(self, s: int, p: int, o: int) -> bool:
        so = self._so.get(p)
        if so is None:
            so = self._so[p] = {}
            self._os[p] = {}
        objects = so.get(s)
        if objects is None:
            so[s] = o
        elif objects.__class__ is int:
            if objects == o:
                return False
            so[s] = [objects, o]
        elif o in objects:
            return False
        else:
            objects.append(o)
        by_o = self._os[p]
        subjects = by_o.get(o)
        if subjects is None:
            by_o[o] = s
        elif subjects.__class__ is int:
            by_o[o] = [subjects, s]
        else:
            subjects.append(s)
        self._size += 1
        return True

    def match(
        self, s: Optional[int] = None, p: Optional[int] = None,
        o: Optional[int] = None,
    ) -> Iterable[tuple[int, int, int]]:
        """(s, p, o) id triples matching the given term ids (None = any).

        A bound predicate is one lookup in its map; an unbound one tries every
        predicate's map in turn. A list, except for the lazy scan of the whole
        store when none is given. A query's join calls this only for a step
        with neither subject nor object bound, once per row; its other steps
        read the maps directly. So a wrapper on this method (as in
        ``perfbench/tracer.py``) counts a query's scan steps, not its lookups.
        """
        if p is not None:
            return self._lookup(s, p, o)
        if s is None and o is None:
            return (
                (s2, p2, o2)
                for p2, so in self._so.items()
                for s2, objects in so.items()
                for o2 in _each(objects)
            )
        return [t for p2 in self._so for t in self._lookup(s, p2, o)]

    def _lookup(self, s, p: int, o) -> list[tuple[int, int, int]]:
        """``match`` with the predicate bound. An unbound predicate calls this,
        not ``match``, so a wrapper on ``match`` counts one lookup per call."""
        if s is not None:
            objects = self._so.get(p, {}).get(s)
            if objects is None:
                return []
            if o is None:
                return [(s, p, o2) for o2 in _each(objects)]
            found = objects == o if objects.__class__ is int else o in objects
            return [(s, p, o)] if found else []
        if o is not None:
            subjects = self._os.get(p, {}).get(o)
            return [] if subjects is None else [(s2, p, o) for s2 in _each(subjects)]
        return [
            (s2, p, o2)
            for o2, subjects in self._os.get(p, {}).items()
            for s2 in _each(subjects)
        ]


# --- graph building ----------------------------------------------------------

class _TermIds(dict):
    """Iri -> its id in one graph, interned on first lookup."""

    def __init__(self, graph: Graph) -> None:
        super().__init__()
        self.graph = graph

    def __missing__(self, iri: Iri) -> int:
        tid = self[iri] = self.graph._intern(iri)
        return tid


class _Builder:
    """Adds entities to one new graph as id triples, interning each term once.

    ``products``, ``customers`` and ``orders`` map an entity's id string to
    its subject id, so the duplicate and dangling-reference checks are dict
    lookups.
    """

    def __init__(self, graph: Graph, config: PricingConfig) -> None:
        self.graph = graph
        self.config = config
        self.products: dict[str, int] = {}
        self.customers: dict[str, int] = {}
        self.orders: dict[str, int] = {}
        self.p = _TermIds(graph)  # predicate and class IRIs
        self._attach = graph._add_ids
        self._dates: dict[date, int] = {}
        self._ints: dict[int, int] = {}

    # -- terms ----------------------------------------------------------------

    def _literal(self, value) -> int:
        return self.graph._intern_text(_nt_literal(value), value)

    def _int(self, value) -> int:
        if type(value) is not int:  # a bool or Decimal would hit an int's entry
            return self._literal(value)
        tid = self._ints.get(value)
        if tid is None:
            tid = self._ints[value] = self._literal(value)
        return tid

    def _date(self, value) -> int:
        tid = self._dates.get(value)
        if tid is None:
            tid = self._dates[value] = self._literal(value)
        return tid

    # -- entities -------------------------------------------------------------

    def product(self, product: Product) -> None:
        number = product.product_number
        if number in self.products:
            raise DuplicateSubjectError(
                f"product already asserted: {T.product_iri(number).value}"
            )
        s = self.products[number] = self.graph._intern(T.product_iri(number))
        p, attach, literal = self.p, self._attach, self._literal
        attach(s, p[T.TYPE], p[T.PRODUCT_CLASS])
        attach(s, p[T.HAS_PRODUCT_NUMBER], literal(number))
        attach(s, p[T.HAS_BASIC_TYPE], literal(product.basic_type))
        attach(s, p[T.HAS_PRODUCT_LINE], literal(product.product_line))

    def customer(self, customer: Customer) -> None:
        code = customer.customer_code
        if code in self.customers:
            raise DuplicateSubjectError(
                f"customer already asserted: {T.customer_iri(code).value}"
            )
        rho = adjustment_factor(customer.account_class, self.config)
        s = self.customers[code] = self.graph._intern(T.customer_iri(code))
        p, attach, literal = self.p, self._attach, self._literal
        attach(s, p[T.TYPE], p[T.CUSTOMER_CLASS])
        attach(s, p[T.HAS_CUSTOMER_CODE], literal(code))
        attach(s, p[T.HAS_ACCOUNT_TYPE], literal(customer.account_class.value))
        attach(s, p[T.HAS_ADJUSTMENT_FACTOR], literal(to_factor(rho)))
        attach(s, p[T.HAS_ANNUAL_REVENUE], literal(customer.annual_revenue))
        if customer.region is not None:
            attach(s, p[T.HAS_REGION], literal(customer.region))

    def order(self, order: Order) -> None:
        number = order.order_number
        if number in self.orders:
            raise DuplicateSubjectError(
                f"order already asserted: {T.order_iri(number).value}"
            )
        customer = self.customers.get(order.customer_code)
        if customer is None:
            raise DanglingReferenceError(
                f"order {number} references unknown customer {order.customer_code}"
            )
        product = self.products.get(order.product_number)
        if product is None:
            raise DanglingReferenceError(
                f"order {number} references unknown product {order.product_number}"
            )
        s = self.orders[number] = self.graph._intern(T.order_iri(number))
        p, attach, literal, day = self.p, self._attach, self._literal, self._date
        attach(s, p[T.TYPE], p[T.ORDER_CLASS])
        attach(s, p[T.HAS_ORDER_NUMBER], literal(number))
        attach(s, p[T.HAS_QUANTITY], self._int(order.quantity))
        attach(s, p[T.HAS_ORIGINAL_PRICE], literal(order.original_price))
        attach(s, p[T.HAS_ORDER_DATE], day(order.order_date))
        attach(s, p[T.HAS_REQUESTED_DATE], day(order.customer_request_date))
        attach(s, p[T.HAS_CONFIRMED_DATE], day(order.customer_delivery_date))
        attach(s, p[T.HAS_STANDARD_DATE], day(order.standard_delivery_date))
        attach(s, p[T.WAS_PLACED_BY], customer)
        attach(s, p[T.CONTAINS_PRODUCT], product)

    def premium(self, premium) -> None:
        code = premium.customer_code
        s = self.customers.get(code)
        if s is None:
            raise DanglingReferenceError(f"premium references unknown customer {code}")
        self._attach(s, self.p[T.HAS_PREMIUM], self._literal(to_factor(premium.premium)))

    def priced(self, priced) -> None:
        number = priced.order_number
        s = self.orders.get(number)
        if s is None:
            raise UnknownOrderError(f"priced order references unknown order {number}")
        self._attach(s, self.p[T.HAS_RM_PRICE], self._literal(priced.rm))
        self._attach(s, self.p[T.HAS_CONVEX_PRICE], self._literal(priced.convex))


def build_graph(dataset, pricing=None, config: PricingConfig | None = None) -> Graph:
    """Materialize a dataset (and optional pricing output) as a graph."""
    graph = Graph()
    builder = _Builder(graph, config or PricingConfig())
    for product in dataset.products:
        builder.product(product)
    for customer in dataset.customers:
        builder.customer(customer)
    for order in dataset.orders:
        builder.order(order)
    if pricing is not None:
        for premium in pricing.premiums:
            builder.premium(premium)
        for priced in pricing.priced_orders:
            builder.priced(priced)
    return graph


# --- pattern matching --------------------------------------------------------


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
            cells.append(len(start))
            start.append(graph._id_of(term))
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
    """Extend every row by each triple matching the step's pattern.

    A step with its subject or object bound probes a predicate's maps for the
    whole row list: ``so`` by subject, or ``os`` by object, and a membership
    test when both are bound. A predicate that is a variable runs the same
    probe per row over its candidates: the row's own predicate once an earlier
    step binds it, every predicate in turn while it is unbound. A step with
    neither bound scans through ``Graph.match``; in every ltbp query its only
    row is the start row. Rows come out in row order, each row's extensions in
    the order ``Graph.match`` yields their triples. A row that gains one value
    is extended in place, as no other row shares it.
    """
    cs, cp, co = cells
    bs, bp, bo = bound
    out = []
    if not (bs or bo):
        # same variable twice within one pattern: its positions must agree
        same = [(i, j) for i, j in ((0, 1), (0, 2), (1, 2)) if cells[i] == cells[j]]
        for row in rows:
            for triple in graph.match(None, row[cp] if bp else None, None):
                if same and any(triple[i] != triple[j] for i, j in same):
                    continue
                new = row.copy()
                new[cs], new[cp], new[co] = triple
                out.append(new)
        return out
    index = graph._so if bs else graph._os
    key_cell, cell = (cs, co) if bs else (co, cs)  # cell: what a probe yields
    member = bs and bo  # both bound: a membership test
    clash = not bp and cp == cell  # ?s ?x ?x: the predicate must equal the value
    append = out.append
    for row in rows:
        key = row[key_cell]
        for p in (row[cp],) if bp else graph._so:
            ids = index.get(p, _NO_ENTRIES).get(key)
            if ids is None:
                continue
            if member:
                value = row[cell]
                if ids != value if ids.__class__ is int else value not in ids:
                    continue
                ids = value
            if bp and ids.__class__ is int:
                row[cell] = ids
                append(row)
                continue
            for value in _each(ids):
                if clash and value != p:
                    continue
                new = row.copy()
                new[cell], new[cp] = value, p
                append(new)
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
        try:
            if expr.op == "+":
                return left + right
            if expr.op == "-":
                return left - right
            if expr.op == "*":
                return left * right
            if right == 0:
                raise EvaluationError(f"division by zero in {render_expr(expr)}")
            return Decimal(left) / Decimal(right)
        except decimal.Overflow:
            raise EvaluationError(f"decimal overflow in {render_expr(expr)}") from None
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


_SORT_RANK = {int: 0, Decimal: 0, str: 1, date: 2, Iri: 3}


def _sort_key(value):
    if isinstance(value, Iri):
        return (3, value.value)
    return (_SORT_RANK[type(value)], value)


def _group_key(values: tuple):
    return tuple(_sort_key(v) for v in values)


def _sum_digits(values: list) -> int:
    """Significant digits that hold the exact sum of the numbers ``values``."""
    high = low = 0
    for v in values:
        d = Decimal(v)  # exact for an int or a Decimal
        high = max(high, d.adjusted())
        low = min(low, d.as_tuple().exponent)
    return high - low + 1 + len(str(len(values)))


def _aggregate(func: str, values: list, alias: str):
    if func == "COUNT":
        return len(values)
    if not values:
        return 0 if func == "SUM" else None
    if func in ("SUM", "AVG"):
        for v in values:
            if not _is_number(v):
                raise EvaluationError(
                    f"{func} needs numeric values, got {_type_name(v)} for ?{alias}"
                )
        try:
            if func == "SUM":
                return sum(values)
            with decimal.localcontext() as context:
                # An exact sum rounded once: as rounding is monotone and MIN
                # and MAX fit in the precision, the mean stays between them.
                context.prec = max(context.prec, _sum_digits(values))
                return Decimal(sum(values)) / Decimal(len(values))
        except decimal.Overflow:
            raise EvaluationError(f"decimal overflow in {func} for ?{alias}") from None
    # MIN / MAX over one comparable kind
    first = values[0]
    kinds = {_type_name(v) for v in values}
    if len(kinds) > 1 or isinstance(first, Iri):
        raise EvaluationError(
            f"{func} needs one ordered value kind, got {sorted(kinds)} for ?{alias}"
        )
    return min(values) if func == "MIN" else max(values)


def quantized(convert, value, name: str) -> Decimal:
    """``convert(value)``, where ``convert`` is ``to_money`` or ``to_factor``
    and ``value`` a number read from a graph. A number with more digits than
    the decimal context holds once quantized is a GraphError naming ``name``
    and the value; no priced graph holds one."""
    try:
        return convert(value)
    except decimal.InvalidOperation:
        raise GraphError(f"{name}, {Decimal(value):.6e}, has too many digits") from None


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

    Lines stream out one subject at a time, subjects in text order, and a
    subject's lines by predicate text, which is the order of the sorted file:
    no IRI text is a prefix of another (``>`` ends an IRI and cannot occur
    inside it), so the subject decides between lines of different subjects
    and the predicate between lines of one subject. A subject's lines are
    found by probing each predicate's subject map for it.
    """
    text = list(graph._ids)  # ids count up in insertion order
    maps = sorted(((text[p], so) for p, so in graph._so.items()),
                  key=lambda pair: pair[0])
    seen = bytearray(len(text))  # a flag per term id: far smaller than a set
    subjects = []
    for so in graph._so.values():
        for s in so:
            if not seen[s]:
                seen[s] = 1
                subjects.append(s)
    subjects.sort(key=text.__getitem__)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        write = handle.write
        for s in subjects:
            head = text[s]
            for predicate, so in maps:
                objects = so.get(s)
                if objects is None:
                    continue
                if objects.__class__ is int:
                    write(f"{head} {predicate} {text[objects]} .\n")
                else:
                    lines = sorted(f"{head} {predicate} {text[o]} ." for o in objects)
                    write("".join(f"{line}\n" for line in lines))


_NT_LITERAL = re.compile(r'"(?P<body>(?:[^"\\]|\\.)*)"(?:\^\^<(?P<dtype>[^<>\s]*)>)?')
# N-Triples IRIREF excludes controls, space and <>"{}|^`\ (W3C, 2014); other
# whitespace is excluded too, as the loader splits terms on it.
_IRI_FORBIDDEN = re.compile(r'[\x00-\x20\s<>"{}|^`\\]')
# Lexical forms per datatype; decimals as xsd:decimal, which has no exponent.
_LEXICAL = {
    _XSD_INTEGER: (re.compile(r"[+-]?[0-9]+"), int),
    _XSD_DECIMAL: (re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)"), Decimal),
    _XSD_DATE: (re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}"), date.fromisoformat),
}


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
    try:
        body = T.unescape(m.group("body"))
    except ValueError as exc:
        raise GraphParseError(f"line {lineno}: {exc}") from None
    dtype = m.group("dtype")
    if dtype is None:
        return Literal(body)
    if dtype not in _LEXICAL:
        raise GraphParseError(f"line {lineno}: unsupported datatype <{dtype}>")
    lexical, convert = _LEXICAL[dtype]
    if lexical.fullmatch(body):
        try:
            return Literal(convert(body))
        except ValueError:  # an impossible date, or an integer too long for int()
            pass
    raise GraphParseError(f"line {lineno}: invalid literal {body!r} for <{dtype}>")


def _malformed(lineno: int, line: str) -> GraphParseError:
    return GraphParseError(f"line {lineno}: malformed triple: {line!r}")


def load_ntriples(path) -> Graph:
    """Read an N-Triples file; GraphParseError names the first bad line.

    A line is three terms split at whitespace and a final "."; the object,
    which may hold spaces, is all that follows the predicate. Tokens are
    looked up in the store's own text -> id table, so a token already in the
    store costs one dict lookup; any other token is parsed, checked and
    interned. A subject or predicate found there must still be an IRI. A
    line whose subject token is the previous line's reuses its id, which in
    an exported file, grouped by subject, is most lines. A new object is
    interned under its canonical text: an IRI under its token, a literal
    under its value's text. A non-canonical literal such as
    ``"007"^^xsd:integer`` is not a key in the table, so it is parsed each
    time it occurs.
    """
    graph = Graph()
    ids, intern, add = graph._ids, graph._intern_text, graph._add_ids
    last_token, s = None, None
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
                if s_token != last_token:
                    s = ids.get(s_token)
                    if s is None or s_token[0] != "<":
                        s = intern(s_token, _parse_iri(s_token, lineno))
                    last_token = s_token
                p = ids.get(p_token)
                if p is None or p_token[0] != "<":
                    p = intern(p_token, _parse_iri(p_token, lineno))
                o = ids.get(o_token)
                if o is None:
                    term = _parse_object(o_token, lineno)
                    if term.__class__ is Iri:
                        o = intern(o_token, term)
                    else:
                        o = intern(_nt_literal(term.value), term.value)
                add(s, p, o)
        except UnicodeDecodeError:
            raise GraphParseError(not_utf8(path)) from None
    return graph
