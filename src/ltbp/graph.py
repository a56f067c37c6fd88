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
each id's term, an ``Iri`` or a literal's value, as patterns, bindings and
result rows hold it (see ``terms``). The graph keeps one map per predicate
over those ids, ``so: p -> {s: o}``. Each entry holds a bare id, and becomes
a list of ids only when a second object arrives for the same subject; an
ltbp graph has one object per (subject, predicate) pair, so its entries stay
bare. A predicate's object -> subjects map, ``os: p -> {o: s}``, is
derived from ``so[p]`` the first time a pattern probes ``p`` by object, and
kept (after database cracking: an index is built when a query first needs
it). A store gets no triple after its first query, so the derived map never
goes stale. ``Graph.match`` is the store's one scan: it yields the id
triples of one predicate, or of all of them. A query joins its patterns in
greedy order over rows of ids. The probes live in the join: a step with its
subject or object bound probes the predicate's ``so`` or ``os`` map once per
row; a step with neither bound scans the predicate's ``so`` map through one
``Graph.match`` call per row. Its filters run once every pattern is joined.

A term's identity is the N-Triples text it exports as (``_nt_term``), so a
literal is its lexical form plus datatype. ``100`` (integer), ``100.00``
and ``1.00`` (decimal) are equal as Python values but are three terms, and
each exports as it was built. Joins match by term id, and GROUP BY groups by
term id too, so those three fall into three groups. The loader keys each
token by the store's own term text, so a token already in the store is one
dict lookup. A typed literal loads as its value's text: ``"007"^^xsd:integer``
loads as ``"7"`` and ``"+1.0"^^xsd:decimal`` as ``"1.0"``, so lines that
differ only in such a form load as one triple. A literal's text comes from
``terms`` both ways: ``_nt_term`` writes it with ``terms.lexical`` or
``terms.escape``, and the loader reads it with ``terms.read`` or
``terms.unescape``.

``build_graph`` is one function that adds id triples through
``Graph._intern`` and ``Graph._add_ids``, as the loader does. Per build it
interns each predicate and class IRI once, before the first triple, and
quotes each entity id into its IRI once. One per-build ``ingest._Memo``
keys the terms that many triples share by value: dates, ``int`` quantities
and repeated strings (basic types, product lines, account classes,
regions). Its
duplicate-subject and dangling-reference checks read per-build dicts from
entity id to subject id. Nothing else is keyed by value: ``Decimal("100")``
equals ``Decimal("100.00")``, and ``True`` and ``Decimal("1")`` equal
``1``, yet each is a different term (above) or none, so each is interned by
its text.

Match order is deterministic for a deterministically built graph,
regardless of hash randomization. A scan, of one predicate or of the whole
store, walks ``so``: the predicates in the order their first triple was
added, then each one's subjects in first-insertion order and each subject's
objects in insertion order. The join's probes yield a row's triples in that
same order, so each probe yields what a filtered scan would.
"""

from __future__ import annotations

import decimal
import math
import operator
import re
from dataclasses import dataclass
from datetime import date
from decimal import Decimal
from typing import Iterable, Optional, Sequence, Union

from . import terms as T
from .ingest import _Memo, not_utf8
from .model import PricingConfig, adjustment_factor, to_factor
from .query import (
    COMPARISONS,
    Expr,
    Op,
    QueryError,
    QuerySpec,
    expr_variables,
    render_expr,
)
from .terms import Iri, Value, Variable

Binding = dict  # variable name -> Value


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


def _nt_term(term: Value) -> str:
    """A term's N-Triples text, which is also its identity in the store."""
    if isinstance(term, str):
        return f'"{T.escape(term)}"'
    if isinstance(term, Iri):
        return f"<{term.value}>"
    datatype = T.DATATYPES.get(type(term))  # a bool or a datetime has none
    if datatype is None:
        raise GraphError(f"unsupported literal value {term!r}")
    return f'"{T.lexical(term)}"^^<{datatype}>'


_MISSING = -1  # id of a term the graph does not hold; it matches nothing

_Ids = Union[int, list]  # one id, or a list of two or more

_NO_ENTRIES: dict = {}  # the map of a predicate the graph does not hold


def _each(ids: _Ids):
    """The ids an index entry holds."""
    return (ids,) if ids.__class__ is int else ids


class Graph:
    """Set of triples over interned term ids.

    Each predicate has one subject -> object map, ``_so[p]``; an entry is a
    bare id, or a list once the subject has two objects. ``_os[p]``, the
    predicate's object -> subjects map, is derived from ``_so[p]`` on the
    join's first probe by object (``_objects``). ``match`` is the scan;
    the probes live in ``_join``. Only ``build_graph`` and
    ``load_ntriples`` add triples, both before they return the graph, so a
    store gets no triple after its first query and nothing invalidates
    ``_os``.
    """

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}  # N-Triples text -> id, in id order
        self._values: list[Value] = []  # id -> term
        self._so: dict[int, dict[int, _Ids]] = {}  # p -> s -> o
        self._os: dict[int, dict[int, _Ids]] = {}  # p -> o -> s, derived
        self._size = 0

    def __len__(self) -> int:
        return self._size

    # -- ids ------------------------------------------------------------------

    def _intern(self, term: Value) -> int:
        """The term's id, given on first sight."""
        text = _nt_term(term)
        tid = self._ids.get(text)
        if tid is None:
            tid = self._ids[text] = len(self._values)
            self._values.append(term)
        return tid

    def _id_of(self, term: Value) -> int:
        """The term's id, or ``_MISSING`` when the graph does not hold it."""
        try:
            return self._ids.get(_nt_term(term), _MISSING)
        except GraphError:  # a value no stored term can have
            return _MISSING

    def _add_ids(self, s: int, p: int, o: int) -> None:
        """Add the triple, unless the graph holds it."""
        so = self._so.get(p)
        if so is None:
            so = self._so[p] = {}
        objects = so.get(s)
        if objects is None:
            so[s] = o
        elif objects.__class__ is int:
            if objects == o:
                return
            so[s] = [objects, o]
        elif o in objects:
            return
        else:
            objects.append(o)
        self._size += 1

    def _objects(self, p: int) -> dict[int, _Ids]:
        """Predicate ``p``'s object -> subjects map, built from ``_so[p]`` on
        first use; each object's subjects are in ``_so[p]``'s order. An
        entry is a bare id or a list, as in ``_so``: most objects of an ltbp
        graph have one subject, and a bare id costs far less than a list."""
        by_o = self._os.get(p)
        if by_o is None:
            so = self._so.get(p)
            if so is None:
                return _NO_ENTRIES
            by_o = self._os[p] = {}
            for s, objects in so.items():
                for o in _each(objects):
                    subjects = by_o.get(o)
                    if subjects is None:
                        by_o[o] = s
                    elif subjects.__class__ is int:
                        by_o[o] = [subjects, s]
                    else:
                        subjects.append(s)
        return by_o

    def match(self, p: Optional[int] = None) -> Iterable[tuple[int, int, int]]:
        """Every (s, p, o) id triple of predicate ``p``, or of every
        predicate when ``p`` is None: a lazy scan of ``_so`` in subject order
        (see the module docstring). This is the store's scan and nothing
        else; a query's probes by subject or object live in ``_join``, which
        calls this only for a step with neither bound. So a wrapper on this
        method (as in ``perfbench/tracer.py``) counts a query's scan steps,
        not its probes.
        """
        predicates = self._so if p is None else (p,)
        return ((s, p2, o) for p2 in predicates
                for s, objects in self._so.get(p2, _NO_ENTRIES).items()
                for o in _each(objects))


# --- graph building ----------------------------------------------------------

def build_graph(dataset, pricing=None, config: PricingConfig | None = None) -> Graph:
    """Materialize a dataset (and optional pricing output) as a graph.

    Each predicate and class IRI is interned once, before any triple, and
    each entity's IRI once, as its subject. ``products``, ``customers`` and
    ``orders`` map an entity's id string to its subject id, so the duplicate
    and dangling-reference checks are dict lookups.
    """
    config = config or PricingConfig()
    graph = Graph()
    intern, attach = graph._intern, graph._add_ids
    (is_a, product_class, customer_class, order_class, has_product_number,
     has_basic_type, has_product_line, has_customer_code, has_account_type,
     has_adjustment_factor, has_annual_revenue, has_region, has_order_number,
     has_quantity, has_original_price, has_order_date, has_requested_date,
     has_confirmed_date, has_standard_date, was_placed_by, contains_product,
     has_premium, has_rm_price, has_convex_price) = map(intern, (
        T.TYPE, T.PRODUCT_CLASS, T.CUSTOMER_CLASS, T.ORDER_CLASS,
        T.HAS_PRODUCT_NUMBER, T.HAS_BASIC_TYPE, T.HAS_PRODUCT_LINE,
        T.HAS_CUSTOMER_CODE, T.HAS_ACCOUNT_TYPE, T.HAS_ADJUSTMENT_FACTOR,
        T.HAS_ANNUAL_REVENUE, T.HAS_REGION, T.HAS_ORDER_NUMBER, T.HAS_QUANTITY,
        T.HAS_ORIGINAL_PRICE, T.HAS_ORDER_DATE, T.HAS_REQUESTED_DATE,
        T.HAS_CONFIRMED_DATE, T.HAS_STANDARD_DATE, T.WAS_PLACED_BY,
        T.CONTAINS_PRODUCT, T.HAS_PREMIUM, T.HAS_RM_PRICE, T.HAS_CONVEX_PRICE,
    ))
    shared = _Memo(intern)  # a date, int or repeated string -> its id

    def subject(entities: dict, key: str, iri, kind: str) -> int:
        if key in entities:
            raise DuplicateSubjectError(f"{kind} already asserted: {iri(key).value}")
        tid = entities[key] = intern(iri(key))
        return tid

    products: dict[str, int] = {}
    for product in dataset.products:
        number = product.product_number
        s = subject(products, number, T.product_iri, "product")
        attach(s, is_a, product_class)
        attach(s, has_product_number, intern(number))
        attach(s, has_basic_type, shared[product.basic_type])
        attach(s, has_product_line, shared[product.product_line])

    customers: dict[str, int] = {}
    for customer in dataset.customers:
        code = customer.customer_code
        s = subject(customers, code, T.customer_iri, "customer")
        rho = adjustment_factor(customer.account_class, config)
        attach(s, is_a, customer_class)
        attach(s, has_customer_code, intern(code))
        attach(s, has_account_type, shared[customer.account_class.value])
        attach(s, has_adjustment_factor, intern(to_factor(rho)))
        attach(s, has_annual_revenue, intern(customer.annual_revenue))
        if customer.region is not None:
            attach(s, has_region, shared[customer.region])

    orders: dict[str, int] = {}
    for order in dataset.orders:
        number = order.order_number
        s = subject(orders, number, T.order_iri, "order")
        placed_by = customers.get(order.customer_code)
        if placed_by is None:
            raise DanglingReferenceError(
                f"order {number} references unknown customer {order.customer_code}"
            )
        product = products.get(order.product_number)
        if product is None:
            raise DanglingReferenceError(
                f"order {number} references unknown product {order.product_number}"
            )
        quantity = order.quantity
        attach(s, is_a, order_class)
        attach(s, has_order_number, intern(number))
        # a bool or Decimal would hit an int's entry, so only an int is shared
        attach(s, has_quantity,
               shared[quantity] if type(quantity) is int else intern(quantity))
        attach(s, has_original_price, intern(order.original_price))
        attach(s, has_order_date, shared[order.order_date])
        attach(s, has_requested_date, shared[order.customer_request_date])
        attach(s, has_confirmed_date, shared[order.customer_delivery_date])
        attach(s, has_standard_date, shared[order.standard_delivery_date])
        attach(s, was_placed_by, placed_by)
        attach(s, contains_product, product)

    if pricing is not None:
        for premium in pricing.premiums:
            code = premium.customer_code
            s = customers.get(code)
            if s is None:
                raise DanglingReferenceError(
                    f"premium references unknown customer {code}"
                )
            attach(s, has_premium, intern(to_factor(premium.premium)))
        for priced in pricing.priced_orders:
            number = priced.order_number
            s = orders.get(number)
            if s is None:
                raise UnknownOrderError(
                    f"priced order references unknown order {number}"
                )
            attach(s, has_rm_price, intern(priced.rm))
            attach(s, has_convex_price, intern(priced.convex))
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

    A step with its subject or object bound probes a predicate's map for the
    whole row list: ``_so`` by subject, or the derived ``_objects`` map by
    object, and a membership test when both are bound. The object maps a
    step needs are built before the row loop, so a row costs one probe. A
    predicate that is a variable runs the same probe per row over its
    candidates: the row's own predicate once an earlier step binds it, every
    predicate in turn while it is unbound. These are the store's only
    probes. A step with neither bound scans through ``Graph.match``; in
    every ltbp query its only row is the start row. Rows come out in row
    order, each row's extensions in scan order: the order a scan of
    ``Graph.match`` would yield their triples. A row that gains one value is
    extended in place, as no other row shares it.
    """
    cs, cp, co = cells
    bs, bp, bo = bound
    out = []
    if not (bs or bo):
        # same variable twice within one pattern: its positions must agree
        same = [(i, j) for i, j in ((0, 1), (0, 2), (1, 2)) if cells[i] == cells[j]]
        for row in rows:
            for triple in graph.match(row[cp] if bp else None):
                if same and any(triple[i] != triple[j] for i, j in same):
                    continue
                new = row.copy()
                new[cs], new[cp], new[co] = triple
                out.append(new)
        return out
    if bs:
        index = graph._so
    else:
        index = {p: graph._objects(p)
                 for p in ({row[cp] for row in rows} if bp else graph._so)}
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
        cells = [(name, slots[name]) for name in expr_variables(expr)]
        rows = [
            row for row in rows
            if _truth(expr, {name: values[row[cell]] for name, cell in cells})
        ]
    return slots, rows


# --- filter evaluation -------------------------------------------------------


# Each value type's kind. Filter type checks and their error texts, the
# aggregates' checks and the sort order of mixed kinds all go by it.
_KIND = {bool: "boolean", int: "number", Decimal: "number", str: "string",
         date: "date", Iri: "iri"}
_SORT_ORDER = ("number", "string", "date", "iri")

# What each binary operator but "&&" and "||" computes, once its operands'
# kinds are checked.
_APPLY = {
    "=": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": lambda left, right: Decimal(left) / Decimal(right),
}


# The most significant digits an exact ``+ - *`` result may have: its longer
# operand's digits plus one, or CPython's int <-> text limit if that is more.
# Without a budget, repeated products grow each row's values without bound.
_DIGITS_FLOOR = 4_300
_LOG10_2 = math.log10(2)


def _digits(number: Union[int, Decimal]) -> int:
    """A number's significant digits: a decimal's coefficient digits, or an
    int's, which its bit length gives to within one."""
    if type(number) is int:
        digits = int(number.bit_length() * _LOG10_2) + 1
        return digits - (digits > 1 and abs(number) < 10 ** (digits - 1))
    return len(number.as_tuple().digits)


def _eval_expr(expr: Expr, row: Binding):
    if isinstance(expr, Variable):  # validate() found it in a pattern
        return row[expr.name]
    if not isinstance(expr, Op):
        return expr  # a constant: a literal's value
    op, args = expr.op, expr.args
    left = _eval_expr(args[0], row)
    if op in ("!", "&&", "||"):
        left = _require_bool(left, expr)
        if op == "!":
            return not left
        if left is (op == "||"):  # false && ..., true || ...
            return left
        return _require_bool(_eval_expr(args[1], row), expr)
    kind = _KIND[type(left)]
    if len(args) == 1:
        if kind != "number":
            raise FilterTypeError(
                f"negation needs a number, got {kind} in {render_expr(expr)}"
            )
        return left.copy_negate() if type(left) is Decimal else -left  # exact
    right = _eval_expr(args[1], row)
    right_kind = _KIND[type(right)]
    if op in COMPARISONS:
        if kind != right_kind or kind == "boolean":
            raise FilterTypeError(
                f"type mismatch: cannot compare {kind} to {right_kind} "
                f"in {render_expr(expr)}"
            )
        if kind == "iri" and op not in ("=", "!="):
            raise FilterTypeError(f"IRIs are not ordered in {render_expr(expr)}")
        return _APPLY[op](left, right)
    if kind != "number" or right_kind != "number":
        raise FilterTypeError(
            f"arithmetic needs numbers, got {kind} and {right_kind} "
            f"in {render_expr(expr)}"
        )
    if op == "/" and right == 0:
        raise EvaluationError(f"division by zero in {render_expr(expr)}")
    try:
        if op == "/":  # rounded to the context's precision
            return _APPLY[op](left, right)
        with decimal.localcontext(prec=decimal.MAX_PREC):  # + - * are exact
            value = _APPLY[op](left, right)
    except decimal.Overflow:
        raise EvaluationError(f"decimal overflow in {render_expr(expr)}") from None
    budget = max(_DIGITS_FLOOR, 1 + max(_digits(left), _digits(right)))
    if _digits(value) > budget:
        raise EvaluationError(
            f"result of more than {budget} digits in {render_expr(expr)}"
        )
    return value


def _require_bool(value, expr: Expr) -> bool:
    if not isinstance(value, bool):
        raise FilterTypeError(
            f"expected a boolean, got {_KIND[type(value)]} in {render_expr(expr)}"
        )
    return value


def _truth(expr: Expr, row: Binding) -> bool:
    return _require_bool(_eval_expr(expr, row), expr)


# --- evaluation --------------------------------------------------------------


@dataclass
class ResultTable:
    columns: list[str]
    rows: list[tuple]

    def mappings(self) -> list[dict]:
        return [dict(zip(self.columns, row)) for row in self.rows]


def _sort_key(value):
    kind = _KIND[type(value)]
    return (_SORT_ORDER.index(kind), value.value if kind == "iri" else value)


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
            kind = _KIND[type(v)]
            if kind != "number":
                raise EvaluationError(
                    f"{func} needs numeric values, got {kind} for ?{alias}"
                )
        try:
            with decimal.localcontext() as context:
                if func == "SUM":
                    context.clear_flags()
                    total = sum(values)
                    if not context.flags[decimal.Rounded]:
                        return total
                # The exact sum, and for AVG its mean rounded once: as
                # rounding is monotone and MIN and MAX fit in the precision,
                # the mean stays between them.
                context.prec = max(context.prec, _sum_digits(values))
                total = sum(values)
                return total if func == "SUM" else Decimal(total) / Decimal(len(values))
        except decimal.Overflow:
            raise EvaluationError(f"decimal overflow in {func} for ?{alias}") from None
    # MIN / MAX over one ordered kind
    kinds = {_KIND[type(v)] for v in values}
    if len(kinds) > 1 or "iri" in kinds:
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
        # Grouped by term, as joins match: value-equal terms such as 1 and
        # 1.0 are two groups, kept in first-appearance order on a tie.
        key_cells = [slots[name] for name in spec.group_by]
        groups: dict[tuple, list[list]] = {}
        for row in rows:
            groups.setdefault(tuple([row[cell] for cell in key_cells]), []).append(row)
        if not spec.group_by and not groups:
            groups[()] = []  # global aggregates over no rows still yield one row
        keyed = [(tuple([values[tid] for tid in ids]), members)
                 for ids, members in groups.items()]
        keyed.sort(key=lambda group: tuple(map(_sort_key, group[0])))
        out_rows = []
        for key, members in keyed:
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
        idx = columns.index(spec.order_by.key)  # validate() found it there
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
# Each datatype IRI's value type, the ``kind`` that ``terms.read`` takes.
_KINDS = {datatype: kind for kind, datatype in T.DATATYPES.items()}


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


def _parse_object(token: str, lineno: int) -> Value:
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
        return body
    kind = _KINDS.get(dtype)
    if kind is None:
        raise GraphParseError(f"line {lineno}: unsupported datatype <{dtype}>")
    try:
        return T.read(kind, body)
    except ValueError:
        raise GraphParseError(
            f"line {lineno}: invalid literal {body!r} for <{dtype}>"
        ) from None


def _malformed(lineno: int, line: str) -> GraphParseError:
    return GraphParseError(f"line {lineno}: malformed triple: {line!r}")


# A triple followed by a comment: group 1 is the triple, group 2 its object.
_COMMENTED = re.compile(
    rf'(\S+\s+\S+\s+(<[^<>\s]*>|{_NT_LITERAL.pattern})\s*\.)\s*#.*')


def _uncomment(line: str, error: GraphParseError) -> re.Match:
    """The match of ``line`` as a triple followed by a comment; a line that
    is not one raises ``error``."""
    commented = _COMMENTED.fullmatch(line)
    if commented is None:
        raise error
    return commented


def load_ntriples(path) -> Graph:
    """Read an N-Triples file; GraphParseError names the first bad line.

    A line is three terms split at whitespace and a final "."; the object,
    which may hold spaces, is all that follows the predicate. Tokens are
    looked up in the store's own text -> id table, so a token already in the
    store costs one dict lookup; any other token is parsed, checked and
    interned. A subject or predicate found there must still be an IRI. A
    line whose subject token is the previous line's reuses its id, which in
    an exported file, grouped by subject, is most lines. A new term is
    interned under its canonical text, ``_nt_term`` of its value, which for
    an IRI is its token. A non-canonical literal such as
    ``"007"^^xsd:integer`` is not a key in the table, so it is parsed each
    time it occurs.

    A comment line, one whose first character after any leading whitespace
    is "#", is skipped, and so is a comment after a triple. Each is told
    apart only where the line would otherwise be rejected, so triples pay
    nothing for it: a comment line by its first "#", a trailing comment by
    ``_COMMENTED`` when the line does not end in "." or its object token
    does not parse (a comment that ends in "." runs into that token). Line
    numbers count comment lines.
    """
    graph = Graph()
    ids, intern, add = graph._ids, graph._intern, graph._add_ids
    last_token, s = None, None
    with open(path, "r", encoding="utf-8") as handle:
        try:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line:
                    continue
                if line[-1] != ".":
                    if line[0] == "#":
                        continue
                    line = _uncomment(line, _malformed(lineno, line))[1]
                try:
                    s_token, p_token, o_token = line[:-1].split(None, 2)
                except ValueError:  # fewer than three terms
                    if line[0] == "#":
                        continue
                    raise _malformed(lineno, line) from None
                o_token = o_token.rstrip()
                if s_token != last_token:
                    s = ids.get(s_token)
                    if s is None or s_token[0] != "<":
                        if s_token[0] == "#":
                            last_token = None  # s no longer holds its id
                            continue
                        s = intern(_parse_iri(s_token, lineno))
                    last_token = s_token
                p = ids.get(p_token)
                if p is None or p_token[0] != "<":
                    p = intern(_parse_iri(p_token, lineno))
                o = ids.get(o_token)
                if o is None:
                    try:
                        o = intern(_parse_object(o_token, lineno))
                    except GraphParseError as exc:
                        o_token = _uncomment(line, exc)[2]
                        o = intern(_parse_object(o_token, lineno))
                add(s, p, o)
        except UnicodeDecodeError:
            raise GraphParseError(not_utf8(path)) from None
    return graph
