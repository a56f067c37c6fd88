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
each id's term, an ``Iri`` or a literal's value, as patterns, filters and
result rows hold it (see ``terms``). The graph keeps one map per predicate
over those ids, ``so: p -> {s: o}``. An entry is a bare id, or a list of ids
once its subject has a second object; an ltbp graph has one object per
(subject, predicate) pair, so its entries stay bare. A predicate's object ->
subjects map, ``os: p -> {o: s}``, follows the same rule; it is derived from
``so[p]`` the first time a pattern probes ``p`` by object, and kept (after
database cracking: an index is built when a query first needs it). One
function, ``_group``, makes every list entry, of ``so`` and ``os`` alike. A
store gets no triple after its first query, so the derived map never goes
stale. ``Graph.match`` is the store's one scan: it yields the id triples of
one predicate, or of all of them. A query joins its patterns in greedy order
over rows of ids. The probes live in the join: a step with its subject or
object bound probes the predicate's ``so`` or ``os`` map once per row; a
step with neither bound scans the predicate's ``so`` map through one
``Graph.match`` call per row. Its filters run once every pattern is joined,
on those id rows: a filter variable reads its term from the row's cell.

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

Every store is filled one predicate at a time: ``Graph._fill`` turns one
predicate's subject and object id columns, in line order, into its map, and
no other code writes ``_so``. ``build_graph`` is column-major: one pass per
entity kind quotes each entity id into its IRI and interns it once, as a
subject, with the duplicate-subject and dangling-reference checks, which
read per-build dicts from entity id to subject id. Then each predicate is
filled from one comprehension over its entities. The text loader appends
each line's ids to its predicate's columns and fills each predicate after
the parse; the image reader fills each from the image's columns. One
per-build ``ingest._Memo`` keys the terms that many triples share by value:
dates, ``int`` quantities and repeated strings (basic types, product lines,
account classes, regions). Nothing else is keyed by value: ``Decimal("100")``
equals ``Decimal("100.00")``, and ``True`` and ``Decimal("1")`` equal
``1``, yet each is a different term (above) or none, so each is interned by
its text.

``export_ntriples`` also writes a store image beside ``graph.nt``, after
HDT's dictionary plus triples (Fernandez et al., J. Web Semantics 2013) and
RDF-3X, which never re-parses text (Neumann & Weikum, VLDB 2008): the term
texts in id order, and per predicate a subject and an object id column. Ids
count up in order of first appearance in ``graph.nt``, as the loader gives
them, so the store ``load_ntriples`` reads from a matching image equals the
one it parses from the text, and the stages skip the parse. The image's
header records ``graph.nt``'s size and CRC-32 and each predicate's triple
count, and the image ends in its own CRC-32; a stage uses it only when those
match and its ids check out, and parses the text otherwise. No header field
repeats what the file already says: the term count is the number of texts.
CRC-32 comes from ``zlib``, which a stage has loaded anyway; it catches
accidental change, and whoever can forge a ``graph.nt`` can rewrite its
image too. A sha256 would load ``hashlib``, and OpenSSL's libcrypto with it,
into every stage.

Match order is deterministic for a deterministically built graph,
regardless of hash randomization. A scan, of one predicate or of the whole
store, walks ``so``: the predicates in the order of their first triple, then
each one's subjects in the order of their first triple and each subject's
objects in line order. A built store has its predicates in the order their
first triples would come if each entity's rows were added one at a time,
and each predicate's subjects in the order the dataset (or the pricing
result) lists them. The join's probes yield a row's triples in that
same order, so each probe yields what a filtered scan would.
"""

from __future__ import annotations

import decimal
import logging
import math
import operator
import os
import re
import sys
import zlib
from array import array
from dataclasses import dataclass
from datetime import date
from decimal import Decimal
from typing import Iterable, Optional, Sequence, Union

from . import terms as T
from .ingest import _Memo, not_utf8
from .model import PricingConfig, adjustment_factor, collector_paused, to_factor
from .query import COMPARISONS, Expr, Op, QueryError, QuerySpec, render_expr
from .terms import Iri, Value, Variable

log = logging.getLogger(__name__)


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


def _group(pairs: Iterable[tuple[int, int]]) -> dict[int, _Ids]:
    """The map of distinct (key, value) id pairs, in order: a key's entry is
    its value, a bare id, or a list of its values in order once it has two.
    This is the only code that makes a list entry in ``_so`` or ``_os``."""
    grouped: dict[int, _Ids] = {}
    get = grouped.get
    for key, value in pairs:
        ids = get(key)
        if ids is None:
            grouped[key] = value
        elif ids.__class__ is int:
            grouped[key] = [ids, value]
        else:
            ids.append(value)
    return grouped


class Graph:
    """Set of triples over interned term ids.

    Each predicate has one subject -> object map, ``_so[p]``; an entry is a
    bare id, or a list once the subject has two objects. ``_os[p]``, the
    predicate's object -> subjects map, is derived from ``_so[p]`` on the
    join's first probe by object (``_objects``). ``_group`` makes both
    maps' lists. ``match`` is the scan; the probes live in ``_join``.
    ``_fill`` writes each predicate's map once, and only ``build_graph`` and
    ``load_ntriples`` call it, both before they return the graph, so a store
    gets no triple after its first query and nothing invalidates ``_os``.
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
        return self._ids.get(_nt_term(term), _MISSING)

    def _fill(self, p: int, subjects: Sequence[int], objects: Sequence[int]) -> None:
        """Give predicate ``p``, which has no map yet, the triples of its
        subject and object id columns, in line order. A repeated triple is
        kept once, and a subject with two objects gets a list (``_group``).
        A predicate with no lines gets no map. Only this method writes
        ``_so`` and ``_size``."""
        so = dict(zip(subjects, objects))
        size = len(so)
        if size < len(subjects):  # a subject repeats
            triples = dict.fromkeys(zip(subjects, objects))
            so, size = _group(triples), len(triples)
        if so:
            self._so[p] = so
            self._size += size

    def _objects(self, p: int) -> dict[int, _Ids]:
        """Predicate ``p``'s object -> subjects map, grouped (``_group``)
        from ``_so[p]`` on first use, so each object's subjects are in
        ``_so[p]``'s order. Most objects of an ltbp graph have one subject,
        and a bare id costs far less than a list."""
        by_o = self._os.get(p)
        if by_o is None:
            so = self._so.get(p)
            if so is None:
                return _NO_ENTRIES
            if any(map(list.__instancecheck__, so.values())):
                pairs = ((o, s) for s, objects in so.items() for o in _each(objects))
            else:
                pairs = zip(so.values(), so)
            by_o = self._os[p] = _group(pairs)
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

    One pass per entity kind interns each entity's IRI once, as its
    subject, and checks it: ``products``, ``customers`` and ``orders`` map
    an entity's id string to its subject id, so the duplicate and
    dangling-reference checks are dict lookups, made entity by entity as
    the rows list them. Then each predicate is filled once, from one column
    of objects over its entities, in the order its first triple would come
    if the rows were added one at a time.
    """
    config = config or PricingConfig()
    graph = Graph()
    intern = graph._intern
    shared = _Memo(intern)  # a date, int or repeated string -> its id

    def fill(predicate: Iri, subjects: list, objects: list) -> None:
        graph._fill(intern(predicate), subjects, objects)

    def subject(entities: dict, key: str, iri, kind: str) -> None:
        if key in entities:
            raise DuplicateSubjectError(f"{kind} already asserted: {iri(key).value}")
        entities[key] = intern(iri(key))

    def refer(entities: dict, keys: list, error, what: str) -> list[int]:
        """Each key's subject id; the first key not in ``entities`` raises."""
        for key in keys:
            if key not in entities:
                raise error(f"{what} {key}")
        return [entities[key] for key in keys]

    products: dict[str, int] = {}
    for product in dataset.products:
        subject(products, product.product_number, T.product_iri, "product")
    customers: dict[str, int] = {}
    for customer in dataset.customers:
        subject(customers, customer.customer_code, T.customer_iri, "customer")
    orders: dict[str, int] = {}
    placed_by, contains = [], []
    for order in dataset.orders:
        number = order.order_number
        subject(orders, number, T.order_iri, "order")
        customer = customers.get(order.customer_code)
        if customer is None:
            raise DanglingReferenceError(
                f"order {number} references unknown customer {order.customer_code}"
            )
        product = products.get(order.product_number)
        if product is None:
            raise DanglingReferenceError(
                f"order {number} references unknown product {order.product_number}"
            )
        placed_by.append(customer)
        contains.append(product)

    pids, cids, oids = (list(ids.values()) for ids in (products, customers, orders))
    fill(T.TYPE, pids + cids + oids, [intern(T.PRODUCT_CLASS)] * len(pids)
         + [intern(T.CUSTOMER_CLASS)] * len(cids) + [intern(T.ORDER_CLASS)] * len(oids))
    rows = dataset.products
    fill(T.HAS_PRODUCT_NUMBER, pids, [intern(r.product_number) for r in rows])
    fill(T.HAS_BASIC_TYPE, pids, [shared[r.basic_type] for r in rows])
    fill(T.HAS_PRODUCT_LINE, pids, [shared[r.product_line] for r in rows])
    rows = dataset.customers
    fill(T.HAS_CUSTOMER_CODE, cids, [intern(r.customer_code) for r in rows])
    fill(T.HAS_ACCOUNT_TYPE, cids, [shared[r.account_class.value] for r in rows])
    fill(T.HAS_ADJUSTMENT_FACTOR, cids, [
        intern(to_factor(adjustment_factor(r.account_class, config))) for r in rows])
    fill(T.HAS_ANNUAL_REVENUE, cids, [intern(r.annual_revenue) for r in rows])
    regional = [(s, r.region) for s, r in zip(cids, rows) if r.region is not None]
    fill(T.HAS_REGION, [s for s, _ in regional],
         [shared[region] for _, region in regional])
    rows = dataset.orders
    fill(T.HAS_ORDER_NUMBER, oids, [intern(r.order_number) for r in rows])
    # a bool or Decimal would hit an int's entry, so only an int is shared
    fill(T.HAS_QUANTITY, oids, [shared[q] if type(q) is int else intern(q)
                                for q in (r.quantity for r in rows)])
    fill(T.HAS_ORIGINAL_PRICE, oids, [intern(r.original_price) for r in rows])
    fill(T.HAS_ORDER_DATE, oids, [shared[r.order_date] for r in rows])
    fill(T.HAS_REQUESTED_DATE, oids, [shared[r.customer_request_date] for r in rows])
    fill(T.HAS_CONFIRMED_DATE, oids, [shared[r.customer_delivery_date] for r in rows])
    fill(T.HAS_STANDARD_DATE, oids, [shared[r.standard_delivery_date] for r in rows])
    fill(T.WAS_PLACED_BY, oids, placed_by)
    fill(T.CONTAINS_PRODUCT, oids, contains)

    if pricing is not None:
        rows = pricing.premiums
        subjects = refer(customers, [r.customer_code for r in rows],
                         DanglingReferenceError, "premium references unknown customer")
        fill(T.HAS_PREMIUM, subjects, [intern(to_factor(r.premium)) for r in rows])
        rows = pricing.priced_orders
        subjects = refer(orders, [r.order_number for r in rows],
                         UnknownOrderError, "priced order references unknown order")
        fill(T.HAS_RM_PRICE, subjects, [intern(r.rm) for r in rows])
        fill(T.HAS_CONVEX_PRICE, subjects, [intern(r.convex) for r in rows])
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
    rows that satisfy all patterns. A filter reads the join's id rows as
    they are: a variable's value is ``values[row[slots[name]]]``, and no
    row is copied into a dict of values.
    """
    slots, start, steps = _plan(graph, patterns)
    rows = [start]
    for cells, bound in steps:
        if not rows:
            break
        rows = _join(graph, cells, bound, rows)
    values = graph._values
    for expr in filters:
        rows = [row for row in rows if _truth(expr, row, slots, values)]
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


def _eval_expr(expr: Expr, row: list, slots: dict, values: list):
    """The value of ``expr`` on one id row of ``_solve``: a variable reads
    its term from the row's cell, ``values[row[slots[name]]]``."""
    if isinstance(expr, Variable):  # the spec found it in a pattern
        return values[row[slots[expr.name]]]
    if not isinstance(expr, Op):
        return expr  # a constant: a literal's value
    op, args = expr.op, expr.args
    left = _eval_expr(args[0], row, slots, values)
    if op in ("!", "&&", "||"):
        left = _require_bool(left, expr)
        if op == "!":
            return not left
        if left is (op == "||"):  # false && ..., true || ...
            return left
        return _require_bool(_eval_expr(args[1], row, slots, values), expr)
    kind = _KIND[type(left)]
    if len(args) == 1:
        if kind != "number":
            raise FilterTypeError(
                f"negation needs a number, got {kind} in {render_expr(expr)}"
            )
        return left.copy_negate() if type(left) is Decimal else -left  # exact
    right = _eval_expr(args[1], row, slots, values)
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


def _truth(expr: Expr, row: list, slots: dict, values: list) -> bool:
    return _require_bool(_eval_expr(expr, row, slots, values), expr)


# --- evaluation --------------------------------------------------------------


@dataclass
class ResultTable:
    columns: list[str]
    rows: list[tuple]

    def mappings(self) -> list[dict]:
        return [dict(zip(self.columns, row)) for row in self.rows]


def sort_key(value):
    """A value's key in ORDER BY and GROUP BY order: by kind (numbers,
    strings, dates, IRIs), then by value within a kind."""
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


@collector_paused()
def evaluate(graph: Graph, spec: QuerySpec) -> ResultTable:
    """Run a query: match, group, aggregate, order, and limit, with the
    cyclic collector paused."""
    slots, rows = _solve(graph, spec.patterns, spec.filters)
    values = graph._values
    columns = list(spec.columns)

    if spec.aggregates or spec.group_by:
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
        keyed.sort(key=lambda group: tuple(map(sort_key, group[0])))
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
        idx = columns.index(spec.order_by.key)  # the spec found it there
        keyed = [r for r in out_rows if r[idx] is not None]
        absent = [r for r in out_rows if r[idx] is None]
        keyed.sort(key=lambda r: sort_key(r[idx]), reverse=spec.order_by.descending)
        out_rows = keyed + absent
    if spec.limit is not None:
        out_rows = out_rows[: spec.limit]
    return ResultTable(columns, out_rows)


# --- N-Triples I/O -----------------------------------------------------------


# The store image beside ``graph.nt`` (see ``export_ntriples``). Its ids are
# 4-byte little-endian unsigned ints, the same bytes on every host.
_IMAGE_MAGIC = b"ltbp-store-image/2"
_ID = "I" if array("I").itemsize == 4 else "L"
_TEXTS_PER_WRITE = 1 << 12  # term texts joined, encoded and written at a time


def _crc32(path) -> int:
    """The CRC-32 of the file at ``path``, read in blocks."""
    crc = 0
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 16), b""):
            crc = zlib.crc32(block, crc)
    return crc


def export_ntriples(graph: Graph, path) -> None:
    """One triple per line in lexicographic order; reload round-trips.

    Lines stream out one subject at a time, subjects in text order, and a
    subject's lines by predicate text, which is the order of the sorted file:
    no IRI text is a prefix of another (``>`` ends an IRI and cannot occur
    inside it), so the subject decides between lines of different subjects
    and the predicate between lines of one subject. A subject's lines are
    found by probing each predicate's subject map for it.

    The same walk numbers the terms for the store image, ``path + ".img"``,
    that ``load_ntriples`` reads in place of the text: in order of first
    appearance in the file, a line's subject, then its predicate, then its
    object, as the loader interns them. The image is written front to back,
    once:

    - a header line: the magic, ``graph.nt``'s size and CRC-32, and each
      predicate's ``id:count``, predicates in the order of their first line;
    - each predicate's subject id column, then its object id column, its
      lines in file order, an id being 4 bytes little-endian;
    - the term texts in id order, each ending in a line feed (N-Triples
      escapes every line break, so no text holds one);
    - the CRC-32 of every byte before it, 4 bytes little-endian.

    Nothing else is recorded: the term count is the number of texts, and
    the texts' length is what the image's size leaves.

    Any old image is deleted before ``graph.nt`` is written, and the new one
    is written under a temporary name and then renamed, so no image
    outlives the ``graph.nt`` it describes.
    """
    text = list(graph._ids)  # ids count up in insertion order
    maps = sorted((text[p], p, so, array(_ID), array(_ID))
                  for p, so in graph._so.items())
    seen = bytearray(len(text))  # a flag per term id: far smaller than a set
    subjects = []
    for so in graph._so.values():
        for s in so:
            if not seen[s]:
                seen[s] = 1
                subjects.append(s)
    subjects.sort(key=text.__getitem__)

    def in_file_order(objects: list) -> list:
        """A subject's objects of one predicate, in the order of their lines."""
        return sorted(objects, key=lambda o: f"{text[o]} .")

    image = f"{os.fspath(path)}.img"
    if os.path.isfile(image):
        os.remove(image)
    # store id -> id in the file, or -1; an array, as a list would hold an
    # int object per term
    file_id = array("i", [-1]) * len(text)
    order = array(_ID)  # file id -> store id
    used = []  # each predicate's id and columns, in the order of its first line

    def number(term: int) -> int:
        """The term's id in the file, given on first sight."""
        fid = file_id[term]
        if fid < 0:
            fid = file_id[term] = len(order)
            order.append(term)
        return fid

    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        write = handle.write
        for s in subjects:
            head = text[s]
            fs = number(s)
            for predicate, p, so, subject_ids, object_ids in maps:
                o = so.get(s)
                if o is None:
                    continue
                if not subject_ids:  # the predicate's first line
                    used.append((number(p), subject_ids, object_ids))
                if o.__class__ is int:  # as ``number(o)``, inline: most lines
                    write(f"{head} {predicate} {text[o]} .\n")
                    fo = file_id[o]
                    if fo < 0:
                        fo = file_id[o] = len(order)
                        order.append(o)
                    subject_ids.append(fs)
                    object_ids.append(fo)
                    continue
                for o in in_file_order(o):
                    write(f"{head} {predicate} {text[o]} .\n")
                    subject_ids.append(fs)
                    object_ids.append(number(o))
    del file_id, maps
    counts = "".join(f" {p}:{len(subject_ids)}" for p, subject_ids, _ in used)
    header = (f"{_IMAGE_MAGIC.decode()} {os.path.getsize(path)} {_crc32(path):08x}"
              f"{counts}\n").encode("ascii")
    temporary = f"{image}.tmp"
    with open(temporary, "wb") as out:
        out.write(header)
        crc = zlib.crc32(header)
        for _, subject_ids, object_ids in used:
            for ids in (subject_ids, object_ids):
                if sys.byteorder == "big":
                    ids.byteswap()
                crc = zlib.crc32(ids, crc)
                ids.tofile(out)
        del used
        for start in range(0, len(order), _TEXTS_PER_WRITE):
            block = "\n".join(map(text.__getitem__,
                                  order[start:start + _TEXTS_PER_WRITE]))
            block = f"{block}\n".encode("utf-8")
            crc = zlib.crc32(block, crc)
            out.write(block)
        out.write(crc.to_bytes(4, "little"))
    os.replace(temporary, image)


_NT_LITERAL = re.compile(r'"(?P<body>(?:[^"\\]|\\.)*)"(?:\^\^<(?P<dtype>[^<>\s]*)>)?')
# Each datatype IRI's value type, the ``kind`` that ``terms.read`` takes.
_KINDS = {datatype: kind for kind, datatype in T.DATATYPES.items()}


# A term's checks name where the term was read, ``where``: "line N" of an
# N-Triples file, or a store image.
def _parse_iri(token: str, where: str) -> Iri:
    if not (token.startswith("<") and token.endswith(">")):
        raise GraphParseError(f"{where}: expected an IRI, got {token!r}")
    try:
        return T.read_iri(token[1:-1])
    except ValueError as exc:
        raise GraphParseError(f"{where}: {exc}") from None


def _parse_object(token: str, where: str) -> Value:
    if token.startswith("<") and token.endswith(">"):
        return _parse_iri(token, where)
    # "body" or "body"^^<datatype>. A body with no quote and no backslash,
    # as most are, is its value's text: it needs neither the regex nor an
    # unescape. Any other token takes the regex, which also names what is
    # wrong with it.
    body, typed, dtype = token[1:-1].rpartition('"^^<')
    if not typed:
        body, dtype = token[1:-1], None
    if not (len(token) > 1 and token[0] == '"'
            and token[-1] == (">" if typed else '"')
            and '"' not in body and "\\" not in body
            and (dtype is None or dtype in _KINDS)):
        m = _NT_LITERAL.fullmatch(token)
        if m is None:
            raise GraphParseError(f"{where}: malformed object term: {token!r}")
        try:
            body = T.unescape(m.group("body"))
        except ValueError as exc:
            raise GraphParseError(f"{where}: {exc}") from None
        dtype = m.group("dtype")
    if dtype is None:
        return body
    kind = _KINDS.get(dtype)
    if kind is None:
        raise GraphParseError(f"{where}: unsupported datatype <{dtype}>")
    try:
        return T.read(kind, body)
    except ValueError:
        raise GraphParseError(
            f"{where}: invalid literal {body!r} for <{dtype}>"
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


class _Refused(Exception):
    """A store image that does not match its ``graph.nt`` or is not well
    formed: ``args`` are the reason (size, CRC, format or ids) and what
    differs."""


def _read_image(path, handle) -> Graph:
    """The store held by ``handle``, open on the image of the N-Triples file
    ``path`` (see ``export_ntriples``). An image is refused (``_Refused``)
    unless it has the magic and a readable header, ``path`` has the size and
    CRC-32 that the header records, every count is positive and the columns
    fit the file, the image ends in the CRC-32 of the bytes before it, the
    texts are UTF-8, end in a line feed and none repeats, no predicate
    repeats, and every id lies in [0, n), n being the number of texts. The
    texts' length is what the image's size leaves after the header, the
    columns and the CRC, so no count in a header makes a read larger than
    the file. An id is read unsigned, so indexing the table of ids with it
    checks its range. A text that fails the loader's term checks, and a
    predicate or subject that is not an IRI, is a GraphParseError naming
    the image. A text is not checked to be its value's canonical text
    (``_nt_term``): an image holding ``"007"^^xsd:integer`` with its CRCs
    right loads, and a query for ``7`` finds nothing there.

    Each id is one int object from ``pool``, shared by ``_ids`` and every
    map, as in a store the text gives. Each predicate's map is filled from
    its columns by ``Graph._fill``, as the loader fills it from the text's.
    """
    image = handle.name
    header = handle.readline()
    fields = header.split()
    if fields[:1] != [_IMAGE_MAGIC]:
        raise _Refused("format", f"not a {_IMAGE_MAGIC.decode()} image")
    try:
        _, nt_size, nt_crc, *counts = fields
        nt_size, nt_crc = int(nt_size), int(nt_crc, 16)
        predicates = [(int(p), int(count))
                      for p, count in (field.split(b":") for field in counts)]
    except ValueError:
        raise _Refused("format", "unreadable header") from None
    size = os.path.getsize(path)
    if size != nt_size:
        raise _Refused("size", f"graph.nt has {size} bytes, the image was "
                               f"written for {nt_size}")
    texts = (os.fstat(handle.fileno()).st_size - len(header) - 4
             - 8 * sum(count for _, count in predicates))
    if texts < 0 or any(p < 0 or count <= 0 for p, count in predicates):
        raise _Refused("format", "the header's ids and counts do not fit the file")
    if _crc32(path) != nt_crc:
        raise _Refused("CRC", "graph.nt differs from the file the image was "
                              "written for")
    crc, cols = zlib.crc32(header), []
    for p, count in predicates:
        subject_ids, object_ids = array(_ID), array(_ID)
        for ids in (subject_ids, object_ids):
            ids.fromfile(handle, count)
            crc = zlib.crc32(ids, crc)
            if sys.byteorder == "big":
                ids.byteswap()
        cols.append((p, subject_ids, object_ids))
    data = handle.read(texts)
    if zlib.crc32(data, crc) != int.from_bytes(handle.read(4), "little"):
        raise _Refused("CRC", "the image is corrupt")
    try:
        words = data.decode("utf-8").split("\n")
    except UnicodeDecodeError:
        raise _Refused("format", "a term text is not UTF-8") from None
    del data
    if words.pop() != "":
        raise _Refused("format", "the last term text has no line feed")
    n = len(words)
    pool = list(range(n))  # one int object per id, shared by every map
    graph = Graph()
    graph._ids = dict(zip(words, pool))
    if len(graph._ids) != n:
        raise _Refused("format", "a term text repeats")
    values = graph._values = [_parse_object(word, image) for word in words]
    del words
    so, take, last = graph._so, pool.__getitem__, None
    cols.reverse()
    try:
        while cols:  # each predicate's columns are freed once its map is built
            p, subject_ids, object_ids = cols.pop()
            p = take(p)
            if p in so:
                raise _Refused("format", f"predicate {p} repeats")
            # A subject column equal to the last one's, as most are in ltbp's
            # graphs, reuses its ids, which were checked to be IRIs; the
            # predicate must be one too.
            fresh = subject_ids != last
            if fresh:
                subjects = list(map(take, subject_ids))
            graph._fill(p, subjects, list(map(take, object_ids)))
            for tid in (p, *subjects) if fresh else (p,):
                if values[tid].__class__ is not Iri:
                    _parse_iri(_nt_term(values[tid]), image)  # raises
            last = subject_ids
    except IndexError:
        raise _Refused("ids", f"an id of predicate {p} is outside [0, {n})") from None
    return graph


def load_ntriples(path) -> Graph:
    """Read an N-Triples file; GraphParseError names the first bad line.

    A line is three terms split at whitespace and a final "."; the object,
    which may hold spaces, is all that follows the predicate. Tokens are
    looked up in the store's own text -> id table, so a token already in the
    store costs one dict lookup; any other token is parsed, checked and
    interned. A subject or predicate found there must still be an IRI. A
    line whose subject token is the previous line's reuses its id, which in
    an exported file, grouped by subject, is most lines. Each line's ids go
    to its predicate's subject and object columns; after the parse each
    predicate is filled from its columns (``Graph._fill``), which are then
    freed, so a repeated line is one triple. A new term is
    interned under its canonical text, ``_nt_term`` of its value, which for
    an IRI is its token. A non-canonical literal such as
    ``"007"^^xsd:integer`` is not a key in the table, so it is parsed each
    time it occurs.

    A comment line, one whose first character after any leading whitespace
    is "#", is skipped by one test of that character, before the line is
    split. A comment after a triple is skipped too. It is told apart only
    where the line would otherwise be rejected, so triples pay nothing for
    it: by ``_COMMENTED`` when the line does not end in "." or its object
    token does not parse (a comment that ends in "." runs into that token).
    Line numbers count comment lines.

    When the store image that ``export_ntriples`` wrote beside the file is
    there and matches it (see ``_read_image``), the store is read from the
    image instead, with no text parse. It equals the store the text gives:
    the same ``_ids``, ``_values`` and ``_so``, each in the same order, and
    the same size. A missing or refused image falls back to the text, and
    the ``ltbp.graph`` log says at INFO level which way was taken and why.
    An image that passes its CRC but holds a bad term text, or a literal as
    a predicate or subject, is a GraphParseError naming the image, as the
    text would be for a bad line.
    """
    image = f"{os.fspath(path)}.img"
    try:
        handle = open(image, "rb")
    except OSError as exc:
        log.info("%s: no store image (%s); parsing the text", path, exc.strerror)
    else:
        with handle:
            try:
                graph = _read_image(path, handle)
            except _Refused as refused:
                log.info("%s: store image refused (%s: %s); parsing the text",
                         image, *refused.args)
            else:
                log.info("%s: read the store image", image)
                return graph
    graph = Graph()
    ids, intern = graph._ids, graph._intern
    columns: dict[int, tuple[list, list]] = {}  # p -> its s and o ids, in line order
    last_token = None
    with open(path, "r", encoding="utf-8") as handle:
        try:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line or line[0] == "#":
                    continue
                if line[-1] != ".":
                    line = _uncomment(line, _malformed(lineno, line))[1]
                try:
                    s_token, p_token, o_token = line[:-1].split(None, 2)
                except ValueError:  # fewer than three terms
                    raise _malformed(lineno, line) from None
                o_token = o_token.rstrip()
                if s_token != last_token:
                    s = ids.get(s_token)
                    if s is None or s_token[0] != "<":
                        s = intern(_parse_iri(s_token, f"line {lineno}"))
                    last_token = s_token
                p = ids.get(p_token)
                if p is None or p_token[0] != "<":
                    p = intern(_parse_iri(p_token, f"line {lineno}"))
                o = ids.get(o_token)
                if o is None:
                    try:
                        o = intern(_parse_object(o_token, f"line {lineno}"))
                    except GraphParseError as exc:
                        o_token = _uncomment(line, exc)[2]
                        o = intern(_parse_object(o_token, f"line {lineno}"))
                column = columns.get(p)
                if column is None:
                    column = columns[p] = ([], [])
                column[0].append(s)
                column[1].append(o)
        except UnicodeDecodeError:
            raise GraphParseError(not_utf8(path)) from None
    for p in list(columns):  # each predicate's columns are freed once filled
        graph._fill(p, *columns.pop(p))
    return graph
