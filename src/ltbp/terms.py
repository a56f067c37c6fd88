"""Graph terms, triple patterns, and the fixed IRI namespace used by the store.

Each term has one representation, the same in a pattern, a filter, the
store, a filter variable's value and a result row: an IRI is an ``Iri``, a
literal is its Python value (``str``, ``int``, ``Decimal`` or ``date``), and
a variable is a ``Variable``. An RDF literal is a lexical form plus a datatype that maps to
one value (W3C RDF 1.1 Concepts, 2014); the value's type names the datatype,
and the store keeps the literal's lexical form (see ``graph``).

A literal's text form is defined here once, and every edge of the program
reads and writes through it:

- ``read(kind, text)`` reads an ``int``, ``Decimal`` or ``date`` from its
  datatype's one lexical form. The N-Triples loader, the CSV cells, the CLI's
  date flags and the query parser's numbers call it.
- ``lexical(value)`` writes a number or a date in that form, in plain
  notation, so ``read`` reads it back. ``graph.nt``, ``ltbp query``'s cells
  and filter error messages call it.
- ``escape(text)`` and ``unescape(body)`` are a quoted string's escapes,
  and ``read_iri(body)`` is the IRI between angle brackets, each shared by
  N-Triples and the query language.
- ``text(value)`` is a term's untyped text: a string quoted and escaped, an
  IRI in angle brackets, a number or a date in its lexical form. ``ltbp
  query``'s cells and filter error messages call it, and ``identifier``
  writes a CQ table's or an error's identifier cell through it.

Everything lives under ``urn:ltbp:``. Entities get one IRI each
(``urn:ltbp:customer:C001``), with the id percent-encoded (RFC 3986) so that
any id yields a valid IRI; the raw id travels as a literal. Predicates sit
under ``urn:ltbp:p:`` and carry the ontology's property names
(``wasPlacedBy``, ``hasAdjustmentFactor``, ...).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import date
from decimal import Decimal
from typing import Union
from urllib.parse import quote

NAMESPACE = "urn:ltbp:"
XSD = "http://www.w3.org/2001/XMLSchema#"


@dataclass(frozen=True, slots=True)
class Iri:
    value: str


@dataclass(frozen=True, slots=True)
class Variable:
    name: str


Value = Union[Iri, str, int, Decimal, date]  # an IRI, or a literal's value
Term = Union[Value, Variable]


TriplePattern = tuple  # (Term, Term, Term) with Variables allowed anywhere


# The literal datatypes (XML Schema 1.1 Part 2), each named by its value's
# type.
DATATYPES = {int: f"{XSD}integer", Decimal: f"{XSD}decimal", date: f"{XSD}date"}

# Each datatype's lexical form in ASCII digits (its ``fullmatch``), the
# reader of a text in that form, and what a text not in it is not.
# xsd:decimal has no exponent, and xsd:date is read without a time zone.
# Python's own readers take more: ``int`` and ``Decimal`` take spaces, ``_``
# and other scripts' digits, ``Decimal`` an exponent, and
# ``date.fromisoformat`` ``20190716`` and ``2030-W01-1``.
_READERS = {
    int: (re.compile(r"[+-]?[0-9]+").fullmatch, int, "not an integer"),
    Decimal: (re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)").fullmatch,
              Decimal, "not a number"),
    date: (re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}").fullmatch,
           date.fromisoformat, "not an ISO date"),
}


def read(kind: type, text: str) -> Union[int, Decimal, date]:
    """The ``kind`` value (``int``, ``Decimal`` or ``date``) written as
    ``text`` in its datatype's lexical form. Any other text, an impossible
    date and an integer past Python's int-from-text limit raise ValueError."""
    matches, convert, what = _READERS[kind]
    if matches(text) is not None:
        try:
            return convert(text)
        except ValueError:
            if kind is int:  # more digits than the int-from-text limit
                raise ValueError(f"too many digits: {len(text)}") from None
    raise ValueError(f"{what}: {text!r}")


def lexical(value: Union[int, Decimal, date]) -> str:
    """A number's or a date's text in its datatype's lexical form, which
    ``read`` reads back: a decimal in plain notation, with its fraction
    digits as held (``0.00000010``, not ``1.0E-7``)."""
    if isinstance(value, Decimal):
        return f"{value:f}"
    if isinstance(value, date):
        return value.isoformat()
    return str(Decimal(value))  # str() refuses an int of over 4,300 digits


# The string escapes N-Triples and SPARQL share (W3C, 2014; W3C, 2013):
# ECHAR, a backslash and one character, and UCHAR, ``\uXXXX`` or
# ``\UXXXXXXXX``.
ECHAR = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
         '"': '"', "'": "'", "\\": "\\"}
_ESCAPE = re.compile(r"\\(?:u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|(.?))", re.DOTALL)


def _unescape_one(m: re.Match) -> str:
    short, long, char = m.groups()
    if char is None:
        code = int(short or long, 16)
        if code <= 0x10FFFF and not 0xD800 <= code <= 0xDFFF:  # a Unicode scalar
            return chr(code)
    elif char in ECHAR:
        return ECHAR[char]
    raise ValueError(f"invalid string escape {m.group()}")


# What a quoted string may not hold raw in N-Triples, and tabs, as ECHARs.
_ESCAPES = str.maketrans(
    {char: f"\\{name}" for name, char in ECHAR.items() if char in '\\"\n\r\t'}
)


def escape(text: str) -> str:
    """A string's body as written between quotes; ``unescape`` reverses it."""
    return text.translate(_ESCAPES)


def unescape(body: str) -> str:
    """A quoted string's body with its escapes resolved; a bad escape raises
    ValueError."""
    return _ESCAPE.sub(_unescape_one, body) if "\\" in body else body


# N-Triples and SPARQL IRIREF exclude controls, space and <>"{}|^`\ (W3C,
# 2014; W3C, 2013); other whitespace is excluded too, as the N-Triples
# loader splits terms at it and the query tokenizer ends an IRI there.
_IRI_FORBIDDEN = re.compile(r'[\x00-\x20\s<>"{}|^`\\]')


def read_iri(body: str) -> Iri:
    """The IRI written ``<body>``; a character IRIREF forbids raises
    ValueError."""
    bad = _IRI_FORBIDDEN.search(body)
    if bad is not None:
        raise ValueError(f"character {bad.group()!r} not allowed in IRI <{body}>")
    return Iri(body)


def text(value: Value) -> str:
    """A term's text with no datatype, as ``ltbp query`` prints a cell, which
    reads back to the term's value: a string between quotes with
    ``escape``'s escapes, so a tab or line break cannot split a TSV row and
    the empty string is not an empty cell (which means unbound); an IRI
    between angle brackets; a number or a date in its ``lexical`` form, as
    in ``graph.nt``."""
    if isinstance(value, str):
        return f'"{escape(value)}"'
    if isinstance(value, Iri):
        return f"<{value.value}>"
    return lexical(value)


def identifier(value: Value) -> str:
    """An entity identifier read from a graph, as a CSV or JSON cell: a string
    as it is, any other term as ``text`` writes it."""
    return value if isinstance(value, str) else text(value)


def predicate(name: str) -> Iri:
    return Iri(f"{NAMESPACE}p:{name}")


def customer_iri(code: str) -> Iri:
    return Iri(f"{NAMESPACE}customer:{quote(code, safe='')}")


def order_iri(number: str) -> Iri:
    return Iri(f"{NAMESPACE}order:{quote(number, safe='')}")


def product_iri(number: str) -> Iri:
    return Iri(f"{NAMESPACE}product:{quote(number, safe='')}")


def class_iri(name: str) -> Iri:
    return Iri(f"{NAMESPACE}class:{name}")


# Prefix table shared by the query parser; the empty prefix is the predicate
# namespace so queries can write ``:hasRMPrice``.
PREFIXES = {
    "": f"{NAMESPACE}p:",
    "cust": f"{NAMESPACE}customer:",
    "ord": f"{NAMESPACE}order:",
    "prod": f"{NAMESPACE}product:",
    "class": f"{NAMESPACE}class:",
}

# Entity classes
CUSTOMER_CLASS = class_iri("Customer")
ORDER_CLASS = class_iri("Order")
PRODUCT_CLASS = class_iri("Product")

# Predicates
TYPE = predicate("type")
HAS_CUSTOMER_CODE = predicate("hasCustomerCode")
HAS_ACCOUNT_TYPE = predicate("hasAccountType")
HAS_ADJUSTMENT_FACTOR = predicate("hasAdjustmentFactor")
HAS_ANNUAL_REVENUE = predicate("hasAnnualRevenue")
HAS_REGION = predicate("hasRegion")
HAS_PREMIUM = predicate("hasPremium")
HAS_PRODUCT_NUMBER = predicate("hasProductNumber")
HAS_BASIC_TYPE = predicate("hasBasicType")
HAS_PRODUCT_LINE = predicate("hasProductLine")
HAS_ORDER_NUMBER = predicate("hasOrderNumber")
HAS_QUANTITY = predicate("hasQuantity")
HAS_ORIGINAL_PRICE = predicate("hasOriginalPrice")
HAS_ORDER_DATE = predicate("hasOrderDate")
HAS_REQUESTED_DATE = predicate("hasRequestedDate")
HAS_CONFIRMED_DATE = predicate("hasConfirmedDate")
HAS_STANDARD_DATE = predicate("hasStandardDate")
WAS_PLACED_BY = predicate("wasPlacedBy")
CONTAINS_PRODUCT = predicate("containsProduct")
HAS_RM_PRICE = predicate("hasRMPrice")
HAS_CONVEX_PRICE = predicate("hasConvexPrice")
