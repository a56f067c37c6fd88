"""Graph terms, triple patterns, and the fixed IRI namespace used by the store.

Each term has one representation, the same in a pattern, a filter, the
store, a binding and a result row: an IRI is an ``Iri``, a literal is its
Python value (``str``, ``int``, ``Decimal`` or ``date``), and a variable is a
``Variable``. An RDF literal is a lexical form plus a datatype that maps to
one value (W3C RDF 1.1 Concepts, 2014); the value's type names the datatype,
and the store keeps the literal's lexical form (see ``graph``).

A number or a date is read from text in one lexical form per datatype,
``INTEGER``, ``DECIMAL`` and ``DATE`` below, by every reader: the N-Triples
loader, the CSV loader, the CLI's date flags and the query parser.

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


# The lexical forms of the literal datatypes (XML Schema 1.1 Part 2), in
# ASCII digits: xsd:integer, xsd:decimal, which has no exponent, and
# xsd:date without a time zone. Python's own readers take more: ``int`` and
# ``Decimal`` take spaces, ``_`` and other scripts' digits, ``Decimal`` an
# exponent, and ``date.fromisoformat`` ``20190716`` and ``2030-W01-1``.
INTEGER = re.compile(r"[+-]?[0-9]+")
DECIMAL = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)")
DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


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


def unescape(body: str) -> str:
    """A quoted string's body with its escapes resolved; a bad escape raises
    ValueError."""
    return _ESCAPE.sub(_unescape_one, body) if "\\" in body else body


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
