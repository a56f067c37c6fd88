"""Graph terms, triple patterns, and the fixed IRI namespace used by the store.

Everything lives under ``urn:ltbp:``. Entities get one IRI each
(``urn:ltbp:customer:C001``), with the id percent-encoded (RFC 3986) so that
any id yields a valid IRI; the raw id travels as a literal. Predicates sit
under ``urn:ltbp:p:`` and carry the ontology's property names
(``wasPlacedBy``, ``hasAdjustmentFactor``, ...).
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from decimal import Decimal
from typing import Union
from urllib.parse import quote

NAMESPACE = "urn:ltbp:"
XSD = "http://www.w3.org/2001/XMLSchema#"

LiteralValue = Union[str, int, Decimal, date]


@dataclass(frozen=True, slots=True)
class Iri:
    value: str


@dataclass(frozen=True, slots=True)
class Literal:
    value: LiteralValue


@dataclass(frozen=True, slots=True)
class Variable:
    name: str


Term = Union[Iri, Literal, Variable]


TriplePattern = tuple  # (Term, Term, Term) with Variables allowed anywhere


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
