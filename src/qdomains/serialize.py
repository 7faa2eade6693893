"""JSON interchange for algebra elements.

Documents carry a kind tag (qpoly, free, laurent, hseries), the dimension
n, an optional parameter q (required for qpoly, allowed for free where a
consumer needs it, rejected elsewhere), and a list of term records.
Parsing is strict: unknown fields, wrong shapes, out-of-range letters and
numbers that are not finite doubles are rejected with a path diagnostic.
A parsed term is kept unless its coefficient is exactly zero, the one rule
every element constructor applies, so parse(serialize(e)) reproduces e
bit for bit, subnormal coefficients included.

serialize_element writes the compact form.  element_text writes the
indent-2 form that the CLI prints, the same bytes as
json.dumps(element_to_document(e), indent=2), straight from each kind's
fixed term layout: with any indent, json.dumps runs its pure-Python
encoder over every intermediate dict and list.
"""

from __future__ import annotations

import json
import math
from typing import Any

from qdomains.deform_types import HSeriesElement
from qdomains.elements import FreeElement, LaurentElement, QPolynomial

__all__ = [
    "SchemaError",
    "element_to_document",
    "document_to_element",
    "document_q",
    "serialize_element",
    "element_text",
    "parse_element",
]

KINDS = ("qpoly", "free", "laurent", "hseries")


class SchemaError(ValueError):
    """Schema violation with the offending document path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _require_int(value, path):
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(path, f"expected an integer, got {value!r}")
    return value


def _require_number(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(path, f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise SchemaError(path, "number outside the double range") from None
    if not math.isfinite(number):
        raise SchemaError(path, f"expected a finite number, got {value!r}")
    return number


def _parse_complex(value, path) -> complex:
    if not isinstance(value, dict):
        raise SchemaError(path, "expected an object with fields re, im")
    extra = set(value) - {"re", "im"}
    if extra:
        raise SchemaError(path, f"unknown fields {sorted(extra)}")
    if "re" not in value:
        raise SchemaError(path, "missing field re")
    re = _require_number(value["re"], f"{path}.re")
    im = _require_number(value.get("im", 0.0), f"{path}.im")
    return complex(re, im)


def _complex_doc(c: complex) -> dict:
    return {"re": c.real, "im": c.imag}


def _parse_index_vector(value, n, path):
    if not isinstance(value, list) or len(value) != n:
        raise SchemaError(path, f"expected a length-{n} integer list")
    out = []
    for i, m in enumerate(value):
        m = _require_int(m, f"{path}[{i}]")
        if m < 0:
            raise SchemaError(f"{path}[{i}]", "exponents must be nonnegative")
        out.append(m)
    return tuple(out)


def _parse_word(value, n, path):
    if not isinstance(value, list):
        raise SchemaError(path, "expected an integer list")
    out = []
    for i, a in enumerate(value):
        a = _require_int(a, f"{path}[{i}]")
        if not 1 <= a <= n:
            raise SchemaError(f"{path}[{i}]", f"letters must lie in 1..{n}")
        out.append(a)
    return tuple(out)


_TERM_FIELDS = {
    "qpoly": {"k", "c"},
    "free": {"alpha", "c"},
    "laurent": {"k", "p", "c"},
    "hseries": {"p", "k", "c"},
}

_TOP_FIELDS = {
    "qpoly": {"kind", "n", "q", "terms"},
    "free": {"kind", "n", "q", "terms"},
    "laurent": {"kind", "n", "terms"},
    "hseries": {"kind", "n", "order", "terms"},
}


def element_to_document(e) -> dict:
    if isinstance(e, QPolynomial):
        terms = [{"k": list(k), "c": _complex_doc(c)} for k, c in e.sorted_terms()]
        return {"kind": "qpoly", "n": e.n, "q": _complex_doc(e.q.value), "terms": terms}
    if isinstance(e, FreeElement):
        terms = [{"alpha": list(a), "c": _complex_doc(c)} for a, c in e.sorted_terms()]
        return {"kind": "free", "n": e.n, "terms": terms}
    if isinstance(e, LaurentElement):
        terms = [{"k": list(k), "p": p, "c": _complex_doc(c)}
                 for (k, p), c in e.sorted_terms()]
        return {"kind": "laurent", "n": e.n, "terms": terms}
    if isinstance(e, HSeriesElement):
        terms = [{"p": p, "k": list(k), "c": _complex_doc(c)}
                 for (p, k), c in e.sorted_terms()]
        return {"kind": "hseries", "n": e.n, "order": e.order, "terms": terms}
    raise TypeError(f"cannot serialize {type(e).__name__}")


def document_to_element(doc: Any):
    if not isinstance(doc, dict):
        raise SchemaError("$", "document must be an object")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise SchemaError("$.kind", f"expected one of {KINDS}, got {kind!r}")
    extra = set(doc) - _TOP_FIELDS[kind]
    if extra:
        raise SchemaError("$", f"unknown fields {sorted(extra)} for kind {kind!r}")
    n = _require_int(doc.get("n"), "$.n")
    if n < 1:
        raise SchemaError("$.n", "dimension must be at least 1")
    raw_terms = doc.get("terms")
    if not isinstance(raw_terms, list):
        raise SchemaError("$.terms", "expected a list of term records")

    def check_term(i, record):
        path = f"$.terms[{i}]"
        if not isinstance(record, dict):
            raise SchemaError(path, "expected an object")
        fields = _TERM_FIELDS[kind]
        extra = set(record) - fields
        if extra:
            raise SchemaError(path, f"unknown fields {sorted(extra)}")
        missing = fields - set(record)
        if missing:
            raise SchemaError(path, f"missing fields {sorted(missing)}")
        return path

    if kind == "qpoly":
        if "q" not in doc:
            raise SchemaError("$.q", "qpoly documents must carry q")
        q = _parse_complex(doc["q"], "$.q")
        terms = {}
        for i, record in enumerate(raw_terms):
            path = check_term(i, record)
            k = _parse_index_vector(record["k"], n, f"{path}.k")
            if k in terms:
                raise SchemaError(f"{path}.k", "duplicate exponent vector")
            terms[k] = _parse_complex(record["c"], f"{path}.c")
        return QPolynomial(n, q, terms)

    if kind == "free":
        if "q" in doc:
            _parse_complex(doc["q"], "$.q")
        terms = {}
        for i, record in enumerate(raw_terms):
            path = check_term(i, record)
            alpha = _parse_word(record["alpha"], n, f"{path}.alpha")
            if alpha in terms:
                raise SchemaError(f"{path}.alpha", "duplicate word")
            terms[alpha] = _parse_complex(record["c"], f"{path}.c")
        return FreeElement(n, terms)

    if kind == "laurent":
        terms = {}
        for i, record in enumerate(raw_terms):
            path = check_term(i, record)
            k = _parse_index_vector(record["k"], n, f"{path}.k")
            p = _require_int(record["p"], f"{path}.p")
            if (k, p) in terms:
                raise SchemaError(path, "duplicate basis key")
            terms[(k, p)] = _parse_complex(record["c"], f"{path}.c")
        return LaurentElement(n, terms)

    # hseries
    powers = []
    terms = {}
    for i, record in enumerate(raw_terms):
        path = check_term(i, record)
        p = _require_int(record["p"], f"{path}.p")
        if p < 0:
            raise SchemaError(f"{path}.p", "h-powers must be nonnegative")
        k = _parse_index_vector(record["k"], n, f"{path}.k")
        if (p, k) in terms:
            raise SchemaError(path, "duplicate term key")
        powers.append(p)
        terms[(p, k)] = _parse_complex(record["c"], f"{path}.c")
    order = _require_int(doc.get("order", max(powers, default=0)), "$.order")
    if order < 0:
        raise SchemaError("$.order", "order must be nonnegative")
    if powers and order < max(powers):
        raise SchemaError("$.order", "order is smaller than the largest h-power")
    return HSeriesElement(n, order, terms)


def document_q(doc: Any) -> complex | None:
    """The optional q field of a parsed document, when present."""
    if isinstance(doc, dict) and "q" in doc:
        return _parse_complex(doc["q"], "$.q")
    return None


def serialize_element(e) -> str:
    return json.dumps(element_to_document(e), indent=None, separators=(",", ":"))


# element_text layouts: the indent-2 nesting of a document is fixed, with
# term fields at depth 3 and their list items and c parts at depth 4
_I2, _I4, _I6, _I8 = "\n  ", "\n    ", "\n      ", "\n        "
_C = '"c": {' + _I8 + '"re": %s,' + _I8 + '"im": %s' + _I6 + "}" + _I4 + "}"
_QPOLY_TERM = "{" + _I6 + '"k": %s,' + _I6 + _C
_FREE_TERM = "{" + _I6 + '"alpha": %s,' + _I6 + _C
_LAURENT_TERM = "{" + _I6 + '"k": %s,' + _I6 + '"p": %d,' + _I6 + _C
_HSERIES_TERM = "{" + _I6 + '"p": %d,' + _I6 + '"k": %s,' + _I6 + _C
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _number(x: float) -> str:
    """A float as json spells it; only the reprs of nan and +-inf end in n or f."""
    text = float.__repr__(x)
    return _NON_FINITE[text] if text[-1] in "nf" else text


def _int_list(values) -> str:
    """An exponent vector or word as a term field; [] when empty."""
    if not values:
        return "[]"
    return "[" + _I8 + ("," + _I8).join(map(str, values)) + _I6 + "]"


def element_text(e) -> str:
    """json.dumps(element_to_document(e), indent=2), byte for byte."""
    if isinstance(e, QPolynomial):
        q = e.q.value
        head = (f'"kind": "qpoly",{_I2}"n": {e.n},{_I2}"q": {{{_I4}"re": '
                f'{_number(q.real)},{_I4}"im": {_number(q.imag)}{_I2}}}')
        terms = [_QPOLY_TERM % (_int_list(k), _number(c.real), _number(c.imag))
                 for k, c in e.sorted_terms()]
    elif isinstance(e, FreeElement):
        head = f'"kind": "free",{_I2}"n": {e.n}'
        terms = [_FREE_TERM % (_int_list(a), _number(c.real), _number(c.imag))
                 for a, c in e.sorted_terms()]
    elif isinstance(e, LaurentElement):
        head = f'"kind": "laurent",{_I2}"n": {e.n}'
        terms = [_LAURENT_TERM % (_int_list(k), p, _number(c.real), _number(c.imag))
                 for (k, p), c in e.sorted_terms()]
    elif isinstance(e, HSeriesElement):
        head = f'"kind": "hseries",{_I2}"n": {e.n},{_I2}"order": {e.order}'
        terms = [_HSERIES_TERM % (p, _int_list(k), _number(c.real), _number(c.imag))
                 for (p, k), c in e.sorted_terms()]
    else:
        raise TypeError(f"cannot serialize {type(e).__name__}")
    body = "[" + _I4 + ("," + _I4).join(terms) + _I2 + "]" if terms else "[]"
    return "{" + _I2 + head + "," + _I2 + '"terms": ' + body + "\n}"


def parse_element(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"not valid JSON: {exc}") from None
    return document_to_element(doc)
