"""JSON interchange for algebra elements.

A document carries a kind tag, the dimension n, the kind's parameter (q
for qpoly, the truncation order for hseries; a free document may carry a
q for a consumer that needs one) and a list of term records spelling the
basis keys.  One _LAYOUTS row per kind states its element class, key
fields and parameter; KINDS, the accepted fields, the parser and the
writer all follow it.  Parsing is strict: unknown fields, wrong shapes,
out-of-range letters, duplicate keys and numbers that are not finite
doubles are rejected with a path diagnostic.  A parsed term is kept unless
its coefficient is exactly zero, the one rule every element constructor
applies, so parse(serialize(e)) reproduces e bit for bit, subnormals too.

element_text writes the indent-2 form that the CLI prints, the bytes of
json.dumps(element_to_document(e), indent=2), straight from the layout:
with any indent, json.dumps runs its pure-Python encoder over every dict
and list.  element_to_document parses that text, and serialize_element
writes its compact form.
"""

from __future__ import annotations

import json
import math
from itertools import starmap
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


def _parse_z_power(value, n, path):
    return _require_int(value, path)


def _parse_h_power(value, n, path):
    if _require_int(value, path) < 0:
        raise SchemaError(path, "h-powers must be nonnegative")
    return value


# element_text layouts: the indent-2 nesting of a document is fixed, with
# term fields at depth 3 and their list items and c parts at depth 4
_I2, _I4, _I6, _I8 = "\n  ", "\n    ", "\n      ", "\n        "
_C = '"c": {' + _I8 + '"re": %s,' + _I8 + '"im": %s' + _I6 + "}" + _I4 + "}"
_SEP8 = "," + _I8
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _number(x: float) -> str:
    """A float as json spells it; only the reprs of nan and +-inf end in n or f."""
    text = float.__repr__(x)
    return _NON_FINITE[text] if text[-1] in "nf" else text


def _int_list(values) -> str:
    """An exponent vector or word as a term field; [] when empty."""
    if not values:
        return "[]"
    return "[" + _I8 + _SEP8.join(map(str, values)) + _I6 + "]"


_K = ("k", _parse_index_vector, _int_list)


class _Layout:
    """One document kind: its element class, the fields of a term key in
    key order, the element parameter the document carries (q or order),
    and any optional top-level fields.

    Each field is (name, parse, text): parse(value, n, path) reads it from
    a term record and text(part) spells it for element_text.  A key of one
    field is that field's value, a key of two the pair; read_key and
    write_term are bound to that shape here rather than decided per term.
    """

    def __init__(self, kind: str, cls: type, fields: tuple, param: str | None = None,
                 optional: tuple = ()):
        self.kind, self.cls, self.param = kind, cls, param
        self.top_fields = {"kind", "n", "terms", param, *optional} - {None}
        self.term_fields = {*(name for name, _, _ in fields), "c"}
        template = "{" + "".join(f'{_I6}"{name}": %s,' for name, _, _ in fields) + _I6 + _C
        (n0, s0, p0, w0), *rest = [(name, "." + name, parse, text)
                                   for name, parse, text in fields]
        if not rest:
            def read_key(record, n, path):
                return p0(record[n0], n, path + s0)

            def write_term(key, c):
                return template % (w0(key), _number(c.real), _number(c.imag))
        else:
            (n1, s1, p1, w1), = rest

            def read_key(record, n, path):
                return p0(record[n0], n, path + s0), p1(record[n1], n, path + s1)

            def write_term(key, c):
                return template % (w0(key[0]), w1(key[1]), _number(c.real), _number(c.imag))
        self.read_key, self.write_term = read_key, write_term


_LAYOUTS = (
    _Layout("qpoly", QPolynomial, (_K,), "q"),
    _Layout("free", FreeElement, (("alpha", _parse_word, _int_list),), optional=("q",)),
    _Layout("laurent", LaurentElement, (_K, ("p", _parse_z_power, str))),
    _Layout("hseries", HSeriesElement, (("p", _parse_h_power, str), _K), "order"),
)
KINDS = tuple(layout.kind for layout in _LAYOUTS)
_BY_KIND = {layout.kind: layout for layout in _LAYOUTS}
_BY_TYPE = {layout.cls: layout for layout in _LAYOUTS}


def element_to_document(e) -> dict:
    """The document of e: the parse of its element_text."""
    return json.loads(element_text(e))


def document_to_element(doc: Any):
    if not isinstance(doc, dict):
        raise SchemaError("$", "document must be an object")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise SchemaError("$.kind", f"expected one of {KINDS}, got {kind!r}")
    layout = _BY_KIND[kind]
    extra = set(doc) - layout.top_fields
    if extra:
        raise SchemaError("$", f"unknown fields {sorted(extra)} for kind {kind!r}")
    n = _require_int(doc.get("n"), "$.n")
    if n < 1:
        raise SchemaError("$.n", "dimension must be at least 1")
    raw_terms = doc.get("terms")
    if not isinstance(raw_terms, list):
        raise SchemaError("$.terms", "expected a list of term records")
    if layout.param == "q" and "q" not in doc:
        raise SchemaError("$.q", f"{kind} documents must carry q")
    q = _parse_complex(doc["q"], "$.q") if "q" in doc else None

    fields, read_key = layout.term_fields, layout.read_key
    terms = {}
    for i, record in enumerate(raw_terms):
        path = f"$.terms[{i}]"
        if not isinstance(record, dict):
            raise SchemaError(path, "expected an object")
        if record.keys() != fields:
            extra = set(record) - fields
            if extra:
                raise SchemaError(path, f"unknown fields {sorted(extra)}")
            raise SchemaError(path, f"missing fields {sorted(fields - set(record))}")
        key = read_key(record, n, path)
        if key in terms:
            raise SchemaError(path, "duplicate term key")
        terms[key] = _parse_complex(record["c"], f"{path}.c")

    if layout.param == "q":
        return layout.cls(n, q, terms)
    if layout.param is None:
        return layout.cls(n, terms)
    top = max((p for p, _ in terms), default=0)
    order = _require_int(doc.get("order", top), "$.order")
    if order < 0:
        raise SchemaError("$.order", "order must be nonnegative")
    if order < top:
        raise SchemaError("$.order", "order is smaller than the largest h-power")
    return layout.cls(n, order, terms)


def document_q(doc: Any) -> complex | None:
    """The optional q field of a parsed document, when present."""
    if isinstance(doc, dict) and "q" in doc:
        return _parse_complex(doc["q"], "$.q")
    return None


def serialize_element(e) -> str:
    return json.dumps(element_to_document(e), indent=None, separators=(",", ":"))


def element_text(e) -> str:
    """json.dumps(element_to_document(e), indent=2), byte for byte."""
    layout = _BY_TYPE.get(type(e))
    if layout is None:
        raise TypeError(f"cannot serialize {type(e).__name__}")
    head = f'"kind": "{layout.kind}",{_I2}"n": {e.n}'
    if layout.param == "q":
        q = e.q.value
        head += (f',{_I2}"q": {{{_I4}"re": {_number(q.real)},'
                 f'{_I4}"im": {_number(q.imag)}{_I2}}}')
    elif layout.param == "order":
        head += f',{_I2}"order": {e.order}'
    terms = list(starmap(layout.write_term, e.sorted_terms()))
    body = "[" + _I4 + ("," + _I4).join(terms) + _I2 + "]" if terms else "[]"
    return "{" + _I2 + head + "," + _I2 + '"terms": ' + body + "\n}"


def parse_element(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"not valid JSON: {exc}") from None
    return document_to_element(doc)
