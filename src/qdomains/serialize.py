"""JSON interchange for algebra elements.

A document carries a kind tag, the dimension n, the kind's parameter (q
for qpoly, the truncation order for hseries; a free document may carry a
q for a consumer that needs one) and a list of term records spelling the
basis keys.  One _LAYOUTS row per kind states its element class, key
fields and parameter; KINDS, the accepted fields, the parser and the
writer all follow it.  Parsing is strict: unknown fields, wrong shapes,
out-of-range letters, duplicate keys and numbers that are not finite
doubles are rejected with a path diagnostic.  Each value is checked once,
a plain int or finite float by its type alone, and the checked keys go to
the element as a _Checked map, which its constructor does not check
again.  A parsed term is kept unless its coefficient is exactly zero, the
one rule every element constructor applies, so parse(serialize(e))
reproduces e bit for bit, subnormals too.

element_text writes the indent-2 form that the CLI prints, the bytes of
json.dumps(element_to_document(e), indent=2), straight from the layout:
with any indent, json.dumps runs its pure-Python encoder over every dict
and list.  It sorts the keys, not the terms, and formats each run of
same-shape terms (all of a qpoly, laurent or hseries element, the free
words of one length) through one % template.  element_to_document parses
that text, and serialize_element writes its compact form.
"""

from __future__ import annotations

import json
import math
from itertools import groupby
from operator import index, itemgetter
from typing import Any

from qdomains.deform_types import HSeriesElement
from qdomains.elements import FreeElement, LaurentElement, QPolynomial, _Checked

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
    if type(value) is int:
        return value
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(path, f"expected an integer, got {value!r}")
    return index(value)


def _require_number(value, path):
    number = value
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SchemaError(path, f"expected a number, got {value!r}")
        try:
            number = float(value)
        except OverflowError:
            raise SchemaError(path, "number outside the double range") from None
    if not math.isfinite(number):
        raise SchemaError(path, f"expected a finite number, got {value!r}")
    return number


_RE_IM = {"re", "im"}


def _parse_complex(value, path) -> complex:
    if not isinstance(value, dict):
        raise SchemaError(path, "expected an object with fields re, im")
    if not value.keys() <= _RE_IM:
        raise SchemaError(path, f"unknown fields {sorted(set(value) - _RE_IM)}")
    if "re" not in value:
        raise SchemaError(path, "missing field re")
    re, im = value["re"], value.get("im", 0.0)
    # a finite float passes as it is; anything else takes the full check
    if type(re) is not float or not math.isfinite(re):
        re = _require_number(re, path + ".re")
    if type(im) is not float or not math.isfinite(im):
        im = _require_number(im, path + ".im")
    return complex(re, im)


_INT = {int}


def _parse_index_vector(value, n, path):
    if not isinstance(value, list) or len(value) != n:
        raise SchemaError(path, f"expected a length-{n} integer list")
    key = tuple(value)
    if set(map(type, key)) == _INT and min(key) >= 0:
        return key
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
    key = tuple(value)
    if not key or (set(map(type, key)) == _INT and min(key) >= 1 and max(key) <= n):
        return key
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
    value = _require_int(value, path)
    if value < 0:
        raise SchemaError(path, "h-powers must be nonnegative")
    return value


# element_text layouts: the indent-2 nesting of a document is fixed, with
# term fields at depth 3 and their list items and c parts at depth 4
_I2, _I4, _I6, _I8 = "\n  ", "\n    ", "\n      ", "\n        "
_C = '"c": {' + _I8 + '"re": %s,' + _I8 + '"im": %s' + _I6 + "}" + _I4 + "}"
_TERM_SEP = "," + _I4
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _number(x: float) -> str:
    """A float as json spells it; only the reprs of nan and +-inf end in n or f."""
    text = float.__repr__(x)
    return _NON_FINITE[text] if text[-1] in "nf" else text


def _list_template(length: int) -> str:
    """The % template of an int-list term field of the given length; [] when empty."""
    if not length:
        return "[]"
    return "[" + _I8 + ("," + _I8).join(["%s"] * length) + _I6 + "]"


_K = ("k", _parse_index_vector, sum)


class _Layout:
    """One document kind: its element class, the fields of a term key in
    key order, the element parameter the document carries (q or order),
    and any optional top-level fields.

    Each field is (name, parse, measure): parse(value, n, path) reads it
    from a term record.  measure is None for an int field; each kind has
    one int-list field (k or alpha), whose measure (sum or len) orders the
    keys as the element's sorted_terms does: by the measure, then by the
    key, with an int field ahead of the list (the h-power of hseries)
    ordering first.  A key of one field is that field's value, a key of
    two the pair.
    """

    def __init__(self, kind: str, cls: type, fields: tuple, param: str | None = None,
                 optional: tuple = ()):
        self.kind, self.cls, self.param, self.fields = kind, cls, param, fields
        self.top_fields = {"kind", "n", "terms", param, *optional} - {None}
        self.term_fields = {*(name for name, _, _ in fields), "c"}
        (self.list_at, self.measure), = [(i, measure) for i, (_, _, measure)
                                         in enumerate(fields) if measure]
        (n0, s0, p0), *rest = [(name, "." + name, parse) for name, parse, _ in fields]
        if not rest:
            def read_key(record, n, path):
                return p0(record[n0], n, path + s0)
        else:
            (n1, s1, p1), = rest

            def read_key(record, n, path):
                return p0(record[n0], n, path + s0), p1(record[n1], n, path + s1)
        self.read_key = read_key

    def sorted_keys(self, keys) -> list:
        """keys in sorted_terms order: a plain sort, then stable passes."""
        keys = sorted(keys)
        if len(self.fields) == 1:
            keys.sort(key=self.measure)
            return keys
        values = list(map(self.measure, map(itemgetter(self.list_at), keys)))
        keys = list(map(keys.__getitem__, sorted(range(len(keys)), key=values.__getitem__)))
        if self.list_at:
            keys.sort(key=itemgetter(0))
        return keys

    def run_text(self, keys: list, terms) -> list:
        """The texts of the terms of keys, which share one shape, formatted
        with one % template: a float goes in as %s (str and repr agree)
        unless some coefficient is not finite, when every part goes through
        _number."""
        coeffs = list(map(terms.__getitem__, keys))
        re, im = [c.real for c in coeffs], [c.imag for c in coeffs]
        # a nan or inf part makes the sum one too; a finite overflow only
        # takes the slower route
        if not math.isfinite(sum(re) + sum(im)):
            re, im = map(_number, re), map(_number, im)
        parts = [keys] if len(self.fields) == 1 else list(zip(*keys))
        columns, fields = [], []
        for (name, _, measure), part in zip(self.fields, parts):
            if measure is None:
                columns.append(part)
                fields.append(f'"{name}": %s,')
            else:
                columns.extend(zip(*part))
                fields.append(f'"{name}": {_list_template(len(part[0]))},')
        template = "{" + "".join(_I6 + field for field in fields) + _I6 + _C
        return list(map(template.__mod__, zip(*columns, re, im)))


_LAYOUTS = (
    _Layout("qpoly", QPolynomial, (_K,), "q"),
    _Layout("free", FreeElement, (("alpha", _parse_word, len),), optional=("q",)),
    _Layout("laurent", LaurentElement, (_K, ("p", _parse_z_power, None))),
    _Layout("hseries", HSeriesElement, (("p", _parse_h_power, None), _K), "order"),
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
    terms = _Checked()
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
    # qpoly, laurent and hseries keys share one shape; free words share one
    # per length, and the (len, word) order keeps each length in one run
    terms = e.terms
    texts = []
    for _, run in groupby(layout.sorted_keys(terms), len):
        texts += layout.run_text(list(run), terms)
    body = "[" + _I4 + _TERM_SEP.join(texts) + _I2 + "]" if texts else "[]"
    return "{" + _I2 + head + "," + _I2 + '"terms": ' + body + "\n}"


def parse_element(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"not valid JSON: {exc}") from None
    return document_to_element(doc)
