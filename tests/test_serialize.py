import json
import math
from itertools import product
from random import Random

import pytest

from oracles import reference_document, reference_element_text

from qdomains import randgen
from qdomains.deform_types import HSeriesElement
from qdomains.elements import FreeElement, LaurentElement, QPolynomial, qpoly_mul
from qdomains.serialize import (
    SchemaError,
    document_q,
    document_to_element,
    element_text,
    element_to_document,
    parse_element,
    serialize_element,
)


def test_example_document():
    text = ('{"kind":"qpoly","n":2,"q":{"re":0.5,"im":0},'
            '"terms":[{"k":[1,1],"c":{"re":1,"im":0}}]}')
    element = parse_element(text)
    assert isinstance(element, QPolynomial)
    assert element.q.value == 0.5
    assert dict(element.terms) == {(1, 1): 1.0 + 0.0j}


def test_empty_terms_is_zero():
    element = parse_element('{"kind":"free","n":3,"terms":[]}')
    assert isinstance(element, FreeElement)
    assert dict(element.terms) == {}


def test_round_trip_every_kind():
    rng = Random("roundtrip")
    for _ in range(500):
        kind = rng.randrange(4)
        n = 1 + rng.randrange(3)
        if kind == 0:
            q = complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) or 1.0
            element = randgen.random_qpoly(rng, n, q, max_degree=4, terms=5)
        elif kind == 1:
            element = randgen.random_free(rng, n, max_len=4, terms=5)
        elif kind == 2:
            element = randgen.random_laurent(rng, n, terms=5)
        else:
            element = randgen.random_hseries(rng, n, 3, terms=5)
        assert parse_element(serialize_element(element)) == element


def test_unknown_fields_rejected_with_path():
    doc = {"kind": "qpoly", "n": 1, "q": {"re": 1.0}, "extra": 1, "terms": []}
    with pytest.raises(SchemaError, match=r"\$"):
        document_to_element(doc)
    doc = {"kind": "qpoly", "n": 1, "q": {"re": 1.0},
           "terms": [{"k": [0], "c": {"re": 1.0}, "weird": 2}]}
    with pytest.raises(SchemaError, match=r"terms\[0\]"):
        document_to_element(doc)


def test_shape_violations_have_paths():
    with pytest.raises(SchemaError, match=r"\$\.kind"):
        document_to_element({"kind": "poly", "n": 1, "terms": []})
    with pytest.raises(SchemaError, match=r"terms\[0\]\.k"):
        document_to_element({"kind": "qpoly", "n": 2, "q": {"re": 1.0},
                             "terms": [{"k": [1], "c": {"re": 1.0}}]})
    with pytest.raises(SchemaError, match=r"terms\[1\]\.alpha\[0\]"):
        document_to_element({"kind": "free", "n": 2,
                             "terms": [{"alpha": [1], "c": {"re": 1.0}},
                                       {"alpha": [5], "c": {"re": 1.0}}]})


@pytest.mark.parametrize("head, key, other", [
    ({"kind": "qpoly", "q": {"re": 1.0}}, {"k": [1, 0]}, {"k": [0, 1]}),
    ({"kind": "free"}, {"alpha": [2, 1]}, {"alpha": [1, 2]}),
    ({"kind": "laurent"}, {"k": [1, 0], "p": -1}, {"k": [1, 0], "p": 1}),
    ({"kind": "hseries", "order": 2}, {"p": 1, "k": [1, 0]}, {"p": 0, "k": [1, 0]}),
], ids=["qpoly", "free", "laurent", "hseries"])
def test_duplicate_term_keys_rejected_with_path(head, key, other):
    # other shares a key field with key, so only the repeat at [2] is a duplicate
    terms = [{**key, "c": {"re": 1.0}}, {**other, "c": {"re": 3.0}},
             {**key, "c": {"re": 2.0}}]
    with pytest.raises(SchemaError, match=r"^\$\.terms\[2\]: duplicate term key$"):
        document_to_element({**head, "n": 2, "terms": terms})


def test_q_field_rules():
    with pytest.raises(SchemaError, match=r"\$\.q"):
        document_to_element({"kind": "qpoly", "n": 1, "terms": []})
    # free documents may carry q; laurent documents may not
    free_doc = {"kind": "free", "n": 2, "q": {"re": 0.5},
                "terms": [{"alpha": [2, 1], "c": {"re": 1.0}}]}
    element = document_to_element(free_doc)
    assert isinstance(element, FreeElement)
    assert document_q(free_doc) == 0.5
    with pytest.raises(SchemaError):
        document_to_element({"kind": "laurent", "n": 1, "q": {"re": 1.0}, "terms": []})


def test_booleans_are_not_integers():
    with pytest.raises(SchemaError):
        document_to_element({"kind": "qpoly", "n": True, "q": {"re": 1.0}, "terms": []})


def test_hseries_order_handling():
    doc = {"kind": "hseries", "n": 1, "terms": [{"p": 2, "k": [0], "c": {"re": 1.0}}]}
    element = document_to_element(doc)
    assert isinstance(element, HSeriesElement)
    assert element.order == 2
    doc["order"] = 5
    assert document_to_element(doc).order == 5
    doc["order"] = 1
    with pytest.raises(SchemaError, match=r"\$\.order"):
        document_to_element(doc)


def test_not_json_is_schema_error():
    with pytest.raises(SchemaError):
        parse_element("{nope")


def test_serialized_form_is_compact_json():
    element = LaurentElement.monomial(2, (1, 0), -2, 0.25 + 0.5j)
    payload = json.loads(serialize_element(element))
    assert payload["kind"] == "laurent"
    assert payload["terms"] == [{"k": [1, 0], "p": -2, "c": {"re": 0.25, "im": 0.5}}]


def assert_document_matches(element):
    # repr compares nan fields, -0.0, int against float and list against tuple
    assert repr(element_to_document(element)) == repr(reference_document(element))


def test_element_text_equals_json_encoder_on_random_elements():
    rng = Random("element-text")
    for terms in (1, 2, 7, 60, 500):
        for n in (1, 2, 3):
            q = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            elements = (
                randgen.random_qpoly(rng, n, q, max_degree=12, terms=terms),
                randgen.random_free(rng, n, max_len=6, terms=terms),
                randgen.random_laurent(rng, n, max_degree=8, max_power=6, terms=terms),
                randgen.random_hseries(rng, n, 4, max_degree=8, terms=terms),
            )
            for element in elements:
                assert element.terms
                assert element_text(element) == reference_element_text(element)
                assert_document_matches(element)


def test_element_text_edge_cases():
    huge = QPolynomial(2, 0.5, {(1, 0): 1e300})
    overflow = (qpoly_mul(huge, QPolynomial(2, 0.5, {(0, 1): -1e300}))  # -inf + nan i
                + huge * 1e300)                                          # inf + inf i
    odd = {(): complex(1.0, -0.0), (1,): complex(-0.0, 2.0), (1, 1): 5e-324,
           (1, 1, 1): 1e300, (1, 1, 1, 1): -1e-300}
    cases = [
        QPolynomial.zero(3, complex(0.5, -0.25)),
        FreeElement(1, {}),
        LaurentElement(2, {}),
        HSeriesElement(1, 0, {}),
        HSeriesElement(2, 5, {}),
        HSeriesElement(1, 3, {(3, (2,)): -0.5j}),
        FreeElement(1, {(): 1.0}),
        FreeElement(1, odd),
        QPolynomial(1, -2.0, {(0,): complex(-0.0, 1.0), (4,): 5e-324}),
        LaurentElement(1, {((0,), -3): 1e300, ((2,), 0): complex(1.0, -0.0)}),
        overflow,
    ]
    for element in cases:
        assert element_text(element) == reference_element_text(element)
        assert_document_matches(element)
    assert element_text(FreeElement(1, {})).endswith('"terms": []\n}')
    assert '"alpha": [],' in element_text(FreeElement(1, {(): 1.0}))
    text = element_text(overflow)
    assert all(word in text for word in ("NaN", "-Infinity", " Infinity"))
    with pytest.raises(TypeError):
        element_text({"kind": "free"})


@pytest.mark.parametrize("literal, message", [
    ("NaN", "expected a finite number"),
    ("1e400", "expected a finite number"),  # json reads it as inf
    ("1" + "0" * 400, "number outside the double range"),
], ids=["nan", "1e400", "401-digit-int"])
def test_non_finite_or_out_of_range_numbers_rejected(literal, message):
    # NaN once vanished at parse, inf emptied a product, and a 401-digit
    # integer raised OverflowError from float()
    term = '{"kind": "free", "n": 1, "terms": [{"alpha": [1], "c": {"re": %s}}]}'
    with pytest.raises(SchemaError, match=r"^\$\.terms\[0\]\.c\.re: " + message):
        parse_element(term % literal)
    head = '{"kind": "qpoly", "n": 1, "q": {"re": 0.5, "im": %s}, "terms": []}'
    with pytest.raises(SchemaError, match=r"^\$\.q\.im: " + message):
        parse_element(head % literal)


def _record_key(kind, record):
    if kind == "qpoly":
        return tuple(record["k"])
    if kind == "free":
        return tuple(record["alpha"])
    if kind == "laurent":
        return tuple(record["k"]), record["p"]
    return record["p"], tuple(record["k"])


def _exponents(n, top):
    return [k for k in product(range(top + 1), repeat=n) if sum(k) <= top]


def _large_elements():
    """Elements of 2,000 or more terms of every kind; nan and inf parts sit in
    the middle of a run of same-shape terms, and -0.0 and 5e-324 parts
    among the rest."""
    rng = Random("large-element-text")

    def terms_of(keys, middle):
        terms = {key: complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for key in keys}
        for key, c in zip(rng.sample(keys, 4), (complex(-0.0, 5e-324), complex(5e-324, -0.0),
                                                complex(-5e-324, 1e300), -0.0 + 0.5j)):
            terms[key] = c
        terms[middle[len(middle) // 2]] = complex(math.nan, 1.0)
        terms[middle[len(middle) // 2 + 1]] = complex(-0.25, -math.inf)
        terms[middle[len(middle) // 3]] = complex(math.inf, math.nan)
        return terms

    words = [()]
    for length in range(1, 13):
        pool = {tuple(rng.randint(1, 3) for _ in range(length)) for _ in range(400)}
        words += sorted(pool)[:300] if length > 5 else list(product((1, 2, 3), repeat=length))
    runs = {length: [w for w in words if len(w) == length] for length in range(13)}
    free = FreeElement(3, terms_of(words, runs[7]))
    exponents = _exponents(3, 24)
    qpoly = QPolynomial(3, complex(0.7, -0.4), terms_of(exponents, sorted(exponents)))
    laurent_keys = [(k, p) for k in _exponents(2, 20) for p in range(-5, 6)]
    laurent = LaurentElement(2, terms_of(laurent_keys, sorted(laurent_keys)))
    h_keys = [(p, k) for p in range(5) for k in _exponents(3, 12)]
    hseries = HSeriesElement(3, 4, terms_of(h_keys, sorted(h_keys)))
    return {"free": free, "qpoly": qpoly, "laurent": laurent, "hseries": hseries}


def test_element_text_on_large_elements_of_every_kind():
    # the writer sorts keys and formats runs of same-shape terms; every free
    # word length 0..12 shares one element, and nan and inf land mid-run
    for kind, element in _large_elements().items():
        assert len(element.terms) >= 2000, kind
        if kind == "free":
            assert {len(word) for word in element.terms} == set(range(13))
        text = element_text(element)
        assert text == reference_element_text(element), kind
        assert_document_matches(element)
        assert all(word in text for word in ("NaN", "-Infinity", " Infinity", "-0.0", "5e-324"))
        keys = [_record_key(kind, record) for record in json.loads(text)["terms"]]
        assert keys == [key for key, _ in element.sorted_terms()], kind


# every diagnostic of the reader, with its exact path and message
_Q = {"kind": "qpoly", "n": 2, "q": {"re": 0.5}}


def _qpoly(*terms):
    return {**_Q, "terms": list(terms)}


def _term(k, c=None, **extra):
    return {"k": k, "c": {"re": 1.0} if c is None else c, **extra}


@pytest.mark.parametrize("doc, message", [
    ([], "$: document must be an object"),
    ({"kind": "poly", "n": 1, "terms": []},
     "$.kind: expected one of ('qpoly', 'free', 'laurent', 'hseries'), got 'poly'"),
    ({**_Q, "extra": 1, "terms": []}, "$: unknown fields ['extra'] for kind 'qpoly'"),
    ({**_Q, "n": True, "terms": []}, "$.n: expected an integer, got True"),
    ({**_Q, "n": 0, "terms": []}, "$.n: dimension must be at least 1"),
    ({**_Q, "n": 2.0, "terms": []}, "$.n: expected an integer, got 2.0"),
    ({**_Q, "terms": {}}, "$.terms: expected a list of term records"),
    ({"kind": "qpoly", "n": 1, "terms": []}, "$.q: qpoly documents must carry q"),
    ({**_Q, "q": [0.5], "terms": []}, "$.q: expected an object with fields re, im"),
    ({**_Q, "q": {"re": 0.5, "x": 1}, "terms": []}, "$.q: unknown fields ['x']"),
    ({**_Q, "q": {"im": 0.5}, "terms": []}, "$.q: missing field re"),
    ({**_Q, "q": {"re": "1"}, "terms": []}, "$.q.re: expected a number, got '1'"),
    ({**_Q, "q": {"re": 1.0, "im": math.nan}, "terms": []},
     "$.q.im: expected a finite number, got nan"),
    ({**_Q, "q": {"re": True}, "terms": []}, "$.q.re: expected a number, got True"),
    (_qpoly([1, 1]), "$.terms[0]: expected an object"),
    (_qpoly(_term([1, 1], weird=2)), "$.terms[0]: unknown fields ['weird']"),
    (_qpoly({"k": [1, 1]}), "$.terms[0]: missing fields ['c']"),
    (_qpoly(_term([1, 1]), {"c": {"re": 1.0}}), "$.terms[1]: missing fields ['k']"),
    (_qpoly(_term([1])), "$.terms[0].k: expected a length-2 integer list"),
    (_qpoly(_term((1, 1))), "$.terms[0].k: expected a length-2 integer list"),
    (_qpoly(_term([1, 1.0])), "$.terms[0].k[1]: expected an integer, got 1.0"),
    (_qpoly(_term([1, True])), "$.terms[0].k[1]: expected an integer, got True"),
    (_qpoly(_term([-1, 0])), "$.terms[0].k[0]: exponents must be nonnegative"),
    (_qpoly(_term([1, -1]), _term([0, "x"])), "$.terms[0].k[1]: exponents must be nonnegative"),
    (_qpoly(_term([1, 0]), _term([2, 0], [1.0])),
     "$.terms[1].c: expected an object with fields re, im"),
    (_qpoly(_term([1, 0], {"re": 1.0, "j": 2})), "$.terms[0].c: unknown fields ['j']"),
    (_qpoly(_term([1, 0], {"im": 1.0})), "$.terms[0].c: missing field re"),
    (_qpoly(_term([1, 0], {"re": math.inf})), "$.terms[0].c.re: expected a finite number, got inf"),
    (_qpoly(_term([1, 0], {"re": 1.0, "im": -math.inf})),
     "$.terms[0].c.im: expected a finite number, got -inf"),
    (_qpoly(_term([1, 0], {"re": 10 ** 400})), "$.terms[0].c.re: number outside the double range"),
    (_qpoly(_term([1, 0], {"re": 1, "im": 10 ** 400})),
     "$.terms[0].c.im: number outside the double range"),
    (_qpoly(_term([1, 0], {"re": None})), "$.terms[0].c.re: expected a number, got None"),
    (_qpoly(_term([1, 0], {"re": False})), "$.terms[0].c.re: expected a number, got False"),
    (_qpoly(_term([1, 0]), _term([0, 1]), _term([1, 0], {"re": 2.0})),
     "$.terms[2]: duplicate term key"),
    ({"kind": "free", "n": 2, "terms": [{"alpha": [1], "c": {"re": 1.0}},
                                        {"alpha": [5], "c": {"re": 1.0}}]},
     "$.terms[1].alpha[0]: letters must lie in 1..2"),
    ({"kind": "free", "n": 2, "terms": [{"alpha": [0, 1], "c": {"re": 1.0}}]},
     "$.terms[0].alpha[0]: letters must lie in 1..2"),
    ({"kind": "free", "n": 2, "terms": [{"alpha": [1, "2"], "c": {"re": 1.0}}]},
     "$.terms[0].alpha[1]: expected an integer, got '2'"),
    ({"kind": "free", "n": 2, "terms": [{"alpha": 1, "c": {"re": 1.0}}]},
     "$.terms[0].alpha: expected an integer list"),
    ({"kind": "free", "n": 2, "terms": [{"alpha": [2, 1.5], "c": {"re": 1.0}}]},
     "$.terms[0].alpha[1]: expected an integer, got 1.5"),
    ({"kind": "free", "n": 2, "terms": [{"alpha": [], "c": {"re": 1.0}},
                                        {"alpha": [], "c": {"re": 1.0}}]},
     "$.terms[1]: duplicate term key"),
    ({"kind": "laurent", "n": 1, "q": {"re": 1.0}, "terms": []},
     "$: unknown fields ['q'] for kind 'laurent'"),
    ({"kind": "laurent", "n": 1, "terms": [{"k": [1], "p": 0.5, "c": {"re": 1.0}}]},
     "$.terms[0].p: expected an integer, got 0.5"),
    ({"kind": "laurent", "n": 1, "terms": [{"k": [1], "p": False, "c": {"re": 1.0}}]},
     "$.terms[0].p: expected an integer, got False"),
    ({"kind": "laurent", "n": 1, "terms": [{"k": [-1], "p": 1, "c": {"re": 1.0}}]},
     "$.terms[0].k[0]: exponents must be nonnegative"),
    ({"kind": "hseries", "n": 1, "terms": [{"p": -1, "k": [0], "c": {"re": 1.0}}]},
     "$.terms[0].p: h-powers must be nonnegative"),
    ({"kind": "hseries", "n": 1, "terms": [{"p": "1", "k": [0], "c": {"re": 1.0}}]},
     "$.terms[0].p: expected an integer, got '1'"),
    ({"kind": "hseries", "n": 1, "order": -1, "terms": []}, "$.order: order must be nonnegative"),
    ({"kind": "hseries", "n": 1, "order": 1.5, "terms": []},
     "$.order: expected an integer, got 1.5"),
    ({"kind": "hseries", "n": 1, "order": 1, "terms": [{"p": 2, "k": [0], "c": {"re": 1.0}}]},
     "$.order: order is smaller than the largest h-power"),
    ({"kind": "hseries", "n": 1, "terms": [{"p": 0, "k": [2, 0], "c": {"re": 1.0}}]},
     "$.terms[0].k: expected a length-1 integer list"),
])
def test_every_diagnostic_keeps_its_path_and_message(doc, message):
    with pytest.raises(SchemaError) as info:
        document_to_element(doc)
    assert str(info.value) == message
    assert info.value.path == message.split(": ", 1)[0]


def _constructed(doc):
    """The element of a valid document, through the public constructor."""
    def number(c):
        return complex(c["re"], c.get("im", 0.0))

    n, records = doc["n"], doc["terms"]
    if doc["kind"] == "qpoly":
        return QPolynomial(n, number(doc["q"]), {tuple(t["k"]): number(t["c"]) for t in records})
    if doc["kind"] == "free":
        return FreeElement(n, {tuple(t["alpha"]): number(t["c"]) for t in records})
    if doc["kind"] == "laurent":
        return LaurentElement(n, {(tuple(t["k"]), t["p"]): number(t["c"]) for t in records})
    return HSeriesElement(n, doc["order"], {(t["p"], tuple(t["k"])): number(t["c"])
                                            for t in records})


def test_parsed_elements_equal_public_construction():
    # the reader hands its checked keys over unchecked; the result must be
    # the element the public constructor builds, key order and int types too
    rng = Random("parse-vs-construct")
    for n in (1, 2, 3):
        q = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        for element in (randgen.random_qpoly(rng, n, q, max_degree=8, terms=40),
                        randgen.random_free(rng, n, max_len=5, terms=40),
                        randgen.random_laurent(rng, n, max_degree=6, max_power=4, terms=40),
                        randgen.random_hseries(rng, n, 3, max_degree=6, terms=40)):
            doc = reference_document(element)
            records = doc["terms"]
            rng.shuffle(records)
            # int-valued parts, a missing im and an exact zero take the full check
            records[0]["c"] = {"re": 2, "im": -1}
            records[1]["c"] = {"re": -0.5}
            records[2]["c"] = {"re": 0, "im": -0.0}
            parsed = document_to_element(doc)
            built = _constructed(doc)
            assert parsed == built
            assert list(parsed.terms) == list(built.terms)
            assert len(parsed.terms) == len(records) - 1
            for key in parsed.terms:
                parts = key if isinstance(element, (QPolynomial, FreeElement)) else (
                    (*key[0], key[1]) if isinstance(element, LaurentElement) else (key[0], *key[1]))
                assert {type(part) for part in parts} <= {int}
