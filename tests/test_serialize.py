import json
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
