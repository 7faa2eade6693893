import cmath
import math
import re
from fractions import Fraction
from collections import Counter
from itertools import count
from operator import add
from random import Random
from types import MappingProxyType

import numpy as np
import pytest

from qdomains import _mutate, deform, elements, randgen
from qdomains import qcombinat as qc
from qdomains.deform_types import FormalFreeElement, HSeriesElement
from qdomains.elements import (
    FreeElement,
    LaurentElement,
    QPolynomial,
    _Checked,
    ball_lift,
    fiber_eval,
    free_mul,
    homogeneous_component,
    laurent_mul,
    laurent_word,
    normal_order,
    polydisk_lift,
    qpoly_mul,
    tau_flip,
)
from qdomains.norms import FREE_BALL_CIRC, FREE_TAYLOR, NormSpec, norm
from qdomains.serialize import document_to_element, element_text, element_to_document

from oracles import (array_route_outcomes, brute_sigma, empty_fiber_store, exact_ball_lift,
                     on_each_route,
                     reference_ball_lift, reference_circ_norm, reference_laurent_mul,
                     reference_normal_order, reference_polydisk_lift, reference_qpoly_mul,
                     reference_random_terms, reference_unit_disk, rewrite_normal_order,
                     same_bits)


def x_mono(n, q, k, c=1.0):
    return QPolynomial.monomial(n, q, k, c)


def test_qpoly_mul_monomial_rule():
    q = 0.5
    x1, x2 = QPolynomial.coordinates(2, q)
    prod = qpoly_mul(x2, x1)
    assert dict(prod.terms) == {(1, 1): pytest.approx(1 / q)}


def test_qpoly_mul_unit_and_square():
    q = 0.5
    one = QPolynomial.one(2, q)
    x1, x2 = QPolynomial.coordinates(2, q)
    a = x1 + 2.0 * x2
    assert qpoly_mul(one, a).allclose(a)
    s = x1 + x2
    sq = qpoly_mul(s, s)
    assert dict(sq.terms) == {(2, 0): pytest.approx(1.0), (1, 1): pytest.approx(3.0),
                              (0, 2): pytest.approx(1.0)}


def test_qpoly_mul_associativity_random():
    rng = Random("assoc")
    for _ in range(500):
        q = (0.5, 2.0, cmath.exp(0.9j))[rng.randrange(3)]
        a = randgen.random_qpoly(rng, 2, q, max_degree=5, terms=4)
        b = randgen.random_qpoly(rng, 2, q, max_degree=5, terms=4)
        c = randgen.random_qpoly(rng, 2, q, max_degree=5, terms=4)
        left = qpoly_mul(qpoly_mul(a, b), c)
        right = qpoly_mul(a, qpoly_mul(b, c))
        keys = set(left.terms) | set(right.terms)
        scale = max((abs(v) for v in left.terms.values()), default=1.0)
        for key in keys:
            assert abs(left.terms.get(key, 0.0) - right.terms.get(key, 0.0)) <= 1e-9 * max(scale, 1.0)


def test_qpoly_mul_degree_cap_and_mismatch():
    q = 0.5
    x1, x2 = QPolynomial.coordinates(2, q)
    capped = qpoly_mul(qpoly_mul(x1, x1), x2, degree_cap=2)
    assert dict(capped.terms) == {}
    with pytest.raises(ValueError):
        qpoly_mul(x1, QPolynomial.monomial(2, 0.7, (1, 0)))
    with pytest.raises(ValueError):
        qpoly_mul(x1, QPolynomial.monomial(3, q, (1, 0, 0)))


def test_free_mul_examples():
    z1, z2 = FreeElement.generators(2)
    assert dict(free_mul(z1, z2).terms) == {(1, 2): pytest.approx(1.0)}
    a = z1 + z2
    assert free_mul(FreeElement.one(2), a).allclose(a)
    prod = free_mul(a, z2)
    assert dict(prod.terms) == {(1, 2): pytest.approx(1.0), (2, 2): pytest.approx(1.0)}


def test_normal_order_examples():
    q = 0.5
    no = normal_order(FreeElement.word(2, (2, 1)), q)
    assert dict(no.terms) == {(1, 1): pytest.approx(1 / q)}
    assert dict(normal_order(FreeElement.word(2, (1, 1, 2)), q).terms) == {
        (2, 1): pytest.approx(1.0)}
    assert dict(normal_order(FreeElement.word(2, (2, 1, 2, 1)), q).terms) == {
        (2, 2): pytest.approx(8.0)}


def test_normal_order_matches_rewriting_oracle():
    for q in (0.5, 2.0, cmath.exp(1j * math.pi / 3)):
        for alpha in qc.words(3, 5):
            image = normal_order(FreeElement.word(3, alpha), q)
            coeff, sorted_word = rewrite_normal_order(alpha, q)
            key = qc.word_profile(sorted_word, 3)
            assert set(image.terms) == ({key} if abs(coeff) > 1e-12 else set())
            assert image.terms[key] == pytest.approx(coeff, rel=1e-10)


def test_normal_order_multiplicative():
    rng = Random("no-mult")
    for _ in range(300):
        q = (0.5, 2.0, cmath.exp(0.4j))[rng.randrange(3)]
        f = randgen.random_free(rng, 2, max_len=3, terms=4)
        g = randgen.random_free(rng, 2, max_len=3, terms=4)
        lhs = normal_order(free_mul(f, g), q)
        rhs = qpoly_mul(normal_order(f, q), normal_order(g, q))
        assert lhs.allclose(rhs, tol=1e-9)


def test_tau_flip_examples():
    q = 0.5
    n = 3
    flipped = tau_flip(QPolynomial.monomial(n, q, (1, 0, 0)))
    assert dict(flipped.terms) == {(0, 0, 1): pytest.approx(1.0)}
    assert flipped.q.value == pytest.approx(2.0)
    two = tau_flip(QPolynomial.monomial(2, q, (1, 1)))
    assert dict(two.terms) == {(1, 1): pytest.approx(0.5)}


def test_tau_flip_involution():
    rng = Random("flip")
    for _ in range(50):
        q = (0.5, 2.0, cmath.exp(0.8j))[rng.randrange(3)]
        a = randgen.random_qpoly(rng, 3, q, max_degree=4, terms=5)
        assert tau_flip(tau_flip(a)).allclose(a, tol=1e-10)


def test_tau_flip_is_homomorphism():
    rng = Random("flip-hom")
    for _ in range(50):
        q = (0.5, cmath.exp(0.3j))[rng.randrange(2)]
        a = randgen.random_qpoly(rng, 2, q, max_degree=3, terms=4)
        b = randgen.random_qpoly(rng, 2, q, max_degree=3, terms=4)
        assert tau_flip(qpoly_mul(a, b)).allclose(
            qpoly_mul(tau_flip(a), tau_flip(b)), tol=1e-9)


def test_polydisk_lift_examples():
    unimodular = cmath.exp(0.3j)
    lift = polydisk_lift((1, 1), unimodular)
    assert set(lift.terms) == {(1, 2)}
    half = polydisk_lift((1, 1), 0.5)
    assert dict(half.terms) == {(2, 1): pytest.approx(0.5)}
    assert dict(polydisk_lift((2, 0), 0.5).terms) == {(1, 1): pytest.approx(1.0)}


def test_polydisk_lift_normal_orders_to_monomial():
    for q in (0.5, 2.0, cmath.exp(0.6j)):
        for n in (1, 2, 3):
            for k in qc.multi_indices(n, 5):
                image = normal_order(polydisk_lift(k, q), q)
                assert image.allclose(QPolynomial.monomial(n, q, k), tol=1e-10)


def test_ball_lift_example_and_identity():
    lift = ball_lift((1, 1), 0.5)
    assert dict(lift.terms) == {(1, 2): pytest.approx(0.2), (2, 1): pytest.approx(0.4)}
    for q in (0.5, 2.0, cmath.exp(0.6j)):
        for n in (1, 2, 3):
            for k in qc.multi_indices(n, 5):
                image = normal_order(ball_lift(k, q), q)
                assert image.allclose(QPolynomial.monomial(n, q, k), tol=1e-10)
    axis = ball_lift((3, 0), 0.5)
    assert dict(axis.terms) == {(1, 1, 1): pytest.approx(1.0)}


@pytest.mark.parametrize("q", [1e-200, 1e-100, 1e100, 1e200])
@pytest.mark.parametrize("lift", [polydisk_lift, ball_lift])
def test_lifts_far_from_the_unit_circle_order_to_the_monomial_or_name_q(lift, q):
    # both lifts of x1^2 x2^2 were the zero element at q = 1e-200 and 1e-100,
    # their q**m below the float range, and ball_lift at 1e200 raised
    # "complex exponentiation"; every power is now QParam.power's.  A ball
    # lift with an exact coefficient below the float range raises: it used
    # to drop that word, so (1, 1) at 1e-200 answered with one of its two
    answered = 0
    for k in ((1, 1), (2, 2), (3, 0), (1, 2, 1)):
        lost = lift is ball_lift and not all(map(float, exact_ball_lift(k, q).values()))
        try:
            lifted = lift(k, q)
        except OverflowError as exc:
            assert f"at q = {complex(q)!r}" in str(exc), exc
            continue
        assert not lost, (k, q)
        answered += 1
        assert lifted.terms, (k, q)
        image = normal_order(lifted, q)
        assert image.allclose(QPolynomial.monomial(len(k), q, k), tol=1e-15), (k, q)
    assert answered >= (2 if lift is polydisk_lift else 1)


def test_ball_lift_keeps_every_coefficient_in_the_float_range_far_from_the_circle():
    # a word whose raw weight |q|**-2m underflows takes its modulus in log
    # space: at 1e200 the (2, 1) word of x1 x2 was dropped although its
    # coefficient 1e-200 is a normal float.  Each call is the exact lift to
    # 1e-13, every word of the fiber, or, where an exact coefficient is
    # below the float range, raises OverflowError naming q: such a word was
    # dropped, and ball_lift((2, 2), 1e200) kept 2 of 6 words
    answered = raised = 0
    for e in (100, 150, 200, 300):
        for modulus in (10.0 ** e, 10.0 ** -e):
            for q in (modulus, -modulus):
                for k in ((1, 1), (2, 1), (1, 1, 1), (2, 2), (3, 1)):
                    exact = {alpha: float(c) for alpha, c in exact_ball_lift(k, q).items()}
                    if not all(exact.values()):
                        with pytest.raises(OverflowError,
                                           match=re.escape(f"at q = {complex(q)!r}")):
                            ball_lift(k, q)
                        raised += 1
                        continue
                    got = dict(ball_lift(k, q).terms)
                    assert list(got) == list(exact), (k, q)
                    for alpha, c in got.items():
                        assert c.imag == 0.0
                        assert abs(c.real - exact[alpha]) <= 1e-13 * abs(exact[alpha]), (k, q)
                    assert any(abs(c) < 10.0 ** (1 - e) for c in got.values()), (k, q)
                    answered += 1
    assert answered >= 20 and raised >= 20
    for k, q in (((2, 2), 1e200), ((2, 1), 1e200), ((3, 1), 1e120)):
        with pytest.raises(OverflowError, match=re.escape(f"at q = {complex(q)!r}")):
            ball_lift(k, q)
    assert dict(ball_lift((1, 1), 1e200).terms) == {(1, 2): 1.0,
                                                     (2, 1): pytest.approx(1e-200, rel=1e-13)}
    # a complex q: the same moduli, times the unit phase (q/|q|)**m
    for modulus, k in ((1e150, (2, 1)), (1e200, (1, 1))):
        q = modulus * cmath.exp(0.7j)
        got = ball_lift(k, q)
        assert len(got.terms) == len(qc.fiber(k)[0])
        for alpha, m in zip(*qc.fiber(k)):
            expected = float(exact_ball_lift(k, abs(q))[alpha]) * cmath.exp(0.7j * m)
            assert abs(got.terms[alpha] - expected) <= 1e-13 * abs(expected)
        assert normal_order(got, q).allclose(QPolynomial.monomial(2, q, k), tol=1e-15)
    with pytest.raises(OverflowError, match="at q = "):
        ball_lift((2, 1), 1e200 * cmath.exp(0.7j))


def test_laurent_mul_examples():
    n = 2
    a = laurent_mul(LaurentElement.generator(n, 2), LaurentElement.generator(n, 1))
    assert dict(a.terms) == {((1, 1), -1): pytest.approx(1.0)}
    unit = laurent_mul(LaurentElement.z_power(n, 1), LaurentElement.z_power(n, -1))
    assert dict(unit.terms) == {((0, 0), 0): pytest.approx(1.0)}
    b = laurent_mul(LaurentElement.monomial(n, (1, 0), 2), LaurentElement.monomial(n, (0, 1), -1))
    assert dict(b.terms) == {((1, 1), 1): pytest.approx(1.0)}


def test_laurent_word_identity():
    for n in (1, 2, 3):
        for alpha in qc.words(n, 5):
            built = laurent_word(n, alpha)
            expected = LaurentElement.monomial(n, qc.word_profile(alpha, n),
                                               -qc.inversions(alpha))
            assert built == expected
    for bad in ((0,), (1, 3), (-1,)):
        with pytest.raises(ValueError):
            laurent_word(2, bad)


def test_fiber_eval_examples():
    n = 2
    q0 = 0.7
    vanishing = LaurentElement.z_power(n, 1) - q0 * LaurentElement.one(n)
    assert dict(fiber_eval(vanishing, q0).terms) == {}
    doubled = fiber_eval(LaurentElement.monomial(n, (1, 1), -1), 0.5)
    assert dict(doubled.terms) == {(1, 1): pytest.approx(2.0)}
    with pytest.raises(ValueError):
        fiber_eval(LaurentElement.one(n), 0.0)


def test_fiber_eval_is_multiplicative():
    rng = Random("fiber")
    for _ in range(200):
        q = (0.5, 2.0, cmath.exp(0.5j))[rng.randrange(3)]
        a = randgen.random_laurent(rng, 2, terms=4)
        b = randgen.random_laurent(rng, 2, terms=4)
        lhs = fiber_eval(laurent_mul(a, b), q)
        rhs = qpoly_mul(fiber_eval(a, q), fiber_eval(b, q))
        keys = set(lhs.terms) | set(rhs.terms)
        scale = max([abs(v) for v in lhs.terms.values()] + [1.0])
        for key in keys:
            assert abs(lhs.terms.get(key, 0.0) - rhs.terms.get(key, 0.0)) <= 1e-10 * scale


def test_homogeneous_component():
    q = 0.5
    a = (QPolynomial.one(2, q) + QPolynomial.monomial(2, q, (1, 0))
         + QPolynomial.monomial(2, q, (1, 1)))
    assert dict(homogeneous_component(a, 1).terms) == {(1, 0): pytest.approx(1.0)}
    assert dict(homogeneous_component(a, 7).terms) == {}
    total = (homogeneous_component(a, 0) + homogeneous_component(a, 1)
             + homogeneous_component(a, 2))
    assert total.allclose(a)


def test_component_of_product_identity():
    rng = Random("components")
    for _ in range(100):
        q = (0.5, cmath.exp(1.1j))[rng.randrange(2)]
        a = randgen.random_qpoly(rng, 2, q, max_degree=3, terms=4)
        b = randgen.random_qpoly(rng, 2, q, max_degree=3, terms=4)
        prod = qpoly_mul(a, b)
        for ell in range(7):
            direct = homogeneous_component(prod, ell)
            assembled = QPolynomial.zero(2, q)
            for i in range(ell + 1):
                assembled = assembled + qpoly_mul(homogeneous_component(a, i),
                                                  homogeneous_component(b, ell - i))
            assert direct.allclose(assembled, tol=1e-10)


def test_routed_products_equal_reference_loops():
    rng = Random("routed-products")
    for trial in range(200):
        n = 1 + trial % 3
        q = (0.5, 2.0, cmath.exp(0.7j), 1.0)[trial % 4]
        cap = (None, 3, 5)[trial % 3]
        a = randgen.random_qpoly(rng, n, q, max_degree=4, terms=6)
        b = randgen.random_qpoly(rng, n, q, max_degree=4, terms=6)
        got = qpoly_mul(a, b, degree_cap=cap)
        expected = QPolynomial(n, q, reference_qpoly_mul(a, b, cap))
        assert got == expected and list(got.terms) == list(expected.terms)
        u = randgen.random_laurent(rng, n, terms=6)
        v = randgen.random_laurent(rng, n, terms=6)
        got = laurent_mul(u, v, degree_cap=cap)
        expected = LaurentElement(n, reference_laurent_mul(u, v, cap))
        assert got == expected and list(got.terms) == list(expected.terms)
    wide_a = randgen.random_qpoly(rng, 3, 0.8, max_degree=8, terms=60)
    wide_b = randgen.random_qpoly(rng, 3, 0.8, max_degree=8, terms=60)
    assert qpoly_mul(wide_a, wide_b) == QPolynomial(3, 0.8, reference_qpoly_mul(wide_a, wide_b))
    # 500 x 50 terms, as the cli-mix documents are: the array route
    q = 0.95 * cmath.exp(0.4j)
    a = QPolynomial(3, q, _sampled_terms(rng, 3, 500, 13))
    b = QPolynomial(3, q, _sampled_terms(rng, 3, 50, 6))
    got = qpoly_mul(a, b)
    expected = QPolynomial(3, q, reference_qpoly_mul(a, b))
    assert got == expected and list(got.terms) == list(expected.terms)
    u = LaurentElement(3, _sampled_terms(rng, 3, 500, 13, powers=8))
    v = LaurentElement(3, _sampled_terms(rng, 3, 50, 6, powers=4))
    got = laurent_mul(u, v)
    expected = LaurentElement(3, reference_laurent_mul(u, v))
    assert got == expected and list(got.terms) == list(expected.terms)


def _sampled_terms(rng, n, size, max_degree=None, powers=None, style="unit-disk"):
    """size distinct exponent vectors of degree at most max_degree (by
    default the least degree that has size of them), each with a z-power
    in -powers..powers when powers is given.  Coefficients by style: in the
    unit disk; negative reals with imaginary part -0.0, whose products
    carry signed zeros; or in the unit disk with a NaN, an infinity and a
    complex infinity among them."""
    if max_degree is None:
        max_degree = next(d for d in count() if len(qc.multi_indices(n, d)) >= size)
    keys = rng.sample(qc.multi_indices(n, max_degree), size)
    if powers is not None:
        keys = [(k, rng.randint(-powers, powers)) for k in keys]
    if style == "signed-zeros":
        values = [complex(-rng.random(), -0.0) for _ in keys]
    else:
        values = [randgen.unit_disk(rng) for _ in keys]
    if style == "nan-inf":
        values[:3] = [complex(math.nan, 0.5), complex(math.inf, 0.0), complex(-math.inf, 1.0)]
    return dict(zip(keys, values))


# (n, terms of a, terms of b, degree_cap): around the cutoff, n = 1, under
# a degree cap, under a cap that no pair meets, and the cli-mix 500 x 50
ROUTE_CASES = {
    "below-cutoff": (3, 17, 15, None),
    "at-cutoff": (3, 16, 16, None),
    "one-variable": (1, 40, 12, None),
    "degree-cap": (2, 30, 20, 7),
    "cap-below-every-pair": (4, 20, 20, -1),
    "cli-mix-500x50": (3, 500, 50, None),
}


@pytest.mark.parametrize("n, size_a, size_b, cap", ROUTE_CASES.values(), ids=ROUTE_CASES)
def test_array_route_is_the_pair_loop_bit_for_bit(monkeypatch, n, size_a, size_b, cap):
    rng = Random(f"routes-{n}-{size_a}-{size_b}")
    q = 0.95 * cmath.exp(0.8j)
    for style in ("unit-disk", "signed-zeros", "nan-inf"):
        a = QPolynomial(n, q, _sampled_terms(rng, n, size_a, style=style))
        b = QPolynomial(n, q, _sampled_terms(rng, n, size_b, style=style))
        u = LaurentElement(n, _sampled_terms(rng, n, size_a, powers=4, style=style))
        v = LaurentElement(n, _sampled_terms(rng, n, size_b, powers=4, style=style))
        for product in (lambda: qpoly_mul(a, b, degree_cap=cap),
                        lambda: laurent_mul(u, v, degree_cap=cap)):
            loop, arrays, outcomes = on_each_route(monkeypatch, product)
            assert outcomes == [True] and same_bits(arrays, loop), style
            # at the shipped cutoff, the route follows the pair count
            taken = array_route_outcomes(monkeypatch)
            assert same_bits(product(), loop), style
            assert taken == [True] * (size_a * size_b >= elements._ARRAY_PAIRS)


def test_sums_that_cancel_are_dropped_and_empty_operands_give_zero(monkeypatch):
    # (1 + x + ... + x^255)(x - 1) = x^256 - 1 on 512 pairs: every middle
    # coefficient sums to exactly 0 on both routes, and construction drops it
    u = LaurentElement(1, {((j,), 2): 1.0 for j in range(256)})
    v = LaurentElement(1, {((1,), 0): 1.0, ((0,), 0): -1.0})
    cases = [(lambda: laurent_mul(u, v), {((0,), 2): -1.0, ((256,), 2): 1.0})]
    for q in (0.7, cmath.exp(0.2j)):
        geometric = QPolynomial(1, q, {(j,): 1.0 for j in range(256)})
        difference = QPolynomial(1, q, {(1,): 1.0, (0,): -1.0})
        cases.append((lambda a=geometric, b=difference: qpoly_mul(a, b),
                      {(0,): -1.0, (256,): 1.0}))
    for product, expected in cases:
        loop, arrays, outcomes = on_each_route(monkeypatch, product)
        assert outcomes == [True] and same_bits(arrays, loop)
        assert dict(arrays.terms) == expected
    wide = QPolynomial(2, 0.5, _sampled_terms(Random("empty"), 2, 300))
    for left, right in ((wide, QPolynomial.zero(2, 0.5)), (QPolynomial.zero(2, 0.5), wide)):
        assert dict(qpoly_mul(left, right).terms) == {}


def test_array_route_hands_exponents_past_int64_room_to_the_loop(monkeypatch):
    # an exponent of 2^62 overflows the slot codes, one of 2^40 times one of
    # 2^30 the sigma codes: the loop forms both products, with Python ints
    rng = Random("int64-room")
    for big_a, big_b in (((2 ** 62, 1), (0, 3)), ((0, 2 ** 40), (2 ** 30, 0))):
        u = LaurentElement(2, {(big_a, 5): 1.5j} | _sampled_terms(rng, 2, 20, powers=3))
        v = LaurentElement(2, {(big_b, -1): 0.5} | _sampled_terms(rng, 2, 20, powers=3))
        taken = array_route_outcomes(monkeypatch)
        got = laurent_mul(u, v)
        expected = LaurentElement(2, reference_laurent_mul(u, v))
        assert taken == [False]
        assert got == expected and list(got.terms) == list(expected.terms)
        assert ((tuple(map(add, big_a, big_b)), 4 - qc.sigma(big_b, big_a))
                in got.terms)


def test_pair_table_gives_the_same_bits_cold_warm_and_evicting(monkeypatch):
    # the pair loop reads k + l, both sigmas and |k + l| from the held pair
    # table; every product must have the same bits from an empty store, a
    # warm one, and one held to a single pair, which drops a pair per miss
    rng = Random("pair-table")
    products = []
    for trial in range(24):
        n = 1 + trial % 3
        q = (0.5, 2.0, cmath.exp(0.7j))[trial % 3]
        cap = (None, 3)[trial % 2]
        a, b = (randgen.random_qpoly(rng, n, q, max_degree=4, terms=6) for _ in "ab")
        u, v = (randgen.random_laurent(rng, n, terms=6) for _ in "uv")
        f, g = (randgen.random_hseries(rng, n, 2, max_degree=3, terms=6) for _ in "fg")
        c, d = (randgen.random_qpoly(rng, n, 1.0, max_degree=3, terms=5) for _ in "cd")
        products += [lambda a=a, b=b, cap=cap: qpoly_mul(a, b, degree_cap=cap),
                     lambda u=u, v=v, cap=cap: laurent_mul(u, v, degree_cap=cap),
                     lambda f=f, g=g: deform.star_product(f, g),
                     lambda c=c, d=d: deform.poisson_bracket(c, d)]
    table = elements._pair

    def fresh(budget):
        monkeypatch.setattr(table, "budget", budget)
        monkeypatch.setattr(table, "store", {})
        monkeypatch.setattr(table, "total", 0)

    cold = []
    for product in products:
        fresh(2 ** 13)
        cold.append(product())
    fresh(2 ** 13)
    first = [product() for product in products]
    warm = [product() for product in products]
    assert table.total == len(table.store) <= table.budget
    for (k, l), entry in table.store.items():
        key = tuple(map(add, k, l))
        assert entry == (key, brute_sigma(l, k), brute_sigma(k, l), sum(key))
    fresh(1)
    evicting = [product() for product in products]
    assert table.total == len(table.store) == 1
    for results in (first, warm, evicting):
        assert all(map(same_bits, results, cold))


def test_qpoly_phase_mutation_moves_both_routes(monkeypatch):
    rng = Random("qpoly-phase")
    q = cmath.exp(0.3j)   # unimodular phases: each sum is of terms of modulus <= 1
    for size in (4, 20):  # 16 pairs on the loop, 400 on the array route
        a = QPolynomial(3, q, _sampled_terms(rng, 3, size))
        b = QPolynomial(3, q, _sampled_terms(rng, 3, size))
        taken = array_route_outcomes(monkeypatch)
        monkeypatch.setattr(_mutate, "_active", "")
        base = qpoly_mul(a, b)
        monkeypatch.setattr(_mutate, "_active", "qpoly-phase")
        bumped = qpoly_mul(a, b)
        assert taken == [True, True] * (size * size >= elements._ARRAY_PAIRS)
        assert list(bumped.terms) == list(base.terms)
        for k, c in base.terms.items():
            assert bumped.terms[k] != c
            assert abs(bumped.terms[k] - c * (1 + 1e-6)) <= 1e-13


def test_batched_word_statistics_equal_reference_loops():
    rng = Random("batched-words")
    qs = (0.5, cmath.exp(0.7j), 2.0)
    for trial in range(150):
        n = 1 + trial % 4
        q = qs[trial % 3]
        f = randgen.random_free(rng, n, max_len=(3, 5, 6)[trial % 3], terms=1 + trial % 9)
        got = normal_order(f, q)
        expected = QPolynomial(n, q, reference_normal_order(f, q))
        assert got == expected and list(got.terms) == list(expected.terms)
    for k in ((2, 1), (1, 1, 1), (0, 3, 2), (2, 2, 1), (1, 2, 1, 1), (3, 3, 3)):
        for q in qs:
            lifts = ((ball_lift(k, q), FreeElement(len(k), reference_ball_lift(k, q))),
                     (polydisk_lift(k, q), FreeElement(len(k), reference_polydisk_lift(k, q))))
            for got, expected in lifts:
                assert got == expected and list(got.terms) == list(expected.terms)
                ordered = normal_order(got, q)
                reference = QPolynomial(len(k), q, reference_normal_order(got, q))
                assert ordered == reference and list(ordered.terms) == list(reference.terms)


def test_lift_orderings_and_circ_norm_read_the_fiber_record(monkeypatch):
    # a lift's words are the held fiber record's words: a ball lift's terms
    # are the record's own word sequence, which _fiber_stats reads as it is
    # (the lift's ordering and circ norm read its layout instead), and a
    # polydisk lift's one word is found by bisection.  Once the record is
    # no longer held the statistics are computed.  Every route gives the
    # per-word loops' results, bit for bit and in the same key order.
    for k in ((2, 1), (0, 3, 2), (3, 2, 2), (2, 2, 1, 1), (3, 3, 3)):
        n = len(k)
        for q in (0.85, cmath.exp(0.7j), 1.3 - 0.4j):
            for f in (ball_lift(k, q), polydisk_lift(k, q)):
                expected = QPolynomial(n, q, reference_normal_order(f, q))
                circ = reference_circ_norm(f, 0.8)
                for evict in (False, True):
                    if evict:
                        empty_fiber_store(monkeypatch)
                    qc.fiber((1,) * n if evict else k)
                    assert (qc._fiber_stats(f.terms, n) is None) == evict
                    got = normal_order(f, q)
                    assert same_bits(got, expected)
                    assert norm(f, NormSpec(FREE_BALL_CIRC, 0.8)) == circ


def _circ_bits(value):
    return repr(value)   # tells 0.0 from -0.0 and shows NaN and inf


def test_single_profile_sums_equal_the_reference_loops_bit_for_bit(monkeypatch):
    # normal_order sums each profile from 0.0 in term order, and the circ
    # norm sums a batch of one profile in one reduction: the bits of the
    # per-word loops, for coefficients with -0.0 parts, infinite and NaN
    # ones, whether the batch is a lift's words read off the record, a
    # reordered copy of them, a few of its words, or off the record
    inf, nan = math.inf, math.nan
    odd = [complex(-0.0, 1.0), complex(1.0, -0.0), complex(-0.0, -1e-300), complex(inf, 0.0),
           complex(0.0, -inf), complex(nan, 1.0), complex(inf, -inf), -1.5 + 0.25j]
    for k in ((2, 1), (2, 2, 1), (3, 2, 2)):
        n = len(k)
        for q in (0.85, cmath.exp(0.7j), 1.3 - 0.4j):
            words = qc.fiber(k)[0]
            for values in (odd, [complex(-0.0, 1.0)], [complex(-1.0, -0.0)] * 3):
                coeffs = [values[i % len(values)] for i in range(len(words))]
                lift = FreeElement(n, dict(zip(words, coeffs)))
                elements_ = (lift, FreeElement(n, dict(reversed(lift.terms.items()))),
                             FreeElement(n, dict(list(lift.terms.items())[:3])))
                for f in elements_:
                    for evict in (False, True):
                        if evict:
                            empty_fiber_store(monkeypatch)
                        qc.fiber((1,) * n if evict else k)
                        got = normal_order(f, q)
                        assert same_bits(got, QPolynomial(n, q, reference_normal_order(f, q)))
                        assert (_circ_bits(norm(f, NormSpec(FREE_BALL_CIRC, 0.8)))
                                == _circ_bits(reference_circ_norm(f, 0.8)))
    # a lone term whose product c * q**0 is -1 - 0j: the sum starts at 0.0,
    # so the reference's imaginary part is 0.0, not -0.0
    f = FreeElement(2, {(1, 2): complex(-1.0, -0.0)})
    assert math.copysign(1.0, (complex(-1.0, -0.0) * (1.0 + 0j)).imag) == -1.0
    got = normal_order(f, 1.0)
    assert same_bits(got, QPolynomial(2, 1.0, reference_normal_order(f, 1.0)))
    assert math.copysign(1.0, got.terms[(1, 1)].imag) == 1.0


_LAYOUT_QS = (0.05, 0.5, 0.9 * cmath.exp(0.3j), cmath.exp(0.4j), -1.0, 2.0,
              1.3 * cmath.exp(-1j), 1e-150, 1e150)


def _read_bits(reads):
    """The repr of what each read returns (a QPolynomial's term list, a
    float, a list, a string, an int), or OverflowError where it raises."""
    out = []
    for read in reads:
        try:
            got = read()
        except OverflowError:
            out.append(OverflowError)
            continue
        out.append(repr(list(got.terms.items()) if isinstance(got, QPolynomial) else got))
    return out


def test_ball_lift_layout_reads_give_the_bits_of_a_dict_copy():
    # a ball lift's normal ordering and circ norm read its layout, one value
    # per m; an equal dict-backed copy goes through the word statistics and
    # its per-word fold.  Each read gives the same bits on both, or raises
    # OverflowError on both, for every profile of |k| <= 7 and n <= 4 and
    # three larger ones, at every q of _LAYOUT_QS.  The copies of that grid
    # skip key validation (_Checked); for each profile at one q, taking the
    # values of _LAYOUT_QS in turn, the public copy FreeElement(n,
    # dict(lift.terms)) is made too, and the reads through the mapping
    # (the Taylor norm, sorted_terms, element_text, hash, ==) are compared
    profiles = [k for n in range(1, 5) for k in qc.multi_indices(n, 7)]
    profiles += [(3, 2, 2, 2), (2, 2, 2, 2), (3, 3, 3)]
    circ, taylor = NormSpec(FREE_BALL_CIRC, 0.8), NormSpec(FREE_TAYLOR, 0.8)
    seen = Counter()
    for j, k in enumerate(profiles):
        n = len(k)
        for t, q in enumerate(_LAYOUT_QS):
            try:
                lift = ball_lift(k, q)
            except OverflowError:
                seen["no lift"] += 1
                continue
            copies = [FreeElement(n, _Checked(lift.terms.items()))]
            if t == j % len(_LAYOUT_QS):
                copies.append(FreeElement(n, dict(lift.terms)))
                seen["public copy"] += 1
            for copy in copies:
                assert type(copy.terms) is not type(lift.terms)
                reads = [(lambda f=f: normal_order(f, q), lambda f=f: norm(f, circ))
                         for f in (lift, copy)]
                if len(copies) == 2:
                    for f, more in zip((lift, copy), reads):
                        more += (lambda f=f: norm(f, taylor), f.sorted_terms,
                                 lambda f=f: element_text(f), lambda f=f: hash(f))
                    assert lift == copy and copy == lift
                got, expected = map(_read_bits, reads)
                assert got == expected, (k, q)
            seen["lift"] += 1
    assert seen["lift"] >= 3000 and seen["no lift"] >= 500 and seen["public copy"] >= 400, seen


def test_ball_lift_ordering_and_circ_norm_take_the_layout_route(monkeypatch):
    # with the word statistics out of reach a ball lift still answers, so a
    # silent fall-back to its words would fail here; its copy needs them
    k, q, circ = (2, 2, 1), 0.7 * cmath.exp(0.2j), NormSpec(FREE_BALL_CIRC, 0.8)
    expected = [(normal_order(f, q), norm(f, circ))
                for f in (ball_lift(k, q), ball_lift((3, 2, 2, 2), q))]

    def refuse(*args):
        raise AssertionError("a ball lift asked for its word statistics")

    monkeypatch.setattr(qc, "word_stats", refuse)
    monkeypatch.setattr(qc, "word_profiles", refuse)
    for (ordered, circ_norm), k_ in zip(expected, (k, (3, 2, 2, 2))):
        lift = ball_lift(k_, q)
        assert same_bits(normal_order(lift, q), ordered)
        assert repr(norm(lift, circ)) == repr(circ_norm)
        copy = FreeElement(len(k_), dict(lift.terms))
        for read in (lambda: normal_order(copy, q), lambda: norm(copy, circ)):
            with pytest.raises(AssertionError, match="word statistics"):
                read()


@pytest.mark.parametrize("point", ["normal-order-phase", "ball-lift-coefficient"])
def test_ball_lift_layout_route_keeps_its_mutation_points(monkeypatch, point):
    # each hook moves the lift's ordering by about 1e-6 relative, and the
    # copy's ordering by the same bits
    k, q = (3, 2, 2), 0.8 * cmath.exp(0.5j)
    clean = normal_order(ball_lift(k, q), q).terms[k]
    monkeypatch.setattr(_mutate, "_active", point)
    lift = ball_lift(k, q)
    copy = FreeElement(3, dict(lift.terms))
    got = normal_order(lift, q)
    assert same_bits(got, normal_order(copy, q))
    assert abs(got.terms[k] / clean - 1.0) == pytest.approx(1e-6, rel=1e-3)


def test_ball_lift_terms_are_the_fiber_record_with_its_layout():
    # the keys are the held record's own word tuple, in record order, and
    # every Mapping read answers as the dict over the terms does
    k = (2, 2, 1)
    n = len(k)
    lift = ball_lift(k, 0.5)
    terms = lift.terms
    words, ms = qc.fiber(k)
    assert terms._keys is words and terms.ms is ms and terms.counts == k
    assert terms.params == (n,) and list(terms) == list(words) and len(terms) == len(words)
    d = dict(zip(words, (terms.series[m] for m in ms)))
    assert list(terms.values()) == list(d.values()) and list(terms.items()) == list(d.items())
    assert len(terms.values()) == len(terms.items()) == len(d)
    for word, c in d.items():
        assert terms[word] == c and terms.get(word) == c and word in terms
        assert (word, c) in terms.items() and c in terms.values()
    for miss in ((1, 1, 2), (), (1, 2, 3, 1, 2, 4), "x"):
        assert miss not in terms and terms.get(miss, 7) == 7
        with pytest.raises(KeyError):
            terms[miss]
    with pytest.raises(TypeError):
        terms[words[0]] = 1.0
    # a FreeElement of the lift's n adopts the terms; one of another n
    # checks and copies them, and a formal lift's terms and these are
    # refused by each other's element type
    assert FreeElement(n, terms).terms is terms
    wider = FreeElement(n + 1, terms)
    assert type(wider.terms) is not type(terms) and dict(wider.terms) == d
    with pytest.raises((TypeError, ValueError)):
        FormalFreeElement(n, 3, terms)
    formal = deform.formal_ball_lift(k, 3)
    assert type(formal.terms) is type(terms)
    with pytest.raises((TypeError, ValueError)):
        FreeElement(n, formal.terms)


def test_lift_terms_answer_every_read_as_a_mapping_proxy_does():
    # every other element's terms are a MappingProxyType over a dict; a
    # lift's terms give each of its reads the same answer: reversal of the
    # mapping and of its views, set operations on the views, copy and |
    # either way round, and the same refusals
    for lift in (ball_lift((2, 2, 1), 0.5), deform.formal_ball_lift((2, 1), 2)):
        terms = lift.terms
        proxy = MappingProxyType(dict(terms))
        first = next(iter(terms))
        other = {first: 2.0, "x": 1.0}
        reads = [
            list, lambda t: list(reversed(t)), lambda t: list(reversed(t.keys())),
            lambda t: list(reversed(t.values())), lambda t: list(reversed(t.items())),
            lambda t: list(t.items()), lambda t: t.keys() & {first, "x"},
            lambda t: t.items() - {(first, t[first])}, lambda t: len(t.values()),
            lambda t: t.copy(), lambda t: type(t.copy()), lambda t: list((t | other).items()),
            lambda t: list((other | t).items()), lambda t: list((t | proxy).items()),
            lambda t: list((proxy | t).items()), lambda t: list((t | terms).items()),
            lambda t: t == proxy, lambda t: t == terms, lambda t: t.get("x", 7),
        ]
        for read in reads:
            assert read(terms) == read(proxy)
        for bad in (lambda t: t | 5, lambda t: 5 | t, lambda t: t | [(first, 1.0)]):
            for t in (terms, proxy):
                with pytest.raises(TypeError):
                    bad(t)
        # a copy and a union are new dicts: writing to them leaves the terms
        copy = terms.copy()
        copy[first] = 0.0
        (terms | {})[first] = 0.0
        assert terms[first] == proxy[first] != 0.0


def test_overflowing_terms_are_kept():
    # (1e300 + 1e300i)^2 overflows to nan + nan i, whose modulus compared
    # false with the old absolute pruning tolerance: the product used to
    # drop the term and come out as the zero element
    a = QPolynomial(2, 0.5, {(0, 0): 1e300 + 1e300j})
    square = qpoly_mul(a, a)
    assert list(square.terms) == [(0, 0)]
    c = square.terms[0, 0]
    assert math.isnan(c.real) and math.isnan(c.imag)
    for c in (complex("nan"), complex("inf"), complex(-math.inf, math.nan)):
        assert list(FreeElement(2, {(1, 2): c}).terms) == [(1, 2)]
    assert dict(FreeElement(2, {(1, 2): 1e-12, (2,): 0.0}).terms) == {(1, 2): 1e-12}


def test_tiny_terms_are_kept():
    # an absolute cutoff of 1e-12 used to drop these terms: the product's
    # 1e-14 term, the smallest |q|^m coefficients of the ball lifts, and
    # the one coefficient 0.3^27 = 7.6e-15 of polydisk_lift((3, 3, 3), 0.3)
    a = QPolynomial(2, 0.5, {(1, 0): 1e-7})
    b = QPolynomial(2, 0.5, {(0, 1): 1e-7})
    assert (a * b).terms[1, 1] == pytest.approx(1e-14, rel=1e-15)
    poly = polydisk_lift((3, 3, 3), 0.3)
    assert dict(poly.terms) == {(3, 3, 3, 2, 2, 2, 1, 1, 1): pytest.approx(0.3 ** 27,
                                                                          rel=1e-14)}
    for k, q, words in (((3, 3), 0.05, 20), ((3, 3, 3), 0.3, 1680),
                        ((2, 2, 2, 2), 0.3, 2520)):
        ball = ball_lift(k, q)
        assert len(ball.terms) == words == qc.fiber_count(k)
        assert dict(ball.terms) == reference_ball_lift(k, q)
        poly = polydisk_lift(k, q)
        assert dict(poly.terms) == reference_polydisk_lift(k, q)
        for lift in (ball, poly):
            image = normal_order(lift, q)
            assert list(image.terms) == [k]
            assert abs(image.terms[k] - 1.0) <= 1e-15


class _Letter:
    """Stands for an int through __index__ without being equal to it."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


# per element type: a constructor over a terms map, two valid keys in
# sorted order, out-of-range keys, a non-integral key, and two distinct
# keys that name the same basis element
ELEMENT_CASES = [
    (lambda t: QPolynomial(2, 0.5, t), [(0, 1), (2, 0)],
     [(1,), (1, -1)], (1.5, 0), ((1, 0), (_Letter(1), 0))),
    (lambda t: FreeElement(2, t), [(2,), (1, 1)],
     [(3,), (0, 1)], (1.0,), ((1,), (_Letter(1),))),
    (lambda t: LaurentElement(2, t), [((0, 1), 5), ((2, 0), -1)],
     [((1, -1), 0), ((1,), 0)], ((1, 0), 0.9), (((1, 0), 0), ((1, 0), _Letter(0)))),
    (lambda t: HSeriesElement(2, 2, t), [(0, (2, 0)), (1, (0, 1))],
     [(3, (1, 0)), (-1, (1, 0)), (0, (1,))], (0, (1.5, 0)),
     ((0, (1, 0)), (0, (_Letter(1), 0)))),
    (lambda t: FormalFreeElement(2, 2, t), [(0, (2,)), (1, (1,))],
     [(3, (1,)), (0, (3,))], (0.5, (1,)), ((0, (1,)), (0, (_Letter(1),)))),
]


def test_element_validation_and_immutability():
    for make, (first, second), bad_keys, fractional, (key, alias) in ELEMENT_CASES:
        e = make({second: 2.0, first: 1.0})
        name = type(e).__name__
        for bad in bad_keys:
            with pytest.raises(ValueError):
                make({bad: 1.0})
        # non-integral keys are rejected, not truncated onto an integer key
        with pytest.raises(TypeError):
            make({fractional: 1.0})
        for c in (1.0, 0.0):   # a dropped zero first copy still counts
            with pytest.raises(ValueError, match="duplicate"):
                make({key: c, alias: 2.0})
        with pytest.raises(AttributeError):
            e.n = 3
        with pytest.raises(TypeError):
            e.terms[first] = 5.0
        # only exact zeros are dropped: a tiny term is kept
        assert dict(make({first: 1e-15, second: 1.0}).terms) == {first: 1e-15,
                                                                  second: 1.0}, name
        for zero in (0, 0.0, -0.0, 0j, complex(-0.0, -0.0)):
            assert dict(make({first: zero, second: 1.0}).terms) == {second: 1.0}, name
        same = make({first: 1.0, second: 2.0})
        assert e == same and hash(e) == hash(same), name
        assert e != make({first: 1.0}) and e != dict(e.terms), name
        assert e.allclose(make({first: 1.0 + 1e-13, second: 2.0})), name
        assert not e.allclose(make({first: 1.0 + 1e-6, second: 2.0})), name
        assert e.allclose(make({first: 1.0 + 1e-6, second: 2.0}), tol=1e-5), name
        assert [k for k, _ in e.sorted_terms()] == [first, second], name
        assert repr(e).startswith(f"{name}(n=2") and repr(e).endswith(", terms=2)"), name
        assert e + e == 2.0 * e == e * 2.0, name
        assert dict((e - e).terms) == {}, name
        # subtraction does not prune the subtrahend first
        tiny = make({first: 1e-13})
        assert dict((e - tiny).terms) == {first: 1.0 - 1e-13, second: 2.0}, name
    assert repr(LaurentElement.one(3)) == "LaurentElement(n=3, terms=1)"
    assert repr(HSeriesElement(2, 3, {})) == "HSeriesElement(n=2, order=3, terms=0)"
    assert repr(QPolynomial.zero(1, 0.5)) == f"QPolynomial(n=1, q={qc.as_qparam(0.5)!r}, terms=0)"
    with pytest.raises(ValueError):
        QPolynomial(2, 0.5, {(1, 0): 1.0}) + QPolynomial(2, 0.7, {(1, 0): 1.0})
    with pytest.raises(TypeError):
        QPolynomial.one(2, 0.5) + FreeElement.one(2)
    with pytest.raises(TypeError):
        ball_lift((1, 0.5), 0.5)
    with pytest.raises(TypeError):
        polydisk_lift((1.5, 1), 0.5)


def test_element_methods_equal_their_function_forms():
    rng = Random("methods")
    for n in (1, 2, 3):
        f, g = (randgen.random_free(rng, n, max_len=3, terms=5) for _ in "fg")
        assert same_bits(f * g, free_mul(f, g))
        assert f.length() == max(map(len, f.terms))
        u, v = (randgen.random_laurent(rng, n, terms=6) for _ in "uv")
        assert same_bits(u * v, laurent_mul(u, v))
    assert FreeElement.zero(2).length() == 0 == FreeElement.one(2).length()
    assert FreeElement(2, {(1, 2, 1): 1.0, (2,): 3.0}).length() == 3
    zero = HSeriesElement.zero(2, 3)
    assert (zero.n, zero.order, dict(zero.terms)) == (2, 3, {})
    assert zero.coefficient(0) == {}
    h = HSeriesElement(2, 2, {(0, (1, 0)): 1.0, (2, (0, 1)): 2.0j, (2, (1, 1)): -1.0})
    assert h.coefficient(0) == {(1, 0): 1.0}
    assert h.coefficient(1) == {}
    assert h.coefficient(2) == {(0, 1): 2.0j, (1, 1): -1.0}


def _key_parts(key):
    for part in key:
        if isinstance(part, tuple):
            yield from _key_parts(part)
        else:
            yield part


def test_built_results_hold_plain_keys_and_public_constructors_validate():
    # results built from checked keys skip revalidation: their keys must
    # still be tuples of Python ints and their coefficients complex, and
    # equal the element the validating public constructor builds
    i64 = np.int64
    a = QPolynomial(2, 0.5, {(i64(1), i64(0)): 2, (0, i64(2)): i64(3)})
    b = QPolynomial(2, 0.5, {(_Letter(0), 1): 1.5, (2, 1): -1})
    u = LaurentElement(2, {((i64(1), 0), i64(-2)): 1, ((0, 1), 3): 2.5})
    v = LaurentElement(2, {((1, 1), _Letter(0)): -1})
    f = FreeElement(2, {(i64(2), 1): 2, (1,): 0.5, (): 1})
    g = FreeElement(2, {(_Letter(2),): 3})
    results = [qpoly_mul(a, b), qpoly_mul(a, b, degree_cap=3), laurent_mul(u, v),
               free_mul(f, g), normal_order(f, 0.5), normal_order(free_mul(f, g), 2.0),
               polydisk_lift((i64(2), 1), 0.5), ball_lift((2, i64(1)), cmath.exp(0.3j)),
               ball_lift((3, 3, 3), 0.5), a + b, a - b, 2 * a, a * 1j, u + v, f - g,
               tau_flip(a), fiber_eval(u, 0.5), homogeneous_component(a, 2),
               laurent_word(2, (2, 1, 2))]
    for e in results:
        assert e.terms
        for key, c in e.terms.items():
            assert all(type(x) is int for x in _key_parts(key)), (type(e).__name__, key)
            assert type(c) is complex, (type(e).__name__, c)
        assert e._like(dict(e.terms)) == e
    # public constructors validate every key, whatever the mapping type
    class Terms(dict):
        pass

    for make, _, bad_keys, fractional, (key, alias) in ELEMENT_CASES[:3]:
        for mapping in (dict, Terms):
            for bad in bad_keys:
                with pytest.raises(ValueError):
                    make(mapping({bad: 1.0}))
            with pytest.raises(TypeError):
                make(mapping({fractional: 1.0}))
            with pytest.raises(ValueError, match="duplicate"):
                make(mapping({key: 1.0, alias: 2.0}))


def test_public_construction_rejects_non_number_coefficients():
    # complex() parses a string, so "2" was once held as 2+0j
    for make, (first, second), *_ in ELEMENT_CASES:
        for bad in ("2", "0", b"1", None, [1.0], (1.0,)):
            with pytest.raises(TypeError, match="not a number"):
                make({first: bad, second: 1.0})
        for good in (True, 2, 2.5, 1j, np.int64(2), np.float64(2.5), np.complex128(1j)):
            assert dict(make({first: good}).terms) == {first: complex(good)}
    # results built from checked keys take their coefficients as they are
    assert dict(QPolynomial(1, 0.5, _Checked({(0,): 2})).terms) == {(0,): 2 + 0j}


def test_checked_terms_are_adopted_only_when_clean():
    # a _Checked map with exact zeros is copied as the public route copies
    # it: the zeros go and a NaN stays
    mixed = {(0,): 2 + 0j, (1,): 2.5j, (2,): 0j, (3,): complex(-0.0, 0.0),
             (4,): complex(0.0, -0.0), (5,): complex(math.nan, 0.0)}
    e = QPolynomial(1, 0.5, _Checked(mixed))
    public = QPolynomial(1, 0.5, dict(mixed))
    assert repr(list(e.terms.items())) == repr(list(public.terms.items()))
    assert list(e.terms) == [(0,), (1,), (5,)]
    assert cmath.isnan(e.terms[(5,)])
    # a map of nonzero complex numbers is adopted as it is: construction
    # takes ownership, which is why no builder touches its map afterwards
    clean = _Checked({(0,): 1j, (2,): complex(math.nan, 0.0)})
    e = QPolynomial(1, 0.5, clean)
    clean[(1,)] = 2j
    assert (1,) in e.terms
    for terms in (e.terms, public.terms):
        with pytest.raises(TypeError):
            terms[(0,)] = 1j


def test_every_checked_builder_forms_complex_values(monkeypatch):
    # _Checked values are complex by contract: construction adopts a map of
    # nonzero values without testing their type, so each builder forms
    # complex values itself, whatever numbers it is given
    rng = Random("checked-builders")
    q = 0.8 * cmath.exp(0.4j)
    a, b = (randgen.random_qpoly(rng, 3, q, max_degree=3, terms=6) for _ in "ab")
    u, v = (randgen.random_laurent(rng, 2, terms=6) for _ in "uv")
    f, g = (randgen.random_free(rng, 2, terms=6) for _ in "fg")
    s, t = (randgen.random_hseries(rng, 2, 3, terms=6) for _ in "st")
    built = [a, u, f, s, free_mul(f, g), a + b, a - b, u - v, f + g, s - t]
    for product in (lambda: qpoly_mul(a, b), lambda: laurent_mul(u, v),
                    lambda: deform.star_product(s, t)):
        loop, arrays, outcomes = on_each_route(monkeypatch, product)
        assert outcomes and all(outcomes)
        built += [loop, arrays]
    for scalar in (3, True, 0.5, Fraction(1, 3), np.float64(0.5), np.complex128(0.5 - 2j)):
        built += [e * scalar for e in (a, u, f, s)]
    built += [normal_order(f, q), tau_flip(a), fiber_eval(u, q), homogeneous_component(a, 2),
              laurent_word(3, (3, 1, 2, 1))]
    k = (2, 1, 2)
    lift = deform.formal_ball_lift(k, 3)
    assert len(lift.terms) >= deform._SCALAR_ORDERING   # the table route, and the loop
    built += [polydisk_lift(k, q), ball_lift(k, q), lift, deform.normal_order_formal(lift),
              deform.normal_order_formal(FormalFreeElement(3, 3, dict(lift.terms)))]
    built += [deform.evaluate_h(s, h) for h in (0.3, np.float32(0.3))]
    built += [document_to_element(element_to_document(e)) for e in (a, u, f, s)]
    for e in built:
        assert e.terms and all(type(c) is complex for c in e.terms.values()), e


class _FloatDrawn(Random):
    """Overrides random() alone, so Random's methods draw their ints from
    random() instead of getrandbits(): a one-pass reading of the stream as
    getrandbits would not replay them."""

    def random(self):
        return super().random()


def test_random_elements_are_the_checked_draws():
    # randgen hands its terms over unchecked, drawn in one pass; each element
    # must be the one the same draws, taken method by method (rng.choice,
    # rng.randint, the cos/sin unit disk), give through the validating
    # constructor: keys, value bits, key order and types, and the generator
    # must be left in the same state.  Pools of one key, of powers of two
    # keys (where a getrandbits draw is rejected most often) and of other
    # sizes; grade ranges of one, two and four values, and of five, nine
    # and eleven; and a Random subclass, which is drawn through its methods.
    for seed in range(200):
        n, degree = ((1, 0), (1, 1), (1, 3), (1, 7), (2, 2), (3, 4))[seed % 6]
        order, power = (0, 1, 3)[seed % 3], (2, 4, 5)[seed % 3]
        terms = 1 + seed % 9
        q = (0.5, 1.0, 2.0)[seed % 3] * cmath.exp(0.3j * seed)
        pool = qc.multi_indices(n, degree)
        words = tuple(qc.words(n, degree))
        cases = [
            (lambda rng: randgen.random_qpoly(rng, n, q, max_degree=degree, terms=terms),
             lambda d: QPolynomial(n, q, {k: c for (k, _), c in d.items()}), pool, None),
            (lambda rng: randgen.random_free(rng, n, max_len=degree, terms=terms),
             lambda d: FreeElement(n, {a: c for (a, _), c in d.items()}), words, None),
            (lambda rng: randgen.random_laurent(rng, n, max_degree=degree, max_power=power,
                                                terms=terms),
             lambda d: LaurentElement(n, {(k, p): c for (k, p), c in d.items()}), pool,
             lambda rng: rng.randint(-power, power)),
            (lambda rng: randgen.random_hseries(rng, n, order, max_degree=degree, terms=terms),
             lambda d: HSeriesElement(n, order, {(p, k): c for (k, p), c in d.items()}), pool,
             lambda rng: rng.randint(0, order)),
        ]
        kind = (Random, Random, Random, _FloatDrawn)[seed % 4]
        for generate, build, keys, grade in cases:
            rng, reference_rng = kind(seed), kind(seed)
            got = generate(rng)
            expected = build(reference_random_terms(reference_rng, keys, terms, grade))
            assert same_bits(got, expected), (seed, kind)
            assert [type(c) for c in got.terms.values()] == [complex] * len(got.terms)
            assert repr(list(got.terms)) == repr(list(expected.terms))   # int entries
            assert rng.getstate() == reference_rng.getstate(), (seed, kind)
    for seed in range(20):
        rng, reference_rng = Random(seed), Random(seed)
        assert repr(randgen.unit_disk(rng)) == repr(reference_unit_disk(reference_rng))
        assert rng.getstate() == reference_rng.getstate()


def test_polydisk_lift_picks_the_loop_minimiser():
    # outside |log|q|| <= 1e-14 the minimiser is read off the fiber record:
    # the first word of least m for |q| > 1, of greatest m for |q| < 1; inside
    # it the 1e-15 tie rule can chain and the loop runs; at |q| = 1 it is the
    # first word.  Each route gives the reference loop's word and coefficient.
    band = elements._TIE_BAND
    logs = (0.0, 1e-16, -1e-16, 6e-16, -6e-16, 1e-15, -1e-15, 3e-15, -3e-15,
            band, -band, 2 * band, -2 * band, 1e-6, -1e-6, 0.7, -0.7, 30.0, -30.0)
    chained = 0
    for k in ((2, 1), (1, 1, 1), (0, 3, 2), (2, 2, 1), (1, 2, 1, 1), (3, 3), (2, 2, 2)):
        words, ms = qc.fiber(k)
        for log_modulus in logs:
            for phase in (1.0, cmath.exp(0.4j), -1.0):
                q = math.exp(log_modulus) * phase
                got = polydisk_lift(k, q)
                expected = FreeElement(len(k), reference_polydisk_lift(k, q))
                assert same_bits(got, expected), (k, q)
                word, = got.terms
                log_q = math.log(abs(q))
                if log_q == 0.0:
                    assert word == words[0]
                elif abs(log_q) > band:
                    assert word == words[ms.index(min(ms) if log_q > 0 else max(ms))]
                else:
                    extreme = min(ms) if log_q > 0 else max(ms)
                    chained += ms[words.index(word)] != extreme
    # the tie rule does stop short of the extreme m inside the band
    assert chained > 0


def test_phase_powers_stay_in_the_float_range_or_raise():
    # x2^a x1^b = q^{-ab} x1^b x2^a: a phase power whose complex power is
    # finite and nonzero keeps its bits; else it is |q|^e times the unit
    # phase, or OverflowError naming q and e where |q|^e leaves the float
    # range (a true coefficient below the smallest subnormal is not dropped)
    def mul(q, k, l):
        return qpoly_mul(x_mono(2, q, k), x_mono(2, q, l))

    for q, k, l, e in ((1e200, (0, 2), (2, 0), -4), (1e-200, (0, 2), (2, 0), -4),
                       (1e150, (0, 3), (1, 0), -3), (1e200j, (0, 2), (2, 0), -4)):
        with pytest.raises(OverflowError, match=re.escape(f"q**{e} at q = {complex(q)!r}")):
            mul(q, k, l)
    product = mul(1e40, (0, 4), (2, 0))
    assert dict(product.terms) == {(2, 4): 1e-320 + 0j}
    # a non-real q: |q|^-8 = 1e-320 times the unit phase i^-8 = 1
    coeff = mul(1e40j, (0, 4), (2, 0)).terms[2, 4]
    assert abs(coeff - 1e-320) <= 1e-323
    # the same phases through normal_order, q^{-m(alpha)}
    word = (2, 2, 2, 2, 1, 1)   # m = 8
    assert dict(normal_order(FreeElement.word(2, word), 1e40).terms) == {(2, 4): 1e-320 + 0j}
    with pytest.raises(OverflowError, match=r"q\*\*-8 at q"):
        normal_order(FreeElement.word(2, word), 1e200)
    with pytest.raises(OverflowError, match=r"q\*\*-8 at q"):
        normal_order(FreeElement.word(2, word), 1e-200)
    # in range, every power keeps the complex power's bits
    for value in (0.5, 2.0, 0.3 + 0.4j, cmath.exp(0.7j), -1.5, 1e10, 1e-10j):
        q = qc.QParam(value)
        for e in list(range(-120, 121)) + [-2000, 2000, 10 ** 5]:
            try:
                power = q.value ** e
            except (OverflowError, ZeroDivisionError):
                power = 0j
            if power and cmath.isfinite(power):
                assert q.power(e) == power and repr(q.power(e)) == repr(power)
                continue
            try:
                got = q.power(e)
            except OverflowError as exc:
                assert f"q**{e}" in str(exc)
                continue
            assert got and cmath.isfinite(got)
            expected = cmath.exp(e * cmath.log(q.value))
            assert abs(got - expected) <= 1e-9 * abs(expected)


def test_phase_products_on_each_route_raise_alike(monkeypatch):
    # the array route calls the rule once per distinct sigma, as the loop does
    for q in (1e200, 1e-200):
        a = QPolynomial(2, q, {(0, j): 1.0 for j in range(1, 17)})
        b = QPolynomial(2, q, {(j, 0): 1.0 for j in range(1, 17)})
        for cutoff in (math.inf, 1):
            monkeypatch.setattr(elements, "_ARRAY_PAIRS", cutoff)
            with pytest.raises(OverflowError, match=r"at q = "):
                qpoly_mul(a, b)


def test_tau_flip_and_fiber_eval_take_their_powers_from_qparam():
    # tau_flip of x1^2 x2^2 is q^4 x1^2 x2^2 and fiber_eval of x1 z^-3 is
    # q^-3 x1: at |q| = 10^+-200 both leave the float range and raise,
    # naming q and the power, where the complex power gave a NaN coefficient
    for q in (1e200, 1e-200, 1e200j, -1e-200):
        with pytest.raises(OverflowError, match=re.escape(f"q**4 at q = {complex(q)!r}")):
            tau_flip(x_mono(2, q, (2, 2)))
        with pytest.raises(OverflowError, match=re.escape(f"q**-3 at q = {complex(q)!r}")):
            fiber_eval(LaurentElement(2, {((1, 0), -3): 1.0}), q)
    # in range, each coefficient is c times the complex power, bit for bit
    rng = Random("tau-flip-fiber-eval-powers")
    for q in (0.5, 2.0, 0.3 + 0.4j, cmath.exp(0.7j), -1.5, 1e40, 1e-40j):
        a = randgen.random_qpoly(rng, 3, q, max_degree=5, terms=12)
        want = QPolynomial(3, 1 / complex(q), {
            tuple(reversed(k)): c * complex(q) ** qc.cross_degree(k) for k, c in a.terms.items()})
        assert repr(tau_flip(a).terms) == repr(want.terms)
        u = randgen.random_laurent(rng, 3, max_power=6, terms=12)
        want = _Checked()
        for (k, p), c in u.terms.items():
            want[k] = want.get(k, 0.0) + c * complex(q) ** p
        assert repr(fiber_eval(u, q).terms) == repr(QPolynomial(3, q, want).terms)
