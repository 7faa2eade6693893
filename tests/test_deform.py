import cmath
import math
from random import Random

import numpy as np
import pytest

from qdomains import _mutate, deform, elements, qcombinat as qc, randgen, suites
from qdomains.deform_types import FormalFreeElement, HSeriesElement
from qdomains.elements import LaurentElement, QPolynomial, fiber_eval, qpoly_mul
from qdomains.norms import BALL, POLYDISK_L1, NormSpec, norm

from oracles import (array_route_outcomes, derivative_poisson_bracket, empty_fiber_store,
                     on_each_route, reference_defect_terms, reference_formal_ball_lift,
                     reference_normal_order_formal, reference_poisson_bracket,
                     reference_star_product, same_bits)


def test_sigma_examples():
    assert deform.sigma((1, 0), (0, 1)) == 1
    assert deform.sigma((0, 1), (1, 0)) == 0
    assert deform.sigma((2, 1), (1, 3)) == 6


def test_star_generator_rule():
    x1 = HSeriesElement.monomial(2, 2, (1, 0))
    x2 = HSeriesElement.monomial(2, 2, (0, 1))
    ordered = deform.star_product(x1, x2)
    assert dict(ordered.terms) == {(0, (1, 1)): pytest.approx(1.0)}
    flipped = deform.star_product(x2, x1)
    assert flipped.terms[(0, (1, 1))] == pytest.approx(1.0)
    assert flipped.terms[(1, (1, 1))] == pytest.approx(-1j)
    assert flipped.terms[(2, (1, 1))] == pytest.approx(-0.5)


def test_star_unit_and_monomial_rule():
    rng = Random("star")
    for _ in range(50):
        f = randgen.random_hseries(rng, 2, 3, max_degree=3, terms=4)
        assert deform.star_product(f, HSeriesElement.one(2, 3)).allclose(f)
    for _ in range(100):
        n = 2 + rng.randrange(2)
        pool = qc.multi_indices(n, 5)
        k = pool[rng.randrange(len(pool))]
        l = pool[rng.randrange(len(pool))]
        prod = deform.star_product(HSeriesElement.monomial(n, 3, k),
                                   HSeriesElement.monomial(n, 3, l))
        target = tuple(a + b for a, b in zip(k, l))
        s = qc.sigma(l, k)
        for p in range(4):
            expected = (-1j * s) ** p / math.factorial(p)
            assert prod.terms.get((p, target), 0.0) == pytest.approx(expected, abs=1e-13)


def test_star_associativity_random():
    rng = Random("star-assoc")
    for i in range(50):
        order = 2 + i % 3
        f = randgen.random_hseries(rng, 2, order, max_degree=4, terms=4)
        g = randgen.random_hseries(rng, 2, order, max_degree=4, terms=4)
        u = randgen.random_hseries(rng, 2, order, max_degree=4, terms=4)
        left = deform.star_product(deform.star_product(f, g), u)
        right = deform.star_product(f, deform.star_product(g, u))
        assert left.allclose(right, tol=1e-9)


def test_star_zero_order_is_commutative_product():
    rng = Random("star-h0")
    f = randgen.random_hseries(rng, 2, 0, max_degree=3, terms=4)
    g = randgen.random_hseries(rng, 2, 0, max_degree=3, terms=4)
    prod = deform.star_product(f, g)
    fp = QPolynomial(2, 1.0, {k: c for (p, k), c in f.terms.items()})
    gp = QPolynomial(2, 1.0, {k: c for (p, k), c in g.terms.items()})
    commutative = qpoly_mul(fp, gp)
    for (p, k), c in prod.terms.items():
        assert p == 0
        assert c == pytest.approx(commutative.terms.get(k, 0.0), abs=1e-12)


def test_routed_deformation_products_equal_reference_loops():
    rng = Random("routed-deform")
    spec = NormSpec(POLYDISK_L1, 0.9)
    for trial in range(150):
        n = 1 + trial % 3
        order = trial % 4
        f = randgen.random_hseries(rng, n, order + trial % 2, max_degree=3, terms=6)
        g = randgen.random_hseries(rng, n, order, max_degree=3, terms=6)
        for star_order in (None, max(order - 1, 0)):
            got = deform.star_product(f, g, order=star_order)
            used = order if star_order is None else star_order
            expected = HSeriesElement(n, used, reference_star_product(f, g, used))
            assert got == expected and list(got.terms) == list(expected.terms)
        # at q = 1 with shared supports, many pairs have a zero bracket factor
        a = randgen.random_qpoly(rng, n, 1.0, max_degree=2, terms=6)
        b = a + randgen.random_qpoly(rng, n, 1.0, max_degree=2, terms=2)
        got = deform.poisson_bracket(a, b)
        expected = QPolynomial(n, 1.0, reference_poisson_bracket(a, b))
        assert got == expected and list(got.terms) == list(expected.terms)
        h = (0.3, -0.05, 1.1)[trial % 3]
        defect = QPolynomial(n, cmath.exp(1j * h), reference_defect_terms(a, b, h))
        assert deform.quantization_defect(a, b, h, spec) == norm(defect, spec)
    # 500 x 50 terms, as the cli-mix star documents are: the array route
    f, g = (HSeriesElement(3, 3, _sampled_terms(rng, 3, 3, size)) for size in (500, 50))
    for star_order in (None, 2):
        got = deform.star_product(f, g, order=star_order)
        used = 3 if star_order is None else star_order
        expected = HSeriesElement(3, used, reference_star_product(f, g, used))
        assert got == expected and list(got.terms) == list(expected.terms)


def _sampled_terms(rng, n, order, size, nan=False):
    """size distinct (h-power, exponent vector) keys of h-power at most
    order and the least degree that has that many, with coefficients in
    the unit disk; with nan, the first coefficient is NaN."""
    degree = 0
    while (order + 1) * len(qc.multi_indices(n, degree)) < size:
        degree += 1
    keys = rng.sample([(p, k) for p in range(order + 1)
                       for k in qc.multi_indices(n, degree)], size)
    values = [randgen.unit_disk(rng) for _ in keys]
    if nan:
        values[0] = complex(math.nan, 1.0)
    return dict(zip(keys, values))


# (n, terms of f, terms of g): around the cutoff, n = 1, and wider
ROUTE_CASES = {
    "below-cutoff": (3, 17, 15),
    "at-cutoff": (3, 16, 16),
    "one-variable": (1, 30, 20),
    "wide": (2, 60, 25),
}


@pytest.mark.parametrize("n, size_f, size_g", ROUTE_CASES.values(), ids=ROUTE_CASES)
def test_deformation_array_routes_are_the_pair_loop_bit_for_bit(monkeypatch, n, size_f,
                                                                size_g):
    rng = Random(f"deform-routes-{n}-{size_f}-{size_g}")
    spec = NormSpec(POLYDISK_L1, 0.9)
    for nan in (False, True):
        f = HSeriesElement(n, 3, _sampled_terms(rng, n, 3, size_f, nan))
        g = HSeriesElement(n, 3, _sampled_terms(rng, n, 3, size_g, nan))
        # q = 1 elements, the second sharing part of the first's support, so
        # that many pairs have a zero bracket
        a = QPolynomial(n, 1.0, {k: c for (p, k), c in f.terms.items() if p == 0}
                        | {k: c for (p, k), c in g.terms.items()})
        b = QPolynomial(n, 1.0, {k: -c for (p, k), c in f.terms.items() if p == 1}
                        | {k: c for (p, k), c in g.terms.items() if p > 1})
        star_1_pairs = sum(p <= 1 for p, _ in f.terms) * len(g.terms)
        plain_pairs = len(a.terms) * len(b.terms)
        products = [(lambda: deform.star_product(f, g), len(f.terms) * len(g.terms)),
                    (lambda: deform.star_product(f, g, order=1), star_1_pairs),
                    (lambda: deform.poisson_bracket(a, b), plain_pairs),
                    (lambda: deform.quantization_defect(a, b, 0.3, spec), plain_pairs)]
        # the defect's product itself, as the norm would receive it
        monkeypatch.setattr(deform, "norm", lambda element, spec: element)
        for product, pairs in products:
            loop, arrays, outcomes = on_each_route(monkeypatch, product)
            assert outcomes == [True] and same_bits(arrays, loop), nan
            # at the shipped cutoff, the route follows the pair count
            taken = array_route_outcomes(monkeypatch)
            assert same_bits(product(), loop), nan
            assert taken == [True] * (pairs >= elements._ARRAY_PAIRS)


def test_formal_lift_and_ordering_equal_reference_loops():
    rng = Random("formal-words")
    for trial in range(100):
        n = 1 + trial % 4
        order = trial % 4
        pool = list(qc.words(n, (3, 5)[trial % 2]))
        terms = {}
        for _ in range(1 + trial % 12):
            key = (rng.randrange(order + 1), pool[rng.randrange(len(pool))])
            terms[key] = terms.get(key, 0.0) + randgen.unit_disk(rng)
        u = FormalFreeElement(n, order, terms)
        got = deform.normal_order_formal(u)
        expected = HSeriesElement(n, order, reference_normal_order_formal(u))
        assert got == expected and list(got.terms) == list(expected.terms)
    for k in ((2, 1), (1, 1, 1), (0, 3, 2), (2, 2, 1), (1, 2, 1, 1), (3, 3, 3),
              (2, 3, 3)):
        for order in (0, 2, 4):
            got = deform.formal_ball_lift(k, order)
            expected = FormalFreeElement(len(k), order, reference_formal_ball_lift(k, order))
            assert got == expected and list(got.terms) == list(expected.terms)
            ordered = deform.normal_order_formal(got)
            reference = HSeriesElement(len(k), order, reference_normal_order_formal(got))
            assert ordered == reference and list(ordered.terms) == list(reference.terms)
    # two profiles mixed, h-powers in scrambled order: each profile's
    # running sums start at different h-powers, and some sums are first
    # reached from a lower h-power than they started at
    n, order = 3, 4
    pool = qc.fiber_words((2, 1, 1)) + qc.fiber_words((1, 1, 2))
    for trial in range(20):
        terms = {}
        for _ in range(10 + trial):
            key = (rng.randrange(order + 1), pool[rng.randrange(len(pool))])
            terms[key] = terms.get(key, 0.0) + randgen.unit_disk(rng)
        u = FormalFreeElement(n, order, terms)
        assert len({qc.word_profile(alpha, n) for _, alpha in u.terms}) == 2
        got = deform.normal_order_formal(u)
        expected = HSeriesElement(n, order, reference_normal_order_formal(u))
        assert got == expected and list(got.terms) == list(expected.terms)


def _bits(e):
    return [(key, c.real.hex(), c.imag.hex()) for key, c in e.terms.items()]


def test_formal_ordering_array_pass_equals_reference_loop_bit_for_bit():
    # the largest lift: its 30,237 terms span many array chunks, and each
    # sum carries on from one chunk to the next
    u = deform.formal_ball_lift((3, 2, 2, 2), 3)
    assert len(u.terms) == 30237
    got = deform.normal_order_formal(u)
    assert _bits(got) == _bits(HSeriesElement(4, 3, reference_normal_order_formal(u)))
    # products with a -0.0 part: the reference adds them to a sum that
    # starts at 0.0, so (h = 0, (1, 1)) has imaginary part 0.0 and
    # (h = 1, (2, 0)) real part 0.0, not -0.0
    u = FormalFreeElement(2, 2, {(0, (1, 2)): complex(-1.0, -0.0),
                                 (1, (1, 1)): complex(-0.0, 1.0),
                                 (0, (2, 1)): 0.5 - 0.25j})
    got = deform.normal_order_formal(u)
    expected = HSeriesElement(2, 2, reference_normal_order_formal(u))
    assert _bits(got) == _bits(expected)
    assert math.copysign(1.0, got.terms[(1, (2, 0))].real) == 1.0


def test_formal_ordering_reads_the_fiber_record(monkeypatch):
    # the formal lift's words are the held fiber record's; its ordering
    # reads their statistics from the record, or computes them once the
    # record is no longer held, and equals the per-word loop bit for bit,
    # in the same key order
    for k in ((2, 1), (0, 3, 2), (3, 2, 2), (2, 2, 1, 1), (3, 3, 3)):
        n = len(k)
        for order in (0, 3):
            u = deform.formal_ball_lift(k, order)
            words = [alpha for p, alpha in u.terms if p == 0]
            expected = HSeriesElement(n, order, reference_normal_order_formal(u))
            for evict in (False, True):
                if evict:
                    empty_fiber_store(monkeypatch)
                qc.fiber((1,) * n if evict else k)
                assert (qc._fiber_stats(words, n) is None) == evict
                got = deform.normal_order_formal(u)
                assert got == expected and list(got.terms) == list(expected.terms)


def _counted_word_stats(monkeypatch):
    """A list that grows by one per word_stats call the ordering makes."""
    calls = []
    word_stats = qc.word_stats
    monkeypatch.setattr(qc, "word_stats", lambda words, n: calls.append(len(words))
                        or word_stats(words, n))
    return calls


def _ordered_bits(u):
    """(bits of normal_order_formal(u), bits of the reference loop)."""
    return (_bits(deform.normal_order_formal(u)),
            _bits(HSeriesElement(u.n, u.order, reference_normal_order_formal(u))))


def test_formal_ordering_reads_p_and_m_from_the_lift_layout(monkeypatch):
    # a lift keeps its layout with its terms: its ordering reads each term's
    # code from it, chunk by chunk, and asks word_stats for nothing, also
    # after a newer lift of the fiber and once the record is no longer
    # held; look-alikes of the lift, an equal-keyed copy among them, take
    # the term loop.  Both equal the reference loop bit for bit.
    calls = _counted_word_stats(monkeypatch)
    monkeypatch.setattr(deform, "_SCALAR_ORDERING", 0)   # every lift takes the table route
    inf, nan = math.inf, math.nan
    for chunk in (deform._ORDERING_CHUNK, 7):
        monkeypatch.setattr(deform, "_ORDERING_CHUNK", chunk)
        for k in ((2, 1), (0, 3, 2), (3, 2, 2), (2, 2, 1, 1)):
            n = len(k)
            u = deform.formal_ball_lift(k, 3)
            got, expected = _ordered_bits(u)
            assert got == expected and calls == []
            # the same keys, rebuilt by the public constructor, with odd values:
            # -0.0 parts, inf and NaN (a product with 0 would give NaN)
            odd = [complex(-0.0, 1.0), complex(inf, 0.0), complex(1.0, -0.0),
                   complex(nan, -1.0), complex(0.0, -inf), 0.25 - 0.5j]
            same_keys = FormalFreeElement(n, 3, {key: odd[i % len(odd)]
                                                 for i, key in enumerate(u.terms)})
            got, expected = _ordered_bits(same_keys)
            assert got == expected and calls
            calls.clear()
            # look-alikes: a reordered copy and one foreign word in place of
            # the last
            items = list(u.terms.items())
            (p, alpha), c = items[-1]
            foreign = (p, (alpha[0] % n + 1,) + alpha[1:])   # a word of another profile
            look_alikes = [FormalFreeElement(n, 3, dict(items[::-1])),
                           FormalFreeElement(n, 3, dict(items[:-1] + [(foreign, c)]))]
            assert len(look_alikes[1].terms) == len(u.terms)
            for copy in look_alikes:
                got, expected = _ordered_bits(copy)
                assert got == expected and calls, k
                calls.clear()
            # the lift before a newer one of its fiber, here at another order
            other = deform.formal_ball_lift(k, 1)
            got, expected = _ordered_bits(u)
            assert got == expected and calls == []
            got, expected = _ordered_bits(other)
            assert got == expected and calls == []
            # the record is no longer held; the layout stays with the lift
            empty_fiber_store(monkeypatch)
            got, expected = _ordered_bits(other)
            assert got == expected and calls == []


def test_formal_ordering_loop_and_array_pass_agree_bit_for_bit(monkeypatch):
    # a lift below _SCALAR_ORDERING terms is ordered by the term loop, from
    # it on by the table route, and every other element by the loop: on
    # either side of the cutoff, and with the cutoff moved past every
    # element or to none, each gives the reference loop's bits
    rng = Random("formal-routes")
    inf, nan = math.inf, math.nan
    odd = [complex(-0.0, 1.0), complex(inf, 0.0), complex(1.0, -0.0), complex(nan, -1.0),
           complex(-1.0, -0.0), 0.25 - 0.5j]
    cases = [FormalFreeElement(2, 2, {}), FormalFreeElement(1, 0, {(0, ()): 2.0})]
    for trial in range(30):
        n, order = 1 + trial % 3, trial % 4
        pool = list(qc.words(n, 4))
        size = (1, deform._SCALAR_ORDERING - 1, deform._SCALAR_ORDERING, 90)[trial % 4]
        terms = {(rng.randrange(order + 1), pool[rng.randrange(len(pool))]): odd[i % len(odd)]
                 if trial % 3 == 0 else randgen.unit_disk(rng) for i in range(size)}
        cases.append(FormalFreeElement(n, order, terms))
    for k in ((2, 1), (1, 1, 1), (2, 2, 1), (3, 2, 2)):
        cases.append(deform.formal_ball_lift(k, 3))
    for u in cases:
        expected = _bits(HSeriesElement(u.n, u.order, reference_normal_order_formal(u)))
        for cutoff, chunk in ((deform._SCALAR_ORDERING, deform._ORDERING_CHUNK),
                              (math.inf, deform._ORDERING_CHUNK), (0, 5), (0, 2048)):
            monkeypatch.setattr(deform, "_SCALAR_ORDERING", cutoff)
            monkeypatch.setattr(deform, "_ORDERING_CHUNK", chunk)
            assert _bits(deform.normal_order_formal(u)) == expected, (len(u.terms), cutoff)


def _counted_routes(monkeypatch):
    """A list that grows by "table" or "loop" per ordering each route makes."""
    routes = []
    for name, route in (("_lift_ordering", "table"), ("_ordering_loop", "loop")):
        run = getattr(deform, name)
        monkeypatch.setattr(deform, name, lambda *args, run=run, route=route:
                            routes.append(route) or run(*args))
    return routes


def test_formal_lift_ordering_from_its_layout_is_the_term_loop_bit_for_bit(monkeypatch):
    # a lift of _SCALAR_ORDERING terms or more is ordered from the layout its
    # terms hold, with no word_stats call, and gives the bits of the term
    # loop on an equal dict-backed copy, of u * 1.0 and of the reference
    # loop.  So is a lift kept alive after a newer lift of its fiber, one
    # whose record is no longer held, and one whose fiber came back.
    stats = _counted_word_stats(monkeypatch)
    routes = _counted_routes(monkeypatch)

    def ordered(u, route):
        got, expected = _ordered_bits(u)
        assert got == expected
        assert routes == [route] and bool(stats) == (route == "loop"), (route, u)
        stats.clear()
        routes.clear()
        return got

    for chunk in (deform._ORDERING_CHUNK, 7):
        monkeypatch.setattr(deform, "_ORDERING_CHUNK", chunk)
        for k in ((2, 2, 1), (3, 2, 2), (2, 2, 1, 1), (4, 4)):
            n = len(k)
            for order in range(5):
                u = deform.formal_ball_lift(k, order)
                route = "loop" if len(u.terms) < deform._SCALAR_ORDERING else "table"
                copy = FormalFreeElement(n, order, dict(u.terms))
                assert ordered(u, route) == ordered(copy, "loop") == ordered(u * 1.0, "loop")
            # a newer lift of the fiber leaves the older one its layout
            older = deform.formal_ball_lift(k, 3)
            newer = deform.formal_ball_lift(k, 2)
            assert ordered(older, "table") == ordered(FormalFreeElement(n, 3, dict(older.terms)),
                                                      "loop")
            ordered(newer, "table")
            # the held record holds no lift: it is the fiber's words and
            # inversions
            terms = dict(newer.terms)
            del newer
            record = qc._fiber_record.store[(k,)]
            assert record is qc.fiber(k) and tuple(map(type, record)) == (tuple, tuple)
            ordered(FormalFreeElement(n, 2, terms), "loop")
            # the record is no longer held; the lift keeps its layout
            lift = deform.formal_ball_lift(k, 3)
            empty_fiber_store(monkeypatch)
            ordered(lift, "table")
            qc.fiber(k)   # the record is back
            ordered(lift, "table")


def test_lift_terms_answer_as_a_dict_does():
    # a lift's terms are its key and value lists with its layout beside
    # them; every read answers as the dict over them does, for lifts below
    # and above _SCALAR_ORDERING terms, and the mapping is read-only
    sizes = set()
    for k in ((2, 1), (2, 2, 1), (3, 2, 2)):
        n = len(k)
        first = min(qc.fiber_words(k))   # no inversion: only its h^0 term is nonzero
        for order in range(5):
            u = deform.formal_ball_lift(k, order)
            terms = u.terms
            sizes.add(len(terms) < deform._SCALAR_ORDERING)
            d = dict(terms)
            copy = FormalFreeElement(n, order, d)
            assert type(copy.terms) is not type(terms)
            # the keys are built before the lift returns: the same objects each time
            assert all(a is b for a, b in zip(terms, terms)) and len(list(terms)) == len(d)
            assert list(terms) == list(d) and list(terms.keys()) == list(d.keys())
            assert list(terms.values()) == list(d.values()) and len(terms.values()) == len(d)
            assert list(terms.items()) == list(d.items()) and len(terms.items()) == len(d)
            assert len(terms) == len(d) and terms == d and d == terms and terms != {}
            for key, c in d.items():
                assert terms[key] == c and terms.get(key) == c and terms.get(key, 7) == c
                assert key in terms and key in terms.keys() and (key, c) in terms.items()
            for miss in ((0, ()), (order + 1, first), (1, first), "x"):
                assert (miss in terms) == (miss in d) and terms.get(miss, 7) == d.get(miss, 7)
                if miss not in d:
                    assert terms.get(miss) is None
                    with pytest.raises(KeyError):
                        terms[miss]
            for p in range(order + 2):
                assert list(u.coefficient(p).items()) == list(copy.coefficient(p).items())
            assert u == copy and copy == u and hash(u) == hash(copy)
            assert u.allclose(copy, tol=0.0) and copy.allclose(u, tol=0.0)
            for a, b in ((u + u, copy + copy), (u + copy, copy + u), (u - copy, copy - copy),
                         (u * 2.0, copy * 2.0), (0.5j * u, 0.5j * copy)):
                assert _bits(a) == _bits(b)
            with pytest.raises(TypeError):
                terms[next(iter(d))] = 1.0
            with pytest.raises(TypeError):
                del terms[next(iter(d))]
            assert dict(terms) == d
            # an element of the lift's n and order adopts its terms; one of
            # another n or order checks and copies them, and is ordered as a copy
            assert FormalFreeElement(n, order, terms).terms is terms
            for other in (FormalFreeElement(n + 1, order, terms),
                          FormalFreeElement(n, order + 1, terms)):
                assert type(other.terms) is type(copy.terms) and dict(other.terms) == d
                got, expected = _ordered_bits(other)
                assert got == expected
            if order:
                with pytest.raises(ValueError, match="h-power"):
                    FormalFreeElement(n, order - 1, terms)
    assert sizes == {True, False}


def test_formal_ordering_phase_table_is_a_mutation_point(monkeypatch):
    # (2, 1) at order 2 is ordered by the term loop, (2, 2, 1) at order 2
    # (89 terms) from its layout; the hook bumps the phases of both
    stats = _counted_word_stats(monkeypatch)
    for k in ((2, 1), (2, 2, 1)):
        monkeypatch.setattr(_mutate, "_active", "")
        u = deform.formal_ball_lift(k, 2)
        good = deform.normal_order_formal(u)
        monkeypatch.setattr(_mutate, "_active", "formal-order-phase")
        stats.clear()
        bumped = deform.normal_order_formal(u)
        assert (stats == []) == (len(u.terms) >= deform._SCALAR_ORDERING), k
        assert bumped.terms[(0, k)] == pytest.approx(good.terms[(0, k)] * (1 + 1e-6),
                                                     rel=1e-12)
    assert suites.run_suite("formal-lift-8-39").status == "fail"


def test_formal_lift_coefficients_are_a_mutation_point(monkeypatch):
    # the hook bumps every coefficient of the lift, and the table route
    # reads the same bumped series: it orders the lift as the term loop
    # orders an equal copy
    k, order = (2, 2, 1), 3
    good = deform.formal_ball_lift(k, order)
    monkeypatch.setattr(_mutate, "_active", "formal-lift-coefficient")
    u = deform.formal_ball_lift(k, order)
    assert list(u.terms) == list(good.terms)
    for key, c in u.terms.items():
        assert c == good.terms[key] * (1 + 1e-6)
    got, expected = _ordered_bits(u)
    assert got == expected == _ordered_bits(FormalFreeElement(3, order, dict(u.terms)))[0]
    assert suites.run_suite("formal-lift-8-39").status == "fail"


def test_evaluate_h_matches_fiber_product():
    rng = Random("star-fiber")
    for h0 in (0.1, 0.05, 0.01):
        order = 8
        f = randgen.random_qpoly(rng, 2, 1.0, max_degree=3, terms=4)
        g = randgen.random_qpoly(rng, 2, 1.0, max_degree=3, terms=4)
        fh = HSeriesElement.from_coefficients(2, order, {0: dict(f.terms)})
        gh = HSeriesElement.from_coefficients(2, order, {0: dict(g.terms)})
        star_eval = deform.evaluate_h(deform.star_product(fh, gh), h0)
        q_h = cmath.exp(1j * h0)
        direct = qpoly_mul(QPolynomial(2, q_h, dict(f.terms)),
                           QPolynomial(2, q_h, dict(g.terms)))
        sig_max = max((qc.sigma(l, k) for k in f.terms for l in g.terms), default=0)
        mass = (sum(abs(c) for c in f.terms.values())
                * sum(abs(c) for c in g.terms.values()))
        bound = 2.0 * mass * (sig_max * h0) ** (order + 1) / math.factorial(order + 1)
        keys = set(star_eval.terms) | set(direct.terms)
        for key in keys:
            assert abs(star_eval.terms.get(key, 0.0)
                       - direct.terms.get(key, 0.0)) <= bound + 1e-12


def test_poisson_bracket_examples():
    x1 = QPolynomial.monomial(2, 1.0, (1, 0))
    x2 = QPolynomial.monomial(2, 1.0, (0, 1))
    assert dict(deform.poisson_bracket(x1, x2).terms) == {(1, 1): pytest.approx(1.0)}
    f = QPolynomial.monomial(2, 1.0, (2, 0))
    g = QPolynomial.monomial(2, 1.0, (0, 1))
    assert dict(deform.poisson_bracket(f, g).terms) == {(2, 1): pytest.approx(2.0)}
    h = randgen.random_qpoly(Random("pb"), 2, 1.0, max_degree=3, terms=4)
    assert dict(deform.poisson_bracket(h, h).terms) == {}
    with pytest.raises(ValueError):
        deform.poisson_bracket(QPolynomial.one(2, 0.5), QPolynomial.one(2, 0.5))


def test_poisson_bracket_matches_derivative_oracle():
    rng = Random("pb-oracle")
    for _ in range(50):
        n = 2 + rng.randrange(2)
        f = randgen.random_qpoly(rng, n, 1.0, max_degree=3, terms=4)
        g = randgen.random_qpoly(rng, n, 1.0, max_degree=3, terms=4)
        bracket = deform.poisson_bracket(f, g)
        oracle = derivative_poisson_bracket(dict(f.terms), dict(g.terms), n)
        keys = set(bracket.terms) | set(oracle)
        for key in keys:
            assert bracket.terms.get(key, 0.0) == pytest.approx(
                oracle.get(key, 0.0), abs=1e-10)


def test_quantization_defect_examples():
    spec = NormSpec(POLYDISK_L1, 1.0)
    x1 = QPolynomial.monomial(2, 1.0, (1, 0))
    x2 = QPolynomial.monomial(2, 1.0, (0, 1))
    h = 0.01
    defect = deform.quantization_defect(x1, x2, h, spec)
    assert defect == pytest.approx(abs((1 - cmath.exp(-1j * h)) / h - 1j), rel=1e-12)
    assert abs(defect / 0.005 - 1.0) <= 0.05
    assert deform.commutator_defect(x1, x2, h, spec) == pytest.approx(defect, rel=1e-10)
    f = randgen.random_qpoly(Random("defect"), 2, 1.0, max_degree=3, terms=4)
    assert deform.quantization_defect(f, f, h, spec) <= 1e-15
    with pytest.raises(ValueError):
        deform.quantization_defect(x1, x2, 0.0, spec)


def test_quantization_defect_takes_commutative_inputs():
    # q != 1 inputs used to be multiplied as if commutative
    spec = NormSpec(POLYDISK_L1, 1.0)
    for q in (0.5, cmath.exp(0.3j)):
        x1 = QPolynomial.monomial(2, q, (1, 0))
        x2 = QPolynomial.monomial(2, q, (0, 1))
        with pytest.raises(ValueError, match="commutative"):
            deform.quantization_defect(x1, x2, 0.01, spec)
        with pytest.raises(ValueError, match="commutative"):
            deform.poisson_bracket(x1, x2)


def test_defect_halving_ratio():
    rng = Random("halving")
    spec = NormSpec(POLYDISK_L1, 1.0)
    for _ in range(50):
        f = randgen.random_qpoly(rng, 2, 1.0, max_degree=3, terms=4)
        g = randgen.random_qpoly(rng, 2, 1.0, max_degree=3, terms=4)
        for h in (1e-2, 1e-3):
            d1 = deform.quantization_defect(f, g, h, spec)
            d2 = deform.quantization_defect(f, g, h / 2, spec)
            if d1 <= 1e-14:
                continue
            assert 1.8 <= d1 / d2 <= 2.2


def test_formal_ball_lift_examples():
    for m in range(1, 6):
        u = deform.formal_ball_lift((m, 0), 3)
        assert dict(u.terms) == {(0, (1,) * m): pytest.approx(1.0)}
    u = deform.formal_ball_lift((1, 1), 1)
    assert u.terms[(0, (1, 2))] == pytest.approx(0.5)
    assert u.terms[(0, (2, 1))] == pytest.approx(0.5)
    assert u.terms[(1, (2, 1))] == pytest.approx(0.5j)
    assert (1, (1, 2)) not in u.terms


def test_formal_lift_ordering_identity():
    for n in (1, 2, 3):
        for k in qc.multi_indices(n, 4):
            u = deform.formal_ball_lift(k, 3)
            pushed = deform.normal_order_formal(u)
            expected = HSeriesElement.monomial(n, 3, k)
            assert pushed.allclose(expected, tol=1e-10)


def test_bundle_scan_constant_fields():
    one = LaurentElement.one(2)
    result = deform.bundle_scan(one, POLYDISK_L1, 1.0, deform.circle_path(0.5, 16))
    assert all(value == pytest.approx(1.0) for _, value in result.rows)
    assert result.max_jump == 0.0

    pair = LaurentElement.monomial(2, (1, 1), 0)
    result = deform.bundle_scan(pair, POLYDISK_L1, 1.0, deform.circle_path(0.5, 32))
    assert all(value == pytest.approx(0.5, rel=1e-12) for _, value in result.rows)


def test_bundle_scan_arc_through_one():
    # field |q - 1| * w_q((1,1)) vanishes continuously at q = 1
    pair = (LaurentElement.monomial(2, (1, 1), 1)
            - LaurentElement.monomial(2, (1, 1), 0))
    samples = [cmath.exp(1j * t) for t in
               [(-0.1 + 0.2 * i / 255) for i in range(256)]]
    result = deform.bundle_scan(pair, POLYDISK_L1, 1.0, samples)
    values = [v for _, v in result.rows]
    arc_length = sum(abs(b - a) for a, b in
                     zip(samples, samples[1:]))
    global_slope = (max(values) - min(values)) / arc_length
    assert result.max_jump <= 3.0 * result.spacing * global_slope
    assert min(values) == pytest.approx(0.0, abs=1e-3)


def _scan_values(a, family, rho, samples):
    result = deform.bundle_scan(a, family, rho, samples)
    assert [q for q, _ in result.rows] == [complex(q) for q in samples]
    assert all(type(v) is float for _, v in result.rows)
    return [v for _, v in result.rows]


def _per_sample(a, family, rho, samples):
    # the route the vectorized scan replaces: one QPolynomial and norm per q
    return [norm(fiber_eval(a, q), NormSpec(family, rho)) for q in samples]


@pytest.mark.parametrize("family", [POLYDISK_L1, BALL])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bundle_scan_matches_per_sample_norm(n, family):
    rng = Random(f"scan:{n}:{family}")
    samples = (deform.circle_path(0.8, 24) + deform.circle_path(1.0, 24)
               + deform.circle_path(1.25, 24) + deform.ray_path(2.1, 24, 0.3, 2.5)
               + [1, -1, 1j])
    for _ in range(3):
        a = randgen.random_laurent(rng, n, max_degree=5, max_power=3, terms=10)
        rho = rng.uniform(0.4, 1.6)
        assert _scan_values(a, family, rho, samples) == pytest.approx(
            _per_sample(a, family, rho, samples), rel=1e-12, abs=0.0)


def test_bundle_scan_large_degree_ball_branch():
    # t = |q|^2 = 9 and |k| >= 40 put log [j]_t on its closed form for j > 27
    rng = Random(40)
    terms = {}
    for k in ((14, 13, 13), (20, 21, 0), (0, 0, 44), (12, 11, 17)):
        for p in (-2, 0, 3):
            terms[(k, p)] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    a = LaurentElement(3, terms)
    samples = deform.circle_path(3.0, 16) + deform.ray_path(-0.7, 16, 2.5, 3.5)
    for family in (BALL, POLYDISK_L1):
        assert _scan_values(a, family, 0.6, samples) == pytest.approx(
            _per_sample(a, family, 0.6, samples), rel=1e-12, abs=0.0)


def test_bundle_scan_exact_cancellation_and_empty():
    # x z - x z^{-1} has the zero fiber at q = 1 and q = -1
    a = LaurentElement(1, {((1,), 1): 1.0, ((1,), -1): -1.0})
    samples = [1, -1, 1j, 0.5, 2.0]
    for family in (POLYDISK_L1, BALL):
        values = _scan_values(a, family, 1.0, samples)
        assert values[:2] == [0.0, 0.0]
        assert values == pytest.approx(_per_sample(a, family, 1.0, samples),
                                       rel=1e-12, abs=0.0)
        empty = _scan_values(LaurentElement.zero(3), family, 1.0, samples)
        assert empty == [0.0] * len(samples)
        # |c q^2| = 5e-13 at |q| = 0.5 is not zero, so it is kept, as
        # QPolynomial keeps it
        tiny = LaurentElement(2, {((1, 1), 2): 2e-12})
        tiny_samples = [0.5, -0.5, 0.5j, 1.0]
        values = _scan_values(tiny, family, 1.0, tiny_samples)
        assert all(value > 0.0 for value in values)
        assert values == pytest.approx(_per_sample(tiny, family, 1.0, tiny_samples),
                                       rel=1e-12, abs=0.0)


def test_bundle_scan_errors():
    one = LaurentElement.one(2)
    with pytest.raises(ValueError):
        deform.bundle_scan(one, POLYDISK_L1, 1.0, [0.5, 0.0])
    with pytest.raises(ValueError):
        deform.bundle_scan(one, "free-taylor", 1.0, [0.5])
    for rho in (math.nan, math.inf, -math.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="rho"):
            deform.bundle_scan(one, POLYDISK_L1, rho, [0.5])
    for bad in (math.nan, math.inf, complex(0.5, math.nan), complex(-math.inf, 1.0)):
        with pytest.raises(ValueError, match="samples must be finite"):
            deform.bundle_scan(one, POLYDISK_L1, 1.0, [0.5, bad])
    huge = LaurentElement.monomial(2, (20, 20), 0)
    with pytest.raises(OverflowError):
        _per_sample(huge, BALL, 1e10, [1.0])
    with pytest.raises(OverflowError):
        deform.bundle_scan(huge, BALL, 1e10, [0.5, 1.0])


def test_bundle_scan_reads_any_non_finite_value_as_overflow():
    # x z^1100 - x z^1101 at |q| = 2: both powers overflow, and their
    # difference, a NaN, was dropped as if it were 0, so the scan read 0.0
    a = LaurentElement(1, {((1,), 1100): 1.0, ((1,), 1101): -1.0})
    with pytest.raises(OverflowError):
        _per_sample(a, POLYDISK_L1, 1.0, [2.0])
    for family in (POLYDISK_L1, BALL):
        with pytest.raises(OverflowError):
            deform.bundle_scan(a, family, 1.0, deform.circle_path(2.0, 4))
    # an exact zero is still dropped, even against an infinite weight
    b = LaurentElement(1, {((2,), 1): 1.0, ((2,), -1): -1.0})
    assert _scan_values(b, POLYDISK_L1, 1e300, [1, -1]) == [0.0, 0.0]


def test_path_helpers_reject_non_finite_numbers_and_bad_sample_counts(monkeypatch):
    for radius in (math.nan, math.inf, -math.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="circle radius"):
            deform.circle_path(radius, 4)
    for theta, r_min, r_max in ((math.nan, 0.5, 2.0), (math.inf, 0.5, 2.0), (0.5, 0.5, math.inf),
                                (0.5, math.nan, 2.0), (0.5, 0.5, math.nan), (0.5, 2.0, 0.5),
                                (0.5, 0.0, 2.0)):
        with pytest.raises(ValueError, match="finite theta"):
            deform.ray_path(theta, 4, r_min, r_max)
    monkeypatch.setattr(qc, "ENUMERATION_CAP", 8)
    for path in (lambda samples: deform.circle_path(1.0, samples),
                 lambda samples: deform.ray_path(0.5, samples)):
        for samples in (0, -3, 9):
            with pytest.raises(ValueError, match=f"need 1 to 8 samples, got {samples}"):
                path(samples)
        assert len(path(8)) == 8 and len(path(1)) == 1


def test_path_helpers():
    circle = deform.circle_path(2.0, 8)
    assert len(circle) == 8
    assert all(abs(abs(q) - 2.0) < 1e-12 for q in circle)
    ray = deform.ray_path(0.5, 5, 0.5, 2.0)
    assert len(ray) == 5
    assert abs(ray[0]) == pytest.approx(0.5)
    assert abs(ray[-1]) == pytest.approx(2.0)
    assert all(abs(cmath.phase(q) - 0.5) < 1e-12 for q in ray)
    # r_max / r_min = 1e400 is past the float range; the radii step in log space
    wide = deform.ray_path(0.0, 5, 1e-200, 1e200)
    assert all(map(cmath.isfinite, wide))
    assert [abs(q) for q in wide] == pytest.approx([1e-200, 1e-100, 1.0, 1e100, 1e200],
                                                   rel=1e-12, abs=0.0)
