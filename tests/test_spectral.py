import cmath
import math
from random import Random

import pytest

from qdomains import randgen, spectral
from qdomains.elements import FreeElement, QPolynomial
from qdomains.norms import BALL, FREE_POLYDISK, FREE_TAYLOR, POLYDISK_L1, NormSpec
from qdomains.qcombinat import ENUMERATION_CAP, EnumerationCapExceeded

UNIMODULAR = cmath.exp(1j * math.pi / 4)


def test_tuple_spec_validation():
    gens = tuple(QPolynomial.coordinates(2, 0.5))
    with pytest.raises(ValueError):
        spectral.TupleSpec(gens, NormSpec(POLYDISK_L1, 1.0), 3, 5)
    with pytest.raises(ValueError):
        spectral.TupleSpec(gens, NormSpec(POLYDISK_L1, 1.0), 2, 0)
    mixed = (gens[0], QPolynomial.monomial(2, 0.7, (0, 1)))
    with pytest.raises(ValueError):
        spectral.TupleSpec(mixed, NormSpec(POLYDISK_L1, 1.0), 2, 5)


@pytest.mark.parametrize("gens, family", [
    (tuple(FreeElement.generators(2)), BALL),
    (tuple(QPolynomial.coordinates(2, 0.5)), FREE_TAYLOR),
], ids=["free-generators-ball", "qpoly-generators-free-taylor"])
def test_tuple_spec_rejects_a_family_of_the_other_generator_type(gens, family):
    # the closed-form route once raised ValueError and the enumerated one TypeError
    with pytest.raises(TypeError, match=f"family {family!r} does not apply"):
        spectral.TupleSpec(gens, NormSpec(family, 0.9), 2, 3)


def test_single_generator_depth_values():
    ts = spectral.coordinate_tuple(1, NormSpec(POLYDISK_L1, 0.6), 2, 6, q=1.0)
    for d in range(1, 7):
        assert spectral.radius_estimate(ts, d) == pytest.approx(0.6, rel=1e-12)


def test_polydisk_coordinate_value_exact():
    for n in (2, 3):
        for rho in (0.5, 1.0):
            ts = spectral.coordinate_tuple(n, NormSpec(POLYDISK_L1, rho), 2, 10,
                                           q=UNIMODULAR)
            for d in range(1, 11):
                assert spectral.radius_estimate(ts, d) == pytest.approx(
                    rho * math.sqrt(n), rel=1e-12)


def test_ball_coordinate_value_closed_form():
    ts = spectral.coordinate_tuple(2, NormSpec(BALL, 1.0), 2, 10, q=UNIMODULAR)
    assert spectral.radius_estimate(ts, 2) == pytest.approx(3 ** 0.25, rel=1e-12)
    previous = math.inf
    for d in range(1, 11):
        value = spectral.radius_estimate(ts, d)
        expected = math.comb(d + 1, 1) ** (1.0 / (2 * d))
        assert value == pytest.approx(expected, rel=1e-12)
        assert value < previous
        assert value > 1.0
        previous = value


def test_grouping_matches_enumeration():
    for modulus in (0.5, 2.0):
        for family in (POLYDISK_L1, BALL):
            for p in (1, 2, math.inf):
                ts = spectral.coordinate_tuple(2, NormSpec(family, 0.9), p, 4, q=modulus)
                for d in range(1, 5):
                    fast = spectral.radius_estimate(ts, d)
                    slow = spectral.radius_estimate(ts, d, force_enumeration=True)
                    assert fast == pytest.approx(slow, rel=1e-12)


def test_free_coordinate_values_match_enumeration():
    # the closed forms of the free coordinate tuples, among them the
    # free-polydisk finite-p and free-taylor p = inf branches, against the
    # word-by-word enumeration
    for family, tau in ((FREE_POLYDISK, 1.0), (FREE_POLYDISK, 1.5), (FREE_TAYLOR, 1.0)):
        for n in (1, 2, 3):
            for p in (1, 2, math.inf):
                ts = spectral.coordinate_tuple(n, NormSpec(family, 0.9, tau=tau), p, 4)
                for d in range(1, 5):
                    fast = spectral.radius_estimate(ts, d)
                    slow = spectral.radius_estimate(ts, d, force_enumeration=True)
                    assert fast == pytest.approx(slow, rel=1e-12), (family, tau, n, p, d)


def test_lp_ordering_random_tuples():
    rng = Random("lp")
    for _ in range(40):
        gens = tuple(randgen.random_qpoly(rng, 2, 0.5, max_degree=2, terms=3)
                     for _ in range(2))
        values = {}
        for p in (1, 2, math.inf):
            ts = spectral.TupleSpec(gens, NormSpec(POLYDISK_L1, 0.8), p, 3)
            values[p] = spectral.radius_estimate(ts, 3)
        assert values[math.inf] <= values[2] * (1 + 1e-12)
        assert values[2] <= values[1] * (1 + 1e-12)


def test_enumeration_cap():
    gens = tuple(randgen.random_qpoly(Random("cap"), 2, 0.5, max_degree=1, terms=2)
                 for _ in range(2))
    ts = spectral.TupleSpec(gens, NormSpec(POLYDISK_L1, 0.8), 2, 20)
    assert 2 ** 20 > ENUMERATION_CAP
    with pytest.raises(EnumerationCapExceeded):
        spectral.radius_estimate(ts, 20)


def test_contractive_check_pass_and_fail():
    taylor = spectral.TupleSpec(tuple(FreeElement.generators(2)),
                                NormSpec(FREE_TAYLOR, 0.5), math.inf, 8)
    verdict = spectral.contractive_check(taylor, 1.0)
    assert verdict.verdict == "pass"
    assert all(v == pytest.approx(0.5, rel=1e-12) for v in verdict.values)

    witness = spectral.TupleSpec(tuple(FreeElement.generators(2)),
                                 NormSpec(FREE_POLYDISK, 0.5, tau=2.0), math.inf, 8)
    failing = spectral.contractive_check(witness, 0.9)
    assert failing.verdict == "fail"
    assert failing.witness_value == pytest.approx(1.0, rel=1e-12)

    zero = spectral.TupleSpec((FreeElement.zero(2), FreeElement.zero(2)),
                              NormSpec(FREE_TAYLOR, 0.5), math.inf, 5)
    assert spectral.contractive_check(zero, 0.1).verdict == "pass"


def test_poincare_gap_examples():
    gap = spectral.poincare_gap(2, UNIMODULAR, 1.0, 10)
    assert gap.polydisk == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert 1.0 < gap.ball <= 11 ** 0.05 * (1 + 1e-12)
    one = spectral.poincare_gap(1, 1.0, 0.7, 10)
    assert one.polydisk == pytest.approx(0.7, rel=1e-12)
    assert one.ball == pytest.approx(0.7, rel=1e-12)
    deep = spectral.poincare_gap(2, UNIMODULAR, 1.0, 50)
    assert deep.polydisk / deep.ball > 1.35
    assert deep.ball == pytest.approx(51 ** 0.01, rel=1e-12)
    with pytest.raises(ValueError):
        spectral.poincare_gap(2, 0.5, 1.0, 10)
    with pytest.raises(ValueError):
        spectral.poincare_gap(2, UNIMODULAR, 1.0, 3)


def test_rho_grid_and_report():
    grid = spectral.rho_grid(1.0)
    assert len(grid) == 8
    assert grid[0] == pytest.approx(0.5)
    assert all(a < b for a, b in zip(grid, grid[1:]))
    ts = spectral.coordinate_tuple(2, NormSpec(POLYDISK_L1, 0.5), 2, 5, q=UNIMODULAR)
    report = spectral.radius_report(ts, r=1.0)
    assert report.depths == [1, 2, 3, 4, 5]
    # sup over the grid approaches r * sqrt(n) from below
    assert report.sup_values is not None
    assert all(v == pytest.approx(grid[-1] * math.sqrt(2), rel=1e-12)
               for v in report.sup_values)
    assert all(v == pytest.approx(0.5 * math.sqrt(2), rel=1e-12) for v in report.values)


def test_norm_monotone_coordinate_pair():
    for d in range(1, 9):
        ball = spectral.coordinate_tuple(2, NormSpec(BALL, 0.8), 2, 8, q=0.5)
        poly = spectral.coordinate_tuple(2, NormSpec(POLYDISK_L1, 0.8), 2, 8, q=0.5)
        assert spectral.radius_estimate(ball, d) <= \
            spectral.radius_estimate(poly, d) * (1 + 1e-12)
