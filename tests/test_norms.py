import cmath
import math
from random import Random

import pytest

from qdomains import _mutate, norms, randgen
from qdomains import qcombinat as qc
from qdomains.deform_types import HSeriesElement
from qdomains.elements import FreeElement, LaurentElement, QPolynomial, normal_order, qpoly_mul
from qdomains.norms import (
    BALL,
    CLASSICAL_BALL,
    FORMAL,
    FREE_BALL_BULLET,
    FREE_BALL_CIRC,
    FREE_POLYDISK,
    FREE_TAYLOR,
    LAURENT,
    POLYDISK_L1,
    POLYDISK_L2,
    NormSpec,
    classical_ball_sup_coeff,
    lambda_p_compare,
    monomial_log_norm,
    norm,
    omega,
)

from qdomains.qcombinat import _SCALAR_BATCH, _SCALAR_PROFILES

from oracles import (reference_circ_norm, reference_laurent_norm, reference_qpoly_norm,
                     simplex_monomial_max)


def test_norm_spec_validation():
    with pytest.raises(ValueError):
        NormSpec("no-such-family", 1.0)
    with pytest.raises(ValueError):
        NormSpec(POLYDISK_L1, 0.0)
    with pytest.raises(ValueError):
        NormSpec(FREE_POLYDISK, 1.0, tau=0.5)
    with pytest.raises(ValueError):
        NormSpec(FORMAL, 1.0, order=-1)


def test_polydisk_norm_example():
    a = QPolynomial.monomial(2, 0.5, (1, 1))
    assert norm(a, NormSpec(POLYDISK_L1, 1.0)) == pytest.approx(0.5)
    assert norm(a, NormSpec(POLYDISK_L2, 1.0)) == pytest.approx(0.5)


def test_unit_norm_is_one_for_every_family():
    q = 0.5
    one_q = QPolynomial.one(2, q)
    one_free = FreeElement.one(2)
    one_laurent = LaurentElement.one(2)
    one_h = HSeriesElement.one(2, 3)
    cases = [
        (one_q, NormSpec(POLYDISK_L1, 0.7)),
        (one_q, NormSpec(POLYDISK_L2, 0.7)),
        (one_q, NormSpec(BALL, 0.7)),
        (one_q, NormSpec(CLASSICAL_BALL, 0.7)),
        (one_free, NormSpec(FREE_TAYLOR, 0.7)),
        (one_free, NormSpec(FREE_POLYDISK, 0.7, tau=2.0)),
        (one_free, NormSpec(FREE_BALL_BULLET, 0.7)),
        (one_free, NormSpec(FREE_BALL_CIRC, 0.7)),
        (one_laurent, NormSpec(LAURENT, 0.7, tau=2.0)),
        (one_h, NormSpec(FORMAL, 0.7, order=3)),
    ]
    for element, spec in cases:
        assert norm(element, spec) == pytest.approx(1.0)


def test_free_polydisk_switch_weight():
    a = FreeElement.word(2, (1, 2, 1))
    assert norm(a, NormSpec(FREE_POLYDISK, 1.0, tau=2.0)) == pytest.approx(8.0)


def test_laurent_norm_example():
    a = LaurentElement.monomial(2, (1, 1), -3)
    assert norm(a, NormSpec(LAURENT, 1.0, tau=2.0)) == pytest.approx(4.0)


def test_formal_norm_truncates_at_order():
    a = HSeriesElement(1, 5, {(0, (0,)): 1.0, (2, (0,)): 2.0, (5, (0,)): 4.0})
    assert norm(a, NormSpec(FORMAL, 1.0, order=2)) == pytest.approx(3.0)
    assert norm(a, NormSpec(FORMAL, 1.0, order=5)) == pytest.approx(7.0)


def test_free_ball_norm_grouping():
    # same-profile words combine in quadrature for circ, same-length for bullet
    a = FreeElement(2, {(1, 2): 3.0, (2, 1): 4.0, (1, 1): 12.0})
    assert norm(a, NormSpec(FREE_BALL_CIRC, 1.0)) == pytest.approx(5.0 + 12.0)
    assert norm(a, NormSpec(FREE_BALL_BULLET, 1.0)) == pytest.approx(13.0)


def test_norm_type_mismatch():
    with pytest.raises(TypeError):
        norm(FreeElement.one(2), NormSpec(POLYDISK_L1, 1.0))
    with pytest.raises(TypeError):
        norm(QPolynomial.one(2, 0.5), NormSpec(FREE_TAYLOR, 1.0))
    with pytest.raises(TypeError):
        norm(LaurentElement.one(2), NormSpec(BALL, 1.0))


def test_omega_examples_and_interval_identity():
    assert omega((1, 1), 5) == 5
    assert omega((1, 1), -1) == 0
    assert omega((1, 1), -3) == -2
    for n in (1, 2, 3):
        for k in qc.multi_indices(n, 5):
            s = qc.cross_degree(k)
            for p in range(-40, 41):
                expected = min(abs(v) for v in (p, p + s)) if not p <= 0 <= p + s else 0
                assert abs(omega(k, p)) == expected


def test_lambda_p_compare_example_and_errors():
    holds, constant = lambda_p_compare({(0,): 1.0, (2,): 3.0}, 1, math.inf, 0.5, 1.0)
    assert holds and constant == pytest.approx(2.0)
    holds, constant = lambda_p_compare({(0, 0): 1.0}, 1, 2, 0.5, 1.0)
    assert holds and constant == pytest.approx((1.0 / (1.0 - 0.25)) ** 1.0)
    with pytest.raises(ValueError):
        lambda_p_compare({(0,): 1.0}, 1, 2, 1.0, 0.5)
    with pytest.raises(ValueError):
        lambda_p_compare({(0,): 1.0}, 2, 1, 0.5, 1.0)
    with pytest.raises(ValueError):
        lambda_p_compare({(0,): 1.0}, 3, math.inf, 0.5, 1.0)


def test_lambda_p_compare_random_families():
    rng = Random("lambda")
    for _ in range(30):
        n = 1 + rng.randrange(3)
        pool = qc.multi_indices(n, 5)
        weights = {pool[rng.randrange(len(pool))]: rng.random() for _ in range(10)}
        rho = 0.2 + 0.4 * rng.random()
        tau = rho + 0.2 + 0.4 * rng.random()
        for p, s in ((1, 2), (1, math.inf), (2, math.inf)):
            holds, _ = lambda_p_compare(weights, p, s, rho, tau)
            assert holds


def test_classical_ball_sup_coeff_examples():
    assert classical_ball_sup_coeff((1, 1), 1.0) == pytest.approx(0.5)
    assert classical_ball_sup_coeff((3, 0), 0.8) == pytest.approx(0.8 ** 3)
    assert classical_ball_sup_coeff((2, 1), 1.0) == pytest.approx(math.sqrt(4 / 27))
    assert classical_ball_sup_coeff((0, 0), 2.0) == 1.0


def test_classical_ball_sup_coeff_vs_simplex_oracle():
    for r in (0.7, 1.0, 1.5):
        for n in (1, 2, 3):
            for k in qc.multi_indices(n, 6):
                closed = classical_ball_sup_coeff(k, r)
                numeric = simplex_monomial_max(k, r)
                assert closed == pytest.approx(numeric, rel=1e-6)


def test_sandwich_between_ball_and_polydisk():
    rng = Random("sandwich")
    for modulus in (0.5, 2.0):
        base = modulus ** -2 if modulus > 1 else modulus ** 2
        for n in (2, 3):
            const = qc.q_pochhammer_inf(base, base).value ** (n / 2.0)
            for _ in range(60):
                q = modulus * cmath.exp(2j * math.pi * rng.random())
                a = randgen.random_qpoly(rng, n, q, max_degree=5, terms=6)
                for rho in (0.3, 1.0):
                    nd = norm(a, NormSpec(POLYDISK_L1, rho))
                    nb = norm(a, NormSpec(BALL, rho))
                    assert nb <= nd * (1 + 1e-12)
                    assert const * nd <= nb * (1 + 1e-12)


def test_quotient_contraction_and_attainment():
    rng = Random("quotient")
    rho = 0.7
    for _ in range(100):
        q = (0.5, 2.0, cmath.exp(0.7j))[rng.randrange(3)]
        f = randgen.random_free(rng, 2, max_len=4, terms=5)
        image = normal_order(f, q)
        assert norm(image, NormSpec(POLYDISK_L1, rho)) <= \
            norm(f, NormSpec(FREE_TAYLOR, rho)) * (1 + 1e-12)
        assert norm(image, NormSpec(BALL, rho)) <= \
            norm(f, NormSpec(FREE_BALL_CIRC, rho)) * (1 + 1e-12)


def test_bullet_circ_equivalence():
    # ||f||^bullet_rho <= ||f||^circ_rho <= C ||f||^bullet_rho1 with
    # C = sup_d |(Z_+^n)_d|^(1/2) (rho/rho1)^d computed numerically
    rng = Random("bullet-circ")
    rho, rho1 = 0.5, 0.8
    for _ in range(300):
        n = 2 + rng.randrange(2)
        constant = max(math.comb(d + n - 1, n - 1) ** 0.5 * (rho / rho1) ** d
                       for d in range(200))
        f = randgen.random_free(rng, n, max_len=5, terms=6)
        bullet = norm(f, NormSpec(FREE_BALL_BULLET, rho))
        circ = norm(f, NormSpec(FREE_BALL_CIRC, rho))
        assert bullet <= circ * (1 + 1e-12)
        assert circ <= constant * norm(f, NormSpec(FREE_BALL_BULLET, rho1)) * (1 + 1e-12)


def test_blowup_sequence():
    q = 0.5
    for m in range(1, 6):
        prod = qpoly_mul(QPolynomial.monomial(2, q, (0, m)),
                         QPolynomial.monomial(2, q, (m, 0)))
        classical = QPolynomial(2, 1.0, dict(prod.terms))
        assert norm(classical, NormSpec(POLYDISK_L1, 1.0)) == pytest.approx(
            2.0 ** (m * m), rel=1e-12)
    assert 2.0 ** 25 > 1e6


def test_qpoly_norms_are_the_term_by_term_sums():
    # the weights of an element come from one batch route and one factorial
    # table; the sum is the per-term formula, bit for bit
    rng = Random("qpoly-norm-route")
    for i in range(60):
        n = 1 + i % 3
        q = (0.3, 0.9, 1.0, 1.6)[i % 4] * cmath.exp(1j * rng.uniform(-3.0, 3.0))
        a = randgen.random_qpoly(rng, n, q, max_degree=(4, 9, 30)[i % 3], terms=1 + i % 7)
        rho = rng.uniform(0.2, 1.5)
        for family in (POLYDISK_L1, POLYDISK_L2, BALL):
            assert norm(a, NormSpec(family, rho)) == reference_qpoly_norm(a, family, rho)
        for k in a.terms:
            for family in (POLYDISK_L1, BALL, CLASSICAL_BALL):
                single = QPolynomial(n, q, {k: 1.0})
                assert math.exp(monomial_log_norm(k, family, rho, q)) == norm(
                    single, NormSpec(family, rho))
    with pytest.raises(ValueError):
        monomial_log_norm((2, -1), BALL, 0.5, 0.5)
    with pytest.raises(ValueError):
        monomial_log_norm((2, 1), FREE_TAYLOR, 0.5, 0.5)


def test_circ_norm_off_the_record_counts_profiles_only(monkeypatch):
    # the circ norm of an element that is not a ball lift needs the letter
    # profiles alone: no inversion count runs, on the scalar route or the
    # numpy one
    def no_inversions(*args):
        raise AssertionError("inversions counted for a norm")

    monkeypatch.setattr(qc, "word_stats", no_inversions)
    monkeypatch.setattr(qc, "inversions", no_inversions)
    rng = Random("circ-off-record")
    padded = []   # the batch size of each numpy profile pass
    padded_profiles = qc._padded_profiles
    monkeypatch.setattr(qc, "_padded_profiles",
                        lambda rows, n: padded.append(len(rows)) or padded_profiles(rows, n))
    for size in (1, _SCALAR_BATCH - 1, _SCALAR_BATCH, 3 * _SCALAR_BATCH,
                 _SCALAR_PROFILES - 1, _SCALAR_PROFILES):
        for n in (1, 2, 3):
            f = randgen.random_free(rng, n, max_len=6, terms=size)
            for rho in (0.4, 1.3):
                padded.clear()
                assert norm(f, NormSpec(FREE_BALL_CIRC, rho)) == reference_circ_norm(f, rho)
                # the scalar loop below the profiles' own cutoff, one pass from it on
                assert padded == ([len(f.terms)] if len(f.terms) >= _SCALAR_PROFILES else [])
    for bad in ([(0, 1)], [(3,)], [(1,), (-1, 2)]):
        for batch in (bad, bad * _SCALAR_BATCH):
            with pytest.raises(ValueError):
                qc.word_profiles(batch, 2)


def _fresh_norm_tables(monkeypatch):
    for memo in (norms._held_pool, norms._held_factors):
        monkeypatch.setattr(memo, "store", {})
        monkeypatch.setattr(memo, "total", 0)


def _odd_coefficients(a, rng):
    """a with NaN, infinite and signed-zero-part coefficients swapped in."""
    odd = [math.nan, math.inf, complex(-0.0, 1.5), complex(0.25, -0.0), complex(-math.inf, 1.0)]
    terms = dict(a.terms)
    for key in rng.sample(sorted(terms, key=repr), min(3, len(terms))):
        terms[key] = rng.choice(odd)
    return type(a)(a.n, *a._params(), terms)


def _table_cases():
    rng = Random("norm-tables")
    cases = []
    for i, modulus in enumerate((0.5, 2.0, 1.0, 1e300, 1e-300)):
        q = modulus * cmath.exp(0.4j * i)
        for n in (1, 2, 3):
            for top in (3, 8):
                a = _odd_coefficients(randgen.random_qpoly(rng, n, q, max_degree=top, terms=7), rng)
                for family in (POLYDISK_L1, POLYDISK_L2, BALL, CLASSICAL_BALL):
                    for rho in (0.5, 1.3, 1e160):
                        cases.append((a, NormSpec(family, rho)))
    # ||x1 x2|| alone leaves the float range, |c| ||x1 x2|| does not
    far = QPolynomial(2, 1e-300, {(1, 1): 1.0, (0, 0): 1.0, (2, 1): 0.5j})
    cases += [(far, NormSpec(family, 1e160)) for family in (POLYDISK_L1, POLYDISK_L2, BALL)]
    for n in (2, 3):
        for top in (3, 8):
            a = randgen.random_laurent(rng, n, max_degree=top, max_power=5, terms=8)
            for tau in (1.0, 1.7):
                cases.append((_odd_coefficients(a, rng), NormSpec(LAURENT, 0.8, tau=tau)))
                cases.append((a, NormSpec(LAURENT, 0.8, tau=tau)))
    return cases


def _outcome(a, spec) -> str:
    try:
        return repr(norm(a, spec))
    except OverflowError:   # the norm itself leaves the float range
        return "OverflowError"


def test_warm_norm_tables_give_the_cold_bits(monkeypatch):
    # each norm reads its monomial factors from a table held per parameter
    # set; a table read warm, after the other cases, gives the bits of a
    # norm from an empty store, NaN, inf and -0.0 parts included
    cases = _table_cases()
    cold = []
    for a, spec in cases:
        _fresh_norm_tables(monkeypatch)
        cold.append(_outcome(a, spec))
    for (a, spec), expected in reversed(list(zip(cases, cold))):
        assert _outcome(a, spec) == expected, (a, spec)
    assert cold.count("OverflowError") < len(cold) // 2
    assert any(spec.rho == 1e160 and value not in ("OverflowError", "inf", "nan")
               for (_, spec), value in zip(cases, cold))
    for memo in (norms._held_pool, norms._held_factors):
        assert memo.store and memo.total == sum(map(memo.size, memo.store.values()))
    # the clean elements against the per-term formulas
    for (a, spec), expected in zip(cases, cold):
        if all(map(cmath.isfinite, a.terms.values())) and spec.rho < 1e100:
            if spec.family == LAURENT:
                assert expected == repr(reference_laurent_norm(a, spec.rho, spec.tau))
            elif spec.family != CLASSICAL_BALL:
                assert expected == repr(reference_qpoly_norm(a, spec.family, spec.rho))


def test_norm_tables_follow_the_mutation_in_force(monkeypatch):
    # a table is keyed by the mutation in force: set in process, each weight
    # mutation moves the warm norms of its families by 1e-6, omega moves the
    # Laurent norms, and the others keep their bits; reset, every norm reads
    # its old bits again
    cases = [(a, spec) for a, spec in _table_cases()
             if all(map(cmath.isfinite, a.terms.values())) and spec.rho < 1e100]
    warm = [norm(a, spec) for a, spec in cases]
    for mutation, moved in (("weight-ball", {BALL}), ("omega", {LAURENT}),
                            ("weight-polydisk", {POLYDISK_L1, POLYDISK_L2})):
        monkeypatch.setattr(_mutate, "_active", mutation)
        for (a, spec), value in zip(cases, warm):
            mutated = norm(a, spec)
            if spec.family not in moved or value == 0.0:
                assert repr(mutated) == repr(value), (mutation, spec)
            elif spec.family != LAURENT:
                assert mutated / value - 1.0 == pytest.approx(1e-6, rel=1e-6), (mutation, spec)
            elif spec.tau > 1.0 and any(p for _, p in a.terms):
                assert mutated != value
        monkeypatch.setattr(_mutate, "_active", "")
        assert [repr(norm(a, spec)) for a, spec in cases] == list(map(repr, warm))


def test_norm_pools_past_the_cap_are_the_element_keys(monkeypatch):
    # where the held pool would pass _POOL_CAP keys the norm indexes the
    # element's own keys: the per-term formulas' bits, and the held route's
    rng = Random("norm-pool-cap")
    for n, top in ((2, 140), (3, 40)):
        a = randgen.random_qpoly(rng, n, 0.7, max_degree=top, terms=12)
        b = randgen.random_laurent(rng, n, max_degree=top, max_power=5, terms=12)
        assert norms._pool(n, a.terms)[1] is None
        assert norms._pool(n, [k for k, _ in b.terms])[1] is None
        for family in (POLYDISK_L1, POLYDISK_L2, BALL):
            expected = reference_qpoly_norm(a, family, 0.9)
            assert repr(norm(a, NormSpec(family, 0.9))) == repr(expected)
        assert repr(norm(b, NormSpec(LAURENT, 0.9, tau=1.3))) == repr(
            reference_laurent_norm(b, 0.9, 1.3))
    cases = _table_cases()
    held = [_outcome(a, spec) for a, spec in cases]
    monkeypatch.setattr(norms, "_POOL_CAP", 0)
    _fresh_norm_tables(monkeypatch)
    assert [_outcome(a, spec) for a, spec in cases] == held
    assert not norms._held_factors.store and not norms._held_pool.store
