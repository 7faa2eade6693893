import math
import re
from random import Random

import numpy as np
import pytest
from oracles import reference_operator_matrix

from qdomains import fock, qcombinat as qc, randgen
from qdomains.elements import QPolynomial


def test_truncation_validation():
    with pytest.raises(ValueError):
        fock.FockTruncation(2, 1.0, 4)
    with pytest.raises(ValueError):
        fock.FockTruncation(2, 0.0, 4)
    with pytest.raises(ValueError):
        fock.FockTruncation(0, 0.5, 4)


def test_generator_step_examples():
    tr = fock.FockTruncation(1, 0.5, 5, reach=1)
    coeff, target = fock.fock_apply_generator(1, (0,), tr)
    assert coeff == pytest.approx(math.sqrt(0.75)) and target == (1,)
    coeff, target = fock.fock_apply_generator(1, (1,), tr)
    assert coeff == pytest.approx(math.sqrt(0.75 * 1.25)) and target == (2,)
    tr2 = fock.FockTruncation(2, 0.5, 2, reach=1)
    coeff, target = fock.fock_apply_generator(1, (0, 1), tr2)
    assert coeff == pytest.approx(math.sqrt(0.75) * 0.5) and target == (1, 1)
    with pytest.raises(ValueError):
        fock.fock_apply_generator(1, (6,), tr)
    with pytest.raises(ValueError):
        fock.fock_apply_generator(3, (0, 0), tr2)


def test_commutation_relation_on_basis():
    # x_i x_j = q x_j x_i as operators, checked on every truncated basis vector
    for q in (0.3, 0.6):
        for n in (2, 3):
            tr = fock.FockTruncation(n, q, 3, reach=2)
            coords = QPolynomial.coordinates(n, q)
            for k in qc.multi_indices(n, 3):
                e_k = {k: 1.0}
                for i in range(n):
                    for j in range(i + 1, n):
                        lhs = fock.fock_apply(coords[i], fock.fock_apply(coords[j], e_k, tr), tr)
                        rhs = fock.fock_apply(coords[j], fock.fock_apply(coords[i], e_k, tr), tr)
                        keys = set(lhs) | set(rhs)
                        for key in keys:
                            assert lhs.get(key, 0.0) == pytest.approx(
                                q * rhs.get(key, 0.0), abs=1e-12)


def test_vacuum_image_examples():
    assert fock.vacuum_image((1, 1), 0.5) == pytest.approx(0.375, rel=1e-12)
    # single variable: no tail phase
    for m in range(6):
        q = 0.5
        expected = math.sqrt(qc.q_factorial(m, q * q).real) * (1 - q * q) ** (m / 2.0)
        assert fock.vacuum_image((m,), q) == pytest.approx(expected, rel=1e-12)


def test_vacuum_image_matches_composition():
    for q in (0.3, 0.5, 0.8):
        for n in (1, 2, 3):
            for k in qc.multi_indices(n, 5):
                tr = fock.FockTruncation(n, q, 0, reach=sum(k))
                mono = QPolynomial.monomial(n, q, k)
                image = fock.fock_apply(mono, {(0,) * n: 1.0}, tr)
                assert set(image) <= {tuple(k)}
                assert image.get(tuple(k), 0.0) == pytest.approx(
                    fock.vacuum_image(k, q), rel=1e-12)


def test_identity_acts_trivially():
    tr = fock.FockTruncation(2, 0.5, 2, reach=0)
    v = {(1, 0): 0.3, (0, 2): -0.7j}
    out = fock.fock_apply(QPolynomial.one(2, 0.5), v, tr)
    for key in set(v) | set(out):
        assert out.get(key, 0.0) == pytest.approx(v.get(key, 0.0))


def test_op_norm_bounds_examples():
    x = QPolynomial.monomial(1, 0.5, (1,))
    bounds = fock.op_norm_bounds(x, 0.5, 1.0, 5)
    assert bounds.lower == pytest.approx(math.sqrt(1 - 0.5 ** 12), rel=1e-12)
    assert bounds.upper == pytest.approx(1.0)
    one = QPolynomial.one(2, 0.5)
    b1 = fock.op_norm_bounds(one, 0.5, 1.0, 3)
    assert b1.lower == pytest.approx(1.0, rel=1e-12)
    assert b1.upper == pytest.approx(1.0)
    assert b1.vacuum == pytest.approx(1.0)
    pair = QPolynomial.monomial(2, 0.5, (1, 1))
    b2 = fock.op_norm_bounds(pair, 0.5, 1.0, 4)
    assert b2.vacuum == pytest.approx(0.375, rel=1e-12)
    assert b2.lower >= 0.375 - 1e-12


def test_generator_norm_limit():
    x = QPolynomial.monomial(1, 0.5, (1,))
    bounds = fock.op_norm_bounds(x, 0.5, 1.0, 20)
    assert bounds.lower >= 1.0 - 1e-10
    assert bounds.lower <= 1.0 + 1e-12


def test_lower_bounds_monotone_in_degree():
    rng = Random("fock-mono")
    for _ in range(10):
        n = 1 + rng.randrange(2)
        q = (0.3, 0.7)[rng.randrange(2)]
        a = randgen.random_qpoly(rng, n, q, max_degree=2, terms=4)
        lowers = [fock.op_norm_bounds(a, q, 1.0, d).lower for d in range(2, 11)]
        for lo, hi in zip(lowers, lowers[1:]):
            assert lo <= hi + 1e-12


def test_vaksman_sandwich_random():
    rng = Random("vaksman")
    for i in range(30):
        q = (0.3, 0.5, 0.8)[i % 3]
        rho = (0.5, 1.0)[i % 2]
        a = randgen.random_qpoly(rng, 2, q, max_degree=3, terms=5)
        report = fock.vaksman_sandwich_check(a, q, rho, 5)
        assert report["identity_error"] <= 1e-12
        assert report["lower_slack"] >= -1e-10 * report["bounds"].upper
        assert report["vacuum_slack"] >= -1e-12 * max(report["bounds"].vacuum, 1.0)


def test_q_outside_range_rejected():
    a = QPolynomial.monomial(1, 0.5, (1,))
    with pytest.raises(ValueError, match=re.escape("the representation needs 0 < q < 1")):
        fock.op_norm_bounds(a, 1.5, 1.0, 4)


def test_element_at_another_q_is_refused():
    # the representation at q acts on the algebra at q only: each route
    # that takes an element refuses one at another q, naming both
    a = QPolynomial(2, 0.2, {(1, 1): 1.0, (2, 3): 1.0})
    trunc = fock.FockTruncation(2, 0.9, 4, reach=5)
    routes = (lambda q: fock.op_norm_bounds(a, q, 1.0, 4),
              lambda q: fock._lower_bounds(a, q, 1.0, (2, 4)),
              lambda q: fock.vacuum_vector_image(a, q),
              lambda q: fock.fock_apply(a, {(0, 0): 1.0}, trunc),
              lambda q: fock.vaksman_sandwich_check(a, q, 1.0, 4))
    for route in routes:
        with pytest.raises(ValueError, match=re.escape(
                "the element's q = (0.2+0j) is not the representation's q = 0.9")):
            route(0.9)
    for route in routes[:3] + routes[4:]:
        route(0.2)


def _fock_cases():
    # n = 1..3, q in {0.3, 0.5, 0.7, 0.95}, |m| <= 4, degree <= 5, and one
    # n = 3, degree-12 element
    rng = Random("fock-closed-form")
    for n in (1, 2, 3):
        for q in (0.3, 0.5, 0.7, 0.95):
            for degree in (0, 2, 5):
                a = randgen.random_qpoly(rng, n, q, max_degree=4, terms=5)
                yield a, q, rng.choice((0.5, 1.0, 1.7)), degree
    yield randgen.random_qpoly(rng, 3, 0.6, max_degree=3, terms=6), 0.6, 0.8, 12


def _relative(got, want):
    return float(np.max(np.abs(got - want))) / max(float(np.max(np.abs(want))), 1e-300)


def test_closed_form_columns_match_letter_by_letter_reference():
    for n in (1, 2, 3):
        for q in (0.3, 0.5, 0.7, 0.95):
            domain = qc.multi_indices(n, 5)
            for m in qc.multi_indices(n, 4):
                ref = reference_operator_matrix(QPolynomial.monomial(n, q, m), q, 1.0, 5)
                codomain = qc.multi_indices(n, 5 + sum(m))
                rows = [codomain.index(tuple(x + y for x, y in zip(k, m))) for k in domain]
                want = ref[rows, range(len(domain))].real
                # the same factors multiplied in the same order: equal bit for bit
                assert np.array_equal(fock._monomial_column(m, q, 5), want), (m, q)


def test_normal_matrix_and_lower_bound_match_letter_by_letter_reference():
    for a, q, rho, degree in _fock_cases():
        ref = reference_operator_matrix(a, q, rho, degree)
        normal = ref.conj().T @ ref
        lower = fock._normal_lower(a, q, rho, degree)
        assert _relative(lower, np.tril(normal)) <= 1e-14, (a.n, q, degree)
        want = math.sqrt(max(float(np.linalg.eigvalsh(normal)[-1]), 0.0))
        got = fock.op_norm_bounds(a, q, rho, degree).lower
        assert abs(got - want) <= 1e-14 * want, (a.n, q, degree)


def test_normal_matrix_of_the_zero_element_is_zero():
    for n, degree in ((1, 4), (2, 3), (3, 0)):
        lower = fock._normal_lower(QPolynomial.zero(n, 0.5), 0.5, 0.8, degree)
        size = len(qc.multi_indices(n, degree))
        assert lower.shape == (size, size) and not lower.any()
        assert fock.op_norm_bounds(QPolynomial.zero(n, 0.5), 0.5, 0.8, degree).lower == 0.0


def test_lower_bounds_by_degree_are_sub_blocks_of_one_build():
    rng = Random("fock-sub-blocks")
    for i in range(12):
        n, q = 1 + i % 3, (0.3, 0.7, 0.95)[i % 3]
        a = randgen.random_qpoly(rng, n, q, max_degree=2, terms=4)
        degrees = range(2, 11 if n < 3 else 8)
        fresh = [fock.op_norm_bounds(a, q, 1.0, d).lower for d in degrees]
        shared = fock._lower_bounds(a, q, 1.0, degrees)
        for d, got, want in zip(degrees, shared, fresh):
            assert abs(got - want) <= 1e-14 * want, (n, q, d)


_FOCK_MEMOS = (fock._letter_tables, fock._domain, fock._monomial_column,
               fock._shift_pairs, fock._pair_plan)


def _fresh_fock_stores(monkeypatch, budget):
    for memo in _FOCK_MEMOS:
        monkeypatch.setattr(memo, "budget", budget)
        monkeypatch.setattr(memo, "store", {})
        monkeypatch.setattr(memo, "total", 0)


def _cli_mix_shapes():
    # the fock-norm shapes of the cli-mix benchmark: n = 3, 6 terms of
    # degree <= 3, truncation degrees 8 and 12
    rng = Random("fock-held")
    return [(randgen.random_qpoly(rng, 3, q, max_degree=3, terms=6), q, rho, degree)
            for q, rho, degree in ((0.45, 0.7, 8), (0.62, 0.9, 12))]


def test_fock_tables_are_held_once_within_their_budget(monkeypatch):
    _fresh_fock_stores(monkeypatch, 2 ** 16)
    shapes = _cli_mix_shapes()
    first = [fock.op_norm_bounds(*shape) for shape in shapes]
    held = [dict(memo.store) for memo in _FOCK_MEMOS]
    # every table built passes through _frozen; the second calls build none
    frozen = []
    monkeypatch.setattr(fock, "_frozen", frozen.append)
    assert [fock.op_norm_bounds(*shape) for shape in shapes] == first
    assert frozen == []
    for memo, tables in zip(_FOCK_MEMOS, held):
        assert memo.store.keys() == tables.keys() and tables, memo.__name__
        assert all(memo.store[key] is table for key, table in tables.items())
        assert memo.total == sum(map(fock._entries, tables.values())) <= memo.budget
        # every held array is read-only, shared by every caller
        for table in tables.values():
            for part in (table,) if isinstance(table, np.ndarray) else table:
                assert isinstance(part, dict) or not part.flags.writeable, memo.__name__


def test_fock_tables_over_the_budget_are_returned_unheld(monkeypatch):
    shapes = _cli_mix_shapes()
    _fresh_fock_stores(monkeypatch, 2 ** 16)
    want = [fock.op_norm_bounds(*shape) for shape in shapes]
    _fresh_fock_stores(monkeypatch, 0)
    assert [fock.op_norm_bounds(*shape) for shape in shapes] == want
    assert all(memo.store == {} and memo.total == 0 for memo in _FOCK_MEMOS)


def test_fock_table_sizes_count_array_entries_and_map_keys():
    ks, where = fock._domain(2, 3)
    assert fock._entries((ks, where)) == ks.size + len(where) == 2 * 10 + 10
    column = fock._monomial_column((1, 0), 0.5, 3)
    assert fock._entries(column) == len(column) == 10
    assert fock._entries(fock._letter_tables(0.5, 4)) == 10
