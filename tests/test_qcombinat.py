import cmath
import importlib
import itertools
import math
import pkgutil
import re
import sys
import threading
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path
from random import Random

import numpy as np
import pytest

import qdomains
from qdomains import _mutate, deform, randgen, spectral, suites
from qdomains import qcombinat as qc
from qdomains._held import held
from qdomains.elements import ball_lift, normal_order, polydisk_lift
from qdomains.norms import POLYDISK_L1, NormSpec
from qdomains.qcombinat import _SCALAR_BATCH, _SCALAR_PROFILES, EnumerationCapExceeded, QParam

from oracles import (brute_fiber, brute_inversions, brute_mahonian_sum, brute_profile,
                     brute_sigma, direct_log_q_int, empty_fiber_store, exact_ball_weight_sq,
                     exact_log, exact_mahonian_sum, gaussian_multinomial_by_division,
                     reference_held_store, total_degree_indices)

# mpmath-verified infinite products (30 digits), frozen
POCH_HALF_HALF = 0.288788095086602421278899721929
POCH_QUARTER_QUARTER = 0.688537537120339715456514357294


def test_qparam_rejects_zero():
    with pytest.raises(ValueError):
        QParam(0.0)


def test_qparam_caches_modulus():
    qp = QParam(2j)
    assert qp.modulus == 2.0
    assert qp.log_modulus == pytest.approx(math.log(2.0), rel=1e-15)


def test_q_int_examples():
    assert qc.q_int(3, 0.5) == pytest.approx(1.75)
    for q in (0.3, 2.0, 1j):
        assert qc.q_int(0, q) == 0
    assert qc.q_int(4, 1.0) == pytest.approx(4.0)


def test_q_factorial_examples():
    assert qc.q_factorial(2, 0.5) == pytest.approx(1.5)
    for q in (0.5, 2.0, cmath.exp(0.3j)):
        assert qc.q_factorial((1, 1), q) == pytest.approx(1.0)
    assert qc.q_factorial((2, 1), 0.5) == pytest.approx(1.5)


def test_q_factorial_matches_scalar_product():
    q = 0.7
    value = qc.q_factorial((2, 3), q)
    assert value == pytest.approx(qc.q_factorial(2, q) * qc.q_factorial(3, q), rel=1e-14)


def test_q_factorial_takes_any_integral_scalar():
    q = cmath.exp(0.4j)
    for k in (np.int64(3), np.int32(3)):
        assert qc.q_factorial(k, q) == qc.q_factorial(int(k), q)
    assert qc.q_factorial(np.array([2, 3]), q) == qc.q_factorial((2, 3), q)
    with pytest.raises(ValueError):
        qc.q_factorial(np.int64(-1), q)
    with pytest.raises(TypeError):
        qc.q_factorial(2.0, q)


def test_log_q_factorial_matches_direct_product():
    # the tables live on [0, 1]; a base t > 1 is read at 1/t by its callers
    for t in (0.0, 0.25, 0.5, 0.999999999, 1.0, 1 / 1.5, 1 / 9.0):
        for m in range(0, 12):
            direct = 1.0
            for j in range(1, m + 1):
                direct *= sum(t ** i for i in range(j))
            assert qc.log_q_factorial(m, t) == pytest.approx(math.log(direct) if m else 0.0,
                                                             abs=1e-12)
    assert qc.log_q_factorial(11, 0.0) == 0.0
    for t in (1.5, 9.0):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            qc.log_q_factorial(5, t)


def _fresh_store(monkeypatch, table, budget):
    """An empty store with the given budget for the held builder table,
    restored after the test."""
    monkeypatch.setattr(table, "budget", budget)
    monkeypatch.setattr(table, "store", {})
    monkeypatch.setattr(table, "total", 0)
    return table.store


def test_held_keeps_the_newest_tables_within_its_budget():
    built = []

    @held(10)
    def table(key, size):
        built.append(key)
        return (key,) * size

    # a table passes the budget, one fills it exactly, an empty one costs
    # nothing, and keys come back while held and after they were dropped
    asks = [("a", 4), ("b", 3), ("a", 4), ("c", 5), ("d", 11), ("b", 3), ("e", 10),
            ("f", 0), ("e", 10), ("a", 4), ("d", 11), ("g", 2)]
    sizes = []
    for key, size in asks:
        was_held = (key, size) in reference_held_store(sizes, 10)
        before, builds = table.store.get((key, size)), len(built)
        got = table(key, size)
        sizes.append(((key, size), size))
        assert got == (key,) * size
        assert list(table.store) == reference_held_store(sizes, 10), key
        assert table.total == sum(map(len, table.store.values())) <= 10
        # a held table is found, not built, and is the same object
        assert built[builds:] == ([] if was_held else [key])
        assert (got is before) == was_held


def test_held_reads_its_budget_at_each_insertion(monkeypatch):
    @held(100)
    def table(size):
        return (0,) * size

    for size in (10, 20, 30):
        table(size)
    monkeypatch.setattr(table, "budget", 45)
    assert list(table.store) == [(10,), (20,), (30,)]   # nothing inserted yet
    table(5)
    assert list(table.store) == [(30,), (5,)] and table.total == 35
    assert table(50) is not table(50) and (50,) not in table.store


def test_held_stores_stay_consistent_under_threads():
    # one writer at a time: a lost update would leave the running total
    # apart from the tables held, or above the budget.  size yields to the
    # other threads, in the middle of each update of the total.
    @held(50, size=lambda table: time.sleep(0) or len(table))
    def table(size):
        return (0,) * size

    def work(offset):
        for i in range(2000):
            table(1 + (i * 7 + offset) % 13)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(offset,)) for offset in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert table.total == sum(map(len, table.store.values())) <= 50


def _package_members():
    """Every top-level value of each qdomains module, and the attributes of
    the classes it defines, with their qualified names; __main__, which runs
    the CLI on import, defines none."""
    for info in pkgutil.iter_modules(qdomains.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"qdomains.{info.name}")
        for name, value in vars(module).items():
            yield f"{info.name}.{name}", value
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    yield f"{info.name}.{name}.{attr}", member


def _containers():
    """Every dict, list and set the package reaches from its modules: the
    top-level values and class attributes, and the attributes and default
    arguments of its functions, except the stores of the held memos."""
    for name, value in _package_members():
        if isinstance(value, (dict, list, set)) and not name.endswith(".__builtins__"):
            yield name, value
        if callable(value):
            for attr, member in vars(value).items() if hasattr(value, "__dict__") else ():
                held_store = attr == "store" and hasattr(value, "__wrapped__")
                if isinstance(member, (dict, list, set)) and not held_store:
                    yield f"{name}.{attr}", member
            for i, default in enumerate(getattr(value, "__defaults__", None) or ()):
                if isinstance(default, (dict, list, set)):
                    yield f"{name}.<default {i}>", default


def test_every_table_kept_between_calls_is_held_under_one_policy():
    # functools caches bound neither entries nor bytes; the one such wrapper
    # left holds the CLI's argument parser, which is not a table
    cached = {name for name, value in _package_members() if hasattr(value, "cache_info")}
    assert cached == {"cli._parser"}
    memos = {id(value): value for _, value in _package_members()
             if getattr(value, "store", None) is not None and hasattr(value, "__wrapped__")}
    names = {memo.__name__ for memo in memos.values()}
    assert {"_letter_tables", "_domain", "_monomial_column", "_shift_pairs", "_pair_plan",
            "q_pochhammer_inf", "_factorial_table", "multi_indices", "_fiber_record",
            "_word_pool", "_held_pool", "_held_factors", "_pair"} <= names
    # no other container grows: a table kept in a plain dict, list or set
    # would.  The seed is one no other test runs in process, so such a table
    # would meet new parameter sets here even after the other tests.
    sizes = {name: len(value) for name, value in _containers()}
    suites.run_all(seed=4321)
    grown = {name for name, value in _containers() if len(value) > sizes.get(name, 0)}
    assert not grown, grown
    for memo in memos.values():
        assert memo.total == sum(map(memo.size, memo.store.values())) <= memo.budget, memo
    # every weight reads its log-factorial table at a base folded into [0, 1]
    assert qc._factorial_table.store
    assert all(0.0 <= t <= 1.0 for t, _ in qc._factorial_table.store)


def test_readme_lists_every_held_store_with_its_budget():
    # one row per _held.held memo of the package, its budget written 2^b
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+\.\w+)`.*\| 2\^(\d+) \|$", readme, re.MULTILINE)
    memos = {f"{value.__module__.removeprefix('qdomains.')}.{value.__name__}": value
             for _, value in _package_members()
             if getattr(value, "store", None) is not None and hasattr(value, "__wrapped__")}
    assert sorted(name for name, _ in rows) == sorted(memos)
    for name, bits in rows:
        assert memos[name].budget == 2 ** int(bits), name


def test_log_q_factorial_deep_in_a_fresh_cache(monkeypatch):
    # one recursion level per m overflowed Python's stack past m ~ 500; the
    # value must stay the left-to-right sum the recursion added
    _fresh_store(monkeypatch, qc._factorial_table, 2 ** 16)
    for t in (0.25, 1.0, 1 / 3.0):
        for m in (1200, 600):
            total = 0.0
            for j in range(1, m + 1):
                total += direct_log_q_int(j, t)
            assert qc.log_q_factorial(m, t) == total, (m, t)
    assert qc.log_q_factorial_table(1200, 0.0) == (0.0,) * 2048
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
        qc.log_q_factorial(1200, 3.0)


def test_log_q_factorial_table_is_the_direct_loop_bit_for_bit(monkeypatch):
    # the table builds [j]_t from [j-1]_t's running sum and power; summing
    # every [j]_t from scratch must give the same bits
    _fresh_store(monkeypatch, qc._factorial_table, 2 ** 16)
    for t in (0.0, 0.25, 0.81, 1.0, 1 / 1.21, 1 / 4.0, 1 / 9.0):
        total = 0.0
        expected = [total]
        for j in range(1, 512):
            total += direct_log_q_int(j, t)
            expected.append(total)
        # one table per power-of-two length, the shorter ones its prefixes
        for m, length in ((0, 1), (1, 2), (5, 8), (37, 64), (120, 128), (400, 512)):
            table = qc.log_q_factorial_table(m, t)
            assert type(table) is tuple and list(table) == expected[:length], (t, m)
            assert qc.log_q_factorial_table(length - 1, t) is table
        assert [qc.log_q_factorial(m, t) for m in range(512)] == expected
    assert qc.log_q_factorial_table(400, 0.0) == (0.0,) * 512
    for t in (1.21, 4.0, 9.0, -0.25, math.inf, math.nan):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            qc.log_q_factorial_table(3, t)
    with pytest.raises(ValueError):
        qc.log_q_factorial(-1, 0.5)


def test_log_q_factorial_tables_are_bounded(monkeypatch):
    held = _fresh_store(monkeypatch, qc._factorial_table, 100)
    for t in (0.3, 0.4, 0.5, 0.6):
        qc.log_q_factorial_table(29, t)   # 32 entries each
        assert qc._factorial_table.total == sum(map(len, held.values())) <= 100
    # the oldest table went first
    assert list(held) == [(0.4, 32), (0.5, 32), (0.6, 32)]
    # a longer table of a held t is one more table, and drops the oldest
    qc.log_q_factorial_table(49, 0.5)
    assert list(held) == [(0.6, 32), (0.5, 64)]
    # a table longer than the bound is returned, not held
    long = qc.log_q_factorial_table(150, 0.7)
    assert len(long) == 256 and all(t != 0.7 for t, _ in held)
    assert long[:32] == qc.log_q_factorial_table(29, 0.7)


def test_scan_factorials_hold_to_the_shared_table():
    # bundle_scan keeps a numpy copy of the table over its samples; it
    # agrees bit for bit where numpy's log is math.log's, and within a few
    # ulps of the sum anywhere
    ts = np.array([0.0, 0.25, 0.81, 1.0, 1 / 1.21, 1 / 2.5, 1 / 4.0, 1 / 9.0, 1e-3, 1 / 30.0])
    wanted = set(range(0, 301, 7)) | {300}
    with np.errstate(all="ignore"):
        got = deform._log_q_factorials(wanted, ts)
    for i, t in enumerate(ts.tolist()):
        table = qc.log_q_factorial_table(300, t)
        for m in wanted:
            assert got[m][i] == pytest.approx(table[m], rel=1e-13, abs=1e-13), (t, m)
    assert all(got[m][0] == 0.0 for m in wanted)
    for t in (1.21, 30.0, math.nan):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            deform._log_q_factorials(wanted, np.array([0.5, t]))


def test_pochhammer_values():
    half = qc.q_pochhammer_inf(0.5, 0.5)
    assert half.value == pytest.approx(POCH_HALF_HALF, rel=2e-12)
    quarter = qc.q_pochhammer_inf(0.25, 0.25)
    assert quarter.value == pytest.approx(POCH_QUARTER_QUARTER, rel=2e-12)
    assert half.factors > 0


def test_pochhammer_trivial_and_errors():
    assert qc.q_pochhammer_inf(0.0, 0.5).value == 1.0
    with pytest.raises(ValueError):
        qc.q_pochhammer_inf(0.5, 1.0)


def test_weight_polydisk_examples():
    assert qc.weight_polydisk((1, 1), 0.5) == pytest.approx(0.5)
    assert qc.weight_polydisk((2, 1), 2.0) == 1.0
    assert qc.weight_polydisk((2, 3, 1), 0.5) == pytest.approx(0.5 ** 11, rel=1e-12)


def test_weight_u_examples():
    assert qc.weight_u((1, 1), 2.0) == pytest.approx(2.0)
    assert qc.weight_u((5, 0, 0), 0.3) == pytest.approx(1.0)
    assert qc.weight_u((1, 1, 1), 0.5) == pytest.approx(0.125)


def test_weight_ball_examples():
    assert qc.weight_ball((1, 1), 1.0) == pytest.approx(math.sqrt(0.5), rel=1e-12)
    assert qc.weight_ball((4, 0, 0), 0.7) == pytest.approx(1.0, rel=1e-12)
    assert qc.weight_ball((1, 1), 0.5) == pytest.approx(5 ** -0.5, rel=1e-12)


def _exact_weight_cases():
    """Per |q| = 1/2, 3/4, 2, 10, 1000 and 10**100: 200 random exponent
    vectors (n = 2-4, entries up to 12; up to 3 at 10**100, where the
    exact ints have about 200 cross(k) digits), with the exact log ball
    weight of each."""
    rng = Random("exact-weights")
    cases = []
    for modulus in (Fraction(1, 2), Fraction(3, 4), Fraction(2), Fraction(10),
                    Fraction(1000), Fraction(10) ** 100):
        top = 3 if modulus > 1000 else 12
        keys = [tuple(rng.randint(0, top) for _ in range(rng.randint(2, 4)))
                for _ in range(200)]
        cases.append((modulus, keys, [exact_log(exact_ball_weight_sq(k, modulus)) / 2
                                      for k in keys]))
    return cases


def test_ball_and_mahonian_weights_hold_to_the_exact_oracle(monkeypatch):
    # the exact Mahonian sum is the fiber sum of t**m(alpha)
    for k in ((2, 1), (1, 2, 1), (0, 3, 2)):
        for t in (Fraction(1, 3), Fraction(5, 2)):
            assert exact_mahonian_sum(k, t) == sum(t ** brute_inversions(alpha)
                                                   for alpha in brute_fiber(k))
    cases = _exact_weight_cases()
    for modulus, keys, ball in cases:
        for k, got, want in zip(keys, qc.weight_ball_logs(keys, float(modulus)), ball):
            # |q| > 1 reads the paper's second form at s = |q|**-2, where the
            # t = |q|**2 table erred by up to 2.9e-11; at |q| < 1,
            # cross(k) log|q| is most of the log, up to about 600
            assert abs(got - want) <= (1e-14 if modulus > 1 else 2 * math.ulp(want)), (
                modulus, k, got, want)
    # the coordinate radius reads the Mahonian factor at t = |q|**-p from the
    # table of s = min(t, 1/t).  The polydisk weight is 1 at |q| > 1 and
    # |q|**cross(k) at |q| < 1, so (d p) log radius at rho = 1 is the log of
    # the sum over |k| = d of the Mahonian sums at t, times |q|**(p cross(k))
    # at |q| < 1 (which the fold's t**cross(k) cancels): each term lies in
    # [1, |k|!/k!], and the running sums of the t = 1/2 table err by up to
    # 2.6e-14
    for modulus, _, _ in cases:
        for n in (2, 3, 4):
            for p in (1, 2):
                ts = spectral.coordinate_tuple(n, NormSpec(POLYDISK_L1, 1.0), p, 8,
                                               q=float(modulus))
                for d in range(1, 9):
                    want = exact_log(sum(exact_mahonian_sum(k, modulus ** -p)
                                         * min(modulus, 1) ** (p * brute_sigma(k, k))
                                         for k in total_degree_indices(n, d)))
                    got = p * d * math.log(spectral.radius_estimate(ts, d))
                    assert abs(got - want) <= (1e-14 if p == 2 else 3e-14), (modulus, n, p, d)
    # a weight bumped by 1e-6 is far off at every |q|
    monkeypatch.setattr(_mutate, "_active", "weight-ball")
    for modulus, keys, ball in cases:
        got = qc.weight_ball_logs(keys, float(modulus))
        assert min(abs(g - w) for g, w in zip(got, ball)) > 1e-7, modulus


@pytest.mark.parametrize("modulus", [f"1e{sign}{e}" for e in (10, 40, 100, 150, 200, 300)
                                     for sign in ("", "-")])
def test_ball_weights_answer_at_any_modulus(modulus):
    # |q|**2 or |q|**-2 leaves the float range at most of these moduli, where
    # the weights once raised or gave inf - inf; the folded base is 0 or
    # tiny there, and the weight is still the exact one, at the rational
    # value of the float |q|
    keys = [(1, 1), (2, 0), (3, 2, 1)]
    for k, log_w in zip(keys, qc.weight_ball_logs(keys, float(modulus))):
        want = exact_log(exact_ball_weight_sq(k, Fraction(float(modulus)))) / 2
        assert abs(log_w - want) <= max(1e-15, 2 * math.ulp(want)), (k, log_w, want)


def test_weight_ball_matches_fiber_enumeration():
    # inverse square sum over the fiber reproduces the ball weight
    for modulus in (0.5, 2.0):
        for k in qc.multi_indices(2, 6):
            acc = sum(modulus ** (-2 * brute_inversions(alpha))
                      for alpha in brute_fiber(k))
            assert qc.weight_ball(k, modulus) == pytest.approx(acc ** -0.5, rel=1e-10)


def test_word_profile_and_fiber_count():
    assert qc.word_profile((2, 1, 2), 2) == (1, 2)
    assert qc.word_profile((2, 1, 2), n=3) == (1, 2, 0)
    assert qc.fiber_count((1, 1)) == 2
    assert qc.fiber_count((2, 1)) == 3
    with pytest.raises(EnumerationCapExceeded):
        qc.fiber_count((2000, 2000))
    with pytest.raises(ValueError):
        qc.word_profile((0, 1), n=2)


def test_inversions_examples_and_oracle():
    assert qc.inversions((1, 2, 2, 3)) == 0
    assert qc.inversions((2, 1)) == 1
    assert qc.inversions((2, 1, 2, 1)) == 3
    for alpha in qc.words(3, 6):
        assert qc.inversions(alpha) == brute_inversions(alpha)


def test_switch_count_examples():
    assert qc.switch_count((1, 1, 1)) == 0
    assert qc.switch_count(()) == -1
    assert qc.switch_count((1,)) == 0
    assert qc.switch_count((1, 2, 1, 2)) == 3


def test_delta_and_fiber_words():
    assert qc.delta_word((2, 1)) == (1, 1, 2)
    assert qc.fiber_words((1, 1)) == [(1, 2), (2, 1)]
    assert qc.fiber_words((0, 0, 0)) == [()]
    for k in qc.multi_indices(3, 6):
        words = qc.fiber_words(k)
        assert words == brute_fiber(k)
        assert len(words) == qc.fiber_count(k)
        assert words == sorted(words)
    with pytest.raises(EnumerationCapExceeded):
        qc.fiber_words((8, 8, 8))


def test_fiber_record_matches_brute_force(monkeypatch):
    assert qc.fiber((0, 0, 0)) == (((),), (0,))
    empty_fiber_store(monkeypatch, 10 ** 4)   # so that each record below is built, not found
    for k in ((0,), (0, 0), (0, 0, 0), (3,), (4,), (2, 1), (1, 1, 1), (0, 2, 1), (2, 0, 1),
              (0, 3, 2), (3, 3, 2), (2, 3, 3), (2, 2, 1, 1), (3, 2, 2, 2)):
        fiber = brute_fiber(k)
        words, ms = qc.fiber(k)
        assert type(words) is tuple and type(ms) is tuple
        assert list(words) == fiber
        assert list(ms) == [brute_inversions(w) for w in fiber]
        assert qc.fiber_words(k) == fiber
        assert qc.fiber_inversion_list(k) == list(ms)


def test_exponent_vectors_and_words_are_read_once():
    # each function reads its argument once, so a one-pass iterator answers
    # as the tuple and the list of the same values do
    cases = [(qc.fiber_count, (2, 1), (), 3),
             (qc.inv_distribution, (1, 1), (0.5,), (1.5, 1.5)),
             (qc.weight_ball, (2, 1), (0.5,), pytest.approx(math.sqrt(1 / 21))),
             (qc.weight_polydisk, (2, 1), (0.5,), 0.25),
             (qc.weight_u, (2, 1), (0.5,), 0.25),
             (qc.word_profile, (1, 2, 2), (2,), (1, 2)),
             (qc.word_with_inversions, (1, 1), (0,), (1, 2)),
             (qc.fiber_words, (1, 1), (), [(1, 2), (2, 1)])]
    assert {f.__name__ for f, *_ in cases} <= set(qdomains.__all__)
    for f, values, rest, expected in cases:
        for arg in (values, list(values), iter(values)):
            assert f(arg, *rest) == expected, (f.__name__, arg)
    # the batch weights of qcombinat read their keys once, and each key once,
    # on each side of |q| = 1
    assert qc.cross_degree(iter([2, 1])) == qc.cross_degree((2, 1)) == 2
    keys = [(2, 1), (0, 3), (1, 1)]
    for f in (qc.weight_ball_logs, qc.weight_polydisk_logs):
        for q in (0.5, 1.0, 2.0):
            expected = f(keys, q)
            assert len(expected) == len(keys)
            for arg in (iter(keys), [iter(k) for k in keys], iter(map(list, keys))):
                assert f(arg, q) == expected, (f.__name__, q)


def test_fiber_cap_holds_for_a_cached_record():
    k = (3, 3, 3)
    record = qc.fiber(k)
    assert len(record[0]) == 1680
    assert qc.fiber(k) is record   # cached
    # about 9.5e9 words: every fiber route refuses it before enumerating,
    # and the cached record survives the refusals
    over = (8, 8, 8)
    assert qc.fiber_count(over) > qc.ENUMERATION_CAP
    routes = (qc.fiber, qc.fiber_words, qc.fiber_inversion_list,
              lambda k: qc.inv_distribution(k, 0.5),
              lambda k: polydisk_lift(k, 0.5), lambda k: ball_lift(k, 0.5),
              lambda k: deform.formal_ball_lift(k, 2))
    for route in routes:
        with pytest.raises(EnumerationCapExceeded):
            route(over)
    assert qc.fiber(k) is record


def test_fiber_store_holds_at_most_its_bound_oldest_out_first(monkeypatch):
    store = empty_fiber_store(monkeypatch, 400)
    # fibers of 90 to 560 words against a bound of 400: the 560 one passes
    # the bound, and (2, 2, 2) comes back once after it was dropped and
    # once while it is held
    asked = [(2, 2, 2), (5, 4), (3, 2, 2), (2, 2), (3, 3, 2), (2, 3), (2, 2, 2),
             (4, 5), (1, 1, 1), (2, 2, 2), (0, 3, 2)]
    sizes = []
    for k in asked:
        words, ms = qc.fiber(k)
        sizes.append(((k,), len(words)))
        assert list(store) == reference_held_store(sizes, 400), k
        assert qc._fiber_record.total == sum(len(r[0]) for r in store.values()) <= 400
        # the record returned is the fiber, held or not
        assert list(words) == brute_fiber(k)
        assert list(ms) == [brute_inversions(w) for w in words]


def test_fiber_record_over_the_budget_is_not_kept(monkeypatch):
    # the store is a record's only home: one over the budget is returned
    # unheld, so each call enumerates it again
    store = empty_fiber_store(monkeypatch, 400)
    enumerated = []
    enumerate_fiber = qc._enumerate_fiber
    monkeypatch.setattr(qc, "_enumerate_fiber",
                        lambda counts: enumerated.append(counts) or enumerate_fiber(counts))
    k = (3, 3, 2)   # 560 words
    record = qc.fiber(k)
    assert qc.fiber(k) == record and enumerated == [k, k]
    assert store == {} and qc._fiber_record.total == 0
    assert qc.word_stats(record[0], 3) == ([k] * 560, list(record[1]))


def test_fiber_store_records_are_fresh_enumerations():
    profiles = [k for n in (1, 2, 3, 4) for k in qc.multi_indices(n, 5)]
    for k in profiles:
        qc.fiber(k)
    for k in profiles:
        held = qc._fiber_record.store.get((k,))
        if held is not None:
            assert held == qc._enumerate_fiber(k)
            assert qc.fiber(k) is held


def test_fiber_store_serves_the_traffic_of_a_run(monkeypatch):
    # an oldest-first store smaller than a cyclic pass holds nothing that is
    # asked for again; at its own budget the store holds a whole run
    store = empty_fiber_store(monkeypatch, qc._fiber_record.budget)
    enumerated = []
    enumerate_fiber = qc._enumerate_fiber
    monkeypatch.setattr(qc, "_enumerate_fiber",
                        lambda counts: enumerated.append(counts) or enumerate_fiber(counts))
    suites.run_suite("lift-attainment")
    assert enumerated and len(enumerated) == len(set(enumerated)) == len(store)
    # the fiber-lift benchmark's profiles in three letter orders each (its
    # seed picks them): 23 fibers of 35,742 words, the most that a pass asks
    # for over seeds 1-400
    lift_profiles = ((5, 4), (2, 2, 2), (3, 2, 2), (3, 3, 2), (4, 3, 2), (3, 3, 3),
                     (2, 2, 1, 1), (2, 2, 2, 1), (2, 2, 2, 2), (3, 2, 2, 2))
    profiles = [order for k in lift_profiles
                for order in sorted(set(itertools.permutations(k)))[:3]]
    assert sum(map(qc.fiber_count, set(profiles))) == 35742
    # the first pass enumerates each fiber the suite did not ask for once,
    # the second nothing
    unheld = set(profiles) - {k for (k,) in store}
    q = 0.9 * cmath.exp(0.3j)
    for lift_pass in range(2):
        del enumerated[:]
        for k in profiles:
            deform.normal_order_formal(deform.formal_ball_lift(k, 3))
            for lift in (ball_lift, polydisk_lift):
                normal_order(lift(k, q), q)
        assert sorted(enumerated) == ([] if lift_pass else sorted(unheld))
    held_fibers = qc._fiber_record
    assert held_fibers.total == sum(len(r[0]) for r in store.values()) <= held_fibers.budget


def test_fiber_cap_is_checked_before_the_store(monkeypatch):
    empty_fiber_store(monkeypatch, 10 ** 4)
    k = (5, 4)
    record = qc.fiber(k)
    qc.fiber((1, 1))
    enumerated = []
    enumerate_fiber = qc._enumerate_fiber
    monkeypatch.setattr(qc, "_enumerate_fiber",
                        lambda counts: enumerated.append(counts) or enumerate_fiber(counts))
    monkeypatch.setattr(qc, "ENUMERATION_CAP", 100)   # below the 126 words held
    store = qc._fiber_record.store
    looked = []   # every key a store lookup asks for

    class Spied(dict):
        def get(self, key, default=None):
            looked.append(key)
            return super().get(key, default)

    monkeypatch.setattr(qc._fiber_record, "store", Spied(store))
    routes = (qc.fiber, qc.fiber_words, qc.fiber_inversion_list,
              lambda k: qc.inv_distribution(k, 0.5),
              lambda k: polydisk_lift(k, 0.5), lambda k: ball_lift(k, 0.5),
              lambda k: deform.formal_ball_lift(k, 2))
    for route in routes:
        for _ in range(2):
            with pytest.raises(EnumerationCapExceeded):
                route(k)
    # refused before any lookup, and the held records are as they were
    assert looked == [] and enumerated == []
    assert qc._fiber_record.store == store and qc._fiber_record.store[(k,)] is record
    monkeypatch.setattr(qc, "ENUMERATION_CAP", 10 ** 6)
    assert qc.fiber(k) is record and enumerated == []


def test_fiber_lists_are_fresh_copies():
    k = (2, 2, 1)
    words, ms = qc.fiber_words(k), qc.fiber_inversion_list(k)
    expected_words, expected_ms = list(words), list(ms)
    for got in (words, ms, qc.fiber_words(k), qc.fiber_inversion_list(k)):
        got.reverse()
        got[0] = None
        got.append(None)
    assert qc.fiber_words(k) == expected_words
    assert qc.fiber_inversion_list(k) == expected_ms
    assert qc.fiber(k) == (tuple(expected_words), tuple(expected_ms))


def test_inv_distribution_examples():
    for q in (0.3, 2.0, cmath.exp(1j * math.pi / 5)):
        brute, closed = qc.inv_distribution((1, 1), q)
        assert brute == pytest.approx(1 + q, rel=1e-12)
        assert closed == pytest.approx(1 + q, rel=1e-12)
        assert qc.inv_distribution((3, 0), q).brute == pytest.approx(1.0)
    dist = qc.inv_distribution((1, 1, 1), 0.5)
    assert dist.brute == pytest.approx(2.625, rel=1e-12)
    assert dist.closed == pytest.approx(2.625, rel=1e-12)


def test_inv_distribution_agreement_grid():
    for q in (0.3, 0.5, 1.7, cmath.exp(1j * math.pi / 5)):
        for n in (1, 2, 3):
            for k in qc.multi_indices(n, 6):
                brute, closed = qc.inv_distribution(k, q)
                assert abs(brute - closed) <= 1e-10 * max(abs(brute), abs(closed), 1.0)


@pytest.mark.parametrize("exponent", (10, 40, 100, 150, 200, 300))
def test_inv_distribution_far_from_the_unit_circle_is_finite_or_raises(exponent):
    # where the powers of q or the q-factorials overflow (only above the
    # unit circle) a call raises naming q; elsewhere it answers two finite
    # values that agree
    for modulus in (10.0 ** exponent, 10.0 ** -exponent):
        for phase in (1.0, -1.0, cmath.exp(0.7j)):
            q = modulus * phase
            for k in ((1, 1), (2, 2), (3, 3), (2, 1, 1)):
                try:
                    brute, closed = qc.inv_distribution(k, q)
                except OverflowError as exc:
                    assert modulus > 1 and f"at q = {complex(q)!r}" in str(exc), (k, q)
                    continue
                assert cmath.isfinite(brute) and cmath.isfinite(closed), (k, q)
                assert abs(brute - closed) <= 1e-10 * max(abs(brute), abs(closed)), (k, q)
    # the cases seen to give nan+nanj
    for k, q in (((2, 2), 1e200), ((3, 3), 1e60)):
        with pytest.raises(OverflowError, match=re.escape(f"at q = {complex(q)!r}")):
            qc.inv_distribution(k, q)


def test_inv_distribution_at_roots_of_unity_is_the_gaussian_multinomial():
    # at a root of unity of an order j <= max(k) the closed form
    # [|k|]_q!/[k]_q! is 0/0 ((2, 2) at -1 raised ZeroDivisionError) or lost
    # to cancellation (at the float nearest e^(2 pi i / 3), (3, 3) read
    # 2.33 for 2); there it is the Gaussian multinomial's integer
    # polynomial at q, which both routes must match
    for d, q in ((2, -1), (4, 1j), (3, cmath.exp(2j * math.pi / 3))):
        for k in ((2, 2), (3, 1), (2, 2, 2), (3, 3)):
            poly = gaussian_multinomial_by_division(k)
            counts = Counter(brute_inversions(alpha) for alpha in brute_fiber(k))
            assert poly == [counts[m] for m in range(len(poly))]
            assert qc._gaussian_multinomial(k) == poly
            # q^m depends on m mod d alone, so the ints are summed first
            expected = sum(sum(poly[r::d]) * q ** r for r in range(d))
            brute, closed = qc.inv_distribution(k, q)
            for value in (brute, closed):
                assert abs(value - expected) <= 1e-12 * sum(poly), (k, q, value)
    assert qc.inv_distribution((2, 2), -1) == (2, 2)
    # elsewhere the closed form is the quotient, bit for bit
    for q in (0.3, 0.5, 1.7, cmath.exp(1j * math.pi / 5), -0.99, 1.01j, 1.7 - 0.2j):
        for k in ((2, 2), (3, 1), (2, 2, 2), (3, 3), (5, 4)):
            quotient = qc.q_factorial(sum(k), q) / qc.q_factorial(k, q)
            assert repr(qc.inv_distribution(k, q).closed) == repr(quotient), (k, q)


def test_q_numbers_take_a_qparam_or_a_raw_q():
    for q in (0.5, -0.3, 2.0, 1.7j, cmath.exp(0.4j), 0.3 + 0.2j):
        qp = QParam(q)
        for m in range(6):
            assert qc.q_int(m, qp) == qc.q_int(m, q)
            assert qc.q_factorial(m, qp) == qc.q_factorial(m, q)
        for k in ((2, 3), (1, 1, 1), (3, 2, 2)):
            assert qc.q_factorial(k, qp) == qc.q_factorial(k, q)
            assert qc.inv_distribution(k, qp) == qc.inv_distribution(k, q)
    with pytest.raises(OverflowError, match=re.escape(f"at q = {complex(1e60)!r}")):
        qc.inv_distribution((3, 3), QParam(1e60))


def test_word_with_inversions_examples():
    assert qc.word_with_inversions((1, 1), 0) == (1, 2)
    assert qc.word_with_inversions((1, 1), 1) == (2, 1)
    assert qc.word_with_inversions((2, 2), 4) == (2, 2, 1, 1)


def test_word_with_inversions_postconditions():
    for n in (1, 2, 3):
        for k in qc.multi_indices(n, 6):
            for m in range(qc.cross_degree(k) + 1):
                alpha = qc.word_with_inversions(k, m)
                assert qc.word_profile(alpha, n) == k
                assert qc.inversions(alpha) == m
                assert qc.switch_count(alpha) <= n + 2


def test_word_with_inversions_range_errors():
    with pytest.raises(ValueError):
        qc.word_with_inversions((1, 1), 2)
    with pytest.raises(ValueError):
        qc.word_with_inversions((1, 1), -1)


def test_sigma_and_cross_degree():
    assert qc.sigma((1, 0), (0, 1)) == 1
    assert qc.sigma((0, 1), (1, 0)) == 0
    assert qc.sigma((2, 1), (1, 3)) == 6
    assert qc.cross_degree((2, 3, 1)) == 11
    with pytest.raises(ValueError):
        qc.sigma((1,), (1, 2))


def test_sigma_and_cross_degree_closed_forms_match_pair_counting():
    for n in range(1, 5):
        idxs = qc.multi_indices(n, 6)
        for k, l in itertools.product(idxs, repeat=2):
            assert qc.sigma(k, l) == brute_sigma(k, l)
        for k in idxs:
            assert qc.cross_degree(k) == brute_sigma(k, k)
    assert qc.sigma((), ()) == 0 and qc.cross_degree(()) == 0
    for k, l in (((1,), (1, 2)), ((), (0,)), ((1, 2, 3), (1, 2))):
        with pytest.raises(ValueError):
            qc.sigma(k, l)


def test_multi_index_enumeration_counts():
    assert len(qc.multi_indices(3, 4)) == math.comb(7, 3)
    assert len(total_degree_indices(4, 6)) == math.comb(9, 3)
    assert qc.multi_indices(2, 1) == ((0, 0), (0, 1), (1, 0))
    # the oracle's |k| = d enumeration is every composition of d, in order
    for n in range(1, 5):
        for d in range(-1, 7):
            assert total_degree_indices(n, d) == tuple(
                k for k in itertools.product(range(max(d, 0) + 1), repeat=n) if sum(k) == d)
    # the table is refused past the cap, before enumerating
    with pytest.raises(EnumerationCapExceeded, match="1373701 multi-indices"):
        qc.multi_indices(200, 3)
    # the |k| <= d table comes in lexicographic order as enumerated, unsorted
    for n in range(1, 6):
        for d in range(-1, 9):
            assert qc.multi_indices(n, d) == tuple(
                k for k in itertools.product(range(d + 1), repeat=n) if sum(k) <= d)


def test_compositions_walk_one_step_per_key():
    # the successor walk gives the filtered product, in its order, from a
    # fresh call (no held table in between)
    for n in range(1, 6):
        for d in range(-1, 8):
            assert qc._compositions_upto(n, d) == [
                k for k in itertools.product(range(d + 1), repeat=n) if sum(k) <= d]
    # and at n = 150, d = 2, where the old recursion rebuilt every tail,
    # every vector of at most two unit steps, sorted
    n = 150
    expected = set()
    for total in range(3):
        for places in itertools.combinations_with_replacement(range(n), total):
            expected.add(tuple(places.count(i) for i in range(n)))
    assert qc._compositions_upto(n, 2) == sorted(expected)


def test_multi_index_tables_are_held_within_a_budget():
    # radius --n 10 --depth 12 once kept its 646,646 exact tuples for the
    # life of the process
    small = qc.multi_indices(2, 5)
    assert qc.multi_indices(2, 5) is small
    big = qc.multi_indices(3, 80)
    assert len(big) > qc.multi_indices.budget
    again = qc.multi_indices(3, 80)
    assert again == big and again is not big
    # tables that fit are dropped oldest first once they overflow
    first = qc.multi_indices(3, 55)
    assert qc.multi_indices(3, 55) is first
    later = [qc.multi_indices(3, total) for total in (56, 57)]
    assert len(first) + sum(map(len, later)) > qc.multi_indices.budget
    assert qc.multi_indices(3, 55) is not first


def test_word_pools_are_refused_past_the_cap_before_enumerating(monkeypatch):
    # random_free(rng, 10, 9) once built its 1.1e9 words
    _fresh_store(monkeypatch, randgen._word_pool, 2 ** 16)
    enumerated = []
    words = qc.words
    monkeypatch.setattr(qc, "words", lambda n, d: enumerated.append((n, d)) or words(n, d))
    for n, max_len in ((1, 0), (1, 6), (2, 3), (3, 4), (4, 2)):
        count = len(list(words(n, max_len)))
        monkeypatch.setattr(qc, "ENUMERATION_CAP", count - 1)
        with pytest.raises(EnumerationCapExceeded, match=f"{count} words"):
            randgen.random_free(Random(0), n, max_len)
        assert enumerated == []
        monkeypatch.setattr(qc, "ENUMERATION_CAP", count)
        pool = randgen._word_pool(n, max_len)
        assert pool == tuple(words(n, max_len)) and enumerated == [(n, max_len)]
        assert randgen._word_pool(n, max_len) is pool
        enumerated.clear()


def test_words_enumeration():
    all_words = list(qc.words(2, 3))
    assert len(all_words) == 1 + 2 + 4 + 8
    assert list(qc.words_exact(2, 2)) == [(1, 1), (1, 2), (2, 1), (2, 2)]
    # every word once, shortest first, each length in lexicographic order
    for n in range(1, 4):
        for max_len in range(5):
            got = list(qc.words(n, max_len))
            assert got == sorted(set(got), key=lambda w: (len(w), w))
            assert len(got) == sum(n ** d for d in range(max_len + 1))


def test_word_kernels_match_brute_force():
    for counts in ((2, 1), (1, 1, 1), (3, 2), (0, 2, 1), (0, 0), (3,), (3, 3, 3)):
        fiber = brute_fiber(counts)
        assert qc.fiber_words(counts) == fiber
        assert qc.fiber_inversion_list(counts) == [brute_inversions(w) for w in fiber]
        for q in (0.5, 1.3, cmath.exp(0.7j)):
            assert qc._mahonian_sum(counts, q) == pytest.approx(
                brute_mahonian_sum(counts, q), rel=1e-13)
    assert qc._mahonian_sum((0, 0), 0.5) == 1
    for alpha in qc.words(3, 5):
        assert qc.inversions(alpha) == brute_inversions(alpha)
        switches = sum(1 for a, b in zip(alpha, alpha[1:]) if a != b)
        assert qc.switch_count(alpha) == (switches if len(alpha) > 1 else len(alpha) - 1)
        assert qc.word_profile(alpha, 3) == tuple(alpha.count(i) for i in (1, 2, 3))


def _word_stats_both_routes(batch, n):
    """qc.word_stats of batch on the scalar route (chunks below the batch
    cutoff) and on the numpy route (the batch repeated past it)."""
    step = _SCALAR_BATCH - 1
    chunks = [qc.word_stats(batch[i:i + step], n) for i in range(0, len(batch), step)]
    scalar = ([p for c in chunks for p in c[0]], [m for c in chunks for m in c[1]])
    profiles, ms = qc.word_stats(batch * _SCALAR_BATCH, n)
    return scalar, (profiles[:len(batch)], ms[:len(batch)])


def test_word_stats_matches_brute_force():
    # mixed lengths in one call: the empty word, one-letter words, all-equal
    # letters, and a longest word that forces padding of all the others;
    # every case runs on a batch below the cutoff and on one above it
    for n in range(1, 5):
        batch = [(), (1,), (n,), (n,) * 4, (1,) * 3, tuple(range(n, 0, -1)) * 2,
                 tuple(range(1, n + 1))]
        batch += list(qc.words(n, 3)) + [(n, 1, n, 1, n, 1, n, 1, n)]
        routes = _word_stats_both_routes(batch, n)
        assert routes[0] == routes[1] == qc.word_stats(batch, n)
        for profiles, ms in routes:
            assert ms == [brute_inversions(w) for w in batch]
            assert profiles == [tuple(w.count(i) for i in range(1, n + 1)) for w in batch]
            assert all(isinstance(m, int) for m in ms)
            assert all(isinstance(c, int) for p in profiles for c in p)
    assert qc.word_stats([], 3) == ([], [])
    for batch, n, expected in (([()], 2, ([(0, 0)], [0])),
                               ([(2, 2, 2)], 2, ([(0, 3)], [0]))):
        for got in _word_stats_both_routes(batch, n):
            assert got == expected
    # fiber words: a whole fiber in record order, a reversed slice, one
    # word, and a mapping keyed by fiber words, as an element's terms are;
    # a fiber of numpy-int counts gives int profiles
    for k in ((4,), (2, 3), (1, 2, 2), (2, 0, 1, 2), (3, 2, 2),
              np.array([2, 0, 1], dtype=np.int64)):
        n = len(k)
        words = qc.fiber(k)[0]
        for batch in (words, list(words[::-3]), [words[-1]], dict.fromkeys(words[1:40], 1.0)):
            profiles, ms = qc.word_stats(batch, n)
            assert (profiles, ms) == _brute_stats(batch, n)
            assert qc.word_profiles(batch, n) == profiles
            assert all(type(c) is int for p in profiles for c in p)
            assert all(type(m) is int for m in ms)
    # letters far above int8; lists as well as tuples
    for got in _word_stats_both_routes([[300, 2], (1,)], 300):
        assert got[1] == [1, 0]
    # letters 0, n + 1 and -1, and letters that are no int in 1..n (1.5, '1',
    # 2**70, which an int64 array would truncate, parse or overflow on), are
    # rejected on every route with one message
    for bad in ([(0, 1)], [(3,)], [(1,), (-1, 2)], [(1, 2), (2, 2, 3)],
                [(1.5,)], [("1",)], [(2 ** 70,)]):
        for batch in (bad, bad * _SCALAR_BATCH, bad * _SCALAR_PROFILES):
            for route in (qc.word_stats, qc.word_profiles):
                with pytest.raises(ValueError, match="letters must lie in 1..n"):
                    route(batch, 2)


def _brute_stats(batch, n):
    return ([brute_profile(tuple(w), n) for w in batch],
            [brute_inversions(tuple(w)) for w in batch])


def test_word_stats_read_tuple_list_and_array_words_alike():
    # numpy-array words once raised AttributeError below the cutoffs (the
    # scalar route called word.count) and were answered from them on: at
    # batch sizes on either side of both cutoffs, tuple, list and np.array
    # words give the same answer, of ints, and a bad letter raises on every
    # route whatever its word's type
    n = 3
    pool = [(2, 1), (3, 1, 2, 2), (1,), (3, 3, 1, 2, 1), ()]
    for size in (1, _SCALAR_BATCH - 1, _SCALAR_BATCH, _SCALAR_PROFILES - 1, _SCALAR_PROFILES):
        words = [pool[i % len(pool)] for i in range(size)]
        expected = _brute_stats(words, n)
        for make in (tuple, list, np.array):
            batch = [make(w) for w in words]
            profiles, ms = qc.word_stats(batch, n)
            assert (profiles, ms) == expected and qc.word_profiles(batch, n) == profiles
            assert all(type(c) is int for p in profiles for c in p)
            assert all(type(m) is int for m in ms)
            for bad in ((1.5, 1), ("1", 2), (2 ** 70, 1)):
                for route in (qc.word_stats, qc.word_profiles):
                    with pytest.raises(ValueError, match="letters must lie in 1..n"):
                        route(batch[:-1] + [make(bad)], n)


def test_word_stats_falls_back_off_the_record():
    # batches that look like a fiber's but are not: each is counted from
    # its letters
    k = (2, 1, 2)
    words = list(qc.fiber(k)[0])
    foreign = (3, 3, 1)
    cases = [
        (words + [foreign], 3),                     # a foreign word at the end
        (words[:30] + [foreign] + words[30:], 3),   # ... partway
        ([foreign] + words, 3),                     # ... first
        ([list(w) for w in words], 3),              # unhashable words
        (words[:5] + [list(words[5])], 3),          # one unhashable word partway
        (words[:-1] + [foreign], 3),                # the fiber's length, one foreign word
        (words[:-1] + [words[-1] + (1,)], 3),       # ... one longer word
        ([words[3], foreign], 3),                   # a few words
        ([words[0][:-1]], 3),                       # one shorter word
        (words, 4),                                 # another alphabet size
        ([], 3),
    ]
    for batch, n in cases:
        assert qc.word_stats(batch, n) == _brute_stats(batch, n)
    # a foreign word with letters outside 1..n is still rejected
    with pytest.raises(ValueError):
        qc.word_stats(words + [(4, 1)], 3)


def test_word_stats_do_not_depend_on_the_fiber_store(monkeypatch):
    # the statistics come from the words alone: the same answers with the
    # store empty and with it holding the batch's fiber
    for k in ((4,), (2, 3), (1, 2, 2), (3, 2, 2)):
        n = len(k)
        words = qc.fiber(k)[0]
        batches = (words, words[::-1], [words[-1]], list(words[::7]),
                   dict.fromkeys(words, 1.0), list(words) + [(n,) * 3])
        answers = []
        for kept in (False, True):
            empty_fiber_store(monkeypatch)
            if kept:
                qc.fiber(k)
            assert ((k,) in qc._fiber_record.store) == kept
            answers.append([(qc.word_stats(b, n), qc.word_profiles(b, n)) for b in batches])
        assert answers[0] == answers[1]
        assert [stats for stats, _ in answers[0]] == [_brute_stats(b, n) for b in batches]


def test_fiber_record_of_numpy_counts_gives_int_profiles(monkeypatch):
    empty_fiber_store(monkeypatch, 10 ** 4)   # so that the record below is built, not found
    k = np.array([2, 0, 1], dtype=np.int64)
    words, ms = qc.fiber(k)
    profiles, got = qc.word_stats(words, 3)
    assert profiles == [(2, 0, 1)] * len(words) and got == list(ms)
    assert all(type(c) is int for p in profiles for c in p)
    assert all(type(m) is int for m in got)


def test_stirling_ratio_trend():
    def value(m):
        log_a = 2.0 * math.lgamma(m + 1) - math.lgamma(2 * m + 1)
        log_b = -2.0 * m * math.log(2.0)
        return math.exp((log_a - log_b) / (4.0 * m))

    assert abs(value(100) - 1.0) <= 0.1
    assert abs(value(100) - 1.0) <= abs(value(25) - 1.0)
