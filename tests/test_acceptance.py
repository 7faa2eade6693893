"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with -s to see them)."""

import cmath
import hashlib
import math
import os
import subprocess
import sys
import time

import pytest

from qdomains import _mutate, qcombinat as qc, spectral, suites
from qdomains.elements import FreeElement, laurent_word, normal_order
from qdomains.norms import BALL, POLYDISK_L1, NormSpec

from oracles import (bubble_swap_count, reference_chu_vandermonde_worst,
                     reference_laurent_word_identity_worst, reference_lemma_8_10_worsts,
                     reference_lemma_8_6_worst, same_bits)

# mpmath-verified (0.25; 0.25)_infty, 30 digits
POCH_QUARTER = 0.688537537120339715456514357294


def report(number: int, detail: str):
    print(f"acceptance {number:2d}: PASS  {detail}")


def run_suite_timed(name: str):
    start = time.perf_counter()
    result = suites.run_suite(name)
    return result, time.perf_counter() - start


def assert_suite_passes(result):
    failing = [c.key for c in result.checks if c.status == "fail"]
    assert result.error is None, f"{result.suite}: {result.error}"
    assert not failing, f"{result.suite} failed checks: {failing}"


def test_criterion_01_chu_vandermonde():
    result, elapsed = run_suite_timed("chu-vandermonde")
    assert_suite_passes(result)
    assert elapsed < 30.0
    report(1, f"q-Chu-Vandermonde exhaustive, worst={result.worst_violation:.2e}, "
              f"{elapsed:.1f}s < 30s")


def test_chu_vandermonde_suite_equals_pair_loop():
    # the suite's one numpy pass per (q, n) against the scalar pair loop
    result, _ = run_suite_timed("chu-vandermonde")
    [check] = result.checks
    assert check.worst == reference_chu_vandermonde_worst(result.params)


def test_criterion_02_fiber_norm_formula():
    result, _ = run_suite_timed("lemma-7-9")
    assert_suite_passes(result)
    value = qc.weight_ball((1, 1), 0.5)
    assert value == pytest.approx(5 ** -0.5, rel=1e-10)
    assert value == pytest.approx(0.44721, abs=5e-6)
    report(2, f"fiber-enumeration norm formula, |k|<=8, n<=3; value(1,1)={value:.5f}")


def test_criterion_03_spectral_examples():
    q = cmath.exp(1j * math.pi / 4)
    for n in (2, 3):
        for rho in (0.5, 1.0):
            ts = spectral.coordinate_tuple(n, NormSpec(POLYDISK_L1, rho), 2, 10, q=q)
            for d in range(1, 11):
                value = spectral.radius_estimate(ts, d)
                assert abs(value - rho * math.sqrt(n)) <= 1e-12 * rho * math.sqrt(n)
    ball_ts = spectral.coordinate_tuple(2, NormSpec(BALL, 1.0), 2, 10, q=q)
    previous = math.inf
    for d in range(1, 11):
        value = spectral.radius_estimate(ball_ts, d)
        assert value == pytest.approx(math.comb(d + 1, 1) ** (1.0 / (2 * d)), rel=1e-12)
        assert 1.0 < value < previous
        previous = value
    assert spectral.radius_estimate(ball_ts, 2) == pytest.approx(3 ** 0.25, rel=1e-10)
    gap = spectral.poincare_gap(2, q, 1.0, 50)
    ratio = gap.polydisk / gap.ball
    assert ratio > 1.35
    report(3, f"coordinate-tuple estimates exact; depth-50 gap ratio {ratio:.4f} > 1.35")


def test_criterion_04_submultiplicativity():
    result, elapsed = run_suite_timed("submult-all")
    assert_suite_passes(result)
    assert len(result.checks) == 7
    assert elapsed < 60.0
    report(4, f"7 families x 1000 random pairs, worst={result.worst_violation:.2e}, "
              f"{elapsed:.1f}s < 60s")


def test_criterion_05_norm_sandwich():
    result, _ = run_suite_timed("theorem-4-2")
    assert_suite_passes(result)
    constant = qc.q_pochhammer_inf(0.25, 0.25).value
    assert constant == pytest.approx(POCH_QUARTER, rel=2e-12)
    assert constant == pytest.approx(0.68854, abs=5e-6)
    report(5, f"two-sided sandwich on 500 elements/cell; constant(|q|=2,n=2)={constant:.5f}")


def test_criterion_06_normal_ordering_oracle():
    qs = (0.5, 2.0, cmath.exp(1j * math.pi / 3))
    n = 4
    count = 0
    for alpha in qc.words(n, 8):
        swaps, sorted_word = bubble_swap_count(alpha)
        profile = qc.word_profile(sorted_word, n)
        for q in qs:
            image = normal_order(FreeElement.word(n, alpha), q)
            coeff = 1.0 + 0.0j
            for _ in range(swaps):
                coeff /= q
            got = image.terms.get(profile, 0.0)
            assert abs(got - coeff) <= 1e-10 * max(abs(coeff), 1.0)
        count += 1
    assert count == sum(4 ** d for d in range(9))
    report(6, f"bubble-sort rewriting oracle on {count} words x 3 q values")


def test_criterion_07_fock_layer():
    closed, _ = run_suite_timed("fock-lemma-5-2")
    assert_suite_passes(closed)
    limit, _ = run_suite_timed("fock-xnorm-limit")
    assert_suite_passes(limit)
    sandwich, _ = run_suite_timed("fock-sandwich-5-4")
    assert_suite_passes(sandwich)
    report(7, "vacuum closed form (|k|<=6, rel 1e-12), D=20 generator bound, "
              "300-element two-sided bounds")


def test_criterion_08_lifts():
    result, _ = run_suite_timed("lift-attainment")
    assert_suite_passes(result)
    report(8, "lift norms attained exactly (|k|<=7); 200 perturbations never better")


def test_criterion_09_deformation_combinatorics():
    for name in ("lemma-8-5", "lemma-8-6", "lemma-8-10", "laurent-word-identity"):
        result, _ = run_suite_timed(name)
        assert_suite_passes(result)
    report(9, "moving-letter procedure, inversion bound, clipped-exponent grid, "
              "flat word identity: all exhaustive grids pass")


def test_deformation_suites_equal_one_at_a_time_loops():
    # the suites share prefixes, grids and cross degrees; the loops do not
    words = suites.run_suite("laurent-word-identity")
    assert [c.worst for c in words.checks] == [
        reference_laurent_word_identity_worst(words.params)]
    omega_grid = suites.run_suite("lemma-8-10")
    assert [c.worst for c in omega_grid.checks] == list(reference_lemma_8_10_worsts())
    inversions = suites.run_suite("lemma-8-6")
    assert [c.worst for c in inversions.checks] == [reference_lemma_8_6_worst(inversions.params)]


def test_generator_words_are_laurent_word_bit_for_bit():
    for n in (1, 2, 3):
        built = dict(suites._generator_words(n, 4))
        assert len(built) == sum(n ** d for d in range(5))
        assert sorted(built) == sorted(qc.words(n, 4))
        for alpha, x_alpha in built.items():
            assert same_bits(x_alpha, laurent_word(n, alpha)), alpha


def test_criterion_10_star_product():
    assoc, _ = run_suite_timed("star-associativity")
    assert_suite_passes(assoc)
    defect, _ = run_suite_timed("star-defect-8-23")
    assert_suite_passes(defect)
    report(10, "generator rule exact, associativity <= 1e-9, defect value within 5%, "
               "fitted order in [0.9, 1.1]")


def test_criterion_11_formal_ball_lift():
    result, _ = run_suite_timed("formal-lift-8-39")
    assert_suite_passes(result)
    report(11, "truncated ordering identity through h^3 for |k|<=5, n<=3")


def _start_cli(args, mutate=None):
    env = dict(os.environ)
    env.pop("QDOMAINS_MUTATE", None)
    if mutate:
        env["QDOMAINS_MUTATE"] = mutate
    return subprocess.Popen([sys.executable, "-m", "qdomains", *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env)


def _finish_cli(proc, timeout=300.0):
    """(returncode, stdout, stderr) of a started run; killed on timeout."""
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        pytest.fail(f"{proc.args} timed out after {timeout:.0f}s:\n{out}{err}")
    return proc.returncode, out, err


MUTATION_TARGETS = [
    ("weight-polydisk", "eq-6-10"),
    ("weight-ball", "lemma-3-13"),
    ("mahonian-closed-form", "lemma-7-9"),
    ("omega", "lemma-8-10"),
    ("fock-generator", "fock-lemma-5-2"),
    ("star-phase", "star-associativity"),
    ("normal-order-phase", "quotient-contraction"),
    ("qpoly-phase", "remark-3-12-blowup"),
    ("formal-order-phase", "formal-lift-8-39"),
    ("formal-lift-coefficient", "formal-lift-8-39"),
    ("ball-lift-coefficient", "lift-attainment"),
    ("polydisk-lift-coefficient", "lift-attainment"),
]


def test_mutation_targets_cover_every_mutation_point():
    # each registered point has exactly one row, and each row a registered point
    mutations = [mutation for mutation, _ in MUTATION_TARGETS]
    assert sorted(mutations) == sorted(set(mutations)) == sorted(_mutate.MUTATION_POINTS)
    assert set(suite for _, suite in MUTATION_TARGETS) <= set(suites.SUITE_NAMES)


# md5 of `verify all --seed 1234 --json` without its wall_time lines: the
# report of every suite, worst values to the last digit, pinned
VERIFY_ALL_MD5 = "100a042f4136a1af3ee4e1eed3b2c1cc"


def test_criterion_12_verify_all_and_mutation_smoke():
    # every run is an independent process: start them all, then collect
    start = time.perf_counter()
    verify_all = _start_cli(["verify", "all", "--seed", "1234", "--json"])
    running = [(mutation, suite, _start_cli(["verify", suite], mutate=mutation))
               for mutation, suite in MUTATION_TARGETS]
    try:
        code, out, err = _finish_cli(verify_all)
        elapsed = time.perf_counter() - start
        assert code == 0, out + err
        assert elapsed < 300.0
        kept = "".join(line + "\n" for line in out.splitlines() if '"wall_time"' not in line)
        assert hashlib.md5(kept.encode()).hexdigest() == VERIFY_ALL_MD5
        for mutation, suite, proc in running:
            code, out, _ = _finish_cli(proc)
            assert code == 1, f"mutation {mutation} did not fail suite {suite}:\n{out}"
    finally:
        for proc in [verify_all] + [proc for _, _, proc in running]:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
    report(12, f"verify all green in {elapsed:.0f}s < 300s; "
               f"{len(MUTATION_TARGETS)} formula mutations each fail their suite")
