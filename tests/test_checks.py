"""The one fold every suite check takes its worst by: the bits of max on
numbers, NaN kept, an empty check failing, and a NaN sample in the middle of
any suite's run failing that suite."""

import math
from functools import reduce

import pytest

from qdomains import deform, fock, qcombinat as qc, spectral, suites
from qdomains.suites import CheckResult, SuiteReport, _max_diff

NAN = math.nan


def _bits(value):
    return type(value), repr(value)


@pytest.mark.parametrize("values", [
    [0.0, -0.0], [-0.0, 0.0], [-0.0, 0.0, -0.0], [1.0, -0.0, 0.0],
    [-math.inf], [-math.inf, -math.inf], [-math.inf, -1.0], [-1.0, -math.inf],
    [3, 3.0], [3.0, 3], [0, 0.0, 1, 1.0], [2, 1], [-5],
])
def test_fold_keeps_the_bits_of_max(values):
    check = CheckResult("k", 0.0, *values)
    assert _bits(check.worst) == _bits(reduce(max, values))
    assert check.count == len(values)
    assert check.at == values.index(check.worst)   # the first sample equal to it
    one_at_a_time = CheckResult("k", 0.0)
    for value in values:
        one_at_a_time.add(value)
    assert _bits(one_at_a_time.worst) == _bits(check.worst)
    assert (one_at_a_time.count, one_at_a_time.at) == (check.count, check.at)


@pytest.mark.parametrize("position", [0, 2, 4])
def test_a_nan_sample_makes_the_worst_nan(position):
    values = [1.0, -2.0, 5.0, 0.0, 3.0]
    values[position] = NAN
    check = CheckResult("k", 10.0, *values)
    assert math.isnan(check.worst) and check.status == "fail"
    assert (check.count, check.at) == (5, position)
    # a later NaN or a greater number leaves the first NaN in place
    check.add(math.inf, NAN)
    assert math.isnan(check.worst) and (check.count, check.at) == (7, position)


def test_an_empty_check_fails():
    check = CheckResult("k", math.inf)
    assert math.isnan(check.worst) and check.status == "fail"
    assert (check.count, check.at) == (0, None)
    check.add()
    assert check.count == 0 and check.status == "fail"
    check.add(-1.0)
    assert (check.worst, check.count, check.at, check.status) == (-1.0, 1, 0, "pass")


def test_max_diff_takes_a_nan_difference_whatever_the_set_order():
    assert _max_diff({}, {}) == 0.0
    assert math.isnan(_max_diff({1: 0.0, 2: NAN}, {1: 0.5, 2: 0.0}))
    keys = [(i, -i) for i in range(7)] + ["x", 3.5]
    for nan_key in keys:
        for side in (0, 1):
            maps = [{key: 0.5 for key in keys}, {key: 0.25 for key in keys[::2]}]
            maps[side][nan_key] = NAN
            assert math.isnan(_max_diff(*maps)), (nan_key, side)
            assert math.isnan(_max_diff(*maps[::-1])), (nan_key, side)


def test_worst_violation_takes_a_nan_check():
    checks = [CheckResult("a", 1.0, 0.5), CheckResult("b", 1.0, NAN), CheckResult("c", 1.0, 0.75)]
    report = SuiteReport("s", {}, checks)
    assert math.isnan(report.worst_violation) and report.status == "fail"
    assert math.isnan(report.to_dict()["worst_violation"])
    assert SuiteReport("s", {}, [], error="resource limit: x").worst_violation == 0.0
    empty = SuiteReport("s", {}, [CheckResult("a", 1.0)])
    assert math.isnan(empty.worst_violation) and empty.status == "fail"


def _nan(result):
    return NAN


# suite -> (owner, routine, what the poisoned call returns in place of its
# result, the check whose sample that call feeds)
NAN_TARGETS = {
    "chu-vandermonde": (qc, "q_int", _nan, "mahonian-ratio-supermultiplicative"),
    "lemma-3-13": (suites, "_rel", _nan, "ball-weight-two-forms"),
    "lemma-4-1": (qc, "log_q_factorial_table", lambda table: [NAN] * len(table),
                  "ratio-at-most-one"),
    "theorem-4-2": (suites, "norm", _nan, "lower-sandwich"),
    "prop-3-15-isometry": (suites, "_rel", _nan, "flip-isometry"),
    "eq-6-10": (suites, "_rel", _nan, "polydisk-weight-is-fiber-min"),
    "submult-all": (suites, "norm", _nan, "free-polydisk"),
    "quotient-contraction": (suites, "norm", _nan, "taylor-quotient"),
    "lift-attainment": (suites, "_rel", _nan, "polydisk-lift-norm"),
    "lemma-7-9": (suites, "_rel", _nan, "mahonian-distribution"),
    "lemma-8-6": (qc, "word_stats", lambda stats: (stats[0], [NAN] * len(stats[1])),
                  "inversions-at-most-cross-degree"),
    "lemma-8-10": (suites, "omega", _nan, "clipped-exponent-interval-identity"),
    "laurent-word-identity": (suites, "_max_diff", _nan, "generator-word-is-flat-monomial"),
    "fock-lemma-5-2": (suites, "_rel", _nan, "vacuum-image-closed-form"),
    "fock-sandwich-5-4": (fock, "vaksman_sandwich_check",
                          lambda report: dict(report, identity_error=NAN), "vacuum-identity"),
    "fock-xnorm-limit": (fock, "_lower_bounds", lambda lowers: [NAN] * len(lowers),
                         "lower-bounds-monotone-in-degree"),
    "spectral-examples": (spectral, "radius_estimate", _nan, "lp-ordering"),
    "poincare-gap": (suites, "_rel", _nan, "dimension-one-no-gap"),
    "star-associativity": (suites, "_max_diff", _nan, "associativity"),
    "star-defect-8-23": (deform, "quantization_defect", _nan, "defect-order-one"),
    "formal-lift-8-39": (suites, "_max_diff", _nan, "truncated-ordering-identity"),
    "remark-3-12-blowup": (suites, "_rel", _nan, "product-norm-grows-like-qpow"),
}

# suites none of whose checks can take a NaN sample
UNSAMPLED = {
    "stirling-3-4": "two closed-form values, one sample each",
    "lemma-8-5": "one sample: the count of words that break a postcondition",
    "lambda-2-1": "its samples are pass/fail verdicts and a failure count",
}


def test_every_suite_has_a_nan_target_or_a_reason():
    assert not set(NAN_TARGETS) & set(UNSAMPLED)
    assert set(NAN_TARGETS) | set(UNSAMPLED) == set(suites.SUITE_NAMES)


@pytest.mark.parametrize("name", sorted(NAN_TARGETS))
def test_a_nan_sample_in_the_middle_fails_its_suite(name, monkeypatch):
    owner, routine, poison, key = NAN_TARGETS[name]
    real = getattr(owner, routine)
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, routine, counted)
    assert suites.run_suite(name).status == "pass"
    # not the first call: a plain max fold keeps a NaN that comes first, so
    # only a later one tells the folds apart
    total = len(calls)
    assert total > 2
    hit = total // 2
    calls.clear()

    def poisoned(*args, **kwargs):
        calls.append(None)
        result = real(*args, **kwargs)
        return poison(result) if len(calls) == hit + 1 else result

    monkeypatch.setattr(owner, routine, poisoned)
    report = suites.run_suite(name)
    assert len(calls) == total
    assert report.status == "fail"
    [check] = [c for c in report.checks if c.key == key]
    assert math.isnan(check.worst) and check.status == "fail"
