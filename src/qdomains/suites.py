"""Named verification suites: each binds one identity, inequality, or
example family to an executable check grid.

A suite creates its checks where their samples start and adds each sample
as it is taken.  A check's worst is its greatest sample, by the comparison
``max`` makes: a tie or a signed zero keeps the earlier value, so a fixed
seed replays every report value bit for bit.  A NaN sample makes the worst
NaN for good, and a check that took no sample has worst NaN; either reads
"fail" against any threshold.  Each check also counts its samples and keeps
the index of its worst one, so a failing check names the sample that failed
at its seed.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass
from itertools import islice
from operator import add, sub
from random import Random
from typing import Mapping

import numpy as np

from qdomains import deform, fock, qcombinat as qc, randgen, spectral
from qdomains.deform_types import HSeriesElement
from qdomains.elements import (
    FreeElement,
    LaurentElement,
    QPolynomial,
    ball_lift,
    free_mul,
    laurent_mul,
    laurent_word,
    normal_order,
    polydisk_lift,
    qpoly_mul,
    tau_flip,
)
from qdomains.norms import (
    BALL,
    FREE_BALL_BULLET,
    FREE_BALL_CIRC,
    FREE_POLYDISK,
    FREE_TAYLOR,
    LAURENT,
    POLYDISK_L1,
    NormSpec,
    lambda_p_compare,
    norm,
    omega,
)
from qdomains.qcombinat import EnumerationCapExceeded

__all__ = ["CheckResult", "SuiteReport", "SUITE_NAMES", "run_suite", "run_all"]


class CheckResult:
    """One check: the worst of its samples against a threshold.

    ``count`` is the number of samples taken and ``at`` the index of the
    worst one (None before the first sample)."""

    __slots__ = ("key", "threshold", "worst", "count", "at")

    def __init__(self, key: str, threshold: float, *samples):
        self.key = key
        self.threshold = threshold
        self.worst = math.nan
        self.count = 0
        self.at = None
        self.add(*samples)

    def add(self, *values) -> None:
        """Fold samples in order: a sample replaces the worst only when it
        is greater, and a NaN sample replaces a number and is kept."""
        worst, count = self.worst, self.count
        for value in values:
            if not count or (value > worst or value != value) and worst == worst:
                worst, self.at = value, count
            count += 1
        self.worst, self.count = worst, count

    @property
    def status(self) -> str:
        return "pass" if self.worst <= self.threshold else "fail"

    def to_dict(self) -> dict:
        return {"key": self.key, "status": self.status,
                "worst": self.worst, "threshold": self.threshold}


def _worst(values) -> float:
    """The worst of values by CheckResult's fold; 0.0 when there are none."""
    fold = CheckResult("", 0.0, *values)
    return fold.worst if fold.count else 0.0


@dataclass
class SuiteReport:
    suite: str
    params: dict
    checks: list
    wall_time: float = 0.0
    error: str | None = None

    @property
    def status(self) -> str:
        if self.error is not None:
            return "error"
        return "fail" if any(c.status == "fail" for c in self.checks) else "pass"

    @property
    def worst_violation(self) -> float:
        return _worst(c.worst for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "status": self.status,
            "params": self.params,
            "checks": [c.to_dict() for c in self.checks],
            "worst_violation": self.worst_violation,
            "wall_time": self.wall_time,
            "error": self.error,
        }


def _rel(a: complex, b: complex) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _max_diff(a: Mapping, b: Mapping) -> float:
    """max |a_key - b_key| over the union of the keys, a missing key
    reading 0, by CheckResult's fold; 0.0 when both are empty."""
    return _worst(abs(a.get(key, 0.0) - b.get(key, 0.0)) for key in set(a) | set(b))


def _phase(rng: Random) -> complex:
    return cmath.exp(2j * math.pi * rng.random())


# ---------------------------------------------------------------------------
# q-number and weight suites

def _suite_chu_vandermonde(rng: Random, p: dict) -> list:
    # one numpy pass over all pairs (k, l) per (q, n); every product and
    # quotient is formed in the order of the scalar pair loop
    check = CheckResult("mahonian-ratio-supermultiplicative", p["tol"])
    for q in p["qs"]:
        cap = 2 * p["max_total"]
        fact = [1.0]
        for m in range(1, cap + 1):
            fact.append(fact[-1] * qc.q_int(m, q).real)
        fact = np.array(fact)
        for n in range(1, p["max_n"] + 1):
            idxs = np.array(qc.multi_indices(n, p["max_total"]))
            # sigma(k, l) = k U l^T, U strictly upper triangular
            sig = idxs @ np.triu(np.ones((n, n), dtype=idxs.dtype), 1) @ idxs.T
            # Python's float power, as the pair loop took q ** sigma
            powers = np.array([q ** s for s in range(int(sig.max()) + 1)])
            prods = np.ones(len(idxs))
            pair = np.ones(sig.shape)
            for j in range(n):
                prods *= fact[idxs[:, j]]
                pair *= fact[idxs[:, j, None] + idxs[None, :, j]]
            total = idxs.sum(axis=1)
            ratio = fact[total] / prods
            # [|k+l|]!/[k+l]! >= ([|k|]!/[k]!)([|l|]!/[l]!) q^{sigma(k,l)}
            lhs = fact[total[:, None] + total[None, :]] / pair
            rhs = ratio[:, None] * ratio[None, :] * powers[sig]
            # one sample per (q, n); numpy's max keeps a NaN pair
            check.add(float(((rhs - lhs) / lhs).max()))
    return [check]


def _suite_lemma_3_13(rng: Random, p: dict) -> list:
    # the shipped weight, read at s = min(t, 1/t), against the first form
    # ([k]_t! / [|k|]_t!)**(1/2) u_q(k) at t = |q|**2 itself, its log [j]_t!
    # summed here apart from the shared tables
    check = CheckResult("ball-weight-two-forms", p["tol"])
    for modulus in p["moduli"]:
        q = qc.as_qparam(modulus)
        t = modulus * modulus
        log_fact, acc, power = [0.0], 0.0, 1.0   # log [j]_t!, [j]_t and t**j
        for _ in range(p["max_total"]):
            acc += power
            power *= t
            log_fact.append(log_fact[-1] + math.log(acc))
        for n in range(1, p["max_n"] + 1):
            keys = qc.multi_indices(n, p["max_total"])
            for k, log_w in zip(keys, qc.weight_ball_logs(keys, q)):
                log_direct = (0.5 * (math.fsum(map(log_fact.__getitem__, k)) - log_fact[sum(k)])
                              + qc.cross_degree(k) * q.log_modulus)
                check.add(_rel(math.exp(log_w), math.exp(log_direct)))
    return [check]


def _suite_lemma_4_1(rng: Random, p: dict) -> list:
    hi = CheckResult("ratio-at-most-one", p["tol"])
    lo = CheckResult("ratio-above-pochhammer-power", p["tol"])
    for q in p["qs"]:
        lower = qc.q_pochhammer_inf(q, q).value
        for n in range(1, p["max_n"] + 1):
            bound = lower ** n
            table = qc.log_q_factorial_table(p["max_total"], q)
            ratios = [math.exp(math.fsum(map(table.__getitem__, k)) - table[sum(k)])
                      for k in qc.multi_indices(n, p["max_total"])]
            hi.add(*(ratio - 1.0 for ratio in ratios))
            lo.add(*((bound - ratio) / bound for ratio in ratios))
    return [hi, lo]


def _suite_theorem_4_2(rng: Random, p: dict) -> list:
    low = CheckResult("lower-sandwich", p["tol"])
    high = CheckResult("upper-sandwich", p["tol"])
    specs = [(NormSpec(POLYDISK_L1, rho), NormSpec(BALL, rho)) for rho in (0.3, 1.0)]
    for modulus in (0.5, 2.0):
        base = modulus ** -2 if modulus > 1 else modulus ** 2
        for n in (2, 3):
            const = qc.q_pochhammer_inf(base, base).value ** (n / 2.0)
            for _ in range(p["samples"]):
                q = modulus * _phase(rng)
                a = randgen.random_qpoly(rng, n, q, max_degree=5, terms=6)
                for polydisk, ball in specs:
                    nd = norm(a, polydisk)
                    nb = norm(a, ball)
                    low.add((const * nd - nb) / max(nb, 1e-300))
                    high.add((nb - nd) / max(nd, 1e-300))
    return [low, high]


def _suite_prop_3_15_isometry(rng: Random, p: dict) -> list:
    isometry = CheckResult("flip-isometry", p["tol"])
    involution = CheckResult("flip-involution", 1e-10)
    for i in range(p["samples"]):
        n = 2 + i % 2
        modulus = (0.5, 2.0, 1.0)[i % 3]
        q = modulus * _phase(rng)
        a = randgen.random_qpoly(rng, n, q, max_degree=4, terms=6)
        flipped = tau_flip(a)
        for rho in (0.3, 0.9):
            for family in (POLYDISK_L1, BALL):
                isometry.add(_rel(norm(flipped, NormSpec(family, rho)),
                                  norm(a, NormSpec(family, rho))))
    for i in range(50):
        n = 2 + i % 2
        q = (0.5, 2.0, 1.0)[i % 3] * _phase(rng)
        a = randgen.random_qpoly(rng, n, q, max_degree=4, terms=5)
        involution.add(_max_diff(a.terms, tau_flip(tau_flip(a)).terms))
    return [isometry, involution]


def _stirling_value(m: int) -> float:
    log_a = 2.0 * math.lgamma(m + 1) - math.lgamma(2 * m + 1)
    log_b = -2.0 * m * math.log(2.0)
    return math.exp((log_a - log_b) / (4.0 * m))


def _suite_stirling_3_4(rng: Random, p: dict) -> list:
    v25, v100 = _stirling_value(25), _stirling_value(100)
    return [CheckResult("proximity-at-100", 0.1, abs(v100 - 1.0)),
            CheckResult("closer-than-at-25", 0.0, abs(v100 - 1.0) - abs(v25 - 1.0))]


def _suite_eq_6_10(rng: Random, p: dict) -> list:
    check = CheckResult("polydisk-weight-is-fiber-min", p["tol"])
    for modulus in p["moduli"]:
        for n in range(1, 4):
            for k in qc.multi_indices(n, 7):
                best = min(modulus ** m for m in qc.fiber_inversion_list(k))
                check.add(_rel(best, qc.weight_polydisk(k, modulus)))
    return [check]


# ---------------------------------------------------------------------------
# norm suites

def _submult_pairs(rng: Random, family: str, count: int):
    # pair i is measured at rho = (0.3, 1.0)[i % 2]
    rhos = (0.3, 1.0)
    if family in (POLYDISK_L1, BALL):
        specs = [NormSpec(family, rho) for rho in rhos]
        for i in range(count):
            q = (0.5, 2.0, 1.0)[i % 3] * _phase(rng)
            a = randgen.random_qpoly(rng, 2 + i % 2, q, max_degree=4, terms=5)
            b = randgen.random_qpoly(rng, 2 + i % 2, q, max_degree=4, terms=5)
            yield a, b, qpoly_mul, specs[i % 2]
    elif family == LAURENT:
        specs = [NormSpec(family, rho, tau=tau) for rho, tau in zip(rhos, (1.0, 2.0))]
        for i in range(count):
            a = randgen.random_laurent(rng, 2 + i % 2, terms=5)
            b = randgen.random_laurent(rng, 2 + i % 2, terms=5)
            yield a, b, laurent_mul, specs[i % 2]
    else:
        taus = (1.0, 2.0) if family == FREE_POLYDISK else (1.0, 1.0)
        specs = [NormSpec(family, rho, tau=tau) for rho, tau in zip(rhos, taus)]
        for i in range(count):
            a = randgen.random_free(rng, 2 + i % 2, max_len=4, terms=5)
            b = randgen.random_free(rng, 2 + i % 2, max_len=4, terms=5)
            yield a, b, free_mul, specs[i % 2]


def _suite_submult_all(rng: Random, p: dict) -> list:
    families = (POLYDISK_L1, BALL, FREE_TAYLOR, FREE_POLYDISK,
                FREE_BALL_BULLET, FREE_BALL_CIRC, LAURENT)
    checks = []
    for family in families:
        check = CheckResult(family, p["tol"])
        for a, b, mul, spec in _submult_pairs(rng, family, p["pairs"]):
            na, nb = norm(a, spec), norm(b, spec)
            if na * nb == 0.0:
                continue
            check.add(norm(mul(a, b), spec) / (na * nb) - 1.0)
        checks.append(check)
    return checks


def _suite_quotient_contraction(rng: Random, p: dict) -> list:
    taylor_check = CheckResult("taylor-quotient", p["tol"])
    poly_check = CheckResult("free-polydisk-quotient", p["tol"])
    ball_check = CheckResult("ball-circ-quotient", p["tol"])
    rho = 0.7
    polydisk, ball, taylor, circ = (NormSpec(family, rho) for family in
                                    (POLYDISK_L1, BALL, FREE_TAYLOR, FREE_BALL_CIRC))
    free_polydisks = [NormSpec(FREE_POLYDISK, rho, tau=tau) for tau in (1.0, 2.0)]
    for i in range(p["samples"]):
        n = 2 + i % 2
        q = (0.5, 2.0, 1.0)[i % 3] * _phase(rng)
        f = randgen.random_free(rng, n, max_len=4, terms=6)
        image = normal_order(f, q)
        nd = norm(image, polydisk)
        nb = norm(image, ball)
        taylor_check.add(nd / max(norm(f, taylor), 1e-300) - 1.0)
        for spec in free_polydisks:
            poly_check.add(nd / max(norm(f, spec), 1e-300) - 1.0)
        ball_check.add(nb / max(norm(f, circ), 1e-300) - 1.0)
    return [taylor_check, poly_check, ball_check]



def _suite_lift_attainment(rng: Random, p: dict) -> list:
    rho = 0.7
    poly_check = CheckResult("polydisk-lift-norm", p["tol"])
    ball_check = CheckResult("ball-lift-norm", p["tol"])
    order_check = CheckResult("lift-normal-orders-to-monomial", p["tol"])
    pert_check = CheckResult("ball-lift-optimality", 1e-12)
    profiles = []
    for n in range(1, 4):
        for k in qc.multi_indices(n, 7):
            profiles.append((n, k))
    for modulus in (0.05, 0.3, 0.5, 1.0, 2.0):
        q = modulus if modulus != 1.0 else cmath.exp(0.4j)
        for n, k in profiles:
            lift = polydisk_lift(k, q)
            target = qc.weight_polydisk(k, q) * rho ** sum(k)
            poly_check.add(_rel(norm(lift, NormSpec(FREE_TAYLOR, rho)), target))
            blift = ball_lift(k, q)
            btarget = qc.weight_ball(k, q) * rho ** sum(k)
            ball_check.add(_rel(norm(blift, NormSpec(FREE_BALL_CIRC, rho)), btarget))
            for lifted in (lift, blift):
                order_check.add(_max_diff(normal_order(lifted, q).terms, {tuple(k): 1.0}))
    # random feasible perturbations of the minimizing coefficients
    candidates = [(n, k) for n, k in profiles if qc.fiber_count(k) >= 2]
    for i in range(p["perturbations"]):
        n, k = candidates[rng.randrange(len(candidates))]
        q = (0.5, 2.0)[i % 2]
        words = qc.fiber_words(k)
        ms = qc.fiber_inversion_list(k)
        base = ball_lift(k, q)
        base_norm = norm(base, NormSpec(FREE_BALL_CIRC, 1.0))
        logs = [-2.0 * m * math.log(q) for m in ms]
        shift = max(logs)
        raw = [math.exp(v - shift) for v in logs]
        total = math.fsum(raw)
        c0 = [w / total for w in raw]
        delta = [rng.gauss(0.0, 1.0) for _ in words]
        mean = math.fsum(delta) / len(delta)
        eps = (1e-3, 0.1, 1.0)[i % 3]
        coeffs = [c + eps * (d - mean) for c, d in zip(c0, delta)]
        perturbed = FreeElement(n, {a: c * q ** m for a, c, m in zip(words, coeffs, ms)})
        pert_check.add(base_norm - norm(perturbed, NormSpec(FREE_BALL_CIRC, 1.0)))
    return [poly_check, ball_check, order_check, pert_check]


def _suite_lemma_7_9(rng: Random, p: dict) -> list:
    dist = CheckResult("mahonian-distribution", p["tol"])
    fiber_norm = CheckResult("ball-monomial-norm-vs-fiber", p["tol"])
    qs = (0.3, 0.5, 1.7, cmath.exp(1j * math.pi / 5))
    for n in range(1, 4):
        for k in qc.multi_indices(n, p["max_total"]):
            for q in qs:
                brute, closed = qc.inv_distribution(k, q)
                dist.add(_rel(brute, closed))
    for modulus in (0.5, 2.0):
        for n in range(1, 4):
            for k in qc.multi_indices(n, p["max_total"]):
                acc = math.fsum(modulus ** (-2 * m) for m in qc.fiber_inversion_list(k))
                fiber_norm.add(_rel(acc ** -0.5, qc.weight_ball(k, modulus)))
    return [dist, fiber_norm]


# ---------------------------------------------------------------------------
# deformation combinatorics suites

def _suite_lemma_8_5(rng: Random, p: dict) -> list:
    failures = 0.0
    for n in range(1, 5):
        for k in qc.multi_indices(n, 7):
            for m in range(qc.cross_degree(k) + 1):
                alpha = qc.word_with_inversions(k, m)
                if (qc.word_profile(alpha, n) != k or qc.inversions(alpha) != m
                        or qc.switch_count(alpha) > n + 2):
                    failures += 1.0
    return [CheckResult("moving-letter-postconditions", 0.0, failures)]


def _suite_lemma_8_6(rng: Random, p: dict) -> list:
    """Every word of length <= max_len over 4 letters has at most
    cross_degree(p(alpha)) inversions: each word's m - cross is one sample.

    The cross degree of each of the profiles those words reach is formed
    once, before the walk."""
    n = 4
    cross = {k: qc.cross_degree(k) for k in qc.multi_indices(n, p["max_len"])}
    check = CheckResult("inversions-at-most-cross-degree", 0.0)
    words = qc.words(n, p["max_len"])
    # batches of mixed lengths; all 4^8 words of length 8 at once would
    # raise the peak memory of `verify all` by about 40 MB
    while batch := list(islice(words, 4096)):
        profiles, ms = qc.word_stats(batch, n)
        check.add(*map(float, map(sub, ms, map(cross.__getitem__, profiles))))
    return [check]


def _abs_omega_grid(s: int, parr: np.ndarray) -> np.ndarray:
    return np.where(parr >= 0, parr, np.where(parr + s >= 0, 0, -(parr + s)))


def _suite_lemma_8_10(rng: Random, p: dict) -> list:
    """|omega(k, p)| is the distance from p to [-cross_degree(k), 0], and it
    is subadditive: |omega(k+l, p+s-sigma(l,k))| <= |omega(k, p)| +
    |omega(l, s)| over the grid p, s in [-30, 30].

    The subadditivity grids hold exact integers.  Each side depends on
    (k, l) only through cross_degree(k+l) and sigma(l, k) (left) and
    cross_degree(k), cross_degree(l) (right), so each distinct left grid is
    built once, one at a time, against each distinct right grid of its
    pairs: the max over them is the max over all pairs."""
    span = np.arange(-30, 31)
    identity = CheckResult("clipped-exponent-interval-identity", 0.0)
    subadd = CheckResult("clipped-exponent-subadditive", 0.0)
    rights: dict = {}   # (cross(k+l), sigma(l, k)) -> {(cross(k), cross(l))}
    vecs: dict = {}     # cross(k) -> |omega(k, span)|
    for n in range(1, 4):
        idxs = qc.multi_indices(n, 5)
        cross = {k: qc.cross_degree(k) for k in idxs}
        for s in set(cross.values()) - set(vecs):
            vecs[s] = _abs_omega_grid(s, span)
        for k in idxs:
            for pp in span:
                s = cross[k]
                oracle = 0 if (pp <= 0 <= pp + s) else min(abs(pp), abs(pp + s))
                identity.add(float(abs(abs(omega(k, int(pp))) - oracle)))
        for k in idxs:
            for l in idxs:
                key = (qc.cross_degree(tuple(map(add, k, l))), qc.sigma(l, k))
                rights.setdefault(key, set()).add((cross[k], cross[l]))
    for (s, shift), pairs in rights.items():
        lhs = _abs_omega_grid(s, span[:, None] + span[None, :] - shift)
        for sk, sl in pairs:
            rhs = vecs[sk][:, None] + vecs[sl][None, :]
            subadd.add(float((lhs - rhs).max()))
    return [identity, subadd]


def _generator_words(n: int, max_len: int):
    """(alpha, x_alpha) for every word alpha of length <= max_len over 1..n,
    depth first.

    Each x_alpha is laurent_mul(x_{alpha[:-1]}, x_a), the product
    laurent_word(n, alpha) takes at its last letter a, so it is that
    element bit for bit, built once from its prefix.  Only the current path
    and its pending siblings are held."""
    generators = [laurent_word(n, (a,)) for a in range(1, n + 1)]
    stack = [((), laurent_word(n, ()))]
    while stack:
        alpha, built = stack.pop()
        yield alpha, built
        if len(alpha) < max_len:
            stack.extend((alpha + (a,), laurent_mul(built, x_a))
                         for a, x_a in enumerate(generators, 1))


def _suite_laurent_word_identity(rng: Random, p: dict) -> list:
    """Each generator word x_alpha of length <= max_len is the flat
    monomial x^{p(alpha)} z^{-m(alpha)}; the words come from
    _generator_words, which builds every x_alpha laurent_word builds."""
    check = CheckResult("generator-word-is-flat-monomial", 1e-12)
    for n in range(1, 4):
        for alpha, built in _generator_words(n, p["max_len"]):
            expected = LaurentElement.monomial(
                n, qc.word_profile(alpha, n), -qc.inversions(alpha))
            check.add(_max_diff(built.terms, expected.terms))
    return [check]


# ---------------------------------------------------------------------------
# Fock suites

def _suite_fock_lemma_5_2(rng: Random, p: dict) -> list:
    check = CheckResult("vacuum-image-closed-form", p["tol"])
    for q in (0.3, 0.5, 0.8):
        for n in range(1, 4):
            for k in qc.multi_indices(n, p["max_total"]):
                trunc = fock.FockTruncation(n, q, 0, reach=sum(k))
                mono = QPolynomial.monomial(n, q, k)
                image = fock.fock_apply(mono, {(0,) * n: 1.0}, trunc)
                composed = image.get(tuple(k), 0.0)
                check.add(_rel(composed, fock.vacuum_image(k, q)))
    return [check]


def _suite_fock_sandwich_5_4(rng: Random, p: dict) -> list:
    identity = CheckResult("vacuum-identity", 1e-12)
    upper = CheckResult("operator-below-l1", p["tol"])
    vacuum = CheckResult("vacuum-above-l2-constant", p["tol"])
    chain = CheckResult("two-scale-chain", p["tol"])
    for i in range(p["samples"]):
        q = (0.3, 0.5, 0.8)[i % 3]
        rho = (0.5, 1.0)[i % 2]
        tau = 2.0 * rho
        a = randgen.random_qpoly(rng, 2, q, max_degree=3, terms=5)
        report = fock.vaksman_sandwich_check(a, q, rho, p["degree"])
        identity.add(report["identity_error"])
        bounds = report["bounds"]
        upper.add((bounds.lower - bounds.upper) / max(bounds.upper, 1e-300))
        vacuum.add(-report["vacuum_slack"] / max(bounds.vacuum, 1e-300))
        # two-sided chain between scales rho < tau
        tau_bounds = fock.op_norm_bounds(a, q, tau, p["degree"])
        const = (((tau ** 2 - rho ** 2) / tau ** 2)
                 * qc.q_pochhammer_inf(q * q, q * q).value) ** (a.n / 2.0)
        lhs = const * bounds.upper           # bounds.upper is the l^1 norm at rho
        chain.add((lhs - tau_bounds.vacuum) / max(lhs, 1e-300))
        upper.add((tau_bounds.lower - tau_bounds.upper) / max(tau_bounds.lower, 1e-300))
    return [identity, upper, vacuum, chain]


def _suite_fock_xnorm_limit(rng: Random, p: dict) -> list:
    x = QPolynomial.monomial(1, 0.5, (1,))
    bounds = fock.op_norm_bounds(x, 0.5, 1.0, 20)
    gap = CheckResult("generator-norm-reaches-one", 0.0, (1.0 - 1e-10) - bounds.lower)
    mono = CheckResult("lower-bounds-monotone-in-degree", 1e-12)
    for i in range(p["samples"]):
        n = 1 + i % 2
        q = (0.3, 0.7)[i % 2]
        a = randgen.random_qpoly(rng, n, q, max_degree=2, terms=4)
        lowers = fock._lower_bounds(a, q, 1.0, range(2, 11))
        mono.add(*map(sub, lowers, lowers[1:]))
    return [gap, mono]



# ---------------------------------------------------------------------------
# spectral suites

def _suite_spectral_examples(rng: Random, p: dict) -> list:
    q_uni = cmath.exp(1j * math.pi / 4)
    poly_check = CheckResult("polydisk-coordinate-value", 1e-12)
    ball_check = CheckResult("ball-coordinate-value", 1e-12)
    for n in (2, 3):
        for rho in (0.5, 1.0):
            ts = spectral.coordinate_tuple(n, NormSpec(POLYDISK_L1, rho), 2, 10, q=q_uni)
            for d in range(1, 11):
                poly_check.add(_rel(spectral.radius_estimate(ts, d), rho * math.sqrt(n)))
    for n in range(1, 5):
        ts = spectral.coordinate_tuple(n, NormSpec(BALL, 1.0), 2, 10, q=q_uni)
        for d in range(1, 11):
            expected = math.comb(d + n - 1, n - 1) ** (1.0 / (2 * d))
            ball_check.add(_rel(spectral.radius_estimate(ts, d), expected))

    # free coordinate behavior: Taylor passes below r, alternating-switch fails
    ts_ft = spectral.TupleSpec(tuple(FreeElement.generators(2)),
                               NormSpec(FREE_TAYLOR, 0.5), math.inf, 8)
    taylor_flat = CheckResult("taylor-coordinate-flat", 1e-12,
                              *(_rel(spectral.radius_estimate(ts_ft, d), 0.5)
                                for d in range(1, 9)))
    ts_fp = spectral.TupleSpec(tuple(FreeElement.generators(2)),
                               NormSpec(FREE_POLYDISK, 0.5, tau=2.0), math.inf, 8)
    verdicts = CheckResult("contractivity-verdicts", 0.0,
                           float(spectral.contractive_check(ts_ft, 1.0).verdict != "pass"),
                           float(spectral.contractive_check(ts_fp, 0.9).verdict != "fail"))

    # l^p ordering on random tuples
    order = CheckResult("lp-ordering", 1e-12)
    for _ in range(p["tuples"]):
        gens = tuple(randgen.random_qpoly(rng, 2, 0.5, max_degree=2, terms=3)
                     for _ in range(2))
        spec = NormSpec(POLYDISK_L1, 0.8)
        vals = {}
        for exponent in (1, 2, math.inf):
            ts = spectral.TupleSpec(gens, spec, exponent, 3)
            vals[exponent] = spectral.radius_estimate(ts, 3)
        order.add(vals[math.inf] - vals[2], vals[2] - vals[1])

    # norm monotonicity across the ball/polydisk comparison at |q| = 0.5
    mono = CheckResult("norm-monotonicity", 0.0)
    for d in range(1, 9):
        ball = spectral.coordinate_tuple(2, NormSpec(BALL, 0.8), 2, 8, q=0.5)
        poly = spectral.coordinate_tuple(2, NormSpec(POLYDISK_L1, 0.8), 2, 8, q=0.5)
        mono.add(spectral.radius_estimate(ball, d)
                 - spectral.radius_estimate(poly, d) * (1 + 1e-12))

    # closed-form grouping agrees with word enumeration
    group = CheckResult("grouping-vs-enumeration", 1e-12)
    for modulus in (0.5, 2.0):
        for family in (POLYDISK_L1, BALL):
            for exponent in (1, 2, math.inf):
                ts = spectral.coordinate_tuple(2, NormSpec(family, 0.9), exponent, 4,
                                               q=modulus)
                for d in range(1, 5):
                    fast = spectral.radius_estimate(ts, d)
                    slow = spectral.radius_estimate(ts, d, force_enumeration=True)
                    group.add(_rel(fast, slow))

    return [poly_check, ball_check, taylor_flat, verdicts, order, mono, group]


def _suite_poincare_gap(rng: Random, p: dict) -> list:
    q = cmath.exp(1j * math.pi / 4)
    gap10 = spectral.poincare_gap(2, q, 1.0, 10)
    gap1 = spectral.poincare_gap(1, q, 0.7, 10)
    gap50 = spectral.poincare_gap(2, q, 1.0, 50)
    return [CheckResult("polydisk-estimate-sqrt-n", 1e-12, _rel(gap10.polydisk, math.sqrt(2.0))),
            CheckResult("ball-estimate-window", 0.0,
                        float(not 1.0 < gap10.ball <= 11 ** 0.05 * (1 + 1e-12))),
            CheckResult("dimension-one-no-gap", 1e-12,
                        _rel(gap1.polydisk, 0.7), _rel(gap1.ball, 0.7)),
            CheckResult("gap-ratio-at-depth-50", 0.0, 1.35 - gap50.polydisk / gap50.ball),
            CheckResult("ball-closed-form", 1e-12, _rel(gap50.ball, math.comb(51, 1) ** 0.01))]


# ---------------------------------------------------------------------------
# star product and formal deformation suites

def _taylor_reference(exponent: int, order: int) -> list:
    out = [complex(1.0)]
    for j in range(1, order + 1):
        out.append((-1j * exponent) ** j / math.factorial(j))
    return out


def _suite_star_associativity(rng: Random, p: dict) -> list:
    gen = CheckResult("generator-rule", 1e-14)
    mono = CheckResult("monomial-phase", 1e-13)
    assoc = CheckResult("associativity", p["tol"])
    fiber = CheckResult("fiber-compatibility", 0.0)
    unit = CheckResult("unit", 0.0)
    n = 3
    for order in (2, 4):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                ej = tuple(1 if t == j - 1 else 0 for t in range(n))
                ek = tuple(1 if t == k - 1 else 0 for t in range(n))
                prod = deform.star_product(HSeriesElement.monomial(n, order, ej),
                                           HSeriesElement.monomial(n, order, ek))
                expected = _taylor_reference(1 if j > k else 0, order)
                target = tuple(a + b for a, b in zip(ej, ek))
                for power, ref in enumerate(expected):
                    got = prod.terms.get((power, target), 0.0)
                    gen.add(abs(got - ref))

    for _ in range(100):
        n2 = 2 + rng.randrange(2)
        order = 3
        pool = qc.multi_indices(n2, 5)
        k = pool[rng.randrange(len(pool))]
        l = pool[rng.randrange(len(pool))]
        prod = deform.star_product(HSeriesElement.monomial(n2, order, k),
                                   HSeriesElement.monomial(n2, order, l))
        expected = _taylor_reference(qc.sigma(l, k), order)
        target = tuple(a + b for a, b in zip(k, l))
        mono.add(float(any(key[1] != target for key in prod.terms)))
        for power, ref in enumerate(expected):
            mono.add(_rel(prod.terms.get((power, target), 0.0), ref))

    for i in range(p["triples"]):
        order = 2 + i % 3
        f = randgen.random_hseries(rng, 2, order, max_degree=4, terms=4)
        g = randgen.random_hseries(rng, 2, order, max_degree=4, terms=4)
        u = randgen.random_hseries(rng, 2, order, max_degree=4, terms=4)
        left = deform.star_product(deform.star_product(f, g), u)
        right = deform.star_product(f, deform.star_product(g, u))
        assoc.add(_max_diff(left.terms, right.terms))

    for i in range(50):
        h0 = (0.1, 0.05, 0.01)[i % 3]
        order = 8
        fq = QPolynomial(2, 1.0, randgen.random_qpoly(rng, 2, 1.0, 3, 4).terms)
        gq = QPolynomial(2, 1.0, randgen.random_qpoly(rng, 2, 1.0, 3, 4).terms)
        fh = HSeriesElement.from_coefficients(2, order, {0: dict(fq.terms)})
        gh = HSeriesElement.from_coefficients(2, order, {0: dict(gq.terms)})
        star_eval = deform.evaluate_h(deform.star_product(fh, gh), h0)
        q_h = cmath.exp(1j * h0)
        direct = qpoly_mul(QPolynomial(2, q_h, dict(fq.terms)),
                           QPolynomial(2, q_h, dict(gq.terms)))
        diff = _max_diff(star_eval.terms, direct.terms)
        sig_max = max((qc.sigma(l, k) for k in fq.terms for l in gq.terms), default=0)
        mass = math.fsum(map(abs, fq.terms.values())) * math.fsum(map(abs, gq.terms.values()))
        bound = 2.0 * mass * (sig_max * h0) ** (order + 1) / math.factorial(order + 1) + 1e-12
        fiber.add(diff - bound)

    for _ in range(50):
        f = randgen.random_hseries(rng, 2, 3, max_degree=3, terms=4)
        prod = deform.star_product(f, HSeriesElement.one(2, 3))
        unit.add(_max_diff(prod.terms, f.terms))

    return [gen, mono, assoc, fiber, unit]


def _fit_slope(hs, values) -> float:
    xs = [math.log(h) for h in hs]
    ys = [math.log(v) for v in values]
    mean_x = math.fsum(xs) / len(xs)
    mean_y = math.fsum(ys) / len(ys)
    num = math.fsum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    den = math.fsum((x - mean_x) ** 2 for x in xs)
    return num / den


def _suite_star_defect(rng: Random, p: dict) -> list:
    spec = NormSpec(POLYDISK_L1, 1.0)
    x1 = QPolynomial.monomial(2, 1.0, (1, 0))
    x2 = QPolynomial.monomial(2, 1.0, (0, 1))
    h = 0.01
    defect = deform.quantization_defect(x1, x2, h, spec)
    reference = abs((1.0 - cmath.exp(-1j * h)) / h - 1j)
    example = CheckResult("coordinate-defect-value", 1e-12,
                          _rel(defect, reference), abs(defect / 0.005 - 1.0) - 0.05)
    two_routes = CheckResult("phi-vs-commutator-route", 1e-10,
                             _rel(defect, deform.commutator_defect(x1, x2, h, spec)))

    self_defect = CheckResult("self-defect-vanishes", 1e-15)
    for _ in range(20):
        f = randgen.random_qpoly(rng, 2, 1.0, max_degree=3, terms=4)
        self_defect.add(deform.quantization_defect(f, f, 0.01, spec))

    slope = CheckResult("defect-order-one", 0.0)
    hs = (1e-1, 1e-2, 1e-3, 1e-4)
    for _ in range(p["pairs"]):
        f = randgen.random_qpoly(rng, 2, 1.0, max_degree=3, terms=4)
        g = randgen.random_qpoly(rng, 2, 1.0, max_degree=3, terms=4)
        values = [deform.quantization_defect(f, g, h, spec) for h in hs]
        if min(values) <= 1e-14:
            continue
        slope.add(abs(_fit_slope(hs, values) - 1.0) - 0.1)

    jacobi = CheckResult("jacobi", p["tol"])
    leibniz = CheckResult("leibniz", p["tol"])
    for _ in range(p["triples"]):
        f = randgen.random_qpoly(rng, 2, 1.0, max_degree=3, terms=3)
        g = randgen.random_qpoly(rng, 2, 1.0, max_degree=3, terms=3)
        u = randgen.random_qpoly(rng, 2, 1.0, max_degree=3, terms=3)
        jac = (deform.poisson_bracket(f, deform.poisson_bracket(g, u))
               + deform.poisson_bracket(g, deform.poisson_bracket(u, f))
               + deform.poisson_bracket(u, deform.poisson_bracket(f, g)))
        jacobi.add(_max_diff(jac.terms, {}))   # its largest |coefficient|, 0.0 if none
        lhs = deform.poisson_bracket(f, qpoly_mul(g, u))
        rhs = qpoly_mul(deform.poisson_bracket(f, g), u) + qpoly_mul(g, deform.poisson_bracket(f, u))
        leibniz.add(_max_diff(lhs.terms, rhs.terms))

    return [example, two_routes, self_defect, slope, jacobi, leibniz]


def _suite_formal_lift(rng: Random, p: dict) -> list:
    order = 3
    identity = CheckResult("truncated-ordering-identity", p["tol"])
    axis = CheckResult("axis-profile-exact", 0.0)
    bound_check = CheckResult("coefficient-norm-bound", 0.0)
    for n in range(1, 4):
        for k in qc.multi_indices(n, 5):
            u = deform.formal_ball_lift(k, order)
            pushed = deform.normal_order_formal(u)
            expected = HSeriesElement.monomial(n, order, k)
            identity.add(_max_diff(pushed.terms, expected.terms))
            log_half = 0.5 * (math.fsum(math.lgamma(m + 1) for m in k) - math.lgamma(sum(k) + 1))
            for s in range(order + 1):
                coeff = FreeElement(n, u.coefficient(s))
                bound = sum(k) ** (2 * s) * math.exp(log_half) if sum(k) else (1.0 if s == 0 else 0.0)
                bound_check.add(norm(coeff, NormSpec(FREE_BALL_CIRC, 1.0)) - bound - 1e-12)
    for m in range(1, 6):
        u = deform.formal_ball_lift((m, 0), order)
        axis.add(_max_diff(u.terms, {(0, (1,) * m): 1.0}))
    return [identity, axis, bound_check]


def _suite_remark_3_12_blowup(rng: Random, p: dict) -> list:
    q = 0.5
    growth = CheckResult("product-norm-grows-like-qpow", 1e-12)
    for m in range(1, 6):
        k2 = (0, m)
        k1 = (m, 0)
        prod = qpoly_mul(QPolynomial.monomial(2, q, k2), QPolynomial.monomial(2, q, k1))
        classical = QPolynomial(2, 1.0, dict(prod.terms))
        value = norm(classical, NormSpec(POLYDISK_L1, 1.0))
        growth.add(_rel(value, 2.0 ** (m * m)))
    # value is the norm at m = 5
    return [growth, CheckResult("exceeds-1e6-by-m-5", 0.0, 1e6 - value)]


def _suite_lambda_2_1(rng: Random, p: dict) -> list:
    holds, constant = lambda_p_compare({(0,): 1.0, (1,): 0.5, (3,): 2.0},
                                       1, math.inf, 0.5, 1.0)
    example = CheckResult("textbook-constant", 1e-12,
                          abs(constant - 2.0) + (0.0 if holds else 1.0))
    singleton = CheckResult("singleton-family", 0.0)
    single = {(0, 0): 1.0}
    for pq in ((1, 2), (1, math.inf), (2, math.inf)):
        for rho, tau in ((0.5, 1.0), (0.3, 0.9)):
            ok, _ = lambda_p_compare(single, pq[0], pq[1], rho, tau)
            singleton.add(float(not ok))
    failures = 0.0
    for i in range(p["families"]):
        n = 1 + i % 3
        pool = qc.multi_indices(n, 5)
        size = 3 + rng.randrange(15)
        weights = {pool[rng.randrange(len(pool))]: rng.random() for _ in range(size)}
        rho = 0.2 + 0.5 * rng.random()
        tau = rho + 0.1 + 0.5 * rng.random()
        for pq in ((1, 2), (1, math.inf), (2, math.inf)):
            ok, _ = lambda_p_compare(weights, pq[0], pq[1], rho, tau)
            if not ok:
                failures += 1.0
    return [example, singleton, CheckResult("random-families", 0.0, failures)]



# ---------------------------------------------------------------------------
# registry and runner

_SUITES = {
    "chu-vandermonde": (_suite_chu_vandermonde,
                        {"qs": (0.2, 0.5, 0.9, 1.1, 2.0), "max_n": 4,
                         "max_total": 6, "tol": 1e-12}),
    "lemma-3-13": (_suite_lemma_3_13,
                   {"moduli": (0.5, 0.9, 1.0, 1.3, 3.0), "max_n": 3,
                    "max_total": 30, "tol": 1e-10}),
    "lemma-4-1": (_suite_lemma_4_1,
                  {"qs": (0.2, 0.5, 0.9), "max_n": 4, "max_total": 20, "tol": 1e-12}),
    "theorem-4-2": (_suite_theorem_4_2, {"samples": 500, "tol": 1e-12}),
    "prop-3-15-isometry": (_suite_prop_3_15_isometry, {"samples": 200, "tol": 1e-10}),
    "stirling-3-4": (_suite_stirling_3_4, {}),
    "eq-6-10": (_suite_eq_6_10, {"moduli": (0.5, 0.9, 2.0), "tol": 1e-10}),
    "submult-all": (_suite_submult_all, {"pairs": 1000, "tol": 1e-9}),
    "quotient-contraction": (_suite_quotient_contraction, {"samples": 500, "tol": 1e-12}),
    "lift-attainment": (_suite_lift_attainment, {"perturbations": 200, "tol": 1e-10}),
    "lemma-7-9": (_suite_lemma_7_9, {"max_total": 8, "tol": 1e-10}),
    "lemma-8-5": (_suite_lemma_8_5, {}),
    "lemma-8-6": (_suite_lemma_8_6, {"max_len": 8}),
    "lemma-8-10": (_suite_lemma_8_10, {}),
    "laurent-word-identity": (_suite_laurent_word_identity, {"max_len": 7}),
    "fock-lemma-5-2": (_suite_fock_lemma_5_2, {"max_total": 6, "tol": 1e-12}),
    "fock-sandwich-5-4": (_suite_fock_sandwich_5_4,
                          {"samples": 300, "degree": 5, "tol": 1e-10}),
    "fock-xnorm-limit": (_suite_fock_xnorm_limit, {"samples": 50}),
    "spectral-examples": (_suite_spectral_examples, {"tuples": 100}),
    "poincare-gap": (_suite_poincare_gap, {}),
    "star-associativity": (_suite_star_associativity, {"triples": 200, "tol": 1e-9}),
    "star-defect-8-23": (_suite_star_defect, {"pairs": 50, "triples": 100, "tol": 1e-9}),
    "formal-lift-8-39": (_suite_formal_lift, {"tol": 1e-10}),
    "remark-3-12-blowup": (_suite_remark_3_12_blowup, {}),
    "lambda-2-1": (_suite_lambda_2_1, {"families": 100}),
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, seed: int = 1234) -> SuiteReport:
    if name not in _SUITES:
        raise KeyError(f"unknown suite {name!r}")
    fn, defaults = _SUITES[name]
    params = dict(defaults)
    rng = Random(f"{name}:{seed}")
    start = time.perf_counter()
    try:
        checks = fn(rng, params)
        return SuiteReport(name, params, checks, time.perf_counter() - start)
    except EnumerationCapExceeded as exc:
        return SuiteReport(name, params, [], time.perf_counter() - start,
                           error=f"resource limit: {exc}")


def run_all(seed: int = 1234) -> list:
    return [run_suite(name, seed) for name in SUITE_NAMES]
