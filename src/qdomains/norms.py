"""Weighted power-series norms for all element types, the clipped Laurent
exponent omega(k, p), the scale-comparison constants, and the classical
ball sup coefficients.

Norms are exact finite sums over term supports.  Weights are produced in
the log domain and the terms are accumulated in a fixed sorted order so
reports are reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import repeat
from operator import add
from typing import Mapping, Sequence

from qdomains import _mutate
from qdomains import qcombinat as qc
from qdomains.deform_types import HSeriesElement
from qdomains.elements import FreeElement, LaurentElement, QPolynomial
from qdomains.qcombinat import QParam, as_qparam

__all__ = [
    "FAMILIES",
    "FAMILY_TYPES",
    "POLYDISK_L1",
    "POLYDISK_L2",
    "BALL",
    "CLASSICAL_BALL",
    "FREE_TAYLOR",
    "FREE_POLYDISK",
    "FREE_BALL_BULLET",
    "FREE_BALL_CIRC",
    "LAURENT",
    "FORMAL",
    "NormSpec",
    "norm",
    "monomial_log_norm",
    "omega",
    "lambda_p_compare",
    "classical_ball_sup_coeff",
]

POLYDISK_L1 = "polydisk-l1"
POLYDISK_L2 = "polydisk-l2"
BALL = "ball"
CLASSICAL_BALL = "classical-ball"
FREE_TAYLOR = "free-taylor"
FREE_POLYDISK = "free-polydisk"
FREE_BALL_BULLET = "free-ball-bullet"
FREE_BALL_CIRC = "free-ball-circ"
LAURENT = "laurent"
FORMAL = "formal"

# the element type each norm family measures
FAMILY_TYPES = {
    **dict.fromkeys((POLYDISK_L1, POLYDISK_L2, BALL, CLASSICAL_BALL), QPolynomial),
    **dict.fromkeys((FREE_TAYLOR, FREE_POLYDISK, FREE_BALL_BULLET, FREE_BALL_CIRC), FreeElement),
    LAURENT: LaurentElement,
    FORMAL: HSeriesElement,
}
FAMILIES = frozenset(FAMILY_TYPES)


@dataclass(frozen=True)
class NormSpec:
    """Selects one norm family with its parameters.

    rho applies to every family; tau to free-polydisk and laurent; order
    (the truncation N) to formal.  q, when given, is cross-checked against
    the q carried by the measured element.
    """

    family: str
    rho: float
    tau: float = 1.0
    order: int = 0
    q: QParam | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown norm family {self.family!r}")
        if not (math.isfinite(self.rho) and self.rho > 0):
            raise ValueError(f"rho must be finite and positive, got {self.rho!r}")
        if not (math.isfinite(self.tau) and self.tau >= 1):
            raise ValueError(f"tau must be finite and at least 1, got {self.tau!r}")
        if self.order < 0:
            raise ValueError("truncation order must be nonnegative")
        if self.q is not None and not isinstance(self.q, QParam):
            object.__setattr__(self, "q", as_qparam(self.q))

    def with_rho(self, rho: float) -> "NormSpec":
        return NormSpec(self.family, rho, self.tau, self.order, self.q)


def _check_q(spec: NormSpec, q: QParam):
    if spec.q is not None and not spec.q.isclose(q):
        raise ValueError("norm spec q does not match the element's q")


def _monomial_log_norms(keys: Sequence[Sequence[int]], family: str, rho: float, q) -> list:
    """log ||x^k|| for each exponent vector k in keys, for a q-polynomial
    family: |k| log rho plus the family's log weight, the weights of all
    keys from one batch route (one factorial table, one mutation hook)."""
    log_rho = math.log(rho)
    if family in (POLYDISK_L1, POLYDISK_L2):
        weights = qc.weight_polydisk_logs(keys, q)
    elif family == BALL:
        weights = qc.weight_ball_logs(keys, q)
    elif family == CLASSICAL_BALL:
        weights = [0.5 * (sum(math.lgamma(m + 1) for m in k) - math.lgamma(sum(k) + 1))
                   for k in keys]
    else:
        raise ValueError(f"{family!r} is not a q-polynomial family")
    return [sum(k) * log_rho + w for k, w in zip(keys, weights)]


def monomial_log_norm(k: Sequence[int], family: str, rho: float, q) -> float:
    """log of the monomial norm ||x^k|| for the q-polynomial families."""
    return _monomial_log_norms((k,), family, rho, q)[0]


def _qpoly_norm(a: QPolynomial, spec: NormSpec) -> float:
    _check_q(spec, a.q)
    keys = sorted(a.terms, key=a._sort_key)   # the sorted_terms order
    pairs = zip(map(a.terms.__getitem__, keys),
                _monomial_log_norms(keys, spec.family, spec.rho, a.q))
    acc = 0.0
    if spec.family == POLYDISK_L2:
        for c, log_norm in pairs:
            try:
                acc += abs(c) ** 2 * math.exp(2.0 * log_norm)
            except OverflowError:   # |c|**2 or ||x^k||**2 alone leaves the float range
                acc += math.exp(2.0 * (math.log(abs(c)) + log_norm))
        return math.sqrt(acc)
    for c, log_norm in pairs:
        try:
            acc += abs(c) * math.exp(log_norm)
        except OverflowError:   # ||x^k|| alone leaves the float range
            acc += math.exp(math.log(abs(c)) + log_norm)
    return acc


def _free_norm(a: FreeElement, spec: NormSpec) -> float:
    rho, tau = spec.rho, spec.tau
    if spec.family == FREE_TAYLOR:
        return sum(abs(c) * rho ** len(alpha) for alpha, c in a.sorted_terms())
    if spec.family == FREE_POLYDISK:
        return sum(abs(c) * rho ** len(alpha) * tau ** (qc.switch_count(alpha) + 1)
                   for alpha, c in a.sorted_terms())
    if spec.family == FREE_BALL_BULLET:
        by_degree: dict = {}
        for alpha, c in a.terms.items():
            d = len(alpha)
            by_degree[d] = by_degree.get(d, 0.0) + abs(c) ** 2
        return sum(math.sqrt(by_degree[d]) * rho ** d for d in sorted(by_degree))
    # the one free family left, FREE_BALL_CIRC
    by_profile: dict = {}
    profiles = qc.word_profiles(a.terms, a.n)
    if profiles and profiles.count(profiles[0]) == len(profiles):
        # one profile, as in a lift: the loop's sum 0.0 + |c|**2 + ... in
        # one C-level reduction, in term order (builtin sum would compensate)
        by_profile[profiles[0]] = reduce(add, map(pow, map(abs, a.terms.values()), repeat(2)),
                                         0.0)
    else:
        for k, c in zip(profiles, a.terms.values()):
            by_profile[k] = by_profile.get(k, 0.0) + abs(c) ** 2
    return sum(math.sqrt(by_profile[k]) * rho ** sum(k)
               for k in sorted(by_profile, key=lambda k: (sum(k), k)))


def _laurent_norm(a: LaurentElement, spec: NormSpec) -> float:
    rho, tau = spec.rho, spec.tau
    return sum(abs(c) * rho ** sum(k) * tau ** abs(omega(k, p))
               for (k, p), c in a.sorted_terms())


def _hseries_norm(a: HSeriesElement, spec: NormSpec) -> float:
    acc = 0.0
    for (p, k), c in a.sorted_terms():
        if p <= spec.order:
            acc += abs(c) * spec.rho ** sum(k)
    return acc


_NORMS = {QPolynomial: _qpoly_norm, FreeElement: _free_norm,
          LaurentElement: _laurent_norm, HSeriesElement: _hseries_norm}


def norm(a, spec: NormSpec) -> float:
    """Evaluate the selected norm; the element type must match the family."""
    cls = FAMILY_TYPES[spec.family]
    if not isinstance(a, cls):
        raise TypeError(f"family {spec.family!r} does not apply to {type(a).__name__}")
    return _NORMS[cls](a, spec)


# ---------------------------------------------------------------------------
# the clipped z-exponent

def omega(k: Sequence[int], p: int):
    """Distance-clipped z-exponent: p, 0, or p + cross_degree(k).

    |omega(k, p)| equals the distance from 0 to the integer interval
    [p, p + cross_degree(k)].
    """
    s = qc.cross_degree(k)
    if p >= 0:
        value = p
    elif p + s >= 0:
        value = 0
    else:
        value = p + s
    return _mutate.scale("omega", value)


# ---------------------------------------------------------------------------
# scale comparison for l^p coefficient norms

def _family_lp_norm(weights: Mapping[tuple, float], p, rho: float) -> float:
    if p == math.inf:
        return max((w * rho ** sum(k) for k, w in weights.items()), default=0.0)
    return sum((w * rho ** sum(k)) ** p for k, w in weights.items()) ** (1.0 / p)


def lambda_p_compare(weights: Mapping[tuple, float], p, s, rho: float, tau: float):
    """Check the two-sided comparison between l^p and l^s coefficient norms.

    For p < s and 0 < rho < tau the l^s norm at rho is dominated by the
    l^p norm at rho, which in turn is bounded by C times the l^s norm at
    tau, C = (tau^l / (tau^l - rho^l))^(n/l) with l = (1/p - 1/s)^(-1).
    Returns (bound_holds, C).
    """
    if not 0 < rho < tau:
        raise ValueError("need 0 < rho < tau")
    allowed = (1, 2, math.inf)
    if p not in allowed or s not in allowed or not p < s:
        raise ValueError("need p < s with p, s in {1, 2, inf}")
    if any(w < 0 for w in weights.values()):
        raise ValueError("weights must be nonnegative")
    dims = {len(k) for k in weights}
    if len(dims) != 1:
        raise ValueError("weight family must have a single dimension")
    n = dims.pop()
    inv_s = 0.0 if s == math.inf else 1.0 / s
    ell = 1.0 / (1.0 / p - inv_s)
    constant = (tau ** ell / (tau ** ell - rho ** ell)) ** (n / ell)
    ns_rho = _family_lp_norm(weights, s, rho)
    np_rho = _family_lp_norm(weights, p, rho)
    ns_tau = _family_lp_norm(weights, s, tau)
    slack = 1e-12
    holds = (ns_rho <= np_rho * (1 + slack) + slack
             and np_rho <= constant * ns_tau * (1 + slack) + slack)
    return holds, constant


# ---------------------------------------------------------------------------
# classical ball sup coefficients

def classical_ball_sup_coeff(k: Sequence[int], r: float) -> float:
    """sup of |z^k| over the ball of radius r: (k^k / |k|^{|k|})^(1/2) r^{|k|}.

    Convention 0^0 = 1; zero entries contribute nothing.
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    total = sum(k)
    if total == 0:
        return 1.0
    log_val = sum(m * math.log(m) for m in k if m > 0) - total * math.log(total)
    return math.exp(0.5 * log_val + total * math.log(r))
