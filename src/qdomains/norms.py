"""Weighted power-series norms for all element types, the clipped Laurent
exponent omega(k, p), the scale-comparison constants, and the classical
ball sup coefficients.

Norms are exact finite sums over term supports.  Weights are produced in
the log domain and the terms are summed with math.fsum, which rounds
correctly, so a norm reads neither the term order nor the interpreter's
sum.

The q-plane and Laurent norms find each term's key in a pool: every
exponent vector of the element's dimension up to a total degree
2**b - 1, the least such at or above the element's top degree, held
under _held.held.  A q-plane norm reads each ||x^k|| from one table per
family, rho, |q|, mutation in force and pool, built in one batch over
the pool and held too: one float per key, exp of its log norm, or inf
where that leaves the float range; such a term is
exp(log |c| + log ||x^k||).  The Laurent norm reads each key's total and
cross degree from the pool.  An element whose pool would pass _POOL_CAP
keys gets a pool of its own keys, built for the one call.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import repeat
from typing import Mapping, NamedTuple, Sequence

from qdomains import _mutate
from qdomains import qcombinat as qc
from qdomains._held import held
from qdomains.deform_types import HSeriesElement
from qdomains.elements import FreeElement, LaurentElement, QPolynomial, _LiftTerms

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
    (the truncation N) to formal.  A q-plane norm reads the q of the
    element it measures.
    """

    family: str
    rho: float
    tau: float = 1.0
    order: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown norm family {self.family!r}")
        if not (math.isfinite(self.rho) and self.rho > 0):
            raise ValueError(f"rho must be finite and positive, got {self.rho!r}")
        if not (math.isfinite(self.tau) and self.tau >= 1):
            raise ValueError(f"tau must be finite and at least 1, got {self.tau!r}")
        if self.order < 0:
            raise ValueError("truncation order must be nonnegative")

    def with_rho(self, rho: float) -> "NormSpec":
        return NormSpec(self.family, rho, self.tau, self.order)


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
        weights = [0.5 * (math.fsum(math.lgamma(m + 1) for m in k) - math.lgamma(sum(k) + 1))
                   for k in keys]
    else:
        raise ValueError(f"{family!r} is not a q-polynomial family")
    return [sum(k) * log_rho + w for k, w in zip(keys, weights)]


def monomial_log_norm(k: Sequence[int], family: str, rho: float, q) -> float:
    """log of the monomial norm ||x^k|| for the q-polynomial families."""
    return _monomial_log_norms((k,), family, rho, q)[0]


# ---------------------------------------------------------------------------
# the held key pools and monomial factor tables

# A pool holds every exponent vector of one dimension up to a total degree
# top = 2**b - 1; the norms use one when it has at most this many keys
_POOL_CAP = 2 ** 12


class _Pool(NamedTuple):
    """Exponent vectors with the index, total degree and cross degree of
    each."""
    keys: tuple
    position: dict
    degree: tuple
    cross: tuple


def _make_pool(keys) -> _Pool:
    keys = tuple(keys)
    return _Pool(keys, {k: i for i, k in enumerate(keys)},
                 tuple(map(sum, keys)), tuple(map(qc.cross_degree, keys)))


@held(2 ** 14, size=lambda pool: len(pool.keys))
def _held_pool(n: int, top: int) -> _Pool:
    """The pool of every k in Z_+^n with |k| <= top; verify all holds
    about 1,150 keys in 10 pools."""
    return _make_pool(qc.multi_indices(n, top))


def _pool(n: int, keys) -> tuple:
    """(pool, top) for a set of n-dimensional exponent vectors: the held
    pool of every k with |k| <= top, top = 2**b - 1 the least such at or
    above their largest total degree, or, where that pool would pass
    _POOL_CAP keys, a pool of the vectors themselves and top None."""
    top = (1 << max(map(sum, keys), default=0).bit_length()) - 1
    if math.comb(n + top, n) <= _POOL_CAP:
        return _held_pool(n, top), top
    return _make_pool(set(keys)), None


def _monomial_factors(keys, family: str, rho: float, q) -> array:
    """||x^k|| (||x^k||**2 for polydisk-l2) for each k in keys, as exp of
    the log norm, with inf where that exp leaves the float range."""
    power = 2.0 if family == POLYDISK_L2 else 1.0
    factors = array("d")
    for log_norm in _monomial_log_norms(keys, family, rho, q):
        try:
            factors.append(math.exp(power * log_norm))
        except OverflowError:
            factors.append(math.inf)
    return factors


@held(2 ** 16)
def _held_factors(family: str, rho: float, modulus: float, mutation: str,
                  n: int, top: int) -> array:
    """The monomial factors of every key of the held pool (n, top), one
    float each, for one q-plane norm family at rho and |q| = modulus (the
    weights read |q| alone).  mutation is the name of the _mutate point in
    force, so that a table built under one is never read under another.
    verify all holds about 21,000 entries in 220 tables."""
    return _monomial_factors(_held_pool(n, top).keys, family, rho, modulus)


def _qpoly_norm(a: QPolynomial, spec: NormSpec) -> float:
    family, rho, modulus = spec.family, spec.rho, a.q.modulus
    pool, top = _pool(a.n, a.terms)
    if top is None:
        factors = _monomial_factors(pool.keys, family, rho, modulus)
    else:
        factors = _held_factors(family, rho, modulus, _mutate._active, a.n, top)
    found = map(factors.__getitem__, map(pool.position.__getitem__, a.terms))
    power = 2.0 if family == POLYDISK_L2 else 1.0

    def term(k, c, factor):
        # |c|**power ||x^k||**power, in log form where a factor leaves the float range
        if factor != math.inf:
            try:
                return abs(c) ** power * factor
            except OverflowError:
                pass
        return math.exp(power * (math.log(abs(c)) + monomial_log_norm(k, family, rho, modulus)))

    total = math.fsum(map(term, a.terms, a.terms.values(), found))
    return math.sqrt(total) if family == POLYDISK_L2 else total


def _free_norm(a: FreeElement, spec: NormSpec) -> float:
    rho, tau = spec.rho, spec.tau
    if spec.family == FREE_TAYLOR:
        return math.fsum(abs(c) * rho ** len(alpha) for alpha, c in a.terms.items())
    if spec.family == FREE_POLYDISK:
        return math.fsum(abs(c) * rho ** len(alpha) * tau ** (qc.switch_count(alpha) + 1)
                         for alpha, c in a.terms.items())
    if spec.family == FREE_BALL_BULLET:
        groups = _groups(map(len, a.terms), a.terms.values())
        return math.fsum(math.sqrt(math.fsum(squares)) * rho ** d for d, squares in groups)
    # the one free family left, FREE_BALL_CIRC
    terms = a.terms
    if type(terms) is _LiftTerms:   # a ball lift: |c|**2 once per m, then its copy's fsum
        squares = terms.per_word(lambda m, c: abs(c) ** 2)
        return math.sqrt(math.fsum(squares)) * rho ** sum(terms.counts)
    profiles = qc.word_profiles(terms, a.n)
    if profiles and profiles.count(profiles[0]) == len(profiles):
        # one profile, as in a copy of a lift: one C-level pass over the coefficients
        groups = [(profiles[0], map(pow, map(abs, terms.values()), repeat(2)))]
    else:
        groups = _groups(profiles, terms.values())
    return math.fsum(math.sqrt(math.fsum(squares)) * rho ** sum(k) for k, squares in groups)


def _groups(keys, coefficients):
    """(key, [|c|**2 of each coefficient under that key]) pairs."""
    out: dict = {}
    for key, c in zip(keys, coefficients):
        out.setdefault(key, []).append(abs(c) ** 2)
    return out.items()


def _laurent_norm(a: LaurentElement, spec: NormSpec) -> float:
    rho, tau = spec.rho, spec.tau
    pool, _ = _pool(a.n, [k for k, _ in a.terms])

    def term(key, c):
        i = pool.position[key[0]]
        return abs(c) * rho ** pool.degree[i] * tau ** abs(_clip(key[1], pool.cross[i]))

    return math.fsum(map(term, a.terms, a.terms.values()))


def _hseries_norm(a: HSeriesElement, spec: NormSpec) -> float:
    return math.fsum(abs(c) * spec.rho ** sum(k)
                     for (p, k), c in a.terms.items() if p <= spec.order)


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
    return _clip(p, qc.cross_degree(k))


def _clip(p: int, cross: int):
    """omega(k, p) for a k of cross degree cross."""
    if p >= 0:
        value = p
    elif p + cross >= 0:
        value = 0
    else:
        value = p + cross
    return _mutate.scale("omega", value)


# ---------------------------------------------------------------------------
# scale comparison for l^p coefficient norms

def _family_lp_norm(weights: Mapping[tuple, float], p, rho: float) -> float:
    if p == math.inf:
        return max((w * rho ** sum(k) for k, w in weights.items()), default=0.0)
    return math.fsum((w * rho ** sum(k)) ** p for k, w in weights.items()) ** (1.0 / p)


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
    log_val = math.fsum(m * math.log(m) for m in k if m > 0) - total * math.log(total)
    return math.exp(0.5 * log_val + total * math.log(r))
