"""Finite-depth joint l^p spectral-radius estimation and the strict
spectral contractivity test.

Coordinate tuples are summed in closed form: since x_alpha is a scalar
multiple q^{-m(alpha)} of x^{p(alpha)}, the word sum over W_{n,d} groups
by exponent vector with the Mahonian factor [|k|]_t!/[k]_t!, t = |q|^{-p}
(the multinomial |k|!/k! at |q| = 1), read from the log-factorial table of
s = min(t, 1/t): where t > 1, [j]_t = t^{j-1} [j]_s turns the factor into
t^{cross(k)} [|k|]_s!/[k]_s!, so no table leaves the float range.  Generic
tuples enumerate the n**d words of depth d, up to
qcombinat.ENUMERATION_CAP of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from qdomains import qcombinat as qc
from qdomains.elements import FreeElement, QPolynomial, free_mul, qpoly_mul
from qdomains.norms import (
    BALL,
    FAMILY_TYPES,
    FREE_POLYDISK,
    POLYDISK_L1,
    NormSpec,
    _monomial_log_norms,
    norm,
)
from qdomains.qcombinat import ENUMERATION_CAP, EnumerationCapExceeded

__all__ = [
    "TupleSpec",
    "coordinate_tuple",
    "is_coordinate_tuple",
    "radius_estimate",
    "radius_sequence",
    "RadiusReport",
    "radius_report",
    "rho_grid",
    "contractive_check",
    "ContractiveVerdict",
    "poincare_gap",
    "PoincareGap",
]

_UNIMODULAR_TOL = 1e-13


@dataclass(frozen=True)
class TupleSpec:
    """A generator tuple together with the norm and aggregation exponent."""

    generators: tuple
    norm: NormSpec
    p: float
    max_depth: int = 8

    def __post_init__(self):
        gens = tuple(self.generators)
        object.__setattr__(self, "generators", gens)
        if not gens:
            raise ValueError("need at least one generator")
        first = gens[0]
        if not isinstance(first, (QPolynomial, FreeElement)):
            raise TypeError("generators must be QPolynomial or FreeElement")
        if not isinstance(first, FAMILY_TYPES[self.norm.family]):
            raise TypeError(f"family {self.norm.family!r} does not apply to "
                            f"{type(first).__name__} generators")
        for g in gens[1:]:
            if type(g) is not type(first) or g.n != first.n:
                raise ValueError("generators must share type and dimension")
            if isinstance(g, QPolynomial) and g.q != first.q:
                raise ValueError("generators must share the parameter q")
        if self.p not in (1, 2, math.inf):
            raise ValueError("p must be 1, 2, or inf")
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")


def coordinate_tuple(n: int, spec: NormSpec, p, max_depth: int = 8, q=None) -> TupleSpec:
    """The tuple (x_1 .. x_n) or (zeta_1 .. zeta_n), per the norm family."""
    if FAMILY_TYPES[spec.family] is FreeElement:
        gens = FreeElement.generators(n)
    else:
        qq = q if q is not None else (spec.q.value if spec.q is not None else None)
        if qq is None:
            raise ValueError("coordinate tuple in a q-polynomial family needs q")
        gens = QPolynomial.coordinates(n, qq)
    return TupleSpec(tuple(gens), spec, p, max_depth)


def is_coordinate_tuple(generators: Sequence) -> bool:
    n = len(generators)
    if getattr(generators[0], "n", None) != n:
        return False
    for i, g in enumerate(generators):
        # the one term of g: x_{i+1} or the letter i + 1, with coefficient 1
        key = tuple(int(j == i) for j in range(n)) if isinstance(g, QPolynomial) else (i + 1,)
        if len(g.terms) != 1 or abs(g.terms.get(key, 0.0) - 1.0) > 1e-15:
            return False
    return True


def _logsumexp(values):
    top = max(values)
    if top == -math.inf:
        return -math.inf
    return top + math.log(sum(math.exp(v - top) for v in values))


def _log_mahonian(k, s: float, log_t: float) -> float:
    # log sum over the fiber of t**m(alpha), read from the log [j]_s! table
    # of s = min(t, 1/t): where t > 1 the fold [j]_t = t**(j-1) [j]_s adds
    # cross(k) log t.  Exact multinomial at t = 1
    if abs(s - 1.0) <= _UNIMODULAR_TOL:
        return math.log(qc.fiber_count(k))
    total = sum(k)
    table = qc.log_q_factorial_table(total, s)
    return (table[total] - sum(map(table.__getitem__, k))
            + qc.cross_degree(k) * max(log_t, 0.0))


def _coordinate_estimate(ts: TupleSpec, d: int) -> float:
    spec = ts.norm
    n = len(ts.generators)
    first = ts.generators[0]
    if isinstance(first, FreeElement):
        return _free_coordinate_estimate(spec, n, d, ts.p)
    qp = first.q
    keys = qc.multi_indices_exact(n, d)
    log_norms = _monomial_log_norms(keys, spec.family, spec.rho, qp)
    if ts.p == math.inf:
        best = -math.inf
        for k, log_norm in zip(keys, log_norms):
            bump = max(0.0, -qc.cross_degree(k) * qp.log_modulus)
            best = max(best, bump + log_norm)
        return math.exp(best / d)
    p = float(ts.p)
    s, log_t = qc._folded_base(qp.modulus, -p), -p * qp.log_modulus   # t = |q|**-p
    logs = [_log_mahonian(k, s, log_t) + p * log_norm for k, log_norm in zip(keys, log_norms)]
    return math.exp(_logsumexp(logs) / (p * d))


def _free_coordinate_estimate(spec: NormSpec, n: int, d: int, p) -> float:
    rho, tau = spec.rho, spec.tau
    if spec.family == FREE_POLYDISK:
        if p == math.inf:
            # s_max = d - 1 for n >= 2, 0 for a single letter
            s_max = d - 1 if n >= 2 else 0
            return rho * tau ** ((s_max + 1) / d)
        pf = float(p)
        log_sum = (math.log(n) + pf * math.log(tau)
                   + (d - 1) * math.log1p((n - 1) * tau ** pf)
                   + pf * d * math.log(rho))
        return math.exp(log_sum / (pf * d))
    # free-taylor and the two free ball norms weigh each word by rho^|alpha|
    if p == math.inf:
        return rho
    return rho * n ** (1.0 / float(p))


def _enumerated_estimate(ts: TupleSpec, d: int) -> float:
    gens = ts.generators
    n = len(gens)
    if n ** d > ENUMERATION_CAP:
        raise EnumerationCapExceeded(
            f"{n}**{d} words exceed the enumeration cap {ENUMERATION_CAP}")
    if isinstance(gens[0], QPolynomial):
        unit = QPolynomial.one(gens[0].n, gens[0].q)
        mul = qpoly_mul
    else:
        unit = FreeElement.one(gens[0].n)
        mul = free_mul
    values = []

    def descend(prod, depth):
        if depth == d:
            values.append(norm(prod, ts.norm))
            return
        for g in gens:
            descend(mul(prod, g), depth + 1)

    descend(unit, 0)
    if ts.p == math.inf:
        return max(values) ** (1.0 / d)
    p = float(ts.p)
    return sum(v ** p for v in values) ** (1.0 / (p * d))


def radius_estimate(ts: TupleSpec, d: int, force_enumeration: bool = False) -> float:
    """The depth-d value (sum over W_{n,d} of ||a_alpha||^p)^(1/(pd))."""
    if not 1 <= d <= ts.max_depth:
        raise ValueError("depth must lie in 1..max_depth")
    if not force_enumeration and is_coordinate_tuple(ts.generators):
        return _coordinate_estimate(ts, d)
    return _enumerated_estimate(ts, d)


def radius_sequence(ts: TupleSpec) -> list:
    return [radius_estimate(ts, d) for d in range(1, ts.max_depth + 1)]


def rho_grid(r: float, points: int = 8) -> list:
    """Geometric grid rho_i = r (1 - 2^-i) approaching the radius r."""
    if not r > 0:
        raise ValueError("radius must be positive")
    return [r * (1.0 - 2.0 ** -i) for i in range(1, points + 1)]


class RadiusReport(NamedTuple):
    depths: list
    values: list
    sup_values: list | None


def radius_report(ts: TupleSpec, r: float | None = None,
                  grid: Sequence | None = None) -> RadiusReport:
    """Per-depth estimates at the tuple's own rho, plus the running max
    over a rho-grid when a radius r (or explicit grid) is supplied."""
    depths = list(range(1, ts.max_depth + 1))
    values = radius_sequence(ts)
    sup_values = None
    if r is not None or grid is not None:
        rhos = list(grid) if grid is not None else rho_grid(r)
        sup_values = []
        for d in depths:
            best = 0.0
            for rho in rhos:
                scaled = TupleSpec(ts.generators, ts.norm.with_rho(rho), ts.p, ts.max_depth)
                best = max(best, radius_estimate(scaled, d))
            sup_values.append(best)
    return RadiusReport(depths, values, sup_values)


class ContractiveVerdict(NamedTuple):
    verdict: str
    witness_depth: int
    witness_value: float
    values: list


def contractive_check(ts: TupleSpec, r: float) -> ContractiveVerdict:
    """Finite-depth heuristic for strict spectral r-contractivity.

    Computes the p = inf sequence up to max_depth; passes when the last
    three values sit below 0.98 r, fails when some value exceeds r
    and the tail is nondecreasing, and is inconclusive otherwise.
    """
    if not r > 0:
        raise ValueError("radius must be positive")
    sup_ts = TupleSpec(ts.generators, ts.norm, math.inf, ts.max_depth)
    values = radius_sequence(sup_ts)
    tail = values[-3:]
    if all(v < r * 0.98 for v in tail):
        depth = len(values) - tail[::-1].index(max(tail))
        return ContractiveVerdict("pass", depth, max(tail), values)
    nondecreasing = all(tail[i] <= tail[i + 1] + 1e-12 for i in range(len(tail) - 1))
    if any(v > r for v in values) and nondecreasing:
        depth = next(i + 1 for i, v in enumerate(values) if v > r)
        return ContractiveVerdict("fail", depth, values[depth - 1], values)
    return ContractiveVerdict("inconclusive", len(values), values[-1], values)


class PoincareGap(NamedTuple):
    polydisk: float
    ball: float


def poincare_gap(n: int, q, rho: float, depth: int) -> PoincareGap:
    """Depth-D l^2 estimates for the coordinate tuple in both norms at
    unimodular q: rho*sqrt(n) for the polydisk family and
    rho * |(Z_+^n)_D|^(1/2D) for the ball family."""
    qp = qc.as_qparam(q)
    if abs(qp.modulus - 1.0) > 1e-12:
        raise ValueError("the polydisk/ball gap needs |q| = 1")
    if depth < 4:
        raise ValueError("depth must be at least 4")
    poly = coordinate_tuple(n, NormSpec(POLYDISK_L1, rho), 2, depth, q=qp.value)
    ball = coordinate_tuple(n, NormSpec(BALL, rho), 2, depth, q=qp.value)
    return PoincareGap(radius_estimate(poly, depth), radius_estimate(ball, depth))
