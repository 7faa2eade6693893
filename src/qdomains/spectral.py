"""Finite-depth joint l^p spectral-radius estimation and the strict
spectral contractivity test.

The q-plane coordinate tuples group the word sum over W_{n,d} by exponent
vector k, |k| = d: x_alpha is q^{-m(alpha)} x^{p(alpha)}, so the fiber of
k adds ||x^k||^p times the Mahonian factor [d]_t!/[k]_t!, t = |q|^{-p},
read from the log-factorial table of s = min(t, 1/t) (where t > 1,
[j]_t = t^{j-1} [j]_s adds cross(k) log t).  The log of each summand is a
per-depth constant, a term per part and c cross(k); a part r after parts
with partial sum s adds its term and c r s, so one recursion over (part,
partial sum) gives the sums (maxima at p = inf) of every depth up to d in
about n d^2 / 2 steps, with rho^(pd) taken out.  The free coordinate tuples have closed forms, and
other tuples enumerate the n**d words of depth d; the recursion and the
enumeration are held to qcombinat.ENUMERATION_CAP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from qdomains import _mutate
from qdomains import qcombinat as qc
from qdomains.elements import FreeElement, QPolynomial, free_mul, qpoly_mul
from qdomains.norms import (
    BALL,
    CLASSICAL_BALL,
    FAMILY_TYPES,
    FREE_POLYDISK,
    POLYDISK_L1,
    NormSpec,
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
        _check_coordinate_cap(n, max_depth)
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


def _check_coordinate_cap(n: int, depth: int) -> None:
    # the n**2 key entries of the q-plane coordinate tuple and the about
    # n depth**2 steps of the recursion up to that depth
    count = n * n + n * depth * depth
    if count > ENUMERATION_CAP:
        raise EnumerationCapExceeded(
            f"{n} coordinates to depth {depth} take {count} steps, past the enumeration "
            f"cap {ENUMERATION_CAP}")


def _logsumexp(values):
    top = max(values)
    return top + math.log(sum([math.exp(v - top) for v in values]))


def _partial_sums(f, c: float, n: int, top: int, combine) -> list:
    """For each d = 0..top, combine (a log-sum-exp or max), over the k in
    Z_+^n with |k| = d, of sum_j f[k_j] + c cross(k): the parts are added
    one at a time, and a part r after parts with partial sum s adds
    f[r] + c r s.  The value at d reads no entry above d, so every depth up
    to top comes from one pass."""
    row = f[:top + 1]   # one part: its value at each partial sum
    for _ in range(n - 1):
        row = [combine([row[s] + f[t - s] + c * (s * (t - s)) for s in range(t + 1)])
               for t in range(top + 1)]
    return row


def _weight_parts(family: str, qp, top: int) -> tuple:
    """(g, c, hook) with log w(k) = sum_j g[k_j] - g[|k|] + c cross(k) for
    the weight w of a q-plane family and every k with |k| <= top, and the
    name of the family's mutation hook, or None.  The ball table is read at
    s = min(|q|**2, |q|**-2), as weight_ball_logs reads it."""
    if family == CLASSICAL_BALL:
        return [0.5 * math.lgamma(r + 1) for r in range(top + 1)], 0.0, None
    c = min(qp.log_modulus, 0.0)
    if family == BALL:
        table = qc.log_q_factorial_table(top, qc._folded_base(qp.modulus, 2))
        return [0.5 * v for v in table[:top + 1]], c, "weight-ball"
    return [0.0] * (top + 1), c, "weight-polydisk"


def _coordinate_estimates(ts: TupleSpec, top: int) -> list:
    """The estimates of a coordinate tuple at depths 1..top."""
    n = len(ts.generators)
    first = ts.generators[0]
    if isinstance(first, FreeElement):
        return [_free_coordinate_estimate(ts.norm, n, d, ts.p) for d in range(1, top + 1)]
    _check_coordinate_cap(n, top)
    qp = first.q
    g, c, hook = _weight_parts(ts.norm.family, qp, top)
    # the per-depth constant of the log weights; the hook moves every
    # weight of a depth through it
    w0 = [-g[d] for d in range(1, top + 1)]
    w0 = _mutate.shift_logs(hook, w0) if hook else w0
    # every summand has the factor rho**(p d): the roots are taken without it
    if ts.p == math.inf:
        # the sup of |q|**-m(alpha) over the fiber is |q|**-cross(k) at
        # |q| < 1 and 1 otherwise
        sums = _partial_sums(g, c - min(qp.log_modulus, 0.0), n, top, max)
        log_roots = [(w + sums[d]) / d for d, w in enumerate(w0, start=1)]
    else:
        p = float(ts.p)
        # the Mahonian factor at t = |q|**-p: log [d]_s! - sum_j log [k_j]_s!
        # + cross(k) max(log t, 0)
        table = qc.log_q_factorial_table(top, qc._folded_base(qp.modulus, -p))
        f = [p * g_r - table[r] for r, g_r in enumerate(g)]
        sums = _partial_sums(f, p * c + max(-p * qp.log_modulus, 0.0), n, top, _logsumexp)
        log_roots = [(p * w + table[d] + sums[d]) / (p * d) for d, w in enumerate(w0, start=1)]
    values = [ts.norm.rho * math.exp(log_root) for log_root in log_roots]
    if math.inf in values:
        raise OverflowError("the radius estimate exceeds the float range")
    return values


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
        return _coordinate_estimates(ts, d)[-1]
    return _enumerated_estimate(ts, d)


def radius_sequence(ts: TupleSpec) -> list:
    """The values at depths 1..max_depth; a coordinate tuple's come from
    one recursion, each equal to its radius_estimate."""
    if is_coordinate_tuple(ts.generators):
        return _coordinate_estimates(ts, ts.max_depth)
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
