"""Truncated twisted-CCR representation of the q-plane generators for
0 < q < 1, and the quantum-sup norm bounds derived from it.

The generator x_j raises e_k to e_{k+e_j} with coefficient
sqrt(1-q^2) sqrt([k_j+1]_{q^2}) q^{sum_{i>j} k_i}; a monomial x^k acts as
the operator product x_1^{k_1} ... x_n^{k_n} applied right to left, so
the x_n factors hit the vector first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from qdomains import _mutate
from qdomains import qcombinat as qc
from qdomains.elements import QPolynomial
from qdomains.norms import POLYDISK_L1, POLYDISK_L2, NormSpec, norm

__all__ = [
    "FockTruncation",
    "fock_apply_generator",
    "fock_apply",
    "vacuum_image",
    "vacuum_vector_image",
    "op_norm_bounds",
    "OpNormBounds",
    "vaksman_sandwich_check",
]


@dataclass(frozen=True)
class FockTruncation:
    """Degree-truncated basis {e_k : |k| <= degree + reach}.

    Operators act from {|k| <= degree} into {|k| <= degree + reach}.
    """

    n: int
    q: float
    degree: int
    reach: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be at least 1")
        if not 0.0 < self.q < 1.0:
            raise ValueError("the representation needs 0 < q < 1")
        if self.degree < 0 or self.reach < 0:
            raise ValueError("degree and reach must be nonnegative")


def _generator_coefficient(j: int, k: Sequence[int], q: float) -> float:
    # sqrt(1 - q^{2(k_j+1)}) * q^{sum_{i>j} k_i}
    step = math.sqrt((1.0 - q * q) * qc.q_int(k[j - 1] + 1, q * q).real)
    tail = sum(k[j:])
    return _mutate.scale("fock-generator", step * q ** tail)


def fock_apply_generator(j: int, k: Sequence[int], trunc: FockTruncation):
    """Image of e_k under the generator x_j: (coefficient, shifted index)."""
    if not 1 <= j <= trunc.n:
        raise ValueError("generator index out of range")
    k = tuple(int(m) for m in k)
    if sum(k) > trunc.degree:
        raise ValueError("basis index outside the domain truncation")
    target = tuple(m + 1 if i == j - 1 else m for i, m in enumerate(k))
    if sum(target) > trunc.degree + trunc.reach:
        raise ValueError("image falls outside the codomain truncation")
    return _generator_coefficient(j, k, trunc.q), target


def _apply_monomial(m: Sequence[int], k: Sequence[int], q: float):
    # x^m e_k: generator letters applied with the x_n block first
    coeff = 1.0
    current = list(k)
    for j in range(len(m), 0, -1):
        for _ in range(m[j - 1]):
            coeff *= _generator_coefficient(j, current, q)
            current[j - 1] += 1
    return coeff, tuple(current)


def fock_apply(a: QPolynomial, v: Mapping, trunc: FockTruncation) -> dict:
    """Linear action of a polynomial on a vector (an index -> amplitude map)."""
    if a.n != trunc.n:
        raise ValueError("dimension mismatch")
    limit = trunc.degree + trunc.reach
    out: dict = {}
    for m, c in a.terms.items():
        for k, amp in v.items():
            k = tuple(int(x) for x in k)
            if sum(k) + sum(m) > limit:
                raise ValueError("action escapes the codomain truncation")
            coeff, target = _apply_monomial(m, k, trunc.q)
            out[target] = out.get(target, 0.0) + c * amp * coeff
    return {k: c for k, c in out.items() if abs(c) > 0.0}


def vacuum_image(k: Sequence[int], q: float) -> float:
    """Closed-form amplitude of x^k e_0 on e_k:
    sqrt([k]_{q^2}!) (1-q^2)^{|k|/2} q^{cross_degree(k)}."""
    t = q * q
    log_fact = sum(qc.log_q_factorial(m, t) for m in k)
    return math.exp(0.5 * log_fact + 0.5 * sum(k) * math.log1p(-t)
                    + qc.cross_degree(k) * math.log(q))


def vacuum_vector_image(a: QPolynomial, q: float, rho: float = 1.0) -> dict:
    """pi(gamma_rho(a)) e_0 computed by composing generator steps."""
    out: dict = {}
    for m, c in a.terms.items():
        coeff, target = _apply_monomial(m, (0,) * a.n, q)
        out[target] = out.get(target, 0.0) + c * rho ** sum(m) * coeff
    return out


class OpNormBounds(NamedTuple):
    lower: float
    upper: float
    vacuum: float


def _operator_matrix(a: QPolynomial, q: float, rho: float, degree: int) -> np.ndarray:
    domain = qc.multi_indices(a.n, degree)
    codomain = qc.multi_indices(a.n, degree + a.degree())
    if len(codomain) * len(domain) > qc.ENUMERATION_CAP:
        raise qc.EnumerationCapExceeded(
            f"a {len(codomain)} x {len(domain)} operator matrix exceeds the "
            f"enumeration cap {qc.ENUMERATION_CAP}")
    index = {k: i for i, k in enumerate(codomain)}
    mat = np.zeros((len(codomain), len(domain)), dtype=np.complex128)
    for col, k in enumerate(domain):
        for m, c in a.terms.items():
            coeff, target = _apply_monomial(m, k, q)
            mat[index[target], col] += c * rho ** sum(m) * coeff
    return mat


def op_norm_bounds(a: QPolynomial, q: float, rho: float, degree: int) -> OpNormBounds:
    """Two-sided bounds for the quantum-sup norm ||gamma_rho(a)||_op.

    lower: largest singular value of the truncated operator (domain
    |k| <= degree), nondecreasing in the truncation degree.  upper: the
    l^1 polydisk norm at rho, which dominates the operator norm.  vacuum:
    ||pi(gamma_rho(a)) e_0||, a second lower bound.  A negative degree
    raises ValueError, and a matrix of more than qcombinat.ENUMERATION_CAP
    entries raises EnumerationCapExceeded before it is allocated.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("the representation needs 0 < q < 1")
    if degree < 0:
        raise ValueError("truncation degree must be nonnegative")
    spec = NormSpec(POLYDISK_L1, rho)   # rejects a rho that is not finite and positive
    mat = _operator_matrix(a, q, rho, degree)
    normal = mat.conj().T @ mat
    top = float(np.linalg.eigvalsh(normal)[-1])
    lower = math.sqrt(max(top, 0.0))
    upper = norm(a, spec)
    vac = vacuum_vector_image(a, q, rho)
    vacuum = math.sqrt(sum(abs(c) ** 2 for c in vac.values()))
    return OpNormBounds(lower, upper, vacuum)


def vaksman_sandwich_check(a: QPolynomial, q: float, rho: float, degree: int) -> dict:
    """Report on the quantum-sup norm bounds for one element.

    identity_error: the vacuum norm squared against its closed form
    sum |c_k|^2 [k]_{q^2}! (1-q^2)^{|k|} w_q(k)^2 rho^{2|k|} (relative).
    lower_slack:   upper - lower  (must be >= 0 up to rounding).
    vacuum_slack:  vacuum - (q^2; q^2)_inf^{n/2} ||a||^(2)_rho (must be >= 0).
    """
    bounds = op_norm_bounds(a, q, rho, degree)
    t = q * q
    closed_sq = 0.0
    for k, c in a.terms.items():
        log_w = (sum(qc.log_q_factorial(m, t) for m in k) + sum(k) * math.log1p(-t)
                 + 2.0 * qc.cross_degree(k) * math.log(q))
        closed_sq += abs(c) ** 2 * math.exp(log_w) * rho ** (2 * sum(k))
    vacuum_sq = bounds.vacuum ** 2
    scale = max(vacuum_sq, closed_sq, 1e-300)
    identity_error = abs(vacuum_sq - closed_sq) / scale
    l2 = norm(a, NormSpec(POLYDISK_L2, rho))
    constant = qc.q_pochhammer_inf(t, t).value ** (a.n / 2.0)
    return {
        "bounds": bounds,
        "identity_error": identity_error,
        "lower_slack": bounds.upper - bounds.lower,
        "vacuum_slack": bounds.vacuum - constant * l2,
        "l2_norm": l2,
        "pochhammer_constant": constant,
    }
