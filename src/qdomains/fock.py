"""Truncated twisted-CCR representation of the q-plane generators for
0 < q < 1, and the quantum-sup norm bounds derived from it.

The generator x_j raises e_k to e_{k+e_j} with coefficient
sqrt(1-q^2) sqrt([k_j+1]_{q^2}) q^{sum_{i>j} k_i}; a monomial x^k acts as
the operator product x_1^{k_1} ... x_n^{k_n} applied right to left, so
the x_n factors hit the vector first.  Composed, the letters give the
closed form

    x^m e_k = c_m(k) e_{k+m},
    c_m(k) = prod_j (1-q^2)^{m_j/2} ([k_j+m_j]_{q^2}! / [k_j]_{q^2}!)^{1/2}
             q^{m_j sum_{i>j} (k_i+m_i)}.

Two routes compute it.  The step route (fock_apply_generator, fock_apply,
vacuum_vector_image) composes one generator step per letter; it is the
independent side of the fock-lemma-5-2 suite and of the vacuum identity.
op_norm_bounds ships the closed form: c_m over the whole truncated domain
in one array pass, from tables of the one-letter factors sqrt(1-q^{2s})
and of the powers of q, multiplied in the step route's order.  It forms
the normal matrix M^H M of the truncated operator M from M's shift
structure, with no dense matrix product.  The tests hold it to the
letter-by-letter matrix of tests/oracles.py.  Every route that takes an
element raises ValueError, naming both, where the element's q is not the
representation's.

The closed form's letter tables, domains, columns c_m, shift pairs and
pair plans are read-only arrays held under _held.held, up to 2**16 entries
(array entries and position-map keys) of each kind; a larger one is not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from qdomains import _mutate
from qdomains import qcombinat as qc
from qdomains._held import held
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


def _letter_step(s: int, q: float) -> float:
    # sqrt((1 - q^2) [s]_{q^2}) = sqrt(1 - q^{2s}): x_j's factor from k_j = s - 1 to s
    return math.sqrt((1.0 - q * q) * qc.q_int(s, q * q).real)


def _generator_coefficient(j: int, k: Sequence[int], q: float) -> float:
    # sqrt(1 - q^{2(k_j+1)}) * q^{sum_{i>j} k_i}
    return _mutate.scale("fock-generator", _letter_step(k[j - 1] + 1, q) * q ** sum(k[j:]))


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


def _require_q(a: QPolynomial, q: float) -> None:
    # the representation acts on the algebra at its own q only
    if a.q.value != q:
        raise ValueError(f"the element's q = {a.q.value!r} is not the "
                         f"representation's q = {q!r}")


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
    _require_q(a, trunc.q)
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
    log_fact = math.fsum(qc.log_q_factorial(m, t) for m in k)
    return math.exp(0.5 * log_fact + 0.5 * sum(k) * math.log1p(-t)
                    + qc.cross_degree(k) * math.log(q))


def vacuum_vector_image(a: QPolynomial, q: float, rho: float = 1.0) -> dict:
    """pi(gamma_rho(a)) e_0 computed by composing generator steps."""
    _require_q(a, q)
    out: dict = {}
    for m, c in a.terms.items():
        coeff, target = _apply_monomial(m, (0,) * a.n, q)
        out[target] = out.get(target, 0.0) + c * rho ** sum(m) * coeff
    return out


class OpNormBounds(NamedTuple):
    lower: float
    upper: float
    vacuum: float


def _frozen(array: np.ndarray) -> np.ndarray:
    # held arrays are shared by every caller
    array.flags.writeable = False
    return array


def _entries(table) -> int:
    # a held table's size: the entries of its arrays and the keys of its position map
    parts = (table,) if isinstance(table, np.ndarray) else table
    return sum(len(part) if isinstance(part, dict) else part.size for part in parts)


@held(2 ** 16, size=_entries)
def _letter_tables(q: float, top: int) -> tuple:
    # the one-letter factors sqrt(1 - q^{2s}) and the powers q^e, for s, e <= top
    steps = [0.0] + [_mutate.scale("fock-generator", _letter_step(s, q))
                     for s in range(1, top + 1)]
    return _frozen(np.array(steps)), _frozen(np.array([q ** e for e in range(top + 1)]))


@held(2 ** 16, size=_entries)
def _domain(n: int, degree: int) -> tuple:
    # the domain {|k| <= degree} as an index array, and the position of each k
    table = qc.multi_indices(n, degree)
    ks = np.array(table, dtype=np.int64).reshape(len(table), n)
    return _frozen(ks), {k: i for i, k in enumerate(table)}


@held(2 ** 16, size=_entries)
def _monomial_column(m: tuple, q: float, degree: int) -> np.ndarray:
    """c_m(k) for every k of the domain {|k| <= degree}, in its order."""
    ks = _domain(len(m), degree)[0]
    steps, powers = _letter_tables(q, degree + sum(m))
    coeff = np.ones(len(ks))
    tail = np.zeros(len(ks), dtype=np.int64)   # sum_{i>j} (k_i + m_i)
    for j in range(len(m) - 1, -1, -1):
        for r in range(1, m[j] + 1):
            coeff *= steps[ks[:, j] + r] * powers[tail]
        tail += ks[:, j] + m[j]
    return _frozen(coeff)


@held(2 ** 16, size=_entries)
def _shift_pairs(n: int, degree: int, shift: tuple) -> tuple:
    # the domain positions (i, j) with k_i + shift = k_j
    ks, where = _domain(n, degree)
    pairs = [(i, where[k]) for i, k in enumerate(map(tuple, (ks + shift).tolist()))
             if k in where]
    src, dst = np.array(pairs, dtype=np.intp).reshape(len(pairs), 2).T
    return _frozen(src), _frozen(dst)


@held(2 ** 16, size=_entries)
def _pair_plan(exponents: tuple, degree: int) -> tuple:
    # for each term pair i < j of the sorted exponents and each k' of the
    # domain with k = k' + m_j - m_i in it: the flat positions of w_i(k) and
    # w_j(k') in the (terms x domain) array of weighted columns, and of
    # N[k, k'] in the (domain x domain) matrix: up to (#terms choose 2) x
    # (domain size) entries.  The sandwich suite asks for each element at two
    # scales in a row.
    n = len(exponents[0])
    size = len(_domain(n, degree)[0])
    pairs = [(i, j) for i in range(len(exponents)) for j in range(i + 1, len(exponents))]
    found = [_shift_pairs(n, degree, tuple(y - x for x, y in zip(exponents[i], exponents[j])))
             for i, j in pairs]
    sizes = [len(src) for src, _ in found]
    first = np.repeat(np.array([i for i, _ in pairs], dtype=np.intp), sizes)
    second = np.repeat(np.array([j for _, j in pairs], dtype=np.intp), sizes)
    empty = np.array([], dtype=np.intp)
    rows = np.concatenate([empty] + [dst for _, dst in found])    # positions of k
    cols = np.concatenate([empty] + [src for src, _ in found])    # positions of k'
    return (_frozen(first * size + rows), _frozen(second * size + cols),
            _frozen(rows * size + cols))


def _domain_size(a: QPolynomial, degree: int) -> int:
    # the number of columns, once the truncated operator is known to fit the cap
    size = len(qc.multi_indices(a.n, degree))
    rows = math.comb(degree + a.degree() + a.n, a.n)
    if rows * size > qc.ENUMERATION_CAP:
        raise qc.EnumerationCapExceeded(
            f"a {rows} x {size} operator matrix exceeds the "
            f"enumeration cap {qc.ENUMERATION_CAP}")
    return size


def _normal_lower(a: QPolynomial, q: float, rho: float, degree: int) -> np.ndarray:
    """The lower triangle, diagonal included, of N = M^H M for the truncated
    operator M of gamma_rho(a) (domain |k| <= degree); eigvalsh reads no more.

    Column k of M holds w_m(k) = a_m rho^{|m|} c_m(k) at row k + m for each
    term m, and distinct terms land on distinct rows.  So N[k, k] is
    sum_m |w_m(k)|^2, and every other entry is a sum of conj(w_m(k)) w_m'(k')
    over the term pairs with k + m = k' + m'.  The domain is in lexicographic
    order, so the entry lies below the diagonal exactly when m < m'.
    """
    size = _domain_size(a, degree)
    lower = np.zeros((size, size), dtype=np.complex128)
    if not a.terms:
        return lower
    exponents = tuple(sorted(a.terms))
    scale = np.array([a.terms[m] * rho ** sum(m) for m in exponents])
    w = scale[:, None] * np.array([_monomial_column(m, q, degree) for m in exponents])
    left, right, entries = _pair_plan(exponents, degree)
    flat, weights = lower.reshape(-1), w.reshape(-1)   # views
    np.add.at(flat, entries, weights[left].conj() * weights[right])
    flat[::size + 1] = (w.conj() * w).real.sum(axis=0)
    return lower


def _top_singular_value(lower: np.ndarray) -> float:
    return math.sqrt(max(float(np.linalg.eigvalsh(lower, UPLO="L")[-1]), 0.0))


def _lower_bounds(a: QPolynomial, q: float, rho: float, degrees: Sequence[int]) -> list:
    """op_norm_bounds(a, q, rho, d).lower for each d in degrees, from one
    normal matrix at the largest d.  The columns |k| <= d map into the rows
    |k| <= d + deg a, so the truncation at d has as its normal matrix the
    principal sub-block of N on those columns."""
    _require_q(a, q)
    top = max(degrees)
    lower = _normal_lower(a, q, rho, top)
    totals = _domain(a.n, top)[0].sum(axis=1)
    lowers = []
    for d in degrees:
        keep = np.flatnonzero(totals <= d)
        lowers.append(_top_singular_value(lower[np.ix_(keep, keep)]))
    return lowers


def op_norm_bounds(a: QPolynomial, q: float, rho: float, degree: int) -> OpNormBounds:
    """Two-sided bounds for the quantum-sup norm ||gamma_rho(a)||_op.

    lower: largest singular value of the truncated operator (domain
    |k| <= degree), nondecreasing in the truncation degree.  upper: the
    l^1 polydisk norm at rho, which dominates the operator norm.  vacuum:
    ||pi(gamma_rho(a)) e_0||, a second lower bound.  A negative degree
    raises ValueError, and a truncated operator of more than
    qcombinat.ENUMERATION_CAP entries raises EnumerationCapExceeded before
    anything is allocated.  An element at another q than q raises
    ValueError naming both.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("the representation needs 0 < q < 1")
    _require_q(a, q)
    if degree < 0:
        raise ValueError("truncation degree must be nonnegative")
    spec = NormSpec(POLYDISK_L1, rho)   # rejects a rho that is not finite and positive
    lower = _top_singular_value(_normal_lower(a, q, rho, degree))
    upper = norm(a, spec)
    vac = vacuum_vector_image(a, q, rho)
    vacuum = math.sqrt(math.fsum(abs(c) ** 2 for c in vac.values()))
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

    def closed_term(k, c):
        log_w = (math.fsum(qc.log_q_factorial(m, t) for m in k) + sum(k) * math.log1p(-t)
                 + 2.0 * qc.cross_degree(k) * math.log(q))
        return abs(c) ** 2 * math.exp(log_w) * rho ** (2 * sum(k))

    closed_sq = math.fsum(map(closed_term, a.terms, a.terms.values()))
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
