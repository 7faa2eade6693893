"""Deformation layer: the truncated star product, the Poisson bracket it
quantizes, the Rieffel compatibility defect, the formal ball lift, and
fiber-norm scans over the deformation parameter.

Every exponential e^{ith} is a degree-N Taylor truncation with exactly
tracked order; evaluation at a numeric h lands in the fiber algebra at
q = exp(ih).
"""

from __future__ import annotations

import cmath
import math
from operator import index
from typing import NamedTuple, Sequence

import numpy as np

from qdomains import _mutate
from qdomains import qcombinat as qc
from qdomains.deform_types import FormalFreeElement, HSeriesElement
from qdomains.elements import (LaurentElement, QPolynomial, _Checked, _LiftTerms, _plain_mul,
                               _twisted_mul, qpoly_mul)
from qdomains.norms import BALL, POLYDISK_L1, NormSpec, norm
from qdomains.qcombinat import sigma

__all__ = [
    "sigma",
    "HSeriesElement",
    "FormalFreeElement",
    "star_product",
    "evaluate_h",
    "poisson_bracket",
    "quantization_defect",
    "commutator_defect",
    "formal_ball_lift",
    "normal_order_formal",
    "ScanResult",
    "bundle_scan",
    "circle_path",
    "ray_path",
]


def _taylor_exp(rate: complex, order: int) -> list:
    # Taylor coefficients of e^{rate*h} through h^order
    coeffs = [1.0 + 0.0j]
    for j in range(1, order + 1):
        coeffs.append(coeffs[-1] * rate / j)
    return coeffs


def _phase_taylor(exponent: int, order: int) -> list:
    # Taylor coefficients of e^{-i*exponent*h}, through the star-phase hook
    coeffs = _taylor_exp(-1j * exponent, order)
    if exponent != 0:
        coeffs = [_mutate.scale("star-phase", c) for c in coeffs]
    return coeffs


def star_product(f: HSeriesElement, g: HSeriesElement,
                 order: int | None = None) -> HSeriesElement:
    """Monomial rule x^k * x^l = Taylor_N(e^{-ih sigma(l,k)}) x^{k+l},
    extended bilinearly over the h-truncated coefficients, through h^order,
    min(f.order, g.order) by default; a higher order raises ValueError, as
    the inputs do not determine its coefficients."""
    if f.n != g.n:
        raise ValueError("dimension mismatch")
    if order is None:
        order = min(f.order, g.order)
    elif order > min(f.order, g.order):
        raise ValueError(f"star product order {order} exceeds the factors' orders "
                         f"{f.order} and {g.order}")

    def spread(p1, p2, s, _):
        # h^{p1 + p2 + j} picks up the j-th Taylor coefficient of the phase
        phases = _phase_taylor(s, order - p1 - p2) if p1 + p2 <= order else ()
        return tuple(enumerate(phases, p1 + p2))

    out = _twisted_mul([(k, p, c) for (p, k), c in f.terms.items() if p <= order],
                       [(k, p, c) for (p, k), c in g.terms.items()],
                       spread)
    return HSeriesElement(f.n, order, _Checked({(p, k): c for (k, p), c in out.items()}))


def evaluate_h(f: HSeriesElement, h: float) -> QPolynomial:
    """Substitute the numeric h, landing in the fiber algebra at q = exp(ih)."""
    out = _Checked()
    for (p, k), c in f.terms.items():
        out[k] = out.get(k, 0.0) + c * complex(h ** p)
    return QPolynomial(f.n, cmath.exp(1j * h), out)


def _check_commutative(f: QPolynomial, g: QPolynomial):
    f._check_compatible(g)
    if abs(f.q.value - 1.0) > 1e-12:
        raise ValueError("the Poisson bracket lives on the commutative fiber q = 1")


def poisson_bracket(f: QPolynomial, g: QPolynomial) -> QPolynomial:
    """{x^k, x^l} = (sigma(k,l) - sigma(l,k)) x^{k+l} on commutative inputs."""
    _check_commutative(f, g)

    def bracket(g1, g2, s_lk, s_kl):
        return ((None, complex(s_kl - s_lk)),) if s_kl != s_lk else ()

    return QPolynomial(f.n, f.q, _plain_mul(f, g, bracket, both_sigmas=True))


def _phi_defect(s_kl: int, s_lk: int, h: float) -> complex:
    return ((cmath.exp(-1j * h * s_lk) - cmath.exp(-1j * h * s_kl)) / h
            - 1j * (s_kl - s_lk))


def quantization_defect(f: QPolynomial, g: QPolynomial, h: float,
                        spec: NormSpec) -> float:
    """|| (f_h g_h - g_h f_h)/h - i {f,g}_h || in the fiber at q = exp(ih).

    f and g are commutative polynomials (q = 1); the caller's spec selects
    the family and rho, and the norm reads q = exp(ih) off the defect.
    """
    if h == 0:
        raise ValueError("the defect is a difference quotient; h must be nonzero")
    _check_commutative(f, g)
    out = _plain_mul(f, g, lambda g1, g2, s_lk, s_kl: ((None, _phi_defect(s_kl, s_lk, h)),),
                     both_sigmas=True)
    defect = QPolynomial(f.n, cmath.exp(1j * h), out)
    return norm(defect, spec)


def commutator_defect(f: QPolynomial, g: QPolynomial, h: float,
                      spec: NormSpec) -> float:
    """Same defect evaluated the direct way: fiber products at q = exp(ih)."""
    if h == 0:
        raise ValueError("h must be nonzero")
    q_h = cmath.exp(1j * h)
    f_h = QPolynomial(f.n, q_h, _Checked(f.terms))
    g_h = QPolynomial(g.n, q_h, _Checked(g.terms))
    bracket = poisson_bracket(f, g)
    bracket_h = QPolynomial(f.n, q_h, _Checked(bracket.terms))
    diff = (1.0 / h) * (qpoly_mul(f_h, g_h) - qpoly_mul(g_h, f_h)) - 1j * bracket_h
    return norm(diff, spec)


# ---------------------------------------------------------------------------
# the formal ball lift

def formal_ball_lift(k: Sequence[int], order: int) -> FormalFreeElement:
    """u_k = (k!/|k|!) sum_alpha e^{i m(alpha) h} zeta_alpha, Taylor-truncated.

    Its truncated normal ordering returns x^k exactly through h^order, and
    the h^s coefficient has circ norm at most |k|^{2s} (k!/|k|!)^{1/2}.
    The terms run word by word in fiber order, h-powers ascending within a
    word, and the h^p coefficient of a word of m inversions is series[m][p],
    through the formal-lift-coefficient hook.  They are a _LiftTerms over
    the layout alone, which normal_order_formal reads: the fiber's words, k,
    their inversion numbers and series.  The (h-power, word) keys and the
    dict over them are formed only when a read of the terms asks for them."""
    k = tuple(map(index, k))
    words, ms = qc.fiber(k)
    weight = 1.0 / len(words)
    # m -> the nonzero coefficients of h^0, h^1, ...; every m from 0 to
    # max(ms) occurs in a fiber
    series = []
    for m in range(max(ms) + 1):
        coeffs = [complex(weight)]
        for p in range(1, order + 1):
            coeffs.append(coeffs[-1] * (1j * m) / p)
        # m = 0 leaves h^1 .. h^order at exactly 0, and every coefficient
        # after a 0 is 0: leaving them out keeps every value nonzero
        series.append([_mutate.scale("formal-lift-coefficient", c)
                       for c in (coeffs[:coeffs.index(0)] if 0 in coeffs else coeffs)])
    return FormalFreeElement(len(k), order, _LiftTerms(words, k, ms, series, (len(k), order)))


_ORDERING_CHUNK = 2048   # terms per gather of the table route; bounds its temporaries
# Below this many terms a lift is ordered by the term loop: the table
# route has a fixed cost of about 40-60 us, and the loop costs about 1 us
# per term (timeit, lifts at order 3: 5 terms 20 against 39 us, 21 terms
# 33 against 55, 37 terms 54 against 52, 117 terms 154 against 58)
_SCALAR_ORDERING = 40


def normal_order_formal(u: FormalFreeElement) -> HSeriesElement:
    """Truncated normal ordering at q = e^{ih}, through h^u.order: each word
    picks up the Taylor expansion of e^{-i m(alpha) h}.

    Each (h-power, profile) sum adds the products c * phase of its terms in
    term order to 0.0, and the keys come in the order the terms first
    reach them.  A lift of formal_ball_lift with _SCALAR_ORDERING terms or
    more is ordered from the layout its terms hold (_lift_ordering); any
    other element, an equal copy of a lift included, by the term loop.
    Both routes give the same bits."""
    terms = u.terms
    # a lift has at least one term per word, so one of _SCALAR_ORDERING
    # words takes the table route without len, which walks ms
    if type(terms) is _LiftTerms and (len(terms.ms) >= _SCALAR_ORDERING
                                      or len(terms) >= _SCALAR_ORDERING):
        return _lift_ordering(u.n, u.order, terms)
    return _ordering_loop(u)


def _lift_ordering(n: int, order: int, terms: _LiftTerms) -> HSeriesElement:
    """normal_order_formal of a lift from its layout.  Each coefficient is
    series[m][p], so every product is an entry of one table over (m, p, h),
    formed once with split real arithmetic, as Python's complex * forms it,
    and +0.0 where p > h (by np.where, since a product with an infinite
    coefficient could be NaN).  Term i's column has code m (order + 1) + p;
    the columns are gathered chunk by chunk, and each row is summed
    sequentially along its contiguous axis from +0.0, carried from chunk to
    chunk.  A +0.0 leaves the running sum's bits as they are, as a sum
    started at +0.0 is never -0.0.  The terms share one profile and the
    first has p = 0, so the keys are (h, counts) for h ascending."""
    series = terms.series
    width = order + 1
    # [m (order + 1) + p, part, h]: series[m][p] times m's Taylor coefficient
    # of h^(h - p), split as Python's complex * forms it, or +0.0 where p > h
    # (the coefficients past a series' end are 0, and no code reads them)
    coeffs = np.zeros((len(series), width), dtype=complex)
    for m, row in enumerate(series):
        coeffs[m, :len(row)] = row
    taylor = _mutate.scale("formal-order-phase", np.array(
        [_taylor_exp(1j * -m, order) for m in range(len(series))]))
    ps, hs = np.arange(width)[:, None], np.arange(width)
    t = taylor[:, np.maximum(hs - ps, 0)]   # [m, p, h]
    a = coeffs[:, :, None]
    table = np.empty((len(series), width, 2, width))
    with np.errstate(all="ignore"):   # as Python's floats: inf and NaN, silently
        table[:, :, 0] = np.where(ps > hs, 0.0, a.real * t.real - a.imag * t.imag)
        table[:, :, 1] = np.where(ps > hs, 0.0, a.real * t.imag + a.imag * t.real)
    # [part and h, code]: each code's products down one column
    table = np.ascontiguousarray(table.reshape(-1, 2 * width).T)
    # term i of word w has code m_w (order + 1) + i - (index of w's first
    # term); every m from 0 to max(ms) occurs in a fiber
    word_ms = np.fromiter(terms.ms, dtype=np.intp, count=len(terms.ms))
    sizes = np.array([len(row) for row in series])[word_ms]
    codes = np.repeat(word_ms * width - (np.cumsum(sizes) - sizes), sizes)
    codes += np.arange(len(codes))
    # [part and h, term] the running sums along each row, carried from
    # chunk to chunk as the left operand of the chunk's first addition
    sums = np.zeros(2 * width)
    for start in range(0, len(codes), _ORDERING_CHUNK):
        acc = np.take(table, codes[start:start + _ORDERING_CHUNK], axis=1)
        np.add(sums, acc[:, 0], out=acc[:, 0])
        sums = np.cumsum(acc, axis=1, out=acc)[:, -1]
    re, im = sums.reshape(2, width).tolist()
    return HSeriesElement(n, order, _Checked(
        {(h, terms.counts): complex(x, y) for h, (x, y) in enumerate(zip(re, im))}))


def _ordering_loop(u: FormalFreeElement) -> HSeriesElement:
    """normal_order_formal term by term: each (h-power, profile) sum adds
    c * phase in term order to 0.0, its keys in the order first reached."""
    order = u.order
    profiles, ms = qc.word_stats([alpha for _, alpha in u.terms], u.n)
    taylor: dict = {}   # m -> Taylor coefficients of e^{-imh} through h^order
    out = _Checked()
    for ((p, _), c), k, m in zip(u.terms.items(), profiles, ms):
        phases = taylor.get(m)
        if phases is None:
            phases = taylor[m] = [_mutate.scale("formal-order-phase", t)
                                  for t in _taylor_exp(1j * -m, order)]
        for h in range(p, order + 1):
            out[(h, k)] = out.get((h, k), 0.0) + c * phases[h - p]
    return HSeriesElement(u.n, order, out)


# ---------------------------------------------------------------------------
# fiber-norm scans

class ScanResult(NamedTuple):
    rows: list            # (q, norm) in path order
    max_jump: float       # largest |norm_{i+1} - norm_i|
    max_slope: float      # largest jump / parameter spacing
    spacing: float        # largest |q_{i+1} - q_i|


def bundle_scan(a: LaurentElement, family: str, rho: float,
                samples: Sequence[complex]) -> ScanResult:
    """Evaluate q -> ||a_q|| along a sample path and report the jumps.

    One numpy pass over samples x monomials: each fiber coefficient
    sum_p c q**p is formed for every sample at once and weighted in the log
    domain.  A coefficient that is exactly 0 is dropped, as QPolynomial
    drops it, so that a zero coefficient times an infinite weight adds 0
    rather than NaN.  Where a monomial norm alone leaves the float range,
    the term is exp(log |c| + log ||x^k||), as in norm().  Per sample the
    value matches
    norm(fiber_eval(a, q), NormSpec(family, rho)) to rounding; a value that
    is not finite raises OverflowError, as norm() does.

    The continuity diagnostic is descriptive: the maximum adjacent-sample
    jump and its ratio to the parameter spacing (inf where that ratio
    leaves the float range, as between tiny samples)."""
    if family not in (POLYDISK_L1, BALL):
        raise ValueError("scan families are polydisk-l1 and ball")
    if not (math.isfinite(rho) and rho > 0):
        raise ValueError("rho must be finite and positive")
    qs = np.array([complex(q) for q in samples], dtype=complex)
    if not np.isfinite(qs).all():
        raise ValueError("samples must be finite")
    if np.any(qs == 0):
        raise ValueError("samples must be nonzero")
    by_k: dict = {}
    for (k, p), c in a.terms.items():
        by_k.setdefault(k, []).append((p, c))
    keys = sorted(by_k, key=lambda k: (sum(k), k))
    moduli = np.abs(qs)
    log_modulus_below_one = np.minimum(np.log(moduli), 0.0)
    log_rho = math.log(rho)
    values = np.zeros(len(qs))
    hook = "weight-ball" if family == BALL else "weight-polydisk"   # the norm's weight hook
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if family == BALL:
            # the folded base s = min(|q|**2, |q|**-2), as weight_ball_logs reads it
            log_fact = _log_q_factorials({m for k in keys for m in (*k, sum(k))},
                                         np.where(moduli < 1.0, moduli ** 2, moduli ** -2.0))
        powers = {p: qs ** p for _, p in a.terms}
        for k in keys:
            size = np.abs(sum(c * powers[p] for p, c in by_k[k]))
            log_w = qc.cross_degree(k) * log_modulus_below_one
            if family == BALL:
                log_w = 0.5 * (sum(log_fact[m] for m in k) - log_fact[sum(k)]) + log_w
            log_w, = _mutate.shift_logs(hook, (log_w,))   # once per key, over every sample
            log_norm = sum(k) * log_rho + log_w
            monomial = np.exp(log_norm)
            term = size * monomial
            beyond = np.isinf(monomial)   # ||x^k|| alone leaves the float range
            if beyond.any():
                term = np.where(beyond, np.exp(np.log(size) + log_norm), term)
            values += np.where(size == 0.0, 0.0, term)
    if not np.isfinite(values).all():
        raise OverflowError("fiber norm exceeds the float range")
    jumps = np.abs(np.diff(values))
    gaps = np.abs(np.diff(qs))
    moving = gaps > 0
    with np.errstate(over="ignore"):   # a slope past the float range reads inf
        slopes = jumps[moving] / gaps[moving]
    return ScanResult(list(zip(qs.tolist(), values.tolist())),
                      float(jumps.max(initial=0.0)),
                      float(slopes.max(initial=0.0)),
                      float(gaps.max(initial=0.0)))


def _log_q_factorials(wanted: set, s: np.ndarray) -> dict:
    """log [m]_s! for each m in wanted, vectorized over s in [0, 1]; any
    other s raises ValueError.

    Mirrors qcombinat._factorial_table: [j]_s as a running sum of powers
    of s, which lies in [1, j], so s = 0 gives log [j]_0! = 0."""
    if not ((s >= 0.0) & (s <= 1.0)).all():
        raise ValueError("log-domain bases must lie in [0, 1]")
    out = {0: np.zeros_like(s)}
    acc = np.zeros_like(s)
    power = np.ones_like(s)
    running = np.zeros_like(s)
    for j in range(1, max(wanted, default=0) + 1):
        acc = acc + power
        power = power * s
        running = running + np.log(acc)
        if j in wanted:
            out[j] = running
    return out


def _check_samples(samples: int) -> None:
    if not 1 <= samples <= qc.ENUMERATION_CAP:
        raise ValueError(f"need 1 to {qc.ENUMERATION_CAP} samples, got {samples}")


def circle_path(radius: float, samples: int) -> list:
    """samples points on |q| = radius, full turn, starting at arg 0."""
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError("circle radius must be finite and positive")
    _check_samples(samples)
    return [radius * cmath.exp(2j * math.pi * i / samples) for i in range(samples)]


def ray_path(theta: float, samples: int, r_min: float = 0.5, r_max: float = 2.0) -> list:
    """samples points on arg q = theta, geometric radii from r_min to r_max."""
    if not (math.isfinite(theta) and 0 < r_min < r_max < math.inf):
        raise ValueError("need a finite theta and 0 < r_min < r_max < inf")
    _check_samples(samples)
    phase = cmath.exp(1j * theta)
    if samples == 1:
        return [r_min * phase]
    # step in log space: r_max / r_min may leave the float range, its logarithm does not
    lo, hi = math.log(r_min), math.log(r_max)
    return [math.exp(lo + i * (hi - lo) / (samples - 1)) * phase for i in range(samples)]
