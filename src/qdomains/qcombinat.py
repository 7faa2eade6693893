"""q-numbers, monomial weight functions, and word statistics.

Scalar layer shared by every other module.  Conventions fixed here:
[0]_q = 0 and [0]_q! = 1; exponents such as sum_{i<j} k_i*k_j and the
inversion number m(alpha) are exact integers, and |q|**N is evaluated in
the log domain so weights stay finite for N up to ~1e5.  _held.held holds
the log q-factorial, q-Pochhammer and multi-index tables between calls.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from itertools import chain, product
from operator import index, mul
from typing import NamedTuple, Sequence

from qdomains import _mutate
from qdomains._held import held
from qdomains._wordkit_py import (
    fiber as _fiber,
    fiber_inversions,
    fiber_words as _fiber_words_raw,
    inversions as _inversions,
    mahonian_sum,
    switch_count as _switch_count,
    word_profile as _word_profile,
    word_profiles as _word_profiles,
    word_stats as _word_stats,
)

__all__ = [
    "QParam",
    "ENUMERATION_CAP",
    "EnumerationCapExceeded",
    "as_qparam",
    "q_int",
    "q_factorial",
    "log_q_factorial",
    "log_q_factorial_table",
    "q_pochhammer_inf",
    "PochhammerValue",
    "weight_polydisk",
    "weight_polydisk_logs",
    "weight_u",
    "weight_ball",
    "weight_ball_logs",
    "word_profile",
    "word_stats",
    "word_profiles",
    "fiber_count",
    "inversions",
    "switch_count",
    "delta_word",
    "fiber",
    "fiber_words",
    "fiber_inversion_list",
    "inv_distribution",
    "InvDistribution",
    "word_with_inversions",
    "sigma",
    "cross_degree",
    "multi_indices",
    "words",
    "words_exact",
]


# The one limit on every enumeration of the kit: the words of a fiber
# p^{-1}(k) (the lifts, the fiber lists, the Mahonian sum), the words of a
# spectral-radius depth, the key entries and steps of the coordinate radius
# recursion, the multi-indices up to a total degree, and the entries of a
# truncated Fock matrix.
ENUMERATION_CAP = 10 ** 6


class EnumerationCapExceeded(ValueError):
    """An enumeration would exceed ENUMERATION_CAP."""


@dataclass(frozen=True)
class QParam:
    """Nonzero, finite deformation parameter with cached |q| and log|q|.

    Magnitude-dependent weights use modulus only; the phase enters the
    algebra through integer powers q**N.
    """

    value: complex
    modulus: float = field(init=False, compare=False)
    log_modulus: float = field(init=False, compare=False)

    def __post_init__(self):
        value = complex(self.value)
        if value == 0:
            raise ValueError("deformation parameter q must be nonzero")
        if not cmath.isfinite(value):
            raise ValueError(f"deformation parameter q must be finite, got {value!r}")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "modulus", abs(value))
        object.__setattr__(self, "log_modulus", math.log(abs(value)))

    def inverse(self) -> "QParam":
        return QParam(1.0 / self.value)

    def isclose(self, other: "QParam", tol: float = 1e-12) -> bool:
        return abs(self.value - other.value) <= tol * max(1.0, abs(self.value))


def as_qparam(q) -> QParam:
    if isinstance(q, QParam):
        return q
    return QParam(complex(q))


# ---------------------------------------------------------------------------
# q-integers and q-factorials

def q_int(k: int, q: complex) -> complex:
    """[k]_q = 1 + q + ... + q**(k-1); [0]_q = 0."""
    if k < 0:
        raise ValueError("q-integer index must be nonnegative")
    acc = 0.0 + 0.0j
    for _ in range(k):
        acc = acc * q + 1.0
    return acc


def q_factorial(k, q: complex) -> complex:
    """[k]_q! for an integral scalar k, or prod_i [k_i]_q! for an exponent vector."""
    try:
        entries: Sequence[int] = (index(k),)
    except TypeError:
        entries = tuple(k)
    acc = 1.0 + 0.0j
    for m in entries:
        if m < 0:
            raise ValueError("q-factorial index must be nonnegative")
        for j in range(1, m + 1):
            acc *= q_int(j, q)
    return acc


@held(2 ** 16)
def _factorial_table(t: float, size: int) -> tuple:
    """log [j]_t! for j = 0, 1, ..., size - 1, for one real t in [0, 1],
    built upward as log [j-1]_t! + log [j]_t.

    [j]_t = 1 + t + ... + t**(j-1) is the running sum of the powers of t,
    each the one before times t: the partial sums that summing [j]_t
    directly adds, so every entry is bit for bit that of the direct loop.
    On [0, 1], [j]_t lies in [1, j], so no entry overflows, and t = 0
    gives log [j]_0! = 0.  A base above 1 is folded onto 1/t by the
    callers ([j]_t = t**(j-1) [j]_{1/t}).  verify all holds about 750
    entries in 61 tables."""
    acc, power = 0.0, 1.0   # [j]_t and t**j
    table = [0.0]
    for j in range(1, size):
        acc += power
        power *= t
        table.append(table[-1] + math.log(acc))
    return tuple(table)


def log_q_factorial_table(m: int, t: float) -> tuple:
    """The shared table of log([j]_t!) for j = 0..m at least, for real t
    in [0, 1]; any other t raises ValueError.

    Its length is the power of two above m, so a few lengths per t serve
    every m; the tables are held as _held.held holds them."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"log-domain base must lie in [0, 1], got {t!r}")
    return _factorial_table(t, 1 << index(m).bit_length())


def log_q_factorial(m: int, t: float) -> float:
    """log([m]_t!) for real t in [0, 1] (log-domain; never overflows), read
    from a shared table of t."""
    if m < 0:
        raise ValueError("q-factorial index must be nonnegative")
    return log_q_factorial_table(m, t)[m]


class PochhammerValue(NamedTuple):
    value: float
    factors: int


@held(2 ** 16)   # two entries a value
def q_pochhammer_inf(a: complex, q: complex) -> PochhammerValue:
    """(a; q)_infty = prod_{j>=0} (1 - a q**j), truncated deterministically.

    Stops once the factor differs from 1 by less than 1e-12 (safe for
    |q| <= 1 - 1e-6 by geometric decay); at most ENUMERATION_CAP factors.
    """
    if abs(q) >= 1:
        raise ValueError("q-Pochhammer infinite product needs |q| < 1")
    value = 1.0 + 0.0j
    term = complex(a)
    j = 0
    while j < ENUMERATION_CAP:
        if abs(term) < 1e-12:
            break
        value *= 1.0 - term
        term *= q
        j += 1
    if abs(value.imag) <= 1e-15 * abs(value.real):
        return PochhammerValue(value.real, j)
    return PochhammerValue(value, j)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# exponent combinatorics

def sigma(k: Sequence[int], ell: Sequence[int]) -> int:
    """sigma(k, ell) = sum_{i<j} k_i * ell_j."""
    if len(k) != len(ell):
        raise ValueError("exponent vectors must share dimension")
    # one pass: ell_j meets the prefix sum k_0 + ... + k_{j-1}
    total = 0
    prefix = 0
    for ki, lj in zip(k, ell):
        total += prefix * lj
        prefix += ki
    return total


def cross_degree(k: Sequence[int]) -> int:
    """sum_{i<j} k_i * k_j, as ((sum k)^2 - sum k^2) / 2."""
    total = sum(k)
    return (total * total - sum(map(mul, k, k))) // 2


# ---------------------------------------------------------------------------
# weight functions

# Every polydisk and ball weight is read through the batch routes
# weight_polydisk_logs and weight_ball_logs, which the q-plane norms call
# once per element; the scalar forms are their one-key case.  Each batch
# makes one call to its mutation hook.

def weight_polydisk_logs(keys: Sequence[Sequence[int]], q) -> list:
    """log w_q(k) for each exponent vector k in keys: 0 for |q| >= 1,
    else cross_degree(k) log|q|."""
    qp = as_qparam(q)
    if qp.modulus >= 1.0:
        logs = [0.0] * len(keys)
    else:
        logs = [cross_degree(k) * qp.log_modulus for k in keys]
    return _mutate.shift_logs("weight-polydisk", logs)


def weight_polydisk(k: Sequence[int], q) -> float:
    """w_q(k): 1 for |q| >= 1, else |q|**cross_degree(k)."""
    return math.exp(weight_polydisk_logs((k,), q)[0])


def weight_u(k: Sequence[int], q) -> float:
    """u_q(k) = |q|**cross_degree(k), with no piecewise branch."""
    return math.exp(cross_degree(k) * as_qparam(q).log_modulus)


def _folded_base(modulus: float, power: float) -> float:
    """s = min(t, 1/t) for t = modulus**power, the base of a log [j]_s!
    table, formed as modulus**(+-power) so that no t out of the float range
    is formed; an s that underflows to 0 is a valid base."""
    if (modulus > 1.0) == (power > 0):
        power = -power
    return modulus * modulus if power == 2 else modulus ** power


def weight_ball_logs(keys: Sequence[Sequence[int]], q) -> list:
    """log of the ball weight ([k]_t! / [|k|]_t!)**(1/2) u_q(k), t = |q|**2,
    for each exponent vector k in keys, read from the shared log [j]_s!
    table of s = min(t, 1/t).  At |q| > 1 the fold [j]_t = t**(j-1) [j]_s
    gives the paper's second form ([k]_s! / [|k|]_s!)**(1/2): its factor
    t**(-cross(k)/2) cancels u_q(k), so only |q| < 1 adds cross(k) log|q|."""
    qp = as_qparam(q)
    log_modulus = min(qp.log_modulus, 0.0)
    # a negative entry would read the table from its end
    if min(chain.from_iterable(keys), default=0) < 0:
        raise ValueError("q-factorial index must be nonnegative")
    totals = list(map(sum, keys))
    table = log_q_factorial_table(max(totals, default=0), _folded_base(qp.modulus, 2))
    at = table.__getitem__
    return _mutate.shift_logs("weight-ball", [
        0.5 * (sum(map(at, k)) - at(total))
        + (total * total - sum(map(mul, k, k))) // 2 * log_modulus
        for k, total in zip(keys, totals)])


def weight_ball(k: Sequence[int], q) -> float:
    """([k]_{|q|^2}! / [|k|]_{|q|^2}!)**(1/2) * u_q(k); equals (k!/|k|!)**(1/2) at |q| = 1."""
    return math.exp(weight_ball_logs((k,), q)[0])


# ---------------------------------------------------------------------------
# word statistics

def word_profile(alpha: Sequence[int], n: int) -> tuple:
    """Letter-count profile p(alpha); p_i = number of occurrences of i."""
    if any(a < 1 or a > n for a in alpha):
        raise ValueError("letters must lie in 1..n")
    return _word_profile(tuple(alpha), n)


def word_stats(words: Sequence[Sequence[int]], n: int) -> tuple:
    """(profiles, inversions) of a batch of words over letters 1..n.

    profiles[i] is word_profile(words[i], n) and inversions[i] is
    inversions(words[i]); words may also be a mapping keyed by words, such
    as an element's terms.  A batch made of words of the fiber asked for
    last (the words of a lift) is read from its record; membership in the fiber already fixes every profile, so those
    letters are not checked again.  Otherwise a batch of a few words runs
    the scalar loops, a larger one is one numpy pass over all the words,
    whatever their lengths (see _wordkit_py); it raises ValueError unless
    every letter lies in 1..n."""
    return _word_stats(words, n)


def word_profiles(words: Sequence[Sequence[int]], n: int) -> list:
    """The profiles of word_stats(words, n), read from the fiber record as
    there; a batch off the record is not counted for inversions."""
    return _word_profiles(words, n)


_MAX_FIBER_DEGREE = 1000   # bounds the factorials fiber_count computes


def fiber_count(k: Sequence[int]) -> int:
    """|p^{-1}(k)| = |k|!/k! as an exact integer, for |k| <= 1000."""
    if any(m < 0 for m in k):
        raise ValueError("exponents must be nonnegative")
    total = sum(k)
    if total > _MAX_FIBER_DEGREE:
        raise EnumerationCapExceeded(
            f"total degree {total} exceeds the cap {_MAX_FIBER_DEGREE}")
    count = math.factorial(total)
    for m in k:
        count //= math.factorial(m)
    return count


def inversions(alpha: Sequence[int]) -> int:
    """m(alpha) = #{(i, j) : i < j, alpha_i > alpha_j}."""
    return _inversions(tuple(alpha))


def switch_count(alpha: Sequence[int]) -> int:
    """s(alpha) = #{i : alpha_i != alpha_{i+1}}; |alpha| - 1 when |alpha| <= 1."""
    return _switch_count(tuple(alpha))


def delta_word(k: Sequence[int]) -> tuple:
    """The sorted word with k_i copies of letter i."""
    out = []
    for letter, c in enumerate(k, start=1):
        if c < 0:
            raise ValueError("exponents must be nonnegative")
        out.extend([letter] * c)
    return tuple(out)


def _check_fiber_cap(k: Sequence[int]) -> None:
    count = fiber_count(k)
    if count > ENUMERATION_CAP:
        raise EnumerationCapExceeded(
            f"fiber of size {count} exceeds the enumeration cap {ENUMERATION_CAP}")


def fiber(k: Sequence[int]) -> tuple:
    """The fiber record (words, inversions) of p^{-1}(k), both tuples: every
    word alpha with p(alpha) = k once, in lexicographic order, and m(alpha)
    of each.  Records are held under _held.held, up to 2**12 words in all,
    and the record of the profile asked for last is kept whatever its size
    (see _wordkit_py); a later call for either returns the same record.  word_stats reads
    batches of words of the profile asked for last from its record.
    Every call, held or not, raises EnumerationCapExceeded for a fiber of
    more than ENUMERATION_CAP words, before any lookup or enumeration."""
    _check_fiber_cap(k)
    return _fiber(tuple(k))


def fiber_words(k: Sequence[int]) -> list:
    """All words alpha with p(alpha) = k, exactly once, in lexicographic order."""
    _check_fiber_cap(k)
    return _fiber_words_raw(tuple(k))


def fiber_inversion_list(k: Sequence[int]) -> list:
    """Inversion numbers m(alpha) over the fiber, in the fiber_words order."""
    _check_fiber_cap(k)
    return fiber_inversions(tuple(k))


class InvDistribution(NamedTuple):
    brute: complex
    closed: complex


def inv_distribution(k: Sequence[int], q: complex) -> InvDistribution:
    """Sum of q**m(alpha) over the fiber, both by enumeration and in the
    closed Mahonian form [|k|]_q!/[k]_q!; the two agree to ~1e-10 relative.
    """
    _check_fiber_cap(k)
    brute = mahonian_sum(tuple(k), complex(q))
    closed = q_factorial(sum(k), q) / q_factorial(k, q)
    closed = _mutate.scale("mahonian-closed-form", closed)
    return InvDistribution(brute, closed)


def word_with_inversions(k: Sequence[int], m: int) -> tuple:
    """A word alpha with p(alpha) = k, m(alpha) = m and switch count <= n + 2.

    Moving-letter construction: starting from the sorted word, the current
    leading letter is transposed rightward one step at a time; each step
    raises the inversion count by 0 or 1, so the target m is hit exactly.
    """
    if any(c < 0 for c in k):
        raise ValueError("exponents must be nonnegative")
    if not 0 <= m <= cross_degree(k):
        raise ValueError("inversion target out of range for this profile")
    word = list(delta_word(k))
    d = len(word)
    acc = 0
    if acc == m:
        return tuple(word)
    for final in range(d - 1, 0, -1):
        # one pass: park word[0] at position `final`
        for pos in range(final):
            if word[pos] < word[pos + 1]:
                acc += 1
            word[pos], word[pos + 1] = word[pos + 1], word[pos]
            if acc == m:
                return tuple(word)
    raise AssertionError("unreachable: target within range is always hit")


# ---------------------------------------------------------------------------
# index and word enumeration

def _check_multi_index_cap(n: int, max_total: int) -> None:
    if n < 1:
        raise ValueError("dimension must be at least 1")
    count = math.comb(max_total + n, n) if max_total >= 0 else 0
    if count > ENUMERATION_CAP:
        raise EnumerationCapExceeded(
            f"{count} multi-indices exceed the enumeration cap {ENUMERATION_CAP}")


# verify all needs about 20,000 entries of multi_indices tables
@held(2 ** 16)
def multi_indices(n: int, max_total: int) -> tuple:
    """All k in Z_+^n with |k| <= max_total, lexicographically sorted, if
    there are at most ENUMERATION_CAP of them (checked before enumerating)."""
    _check_multi_index_cap(n, max_total)
    return tuple(_compositions_upto(n, max_total))


def _compositions_upto(n, max_total):
    # in lexicographic order: heads ascending, each followed by its sorted tails
    if n == 1:
        return [(m,) for m in range(max_total + 1)]
    return [(head,) + tail for head in range(max_total + 1)
            for tail in _compositions_upto(n - 1, max_total - head)]


def words_exact(n: int, d: int):
    """Iterator over W_{n,d}, in lexicographic order."""
    return product(range(1, n + 1), repeat=d)


def words(n: int, max_len: int):
    """Iterator over all words of length <= max_len over {1..n}, by length."""
    return chain.from_iterable(words_exact(n, d) for d in range(max_len + 1))
