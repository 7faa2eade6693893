"""q-numbers, monomial weight functions, and word statistics.

Scalar layer shared by every other module.  Conventions fixed here:
[0]_q = 0 and [0]_q! = 1; exponents such as sum_{i<j} k_i*k_j and the
inversion number m(alpha) are exact integers, and |q|**N is evaluated in
the log domain so weights stay finite for N up to ~1e5.  _held.held holds
the log q-factorial, q-Pochhammer and multi-index tables and the fiber
records between calls.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain, product
from operator import index, mul
from typing import NamedTuple, Sequence

from qdomains import _mutate
from qdomains._held import held

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

    def power(self, e: int) -> complex:
        """q**e: the complex power where that is finite and nonzero, else
        |q|**e times the unit phase (q/|q|)**e.  Raises OverflowError, naming
        q and e, where |q|**e itself leaves the float range or is below the
        smallest subnormal."""
        try:
            value = self.value ** e
        except (OverflowError, ZeroDivisionError):   # q**|e| left the float range
            value = 0j
        if value and cmath.isfinite(value):
            return value
        try:
            value = self.modulus ** e * (self.value / self.modulus) ** e
        except OverflowError:
            value = 0j
        if value and cmath.isfinite(value):
            return value
        raise OverflowError(f"q**{e} at q = {self.value!r} leaves the float range")


def as_qparam(q) -> QParam:
    if isinstance(q, QParam):
        return q
    return QParam(complex(q))


# ---------------------------------------------------------------------------
# q-integers and q-factorials

def _raw(q):
    """The value of a QParam; any other q as it is, so it keeps its bits."""
    return q.value if isinstance(q, QParam) else q


def q_int(k: int, q) -> complex:
    """[k]_q = 1 + q + ... + q**(k-1); [0]_q = 0."""
    if k < 0:
        raise ValueError("q-integer index must be nonnegative")
    q = _raw(q)
    acc = 0.0 + 0.0j
    for _ in range(k):
        acc = acc * q + 1.0
    return acc


def q_factorial(k, q) -> complex:
    """[k]_q! for an integral scalar k, or prod_i [k_i]_q! for an exponent vector."""
    q = _raw(q)
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
    return math.exp(weight_polydisk_logs((tuple(map(index, k)),), q)[0])


def weight_u(k: Sequence[int], q) -> float:
    """u_q(k) = |q|**cross_degree(k), with no piecewise branch."""
    return math.exp(cross_degree(tuple(map(index, k))) * as_qparam(q).log_modulus)


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
        0.5 * (math.fsum(map(at, k)) - at(total))
        + (total * total - sum(map(mul, k, k))) // 2 * log_modulus
        for k, total in zip(keys, totals)])


def weight_ball(k: Sequence[int], q) -> float:
    """([k]_{|q|^2}! / [|k|]_{|q|^2}!)**(1/2) * u_q(k); equals (k!/|k|!)**(1/2) at |q| = 1."""
    return math.exp(weight_ball_logs((tuple(map(index, k)),), q)[0])


# ---------------------------------------------------------------------------
# word statistics
#
# A fiber p^{-1}(k) is enumerated into one record, fiber(k): its words in
# lexicographic order and their inversion numbers, as tuples, both from one
# recursion on the first letter (_enumerate_fiber); no statistics pass runs
# over the words.  The records are held by profile under _held.held while
# they add up to at most 2**16 words (_fiber_record).  Besides, the record of
# the profile asked for last is kept, held or not, until another profile is
# asked for (_last_record); it is let go before the next one is enumerated,
# so the two are not alive at once unless the store holds the old one.  So
# the lifts of one x^k, its fiber lists and its Mahonian sum share a single
# enumeration, and a later call for a held profile finds its record.  The
# record holds no element's data: a formal lift keeps its own layout
# (deform_types._LiftTerms).
#
# The record of the profile asked for last also answers word_stats and
# word_profiles: a batch of words of that fiber (the words of a lift of x^k,
# in any order and any number) has profile k and the recorded inversion
# numbers (_fiber_stats); membership in the fiber already fixes every
# letter.  A batch off the record (a foreign word anywhere in it, a word that
# is not a tuple, an empty batch, another n, or no record) is computed
# (_scan_stats): by the scalar loops, word by word, below _SCALAR_BATCH words,
# else in one numpy pass over the words left-padded with 0 into one integer
# array.  A numpy pass has a fixed cost of about 30-60 us, while the scalar
# loops take 3-6 us per word of 4-12 letters, so they are faster up to about
# 16-20 words (timeit, 2-letter to 6-letter alphabets); the normal orderings
# and norms of the 4-6 term elements that the suites check make tens of
# thousands of such calls.  The profiles alone (word_profiles, for the circ
# norm) have their own cutoff, _SCALAR_PROFILES.  numpy is imported on the
# first numpy pass, not with the module.  Every computed route raises
# ValueError unless each letter equals an int in 1..n, so 1.5, '1' and 2**70
# are refused on each.

def word_profile(alpha: Sequence[int], n: int) -> tuple:
    """Letter-count profile p(alpha); p_i = number of occurrences of i."""
    alpha = tuple(map(index, alpha))
    if any(a < 1 or a > n for a in alpha):
        raise ValueError("letters must lie in 1..n")
    return tuple(map(alpha.count, range(1, n + 1)))


def inversions(alpha: Sequence[int]) -> int:
    """m(alpha) = #{(i, j) : i < j, alpha_i > alpha_j}."""
    word = tuple(alpha)
    d = len(word)
    total = 0
    for i in range(d - 1):
        wi = word[i]
        for j in range(i + 1, d):
            if wi > word[j]:
                total += 1
    return total


def switch_count(alpha: Sequence[int]) -> int:
    """s(alpha) = #{i : alpha_i != alpha_{i+1}}; |alpha| - 1 when |alpha| <= 1."""
    word = tuple(alpha)
    d = len(word)
    if d <= 1:
        return d - 1
    return sum(1 for i in range(d - 1) if word[i] != word[i + 1])


_SCALAR_BATCH = 20
# word_profiles' own cutoff: without the inversion counts the scalar loop
# costs about 0.6-1 us per word against 17-35 us for a bincount pass of
# 10-50 words, so it wins up to about 50 words (timeit, n = 2-4, words of
# 4-9 letters: 40 words 25-32 us against 29 us, 60 words 36-49 against
# 36-44 us)
_SCALAR_PROFILES = 50

# The record of the profile asked for last: (counts, (words, inversions)).
_last_record = None


def _fiber_stats(words, n):
    """(profiles, inversions) of words over letters 1..n read from the
    record of the fiber asked for last, or None unless there is one, every
    word is a word of that fiber and the fiber has n letters.  words
    may be any sized iterable of words, a mapping keyed by words among
    them.  A batch that is the record's own word sequence (as the terms of
    a ball lift are) takes its inversion numbers as they are, after one
    C-level comparison; any other batch finds each word by bisection, as the
    record is in lexicographic order."""
    record = _last_record
    if record is None or len(record[0]) != n:
        return None
    counts, (record_words, record_ms) = record
    size = len(words)
    try:
        if size == len(record_words) and tuple(words) == record_words:
            return [counts] * size, list(record_ms)
        ms = []
        for word in words:
            i = bisect_left(record_words, word)
            if i == len(record_words) or record_words[i] != word:
                return None
            ms.append(record_ms[i])
    # a word that does not compare with a tuple (a list, an array)
    except (TypeError, ValueError):
        return None
    if not ms:
        return None
    return [counts] * len(ms), ms


def word_stats(words: Sequence[Sequence[int]], n: int) -> tuple:
    """(profiles, inversions) of a batch of words over letters 1..n: a list
    of n-tuples and a list of ints, in the order of words.

    profiles[i] is word_profile(words[i], n) and inversions[i] is
    inversions(words[i]); words may also be a mapping keyed by words, such
    as an element's terms.  A batch of words of the fiber asked for last is
    read from its record, any other is computed and raises ValueError unless
    every letter equals an int in 1..n (see the notes above word_profile)."""
    stats = _fiber_stats(words, n)
    if stats is not None:
        return stats
    return _scan_stats(words, n)


def word_profiles(words: Sequence[Sequence[int]], n: int) -> list:
    """The profiles of word_stats(words, n), read from the fiber record as
    there; a batch off the record is not counted for inversions."""
    stats = _fiber_stats(words, n)
    if stats is not None:
        return stats[0]
    if len(words) < _SCALAR_PROFILES:
        return _scalar_profiles(words, n)
    return _padded_profiles(_padded(words, n), n)


def _scan_stats(words, n):
    """word_stats computed from the letters: the scalar loops below
    _SCALAR_BATCH words, else one numpy pass."""
    if len(words) < _SCALAR_BATCH:
        return _scalar_profiles(words, n), [inversions(word) for word in words]
    import numpy as np
    padded = _padded(words, n)
    ms = np.zeros(len(words), dtype=np.int64)
    for j in range(1, padded.shape[1]):
        ms += (padded[:, :j] > padded[:, j:j + 1]).sum(axis=1)
    return _padded_profiles(padded, n), ms.tolist()


def _scalar_profiles(words, n):
    """The profiles of words, word by word.  A letter that equals no int in
    1..n is counted nowhere, so its word's profile falls short of its
    length."""
    profiles = [tuple(map(word.count, range(1, n + 1))) for word in words]
    if list(map(sum, profiles)) != list(map(len, words)):
        raise ValueError("letters must lie in 1..n")
    return profiles


def _padded(words, n):
    """The words left-padded with 0 into one integer array; 0 is below every
    letter, so padding adds no inversion, and no profile counts it.  Every
    letter must equal an int in 1..n, as on the scalar route: the array
    would truncate 1.5, parse '1' and overflow at 2**63."""
    import numpy as np
    letters = list(chain.from_iterable(words))
    if not set(letters) <= set(range(1, n + 1)):
        raise ValueError("letters must lie in 1..n")
    lengths = np.fromiter(map(len, words), dtype=np.intp, count=len(words))
    d = int(lengths.max(initial=0))
    padded = np.zeros((len(words), d), dtype=np.int64)
    padded[np.arange(d) >= d - lengths[:, None]] = letters
    return padded


def _padded_profiles(padded, n):
    # one bincount over (row, letter) bins; bin 0 takes the padding
    import numpy as np
    rows = len(padded)
    bins = n + 1
    counts = np.bincount((padded + bins * np.arange(rows)[:, None]).ravel(),
                         minlength=bins * rows)
    return list(map(tuple, counts.reshape(rows, bins)[:, 1:].tolist()))


_MAX_FIBER_DEGREE = 1000   # bounds the factorials fiber_count computes


def fiber_count(k: Sequence[int]) -> int:
    """|p^{-1}(k)| = |k|!/k! as an exact integer, for |k| <= 1000."""
    k = tuple(map(index, k))
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


def _enumerate_fiber(counts):
    """(words, inversions) of the fiber, as tuples, by the first-letter
    recursion: the words of b are (i,) + w for each word w of b - e_i, with
    the letters i of b ascending, which keeps them in lexicographic order,
    and the leading i adds one inversion per letter below i.  The records
    of every b <= counts with |b| = size are built level by level over
    size, and only two levels are held at once."""
    n = len(counts)
    level = {(0,) * n: ([()], [0])}
    for _ in range(sum(counts)):
        below_level = level
        level = {}
        for b in below_level:
            for i in range(n):
                if b[i] < counts[i]:
                    level.setdefault(b[:i] + (b[i] + 1,) + b[i + 1:], None)
        for b in level:
            words = []
            ms = []
            below = 0   # letters of b below i + 1
            for i, bi in enumerate(b):
                if bi:
                    sub_words, sub_ms = below_level[b[:i] + (bi - 1,) + b[i + 1:]]
                    head = (i + 1,)
                    words += [head + w for w in sub_words]
                    ms += [m + below for m in sub_ms]
                    below += bi
            level[b] = (words, ms)
    words, ms = level[counts]
    return tuple(words), tuple(ms)


# The store holds every fiber one process asks for.  verify all asks for 219
# fibers of 10,361 words in all (4,134 fiber calls), and a fiber-lift pass
# (ten profiles in three letter orders each) 17,206 to 35,742 words over
# seeds 1-400.  The traffic is cyclic, so an oldest-first store smaller than
# a pass drops each record before it is asked for again and holds nothing:
# at 2**12 words verify all enumerates 772 times and every fiber-lift pass
# 20-25 times, and 2**15 words are less than the passes of 118 of those 400
# seeds.  2**16 is the least power of two that holds both: verify all
# enumerates each fiber once, and a fiber-lift pass after the first
# enumerates nothing.  A 9-letter word costs about 130 B with its inversion
# number (a 112 B tuple and two slots), so a full store is about 8.4 MB.
@held(2 ** 16, size=lambda record: len(record[0]))
def _fiber_record(counts):
    return _enumerate_fiber(counts)


def fiber(k: Sequence[int]) -> tuple:
    """The fiber record (words, inversions) of p^{-1}(k), both tuples: every
    word alpha with p(alpha) = k once, in lexicographic order, and m(alpha)
    of each.  A later call for a held profile, or for the profile asked for
    last, returns the same record (see the notes above word_profile).
    Every call, held or not, raises EnumerationCapExceeded for a fiber of
    more than ENUMERATION_CAP words, before any lookup or enumeration."""
    global _last_record
    counts = tuple(map(index, k))
    _check_fiber_cap(counts)
    if _last_record is None or _last_record[0] != counts:
        # let the last record go before enumerating
        _last_record = None
        _last_record = (counts, _fiber_record(counts))
    return _last_record[1]


def fiber_words(k: Sequence[int]) -> list:
    """All words alpha with p(alpha) = k, exactly once, in lexicographic order."""
    return list(fiber(k)[0])


def fiber_inversion_list(k: Sequence[int]) -> list:
    """Inversion numbers m(alpha) over the fiber, in the fiber_words order."""
    return list(fiber(k)[1])


def _mahonian_sum(k, q):
    """Sum of q**inversions(alpha) over all words with the given letter counts."""
    ms = fiber(k)[1]
    max_m = 0
    total_seen = 0
    for c in k:
        max_m += total_seen * c
        total_seen += c
    powers = [1.0 + 0.0j] * (max_m + 1)
    for m in range(1, max_m + 1):
        powers[m] = powers[m - 1] * q
    acc = powers[ms[0]]
    for m in ms[1:]:
        acc += powers[m]
    return acc


class InvDistribution(NamedTuple):
    brute: complex
    closed: complex


def inv_distribution(k: Sequence[int], q) -> InvDistribution:
    """Sum of q**m(alpha) over the fiber, both by enumeration and in the
    closed Mahonian form [|k|]_q!/[k]_q!; the two agree to ~1e-10 relative.
    Where q is so near a root of unity that a q-integer [j]_q of the
    denominator, j <= max(k), has cancelled (_cancelled: exactly 0 at -1,
    say, where the quotient is 0/0), the closed form is the Gaussian
    multinomial's integer polynomial (_gaussian_multinomial) evaluated at q
    instead.  Raises OverflowError, naming q, where either leaves the float
    range (the powers of q, or the q-factorials, overflow far from |q| = 1).
    """
    k = tuple(map(index, k))
    q = _raw(q)
    brute = _mahonian_sum(k, complex(q))
    if _cancelled(k, q):
        closed = 0j
        for c in reversed(_gaussian_multinomial(k)):
            closed = closed * q + c
    else:
        closed = q_factorial(sum(k), q) / q_factorial(k, q)
    if not (cmath.isfinite(brute) and cmath.isfinite(closed)):
        raise OverflowError(
            f"the Mahonian sum of {k} at q = {complex(q)!r} leaves the float range")
    closed = _mutate.scale("mahonian-closed-form", closed)
    return InvDistribution(brute, closed)


# A q-integer [j]_q below this share of [j]_|q| = 1 + |q| + ... + |q|^(j-1)
# has lost four or more of its digits to cancellation (q lies near a root of
# unity whose order divides j): its rounding error, about j 2^-52 [j]_|q|,
# is then up to j 2.2e-12 of it, and the quotient [|k|]_q!/[k]_q! carries it.
# No [j]_q can fall below it unless ||q| - 1| < _CANCELLED (1 + |q|).
_CANCELLED = 1e-4


def _cancelled(k: Sequence[int], q) -> bool:
    """Whether some [j]_q, 2 <= j <= max(k), is below _CANCELLED [j]_|q|,
    an exact 0 among them."""
    modulus = abs(q)
    if abs(modulus - 1.0) >= _CANCELLED * (1.0 + modulus):
        return False
    acc, size = 1.0 + 0.0j, 1.0   # [1]_q and [1]_|q|
    for _ in range(1, max(k, default=0)):
        acc = acc * q + 1.0
        size = size * modulus + 1.0
        if abs(acc) < _CANCELLED * size:
            return True
    return False


def _gaussian_multinomial(k: Sequence[int]) -> list:
    """The integer coefficients, from q^0 up, of the Gaussian multinomial
    [|k|; k]_q = [|k|]_q!/[k]_q!, the product over i of the Gaussian
    binomials [k_1 + ... + k_i; k_i]_q, each built by the q-Pascal rule
    [a; b] = [a - 1; b - 1] + q^b [a - 1; b]."""
    poly = [1]
    total = 0
    for part in k:
        total += part
        row = [[1]] + [[]] * part   # [0; b] for b = 0 .. part, [] being 0
        for _ in range(total):
            row = [[1]] + [_poly_add(row[b - 1], [0] * b + row[b] if row[b] else [])
                           for b in range(1, part + 1)]
        out = [0] * (len(poly) + len(row[part]) - 1)
        for i, c in enumerate(poly):
            for j, d in enumerate(row[part]):
                out[i + j] += c * d
        poly = out
    return poly


def _poly_add(a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    return [x + y for x, y in zip(a, b)] + a[len(b):]


def word_with_inversions(k: Sequence[int], m: int) -> tuple:
    """A word alpha with p(alpha) = k, m(alpha) = m and switch count <= n + 2.

    Moving-letter construction: starting from the sorted word, the current
    leading letter is transposed rightward one step at a time; each step
    raises the inversion count by 0 or 1, so the target m is hit exactly.
    """
    k = tuple(map(index, k))
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
    """Every k in Z_+^n with |k| <= max_total, in lexicographic order, one
    successor step per key: below the total the last entry grows by one;
    at it, the rightmost nonzero entry k_j (j > 0) drops to 0 and k_{j-1}
    grows by one, and the walk ends when only k_0 is left nonzero."""
    if max_total < 0:
        return []
    k, total, last = [0] * n, 0, n - 1
    out = [tuple(k)]
    while True:
        if total < max_total:
            k[last] += 1
            total += 1
        else:
            j = last
            while j and not k[j]:
                j -= 1
            if j == 0:
                return out
            total -= k[j] - 1
            k[j] = 0
            k[j - 1] += 1
        out.append(tuple(k))


def words_exact(n: int, d: int):
    """Iterator over W_{n,d}, in lexicographic order."""
    return product(range(1, n + 1), repeat=d)


def words(n: int, max_len: int):
    """Iterator over all words of length <= max_len over {1..n}, by length."""
    return chain.from_iterable(words_exact(n, d) for d in range(max_len + 1))
