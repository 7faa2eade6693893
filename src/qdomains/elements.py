"""Algebra elements: q-plane polynomials, free-algebra elements, and
Laurent-deformation elements, with their products and the lift maps.

Every element type of the kit, these three and the h-series types in
deform_types, is an immutable coefficient map over exact combinatorial
keys built on one base, _SparseElement.  Coefficients are double-precision
complex; construction drops a term only when its coefficient is exactly
zero (0, -0.0, 0j).  Every other term is kept: a tiny one, as the
coefficients |q|^m of a lift at small |q| are, and a NaN or infinite one
(as from an overflowing product), so an overflow shows in the result
instead of emptying it.  The q-plane, Laurent and h-series
products all follow one commutation rule,
x^k x^l = phase(sigma(l,k)) x^{k+l}, and run through one routine,
_twisted_mul, which has two routes that give the same bits:
- below _ARRAY_PAIRS = 256 term pairs, a pair loop, which reads each
  pair's k + l, sigma(l,k), sigma(k,l) and |k + l| from one table held
  under _held.held (_pair, up to 2**13 pairs; verify all meets about
  2,500) and forms the entry only for a pair not held;
- from 256 pairs on, the same sums over numpy arrays, numpy being
  imported on the first such product, not with the module.  Its products are
  formed with real ufuncs as CPython forms a complex product (numpy's
  complex multiply can differ from it in the last bit), and np.bincount
  adds each slot's products in pair order, starting each part from 0.0
  as the loop's sums start from 0j.
  Exponents, sigmas or slot codes too large for int64 (exponents from
  2^62 on, for one) send the product back to the loop.
free_mul stays a loop: its products have nearly as many distinct words
as pairs, so building the output tuples is most of its cost, and an
array route with words coded in base n + 1 was slower.

Public constructors validate every key.  Results that the kit builds
from keys it already holds skip that per-key check: the products
(qpoly_mul, laurent_mul, free_mul and both routes of _twisted_mul), +, -
and scalar *, normal_order (letter profiles), tau_flip, fiber_eval,
homogeneous_component, the generators of laurent_word, the fiber word
of polydisk_lift; in deform the (h-power, profile) keys of
normal_order_formal and star_product, the profiles of evaluate_h and the
fiber copies of commutator_defect; serialize.document_to_element, which
checked each key as it read it; and the randgen generators, which draw
their keys from qcombinat.multi_indices and their own word pool.  They
hand their terms over as a _Checked mapping, whose values each builder
makes complex where it forms them (scalar * converts its scalar once,
evaluate_h each power of h); construction takes the map over (see
_Checked), still through each class's __init__, and drops exact zeros.
ball_lift and deform.formal_ball_lift hand over their keys and values
with the lift's layout in a _LiftTerms, which FreeElement and
FormalFreeElement take as their terms as it is (_adopted); the lift's
orderings and the circ norm read that layout in place of its words.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Mapping
from functools import reduce
from numbers import Number
from itertools import accumulate, repeat
from operator import add, index, mul, sub
from types import MappingProxyType
from typing import Callable, Sequence

from qdomains import _mutate
from qdomains._held import held
from qdomains import qcombinat as qc
from qdomains.qcombinat import as_qparam

__all__ = [
    "QPolynomial",
    "FreeElement",
    "LaurentElement",
    "qpoly_mul",
    "free_mul",
    "normal_order",
    "tau_flip",
    "polydisk_lift",
    "ball_lift",
    "laurent_mul",
    "fiber_eval",
    "homogeneous_component",
]

class _Checked(dict):
    """Terms whose keys were built from keys already checked, as tuples of
    ints of the right shape and range, and whose values are complex by
    construction (a sum of complex products, complex(re, im), a product
    with QParam.power): _setup takes both as they are and tests only for
    zeros.

    Construction takes ownership of the map: when every value is nonzero,
    the element's terms are a read-only view of this very dict, so its
    builder makes a fresh one and never touches it afterwards.  A map with
    an exact zero is copied without it."""

    __slots__ = ()


class _LiftTerms(Mapping):
    """The terms of a lift of x^k across its fiber, ball_lift's or
    deform.formal_ball_lift's: a read-only mapping over two sequences in
    term order, its keys (the fiber's words, or (h-power, word) pairs) and
    their coefficients, with the lift's layout beside them: counts, the
    profile k of its words; ms, the inversion number of each word of the
    fiber, in fiber order; and series over m.  params, (n,) for a ball lift
    and (n, order) for a formal lift, fixes the shape of series: a list, m
    -> the coefficient of a word of m inversions, which per_word reads, or
    a dict, m -> the list of its coefficients of h^0, h^1, ..., which
    deform reads.  Iteration, reversal and len read the keys; every other
    read goes to a dict built over the two sequences on first use, so the
    views, copy and | are a MappingProxyType's.  Every value is a nonzero
    complex, so an element built for params (a FreeElement for (n,), a
    FormalFreeElement for (n, order)) adopts the mapping as it is; any
    other checks and copies its terms."""

    __slots__ = ("_keys", "_values", "_lookup", "counts", "ms", "series", "params")

    def __init__(self, keys: Sequence, values: list, counts: tuple, ms: tuple, series,
                 params: tuple):
        self._keys, self._values, self._lookup = keys, values, None
        self.counts, self.ms, self.series, self.params = counts, ms, series, params

    def __iter__(self):
        return iter(self._keys)

    def __reversed__(self):
        return reversed(self._keys)

    def __len__(self):
        return len(self._keys)

    def _dict(self) -> dict:
        if self._lookup is None:
            self._lookup = dict(zip(self._keys, self._values))
        return self._lookup

    def __getitem__(self, key):
        return self._dict()[key]

    def keys(self):
        return self._dict().keys()

    def values(self):
        return self._dict().values()

    def items(self):
        return self._dict().items()

    def copy(self) -> dict:
        return self._dict().copy()

    def __or__(self, other):
        return self._dict() | other

    def __ror__(self, other):
        return other | self._dict()

    def per_word(self, f):
        """A ball lift's f(m, series[m]) for each word in term order, each formed once per m."""
        values = [f(m, c) for m, c in enumerate(self.series)]
        return map(values.__getitem__, self.ms)


def _exponents(k, n: int) -> tuple:
    """An exponent vector as a tuple of n nonnegative ints."""
    key = tuple(map(index, k))
    if len(key) != n or min(key) < 0:
        raise ValueError(f"bad exponent vector {k!r} for dimension {n}")
    return key


def _word(alpha, n: int) -> tuple:
    """A word as a tuple of letters in 1..n."""
    word = tuple(map(index, alpha))
    if word and (min(word) < 1 or max(word) > n):
        raise ValueError(f"bad word {alpha!r} for dimension {n}")
    return word


class _SparseElement:
    """Immutable, finitely supported coefficient map over exact keys.

    A subclass names its parameters besides n in _fields, normalises and
    validates one basis key in _key(key), orders keys with the static
    _sort_key(key), and keeps its own __init__, which hands its arguments
    to _setup.  Results of arithmetic are built through that __init__ too,
    with their terms as a _Checked mapping.  A subclass may name in
    _adopted a read-only mapping type of its own, whose instances hold
    nonzero complex values by construction and, in params, the n and
    parameters they were built for: such terms built for this element's
    become its terms as they are, and any others are checked and copied
    as every other mapping is.
    """

    __slots__ = ("n", "terms")
    _fields: tuple = ()
    _adopted: type | None = None

    def _setup(self, n: int, terms: Mapping, *params):
        if n < 1:
            raise ValueError("dimension must be at least 1")
        object.__setattr__(self, "n", n)
        for name, value in zip(self._fields, params):
            object.__setattr__(self, name, value)
        kind = type(terms)
        if kind is _Checked:
            if all(terms.values()):
                # already clean: adopted as it is, not copied
                object.__setattr__(self, "terms", MappingProxyType(terms))
                return
            clean = terms
        elif kind is self._adopted and terms.params == (n, *params):
            object.__setattr__(self, "terms", terms)
            return
        else:
            clean = {}
            for key, c in terms.items():
                norm_key = self._key(key)
                if norm_key in clean:
                    raise ValueError(f"duplicate basis key {key!r}")
                if not isinstance(c, Number):
                    raise TypeError(f"coefficient {c!r} of {key!r} is not a number")
                clean[norm_key] = c
        object.__setattr__(self, "terms", MappingProxyType(
            {key: complex(c) for key, c in clean.items() if c}))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _params(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def _like(self, terms: Mapping):
        return type(self)(self.n, *self._params(), terms)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: self._sort_key(item[0]))

    def _merge(self, other, op):
        self._check_compatible(other)
        terms = _Checked(self.terms)
        for key, c in other.terms.items():
            terms[key] = op(terms.get(key, 0.0), c)
        return self._like(terms)

    def __add__(self, other):
        return self._merge(other, add)

    def __sub__(self, other):
        return self._merge(other, sub)

    def __mul__(self, scalar):
        if not isinstance(scalar, Number):
            return NotImplemented
        scalar = complex(scalar)
        return self._like(_Checked({key: c * scalar for key, c in self.terms.items()}))

    __rmul__ = __mul__

    def __eq__(self, other):
        return (type(other) is type(self) and self.n == other.n
                and self._params() == other._params()
                and dict(self.terms) == dict(other.terms))

    def __hash__(self):
        return hash((type(self).__name__, self.n, self._params(),
                     frozenset(self.terms.items())))

    def _params_close(self, other, tol: float) -> bool:
        return self._params() == other._params()

    def allclose(self, other, tol: float = 1e-12) -> bool:
        if type(other) is not type(self) or self.n != other.n:
            return False
        if not self._params_close(other, tol):
            return False
        keys = set(self.terms) | set(other.terms)
        return all(abs(self.terms.get(key, 0.0) - other.terms.get(key, 0.0)) <= tol
                   for key in keys)

    def _check_compatible(self, other):
        if type(other) is not type(self):
            raise TypeError(f"expected a {type(self).__name__}")
        if self.n != other.n or self._params() != other._params():
            raise ValueError(" or ".join(("dimension",) + self._fields) + " mismatch")

    def __repr__(self):
        params = "".join(f", {name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}(n={self.n}{params}, terms={len(self.terms)})"


class QPolynomial(_SparseElement):
    """Finitely supported element of the q-plane coordinate ring.

    Multiplication is determined by x_i x_j = q x_j x_i for i < j; the
    basis keys are exponent vectors k with x^k = x_1^{k_1} ... x_n^{k_n}.
    """

    __slots__ = ("q",)
    _fields = ("q",)

    def __init__(self, n: int, q, terms: Mapping):
        self._setup(n, terms, as_qparam(q))

    def _key(self, k):
        return _exponents(k, self.n)

    _sort_key = staticmethod(lambda k: (sum(k), k))

    def _params_close(self, other, tol: float) -> bool:
        return self.q.isclose(other.q, tol)

    @classmethod
    def zero(cls, n: int, q) -> "QPolynomial":
        return cls(n, q, {})

    @classmethod
    def one(cls, n: int, q) -> "QPolynomial":
        return cls(n, q, {(0,) * n: 1.0})

    @classmethod
    def monomial(cls, n: int, q, k: Sequence[int], c: complex = 1.0) -> "QPolynomial":
        return cls(n, q, {tuple(k): c})

    @classmethod
    def coordinates(cls, n: int, q) -> list:
        basis = []
        for i in range(n):
            k = [0] * n
            k[i] = 1
            basis.append(cls.monomial(n, q, k))
        return basis

    def degree(self) -> int:
        return max((sum(k) for k in self.terms), default=0)

    def __mul__(self, other):
        if isinstance(other, QPolynomial):
            return qpoly_mul(self, other)
        return super().__mul__(other)


class FreeElement(_SparseElement):
    """Finitely supported element of the free algebra on n generators."""

    __slots__ = ()
    _adopted = _LiftTerms

    def __init__(self, n: int, terms: Mapping):
        self._setup(n, terms)

    def _key(self, alpha):
        return _word(alpha, self.n)

    _sort_key = staticmethod(lambda alpha: (len(alpha), alpha))

    @classmethod
    def zero(cls, n: int) -> "FreeElement":
        return cls(n, {})

    @classmethod
    def one(cls, n: int) -> "FreeElement":
        return cls(n, {(): 1.0})

    @classmethod
    def word(cls, n: int, alpha: Sequence[int], c: complex = 1.0) -> "FreeElement":
        return cls(n, {tuple(alpha): c})

    @classmethod
    def generators(cls, n: int) -> list:
        return [cls.word(n, (i,)) for i in range(1, n + 1)]

    def length(self) -> int:
        return max((len(a) for a in self.terms), default=0)

    def __mul__(self, other):
        if isinstance(other, FreeElement):
            return free_mul(self, other)
        return super().__mul__(other)


class LaurentElement(_SparseElement):
    """Finitely supported element of the Laurent deformation ring.

    Basis keys are pairs (k, p) standing for x^k z^p, with the relations
    x_i x_j = z x_j x_i (i < j) and central invertible z.
    """

    __slots__ = ()

    def __init__(self, n: int, terms: Mapping):
        self._setup(n, terms)

    def _key(self, key):
        k, p = key
        return (_exponents(k, self.n), index(p))

    _sort_key = staticmethod(lambda key: (sum(key[0]), key))

    @classmethod
    def zero(cls, n: int) -> "LaurentElement":
        return cls(n, {})

    @classmethod
    def one(cls, n: int) -> "LaurentElement":
        return cls(n, {((0,) * n, 0): 1.0})

    @classmethod
    def monomial(cls, n: int, k: Sequence[int], p: int, c: complex = 1.0) -> "LaurentElement":
        return cls(n, {(tuple(k), p): c})

    @classmethod
    def generator(cls, n: int, i: int) -> "LaurentElement":
        k = [0] * n
        k[i - 1] = 1
        return cls.monomial(n, k, 0)

    @classmethod
    def z_power(cls, n: int, p: int) -> "LaurentElement":
        return cls.monomial(n, (0,) * n, p)

    def __mul__(self, other):
        if isinstance(other, LaurentElement):
            return laurent_mul(self, other)
        return super().__mul__(other)


# ---------------------------------------------------------------------------
# products

# Operands of at least this many pairs, len(a) * len(b), take the array
# route of _twisted_mul.  Median q-plane product times on a 2-core x86_64
# box (Python 3.11, numpy 2.4), loop against arrays: 64 pairs 183 and
# 339 us, 120 pairs 328 and 453 us, 256 pairs 693 and 638 us, 400 pairs
# 821 and 730 us, 2500 pairs 4.1 and 1.5 ms.  Below the cutoff numpy's
# fixed cost per call outweighs what it saves.
_ARRAY_PAIRS = 256
# exponent sums, sigmas and codes of the array route stay below this, so
# that no int64 sum or product of them can wrap; larger ones take the loop
_INT64_ROOM = 2 ** 62


def _suffix_sums(k) -> list:
    """s[i] = k_{i+1} + ... + k_{n-1}, so that sigma(l, k) = sum_i l_i s[i]."""
    return list(accumulate(reversed(k[1:]), initial=0))[::-1]


@held(2 ** 13, size=lambda entry: 1)
def _pair(k: tuple, l: tuple) -> tuple:
    """(k + l, sigma(l,k), sigma(k,l), |k + l|) for two exponent vectors: the
    entry of the pair table that the pair loop of _twisted_mul reads, its
    budget counted in pairs."""
    key = tuple(map(add, k, l))
    return key, sum(map(mul, l, _suffix_sums(k))), sum(map(mul, k, _suffix_sums(l))), sum(key)


def _twisted_mul(a, b, rule: Callable, degree_cap: int | None = None,
                 both_sigmas: bool = False) -> _Checked:
    """Bilinear product of (k, grade, c) term lists, grade being a z- or
    h-power or None, under x^k x^l = phase x^{k+l}.

    Per pair within degree_cap, rule(grade_a, grade_b, sigma(l,k),
    sigma(k,l) if both_sigmas else None), evaluated once per distinct
    argument, gives the (grade, factor) pairs the product c_a c_b is
    spread over, each factor a complex number (so that c_a c_b factor is a
    complex-by-complex product under every Python version's mixed-type
    rules).  Returns {(k + l, grade): coeff}, or {k + l: coeff} where the
    grade is None, its slots in the order the pairs first reach them, each
    coeff 0j + c_a c_b factor + ... summed in pair order.

    Below _ARRAY_PAIRS pairs this is a pair loop, which reads each pair's
    k + l, sigmas and degree from the held pair table (_pair) with one dict
    lookup, building the entry only when the pair is not held.  From
    _ARRAY_PAIRS on, _twisted_mul_arrays forms the same map with numpy,
    bit for bit, unless a number it codes would not fit int64."""
    if len(a) * len(b) >= _ARRAY_PAIRS:
        out = _twisted_mul_arrays(a, b, rule, degree_cap, both_sigmas)
        if out is not None:
            return out
    pairs = _pair.store
    cache: dict = {}
    out = _Checked()
    for k, g, ck in a:
        for l, h, cl in b:
            key, s_lk, s_kl, degree = pairs.get((k, l)) or _pair(k, l)
            if degree_cap is not None and degree > degree_cap:
                continue
            args = (g, h, s_lk, s_kl if both_sigmas else None)
            spread = cache.get(args)
            if spread is None:
                spread = cache[args] = rule(*args)
            ab = ck * cl
            for grade, factor in spread:
                slot = key if grade is None else (key, grade)
                out[slot] = out.get(slot, 0j) + ab * factor
    return out


def _ids(values) -> tuple:
    """(index of each value among the distinct values, number distinct)."""
    import numpy as np
    seen: dict = {}
    return np.array([seen.setdefault(v, len(seen)) for v in values]), len(seen)


def _twisted_mul_arrays(a, b, rule: Callable, degree_cap: int | None,
                        both_sigmas: bool) -> _Checked | None:
    """The map of the _twisted_mul pair loop, formed with numpy; None when
    an exponent sum, a sigma, a grade or a slot code would not fit int64.

    Every step keeps the loop's bits:
    - sigma(l,k) = suffix(K) @ L^T and sigma(k,l) = K @ suffix(L)^T are
      exact int64 matrix products.
    - rule runs once per distinct argument, with Python ints, as in the
      loop (complex ** np.int64 can differ from complex ** int).
    - c_a c_b, then times the factor, is formed from the real and imaginary
      parts as CPython forms a complex product, re = ar br - ai bi and
      im = ar bi + ai br, one real ufunc at a time.  numpy's complex
      multiply is not used: it can differ from Python's in the last bit.
    - Each slot (k + l, grade) is one mixed-radix int64 code.  np.unique
      gives the first occurrence of each code, which orders the slots as
      the loop's dict does, and np.bincount sums each slot's products in
      index order starting from 0.0, as the loop adds them to 0j, once for
      the real parts and once for the imaginary parts.
    """
    import numpy as np
    keys_a = [k for k, _, _ in a]
    keys_b = [l for l, _, _ in b]
    top = [x + y for x, y in zip(map(max, zip(*keys_a)), map(max, zip(*keys_b)))]
    key_radix = math.prod(t + 1 for t in top)   # each k + l lies in this box
    sigma_radix = max(map(sum, keys_a)) * max(map(sum, keys_b)) + 1   # sigma <= |k| |l|
    grade_a, distinct_a = _ids(g for _, g, _ in a)
    grade_b, distinct_b = _ids(h for _, h, _ in b)
    if (key_radix >= _INT64_ROOM or distinct_a * distinct_b
            * sigma_radix ** (2 if both_sigmas else 1) >= _INT64_ROOM):
        return None
    K = np.array(keys_a, dtype=np.int64)
    L = np.array(keys_b, dtype=np.int64)
    deg_k, deg_l = K.sum(axis=1), L.sum(axis=1)
    pairs = np.arange(len(a) * len(b))
    if degree_cap is not None:
        pairs = pairs[(deg_k[:, None] + deg_l <= degree_cap).ravel()]
    i, j = np.divmod(pairs, len(b))
    # Each stage drops the pair-sized arrays it is done with (del), so that
    # a few of them are held at a time, not all.

    # the distinct rule arguments, and each pair's index among them
    s_lk = ((deg_k[:, None] - np.cumsum(K, axis=1)) @ L.T).ravel()[pairs]
    code = (grade_a[i] * distinct_b + grade_b[j]) * sigma_radix + s_lk
    s_kl = None
    if both_sigmas:
        s_kl = (K @ (deg_l[:, None] - np.cumsum(L, axis=1)).T).ravel()[pairs]
        code = code * sigma_radix + s_kl
    _, once, arg = np.unique(code, return_index=True, return_inverse=True)
    spreads = [rule(a[x][1], b[y][1], s, t) for x, y, s, t in zip(
        i[once].tolist(), j[once].tolist(), s_lk[once].tolist(),
        s_kl[once].tolist() if both_sigmas else repeat(None))]
    del pairs, s_lk, s_kl, code

    # one entry per (pair, term of its spread), in the loop's order
    sizes = np.array([len(spread) for spread in spreads], dtype=np.int64)
    run = sizes[arg]
    entry_pair = np.repeat(np.arange(len(run)), run)
    entry = (np.repeat((np.cumsum(sizes) - sizes)[arg] - (np.cumsum(run) - run), run)
             + np.arange(len(entry_pair)))
    del arg, run
    grades = [grade for spread in spreads for grade, _ in spread]
    factors = np.array([factor for spread in spreads for _, factor in spread], dtype=complex)

    # each entry's slot, and the slots in the order they are first reached
    place = np.cumprod([1] + [t + 1 for t in top[:0:-1]])[::-1]
    slot = ((K @ place)[i] + (L @ place)[j])[entry_pair]
    graded = any(grade is not None for grade in grades)
    if graded:
        if not all(type(grade) is int for grade in grades):
            return None
        low = min(grades)
        grade_radix = max(grades) - low + 1
        if key_radix * grade_radix >= _INT64_ROOM or low <= -_INT64_ROOM:
            return None
        slot = slot * grade_radix + (np.array(grades, dtype=np.int64) - low)[entry]
    _, first, slot = np.unique(slot, return_index=True, return_inverse=True)
    order = np.argsort(first)

    ca = np.array([c for _, _, c in a], dtype=complex)
    cb = np.array([c for _, _, c in b], dtype=complex)
    with np.errstate(all="ignore"):   # as Python's floats, overflow to inf or NaN silently
        ab_re = (ca.real[i] * cb.real[j] - ca.imag[i] * cb.imag[j])[entry_pair]
        ab_im = (ca.real[i] * cb.imag[j] + ca.imag[i] * cb.real[j])[entry_pair]
        f_re, f_im = factors.real[entry], factors.imag[entry]
        re = np.bincount(slot, ab_re * f_re - ab_im * f_im)[order].tolist()
        im = np.bincount(slot, ab_re * f_im + ab_im * f_re)[order].tolist()
    del ab_re, ab_im, f_re, f_im, slot

    first = first[order]
    pair = entry_pair[first]
    keys = zip(*(K[i[pair]] + L[j[pair]]).T.tolist())
    if graded:
        keys = zip(keys, map(grades.__getitem__, entry[first].tolist()))
    return _Checked(zip(keys, map(complex, re, im)))


def _plain_mul(a: QPolynomial, b: QPolynomial, rule: Callable,
               degree_cap: int | None = None, both_sigmas: bool = False) -> dict:
    """_twisted_mul over the terms of two q-plane elements, keyed by k + l."""
    return _twisted_mul([(k, None, c) for k, c in a.terms.items()],
                        [(k, None, c) for k, c in b.terms.items()],
                        rule, degree_cap, both_sigmas)


def qpoly_mul(a: QPolynomial, b: QPolynomial, degree_cap: int | None = None) -> QPolynomial:
    """Bilinear product from the monomial rule x^k x^l = q^{-sigma(l,k)} x^{k+l},
    each phase from QParam.power (OverflowError where |q|^{-sigma} leaves
    the float range)."""
    a._check_compatible(b)
    q = a.q
    out = _plain_mul(a, b, lambda g, h, s, _: ((None, _mutate.scale("qpoly-phase", q.power(-s))),),
                     degree_cap)
    return QPolynomial(a.n, a.q, out)


def free_mul(a: FreeElement, b: FreeElement, length_cap: int | None = None) -> FreeElement:
    """Concatenation product."""
    a._check_compatible(b)
    out = _Checked()
    for alpha, ca in a.terms.items():
        for beta, cb in b.terms.items():
            word = alpha + beta
            if length_cap is not None and len(word) > length_cap:
                continue
            out[word] = out.get(word, 0.0) + ca * cb
    return FreeElement(a.n, out)


def laurent_mul(a: LaurentElement, b: LaurentElement,
                degree_cap: int | None = None) -> LaurentElement:
    """Monomial rule x^k z^p . x^l z^s = x^{k+l} z^{p+s-sigma(l,k)}."""
    a._check_compatible(b)
    out = _twisted_mul([(k, p, c) for (k, p), c in a.terms.items()],
                       [(k, p, c) for (k, p), c in b.terms.items()],
                       lambda p, s, sig, _: ((p + s - sig, 1 + 0j),), degree_cap)
    return LaurentElement(a.n, out)


# ---------------------------------------------------------------------------
# structure maps

def normal_order(f: FreeElement, q) -> QPolynomial:
    """Push a free element onto the q-plane: zeta_alpha -> q^{-m(alpha)} x^{p(alpha)},
    each phase from QParam.power, as in qpoly_mul.  A ball lift forms each
    product c * q^{-m} once per m (_LiftTerms.per_word) and adds them
    in term order from 0.0, with the bits of its copy's loop."""
    qp = as_qparam(q)
    out = _Checked()
    terms = f.terms
    if type(terms) is _LiftTerms:
        out[terms.counts] = reduce(add, terms.per_word(
            lambda m, c: c * _mutate.scale("normal-order-phase", qp.power(-m))), 0.0)
        return QPolynomial(f.n, qp, out)
    profiles, ms = qc.word_stats(terms, f.n)
    phases: dict = {}   # m -> q^{-m}: a fiber's thousands of words share few m
    for c, k, m in zip(terms.values(), profiles, ms):
        phase = phases.get(m)
        if phase is None:
            phase = phases[m] = _mutate.scale("normal-order-phase", qp.power(-m))
        out[k] = out.get(k, 0.0) + c * phase
    return QPolynomial(f.n, qp, out)


def tau_flip(a: QPolynomial) -> QPolynomial:
    """Letter-reversal isomorphism onto the algebra with parameter 1/q.

    On monomials: x^k -> q^{cross_degree(k)} x^{reverse(k)}; applying it
    twice returns the original element.  Each power is QParam.power's.
    """
    out = _Checked()
    for k, c in a.terms.items():
        out[tuple(reversed(k))] = c * a.q.power(qc.cross_degree(k))
    return QPolynomial(a.n, a.q.inverse(), out)


def homogeneous_component(a: QPolynomial, i: int) -> QPolynomial:
    """The degree-i part: sum of c_k x^k over |k| = i."""
    if i < 0:
        raise ValueError("component index must be nonnegative")
    return QPolynomial(a.n, a.q, _Checked({k: c for k, c in a.terms.items()
                                                  if sum(k) == i}))


def fiber_eval(a: LaurentElement, q) -> QPolynomial:
    """Evaluate z -> q, landing in the q-plane algebra at parameter q; each
    power of q is QParam.power's."""
    qp = as_qparam(q)
    out = _Checked()
    for (k, p), c in a.terms.items():
        out[k] = out.get(k, 0.0) + c * qp.power(p)
    return QPolynomial(a.n, qp, out)


def laurent_word(n: int, alpha: Sequence[int]) -> LaurentElement:
    """x_alpha built by multiplying Laurent generators; equals x^{p(alpha)} z^{-m(alpha)}."""
    alpha = _word(alpha, n)
    generators = [LaurentElement(n, _Checked({(tuple(int(i == a) for i in range(n)), 0): 1 + 0j}))
                  for a in range(n)]
    acc = LaurentElement.one(n)
    for a in alpha:
        acc = laurent_mul(acc, generators[a - 1])
    return acc


# ---------------------------------------------------------------------------
# optimal lifts

# Outside |log|q|| <= _TIE_BAND the values m log|q| of distinct integers m
# differ by far more than polydisk_lift's 1e-15 tie, so no tie can chain
_TIE_BAND = 1e-14

def polydisk_lift(k: Sequence[int], q) -> FreeElement:
    """Single-word lift of x^k minimizing the Taylor free norm.

    Returns q^{m(a*)} zeta_{a*} where a* minimizes |q|^{m(alpha)} over the
    fiber (lexicographically smallest on ties); its normal ordering is x^k
    and its Taylor norm at any rho equals w_q(k) rho^{|k|}.  QParam.power
    gives the power, or raises OverflowError naming q.
    """
    qp = as_qparam(q)
    k = tuple(map(index, k))
    words, ms = qc.fiber(k)
    log_modulus = qp.log_modulus
    if log_modulus == 0.0:
        best = 0
    elif abs(log_modulus) <= _TIE_BAND:
        # m log|q| of different m can lie within the 1e-15 tie of each other
        best, least = 0, ms[0] * log_modulus
        for i, m in enumerate(ms):
            if m * log_modulus < least - 1e-15:
                best, least = i, m * log_modulus
    else:
        # distinct m lie more than 1e-15 apart: the first word of least
        # m log|q|, of least m for |q| > 1 and of greatest m for |q| < 1
        best = ms.index(min(ms) if log_modulus > 0.0 else max(ms))
    return FreeElement(len(k), _Checked(
        {words[best]: _mutate.scale("polydisk-lift-coefficient", qp.power(ms[best]))}))


def ball_lift(k: Sequence[int], q) -> FreeElement:
    """Minimal-circ-norm lift a_k of x^k across the whole fiber.

    Coefficients c^0_alpha = |q|^{-2m(alpha)} / sum_beta |q|^{-2m(beta)};
    the element sum_alpha c^0_alpha q^{m(alpha)} zeta_alpha normal-orders
    to x^k and its circ norm at rho is exactly the ball monomial norm.
    Each power q^m is QParam.power's, as in polydisk_lift.  A word whose
    raw weight |q|^{-2m} / max_beta |q|^{-2m(beta)} underflows below the
    normal floats takes its coefficient's modulus in log space instead,
    exp(-m log|q| - log sum_beta |q|^{-2m(beta)}), times the unit phase
    (q/|q|)^m, so a coefficient in the float range is kept although its
    weight is not.  A coefficient below the smallest subnormal raises
    OverflowError naming q, as QParam.power does: the lift is the whole
    fiber or nothing, never a lift with words left out.  The terms are a
    _LiftTerms over the fiber record's own word tuple, with the per-m
    coefficients as series, which normal_order and the circ norm read.
    """
    qp = as_qparam(q)
    k = tuple(map(index, k))
    words, ms = qc.fiber(k)
    log_modulus = qp.log_modulus
    # every word of one m has the same coefficient, and every m from 0 to
    # max(ms) occurs in a fiber
    logs = [-2.0 * m * log_modulus for m in range(max(ms) + 1)]
    shift = max(logs)
    raw = [math.exp(v - shift) for v in logs]
    total = math.fsum(map(raw.__getitem__, ms))
    log_sum = shift + math.log(total)
    unit = qp.value / qp.modulus
    coefficients = [_mutate.scale("ball-lift-coefficient",
                                  (w / total) * qp.power(m) if w >= sys.float_info.min
                                  else math.exp(-m * log_modulus - log_sum) * unit ** m)
                    for m, w in enumerate(raw)]
    if not all(coefficients):
        raise OverflowError(f"a ball_lift coefficient of {k} at q = {qp.value!r} "
                            "is below the float range")
    return FreeElement(len(k), _LiftTerms(words, list(map(coefficients.__getitem__, ms)),
                                          k, ms, coefficients, (len(k),)))
