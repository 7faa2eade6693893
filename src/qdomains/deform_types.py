"""Truncated formal-parameter element types used by the deformation layer.

They live apart from deform because deform imports norms, and norms
dispatches on HSeriesElement.  Both build on the sparse-element base of
elements, with keys that lead with the h-power p, 0 <= p <= order.
"""

from __future__ import annotations

from collections.abc import ItemsView, Mapping, ValuesView
from operator import index
from typing import Sequence

from qdomains.elements import _exponents, _SparseElement, _word


def _h_power(p, order: int) -> int:
    p = index(p)
    if not 0 <= p <= order:
        raise ValueError(f"h-power {p} outside 0..{order}")
    return p


class HSeriesElement(_SparseElement):
    """Polynomial coefficients with a formal parameter truncated at h^order.

    Terms map (h-power p, exponent vector k) to complex coefficients;
    0 <= p <= order throughout.
    """

    __slots__ = ("order",)
    _fields = ("order",)

    def __init__(self, n: int, order: int, terms: Mapping):
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        self._setup(n, terms, order)

    def _key(self, key):
        p, k = key
        return (_h_power(p, self.order), _exponents(k, self.n))

    _sort_key = staticmethod(lambda key: (key[0], sum(key[1]), key[1]))

    @classmethod
    def zero(cls, n: int, order: int) -> "HSeriesElement":
        return cls(n, order, {})

    @classmethod
    def one(cls, n: int, order: int) -> "HSeriesElement":
        return cls(n, order, {(0, (0,) * n): 1.0})

    @classmethod
    def monomial(cls, n: int, order: int, k: Sequence[int], c: complex = 1.0,
                 p: int = 0) -> "HSeriesElement":
        return cls(n, order, {(p, tuple(k)): c})

    @classmethod
    def from_coefficients(cls, n: int, order: int, by_power: Mapping) -> "HSeriesElement":
        terms = {}
        for p, poly in by_power.items():
            for k, c in poly.items():
                terms[(p, tuple(k))] = c
        return cls(n, order, terms)

    def coefficient(self, p: int) -> dict:
        """The h^p coefficient as a plain exponent-vector map."""
        return {k: c for (pp, k), c in self.terms.items() if pp == p}


class _LiftTerms(Mapping):
    """The terms of a formal ball lift: a read-only mapping over two lists
    in term order, its (h-power, word) keys and their coefficients, with
    the lift's layout beside them: counts, the profile k of its words; ms,
    the inversion number of each word of the fiber, in fiber order; and
    series, m -> the coefficients of h^0, h^1, ... of a word of m
    inversions.  Iteration, len, values and items read the lists; a lookup
    ([], and so get and in) builds a dict over them on first use.  Every
    value is a nonzero complex, so a FormalFreeElement of the (n, order) in
    params adopts the mapping as it is; one of another n or order checks
    and copies its terms."""

    __slots__ = ("_keys", "_values", "_lookup", "counts", "ms", "series", "params")

    def __init__(self, keys: list, values: list, counts: tuple, ms: tuple, series: dict,
                 order: int):
        self._keys, self._values, self._lookup = keys, values, None
        self.counts, self.ms, self.series = counts, ms, series
        self.params = (len(counts), order)

    def __iter__(self):
        return iter(self._keys)

    def __len__(self):
        return len(self._keys)

    def __getitem__(self, key):
        if self._lookup is None:
            self._lookup = dict(zip(self._keys, self._values))
        return self._lookup[key]

    def values(self):
        return _LiftValues(self)

    def items(self):
        return _LiftItems(self)


class _LiftValues(ValuesView):
    __slots__ = ()

    def __iter__(self):
        return iter(self._mapping._values)


class _LiftItems(ItemsView):
    __slots__ = ()

    def __iter__(self):
        return zip(self._mapping._keys, self._mapping._values)


class FormalFreeElement(_SparseElement):
    """Free-algebra coefficients with a truncated formal parameter.

    Terms map (h-power p, word alpha) to complex coefficients.  Used for
    the formal ball lift and its truncated normal ordering.  The terms of
    a lift are a _LiftTerms, which also holds the lift's layout; the
    terms of any other element are a read-only dict, as for every element.
    """

    __slots__ = ("order",)
    _fields = ("order",)
    _adopted = _LiftTerms

    def __init__(self, n: int, order: int, terms: Mapping):
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        self._setup(n, terms, order)

    def _key(self, key):
        p, alpha = key
        return (_h_power(p, self.order), _word(alpha, self.n))

    _sort_key = staticmethod(lambda key: (key[0], len(key[1]), key[1]))

    def coefficient(self, p: int) -> dict:
        return {alpha: c for (pp, alpha), c in self.terms.items() if pp == p}
