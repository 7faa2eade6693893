"""Truncated formal-parameter element types used by the deformation layer.

They live apart from deform because deform imports norms, and norms
dispatches on HSeriesElement.  Both build on the sparse-element base of
elements, with keys that lead with the h-power p, 0 <= p <= order.  The
terms of a formal lift are an elements._LiftTerms, the one lift-terms
type, which also carries the terms of a ball lift.
"""

from __future__ import annotations

from collections.abc import Mapping
from operator import index
from typing import Sequence

from qdomains.elements import _exponents, _LiftTerms, _SparseElement, _word


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
