"""Seeded random elements for the verification suites.

Coefficients are uniform on the complex unit disk (sqrt(u) e^{2 pi i v}
with u, v uniform on [0,1)); supports are drawn uniformly from the set of
multi-indices or words of degree at most the cap.  Everything goes
through random.Random, so a fixed seed replays exactly.  The keys come
from the kit's own tables (qcombinat.multi_indices and _word_pool), so the
terms go to the constructors as _Checked maps, without a per-key check.
"""

from __future__ import annotations

import math
from random import Random

from qdomains import qcombinat as qc
from qdomains._held import held
from qdomains.deform_types import HSeriesElement
from qdomains.elements import FreeElement, LaurentElement, QPolynomial, _Checked

__all__ = [
    "unit_disk",
    "random_qpoly",
    "random_free",
    "random_laurent",
    "random_hseries",
]


def unit_disk(rng: Random) -> complex:
    r = math.sqrt(rng.random())
    theta = 2.0 * math.pi * rng.random()
    return complex(r * math.cos(theta), r * math.sin(theta))


def random_qpoly(rng: Random, n: int, q, max_degree: int = 4, terms: int = 6) -> QPolynomial:
    pool = qc.multi_indices(n, max_degree)
    chosen = _Checked()
    for _ in range(terms):
        k = rng.choice(pool)
        chosen[k] = chosen.get(k, 0.0) + unit_disk(rng)
    return QPolynomial(n, q, chosen)


@held(2 ** 16)
def _word_pool(n: int, max_len: int) -> tuple:
    """The 1 + n + ... + n**max_len words of length at most max_len over
    letters 1..n, if there are at most ENUMERATION_CAP of them (checked
    before enumerating)."""
    count = max_len + 1 if n == 1 else (n ** (max_len + 1) - 1) // (n - 1)
    if count > qc.ENUMERATION_CAP:
        raise qc.EnumerationCapExceeded(
            f"{count} words exceed the enumeration cap {qc.ENUMERATION_CAP}")
    return tuple(qc.words(n, max_len))


def random_free(rng: Random, n: int, max_len: int = 4, terms: int = 6) -> FreeElement:
    pool = _word_pool(n, max_len)
    chosen = _Checked()
    for _ in range(terms):
        alpha = rng.choice(pool)
        chosen[alpha] = chosen.get(alpha, 0.0) + unit_disk(rng)
    return FreeElement(n, chosen)


def random_laurent(rng: Random, n: int, max_degree: int = 3, max_power: int = 4,
                   terms: int = 6) -> LaurentElement:
    pool = qc.multi_indices(n, max_degree)
    chosen = _Checked()
    for _ in range(terms):
        k = rng.choice(pool)
        p = rng.randint(-max_power, max_power)
        chosen[(k, p)] = chosen.get((k, p), 0.0) + unit_disk(rng)
    return LaurentElement(n, chosen)


def random_hseries(rng: Random, n: int, order: int, max_degree: int = 3,
                   terms: int = 6) -> HSeriesElement:
    pool = qc.multi_indices(n, max_degree)
    chosen = _Checked()
    for _ in range(terms):
        k = rng.choice(pool)
        p = rng.randint(0, order)
        chosen[(p, k)] = chosen.get((p, k), 0.0) + unit_disk(rng)
    return HSeriesElement(n, order, chosen)
