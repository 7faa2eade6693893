"""Seeded random elements for the verification suites.

Coefficients are uniform on the complex unit disk (sqrt(u) e^{2 pi i v}
with u, v uniform on [0,1)); supports are drawn uniformly from the set of
multi-indices or words of degree at most the cap.  Everything goes
through random.Random, so a fixed seed replays exactly.  Each generator
draws its terms in one pass (_draw) that reads a random.Random's stream
exactly as rng.choice, rng.randint and unit_disk would: the element, and
the generator's state after it, are those the three calls give.  The keys
come from the kit's own tables (qcombinat.multi_indices and _word_pool),
so the terms go to the constructors as _Checked maps, without a per-key
check.
"""

from __future__ import annotations

import math
from cmath import rect
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
    """sqrt(u) e^{2 pi i v} for u, then v, drawn by rng.random()."""
    return rect(math.sqrt(rng.random()), math.tau * rng.random())


def _draw(rng: Random, pool, terms: int, grades: tuple | None = None) -> list:
    """terms draws of (key, grade, coefficient): a key uniform on pool, then
    an int grade uniform on grades = (low, high), both ends included (None
    where grades is None), then a coefficient uniform on the unit disk.

    The result is that of rng.choice(pool), rng.randint(low, high) and
    unit_disk(rng) in turn, and so is what is left of rng's stream.  A
    random.Random itself is read in one pass: as in CPython 3.10-3.13, an
    int below m is getrandbits(m.bit_length()), drawn again while it is m
    or more, and cmath.rect(r, theta) forms complex(r cos theta, r sin theta)
    for finite r and theta.  Any other generator (a subclass may draw
    otherwise), and an empty pool or grade range, which those methods
    refuse, goes through the methods."""
    low, high = grades or (0, 0)
    if type(rng) is not Random or not pool or high < low:
        return [(rng.choice(pool), None if grades is None else rng.randint(low, high),
                 unit_disk(rng)) for _ in range(terms)]
    getrandbits, uniform = rng.getrandbits, rng.random
    size, width = len(pool), high - low + 1
    key_bits, grade_bits = size.bit_length(), width.bit_length()
    out = []
    for _ in range(terms):
        i = getrandbits(key_bits)
        while i >= size:
            i = getrandbits(key_bits)
        grade = None
        if grades is not None:
            grade = getrandbits(grade_bits)
            while grade >= width:
                grade = getrandbits(grade_bits)
            grade += low
        out.append((pool[i], grade, rect(math.sqrt(uniform()), math.tau * uniform())))
    return out


def random_qpoly(rng: Random, n: int, q, max_degree: int = 4, terms: int = 6) -> QPolynomial:
    chosen = _Checked()
    for k, _, c in _draw(rng, qc.multi_indices(n, max_degree), terms):
        chosen[k] = chosen.get(k, 0.0) + c
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
    chosen = _Checked()
    for alpha, _, c in _draw(rng, _word_pool(n, max_len), terms):
        chosen[alpha] = chosen.get(alpha, 0.0) + c
    return FreeElement(n, chosen)


def random_laurent(rng: Random, n: int, max_degree: int = 3, max_power: int = 4,
                   terms: int = 6) -> LaurentElement:
    chosen = _Checked()
    for k, p, c in _draw(rng, qc.multi_indices(n, max_degree), terms, (-max_power, max_power)):
        chosen[(k, p)] = chosen.get((k, p), 0.0) + c
    return LaurentElement(n, chosen)


def random_hseries(rng: Random, n: int, order: int, max_degree: int = 3,
                   terms: int = 6) -> HSeriesElement:
    chosen = _Checked()
    for k, p, c in _draw(rng, qc.multi_indices(n, max_degree), terms, (0, order)):
        chosen[(p, k)] = chosen.get((p, k), 0.0) + c
    return HSeriesElement(n, order, chosen)
