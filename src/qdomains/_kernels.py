"""The word-statistics kernels: inversion and switch counts, letter
profiles, fiber enumeration and Mahonian sums (pure Python, _wordkit_py)."""

from qdomains._wordkit_py import (
    fiber_inversions,
    fiber_words,
    inversions,
    mahonian_sum,
    switch_count,
    word_profile,
)

USING_COMPILED: bool = False
