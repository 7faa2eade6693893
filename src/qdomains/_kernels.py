"""The word-statistics kernels: inversion and switch counts, letter
profiles, batched word statistics, the cached fiber record, the statistics
of its words read from it, and Mahonian sums (Python and numpy,
_wordkit_py)."""

from qdomains._wordkit_py import (
    fiber,
    fiber_inversions,
    fiber_words,
    inversions,
    mahonian_sum,
    switch_count,
    word_profile,
    word_stats,
)

USING_COMPILED: bool = False
