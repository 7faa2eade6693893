"""The word-statistics kernels: inversion and switch counts, letter
profiles, batched word statistics (a numpy pass, or scalar loops for a few
words), the cached fiber record (words and inversion numbers from one
first-letter recursion), the statistics of its words read from it, and
Mahonian sums (Python and numpy, _wordkit_py)."""

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
