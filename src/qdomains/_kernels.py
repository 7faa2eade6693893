"""The word-statistics kernels: inversion and switch counts, letter
profiles, batched word statistics and profiles (a numpy pass, or scalar
loops for a few words), the fiber records (words and inversion numbers
from one first-letter recursion, held in a bounded store), the statistics
of their words read from them, and Mahonian sums (Python and numpy,
_wordkit_py)."""

from qdomains._wordkit_py import (
    fiber,
    fiber_inversions,
    fiber_words,
    inversions,
    mahonian_sum,
    switch_count,
    word_profile,
    word_profiles,
    word_stats,
)

USING_COMPILED: bool = False
