"""Word-statistics kernels, imported by qdomains.qcombinat.

Scalar statistics of one word are plain Python loops.  The statistics of
a batch of words off the fiber record (word_stats) are one numpy pass over
the batch, unless the batch has fewer than _SCALAR_BATCH words: then they
are the scalar loops, word by word.  A numpy pass has a fixed cost of
about 30-60 us, while the scalar loops take 3-6 us per word of 4-12
letters, so they are faster up to about 16-20 words (timeit, 2-letter to
6-letter alphabets); the normal orderings and norms of the 4-6 term
elements that the suites check make tens of thousands of such calls.
The profiles alone (word_profiles, for the circ norm) have their own
cutoff, _SCALAR_PROFILES, since without the inversion counts the scalar
loop is cheaper per word.

A fiber p^{-1}(k) is enumerated into one record, fiber(counts): its words
in lexicographic order and their inversion numbers, as tuples.  Both come
from one recursion on the first letter, built level by level over the
sub-profiles of k: the words of k are i + w for each word w of k - e_i,
and such a word has the inversions of w plus one per letter of k below i
(_enumerate_fiber); no statistics pass runs over the words.  The records
are held by profile under _held.held while they add up to at most 2**12
words (_fiber_record).  Besides, the record of the profile asked for last
is kept, held or not, until another profile is asked for; it is let go
before the next one is enumerated, so the two are not alive at once
unless the store holds the old one.  So the lifts
of one x^k, its fiber lists and its Mahonian sum share a single
enumeration, and a suite that comes back to a small profile finds its
record.  fiber_words and fiber_inversions return fresh lists.

The record of the profile asked for last also answers word_stats: a batch
of words of that fiber (the words of a lift of x^k, in any order and any
number) has profile k and the recorded inversion numbers, so fiber_stats
reads them from the record and no statistics pass runs.  A batch that is
the record's own word sequence (same length, same words, same order, as
the terms of a ball lift are) takes the record's inversion numbers as they
are, after one C-level comparison; any other batch (a polydisk lift's one
word, a reordered copy) finds each word by bisection, as the record is in
lexicographic order.  A batch off the record (a foreign word anywhere in
it, a word that is not a tuple, an empty batch, another n, or no record)
takes the scalar or numpy route, and must have every letter in 1..n.

The record asked for last also keeps the layout of the formal lift of
its fiber built last (keep_layout; a lift too small for the ordering's
array pass keeps none): the lift's term keys (h-power, word) in order,
with the h-power and the inversion number of each key as small-dtype
arrays.  deform.normal_order_formal reads p and m from it for each chunk
of an element whose keys equal that layout's (fiber_layout), and computes
them otherwise.  The next formal lift of the fiber replaces the layout,
and asking for another profile drops it with the record."""

from bisect import bisect_left
from itertools import chain
from operator import index

import numpy as np

from qdomains._held import held


def inversions(word):
    d = len(word)
    total = 0
    for i in range(d - 1):
        wi = word[i]
        for j in range(i + 1, d):
            if wi > word[j]:
                total += 1
    return total


def switch_count(word):
    d = len(word)
    if d <= 1:
        return d - 1
    return sum(1 for i in range(d - 1) if word[i] != word[i + 1])


def word_profile(word, n):
    # letters outside 1..n are left out
    return tuple(map(word.count, range(1, n + 1)))


_SCALAR_BATCH = 20
# word_profiles' own cutoff: without the inversion counts the scalar loop
# costs about 0.6-1 us per word against 17-35 us for a bincount pass of
# 10-50 words, so it wins up to about 50 words (timeit, n = 2-4, words of
# 4-9 letters: 40 words 25-32 us against 29 us, 60 words 36-49 against
# 36-44 us)
_SCALAR_PROFILES = 50

# The record of the profile asked for last: [counts, (words, inversions),
# the layout of a formal lift of it or None].
_last_record = None


def fiber_stats(words, n):
    """(profiles, inversions) of words over letters 1..n read from the
    record of the fiber asked for last, or None unless there is one, every
    word is a word of that fiber and the fiber has n letters.  words
    may be any sized iterable of words, a mapping keyed by words among
    them.  The record's own word sequence is answered as it is, and any
    other batch word by word, by bisection."""
    record = _last_record
    if record is None or len(record[0]) != n:
        return None
    counts, (record_words, record_ms), _ = record
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


def word_stats(words, n):
    """(profiles, inversions) of every word in words, over letters 1..n.

    Returns a list of n-tuples and a list of ints, in the order of words.
    A batch of words of the cached fiber is read from its record
    (fiber_stats), any other is computed (_scan_stats).  A computed batch
    with a letter outside 1..n raises ValueError; membership in the fiber
    already fixes every letter of a batch read from the record."""
    stats = fiber_stats(words, n)
    if stats is not None:
        return stats
    profiles, ms = _scan_stats(words, n)
    if list(map(sum, profiles)) != list(map(len, words)):
        raise ValueError("letters must lie in 1..n")
    return profiles, ms


def word_profiles(words, n):
    """The profiles of word_stats(words, n) alone: read from the fiber
    record as there, else computed without the inversion numbers."""
    stats = fiber_stats(words, n)
    if stats is not None:
        return stats[0]
    if len(words) < _SCALAR_PROFILES:
        profiles = [word_profile(word, n) for word in words]
    else:
        profiles = _padded_profiles(_padded(words), n)
    if list(map(sum, profiles)) != list(map(len, words)):
        raise ValueError("letters must lie in 1..n")
    return profiles


def _scan_stats(words, n):
    """word_stats computed from the letters: the scalar loops below
    _SCALAR_BATCH words, else one numpy pass.  Letters outside 1..n are
    left out of the profiles on both routes."""
    if len(words) < _SCALAR_BATCH:
        return ([word_profile(word, n) for word in words],
                [inversions(word) for word in words])
    padded = _padded(words)
    ms = np.zeros(len(words), dtype=np.int64)
    for j in range(1, padded.shape[1]):
        ms += (padded[:, :j] > padded[:, j:j + 1]).sum(axis=1)
    return _padded_profiles(padded, n), ms.tolist()


def _padded(words):
    """The words left-padded with 0 into one integer array; 0 is below every
    letter, so padding adds no inversion, and no profile counts it."""
    lengths = np.fromiter(map(len, words), dtype=np.intp, count=len(words))
    d = int(lengths.max(initial=0))
    padded = np.zeros((len(words), d), dtype=np.int64)
    padded[np.arange(d) >= d - lengths[:, None]] = np.fromiter(
        chain.from_iterable(words), dtype=np.int64, count=int(lengths.sum()))
    return padded


def _padded_profiles(padded, n):
    # one bincount over (row, letter) bins; bin 0 takes the padding and
    # bin n + 1 every letter outside 1..n
    rows = len(padded)
    bins = n + 2
    flat = np.minimum(np.maximum(padded, 0), n + 1) + bins * np.arange(rows)[:, None]
    counts = np.bincount(flat.ravel(), minlength=bins * rows)
    return list(map(tuple, counts.reshape(rows, bins)[:, 1:n + 1].tolist()))


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


# verify all asks for 219 fibers of 10,361 words in all: this budget keeps
# the 3,543 words of the 120 profiles that three suites come back to, for
# 772 enumerations in place of 2,256 with one slot.  Holding every fiber
# made 219 enumerations but raised the run's peak RSS by about 2.4 MB,
# against 1 MB with this budget.
@held(2 ** 12, size=lambda record: len(record[0]))
def _fiber_record(counts):
    return _enumerate_fiber(counts)


def fiber(counts):
    """(words, inversions) of the fiber with the given letter counts: every
    word once, in lexicographic order, and the inversion number of each.
    A call for a profile whose record is held, or for the profile asked
    for last, returns that record."""
    global _last_record
    counts = tuple(map(index, counts))
    if _last_record is None or _last_record[0] != counts:
        # let the last record and its layout go before enumerating
        _last_record = None
        _last_record = [counts, _fiber_record(counts), None]
    return _last_record[1]


def keep_layout(counts, layout):
    """Keep layout, the layout of a formal lift of the fiber of counts, on
    its record if that is the record asked for last: (keys, ps, ms), the
    lift's term keys in order and the h-power and inversion number of each
    key as integer arrays.  It replaces the layout kept before; None drops
    it."""
    record = _last_record
    if record is not None and record[0] == tuple(counts):
        record[2] = layout


def fiber_layout(n):
    """(counts, keys, ps, ms) of the layout kept on the record asked for
    last (keep_layout), or None unless there is one over n letters."""
    record = _last_record
    if record is None or record[2] is None or len(record[0]) != n:
        return None
    return (record[0],) + record[2]


def fiber_words(counts):
    return list(fiber(counts)[0])


def fiber_inversions(counts):
    return list(fiber(counts)[1])


def mahonian_sum(counts, q):
    """Sum of q**inversions(alpha) over all words with the given letter counts."""
    max_m = 0
    total_seen = 0
    for c in counts:
        max_m += total_seen * c
        total_seen += c
    powers = [1.0 + 0.0j] * (max_m + 1)
    for m in range(1, max_m + 1):
        powers[m] = powers[m - 1] * q
    ms = fiber(counts)[1]
    acc = powers[ms[0]]
    for m in ms[1:]:
        acc += powers[m]
    return acc
