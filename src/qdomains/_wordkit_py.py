"""Pure-Python word-statistics kernels, re-exported by qdomains._kernels."""


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
    counts = [0] * n
    for a in word:
        counts[a - 1] += 1
    return tuple(counts)


def _start_word(counts):
    word = []
    for letter, c in enumerate(counts, start=1):
        word.extend([letter] * c)
    return word


def _next_permutation(a):
    # lexicographic successor in place; False once a is the last (descending) arrangement
    i = len(a) - 2
    while i >= 0 and a[i] >= a[i + 1]:
        i -= 1
    if i < 0:
        return False
    j = len(a) - 1
    while a[j] <= a[i]:
        j -= 1
    a[i], a[j] = a[j], a[i]
    a[i + 1:] = a[:i:-1]
    return True


def fiber_words(counts):
    word = _start_word(counts)
    out = [tuple(word)]
    while _next_permutation(word):
        out.append(tuple(word))
    return out


def fiber_inversions(counts):
    word = _start_word(counts)
    out = [0]
    while _next_permutation(word):
        out.append(inversions(word))
    return out


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
    word = _start_word(counts)
    acc = powers[0]
    while _next_permutation(word):
        acc += powers[inversions(word)]
    return acc
