"""Independent brute-force oracles used to pin expected values.

Each oracle deliberately recomputes its quantity by a different algorithm
than the library path it checks: pair counting vs kernel loops, bubble
sort rewriting vs inversion powers, simplex optimization vs the closed
form, partial derivatives vs the monomial bracket rule, one hand-written
pair loop per product vs the shared twisted-product routine, one
word-at-a-time loop per lift and normal ordering vs the batched word
kernel, one generator letter at a time vs the closed-form Fock columns,
one word, grid pair and profile at a time vs the deformation suites'
shared prefixes, grids and cross-degree table, one multi-index at a time
vs the coordinate radius recursion over partial sums, and json's encoder
over a document built here from the README's layout of each kind vs the
table-driven element-text writer.  The exact_* oracles compute at a
rational q with fractions.Fraction and ints, so they give the true value
that a float route rounds.
"""

import cmath
import decimal
import functools
import itertools
import json
import math
from fractions import Fraction

import numpy as np
from scipy.optimize import minimize

from qdomains import qcombinat as qc
from qdomains.deform_types import HSeriesElement
from qdomains.elements import FreeElement, LaurentElement, QPolynomial, laurent_word
from qdomains.norms import monomial_log_norm, omega
from qdomains.qcombinat import q_int


def brute_inversions(word):
    return sum(1 for i, j in itertools.combinations(range(len(word)), 2)
               if word[i] > word[j])


def brute_fiber(k):
    word = []
    for letter, c in enumerate(k, start=1):
        word.extend([letter] * c)
    return sorted(set(itertools.permutations(word)))


def brute_mahonian_sum(k, q):
    """sum of q**m(alpha) over the brute-force fiber, term by term."""
    return sum(q ** brute_inversions(word) for word in brute_fiber(k))


def rewrite_normal_order(word, q):
    """Bubble-sort rewriting: swap adjacent descents, multiplying by 1/q
    per swap, until sorted.  Returns (coefficient, sorted word)."""
    letters = list(word)
    coeff = 1.0 + 0.0j
    changed = True
    while changed:
        changed = False
        for i in range(len(letters) - 1):
            if letters[i] > letters[i + 1]:
                letters[i], letters[i + 1] = letters[i + 1], letters[i]
                coeff /= q
                changed = True
    return coeff, tuple(letters)


def bubble_swap_count(word):
    letters = list(word)
    swaps = 0
    changed = True
    while changed:
        changed = False
        for i in range(len(letters) - 1):
            if letters[i] > letters[i + 1]:
                letters[i], letters[i + 1] = letters[i + 1], letters[i]
                swaps += 1
                changed = True
    return swaps, tuple(letters)


def simplex_monomial_max(k, r):
    """Numeric sup of |z^k| over sum |z_i|^2 = r^2 via constrained
    optimization of prod t_i^{k_i} on the simplex sum t_i = r^2."""
    support = [m for m in k if m > 0]
    if not support:
        return 1.0
    dim = len(support)
    budget = r * r

    def objective(t):
        return -sum(m * math.log(max(ti, 1e-300)) for m, ti in zip(support, t))

    start = np.full(dim, budget / dim)
    result = minimize(objective, start, method="SLSQP",
                      bounds=[(0.0, budget)] * dim,
                      constraints=[{"type": "eq", "fun": lambda t: t.sum() - budget}],
                      options={"maxiter": 500, "ftol": 1e-14})
    return math.exp(-0.5 * result.fun)


def _comm_mul(a, b):
    out = {}
    for k, ca in a.items():
        for l, cb in b.items():
            key = tuple(x + y for x, y in zip(k, l))
            out[key] = out.get(key, 0.0) + ca * cb
    return out


def _partial(a, i):
    out = {}
    for k, c in a.items():
        if k[i] > 0:
            key = tuple(m - 1 if j == i else m for j, m in enumerate(k))
            out[key] = out.get(key, 0.0) + c * k[i]
    return out


def derivative_poisson_bracket(f, g, n):
    """sum_{i<j} x_i x_j (d_i f d_j g - d_j f d_i g) on coefficient maps."""
    total = {}
    for i in range(n):
        for j in range(i + 1, n):
            xij = tuple(1 if t in (i, j) else 0 for t in range(n))
            part = _comm_mul(_partial(f, i), _partial(g, j))
            for k, c in _comm_mul({xij: 1.0}, part).items():
                total[k] = total.get(k, 0.0) + c
            part = _comm_mul(_partial(f, j), _partial(g, i))
            for k, c in _comm_mul({xij: 1.0}, part).items():
                total[k] = total.get(k, 0.0) - c
    return {k: c for k, c in total.items() if abs(c) > 0.0}


# ---------------------------------------------------------------------------
# reference product loops: one hand-written pair loop per product, each
# returning the raw accumulated coefficient map (before pruning)

def brute_sigma(k, l):
    """sigma(k, l) = sum_{i<j} k_i l_j by pair counting."""
    return sum(k[i] * l[j] for i, j in itertools.combinations(range(len(k)), 2))


def reference_chu_vandermonde_worst(params):
    """Worst (rhs - lhs) / lhs of the Mahonian-ratio supermultiplicativity
    [|k+l|]!/[k+l]! >= ([|k|]!/[k]!)([|l|]!/[l]!) q^{sigma(k,l)}, one
    pair (k, l) at a time, with every product formed in the same order
    as the chu-vandermonde suite."""
    worst = -math.inf
    for q in params["qs"]:
        fact = [1.0]
        for m in range(1, 2 * params["max_total"] + 1):
            fact.append(fact[-1] * q_int(m, q).real)
        for n in range(1, params["max_n"] + 1):
            idxs = [k for k in itertools.product(range(params["max_total"] + 1), repeat=n)
                    if sum(k) <= params["max_total"]]
            prods = {}
            for k in idxs:
                acc = 1.0
                for m in k:
                    acc *= fact[m]
                prods[k] = acc
            for k in idxs:
                fk, dk, sk = prods[k], fact[sum(k)], sum(k)
                for l in idxs:
                    acc = 1.0
                    for km, lm in zip(k, l):
                        acc *= fact[km + lm]
                    lhs = fact[sk + sum(l)] / acc
                    rhs = (dk / fk) * (fact[sum(l)] / prods[l]) * q ** brute_sigma(k, l)
                    worst = max(worst, (rhs - lhs) / lhs)
    return worst


def reference_laurent_word_identity_worst(params):
    """Worst |x_alpha - x^{p(alpha)} z^{-m(alpha)}| over the words of length
    <= max_len, n = 1..3, each x_alpha built by laurent_word from the empty
    word, one word at a time."""
    worst = 0.0
    for n in range(1, 4):
        for d in range(params["max_len"] + 1):
            for alpha in itertools.product(range(1, n + 1), repeat=d):
                built = laurent_word(n, alpha)
                key = (brute_profile(alpha, n), -brute_inversions(alpha))
                for slot in set(built.terms) | {key}:
                    expected = 1.0 if slot == key else 0.0
                    worst = max(worst, abs(built.terms.get(slot, 0.0) - expected))
    return worst


def _clipped_grid(s, p):
    """|omega| on the integer array p for the interval [-s, 0]: 0 inside
    it, else the distance to it."""
    return np.where((p <= 0) & (p + s >= 0), 0, np.minimum(np.abs(p), np.abs(p + s)))


def reference_lemma_8_10_worsts():
    """(worst | |omega(k, p)| - distance of p to [-cross(k), 0] |, worst
    |omega(k+l, p+s-sigma(l,k))| - |omega(k, p)| - |omega(l, s)|) over
    |k|, |l| <= 5, n = 1..3, p, s in [-30, 30]: one left grid per pair
    (k, l), with cross(k) = brute_sigma(k, k)."""
    span = np.arange(-30, 31)
    worst_identity = 0.0
    worst_subadd = -math.inf
    for n in range(1, 4):
        idxs = [k for k in itertools.product(range(6), repeat=n) if sum(k) <= 5]
        for k in idxs:
            s = brute_sigma(k, k)
            for p in range(-30, 31):
                oracle = 0 if -s <= p <= 0 else min(abs(p), abs(p + s))
                worst_identity = max(worst_identity, abs(abs(omega(k, p)) - oracle))
        vecs = {k: _clipped_grid(brute_sigma(k, k), span) for k in idxs}
        for k in idxs:
            for l in idxs:
                ksum = tuple(a + b for a, b in zip(k, l))
                lhs = _clipped_grid(brute_sigma(ksum, ksum),
                                    span[:, None] + span[None, :] - brute_sigma(l, k))
                excess = lhs - vecs[k][:, None] - vecs[l][None, :]
                worst_subadd = max(worst_subadd, float(excess.max()))
    return worst_identity, worst_subadd


def reference_lemma_8_6_worst(params):
    """Worst m(alpha) - cross(p(alpha)) over the words of length <=
    max_len over 4 letters, one word at a time, each profile's cross
    degree brute_sigma(k, k) formed when the profile is first met."""
    n = 4
    worst = -math.inf
    cross = {}
    for d in range(params["max_len"] + 1):
        for alpha in itertools.product(range(1, n + 1), repeat=d):
            k = brute_profile(alpha, n)
            if k not in cross:
                cross[k] = brute_sigma(k, k)
            worst = max(worst, float(brute_inversions(alpha) - cross[k]))
    return worst


def reference_qpoly_mul(a, b, degree_cap=None):
    q = a.q.value
    out = {}
    for k, ck in a.terms.items():
        for l, cl in b.terms.items():
            key = tuple(ki + li for ki, li in zip(k, l))
            if degree_cap is not None and sum(key) > degree_cap:
                continue
            coeff = ck * cl * q ** (-brute_sigma(l, k))
            out[key] = out.get(key, 0.0) + coeff
    return out


def reference_laurent_mul(a, b, degree_cap=None):
    out = {}
    for (k, p), ck in a.terms.items():
        for (l, s), cl in b.terms.items():
            knew = tuple(ki + li for ki, li in zip(k, l))
            if degree_cap is not None and sum(knew) > degree_cap:
                continue
            key = (knew, p + s - brute_sigma(l, k))
            out[key] = out.get(key, 0.0) + ck * cl
    return out


def _phase_taylor(exponent, order):
    # Taylor coefficients of e^{-i*exponent*h} through h^order
    coeffs = [1.0 + 0.0j]
    for j in range(1, order + 1):
        coeffs.append(coeffs[-1] * (-1j * exponent) / j)
    return coeffs


def reference_star_product(f, g, order):
    out = {}
    for (p1, k), a in f.terms.items():
        if p1 > order:
            continue
        for (p2, l), b in g.terms.items():
            if p1 + p2 > order:
                continue
            key_k = tuple(ki + li for ki, li in zip(k, l))
            phases = _phase_taylor(brute_sigma(l, k), order - p1 - p2)
            ab = a * b
            for j, phase in enumerate(phases):
                key = (p1 + p2 + j, key_k)
                out[key] = out.get(key, 0.0) + ab * phase
    return out


def reference_poisson_bracket(f, g):
    out = {}
    for k, a in f.terms.items():
        for l, b in g.terms.items():
            factor = brute_sigma(k, l) - brute_sigma(l, k)
            if factor == 0:
                continue
            key = tuple(ki + li for ki, li in zip(k, l))
            out[key] = out.get(key, 0.0) + a * b * factor
    return out


def reference_defect_terms(f, g, h):
    """The fiber element whose norm is the quantization defect."""
    out = {}
    for k, a in f.terms.items():
        for l, b in g.terms.items():
            s_kl, s_lk = brute_sigma(k, l), brute_sigma(l, k)
            phi = ((cmath.exp(-1j * h * s_lk) - cmath.exp(-1j * h * s_kl)) / h
                   - 1j * (s_kl - s_lk))
            key = tuple(ki + li for ki, li in zip(k, l))
            out[key] = out.get(key, 0.0) + a * b * phi
    return out


# ---------------------------------------------------------------------------
# reference word loops: the per-word statistics loops that the batched word
# kernel replaced, one word at a time through brute_inversions and letter
# counts; each returns the raw coefficient map (before pruning)

def brute_profile(word, n):
    return tuple(word.count(letter) for letter in range(1, n + 1))


def reference_normal_order(f, q):
    q = complex(q)
    out = {}
    for alpha, c in f.terms.items():
        k = brute_profile(alpha, f.n)
        out[k] = out.get(k, 0.0) + c * q ** (-brute_inversions(alpha))
    return out


def reference_circ_norm(f, rho):
    """The free-ball-circ norm: sum over profiles k, in (|k|, k) order, of
    (sum of |c|^2 over the words of profile k)^(1/2) rho^|k|."""
    by_profile = {}
    for alpha, c in f.terms.items():
        k = brute_profile(alpha, f.n)
        by_profile[k] = by_profile.get(k, 0.0) + abs(c) ** 2
    return sum(math.sqrt(by_profile[k]) * rho ** sum(k)
               for k in sorted(by_profile, key=lambda k: (sum(k), k)))


def _exp_taylor(rate, order):
    # Taylor coefficients of e^{rate*h} through h^order
    coeffs = [1.0 + 0.0j]
    for j in range(1, order + 1):
        coeffs.append(coeffs[-1] * rate / j)
    return coeffs


def reference_normal_order_formal(u):
    out = {}
    for (p, alpha), c in u.terms.items():
        k = brute_profile(alpha, u.n)
        for j, phase in enumerate(_exp_taylor(1j * -brute_inversions(alpha), u.order - p)):
            key = (p + j, k)
            out[key] = out.get(key, 0.0) + c * phase
    return out


def reference_polydisk_lift(k, q):
    """{a*: q**m(a*)} for the first word a* of least |q|**m(alpha)."""
    q = complex(q)
    log_modulus = math.log(abs(q))
    best = None
    for alpha in brute_fiber(k):
        m = brute_inversions(alpha)
        if best is None or m * log_modulus < best[0] - 1e-15:
            best = (m * log_modulus, alpha, m)
    return {best[1]: q ** best[2]}


def reference_ball_lift(k, q):
    q = complex(q)
    log_modulus = math.log(abs(q))
    words = brute_fiber(k)
    ms = [brute_inversions(alpha) for alpha in words]
    logs = [-2.0 * m * log_modulus for m in ms]
    shift = max(logs)
    raw = [math.exp(v - shift) for v in logs]
    total = sum(raw)
    return {alpha: (w / total) * q ** m for alpha, m, w in zip(words, ms, raw)}


def reference_formal_ball_lift(k, order):
    words = brute_fiber(k)
    weight = 1.0 / len(words)
    terms = {}
    for alpha in words:
        m = brute_inversions(alpha)
        coeff = complex(weight)
        terms[(0, alpha)] = coeff
        for p in range(1, order + 1):
            coeff = coeff * (1j * m) / p
            terms[(p, alpha)] = coeff
    return terms


def reference_operator_matrix(a, q, rho, degree):
    """The truncated Fock operator of gamma_rho(a) as a dense matrix: rows
    |k| <= degree + deg a, columns |k| <= degree, both in lexicographic
    order.  Each entry is composed one generator letter at a time, the x_n
    letters first; x_j takes e_s to e_{s+e_j} with the factor
    sqrt((1-q^2) [s_j+1]_{q^2}) q^{s_{j+1}+...+s_n}."""
    def indices(top):
        return sorted(k for k in itertools.product(range(top + 1), repeat=a.n)
                      if sum(k) <= top)

    domain = indices(degree)
    codomain = indices(degree + max((sum(m) for m in a.terms), default=0))
    row = {k: i for i, k in enumerate(codomain)}
    mat = np.zeros((len(codomain), len(domain)), dtype=complex)
    for col, k in enumerate(domain):
        for m, c in a.terms.items():
            coeff, current = 1.0, list(k)
            for j in range(a.n - 1, -1, -1):
                for _ in range(m[j]):
                    step = math.sqrt((1.0 - q * q) * q_int(current[j] + 1, q * q).real)
                    coeff *= step * q ** sum(current[j + 1:])
                    current[j] += 1
            mat[row[tuple(current)], col] += c * rho ** sum(m) * coeff
    return mat


def reference_document(e):
    """The README's document of e, one hand-written layout per kind, terms
    in the element's own order."""
    def number(c):
        return {"re": c.real, "im": c.imag}

    items = e.sorted_terms()
    if isinstance(e, QPolynomial):
        return {"kind": "qpoly", "n": e.n, "q": number(e.q.value),
                "terms": [{"k": list(k), "c": number(c)} for k, c in items]}
    if isinstance(e, FreeElement):
        return {"kind": "free", "n": e.n,
                "terms": [{"alpha": list(alpha), "c": number(c)} for alpha, c in items]}
    if isinstance(e, LaurentElement):
        return {"kind": "laurent", "n": e.n,
                "terms": [{"k": list(k), "p": p, "c": number(c)} for (k, p), c in items]}
    if isinstance(e, HSeriesElement):
        return {"kind": "hseries", "n": e.n, "order": e.order,
                "terms": [{"p": p, "k": list(k), "c": number(c)} for (p, k), c in items]}
    raise TypeError(f"no document layout for {type(e).__name__}")


def reference_element_text(e):
    """The CLI's indent-2 element document, through json's own encoder."""
    return json.dumps(reference_document(e), indent=2)


# ---------------------------------------------------------------------------
# q-factorials, the held stores and the random elements

def direct_log_q_int(j, t):
    """log [j]_t with [j]_t summed from scratch, j powers of t, each the one
    before times t."""
    acc = 0.0
    power = 1.0
    for _ in range(j):
        acc += power
        power *= t
    return math.log(acc)


def reference_held_store(sizes, budget):
    """The keys a _held.held store holds, oldest first, after asking for
    the tables of the given (key, size) pairs in turn: a key not held is
    added at the end after dropping the oldest ones while the sizes held
    would pass budget, unless its own size passes budget."""
    held = []
    for key, size in sizes:
        if key in dict(held) or size > budget:
            continue
        while sum(s for _, s in held) + size > budget:
            held.pop(0)
        held.append((key, size))
    return [key for key, _ in held]


def _unit_disk_draw(rng):
    r = math.sqrt(rng.random())
    theta = 2.0 * math.pi * rng.random()
    return complex(r * math.cos(theta), r * math.sin(theta))


def reference_random_terms(rng, pool, terms, power=None):
    """The draws of a randgen generator through randrange: each term takes a
    key from pool, then for the Laurent and h-series kinds an exponent
    power(rng), then a unit-disk coefficient; a repeated key adds up.
    Returns a plain dict of (key, exponent or None) -> coefficient."""
    out = {}
    for _ in range(terms):
        key = pool[rng.randrange(len(pool))]
        p = None if power is None else power(rng)
        out[(key, p)] = out.get((key, p), 0.0) + _unit_disk_draw(rng)
    return out


def _direct_log_q_factorial(m, t):
    total = 0.0
    for j in range(1, m + 1):
        total += direct_log_q_int(j, t)
    return total


def reference_qpoly_norm(a, family, rho):
    """A q-plane norm term by term, in the (|k|, k) order of the terms:
    each monomial's log norm |k| log rho + log weight from scratch, the
    ball weight from q-factorials summed directly at the folded base
    s = min(|q|**2, |q|**-2), with cross(k) log|q| only at |q| < 1.  This
    checks the batching; exact_ball_weight_sq checks the formula."""
    modulus = abs(a.q.value)
    acc = 0.0
    for k in sorted(a.terms, key=lambda k: (sum(k), k)):
        cross = sum(k[i] * k[j] for i in range(len(k)) for j in range(i + 1, len(k)))
        if family == "ball":
            s = modulus * modulus if modulus <= 1.0 else modulus ** -2
            log_w = (0.5 * (sum(_direct_log_q_factorial(m, s) for m in k)
                            - _direct_log_q_factorial(sum(k), s))
                     + cross * min(math.log(modulus), 0.0))
        else:
            log_w = 0.0 if modulus >= 1.0 else cross * math.log(modulus)
        log_norm = sum(k) * math.log(rho) + log_w
        if family == "polydisk-l2":
            acc += abs(a.terms[k]) ** 2 * math.exp(2.0 * log_norm)
        else:
            acc += abs(a.terms[k]) * math.exp(log_norm)
    return math.sqrt(acc) if family == "polydisk-l2" else acc


def total_degree_indices(n, d):
    """The k in Z_+^n with |k| = d, in lexicographic order: the |k| <= d
    table of qcombinat.multi_indices, filtered."""
    return tuple(k for k in qc.multi_indices(n, d) if sum(k) == d)


@functools.cache
def _log_mahonian_sum(k, modulus, p):
    # log of the sum over the fiber of t**m(alpha), t = modulus**-p, from
    # q-factorials summed directly at s = min(t, 1/t), plus cross(k) log t
    # where t > 1; the multinomial at t = 1.  Kept per (k, modulus, p), as
    # every family and rho of a grid reads the same sums
    log_t = -p * math.log(modulus)
    if log_t == 0.0:
        return math.log(qc.fiber_count(k))
    s = math.exp(-abs(log_t))
    return (_direct_log_q_factorial(sum(k), s) - sum(_direct_log_q_factorial(m, s) for m in k)
            + brute_sigma(k, k) * max(log_t, 0.0))


def reference_coordinate_sum(n, family, rho, q, p, d):
    """The depth-d radius estimate of the q-plane coordinate tuple
    (x_1, ..., x_n), summed key by key over the k with |k| = d: the word
    sum grouped by exponent vector, ||x^k||**p times the Mahonian sum over
    the fiber of k at t = |q|**-p, each key's log norm from
    monomial_log_norm on its own; at p = inf the max of ||x^k|| times the
    fiber's largest |q|**-m(alpha), |q|**-cross(k) at |q| < 1, else 1."""
    modulus = abs(q)
    keys = total_degree_indices(n, d)
    logs = [monomial_log_norm(k, family, rho, q) for k in keys]
    if p == math.inf:
        return math.exp(max(log + max(0.0, -brute_sigma(k, k) * math.log(modulus))
                            for k, log in zip(keys, logs)) / d)
    terms = [_log_mahonian_sum(k, modulus, p) + p * log for k, log in zip(keys, logs)]
    top = max(terms)
    return math.exp((top + math.log(sum(math.exp(v - top) for v in terms))) / (p * d))


# ---------------------------------------------------------------------------
# exact weights at rational q

def exact_mahonian_sum(k, t):
    """The sum over the fiber p^{-1}(k) of t**m(alpha), exactly, at a
    rational t: the q-multinomial [|k|]_t! / [k]_t!.  With t = a/b each
    [j]_t is J_j / b**(j-1), J_j = a**(j-1) + a**(j-2) b + ... + b**(j-1)
    in ints, so the sum is the int quotient of the products of the J_j
    over b**cross(k)."""
    t = Fraction(t)
    a, b = t.numerator, t.denominator

    def factorial(m):   # [m]_t! b**(m (m - 1) / 2)
        return math.prod(sum(a ** i * b ** (j - 1 - i) for i in range(j))
                         for j in range(1, m + 1))

    multinomial, rest = divmod(factorial(sum(k)), math.prod(map(factorial, k)))
    assert rest == 0
    return Fraction(multinomial, b ** brute_sigma(k, k))


def exact_ball_weight_sq(k, modulus: Fraction):
    """The squared ball weight ([k]_t! / [|k|]_t!) |q|**(2 cross(k)),
    t = |q|**2, exactly, at a rational |q|: |q|**(2 cross(k)) over the
    Mahonian sum at t, the paper's first form, with no fold."""
    t = Fraction(modulus) ** 2
    return t ** brute_sigma(k, k) / exact_mahonian_sum(k, t)


def exact_log(r):
    """log r for a positive rational r, from 50-digit decimal logarithms of
    its numerator and denominator: exact to far below a float's last bit,
    whatever the size of r, where math.log(float(r)) needs r in the float
    range and rounds r first."""
    r = Fraction(r)
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        return float(decimal.Decimal(r.numerator).ln() - decimal.Decimal(r.denominator).ln())


# ---------------------------------------------------------------------------
# the twisted product's pair loop as the reference of its array route

def on_each_route(monkeypatch, product):
    """(pair-loop result, array-route result, array-route outcomes) of
    product(): the cutoff is raised past every operand for the first call
    and lowered to one pair for the second.  The outcomes list holds, per
    array-route call of the second run, whether it formed the product
    (False where it handed the operands back to the loop)."""
    from qdomains import elements
    cutoff = elements._ARRAY_PAIRS
    monkeypatch.setattr(elements, "_ARRAY_PAIRS", math.inf)
    loop = product()
    monkeypatch.setattr(elements, "_ARRAY_PAIRS", 1)
    outcomes = array_route_outcomes(monkeypatch)
    arrays = product()
    monkeypatch.setattr(elements, "_ARRAY_PAIRS", cutoff)
    return loop, arrays, outcomes


def array_route_outcomes(monkeypatch):
    """A list that records, per later call of the array route, whether it
    formed the product."""
    from qdomains import elements
    outcomes = []
    route = elements._twisted_mul_arrays

    def spy(*args):
        out = route(*args)
        outcomes.append(out is not None)
        return out

    monkeypatch.setattr(elements, "_twisted_mul_arrays", spy)
    return outcomes


def same_bits(got, expected) -> bool:
    """The same element type and parameters, the same keys in the same
    order, and the same repr of every coefficient (so 0.0 and -0.0 differ,
    and NaN matches NaN)."""
    return (type(got) is type(expected) and got.n == expected.n
            and repr(got._params()) == repr(expected._params())
            and list(got.terms) == list(expected.terms)
            and list(map(repr, got.terms.values())) == list(map(repr, expected.terms.values())))
