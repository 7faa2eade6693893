"""Output checks for the benchmark, computed apart from qdomains.

Nothing here imports qdomains.  Products are recomputed by a separately
coded route (numpy, with sigma(l, k) for all pairs as K U^T L^T over the
exponent rows, U strictly upper triangular), normal ordering by counting the adjacent swaps
of a bubble sort, norms and radii from their closed forms, scans by an
independent fiber evaluation, and the star product against the fiber
product at q = e^{ih} within the Taylor remainder bound.

Each check returns a list of failure messages; an empty list means the
output is correct.
"""

from __future__ import annotations

import cmath
import json
import math

import numpy as np

PRUNE_CUTOFF = 1e-12   # the program drops terms with |c| <= this (absolute)
REL_TOL = 1e-9


# ---------------------------------------------------------------------------
# documents

def cvalue(record) -> complex:
    return complex(record["re"], record.get("im", 0.0))


def terms_of(doc: dict) -> dict:
    """Term map of an element document, keyed as the program keys it."""
    kind = doc["kind"]
    out = {}
    for t in doc["terms"]:
        if kind == "qpoly":
            key = tuple(t["k"])
        elif kind == "free":
            key = tuple(t["alpha"])
        elif kind == "laurent":
            key = (tuple(t["k"]), t["p"])
        else:
            key = (t["p"], tuple(t["k"]))
        out[key] = cvalue(t["c"])
    return out


def compare_terms(got: dict, want: dict, scale: dict, label: str) -> list:
    """Every key agrees to REL_TOL of its scale; a term the program left
    out may only be one at or below the pruning cutoff."""
    bad = []
    for key in set(got) | set(want):
        g = got.get(key, 0.0)
        w = want.get(key, 0.0)
        allowed = REL_TOL * scale.get(key, abs(w)) + 2.0 * PRUNE_CUTOFF
        if abs(g - w) > allowed:
            bad.append(f"{label}: term {key!r} is {g!r}, expected {w!r}")
            if len(bad) >= 3:
                break
    return bad


def _rel_bad(got: float, want: float, label: str, tol: float = REL_TOL) -> list:
    if abs(got - want) <= tol * max(abs(want), 1e-300):
        return []
    return [f"{label}: {got!r}, expected {want!r}"]


# ---------------------------------------------------------------------------
# combinatorics, coded apart from qdomains.qcombinat

def cross_degree(k) -> int:
    total = sum(k)
    return (total * total - sum(m * m for m in k)) // 2


def inversion_count(word) -> int:
    """Adjacent swaps a bubble sort needs to sort the word."""
    w = list(word)
    swaps = 0
    for end in range(len(w) - 1, 0, -1):
        for i in range(end):
            if w[i] > w[i + 1]:
                w[i], w[i + 1] = w[i + 1], w[i]
                swaps += 1
    return swaps


def multinomial(k) -> int:
    out = math.factorial(sum(k))
    for m in k:
        out //= math.factorial(m)
    return out


def log_qfact(m: int, t: float) -> float:
    """log of [m]_t! for real t > 0, as a sum of logs of geometric sums."""
    acc = 0.0
    for j in range(1, m + 1):
        if abs(t - 1.0) < 1e-15:
            acc += math.log(j)
        else:
            acc += math.log((1.0 - t ** j) / (1.0 - t))
    return acc


def qfact(m: int, q: complex) -> complex:
    out = 1.0 + 0.0j
    for j in range(1, m + 1):
        out *= sum(q ** i for i in range(j))
    return out


def weight_polydisk(k, modulus: float) -> float:
    return modulus ** cross_degree(k) if modulus < 1.0 else 1.0


def weight_ball(k, modulus: float) -> float:
    t = modulus * modulus
    log_ratio = sum(log_qfact(m, t) for m in k) - log_qfact(sum(k), t)
    return math.exp(0.5 * log_ratio + cross_degree(k) * math.log(modulus))


def classical_ball_weight(k) -> float:
    return math.sqrt(math.prod(math.factorial(m) for m in k) / math.factorial(sum(k)))


def switch_count(word) -> int:
    if len(word) <= 1:
        return len(word) - 1
    return sum(1 for a, b in zip(word, word[1:]) if a != b)


def omega(k, p: int) -> int:
    """Signed distance from 0 to the integer interval [p, p + cross_degree(k)]."""
    hi = p + cross_degree(k)
    if p >= 0:
        return p
    return 0 if hi >= 0 else hi


# ---------------------------------------------------------------------------
# products

def _accumulate(codes, values, magnitudes):
    uniq, inverse = np.unique(codes, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    re = np.bincount(inverse, weights=values.real, minlength=len(uniq))
    im = np.bincount(inverse, weights=values.imag, minlength=len(uniq))
    mag = np.bincount(inverse, weights=magnitudes, minlength=len(uniq))
    return uniq, re + 1j * im, mag


def _twisted_product(a: dict, b: dict, q: complex | None):
    """x^k z^p x^l z^s = x^{k+l} z^{p+s-sigma(l,k)} (laurent, q None), or
    x^k x^l = q^{-sigma(l,k)} x^{k+l} (q-plane); keys and scales."""
    laurent = q is None
    a_keys = list(a)
    b_keys = list(b)
    if laurent:
        K = np.array([k for k, _ in a_keys], dtype=np.int64)
        L = np.array([l for l, _ in b_keys], dtype=np.int64)
        P = np.array([p for _, p in a_keys], dtype=np.int64)
        S = np.array([s for _, s in b_keys], dtype=np.int64)
    else:
        K = np.array(a_keys, dtype=np.int64)
        L = np.array(b_keys, dtype=np.int64)
    ca = np.array([a[k] for k in a_keys], dtype=complex)
    cb = np.array([b[k] for k in b_keys], dtype=complex)
    sig = _sigma_lk(K, L)
    coeff = ca[:, None] * cb[None, :]
    sums = (K[:, None, :] + L[None, :, :]).reshape(-1, K.shape[1])
    mags = np.abs(coeff)
    if laurent:
        z = (P[:, None] + S[None, :] - sig).reshape(-1, 1)
        codes = np.hstack([sums, z])
        values = coeff.reshape(-1)
    else:
        phase = q ** (-sig.astype(float))
        values = (coeff * phase).reshape(-1)
        mags = mags * np.abs(phase)
        codes = sums
    uniq, vals, scale = _accumulate(codes, values, mags.reshape(-1))
    want, scales = {}, {}
    for row, v, s in zip(uniq.tolist(), vals.tolist(), scale.tolist()):
        key = (tuple(row[:-1]), row[-1]) if laurent else tuple(row)
        want[key] = v
        scales[key] = s
    return want, scales


def _sigma_lk(K: np.ndarray, L: np.ndarray) -> np.ndarray:
    """[i, j] = sigma(L_j, K_i) = sum_{a<b} L_j[a] K_i[b]."""
    n = K.shape[1]
    upper = np.triu(np.ones((n, n), dtype=np.int64), 1)
    return K @ upper.T @ L.T


def check_mul(out_doc: dict, a_doc: dict, b_doc: dict) -> list:
    a, b = terms_of(a_doc), terms_of(b_doc)
    if out_doc.get("kind") != a_doc["kind"]:
        return [f"mul: output kind {out_doc.get('kind')!r}"]
    got = terms_of(out_doc)
    if a_doc["kind"] == "free":
        want, scale = {}, {}
        for alpha, ca in a.items():
            for beta, cb in b.items():
                word = alpha + beta
                want[word] = want.get(word, 0.0) + ca * cb
                scale[word] = scale.get(word, 0.0) + abs(ca * cb)
    elif a_doc["kind"] == "qpoly":
        want, scale = _twisted_product(a, b, cvalue(a_doc["q"]))
    else:
        want, scale = _twisted_product(a, b, None)
    return compare_terms(got, want, scale, "mul")


# ---------------------------------------------------------------------------
# normal ordering: bubble-sort rewriting, x_j x_i = q^{-1} x_i x_j for i < j

def check_normal_order(out_doc: dict, in_doc: dict, q: complex) -> list:
    if out_doc.get("kind") != "qpoly":
        return [f"normal-order: output kind {out_doc.get('kind')!r}"]
    n = in_doc["n"]
    want, scale = {}, {}
    for word, c in terms_of(in_doc).items():
        k = tuple(sum(1 for a in word if a == i) for i in range(1, n + 1))
        value = c * q ** (-inversion_count(word))
        want[k] = want.get(k, 0.0) + value
        scale[k] = scale.get(k, 0.0) + abs(value)
    bad = compare_terms(terms_of(out_doc), want, scale, "normal-order")
    if abs(cvalue(out_doc["q"]) - q) > 1e-15 * abs(q):
        bad.append("normal-order: output carries another q")
    return bad


# ---------------------------------------------------------------------------
# norms from their closed forms

def norm_closed_form(doc: dict, family: str, rho: float, tau: float = 1.0,
                     bign: int = 0) -> float:
    terms = terms_of(doc)
    if family in ("polydisk-l1", "polydisk-l2", "ball", "classical-ball"):
        modulus = abs(cvalue(doc["q"]))
        weights = {
            "polydisk-l1": lambda k: weight_polydisk(k, modulus),
            "polydisk-l2": lambda k: weight_polydisk(k, modulus),
            "ball": lambda k: weight_ball(k, modulus),
            "classical-ball": classical_ball_weight,
        }[family]
        parts = [abs(c) * weights(k) * rho ** sum(k) for k, c in terms.items()]
        if family == "polydisk-l2":
            return math.sqrt(math.fsum(x * x for x in parts))
        return math.fsum(parts)
    if family == "free-taylor":
        return math.fsum(abs(c) * rho ** len(a) for a, c in terms.items())
    if family == "free-polydisk":
        return math.fsum(abs(c) * rho ** len(a) * tau ** (switch_count(a) + 1)
                         for a, c in terms.items())
    if family in ("free-ball-bullet", "free-ball-circ"):
        groups: dict = {}
        for a, c in terms.items():
            key = len(a) if family == "free-ball-bullet" else tuple(sorted(a))
            groups[key] = groups.get(key, 0.0) + abs(c) ** 2
        degree = (lambda g: g) if family == "free-ball-bullet" else len
        return math.fsum(math.sqrt(s) * rho ** degree(g) for g, s in groups.items())
    if family == "laurent":
        return math.fsum(abs(c) * rho ** sum(k) * tau ** abs(omega(k, p))
                         for (k, p), c in terms.items())
    if family == "formal":
        return math.fsum(abs(c) * rho ** sum(k) for (p, k), c in terms.items() if p <= bign)
    raise ValueError(f"no closed form for {family!r}")


def check_norm(out: dict, in_doc: dict, family: str, rho: float, tau: float,
               bign: int) -> list:
    want = norm_closed_form(in_doc, family, rho, tau, bign)
    return _rel_bad(out["norm"], want, f"norm {family}")


# ---------------------------------------------------------------------------
# joint spectral radius of the coordinate tuple at |q| = 1

def radius_closed_form(family: str, p: str, n: int, rho: float, d: int) -> float:
    if p == "inf":
        return rho
    if family == "polydisk":
        return rho * n ** (1.0 / float(p))
    if family == "ball" and p == "2":
        return rho * math.comb(d + n - 1, n - 1) ** (1.0 / (2 * d))
    raise ValueError(f"no closed form for {family} p={p}")


def check_radius(out: dict, family: str, p: str, n: int, rho: float, depth: int) -> list:
    values = out["values"]
    if out["depths"] != list(range(1, depth + 1)) or len(values) != depth:
        return ["radius: wrong depths"]
    bad = []
    for d, v in zip(out["depths"], values):
        bad += _rel_bad(v, radius_closed_form(family, p, n, rho, d), f"radius {family} d={d}")
    return bad


# ---------------------------------------------------------------------------
# operator-norm bounds: vacuum <= lower <= upper, and the two closed forms

def vacuum_closed_form(doc: dict, q: float, rho: float) -> float:
    """||x^k e_0||^2 = [k]_{q^2}! (1-q^2)^{|k|} q^{2 cross(k)}, orthogonal in k."""
    t = q * q
    acc = 0.0
    for k, c in terms_of(doc).items():
        log_sq = (sum(log_qfact(m, t) for m in k) + sum(k) * math.log1p(-t)
                  + 2.0 * cross_degree(k) * math.log(q) + 2.0 * sum(k) * math.log(rho))
        acc += abs(c) ** 2 * math.exp(log_sq)
    return math.sqrt(acc)


def check_fock(out: dict, in_doc: dict, q: float, rho: float) -> list:
    lower, upper, vacuum = out["lower"], out["upper"], out["vacuum"]
    bad = []
    if not vacuum <= lower * (1.0 + REL_TOL):
        bad.append(f"fock-norm: vacuum {vacuum!r} above lower {lower!r}")
    if not lower <= upper * (1.0 + REL_TOL):
        bad.append(f"fock-norm: lower {lower!r} above upper {upper!r}")
    modulus_doc = dict(in_doc, q={"re": q, "im": 0.0})
    bad += _rel_bad(upper, norm_closed_form(modulus_doc, "polydisk-l1", rho), "fock-norm upper")
    bad += _rel_bad(vacuum, vacuum_closed_form(in_doc, q, rho), "fock-norm vacuum")
    return bad


# ---------------------------------------------------------------------------
# scans: an independent fiber evaluation at every sample

def scan_samples(path: str, samples: int) -> np.ndarray:
    parts = path.split(":")
    j = np.arange(samples)
    if parts[0] == "circle":
        return float(parts[1]) * np.exp(2j * np.pi * j / samples)
    theta, r_min, r_max = (float(x) for x in parts[1:4])
    step = (r_max / r_min) ** (1.0 / (samples - 1))
    return r_min * step ** j * np.exp(1j * theta)


def scan_closed_form(doc: dict, family: str, rho: float, qs: np.ndarray) -> np.ndarray:
    by_k: dict = {}
    for (k, p), c in terms_of(doc).items():
        by_k.setdefault(k, []).append((p, c))
    out = np.zeros(len(qs))
    moduli = np.abs(qs)
    for k, entries in by_k.items():
        coeff = sum(c * qs ** p for p, c in entries)
        if family == "ball":
            t = moduli ** 2
            log_w = np.zeros(len(qs))
            for j in range(1, max(k) + 1):
                for m in k:
                    if j <= m:
                        log_w += np.log(_geometric(t, j))
            for j in range(1, sum(k) + 1):
                log_w -= np.log(_geometric(t, j))
            weight = np.exp(0.5 * log_w + cross_degree(k) * np.log(moduli))
        else:
            weight = np.where(moduli < 1.0, moduli ** cross_degree(k), 1.0)
        out += np.where(np.abs(coeff) > PRUNE_CUTOFF, np.abs(coeff), 0.0) * weight * rho ** sum(k)
    return out


def _geometric(t: np.ndarray, j: int) -> np.ndarray:
    # [j]_t = 1 + t + ... + t^{j-1}, summed directly (t may equal 1)
    return sum(t ** i for i in range(j))


def check_scan(csv_text: str, doc: dict, path: str, samples: int, family: str,
               rho: float) -> list:
    lines = csv_text.strip().split("\n")
    if lines[0] != "q_re,q_im,norm" or len(lines) != samples + 1:
        return ["scan: wrong header or row count"]
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    qs = scan_samples(path, samples)
    if np.max(np.abs(rows[:, 0] + 1j * rows[:, 1] - qs)) > 1e-12 * np.max(np.abs(qs)):
        return ["scan: sample points are off the path"]
    want = scan_closed_form(doc, family, rho, qs)
    err = np.abs(rows[:, 2] - want) / np.maximum(want, 1e-300)
    worst = int(np.argmax(err))
    if err[worst] > REL_TOL:
        return [f"scan: sample {worst} norm {rows[worst, 2]!r}, expected {want[worst]!r}"]
    return []


# ---------------------------------------------------------------------------
# star product at small h against the fiber product at q = e^{ih}

STAR_HS = (1e-3, 1e-2)


def check_star(out_doc: dict, f_doc: dict, g_doc: dict, order: int) -> list:
    if out_doc.get("kind") != "hseries" or out_doc.get("order") != order:
        return ["star: wrong kind or order"]
    f, g, star = terms_of(f_doc), terms_of(g_doc), terms_of(out_doc)
    bad = []
    for h in STAR_HS:
        got: dict = {}
        for (p, k), c in star.items():
            got[k] = got.get(k, 0.0) + c * h ** p
        exact: dict = {}
        bound: dict = {}
        for (p1, k), a in f.items():
            for (p2, l), b in g.items():
                key = tuple(x + y for x, y in zip(k, l))
                s = sum(l[i] * k[j] for i in range(len(k)) for j in range(i + 1, len(k)))
                size = abs(a * b) * h ** (p1 + p2)
                exact[key] = exact.get(key, 0.0) + a * b * h ** (p1 + p2) * cmath.exp(-1j * h * s)
                m = order - p1 - p2
                tail = 1.0 if m < 0 else (h * s) ** (m + 1) / math.factorial(m + 1)
                bound[key] = bound.get(key, 0.0) + size * tail + 1e-15 * size
        for key in set(got) | set(exact):
            allowed = bound.get(key, 0.0) + (order + 1) * 2.0 * PRUNE_CUTOFF
            diff = abs(got.get(key, 0.0) - exact.get(key, 0.0))
            if diff > allowed:
                bad.append(f"star h={h}: term {key!r} off by {diff:.3e} > bound {allowed:.3e}")
                break
    return bad


# ---------------------------------------------------------------------------
# fiber-lift jobs

def mahonian_closed_form(k, q: complex) -> complex:
    """[|k|]_q! / [k]_q!, coded apart from qdomains."""
    out = qfact(sum(k), q)
    for m in k:
        out /= qfact(m, q)
    return out


def _monomial_bad(terms: dict, k: tuple, label: str) -> list:
    # the element must be exactly x^k: coefficient 1 at k and nothing else
    for key in set(terms) | {k}:
        want = 1.0 if key == k else 0.0
        if abs(terms.get(key, 0.0) - want) > REL_TOL:
            return [f"{label}: term {key!r} is {terms.get(key, 0.0)!r}, expected {want}"]
    return []


def check_lift_job(job: dict, r: dict) -> list:
    """r holds what the job computed; see workloads.run_lift_job."""
    k = tuple(job["k"])
    q = complex(*job["q"])
    modulus = abs(q)
    rho = job["rho"]
    size = multinomial(k)
    bad = []
    if r["ball_words"] != size:
        bad.append(f"ball_lift keeps {r['ball_words']} of {size} words")
    if r["formal_words"] != size:
        bad.append(f"formal_ball_lift keeps {r['formal_words']} of {size} words at h^0")
    bad += _monomial_bad(r["ball_ordered"], k, "normal_order(ball_lift)")
    bad += _monomial_bad(r["poly_ordered"], k, "normal_order(polydisk_lift)")
    if r["poly_words"] != 1:
        bad.append(f"polydisk_lift has {r['poly_words']} words, expected 1")
    formal = {pk[1]: c for pk, c in r["formal_ordered"].items() if pk[0] == 0}
    extra = [abs(c) for pk, c in r["formal_ordered"].items() if pk[0] != 0]
    bad += _monomial_bad(formal, k, "normal_order_formal h^0")
    if extra and max(extra) > REL_TOL:
        bad.append(f"normal_order_formal: higher orders reach {max(extra):.3e}")
    scale = rho ** sum(k)
    bad += _rel_bad(r["circ"], r["weight_ball"] * scale, "circ norm vs weight_ball")
    bad += _rel_bad(r["taylor"], r["weight_polydisk"] * scale, "Taylor norm vs weight_polydisk")
    bad += _rel_bad(r["circ"], weight_ball(k, modulus) * scale, "circ norm vs closed form")
    bad += _rel_bad(r["taylor"], weight_polydisk(k, modulus) * scale, "Taylor norm vs closed form")
    closed = mahonian_closed_form(k, q)
    for label, value in (("brute", r["inv_brute"]), ("closed", r["inv_closed"])):
        if abs(value - closed) > REL_TOL * abs(closed):
            bad.append(f"inv_distribution {label} {value!r}, expected {closed!r}")
    return bad


# ---------------------------------------------------------------------------
# verify all

def check_verify(returncode: int, stdout: str, seed: int) -> tuple:
    """(suites attempted, suites failed, messages) for one `verify all --json`
    run; every suite checks its lemma by independent routes."""
    try:
        payload = json.loads(stdout)
        suites = payload["suites"]
    except (ValueError, KeyError, TypeError):
        return 0, 0, [f"verify all: exit {returncode}, output is not a report"]
    failed = [s["suite"] for s in suites if s.get("status") != "pass"]
    bad = [f"verify all: suite {name} did not pass" for name in failed]
    if payload.get("seed") != seed:
        bad.append("verify all: report carries another seed")
    if returncode != (1 if failed else 0):
        bad.append(f"verify all: exit {returncode}")
    return len(suites), len(failed), bad
