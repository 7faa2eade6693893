"""Seeded inputs for the cli-mix and fiber-lift workloads.

Everything here draws from its own random.Random and never imports
qdomains, so a change to qdomains.randgen cannot change the inputs along
with the program.  The same seed always gives the same documents and jobs.

Sizes are fixed per request and per job; the seed only chooses
coefficients, supports, parameters and the order of profile entries.  A
pass therefore has the same amount of work on every seed, which keeps the
per-pass figures comparable between runs.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
import os
from random import Random

# Profiles for fiber-lift, |k| from 6 to 9 and n from 2 to 4.  The seed
# permutes the entries; a permutation keeps the fiber size and the
# Mahonian distribution, so the work per job does not depend on the seed.
LIFT_PROFILES = (
    (5, 4),
    (2, 2, 2), (3, 2, 2), (3, 3, 2), (4, 3, 2), (3, 3, 3),
    (2, 2, 1, 1), (2, 2, 2, 1), (2, 2, 2, 2), (3, 2, 2, 2),
)

# Jobs that hit the absolute pruning cutoff in the element constructors
# (every term with |c| <= 1e-12 is dropped, and ball-lift coefficients
# carry |q|^m): the lift loses words, or vanishes.  They do not depend on
# the seed, so they fail the same way in every pass of every run.
KNOWN_FAULT_JOBS = (
    ((3, 3, 3), 0.5),
    ((3, 3, 3), 0.3),
    ((2, 2, 2, 2), 0.3),
)

LIFT_RHO = 0.8
LIFT_ORDER = 3


def unit_disk(rng: Random) -> complex:
    """Uniform point of the closed unit disk (rejection sampling)."""
    while True:
        x = 2.0 * rng.random() - 1.0
        y = 2.0 * rng.random() - 1.0
        if x * x + y * y <= 1.0:
            return complex(x, y)


def _coefficient(rng: Random) -> complex:
    # bounded away from 0 so no input term sits near the pruning cutoff
    c = unit_disk(rng)
    return c if abs(c) >= 0.05 else c + 0.1


def _cdoc(c: complex) -> dict:
    return {"re": c.real, "im": c.imag}


def _multi_indices(n: int, max_total: int) -> list:
    return [k for k in itertools.product(range(max_total + 1), repeat=n)
            if sum(k) <= max_total]


def _words(n: int, max_len: int) -> list:
    out = []
    for d in range(max_len + 1):
        out.extend(itertools.product(range(1, n + 1), repeat=d))
    return out


def qpoly_doc(rng: Random, n: int, q: complex, terms: int, max_degree: int) -> dict:
    keys = rng.sample(_multi_indices(n, max_degree), terms)
    return {"kind": "qpoly", "n": n, "q": _cdoc(q),
            "terms": [{"k": list(k), "c": _cdoc(_coefficient(rng))} for k in keys]}


def free_doc(rng: Random, n: int, terms: int, max_len: int, q: complex | None = None) -> dict:
    keys = rng.sample(_words(n, max_len), terms)
    doc = {"kind": "free", "n": n,
           "terms": [{"alpha": list(a), "c": _cdoc(_coefficient(rng))} for a in keys]}
    if q is not None:
        doc["q"] = _cdoc(q)
    return doc


def laurent_doc(rng: Random, n: int, terms: int, max_degree: int, max_power: int,
                distinct_k: bool = False) -> dict:
    if distinct_k:
        # one z-power per exponent vector: the fiber at q then has exactly
        # `terms` monomials on every seed
        keys = [(k, rng.randint(-max_power, max_power))
                for k in rng.sample(_multi_indices(n, max_degree), terms)]
    else:
        pool = [(k, p) for k in _multi_indices(n, max_degree)
                for p in range(-max_power, max_power + 1)]
        keys = rng.sample(pool, terms)
    return {"kind": "laurent", "n": n,
            "terms": [{"k": list(k), "p": p, "c": _cdoc(_coefficient(rng))} for k, p in keys]}


def hseries_doc(rng: Random, n: int, order: int, terms: int, max_degree: int) -> dict:
    pool = [(p, k) for p in range(order + 1) for k in _multi_indices(n, max_degree)]
    keys = rng.sample(pool, terms)
    return {"kind": "hseries", "n": n, "order": order,
            "terms": [{"p": p, "k": list(k), "c": _cdoc(_coefficient(rng))} for p, k in keys]}


def _q_off_circle(rng: Random, low: float, high: float) -> complex:
    return rng.uniform(low, high) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))


def cli_mix(seed: int, docdir: str) -> list:
    """Write the documents for one cli-mix pass and return its requests.

    Each request is {"name", "argv", "out", "check"}: argv is the argument
    list for qdomains.cli.main, writing to the file out in docdir, and
    check names the output check with its parameters.
    """
    rng = Random(f"cli-mix:{seed}")
    os.makedirs(docdir, exist_ok=True)

    def write(name, doc):
        path = os.path.join(docdir, name + ".json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        return path

    # |q| near 1 keeps q^-sigma moderate for the degree-19 products
    q_mul = _q_off_circle(rng, 0.9, 1.1)
    q_small = _q_off_circle(rng, 0.6, 0.95)
    q_big = _q_off_circle(rng, 1.05, 1.6)
    requests = []

    def add(name, argv, check):
        out = os.path.join(docdir, name + ".out")
        requests.append({"name": name, "argv": argv + ["--out", out], "out": out,
                         "check": check})

    # products: three kinds, operands of 5, 50 and 500 terms
    sizes = ((5, 5), (50, 50), (500, 50))
    for kind in ("qpoly", "free", "laurent"):
        for left, right in sizes:
            if kind == "qpoly":
                a = write(f"mul-{kind}-{left}-a", qpoly_doc(rng, 3, q_mul, left, 13))
                b = write(f"mul-{kind}-{left}-b", qpoly_doc(rng, 3, q_mul, right, 6))
            elif kind == "free":
                a = write(f"mul-{kind}-{left}-a", free_doc(rng, 3, left, 6))
                b = write(f"mul-{kind}-{left}-b", free_doc(rng, 3, right, 4))
            else:
                a = write(f"mul-{kind}-{left}-a", laurent_doc(rng, 3, left, 8, 4))
                b = write(f"mul-{kind}-{left}-b", laurent_doc(rng, 3, right, 4, 4))
            add(f"mul-{kind}-{left}x{right}", ["mul", "--in", a, "--in", b],
                {"type": "mul", "a": a, "b": b})

    # normal ordering of free elements of 50 and 500 terms
    for terms, q in ((50, q_small), (500, q_big)):
        path = write(f"no-{terms}", free_doc(rng, 3, terms, 6, q))
        add(f"normal-order-{terms}", ["normal-order", "--in", path],
            {"type": "normal-order", "in": path})

    # every norm family, on 500-term operands
    qp = write("norm-qpoly", qpoly_doc(rng, 3, q_small, 500, 13))
    fr = write("norm-free", free_doc(rng, 3, 500, 6))
    la = write("norm-laurent", laurent_doc(rng, 3, 500, 8, 4))
    hs = write("norm-hseries", hseries_doc(rng, 3, 4, 500, 8))
    rho = round(rng.uniform(0.5, 0.9), 6)
    tau = round(rng.uniform(1.5, 2.5), 6)
    for family, path, extra in (
            ("polydisk-l1", qp, []), ("polydisk-l2", qp, []), ("ball", qp, []),
            ("classical-ball", qp, []), ("free-taylor", fr, []),
            ("free-polydisk", fr, ["--tau", str(tau)]), ("free-ball-bullet", fr, []),
            ("free-ball-circ", fr, []), ("laurent", la, ["--tau", str(tau)]),
            ("formal", hs, ["--bign", "3"])):
        argv = ["norm", "--in", path, "--family", family, "--rho", str(rho)] + extra
        add(f"norm-{family}", argv,
            {"type": "norm", "in": path, "family": family, "rho": rho,
             "tau": tau if "--tau" in extra else 1.0, "bign": 3 if family == "formal" else 0})

    # truncated star products of order 3 and 4
    for order in (3, 4):
        f = write(f"star-{order}-f", hseries_doc(rng, 3, order, 30, 4))
        g = write(f"star-{order}-g", hseries_doc(rng, 3, order, 30, 4))
        add(f"star-{order}", ["star", "--in", f, "--in", g, "--order", str(order)],
            {"type": "star", "f": f, "g": g, "order": order})

    # operator-norm bounds at truncation degree 8 and 12
    for degree in (8, 12):
        q_real = round(rng.uniform(0.3, 0.8), 6)
        path = write(f"fock-{degree}", qpoly_doc(rng, 3, q_real, 6, 3))
        fock_rho = round(rng.uniform(0.5, 1.0), 6)
        add(f"fock-norm-{degree}",
            ["fock-norm", "--in", path, "--q", str(q_real), "--rho", str(fock_rho),
             "--depth", str(degree)],
            {"type": "fock-norm", "in": path, "q": q_real, "rho": fock_rho})

    # joint spectral radii of the coordinate tuple at unimodular q
    theta = round(rng.uniform(0.1, 3.0), 6)
    q_text = f"{math.cos(theta)!r},{math.sin(theta)!r}"
    for family, p, n in (("polydisk", "2", 3), ("ball", "2", 3),
                         ("polydisk", "1", 4), ("ball", "inf", 2)):
        rrho = round(rng.uniform(0.5, 1.5), 6)
        add(f"radius-{family}-p{p}",
            ["radius", "--family", family, "--rho", str(rrho), "--depth", "8",
             "--p", p, "--n", str(n), f"--q={q_text}"],
            {"type": "radius", "family": family, "p": p, "n": n, "rho": rrho, "depth": 8})

    # fiber-norm scans, 4096 samples on a circle and on a ray
    scan_doc = write("scan", laurent_doc(rng, 3, 50, 5, 3, distinct_k=True))
    radius = round(rng.uniform(0.7, 1.3), 6)
    ray = round(rng.uniform(-3.0, 3.0), 6)
    for path_text, family in ((f"circle:{radius}", "polydisk"), (f"ray:{ray}:0.6:1.6", "ball")):
        srho = round(rng.uniform(0.5, 0.9), 6)
        add(f"scan-{path_text.split(':')[0]}",
            ["scan", "--in", scan_doc, "--path", path_text, "--samples", "4096",
             "--family", family, "--rho", str(srho)],
            {"type": "scan", "in": scan_doc, "path": path_text, "samples": 4096,
             "family": family, "rho": srho})
    return requests


def fiber_lift(seed: int) -> list:
    """Jobs for one fiber-lift pass: the known-fault jobs, then each
    profile at one |q| below 1, one on the unit circle and one above."""
    rng = Random(f"fiber-lift:{seed}")
    jobs = [{"k": list(k), "q": [q, 0.0], "rho": LIFT_RHO, "order": LIFT_ORDER,
             "known_fault": True} for k, q in KNOWN_FAULT_JOBS]
    for profile in LIFT_PROFILES:
        for low, high in ((0.8, 0.95), (1.0, 1.0), (1.05, 1.5)):
            k = list(profile)
            rng.shuffle(k)
            q = _q_off_circle(rng, low, high)
            jobs.append({"k": k, "q": [q.real, q.imag], "rho": LIFT_RHO,
                         "order": LIFT_ORDER, "known_fault": False})
    return jobs


def trivial_doc() -> dict:
    """One-term document for the set-up probe: x1 at q = 0.5, norm 1 at rho 1."""
    return {"kind": "qpoly", "n": 2, "q": {"re": 0.5, "im": 0.0},
            "terms": [{"k": [1, 0], "c": {"re": 1.0, "im": 0.0}}]}
