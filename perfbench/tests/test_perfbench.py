"""Tests for the benchmark's own output checks.

    python3 -m pytest perfbench/tests -q

The hand cases show that each check accepts the program's answer and
rejects a wrong one.  The mutation cases run one short pass of a workload
with a formula of the program perturbed by 1e-6 (QDOMAINS_MUTATE) and
expect the benchmark to count failed operations and refuse its timings.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import inputs  # noqa: E402
import oracles  # noqa: E402
import worker  # noqa: E402
from qdomains import cli  # noqa: E402


def _cdoc(c):
    return {"re": complex(c).real, "im": complex(c).imag}


def _qpoly(terms, q, n=2):
    return {"kind": "qpoly", "n": n, "q": _cdoc(q),
            "terms": [{"k": list(k), "c": _cdoc(c)} for k, c in terms.items()]}


def _run_cli(tmp_path, argv):
    out = tmp_path / "out.json"
    assert cli.main(argv + ["--out", str(out)]) == 0
    return out.read_text()


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# hand cases

def test_x2_x1_is_q_inverse_x1_x2(tmp_path):
    q = 0.5
    x1 = _qpoly({(1, 0): 1.0}, q)
    x2 = _qpoly({(0, 1): 1.0}, q)
    out = json.loads(_run_cli(tmp_path, ["mul", "--in", _write(tmp_path, "x2", x2),
                                         "--in", _write(tmp_path, "x1", x1)]))
    assert oracles.terms_of(out) == {(1, 1): 2.0}
    assert oracles.check_mul(out, x2, x1) == []
    for wrong in ({(1, 1): 1.0}, {(1, 1): 0.5}, {(1, 1): 2.0, (2, 0): 1e-6}):
        assert oracles.check_mul(_qpoly(wrong, q), x2, x1)


def test_product_checks_reject_a_perturbed_term(tmp_path):
    for request in inputs.cli_mix(7, str(tmp_path / "docs")):
        if request["check"]["type"] != "mul" or "500" in request["name"]:
            continue
        c = request["check"]
        a, b = json.load(open(c["a"])), json.load(open(c["b"]))
        out = json.loads(_run_cli(tmp_path, request["argv"][:-2]))
        assert oracles.check_mul(out, a, b) == [], request["name"]
        out["terms"][0]["c"]["re"] *= 1.0 + 1e-6
        assert oracles.check_mul(out, a, b), request["name"]


def test_normal_order_is_bubble_sort_rewriting(tmp_path):
    q = 0.5 + 0.25j
    word = {"kind": "free", "n": 2, "q": _cdoc(q),
            "terms": [{"alpha": [2, 1], "c": _cdoc(1.0)}, {"alpha": [2, 2, 1], "c": _cdoc(3.0)}]}
    out = json.loads(_run_cli(tmp_path, ["normal-order", "--in", _write(tmp_path, "w", word)]))
    want = {(1, 1): 1 / q, (1, 2): 3.0 / q ** 2}
    got = oracles.terms_of(out)
    assert all(abs(got[k] - v) < 1e-15 for k, v in want.items()) and set(got) == set(want)
    assert oracles.check_normal_order(out, word, q) == []
    out["terms"][1]["c"]["im"] += 1e-6
    assert oracles.check_normal_order(out, word, q)


def test_norm_checks_reject_a_relative_error_of_1e6(tmp_path):
    for request in inputs.cli_mix(8, str(tmp_path / "docs")):
        c = request["check"]
        if c["type"] != "norm":
            continue
        out = json.loads(_run_cli(tmp_path, request["argv"][:-2]))
        doc = json.load(open(c["in"]))
        args = (doc, c["family"], c["rho"], c["tau"], c["bign"])
        assert oracles.check_norm(out, *args) == [], c["family"]
        out["norm"] *= 1.0 + 1e-6
        assert oracles.check_norm(out, *args), c["family"]


def test_radius_fock_scan_and_star_checks(tmp_path):
    seen = set()
    for request in inputs.cli_mix(9, str(tmp_path / "docs")):
        c = request["check"]
        if c["type"] not in ("radius", "fock-norm", "scan", "star") or c["type"] in seen:
            continue
        seen.add(c["type"])
        text = _run_cli(tmp_path, request["argv"][:-2])
        if c["type"] == "scan":
            doc = json.load(open(c["in"]))
            args = (doc, c["path"], c["samples"], c["family"], c["rho"])
            assert oracles.check_scan(text, *args) == []
            lines = text.splitlines()
            re_, im_, value = lines[5].split(",")
            lines[5] = f"{re_},{im_},{float(value) * (1 + 1e-6)!r}"
            assert oracles.check_scan("\n".join(lines), *args)
            continue
        out = json.loads(text)
        if c["type"] == "radius":
            args = (c["family"], c["p"], c["n"], c["rho"], c["depth"])
            assert oracles.check_radius(out, *args) == []
            out["values"][3] *= 1.0 + 1e-6
            assert oracles.check_radius(out, *args)
        elif c["type"] == "fock-norm":
            doc = json.load(open(c["in"]))
            assert oracles.check_fock(out, doc, c["q"], c["rho"]) == []
            swapped = dict(out, lower=out["upper"] * 1.01)
            assert oracles.check_fock(swapped, doc, c["q"], c["rho"])
            assert oracles.check_fock(dict(out, vacuum=out["vacuum"] * (1 + 1e-6)),
                                      doc, c["q"], c["rho"])
        else:
            f, g = json.load(open(c["f"])), json.load(open(c["g"]))
            assert oracles.check_star(out, f, g, c["order"]) == []
            out["terms"][0]["c"]["re"] += 1e-6 * math.hypot(
                out["terms"][0]["c"]["re"], out["terms"][0]["c"]["im"])
            assert oracles.check_star(out, f, g, c["order"])
    assert seen == {"radius", "fock-norm", "scan", "star"}


def _lift_result(k, q):
    job = {"k": list(k), "q": [complex(q).real, complex(q).imag], "rho": 0.8, "order": 3}
    return job, worker.FiberLift([]).compute(job)[1]


def test_lift_check_accepts_good_jobs_and_rejects_the_known_fault():
    job, result = _lift_result((2, 1, 2), 0.9 * cmath.exp(1j))
    assert oracles.check_lift_job(job, result) == []
    for key, wrong in (("ball_words", 29), ("circ", result["circ"] * (1 + 1e-6)),
                       ("inv_brute", result["inv_brute"] * (1 + 1e-6))):
        assert oracles.check_lift_job(job, dict(result, **{key: wrong})), key
    for k, q in inputs.KNOWN_FAULT_JOBS:
        assert any("ball_lift keeps" in m for m in oracles.check_lift_job(*_lift_result(k, q)))


def test_verify_check_counts_failed_suites():
    report = {"seed": 5, "suites": [{"suite": "a", "status": "pass", "wall_time": 0.1},
                                    {"suite": "b", "status": "fail", "wall_time": 0.2}]}
    attempted, failed, bad = oracles.check_verify(1, json.dumps(report), 5)
    assert (attempted, failed) == (2, 1) and bad
    assert oracles.check_verify(0, json.dumps(report), 5)[2]
    assert oracles.check_verify(0, "Traceback", 5)[2]


def test_inputs_depend_only_on_the_seed(tmp_path):
    a = inputs.cli_mix(3, str(tmp_path / "a"))
    b = inputs.cli_mix(3, str(tmp_path / "b"))
    for ra, rb in zip(a, b):
        assert ra["name"] == rb["name"]
        for pa, pb in zip(ra["argv"], rb["argv"]):
            if pa.endswith(".json"):
                assert open(pa).read() == open(pb).read()
    assert inputs.fiber_lift(3) == inputs.fiber_lift(3) != inputs.fiber_lift(4)


# ---------------------------------------------------------------------------
# mutation points: a short pass must count failures and refuse timings

def _bench(workload, mutation):
    env = dict(os.environ, QDOMAINS_MUTATE=mutation)
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, env=env, cwd=ROOT, timeout=170)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return proc.returncode, result


@pytest.mark.parametrize("workload,mutation,baseline", [
    ("cli-mix", "star-phase", 0),
    ("cli-mix", "fock-generator", 0),
    ("cli-mix", "omega", 0),
    ("fiber-lift", "weight-ball", len(inputs.KNOWN_FAULT_JOBS)),
    ("verify-all", "weight-ball", 0),
])
def test_mutation_is_counted_as_failed(workload, mutation, baseline):
    code, result = _bench(workload, mutation)
    assert code == 3
    assert result["metrics"] == {}
    assert result["failed"] > baseline
