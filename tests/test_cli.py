import ast
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from oracles import (brute_sigma, exact_ball_weight_sq, exact_log, exact_mahonian_sum,
                     reference_coordinate_sum, reference_element_text)

from qdomains import cli, deform, elements, randgen
from qdomains import qcombinat as qc
from qdomains.elements import (LaurentElement, QPolynomial, fiber_eval, free_mul, laurent_mul,
                               normal_order, qpoly_mul)
from qdomains.norms import NormSpec, norm
from qdomains.serialize import element_to_document, parse_element

QD = [sys.executable, "-m", "qdomains"]


def run(*args, env=None):
    return subprocess.run(QD + list(args), capture_output=True, text=True, env=env)


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def qpoly_doc(tmp_path):
    return write(tmp_path, "a.json", {
        "kind": "qpoly", "n": 2, "q": {"re": 0.5, "im": 0},
        "terms": [{"k": [1, 1], "c": {"re": 1, "im": 0}}]})


def test_norm_example(qpoly_doc):
    result = run("norm", "--in", qpoly_doc, "--family", "polydisk", "--rho", "1")
    assert result.returncode == 0
    assert json.loads(result.stdout)["norm"] == pytest.approx(0.5)


def test_mul_example(qpoly_doc):
    result = run("mul", "--in", qpoly_doc, "--in", qpoly_doc)
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["kind"] == "qpoly"
    # (x1 x2)^2 = q^{-1} x1^2 x2^2
    assert doc["terms"] == [{"k": [2, 2], "c": {"re": 2.0, "im": 0.0}}]


def test_normal_order_uses_document_q(tmp_path):
    doc = write(tmp_path, "f.json", {
        "kind": "free", "n": 2, "q": {"re": 0.5, "im": 0},
        "terms": [{"alpha": [2, 1], "c": {"re": 1, "im": 0}}]})
    result = run("normal-order", "--in", doc)
    assert result.returncode == 0
    parsed = json.loads(result.stdout)
    assert parsed["terms"] == [{"k": [1, 1], "c": {"re": 2.0, "im": 0.0}}]
    override = run("normal-order", "--in", doc, "--q", "2")
    assert json.loads(override.stdout)["terms"][0]["c"]["re"] == pytest.approx(0.5)


def test_normal_order_missing_q_is_usage_error(tmp_path):
    doc = write(tmp_path, "f.json", {
        "kind": "free", "n": 2,
        "terms": [{"alpha": [2, 1], "c": {"re": 1, "im": 0}}]})
    result = run("normal-order", "--in", doc)
    assert result.returncode == 2


def test_radius_example():
    result = run("radius", "--tuple", "coords", "--family", "polydisk", "--rho", "1",
                 "--depth", "6", "--p", "2", "--n", "2",
                 "--q", "0.7071067811865476,0.7071067811865476")
    assert result.returncode == 0
    values = json.loads(result.stdout)["values"]
    assert len(values) == 6
    for value in values:
        assert value == pytest.approx(math.sqrt(2.0), rel=1e-9)


def test_fock_norm(qpoly_doc):
    result = run("fock-norm", "--in", qpoly_doc, "--q", "0.5", "--rho", "1",
                 "--depth", "4")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["vacuum"] == pytest.approx(0.375, rel=1e-10)
    assert payload["lower"] <= payload["upper"] + 1e-12


def test_negative_q_as_separate_argument(tmp_path, qpoly_doc):
    # "--q -0.5,0.8" once exited 2 with "expected one argument"
    free = write(tmp_path, "f.json", {
        "kind": "free", "n": 2,
        "terms": [{"alpha": [2, 1], "c": {"re": 1, "im": 0}},
                  {"alpha": [1, 2, 2], "c": {"re": 0.5, "im": 1}}]})
    commands = (
        (["radius", "--tuple", "coords", "--family", "polydisk", "--rho", "1",
          "--depth", "3", "--p", "2", "--n", "2"], "-0.5,0.8", 0),
        (["normal-order", "--in", free], "-0.5,0.8", 0),
        # parses, then the representation rejects q < 0 as a usage error
        (["fock-norm", "--in", qpoly_doc, "--rho", "1", "--depth", "4"], "-5e-1", 2),
    )
    for argv, q, code in commands:
        spaced = run(*argv, "--q", q)
        joined = run(*argv, f"--q={q}")
        assert spaced.returncode == joined.returncode == code, spaced.stderr
        assert (spaced.stdout, spaced.stderr) == (joined.stdout, joined.stderr)
    assert "0 < q < 1" in spaced.stderr


def test_star(tmp_path):
    f = write(tmp_path, "f.json", {"kind": "hseries", "n": 2, "order": 2,
                                   "terms": [{"p": 0, "k": [0, 1], "c": {"re": 1, "im": 0}}]})
    g = write(tmp_path, "g.json", {"kind": "hseries", "n": 2, "order": 2,
                                   "terms": [{"p": 0, "k": [1, 0], "c": {"re": 1, "im": 0}}]})
    result = run("star", "--in", f, "--in", g, "--order", "2")
    assert result.returncode == 0
    terms = json.loads(result.stdout)["terms"]
    assert {"p": 1, "k": [1, 1], "c": {"re": 0.0, "im": -1.0}} in terms


def test_scan_csv_contract(tmp_path):
    doc = write(tmp_path, "l.json", {
        "kind": "laurent", "n": 2,
        "terms": [{"k": [1, 1], "p": 0, "c": {"re": 1, "im": 0}}]})
    out = tmp_path / "field.csv"
    result = run("scan", "--in", doc, "--path", "circle:0.5", "--samples", "64",
                 "--family", "polydisk", "--rho", "1", "--out", str(out))
    assert result.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "q_re,q_im,norm"
    assert len(lines) == 65
    for line in lines[1:]:
        qre, qim, value = line.split(",")
        assert float(value) == pytest.approx(0.5, rel=1e-12)
    # 17 significant digits requested from the formatter
    assert any(len(line.split(",")[0].replace("-", "").replace(".", "")) >= 16
               for line in lines[1:])


def test_scan_ray_path(tmp_path):
    doc = write(tmp_path, "l.json", {
        "kind": "laurent", "n": 2,
        "terms": [{"k": [1, 1], "p": 0, "c": {"re": 1, "im": 0}}]})
    result = run("scan", "--in", doc, "--path", "ray:0.3:0.5:2.0", "--samples", "16",
                 "--family", "ball", "--rho", "0.5")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert len(payload["rows"]) == 16
    # r_max / r_min = 1e400 leaves the float range, though both radii are finite
    wide = run("scan", "--in", doc, "--path", "ray:0:1e-200:1e200", "--samples", "5",
               "--family", "polydisk-l1", "--rho", "0.5")
    assert wide.returncode == 0, wide.stderr
    rows = json.loads(wide.stdout)["rows"]
    assert len(rows) == 5
    assert all(math.isfinite(value) for row in rows for value in row)
    # on x1 x2 + z x1^2 out to |q| = 1e300, where |q|**2 leaves the float
    # range, each row of either family is the norm of the fiber at its q
    a = LaurentElement(2, {((1, 1), 0): 1.0, ((2, 0), 1): 1.0})
    two_terms = write(tmp_path, "m.json", element_to_document(a))
    for family in ("ball", "polydisk-l1"):
        wide = run("scan", "--in", two_terms, "--path", "ray:0:1e-300:1e300", "--samples", "7",
                   "--family", family, "--rho", "0.5")
        assert wide.returncode == 0, wide.stderr
        rows = json.loads(wide.stdout)["rows"]
        assert len(rows) == 7
        for re, im, value in rows:
            want = norm(fiber_eval(a, complex(re, im)), NormSpec(family, 0.5))
            assert value == pytest.approx(want, rel=1e-15, abs=0.0), (re, value, want)


def test_verify_single_suite_and_json():
    result = run("verify", "stirling-3-4", "--json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["status"] == "pass"
    assert payload["suites"][0]["suite"] == "stirling-3-4"


def test_verify_unknown_suite_exits_two():
    assert run("verify", "no-such").returncode == 2


def test_usage_errors_exit_two(tmp_path, qpoly_doc):
    assert run("norm", "--in", qpoly_doc, "--family", "polydisk",
               "--rho", "-1").returncode == 2
    assert run("mul", "--in", qpoly_doc).returncode == 2
    missing = str(tmp_path / "missing.json")
    assert run("norm", "--in", missing, "--family", "ball", "--rho", "1").returncode == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind":"qpoly","n":2,"terms":[]}')
    assert run("norm", "--in", str(bad), "--family", "ball", "--rho", "1").returncode == 2


def test_verify_fixed_seed_reproducible():
    first = run("verify", "lemma-7-9", "--json")
    second = run("verify", "lemma-7-9", "--json")
    a = json.loads(first.stdout)["suites"][0]
    b = json.loads(second.stdout)["suites"][0]
    assert a["checks"] == b["checks"]


def test_element_outputs_are_reference_text(tmp_path, capsys):
    # stdout and --out both carry the indent-2 document and one "\n"
    rng = Random("cli-element-text")
    q = complex(0.6, -0.3)
    drawn = {
        "qpoly": [randgen.random_qpoly(rng, 3, q, max_degree=6, terms=30) for _ in "ab"],
        "free": [randgen.random_free(rng, 2, max_len=5, terms=30) for _ in "ab"],
        "laurent": [randgen.random_laurent(rng, 2, terms=20) for _ in "ab"],
        "hseries": [randgen.random_hseries(rng, 2, 3, terms=20) for _ in "ab"],
    }
    # the expected results come from the parsed documents, whose terms
    # are in document order, as the CLI's are
    paths, pairs = {}, {}
    for kind, elements in drawn.items():
        paths[kind] = [write(tmp_path, f"{kind}-{i}.json", element_to_document(e))
                       for i, e in enumerate(elements)]
        pairs[kind] = [parse_element(Path(path).read_text()) for path in paths[kind]]
    free_doc = dict(element_to_document(pairs["free"][0]), q={"re": q.real, "im": q.imag})
    free_q = write(tmp_path, "free-q.json", free_doc)
    cases = [
        (["mul", "--in", paths["qpoly"][0], "--in", paths["qpoly"][1]],
         qpoly_mul(*pairs["qpoly"])),
        (["mul", "--in", paths["free"][0], "--in", paths["free"][1]],
         free_mul(*pairs["free"])),
        (["mul", "--in", paths["laurent"][0], "--in", paths["laurent"][1], "--degree-cap", "4"],
         laurent_mul(*pairs["laurent"], degree_cap=4)),
        (["normal-order", "--in", free_q], normal_order(pairs["free"][0], q)),
        (["star", "--in", paths["hseries"][0], "--in", paths["hseries"][1], "--order", "3"],
         deform.star_product(*pairs["hseries"], order=3)),
    ]
    out = tmp_path / "out.json"
    for argv, expected in cases:
        reference = reference_element_text(expected) + "\n"
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == reference
        assert cli.main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == reference.encode("utf-8")


@pytest.mark.parametrize("literal", ["NaN", "1e400", "1" + "0" * 400],
                         ids=["nan", "1e400", "401-digit-int"])
def test_non_finite_input_numbers_exit_two(tmp_path, capsys, literal):
    # NaN was dropped and the rest multiplied with exit 0, 1e400 gave
    # "terms": [] with exit 0, and a 401-digit integer a traceback
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "qpoly", "n": 1, "q": {"re": 0.5},'
                   ' "terms": [{"k": [0], "c": {"re": %s}}, {"k": [1], "c": {"re": 1}}]}'
                   % literal)
    x1 = write(tmp_path, "x1.json", {"kind": "qpoly", "n": 1, "q": {"re": 0.5},
                                     "terms": [{"k": [1], "c": {"re": 1}}]})
    for argv in (["mul", "--in", str(bad), "--in", x1],
                 ["norm", "--in", str(bad), "--family", "polydisk", "--rho", "1"]):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid document: $.terms[0].c.re:" in captured.err


def test_mul_prints_overflowing_terms(tmp_path, capsys):
    # finite inputs whose products overflow: the NaN terms used to be pruned,
    # leaving only the (inf + nan i) term of x1^2
    doc = write(tmp_path, "big.json", {
        "kind": "qpoly", "n": 2, "q": {"re": 0.5, "im": 0},
        "terms": [{"k": [0, 0], "c": {"re": 1e300, "im": 1e300}},
                  {"k": [1, 0], "c": {"re": 1e300, "im": 0}}]})
    assert cli.main(["mul", "--in", doc, "--in", doc]) == 0
    out = capsys.readouterr().out
    a = parse_element(Path(doc).read_text())
    assert out == reference_element_text(qpoly_mul(a, a)) + "\n"
    terms = json.loads(out)["terms"]
    assert [t["k"] for t in terms] == [[0, 0], [1, 0], [2, 0]]
    assert all(math.isnan(t["c"]["im"]) for t in terms)
    assert terms[2]["c"]["re"] == math.inf
    assert '"re": NaN' in out and '"re": Infinity' in out


def test_unwritable_out_exits_two(tmp_path, qpoly_doc, capsys):
    laurent = write(tmp_path, "l.json", {"kind": "laurent", "n": 1,
                                         "terms": [{"k": [1], "p": 0, "c": {"re": 1}}]})
    missing = str(tmp_path / "no-such-dir" / "x.json")
    for argv in (["mul", "--in", qpoly_doc, "--in", qpoly_doc],
                 ["norm", "--in", qpoly_doc, "--family", "polydisk", "--rho", "1"],
                 ["scan", "--in", laurent, "--path", "circle:0.5", "--samples", "4",
                  "--family", "polydisk", "--rho", "1"]):
        assert cli.main(argv + ["--out", missing]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: cannot write {missing}: " in captured.err


@pytest.mark.parametrize("command, value, message", [
    ("norm-tau", "nan", "tau must be finite"),
    ("norm-rho", "inf", "rho must be finite"),
    ("normal-order", "nan", "q must be finite"),
    ("normal-order", "1,inf", "q must be finite"),
    ("scan", "nan", "rho must be finite"),
    ("scan", "inf", "rho must be finite"),
    ("fock-norm", "nan", "rho must be finite"),
])
def test_non_finite_option_numbers_exit_two(tmp_path, qpoly_doc, capsys, command, value,
                                            message):
    # each of these exited 0 and printed NaN or Infinity
    free = write(tmp_path, "f.json", {"kind": "free", "n": 2,
                                      "terms": [{"alpha": [2, 1], "c": {"re": 1}}]})
    laurent = write(tmp_path, "l.json", {"kind": "laurent", "n": 1,
                                         "terms": [{"k": [1], "p": 1, "c": {"re": 1}}]})
    argv = {
        "norm-tau": ["norm", "--in", free, "--family", "free-polydisk", "--rho", "1",
                     "--tau", value],
        "norm-rho": ["norm", "--in", qpoly_doc, "--family", "polydisk", "--rho", value],
        "normal-order": ["normal-order", "--in", free, "--q", value],
        "scan": ["scan", "--in", laurent, "--path", "circle:0.5", "--samples", "4",
                 "--family", "polydisk", "--rho", value],
        "fock-norm": ["fock-norm", "--in", qpoly_doc, "--q", "0.5", "--rho", value,
                      "--depth", "3"],
    }[command]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


def test_fock_norm_depth_is_validated(tmp_path, qpoly_doc, capsys):
    # a negative depth once exited 1 with an IndexError traceback, and a
    # depth whose matrix could not be allocated with a numpy memory error
    q = {"re": 0.5}
    three = write(tmp_path, "three.json", {"kind": "qpoly", "n": 3, "q": q,
                                           "terms": [{"k": [1, 0, 1], "c": {"re": 1}}]})
    line = write(tmp_path, "line.json", {"kind": "qpoly", "n": 1, "q": q,
                                         "terms": [{"k": [1], "c": {"re": 1}}]})
    for doc, depth, message in (
            (qpoly_doc, "-1", "error: truncation degree must be nonnegative"),
            (three, "200", "error: resource limit: 1373701 multi-indices exceed"),
            (line, "1000", "error: resource limit: a 1002 x 1001 operator matrix exceeds")):
        argv = ["fock-norm", "--in", doc, "--q", "0.5", "--rho", "1", "--depth", depth]
        assert cli.main(argv) == 2, depth
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(message), captured.err


@pytest.mark.parametrize("path, samples, message", [
    ("circle:nan", "4", "error: circle radius must be finite and positive"),
    ("circle:inf", "4", "error: circle radius must be finite and positive"),
    ("ray:nan", "4", "error: need a finite theta and 0 < r_min < r_max < inf"),
    ("ray:0.5:0.5:inf", "4", "error: need a finite theta and 0 < r_min < r_max < inf"),
    ("circle:0.5", "0", "error: need 1 to 8 samples, got 0"),
    ("ray:0.5", "-3", "error: need 1 to 8 samples, got -3"),
    ("circle:0.5", "9", "error: need 1 to 8 samples, got 9"),
    ("circle:2", "4", "error: overflow: fiber norm exceeds the float range"),
    ("circle", "4", "error: cannot parse path 'circle'"),
    ("ray:0.5:1", "4", "error: cannot parse path 'ray:0.5:1'"),
])
def test_scan_paths_and_overflow_exit_two(tmp_path, capsys, monkeypatch, path, samples,
                                          message):
    # each of these exited 0, with NaN, infinite or zero norms or no rows
    monkeypatch.setattr(qc, "ENUMERATION_CAP", 8)
    # x z^1100 - x z^1101: at |q| = 2 both powers overflow
    laurent = write(tmp_path, "l.json", {"kind": "laurent", "n": 1, "terms": [
        {"k": [1], "p": 1100, "c": {"re": 1}}, {"k": [1], "p": 1101, "c": {"re": -1}}]})
    assert cli.main(["scan", "--in", laurent, "--path", path, "--samples", samples,
                     "--family", "polydisk", "--rho", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(message), captured.err


def test_norm_overflow_exits_two(tmp_path, capsys):
    # an OverflowError once ended main with a traceback and exit 1
    doc = write(tmp_path, "x.json", {"kind": "qpoly", "n": 1, "q": {"re": 0.5},
                                     "terms": [{"k": [400], "c": {"re": 1}}]})
    assert cli.main(["norm", "--in", doc, "--family", "polydisk", "--rho", "1e300"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: overflow: "), captured.err


_OVERFLOW_KEYS = {"polydisk": ("qpoly", "k", [1, 0], [0, 1]),
                  "ball": ("qpoly", "k", [1, 0], [0, 1]),
                  "free-taylor": ("free", "alpha", [1], [2]),
                  "laurent": ("laurent", "k", [1, 0], [0, 1])}


@pytest.mark.parametrize("family", sorted(_OVERFLOW_KEYS))
@pytest.mark.parametrize("coefficients, rho", [
    ((1e300,), "1e100"),   # |c| rho^|k| overflows in the product
    ((1.5e308, 1.5e308), "1"),   # two finite terms overflow in the sum
])
def test_norm_past_the_float_range_exits_two(tmp_path, capsys, family, coefficients, rho):
    # both once printed the non-JSON token Infinity and exited 0
    kind, field, *keys = _OVERFLOW_KEYS[family]
    terms = [{field: key, "c": {"re": c}} for key, c in zip(keys, coefficients)]
    if kind == "laurent":
        terms = [{**term, "p": 0} for term in terms]
    doc = write(tmp_path, "x.json", {"kind": kind, "n": 2, "terms": terms,
                                     **({"q": {"re": 0.5}} if kind == "qpoly" else {})})
    assert cli.main(["norm", "--in", doc, "--family", family, "--rho", rho]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: overflow: "), captured.err


@pytest.mark.parametrize("value, message", [
    ("0.5,0.1", "error: fock-norm needs a real q, got '0.5,0.1'"),
    ("abc", "error: cannot parse q from 'abc' (use RE or RE,IM)"),
    ("0.5,", "error: cannot parse q from '0.5,' (use RE or RE,IM)"),
])
def test_fock_norm_q_is_parsed_like_the_other_commands(qpoly_doc, capsys, value, message):
    # both exited 2 with a bare "could not convert string to float"
    argv = ["fock-norm", "--in", qpoly_doc, "--rho", "1", "--depth", "3"]
    for spelling in (["--q", value], [f"--q={value}"]):
        assert cli.main(argv + spelling) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.strip() == message
    assert cli.main(argv + ["--q", "0.5,0"]) == 0
    real_part_only = capsys.readouterr().out
    assert cli.main(argv + ["--q", "0.5"]) == 0
    assert capsys.readouterr().out == real_part_only


def test_fock_norm_refuses_a_q_other_than_the_documents(tmp_path, capsys):
    # upper was the norm at the document's q, and lower and vacuum were
    # computed at --q: lower 0.4632 came out above upper 0.2001
    doc = write(tmp_path, "a.json", {"kind": "qpoly", "n": 2, "q": {"re": 0.2},
                                     "terms": [{"k": [1, 1], "c": {"re": 1}},
                                               {"k": [2, 3], "c": {"re": 1}}]})
    argv = ["fock-norm", "--in", doc, "--rho", "1", "--depth", "8"]
    assert cli.main(argv + ["--q", "0.9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.strip() == (
        "error: the element's q = (0.2+0j) is not the representation's q = 0.9")
    assert cli.main(argv + ["--q", "0.2"]) == 0
    bounds = json.loads(capsys.readouterr().out)
    assert bounds["vacuum"] <= bounds["lower"] + 1e-12 <= bounds["upper"] + 2e-12


def test_fock_generator_mutation_reaches_the_lower_bound(tmp_path):
    # lower comes from the closed-form columns alone, so it moves only if the
    # mutation hook sits on their one-letter factor
    doc = write(tmp_path, "a.json", {"kind": "qpoly", "n": 2, "q": {"re": 0.5},
                                     "terms": [{"k": [1, 0], "c": {"re": 1}},
                                               {"k": [0, 2], "c": {"re": 0.5}}]})
    argv = ["fock-norm", "--in", doc, "--q", "0.5", "--rho", "1", "--depth", "4"]
    env = {key: value for key, value in os.environ.items() if key != "QDOMAINS_MUTATE"}
    plain = run(*argv, env=env)
    mutated = run(*argv, env={**env, "QDOMAINS_MUTATE": "fock-generator"})
    assert plain.returncode == mutated.returncode == 0, plain.stderr + mutated.stderr
    lower, bumped = (json.loads(result.stdout)["lower"] for result in (plain, mutated))
    assert abs(bumped / lower - 1.0) > 1e-7


@pytest.mark.parametrize("family, mutation", [("ball", "weight-ball"),
                                               ("polydisk-l1", "weight-polydisk")])
def test_weight_mutations_reach_the_norm(tmp_path, family, mutation):
    # the weight hooks sit on the batch weight route that norm reads, so a
    # mutated weight moves the norm of every element by its relative 1e-6
    doc = write(tmp_path, "a.json", {"kind": "qpoly", "n": 3, "q": {"re": 0.5, "im": 0.2},
                                     "terms": [{"k": [1, 2, 0], "c": {"re": 1}},
                                               {"k": [0, 2, 3], "c": {"re": 0.5, "im": -1}},
                                               {"k": [4, 0, 1], "c": {"re": -2}}]})
    argv = ["norm", "--in", doc, "--family", family, "--rho", "0.8"]
    env = {key: value for key, value in os.environ.items() if key != "QDOMAINS_MUTATE"}
    plain = run(*argv, env=env)
    mutated = run(*argv, env={**env, "QDOMAINS_MUTATE": mutation})
    assert plain.returncode == mutated.returncode == 0, plain.stderr + mutated.stderr
    value, bumped = (json.loads(result.stdout)["norm"] for result in (plain, mutated))
    assert bumped / value - 1.0 == pytest.approx(1e-6, rel=1e-6)


@pytest.mark.parametrize("family, mutation", [("ball", "weight-ball"),
                                               ("polydisk", "weight-polydisk")])
def test_weight_mutations_reach_the_scan(tmp_path, family, mutation):
    # bundle_scan passes each key's log weights through the family's hook,
    # so a mutated weight moves every nonzero row by its relative 1e-6
    terms = [([1, 2, 0], 1, {"re": 1}), ([0, 2, 3], -2, {"re": 0.5, "im": -1}),
             ([4, 0, 1], 0, {"re": -2}), ([0, 0, 0], 3, {"re": 0, "im": 0.3})]
    doc = write(tmp_path, "l.json", {"kind": "laurent", "n": 3, "terms": [
        {"k": k, "p": p, "c": c} for k, p, c in terms]})
    argv = ["scan", "--in", doc, "--path", "ray:0.4:0.5:2.0", "--samples", "16",
            "--family", family, "--rho", "0.8"]
    env = {key: value for key, value in os.environ.items() if key != "QDOMAINS_MUTATE"}
    plain = run(*argv, env=env)
    mutated = run(*argv, env={**env, "QDOMAINS_MUTATE": mutation})
    assert plain.returncode == mutated.returncode == 0, plain.stderr + mutated.stderr
    rows, bumped = (json.loads(result.stdout)["rows"] for result in (plain, mutated))
    assert len(rows) == len(bumped) == 16 and all(row[2] > 0.0 for row in rows)
    for row, moved in zip(rows, bumped):
        assert moved[:2] == row[:2]
        assert moved[2] / row[2] - 1.0 == pytest.approx(1e-6, rel=1e-6)


def _log_sum(logs):
    top = max(logs)
    return top + math.log(sum(math.exp(v - top) for v in logs))


def _exact_log_weight_sq(k, modulus, family):
    """log w(k)**2 of x^k, exactly at the rational |q|, for the ball or a
    polydisk family."""
    if family == "ball":
        return exact_log(exact_ball_weight_sq(k, modulus))
    return exact_log(min(modulus, 1) ** (2 * brute_sigma(k, k)))


@pytest.mark.parametrize("q", [f"1e{sign}{e}" for e in (10, 40, 100, 150, 200, 300)
                               for sign in ("", "-")])
def test_weights_answer_at_a_modulus_far_from_one(tmp_path, capsys, q):
    # every weight reads its table at s = min(t, 1/t), so norm, radius and
    # scan answer wherever the true result is a float, and match the exact
    # oracle at the rational value of the float q; they exit 2 with an
    # overflow only where the true result leaves the float range
    modulus = Fraction(float(q))
    qpoly = write(tmp_path, "a.json", {"kind": "qpoly", "n": 2, "q": {"re": float(q)},
                                       "terms": [{"k": [1, 1], "c": {"re": 1}},
                                                 {"k": [2, 0], "c": {"re": 1}}]})
    laurent = write(tmp_path, "l.json", {"kind": "laurent", "n": 2,
                                         "terms": [{"k": [1, 1], "p": 0, "c": {"re": 1}},
                                                   {"k": [2, 0], "p": 1, "c": {"re": 1}}]})

    def answer(argv, key):
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 0 and captured.err == "", (argv, captured.err)
        return json.loads(captured.out)[key]

    # norm of x1 x2 + x1^2 at rho = 1: w(1, 1) + w(2, 0), or its l2 form
    for family in ("ball", "polydisk-l1", "polydisk-l2"):
        power = 2 if family == "polydisk-l2" else 1
        log_norm = _log_sum([0.5 * power * _exact_log_weight_sq(k, modulus, family)
                             for k in ((1, 1), (2, 0))]) / power
        argv = ["norm", "--in", qpoly, "--family", family, "--rho", "1"]
        assert answer(argv, "norm") == pytest.approx(math.exp(log_norm), rel=1e-14)
        # at rho = 1e160 the true norm is past rho^2 w(2, 0) = 1e320
        assert cli.main(argv[:-1] + ["1e160"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: overflow: "), family
    # scan of x1 x2 + z x1^2 at three radii from |q| on the positive ray:
    # the fiber at q is x1 x2 + q x1^2, of norm w(1, 1) + |q| w(2, 0)
    for family in ("ball", "polydisk-l1"):
        argv = ["scan", "--in", laurent, "--path", f"ray:0:{q}:{10 * float(q)!r}",
                "--samples", "3", "--family", family, "--rho", "1"]
        rows = answer(argv, "rows")
        assert len(rows) == 3 and all(row[1] == 0.0 for row in rows)
        for re, _, value in rows:
            want = _log_sum([0.5 * _exact_log_weight_sq((1, 1), Fraction(re), family),
                             math.log(re)])
            assert value == pytest.approx(math.exp(want), rel=1e-14), (re, value)
    # radius at p = 2, depth <= 3: (sum over |k| = d of the Mahonian sum
    # at |q|^-2 times w(k)^2)^(1/2d)
    for family in ("ball", "polydisk"):
        argv = ["radius", "--family", family, "--rho", "1", "--depth", "3",
                "--p", "2", "--n", "2", "--q", q]
        for d, value in zip((1, 2, 3), answer(argv, "values")):
            logs = [exact_log(exact_mahonian_sum((i, d - i), modulus ** -2))
                    + _exact_log_weight_sq((i, d - i), modulus, family)
                    for i in range(d + 1)]
            assert value == pytest.approx(math.exp(_log_sum(logs) / (2 * d)), rel=1e-14), d


def test_norm_and_scan_answer_where_a_monomial_norm_alone_overflows(tmp_path, capsys):
    # x1 x2 + z x1^2 at q = 1e-300 is x1 x2 + q x1^2; at rho = 1e160 the
    # monomial norm ||x1^2|| = rho^2 = 1e320 leaves the float range, but
    # each term, and the norm (about 2e20), is a float: both norm and scan
    # answer and match the exact oracle at the rational values of the floats.
    # Each term is exp of a sum of logs near +-737, whose rounding (an ulp
    # of 737 is 1.1e-13) bounds the agreement at a few 1e-13.
    a = LaurentElement(2, {((1, 1), 0): 1.0, ((2, 0), 1): 1.0})
    q, rho = 1e-300, 1e160
    log_rho_sq = 2 * exact_log(Fraction(rho))

    def exact(family, modulus):
        power = 2 if family == "polydisk-l2" else 1
        logs = [power * 0.5 * _exact_log_weight_sq((1, 1), modulus, family),
                power * (exact_log(modulus) + 0.5 * _exact_log_weight_sq((2, 0), modulus, family))]
        return math.exp(log_rho_sq + _log_sum(logs) / power)

    for family in ("polydisk-l1", "polydisk-l2", "ball"):
        got = norm(fiber_eval(a, q), NormSpec(family, rho))
        assert 1e20 < got < 3e20
        assert got == pytest.approx(exact(family, Fraction(q)), rel=3e-13), family
    laurent = write(tmp_path, "l.json", {"kind": "laurent", "n": 2,
                                         "terms": [{"k": [1, 1], "p": 0, "c": {"re": 1}},
                                                   {"k": [2, 0], "p": 1, "c": {"re": 1}}]})
    for family in ("polydisk-l1", "ball"):
        argv = ["scan", "--in", laurent, "--path", "ray:0:1e-300:1e-299", "--samples", "3",
                "--family", family, "--rho", "1e160"]
        assert cli.main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = json.loads(captured.out)["rows"]
        assert len(rows) == 3
        for re, im, value in rows:
            assert im == 0.0
            assert value == pytest.approx(exact(family, Fraction(re)), rel=3e-13), (re, value)
            assert value == pytest.approx(norm(fiber_eval(a, re), NormSpec(family, rho)),
                                          rel=1e-15)


def _strict_json(text):
    def refuse(token):
        raise ValueError(f"not valid JSON: {token}")
    return json.loads(text, parse_constant=refuse)


def test_scan_writes_a_diagnostic_past_the_float_range_as_null(tmp_path, capsys):
    # between samples near 1e-300 the slope (about 2e320) leaves the float
    # range; it was printed as the non-JSON token Infinity.  The rows stay,
    # and so does exit 0
    laurent = write(tmp_path, "l.json", {"kind": "laurent", "n": 2,
                                         "terms": [{"k": [1, 1], "p": 0, "c": {"re": 1}},
                                                   {"k": [2, 0], "p": 1, "c": {"re": 1}}]})
    argv = ["scan", "--in", laurent, "--path", "ray:0:1e-300:1e-299", "--samples", "3",
            "--family", "ball", "--rho", "1e160"]
    for out in (None, str(tmp_path / "field.csv")):
        assert cli.main(argv + (["--out", out] if out else [])) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        payload = _strict_json(captured.out)
        diagnostic = payload["diagnostic"]
        assert diagnostic["max_slope"] is None
        assert math.isfinite(diagnostic["max_jump"]) and 0 < diagnostic["spacing"] < 1e-298
        assert payload["rows"] == 3 if out else len(payload["rows"]) == 3
    # a finite slope is still a number
    argv = ["scan", "--in", laurent, "--path", "ray:0:0.5:2", "--samples", "3",
            "--family", "ball", "--rho", "1"]
    assert cli.main(argv) == 0
    assert math.isfinite(_strict_json(capsys.readouterr().out)["diagnostic"]["max_slope"])


def test_radius_answers_two_hundred_coordinates(capsys):
    # the coordinate sum once enumerated the multi-indices of each depth and
    # exited 2 here at the cap (1373701 of them at depth 3); the recursion
    # over partial sums answers every depth
    argv = ["radius", "--family", "polydisk", "--rho", "1", "--depth", "40",
            "--p", "2", "--n", "200", "--q", "0.5"]
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    values = json.loads(captured.out)["values"]
    assert len(values) == 40 and all(map(math.isfinite, values))
    assert values[0] == pytest.approx(reference_coordinate_sum(200, "polydisk-l1", 1.0, 0.5, 2, 1),
                                      rel=1e-13)
    # depth 2 by hand (the oracle's |k| <= 2 table of n = 200 takes seconds):
    # 200 keys 2 e_i of weight 1 and Mahonian sum 1, and C(200, 2) keys
    # e_i + e_j of weight |q| and Mahonian sum 1 + t at t = |q|**-2 = 4
    assert values[1] == pytest.approx((200 + math.comb(200, 2) * 0.25 * 5) ** 0.25, rel=1e-13)


def test_radius_past_the_bound_is_refused_before_building(capsys, monkeypatch):
    # the tuple's n**2 key entries and the n depth**2 steps of the deepest
    # recursion are counted against the cap before the tuple is built
    built = []
    coordinates = QPolynomial.coordinates
    monkeypatch.setattr(QPolynomial, "coordinates",
                        lambda *args: built.append(args) or coordinates(*args))
    for n, depth, count in (("2000", "3", 4018000), ("10", "400", 1600100)):
        argv = ["radius", "--family", "ball", "--rho", "1", "--depth", depth,
                "--p", "2", "--n", n, "--q", "0.5"]
        start = time.perf_counter()
        assert cli.main(argv) == 2
        assert time.perf_counter() - start < 0.1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: resource limit: {n} coordinates to depth {depth} take "
                                f"{count} steps, past the enumeration cap 1000000\n")
    assert built == []


def test_radius_takes_rho_out_of_the_sum(capsys):
    # rho**(p d) is a factor of every summand, taken out before the root:
    # with log rho inside each summand's log, rho = 1e160 once cost 5.0e-14
    # (1.2599210498948102e+160 at depth 3).  The exact value is the float
    # rho times the root of the exact sum of Mahonian sums times squared
    # ball weights at the rational value of the float q
    modulus, rho = Fraction(1e10), 1e160
    argv = ["radius", "--family", "ball", "--rho", "1e160", "--depth", "3",
            "--p", "2", "--n", "2", "--q", "1e10"]
    assert cli.main(argv) == 0
    values = json.loads(capsys.readouterr().out)["values"]
    for d, value in zip((1, 2, 3), values):
        logs = [exact_log(exact_mahonian_sum((i, d - i), modulus ** -2)
                          * exact_ball_weight_sq((i, d - i), modulus)) for i in range(d + 1)]
        assert value == pytest.approx(rho * math.exp(_log_sum(logs) / (2 * d)), rel=1e-14), d


def test_one_parser_serves_every_call(tmp_path, capsys, monkeypatch):
    # main reuses one parser per process: options that one call sets must not
    # reach a later call, after an argparse error either
    qpoly = write(tmp_path, "q.json", {"kind": "qpoly", "n": 2, "q": {"re": 0.5},
                                       "terms": [{"k": [1, 1], "c": {"re": 1}},
                                                 {"k": [2, 0], "c": {"re": 0.5, "im": 1}}]})
    free = write(tmp_path, "f.json", {"kind": "free", "n": 2, "q": {"re": 0.7},
                                      "terms": [{"alpha": [2, 1], "c": {"re": 1}},
                                                {"alpha": [1, 2, 2], "c": {"re": -2}}]})
    laurent = write(tmp_path, "l.json", {"kind": "laurent", "n": 2,
                                         "terms": [{"k": [1, 0], "p": 1, "c": {"re": 1}},
                                                   {"k": [0, 2], "p": -1, "c": {"re": 2}}]})
    hseries = write(tmp_path, "h.json", {"kind": "hseries", "n": 2, "order": 2,
                                         "terms": [{"p": 0, "k": [1, 0], "c": {"re": 1}},
                                                   {"p": 1, "k": [0, 1], "c": {"re": 3}}]})
    out = tmp_path / "out.txt"
    options = [
        ["mul", "--in", qpoly, "--in", qpoly, "--degree-cap", "3"],
        ["normal-order", "--in", free, "--q", "0.3,0.4"],
        ["norm", "--in", free, "--family", "free-polydisk", "--rho", "0.8", "--tau", "2"],
        ["norm", "--in", hseries, "--family", "formal", "--rho", "0.8", "--bign", "2"],
        ["radius", "--tuple", "coords", "--family", "ball", "--rho", "0.9", "--depth", "3",
         "--p", "1", "--n", "2", "--q", "0.6,0.8", "--tau", "1.5"],
        ["fock-norm", "--in", qpoly, "--q", "0.5", "--rho", "0.9", "--depth", "4",
         "--out", str(out)],
        ["star", "--in", hseries, "--in", hseries, "--order", "1"],
        ["scan", "--in", laurent, "--path", "ray:0.5:0.6:1.2", "--samples", "8",
         "--family", "ball", "--rho", "0.7", "--out", str(out)],
        ["verify", "stirling-3-4", "--seed", "7", "--json", "--verbose"],
    ]
    defaults = [
        ["mul", "--in", qpoly, "--in", qpoly],
        ["normal-order", "--in", free],
        ["norm", "--in", free, "--family", "free-polydisk", "--rho", "0.8"],
        ["norm", "--in", hseries, "--family", "formal", "--rho", "0.8"],
        ["radius", "--family", "ball", "--rho", "0.9", "--depth", "3", "--p", "1", "--n", "2"],
        ["fock-norm", "--in", qpoly, "--q", "0.5", "--rho", "0.9", "--depth", "4"],
        ["star", "--in", hseries, "--in", hseries, "--order", "2"],
        ["scan", "--in", laurent, "--path", "circle:0.9", "--family", "polydisk",
         "--rho", "0.7"],
        ["verify", "stirling-3-4"],
    ]
    calls = options + defaults + [["norm", "--in", free, "--family", "nope", "--rho", "1"],
                                  defaults[0]]

    def outcome(argv):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        written = out.read_text() if out.exists() else None
        out.unlink(missing_ok=True)
        # a suite's wall time is the one field that may differ between runs
        text = re.sub(r'("wall_time": )[-+.e0-9]+|\(\d+\.\d\ds\)', r"\1", captured.out)
        return code, text, captured.err, written

    assert cli._parser() is cli._parser()
    reused = [outcome(argv) for argv in calls]
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = [outcome(argv) for argv in calls]
    assert [code for code, *_ in reused] == [0] * (len(calls) - 2) + [2, 0]
    assert "invalid choice: 'nope'" in reused[-2][2]
    for argv, a, b in zip(calls, reused, fresh):
        assert a == b, argv


@pytest.mark.parametrize("degree", [1000, 2200])
def test_ball_norm_of_a_high_degree_monomial(tmp_path, degree):
    # log_q_factorial recursed once per degree, so a fresh process exited 1
    # with a RecursionError here
    doc = write(tmp_path, "deep.json", {"kind": "qpoly", "n": 1, "q": {"re": 0.5},
                                        "terms": [{"k": [degree], "c": {"re": 1}}]})
    result = run("norm", "--in", doc, "--family", "ball", "--rho", "0.9")
    assert result.returncode in (0, 2), result.stderr
    if result.returncode == 0:
        # one variable: the ball weight is 1, so the norm is rho ** degree
        assert json.loads(result.stdout)["norm"] == pytest.approx(0.9 ** degree, rel=1e-9)
    else:
        assert result.stderr.startswith("error: ")


def test_phase_powers_past_the_float_range_exit_2(tmp_path):
    # x2^2 . x1^2 = q^-4 x1^2 x2^2: at q = 1e200 and 1e-200 the true
    # coefficient leaves the float range, and mul exits 2 naming q and the
    # power; x2^4 . x1^2 at q = 1e40 is the subnormal 1e-320
    def doc(name, q, k):
        return write(tmp_path, name, {"kind": "qpoly", "n": 2, "q": {"re": q, "im": 0},
                                      "terms": [{"k": k, "c": {"re": 1, "im": 0}}]})

    for q in (1e200, 1e-200):
        result = run("mul", "--in", doc("a.json", q, [0, 2]), "--in", doc("b.json", q, [2, 0]))
        assert result.returncode == 2
        assert result.stderr.startswith("error: overflow: q**-4 at q = ")
        assert repr(complex(q)) in result.stderr and "Traceback" not in result.stderr
    result = run("mul", "--in", doc("a.json", 1e150, [0, 3]), "--in", doc("b.json", 1e150, [1, 0]))
    assert result.returncode == 2 and "q**-3" in result.stderr
    result = run("mul", "--in", doc("a.json", 1e40, [0, 4]), "--in", doc("b.json", 1e40, [2, 0]))
    assert result.returncode == 0
    assert json.loads(result.stdout)["terms"] == [{"k": [2, 4], "c": {"re": 1e-320, "im": 0.0}}]


# One fresh interpreter: import the package and the CLI, then run each argv
# of sys.argv[1] through cli.main; print, per step, whether numpy is loaded
# after it, and each call's exit code and stdout.
_FRESH_CLI = r"""
import io, json, sys
from contextlib import redirect_stdout
steps = []
import qdomains
steps.append(["import qdomains", "numpy" in sys.modules])
from qdomains import cli
steps.append(["import qdomains.cli", "numpy" in sys.modules])
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    steps.append([argv, "numpy" in sys.modules, code, out.getvalue()])
print(json.dumps(steps))
"""


def _fresh_cli(requests):
    result = subprocess.run([sys.executable, "-c", _FRESH_CLI, json.dumps(requests)],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


# One interpreter on numpy-free requests: put sys.argv[1] first on the path,
# run each argv of sys.argv[2] through cli.main in process, then word_stats
# of a batch read from the fiber record and of one computed off it, then
# seeded draws of the four randgen generators and a scalar multiple, once
# through randgen._draw's one pass over a random.Random and once through
# rng.choice, rng.randint and unit_disk (a subclass takes that route); print
# the exit codes, outputs, statistics and draws (each term's key and value
# by repr, and the generator's next random()), and whether numpy got
# loaded, as one JSON document.
_NUMPY_FREE_CLI = r"""
import io, json, sys
from contextlib import redirect_stdout
from random import Random
sys.path.insert(0, sys.argv[1])
from qdomains import cli, qcombinat as qc, randgen
outputs = []
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    outputs.append([code, out.getvalue()])
words = qc.fiber((2, 1, 2))[0]
outputs.append(qc.word_stats(words[::-3], 3))
outputs.append(qc.word_stats([(3, 1, 2), (1,), (), (2, 2, 1, 3), [3, 3, 1, 2, 1]], 3))
for kind in (Random, type("ByMethods", (Random,), {})):
    rng = kind(20241)
    drawn = [randgen.random_qpoly(rng, 3, 0.5 + 0.25j, terms=8),
             randgen.random_free(rng, 3, max_len=5, terms=8),
             randgen.random_laurent(rng, 2, terms=8),
             randgen.random_hseries(rng, 2, 3, terms=8)]
    drawn.append(drawn[0] * 0.3)
    outputs.append([[[repr(key), repr(c)] for key, c in e.terms.items()] for e in drawn]
                   + [repr(rng.random())])
outputs.append("numpy" in sys.modules)
print(json.dumps(outputs))
"""


def _interpreters():
    """The first python3.X on PATH for each X >= 10, by minor version.  A
    pyenv shims directory stands for the interpreters of the versions it
    serves, since a shim runs only the version pyenv selects."""
    found = {}
    for entry in os.environ.get("PATH", "").split(os.pathsep):
        directory = Path(entry)
        versions = directory.parent / "versions"
        if directory.name == "shims" and versions.is_dir():
            candidates = sorted(versions.glob("*/bin/python3.*"))
        else:
            candidates = sorted(directory.glob("python3.*"))
        for path in candidates:
            match = re.fullmatch(r"python3\.(\d+)", path.name)
            if match and int(match[1]) >= 10 and os.access(path, os.X_OK):
                found.setdefault(int(match[1]), path)
    return found


def test_numpy_free_commands_give_the_same_bytes_on_every_interpreter(tmp_path):
    # pyproject claims Python >= 3.10; below the word-batch cutoffs and 256
    # product pairs no route needs numpy, so each python3.X found runs the
    # same requests as this interpreter and must print the same bytes
    rng = Random("numpy-free-interpreters")
    q = {"re": 0.8, "im": 0.1}

    def doc(name, element, **extra):
        return write(tmp_path, name, dict(element_to_document(element), **extra))

    def twelve_terms(draw):
        # a draw may repeat a key and give fewer terms
        element = draw()
        while len(element.terms) != 12:
            element = draw()
        return element

    free = [twelve_terms(lambda: randgen.random_free(rng, 3, max_len=5, terms=12))
            for _ in "ab"]
    qpoly = [twelve_terms(lambda: randgen.random_qpoly(rng, 3, complex(0.7, 0.2), terms=12))
             for _ in "ab"]
    laurent = [twelve_terms(lambda: randgen.random_laurent(rng, 2, terms=12)) for _ in "ab"]
    assert 12 < min(qc._SCALAR_BATCH, qc._SCALAR_PROFILES)
    fa, fb = doc("fa.json", free[0], q=q), doc("fb.json", free[1], q=q)
    qa, qb = doc("qa.json", qpoly[0]), doc("qb.json", qpoly[1])
    requests = [["norm", "--in", fa, "--family", family, "--rho", "0.7"]
                for family in ("free-taylor", "free-polydisk", "free-ball-bullet",
                               "free-ball-circ")]
    requests += [["norm", "--in", qa, "--family", family, "--rho", "0.9"]
                 for family in ("ball", "polydisk-l1")]
    requests += [
        ["normal-order", "--in", fa],
        ["mul", "--in", qa, "--in", qb],
        ["mul", "--in", fa, "--in", fb],
        ["mul", "--in", doc("la.json", laurent[0]), "--in", doc("lb.json", laurent[1])],
        ["radius", "--family", "ball", "--rho", "1", "--depth", "4", "--p", "2", "--n", "2",
         "--q", "0.6,0.8"],
        ["radius", "--family", "polydisk-l1", "--rho", "0.8", "--depth", "3", "--p", "inf",
         "--n", "3", "--q", "0.5"],
    ]
    src = str(Path(cli.__file__).parents[1])
    found = _interpreters()
    others = {minor: path for minor, path in found.items()
              if not os.path.samefile(path, sys.executable)}
    print("interpreters:", ", ".join(map(str, others.values())))
    assert others, f"no python3.X (X >= 10) on PATH besides {sys.executable}"
    runs = {path: subprocess.Popen([str(path), "-I", "-c", _NUMPY_FREE_CLI, src,
                                    json.dumps(requests)],
                                   stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            for path in [sys.executable, *others.values()]}
    outputs = {path: run.communicate(timeout=60) + (run.returncode,)
               for path, run in runs.items()}
    expected, errors, code = outputs[sys.executable]
    assert code == 0, errors.decode()
    assert [c for c, _ in json.loads(expected)[:len(requests)]] == [0] * len(requests)
    by_draw, by_methods = json.loads(expected)[-3:-1]
    assert by_draw == by_methods and len(by_draw) == 6
    assert json.loads(expected)[-1] is False   # no request loaded numpy
    for path in others.values():
        out, errors, code = outputs[path]
        assert code == 0, (str(path), errors.decode())
        assert out == expected, str(path)


def _module_level_imports(tree):
    """The names a module imports when it is imported: every import
    statement outside a function body (the package imports absolutely)."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))


def test_small_commands_start_without_numpy(tmp_path):
    # numpy is most of the package's import time; only the array modules
    # (deform, fock, suites) load it when imported, and a small request
    # never reaches an array route
    rng = Random("cli-start-up")
    one_term = write(tmp_path, "one.json", {
        "kind": "qpoly", "n": 2, "q": {"re": 0.5, "im": 0},
        "terms": [{"k": [1, 1], "c": {"re": 1, "im": 0}}]})
    five = [write(tmp_path, f"five-{i}.json", element_to_document(
        randgen.random_qpoly(rng, 3, 0.7, max_degree=3, terms=5))) for i in range(2)]
    words = randgen.random_free(rng, 3, max_len=4, terms=19)
    assert len(words.terms) < qc._SCALAR_BATCH
    free = write(tmp_path, "free.json", dict(element_to_document(words), q={"re": 0.8, "im": 0.1}))
    requests = [
        ["norm", "--in", one_term, "--family", "polydisk", "--rho", "1"],
        ["mul", "--in", five[0], "--in", five[1]],
        ["normal-order", "--in", free],
        ["radius", "--family", "ball", "--rho", "1", "--depth", "4", "--p", "2", "--n", "2",
         "--q", "0.6,0.8"],
    ]
    steps = _fresh_cli(requests)
    assert [step[1] for step in steps] == [False] * (2 + len(requests)), steps
    assert [step[2] for step in steps[2:]] == [0] * len(requests)

    # no module but the array modules imports numpy, or an array module,
    # when it is imported
    array_modules = ("numpy", "qdomains.deform", "qdomains.fock", "qdomains.suites")
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        if path.stem in ("deform", "fock", "suites"):
            continue
        loaders = {name for name in _module_level_imports(ast.parse(path.read_text()))
                   if any(name == m or name.startswith(m + ".") for m in array_modules)}
        assert not loaders, (path.name, loaders)


def test_array_routes_give_the_same_bytes_when_they_load_numpy(tmp_path):
    # each array route, first run in an interpreter that has not loaded
    # numpy, against the same call here, where numpy is loaded
    rng = Random("cli-cold-array-routes")
    q = complex(0.9, 0.3)

    def doc(name, element, **extra):
        return write(tmp_path, name, dict(element_to_document(element), **extra))

    qpoly = [randgen.random_qpoly(rng, 3, q, max_degree=5, terms=24) for _ in "ab"]
    laurent = [randgen.random_laurent(rng, 2, max_degree=4, terms=24) for _ in "ab"]
    for a, b in (qpoly, laurent):
        assert len(a.terms) * len(b.terms) >= elements._ARRAY_PAIRS
    batch = randgen.random_free(rng, 3, max_len=5, terms=60)
    assert len(batch.terms) >= max(qc._SCALAR_BATCH, qc._SCALAR_PROFILES)
    hseries = [doc(f"h-{i}.json", randgen.random_hseries(rng, 2, 2, terms=6)) for i in range(2)]
    requests = [
        ["mul", "--in", doc("qa.json", qpoly[0]), "--in", doc("qb.json", qpoly[1])],
        ["mul", "--in", doc("la.json", laurent[0]), "--in", doc("lb.json", laurent[1])],
        ["normal-order", "--in", doc("free.json", batch, q={"re": q.real, "im": q.imag})],
        ["norm", "--in", doc("circ.json", batch), "--family", "free-ball-circ", "--rho", "0.7"],
        ["fock-norm", "--in", doc("fock.json", qpoly[0], q={"re": 0.6}), "--q", "0.6",
         "--rho", "0.8", "--depth", "3"],
        ["star", "--in", hseries[0], "--in", hseries[1], "--order", "2"],
        ["scan", "--in", doc("scan.json", laurent[0]), "--path", "circle:0.8", "--samples", "32",
         "--family", "ball", "--rho", "0.7"],
        ["verify", "chu-vandermonde", "--seed", "1", "--json"],
    ]
    steps = _fresh_cli(requests)
    assert [step[1] for step in steps[:3]] == [False, False, True], steps[:3]
    for argv, _, code, text in steps[2:]:
        sink = io.StringIO()
        with redirect_stdout(sink):
            assert cli.main(argv) == code == 0
        here = sink.getvalue()
        if argv[0] == "verify":   # the suite's wall time is the one field that may differ
            text, here = ([line for line in out.splitlines() if '"wall_time"' not in line]
                          for out in (text, here))
        assert text == here, argv
