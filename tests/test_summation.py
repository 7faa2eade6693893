"""Reported numbers do not depend on the interpreter's builtin sum.

Python 3.12 made builtin sum compensate float sums (Neumaier); 3.10 and
3.11 fold them left to right.  Every float sum that reaches a report is
math.fsum, so verify and norm print the same bits under either sum.
oracles.neumaier_sum stands in for 3.12's sum under any interpreter.
"""

import json
import math
import sys
from random import Random

import pytest
from oracles import neumaier_sum

import qdomains
from qdomains import cli, randgen
from qdomains.elements import FreeElement, LaurentElement, QPolynomial
from qdomains.deform_types import HSeriesElement
from qdomains.norms import FAMILY_TYPES
from qdomains.serialize import element_text


@pytest.mark.parametrize("items, start, expected", [
    ([1e16, 1.0, -1e16], 0, 1.0),   # a left fold gives 0.0
    ([0.1] * 10, 0, 1.0),   # a left fold gives 0.9999999999999999
    ([1, 2, 3], 10, 16),   # the int phase stays exact and int
    ([True, True, 1], 0, 3),
    ([1, 2.5, 1e16, 1.0, -1e16], 1, 5.5),   # int start, then the float phase
    ([1e16, 1.0, -1e16], -0.0, 1.0),
    ([-0.0], -0.0, -0.0),   # a zero compensation is not added, so the sign stays
    ([1e16, math.inf, 1.0], 0, math.inf),   # a NaN compensation is not added
    ([1e308, 1e308], 0, math.inf),
    ([1e16, 1.0, -1e16, 1j], 0, 1 + 1j),   # the compensation is added before the complex item
    ([1e16 + 0j, 1.0, -1e16], 0, 0j),   # complex items fold left
    ([2 ** 63 - 1, 1, -2 ** 63, 1e16, 1.0, -1e16], 0, 0.0),   # past a C long: plain +
])
def test_neumaier_sum_follows_python_3_12(items, start, expected):
    got = neumaier_sum(items, start)
    assert type(got) is type(expected) and repr(got) == repr(expected), (items, got)
    assert neumaier_sum(iter(items), start) == got


def _held_memos():
    """Every _held.held memo of the loaded qdomains modules, once each."""
    memos = {}
    for name, module in list(sys.modules.items()):
        if name == "qdomains" or name.startswith("qdomains."):
            for value in vars(module).values():
                if all(hasattr(value, attr) for attr in ("store", "total", "budget", "size")):
                    memos[id(value)] = value
    return list(memos.values())


def _under_neumaier_sum(monkeypatch):
    """Bind neumaier_sum as sum in every loaded qdomains module, and empty
    every held store, so that no table built under one sum is read under
    the other."""
    for name, module in list(sys.modules.items()):
        if name == "qdomains" or name.startswith("qdomains."):
            monkeypatch.setattr(module, "sum", neumaier_sum, raising=False)
    for memo in _held_memos():
        monkeypatch.setattr(memo, "store", {})
        monkeypatch.setattr(memo, "total", 0)


def _wide(element, rng):
    """element with each coefficient scaled by 10**u, u uniform in [-9, 9]."""
    terms = {key: c * 10.0 ** rng.uniform(-9.0, 9.0) for key, c in element.terms.items()}
    return type(element)(element.n, *element._params(), terms)


def _wide_documents(tmp_path):
    rng = Random("wide-summation")
    elements = {
        QPolynomial: randgen.random_qpoly(rng, 3, 0.7 + 0.3j, max_degree=6, terms=60),
        FreeElement: randgen.random_free(rng, 2, max_len=7, terms=60),
        LaurentElement: randgen.random_laurent(rng, 2, max_degree=5, terms=60),
        HSeriesElement: randgen.random_hseries(rng, 2, 3, max_degree=5, terms=60),
    }
    paths = {}
    for cls, element in elements.items():
        path = tmp_path / f"{cls.__name__}.json"
        path.write_text(element_text(_wide(element, rng)))
        paths[cls] = str(path)
    return paths


def _cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 0 and captured.err == "", (argv, captured.err)
    return captured.out


def _reports(tmp_path, capsys):
    """verify all at seed 1234 as --json without its wall_time lines, and
    the norm output of every family on one wide-magnitude document."""
    verify = _cli(["verify", "all", "--seed", "1234", "--json"], capsys)
    lines = [line for line in verify.splitlines() if '"wall_time"' not in line]
    assert json.loads(verify)["status"] == "pass"
    paths = _wide_documents(tmp_path)
    norms = {family: _cli(["norm", "--in", paths[cls], "--family", family, "--rho", "0.9",
                           "--tau", "1.5", "--bign", "2"], capsys)
             for family, cls in sorted(FAMILY_TYPES.items())}
    return lines, norms


def test_reports_do_not_depend_on_the_interpreter_sum(tmp_path, capsys, monkeypatch):
    lines, norms = _reports(tmp_path, capsys)
    _under_neumaier_sum(monkeypatch)
    assert qdomains.norms.sum is neumaier_sum
    compensated_lines, compensated_norms = _reports(tmp_path, capsys)
    assert len(compensated_lines) == len(lines)
    moved = [(old, new) for old, new in zip(lines, compensated_lines) if old != new]
    moved += [(norms[family], compensated_norms[family]) for family in norms
              if compensated_norms[family] != norms[family]]
    assert not moved, moved
