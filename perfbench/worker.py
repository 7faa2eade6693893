"""The process that makes the program calls for one benchmark run.

    python3 perfbench/worker.py SPEC.json RESULT.json

SPEC names the workload (cli-mix, fiber-lift or verify), the plan file
the parent wrote, the run length and whether to trace.  The worker runs
whole passes over the plan in a closed loop, one call at a time, timing
each program call with nothing else inside the timed region; it checks
every output outside the timed region and writes latencies, failures and
trace aggregates to RESULT.  The parent reads this process's peak RSS.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import time
from contextlib import redirect_stdout

import oracles
import probe
import spans


def _load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# cli-mix: one request is one qdomains.cli.main(argv) call

def check_request(req: dict, text: str) -> list:
    c = req["check"]
    kind = c["type"]
    if kind == "scan":
        return oracles.check_scan(text, _load(c["in"]), c["path"], c["samples"],
                                  c["family"], c["rho"])
    out = json.loads(text)
    if kind == "mul":
        return oracles.check_mul(out, _load(c["a"]), _load(c["b"]))
    if kind == "normal-order":
        doc = _load(c["in"])
        return oracles.check_normal_order(out, doc, oracles.cvalue(doc["q"]))
    if kind == "norm":
        return oracles.check_norm(out, _load(c["in"]), c["family"], c["rho"], c["tau"], c["bign"])
    if kind == "star":
        return oracles.check_star(out, _load(c["f"]), _load(c["g"]), c["order"])
    if kind == "fock-norm":
        return oracles.check_fock(out, _load(c["in"]), c["q"], c["rho"])
    if kind == "radius":
        return oracles.check_radius(out, c["family"], c["p"], c["n"], c["rho"], c["depth"])
    raise ValueError(f"no check for {kind!r}")


class CliMix:
    def __init__(self, plan):
        from qdomains import cli
        self.cli = cli
        self.requests = plan
        self.digests: dict = {}

    def run_one(self, req) -> tuple:
        sink = io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(sink):
            code = self.cli.main(req["argv"])
        elapsed = time.perf_counter() - start
        if code != 0:
            return elapsed, [f"{req['name']}: exit {code}"], 0
        with open(req["out"], "rb") as handle:
            raw = handle.read()
        digest = hashlib.sha256(raw).hexdigest()
        name = req["name"]
        if name not in self.digests:
            bad = check_request(req, raw.decode("utf-8"))
            self.digests[name] = digest if not bad else None
        elif self.digests[name] is None or self.digests[name] != digest:
            bad = [f"{name}: output differs from the checked first pass"]
        else:
            bad = []
        in_bytes = sum(os.path.getsize(a) for a in req["argv"] if a.endswith(".json"))
        return elapsed, [f"{name}: {m}" for m in bad], in_bytes + len(raw)


# ---------------------------------------------------------------------------
# fiber-lift: one job is every lift computation for one (k, q)

class FiberLift:
    def __init__(self, plan):
        from qdomains import deform, elements, norms, qcombinat
        self.deform, self.elements, self.norms, self.qc = deform, elements, norms, qcombinat
        self.requests = plan

    def compute(self, job) -> tuple:
        """(seconds, outputs to check): the timed region holds the program calls only."""
        deform, elements, norms, qc = self.deform, self.elements, self.norms, self.qc
        k = tuple(job["k"])
        q = complex(*job["q"])
        rho = job["rho"]
        start = time.perf_counter()
        ball = elements.ball_lift(k, q)
        poly = elements.polydisk_lift(k, q)
        ball_ordered = elements.normal_order(ball, q)
        poly_ordered = elements.normal_order(poly, q)
        circ = norms.norm(ball, norms.NormSpec(norms.FREE_BALL_CIRC, rho))
        taylor = norms.norm(poly, norms.NormSpec(norms.FREE_TAYLOR, rho))
        w_ball = qc.weight_ball(k, q)
        w_poly = qc.weight_polydisk(k, q)
        formal = deform.formal_ball_lift(k, job["order"])
        formal_ordered = deform.normal_order_formal(formal)
        inv = qc.inv_distribution(k, q)
        elapsed = time.perf_counter() - start
        return elapsed, {
            "ball_words": len(ball.terms), "poly_words": len(poly.terms),
            "ball_ordered": dict(ball_ordered.terms), "poly_ordered": dict(poly_ordered.terms),
            "circ": circ, "taylor": taylor, "weight_ball": w_ball, "weight_polydisk": w_poly,
            "formal_words": sum(1 for p, _ in formal.terms if p == 0),
            "formal_ordered": dict(formal_ordered.terms),
            "inv_brute": inv.brute, "inv_closed": inv.closed,
        }

    def run_one(self, job) -> tuple:
        elapsed, result = self.compute(job)
        bad = oracles.check_lift_job(job, result)
        label = f"k={tuple(job['k'])} q={complex(*job['q']):.4g}"
        return elapsed, [f"{label}: {m}" for m in bad], oracles.multinomial(job["k"])


# ---------------------------------------------------------------------------

def run_passes(runner, seconds: float, tracing: bool):
    """Whole passes until the next one would end after `seconds`; at least one.

    Each row is [index, seconds, failures, work, ref]: ref is the mean of
    the reference probes run just before and just after the operation.
    Traced, exactly one untraced pass and then one traced pass, so the
    per-layer counts are per pass and the two passes do the same work.
    """
    passes = []
    start = time.perf_counter()

    def one_pass(traced):
        pass_start = time.perf_counter()
        rows = []
        before = probe.reference_seconds()
        for index, req in enumerate(runner.requests):
            elapsed, bad, work = runner.run_one(req)
            after = probe.reference_seconds()
            rows.append([index, elapsed, bad, work, 0.5 * (before + after)])
            before = after
        passes.append({"traced": traced, "rows": rows,
                       "wall": time.perf_counter() - pass_start})

    one_pass(False)
    if tracing:
        tracer = spans.Tracer()
        spans.install(tracer)
        one_pass(True)
        return passes, tracer
    while time.perf_counter() - start + passes[-1]["wall"] <= seconds:
        one_pass(False)
    return passes, None


def main(spec_path: str, result_path: str) -> int:
    spec = _load(spec_path)
    if spec["workload"] == "verify":
        return run_verify(spec, result_path)
    plan = _load(spec["plan"])
    runner = {"cli-mix": CliMix, "fiber-lift": FiberLift}[spec["workload"]](plan)
    passes, tracer = run_passes(runner, spec["seconds"], bool(spec["trace"]))
    result = {"passes": passes, "trace": tracer.dump() if tracer else None}
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


def run_verify(spec: dict, result_path: str) -> int:
    """`qdomains verify all --json --seed S` in this fresh process, with the
    suites timed one by one between reference probes (and traced on request)."""
    from qdomains import cli, suites
    tracer = None
    if spec["trace"]:
        tracer = spans.Tracer()
        spans.install(tracer)
    rows = []
    probe_total = [0.0]
    before = [probe.reference_seconds()]
    run_suite = suites.run_suite

    def timed_suite(name, *args, **kwargs):
        start = time.perf_counter()
        report = run_suite(name, *args, **kwargs)
        elapsed = time.perf_counter() - start
        after = probe.reference_seconds()
        probe_total[0] += after
        rows.append([name, elapsed, 0.5 * (before[0] + after)])
        before[0] = after
        return report

    suites.run_suite = timed_suite
    sink = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(sink):
        code = cli.main(["verify", "all", "--json", "--seed", str(spec["seed"])])
    main_s = time.perf_counter() - start - probe_total[0]
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump({"code": code, "stdout": sink.getvalue(), "suites": rows, "main_s": main_s,
                   "trace": tracer.dump() if tracer else None}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
