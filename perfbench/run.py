"""End-to-end benchmark for qdomains.

    python3 perfbench/run.py --workload verify-all|cli-mix|fiber-lift \
        --seed N --seconds S --trace 0|1

Run from the repository root (the package is imported from ./src).  The
output starts with a header (kernel, versions, nproc, seed, revision and
the QDOMAINS_* switches), then human-readable lines with the per-workload
figures, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.

Workloads (closed loop, one client, one call at a time):
  verify-all  `qdomains verify all --json --seed S` in a fresh process;
              one operation is one suite, 25 per pass.
  cli-mix     requests through qdomains.cli.main(argv) in one worker
              process, on documents written from the seed; one operation
              is one request, 31 per pass.
  fiber-lift  every lift computation for one (k, q) in one worker
              process; one operation is one job, 33 per pass, three of
              which hit the known pruning fault and fail in every pass.

Timings are refused while QDOMAINS_MUTATE is set: the run still checks
every output and reports the failures, prints no metrics and exits 3.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(HERE, "_work")

sys.path.insert(0, HERE)
import inputs  # noqa: E402
import oracles  # noqa: E402

WORKLOADS = ("verify-all", "cli-mix", "fiber-lift")
SETUP_SAMPLES = 5   # before the workload, and as many again after it
SUITES_PER_PASS = 25
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_ref": "ref",
    "latency_p50_ref": "ref",
}

# per-layer metrics every workload reports: counts, and the self times of
# the layers all three workloads pass through.  The self times of layers
# only some workloads enter would read exactly 0 on every run of the
# others; they are printed on the readable lines of a traced run instead.
PER_LAYER = {
    "trace.overhead_pct": "%",
    "kernels.calls": "count",
    "kernels.self_s": "s",
    "kernels.fiber_words": "count",
    "qcombinat.calls": "count",
    "qcombinat.self_s": "s",
    "qcombinat.sigma.calls": "count",
    "elements.self_s": "s",
    "elements.init.calls": "count",
    "elements.init.self_s": "s",
    "elements.pruned_terms": "count",
    "elements.mul.calls": "count",
    "elements.mul.terms_in": "count",
    "elements.mul.terms_out": "count",
    "elements.normal_order.calls": "count",
    "elements.normal_order.self_s": "s",
    "elements.lift.calls": "count",
    "deform_types.init.calls": "count",
    "deform_types.init.self_s": "s",
    "deform.star.calls": "count",
    "deform.formal_lift.calls": "count",
    "deform.scan.samples": "count",
    "norms.calls": "count",
    "norms.self_s": "s",
    "spectral.calls": "count",
    "fock.calls": "count",
    "fock.matrix_entries": "count",
    "serialize.calls": "count",
    "serialize.bytes": "count",
    "randgen.calls": "count",
    "cli.calls": "count",
}

# counters the tracer or the benchmark keeps outside the span table
COUNTED = ("kernels.fiber_words", "elements.pruned_terms", "elements.mul.terms_in",
           "elements.mul.terms_out", "deform.scan.samples", "fock.matrix_entries",
           "serialize.bytes")


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# processes

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # without the bytecode cache every set-up sample would recompile the package
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(argv: list, workdir: str, tag: str) -> tuple:
    """Run one process to its end; (exit code, stdout, stderr, wall s, peak RSS MB)."""
    out_path = os.path.join(workdir, f"{tag}.stdout")
    err_path = os.path.join(workdir, f"{tag}.stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                env=child_env(), cwd=ROOT)
        try:
            status, usage = _wait4(proc.pid, CHILD_TIMEOUT_S)
        except BenchError:
            proc.kill()
            os.waitpid(proc.pid, 0)
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as handle:
        stdout = handle.read()
    with open(err_path, encoding="utf-8", errors="replace") as handle:
        stderr = handle.read()
    return proc.returncode, stdout, stderr, wall, usage.ru_maxrss / 1024.0


def _wait4(pid: int, timeout: float):
    """Blocking wait4 (it alone gives the child's own peak RSS), cut by an alarm."""
    def expire(signum, frame):
        raise BenchError(f"a child process ran past {timeout} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return status, usage


# ---------------------------------------------------------------------------
# header and set-up

def package_info(workdir: str) -> dict:
    code = ("import json, sys, numpy, qdomains; print(json.dumps({"
            "'compiled': qdomains.USING_COMPILED, 'numpy': numpy.__version__, "
            "'python': sys.version.split()[0], 'qdomains': qdomains.__file__}))")
    rc, out, err, _, _ = run_child([sys.executable, "-c", code], workdir, "probe")
    if rc != 0:
        raise BenchError(f"cannot import qdomains from {SRC}: {err.strip().splitlines()[-1:]}")
    info = json.loads(out)
    if not os.path.abspath(info["qdomains"]).startswith(SRC + os.sep):
        raise BenchError(f"qdomains imported from {info['qdomains']}, not from {SRC}")
    return info


def revision() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown (git unavailable)"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def print_header(info: dict, args) -> None:
    print("# qdomains benchmark")
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# kernel={'compiled' if info['compiled'] else 'pure-python'} "
          f"(qdomains.USING_COMPILED={info['compiled']})")
    print(f"# python={info['python']} numpy={info['numpy']} nproc={os.cpu_count()} "
          f"machine={platform.machine()}")
    print(f"# revision={revision()}")
    for name in ("QDOMAINS_JOBS", "QDOMAINS_PURE_PYTHON", "QDOMAINS_MUTATE"):
        print(f"# {name}={os.environ.get(name, '(unset)')}")


def measure_setup(workdir: str, samples: int, warm: bool) -> tuple:
    """Fresh interpreter, import, one trivial command: wall seconds per
    sample.  They stay in seconds: the reference probe does not track
    process start-up (exec, shared libraries, numpy's thread pool).  The
    first run of a warm-up call is left out, as it may write the bytecode
    cache."""
    doc = os.path.join(workdir, "trivial.json")
    with open(doc, "w", encoding="utf-8") as handle:
        json.dump(inputs.trivial_doc(), handle)
    argv = [sys.executable, "-m", "qdomains", "norm", "--in", doc,
            "--family", "polydisk", "--rho", "1"]
    times, bad = [], []
    for i in range(samples + int(warm)):
        rc, out, err, wall, _ = run_child(argv, workdir, "setup")
        try:
            ok = rc == 0 and json.loads(out)["norm"] == 1.0
        except (ValueError, KeyError):
            ok = False
        if not ok:
            bad.append(f"set-up probe: exit {rc}, output {out.strip()!r} {err.strip()!r}")
        if i > 0 or not warm:
            times.append(wall)
    return times, bad


# ---------------------------------------------------------------------------
# workloads

def _worker(spec: dict, workdir: str, tag: str) -> tuple:
    """Run worker.py on spec; (result dict or None, stderr, wall s, peak RSS MB)."""
    spec_path = os.path.join(workdir, f"{tag}-spec.json")
    result_path = os.path.join(workdir, f"{tag}-result.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump(spec, handle)
    if os.path.exists(result_path):
        os.remove(result_path)
    rc, _, err, wall, rss = run_child(
        [sys.executable, os.path.join(HERE, "worker.py"), spec_path, result_path], workdir, tag)
    if rc != 0 or not os.path.exists(result_path):
        return None, err, wall, rss
    with open(result_path, encoding="utf-8") as handle:
        return json.load(handle), err, wall, rss


def verify_all(args, workdir: str) -> list:
    """Fresh processes, one at a time; with --trace 1 one untraced and one traced."""
    runs = []
    start = time.perf_counter()
    while True:
        runs.append(_verify_pass(args, workdir, traced=False))
        if args.trace or time.perf_counter() - start + runs[-1]["wall"] > args.seconds:
            break
    if args.trace:
        runs.append(_verify_pass(args, workdir, traced=True))
    return runs


def _verify_pass(args, workdir: str, traced: bool) -> dict:
    result, err, wall, rss = _worker({"workload": "verify", "seed": args.seed,
                                      "trace": int(traced)}, workdir, "verify")
    if result is None:
        attempted, failed, bad = SUITES_PER_PASS, SUITES_PER_PASS, [
            f"verify worker crashed: {err.strip()[-400:]}"]
        result = {"suites": [], "main_s": 0.0, "trace": None}
    else:
        attempted, failed, bad = oracles.check_verify(result["code"], result["stdout"],
                                                      args.seed)
        if attempted != SUITES_PER_PASS:
            bad.append(f"verify all reported {attempted} suites, expected {SUITES_PER_PASS}")
            attempted, failed = SUITES_PER_PASS, SUITES_PER_PASS
    return {"wall": wall, "rss": rss, "attempted": attempted, "failed": failed, "bad": bad,
            "suites": result["suites"], "main_s": result["main_s"], "trace": result["trace"],
            "traced": traced}


def worker_workload(args, workdir: str) -> dict:
    if args.workload == "cli-mix":
        plan = inputs.cli_mix(args.seed, os.path.join(workdir, "docs"))
    else:
        plan = inputs.fiber_lift(args.seed)
    plan_path = os.path.join(workdir, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as handle:
        json.dump(plan, handle)
    result, err, _, rss = _worker({"workload": args.workload, "plan": plan_path,
                                   "seconds": args.seconds, "trace": args.trace},
                                  workdir, "worker")
    if result is None:
        raise BenchError(f"worker failed: {err.strip()[-600:]}")
    result["rss"] = rss
    result["plan"] = plan
    return result


# ---------------------------------------------------------------------------
# figures: every operation time t is also reported as t / ref, ref being the
# reference probe run next to it (see probe.py)

def quantile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _verify_pass_ref(run: dict) -> float:
    suites = run["suites"]
    refs = [ref for _, _, ref in suites]
    rest = run["main_s"] - sum(t for _, t, _ in suites)
    return sum(t / ref for _, t, ref in suites) + rest / statistics.median(refs)


def typical_pass(passes: list) -> float:
    """A pass made of each operation's median over the passes: passes is a
    list of {operation: time}; a slow moment of one pass moves one sample
    of each operation, not the whole figure."""
    return sum(statistics.median(p[name] for p in passes) for name in passes[0])


def summarize_verify(runs: list, setup_s: float, args) -> tuple:
    plain = [r for r in runs if not r["traced"] and r["suites"]]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    bad = [m for r in runs for m in r["bad"]]
    if not plain:
        return None, [], None, None, attempted, failed, bad
    walls = [r["wall"] for r in plain]
    refs = [ref for r in plain for _, _, ref in r["suites"]]
    e2e = {
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(r["rss"] for r in plain),
        "pass_ref": typical_pass([
            {**{name: t / ref for name, t, ref in r["suites"]},
             "(outside suites)": _verify_pass_ref(r) - sum(t / ref for _, t, ref in r["suites"])}
            for r in plain]),
        "latency_p50_ref": statistics.median(t / ref for r in plain for _, t, ref in r["suites"]),
    }
    lines = [f"verify_all_s = {statistics.median(walls):.4f} s  (median of {len(walls)} fresh "
             "processes: " + ", ".join(f"{w:.3f}" for w in walls) + ")",
             f"reference probe = {1000.0 * statistics.median(refs):.4f} ms "
             f"(median of {len(refs)})",
             "per-suite split of verify_all_s, median over the untraced processes:"]
    by_suite: dict = {}
    for r in plain:
        for name, t, ref in r["suites"]:
            by_suite.setdefault(name, []).append((t, t / ref))
    for name in sorted(by_suite, key=lambda n: -statistics.median(t for t, _ in by_suite[n])):
        lines.append(f"  suites.{name}.s = {statistics.median(t for t, _ in by_suite[name]):.4f}"
                     f"  ({statistics.median(x for _, x in by_suite[name]):.1f} ref)")
    layers, overhead = None, None
    traced = [r for r in runs if r["traced"] and r["suites"]]
    if traced:
        layers = traced[0]["trace"]
        base = _verify_pass_ref(plain[0])
        overhead = 100.0 * (_verify_pass_ref(traced[0]) - base) / base
    return e2e, lines, layers, overhead, attempted, failed, bad


def summarize_worker(res: dict, setup_s: float, args) -> tuple:
    plan = res["plan"]
    passes = res["passes"]
    plain = [p for p in passes if not p["traced"]]
    attempted = sum(len(p["rows"]) for p in passes)
    failed = sum(1 for p in passes for row in p["rows"] if row[2])
    bad = [m for p in passes for index, _, messages, _, _ in p["rows"]
           if not plan[index].get("known_fault") for m in messages]
    known = [messages[0] for index, _, messages, _, _ in passes[0]["rows"]
             if plan[index].get("known_fault") and messages]
    rows = [row for p in plain for row in p["rows"]]
    seconds = [row[1] for row in rows]
    e2e = {
        "setup_s": setup_s,
        "peak_rss_mb": res["rss"],
        "pass_ref": typical_pass([{r[0]: r[1] / r[4] for r in p["rows"]} for p in plain]),
        "latency_p50_ref": statistics.median(r[1] / r[4] for r in rows),
    }
    n = len(seconds)
    busy = sum(seconds)
    lines = [f"reference probe = {1000.0 * statistics.median(r[4] for r in rows):.4f} ms "
             f"(median of {n})"]
    if args.workload == "cli-mix":
        lines.append(f"cli_requests_per_s = {n / busy:.4f} req/s  ({n} requests, "
                     f"{len(plain)} passes)")
        lines.append(f"cli_latency_p50_ms = {1000.0 * statistics.median(seconds):.4f} ms")
        if n >= 200:   # at least ten samples beyond the 95th percentile
            lines.append(f"cli_latency_p95_ms = {1000.0 * quantile(seconds, 0.95):.4f} ms")
        else:
            lines.append(f"cli_latency_p95_ms not reported: {n} samples, fewer than 200")
        by_command: dict = {}
        for index, t, _, _, _ in rows:
            by_command.setdefault(plan[index]["argv"][0], []).append(t)
        for command in sorted(by_command):
            lines.append(f"  cli.{command}.p50_ms = "
                         f"{1000.0 * statistics.median(by_command[command]):.4f}  "
                         f"({len(by_command[command])} requests)")
    else:
        words = sum(row[3] for row in rows if not row[2])
        lines.append(f"lift_words_per_s = {words / busy:.1f} words/s  "
                     f"({words} fiber words in passed jobs)")
        lines.append(f"lift_latency_p50_ms = {1000.0 * statistics.median(seconds):.4f} ms  "
                     f"({n} jobs, {len(plain)} passes)")
        for m in known:
            lines.append(f"  known fault: {m}")
    layers, overhead = None, None
    traced = [p for p in passes if p["traced"]]
    if traced:
        layers = res["trace"]
        layers["counts"]["serialize.bytes"] = \
            sum(row[3] for row in traced[0]["rows"]) if args.workload == "cli-mix" else 0
        base = sum(r[1] / r[4] for r in plain[0]["rows"])
        overhead = 100.0 * (sum(r[1] / r[4] for r in traced[0]["rows"]) - base) / base
    return e2e, lines, layers, overhead, attempted, failed, bad


def per_layer(layers: dict, overhead: float) -> tuple:
    stats = layers["stats"]
    counts = layers["counts"]
    out = {"trace.overhead_pct": overhead}
    by_layer: dict = {}
    for name, (calls, _total, self_s) in stats.items():
        row = by_layer.setdefault(name.split(".")[0], [0, 0.0])
        row[0] += calls
        row[1] += self_s
    for metric in PER_LAYER:
        if metric in out:
            continue
        if metric in COUNTED:
            out[metric] = counts.get(metric, 0)
            continue
        # <layer>.calls|self_s sums the layer's spans; <span>.calls|self_s is one row
        base, _, field = metric.rpartition(".")
        if "." in base:
            calls, _, self_s = stats.get(base, (0, 0.0, 0.0))
        else:
            calls, self_s = by_layer.get(base, (0, 0.0))
        out[metric] = calls if field == "calls" else self_s
    lines = ["per-layer (one traced pass):",
             f"  trace.overhead_pct = {overhead:.1f} %  (traced minus untraced, same work)"]
    for layer in sorted(by_layer, key=lambda x: -by_layer[x][1]):
        lines.append(f"  {layer}.self_s = {by_layer[layer][1]:.4f}  ({by_layer[layer][0]} calls)")
    for name in sorted(stats):
        calls, total, self_s = stats[name]
        if name.startswith("suites."):
            lines.append(f"  {name}.traced_s = {total:.4f}  (self {self_s:.4f} s)")
        elif "." in name:
            lines.append(f"  {name}.self_s = {self_s:.4f}  (total {total:.4f} s, {calls} calls)")
    for name in sorted(counts):
        lines.append(f"  {name} = {counts[name]}")
    return out, lines


def write_trace(layers: dict, args) -> str:
    os.makedirs(WORK_ROOT, exist_ok=True)
    path = os.path.join(WORK_ROOT, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"columns": ["id", "parent", "name", "start", "end"], **layers}, handle)
    return path


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qdomains", "__init__.py")):
        print(f"error: no qdomains package under {SRC}", file=sys.stderr)
        return 2
    workdir = os.path.join(WORK_ROOT, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        info = package_info(workdir)
        print_header(info, args)
        mutated = bool(os.environ.get("QDOMAINS_MUTATE"))
        if mutated:
            print("# QDOMAINS_MUTATE is set: outputs are checked, timings are not reported")
        setup_before, setup_bad = measure_setup(workdir, SETUP_SAMPLES, warm=True)
        result = verify_all(args, workdir) if args.workload == "verify-all" \
            else worker_workload(args, workdir)
        setup_after, bad_after = measure_setup(workdir, SETUP_SAMPLES, warm=False)
        setup_s = statistics.median(setup_before + setup_after)
        summarize = summarize_verify if args.workload == "verify-all" else summarize_worker
        e2e, lines, layers, overhead, attempted, failed, bad = summarize(result, setup_s, args)
        bad = setup_bad + bad_after + bad
        if e2e is None and not mutated:
            raise BenchError("no verify-all process produced a report: " + "; ".join(bad[:3]))
        for message in bad[:20]:
            print(f"CHECK FAILED: {message}")
        if mutated:
            print(json.dumps({"correct": not bad, "attempted": attempted, "failed": failed,
                              "metrics": {}}))
            return 3
        for line in lines:
            print(line)
        if args.trace:
            metrics, layer_lines = per_layer(layers, overhead)
            for line in layer_lines:
                print(line)
            print(f"trace written to {os.path.relpath(write_trace(layers, args), ROOT)}")
            units = PER_LAYER
        else:
            metrics = e2e
            units = END_TO_END
            for name, value in e2e.items():
                print(f"{name} = {value:.6g} {units[name]}")
        result = {"correct": not bad, "attempted": attempted, "failed": failed,
                  "metrics": {name: {"value": metrics[name], "unit": units[name]}
                              for name in units}}
        print(json.dumps(result))
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
