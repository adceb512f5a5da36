"""liediff benchmark: one workload as a single-process, single-client closed
loop; the next operation starts only when the previous one has finished.

    python3 perfbench/run.py --workload reorder --seed 1 --seconds 25 --trace 0

Run from the root of a checkout: the library is imported from ./src, which
is not installed.  The loop makes passes over a pool of operations, a fresh
pool drawn from (seed, pass) for every pass, and checks each pass's outputs
after it.  The operation times are rescaled by a machine-speed gauge
timed between the operations (NOTES.md, "Machine speed").  Each run prints
every metric by name with its unit and, as its last line, one JSON object
with the keys correct, attempted, failed and metrics.  ``--trace 0`` gives
the end-to-end metrics; ``--trace 1`` runs the span tracer of spans.py and
gives the per-layer metrics of the first pass instead.  NOTES.md describes
the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench-work"

WORKLOADS = ("reorder", "apply", "rational", "cli")

#: Each run completes at least this many operations, for its percentiles.
MIN_OPS = 100

#: Set-up runs per run (this process and fresh probe processes); setup_s is
#: their median.
SETUP_SAMPLES = 9

ROADMAP_STEPS = [1, 10, 71, 501, 3827]  # (D2*D1)^k on p1, k = 1..5


class Overrun(BaseException):
    """Raised in an operation that outlives its deadline."""


def _alarm(signum, frame):
    raise Overrun


def timed(fn, deadline):
    """Call fn under the deadline: (output, seconds, error text or None)."""
    dt = deadline
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline)
        t = time.perf_counter()
        try:
            out = fn()
        finally:
            dt = time.perf_counter() - t
            signal.setitimer(signal.ITIMER_REAL, 0)
        return out, dt, None
    except Overrun:
        return None, max(dt, deadline), "deadline overrun"
    except Exception as e:  # a failed operation is counted, not fatal
        return None, dt, f"{type(e).__name__}: {e}"


def import_library():
    """Import the liediff of this checkout (never an installed copy) and the
    workload definitions."""
    if not (SRC / "liediff" / "__init__.py").is_file():
        sys.exit(f"error: no liediff sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import liediff

    if Path(liediff.__file__).resolve().parent != SRC / "liediff":
        sys.exit(f"error: imported liediff from {liediff.__file__}, not from {SRC}")
    import workloads

    return workloads


# -- the CLI workload's process runner ----------------------------------------------

# Traced CLI calls run this instead of ``-m liediff.cli``: it times main() and
# reports the child's own span reduction on stderr.
TRACED_BOOT = """
import json, sys, time
import liediff.cli
sys.path.insert(0, {bench!r})
import spans
tracer = spans.Tracer()
tracer.install()
t = time.perf_counter()
try:
    code = liediff.cli.main(sys.argv[1:])
finally:
    main_s = time.perf_counter() - t
    sys.stdout.flush()
    red = tracer.reduce()
    del red["gcd_by_op"], red["steps_by_op"]
    sys.stderr.write("\\nPERFBENCH " + json.dumps({{"main_s": main_s, "red": red}}) + "\\n")
sys.exit(code)
"""


class CliRunner:
    """Runs one-shot CLI processes.  When traced, it keeps a report of each
    call: process, import (from -X importtime) and main() seconds, exit code
    and the child's span reduction."""

    def __init__(self, deadline, traced):
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self.boot = TRACED_BOOT.format(bench=str(BENCH)) if traced else None
        self.reports = []

    def __call__(self, argv):
        if self.boot is None:
            cmd = [sys.executable, "-m", "liediff.cli", *argv]
        else:
            cmd = [sys.executable, "-X", "importtime", "-c", self.boot, *argv]
        t = time.perf_counter()
        r = subprocess.run(cmd, env=self.env, capture_output=True, timeout=self.deadline)
        if self.boot is not None:
            self.reports.append(self._report(time.perf_counter() - t, r))
        return r.returncode, r.stdout

    @staticmethod
    def _report(process_s, r):
        rep = {"process_s": process_s, "import_s": 0.0, "main_s": 0.0, "code": r.returncode, "red": None}
        for line in r.stderr.decode().splitlines():
            if line.startswith("import time:"):
                cols = line[len("import time:"):].split("|")
                if cols[2].strip() == "liediff.cli":
                    rep["import_s"] = int(cols[1]) / 1e6
            elif line.startswith("PERFBENCH "):
                child = json.loads(line[len("PERFBENCH "):])
                rep["main_s"], rep["red"] = child["main_s"], child["red"]
        return rep


def cli_metrics(reports):
    """Per-call means over the reports; 0 in the workloads that run no CLI
    process.  cli.errors counts the calls that exit with code 2."""
    n = len(reports) or 1
    proc, imp, main = (sum(r[key] for r in reports) / n for key in ("process_s", "import_s", "main_s"))
    return {
        "cli.process_s": (proc, "s"),
        "cli.import_s": (imp, "s"),
        "cli.main_s": (main, "s"),
        "cli.interpreter_s": (proc - imp - main, "s"),
        "cli.errors": (sum(r["code"] == 2 for r in reports), "count"),
    }


# -- one run --------------------------------------------------------------------------


class Gauge:
    """A machine-speed gauge (NOTES.md, "Machine speed"): a fixed piece of
    work of the kind a workload's operations do, calling nothing of
    liediff.  It is timed before an operation whenever every_s of operation
    time has passed since its last reading, and once after the pass; the
    pass's operation times are then rescaled by ref_s, its median time on
    the reference machine, over the pass's median reading."""

    def __init__(self, work, every_s, ref_s):
        self.work, self.every_s, self.ref_s = work, every_s, ref_s

    def read(self) -> float:
        t = time.perf_counter()
        self.work()
        return time.perf_counter() - t


def gauge_loop():
    """Dict, tuple and integer work, like the library's in-process
    operations."""
    d = {}
    for i in range(2000):
        k = (i % 61, i % 7)
        d[k] = d.get(k, 0) + i * i
    return d


def start_interpreter():
    """The start of a bare interpreter, without liediff on its path: the
    part of a CLI call that liediff does not control."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    subprocess.run([sys.executable, "-c", ""], env=env, capture_output=True, timeout=60, check=True)


# In-process operations are gauged by the loop, CLI calls by the start of an
# interpreter.  The reference times are the gauges' medians on the 2-vCPU
# machine of NOTES.md: 0.75 ms for the loop, 55 ms for the start.
LOOP_GAUGE = Gauge(gauge_loop, 0.05, 0.00075)
START_GAUGE = Gauge(start_interpreter, 0.2, 0.055)


def run_pass(pool, order, deadline, tracer, gauge):
    """Run every item of the pool once, in the given order, each under the
    deadline, with the gauge's readings between them.  Returns each item's
    (output, seconds, error) and the pass's speed scale."""
    res = [None] * len(pool)
    reads, since = [], gauge.every_s
    if tracer is not None:
        tracer.install()
    try:
        for k in order:
            if since >= gauge.every_s:
                reads.append(gauge.read())
                since = 0.0
            if tracer is not None:
                tracer.op = k + 1
            res[k] = timed(pool[k].call, deadline)
            since += res[k][1]
    finally:
        if tracer is not None:
            tracer.uninstall()
    reads.append(gauge.read())
    return res, gauge.ref_s / statistics.median(reads)


def check_pass(pool, res, deadline):
    """Check every output of a pass, outside the timed region.  Returns each
    item's failure (an error, an overrun or a wrong output), or None."""
    fails = []
    for op, (out, _, err) in zip(pool, res):
        if err is None:
            ok, _, err = timed(lambda: op.check(out), deadline)
            if err is None and ok is not True:
                err = "wrong output"
        fails.append(err)
    return fails


def setup_probe_times(args, count):
    out = []
    for _ in range(count):
        r = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, timeout=170, check=True, cwd=str(ROOT))
        out.append(float(r.stdout.split()[-1]))
    return out


def percentile(xs, q):
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    wl = import_library()
    if args.trace:
        import spans
    workdir = WORKDIR / str(os.getpid())
    signal.signal(signal.SIGALRM, _alarm)
    runner = CliRunner(wl.DEADLINE_S, traced=bool(args.trace))
    gauge = START_GAUGE if args.workload == "cli" else LOOP_GAUGE

    def build(p):
        # pass p's pool: the same shapes in every pass, constants from (seed, p)
        rng = random.Random(f"{args.workload}-{args.seed}-{p}")
        return wl.WORKLOADS[args.workload](rng, workdir, runner)

    lat, busy, attempted, failed, notes = [], 0.0, 0, 0, []
    raw_lat, scales = [], []  # wall times as measured, and each pass's scale
    try:
        pool = build(0)
        setup_s = time.perf_counter() - t0
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        # Passes over a fresh pool each, until the time is up.  The loop
        # stops only between passes, so every pass runs the same mix of items.
        stop = time.perf_counter() + args.seconds
        passes = 0
        while True:
            order = list(range(len(pool)))
            random.Random(f"order-{args.seed}-{passes}").shuffle(order)
            tracer = spans.Tracer() if args.trace else None
            res, scale = run_pass(pool, order, wl.DEADLINE_S, tracer, gauge)
            fails = check_pass(pool, res, wl.DEADLINE_S)
            scales.append(scale)
            for (_, dt, _), err in zip(res, fails):
                busy += dt * scale
                lat.append(dt * scale if err is None else max(dt * scale, wl.DEADLINE_S))
                raw_lat.append(dt if err is None else max(dt, wl.DEADLINE_S))
            attempted += len(pool)
            failed += sum(err is not None for err in fails)
            notes += [f"pass {passes}: {op.label}: {err}" for op, err in zip(pool, fails) if err]
            if passes == 0:
                first = (pool, res, fails, tracer and tracer.reduce(), list(runner.reports))
            passes += 1
            if attempted >= MIN_OPS and time.perf_counter() >= stop:
                break
            pool = build(passes)
        rss_kind = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(rss_kind).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass

    # the first pass's outputs enter the digest: the same pool for a seed
    pool0, res0, fails0, own0, reports0 = first
    h = hashlib.sha256()
    for op, (out, _, _), err in zip(pool0, res0, fails0):
        text = "<failed>" if err is not None else op.render(out)
        h.update(f"{op.label}\n{text}\n".encode())
    ok_ops = attempted - failed
    throughput = ok_ops / busy
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}: {attempted} operations in "
          f"{busy:.3f} s busy (rescaled), {passes} passes over pools of {len(pool0)} items")
    for line in notes:
        print(f"  FAILED {line}")
    raw = {"throughput_ops_s": ok_ops / sum(raw_lat), "latency_p50_ms": 1000 * percentile(raw_lat, 50),
           "latency_p90_ms": 1000 * percentile(raw_lat, 90)}
    print(f"  as measured, before the speed scale (median {statistics.median(scales):.4g}, "
          f"range {min(scales):.4g}-{max(scales):.4g}): "
          + ", ".join(f"{name} {value:.6g}" for name, value in raw.items()))
    detail = {"digest": h.hexdigest(), "fail_rate": failed / attempted, "ops": attempted,
              "passes": passes, "pool": len(pool0), "raw": raw, "scale_median": statistics.median(scales)}
    if not args.trace:
        setup = [setup_s] + setup_probe_times(args, SETUP_SAMPLES - 1)
        p90 = percentile(lat, 90)
        metrics = {
            "throughput_ops_s": (throughput, "1/s"),
            "latency_p50_ms": (1000 * percentile(lat, 50), "ms"),
            "latency_p90_ms": (1000 * p90, "ms"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        counts = {
            "throughput_ops_s": f"{ok_ops} of {attempted} ops completed",
            "latency_p50_ms": f"n={len(lat)} ops",
            "latency_p90_ms": f"n={len(lat)} ops, {sum(x > p90 for x in lat)} beyond",
            "setup_s": f"median of {len(setup)}",
            "peak_rss_mb": "CLI child processes" if args.workload == "cli" else "this process",
        }
    else:
        # Per-layer metrics describe the first pass alone: the same
        # operations for a seed, so the counts are exact and repeat.
        # Set-up and the checks are not traced.
        red = own0
        for rep in reports0:
            if rep["red"] is not None:
                spans.merge(red, rep["red"])
        metrics = spans.layer_metrics(red)
        metrics.update(cli_metrics(reports0))
        metrics["trace.throughput_ops_s"] = (throughput, "1/s")
        counts = {}
        # exact work counts of each item of the first pass
        h = hashlib.sha256()
        for k, (op, (out, _, _), err) in enumerate(zip(pool0, res0, fails0)):
            row = "failed" if err is not None else (
                f"{own0['steps_by_op'].get(k + 1, 0)},{own0['gcd_by_op'].get(k + 1, 0)},{op.size(out)}")
            h.update(f"{op.label}:{row}\n".encode())
        detail["counts_digest"] = h.hexdigest()
        detail["spans"] = red["spans"]
        detail["peak_rss_mb"] = peak_rss_mb
        steps = [own0["steps_by_op"].get(k + 1) for k, op in enumerate(pool0)
                 if op.label.startswith("normalize p1 (D2*D1)^")]
        if steps:
            detail["baseline_steps"] = steps
            detail["baseline_steps_match_roadmap"] = steps == ROADMAP_STEPS
    for name, (value, unit) in metrics.items():
        extra = f"  ({counts[name]})" if name in counts else ""
        print(f"  {name:38s} {value:14.6g} {unit}{extra}")
    print(f"  fail_rate {detail['fail_rate']:.6g} ({failed} of {attempted} attempted)")
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
