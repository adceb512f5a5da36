"""Self-check of the benchmark for one seed.

For each workload it makes one untraced and two traced runs, then checks
that the output digest is the same in all three, that the exact work counts
repeat between the two traced runs (rewrite steps, gcd calls and output
terms of every item of the first pass, and every per-layer metric counted
in calls or steps), and that (D2*D1)^k on p1 takes the rewrite steps the
ROADMAP records.  It also prints the tracing overhead: untraced
over traced throughput_ops_s.

    python3 perfbench/selfcheck.py --seed 1 --seconds 10
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("reorder", "apply", "rational", "cli")


def run(workload, seed, seconds, trace):
    r = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=True)
    lines = r.stdout.strip().splitlines()
    detail = next(json.loads(x[len("detail "):]) for x in lines if x.startswith("detail "))
    return detail, json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    args = ap.parse_args()
    ok = True
    for wl in args.workload or WORKLOADS:
        plain, plain_res = run(wl, args.seed, args.seconds, 0)
        traced = [run(wl, args.seed, args.seconds, 1) for _ in range(2)]
        digests = {plain["digest"]} | {d["digest"] for d, _ in traced}
        counts = {(d["counts_digest"],
                   json.dumps({k: m["value"] for k, m in res["metrics"].items() if m["unit"] == "count"},
                              sort_keys=True))
                  for d, res in traced}
        correct = plain_res["correct"] and all(res["correct"] for _, res in traced)
        overhead = (plain_res["metrics"]["throughput_ops_s"]["value"]
                    / traced[0][1]["metrics"]["trace.throughput_ops_s"]["value"])
        good = correct and len(digests) == 1 and len(counts) == 1
        line = (f"{wl}: correct={correct} digest_repeats={len(digests) == 1} "
                f"counts_repeat={len(counts) == 1} tracing_overhead={overhead:.2f}x")
        if "baseline_steps" in traced[0][0]:
            steps = traced[0][0]["baseline_steps"]
            match = traced[0][0]["baseline_steps_match_roadmap"]
            line += f" (D2*D1)^k steps={steps} roadmap_match={match}"
            good = good and match
        print(line, flush=True)
        ok = ok and good
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
