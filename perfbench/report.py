#!/usr/bin/env python3
"""Regenerates the reference figures of perfbench/README.md.

    python3 perfbench/report.py [--runs 10] [--seconds 20] [--first-seed 1]
                                [--traced]

Runs perfbench/run.py --runs times per workload, each with its own seed, the
workloads interleaved so that a change in the host's load falls on all of
them alike, and prints for every end-to-end metric the median, the quartiles
(statistics.quantiles, n=4) and their spread as a share of the median, plus
the CPU steal share of every run; the p99 latencies follow as reference rows.
With --traced it then makes one traced run per workload and prints the
per-layer figures, the stage table of the write path and the tracing overhead
(the traced run's end-to-end figures against the untraced medians).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run as bench  # noqa: E402


def one(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or len(lines) < 2:
        sys.stderr.write(p.stderr[-3000:])
        raise SystemExit("run failed: %s" % " ".join(cmd))
    detail = json.loads(lines[-2].split(" ", 1)[1])
    result = json.loads(lines[-1])
    return {"detail": detail, "result": result}


def spread_row(name, values, unit):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    share = (q3 - q1) / med if med else 0.0
    return "| %s | %s | %.6g | %.6g | %.6g | %.3f |" % (name, unit, med, q1, q3, share)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args()
    workloads = bench.WORKLOADS

    runs = {w: [] for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            r = one(w, args.first_seed + i, args.seconds, 0)
            runs[w].append(r)
            print("# %s seed %d: %s" % (w, args.first_seed + i, json.dumps(
                {k: round(v["value"], 4) for k, v in r["result"]["metrics"].items()})),
                file=sys.stderr)

    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    for w in workloads:
        rs = runs[w]
        print("\n### %s (%d runs of %d s)\n" % (w, len(rs), args.seconds))
        print("| metric | unit | median | q1 | q3 | (q3-q1)/median |")
        print("|---|---|---|---|---|---|")
        for m, unit in bench.END_TO_END.items():
            vals = [r["result"]["metrics"][m]["value"] for r in rs]
            print(spread_row(m, vals, unit) + (" bound %.2f" % bounds[m] if m in bounds else ""))
        for name, key in (("write_p99_us", "write_latency_us"), ("read_p99_us", "read_latency_us")):
            vals = [r["detail"][key]["p99"] for r in rs]
            print(spread_row(name, vals, "us") + " reference, not a metric")
        steal = [r["detail"]["host"]["steal_share"] for r in rs]
        print("\nsteal share per run: %s" % ", ".join("%.3f" % s for s in steal))
        fails = [(r["result"]["attempted"], r["result"]["failed"]) for r in rs]
        print("attempted/failed per run: %s" % ", ".join("%d/%d" % f for f in fails))
    host = runs[workloads[0]][0]["detail"]["host"]
    print("\nhost: %d vCPU %s, kernel %s, %s build" %
          (host["nproc"], host["cpu_model"], host["kernel"], host["build_type"]))

    if args.traced:
        for w in workloads:
            t = one(w, args.first_seed, args.seconds, 1)
            print("\n### %s, traced (seed %d)\n" % (w, args.first_seed))
            print("| per-layer metric | unit | value |")
            print("|---|---|---|")
            for m, unit in bench.PER_LAYER.items():
                print("| %s | %s | %.6g |" % (m, unit, t["result"]["metrics"][m]["value"]))
            tr = t["detail"]["trace"]
            print("\nstage table (%d spans, %d traces, %d complete chains):\n" %
                  (tr["spans"], tr["traces"], tr["complete_chains"]))
            print("| hop | count | p50 us | p99 us |")
            print("|---|---|---|---|")
            for stage in bench.STAGES:
                s = tr["stages"].get(stage)
                if s:
                    print("| %s -> %s | %d | %g | %g |" % (s["from"], stage, s["count"], s["p50"], s["p99"]))
            print("\nstage p50 sum %g us; traced chain end-to-end p50 %g us" %
                  (t["result"]["metrics"]["stage.p50_sum_us"]["value"], tr["end_to_end_p50"]))
            print("\n| end-to-end metric | untraced median | traced | traced/untraced |")
            print("|---|---|---|---|")
            for m in bench.END_TO_END:
                untraced = statistics.median(r["result"]["metrics"][m]["value"] for r in runs[w])
                tv = t["detail"]["e2e"][m]
                print("| %s | %.6g | %.6g | %.3f |" % (m, untraced, tv, tv / untraced if untraced else 0))


if __name__ == "__main__":
    main()
