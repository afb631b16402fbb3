#!/usr/bin/env python3
"""Per-PR benchmark snapshot: runs perfbench and writes BENCH_<pr>.json.

    python3 scripts/bench_snapshot.py --pr <n> [--against BENCH_<m>.json]

Run from anywhere; the benchmark runs from the root of the checkout that
holds this script, and the snapshot is written there. For every workload
BENCHMARK.json declares and every seed in the fixed set SEEDS, one run of

    python3 perfbench/run.py --workload <w> --seed <s> --seconds <run_seconds>
        --trace 0

whose final stdout line is its JSON result. The snapshot records nproc, the
seeds, the run length, the commit (and whether the tree had uncommitted
changes), and, per workload and end-to-end metric, every run's value, the
median and IQR/median.

With --against, each workload's metric medians are compared with an earlier
snapshot: the change is printed, a change worse than the metric's bound in
BENCHMARK.json is flagged REGRESSED, and a metric whose spread (IQR/median,
either side) exceeds its bound is flagged NOISY, meaning unresolved rather
than unchanged. Two snapshots are compared only when their seeds, run
length and nproc match. BENCH_7 to BENCH_10 predate perfbench and cannot be
compared.

Exits 1 when a run fails or reports wrong results, when the earlier
snapshot is not comparable, or when a comparison flags a regression; 0
otherwise.
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = [1, 2, 3]


def load_json(path):
    with open(path) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines or not lines[-1].startswith("{"):
        return None
    return json.loads(lines[-1])


def summarize(values):
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        spread = 0.0
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        spread = (q3 - q1) / abs(median)
    return {"runs": values, "median": median, "iqr_over_median": spread}


def git(*args):
    return subprocess.run(["git"] + list(args), cwd=ROOT,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def snapshot(pr, bench):
    result = {
        "pr": pr,
        "date": datetime.datetime.now(datetime.timezone.utc).strftime(
            "%Y-%m-%dT%H:%M:%SZ"),
        "commit": git("rev-parse", "HEAD"),
        "uncommitted_changes": bool(git("status", "--porcelain")),
        "nproc": os.cpu_count(),
        "seconds": bench["run_seconds"],
        "seeds": SEEDS,
        "workloads": {},
    }
    ok = True
    names = [m["name"] for m in bench["end_to_end"]]
    for w in bench["workloads"]:
        runs, values = [], {n: [] for n in names}
        for seed in SEEDS:
            print("running %s seed %d" % (w["name"], seed), flush=True)
            res = run_once(w["name"], seed, bench["run_seconds"])
            if res is None or not res["correct"]:
                ok = False
                runs.append({"seed": seed, "correct": False})
                continue
            runs.append({"seed": seed, "correct": True,
                         "attempted": res["attempted"],
                         "failed": res["failed"]})
            for n in names:
                values[n].append(res["metrics"][n]["value"])
        result["workloads"][w["name"]] = {
            "runs": runs,
            "metrics": {n: summarize(v) for n, v in values.items() if v},
        }
    return result, ok


def compare(new, old, bench):
    """Prints median changes; returns True when nothing regressed."""
    for key in ("seeds", "seconds", "nproc"):
        if new.get(key) != old.get(key):
            print("not comparable: %s %r vs %r in the earlier snapshot" % (
                key, new.get(key), old.get(key)))
            return False
    print("%-15s %-16s %12s %12s %8s  %s" % (
        "workload", "metric", "old median", "new median", "change", "flag"))
    clean = True
    for w, data in sorted(new["workloads"].items()):
        old_w = old.get("workloads", {}).get(w)
        if old_w is None:
            print("%-15s (not in the earlier snapshot)" % w)
            continue
        for m in bench["end_to_end"]:
            a = old_w["metrics"].get(m["name"])
            b = data["metrics"].get(m["name"])
            if a is None or b is None:
                continue
            base = a["median"]
            change = (b["median"] - base) / abs(base) if base else 0.0
            worse = -change if m["better"] == "higher" else change
            flags = []
            if worse > m["bound"]:
                flags.append("REGRESSED")
                clean = False
            if max(a["iqr_over_median"], b["iqr_over_median"]) > m["bound"]:
                flags.append("NOISY")
            print("%-15s %-16s %12.4g %12.4g %+7.1f%%  %s" % (
                w, m["name"], base, b["median"], 100 * change,
                " ".join(flags)))
    return clean


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pr", type=int, required=True,
                        help="PR number of the snapshot")
    parser.add_argument("--against", help="earlier snapshot to compare with")
    args = parser.parse_args()
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))

    new, ok = snapshot(args.pr, bench)
    out = os.path.join(ROOT, "BENCH_%d.json" % args.pr)
    with open(out, "w") as f:
        json.dump(new, f, indent=2)
        f.write("\n")
    print("wrote %s" % out)
    if args.against:
        ok = compare(new, load_json(args.against), bench) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
