#!/usr/bin/env bash
# Macro-benchmark snapshot: runs the two `--json` benches from a Release
# build and merges their documents into one MACRO_<pr>.json at the repo
# root (closed-loop QPS/p95, streaming TTFR/TTLR, parallel speedups, and
# spill vs. in-memory throughput under a small memory limit). BENCH_7 to
# BENCH_10 came from this script; BENCH_<pr>.json is now the perfbench
# snapshot that scripts/bench_snapshot.py writes.
#
# Usage: scripts/bench_macro.sh <pr-number> [--smoke]
#   scripts/bench_macro.sh 7            # full run, writes MACRO_7.json
#   scripts/bench_macro.sh 7 --smoke    # quick CI-sized run
set -euo pipefail
cd "$(dirname "$0")/.."

PR="${1:?usage: scripts/bench_macro.sh <pr-number> [--smoke]}"
shift
MODE=full
if [[ "${1:-}" == "--smoke" ]]; then
  MODE=smoke
  EXTRA=(--smoke)
else
  EXTRA=()
fi

JOBS="$(nproc 2>/dev/null || echo 2)"
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-release -j "${JOBS}" \
      --target bench_server_throughput bench_parallel_scaling >/dev/null

TMP="$(mktemp -d)"
trap 'rm -rf "${TMP}"' EXIT

echo "=== bench_server_throughput (${MODE}) ==="
./build-release/bench/bench_server_throughput "${EXTRA[@]}" \
    --json "${TMP}/server_throughput.json"

echo "=== bench_parallel_scaling (${MODE}) ==="
./build-release/bench/bench_parallel_scaling "${EXTRA[@]}" \
    --json "${TMP}/parallel_scaling.json"

OUT="MACRO_${PR}.json"
python3 - "${PR}" "${MODE}" "${TMP}" "${OUT}" <<'PYEOF'
import json
import subprocess
import sys

pr, mode, tmp, out = sys.argv[1:5]
doc = {
    "pr": int(pr),
    "mode": mode,
    "date": subprocess.run(["date", "-u", "+%Y-%m-%dT%H:%M:%SZ"],
                           capture_output=True, text=True).stdout.strip(),
    "hardware": {
        "cpus": subprocess.run(["nproc"], capture_output=True,
                               text=True).stdout.strip(),
    },
}
for section in ("server_throughput", "parallel_scaling"):
    with open(f"{tmp}/{section}.json") as f:
        doc[section] = json.load(f)
with open(out, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
PYEOF

echo "Wrote ${OUT}"
