#!/usr/bin/env bash
# Build gate for the concurrent subsystems (src/parallel, src/server) and
# batch execution (MAGICDB_TEST_BATCH_SIZE sweeps rerun the full suite at
# batch size 1, the exact-work reference, and at an odd batch size; the
# default runs cover 1024-row batches) and the adaptive re-optimization path
# (a MAGICDB_TEST_REOPT_QERROR sweep reruns the full suite with
# feedback-driven plan restarts forced maximally aggressive, under Release
# and TSAN — restarts must never change results and must be race-free when
# the parallel retry loop re-plans gangs of replicas; the default runs have
# re-optimization off):
#   1. Release build, full test suite (correctness + cost-identity tests),
#      plus a smoke run of bench_parallel_scaling (DoP {1,2}) whose
#      byte-identity and counter-identity assertions cover the parallel
#      aggregation merge on real query shapes;
#   2. ThreadSanitizer build, full test suite (barrier/steal/merge,
#      partitioned-aggregate staging, and admission/plan-cache/cancellation
#      races), plus the same bench smoke under TSAN;
#   3. AddressSanitizer+UndefinedBehaviorSanitizer build, full test suite
#      (lifetime bugs in pooled plan instances, cancellation unwinds, and
#      UB anywhere; MAGICDB_SANITIZE=address enables both).
# Every build also smoke-runs bench_server_throughput, whose closed-loop and
# streaming-cursor sections assert byte-identity against Database::Run and
# the cursor queue's bounded-memory contract while racing sessions on the
# shared pool. After the Release suite the benchmark package (perfbench/)
# is built on its own, its helper tests run, and traced analytic_dop3,
# spill_governed, adhoc_plan and serve_hot windows must verify every result.
#
# A second trio of builds repeats Release/TSAN/ASan+UBSan with
# -DMAGICDB_FAILPOINTS=ON and runs the chaos suite (fault injection at every
# threaded site, memory-governor breaches, park/resume delay perturbation,
# spill-file I/O faults, DDL catalog-mutation faults) plus the server stress
# tests: any injected fault must leave the service with zero leaked tickets,
# gang slots, or cursors — clean under both sanitizers. The default builds
# above stay byte-identical because the failpoint macros compile to nothing
# without the option.
#
# Finally, a low-memory chaos sweep reruns the FULL test suite inside the
# Release and ASan+UBSan failpoint builds with a small default per-query
# memory limit and a spill directory injected via environment, and with
# delay failpoints armed on every spill I/O site. Every governed query in
# the suite that crosses the small limit now takes the out-of-core paths
# with perturbed spill-I/O timing; results must stay byte-identical and
# ASan must see no lifetime bugs in the spill readers/writers. Tests that
# pin their own limit or spill dir are unaffected (explicit options win
# over the environment).
#
# An overload chaos sweep then reruns the overload suite (and the exact-count
# server stress test) inside the Release and TSAN failpoint builds with a
# tiny admission-queue high-water injected via environment and delay
# failpoints armed on the shed and disk-budget decision points: the service
# must shed instead of queueing unboundedly, Query()'s retry loop must
# absorb the rejections, and survivors must stay byte-identical with zero
# leaked tickets, gang slots, cursors, or disk-budget bytes.
#
# Before anything builds, five source guards: every build side, distinct
# set, filter set and group index goes through HashTable<T> in
# src/common/hash_table.h, so a hand-rolled unordered_map<uint64_t, ...>
# table under src/ fails the check; every spilled record is read through
# the sorted-run module (src/spill/sorted_runs.h: RunMerge, ForEachRecord)
# or the partitioner beside SpillPartitionSet, so a SpillFile::NextRecord
# call anywhere else under src/ fails it too; batches are dense and
# Expr::BatchEval is the one evaluator, so a row evaluator (Eval(const
# Tuple, EvalPredicate() or a selection vector (SetSelection, sel_active,
# ActiveRows, ForEachActive) under src/ fails it as well; and a dop > 1
# query streams its workers' rows through the lanes of the result sink, so
# a staged gather (StagedStream, RunStaged, GatherCodec, GatherRow) under
# src/ fails it too; and every governed operator charges each retained row
# or group through ExecContext::ChargeMemory, so the deleted reservation
# protocol (BatchReserve, ReserveMemory, CommitReserved, ReleaseReserved)
# under src/ fails it as well.
#
# The MAGICDB_TEST_* and MAGICDB_FAILPOINT_DELAYS variables are cleared
# before the first build, so the default runs test the defaults and each
# sweep sets only its own.
#
# After the TSAN suite, the cursor tests and the two concurrent-cursor
# stress tests rerun five times under TSAN: every dop > 1 cursor has
# concurrent producers and a consumer-side lane merge.
# Usage: scripts/check.sh [extra ctest args...]
set -euo pipefail
cd "$(dirname "$0")/.."

echo "=== Source guard: one hash table ==="
if grep -rn "unordered_map<uint64_t" src/; then
  echo "error: hand-rolled unordered_map<uint64_t, ...> table under src/" \
       "(above); build it on HashTable<T> from src/common/hash_table.h" >&2
  exit 1
fi

echo "=== Source guard: one run merge ==="
if grep -rn "NextRecord(" src/ | grep -v \
     -e "^src/spill/spill_file\.\(h\|cc\):" \
     -e "^src/spill/sorted_runs\.h:" \
     -e "^src/spill/spill_partition_set\.\(h\|cc\):"; then
  echo "error: spill records read outside the sorted-run module (above);" \
       "merge runs with RunMerge and scan files with ForEachRecord from" \
       "src/spill/sorted_runs.h" >&2
  exit 1
fi

echo "=== Source guard: dense batches, one evaluator ==="
if grep -rn -e "Eval(const Tuple" -e "\bEvalPredicate(" -e "SetSelection(" \
     -e "sel_active(" -e "ActiveRows(" -e "ForEachActive(" src/; then
  echo "error: row-at-a-time evaluation or a selection vector under src/" \
       "(above); evaluate through Expr::BatchEval / BatchEvalPredicate and" \
       "keep filtered rows with RowBatch::KeepRows" >&2
  exit 1
fi

echo "=== Source guard: no staged gather ==="
if grep -rn -e "StagedStream" -e "RunStaged" -e "GatherCodec" -e "GatherRow" \
     src/; then
  echo "error: a staged parallel gather under src/ (above); a dop > 1" \
       "query's workers stream into the lanes of the ResultSink" \
       "(StreamPump, src/exec/stream_pump.h)" >&2
  exit 1
fi

echo "=== Source guard: one charge per retained byte ==="
if grep -rn -e "BatchReserve" -e "ReserveMemory" -e "CommitReserved" \
     -e "ReleaseReserved" src/; then
  echo "error: a memory reservation under src/ (above); charge each" \
       "retained row or group with ExecContext::ChargeMemory and release" \
       "it with ReleaseMemory" >&2
  exit 1
fi

for var in $(compgen -e); do
  case "${var}" in
    MAGICDB_TEST_* | MAGICDB_FAILPOINT_DELAYS) unset "${var}" ;;
  esac
done

JOBS="$(nproc 2>/dev/null || echo 2)"

echo "=== Release build ==="
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-release -j "${JOBS}"
ctest --test-dir build-release --output-on-failure --timeout 120 -j "${JOBS}" "$@"

# Batch-size sweep: the default run above executes every query in 1024-row
# batches; rerun the full suite at batch size 1 (one row per pull: exactly
# the work of row-at-a-time execution) and at a deliberately awkward batch
# size. Results must be byte-identical at all three sizes — the suite's
# identity assertions do the comparing.
echo "=== Release suite, batch size 1 ==="
MAGICDB_TEST_BATCH_SIZE=1 \
  ctest --test-dir build-release --output-on-failure --timeout 120 \
        -j "${JOBS}" "$@"

echo "=== Release suite, batch size 7 ==="
MAGICDB_TEST_BATCH_SIZE=7 \
  ctest --test-dir build-release --output-on-failure --timeout 120 \
        -j "${JOBS}" "$@"

# Adaptive re-optimization sweep: rerun the full suite with runtime
# cardinality feedback forced maximally aggressive (any estimation error
# restarts planning at every pipeline breaker). The suite's byte-identity
# assertions verify that restart-based re-planning never changes results;
# only tests that pin their own threshold opt out. The default run above
# is the re-optimization-off run: an unset MAGICDB_TEST_REOPT_QERROR and 0
# both resolve to a disabled threshold.
echo "=== Release suite, re-optimization forced aggressive ==="
MAGICDB_TEST_REOPT_QERROR=1.0 \
  ctest --test-dir build-release --output-on-failure --timeout 120 \
        -j "${JOBS}" "$@"

echo "=== Parallel-scaling bench smoke (Release, DoP 2) ==="
./build-release/bench/bench_parallel_scaling --smoke

echo "=== Server-throughput bench smoke (Release) ==="
./build-release/bench/bench_server_throughput --smoke

# The benchmark package (perfbench/, declared in BENCHMARK.json) builds the
# library from src/ on its own, so the root build above never compiles it.
# Build it, run its helper tests, and run one traced analytic_dop3 window,
# one traced spill_governed window, one traced adhoc_plan window and one
# traced serve_hot window: a library change that breaks the benchmark's
# direct path (bind, plan, ParallelExecutor::Run, ExecuteToVector) or its
# Database::Run result verification fails here.
echo "=== Benchmark package: helper tests + traced analytic_dop3, spill_governed, adhoc_plan and serve_hot runs ==="
cmake -S perfbench -B build-perfbench -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-perfbench -j "${JOBS}"
ctest --test-dir build-perfbench --output-on-failure --timeout 120
PERFBENCH_WORK_DIR="$(mktemp -d)"
./build-perfbench/perfbench --workload analytic_dop3 --seed 1 --seconds 20 \
    --trace 1 --work-dir "${PERFBENCH_WORK_DIR}"
# spill_governed is the only workload whose scans skip most pages (its
# did ranges over the did-ordered Emp) and the only one that spills;
# perfbench exits non-zero when a result is wrong or a query did not spill.
./build-perfbench/perfbench --workload spill_governed --seed 1 --seconds 10 \
    --trace 1 --work-dir "${PERFBENCH_WORK_DIR}"
# adhoc_plan is the only workload that plans every statement (its star
# joins never repeat a text), and it checks each result against the
# MagicMode::kNever multiset of the same statement, so an optimizer change
# that builds a wrong plan fails here.
./build-perfbench/perfbench --workload adhoc_plan --seed 1 --seconds 10 \
    --trace 1 --work-dir "${PERFBENCH_WORK_DIR}"
# serve_hot is the only workload whose every plan is a Filter Join over
# index nested loops: a filtered Dept scan feeds DepAvgSal restricted
# through IndexNestedLoopsJoin(Emp), and four of its five classes join Emp
# by index again above the Filter Join. perfbench asserts a plan-cache
# hit rate of at least 0.99 and checks each result against the
# MagicMode::kNever multiset, so a wrong scan kernel, index join or probe
# fails here.
./build-perfbench/perfbench --workload serve_hot --seed 1 --seconds 10 \
    --trace 1 --work-dir "${PERFBENCH_WORK_DIR}"
rm -rf "${PERFBENCH_WORK_DIR}"

echo "=== ThreadSanitizer build ==="
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DMAGICDB_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "${JOBS}"
ctest --test-dir build-tsan --output-on-failure --timeout 120 -j "${JOBS}" "$@"

echo "=== TSAN suite, re-optimization forced aggressive ==="
MAGICDB_TEST_REOPT_QERROR=1.0 \
  ctest --test-dir build-tsan --output-on-failure --timeout 120 \
        -j "${JOBS}" "$@"

echo "=== TSAN repeat: streaming cursors and concurrent-cursor stress ==="
./build-tsan/tests/magicdb_tests \
    --gtest_filter='CursorTest.*:ServerStressTest.ConcurrentCursorsStreamIdenticalResults:ServerStressTest.DdlRacingQueriesStaysConsistent' \
    --gtest_repeat=5

echo "=== Parallel-scaling bench smoke (TSAN, DoP 2) ==="
./build-tsan/bench/bench_parallel_scaling --smoke

echo "=== Server-throughput bench smoke (TSAN) ==="
./build-tsan/bench/bench_server_throughput --smoke

echo "=== AddressSanitizer+UBSan build ==="
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DMAGICDB_SANITIZE=address >/dev/null
cmake --build build-asan -j "${JOBS}"
ctest --test-dir build-asan --output-on-failure --timeout 120 -j "${JOBS}" "$@"

echo "=== ASan+UBSan suite, batch size 1 ==="
MAGICDB_TEST_BATCH_SIZE=1 \
  ctest --test-dir build-asan --output-on-failure --timeout 120 \
        -j "${JOBS}" "$@"

echo "=== Server-throughput bench smoke (ASan+UBSan) ==="
./build-asan/bench/bench_server_throughput --smoke

CHAOS_FILTER='ChaosTest.*:ExecFailpointTest.*:MemoryGovernorTest.*:MemoryTrackerTest.*:ServerStressTest.*:SpillChaosTest.*:DdlChaosTest.*:OverloadTest.*:OverloadFairnessTest.*:OverloadChaosTest.*'

# Overload chaos sweep: a tiny admission queue high-water injected via the
# environment (applied only where shed_queue_depth is unset) plus delay
# failpoints on the shed and disk-budget-charge decision points. Query()'s
# shed-retry loop must absorb the rejections — results stay byte-identical
# and nothing leaks. ServerStressTest's exact-count accounting rides along:
# sheds are refusals at the door, not submitted/failed queries.
OVERLOAD_FILTER='OverloadTest.*:OverloadChaosTest.*:ServerStressTest.ConcurrentSessionsMatchSequentialBaseline'
OVERLOAD_ENV=(
  MAGICDB_TEST_SHED_QUEUE_DEPTH=2
  MAGICDB_FAILPOINT_DELAYS='admission.shed:20,spill.budget.charge:20'
)

# Env for the low-memory chaos sweep: an 8 MiB default query memory limit
# (applied only where QueryServiceOptions leaves the limit unset), a shared
# spill directory (applied only where spill_dir is unset), and delay-only
# failpoints on the spill I/O sites.
LOWMEM_SPILL_DIR="$(mktemp -d)"
trap 'rm -rf "${LOWMEM_SPILL_DIR}"' EXIT
LOWMEM_ENV=(
  MAGICDB_TEST_QUERY_MEMORY_LIMIT=8388608
  "MAGICDB_TEST_SPILL_DIR=${LOWMEM_SPILL_DIR}"
  MAGICDB_FAILPOINT_DELAYS='spill.write:20,spill.read:20,spill.partition.open:20'
)

echo "=== Chaos build (Release + failpoints) ==="
cmake -B build-chaos -S . -DCMAKE_BUILD_TYPE=Release \
      -DMAGICDB_FAILPOINTS=ON >/dev/null
cmake --build build-chaos -j "${JOBS}"
./build-chaos/tests/magicdb_tests --gtest_filter="${CHAOS_FILTER}"

echo "=== Low-memory chaos sweep (Release + failpoints, full suite) ==="
env "${LOWMEM_ENV[@]}" ./build-chaos/tests/magicdb_tests

echo "=== Overload chaos sweep (Release + failpoints) ==="
env "${OVERLOAD_ENV[@]}" \
  ./build-chaos/tests/magicdb_tests --gtest_filter="${OVERLOAD_FILTER}"

echo "=== Chaos build (TSAN + failpoints) ==="
cmake -B build-chaos-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DMAGICDB_SANITIZE=thread -DMAGICDB_FAILPOINTS=ON >/dev/null
cmake --build build-chaos-tsan -j "${JOBS}"
./build-chaos-tsan/tests/magicdb_tests --gtest_filter="${CHAOS_FILTER}"

echo "=== Overload chaos sweep (TSAN + failpoints) ==="
env "${OVERLOAD_ENV[@]}" \
  ./build-chaos-tsan/tests/magicdb_tests --gtest_filter="${OVERLOAD_FILTER}"

echo "=== Chaos build (ASan+UBSan + failpoints) ==="
cmake -B build-chaos-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DMAGICDB_SANITIZE=address -DMAGICDB_FAILPOINTS=ON >/dev/null
cmake --build build-chaos-asan -j "${JOBS}"
./build-chaos-asan/tests/magicdb_tests --gtest_filter="${CHAOS_FILTER}"

echo "=== Low-memory chaos sweep (ASan+UBSan + failpoints, full suite) ==="
env "${LOWMEM_ENV[@]}" ./build-chaos-asan/tests/magicdb_tests

echo "All checks passed."
