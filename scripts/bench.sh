#!/usr/bin/env bash
# Performance benchmarks, written as BENCH_*.json at the repository
# root:
#
#   * crash exploration (repro_crashsim --bench →
#     BENCH_crashsim.json): the sequential replay reference vs the
#     engine (trace-planned digest dedup, representatives built on a
#     rolling CoW device, parallel classification), plus the corpus
#     mode racing the reference's deep-reorder enumeration against the
#     engine with a cold and then warm persistent verdict store
#     (--store PATH, default under $TMPDIR);
#   * taint-analysis engines (repro_analyzer --bench →
#     BENCH_analyzer.json): naive whole-program sweep vs def-use
#     worklist with interned taint sets, plus the analysis cache;
#   * fs-substrate I/O (repro_fsops --bench → BENCH_fsops.json):
#     ext4sim's write-back metadata cache vs the write-through
#     baseline over format, file cycles, defrag and a ConBugCk
#     campaign;
#   * fault-injection campaigns (repro_faultsim --bench →
#     BENCH_faultsim.json): the single-threaded uncached sweep vs the
#     classification worker pool and the shared image-digest recovery
#     cache, over the errors= × journal × cache-policy grid;
#   * coverage-guided constraint fuzzing (repro_fuzz --bench →
#     BENCH_fuzz.json): solver-seeded campaigns vs the legacy
#     dependency-aware and naive random generators under the same
#     dedup-and-memoize loop, plus the incremental verdict store
#     (cold campaign, then a warm rerun that must execute nothing);
#   * configuration-validation serving (repro_service --bench →
#     BENCH_service.json): naive full-table evaluation vs the indexed
#     ValidationPlan vs the indexed plan behind the sharded verdict
#     memo, batched over the worker pool at 1/4/16 threads, with all
#     three paths asserted bit-identical per verdict.
#
# Usage: scripts/bench.sh [extra args passed to ALL binaries]
#   e.g. scripts/bench.sh --threads 4
#        scripts/bench.sh --smoke
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p bench
./target/release/repro_crashsim --bench "$@"
./target/release/repro_analyzer --bench "$@"
./target/release/repro_faultsim --bench "$@"
./target/release/repro_fuzz --bench "$@"
./target/release/repro_service --bench "$@"
# repro_fsops takes no --threads; strip it (and its value) from "$@"
fsops_args=()
skip=0
for arg in "$@"; do
  if [[ $skip -eq 1 ]]; then skip=0; continue; fi
  if [[ $arg == --threads ]]; then skip=1; continue; fi
  fsops_args+=("$arg")
done
./target/release/repro_fsops --bench "${fsops_args[@]+"${fsops_args[@]}"}"
