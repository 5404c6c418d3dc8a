#!/bin/bash
# Chunked benchmark runner: same result as
#   pytest benchmarks/ --benchmark-only | tee bench_output.txt
# but split so each chunk stays well under a 10-minute watchdog.
set -u
# run from the repository that holds this script
cd "$(dirname "${BASH_SOURCE[0]}")/.." || exit 1
: > bench_output.txt
# Engine telemetry: live per-cell progress on the console and a JSONL
# run journal (wall time, worker id, cache hit/miss per simulation).
export REPRO_PROGRESS="${REPRO_PROGRESS:-1}"
export REPRO_JOURNAL="${REPRO_JOURNAL:-bench_journal.jsonl}"
# Grids fan out over the usable CPUs by themselves.  Opt-in durable
# caching:
#   REPRO_BENCH_CACHE=.bench_cache scripts/run_benchmarks.sh
run() {
    echo "=== pytest $* ===" >> bench_output.txt
    # stderr stays on the console so the engine's live progress lines
    # (REPRO_PROGRESS) are visible while stdout accumulates in the log.
    python -m pytest "$@" --benchmark-only 2>&1 >> bench_output.txt
}
run benchmarks/test_table1_and_stats.py benchmarks/test_fig4.py \
    benchmarks/test_fig5.py
run benchmarks/test_fig6.py benchmarks/test_fig7.py benchmarks/test_fig8.py \
    benchmarks/test_fig9.py benchmarks/test_fig10.py benchmarks/test_multiprog.py
run benchmarks/test_ablations.py
run benchmarks/test_extensions.py
echo "=== chunked run complete ===" >> bench_output.txt
grep -E "passed|failed" bench_output.txt | tail -8
