#!/usr/bin/env bash
# Performance tracking entry point.
#
# Runs the criterion event-loop suite, then the throughput tracker that
# writes BENCH_netsim.json (events/sec, ns/event, peak pending events).
# Those figures hold for the host that measured them; compare two builds
# on one host rather than against a file recorded elsewhere.
#
# Usage: scripts/bench.sh [--quick]
#   --quick   skip the criterion suite; only refresh BENCH_netsim.json
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
for arg in "$@"; do
    case "$arg" in
        --quick) QUICK=1 ;;
        *) echo "unknown argument: $arg" >&2; exit 2 ;;
    esac
done

if [ "$QUICK" -eq 0 ]; then
    echo "== criterion: event_loop suite =="
    cargo bench -p csig-bench --bench event_loop
fi

echo "== throughput tracker: BENCH_netsim.json =="
cargo build --release -p csig-bench --bin bench_netsim
./target/release/bench_netsim --reps "${BENCH_REPS:-9}"

echo "== BENCH_netsim.json =="
cat BENCH_netsim.json
