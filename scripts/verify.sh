#!/usr/bin/env bash
# Full verification gate: build, test, format, lint.
# Run from the repository root: scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --workspace --all-targets"
cargo build --release --workspace --all-targets

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo test -q --doc --workspace"
cargo test -q --doc --workspace

echo "==> cargo test -q --test stream_equivalence (streaming == batch)"
cargo test -q --test stream_equivalence

echo "==> observability: same-seed campaign snapshots are jobs-invariant"
obsdir="$(mktemp -d)"
trap 'rm -rf "$obsdir"' EXIT
./target/release/fig1 2 --seed 7 --jobs 1 \
  --metrics-out "$obsdir/m1.json" --trace-out "$obsdir/t1.jsonl" >/dev/null 2>&1
./target/release/fig1 2 --seed 7 --jobs 4 \
  --metrics-out "$obsdir/m2.json" --trace-out "$obsdir/t2.jsonl" >/dev/null 2>&1
test -s "$obsdir/m1.json" || { echo "verify: empty metrics snapshot"; exit 1; }
test -s "$obsdir/t1.jsonl" || { echo "verify: empty trace"; exit 1; }
grep -q '"sim.events"' "$obsdir/m1.json" || { echo "verify: snapshot missing sim.events"; exit 1; }
cmp -s "$obsdir/m1.json" "$obsdir/m2.json" || { echo "verify: metrics snapshot differs across --jobs"; exit 1; }
cmp -s "$obsdir/t1.jsonl" "$obsdir/t2.jsonl" || { echo "verify: trace differs across --jobs"; exit 1; }

echo "==> csig simulate writes the same pcap twice, and csig inspect reads it"
./target/release/csig simulate --seed 11 --out "$obsdir/a.pcap" >/dev/null 2>&1
./target/release/csig simulate --seed 11 --out "$obsdir/b.pcap" >/dev/null 2>&1
cmp -s "$obsdir/a.pcap" "$obsdir/b.pcap" || { echo "verify: csig simulate output differs between runs"; exit 1; }
./target/release/csig inspect "$obsdir/a.pcap" >"$obsdir/inspect.txt" || { echo "verify: csig inspect failed"; exit 1; }
grep -Eq '^ *[0-9]+ +[0-9]+ ' "$obsdir/inspect.txt" || { echo "verify: csig inspect listed no flow"; exit 1; }

echo "==> csig classify gives the same verdicts whether the server is inferred or named by port"
./target/release/csig train --reps 1 --out "$obsdir/model.json" >/dev/null 2>&1 || { echo "verify: csig train failed"; exit 1; }
./target/release/csig simulate --external --seed 11 --out "$obsdir/ext.pcap" >/dev/null 2>&1 || { echo "verify: csig simulate --external failed"; exit 1; }
for pcap in a ext; do
  ./target/release/csig classify "$obsdir/$pcap.pcap" --model "$obsdir/model.json" \
    >"$obsdir/$pcap.inferred.txt" || { echo "verify: csig classify $pcap.pcap failed"; exit 1; }
  ./target/release/csig classify "$obsdir/$pcap.pcap" --model "$obsdir/model.json" --server-port 5001 \
    >"$obsdir/$pcap.port.txt" || { echo "verify: csig classify --server-port 5001 $pcap.pcap failed"; exit 1; }
  grep -Eq '^ *[0-9]+ ' "$obsdir/$pcap.inferred.txt" || { echo "verify: csig classify $pcap.pcap listed no flow"; exit 1; }
  cmp -s "$obsdir/$pcap.inferred.txt" "$obsdir/$pcap.port.txt" || { echo "verify: csig classify $pcap.pcap differs between server selectors"; exit 1; }
done

echo "==> cargo bench --workspace --no-run (benches stay compiling)"
cargo bench --workspace --no-run

echo "==> perfbench (the repository benchmark, its own workspace) builds and passes its tests"
CARGO_TARGET_DIR=.bench_build cargo build --release --offline --manifest-path perfbench/Cargo.toml
CARGO_TARGET_DIR=.bench_build cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo clippy -p csig-netsim -p csig-tcp -p csig-trace --all-targets -- -D clippy::perf (hot-path perf gate)"
cargo clippy -p csig-netsim -p csig-tcp -p csig-trace --all-targets -- -D clippy::perf

echo "verify: all checks passed"
