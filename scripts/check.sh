#!/usr/bin/env bash
# Tier-1 gate for the RETIA reproduction: build, tests, formatting, lints.
# Run from anywhere; operates on the whole workspace.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> cargo test -q --workspace"
# Every test target once, the root package's integration suites (fault
# tolerance, checkpoint corruption, store durability, serve, online) and
# retia-cli's smokes through the real binary included.
cargo test -q --workspace

echo "==> perfbench unit tests (the repo benchmark is its own workspace; building it checks the crate APIs it calls)"
# Cargo rewrites perfbench's tracked lock whenever a crate's dependency list
# changed since it was written; put it back on exit, pass or fail, so the
# gate leaves the benchmark's files as it found them.
PERFBENCH_LOCK=$(mktemp)
cp perfbench/Cargo.lock "$PERFBENCH_LOCK"
trap 'cp "$PERFBENCH_LOCK" perfbench/Cargo.lock; rm -f "$PERFBENCH_LOCK"' EXIT
cargo test -q --offline --manifest-path perfbench/Cargo.toml

echo "==> retia-lint (source conventions; allowlist: scripts/lint-allowlist.txt)"
cargo run -q -p retia-analyze --bin retia-lint

echo "==> retia audit gate (shape + interval/finiteness + gradient-flow audit over every ablation config)"
./target/release/retia audit --all-configs

echo "==> retia audit gate at the paper's model size (d=200, 50 kernels)"
./target/release/retia audit --all-configs --dim 200 --channels 50

echo "==> write-set-tracked kernel pass (debug assertions + RETIA_WRITE_TRACK=1)"
RETIA_WRITE_TRACK=1 cargo test -q -p retia-tensor

echo "==> store smoke (generate -> ingest --append x2 -> compact -> query/path/stats/communities/export via the release binary)"
STORE_SMOKE_DIR=target/store-smoke
rm -rf "$STORE_SMOKE_DIR" && mkdir -p "$STORE_SMOKE_DIR"
./target/release/retia generate --profile tiny --out "$STORE_SMOKE_DIR/data"
./target/release/retia ingest --store "$STORE_SMOKE_DIR/store" --from-data "$STORE_SMOKE_DIR/data"
printf 'alpha\tr0\te0\t100000\n' > "$STORE_SMOKE_DIR/f1.tsv"
printf 'e0\tr0\tbeta\t100001\n'  > "$STORE_SMOKE_DIR/f2.tsv"
./target/release/retia ingest --store "$STORE_SMOKE_DIR/store" --facts "$STORE_SMOKE_DIR/f1.tsv" --append
./target/release/retia ingest --store "$STORE_SMOKE_DIR/store" --facts "$STORE_SMOKE_DIR/f2.tsv" --append
./target/release/retia compact --store "$STORE_SMOKE_DIR/store"
# Capture instead of piping into grep -q: -q closes the pipe on first
# match, which would kill the writer with SIGPIPE/broken-pipe mid-print.
QUERY_OUT=$(./target/release/retia query --store "$STORE_SMOKE_DIR/store" --subject alpha)
grep -q 'alpha' <<< "$QUERY_OUT"
./target/release/retia path --store "$STORE_SMOKE_DIR/store" --from alpha --to beta > /dev/null
./target/release/retia stats --store "$STORE_SMOKE_DIR/store" > /dev/null
./target/release/retia communities --store "$STORE_SMOKE_DIR/store" > /dev/null
./target/release/retia export --store "$STORE_SMOKE_DIR/store" --format graphml --out "$STORE_SMOKE_DIR/graph.graphml"

echo "==> loadtest smoke (self-hosted on port 0; exits nonzero on any 5xx, zero QPS, or a burning --slo objective; --online adds a train-active ladder)"
./target/release/retia loadtest --connections 1,4 --requests 25 --ingest-every 10 \
  --slo query:99:30000 --online --out target/BENCH_serve_smoke.json

echo "==> rustdoc with warnings denied (a dangling, private or ambiguous intra-doc link fails)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> all checks passed"
