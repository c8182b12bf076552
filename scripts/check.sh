#!/usr/bin/env bash
# Repo-wide hygiene gate: formatting, lints, tests. Run before every commit.
# All cargo invocations are --offline; the workspace builds with no registry.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

# The trace-table docs live inside the `trace_tables!` invocation, where
# only rustdoc checks their links. (rustdoc does not lint docs expanded
# from another crate's macro, so links in `record!` rows go unchecked.)
# integration-tests stays out: its generated `src/generated_demo_u.rs`
# (pinned by codegen_golden) carries EDL attributes that rustdoc reads as
# links.
echo "== cargo doc (deny warnings: every library crate)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline -q -p sim-core -p sim-threads \
    -p sgx-sim -p sgx-edl -p sgx-sdk -p sgx-fleet -p eventdb -p sgx-perf -p workloads \
    -p sgxperf-cli -p sgx-perf-bench

# perfbench is its own workspace, so nothing above builds it; it reaches
# into the public API (hooks, sessions, the analyzer) from outside.
echo "== cargo check perfbench"
cargo check --offline --manifest-path perfbench/Cargo.toml --all-targets

echo "== cargo test"
cargo test -q --offline

echo "All checks passed."
