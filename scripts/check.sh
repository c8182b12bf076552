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
echo "== cargo doc (deny warnings: eventdb, sgx-perf)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline -q -p eventdb -p sgx-perf

echo "== cargo test"
cargo test -q --offline

echo "All checks passed."
