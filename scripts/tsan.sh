#!/usr/bin/env bash
# Run the concurrency-heavy test suites under ThreadSanitizer.
#
# The pitree-lint flow rules prove the latch/log *disciplines* statically;
# TSan checks the complementary claim — that the primitives those
# disciplines rest on (the latch table, the sharded buffer pool, the WAL
# group-commit path, the lock manager) contain no data races in the
# interleavings the tests actually drive.
#
# `-Zsanitizer=thread` needs a nightly toolchain with the rust-src
# component (the standard library must be rebuilt instrumented). On a
# machine without one this script *skips* with exit 0 rather than failing:
# it is an extra assurance layer, not a gate the pinned stable toolchain
# could ever pass.
#
#   ./scripts/tsan.sh                # auto-detect nightly, run or skip
#   TSAN_TOOLCHAIN=nightly-2025-06-01 ./scripts/tsan.sh   # pin a nightly
set -euo pipefail
cd "$(dirname "$0")/.."

toolchain="${TSAN_TOOLCHAIN:-nightly}"

if ! command -v rustup >/dev/null 2>&1; then
  echo "tsan.sh: rustup not installed; skipping ThreadSanitizer run" >&2
  exit 0
fi
if ! rustup run "$toolchain" cargo --version >/dev/null 2>&1; then
  echo "tsan.sh: toolchain '$toolchain' unavailable; skipping ThreadSanitizer run" >&2
  exit 0
fi
if ! rustup component list --toolchain "$toolchain" 2>/dev/null \
    | grep -q 'rust-src (installed)'; then
  echo "tsan.sh: rust-src not installed for '$toolchain'; skipping" >&2
  echo "         (rustup component add rust-src --toolchain $toolchain)" >&2
  exit 0
fi

host="$(rustup run "$toolchain" rustc -vV | sed -n 's/^host: //p')"

echo "==> ThreadSanitizer run on $toolchain ($host)"

# Suites whose whole point is cross-thread interleaving: the latch table,
# the sharded buffer pool and the lock-free FileDisk under it (pagestore),
# group commit, the durability broadcast and a lock-free streamed scan
# racing four committers (wal), and two-phase locking (txnlock). Library
# unit tests of the same crates ride along via --lib.
run_tsan() {
  local pkg="$1"; shift
  echo "==> tsan: $pkg $*"
  RUSTFLAGS="-Zsanitizer=thread" \
  RUSTDOCFLAGS="-Zsanitizer=thread" \
  TSAN_OPTIONS="halt_on_error=1" \
    rustup run "$toolchain" cargo test --offline \
      -Zbuild-std --target "$host" -p "$pkg" "$@"
}

run_tsan pitree-pagestore --lib
run_tsan pitree-pagestore --test latch_sim
run_tsan pitree-pagestore --test shard_hammer
run_tsan pitree-pagestore --test filedisk_concurrent
run_tsan pitree-wal --lib
run_tsan pitree-wal --test streamed_scan a_scan_racing_committers
run_tsan pitree-txnlock --lib

echo "tsan.sh: all ThreadSanitizer suites passed"
