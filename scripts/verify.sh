#!/usr/bin/env bash
# Full offline verification gate for the workspace. Everything here runs
# with --offline: the workspace has no external dependencies by design
# (DESIGN.md §5), so a registry is never consulted.
#
#   ./scripts/verify.sh          # fmt + pitree-lint + build + tests
#                                # + wake gate (seam, latch and lock-table wake tests in release)
#                                # + fill, image-fill, prefix, log-table, smo-bytes, paper-claims, walker, type-carried rules, alloc, write-hint, pool- and recovery-footprint gates + sim sweeps
#                                # + scenario-twins and first-op gates
#                                # + pitree-check oracle gate (tests/check_props.rs)
#   SKIP_LINT=1 ./scripts/verify.sh   # skip fmt (e.g. toolchain lacks rustfmt)
#
# Clippy has no step of its own: `cargo test` runs it
# (crates/analyze/tests/live_workspace.rs, `workspace_passes_the_clippy_gate`
# runs `cargo clippy --workspace --all-targets -- -D warnings`), and the
# clippy configuration in clippy.toml enforces panic-free recovery, sync
# hygiene and determinism (DESIGN.md §8).
set -euo pipefail
cd "$(dirname "$0")/.."

step() { printf '\n==> %s\n' "$*"; }

if [[ -z "${SKIP_LINT:-}" ]]; then
  if cargo fmt --version >/dev/null 2>&1; then
    step "cargo fmt --check"
    cargo fmt --all -- --check
  else
    echo "warning: rustfmt unavailable; skipping format check" >&2
  fi
fi

step "pitree-lint (protocol discipline gate; prints the per-rule summary)"
mkdir -p target
cargo run --offline -q -p analyze -- . --dot target/latch_order.dot

step "latch-order graph is acyclic (paper 4.1; artifact: target/latch_order.dot)"
grep -q '^// acyclic: true$' target/latch_order.dot || {
  echo "latch-acquisition order graph has a cycle; see target/latch_order.dot" >&2
  exit 1
}
# The graph must also keep every measured edge (15): if the parser silently
# stopped seeing acquisitions the cycle check would pass vacuously.
edges="$(grep -c ' -> ' target/latch_order.dot || true)"
if [[ "$edges" -lt 15 ]]; then
  echo "latch-order graph has only $edges edges; the flow analysis is blind" >&2
  exit 1
fi

step "cargo build --release (-D warnings)"
RUSTFLAGS="-D warnings" cargo build --release --offline

step "pitree-lint wall-clock budget (whole-workspace flow analysis stays cheap)"
lint_start=$SECONDS
./target/release/pitree-lint . >/dev/null
lint_elapsed=$(( SECONDS - lint_start ))
if [[ "$lint_elapsed" -ge 10 ]]; then
  echo "pitree-lint took ${lint_elapsed}s (budget 10s); the fixpoints are diverging" >&2
  exit 1
fi

step "cargo test (workspace; includes the clippy -D warnings gate)"
cargo test --offline -q

step "wake gate (release, where a lost wakeup's window is narrowest: the sync seam's parked-count and lost-wakeup stress tests, the latch tests that wait on Latch::parked, and the lock-table tests that wait on LockTable::wait_count)"
cargo test --offline --release -q -p pitree-pagestore --lib -- sync:: latch::
cargo test --offline --release -q -p pitree-pagestore --test latch_sim
cargo test --offline --release -q -p pitree-txnlock --test lock_sim --test move_lock_edges

step "fill gate (the split lands where the insert does: ascending and interleaved loads leave full nodes, random ones split as before)"
cargo test --offline -q -p pitree --test fill -- --nocapture | grep -E 'fill: |^test result'
cargo test --offline -q -p pitree-hb --test hb_tests -- --nocapture \
  default_nodes_split_when_the_page_is_full small_nodes_load_still_splits_where_it_did \
  | grep -E 'hb fill: |^test result'

step "image-fill gate (a multi_struct-shaped image through the public API: hB data nodes split when the page is full, >= 60% full)"
cargo test --offline -q -p pitree-harness --test image_fill -- --nocapture | grep -E 'image_fill: |^test result'

step "prefix gate (keyed pages store key suffixes after their first and last key's common prefix, each record behind a 2-byte slot and one-byte lengths: build_pi's shape at 50k keys <= 22.0 leaf bytes per entry and <= 0.95 page bytes per user byte; TSB <= 31.3 bytes per version, hB <= 30.5 per record)"
cargo test --offline -q -p pitree-harness --test image_fill -- --nocapture | grep -E 'prefix: |^test result'

step "log-table gate (the log's records and bytes per record kind x redo PageOp x undo kind, from a scan of both benchmark-shaped images' logs: totals pinned, no FullImage)"
cargo test --offline -q -p pitree-harness --test image_fill -- --nocapture | grep -E 'log_table: |^test result'

step "smo-bytes gate (the engine's split and posting drivers write the parent's bytes: log length, log hash, page hash, LSN-free page content hash and SMO counters per structure script)"
cargo test --offline -q -p pitree-harness --test smo_bytes

step "paper-claims gate (deterministic, pinned: E1 interior X orders pi-tree < optimistic < lock coupling, only serial SMO goes tree-wide; E2 SMO actions touch <= 4 pages; E5/E6 postings latch 1 node unless they re-traverse; E7 consolidation reclaims, stale completions are no-ops. F1/F2, E3 and E4 ran in the workspace tests above: figure_1_topology, figure_2_structure, log_prefix_sweep_during_split_storm, in_txn_split_counting_page_oriented)"
# One test at a time keeps each claim's lines together; a test's first line
# follows the previous test's progress dot, which sed strips.
cargo test --offline -q -p pitree-harness --test paper_claims -- --nocapture --test-threads 1 \
  | sed 's/^\.*//' | grep -E '^e1 |^e2 |^e6 |^e7 |^test result'

step "walker gate (one well-formedness walk for B-link, TSB and hB: every walker_rejects_* test damages a page and the walk must report it)"
walker_out="$(cargo test --offline -q -p pitree -p pitree-tsb -p pitree-hb walker_rejects_ 2>&1)"
walkers="$(awk '/^test result: ok\./ { n += $4 } END { print n + 0 }' <<<"$walker_out")"
echo "walker gate: $walkers walker_rejects_* tests passed"
if [[ "$walkers" -lt 17 ]]; then
  echo "only $walkers walker_rejects_* tests ran (17 at the unified walk); the walk lost teeth" >&2
  exit 1
fi

step "type-carried rules gate (log-before-dirty and No-Wait are types: each compile_fail doctest on XGuard, PinnedPage and NoWait fails with the error code it pins, beside a compiling twin)"
# Stable rustdoc checks that a compile_fail doctest fails to compile, not
# which error it fails with; RUSTC_BOOTSTRAP=1 turns the error-code check
# on. Its own target dir keeps the main build's fingerprints.
if ! types_out="$(RUSTC_BOOTSTRAP=1 CARGO_TARGET_DIR=target/doctest-codes \
  cargo test --offline --doc -p pitree-pagestore -p pitree-txnlock 2>&1)"; then
  echo "$types_out" >&2
  exit 1
fi
typed="$(grep -c -- ' - compile fail \.\.\. ok$' <<<"$types_out" || true)"
echo "type-carried rules gate: $typed compile_fail doctests rejected as pinned"
if [[ "$typed" -lt 6 ]]; then
  echo "only $typed compile_fail doctests ran (6 when the types took over log-before-dirty and No-Wait); the types lost teeth" >&2
  exit 1
fi

step "alloc gate (Π-tree get, TSB get_as_of and hB get allocate exactly once per hit, never on a miss; 4,096 ascending inserts allocate a pinned count, none in the log append)"
cargo test --offline --release -q -p pitree-harness --test alloc_gate

step "write-hint gate (a B-link write starts at the last leaf written only when the trust rule and the leaf's unchanged state id allow it: a consolidated leaf under NotAnUpdate, a freed and re-used page under IsAnUpdate, interleaved appenders, page locks per UNDO policy; and the loader's cost row, 4,096 ascending inserts' fetches, latches, locks and allocations pinned)"
cargo test --offline --release -q -p pitree --test write_hint
cargo test --offline --release -q -p pitree-harness --test alloc_gate steady_state_inserts_allocate_a_pinned_count

step "footprint gate (a 32,768-frame pool allocates its frames, not 128 MB of pages; one page buffer per resident page and per FileDisk miss)"
cargo test --offline --release -q -p pitree-pagestore --test pool_footprint -- --nocapture | grep -E 'pool_footprint: |^test result'

step "recovery footprint gate (start_instant peaks a window and the plan's build over the plan it returns; the plan holds at most 24 B per owed record; the drain peaks under a quarter of the decoded-op plan it replaced; at a 256 KB and a 1 MB suffix, over a mem and a file log)"
cargo test --offline --release -q -p pitree-wal --test recovery_footprint -- --nocapture | grep -E 'recovery_footprint: |^test result'

step "sim acceptance sweep (the same crash oracle: 64 seeds crash-recover-verify, 32 seeds crash-during-recovery; plus the shake)"
cargo test --offline -q -p pitree-sim --test sim_sweep -- --nocapture

step "pitree-check oracle gate (differential + linearizability + durability via the crash oracle, 8 seeds a layer, durability totals pinned; the lost-write, stale-read, truncated-value and lost-commit fixtures rejected here, ack-before-durable and the durability stale read in the workspace tests above)"
cargo test --offline --release -q -p pitree-check --test check_props -- --nocapture \
  | sed 's/^\.*//' | grep -E '^check_props: |^test result'

step "rustdoc gate (zero warnings, broken intra-doc links are errors)"
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links -D warnings" \
  cargo doc --offline --no-deps --workspace

step "obstop smoke (observability report)"
out="$(cargo run --offline --release -q --bin obstop)"
for metric in latch.acquire_s buf.misses wal.appends lock.acquires \
              tree.splits tree.write_hint_hits tree.write_hint_misses \
              recovery.redo_ns; do
  grep -q "$metric" <<<"$out" || { echo "obstop report missing $metric" >&2; exit 1; }
done

step "commit-schedule determinism (two fixed seeds, run twice each)"
for i in 1 2; do
  cargo test --offline -q -p pitree-wal --test commit_schedule -- \
    seeded_schedule >/dev/null
done

step "scenario-twins gate (every scenario::matrix() spec's oracle twins at 8 seeds: differential + durability sweep + TSB/hB model twin; totals pinned per spec)"
cargo test --offline -q -p pitree-harness --test scenario_twins -- --nocapture | grep -E 'scenario_twins: |^test result'

step "first-op gate (instant restart: the first get after recover_instant redoes its leaf's path on demand, not the plan)"
cargo test --offline -q -p pitree-harness --test instant_restart -- --nocapture \
  first_op_after_instant_restart_redoes_a_path_not_the_plan | grep -E 'instant_restart: |^test result'

step "ThreadSanitizer suites (skips cleanly without an instrumented nightly)"
./scripts/tsan.sh

step "size ledger (report-only: src/test lines per crate, delta vs LOC.txt)"
./scripts/loc.sh || echo "warning: loc.sh failed; the size ledger is report-only" >&2

printf '\nverify.sh: all checks passed\n'
