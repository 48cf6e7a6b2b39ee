#!/usr/bin/env bash
# Size ledger (the ROADMAP's "finish the diet" direction): src and test
# lines per crate, and the delta against the committed LOC.txt — so every
# PR states its size honestly and "same gates, fewer lines" is visible in
# review. Report-only: this never fails a build.
#
#   ./scripts/loc.sh           # print the table with deltas vs LOC.txt
#   ./scripts/loc.sh --write   # also rewrite LOC.txt (commit it with the PR)
#
# "src" is every .rs file under crates/<crate>/src (unit tests included, as
# the acceptance counts do); "tests" is crates/<crate>/tests plus benches.
set -euo pipefail
cd "$(dirname "$0")/.."

count() { # total lines of the .rs files under the given directories
  local dirs=()
  for d in "$@"; do [[ -d "$d" ]] && dirs+=("$d"); done
  if [[ ${#dirs[@]} -eq 0 ]]; then echo 0; return; fi
  find "${dirs[@]}" -name '*.rs' -print0 | xargs -0 cat 2>/dev/null | wc -l | tr -d ' '
}

ledger() {
  local src_total=0 test_total=0
  for dir in crates/*/; do
    local crate src tests
    crate="$(basename "$dir")"
    src="$(count "$dir/src")"
    tests="$(count "$dir/tests" "$dir/benches")"
    printf '%s %s %s\n' "$crate" "$src" "$tests"
    src_total=$(( src_total + src ))
    test_total=$(( test_total + tests ))
  done
  local root_tests
  root_tests="$(count tests examples)"
  printf '%s %s %s\n' "workspace-tests" 0 "$root_tests"
  printf '%s %s %s\n' "total" "$src_total" "$(( test_total + root_tests ))"
}

now="$(ledger)"
printf '%-16s %8s %8s %8s %8s\n' crate src 'Δsrc' tests 'Δtests'
while read -r crate src tests; do
  old_src='' old_tests=''
  if [[ -f LOC.txt ]]; then
    read -r old_src old_tests < <(awk -v c="$crate" '$1 == c { print $2, $3 }' LOC.txt) || true
  fi
  dsrc='new' dtests='new'
  [[ -n "$old_src" ]] && dsrc="$(printf '%+d' $(( src - old_src )))"
  [[ -n "$old_tests" ]] && dtests="$(printf '%+d' $(( tests - old_tests )))"
  printf '%-16s %8s %8s %8s %8s\n' "$crate" "$src" "$dsrc" "$tests" "$dtests"
done <<<"$now"

if [[ "${1:-}" == "--write" ]]; then
  {
    echo "# crate src-lines test-lines (scripts/loc.sh --write)"
    echo "$now"
  } > LOC.txt
  echo "LOC.txt rewritten"
fi
