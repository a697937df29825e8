#!/usr/bin/env bash
# Tier-1 test-name guard: every test name in the committed baseline
# (ci/tier1-test-names.txt) must still be discovered by
# `cargo test -- --list`. A refactor that silently drops or renames a
# test fails here even if everything that remains passes. New tests are
# always fine; refresh the baseline with `scripts/check_test_names.sh
# --bless` in the same commit that intentionally renames or removes one,
# and say why in the commit message.
#
# `--all-targets` deliberately excludes doctests: their auto-generated
# names embed line numbers and would churn on every unrelated edit.
# `lightmirm-serve/failpoints` (which turns on `lightmirm-core/failpoints`)
# brings the failpoint-gated chaos and durability suites into the
# listing, so their names are guarded too.
set -euo pipefail
cd "$(dirname "$0")/.."

baseline=ci/tier1-test-names.txt
current=$(mktemp)
trap 'rm -f "$current"' EXIT

cargo test --workspace --all-targets --features lightmirm-serve/failpoints -q -- --list 2>/dev/null \
  | sed -n 's/: test$//p' | sort -u > "$current"

if ! [ -s "$current" ]; then
  echo "error: test discovery produced no names (build failure?)" >&2
  exit 1
fi

if [ "${1:-}" = "--bless" ]; then
  cp "$current" "$baseline"
  echo "blessed $(wc -l < "$baseline") test names into $baseline"
  exit 0
fi

if ! [ -f "$baseline" ]; then
  echo "error: $baseline missing; generate it with $0 --bless" >&2
  exit 1
fi

missing=$(comm -23 <(sort -u "$baseline") "$current")
if [ -n "$missing" ]; then
  echo "tier-1 tests in $baseline are no longer discovered:" >&2
  echo "$missing" >&2
  echo "(intentional removal/rename? re-bless with $0 --bless)" >&2
  exit 1
fi
echo "all $(wc -l < "$baseline") baseline test names still present"
