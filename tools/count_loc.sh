#!/usr/bin/env bash
# Counts non-blank, non-comment-only lines per library — the method behind
# the TCB accounting table in src/cio/tcb.cc and the LoC deltas quoted in
# CHANGES.md. Run from the repository root:
#
#   tools/count_loc.sh
#
# The tcb.cc table stores rounded values and nothing checks it against this
# script yet (ROADMAP item 4).

set -euo pipefail

count() {
  # shellcheck disable=SC2068
  grep -hvE '^\s*(//.*)?$' $@ 2>/dev/null | wc -l
}

echo "library LoC (non-blank, non-comment-only):"
src_total=0
for dir in src/base src/crypto src/tee src/tls src/net src/virtio \
           src/cio src/blockio src/study src/serve src/prof src/fuzz \
           src/hostsim; do
  n="$(count "$dir"/*.h "$dir"/*.cc)"
  src_total=$((src_total + n))
  printf '  %-14s %6d\n' "$(basename "$dir")" "$n"
done
printf '  %-14s %6d\n' "src total" "$src_total"
printf '  %-14s %6d\n' "tests" "$(count tests/*.cc tests/*.h)"
printf '  %-14s %6d\n' "bench" "$(count bench/*.cc bench/*.h)"
printf '  %-14s %6d\n' "examples" "$(count examples/*.cpp)"
