#!/usr/bin/env bash
# Builds the benchmarks and records the performance trajectory for this
# revision: bench_throughput's table goes to stdout and its JSON form is
# written to BENCH_throughput.json at the repo root (likewise blockio and
# server load), so successive revisions can be diffed cell by cell.
# BENCH_claims.json holds paper_claims' rows: the figure and ablation
# measurements and one {"probe", "ok"} row per paper claim, so a claim that
# stops holding fails the diff as well as the binary's own exit code.
#
# BENCH_profile.json is the in-sim cycle-accounting profile: per-stage
# attribution rows from bench_throughput --profile (arms throughput-tx/-rx)
# and bench_server_load --profile (arm server-load), merged into one file.
# The simulated clock makes it byte-deterministic, so it is gated like the
# other baselines — per-stage time with a relative tolerance, share-of-total
# percentages with an absolute drift window (see check_bench.py).
#
# Usage:
#   tools/run_bench.sh [build-dir]          regenerate the committed baselines
#   tools/run_bench.sh --check [build-dir]  run fresh, diff against the
#                                           committed baselines with a
#                                           percentage tolerance, exit
#                                           non-zero on regression (CI gate)
#   tools/run_bench.sh --profile-only [build-dir]
#                                           only the profiled arms +
#                                           BENCH_profile.json (combines with
#                                           --check; the sanitizer CI job uses
#                                           this to gate the profile without
#                                           re-running every table twice)
#
# In --check mode the fresh JSONs are also copied to <build-dir>/bench-fresh/
# so CI can upload them as a repro artifact when the gate fails.
#
# BENCH_TOLERANCE overrides the allowed relative drift (default 0.10);
# BENCH_PCT_TOLERANCE the absolute drift for _pct shares (default 5.0).

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
check_mode=0
profile_only=0
while [[ "${1:-}" == --* ]]; do
  case "$1" in
    --check) check_mode=1 ;;
    --profile-only) profile_only=1 ;;
    *) echo "unknown flag: $1" >&2; exit 2 ;;
  esac
  shift
done
build_dir="${1:-$repo_root/build}"
tolerance="${BENCH_TOLERANCE:-0.10}"
pct_tolerance="${BENCH_PCT_TOLERANCE:-5.0}"

cmake -B "$build_dir" -S "$repo_root" >/dev/null
if [[ "$profile_only" == 1 ]]; then
  cmake --build "$build_dir" --target bench_throughput bench_server_load \
    -j >/dev/null
else
  cmake --build "$build_dir" --target bench_throughput bench_crypto \
    bench_blockio bench_server_load bench_session_churn paper_claims \
    -j >/dev/null
fi

out_dir="$repo_root"
if [[ "$check_mode" == 1 ]]; then
  out_dir="$(mktemp -d)"
  trap 'rm -rf "$out_dir"' EXIT
fi

if [[ "$profile_only" == 1 ]]; then
  "$build_dir/bench/bench_throughput" --mode=throughput \
    --profile "$out_dir/BENCH_profile_throughput.json"
  echo
  "$build_dir/bench/bench_server_load" \
    --profile "$out_dir/BENCH_profile_server.json"
else
  "$build_dir/bench/bench_throughput" --json "$out_dir/BENCH_throughput.json" \
    --profile "$out_dir/BENCH_profile_throughput.json"
  echo
  "$build_dir/bench/bench_crypto"
  echo
  "$build_dir/bench/bench_blockio" --json "$out_dir/BENCH_blockio.json"
  echo
  "$build_dir/bench/bench_server_load" --json "$out_dir/BENCH_server.json" \
    --profile "$out_dir/BENCH_profile_server.json"
  echo
  "$build_dir/bench/bench_session_churn" --json "$out_dir/BENCH_session.json"
  echo
  "$build_dir/bench/paper_claims" --json "$out_dir/BENCH_claims.json"
fi

# Merge the two benches' profile rows into the one committed baseline.
# Deterministic: both inputs are byte-stable and the merge preserves order.
python3 - "$out_dir/BENCH_profile_throughput.json" \
  "$out_dir/BENCH_profile_server.json" "$out_dir/BENCH_profile.json" <<'EOF'
import json, sys
rows = []
for path in sys.argv[1:-1]:
    with open(path) as f:
        rows.extend(json.load(f))
with open(sys.argv[-1], "w") as f:
    json.dump(rows, f, indent=1)
    f.write("\n")
EOF
rm -f "$out_dir/BENCH_profile_throughput.json" \
  "$out_dir/BENCH_profile_server.json"
echo "merged profile rows into $out_dir/BENCH_profile.json"

if [[ "$check_mode" == 1 ]]; then
  echo
  names=(BENCH_profile)
  if [[ "$profile_only" == 0 ]]; then
    names=(BENCH_throughput BENCH_blockio BENCH_server BENCH_session
           BENCH_claims BENCH_profile)
  fi
  status=0
  for name in "${names[@]}"; do
    python3 "$repo_root/tools/check_bench.py" \
      "$repo_root/$name.json" "$out_dir/$name.json" \
      --tolerance "$tolerance" --pct-tolerance "$pct_tolerance" || status=1
  done
  # Keep the fresh JSONs where CI can pick them up as a repro artifact.
  mkdir -p "$build_dir/bench-fresh"
  cp "$out_dir"/BENCH_*.json "$build_dir/bench-fresh/"
  exit "$status"
fi
