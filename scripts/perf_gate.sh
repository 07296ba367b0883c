#!/bin/sh
# Perf-trajectory gate for BenchReport artifacts (src/bench/bench_report.h).
#
# Gates every baselined bench, or a named subset:
#
#   perf_gate.sh <baselines_dir> <current_dir> [bench ...]
#
# Holds each <current_dir>/BENCH_<bench>.json against its checked-in
# <baselines_dir>/BENCH_<bench>.json, metric by metric, under the rules in
# <baselines_dir>/gate.conf.  One rule per line:
#
#   <bench|*> <metric> <mode> <value>
#
#   table1  wall_seconds    max_increase_pct  20   # slower than baseline
#   load    throughput_rps  max_decrease_pct  50   # lower than baseline
#   load    busy_rate       max_abs_increase  0.2  # baseline + 0.2 tops
#   load    wall_seconds    ignore                 # duration-budgeted run
#   *       wall_seconds    max_increase_pct  20   # default for the rest
#
# A bench-specific rule overrides the `*` rule for the same metric
# (including with `ignore`).  Metrics are the flat numeric top-level
# members of the artifact.  Without bench arguments every BENCH_*.json in
# the baselines directory is gated, so a new checked-in baseline joins the
# trajectory automatically.
#
# Exit codes: 0 every rule held, 1 a metric moved beyond its tolerance,
# 2 structural failure — missing file, missing metric, unknown mode, or a
# current artifact stamped with injected faults (a chaos experiment, not a
# performance run).  Baselines are refreshed deliberately: rerun the bench
# with the same CLKTUNE_* env on the reference machine and copy its
# BENCH_*.json over.
set -eu

usage() {
  echo "usage: perf_gate.sh <baselines_dir> <current_dir> [bench ...]" >&2
  exit 2
}

# Flat top-level member of a BenchReport artifact (2-space indent, numeric
# value).  Anchoring to the indent keeps same-named members of nested
# objects (verbs, workload, ...) out of the match.
metric_of() {
  sed -n 's/^  "'"$2"'": *\([0-9.eE+-]*\),\{0,1\}$/\1/p' "$1" | head -n 1
}

require_file() {
  if [ ! -f "$1" ]; then
    # A missing bench file means the bench never ran (or wrote elsewhere)
    # — that must hard-fail the gate, not slip through as an empty
    # comparison.
    echo "perf_gate: bench file $1 does not exist" >&2
    exit 2
  fi
}

# A bench that ran with the fault registry armed measured a chaos
# experiment, not performance — never gate (or baseline) on it.
require_fault_free() {
  faults=$(metric_of "$1" faults_injected)
  if [ -n "$faults" ] && [ "$faults" -ne 0 ]; then
    echo "perf_gate: $1 ran with $faults injected faults" \
         "(fault registry armed) — not a performance run" >&2
    exit 2
  fi
}

# check <bench> <metric> <mode> <limit> <base> <cur>: prints one verdict
# line, returns 1 when the metric moved beyond its tolerance.
check() {
  awk -v bench="$1" -v m="$2" -v mode="$3" -v lim="$4" \
      -v base="$5" -v cur="$6" 'BEGIN {
    fail = 0
    if (mode == "max_increase_pct") {
      pct = base != 0 ? (cur - base) / base * 100.0 : (cur > 0 ? 1e9 : 0)
      verdict = sprintf("%+.1f%%, limit +%g%%", pct, lim)
      fail = cur > base * (1.0 + lim / 100.0)
    } else if (mode == "max_decrease_pct") {
      pct = base != 0 ? (cur - base) / base * 100.0 : 0
      verdict = sprintf("%+.1f%%, limit -%g%%", pct, lim)
      fail = cur < base * (1.0 - lim / 100.0)
    } else if (mode == "max_abs_increase") {
      verdict = sprintf("%+g, limit +%g", cur - base, lim)
      fail = cur > base + lim
    } else {
      printf "perf_gate: unknown gate mode \"%s\"\n", mode > "/dev/stderr"
      exit 2
    }
    printf "perf_gate: %s %s %g vs baseline %g (%s)%s\n",
           bench, m, cur, base, verdict, fail ? "  FAIL" : ""
    exit fail ? 1 : 0
  }'
}

[ $# -ge 2 ] || usage
bdir=$1
cdir=$2
shift 2
if [ ! -d "$bdir" ] || [ ! -d "$cdir" ]; then
  echo "perf_gate: $bdir and $cdir must be directories" >&2
  usage
fi
conf="$bdir/gate.conf"
if [ ! -f "$conf" ]; then
  echo "perf_gate: no gate rules at $conf" >&2
  exit 2
fi

if [ $# -gt 0 ]; then
  benches=$*
else
  benches=$(ls "$bdir"/BENCH_*.json 2>/dev/null \
            | sed 's|.*/BENCH_\(.*\)\.json|\1|')
  if [ -z "$benches" ]; then
    echo "perf_gate: no BENCH_*.json baselines in $bdir" >&2
    exit 2
  fi
fi

rules=$(mktemp)
trap 'rm -f "$rules"' EXIT
status=0

for bench in $benches; do
  base_file="$bdir/BENCH_$bench.json"
  cur_file="$cdir/BENCH_$bench.json"
  require_file "$base_file"
  require_file "$cur_file"
  require_fault_free "$cur_file"

  # Resolve this bench's rules: its own lines, plus `*` lines for metrics
  # it does not configure itself.  Later duplicates win.
  awk -v bench="$bench" '
    /^[[:space:]]*(#|$)/ { next }
    $1 == bench { if (!($2 in own)) order[n++] = $2; own[$2] = $3 " " $4 }
    $1 == "*"   { if (!($2 in any)) worder[m++] = $2; any[$2] = $3 " " $4 }
    END {
      for (i = 0; i < m; i++)
        if (!(worder[i] in own)) print worder[i], any[worder[i]]
      for (i = 0; i < n; i++) print order[i], own[order[i]]
    }' "$conf" > "$rules"

  if [ ! -s "$rules" ]; then
    echo "perf_gate: no gate rules apply to bench \"$bench\"" >&2
    exit 2
  fi

  while read -r metric mode limit; do
    [ "$mode" = ignore ] && continue
    base=$(metric_of "$base_file" "$metric")
    cur=$(metric_of "$cur_file" "$metric")
    if [ -z "$base" ] || [ -z "$cur" ]; then
      echo "perf_gate: metric \"$metric\" missing in $base_file or" \
           "$cur_file" >&2
      exit 2
    fi
    rc=0
    check "$bench" "$metric" "$mode" "${limit:-}" "$base" "$cur" || rc=$?
    if [ "$rc" -eq 2 ]; then
      exit 2
    elif [ "$rc" -ne 0 ]; then
      status=1
    fi
  done < "$rules"
done

exit $status
