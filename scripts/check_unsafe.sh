#!/bin/sh
# Unsafe-indexing hygiene: Bigarray's unchecked accessors skip bounds
# checks, so every call site must sit behind the interior/boundary
# peeling proof documented in Grid's interface. Only the definition
# site and the audited hot-loop modules may mention them; anything
# else in shipped code (lib/, bin/, bench/, examples/) is rejected.
# stream_exec.ml is on the list for its valid-region kernels: each
# level computes runs [s, e) of threads and reads neighbors at t + d
# for one constant delta d per term, or, in the generic kernel, per
# offset (Plan.off_delta, read by the row program's loads). Every
# unsafe access there is covered by the validate-then-unsafe contract
# (Stream_exec.validate_unsafe_contract, see stream_exec.mli), which
# proves runs x deltas per block: s >= 0, e <= n_thr, s + d >= 0 and
# e - 1 + d < n_thr for every run and every delta. Plane loads and
# stores copy runs [s, e) of in-grid threads, one per tile row, from
# grid offset base + t - s of each plane: the same contract proves
# the compute region lies inside the tile, so each such run lies
# within one tile row, and that its first and last offset, base and
# base + e - 1 - s, lie in [0, stride0), and the
# executor checks both grids hold l * stride0 words.
# reference.ml is on the list for its interior rows, the linear
# passes and the row program's loops alike: each reads the source at
# the row's linear position plus an offset's delta, which the
# once-per-sweep peeling proof bounds for every lowered offset, and its
# own float64 rows, which it checks are at least a row wide; its chunk
# loops read their term tables unchecked too, after a once-per-sweep
# check that every chunk's terms lie inside them.
# Tests are exempt — they exercise the accessors' contract on purpose.
# Run from the repository root; exits non-zero listing violations.
set -eu

cd "$(dirname "$0")/.."

allowed="lib/stencil/grid.ml lib/stencil/grid.mli lib/stencil/reference.ml lib/core/stream_exec.ml"

is_allowed() {
  for a in $allowed; do
    [ "$1" = "$a" ] && return 0
  done
  return 1
}

violations=0
for f in $(grep -rlE 'unsafe_(get|set)' lib bin bench examples 2>/dev/null || true); do
  case "$f" in
  *.ml | *.mli) ;;
  *) continue ;;
  esac
  if ! is_allowed "$f"; then
    echo "unsafe accessor outside the audited hot loops: $f" >&2
    grep -nE 'unsafe_(get|set)' "$f" | head -5 >&2
    violations=$((violations + 1))
  fi
done

if [ "$violations" -gt 0 ]; then
  echo "check_unsafe: $violations file(s) use unchecked indexing outside the allowlist" >&2
  exit 1
fi
echo "check_unsafe: unchecked indexing confined to the audited modules"
