#!/bin/sh
# Build the benchmark and the an5d binary from the sources of this
# checkout, then run one workload:
#
#   sh perfbench/run.sh --workload solve --seed 1 --seconds 30 --trace 0
#
# Build output goes to stderr; the last line of stdout is the result
# object. The dune shared cache is disabled so the build writes only
# under _build/ of this checkout.
set -eu
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . ./perfbench/perfbench.exe ./bin/an5d.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
