#!/bin/sh
# Build the benchmark from this checkout's sources, then run it.
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to stderr; the report (last line: one JSON object)
# to stdout.  The dune cache is disabled so nothing is written outside
# the checkout.
set -eu
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . --display quiet ./perfbench/bin/main.exe 1>&2
exec ./_build/default/perfbench/bin/main.exe "$@"
