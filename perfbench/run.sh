#!/usr/bin/env bash
# Build hlpower and the benchmark from source, then run one workload:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -f bin/hlpower.ml ]; then
  echo "perfbench: not an hlpower source tree (bin/hlpower.ml missing)" >&2
  exit 2
fi
# the shared dune cache would write outside the source tree
DUNE_CACHE=disabled dune build ./bin/hlpower.exe ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
