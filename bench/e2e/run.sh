#!/usr/bin/env bash
# Build the service and sider_bench from source, then run sider_bench
# with the given arguments, from the root of the source tree:
#
#   bash bench/e2e/run.sh --workload ica_explore --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr; sider_bench's last stdout line is its JSON
# result.  The build cache is off so nothing is written outside the tree.
set -eu
cd "$(dirname "$0")/../.."
dune build --root . --cache=disabled -j 2 ./bin/sider_cli.exe ./bench/e2e/sider_bench.exe 1>&2
exec ./_build/default/bench/e2e/sider_bench.exe "$@"
