#!/usr/bin/env bash
# Builds the campaign benchmark from source and runs it; every argument
# is passed through (see perfbench/README.md). Run from anywhere inside a
# vulfi source tree:
#   bash perfbench/run.sh --workload fig11-seq --seed 12648430 --seconds 10 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib/vulfi ]; then
  echo "perfbench: not a vulfi source tree (no dune-project or lib/vulfi)" >&2
  exit 2
fi
if ! command -v dune >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
dune build --root . ./perfbench/perfbench.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
