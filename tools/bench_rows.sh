#!/usr/bin/env bash
# Deterministic BENCH rows check: diff the rows of BENCH_*.json that a
# simulated run reproduces bit for bit — e12 and e18 (BENCH_wire.json),
# e13 and the sim rows of e19 (BENCH_pipeline.json), the sim rows of
# e17 (BENCH_transport.json), e14 (BENCH_shard.json) and e15
# (BENCH_overload.json) — in the working tree against the same rows
# committed at REV (default HEAD), and the sorted names of the codec
# subjects in BENCH_wire.json, which embed the reference payloads'
# encoded sizes: a size change must ship with its regenerated JSON.
# Prints the difference and exits 1 if there is one. Wall-clock rows
# (e16, the tcp rows) and ns/op figures are left out: they move with
# the host.
#
# Usage (from anywhere inside the repo; needs jq), after
# `dune exec bench/main.exe` has rewritten the JSONs:
#   bash tools/bench_rows.sh [REV]
set -euo pipefail
shopt -s inherit_errexit
cd "$(dirname "$0")/.."

# One compact JSON line per row, prefixed with its file and table; the
# working tree's files when $1 is empty, REV's otherwise. Filters name
# tables as .["e12"]: jq 1.6 lexes .e12 as a number.
rows() {
  local rev=$1 file table filter
  while read -r file table filter; do
    if [ -z "$rev" ]; then cat "$file"; else git show "$rev:$file"; fi |
      jq -c "$filter" | sed "s/^/$file $table /"
  done <<'EOF'
BENCH_wire.json e12 .["e12"][]
BENCH_wire.json e18 .["e18"][]
BENCH_wire.json codec [.["codec"][].subject] | sort | .[]
BENCH_pipeline.json e13 .["e13"][]
BENCH_pipeline.json e19 .["e19"][] | select(.backend == "sim")
BENCH_transport.json e17 .["e17"][] | select(.backend == "sim")
BENCH_shard.json e14 .["e14"][]
BENCH_overload.json e15 .["e15"][]
EOF
}

rev=${1:-HEAD}
committed=$(rows "$rev")
fresh=$(rows "")
if ! diff -u --label "$rev" --label "working tree" <(echo "$committed") <(echo "$fresh"); then
  echo "deterministic BENCH rows differ from $rev: regenerate them with bench/main.exe" >&2
  exit 1
fi
