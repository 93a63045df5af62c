#!/usr/bin/env bash
# Check EXPERIMENTS.md's Table II against the tree: count every bundled
# NF's core and integration lines with bench_table2_loc and fail when any
# "ours core / added" cell of the table differs from the count.
#
# Usage: tools/check_table2.sh [BUILD_DIR]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
build="${1:-build}"
bench="$(realpath "${build}/bench/bench_table2_loc")"
src="$(realpath src/nf)"

# bench_table2_loc writes its JSON into the working directory.
scratch="$(mktemp -d)"
trap 'rm -rf "${scratch}"' EXIT

# Rows of the bench's table: "<NF> <core> <added> <overhead>%".
counted="$(cd "${scratch}" && "${bench}" "${src}" 2>/dev/null |
  awk 'NF == 4 && $2 ~ /^[0-9]+$/ && $3 ~ /^[0-9]+$/ { print $1, $2, $3 }')"

# Rows of the document's table:
#   "| <NF> [(extra)] | <paper> | <core> / <added> (+x%) |".
documented="$(awk -F'|' '
  /^## Table II/ { in_table = 1; next }
  in_table && /^## / { exit }
  in_table && $4 ~ /[0-9]+ \/ [0-9]+/ {
    name = $2; sub(/\(extra\)/, "", name); gsub(/ /, "", name)
    split($4, cell, "/")
    core = cell[1]; gsub(/[^0-9]/, "", core)
    added = cell[2]; sub(/\(.*/, "", added); gsub(/[^0-9]/, "", added)
    print name, core, added
  }' EXPERIMENTS.md)"

if [ -z "${counted}" ] || [ "${counted}" != "${documented}" ]; then
  echo "EXPERIMENTS.md Table II differs from bench_table2_loc" \
       "(< documented, > counted):" >&2
  diff <(echo "${documented}") <(echo "${counted}") >&2 || true
  exit 1
fi
echo "Table II matches bench_table2_loc:"
echo "${counted}"
