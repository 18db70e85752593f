#!/bin/sh
# Regenerates results/all_figures.txt: runs every [[bench]] target that
# crates/bench/Cargo.toml names, at full scale, each under a
# "### <target>" heading. `micro` is left out: it prints host times,
# which differ from run to run. Usage: sh results/regenerate.sh
set -eu
cd "$(dirname "$0")/.."
unset GH_FAST GH_TRACE GH_TRACE_OUT
out=results/all_figures.txt
targets=$(awk '/^\[\[bench\]\]/ { b = 1; next }
    b && $1 == "name" { gsub(/"/, "", $3); print $3; b = 0 }' crates/bench/Cargo.toml)
cargo bench -q -p gh-bench --no-run
: > "$out"
for t in $targets; do
    [ "$t" = micro ] && continue
    echo "### $t" >> "$out"
    cargo bench -q -p gh-bench --bench "$t" >> "$out"
done
