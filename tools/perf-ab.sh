#!/usr/bin/env bash
# A/B one `perf` workload: a base revision against the working tree.
#
#   tools/perf-ab.sh <rev> <workload> [pairs] [seconds]
#
# <rev> is exported with `git archive` into a temporary directory (the
# repository's .git is only read) and its `perf` is built there from its own
# manifest; the working tree's `perf` is built from its manifest in place,
# into the same target directory the benchmark command uses. Both builds are
# offline. It runs `pairs` pairs (default 5), each one base run and one
# change run of `perf --workload <workload> --seed $SEED --seconds <seconds>
# --trace 0` (SEED defaults to 7, seconds to 20); odd pairs run the base
# first, even pairs the change first, so drift toward the later slot
# favours neither side. The summary gives, per end-to-end metric of
# BENCHMARK.json, each side's median and quartiles and in how many pairs
# the change was better, then in how many pairs `result_checksum` was
# equal. The temporary directory is removed on exit.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 4 ]; then
    echo "usage: $0 <rev> <workload> [pairs] [seconds]" >&2
    exit 2
fi
rev=$1
workload=$2
pairs=${3:-5}
seconds=${4:-20}
seed=${SEED:-7}

root=$(git rev-parse --show-toplevel)
manifest=crates/bench/src/bin/perf/Cargo.toml
work=$(mktemp -d "${TMPDIR:-/tmp}/perf-ab.XXXXXX")
trap 'rm -rf "$work"' EXIT

mkdir "$work/base" "$work/runs"
git -C "$root" archive "$rev" | tar -x -C "$work/base"

build() { # <checkout dir> -> path of its perf binary
    cargo build --release --offline --quiet --manifest-path "$1/$manifest" >&2
    echo "$1/crates/bench/src/bin/perf/target/release/perf"
}
echo "building perf at $rev and in the working tree" >&2
base_bin=$(build "$work/base")
change_bin=$(build "$root")

# perf writes its scratch files under the current directory
cd "$work/runs"
for i in $(seq 1 "$pairs"); do
    order="base change"
    [ $((i % 2)) = 0 ] && order="change base"
    for side in $order; do
        bin=${side}_bin
        echo "pair $i/$pairs: $side" >&2
        "${!bin}" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
            > "$side.$i.json" 2> /dev/null || echo "  $side run $i exited non-zero" >&2
    done
done

python3 - "$root/BENCHMARK.json" "$work/runs" "$pairs" "$workload" "$rev" <<'EOF'
import json, sys

contract, runs, pairs, workload, rev = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4], sys.argv[5]
metrics = json.load(open(contract))["end_to_end"]

def load(side, i):
    detail, result = [json.loads(l) for l in open(f"{runs}/{side}.{i}.json") if l.strip()][-2:]
    return detail["detail"], result

def quartiles(xs):
    xs = sorted(xs)
    def at(p):  # linear interpolation between closest ranks
        k = (len(xs) - 1) * p
        lo = int(k)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)
    return at(0.25), at(0.5), at(0.75)

runs_by_side = {s: [load(s, i) for i in range(1, pairs + 1)] for s in ("base", "change")}
print(f"{workload}: {rev} (base) vs working tree (change), {pairs} pairs, "
      f"base first in odd pairs, change first in even")
print(f"{'metric':<22}{'base q1 / median / q3':>34}{'change q1 / median / q3':>36}{'wins':>8}")
for m in metrics:
    name, lower = m["name"], m["better"] == "lower"
    vals = {s: [r[1]["metrics"][name]["value"] for r in runs_by_side[s]] for s in runs_by_side}
    wins = sum((c < b) if lower else (c > b) for b, c in zip(vals["base"], vals["change"]))
    fmt = lambda q: " / ".join(f"{x:.4g}" for x in q)
    print(f"{name:<22}{fmt(quartiles(vals['base'])):>34}{fmt(quartiles(vals['change'])):>36}"
          f"{wins:>5}/{pairs}")
same = sum(b[0]["result_checksum"] == c[0]["result_checksum"]
           for b, c in zip(runs_by_side["base"], runs_by_side["change"]))
failed = {s: sum(r[1]["failed"] for r in runs_by_side[s]) for s in runs_by_side}
print(f"result_checksum equal in {same}/{pairs} pairs; "
      f"failed operations: base {failed['base']}, change {failed['change']}")
EOF
