#!/usr/bin/env bash
# Parent-vs-change benchmark pairs, both sides built at the same path.
#
#   scripts/bench_pairs.sh PARENT CHANGE [WORKLOADS] [PAIRS]
#
# PARENT and CHANGE are git revisions of this repository (for uncommitted
# work: `git add -A && git stash create` prints a commit of the index and
# working tree without touching either). WORKLOADS is a comma-separated
# list (default: every workload in BENCHMARK.json); PAIRS defaults to 10.
#
# Both revisions are checked out in turn in ONE scratch clone and built
# there, because the code layout (and with it the kernel workloads'
# timing) depends on the checkout path. Each pair runs both binaries on
# every workload, alternating which side goes first. The result is the
# Markdown table CHANGES.md records: per workload and end-to-end metric of
# BENCHMARK.json, each side's median (q1–q3), change ÷ parent, the pairs
# in which the change was better, the parent's IQR, the bound in absolute
# terms, and a verdict. Raw result lines stay under $BENCH_PAIRS_DIR/runs.
#
# Environment: BENCH_PAIRS_DIR (scratch directory, default
# ${TMPDIR:-/tmp}/skymr-bench-pairs), BENCH_SEED (default 1),
# BENCH_SECONDS (default: BENCHMARK.json's run_seconds), and any
# variable the benchmark itself honours (e.g. MALLOC_MMAP_THRESHOLD_).
set -euo pipefail

if [[ $# -lt 2 || $# -gt 4 ]]; then
    sed -n '2,22p' "$0" | sed 's/^# \{0,1\}//'
    exit 2
fi

repo=$(git -C "$(dirname "$0")/.." rev-parse --show-toplevel)
spec="$repo/BENCHMARK.json"
parent=$(git -C "$repo" rev-parse --verify "$1^{commit}")
change=$(git -C "$repo" rev-parse --verify "$2^{commit}")
all_workloads=$(python3 -c 'import json,sys; print(",".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$spec")
IFS=, read -r -a workloads <<<"${3:-$all_workloads}"
pairs=${4:-10}
seconds=${BENCH_SECONDS:-$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$spec")}
seed=${BENCH_SEED:-1}
dir=${BENCH_PAIRS_DIR:-${TMPDIR:-/tmp}/skymr-bench-pairs}

mkdir -p "$dir/bin"
rm -rf "$dir/runs"
if [[ ! -d "$dir/src/.git" ]]; then
    # --shared: the clone reads the repository's object store, so any
    # commit in it (a stash commit too) can be checked out.
    git clone -q --shared "$repo" "$dir/src"
fi
for side in parent change; do
    rev=${!side}
    git -C "$dir/src" checkout -q --detach "$rev"
    echo "building $side ($rev) in $dir/src" >&2
    cargo build --release --quiet --offline --manifest-path "$dir/src/benchmark/Cargo.toml"
    cp "$dir/src/benchmark/target/release/skymr-benchmark" "$dir/bin/$side"
done

for ((p = 1; p <= pairs; p++)); do
    if ((p % 2)); then order=(parent change); else order=(change parent); fi
    for w in "${workloads[@]}"; do
        for side in "${order[@]}"; do
            mkdir -p "$dir/runs/$side"
            # The binary writes to its checkout's benchmark/out: run it there.
            (cd "$dir/src" && "$dir/bin/$side" --workload "$w" --seed "$seed" \
                --seconds "$seconds" --trace 0) | tail -n 1 >"$dir/runs/$side/$w.$p.json"
            echo "pair $p/$pairs $w $side done" >&2
        done
    done
done

python3 - "$spec" "$dir/runs" "$pairs" "${workloads[@]}" <<'EOF'
import json, statistics, sys

spec_path, runs, pairs, workloads = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4:]
metrics = json.load(open(spec_path))["end_to_end"]

def load(side, w):
    rows = [json.loads(open(f"{runs}/{side}/{w}.{p}.json").read()) for p in range(1, pairs + 1)]
    return rows

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

def fmt(x):
    return f"{x:.4g}"

print("| workload | metric | parent median (q1–q3) | change median (q1–q3) "
      "| change/parent | change better in | parent IQR | bound (abs) | verdict |")
print("|---|---|--:|--:|--:|--:|--:|--:|---|")
failed = []
for w in workloads:
    sides = {s: load(s, w) for s in ("parent", "change")}
    for s, rows in sides.items():
        bad = sum(r["failed"] for r in rows)
        wrong = sum(not r["correct"] for r in rows)
        if bad or wrong:
            failed.append(f"{w} {s}: {bad} failed operations, {wrong} incorrect runs")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        a = [r["metrics"][name]["value"] for r in sides["parent"]]
        b = [r["metrics"][name]["value"] for r in sides["change"]]
        (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
        bound = m["bound"] * am
        better = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        ties = sum(x == y for x, y in zip(a, b))
        worse_by = (bm - am) if lower else (am - bm)
        if a == b:
            verdict = "identical"
        elif worse_by > bound:
            verdict = "WORSE beyond bound"
        elif max(a3 - a1, b3 - b1) > bound:
            verdict = "within bound; spread > bound (unresolved)"
        elif better >= 0.9 * pairs and -worse_by > a3 - a1:
            verdict = "better (≥ 9/10, beyond parent IQR)"
        else:
            verdict = "within bound"
        ratio = bm / am if am else float("nan")
        print(f"| `{w}` | `{name}` | {fmt(am)} ({fmt(a1)}–{fmt(a3)}) | {fmt(bm)} ({fmt(b1)}–{fmt(b3)}) "
              f"| {ratio:.3f} | {better}/{pairs} (ties {ties}) | {fmt(a3 - a1)} | {fmt(bound)} | {verdict} |")
for line in failed:
    print(f"\nFAILED: {line}")
EOF
