#!/usr/bin/env bash
# Two sets of runs of the same code, to show that the benchmark agrees with
# itself within its own bounds.
#
#   benchmark/repeat.sh [runs-per-set] [seconds]      (defaults: 5, run_seconds)
#   LOAD=1 benchmark/repeat.sh ...                     set B runs while one
#                                                      busy loop per core competes
#
# Every run gets another seed. The sets alternate in time (A B B A A B ...),
# so a slow stretch of the machine lands on both. For every workload and
# end-to-end metric it prints each set's median and quartiles and exits
# non-zero when the set medians differ, or either set's quartiles spread, by
# more than the metric's bound in BENCHMARK.json.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
runs=${1:-5}
seconds=${2:-$(python3 -c "import json; print(json.load(open('$here/../BENCHMARK.json'))['run_seconds'])")}
mkdir -p "$here/out"
results=$here/out/repeat-$$.txt
: >"$results"
hogs=""
stop_hogs() {
    for pid in $hogs; do kill "$pid" 2>/dev/null || true; done
    for pid in $hogs; do wait "$pid" 2>/dev/null || true; done
    hogs=""
}
trap 'stop_hogs; rm -f "$results"' EXIT

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin=${CARGO_TARGET_DIR:-$here/target}/release/xg-benchmark
workloads=$(python3 -c "import json; print(' '.join(w['name'] for w in json.load(open('$here/../BENCHMARK.json'))['workloads']))")

echo "machine: $(nproc) cpus, $(grep -m1 'model name' /proc/cpuinfo | cut -d: -f2- | xargs)"
echo "runs per set: $runs, seconds per run: $seconds, load on set B: ${LOAD:-0}"

run_one() { # set seed workload
    if [[ $1 == B && ${LOAD:-0} == 1 ]]; then
        for _ in $(seq "$(nproc)"); do
            (while :; do :; done) &
            hogs="$hogs $!"
        done
    fi
    line=$("$bin" --workload "$3" --seed "$2" --seconds "$seconds" --trace 0 | tail -n 1)
    stop_hogs
    echo "$1 $3 $line" >>"$results"
}

for i in $(seq "$runs"); do
    order="A B"
    if ((i % 2 == 0)); then order="B A"; fi
    for set in $order; do
        seed=$i
        if [[ $set == B ]]; then seed=$((runs + i)); fi
        for w in $workloads; do run_one "$set" "$seed" "$w"; done
    done
done

python3 - "$results" "$here/../BENCHMARK.json" <<'EOF'
import json, statistics, sys

bounds = {m["name"]: m["bound"] for m in json.load(open(sys.argv[2]))["end_to_end"]}
values = {}  # (workload, metric, set) -> values
wrong = []
for row in open(sys.argv[1]):
    which, workload, line = row.split(" ", 2)
    result = json.loads(line)
    if not result["correct"] or result["failed"]:
        wrong.append(f"{workload} set {which}: correct={result['correct']} failed={result['failed']}")
    for name, m in result["metrics"].items():
        values.setdefault((workload, name, which), []).append(m["value"])

def summary(v):
    q1, _, q3 = statistics.quantiles(v, n=4)
    med = statistics.median(v)
    return med, q1, q3, (q3 - q1) / med

print(f"{'workload':<13}{'metric':<18}{'set':<4}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'B vs A':>9}{'bound':>7}")
for workload, name in sorted({(w, n) for w, n, _ in values}):
    a, b = summary(values[workload, name, "A"]), summary(values[workload, name, "B"])
    shift = b[0] / a[0] - 1
    for which, s in (("A", a), ("B", b)):
        tail = f"{shift * 100:>8.2f}%{bounds[name] * 100:>6.0f}%" if which == "B" else ""
        print(f"{workload:<13}{name:<18}{which:<4}{s[0]:>12.6g}{s[1]:>12.6g}{s[2]:>12.6g}{s[3] * 100:>8.2f}%{tail}")
    if abs(shift) > bounds[name]:
        wrong.append(f"{workload} {name}: set medians differ by {shift * 100:.2f}%")
    # The set-up spread is not gated: only its medians are.
    for which, s in (("A", a), ("B", b)):
        if name != "setup_s" and s[3] > bounds[name]:
            wrong.append(f"{workload} {name}: set {which} spreads {s[3] * 100:.2f}%")
for w in wrong:
    print("FAILED", w)
print("repeat: " + ("FAILED" if wrong else "ok: every set median and spread within its bound"))
sys.exit(1 if wrong else 0)
EOF
