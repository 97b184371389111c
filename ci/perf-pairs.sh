#!/bin/sh
# Alternating end-to-end benchmark pairs against a reference revision, and
# the rule a performance claim must pass on them:
#
#   ci/perf-pairs.sh REF WORKLOAD FIRST_SEED PAIRS
#
# Exports REF's tracked files with `git archive` into a scratch directory
# (as ci/fronts-vs-ref.sh does; the working tree is the other side, local
# edits included), then runs PAIRS pairs of
#
#   python3 perfbench/run.py --workload WORKLOAD --seed S --seconds T --trace 0
#
# with S = FIRST_SEED, FIRST_SEED+1, ... and T the `run_seconds` of
# BENCHMARK.json, once in REF's tree and once in the working tree per
# pair.  The side that runs first alternates from pair to pair, so a drift
# in host speed does not favour either side.
#
# For every end-to-end metric BENCHMARK.json lists it prints each side's
# median and quartiles, the pairs the change won in the metric's `better`
# direction, whether the claim rule holds (the change wins at least 9 of
# every 10 pairs and its median beats REF's by more than REF's
# interquartile range), and whether the change's median stays within the
# metric's `bound` (a fraction of REF's median).  It also prints each
# side's attempted and failed operations, and every pair as it finishes.
# Quartiles are the inclusive ones of Python's `statistics.quantiles`.
#
# Exits 1 when a run prints no result, 2 on bad arguments.  Reads
# perfbench/ and BENCHMARK.json and edits neither.  Each pair takes a
# minute or more, so this is a tool to back a claim, not a CI step.
. "$(dirname "$0")/lib.sh"

if [ $# -ne 4 ]; then
  echo "usage: ci/perf-pairs.sh REF WORKLOAD FIRST_SEED PAIRS" >&2
  exit 2
fi
ref=$1
workload=$2
first_seed=$3
pairs=$4
case "$first_seed" in '' | *[!0-9]*) echo "perf-pairs: FIRST_SEED must be a number" >&2; exit 2 ;; esac
case "$pairs" in '' | *[!0-9]* | 0) echo "perf-pairs: PAIRS must be a positive number" >&2; exit 2 ;; esac
if ! rev=$(git rev-parse --verify --quiet "$ref^{commit}"); then
  echo "perf-pairs: unknown revision $ref" >&2
  exit 2
fi
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')

mkdir "$scratch/ref"
git archive "$rev" | tar -x -C "$scratch/ref"

# run SIDE SEED: one benchmark run in SIDE's tree; its last line, the
# result, goes to $scratch/SIDE-SEED.json.
run() {
  if [ "$1" = ref ]; then dir=$scratch/ref; else dir=$repo_root; fi
  log=$scratch/$1-$2.log
  (cd "$dir" && python3 perfbench/run.py --workload "$workload" --seed "$2" \
    --seconds "$seconds" --trace 0) > "$log" 2>&1 || true
  tail -n 1 "$log" > "$scratch/$1-$2.json"
  if ! python3 -c 'import json, sys; json.load(open(sys.argv[1]))["metrics"]' \
    "$scratch/$1-$2.json" 2> /dev/null; then
    echo "perf-pairs: the $1 run of seed $2 printed no result:" >&2
    tail -n 20 "$log" >&2
    exit 1
  fi
}

echo "$workload: $pairs pairs from seed $first_seed, ${seconds} s runs, REF $ref ($(git rev-parse --short "$rev")) against the working tree"
i=0
while [ "$i" -lt "$pairs" ]; do
  seed=$((first_seed + i))
  if [ $((i % 2)) -eq 0 ]; then order="ref new"; else order="new ref"; fi
  for side in $order; do
    run "$side" "$seed"
  done
  python3 - "$scratch" "$seed" "${order%% *}" << 'EOF'
import json, sys
scratch, seed, first = sys.argv[1:]
ref = json.load(open("%s/ref-%s.json" % (scratch, seed)))["metrics"]
new = json.load(open("%s/new-%s.json" % (scratch, seed)))["metrics"]
print("  seed %s (%s first): %s" % (seed, first, ", ".join(
    "%s %.6g -> %.6g" % (name, ref[name]["value"], new[name]["value"]) for name in ref)))
EOF
  i=$((i + 1))
done

python3 - "$scratch" "$first_seed" "$pairs" << 'EOF'
import json, math, statistics, sys

scratch, first_seed, pairs = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
spec = json.load(open("BENCHMARK.json"))
seeds = range(first_seed, first_seed + pairs)
runs = {side: [json.load(open("%s/%s-%d.json" % (scratch, side, s))) for s in seeds]
        for side in ("ref", "new")}

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3

needed_wins = math.ceil(0.9 * pairs)
print("%-12s %-6s %-36s %-36s %8s %6s %-6s %s" % (
    "metric", "better", "REF median [q1, q3]", "change median [q1, q3]", "delta", "wins", "claim", "bound"))
for metric in spec["end_to_end"]:
    name, lower = metric["name"], metric["better"] == "lower"
    values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
    (r1, rm, r3), (n1, nm, n3) = quartiles(values["ref"]), quartiles(values["new"])
    better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
    wins = sum(1 for a, b in zip(values["new"], values["ref"]) if better(a, b))
    gap = (rm - nm) if lower else (nm - rm)
    claim = wins >= needed_wins and gap > (r3 - r1)
    limit = rm * (1 + metric["bound"]) if lower else rm * (1 - metric["bound"])
    within = nm <= limit if lower else nm >= limit
    delta = "%+.1f%%" % (100 * (nm - rm) / rm) if rm != 0 else "n/a"
    unit = metric["unit"]
    print("%-12s %-6s %-36s %-36s %8s %6s %-6s %s" % (
        name, metric["better"],
        "%.6g [%.6g, %.6g] %s" % (rm, r1, r3, unit),
        "%.6g [%.6g, %.6g] %s" % (nm, n1, n3, unit),
        delta, "%d/%d" % (wins, pairs), "holds" if claim else "no",
        "within" if within else "OUTSIDE %g" % metric["bound"]))
for side, label in (("ref", "REF"), ("new", "change")):
    attempted = sum(r["attempted"] for r in runs[side])
    failed = sum(r["failed"] for r in runs[side])
    correct = sum(1 for r in runs[side] if r["correct"])
    print("%s: %d operations attempted, %d failed; %d of %d runs correct" % (
        label, attempted, failed, correct, pairs))
print("claim rule: the change wins at least %d of %d pairs and its median beats REF's by more than REF's IQR" % (
    needed_wins, pairs))
EOF
