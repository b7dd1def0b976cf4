#!/usr/bin/env bash
# Paired A/B of the repository benchmark between two commits.
#
#   scripts/ab.sh <parent-ref> <change-ref> --workload W [--pairs 10] [--seconds 20] [--scale 1]
#
# Each ref's committed files are unpacked (git archive) under
# .bench_build/ab/{parent,change} and built there by that ref's own
# bench/run.sh, so each side runs its own benchmark code under its own
# default.pgo. To measure uncommitted work, `git add -A` and pass
# "$(git stash create)" as the change ref. The pairs run interleaved,
# alternating which side goes first, each the way the driver runs the
# benchmark: --seed 1 --seconds S --trace 0. Every run's full record
# (bench's last.json) is kept in .bench_build/ab/runs/.
#
# Per workload and end-to-end metric the script prints each side's median
# and quartiles over the runs, the pairs the change won and tied, and the
# verdict by bench/README.md's rule: "gain" (or "loss") only over at least
# ten pairs, nine tenths of them won (lost), ties counting for neither, and
# a gap between the medians wider than the distance between the parent's
# own quartiles; otherwise "unresolved". It also says whether the two
# sides' sim_digests agree. Exits 1 if any run was not clean. Needs python3.
set -euo pipefail

usage() {
	echo "usage: scripts/ab.sh <parent-ref> <change-ref> --workload W [--pairs 10] [--seconds 20] [--scale 1]" >&2
	exit 2
}

[ $# -ge 2 ] || usage
parent_ref=$1 change_ref=$2
shift 2
workload="" pairs=10 seconds=20 scale=1
while [ $# -gt 0 ]; do
	[ $# -ge 2 ] || usage
	case $1 in
	--workload) workload=$2 ;;
	--pairs) pairs=$2 ;;
	--seconds) seconds=$2 ;;
	--scale) scale=$2 ;;
	*) usage ;;
	esac
	shift 2
done
[ -n "$workload" ] || usage
case $pairs in '' | *[!0-9]* | 0) echo "ab.sh: --pairs must be a positive integer" >&2; exit 2 ;; esac

cd "$(dirname "${BASH_SOURCE[0]}")/.."
ab="$PWD/.bench_build/ab"
runs="$ab/runs"
rm -rf "$runs"
mkdir -p "$runs"

declare -A sha
for side in parent change; do
	[ $side = parent ] && ref=$parent_ref || ref=$change_ref
	sha[$side]=$(git rev-parse --verify --short "$ref^{commit}")
	# Keep the side's build cache when it already holds this commit.
	if [ "$(cat "$ab/$side.sha" 2>/dev/null)" != "${sha[$side]}" ]; then
		rm -rf "${ab:?}/$side"
		mkdir -p "$ab/$side"
		git archive "${sha[$side]}" | tar -x -C "$ab/$side"
		echo "${sha[$side]}" >"$ab/$side.sha"
	fi
done

# run <side> <pair>: one benchmark run; a failed one is judged below.
run() {
	rm -f "$ab/$1/.bench_build/last.json"
	bash "$ab/$1/bench/run.sh" --workload "$workload" --seed 1 --seconds "$seconds" --scale "$scale" --trace 0 \
		>"$runs/$1.$2.out" 2>&1 || echo "ab.sh: $1 run $2 exited $?" >&2
	cp "$ab/$1/.bench_build/last.json" "$runs/$1.$2.json" || { tail -n 20 "$runs/$1.$2.out" >&2; exit 1; }
	echo "pair $2 $1: $(tail -n 1 "$runs/$1.$2.out")" >&2
}

for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then
		run parent "$i"; run change "$i"
	else
		run change "$i"; run parent "$i"
	fi
done

echo "$workload: $pairs interleaved pairs of --seed 1 --seconds $seconds --scale $scale --trace 0; parent ${sha[parent]}, change ${sha[change]}"
python3 - "$runs" "$pairs" BENCHMARK.json <<'EOF'
import json, statistics, sys

runs, pairs, contract = sys.argv[1], int(sys.argv[2]), json.load(open(sys.argv[3]))
clean = True

def load(side, i):
    """One run's workloads by name: its record in the run's only set."""
    global clean
    with open(f"{runs}/{side}.{i}.json") as f:
        by_name = {w["name"]: w for w in json.load(f)["sets"][0]}
    for name, w in by_name.items():
        if not w["correct"] or w["failed"]:
            clean = False
            print(f"NOT CLEAN: {side} run {i} {name}: correct={w['correct']} failed={w['failed']} of {w['attempted']}")
    return by_name

parent = [load("parent", i) for i in range(1, pairs + 1)]
change = [load("change", i) for i in range(1, pairs + 1)]

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    return statistics.quantiles(xs, n=4, method="inclusive")

def show(q):
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"

for name in parent[0]:
    print(f"\n{name}")
    print(f"  {'metric':<14}{'parent median [q1, q3]':<32}{'change median [q1, q3]':<32}{'gap':>8}  {'won/tied':<12}verdict")
    for m in contract["end_to_end"]:
        metric, lower = m["name"], m["better"] == "lower"
        p = [r[name]["end_to_end"][metric]["median"] for r in parent]
        c = [r[name]["end_to_end"][metric]["median"] for r in change]
        pq, cq = quartiles(p), quartiles(c)
        won = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
        tied = sum(a == b for a, b in zip(p, c))
        lost = pairs - won - tied
        better = (pq[1] - cq[1]) if lower else (cq[1] - pq[1])
        verdict = "unresolved"
        if pairs >= 10 and abs(better) > pq[2] - pq[0]:
            if better > 0 and 10 * won >= 9 * pairs:
                verdict = "gain"
            elif better < 0 and 10 * lost >= 9 * pairs:
                verdict = "loss"
        gap = f"{100 * (cq[1] - pq[1]) / pq[1]:+.1f}%" if pq[1] else "n/a"
        print(f"  {metric:<14}{show(pq):<32}{show(cq):<32}{gap:>8}  {f'{won}/{tied} of {pairs}':<12}{verdict}")
    pd = sorted({r[name]["sim_digest"] for r in parent})
    cd = sorted({r[name]["sim_digest"] for r in change})
    same = "equal" if pd == cd and len(pd) == 1 else "DIFFERENT"
    print(f"  sim_digest: {same} (parent {' '.join(d[:12] for d in pd)}, change {' '.join(d[:12] for d in cd)})")

sys.exit(0 if clean else 1)
EOF
