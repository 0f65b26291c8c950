#!/usr/bin/env bash
# The benchmark gate: bench-gate.sh BASE-REV, run from the root of a
# checkout of the change.
#
# It checks BASE-REV out into a git worktree under .bench_build/, then runs
# alternating pairs of short untraced bench runs (odd pairs base first) on
# the three decision paths -- hit, miss and batch -- in both checkouts. Each
# checkout builds its own bench and pdpd (bench/run.sh). The two sets of
# output files land in bench/out/gate/{base,change}/ and are compared by
# the change's bench --compare, so the change's BENCHMARK.json bounds
# apply.
#
# It fails when any run exits non-zero (1: a wrong conclusive answer,
# 2: a set-up error) or when --compare reports a metric `regressed`;
# `within`, `unresolved` (spread wider than the bound) and `missing` pass.
# churn.mixed is left to full-length runs: a short window holds too few
# admin writes to measure.
set -euo pipefail

readonly pairs=3 window=3 seed=1
readonly workloads=(hit.open miss.closed batch.closed)

if [ $# -ne 1 ]; then
	echo "usage: $0 BASE-REV" >&2
	exit 2
fi
base_rev=$(git rev-parse --verify "$1^{commit}")
root=$PWD
base=$root/.bench_build/gate-base
out=$root/bench/out/gate

cleanup() {
	git -C "$root" worktree remove --force "$base" 2>/dev/null || rm -rf "$base"
	git -C "$root" worktree prune
}
cleanup
trap cleanup EXIT
mkdir -p "$root/.bench_build"
git worktree add --detach --quiet "$base" "$base_rev"
rm -rf "$out"
mkdir -p "$out/base" "$out/change"
stamp=$root/.bench_build/gate-stamp

declare -A failed=([base]=0 [change]=0)
status=0

# run SIDE WORKLOAD PAIR: one untraced run in SIDE's checkout; its output
# file moves to $out/SIDE.
run() {
	local side=$1 w=$2 pair=$3 dir=$root rc=0 log last n
	[ "$side" = base ] && dir=$base
	log=$out/$side/$w-pair$pair.log
	touch "$stamp"
	(cd "$dir" && bash bench/run.sh --workload "$w" --seed "$seed" --seconds "$window" --trace 0) >"$log" 2>&1 || rc=$?
	find "$dir/bench/out" -maxdepth 1 -name "$w-seed$seed-trace0-*.json" -newer "$stamp" -exec mv {} "$out/$side/" \;
	last=$(tail -n 1 "$log")
	n=$(sed -n 's/.*"failed":\([0-9]*\).*/\1/p' <<<"$last")
	failed[$side]=$((failed[$side] + ${n:-0}))
	echo "pair $pair $side $w: exit $rc, failed ${n:-?}"
	if [ "$rc" -ne 0 ]; then
		tail -n 20 "$log" >&2
		status=1
	fi
}

for w in "${workloads[@]}"; do
	for ((p = 1; p <= pairs; p++)); do
		if ((p % 2)); then
			run base "$w" "$p"
			run change "$w" "$p"
		else
			run change "$w" "$p"
			run base "$w" "$p"
		fi
	done
done

echo "failed decisions, summed: base ${failed[base]}, change ${failed[change]}"
compare_rc=0
bash bench/run.sh --compare "$out/base" "$out/change" || compare_rc=$?
if [ "$compare_rc" -ne 0 ]; then
	echo "bench gate: bench --compare exited $compare_rc" >&2
	status=1
fi
if [ "$status" -ne 0 ]; then
	echo "bench gate: FAIL" >&2
else
	echo "bench gate: pass"
fi
exit "$status"
