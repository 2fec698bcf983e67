#!/bin/sh
# benchpairs.sh — paired runs of the repo benchmark on a parent commit and on
# the working tree, judged by the rule a performance claim has to meet.
#
#	./scripts/benchpairs.sh <parent-ref> <workload>|all <pairs> [seconds]
#
# Builds bench/ of <parent-ref> (from a `git archive` of it, so no checkout
# or worktree is left behind) and of the working tree, then runs <pairs>
# interleaved pairs of <workload>: the side that goes first alternates and
# every pair has its own seed (BENCHPAIRS_SEED + pair number, default base
# 100), so neither ordering nor one generated input decides the result.
# `all` runs every contract workload of BENCHMARK.json in turn, each with
# its own interleaved pairs, and ends with one table of the verdicts.
# [seconds] defaults to run_seconds in BENCHMARK.json — the length the
# bounds were sized at; shorter runs are for trying things, not for claims.
#
# For every end-to-end metric of BENCHMARK.json it prints each side's median
# and quartiles, how many pairs the change won (ties count for neither), the
# change of the median relative to the parent, and the verdict: "gain" needs
# the change ahead in at least nine tenths of the pairs and the medians apart
# by more than the parent's own quartile distance; "worse" is the mirror
# image; a median worse than the parent's by more than the metric's bound in
# BENCHMARK.json is "past its bound" whatever the pairs say; anything else is
# "no difference shown". The raw result lines stay in the directory it names
# at the end, for the record the claim cites.
set -eu
if [ $# -lt 3 ]; then
	echo "usage: $0 <parent-ref> <workload>|all <pairs> [seconds]" >&2
	exit 2
fi
ref="$1" workloads="$2" pairs="$3"
root="$(git rev-parse --show-toplevel)"
if [ "$workloads" = all ]; then
	workloads="$(awk -F'"' '/"workloads"/ { on = 1 } on && /"name"/ { print $4 }' "$root/BENCHMARK.json")"
fi
seconds="${4:-$(awk -F'[:,]' '/"run_seconds"/ { gsub(/ /, "", $2); print $2 }' "$root/BENCHMARK.json")}"
base="${BENCHPAIRS_SEED:-100}"
work="$(mktemp -d "${TMPDIR:-/tmp}/benchpairs.XXXXXX")"

mkdir "$work/parent" "$work/out"
git -C "$root" archive "$ref" | tar -x -C "$work/parent"
go -C "$work/parent/bench" build -o "$work/bench_parent" .
go -C "$root/bench" build -o "$work/bench_change" .
rm -rf "$work/parent"

run() { # workload side seed
	"$work/bench_$2" --workload "$1" --seed "$3" --seconds "$seconds" --trace 0 --out "$work/out" |
		tail -n 1 >>"$work/$1.$2.jsonl"
}
results=""
for workload in $workloads; do
	i=1
	while [ "$i" -le "$pairs" ]; do
		seed=$((base + i))
		if [ $((i % 2)) -eq 1 ]; then first=parent second=change; else first=change second=parent; fi
		echo "$workload pair $i/$pairs: seed $seed, $first first" >&2
		run "$workload" "$first" "$seed"
		run "$workload" "$second" "$seed"
		i=$((i + 1))
	done
	results="$results $work/$workload.parent.jsonl $work/$workload.change.jsonl"
done

# shellcheck disable=SC2086 # $results is a list of paths without spaces
awk -v ref="$ref" -v seconds="$seconds" '
function value(line, name,    at, rest) {
	at = index(line, "\"" name "\": {\"value\": ")
	if (at == 0) return "nan"
	rest = substr(line, at + length(name) + 14)
	sub(/[,}].*/, "", rest)
	return rest + 0
}
function quantile(v, n, p,    i, pos, lo) { # v sorted ascending, 1-based
	pos = 1 + (n - 1) * p; lo = int(pos)
	if (lo >= n) return v[n]
	return v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
}
function sorted(src, dst, n,    i, j, t) {
	for (i = 1; i <= n; i++) dst[i] = src[i]
	for (i = 2; i <= n; i++) { t = dst[i]; for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]; dst[j + 1] = t }
}
FILENAME ~ /BENCHMARK.json$/ {
	if ($0 ~ /"end_to_end"/) inE2E = 1
	if ($0 ~ /"paths"/) inE2E = 0
	if (inE2E && $0 ~ /"name"/) { split($0, f, "\""); name = f[4]; names[++nm] = name }
	if (inE2E && $0 ~ /"better"/) { split($0, f, "\""); better[name] = f[4] }
	if (inE2E && $0 ~ /"bound"/) { split($0, f, /[:,]/); bound[name] = f[2] + 0 }
	next
}
FNR == 1 { # <dir>/<workload>.<side>.jsonl
	nparts = split(FILENAME, part, "/"); split(part[nparts], f, ".")
	w = f[1]; side = f[2]
	if (!(w in seen)) { seen[w] = 1; wl[++nw] = w }
}
{
	n[w, side]++
	if ($0 !~ /"correct": true/) incorrect[w, side]++
	# "failed" is a bare count, not a {"value": …} object.
	if (match($0, /"failed": [0-9]+/)) failed[w, side] += substr($0, RSTART + 10, RLENGTH - 10)
	for (k = 1; k <= nm; k++) val[w, side, names[k], n[w, side]] = value($0, names[k])
}
END {
	for (x = 1; x <= nw; x++) {
		w = wl[x]; N = n[w, "parent"]
		if (N == 0 || N != n[w, "change"]) { print "benchpairs: " w ": " n[w, "parent"] + 0 " parent and " n[w, "change"] + 0 " change results" > "/dev/stderr"; exit 1 }
		printf "%s: %d pairs of %s s, parent %s against the working tree\n", w, N, seconds, ref
		printf "%-18s %-7s %13s %13s %13s   %13s %13s %13s   %6s %8s  %s\n", "metric", "better", "parent q1", "median", "q3", "change q1", "median", "q3", "wins", "change", "verdict"
		for (k = 1; k <= nm; k++) {
			m = names[k]; wins = 0; losses = 0
			for (i = 1; i <= N; i++) {
				p[i] = val[w, "parent", m, i]; c[i] = val[w, "change", m, i]
				d = c[i] - p[i]; if (better[m] == "lower") d = -d
				if (d > 0) wins++; else if (d < 0) losses++
			}
			sorted(p, ps, N); sorted(c, cs, N)
			pm = quantile(ps, N, 0.5); cm = quantile(cs, N, 0.5)
			iqr = quantile(ps, N, 0.75) - quantile(ps, N, 0.25)
			gap = cm - pm; if (better[m] == "lower") gap = -gap
			verdict = "no difference shown"
			if (wins * 10 >= N * 9 && gap > iqr) verdict = "gain"
			if (losses * 10 >= N * 9 && -gap > iqr) verdict = "worse"
			if (-gap > bound[m] * (pm < 0 ? -pm : pm)) verdict = "past its bound"
			verdicts[w, m] = sprintf("%s %+.1f%%", verdict, pm != 0 ? 100 * (cm - pm) / pm : 0)
			printf "%-18s %-7s %13.6g %13.6g %13.6g   %13.6g %13.6g %13.6g   %3d/%-2d %+7.1f%%  %s\n", m, better[m], quantile(ps, N, 0.25), pm, quantile(ps, N, 0.75), quantile(cs, N, 0.25), cm, quantile(cs, N, 0.75), wins, N, pm != 0 ? 100 * (cm - pm) / pm : 0, verdict
		}
		printf "failed frames: parent %d, change %d; incorrect runs: parent %d, change %d\n\n", failed[w, "parent"], failed[w, "change"], incorrect[w, "parent"], incorrect[w, "change"]
	}
	if (nw > 1) {
		printf "%-18s", "verdicts"
		for (x = 1; x <= nw; x++) printf " %-28s", wl[x]
		printf "\n"
		for (k = 1; k <= nm; k++) {
			printf "%-18s", names[k]
			for (x = 1; x <= nw; x++) printf " %-28s", verdicts[wl[x], names[k]]
			printf "\n"
		}
	}
}' "$root/BENCHMARK.json" $results
rm -f "$work/bench_parent" "$work/bench_change"
echo "result lines kept in $work" >&2
