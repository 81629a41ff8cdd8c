#!/usr/bin/env bash
# Paired dagbench runs of this checkout against a parent revision, the ruler
# for a performance claim. Checks the parent out with git worktree under
# .bench_build/pairs/parent, then runs `bash bench/run.sh -workload W` on
# both sides PAIRS times, the side that goes first alternating from pair to
# pair, so that drift over the session (a neighbour's load, the page cache)
# falls on both sides alike. It prints, for each end-to-end metric of
# BENCHMARK.json, each side's median and quartiles, the change in the
# medians, and the pairs the change won (better in the metric's "better"
# direction; a tie wins nothing), then each side's failed requests. A row is
# marked "noisy" when the parent's own spread, (q3 − q1) / median, exceeds
# half the metric's "bound": the pairs cannot tell a change of the bound's
# size from chance there. It is marked "beyond bound" when the change in the
# medians is worse than the bound. The
# change side is the working tree as it stands, uncommitted edits included.
# Each run's JSON line stays in .bench_build/pairs/<side>-<pair>.json.
# Nothing under bench/ is edited; the worktree is removed on exit.
#
# Run from the repository root:
#   scripts/bench-pairs.sh <parent-rev> [workload] [pairs] [seconds]
# or make bench-pairs PARENT=<rev> WORKLOAD=dense PAIRS=10 SECONDS=20.
# Further dagbench flags (say, -seed 3) go in BENCH_ARGS.
set -euo pipefail

if [ $# -lt 1 ]; then
	echo "usage: $0 <parent-rev> [workload] [pairs] [seconds]" >&2
	exit 2
fi
rev=$(git rev-parse --verify "$1^{commit}")
workload=${2:-dense}
pairs=${3:-10}
seconds=${4:-20}
root=$PWD
dir=$root/.bench_build/pairs
parent=$dir/parent

mkdir -p "$dir"
rm -f "$dir"/*.json
git worktree remove --force "$parent" 2>/dev/null || rm -rf "$parent"
git worktree prune
git worktree add --detach --quiet "$parent" "$rev"
trap 'git -C "$root" worktree remove --force "$parent"' EXIT

# run side pair: one dagbench run on side's checkout; its last line, the
# end-to-end JSON, goes to side-pair.json.
run() {
	local side=$1 pair=$2 src=$root
	[ "$side" = parent ] && src=$parent
	# shellcheck disable=SC2086 # BENCH_ARGS is a list of flags
	(cd "$src" && bash bench/run.sh -workload "$workload" -seconds "$seconds" ${BENCH_ARGS:-}) \
		| tail -n 1 >"$dir/$side-$pair.json"
	echo "pair $pair $side: $(tr -d '\n' <"$dir/$side-$pair.json" | cut -c1-160)…"
}

for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then
		run parent "$i"
		run change "$i"
	else
		run change "$i"
		run parent "$i"
	fi
done

# The end-to-end metrics, their directions and bounds, from BENCHMARK.json:
# one "name better bound" line each, printed where the metric's object ends.
spec=$(awk '
	/"end_to_end"/ { on = 1 }
	/"per_layer"/ { on = 0 }
	on && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
	on && /"better"/ { gsub(/[",]/, "", $2); better = $2 }
	on && /"bound"/ { gsub(/[",]/, "", $2); bound = $2 }
	on && /}/ && name != "" { print name, better, bound + 0; name = ""; bound = 0 }
' "$root/BENCHMARK.json")

# One "side pair metric value" line per run and metric, failed and
# attempted included.
values=$(for f in "$dir"/*.json; do
	base=$(basename "$f" .json)
	side=${base%-*} pair=${base##*-}
	{
		grep -o '"[a-z0-9_]*":{"value":[^,}]*' "$f" | sed 's/"\([a-z0-9_]*\)":{"value":/\1 /'
		grep -o '"\(attempted\|failed\)":[0-9]*' "$f" | tr -d '"' | tr : ' '
	} | sed "s/^/$side $pair /"
done)

echo
echo "$workload: $pairs pairs of ${seconds} s runs, parent $(git rev-parse --short "$rev") vs this tree"
printf '%s\n--\n%s\n' "$spec" "$values" | awk -v pairs="$pairs" '
	# q is the p-quantile of the n sorted values in s, linearly interpolated.
	function q(s, n, p,   pos, lo) {
		pos = (n - 1) * p; lo = int(pos)
		return lo + 1 < n ? s[lo] + (pos - lo) * (s[lo + 1] - s[lo]) : s[lo]
	}
	# sorted copies side'"'"'s values of metric m into s and returns their count.
	function sorted(side, m, s,   n, i, j, v) {
		n = 0
		for (i = 1; i <= pairs; i++) {
			if (!((side, i, m) in val)) continue
			v = val[side, i, m]
			for (j = n; j > 0 && s[j - 1] > v; j--) s[j] = s[j - 1]
			s[j] = v; n++
		}
		return n
	}
	/^--$/ { body = 1; next }
	!body { order[++metrics] = $1; better[$1] = $2; bound[$1] = $3; next }
	{ val[$1, $2, $3] = $4 + 0 }
	END {
		printf "%-22s %30s %30s %9s %6s  %s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "Δ median", "wins", "note"
		for (k = 1; k <= metrics; k++) {
			m = order[k]
			np = sorted("parent", m, ps); nc = sorted("change", m, cs)
			if (np == 0 || nc == 0) continue
			wins = 0
			for (i = 1; i <= pairs; i++) {
				a = val["parent", i, m]; b = val["change", i, m]
				if ((better[m] == "lower" && b < a) || (better[m] == "higher" && b > a)) wins++
			}
			mp = q(ps, np, 0.5); mc = q(cs, nc, 0.5)
			# d is the change in the medians over the parent median; worse
			# is d signed to be positive when the change goes against
			# "better".
			d = mp ? (mc - mp) / mp : 0
			worse = better[m] == "higher" ? -d : d
			note = ""
			if (bound[m] && mp && (q(ps, np, 0.75) - q(ps, np, 0.25)) / mp > bound[m] / 2) note = "noisy"
			if (bound[m] && worse > bound[m]) note = note (note ? ", " : "") "beyond bound"
			printf "%-22s %12.3f [%7.3f, %7.3f] %12.3f [%7.3f, %7.3f] %+8.1f%% %3d/%d  %s\n", m,
				mp, q(ps, np, 0.25), q(ps, np, 0.75), mc, q(cs, nc, 0.25), q(cs, nc, 0.75),
				100 * d, wins, pairs, note
		}
		split("parent change", names, " ")
		for (k = 1; k <= 2; k++) {
			f = t = 0
			for (i = 1; i <= pairs; i++) { f += val[names[k], i, "failed"]; t += val[names[k], i, "attempted"] }
			printf "%s: %d of %d requests failed\n", names[k], f, t
		}
	}'
