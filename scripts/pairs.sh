#!/usr/bin/env bash
# pairs.sh — alternating parent/change benchmark pairs and the table a
# performance claim is judged by (choosing-metrics §8): per metric, each
# side's median and quartiles, pairs won/tied/lost by the change, and the
# change of the median with its base.
#
#   scripts/pairs.sh [--workloads a,b] [--seeds 101-110] [--trace 0|1] PARENT CHANGE
#   scripts/pairs.sh --summarize .bench_build/pairs/<run>
#
# PARENT and CHANGE are two checkouts (e.g. a `git clone` of the parent commit
# and this tree). Each run is `bash <checkout>/benchmark/run.sh` exactly as
# the driver runs it, one workload and one seed at a time; pair i runs the
# parent first when i is odd and the change first when i is even. The last
# line of each run (the JSON object) is kept under .bench_build/pairs/<run>/
# of THIS checkout, and nothing is written anywhere else except by run.sh
# itself (its own .bench_build/). A run whose correctness gate fails, or
# that reports failed operations, aborts the whole comparison.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
workloads=browse-small,order-small,order-large,order-fsync
seeds=101-110
trace=0
summarize=
args=()
while [ $# -gt 0 ]; do
	case $1 in
	--workloads) workloads=$2; shift 2 ;;
	--seeds) seeds=$2; shift 2 ;;
	--trace) trace=$2; shift 2 ;;
	--summarize) summarize=$2; shift 2 ;;
	-h | --help) sed -n '2,18p' "$0"; exit 0 ;;
	*) args+=("$1"); shift ;;
	esac
done

# summarize DIR: one table per workload from DIR/<side>.<workload>.<seed>.json.
summarize() {
	local dir=$1 w
	cat "$dir/header"
	for w in $(ls "$dir" | sed -n 's/^parent\.\(.*\)\.[0-9]*\.json$/\1/p' | sort -u); do
		echo
		echo "workload $w"
		# Flatten every run to "side seed metric value unit", then let awk pair
		# them by seed. Direction comes from BENCHMARK.json's "better".
		for f in "$dir"/*."$w".*.json; do
			side=$(basename "$f" | cut -d. -f1)
			seed=$(basename "$f" | rev | cut -d. -f2 | rev)
			grep -o '"[A-Za-z0-9_.]*":{"value":[^,]*,"unit":"[^"]*"' "$f" |
				sed "s/^\"\([^\"]*\)\":{\"value\":\([^,]*\),\"unit\":\"\([^\"]*\)\"/$side $seed \1 \2 \3/"
		done | awk -v benchjson="$root/BENCHMARK.json" '
		function quantile(a, n, q,    h, lo) {	# type-7, a[1..n] sorted
			if (n == 0) return 0
			h = (n - 1) * q + 1; lo = int(h)
			return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
		}
		function stats(side, m, out,    n, i, k, v, tmp) {
			n = 0
			for (k in val) { split(k, p, SUBSEP); if (p[1] == side && p[3] == m) tmp[++n] = val[k] }
			for (i = 2; i <= n; i++) { v = tmp[i]; for (k = i - 1; k >= 1 && tmp[k] > v; k--) tmp[k + 1] = tmp[k]; tmp[k + 1] = v }
			out["n"] = n; out["med"] = quantile(tmp, n, .5); out["q1"] = quantile(tmp, n, .25); out["q3"] = quantile(tmp, n, .75)
		}
		BEGIN {
			while ((getline line < benchjson) > 0) {
				if (match(line, /"name": *"[^"]*"/)) { name = substr(line, RSTART, RLENGTH); gsub(/"name": *"|"/, "", name) }
				if (match(line, /"better": *"[^"]*"/)) { b = substr(line, RSTART, RLENGTH); gsub(/"better": *"|"/, "", b); better[name] = b }
			}
		}
		{ val[$1, $2, $3] = $4; unit[$3] = $5; seeds[$2]; if (!($3 in seen)) { seen[$3]; order[++nm] = $3 } }
		END {
			printf "%-28s %-6s %-6s %-34s %-34s %-10s %s\n", "metric", "unit", "better", "parent median [q1, q3]", "change median [q1, q3]", "win/tie/loss", "change of median (base: parent median)"
			for (i = 1; i <= nm; i++) {
				m = order[i]; dir = (m in better) ? better[m] : "?"
				stats("parent", m, P); stats("change", m, C)
				w = t = l = 0
				for (s in seeds) {
					if (!(("parent", s, m) in val) || !(("change", s, m) in val)) continue
					d = val["change", s, m] - val["parent", s, m]
					if (dir == "higher") d = -d
					if (d < 0) w++; else if (d > 0) l++; else t++
				}
				delta = P["med"] != 0 ? sprintf("%+.1f%% of %.4g", 100 * (C["med"] - P["med"]) / P["med"], P["med"]) : "n/a (base 0)"
				printf "%-28s %-6s %-6s %-34s %-34s %-10s %s\n", m, unit[m], dir,
					sprintf("%.4g [%.4g, %.4g]", P["med"], P["q1"], P["q3"]),
					sprintf("%.4g [%.4g, %.4g]", C["med"], C["q1"], C["q3"]),
					(dir == "?" ? "-" : w "/" t "/" l), delta
			}
		}'
	done
}

if [ -n "$summarize" ]; then
	summarize "$summarize"
	exit 0
fi
if [ ${#args[@]} -ne 2 ]; then
	sed -n '2,18p' "$0" >&2
	exit 2
fi
parent=$(cd "${args[0]}" && pwd)
change=$(cd "${args[1]}" && pwd)
first=${seeds%-*}
last=${seeds#*-}

dir=$root/.bench_build/pairs/$(date +%Y%m%d-%H%M%S)-trace$trace
mkdir -p "$dir"
commit() { git -C "$1" rev-parse --short HEAD 2>/dev/null || echo unknown; }
dirty() { [ -z "$(git -C "$1" status --porcelain 2>/dev/null)" ] || echo "+uncommitted"; }
{
	echo "pairs: trace=$trace seeds=$first-$last, alternating which side runs first; $(nproc) CPUs, $(go version | cut -d' ' -f3)"
	echo "parent: $parent @ $(commit "$parent")$(dirty "$parent")"
	echo "change: $change @ $(commit "$change")$(dirty "$change")"
} >"$dir/header"

# run SIDE CHECKOUT WORKLOAD SEED
run() {
	local out=$dir/$1.$3.$4.json
	bash "$2/benchmark/run.sh" -workload "$3" -seed "$4" -trace "$trace" -out "$dir/out.$1" 2>"$dir/$1.$3.$4.log" | tail -n 1 >"$out" ||
		{ echo "pairs: $1 $3 seed $4 failed, see $dir/$1.$3.$4.log" >&2; exit 1; }
	grep -q '"correct":true' "$out" && grep -q '"failed":0[,}]' "$out" ||
		{ echo "pairs: $1 $3 seed $4 did not pass the correctness gate cleanly: $(cat "$out")" >&2; exit 1; }
}

i=0
for w in ${workloads//,/ }; do
	for seed in $(seq "$first" "$last"); do
		i=$((i + 1))
		if [ $((i % 2)) -eq 1 ]; then
			run parent "$parent" "$w" "$seed"; run change "$change" "$w" "$seed"
		else
			run change "$change" "$w" "$seed"; run parent "$parent" "$w" "$seed"
		fi
		echo "pairs: $w seed $seed done" >&2
	done
done
summarize "$dir"
echo
echo "results kept in $dir"
