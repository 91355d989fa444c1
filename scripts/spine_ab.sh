#!/usr/bin/env bash
# Alternating parent/change pairs of one spine workload: <base-ref> against
# the working tree, each side freshly built into its own target directory.
# Prints, per end-to-end metric of BENCHMARK.json, both medians, both
# quartile pairs, how many pairs the working tree won (ties count for
# neither side) and a verdict read from the metric's relative `bound`:
#   gain          wins >= 9/10 and the median gap is wider than the base IQR
#   unresolved    the base IQR is wider than the bound
#   REGRESSION    the head median is worse than the base median by more than the bound
#   within bound  otherwise
#
#   scripts/spine_ab.sh <base-ref> <workload> [pairs=10] [seed=1]
#
# Everything it writes lives under target/spine_ab/ (git-ignored).
set -euo pipefail
cd "$(dirname "$0")/.."

[ $# -ge 2 ] || {
    echo "usage: $0 <base-ref> <workload> [pairs=10] [seed=1]" >&2
    exit 2
}
base_ref=$1 workload=$2 pairs=${3:-10} seed=${4:-1}

out=$PWD/target/spine_ab
tree=$out/base
rm -rf "$tree"
mkdir -p "$tree"
trap 'rm -rf "$tree"' EXIT
git archive "$base_ref" | tar -x -C "$tree"

echo "base $(git rev-parse --short "$base_ref") vs working tree at $(git rev-parse --short HEAD)$(git diff --quiet HEAD || echo '+uncommitted'), $workload seed $seed, $pairs pairs" >&2
CARGO_TARGET_DIR=$out/target-base cargo build --release --offline --quiet --manifest-path "$tree/spine/Cargo.toml"
CARGO_TARGET_DIR=$out/target-head cargo build --release --offline --quiet --manifest-path spine/Cargo.toml

# "name better bound" per end-to-end metric, as the benchmark declares them.
metrics=$(sed -n '/"end_to_end"/,/\]/p' BENCHMARK.json |
    sed -n 's/.*"better": "\([a-z]*\)".*"bound": \([0-9.]*\).*"name": "\([a-z0-9_]*\)".*/\3 \1 \2/p')

# One pass of one side; appends "metric value" lines to that side's log.
pass() {
    local side=$1 result name value
    result=$("$out/target-$side/release/spine" --workload "$workload" --seed "$seed" \
        --seconds 10 --trace 0 | tail -n 1)
    case $result in
    *'"correct": true, "failed": 0,'*) ;;
    *)
        echo "$side: pass failed its checks: $result" >&2
        exit 1
        ;;
    esac
    while read -r name _; do
        value=$(sed -n "s/.*\"$name\": {\"unit\": \"[^\"]*\", \"value\": \([-+.0-9e]*\)}.*/\1/p" <<<"$result")
        echo "$name $value" >>"$out/$side.log"
        printf ' %s=%s' "$name" "$value" >&2
    done <<<"$metrics"
}

rm -f "$out/base.log" "$out/head.log"
for pair in $(seq "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then order="base head"; else order="head base"; fi
    for side in $order; do
        printf 'pair %s %s:' "$pair" "$side" >&2
        pass "$side"
        echo >&2
    done
done

printf '%-14s %-6s %12s %25s %12s %25s %7s %6s  %s\n' \
    metric better base_median 'base_q1..q3' head_median 'head_q1..q3' ratio wins verdict
while read -r name better bound; do
    paste <(awk -v m="$name" '$1 == m { print $2 }' "$out/base.log") \
        <(awk -v m="$name" '$1 == m { print $2 }' "$out/head.log") |
        awk -v name="$name" -v better="$better" -v bound="$bound" '
            # Quantile by linear interpolation between order statistics.
            function quantile(v, n, p,    h, lo) {
                h = (n - 1) * p + 1; lo = int(h)
                return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
            }
            function sort(v, n,    i, j, t) {
                for (i = 2; i <= n; i++)
                    for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
            }
            {
                n++; base[n] = $1; head[n] = $2
                if (better == "higher" ? $2 > $1 : $2 < $1) wins++
            }
            END {
                sort(base, n); sort(head, n)
                bm = quantile(base, n, 0.5); hm = quantile(head, n, 0.5)
                iqr = quantile(base, n, 0.75) - quantile(base, n, 0.25)
                # Head minus base, positive when the head is better.
                gap = better == "higher" ? hm - bm : bm - hm
                if (wins * 10 >= 9 * n && gap > iqr) verdict = "gain"
                else if (iqr > bound * bm) verdict = "unresolved"
                else if (-gap > bound * bm) verdict = "REGRESSION"
                else verdict = "within bound"
                printf "%-14s %-6s %12.4f %12.4f..%-11.4f %12.4f %12.4f..%-11.4f %7.3f %3d/%d  %s\n",
                    name, better, bm, quantile(base, n, 0.25), quantile(base, n, 0.75),
                    hm, quantile(head, n, 0.25), quantile(head, n, 0.75), hm / bm, wins, n, verdict
            }'
done <<<"$metrics"
