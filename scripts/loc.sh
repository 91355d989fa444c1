#!/usr/bin/env bash
# Non-test line counts of the Rust sources under crates/*/src, examples/
# and src/: every line before a file's first `#[cfg(test)]`. Prints each
# file whose count differs between <ref> and the working tree, then both
# totals and the net change.
#
#   scripts/loc.sh <ref>
set -euo pipefail
cd "$(dirname "$0")/.."

[ $# -eq 1 ] || {
    echo "usage: $0 <ref>" >&2
    exit 2
}
ref=$1
in_scope='^(crates/[^/]+/src|examples|src)/.*\.rs$'

# Lines of stdin before its first `#[cfg(test)]`.
non_test() {
    awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }'
}

counts_at_ref() {
    git ls-tree -r --name-only "$ref" | { grep -E "$in_scope" || true; } | while read -r f; do
        echo "$f $(git show "$ref:$f" | non_test)"
    done
}

counts_in_tree() {
    git ls-files --cached --others --exclude-standard | { grep -E "$in_scope" || true; } |
        while read -r f; do
            if [ -f "$f" ]; then
                echo "$f $(non_test <"$f")"
            fi
        done
}

old=$(mktemp)
new=$(mktemp)
trap 'rm -f "$old" "$new"' EXIT
counts_at_ref >"$old"
counts_in_tree >"$new"

printf "%8s %8s %8s\n" "$(git rev-parse --short "$ref")" tree net
awk 'NR == FNR { old[$1] = $2; seen[$1] = 1; next }
    { new[$1] = $2; seen[$1] = 1 }
    END {
        for (f in seen) {
            o = old[f] + 0; n = new[f] + 0; ot += o; nt += n
            if (o != n) printf "%8d %8d %+8d  %s\n", o, n, n - o, f | "sort -k4"
        }
        close("sort -k4")
        printf "%8d %8d %+8d  total\n", ot, nt, nt - ot
    }' "$old" "$new"
