#!/usr/bin/env bash
# Builds spine once, runs both passes of every workload (or pass
# `--workload NAME`, `--seed N`, `--seconds S` through), and prints one
# summary line per workload. The full results land beside the build.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"

# A pass removes its own stores when it ends or panics; a killed pass can
# not, so sweep the directory on the way out, success or failure.
trap 'rm -rf "$target/release/spine-scratch"' EXIT

out="$target/spine-results.json"
"$target/release/spine" --json "$out" "$@" | grep '^== '
echo "results: $out"
