#!/usr/bin/env bash
# Runs every workload of the per-miss benchmark once, untraced, and
# prints each one's end-to-end metrics by name with their units.
#
# Usage, from the repository root:
#   bash perfbench/all.sh [SEED] [SECONDS] [TRACE]
set -euo pipefail
seed=${1:-1}
seconds=${2:-30}
trace=${3:-0}
for w in sim-baselines cls-phased serve-mix; do
    cargo run --offline --release --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace"
done
