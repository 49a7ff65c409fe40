#!/bin/sh
# Run every workload once and print its metrics, from the repository root:
#   sh corebench/all.sh [seed] [seconds] [trace]
set -e
for w in er-insert-bulk er-delete-bulk ba-mixed-small; do
    echo "== $w"
    python3 "$(dirname "$0")/run.py" --workload "$w" --seed "${1:-1}" \
        --seconds "${2:-20}" --trace "${3:-0}"
done
