#!/bin/sh
# Compiled vs pure-Python kernels on the same maintenance workload.
# Rows: per backend, the edge-by-edge baseline plus the batch engine at
# each worker count.  Sized so the pure-Python baseline finishes quickly;
# raise --n / --batch-size for a heavier compiled-lane run.  Exits 1, with
# the reason, when the compiled kernels could not be built.
set -e
PY=${PYTHON:-python3}
exec "$PY" -m coremaint bench \
    --gen er --n 5000 --deg 8 --seed 5 \
    --mode insert --batch-size 500 \
    --threads 1,2,8 --baseline --backend both "$@"
