#!/usr/bin/env bash
# Build the benchmark once, then hand every argument to it.
#
#   run.sh --workload NAME --seed N --seconds S --trace 0|1   one workload, JSON on the last line
#   run.sh [--seed N] [--seconds S]                           every workload, end to end and traced
#   run.sh --smoke | --twice | --spread N | --regen-golden
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
BENCH_COMMIT="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"
export BENCH_COMMIT
# glibc moves its mmap and trim thresholds as large blocks are freed,
# and where they settle differs from process to process: par_ckpt came
# out at 139 MiB / 57 ms restore or at 151 MiB / 45 ms by chance. Pin
# both at the values that adjustment grows towards.
export MALLOC_MMAP_THRESHOLD_=33554432 MALLOC_TRIM_THRESHOLD_=67108864
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/yy-benchmark" "$@"
