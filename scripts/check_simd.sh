#!/usr/bin/env bash
# Vectorization guard for the RHS leaf kernels (yy_mhd::rhs::pass_* and
# the RhsSink row flushes yy_mhd::rhs::flush_*).
#
# Wall time alone cannot tell "vectorized" from "fast enough today", and
# the rlib's own `--emit asm` cannot either: under `lto = "thin"` the
# radial loops are only vectorized at the final link. So this reads the
# instruction stream of a linked release binary and fails unless
#   * all 11 pass kernels and both flush kernels exist as symbols (none
#     inlined away or renamed),
#   * each holds packed f64 arithmetic (add/sub/mul/div `pd`, SSE or VEX
#     spelling) at least as often as scalar `sd` — the scalar share is
#     the loop epilogue, and
#   * none calls a named function: `vec_second`, `laplacian` or a `Cols`
#     helper left out of line puts a call in the loop body and silently
#     keeps it scalar. The only calls allowed are the up-front
#     slice-length panics, which reach std through the GOT (`call *`).
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$(uname -m)" != x86_64 ]; then
  echo "SKIP: check_simd reads x86_64 mnemonics; this host is $(uname -m)"
  exit 0
fi
command -v objdump >/dev/null || {
  echo "SKIP: check_simd needs objdump (binutils), which is not installed"
  exit 0
}

cargo build --release --offline -p yycore --bin yycore
bin="${CARGO_TARGET_DIR:-target}/release/yycore"

objdump -d -C --no-show-raw-insn "$bin" | awk '
  /^[0-9a-f]+ <.*>:$/ {
    sym = $0; sub(/^[0-9a-f]+ </, "", sym); sub(/>:$/, "", sym)
    # Older demanglers keep the hash; thin LTO may append `.llvm.<n>`.
    sub(/\.llvm\.[0-9]+$/, "", sym); sub(/::h[0-9a-f]+$/, "", sym)
    kernel = (sym ~ /^yy_mhd::rhs::(pass|flush)_[a-z_]+$/)
    if (kernel) seen[sym] = 1
    next
  }
  kernel && $2 ~ /^v?(add|sub|mul|div)pd$/ { packed[sym]++ }
  kernel && $2 ~ /^v?(add|sub|mul|div)sd$/ { scalar[sym]++ }
  kernel && $2 ~ /^call/ && $3 !~ /^\*/ { named[sym] = named[sym] " " $NF }
  END {
    for (s in seen) {
      n++
      printf "%-32s packed %4d  scalar %4d\n", s, packed[s], scalar[s]
      if (packed[s] == 0 || packed[s] < scalar[s]) {
        printf "ERROR: %s is not vectorized\n", s; bad = 1
      }
      if (named[s] != "") {
        printf "ERROR: %s calls%s\n", s, named[s]; bad = 1
      }
    }
    if (n != 13) { printf "ERROR: found %d pass_*/flush_* kernels, expected 11 + 2\n", n; bad = 1 }
    exit bad
  }' | sort
echo "OK: all 11 RHS kernels and both sink flushes are packed-f64 loops with no call in the body"
