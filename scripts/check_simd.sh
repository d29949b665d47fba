#!/usr/bin/env bash
# Vectorization guard for the RHS leaf kernels (yy_mhd::rhs::pass_* and
# the RhsSink row flushes yy_mhd::rhs::flush_*), both ISA instantiations
# (`<kernel>::baseline` and `<kernel>::avx2`, DESIGN §6f).
#
# Wall time alone cannot tell "vectorized" from "fast enough today", and
# the rlib's own `--emit asm` cannot either: under `lto = "thin"` the
# radial loops are only vectorized at the final link. So this reads the
# instruction stream of a linked release binary and fails unless
#   * all 11 pass kernels and both flush kernels exist as symbols in both
#     instantiations (none inlined away or renamed),
#   * each holds packed f64 arithmetic (add/sub/mul/div `pd`, SSE or VEX
#     spelling) at least as often as scalar `sd` — the scalar share is
#     the loop epilogue — and in the wide instantiation the packed
#     arithmetic counted is the `ymm` share alone (what is left on `xmm`
#     is the two-lane epilogue step), with no `zmm` anywhere — there is
#     no AVX-512 path — and no fused multiply-add: a contracted `a*b + c`
#     rounds once where the baseline rounds twice,
#   * none calls a named function: `vec_second`, `laplacian` or a `Cols`
#     helper left out of line puts a call in the loop body and silently
#     keeps it scalar. The only calls allowed are the up-front
#     slice-length panics, which reach std through the GOT (`call *`).
# The CRC-32 fold (`yycore::checkpoint::crc32_clmul`) is judged from the
# same binary: it must exist as a symbol and hold carry-less multiplies.
# It also fails unless the workspace sources hold exactly the two
# `unsafe` blocks that call a runtime-detected `#[target_feature]`
# function: the wide RHS instantiation and the CRC fold.
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

# Two `unsafe` in the workspace: the root call in `sweep_rhs` and the
# CRC dispatch in `Crc32::update`. The source trees hold the unit-test
# modules too; they have none either.
unsafe_sites=$(grep -rnE --include='*.rs' '^[^/]*\bunsafe[[:space:]]*(\{|fn|impl|trait|extern)' \
  crates/*/src src/ | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)
if [ "$(printf '%s' "$unsafe_sites" | grep -c .)" != 2 ] ||
   ! printf '%s' "$unsafe_sites" | grep -q '^crates/mhd/src/rhs.rs:.*avx2::fused_sweep' ||
   ! printf '%s' "$unsafe_sites" | grep -q '^crates/core/src/checkpoint.rs:.*crc32_clmul'; then
  echo "ERROR: expected exactly two unsafe sites (sweep_rhs -> avx2::fused_sweep," \
    "Crc32::update -> crc32_clmul), found:"
  printf '%s\n' "$unsafe_sites"
  exit 1
fi

cargo build --release --offline -p yycore --bin yycore
bin="${CARGO_TARGET_DIR:-target}/release/yycore"

# The fold: its own (`#[inline(never)]`) symbol, holding the carry-less
# multiplies; objdump spells them `pclmul{l,h}q{l,h}qdq`.
clmuls=$(objdump -d -C --no-show-raw-insn "$bin" | awk '
  /^[0-9a-f]+ <.*>:$/ {
    sym = $0; sub(/^[0-9a-f]+ </, "", sym); sub(/>:$/, "", sym)
    sub(/\.llvm\.[0-9]+$/, "", sym); sub(/::h[0-9a-f]+$/, "", sym)
    fold = (sym == "yycore::checkpoint::crc32_clmul"); if (fold) seen = 1
    next
  }
  fold && $2 ~ /^v?pclmul/ { n++ }
  END { if (seen) print n + 0; else print "missing" }')
if [ "$clmuls" = missing ]; then
  echo "ERROR: the linked yycore has no yycore::checkpoint::crc32_clmul symbol"
  exit 1
fi
if [ "$clmuls" -lt 8 ]; then
  echo "ERROR: crc32_clmul holds $clmuls pclmulqdq; the four-lane fold alone needs 8"
  exit 1
fi
echo "crc32_clmul: $clmuls pclmulqdq"

objdump -d -C --no-show-raw-insn "$bin" | awk '
  /^[0-9a-f]+ <.*>:$/ {
    sym = $0; sub(/^[0-9a-f]+ </, "", sym); sub(/>:$/, "", sym)
    # Older demanglers keep the hash; thin LTO may append `.llvm.<n>`.
    sub(/\.llvm\.[0-9]+$/, "", sym); sub(/::h[0-9a-f]+$/, "", sym)
    kernel = (sym ~ /^yy_mhd::rhs::(pass|flush)_[a-z_]+::(baseline|avx2)$/)
    if (kernel) { seen[sym] = 1; wide = (sym ~ /::avx2$/) }
    next
  }
  kernel && /zmm/ { zmm[sym]++ }
  kernel && $2 ~ /^vfn?m(add|sub)/ { fma[sym]++ }
  kernel && $2 ~ /^v?(add|sub|mul|div)pd$/ && (!wide || /ymm/) { packed[sym]++ }
  kernel && $2 ~ /^v?(add|sub|mul|div)sd$/ { scalar[sym]++ }
  kernel && $2 ~ /^call/ && $3 !~ /^\*/ { named[sym] = named[sym] " " $NF }
  END {
    for (s in seen) {
      if (s ~ /::avx2$/) nw++; else nb++
      printf "%-40s packed %4d  scalar %4d\n", s, packed[s], scalar[s]
      if (packed[s] == 0 || packed[s] < scalar[s]) {
        printf "ERROR: %s is not vectorized\n", s; bad = 1
      }
      if (zmm[s] > 0) { printf "ERROR: %s touches zmm registers\n", s; bad = 1 }
      if (fma[s] > 0) { printf "ERROR: %s holds fused multiply-adds\n", s; bad = 1 }
      if (named[s] != "") {
        printf "ERROR: %s calls%s\n", s, named[s]; bad = 1
      }
    }
    if (nb != 13 || nw != 13) {
      printf "ERROR: found %d baseline and %d avx2 pass_*/flush_* kernels, expected 13 + 13\n", nb, nw
      bad = 1
    }
    exit bad
  }' | sort
echo "OK: all 11 RHS kernels and both sink flushes are packed-f64 loops with no call in the body, xmm (baseline) and ymm (avx2); the CRC fold is pclmulqdq"
