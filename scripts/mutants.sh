#!/usr/bin/env bash
# Mutant kill matrix: does the test suite catch wrong physics?
#
# Every exactness suite compares the solver with itself (fused vs
# reference sweep, parallel vs serial, resumed vs straight), so a wrong
# sign in a definition both sides read passes all of them. Each mutant
# below is one or more (file, old text, new text) edits to such a shared
# definition, or the same edit to both sweeps. The script checks REV
# (default HEAD) out into a scratch git worktree, runs the physics-facing
# tests there unmutated, `#[ignore]`d studies included (they must pass),
# then applies each mutant in turn and prints one line per mutant:
#   <name>  killed <first failing test>    or    <name>  survived
# An old text that does not occur exactly once fails the script, so the
# list cannot rot silently; so does a mutant that does not compile.
#
# Usage: scripts/mutants.sh [REV] [SCRATCH_DIR]
#   SCRATCH_DIR holds the worktree and the target directory the mutants
#   share (default: a fresh temporary directory, removed at exit).
# Not part of tier-1 or ci.sh: every mutant relinks the release test
# binaries, about 25 minutes for the whole list on two cores.
set -euo pipefail
shopt -u patsub_replacement 2>/dev/null || true # keep '&' literal in replacements
repo=$(git -C "$(dirname "$0")/.." rev-parse --show-toplevel)
rev=$(git -C "$repo" rev-parse --verify "${1:-HEAD}^{commit}")
scratch=${2:-}
if [ -z "$scratch" ]; then
  scratch=$(mktemp -d)
  trap 'git -C "$repo" worktree remove --force "$scratch/worktree" 2>/dev/null; rm -rf "$scratch"' EXIT
else
  mkdir -p "$scratch"
  trap 'git -C "$repo" worktree remove --force "$scratch/worktree" 2>/dev/null || true' EXIT
fi
wt="$scratch/worktree"
export CARGO_TARGET_DIR="$scratch/target"
tests=(cargo test --release --offline -p geodynamo -p yy-mhd -p yy-rigs --tests)
per_mutant_timeout=1800 # seconds; a mutant that hangs the suite counts as killed

die() { echo "mutants.sh: $*" >&2; exit 1; }

# patch FILE OLD NEW: replace the one occurrence of OLD (or only check
# that there is exactly one when $dry is set).
patch() {
  local file="$wt/$1" text rest
  text=$(<"$file")
  rest=${text#*"$2"}
  [ "$rest" != "$text" ] || die "$1: old text not found: $2"
  [[ "$rest" != *"$2"* ]] || die "$1: old text occurs more than once: $2"
  [ -n "$dry" ] || printf '%s\n' "${text/"$2"/"$3"}" >"$file"
}

# m NAME (FILE OLD NEW)...: the mutant list walks through this once per
# pass; it checks every mutant (dry) or applies mutant number $want.
m() {
  local name=$1
  shift
  idx=$((idx + 1))
  names[idx]=$name
  [ -n "$dry" ] || [ "$idx" = "$want" ] || return 0
  while [ $# -gt 0 ]; do
    patch "$1" "$2" "$3"
    shift 3
  done
}

mutants() {
  idx=0
  m coriolis_sign crates/mhd/src/tables.rs \
    'let omega_cart = axis.normalized() * omega;' \
    'let omega_cart = axis.normalized() * -omega;'
  m gravity_x1.05 crates/mhd/src/tables.rs \
    'map(|&r| -g0 / (r * r))' \
    'map(|&r| -1.05 * g0 / (r * r))'
  m colgeom_cot_dropped crates/mhd/src/ops.rs \
    'cot_t: m.cot_t(j),' \
    'cot_t: 0.0,'
  m yinyang_basis_sign crates/geomath/src/yinyang.rs \
    '[t_img.dot(basis_b.e_phi), p_img.dot(basis_b.e_phi)],' \
    '[-t_img.dot(basis_b.e_phi), p_img.dot(basis_b.e_phi)],'
  m bilinear_theta_swap crates/mesh/src/interp.rs \
    'let w = [' \
    'let fy = 1.0 - fy; let w = ['
  m inner_wall_temp crates/mhd/src/bc.rs \
    'let p_in = state.rho.at(0, j, k) * t_inner;' \
    'let p_in = state.rho.at(0, j, k) * (1.05 * t_inner);'
  m wall_no_slip_inner crates/mhd/src/bc.rs \
    'arr.set(0, j, k, 0.0);' \
    'arr.set(0, j, k, 1e-3);'
  m gamma_pressure_eq crates/mhd/src/rhs.rs \
    '-v_grad_p - gamma * p_c * div_v' \
    '-v_grad_p - (gamma + 0.05) * p_c * div_v' \
    crates/mhd/src/rhs.rs \
    '-v_grad_p - gamma * p_c[li] * div_v' \
    '-v_grad_p - (gamma + 0.05) * p_c[li] * div_v'
  m metric_r2_as_r crates/mesh/src/metric.rs \
    'let r2 = r.iter().map(|&x| x * x).collect();' \
    'let r2 = r.iter().map(|&x| x).collect();'
  m overlap_norm crates/mhd/src/energy.rs \
    '4.0 * std::f64::consts::PI / (2.0 * phi_span * cap)' \
    '4.0 * std::f64::consts::PI / (phi_span * cap)'
  m ohmic_heating_off crates/mhd/src/rhs.rs \
    'let j2 = j_r * j_r + j_t * j_t + j_p * j_p;' \
    'let j2 = 0.0 * (j_r * j_r + j_t * j_t + j_p * j_p);' \
    crates/mhd/src/rhs.rs \
    'let j2 = j_r[q] * j_r[q] + j_t[q] * j_t[q] + j_p[q] * j_p[q];' \
    'let j2 = 0.0 * (j_r[q] * j_r[q] + j_t[q] * j_t[q] + j_p[q] * j_p[q]);'
  m current_theta_sin2 crates/mhd/src/rhs.rs \
    'j_t[q] = a2.grad_div[1] - a2.lap[1];' \
    'j_t[q] = a2.grad_div[1] - a2.lap[1] - ir_w[q] * ir_w[q] * g.inv_sin2 * at.c[q + 1];' \
    crates/mhd/src/rhs.rs \
    'let j_t = a2.grad_div[1] - a2.lap[1];' \
    'let j_t = a2.grad_div[1] - a2.lap[1] - ir2 * g.inv_sin2 * at_cols.c[i];'
  m current_phi_cross crates/mhd/src/rhs.rs \
    'j_p[q] = a2.grad_div[2] - a2.lap[2];' \
    'j_p[q] = a2.grad_div[2] - a2.lap[2] + 2.0 * ir_w[q] * ir_w[q] * g.cot_t * g.inv_sin * at.ddp(q + 1, sp);' \
    crates/mhd/src/rhs.rs \
    'let j_p = a2.grad_div[2] - a2.lap[2];' \
    'let j_p = a2.grad_div[2] - a2.lap[2] + 2.0 * ir2 * g.cot_t * g.inv_sin * at_cols.ddp(i, &sp);'
  m rk4_weight_control crates/geomath/src/rk4.rs \
    '[1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0]' \
    '[1.0 / 5.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0]'
}

# run_tests LOG: build (a failure is the script's), then test; prints the
# first failing test's name, or nothing when every test passed.
run_tests() {
  (cd "$wt" && "${tests[@]}" --no-run -q) >"$1" 2>&1 || { cat "$1" >&2; die "build failed"; }
  local rc=0
  (cd "$wt" && timeout "$per_mutant_timeout" "${tests[@]}" --no-fail-fast -- --include-ignored) \
    >>"$1" 2>&1 || rc=$?
  [ "$rc" = 0 ] && return 0
  [ "$rc" = 124 ] && { echo "(timeout after ${per_mutant_timeout}s)"; return 0; }
  local first
  first=$(sed -n 's/^test \(.*\) \.\.\. FAILED$/\1/p' "$1" | head -n 1)
  echo "${first:-(exit $rc, no test named)}"
}

git -C "$repo" worktree add --detach "$wt" "$rev" >/dev/null 2>&1 || die "cannot add a worktree at $wt"
echo "mutant matrix at $(git -C "$wt" rev-parse --short HEAD), target dir $CARGO_TARGET_DIR"
dry=1
mutants # every old text matches exactly once, before anything is built
dry=
count=$idx
start=$SECONDS
failed=$(run_tests "$scratch/baseline.log")
[ -z "$failed" ] || die "the unmutated tree fails: $failed (see $scratch/baseline.log)"
echo "unmutated tree passes ($((SECONDS - start)) s)"
killed=0
for want in $(seq 1 "$count"); do
  git -C "$wt" checkout -q -- .
  mutants
  t0=$SECONDS
  failed=$(run_tests "$scratch/mutant$want.log")
  if [ -n "$failed" ]; then
    killed=$((killed + 1))
    verdict="killed $failed"
  else
    verdict=survived
  fi
  printf '%-22s %s (%d s)\n' "${names[want]}" "$verdict" $((SECONDS - t0))
done
git -C "$wt" checkout -q -- .
echo "killed $killed of $count mutants"
