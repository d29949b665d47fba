#!/usr/bin/env bash
# Hermetic CI gate for the geodynamo workspace.
#
# The build must succeed with *no registry access*: every dependency is a
# workspace path crate (see DESIGN.md, "Hermetic build"). This script is
# the enforcement point — it builds and tests fully offline, compiles
# every target, and fails if `cargo tree` reports any package resolved
# from a registry instead of a workspace path.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> hermetic release build (offline)"
# --workspace matters: the root is a hybrid workspace+package, and a bare
# `cargo build` covers only the root package and dependency *libraries* —
# the yycore binary the smoke tests below run would go stale.
cargo build --release --offline --workspace

echo "==> all targets compile offline (tests, examples)"
cargo build --workspace --all-targets --offline

echo "==> tests (offline)"
cargo test -q --offline --workspace

echo "==> RHS vectorization guard: packed f64 in every leaf kernel, exact in release"
bash scripts/check_simd.sh
# The debug test run above executes the kernels as scalar code; the
# lane-remainder and n < width paths only exist in an optimized build —
# of the pass kernels and of the sink flushes alike, at two lanes
# (baseline) and four (avx2). Three-way against the reference sweep.
cargo test --release -q --offline -p yy-mhd --lib -- \
  kernel_instantiations_match_reference sink_flush_matches_unfused_combine
cargo test --release -q --offline -p yycore --test kernel_exactness
# The three-grid magnetic free-decay study (l = 1, 2 at tilts 0 and 90
# degrees, observed order >= 1.9) is minutes in debug, seconds here.
cargo test --release -q --offline --test magnetic_free_decay -- --ignored

echo "==> repo benchmark smoke: the harness builds against this tree, golden verifies"
# examples/benchmark is the one external consumer of the public API
# (its own package, outside the workspace build above).
bash examples/benchmark/run.sh --smoke >/dev/null

echo "==> CLI key table: every key= this script passes is in yycore help; misplaced keys are refused"
# The keys of every yycore invocation below (continuation lines joined,
# text after the subcommand) plus the two shared argument strings.
yy_help=$(./target/release/yycore help)
used_keys=$({ sed -e ':a' -e '/\\$/N; s/\\\n//; ta' "$0" | sed -n 's/.*release\/yycore [a-z]* //p'
    sed -n 's/^w\{0,1\}soak=//p' "$0"; } | grep -oE '(^|[ "])[a-z][a-z_0-9]+=' | tr -d ' "' | sort -u)
[ "$(echo "$used_keys" | wc -l)" -ge 30 ] || {
  echo "ERROR: key extraction found too few keys: $used_keys" >&2; exit 1; }
for k in $used_keys; do
  echo "$yy_help" | grep -q "^  $k" || {
    echo "ERROR: ci.sh passes '$k' but yycore help does not list it" >&2; exit 1; }
done
reject() { # reject "<args>" "<message>": exit 1, the message in stderr's one error: line, no panic
  local out rc=0
  out=$(./target/release/yycore $1 2>&1 >/dev/null) || rc=$?
  [ "$rc" = 1 ] && echo "$out" | grep -qF "$2" \
    && [ "$(echo "$out" | grep -c '^error:')" = 1 ] && ! echo "$out" | grep -q 'panicked at' || {
    echo "ERROR: 'yycore $1' exited $rc saying: $out (wanted exit 1, one error: line: $2)" >&2; exit 1; }
}
reject "run pth=2" "key 'pth' is not read by 'run' (read by: parallel)"
reject "parallel step=2" "key 'step' is not read by 'parallel' (read by: merge)"
reject "run stepz=1" "unknown config key 'stepz' (did you mean 'steps'?)"
reject "run ext=3 nth=9" "ext must lie in 1..=2 for nth=9 (got 3)"
reject "parallel pth=0" "layout pth=0 pph=2 does not fit"
reject "parallel weights=measured" "unknown config key 'weights'"
reject "doctor ledger=x" "doctor: unknown key 'ledger'"
reject "parallel log=x" "unknown config key 'log'"
gone="retile""_backoff_ms" # split so the deleted-names guard below does not match this line
reject "parallel $gone=1" "unknown config key '$gone'"
reject "parallel delay=2" "delay must be a probability in [0, 1] (got 2)"
reject "parallel kill_rank=99" "kill_rank=99 names no rank of the 4-rank layout"
# Inputs that only replayed another path: streamed serial products
# (`series=` and `slice` write them), the lossless drop fault (a delay),
# and the resume command (`run resume=`).
gone="snapshot_ever""y"
reject "run $gone=2" "unknown config key '$gone'"
gone="dro""p"
reject "parallel $gone=0.1" "unknown config key '$gone'"
reject "resume x.ck steps=4" "unknown command 'resume'"
# Readers that only repeated another: every run prints the roofline
# table, and `doctor trace=` is the trace's reader.
reject "profile steps=1" "unknown command 'profile'"
reject "tracecheck x.json" "unknown command 'tracecheck'"
# A watchdog rule that could never fire fails the launch.
soak_dir=$(mktemp -d) # scratch for these rules files and every soak below
trap 'rm -rf "$soak_dir"' EXIT
echo 'typo: kinetc above threshold=1' >"$soak_dir/channel.rules"
echo 'typo: dt dt_collapse windw=8' >"$soak_dir/key.rules"
reject "run telemetry=1 rules=$soak_dir/channel.rules" 'rules line 1: unknown channel "kinetc"'
reject "run telemetry=1 rules=$soak_dir/key.rules" 'rules line 1: unknown key "windw"'
# No rank probes the equatorial ring, so a parallel rule on it never fires.
echo 'columns: dominant_m above threshold=4' >"$soak_dir/serial.rules"
reject "parallel telemetry=1 rules=$soak_dir/serial.rules" \
  'rules line 1: channel "dominant_m" is recorded by serial runs only'
gone="metrics_hol""d_ms" # split like the one above
reject "parallel $gone=1" "unknown config key '$gone'"
gone="ckpt_asyn""c" # the writer thread is the only writer
reject "parallel $gone=0" "unknown config key '$gone'"
reject "parallel ckpt_compress=rle" "ckpt_compress: expected none|delta, got 'rle'"
reject "run mag_bc=conducting" "unknown config key 'mag_bc'" # one magnetic wall, no key
gone="profile_ever""y" # the trace has no counter tracks
reject "parallel $gone=1" "unknown config key '$gone'"
gone="dt_collapse_facto""r" # the injected collapse halves dt per step
reject "run $gone=0.25" "unknown config key '$gone'"
# The serial blow-up: `parallel` rolls back and reduces dt; `run` has no checkpoint, and says so.
reject "run steps=400 cfl=1.0 dt_every=50 perturb=0.5 sample=0" \
  "step 145 (t = 9.5248e-1): density floor violated"
# Headers inside the geometry caps (65 536 per axis) that claim petabytes
# of payload the file does not hold: the readers run out of bytes, not
# of memory (each once aborted in the allocation).
le64() { # le64 N...: each N as a little-endian u64 (-1 is u64::MAX)
  local v i
  for v in "$@"; do
    for i in 0 1 2 3 4 5 6 7; do printf "\\$(printf %03o $(((v >> (8 * i)) & 255)))"; done
  done
}
{ printf 'YYCORE\000\002'; le64 65536 65536 65536 2 2 0 0 0; head -c 64 /dev/zero; } \
  >"$soak_dir/huge.ck"
reject "slice $soak_dir/huge.ck $soak_dir/huge-slices" \
  "checkpoint truncated while reading field data"
mkdir "$soak_dir/huge-shards"
for r in 0 1; do
  { printf 'YYCORE\000\003'; le64 65536 65536 65536 2 2 0 0 0 1 1 $r $r 0 65536 0 65536 0 -1 \
      $((1 << 54)) $((1 << 54)); } >"$soak_dir/huge-shards/step0000000000.r000$r.yys"
done
reject "merge $soak_dir/huge-shards $soak_dir/huge-merged.ck" \
  "shard truncated: encoded length 18014398509481984 exceeds the 0 bytes left in the file"
# A delta link naming its own step as base: the chain walk refuses it
# from the header alone instead of looping.
mkdir "$soak_dir/loop-shards"
{ printf 'YYCORE\000\003'; le64 2 1 1 1 1 2 0 0 1 1 0 0 0 1 0 1 3 2 128 2; } \
  >"$soak_dir/loop-shards/step0000000002.r0000.yys"
reject "merge $soak_dir/loop-shards $soak_dir/loop-merged.ck" \
  "shard delta chain does not terminate: step 2 names base 2 (rank 0)"
# A name no writer produces (a signed step) is not a shard, so a
# directory holding only that is an empty set.
mkdir "$soak_dir/stray-shards"
cp "$soak_dir/loop-shards/step0000000002.r0000.yys" "$soak_dir/stray-shards/step+000000009.r0000.yys"
reject "merge $soak_dir/stray-shards $soak_dir/stray-merged.ck" "no checkpoint shards found"
echo "OK: $(echo "$used_keys" | wc -l) keys listed by yycore help; 30 misplaced/unknown/unusable values refused"

echo "==> deleted-names guard: bench harness, partitioner, ledger, tiers, JSONL log, verdict cross-posts, vocabulary mirrors, counter-chain twins, typed messages, ring words, endpoint hold, writer switch, rle codec, zero-gradient wall, counter tracks, collapse factor, latency histograms, serial streaming, drop fault, resume command, profile and tracecheck commands, per-kernel projection, rank-0 checkpoint gather, axial moment, dedup diagnostics twin, shard encoder's payload copies, shard emitter and its config, the checked receive, the second launch loop and the plain control block, the shard set's separate io and block hand-back, the second receive, its retry slices and the fault limbo, the merge's quiet re-initialization and its padding checkpoint, the pass-boundary merge with its tile copy and the drain's generation flag"
# examples/benchmark is the repo's only benchmark and Decomp2D::new the
# only partitioner. The history files may keep naming what earlier PRs
# measured or cut with the deleted code; nothing else may (each bracket
# keeps this pattern from matching itself).
rc=0
stale=$(git grep -nE 'yy[-_]benc[h]($|[^m])|scripts/benc[h]\.sh|BENC[H]_(step|obs|profile|io)|YY_BENC[H]_|YY_C[I]_(OBS|STEP|IO)_TOL|YY_C[I]_RHS_INTENSITY_MIN|Weight[s]Mode|Colum[n]Costs|weighte[d]_starts|Ledge[r]Entry|ledge[r]_entry_from_report|tie[r]_widths|Jsonl[L]ogger|Critica[l]Gate|Straggle[r]Flagged|Docto[r]Gauges|docto[r]_gauges_text|retil[e]_backoff|RecvFutur[e]|phi_block[s]|phas[e]_code[^s]|clas[s]_code[^s]|phas[e]_ns_words|NPHAS[E]|prometheu[s]_text_with|FlopMete[r]|projec[t]_overlapped|flagshi[p]_projection_tail|counters::kerne[l]::|kerne[l]::(RHS|RK4_COMBINE|HALO_PACK|HALO_UNPACK|OVERSET_DONATE|OVERSET_FILL|HEALTH_SCAN|OUTPUT)|Payloa[d]::|internal_allgathe[r]|MailboxGauge[s]|recv_retrie[s]|msgs_sen[t]|record_rec[v]|es_performanc[e]|D_PHAS[E]|CLASS_UNKNOW[N]|fro[m]_code|Event::decod[e]|metrics_hol[d]_ms|ckpt_asyn[c]|sample_queue_dept[h]|CkptCodec::Rl[e]|ZeroGradien[t]|zero_gradien[t]|profile_ever[y]|CounterSampl[e]|counter_sampl[e]|CounterTrac[k]|dt_collapse_facto[r]|hist_jso[n]|HistogramSnapsho[t]|WaitTai[l]|record_wait_n[s]|record_step_n[s]|merge_his[t]|run_streamin[g]|StreamOpt[s]|snapshots_writte[n]|emit_snapsho[t]|with_dro[p]|max_resend[s]|resend_afte[r]|cmd_resum[e]|cmd_profil[e]|cmd_tracechec[k]|project_kernel[s]|KernelProjectio[n]|kernel_projection_tex[t]|kernel_cost[s]|KernelCos[t]|from_kernel[s]|capture_checkpoin[t]|ckpt_scratc[h]|ckpt_col[s]|TAG_GATHE[R]|CkptSlo[t]|lock_slo[t]|axial_field_momen[t]|compute_diagnostics_dedu[p]|EncStat[e]|ShardEmitte[r]|ShardCf[g]|recv_f64s_checke[d]|RuntimeCtl::plai[n]|spawn_al[l]|into_block[s]|set\.io[(][)]|recv_match_timeou[t]|try_matc[h]|limbo_dept[h]|begin_pas[s]|RETRY_BAS[E]|fn blan[k]|padding: Option<&(Checkpoin[t]|Stat[e])>|fn restore_til[e]|fn resume_afte[r]|tile_regio[n]|unpack_shard_payloa[d]|drain\((tru[e]|fals[e])\)' \
  -- . ':!CHANGES.md' ':!ROADMAP.md' ':!EXPERIMENTS.md' ':!ISSUE.md' ':!examples/benchmark') || rc=$?
[ "$rc" = 1 ] || { # 1 = no match; 0 = matches, anything else = git itself failed
  echo "ERROR: references to deleted code (git grep exit $rc):" >&2
  echo "$stale" >&2; exit 1; }
echo "OK: no tracked file outside the history names the deleted systems"

echo "==> one-definition guard: a vocabulary name is one literal, a trace record name lives in chrome.rs"
# yy_obs::event declares each code space once (enum, code, name);
# a second literal of a name is a mirror somebody has to keep in step.
# Counted on the non-test lines (up to the first #[cfg(test)]) of the
# three crates that share the vocabularies.
vocab_srcs=$(git ls-files 'crates/obs/src/*.rs' 'crates/parcomm/src/*.rs' 'crates/core/src/*.rs')
nontest_hits() { # nontest_hits <fixed string>: file:line of every non-test match
  awk -v pat="$1" 'FNR == 1 { test = 0 } /#\[cfg\(test\)\]/ { test = 1 }
    !test && index($0, pat) { print FILENAME ":" FNR }' $vocab_srcs
}
for name in '"writer_wait"' '"density-floor"' '"late sender"'; do
  hits=$(nontest_hits "$name")
  [ "$(echo "$hits" | grep -c .)" = 1 ] || {
    echo "ERROR: $name must be written once outside tests, found:" >&2; echo "$hits" >&2; exit 1; }
done
stray=$(nontest_hits 'kill injected' | grep -v '^crates/obs/src/chrome.rs:' || true)
[ -z "$stray" ] || {
  echo "ERROR: a Chrome record name outside chrome.rs:" >&2; echo "$stray" >&2; exit 1; }
echo "OK: phase, health and reason names are single literals; record names stay in chrome.rs"

echo "==> fault-injection soak: seeded delays/duplicates + a rank kill must recover bit-exactly"
soak="pth=1 pph=2 steps=6 sample=0 nr=12 nth=9"
# Clean supervised run (checkpointing only, no faults).
./target/release/yycore parallel $soak ckpt_every=2 ckpt="$soak_dir/clean.ck" >/dev/null
# Same run under seeded message faults plus a mid-run rank kill.
./target/release/yycore parallel $soak ckpt_every=2 ckpt="$soak_dir/fault.ck" \
  fault_seed=42 delay=0.20 delay_us=200 dup=0.05 kill_rank=1 kill_step=4 >/dev/null
cmp "$soak_dir/clean.ck" "$soak_dir/fault.ck"
# A rollback from a four-rank in-memory set written every step.
./target/release/yycore parallel pth=2 pph=2 steps=6 sample=0 nr=12 nth=9 ckpt_every=1 \
  ckpt="$soak_dir/every.ck" >/dev/null 2>&1
./target/release/yycore parallel pth=2 pph=2 steps=6 sample=0 nr=12 nth=9 ckpt_every=1 \
  ckpt="$soak_dir/every-kill.ck" kill_rank=2 kill_step=3 >/dev/null 2>&1
cmp "$soak_dir/every.ck" "$soak_dir/every-kill.ck"
echo "OK: recovered trajectory is bit-identical to the fault-free run"

echo "==> chaos soak: permanent rank loss must re-tile 2x2 -> 1x2 and finish byte-identical"
# Reference: an uninterrupted serial run writing the same trajectory.
./target/release/yycore run steps=8 sample=0 nr=12 nth=9 \
  ckpt="$soak_dir/chaos-serial.ck" >/dev/null 2>&1
# Chaos run: node 1 dies at step 5 on *every* pass (broken hardware).
# Retry alone can never finish; the supervisor must classify the fault
# as persistent, exclude the node, shrink the layout, and continue.
./target/release/yycore parallel pth=2 pph=2 steps=8 sample=0 nr=12 nth=9 \
  ckpt_every=2 ckpt="$soak_dir/chaos.ck" \
  ckpt_dir="$soak_dir/chaos-shards" ckpt_compress=delta \
  report_json="$soak_dir/chaos-report.json" trace="$soak_dir/chaos-trace.json" \
  kill_rank=1 kill_step=5 kill_persistent=1 \
  on_failure=retile max_retiles=2 \
  >/dev/null 2>"$soak_dir/chaos.log"
grep -q 'retiled: pass .* 2x2 -> 1x2' "$soak_dir/chaos.log" || {
  echo "ERROR: chaos run did not report a 2x2 -> 1x2 re-tile" >&2
  cat "$soak_dir/chaos.log" >&2; exit 1; }
grep -q 'degraded mode' "$soak_dir/chaos.log" || {
  echo "ERROR: chaos run did not enter degraded mode" >&2; exit 1; }
cmp "$soak_dir/chaos-serial.ck" "$soak_dir/chaos.ck"
echo "OK: re-tiled trajectory is byte-identical to the clean serial run"
# The io section totals every pass: steps 0, 2 and 4 on the 8 ranks of
# the killed 2x2 passes, then step 8 on the 4 ranks of the 1x2 one.
chaos_shards=$(ls "$soak_dir/chaos-shards" | grep -c '\.yys$')
[ "$chaos_shards" = 28 ] && grep -q "^io: $chaos_shards shard(s)" "$soak_dir/chaos.log" || {
  echo "ERROR: the chaos run left $chaos_shards shard files (want 28) and its io line must count them:" >&2
  grep '^io:' "$soak_dir/chaos.log" >&2; exit 1; }
echo "OK: the io line counts every shard file the chaos run left"
# The v3 report carries the elastic section with the retile record and
# the partitioner's predicted-vs-achieved imbalance.
for key in '"elastic"' '"policy":"retile"' \
    '"degraded":true' '"retiles"' '"excluded_node":1' \
    '"predicted_imbalance"' '"achieved_imbalance"'; do
  grep -q "$key" "$soak_dir/chaos-report.json" || {
    echo "ERROR: chaos report missing $key" >&2; exit 1; }
done
# The Chrome trace carries the retile/degrade instants.
chaos_tc=$(./target/release/yycore doctor trace="$soak_dir/chaos-trace.json")
echo "$chaos_tc" | grep -qE ' [1-9][0-9]* retile' || {
  echo "ERROR: chaos trace has no retile instants" >&2; exit 1; }
echo "$chaos_tc" | grep -qE ' [1-9][0-9]* degrade' || {
  echo "ERROR: chaos trace has no degrade instants" >&2; exit 1; }
echo "OK: retile recorded in v3 report and Chrome trace"

echo "==> benchmark-grid soak: serial, 1x2 and 2x2 write the same checkpoint at nr=24 nth=25"
# The soaks above run nr=12 nth=9. The benchmark's medium grid has 22
# interior radial nodes, and the 2x2 tiles have unequal θ extents, so
# each layout splits the sweep's runs of θ-adjacent columns differently.
bench_grid="steps=4 sample=0 nr=24 nth=25"
./target/release/yycore run $bench_grid ckpt="$soak_dir/bench-serial.ck" >/dev/null 2>&1
for layout in "pth=1 pph=2" "pth=2 pph=2"; do
  ./target/release/yycore parallel $bench_grid $layout ckpt="$soak_dir/bench-par.ck" >/dev/null 2>&1
  cmp "$soak_dir/bench-serial.ck" "$soak_dir/bench-par.ck"
done
echo "OK: the benchmark grid's checkpoint is byte-identical across 1x1, 1x2 and 2x2"

echo "==> doctor smoke: the chaos trace diagnosis names the kill and the re-tile"
# The doctor re-derives the critical path from the exported trace; the
# killed rank and the shrink it forced must both surface as disruptions.
doc_out=$(./target/release/yycore doctor trace="$soak_dir/chaos-trace.json")
echo "$doc_out"
echo "$doc_out" | grep -q 'critical-path disruption: kill on rank 1' || {
  echo "ERROR: doctor did not place the rank-1 kill on the critical path" >&2
  exit 1; }
echo "$doc_out" | grep -q 'critical-path disruption: retile 1x2' || {
  echo "ERROR: doctor did not surface the forced 2x2 -> 1x2 re-tile" >&2
  exit 1; }
# The same diagnosis must be embedded in the v5 report artifact.
./target/release/yycore doctor report="$soak_dir/chaos-report.json" >/dev/null || {
  echo "ERROR: doctor could not read the chaos report's analysis section" >&2
  exit 1; }
echo "OK: doctor names the killed rank and the re-tile on the critical path"

echo "==> elastic restart smoke: serial checkpoint resumes onto a shrunk layout"
./target/release/yycore run steps=4 sample=0 nr=12 nth=9 \
  ckpt="$soak_dir/mid.ck" >/dev/null 2>&1
./target/release/yycore parallel pth=1 pph=2 steps=8 sample=0 nr=12 nth=9 \
  resume="$soak_dir/mid.ck" ckpt="$soak_dir/resumed.ck" >/dev/null 2>&1
cmp "$soak_dir/chaos-serial.ck" "$soak_dir/resumed.ck"
echo "OK: restart onto 1x2 is byte-identical to the unbroken run"

echo "==> output soak: faulted 2x2 compressed shards, restart from the merged set"
# A 2x2 supervised run under seeded message faults plus a mid-run rank
# kill, writing per-rank delta-compressed shards through the
# writer thread. The shard stream must survive the rollback, merge back
# into a serial-format checkpoint, and seed a bit-exact restart.
./target/release/yycore parallel pth=2 pph=2 steps=8 sample=0 nr=12 nth=9 \
  ckpt_every=2 ckpt_dir="$soak_dir/shards" ckpt_compress=delta \
  report_json="$soak_dir/io-report.json" \
  fault_seed=42 delay=0.20 delay_us=200 kill_rank=1 kill_step=4 \
  >/dev/null 2>&1
# Offline merge of the mid-run set (before the kill's rollback horizon).
./target/release/yycore merge "$soak_dir/shards" "$soak_dir/merged4.ck" \
  step=4 nr=12 nth=9 >/dev/null
# Restart from the merged mid-run checkpoint onto a different layout and
# finish; the result must match the unbroken serial run byte for byte.
./target/release/yycore parallel pth=1 pph=2 steps=8 sample=0 nr=12 nth=9 \
  resume="$soak_dir/merged4.ck" ckpt="$soak_dir/io-resumed.ck" >/dev/null 2>&1
cmp "$soak_dir/chaos-serial.ck" "$soak_dir/io-resumed.ck"
# resume= also accepts the shard directory itself (newest complete set).
./target/release/yycore parallel pth=1 pph=2 steps=8 sample=0 nr=12 nth=9 \
  resume="$soak_dir/shards" ckpt="$soak_dir/io-resumed-dir.ck" >/dev/null 2>&1
cmp "$soak_dir/chaos-serial.ck" "$soak_dir/io-resumed-dir.ck"
# The serial driver reads resume= through the same loader; steps= is the
# step it ends at.
./target/release/yycore run steps=8 sample=0 nr=12 nth=9 \
  resume="$soak_dir/merged4.ck" ckpt="$soak_dir/io-run-resumed.ck" \
  series="$soak_dir/io-run-resumed.csv" >/dev/null 2>&1
cmp "$soak_dir/chaos-serial.ck" "$soak_dir/io-run-resumed.ck"
[ "$(cut -d, -f1 "$soak_dir/io-run-resumed.csv" | tr '\n' ' ')" = "step 4 8 " ] || {
  echo "ERROR: the resumed run's series does not run from step 4 to 8" >&2; exit 1; }
./target/release/yycore run steps=8 sample=0 nr=12 nth=9 \
  resume="$soak_dir/shards" ckpt="$soak_dir/io-run-resumed-dir.ck" >/dev/null 2>&1
cmp "$soak_dir/chaos-serial.ck" "$soak_dir/io-run-resumed-dir.ck"
echo "OK: merged-shard restarts are byte-identical to the clean serial run"
# A pass that advances no step stores its step-0 block once per rank:
# one file per rank, two shards written, and the merge is the serial
# step-0 checkpoint.
zero="steps=0 sample=0 nr=12 nth=9"
./target/release/yycore parallel pth=1 pph=1 $zero ckpt_dir="$soak_dir/zero-shards" \
  ckpt_compress=delta >/dev/null 2>"$soak_dir/zero.log"
[ "$(ls "$soak_dir/zero-shards" | grep -c '\.yys$')" = 2 ] || {
  echo "ERROR: a 0-step 1x1 run must leave exactly two shard files:" >&2
  ls "$soak_dir/zero-shards" >&2; exit 1; }
grep -q '^io: 2 shard(s)' "$soak_dir/zero.log" || {
  echo "ERROR: a 0-step 1x1 run must write two shards" >&2; cat "$soak_dir/zero.log" >&2; exit 1; }
./target/release/yycore merge "$soak_dir/zero-shards" "$soak_dir/zero-merged.ck" \
  nr=12 nth=9 >/dev/null
./target/release/yycore run $zero ckpt="$soak_dir/zero-serial.ck" >/dev/null 2>&1
cmp "$soak_dir/zero-serial.ck" "$soak_dir/zero-merged.ck"
echo "OK: a 0-step run writes each rank's step-0 shard once and merges to the serial step 0"
# The v4 report's io section must carry the output-pipeline accounting.
for key in '"io"' '"shards_written"' '"bytes_raw"' '"bytes_written"' \
    '"write_wall_s"' '"codec":"delta"' \
    '"compression_ratio"'; do
  grep -q "$key" "$soak_dir/io-report.json" || {
    echo "ERROR: io report missing $key" >&2; exit 1; }
done
# The writer wait is recorded once, as a phase.
grep -q '"writer_wait_s"' "$soak_dir/io-report.json" || {
  echo "ERROR: io report missing writer_wait phase" >&2; exit 1; }
echo "OK: v4 report io section well-formed"

echo "==> observability smoke: faulted supervised run leaves a post-mortem trace"
./target/release/yycore parallel $soak trace="$soak_dir/trace.json" \
  report_json="$soak_dir/report.json" \
  fault_seed=42 kill_rank=1 kill_step=4 >/dev/null
test -s "$soak_dir/trace.json.postmortem" || {
  echo "ERROR: post-mortem trace missing" >&2; exit 1; }
# doctor trace= validates the Chrome trace structure and reports the kill
# count; a post-mortem from a killed run must contain the kill event.
pm=$(./target/release/yycore doctor trace="$soak_dir/trace.json.postmortem")
echo "$pm"
echo "$pm" | grep -qE ' [1-9][0-9]* kill' || {
  echo "ERROR: post-mortem trace has no kill event" >&2; exit 1; }
# The trace and the report of one run read the same steps and the same
# ring coverage: the trace carries its rings' counts.
steps_line() { ./target/release/yycore doctor "$1" | grep 'steps analyzed:'; }
[ "$(steps_line trace="$soak_dir/trace.json")" = "$(steps_line report="$soak_dir/report.json")" ] || {
  echo "ERROR: doctor trace= and report= of one run disagree:" >&2
  steps_line trace="$soak_dir/trace.json" >&2; steps_line report="$soak_dir/report.json" >&2; exit 1; }
# Hostile artifacts are one error line, not an abort: 300 000 unclosed
# brackets once overflowed the parser's stack, and a huge tid once sized
# an allocation.
head -c 300000 /dev/zero | tr '\0' '[' >"$soak_dir/deep.json"
echo '{"traceEvents":[{"name":"step 1","ph":"i","pid":0,"tid":4000000000000,"ts":1,"args":{"step":1}}]}' \
  >"$soak_dir/tid.json"
for reader in "doctor trace=" "doctor report="; do
  reject "$reader$soak_dir/deep.json" "nesting deeper than 128 at byte 128"
done
reject "doctor trace=$soak_dir/tid.json" \
  "event 0 (step 1): tid 4000000000000 is not an integer rank below 65536"
grep -q '"schema":"yy.runreport.v6"' "$soak_dir/report.json" || {
  echo "ERROR: report.json missing schema tag" >&2; exit 1; }
# The v6 additions are always present: an (empty here) alerts array and
# a telemetry section (null — this run was not armed).
for key in '"alerts"' '"telemetry"'; do
  grep -q "$key" "$soak_dir/report.json" || {
    echo "ERROR: report.json missing v6 key $key" >&2; exit 1; }
done
# Receive wait is the `wait` phase; the report carries no histograms.
! grep -q '"histograms"' "$soak_dir/report.json" || {
  echo "ERROR: report.json still carries a histograms section" >&2; exit 1; }
grep -q '"kernels"' "$soak_dir/report.json" || {
  echo "ERROR: report.json missing the v2 kernel table" >&2; exit 1; }
# The v5 analysis section must be present and populated on a traced run.
for key in '"analysis"' '"verdict"' '"gating"' '"stragglers"' \
    '"steps_analyzed"' '"coverage"'; do
  grep -q "$key" "$soak_dir/report.json" || {
    echo "ERROR: report.json missing v5 analysis key $key" >&2; exit 1; }
done
echo "OK: post-mortem + final traces valid, report versioned"

echo "==> science telemetry smoke: seeded dt collapse fires the blow-up alert"
# A supervised run with the series store + watchdog armed and a seeded
# geometric dt collapse injected from step 10. The energy_blowup
# precursor must land in the driver log, the v6 report, and the Chrome
# trace; a clean armed run must fire nothing (DESIGN.md §6j).
wsoak="pth=1 pph=2 steps=16 sample=1 nr=12 nth=9"
./target/release/yycore parallel $wsoak telemetry=1 dt_collapse_at=10 \
  trace="$soak_dir/wtrace.json" report_json="$soak_dir/wreport.json" \
  >/dev/null 2>"$soak_dir/watch.log"
grep -q 'watchdog energy_blowup (dt-collapse): FIRED' "$soak_dir/watch.log" || {
  echo "ERROR: seeded collapse did not fire energy_blowup" >&2
  cat "$soak_dir/watch.log" >&2; exit 1; }
grep -q '"rule":"energy_blowup"' "$soak_dir/wreport.json" || {
  echo "ERROR: report carries no energy_blowup alert edge" >&2; exit 1; }
grep -q '"channels"' "$soak_dir/wreport.json" || {
  echo "ERROR: report carries no telemetry series store" >&2; exit 1; }
wtc=$(./target/release/yycore doctor trace="$soak_dir/wtrace.json")
echo "$wtc"
echo "$wtc" | grep -qE ' [1-9][0-9]* alert edge' || {
  echo "ERROR: trace carries no alert instants" >&2; exit 1; }
# The same grid armed but unseeded: the watchdog must stay quiet.
./target/release/yycore parallel $wsoak telemetry=1 \
  report_json="$soak_dir/wclean.json" >/dev/null 2>"$soak_dir/wclean.log"
if grep -q 'FIRED' "$soak_dir/wclean.log"; then
  echo "ERROR: clean armed run fired an alert" >&2
  cat "$soak_dir/wclean.log" >&2; exit 1; fi
grep -q '"alerts":\[\]' "$soak_dir/wclean.json" || {
  echo "ERROR: clean armed run has non-empty report alerts" >&2; exit 1; }
echo "OK: seeded collapse fires energy_blowup; clean armed run stays quiet"

echo "==> watch smoke: doctor renders the report's telemetry, watch the live endpoint"
watch_out=$(./target/release/yycore doctor report="$soak_dir/wreport.json")
echo "$watch_out" | grep -q 'alert energy_blowup (dt-collapse): FIRED' || {
  echo "ERROR: doctor report= did not render the alert" >&2
  echo "$watch_out" >&2; exit 1; }
echo "$watch_out" | grep -q 'kinetic' || {
  echo "ERROR: doctor report= did not render channel panels" >&2; exit 1; }
# A finished run's report is doctor's; watch reads a live endpoint only.
reject "watch $soak_dir/wreport.json" "watch reads a live endpoint (http://host:port)"
# URL mode: the seeded collapse again, serving live metrics, on a grid
# large enough that the alert stays FIRING for seconds, and with more
# steps than it will ever finish: the watcher must see the alert while
# the run is still stepping, then the run is killed.
wport=${YY_CI_WATCH_PORT:-19184}
./target/release/yycore parallel pth=1 pph=2 steps=100000 sample=1 nr=24 nth=17 \
  telemetry=1 dt_collapse_at=10 metrics_port="$wport" >/dev/null 2>&1 &
wpid=$!
live_ok=0
for _ in $(seq 1 40); do
  live=$(./target/release/yycore watch "http://127.0.0.1:$wport" frames=1 \
    retries=40 2>/dev/null) || true
  if echo "$live" | grep -q 'alert energy_blowup.*FIRING'; then
    live_ok=1; break; fi
  sleep 0.5
done
kill "$wpid" 2>/dev/null || true
wait "$wpid" 2>/dev/null || true
[ "$live_ok" = 1 ] || {
  echo "ERROR: watch (URL mode) never saw the firing alert gauge of a running run" >&2; exit 1; }
echo "OK: doctor renders the report's telemetry; watch renders a running run's live gauges"

echo "==> roofline smoke: every run prints its kernel table on stderr"
for cmd in "run steps=3 sample=0" "parallel pth=1 pph=2 steps=3 sample=0 nr=12 nth=9"; do
  roofline=$(./target/release/yycore $cmd 2>&1 >/dev/null)
  echo "$roofline" | grep -qE '^kernel +calls +MFLOPS +flops/B +avg VL +%flops$' || {
    echo "ERROR: '$cmd' did not print the roofline header" >&2; echo "$roofline" >&2; exit 1; }
  echo "$roofline" | grep -qE '^rhs +[0-9]+ ' || {
    echo "ERROR: '$cmd' did not print an rhs row" >&2; echo "$roofline" >&2; exit 1; }
done
echo "OK: run and parallel print the measured roofline table"

echo "==> dependency audit: workspace path dependencies only"
# Path dependencies print as `name vX.Y.Z (/abs/path)`; anything without
# a path source came from a registry and breaks hermeticity.
nonpath=$(cargo tree --workspace --edges normal,dev,build --prefix none --offline \
  | sed 's/ (\*)$//' \
  | grep -vE '^\[|^$' \
  | grep -v ' (/' \
  | sort -u || true)
if [ -n "$nonpath" ]; then
  echo "ERROR: non-workspace (registry) dependencies detected:" >&2
  echo "$nonpath" >&2
  exit 1
fi
echo "OK: only workspace path dependencies"
