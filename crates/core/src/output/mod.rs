//! The overlapped output pipeline: per-rank checkpoint shards,
//! delta + RLE compression, and the double-buffered writer thread.
//!
//! The paper's production runs emitted 500 GB 3-D snapshots while
//! sustaining 15.2 TFlops — output has to hide behind compute the same
//! way halo traffic does. Three pieces reproduce that discipline here:
//!
//! 1. **Shards (format v3).** Each rank serializes its *owned* region —
//!    no gather, no rank-0 bottleneck — into a self-describing file:
//!
//!    ```text
//!    magic "YYCORE\0\3"  (8 bytes)
//!    nr, nth, nph, gth, gph : u64 × 5     (full-panel geometry)
//!    step : u64 ; time : f64 ; dt_cache : f64
//!    pth, pph, rank, panel : u64 × 4      (layout + owner)
//!    j0, tnth, k0, tnph : u64 × 4         (owned tile, interior coords)
//!    flags : u64                          (bit 0 delta, bit 1 RLE)
//!    base_step : u64                      (delta base; MAX when raw)
//!    raw_len, enc_len : u64 × 2
//!    payload : enc_len bytes              (encoded owned region)
//!    hashed_len : u64 ; crc32 : u32       (integrity footer)
//!    ```
//!
//!    The CRC covers the header and the **uncompressed** payload, so a
//!    decode of corrupt input can never pass the check, whatever the
//!    codec does with the bytes. [`merge_shards`] decodes any complete
//!    shard set into its ranks' owned blocks and merges them into the
//!    serial-format [`crate::checkpoint::Checkpoint`] byte-identically
//!    (the restart-onto-any-layout property). A supervised run keeps
//!    the same blocks in memory (`ShardSet`) as its rollback point:
//!    each rank of the next pass places the part of every block that
//!    meets its tile (`place_block`, the merge's own placement), and
//!    only the final checkpoint is merged — by the same one assembler
//!    (`merge_blocks`) a set read from disk goes through.
//!
//! 2. **Codecs.** A zero-dependency XOR-delta against the previous
//!    checkpoint's payload (most field bytes are unchanged between
//!    nearby checkpoints, so the delta is zero-heavy) chained into a
//!    byte-wise RLE codec (PackBits-style: literal runs and repeat runs,
//!    worst-case expansion 1/128 + 2 bytes). Delta shards name their
//!    base step; the merging reader walks the chain's headers back to
//!    the nearest self-contained shard, then decodes forward into one
//!    payload buffer. `ckpt_compress=` picks `none` or `delta`;
//!    a `delta` shard with no base is the self-contained RLE-only one.
//!
//! 3. **The writer.** [`OutputStage`] runs one writer thread per rank,
//!    owned by the pass's `ShardSet` — the one sink of a checkpoint
//!    event, which packs the rank's owned region once, keeps the block
//!    and hands it to the writer, drains the writer at the pass's end
//!    and totals every rank's writes for the report. The writer encodes
//!    and writes that same block — the delta base is the set's previous
//!    block, the XOR is formed inside the RLE scan, and the file goes
//!    out through one small buffer — so a block is held once, and
//!    encoding and the file write overlap the next RK4 steps when a core
//!    is free for the writer. The next store waits until the writer has
//!    let go of the buffer it reuses; that backpressure is measured and
//!    charged to the `writer_wait` phase (and the `output` kernel
//!    counter), so the run report shows exactly how much output cost the
//!    pipeline failed to hide. The stage's two-slot buffer pool serves
//!    only verbatim file images ([`OutputStage::acquire`] /
//!    [`OutputStage::submit`]). The inline write (`OutputStage::new`
//!    given `false`) is reached from one test only, which holds it and
//!    the threaded writer to the same expected files; no test compares
//!    the two, so it is an oracle in name only.

mod codec;
mod merge;
mod shard;
mod stage;

pub use codec::{rle_decode, rle_encode, CkptCodec};
pub use merge::merge_shards;
pub(crate) use merge::{checkpoint_blocks, merge_blocks, Block, ShardSet};
pub(crate) use shard::{pack_shard_payload, place_block};
pub use shard::{parse_shard_name, shard_file_name, ShardMeta};
pub use stage::{IoTotals, OutputStage};

#[cfg(test)]
mod tests {
    use super::codec::{rle_decode_xor, rle_encode_spilled, xor_with, Xor};
    use super::shard::{encode_shard, read_shard, FLAG_DELTA, FLAG_RLE};
    use super::*;
    use crate::checkpoint::Crc32;
    use crate::config::RunConfig;
    use crate::serial::SerialSim;
    use std::io;
    use std::path::PathBuf;
    use yy_field::Shape;
    use yy_mhd::State;
    use yy_testkit::{check_with, tk_assert, tk_assert_eq, Config, Gen};

    fn gen_bytes(g: &mut Gen) -> Vec<u8> {
        let n = g.range_usize(0, 4000);
        let mut v = Vec::with_capacity(n);
        while v.len() < n {
            match g.below(4) {
                // Long constant run (the XOR-delta shape).
                0 => {
                    let b = g.below(256) as u8;
                    let run = g.range_usize(1, 600).min(n - v.len());
                    v.extend(std::iter::repeat_n(b, run));
                }
                // Short noisy stretch (raw f64 mantissas).
                _ => {
                    let run = g.range_usize(1, 40).min(n - v.len());
                    for _ in 0..run {
                        v.push(g.below(256) as u8);
                    }
                }
            }
        }
        v
    }

    /// The byte-at-a-time encoder [`rle_encode`] replaced, kept verbatim
    /// as the stream oracle: format v3 is whatever this loop emits.
    fn rle_encode_reference(src: &[u8], out: &mut Vec<u8>) {
        let n = src.len();
        let mut i = 0;
        while i < n {
            let b = src[i];
            let mut run = 1;
            while i + run < n && src[i + run] == b && run < 130 {
                run += 1;
            }
            if run >= 3 {
                out.push(0x80 + (run - 3) as u8);
                out.push(b);
                i += run;
                continue;
            }
            // Literal segment: scan forward until a repeat run of >= 3
            // starts (or the 128-byte frame fills).
            let start = i;
            i += run;
            while i < n && i - start < 128 {
                let b2 = src[i];
                let mut r2 = 1;
                while i + r2 < n && src[i + r2] == b2 && r2 < 3 {
                    r2 += 1;
                }
                if r2 >= 3 {
                    break;
                }
                i += r2;
            }
            if i - start > 128 {
                i = start + 128;
            }
            out.push((i - start - 1) as u8);
            out.extend_from_slice(&src[start..i]);
        }
    }

    /// Inputs aimed at the encoder's edges, 0..=700 bytes long so the
    /// sub-word scalar tails run: noise, two-symbol noise, runs of 1–5,
    /// runs across the 130 cap, literal frames across 128 with an equal
    /// pair on the boundary, and f64-delta-like words.
    fn gen_edge_bytes(g: &mut Gen) -> Vec<u8> {
        let n = g.range_usize(0, 701);
        let mut v: Vec<u8> = Vec::with_capacity(n + 8);
        let shape = g.below(6);
        while v.len() < n {
            match shape {
                0 => v.push(g.below(256) as u8),
                1 => v.push(g.below(2) as u8),
                2 => {
                    let b = g.below(4) as u8;
                    v.extend(std::iter::repeat_n(b, g.range_usize(1, 6)));
                }
                3 => {
                    let b = g.below(256) as u8;
                    v.extend(std::iter::repeat_n(b, g.range_usize(120, 400)));
                    v.extend((0..g.range_usize(0, 4)).map(|_| g.below(256) as u8));
                }
                4 => {
                    // Distinct neighbours (no pair, no triple) up to one
                    // or two bytes short of a frame end, then a pair.
                    let gap = g.range_usize(120, 132);
                    for _ in 0..gap {
                        let last = v.last().copied().unwrap_or(0);
                        v.push(last.wrapping_add(1 + g.below(200) as u8));
                    }
                    let last = v.last().copied().unwrap_or(0);
                    v.extend(std::iter::repeat_n(last, g.range_usize(1, 3)));
                }
                _ => {
                    v.extend((0..5).map(|_| g.below(256) as u8));
                    v.extend([0, 0, 0]);
                }
            }
        }
        v.truncate(n);
        v
    }

    #[test]
    fn rle_stream_is_the_reference_encoders_byte_for_byte() {
        for (name, gen) in [
            ("rle_oracle_edges", gen_edge_bytes as fn(&mut Gen) -> Vec<u8>),
            ("rle_oracle_mixed", gen_bytes),
        ] {
            check_with(Config::with_cases(400), name, gen, |src| {
                let (mut enc, mut want) = (Vec::new(), Vec::new());
                rle_encode(src, &mut enc);
                rle_encode_reference(src, &mut want);
                tk_assert!(enc == want, "stream differs from the reference on {} bytes", src.len());
                let mut dec = Vec::new();
                rle_decode(&enc, src.len(), &mut dec).map_err(|e| e.to_string())?;
                tk_assert!(dec == *src, "RLE roundtrip changed the bytes");
                // As a delta link: the fused scan of `src ^ base`, spilled
                // in small pieces, is the XOR image's stream, and decoding
                // it into `base` in place gives `src` back.
                let base: Vec<u8> = src.iter().rev().copied().collect();
                let image: Vec<u8> = src.iter().zip(&base).map(|(a, b)| a ^ b).collect();
                let (mut fused, mut chunk) = (Vec::new(), Vec::new());
                rle_encode_spilled(Xor::new(src, &base), &mut chunk, 7, |c| {
                    fused.append(c);
                    Ok(())
                })
                .map_err(|e| e.to_string())?;
                fused.append(&mut chunk);
                want.clear();
                rle_encode_reference(&image, &mut want);
                tk_assert!(fused == want, "fused XOR stream differs on {} bytes", src.len());
                let mut back = base;
                rle_decode_xor(&fused, &mut back).map_err(|e| e.to_string())?;
                tk_assert!(back == *src, "in-place XOR decode changed the bytes");
                Ok(())
            });
        }
    }

    #[test]
    fn rle_roundtrips_and_respects_the_expansion_bound() {
        check_with(Config::with_cases(60), "rle_roundtrip", gen_bytes, |src| {
            let mut enc = Vec::new();
            rle_encode(src, &mut enc);
            tk_assert!(
                enc.len() <= src.len() + src.len() / 128 + 2,
                "encoded {} bytes from {} (bound exceeded)",
                enc.len(),
                src.len()
            );
            let mut dec = Vec::new();
            rle_decode(&enc, src.len(), &mut dec).map_err(|e| e.to_string())?;
            tk_assert!(dec == *src, "RLE roundtrip changed the bytes");
            Ok(())
        });
    }

    #[test]
    fn rle_compresses_zero_runs_hard() {
        let src = vec![0u8; 130 * 100];
        let mut enc = Vec::new();
        rle_encode(&src, &mut enc);
        assert_eq!(enc.len(), 200, "a pure zero run costs 2 bytes per 130");
        let mut dec = Vec::new();
        rle_decode(&enc, src.len(), &mut dec).unwrap();
        assert_eq!(dec, src);
    }

    #[test]
    fn rle_rejects_corrupt_streams() {
        let src: Vec<u8> = (0..=255u8).collect();
        let mut enc = Vec::new();
        rle_encode(&src, &mut enc);
        let mut dec = Vec::new();
        // Truncated stream.
        let err = rle_decode(&enc[..enc.len() - 1], src.len(), &mut dec).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
        // Wrong expected length.
        dec.clear();
        let err = rle_decode(&enc, src.len() - 1, &mut dec).unwrap_err();
        assert!(err.to_string().contains("corrupt"), "{err}");
    }

    #[test]
    fn xor_delta_is_an_involution() {
        check_with(Config::with_cases(20), "xor_involution", gen_bytes, |src| {
            let mut base = src.clone();
            base.reverse();
            let mut d = src.clone();
            xor_with(&mut d, &base);
            xor_with(&mut d, &base);
            tk_assert_eq!(d, *src);
            Ok(())
        });
    }

    #[test]
    fn shard_names_roundtrip_and_sort_by_step() {
        assert_eq!(parse_shard_name(&shard_file_name(42, 3)), Some((42, 3)));
        assert_eq!(parse_shard_name("stepXX.r0.yys"), None);
        assert_eq!(parse_shard_name("unrelated.txt"), None);
        // Only a writer's own name parses: no sign, no extra digits.
        for stray in [
            "step+000000009.r0000.yys",
            "step0000000004.r00001.yys",
            "step0000000004.r+001.yys",
            "step00000000004.r0001.yys",
        ] {
            assert_eq!(parse_shard_name(stray), None, "{stray}");
        }
        assert_eq!(
            parse_shard_name(&shard_file_name(12_345_678_901, 10_000)),
            Some((12_345_678_901, 10_000))
        );
        assert!(shard_file_name(9, 0) < shard_file_name(10, 0));
    }

    /// One rank's worth of state for shard tests: a 1×1 layout means the
    /// serial panel states *are* the owned blocks.
    fn sim_at(steps: u64) -> SerialSim {
        let mut cfg = RunConfig::small();
        cfg.init.perturb_amplitude = 1e-2;
        let mut sim = SerialSim::new(cfg);
        sim.run(steps, 0);
        sim
    }

    fn meta_for(sim: &SerialSim, rank: u64, panel: u64) -> ShardMeta {
        let shape = sim.yin.shape();
        let place = [1, 1, rank, panel, 0, shape.nth as u64, 0, shape.nph as u64];
        ShardMeta::new(shape, (sim.step, sim.time, sim.dt_cache), place)
    }

    type Encoded = (Vec<u8>, (u64, u64));

    fn encode(m: &ShardMeta, raw: &[u8], base: Option<(u64, &[u8])>, c: CkptCodec) -> Encoded {
        let mut file = io::Cursor::new(Vec::new());
        let (flags, base_step, len) =
            encode_shard(m, raw, base, c, &mut Vec::new(), &mut file).expect("in-memory write");
        let file = file.into_inner();
        assert_eq!(len, file.len() as u64, "reported file length");
        (file, (flags, base_step))
    }

    /// Decode one shard image; a delta link is applied to `base`.
    fn decode(file: &[u8], base: Option<&[u8]>) -> io::Result<(ShardMeta, Vec<u8>)> {
        let mut payload = base.map_or_else(Vec::new, <[u8]>::to_vec);
        read_shard(&mut &file[..], &mut payload).map(|meta| (meta, payload))
    }

    /// An in-memory set keeps each rank's two newest blocks: a third
    /// event replaces the oldest, and `drain` hands back the newest step
    /// every rank stored, in rank order — rank 0's older generation when
    /// rank 1 fell one event behind — or nothing when no step is complete.
    #[test]
    fn shard_set_keeps_the_two_newest_generations() {
        let sim = sim_at(0);
        let filled = |events: &[&[u64]]| {
            let set = ShardSet::new(events.len(), None);
            for (rank, steps) in events.iter().enumerate() {
                for &step in *steps {
                    let meta = ShardMeta { step, ..meta_for(&sim, rank as u64, rank as u64) };
                    set.store(meta, |raw: &mut Vec<u8>| *raw = vec![step as u8, rank as u8]);
                }
            }
            set.drain().0.map(|blocks| {
                blocks.into_iter().map(|(m, r)| (m.step, m.rank, r.to_vec())).collect::<Vec<_>>()
            })
        };
        assert_eq!(filled(&[&[0, 2, 4]]), Some(vec![(4, 0, vec![4, 0])]));
        let behind = Some(vec![(2, 0, vec![2, 0]), (2, 1, vec![2, 1])]);
        assert_eq!(filled(&[&[0, 2, 4], &[0, 2]]), behind);
        assert_eq!(filled(&[&[0, 2, 4], &[0]]), None, "step 0 was overwritten on rank 0");
        assert_eq!(filled(&[&[], &[]]), None);
    }

    /// A set that writes to disk hands each rank's blocks to that rank's
    /// own writer: a shard that cannot be written fails its rank's
    /// `finish`, not another rank's.
    #[test]
    fn shard_set_reports_a_write_error_at_its_ranks_finish() {
        let dir = std::env::temp_dir().join(format!("yy_shard_set_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sim = sim_at(0);
        let set = ShardSet::new(2, Some((dir.clone(), CkptCodec::Delta)));
        let store = |rank: u64, step: u64| {
            let meta = ShardMeta { step, ..meta_for(&sim, rank, rank) };
            set.store(meta, |raw: &mut Vec<u8>| *raw = vec![step as u8; 64])
        };
        for rank in [0, 1] {
            assert!(store(rank, 0).is_some(), "the set writes to disk");
        }
        // Remove the directory only once both writers are idle.
        let written = |rank| dir.join(shard_file_name(0, rank)).is_file();
        for _ in 0..10_000 {
            if written(0) && written(1) {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(written(0) && written(1), "the step-0 shards were not written");
        std::fs::remove_dir_all(&dir).unwrap();
        store(0, 2);
        let err = set.finish(0).unwrap().1.unwrap_err();
        let path = dir.join(shard_file_name(2, 0));
        assert!(err.starts_with(&format!("writing {}", path.display())), "{err}");
        assert_eq!(set.finish(1).unwrap().1, Ok(()));
        // The failed writer's step-0 shard was renamed into place, so it counts.
        assert_eq!(set.drain().1.shards_written, 2);
        assert!(ShardSet::new(1, None).finish(0).is_none(), "a set without disk has no writer");
    }

    /// The pass boundary counts a writer no rank finished: rank 1
    /// stores two blocks and never calls `finish` (as a killed rank
    /// does), and `drain` still writes and counts both of its shards
    /// beside rank 0's.
    #[test]
    fn shard_set_drain_counts_an_unfinished_writer() {
        let dir = std::env::temp_dir().join(format!("yy_shard_drain_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sim = sim_at(0);
        let set = ShardSet::new(2, Some((dir.clone(), CkptCodec::Delta)));
        for rank in [0, 1] {
            for step in [0, 2] {
                let meta = ShardMeta { step, ..meta_for(&sim, rank, rank) };
                set.store(meta, |raw: &mut Vec<u8>| *raw = vec![step as u8 + 1; 64]);
            }
        }
        assert_eq!(set.finish(0).unwrap().1, Ok(()));
        let (blocks, io) = set.drain();
        let newest = blocks.map(|b| b.iter().map(|(m, _)| (m.step, m.rank)).collect::<Vec<_>>());
        assert_eq!(newest, Some(vec![(2, 0), (2, 1)]));
        let on_disk: u64 = [(0, 0), (2, 0), (0, 1), (2, 1)]
            .map(|(step, rank)| std::fs::metadata(dir.join(shard_file_name(step, rank))).unwrap())
            .iter()
            .map(|m| m.len())
            .sum();
        assert_eq!((io.shards_written, io.bytes_raw), (4, 4 * 64));
        assert_eq!(io.bytes_written, on_disk);
        assert_eq!(io.codec, "delta");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shard_roundtrips_exactly_under_every_codec() {
        let sim = sim_at(2);
        let meta = meta_for(&sim, 0, 0);
        let mut raw = Vec::new();
        pack_shard_payload(&sim.yin, meta.tnth as usize, meta.tnph as usize, &mut raw);
        for codec in [CkptCodec::Raw, CkptCodec::Delta] {
            let file = encode(&meta, &raw, None, codec).0;
            let (back_meta, back_raw) = decode(&file, None).unwrap();
            assert_eq!(back_raw, raw, "{codec:?} payload roundtrip");
            assert_eq!(back_meta.step, meta.step);
            assert_eq!(back_meta.shape, meta.shape);
        }
    }

    /// Synthetic owned block with no libm in it (platform-stable bytes):
    /// coarse values, so most f64 bytes repeat, with zero stretches long
    /// enough to cross the 130-byte repeat cap. `nudge` perturbs every
    /// `nudge`-th value, giving the delta links something sparse to code.
    fn fixture_state(shape: Shape, nudge: usize) -> State {
        let mut s = State::zeros(shape);
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        for arr in s.arrays_mut() {
            for (at, v) in arr.data_mut().iter_mut().enumerate() {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                *v = if (at / 48) % 4 == 0 { 0.0 } else { ((x >> 40) % 17) as f64 * 0.25 };
                if nudge > 0 && at % nudge == 0 {
                    *v += 1.0 / 1024.0;
                }
            }
        }
        s
    }

    /// Format v3 pinned, not inferred: (file length, CRC-32 of the whole
    /// file) for one synthetic block under `none`, `delta` with no base
    /// (the RLE-only shard older binaries also wrote as `rle`), and a
    /// two-link delta chain — recorded with the byte-wise encoder and
    /// slice-by-8 CRC of the commit before the word-wise rewrite. A
    /// change here is a format change.
    #[test]
    fn shard_format_v3_bytes_are_pinned() {
        let shape = Shape::new(8, 6, 10, 2, 2);
        let payload = |nudge: usize| {
            let mut raw = Vec::new();
            pack_shard_payload(&fixture_state(shape, nudge), shape.nth, shape.nph, &mut raw);
            raw
        };
        let place = [1, 1, 1, 1, 0, shape.nth as u64, 0, shape.nph as u64];
        let meta = |step: u64| ShardMeta::new(shape, (step, step as f64 * 0.5, 0.125), place);
        let (a, b, c) = (payload(0), payload(5), payload(3));
        let files = [
            encode(&meta(0), &a, None, CkptCodec::Raw).0,
            encode(&meta(0), &a, None, CkptCodec::Delta).0,
            encode(&meta(2), &b, Some((0, &a)), CkptCodec::Delta).0,
            encode(&meta(4), &c, Some((2, &b)), CkptCodec::Delta).0,
        ];
        let got: Vec<(usize, u32)> = files
            .iter()
            .map(|f| {
                let mut crc = Crc32::new();
                crc.update(f);
                (f.len(), crc.finish())
            })
            .collect();
        let pinned = [
            (0x78b4, 0xddef_9e72),
            (0x3618, 0xfae4_79c6),
            (0x0cc1, 0x8ee7_10da),
            (0x1a29, 0x9c73_9ce7),
        ];
        assert_eq!(got, pinned, "shard format v3 bytes changed");
        // The chain decodes forward into one payload, each link in place.
        let mut payload = Vec::new();
        for (file, want) in files[1..].iter().zip([&a, &b, &c]) {
            read_shard(&mut file.as_slice(), &mut payload).unwrap();
            assert_eq!(payload, *want);
        }
    }

    #[test]
    fn delta_shard_chains_to_its_base_and_compresses() {
        let mut sim = sim_at(1);
        let meta0 = meta_for(&sim, 0, 0);
        let mut raw0 = Vec::new();
        pack_shard_payload(&sim.yin, meta0.tnth as usize, meta0.tnph as usize, &mut raw0);
        sim.run(1, 0);
        let meta1 = meta_for(&sim, 0, 0);
        let mut raw1 = Vec::new();
        pack_shard_payload(&sim.yin, meta1.tnth as usize, meta1.tnph as usize, &mut raw1);
        let (file, (flags, base_step)) =
            encode(&meta1, &raw1, Some((meta0.step, &raw0)), CkptCodec::Delta);
        assert_eq!(flags, FLAG_DELTA | FLAG_RLE);
        assert_eq!(base_step, meta0.step);
        let (_, back) = decode(&file, Some(&raw0)).unwrap();
        assert_eq!(back, raw1);
        // Without its base in the payload the link is refused.
        let err = decode(&file, None).unwrap_err();
        assert!(err.to_string().contains("the chain is inconsistent"), "{err}");
    }

    #[test]
    fn corrupt_shards_are_rejected_with_context() {
        let sim = sim_at(1);
        let meta = meta_for(&sim, 0, 0);
        let mut raw = Vec::new();
        pack_shard_payload(&sim.yin, meta.tnth as usize, meta.tnph as usize, &mut raw);
        let file = encode(&meta, &raw, None, CkptCodec::Delta).0;
        // Truncation anywhere names what was being read.
        for cut in [4, 60, 180, file.len() / 2, file.len() - 6, file.len() - 1] {
            let err = decode(&file[..cut], None).unwrap_err();
            assert!(err.to_string().contains("truncated"), "cut at {cut}: unexpected error {err}");
        }
        // A payload bit flip must trip the CRC (or the codec's internal
        // consistency checks) — never decode silently.
        for pos in [250, file.len() / 2, file.len() - 20] {
            let mut bad = file.clone();
            bad[pos] ^= 0x04;
            let err = decode(&bad, None).unwrap_err();
            assert!(
                matches!(err.kind(), io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof),
                "flip at {pos}: unexpected error {err}"
            );
        }
        // A header bit flip in the step counter lands in the CRC too.
        let mut bad = file.clone();
        bad[48] ^= 0x01; // low byte of the step field
        let err = decode(&bad, None).unwrap_err();
        assert!(
            matches!(err.kind(), io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof),
            "{err}"
        );
        // Flags no writer produces — a delta without RLE, an unknown
        // bit — are refused from the header.
        for (at, byte) in [(136, FLAG_DELTA as u8), (136, 4 | FLAG_RLE as u8), (143, 0x80)] {
            let mut bad = file.clone();
            bad[at] = byte;
            let err = decode(&bad, None).unwrap_err();
            assert!(
                err.to_string().contains("flags") && err.to_string().contains("corrupt"),
                "{err}"
            );
        }
        // Old-version magic is named.
        let mut bad = file;
        bad[7] = 0x02;
        let err = decode(&bad, None).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn codec_parse_accepts_the_cli_names() {
        assert_eq!(CkptCodec::parse("none"), Ok(CkptCodec::Raw));
        assert_eq!(CkptCodec::parse("delta"), Ok(CkptCodec::Delta));
        let err = CkptCodec::parse("zip").unwrap_err();
        assert!(err.contains("expected none|delta"), "{err}");
        let err = CkptCodec::parse("rle").unwrap_err();
        assert_eq!(err, "expected none|delta, got 'rle'");
        for c in [CkptCodec::Raw, CkptCodec::Delta] {
            assert_eq!(CkptCodec::parse(c.name()), Ok(c));
        }
    }

    #[test]
    fn output_stage_writes_atomically_in_both_modes() {
        let dir = std::env::temp_dir().join(format!("yy_output_stage_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for threaded in [false, true] {
            let stage = OutputStage::new(threaded);
            let mut waited = 0;
            for i in 0..5u32 {
                let (mut buf, w) = stage.acquire();
                waited += w;
                buf.clear();
                buf.extend_from_slice(format!("payload {i} ({threaded})").as_bytes());
                let name = dir.join(format!("f{threaded}_{i}.bin"));
                waited += stage.submit(name, buf, 10);
            }
            waited += stage.flush();
            let totals = stage.finish().expect("no write errors");
            assert_eq!(totals.files_written, 5);
            assert_eq!(totals.bytes_raw, 50);
            assert!(totals.bytes_written > 0);
            let _ = waited; // blocking is legal, not required
            for i in 0..5u32 {
                let body =
                    std::fs::read_to_string(dir.join(format!("f{threaded}_{i}.bin"))).unwrap();
                assert_eq!(body, format!("payload {i} ({threaded})"));
            }
            // No temp litter after a flush.
            assert!(
                std::fs::read_dir(&dir)
                    .unwrap()
                    .all(|e| !e.unwrap().file_name().to_string_lossy().ends_with(".tmp")),
                "temp files left behind"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn output_stage_surfaces_write_errors_at_finish() {
        let stage = OutputStage::new(true);
        let (mut buf, _) = stage.acquire();
        buf.extend_from_slice(b"x");
        stage.submit(PathBuf::from("/nonexistent-dir/zz/f.bin"), buf, 1);
        stage.flush();
        let err = stage.finish().unwrap_err();
        assert!(err.contains("/nonexistent-dir"), "{err}");
    }
}
