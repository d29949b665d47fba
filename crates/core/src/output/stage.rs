//! The writer stage: a per-rank writer thread that encodes shards
//! straight from the in-memory set's blocks and writes them behind
//! compute, and a two-slot buffer pool for verbatim file images. One
//! test also builds it inline, writing on the caller's thread.

use super::codec::CkptCodec;
use super::shard::{encode_shard, ShardMeta};
use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Totals the writer accumulates, returned by [`OutputStage::finish`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoTotals {
    /// Files written and renamed into place: shards and verbatim
    /// [`OutputStage::submit`] images.
    pub files_written: u64,
    /// Encoded bytes written to disk.
    pub bytes_written: u64,
    /// Uncompressed payload bytes behind those writes.
    pub bytes_raw: u64,
    /// Wall nanoseconds spent on the consumer side — shard encoding
    /// plus file writes (the cost the writer thread hides behind compute).
    pub write_wall_ns: u64,
}

/// One queued write.
enum Job {
    /// A fully serialized file image, written verbatim from a pool buffer.
    File { path: PathBuf, bytes: Vec<u8>, raw_len: u64 },
    /// A stored block's raw payload, shared with the in-memory set, which
    /// the *consumer* — the writer thread — encodes with the delta/RLE
    /// codec as it writes: everything but the pack stays off the step path.
    Shard { path: PathBuf, raw: Arc<Vec<u8>>, meta: ShardMeta, codec: CkptCodec },
}

/// The consumer side's shard state: the newest block it wrote (the next
/// delta base, shared with the in-memory set) and the one small buffer
/// each encoded stream passes through to its file. One consumer at a
/// time touches it — the writer thread, or the submitting producer in
/// the inline oracle — so the mutex never contends.
#[derive(Default)]
struct Chain {
    base: Option<(u64, Arc<Vec<u8>>)>,
    chunk: Vec<u8>,
}

struct PoolState {
    free: Vec<Vec<u8>>,
    jobs: VecDeque<Job>,
    open: bool,
    in_flight: usize,
    err: Option<String>,
}

struct Shared {
    state: Mutex<PoolState>,
    // Signaled when a job completes (producer side waits).
    free_cv: Condvar,
    // Signaled when work arrives or the stage closes (writer side waits).
    work_cv: Condvar,
    chain: Mutex<Chain>,
    files_written: AtomicU64,
    bytes_written: AtomicU64,
    bytes_raw: AtomicU64,
    write_wall_ns: AtomicU64,
}

impl Shared {
    /// Encode (shard jobs) and write one job; returns a pool buffer to
    /// recycle, if it had one. All of this runs on the consumer side: the
    /// writer thread, or the caller in the inline oracle. Every reference
    /// the job held to a stored block is dropped before this returns.
    fn write_one(&self, job: Job) -> Option<Vec<u8>> {
        let t0 = std::time::Instant::now();
        let (path, res, raw_len, buf) = match job {
            Job::File { path, bytes, raw_len } => {
                let res = write_atomic(&path, |f| f.write_all(&bytes).map(|()| bytes.len() as u64));
                (path, res, raw_len, Some(bytes))
            }
            Job::Shard { path, raw, meta, codec } => {
                let mut chain = self.chain.lock().unwrap_or_else(|p| p.into_inner());
                let Chain { base, chunk } = &mut *chain;
                // Only an *older* step is a base, so a step emitted
                // twice could not overwrite its file with a delta
                // against itself. A pass emits each step once (a 0-step
                // pass skips its final event); the rule is a defence.
                let prev = base.as_ref().filter(|(s, _)| *s < meta.step);
                let prev = prev.map(|(s, b)| (*s, b.as_slice()));
                let res = write_atomic(&path, |f| {
                    encode_shard(&meta, &raw, prev, codec, chunk, f).map(|(.., len)| len)
                });
                if res.is_ok() {
                    // The block just written becomes the next delta base
                    // (a raw shard needs none, so holds nothing back);
                    // the old base goes back to the set's owner.
                    *base = (codec == CkptCodec::Delta).then(|| (meta.step, Arc::clone(&raw)));
                }
                (path, res, raw.len() as u64, None)
            }
        };
        self.write_wall_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        match res {
            Ok(on_disk) => {
                self.files_written.fetch_add(1, Ordering::Relaxed);
                self.bytes_written.fetch_add(on_disk, Ordering::Relaxed);
                self.bytes_raw.fetch_add(raw_len, Ordering::Relaxed);
            }
            Err(e) => {
                let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
                st.err.get_or_insert_with(|| format!("writing {}: {e}", path.display()));
            }
        }
        buf
    }
}

/// Write `path` atomically through `fill`, which writes the file's
/// bytes and returns their count: a sibling temp file is renamed into
/// place, so a reader (or a post-kill merge) never sees a torn file —
/// any shard that exists is complete and CRC-checked.
fn write_atomic(path: &Path, fill: impl FnOnce(&mut File) -> io::Result<u64>) -> io::Result<u64> {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let len = fill(&mut File::create(&tmp)?)?;
    std::fs::rename(&tmp, path)?;
    Ok(len)
}

/// The per-rank output stage: a dedicated writer thread, so writes hide
/// behind compute.
///
/// Producer protocol for a file image: [`OutputStage::acquire`] a free
/// pool buffer (blocking when both slots are in flight — the measured
/// backpressure), fill it, [`OutputStage::submit`] it. A shard is
/// submitted as the in-memory set's block itself, and the set takes the
/// block's buffer back through `reclaim`, which blocks while the writer
/// still reads it. The stage must be [`OutputStage::finish`]ed to
/// surface write errors.
pub struct OutputStage {
    shared: Arc<Shared>,
    /// The writer thread; `None` for the inline oracle.
    handle: Option<std::thread::JoinHandle<()>>,
}

impl OutputStage {
    /// Build a stage. Every driver passes `true`, which spawns the
    /// writer thread. `false`, reached from one test only, writes on
    /// the caller's thread inside `submit`, which returns its
    /// nanoseconds.
    pub fn new(threaded: bool) -> OutputStage {
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                free: vec![Vec::new(), Vec::new()],
                jobs: VecDeque::new(),
                open: true,
                in_flight: 0,
                err: None,
            }),
            free_cv: Condvar::new(),
            work_cv: Condvar::new(),
            chain: Mutex::new(Chain::default()),
            files_written: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            bytes_raw: AtomicU64::new(0),
            write_wall_ns: AtomicU64::new(0),
        });
        let handle = if threaded {
            let sh = Arc::clone(&shared);
            Some(
                std::thread::Builder::new()
                    .name("yy-output-writer".into())
                    .spawn(move || writer_main(&sh))
                    // As `std::thread::spawn` does: a process the OS refuses
                    // one more thread cannot start its ranks either.
                    .expect("spawn output writer thread"),
            )
        } else {
            None
        };
        OutputStage { shared, handle }
    }

    /// Take a free buffer, blocking while both slots are in flight.
    /// Returns the buffer (cleared) and the nanoseconds spent blocked —
    /// the caller charges them to the `writer_wait` phase.
    pub fn acquire(&self) -> (Vec<u8>, u64) {
        let mut st = self.shared.state.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(mut buf) = st.free.pop() {
            buf.clear();
            return (buf, 0);
        }
        let t0 = std::time::Instant::now();
        loop {
            st = self.shared.free_cv.wait(st).unwrap_or_else(|p| p.into_inner());
            if let Some(mut buf) = st.free.pop() {
                buf.clear();
                return (buf, t0.elapsed().as_nanos() as u64);
            }
        }
    }

    /// Hand a filled buffer to the writer. This returns 0 at once (the
    /// write overlaps the next steps); the inline oracle writes here and
    /// returns the nanoseconds, which the caller charges like a blocked
    /// acquire.
    pub fn submit(&self, path: PathBuf, bytes: Vec<u8>, raw_len: u64) -> u64 {
        self.submit_job(Job::File { path, bytes, raw_len })
    }

    /// Hand a stored block's *raw* payload to the writer; the consumer
    /// side encodes it (delta chain, RLE) as it writes, so the producer
    /// pays only for the pack. Shards must be submitted in step order —
    /// the consumer chains each one against the previous block it wrote.
    pub(crate) fn submit_shard(
        &self,
        path: PathBuf,
        raw: Arc<Vec<u8>>,
        meta: ShardMeta,
        codec: CkptCodec,
    ) -> u64 {
        self.submit_job(Job::Shard { path, raw, meta, codec })
    }

    /// Take back the payload of a stored block once the writer no longer
    /// reads it, as a queued shard or as the delta base of one. Returns
    /// it with the nanoseconds spent blocked (charged to `writer_wait`).
    /// A block the writer keeps as its base while idle — the shard after
    /// it failed to write — stays with the writer, and an empty buffer
    /// is returned in its place.
    pub(crate) fn reclaim(&self, mut block: Arc<Vec<u8>>) -> (Vec<u8>, u64) {
        let t0 = std::time::Instant::now();
        let mut st = self.shared.state.lock().unwrap_or_else(|p| p.into_inner());
        // The consumer drops a job's references before it takes this
        // lock to report the job done, so a test under the lock sees them.
        loop {
            block = match Arc::try_unwrap(block) {
                Ok(raw) => return (raw, t0.elapsed().as_nanos() as u64),
                Err(shared) => shared,
            };
            if st.jobs.is_empty() && st.in_flight == 0 {
                return (Vec::new(), t0.elapsed().as_nanos() as u64);
            }
            st = self.shared.free_cv.wait(st).unwrap_or_else(|p| p.into_inner());
        }
    }

    fn submit_job(&self, job: Job) -> u64 {
        if self.handle.is_some() {
            let mut st = self.shared.state.lock().unwrap_or_else(|p| p.into_inner());
            st.jobs.push_back(job);
            drop(st);
            self.shared.work_cv.notify_one();
            0
        } else {
            let t0 = std::time::Instant::now();
            let buf = self.shared.write_one(job);
            let ns = t0.elapsed().as_nanos() as u64;
            let mut st = self.shared.state.lock().unwrap_or_else(|p| p.into_inner());
            st.free.extend(buf);
            ns
        }
    }

    /// Block until every submitted write has been written and renamed
    /// into place. Returns the nanoseconds spent blocked (charged to
    /// `writer_wait`).
    pub fn flush(&self) -> u64 {
        let t0 = std::time::Instant::now();
        let mut st = self.shared.state.lock().unwrap_or_else(|p| p.into_inner());
        while !st.jobs.is_empty() || st.in_flight > 0 {
            st = self.shared.free_cv.wait(st).unwrap_or_else(|p| p.into_inner());
        }
        t0.elapsed().as_nanos() as u64
    }

    /// Drain the queue, stop the writer thread, and surface any write
    /// error. Returns the final totals.
    pub fn finish(self) -> Result<IoTotals, String> {
        let (totals, err) = self.stop();
        err.map_or(Ok(totals), Err)
    }

    /// Drain the queue and stop the writer thread. Returns the totals of
    /// every file renamed into place, even when a later write failed,
    /// and the first write error.
    pub(crate) fn stop(mut self) -> (IoTotals, Option<String>) {
        let panicked = self.close().then(|| "output writer thread panicked".to_string());
        let totals = IoTotals {
            files_written: self.shared.files_written.load(Ordering::Relaxed),
            bytes_written: self.shared.bytes_written.load(Ordering::Relaxed),
            bytes_raw: self.shared.bytes_raw.load(Ordering::Relaxed),
            write_wall_ns: self.shared.write_wall_ns.load(Ordering::Relaxed),
        };
        let st = self.shared.state.lock().unwrap_or_else(|p| p.into_inner());
        (totals, panicked.or_else(|| st.err.clone()))
    }

    /// Close the queue and join the writer once it has drained it.
    /// Returns whether the writer thread panicked.
    fn close(&mut self) -> bool {
        let mut st = self.shared.state.lock().unwrap_or_else(|p| p.into_inner());
        st.open = false;
        drop(st);
        self.shared.work_cv.notify_all();
        self.handle.take().is_some_and(|h| h.join().is_err())
    }
}

impl Drop for OutputStage {
    fn drop(&mut self) {
        // A stage dropped unfinished must not leak the thread.
        self.close();
    }
}

fn writer_main(shared: &Shared) {
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if let Some(job) = st.jobs.pop_front() {
                    st.in_flight += 1;
                    break Some(job);
                }
                if !st.open {
                    break None;
                }
                st = shared.work_cv.wait(st).unwrap_or_else(|p| p.into_inner());
            }
        };
        let Some(job) = job else { return };
        let buf = shared.write_one(job);
        let mut st = shared.state.lock().unwrap_or_else(|p| p.into_inner());
        st.in_flight -= 1;
        if st.free.len() < 2 {
            st.free.extend(buf);
        }
        drop(st);
        shared.free_cv.notify_all();
    }
}
