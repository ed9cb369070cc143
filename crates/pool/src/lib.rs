//! `dl-pool` — a vendored, dependency-free worker pool for the data plane.
//!
//! The bandwidth-critical operations of DispersedLedger (Reed–Solomon
//! coding and Merkle commitment) decompose into independent jobs that
//! write **disjoint** output regions: parity stripes of one codeword
//! arena, leaf hashes of one tree layer. This crate provides the minimal
//! machinery to fan those jobs across cores without taking any lock on
//! the hot path, in the same vendored-std-threads style as `dl-net`'s
//! runtime (this workspace builds hermetically with no registry access,
//! so rayon is not an option):
//!
//! * [`Pool::run`] — a scoped parallel-for: `run(jobs, f)` executes
//!   `f(0..jobs)` across the pool's workers **and the calling thread**,
//!   returning only when every job finished. Work is claimed with one
//!   `fetch_add` per job — no locks while jobs execute — and the caller
//!   participating means a pool of size 1 degenerates to a plain loop.
//! * [`SharedMut`] — a bounds-checked `Send + Sync` window over a
//!   mutable slice, for jobs that write disjoint regions of one buffer
//!   (the caller asserts disjointness at the single `unsafe` call site).
//! * [`Pool::global`] — the process-wide pool sized by the
//!   `DL_POOL_THREADS` environment variable (unset or `0` = one thread
//!   per available core, `1` = serial: every `run` is an inline loop and
//!   no worker threads are spawned).
//!
//! Determinism: job decomposition is chosen by the *caller*, never by
//! the pool, and jobs write disjoint output — so results are byte-
//! identical to the serial loop regardless of worker count or
//! scheduling. The data-plane property tests assert exactly that.
//!
//! Concurrent `run` calls from different threads enqueue onto a
//! **dispatch queue**: workers serve the oldest batch that still has
//! unclaimed jobs (front-to-back scan), so an early long batch keeps its
//! workers when a later caller dispatches — no batch ever degrades to
//! caller-only execution (several engine threads can encode
//! simultaneously on the one global pool). Each dispatcher removes its
//! own batch from the queue when it completes.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// One dispatched `run` call: the erased job closure plus completion
/// tracking. Workers claim job indices with `next.fetch_add(1)`.
struct Batch {
    /// The caller's closure with its lifetime erased. Valid because
    /// [`Pool::run`] does not return until `completed == jobs`, so the
    /// borrow outlives every access.
    f: *const (dyn Fn(usize) + Sync),
    jobs: usize,
    next: AtomicUsize,
    completed: AtomicUsize,
    panicked: AtomicBool,
    done_lock: Mutex<()>,
    done_cv: Condvar,
}

// SAFETY: the raw closure pointer is only dereferenced while the
// dispatching `run` call is blocked waiting for the batch, and the
// closure itself is `Sync` (shared-call-safe).
unsafe impl Send for Batch {}
// SAFETY: same invariant as `Send` above — all shared access goes through
// the `Sync` closure and the atomic counters.
unsafe impl Sync for Batch {}

impl Batch {
    /// Claim-and-run loop shared by workers and the dispatching caller.
    fn work(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.jobs {
                break;
            }
            // SAFETY: a successful claim proves the dispatching `run` is
            // still blocked (it returns only after `completed == jobs`,
            // and this job has not completed yet), so the closure borrow
            // is live. A straggler that claims nothing never touches `f`.
            let f = unsafe { &*self.f };
            if catch_unwind(AssertUnwindSafe(|| f(i))).is_err() {
                self.panicked.store(true, Ordering::Relaxed);
            }
            self.completed.fetch_add(1, Ordering::Release);
        }
        // Wake the dispatcher. Taking the lock orders this notify against
        // its check-then-wait, so the wakeup cannot be lost.
        let _guard = self.done_lock.lock().expect("pool done lock");
        self.done_cv.notify_all();
    }

    fn is_done(&self) -> bool {
        self.completed.load(Ordering::Acquire) == self.jobs
    }

    /// Whether a worker scanning the queue can still claim a job here.
    fn has_unclaimed(&self) -> bool {
        self.next.load(Ordering::Relaxed) < self.jobs
    }
}

/// The dispatch queue workers watch for batches with unclaimed jobs.
/// Batches are pushed in dispatch order and each dispatcher removes its
/// own entry on completion, so a front-to-back scan is oldest-first.
struct Slot {
    queue: VecDeque<Arc<Batch>>,
    shutdown: bool,
}

struct Shared {
    slot: Mutex<Slot>,
    work_cv: Condvar,
}

thread_local! {
    /// Set while this thread executes pool jobs: a nested `run` from
    /// inside a job degrades to an inline loop instead of deadlocking on
    /// the (single-batch) dispatch slot.
    static IN_POOL_JOB: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// A fixed-size worker pool. `threads` counts the *calling* thread too:
/// `Pool::new(4)` spawns three workers and [`Pool::run`] makes the
/// fourth. `Pool::new(1)` (or `0`) spawns nothing and runs inline.
pub struct Pool {
    shared: Option<Arc<Shared>>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl Pool {
    /// A pool of `threads` total threads (including callers of `run`).
    pub fn new(threads: usize) -> Pool {
        let threads = threads.max(1);
        if threads == 1 {
            return Pool {
                shared: None,
                workers: Vec::new(),
                threads: 1,
            };
        }
        let shared = Arc::new(Shared {
            slot: Mutex::new(Slot {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            work_cv: Condvar::new(),
        });
        let workers = (0..threads - 1)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dl-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        Pool {
            shared: Some(shared),
            workers,
            threads,
        }
    }

    /// The serial pool: `run` is an inline loop, no threads exist.
    pub fn serial() -> Pool {
        Pool::new(1)
    }

    /// Total threads `run` uses (callers included). `1` means serial.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether `run` is a plain inline loop.
    pub fn is_serial(&self) -> bool {
        self.shared.is_none()
    }

    /// The process-wide pool, sized once from `DL_POOL_THREADS`:
    /// unset or `0` → one thread per available core, `1` → serial
    /// (the single-thread fallback; no workers are ever spawned),
    /// `k` → `k` threads. An unparsable value falls back to **serial**
    /// (the safe direction — the operator was trying to cap the pool)
    /// with a warning on stderr.
    pub fn global() -> &'static Arc<Pool> {
        static GLOBAL: OnceLock<Arc<Pool>> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let threads = match std::env::var("DL_POOL_THREADS") {
                Ok(v) => match v.trim().parse::<usize>() {
                    Ok(0) => available_cores(),
                    Ok(k) => k,
                    Err(_) => {
                        eprintln!(
                            "dl-pool: DL_POOL_THREADS={v:?} is not a number; \
                             falling back to serial (1 thread)"
                        );
                        1
                    }
                },
                Err(_) => available_cores(),
            };
            Arc::new(Pool::new(threads))
        })
    }

    /// Run `f(0)`, `f(1)`, …, `f(jobs - 1)` to completion, in parallel
    /// across the pool (the calling thread participates). Panics in jobs
    /// are re-raised here after every job finished. Job side effects must
    /// be disjoint; the call returns only when all jobs completed, so
    /// borrows inside `f` are safe (a scoped parallel-for).
    pub fn run<F: Fn(usize) + Sync>(&self, jobs: usize, f: F) {
        if jobs == 0 {
            return;
        }
        let inline = self.shared.is_none() || jobs == 1 || IN_POOL_JOB.with(|c| c.get());
        if inline {
            for i in 0..jobs {
                f(i);
            }
            return;
        }
        let shared = self.shared.as_ref().expect("checked above");
        let f_ref: &(dyn Fn(usize) + Sync) = &f;
        // SAFETY: only the lifetime is erased; `run` blocks until every
        // job completed, so the closure outlives all accesses.
        let f_static: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(f_ref) };
        let batch = Arc::new(Batch {
            f: f_static,
            jobs,
            next: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            done_lock: Mutex::new(()),
            done_cv: Condvar::new(),
        });
        {
            let mut slot = shared.slot.lock().expect("pool slot lock");
            slot.queue.push_back(Arc::clone(&batch));
            shared.work_cv.notify_all();
        }
        // The caller is a worker too. Mark the thread so nested `run`
        // calls from inside `f` stay inline, and so a panicking job
        // cannot unwind out before the other workers are done with `f`.
        IN_POOL_JOB.with(|c| c.set(true));
        let caller_result = catch_unwind(AssertUnwindSafe(|| batch.work()));
        IN_POOL_JOB.with(|c| c.set(false));
        // Wait until every claimed job finished (workers may still be
        // executing even after all indices are claimed).
        {
            let mut guard = batch.done_lock.lock().expect("pool done lock");
            while !batch.is_done() {
                guard = batch.done_cv.wait(guard).expect("pool done wait");
            }
        }
        // Retire the batch so idle workers stop scanning past it.
        {
            let mut slot = shared.slot.lock().expect("pool slot lock");
            if let Some(pos) = slot.queue.iter().position(|b| Arc::ptr_eq(b, &batch)) {
                slot.queue.remove(pos);
            }
        }
        match caller_result {
            // batch.work() itself catches job panics; an Err here means
            // something outside the jobs failed — propagate as-is.
            Err(e) => resume_unwind(e),
            Ok(()) if batch.panicked.load(Ordering::Relaxed) => {
                panic!("dl-pool: a parallel job panicked");
            }
            Ok(()) => {}
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        if let Some(shared) = &self.shared {
            let mut slot = shared.slot.lock().expect("pool slot lock");
            slot.shutdown = true;
            shared.work_cv.notify_all();
            drop(slot);
            for t in self.workers.drain(..) {
                let _ = t.join();
            }
        }
    }
}

fn worker_loop(shared: &Shared) {
    IN_POOL_JOB.with(|c| c.set(true));
    loop {
        let batch = {
            let mut slot = shared.slot.lock().expect("pool slot lock");
            loop {
                if slot.shutdown {
                    return;
                }
                // Oldest-first: serve the front-most batch that still has
                // unclaimed jobs. An early long batch keeps its workers
                // even while later dispatchers queue behind it; a batch
                // whose indices are all claimed is skipped (its dispatcher
                // removes it once the stragglers finish).
                match slot.queue.iter().find(|b| b.has_unclaimed()) {
                    Some(b) => break Arc::clone(b),
                    None => slot = shared.work_cv.wait(slot).expect("pool work wait"),
                }
            }
        };
        batch.work();
    }
}

fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// A `Send + Sync` window over a mutable slice for parallel jobs that
/// write **disjoint** regions of one buffer (a codeword arena, a hash
/// layer). Sub-slices are bounds-checked; disjointness across concurrent
/// calls is the caller's obligation, asserted at the `unsafe` call site.
pub struct SharedMut<'a, T> {
    ptr: *mut T,
    len: usize,
    /// Debug-build registry of every range handed out by [`SharedMut::slice_mut`].
    /// Overlap detection is the dynamic complement of clippy's
    /// `undocumented_unsafe_blocks`: disjointness of the caller's
    /// decomposition is the one invariant a `// SAFETY:` comment can state
    /// but no static check can see. Release builds carry no registry and no
    /// locking.
    #[cfg(debug_assertions)]
    claimed: std::sync::Mutex<Vec<std::ops::Range<usize>>>,
    _marker: std::marker::PhantomData<&'a mut [T]>,
}

// SAFETY: access is only possible through `slice_mut`, whose contract
// requires callers to hand out non-overlapping ranges.
unsafe impl<T: Send> Send for SharedMut<'_, T> {}
// SAFETY: same contract as `Send` above — concurrent `slice_mut` calls
// are sound exactly when their ranges are disjoint, which the caller
// asserts at each `unsafe` call site.
unsafe impl<T: Send> Sync for SharedMut<'_, T> {}

impl<'a, T> SharedMut<'a, T> {
    /// Wrap `slice` for disjoint parallel writes.
    pub fn new(slice: &'a mut [T]) -> SharedMut<'a, T> {
        SharedMut {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            #[cfg(debug_assertions)]
            claimed: std::sync::Mutex::new(Vec::new()),
            _marker: std::marker::PhantomData,
        }
    }

    /// Length of the underlying slice.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the underlying slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Mutable view of `range`, bounds-checked.
    ///
    /// Debug builds additionally record every claimed range and assert it
    /// disjoint from all earlier claims on this window — the callers'
    /// decomposition hands each output region to exactly one job, so any
    /// overlap over the window's lifetime is a write race in the making.
    /// Release builds skip the registry entirely.
    ///
    /// # Safety
    /// No two concurrently-live views (across all threads) may overlap,
    /// and a range must not be re-claimed while the window lives.
    #[expect(
        clippy::mut_from_ref,
        reason = "disjoint views of one window, per the safety contract above"
    )]
    pub unsafe fn slice_mut(&self, range: std::ops::Range<usize>) -> &mut [T] {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "SharedMut range {range:?} out of bounds (len {})",
            self.len
        );
        #[cfg(debug_assertions)]
        if !range.is_empty() {
            // An empty view aliases nothing, so only non-empty claims
            // enter the registry.
            let mut claimed = self.claimed.lock().expect("SharedMut claim registry");
            let overlap = claimed
                .iter()
                .find(|prev| prev.start < range.end && range.start < prev.end);
            debug_assert!(
                overlap.is_none(),
                "SharedMut overlapping write windows: {range:?} overlaps \
                 previously claimed {:?}",
                overlap.expect("checked above")
            );
            claimed.push(range.clone());
        }
        std::slice::from_raw_parts_mut(self.ptr.add(range.start), range.end - range.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn serial_pool_runs_inline() {
        let pool = Pool::serial();
        assert!(pool.is_serial());
        assert_eq!(pool.threads(), 1);
        let hits = AtomicUsize::new(0);
        pool.run(10, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let pool = Pool::new(4);
        let jobs = 1000;
        let counts: Vec<AtomicU64> = (0..jobs).map(|_| AtomicU64::new(0)).collect();
        for _ in 0..20 {
            pool.run(jobs, |i| {
                counts[i].fetch_add(1, Ordering::Relaxed);
            });
        }
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 20, "job {i}");
        }
    }

    #[test]
    fn disjoint_writes_through_shared_mut() {
        let pool = Pool::new(3);
        let mut buf = vec![0u32; 1024];
        let window = SharedMut::new(&mut buf);
        let chunk = 64;
        pool.run(1024 / chunk, |j| {
            // SAFETY: each job writes only its own chunk.
            let dst = unsafe { window.slice_mut(j * chunk..(j + 1) * chunk) };
            for (off, d) in dst.iter_mut().enumerate() {
                *d = (j * chunk + off) as u32;
            }
        });
        for (i, &v) in buf.iter().enumerate() {
            assert_eq!(v, i as u32);
        }
    }

    /// The debug-build overlap registry must catch two claims whose
    /// ranges intersect, even when the claims are sequential — an
    /// overlapping decomposition is a write race whichever thread gets
    /// there first.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "overlapping write windows")]
    fn overlapping_claims_panic_in_debug() {
        let mut buf = vec![0u8; 32];
        let window = SharedMut::new(&mut buf);
        // SAFETY: never written through; the claim only seeds the registry.
        let _a = unsafe { window.slice_mut(0..10) };
        // SAFETY: the overlapping claim is the point of the test — it
        // panics inside slice_mut before a second view can exist.
        let _b = unsafe { window.slice_mut(5..15) };
    }

    /// Empty and adjacent ranges are not overlaps: the registry must
    /// accept the same decompositions the callers legitimately use.
    #[test]
    fn adjacent_and_empty_claims_are_disjoint() {
        let mut buf = vec![0u8; 32];
        let window = SharedMut::new(&mut buf);
        // SAFETY: ranges are pairwise disjoint (empty ranges alias nothing).
        unsafe {
            window.slice_mut(0..16)[0] = 1;
            window.slice_mut(16..32)[0] = 2;
            assert!(window.slice_mut(8..8).is_empty());
        }
        assert_eq!((buf[0], buf[16]), (1, 2));
    }

    #[test]
    fn parallel_matches_serial_output() {
        // Determinism: same decomposition → byte-identical output no
        // matter how many workers claim the jobs.
        let compute = |pool: &Pool| {
            let mut out = vec![0u8; 4096];
            let window = SharedMut::new(&mut out);
            pool.run(16, |j| {
                // SAFETY: each job writes only its own 256-byte chunk.
                let dst = unsafe { window.slice_mut(j * 256..(j + 1) * 256) };
                for (off, d) in dst.iter_mut().enumerate() {
                    *d = ((j * 31 + off * 7) % 251) as u8;
                }
            });
            out
        };
        let serial = compute(&Pool::serial());
        for threads in [2, 3, 8] {
            assert_eq!(compute(&Pool::new(threads)), serial, "threads={threads}");
        }
    }

    #[test]
    fn nested_run_degrades_to_inline() {
        let pool = Pool::new(4);
        let hits = AtomicUsize::new(0);
        pool.run(8, |_| {
            // A nested dispatch must not deadlock on the dispatch queue.
            pool.run(4, |_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(hits.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn job_panic_propagates_after_completion() {
        let pool = Pool::new(3);
        let ran = Arc::new(AtomicUsize::new(0));
        let ran2 = Arc::clone(&ran);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(16, |i| {
                ran2.fetch_add(1, Ordering::Relaxed);
                assert!(i != 7, "boom");
            });
        }));
        assert!(result.is_err(), "panic must propagate to the dispatcher");
        // Every job still ran (the pool never abandons a batch mid-way).
        assert_eq!(ran.load(Ordering::Relaxed), 16);
        // And the pool is still usable afterwards.
        let hits = AtomicUsize::new(0);
        pool.run(4, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 4);
    }

    /// Two threads hammering the same pool with interleaved batches:
    /// every job of every batch must run exactly once regardless of how
    /// dispatches interleave on the queue.
    #[test]
    fn two_concurrent_callers_never_lose_or_duplicate_jobs() {
        let pool = Arc::new(Pool::new(4));
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let jobs = 64;
                    let counts: Vec<AtomicU64> = (0..jobs).map(|_| AtomicU64::new(0)).collect();
                    barrier.wait();
                    for _ in 0..50 {
                        pool.run(jobs, |i| {
                            counts[i].fetch_add(1, Ordering::Relaxed);
                        });
                    }
                    counts
                        .iter()
                        .map(|c| c.load(Ordering::Relaxed))
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        for h in handles {
            for (i, hits) in h.join().expect("caller thread").iter().enumerate() {
                assert_eq!(*hits, 50, "job {i} of a contended batch");
            }
        }
    }

    /// Regression for the single-dispatch-slot design: a batch dispatched
    /// *while an earlier batch is still in flight* must still be served by
    /// pool workers, not just its own caller. The second batch's two jobs
    /// rendezvous on a barrier, which can only happen if two distinct
    /// threads execute them concurrently — under caller-only degradation
    /// this would deadlock instead of passing.
    #[test]
    fn later_batch_gets_worker_help_while_earlier_batch_is_in_flight() {
        let pool = Arc::new(Pool::new(4));
        let release_a = Arc::new(AtomicBool::new(false));
        let a_started = Arc::new(std::sync::Barrier::new(2));
        let pool_a = Arc::clone(&pool);
        let release = Arc::clone(&release_a);
        let started = Arc::clone(&a_started);
        let first = std::thread::spawn(move || {
            // Two jobs so the batch really goes through the dispatch queue
            // (single-job batches run inline); job 0 parks mid-flight,
            // leaving a fully-claimed but uncompleted batch at the front
            // that later scans must step past.
            pool_a.run(2, |i| {
                if i == 0 {
                    started.wait();
                    while !release.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                }
            });
        });
        // Batch A's job 0 is definitely claimed and parked.
        a_started.wait();
        let in_b = Arc::new(std::sync::Barrier::new(2));
        let in_b2 = Arc::clone(&in_b);
        pool.run(2, move |_| {
            in_b2.wait();
        });
        release_a.store(true, Ordering::Release);
        first.join().expect("first caller");
    }

    #[test]
    fn zero_jobs_is_a_no_op() {
        let pool = Pool::new(2);
        pool.run(0, |_| panic!("must not run"));
    }

    #[test]
    fn global_pool_is_a_singleton() {
        let a = Pool::global();
        let b = Pool::global();
        assert!(Arc::ptr_eq(a, b));
        assert!(a.threads() >= 1);
    }
}
