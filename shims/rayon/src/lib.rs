//! Offline shim for `rayon`: order-preserving chunked data parallelism on a
//! lazily grown set of persistent worker threads. See `shims/README.md`.
//!
//! Supported surface (exactly what this workspace uses):
//! * `(range).into_par_iter().map(f).collect::<Vec<_>>()` — **order
//!   preserving**: element `i` of the output is `f` of element `i` of the
//!   input regardless of thread count, which is what makes the golden-trace
//!   determinism tests meaningful.
//! * `slice.par_iter_mut().enumerate().map(f).reduce(identity, op)` — the
//!   per-chunk partials are folded **in chunk order**, so `op` need only be
//!   associative (all uses here are commutative monoids anyway).
//! * `ThreadPoolBuilder::new().num_threads(n).build()?.install(f)` — scopes
//!   the fan-out width for everything called from `f` on this thread, and
//!   for the chunks it fans out to workers.
//!
//! Every fan-out splits its input into at most `width` contiguous chunks and
//! publishes them as one job. Idle workers and the calling thread claim
//! chunks from an atomic cursor; the caller then waits only for chunks
//! another thread has already claimed and is running, so a nested fan-out
//! from inside a chunk can never deadlock. A panicking chunk is caught,
//! the remaining chunks still run, and the first panic is re-raised on the
//! caller.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::{self, Thread};

pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator, IntoParallelRefMutIterator};
}

thread_local! {
    /// 0 = "no pool installed": fall back to the machine's parallelism.
    static POOL_THREADS: Cell<usize> = const { Cell::new(0) };
}

/// Machine parallelism, resolved once per process. On Linux,
/// `available_parallelism` re-reads the cgroup CPU quota files on every
/// call (open/read/statx per query); uncached it showed up as ~25% of a
/// simulator run's wall clock, since every kernel launch consults the
/// fan-out width.
fn machine_parallelism() -> usize {
    static MACHINE: OnceLock<usize> = OnceLock::new();
    *MACHINE.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|v| v.get())
            .unwrap_or(1)
    })
}

fn pool_threads() -> usize {
    let n = POOL_THREADS.with(Cell::get);
    if n != 0 {
        n
    } else {
        machine_parallelism()
    }
}

/// Number of threads parallel operations on this thread will fan out to.
pub fn current_num_threads() -> usize {
    pool_threads()
}

/// Error type for [`ThreadPoolBuilder::build`] (this shim never fails).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// 0 means "use the default" (machine parallelism), as in rayon.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            num_threads: self.num_threads,
        })
    }
}

/// A "pool" is just a configured fan-out width; every width shares the
/// process's persistent workers.
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

struct PoolGuard {
    prev: usize,
}

impl Drop for PoolGuard {
    fn drop(&mut self) {
        POOL_THREADS.with(|c| c.set(self.prev));
    }
}

impl ThreadPool {
    /// Runs `f` with this pool's width installed for the current thread
    /// (restored on exit, including on panic).
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        let _guard = PoolGuard {
            prev: POOL_THREADS.with(|c| c.replace(self.num_threads)),
        };
        f()
    }

    pub fn current_num_threads(&self) -> usize {
        if self.num_threads != 0 {
            self.num_threads
        } else {
            machine_parallelism()
        }
    }
}

// ---------------------------------------------------------------------------
// Persistent workers
// ---------------------------------------------------------------------------

/// Polls an idle worker (or a caller waiting on claimed chunks) makes before
/// it parks. Long enough to stay awake across back-to-back fan-outs, short
/// enough that an idle process stops burning cores within a millisecond or
/// so.
const SPIN_LIMIT: u32 = 1 << 14;

/// Chunk bodies only ever panic through user closures, and every chunk
/// result is written whole, so a poisoned lock still guards valid data.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

type ChunkFn<'a> = dyn Fn(usize) + Sync + 'a;

/// One fan-out: `chunks` calls of `body`, claimed through `next`.
struct Job {
    /// The submitting frame's chunk body with its lifetime erased.
    body: *const ChunkFn<'static>,
    chunks: usize,
    /// Fan-out width installed around each chunk, as on the caller.
    width: usize,
    /// Next unclaimed chunk index (may run past `chunks`). Relaxed: it only
    /// hands out indices; the job reaches other threads through the queue
    /// mutex.
    next: AtomicUsize,
    /// Chunks whose body has returned or panicked.
    finished: AtomicUsize,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    owner: Thread,
}

// SAFETY: `body` points at a `Sync` closure, so calling it from several
// threads at once is allowed; it is dereferenced only for a claimed chunk
// index below `chunks`, and `fan_out` does not return (so the closure stays
// alive) until `finished == chunks`. Every other field is `Send + Sync`.
unsafe impl Send for Job {}
// SAFETY: as for `Send`: shared access only calls the `Sync` body and
// touches atomics and a mutex.
unsafe impl Sync for Job {}

impl Job {
    /// Claims and runs chunks until none is left unclaimed.
    fn help(&self) {
        loop {
            let c = self.next.fetch_add(1, Ordering::Relaxed);
            if c >= self.chunks {
                return;
            }
            if c + 1 == self.chunks {
                // the last claim: this job no longer offers work
                pool().claimable.fetch_sub(1, Ordering::Relaxed);
            }
            let prev = POOL_THREADS.with(|w| w.replace(self.width));
            // SAFETY: `c < chunks` was claimed above and is not finished, so
            // the submitting `fan_out` is still waiting and `body` is live.
            let r = catch_unwind(AssertUnwindSafe(|| unsafe { (*self.body)(c) }));
            POOL_THREADS.with(|w| w.set(prev));
            if let Err(p) = r {
                lock(&self.panic).get_or_insert(p);
            }
            // Release pairs with the Acquire load in `fan_out`: the chunk's
            // writes are visible to the caller once it sees the count.
            if self.finished.fetch_add(1, Ordering::Release) + 1 == self.chunks {
                self.owner.unpark();
            }
        }
    }
}

struct Queue {
    jobs: VecDeque<Arc<Job>>,
    workers: usize,
    sleeping: usize,
}

struct Pool {
    queue: Mutex<Queue>,
    wake: Condvar,
    /// Jobs with unclaimed chunks, so idle workers can poll without the
    /// queue lock. Relaxed: a hint only; jobs are read under the lock.
    claimable: AtomicUsize,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        queue: Mutex::new(Queue {
            jobs: VecDeque::new(),
            workers: 0,
            sleeping: 0,
        }),
        wake: Condvar::new(),
        claimable: AtomicUsize::new(0),
    })
}

impl Pool {
    /// Publishes `job`, growing the pool to `width - 1` workers and waking
    /// sleepers for the chunks the caller will not take itself.
    fn submit(&'static self, job: &Arc<Job>) {
        let mut q = lock(&self.queue);
        // Workers live as long as the process, like rayon's global pool, so
        // their handles are dropped rather than joined; `help` catches every
        // chunk panic, so a worker never dies with one unreported.
        while q.workers + 1 < job.width {
            let spawned = thread::Builder::new()
                .name(format!("rayon-shim-{}", q.workers))
                .spawn(move || self.work());
            if spawned.is_err() {
                break; // callers run unclaimed chunks themselves
            }
            q.workers += 1;
        }
        q.jobs.push_back(job.clone());
        self.claimable.fetch_add(1, Ordering::Relaxed);
        let wake = q.sleeping.min(job.chunks - 1);
        drop(q);
        for _ in 0..wake {
            self.wake.notify_one();
        }
    }

    /// The oldest job with unclaimed chunks; drops exhausted ones.
    fn claim(q: &mut Queue) -> Option<Arc<Job>> {
        q.jobs.retain(|j| j.next.load(Ordering::Relaxed) < j.chunks);
        q.jobs.front().cloned()
    }

    /// A worker's life: spin for a bounded number of polls, then park until
    /// a submitter wakes it.
    fn work(&self) {
        let mut spins = 0;
        loop {
            if self.claimable.load(Ordering::Relaxed) > 0 {
                // a statement of its own: the queue lock must be released
                // before the chunks run, or a nested submit deadlocks
                let claimed = Self::claim(&mut lock(&self.queue));
                if let Some(job) = claimed {
                    job.help();
                    spins = 0;
                    continue;
                }
            }
            if spins < SPIN_LIMIT {
                spins += 1;
                std::hint::spin_loop();
                continue;
            }
            let mut q = lock(&self.queue);
            if Self::claim(&mut q).is_none() {
                q.sleeping += 1;
                q = self.wake.wait(q).unwrap_or_else(PoisonError::into_inner);
                q.sleeping -= 1;
            }
            drop(q);
            spins = 0;
        }
    }
}

/// Runs `body(0..chunks)` across the calling thread and the workers, and
/// returns once every chunk has finished, re-raising the first panic.
fn fan_out(chunks: usize, body: &ChunkFn<'_>) {
    let body: *const ChunkFn<'_> = body;
    let job = Arc::new(Job {
        // SAFETY: only the lifetime changes; see the `Send` impl for why
        // the pointer is never used after this function returns.
        body: unsafe { std::mem::transmute::<*const ChunkFn<'_>, *const ChunkFn<'static>>(body) },
        chunks,
        width: pool_threads(),
        next: AtomicUsize::new(0),
        finished: AtomicUsize::new(0),
        panic: Mutex::new(None),
        owner: thread::current(),
    });
    pool().submit(&job);
    job.help();
    // Every chunk is claimed; wait for the ones other threads are running.
    let mut spins = 0;
    while job.finished.load(Ordering::Acquire) < chunks {
        if spins < SPIN_LIMIT {
            spins += 1;
            std::hint::spin_loop();
        } else {
            thread::park();
        }
    }
    let panic = lock(&job.panic).take();
    if let Some(p) = panic {
        resume_unwind(p);
    }
}

/// Order-preserving parallel map: contiguous chunks, run on the calling
/// thread and the workers, outputs concatenated in chunk order.
fn pmap<T, R, F>(items: Vec<T>, f: &F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let threads = pool_threads();
    let len = items.len();
    if threads <= 1 || len <= 1 {
        return items.into_iter().map(f).collect();
    }
    let chunk = len.div_ceil(threads);
    let mut it = items.into_iter();
    let inputs: Vec<Mutex<Vec<T>>> = (0..len.div_ceil(chunk))
        .map(|_| Mutex::new(it.by_ref().take(chunk).collect()))
        .collect();
    let outputs: Vec<Mutex<Vec<R>>> = inputs.iter().map(|_| Mutex::new(Vec::new())).collect();
    fan_out(inputs.len(), &|c| {
        let input = std::mem::take(&mut *lock(&inputs[c]));
        let out: Vec<R> = input.into_iter().map(f).collect();
        *lock(&outputs[c]) = out;
    });
    let mut out = Vec::with_capacity(len);
    for o in outputs {
        out.append(&mut o.into_inner().unwrap_or_else(PoisonError::into_inner));
    }
    out
}

// ---------------------------------------------------------------------------
// into_par_iter
// ---------------------------------------------------------------------------

pub trait IntoParallelIterator {
    type Item: Send;
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

macro_rules! impl_range_into_par {
    ($($t:ty),*) => {
        $(impl IntoParallelIterator for Range<$t> {
            type Item = $t;
            fn into_par_iter(self) -> ParIter<$t> {
                ParIter { items: self.collect() }
            }
        })*
    };
}

impl_range_into_par!(u32, u64, usize, i32, i64);

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

/// Owned parallel iterator (items are materialized up front).
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    pub fn map<R, F>(self, f: F) -> ParMap<T, F>
    where
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        ParMap {
            items: self.items,
            f,
        }
    }

    pub fn for_each<F>(self, f: F)
    where
        F: Fn(T) + Sync,
    {
        pmap(self.items, &|t| f(t));
    }
}

pub struct ParMap<T, F> {
    items: Vec<T>,
    f: F,
}

impl<T: Send, F> ParMap<T, F> {
    pub fn collect<R, C>(self) -> C
    where
        R: Send,
        F: Fn(T) -> R + Sync,
        C: FromIterator<R>,
    {
        pmap(self.items, &self.f).into_iter().collect()
    }

    pub fn reduce<R, ID, OP>(self, identity: ID, op: OP) -> R
    where
        R: Send,
        F: Fn(T) -> R + Sync,
        ID: Fn() -> R + Sync,
        OP: Fn(R, R) -> R + Sync,
    {
        pmap(self.items, &self.f).into_iter().fold(identity(), op)
    }
}

// ---------------------------------------------------------------------------
// par_iter (shared references)
// ---------------------------------------------------------------------------

pub trait IntoParallelRefIterator<'a> {
    type Item: Send + 'a;
    fn par_iter(&'a self) -> ParIter<Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

// ---------------------------------------------------------------------------
// par_iter_mut
// ---------------------------------------------------------------------------

pub trait IntoParallelRefMutIterator<'a> {
    type Elem: Send + 'a;
    fn par_iter_mut(&'a mut self) -> ParIterMut<'a, Self::Elem>;
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for Vec<T> {
    type Elem = T;
    fn par_iter_mut(&'a mut self) -> ParIterMut<'a, T> {
        ParIterMut {
            slice: self.as_mut_slice(),
        }
    }
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for [T] {
    type Elem = T;
    fn par_iter_mut(&'a mut self) -> ParIterMut<'a, T> {
        ParIterMut { slice: self }
    }
}

pub struct ParIterMut<'a, T> {
    slice: &'a mut [T],
}

impl<'a, T: Send> ParIterMut<'a, T> {
    pub fn enumerate(self) -> EnumerateMut<'a, T> {
        EnumerateMut { slice: self.slice }
    }

    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&mut T) + Sync,
    {
        EnumerateMut { slice: self.slice }
            .map(|(_, t)| f(t))
            .reduce(|| (), |(), ()| ());
    }
}

pub struct EnumerateMut<'a, T> {
    slice: &'a mut [T],
}

impl<'a, T: Send> EnumerateMut<'a, T> {
    pub fn map<R, F>(self, f: F) -> MapEnumerateMut<'a, T, F>
    where
        R: Send,
        F: Fn((usize, &mut T)) -> R + Sync,
    {
        MapEnumerateMut {
            slice: self.slice,
            f,
        }
    }
}

pub struct MapEnumerateMut<'a, T, F> {
    slice: &'a mut [T],
    f: F,
}

impl<'a, T: Send, F> MapEnumerateMut<'a, T, F> {
    pub fn reduce<R, ID, OP>(self, identity: ID, op: OP) -> R
    where
        R: Send,
        F: Fn((usize, &mut T)) -> R + Sync,
        ID: Fn() -> R + Sync,
        OP: Fn(R, R) -> R + Sync,
    {
        let threads = pool_threads();
        let len = self.slice.len();
        let f = &self.f;
        if threads <= 1 || len <= 1 {
            let mut acc = identity();
            for (i, item) in self.slice.iter_mut().enumerate() {
                acc = op(acc, f((i, item)));
            }
            return acc;
        }
        let chunk = len.div_ceil(threads);
        let inputs: Vec<Mutex<Option<&mut [T]>>> = self
            .slice
            .chunks_mut(chunk)
            .map(|ch| Mutex::new(Some(ch)))
            .collect();
        let partials: Vec<Mutex<Option<R>>> = inputs.iter().map(|_| Mutex::new(None)).collect();
        fan_out(inputs.len(), &|ci| {
            let ch = lock(&inputs[ci])
                .take()
                .expect("each chunk is claimed once");
            let mut acc = identity();
            for (j, item) in ch.iter_mut().enumerate() {
                acc = op(acc, f((ci * chunk + j, item)));
            }
            *lock(&partials[ci]) = Some(acc);
        });
        partials
            .into_iter()
            .map(|p| {
                p.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .expect("every chunk finished")
            })
            .fold(identity(), op)
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<u32> = (0u32..1000).into_par_iter().map(|x| x * 2).collect();
        assert_eq!(v.len(), 1000);
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i as u32 * 2);
        }
    }

    #[test]
    fn order_stable_across_pool_sizes() {
        let base: Vec<u32> = (0u32..513)
            .into_par_iter()
            .map(|x| x.wrapping_mul(2654435761))
            .collect();
        for n in [1usize, 2, 3, 8] {
            let pool = ThreadPoolBuilder::new().num_threads(n).build().unwrap();
            let v: Vec<u32> = pool.install(|| {
                (0u32..513)
                    .into_par_iter()
                    .map(|x| x.wrapping_mul(2654435761))
                    .collect()
            });
            assert_eq!(v, base, "pool size {n} changed map order");
            let mut slots = vec![0u64; 513];
            let sum = pool.install(|| {
                slots
                    .par_iter_mut()
                    .enumerate()
                    .map(|(i, slot)| {
                        *slot = i as u64;
                        i as u64
                    })
                    .reduce(|| 0, |a, b| a + b)
            });
            assert_eq!(sum, 512 * 513 / 2);
            assert!(slots.iter().enumerate().all(|(i, &x)| x == i as u64));
        }
        // the widths above grew the persistent pool as they were first used
        assert!(lock(&pool().queue).workers >= 7);
    }

    #[test]
    fn par_iter_mut_enumerate_reduce() {
        let mut v = vec![1u32; 100];
        let changed = v
            .par_iter_mut()
            .enumerate()
            .map(|(i, slot)| {
                *slot = i as u32;
                i % 2 == 0
            })
            .reduce(|| false, |a, b| a | b);
        assert!(changed);
        assert_eq!(v[99], 99);
    }

    #[test]
    fn install_restores_width() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let inside = pool.install(current_num_threads);
        assert_eq!(inside, 2);
        assert_ne!(POOL_THREADS.with(Cell::get), 2);
    }

    fn width(n: usize) -> ThreadPool {
        ThreadPoolBuilder::new().num_threads(n).build().unwrap()
    }

    #[test]
    fn nested_fan_outs_inherit_the_width_and_finish() {
        // Two one-item chunks meeting at a barrier: the caller blocks in the
        // first, so a worker must run the second, and both nest.
        let both = std::sync::Barrier::new(2);
        let rows: Vec<Vec<usize>> = width(2).install(|| {
            (0usize..2)
                .into_par_iter()
                .map(|i| {
                    both.wait();
                    assert_eq!(current_num_threads(), 2, "chunks run at the caller's width");
                    (0usize..40).into_par_iter().map(|j| i * 100 + j).collect()
                })
                .collect()
        });
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(*row, (0..40).map(|j| i * 100 + j).collect::<Vec<_>>());
        }
    }

    #[test]
    fn concurrent_submitters_each_get_their_own_results() {
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0u64..4 {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    for round in 0..50 {
                        let got: Vec<u64> = width(3).install(|| {
                            (0u64..97).into_par_iter().map(|x| x * t + round).collect()
                        });
                        assert!(got
                            .iter()
                            .enumerate()
                            .all(|(i, &x)| x == i as u64 * t + round));
                    }
                });
            }
        });
    }

    #[test]
    fn a_panicking_chunk_reaches_the_caller_and_the_pool_survives() {
        let caught = std::panic::catch_unwind(|| {
            width(4).install(|| {
                (0u32..64).into_par_iter().for_each(|i| {
                    if i == 37 {
                        panic!("chunk panic {i}");
                    }
                })
            })
        })
        .unwrap_err();
        assert_eq!(
            caught.downcast_ref::<String>().map(String::as_str),
            Some("chunk panic 37")
        );
        let got: Vec<u32> =
            width(4).install(|| (0u32..64).into_par_iter().map(|x| x + 1).collect());
        assert_eq!(got, (1u32..65).collect::<Vec<_>>());
    }
}
