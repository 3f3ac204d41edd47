//! Host-side wall-clock profiling: scoped spans, per-launch host-time
//! buckets, and rayon-pool utilization sampling.
//!
//! Everything else in this crate measures *simulated* time — the
//! deterministic clock the golden traces pin bit-for-bit. This module
//! measures the opposite thing: where the **host** wall clock goes while the
//! simulator runs (launch dispatch, the serial wave lane, arena recycling,
//! PCIe copy loops). That is the number ROADMAP item 5 optimizes, and it is
//! nondeterministic by nature, so the contract is strict:
//!
//! * **Observes, never charges.** Attaching a [`HostProfiler`] to a
//!   [`GpuContext`] changes no counter, no simulated timestamp, no
//!   fingerprint, and no golden trace byte.
//! * **Excluded from fingerprints and golden compares.** The
//!   [`HostProfile`] JSON is written *alongside* a trace
//!   (`<name>.hostprof.json`), never embedded in it; `Trace::to_json` and
//!   `counters_fingerprint` are oblivious to it.
//! * **Deterministic under an injected clock.** All timing goes through the
//!   [`HostClock`] trait; tests inject [`FakeClock`] (a fixed step per
//!   reading) so span trees and bucket tables are reproducible wherever the
//!   underlying call sequence is (the launch engine reads the clock only on
//!   the calling thread, at any rayon width).
//!
//! Spans are hierarchical RAII guards ([`HostProfiler::span`]) kept in
//! per-thread buffers (each thread, including the rayon shim's persistent
//! workers, registers on its first span) and merged at
//! [`HostProfiler::profile`] time. Dropping guards out of order is tolerated:
//! a parent closed before its children closes the children at the same end
//! timestamp, and the late child drops become no-ops.

use crate::exec::GpuContext;
use serde::{Serialize, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::Instant;

/// Schema version stamped into every [`HostProfile`] JSON. Bump on any
/// change to the serialized shape so stale files are recognizable.
pub const HOSTPROF_SCHEMA_VERSION: u32 = 3;

/// Environment variable that opt-ins host profiling for contexts built via
/// [`crate::SimOptions::context`] and for the global ingestion profiler:
/// `KCORE_HOSTPROF=1`.
pub const HOSTPROF_ENV: &str = "KCORE_HOSTPROF";

// ---------------------------------------------------------------------------
// Host allocation counting
// ---------------------------------------------------------------------------

/// Counting wrapper around the system allocator: two relaxed atomic adds per
/// allocation, pure pass-through otherwise. Installed as the global
/// allocator for every binary linking this crate so per-phase host
/// allocation counts are available; the counters are process-global and
/// monotone, so consumers read *deltas*.
pub struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static HOST_ALLOCATOR: CountingAlloc = CountingAlloc;

/// Process-global (allocation call count, allocated byte count) since
/// startup. Monotone; read deltas across two readings to attribute
/// allocations to a region. Counts are process-wide, so concurrent threads
/// (e.g. other tests in one test binary) bleed into each other's deltas —
/// the numbers are informational, never part of a golden compare.
pub fn host_alloc_counts() -> (u64, u64) {
    (
        ALLOC_CALLS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

// ---------------------------------------------------------------------------
// Clocks
// ---------------------------------------------------------------------------

/// Injectable host clock. Implementations must be monotone non-decreasing
/// across calls on one thread.
pub trait HostClock: Send + Sync {
    /// Current reading in seconds (arbitrary origin; the profiler
    /// normalizes to its construction time).
    fn now_s(&self) -> f64;
}

/// The real wall clock ([`Instant`]-based).
#[derive(Debug)]
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// A wall clock originating now.
    pub fn new() -> Self {
        WallClock {
            origin: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl HostClock for WallClock {
    fn now_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }
}

/// Deterministic test clock: every reading advances a fixed step, so a
/// deterministic *call sequence* yields deterministic timestamps and
/// durations. (When several threads read it the tick assignment races —
/// use it for byte-stable goldens only where one thread reads the clock.)
#[derive(Debug)]
pub struct FakeClock {
    ticks: AtomicU64,
    step_us: u64,
}

impl FakeClock {
    /// A fake clock advancing `step_us` microseconds per reading.
    pub fn with_step_us(step_us: u64) -> Self {
        FakeClock {
            ticks: AtomicU64::new(0),
            step_us,
        }
    }
}

impl HostClock for FakeClock {
    fn now_s(&self) -> f64 {
        let t = self.ticks.fetch_add(1, Ordering::Relaxed);
        (t * self.step_us) as f64 * 1e-6
    }
}

// ---------------------------------------------------------------------------
// Buckets
// ---------------------------------------------------------------------------

/// Host-time attribution buckets, accrued per algorithm phase by the launch
/// engine (`exec.rs`). Together they answer "where does the wall clock go
/// inside a launch": everything a launch spends is charged to exactly one
/// bucket, so per-phase bucket sums ≈ host time inside the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostBucket {
    /// Per-launch fixed work: block setup/init loops, plain-launch block
    /// execution, counter pricing, and record bookkeeping.
    Dispatch,
    /// The serial wave lane of a stepped launch: each wave's shuffle plus
    /// every live block's step, in wave order, on the calling thread. (The
    /// label predates the single-closure step; it is kept so the profile
    /// schema does not change.)
    CommitSerial,
    /// Arena traffic: taking and returning the reused shared-memory and
    /// counter scratch at launch granularity.
    ArenaAlloc,
    /// Host↔device copy loops and transfer bookkeeping.
    Transfer,
    /// The fused launch's loop-step set-up: handing the blocks their shared
    /// backings and running `init` after the scan step
    /// ([`GpuContext::launch_fused`](crate::GpuContext::launch_fused)).
    FusedStep,
}

impl HostBucket {
    /// All buckets, in serialization order.
    pub const ALL: [HostBucket; 5] = [
        HostBucket::Dispatch,
        HostBucket::CommitSerial,
        HostBucket::ArenaAlloc,
        HostBucket::Transfer,
        HostBucket::FusedStep,
    ];

    /// Stable snake_case label (the JSON field name minus the `_s` suffix).
    pub fn label(self) -> &'static str {
        match self {
            HostBucket::Dispatch => "dispatch",
            HostBucket::CommitSerial => "commit_serial",
            HostBucket::ArenaAlloc => "arena",
            HostBucket::Transfer => "transfer",
            HostBucket::FusedStep => "fused_step",
        }
    }

    fn idx(self) -> usize {
        match self {
            HostBucket::Dispatch => 0,
            HostBucket::CommitSerial => 1,
            HostBucket::ArenaAlloc => 2,
            HostBucket::Transfer => 3,
            HostBucket::FusedStep => 4,
        }
    }
}

// ---------------------------------------------------------------------------
// Profiler internals
// ---------------------------------------------------------------------------

struct OpenSpan {
    id: u64,
    name: String,
    start_s: f64,
    depth: u32,
    allocs_at_open: u64,
}

#[derive(Default)]
struct ThreadState {
    stack: Vec<OpenSpan>,
    spans: Vec<SpanRec>,
}

struct ThreadLog {
    ordinal: u32,
    state: Mutex<ThreadState>,
}

/// A closed span as recorded in a thread buffer.
#[derive(Clone)]
struct SpanRec {
    name: String,
    depth: u32,
    start_s: f64,
    end_s: f64,
    allocs: u64,
}

struct PhaseAccum {
    phase: &'static str,
    bucket_s: [f64; HostBucket::ALL.len()],
    launches: u64,
    allocs: u64,
    util_samples: u64,
    util_busy_sum: u64,
    util_pool: u32,
}

impl PhaseAccum {
    fn new(phase: &'static str) -> Self {
        PhaseAccum {
            phase,
            bucket_s: [0.0; HostBucket::ALL.len()],
            launches: 0,
            allocs: 0,
            util_samples: 0,
            util_busy_sum: 0,
            util_pool: 0,
        }
    }
}

struct EventRec {
    t_s: f64,
    category: String,
    label: String,
}

struct Inner {
    id: u64,
    clock: Box<dyn HostClock>,
    origin_s: f64,
    alloc_origin: u64,
    threads: Mutex<Vec<Arc<ThreadLog>>>,
    phases: Mutex<Vec<PhaseAccum>>,
    events: Mutex<Vec<EventRec>>,
    next_span: AtomicU64,
}

static NEXT_PROFILER_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Per-thread cache of this thread's log per profiler, keyed by the
    /// profiler's process-unique id. The entries are weak: the profiler's
    /// `threads` list owns every log, so a log is released when its
    /// profiler is dropped even on a thread that outlives it (the rayon
    /// shim's workers live for the whole process), and dead entries are
    /// pruned on the thread's next lookup.
    static TL_LOGS: RefCell<Vec<(u64, Weak<ThreadLog>)>> = const { RefCell::new(Vec::new()) };
}

/// Hierarchical host-side span profiler. Cheap to clone (an [`Arc`]); all
/// sinks are internally synchronized, so clones can record from any thread.
#[derive(Clone)]
pub struct HostProfiler {
    inner: Arc<Inner>,
}

impl HostProfiler {
    /// A profiler reading the given clock.
    pub fn new(clock: Box<dyn HostClock>) -> Self {
        let origin_s = clock.now_s();
        let (alloc_origin, _) = host_alloc_counts();
        HostProfiler {
            inner: Arc::new(Inner {
                id: NEXT_PROFILER_ID.fetch_add(1, Ordering::Relaxed),
                clock,
                origin_s,
                alloc_origin,
                threads: Mutex::new(Vec::new()),
                phases: Mutex::new(Vec::new()),
                events: Mutex::new(Vec::new()),
                next_span: AtomicU64::new(0),
            }),
        }
    }

    /// A wall-clock profiler (the production configuration).
    pub fn wall() -> Self {
        Self::new(Box::new(WallClock::new()))
    }

    /// A deterministic profiler advancing `step_us` µs per clock reading.
    pub fn faked(step_us: u64) -> Self {
        Self::new(Box::new(FakeClock::with_step_us(step_us)))
    }

    /// Seconds since profiler construction, per the injected clock.
    /// **Each call consumes one clock reading** — under [`FakeClock`] that
    /// advances time, which is exactly what makes call sequences visible.
    pub fn now_s(&self) -> f64 {
        self.inner.clock.now_s() - self.inner.origin_s
    }

    fn thread_log(&self) -> Arc<ThreadLog> {
        TL_LOGS.with(|logs| {
            let mut logs = logs.borrow_mut();
            if let Some(log) = logs
                .iter()
                .find(|(id, _)| *id == self.inner.id)
                .and_then(|(_, log)| log.upgrade())
            {
                return log;
            }
            logs.retain(|(_, log)| log.strong_count() > 0);
            let mut threads = self.inner.threads.lock().unwrap();
            let log = Arc::new(ThreadLog {
                ordinal: threads.len() as u32,
                state: Mutex::new(ThreadState::default()),
            });
            threads.push(log.clone());
            logs.push((self.inner.id, Arc::downgrade(&log)));
            log
        })
    }

    /// Opens a scoped span on the calling thread; the returned guard closes
    /// it on drop. Spans nest; unbalanced drops are tolerated (see module
    /// docs).
    pub fn span(&self, name: impl Into<String>) -> SpanGuard {
        let log = self.thread_log();
        let start_s = self.now_s();
        let (allocs, _) = host_alloc_counts();
        let id = self.inner.next_span.fetch_add(1, Ordering::Relaxed);
        {
            let mut st = log.state.lock().unwrap();
            let depth = st.stack.len() as u32;
            st.stack.push(OpenSpan {
                id,
                name: name.into(),
                start_s,
                depth,
                allocs_at_open: allocs,
            });
        }
        SpanGuard {
            profiler: self.clone(),
            log,
            id,
        }
    }

    /// Accrues `dt_s` seconds of host time into `bucket` for `phase`.
    pub fn add_bucket(&self, phase: &'static str, bucket: HostBucket, dt_s: f64) {
        let mut phases = self.inner.phases.lock().unwrap();
        let acc = phase_accum(&mut phases, phase);
        acc.bucket_s[bucket.idx()] += dt_s.max(0.0);
    }

    /// Counts one launch against `phase`.
    pub fn note_launch(&self, phase: &'static str) {
        let mut phases = self.inner.phases.lock().unwrap();
        phase_accum(&mut phases, phase).launches += 1;
    }

    /// Attributes `n` host allocator calls to `phase`.
    pub fn note_allocs(&self, phase: &'static str, n: u64) {
        let mut phases = self.inner.phases.lock().unwrap();
        phase_accum(&mut phases, phase).allocs += n;
    }

    /// Samples rayon pool utilization for `phase`: `busy` workers active of
    /// a `pool`-sized pool (one sample per parallel region).
    pub fn sample_util(&self, phase: &'static str, busy: u32, pool: u32) {
        let mut phases = self.inner.phases.lock().unwrap();
        let acc = phase_accum(&mut phases, phase);
        acc.util_samples += 1;
        acc.util_busy_sum += busy as u64;
        acc.util_pool = acc.util_pool.max(pool);
    }

    /// Records a timestamped point event (e.g. a dataset-cache hit).
    pub fn event(&self, category: &str, label: impl Into<String>) {
        let t_s = self.now_s();
        self.inner.events.lock().unwrap().push(EventRec {
            t_s,
            category: category.to_string(),
            label: label.into(),
        });
    }

    /// Merges all per-thread buffers and accumulators into a serializable
    /// [`HostProfile`]. Still-open spans are not included — close the run
    /// guard before capturing. Threads appear in registration order; spans
    /// within a thread in (start, depth) order.
    pub fn profile(&self, label: &str) -> HostProfile {
        let total_s = self.now_s();
        let (allocs_now, alloc_bytes_now) = host_alloc_counts();
        let phases = self.inner.phases.lock().unwrap();
        let phase_rows: Vec<HostPhase> = phases
            .iter()
            .map(|acc| HostPhase {
                phase: acc.phase.to_string(),
                launches: acc.launches,
                allocs: acc.allocs,
                dispatch_s: acc.bucket_s[HostBucket::Dispatch.idx()],
                commit_serial_s: acc.bucket_s[HostBucket::CommitSerial.idx()],
                arena_s: acc.bucket_s[HostBucket::ArenaAlloc.idx()],
                transfer_s: acc.bucket_s[HostBucket::Transfer.idx()],
                fused_step_s: acc.bucket_s[HostBucket::FusedStep.idx()],
                util_samples: acc.util_samples,
                avg_busy_workers: if acc.util_samples == 0 {
                    0.0
                } else {
                    acc.util_busy_sum as f64 / acc.util_samples as f64
                },
                pool_threads: acc.util_pool,
            })
            .collect();
        drop(phases);

        let threads = self.inner.threads.lock().unwrap();
        let mut thread_rows: Vec<HostThread> = threads
            .iter()
            .map(|log| {
                let st = log.state.lock().unwrap();
                let mut spans: Vec<HostSpan> = st
                    .spans
                    .iter()
                    .map(|s| HostSpan {
                        name: s.name.clone(),
                        depth: s.depth,
                        start_s: s.start_s,
                        end_s: s.end_s,
                        dur_s: (s.end_s - s.start_s).max(0.0),
                        allocs: s.allocs,
                    })
                    .collect();
                spans.sort_by(|a, b| {
                    a.start_s
                        .partial_cmp(&b.start_s)
                        .unwrap()
                        .then(a.depth.cmp(&b.depth))
                });
                HostThread {
                    thread: log.ordinal,
                    spans,
                }
            })
            .collect();
        thread_rows.sort_by_key(|t| t.thread);
        drop(threads);

        let events = self.inner.events.lock().unwrap();
        let event_rows: Vec<HostEvent> = events
            .iter()
            .map(|e| HostEvent {
                t_s: e.t_s,
                category: e.category.clone(),
                label: e.label.clone(),
            })
            .collect();
        drop(events);

        HostProfile {
            schema_version: HOSTPROF_SCHEMA_VERSION,
            label: label.to_string(),
            total_s,
            host_allocs: allocs_now.saturating_sub(self.inner.alloc_origin),
            host_alloc_bytes: alloc_bytes_now,
            phases: phase_rows,
            threads: thread_rows,
            events: event_rows,
        }
    }
}

fn phase_accum<'a>(phases: &'a mut Vec<PhaseAccum>, phase: &'static str) -> &'a mut PhaseAccum {
    if let Some(i) = phases.iter().position(|p| p.phase == phase) {
        &mut phases[i]
    } else {
        phases.push(PhaseAccum::new(phase));
        phases.last_mut().unwrap()
    }
}

/// RAII guard closing a [`HostProfiler::span`] on drop.
pub struct SpanGuard {
    profiler: HostProfiler,
    log: Arc<ThreadLog>,
    id: u64,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let end_s = self.profiler.now_s();
        let (allocs_now, _) = host_alloc_counts();
        let mut st = self.log.state.lock().unwrap();
        // If a parent guard already closed this span (unbalanced drop
        // order), there is nothing left to do.
        if !st.stack.iter().any(|o| o.id == self.id) {
            return;
        }
        // Pop up to and including our own entry; any entries above us are
        // children whose guards outlived us — close them here, at our end
        // time, so the tree stays laminar.
        while let Some(open) = st.stack.pop() {
            let mine = open.id == self.id;
            st.spans.push(SpanRec {
                name: open.name,
                depth: open.depth,
                start_s: open.start_s,
                end_s,
                allocs: allocs_now.saturating_sub(open.allocs_at_open),
            });
            if mine {
                break;
            }
        }
    }
}

/// Interval lap timer for the launch engine: one clock reading per
/// boundary, accruing each interval into a bucket. A no-op (zero clock
/// reads) when no profiler is attached.
pub(crate) struct Lap {
    p: Option<HostProfiler>,
    phase: &'static str,
    mark: f64,
}

impl Lap {
    pub(crate) fn start(p: Option<HostProfiler>, phase: &'static str) -> Self {
        let mark = p.as_ref().map_or(0.0, |p| p.now_s());
        Lap { p, phase, mark }
    }

    /// Closes the current interval into `bucket` and starts the next one.
    pub(crate) fn lap(&mut self, bucket: HostBucket) {
        if let Some(p) = &self.p {
            let now = p.now_s();
            p.add_bucket(self.phase, bucket, now - self.mark);
            self.mark = now;
        }
    }

    pub(crate) fn profiler(&self) -> Option<&HostProfiler> {
        self.p.as_ref()
    }
}

// ---------------------------------------------------------------------------
// Env-driven attachment
// ---------------------------------------------------------------------------

/// Whether `KCORE_HOSTPROF` opts host profiling in (set, non-empty, not
/// `"0"`).
pub fn enabled() -> bool {
    std::env::var(HOSTPROF_ENV)
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false)
}

/// A fresh wall-clock profiler when [`enabled`], else `None` — what
/// [`GpuContext::new`] attaches.
pub fn from_env() -> Option<HostProfiler> {
    enabled().then(HostProfiler::wall)
}

static GLOBAL: OnceLock<Option<HostProfiler>> = OnceLock::new();

/// The process-wide profiler for code that runs outside any [`GpuContext`]
/// (graph ingestion, the dataset cache). Created on first use when
/// [`enabled`]; the decision is latched for the process lifetime.
pub fn global() -> Option<&'static HostProfiler> {
    GLOBAL
        .get_or_init(|| enabled().then(HostProfiler::wall))
        .as_ref()
}

// ---------------------------------------------------------------------------
// Serializable profile
// ---------------------------------------------------------------------------

/// Per-phase host-time bucket row of a [`HostProfile`].
#[derive(Debug, Clone, Serialize)]
pub struct HostPhase {
    /// Algorithm phase label (matches the trace's phase rollup).
    pub phase: String,
    /// Launches the engine dispatched in this phase.
    pub launches: u64,
    /// Host allocator calls attributed to this phase.
    pub allocs: u64,
    /// [`HostBucket::Dispatch`] seconds.
    pub dispatch_s: f64,
    /// [`HostBucket::CommitSerial`] seconds.
    pub commit_serial_s: f64,
    /// [`HostBucket::ArenaAlloc`] seconds.
    pub arena_s: f64,
    /// [`HostBucket::Transfer`] seconds.
    pub transfer_s: f64,
    /// [`HostBucket::FusedStep`] seconds.
    pub fused_step_s: f64,
    /// Number of pool-utilization samples taken in this phase.
    pub util_samples: u64,
    /// Mean busy workers per parallel region (0 when never sampled).
    pub avg_busy_workers: f64,
    /// Largest rayon pool observed for this phase's parallel regions.
    pub pool_threads: u32,
}

impl HostPhase {
    /// Seconds attributed across all buckets of this phase.
    pub fn attributed_s(&self) -> f64 {
        self.dispatch_s + self.commit_serial_s + self.arena_s + self.transfer_s + self.fused_step_s
    }

    /// Bucket value by label order of [`HostBucket::ALL`].
    pub fn bucket_s(&self, b: HostBucket) -> f64 {
        match b {
            HostBucket::Dispatch => self.dispatch_s,
            HostBucket::CommitSerial => self.commit_serial_s,
            HostBucket::ArenaAlloc => self.arena_s,
            HostBucket::Transfer => self.transfer_s,
            HostBucket::FusedStep => self.fused_step_s,
        }
    }
}

/// One merged per-thread span buffer.
#[derive(Debug, Clone, Serialize)]
pub struct HostThread {
    /// Registration ordinal of the thread within the profiler.
    pub thread: u32,
    /// Closed spans, sorted by (start, depth).
    pub spans: Vec<HostSpan>,
}

/// A closed span in a [`HostThread`].
#[derive(Debug, Clone, Serialize)]
pub struct HostSpan {
    /// Span name (e.g. `peel/rounds`).
    pub name: String,
    /// Nesting depth at open time (0 = top level on its thread).
    pub depth: u32,
    /// Start, seconds since profiler construction.
    pub start_s: f64,
    /// End, seconds since profiler construction: the clock reading taken at
    /// close, stored as read. A child closed with its parent has the same
    /// `end_s` bits, which `start_s + dur_s` does not always reproduce.
    pub end_s: f64,
    /// Duration, seconds (`end_s - start_s`).
    pub dur_s: f64,
    /// Host allocator calls while the span was open (process-global delta —
    /// informational).
    pub allocs: u64,
}

/// A timestamped point event (e.g. dataset-cache hit/miss).
#[derive(Debug, Clone, Serialize)]
pub struct HostEvent {
    /// Timestamp, seconds since profiler construction.
    pub t_s: f64,
    /// Event category (e.g. `cache`).
    pub category: String,
    /// Human-readable label.
    pub label: String,
}

/// The merged, serializable host profile. Written alongside a trace as
/// `<name>.hostprof.json`; never embedded in [`crate::Trace`], never part of
/// a fingerprint or golden compare.
#[derive(Debug, Clone, Serialize)]
pub struct HostProfile {
    /// [`HOSTPROF_SCHEMA_VERSION`].
    pub schema_version: u32,
    /// Caller-supplied label (dataset/impl).
    pub label: String,
    /// Seconds from profiler construction to capture.
    pub total_s: f64,
    /// Host allocator calls since profiler construction (process-global
    /// delta — informational).
    pub host_allocs: u64,
    /// Process-lifetime allocated bytes at capture (monotone, informational).
    pub host_alloc_bytes: u64,
    /// Per-phase bucket table, in first-use order.
    pub phases: Vec<HostPhase>,
    /// Merged per-thread span buffers.
    pub threads: Vec<HostThread>,
    /// Timestamped point events, in recording order.
    pub events: Vec<HostEvent>,
}

impl HostProfile {
    /// Pretty JSON (the `<name>.hostprof.json` artifact).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("host profile serializes")
    }

    /// Seconds attributed to named buckets across all phases.
    pub fn attributed_s(&self) -> f64 {
        self.phases.iter().map(HostPhase::attributed_s).sum()
    }

    /// Total span seconds at depth 0 across all threads (the "measured
    /// wall time" coverage denominators compare against).
    pub fn root_span_s(&self) -> f64 {
        self.threads
            .iter()
            .flat_map(|t| &t.spans)
            .filter(|s| s.depth == 0)
            .map(|s| s.dur_s)
            .sum()
    }

    /// Validates structural well-formedness: within each thread, any two
    /// spans are either disjoint or nested (laminar intervals), and a
    /// strictly-contained span has strictly greater depth. Intervals are
    /// compared on the stored clock readings (`start_s`, `end_s`), never on
    /// `start_s + dur_s`, whose rounding can push a child's end past its
    /// parent's.
    pub fn check_well_formed(&self) -> Result<(), String> {
        for t in &self.threads {
            for (i, a) in t.spans.iter().enumerate() {
                if a.end_s < a.start_s {
                    return Err(format!(
                        "thread {}: span {} has negative duration",
                        t.thread, a.name
                    ));
                }
                for b in t.spans.iter().skip(i + 1) {
                    let (a0, a1) = (a.start_s, a.end_s);
                    let (b0, b1) = (b.start_s, b.end_s);
                    let disjoint = a1 <= b0 || b1 <= a0;
                    let a_in_b = b0 <= a0 && a1 <= b1;
                    let b_in_a = a0 <= b0 && b1 <= a1;
                    if !(disjoint || a_in_b || b_in_a) {
                        return Err(format!(
                            "thread {}: spans {} [{a0}, {a1}] and {} [{b0}, {b1}] overlap \
                             without nesting",
                            t.thread, a.name, b.name
                        ));
                    }
                    let b_strictly_in_a = b_in_a && (a0 < b0 || b1 < a1);
                    let a_strictly_in_b = a_in_b && (b0 < a0 || a1 < b1);
                    if b_strictly_in_a && b.depth <= a.depth {
                        return Err(format!(
                            "thread {}: contained span {} (depth {}) not deeper than {} (depth {})",
                            t.thread, b.name, b.depth, a.name, a.depth
                        ));
                    }
                    if a_strictly_in_b && a.depth <= b.depth {
                        return Err(format!(
                            "thread {}: contained span {} (depth {}) not deeper than {} (depth {})",
                            t.thread, a.name, a.depth, b.name, b.depth
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Chrome trace-event objects for the "Host" Perfetto process: one
    /// thread track per merged buffer carrying its spans as `"X"` events,
    /// plus an `events` track of `"i"` instants. Timestamps are host
    /// seconds since profiler construction (a different time base than the
    /// simulated tracks — the process name says so). Allocation counts are
    /// deliberately omitted: they are process-global and nondeterministic
    /// even under an injected clock.
    pub fn chrome_events(&self, pid: u64) -> Vec<Value> {
        let mut out: Vec<Value> = Vec::new();
        out.push(chrome_obj(vec![
            ("name", Value::Str("process_name".into())),
            ("ph", Value::Str("M".into())),
            ("pid", Value::UInt(pid)),
            (
                "args",
                chrome_obj(vec![(
                    "name",
                    Value::Str(format!("Host (wall clock) · {}", self.label)),
                )]),
            ),
        ]));
        for t in &self.threads {
            out.push(chrome_obj(vec![
                ("name", Value::Str("thread_name".into())),
                ("ph", Value::Str("M".into())),
                ("pid", Value::UInt(pid)),
                ("tid", Value::UInt(t.thread as u64)),
                (
                    "args",
                    chrome_obj(vec![(
                        "name",
                        Value::Str(format!("host thread {}", t.thread)),
                    )]),
                ),
            ]));
            for s in &t.spans {
                out.push(chrome_obj(vec![
                    ("name", Value::Str(s.name.clone())),
                    ("cat", Value::Str("host".into())),
                    ("ph", Value::Str("X".into())),
                    ("ts", Value::Float(s.start_s * 1e6)),
                    ("dur", Value::Float(s.dur_s * 1e6)),
                    ("pid", Value::UInt(pid)),
                    ("tid", Value::UInt(t.thread as u64)),
                    (
                        "args",
                        chrome_obj(vec![("depth", Value::UInt(s.depth as u64))]),
                    ),
                ]));
            }
        }
        if !self.events.is_empty() {
            let events_tid = self.threads.len() as u64;
            out.push(chrome_obj(vec![
                ("name", Value::Str("thread_name".into())),
                ("ph", Value::Str("M".into())),
                ("pid", Value::UInt(pid)),
                ("tid", Value::UInt(events_tid)),
                (
                    "args",
                    chrome_obj(vec![("name", Value::Str("events".into()))]),
                ),
            ]));
            for e in &self.events {
                out.push(chrome_obj(vec![
                    ("name", Value::Str(e.label.clone())),
                    ("cat", Value::Str(e.category.clone())),
                    ("ph", Value::Str("i".into())),
                    ("ts", Value::Float(e.t_s * 1e6)),
                    ("pid", Value::UInt(pid)),
                    ("tid", Value::UInt(events_tid)),
                    ("s", Value::Str("t".into())),
                ]));
            }
        }
        out
    }
}

fn chrome_obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

// ---------------------------------------------------------------------------
// GpuContext convenience
// ---------------------------------------------------------------------------

impl GpuContext {
    /// Opens a host span on the attached profiler (no-op `None` when host
    /// profiling is off). The guard holds only profiler handles, so it does
    /// not borrow the context.
    pub fn host_span(&self, name: &str) -> Option<SpanGuard> {
        self.host_profiler().map(|p| p.span(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rayon::prelude::*;

    #[test]
    fn spans_nest_and_record_depths() {
        let p = HostProfiler::faked(10);
        {
            let _a = p.span("a");
            {
                let _b = p.span("b");
                let _c = p.span("c");
            }
            let _d = p.span("d");
        }
        let prof = p.profile("t");
        assert_eq!(prof.threads.len(), 1);
        let spans = &prof.threads[0].spans;
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
        assert_eq!(by_name("a").depth, 0);
        assert_eq!(by_name("b").depth, 1);
        assert_eq!(by_name("c").depth, 2);
        assert_eq!(by_name("d").depth, 1);
        prof.check_well_formed().unwrap();
        // fake clock: durations strictly positive, a contains b contains c
        let (a, b, c) = (by_name("a"), by_name("b"), by_name("c"));
        assert!(a.start_s <= b.start_s && b.start_s <= c.start_s);
        assert!(a.end_s >= b.end_s && b.end_s >= c.end_s);
    }

    #[test]
    fn unbalanced_guard_drops_are_tolerated() {
        let p = HostProfiler::faked(10);
        let a = p.span("parent");
        let b = p.span("child");
        // parent dropped first: child must be closed at the parent's end
        drop(a);
        drop(b); // no-op, already closed
        let prof = p.profile("t");
        let spans = &prof.threads[0].spans;
        assert_eq!(spans.len(), 2);
        let parent = spans.iter().find(|s| s.name == "parent").unwrap();
        let child = spans.iter().find(|s| s.name == "child").unwrap();
        assert_eq!(child.depth, 1);
        // both closed at the same instant, child still inside parent
        assert_eq!(parent.end_s, child.end_s);
        prof.check_well_formed().unwrap();
    }

    #[test]
    fn a_child_closed_at_its_parents_end_is_nested() {
        // 3 us per reading; the origin takes tick 0
        let p = HostProfiler::faked(3);
        let parent = p.span("parent"); // 3 us
        p.now_s(); // 6 us
        let child = p.span("child"); // 9 us
        for _ in 0..3 {
            p.now_s(); // 12, 15, 18 us
        }
        drop(parent); // 21 us, closing the child too
        drop(child);
        let prof = p.profile("t");
        let spans = &prof.threads[0].spans;
        let (parent, child) = (&spans[0], &spans[1]);
        assert_eq!((parent.start_s, parent.end_s), (3e-6, 21e-6));
        assert_eq!((child.start_s, child.end_s), (9e-6, 21e-6));
        // rebuilding the ends from durations rounds the parent's end below
        // the child's, which read as an overlap before ends were stored
        assert_eq!(parent.start_s + parent.dur_s, 2.0999999999999995e-5);
        assert!(parent.start_s + parent.dur_s < child.start_s + child.dur_s);
        prof.check_well_formed().unwrap();
    }

    #[test]
    fn thread_logs_are_released_with_their_profiler() {
        let p = HostProfiler::faked(1);
        drop(p.span("main"));
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap();
        // Two one-item chunks meeting at a barrier: the caller blocks in
        // the first, so a persistent worker (which outlives `p`) must run
        // the second.
        let both = std::sync::Barrier::new(2);
        pool.install(|| {
            (0..2).into_par_iter().for_each(|i| {
                both.wait();
                drop(p.span(format!("w{i}")));
            });
        });
        let logs: Vec<Weak<ThreadLog>> = p
            .inner
            .threads
            .lock()
            .unwrap()
            .iter()
            .map(Arc::downgrade)
            .collect();
        assert!(logs.len() >= 2, "the caller's log and a worker's");
        assert!(logs.iter().all(|l| l.strong_count() > 0));
        drop(p);
        assert!(
            logs.iter().all(|l| l.strong_count() == 0),
            "a thread-local cache kept a dropped profiler's log alive"
        );
        // the next lookup on this thread prunes the dead cache entry
        let q = HostProfiler::faked(1);
        drop(q.span("again"));
        TL_LOGS.with(|l| assert_eq!(l.borrow().len(), 1));
    }

    #[test]
    fn per_thread_buffers_merge_in_registration_order() {
        let p = HostProfiler::faked(10);
        let _main = p.span("main-thread");
        std::thread::scope(|s| {
            for i in 0..3 {
                let p = p.clone();
                s.spawn(move || {
                    let _g = p.span(format!("worker-{i}"));
                });
            }
        });
        let prof = p.profile("t");
        // main thread + 3 workers, ordinals dense from 0
        assert_eq!(prof.threads.len(), 4);
        for (i, t) in prof.threads.iter().enumerate() {
            assert_eq!(t.thread, i as u32);
        }
        let all: Vec<&str> = prof
            .threads
            .iter()
            .flat_map(|t| t.spans.iter().map(|s| s.name.as_str()))
            .collect();
        for i in 0..3 {
            assert!(all.contains(&format!("worker-{i}").as_str()));
        }
        prof.check_well_formed().unwrap();
    }

    #[test]
    fn buckets_accumulate_per_phase() {
        let p = HostProfiler::faked(100);
        p.add_bucket("Scan", HostBucket::Dispatch, 0.5);
        p.add_bucket("Scan", HostBucket::Dispatch, 0.25);
        p.add_bucket("Loop", HostBucket::CommitSerial, 1.0);
        p.note_launch("Scan");
        p.note_launch("Scan");
        p.sample_util("Loop", 6, 8);
        p.sample_util("Loop", 2, 8);
        let prof = p.profile("t");
        let scan = prof.phases.iter().find(|r| r.phase == "Scan").unwrap();
        assert_eq!(scan.launches, 2);
        assert!((scan.dispatch_s - 0.75).abs() < 1e-12);
        let lp = prof.phases.iter().find(|r| r.phase == "Loop").unwrap();
        assert!((lp.commit_serial_s - 1.0).abs() < 1e-12);
        assert_eq!(lp.util_samples, 2);
        assert!((lp.avg_busy_workers - 4.0).abs() < 1e-12);
        assert_eq!(lp.pool_threads, 8);
        assert!((prof.attributed_s() - 1.75).abs() < 1e-12);
    }

    #[test]
    fn fake_clock_profiles_are_deterministic() {
        let run = || {
            let p = HostProfiler::faked(7);
            {
                let _a = p.span("a");
                let _b = p.span("b");
            }
            p.event("cat", "hello");
            let mut prof = p.profile("det");
            // alloc counts are process-global (other tests run concurrently):
            // zero them before comparing bytes
            prof.host_allocs = 0;
            prof.host_alloc_bytes = 0;
            for t in &mut prof.threads {
                for s in &mut t.spans {
                    s.allocs = 0;
                }
            }
            prof.to_json()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn events_carry_timestamps_in_order() {
        let p = HostProfiler::faked(10);
        p.event("cache", "miss k1");
        p.event("cache", "generated k1");
        let prof = p.profile("t");
        assert_eq!(prof.events.len(), 2);
        assert!(prof.events[0].t_s < prof.events[1].t_s);
        assert_eq!(prof.events[0].category, "cache");
        assert_eq!(prof.events[0].label, "miss k1");
    }

    #[test]
    fn chrome_events_render_host_process_and_tracks() {
        let p = HostProfiler::faked(10);
        {
            let _a = p.span("peel");
        }
        p.event("cache", "hit rmat9");
        let prof = p.profile("rmat9/peel");
        let events = prof.chrome_events(3);
        let json = serde_json::to_string(&Value::Array(events)).unwrap();
        assert!(json.contains("Host (wall clock) · rmat9/peel"));
        assert!(json.contains("\"host thread 0\""));
        assert!(json.contains("\"name\":\"peel\",\"cat\":\"host\",\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"hit rmat9\",\"cat\":\"cache\",\"ph\":\"i\""));
        // allocation counts stay out of the (golden-pinned) chrome export
        assert!(!json.contains("alloc"));
    }

    proptest! {
        /// Arbitrary open/close scripts executed on rayon pools of size
        /// 1/2/8 always yield laminar per-thread span trees, whatever the
        /// guard drop order.
        #[test]
        fn span_trees_are_well_formed_across_pools(
            scripts in proptest::collection::vec(
                proptest::collection::vec(0u8..3, 1..12), 1..6),
        ) {
            for threads in [1usize, 2, 8] {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap();
                let p = HostProfiler::faked(3);
                let prof = pool.install(|| {
                    (0..scripts.len()).into_par_iter().for_each(|si| {
                        let script = &scripts[si];
                        let mut guards: Vec<SpanGuard> = Vec::new();
                        for (oi, op) in script.iter().enumerate() {
                            match op {
                                0 => guards.push(p.span(format!("s{si}-{oi}"))),
                                // LIFO close (balanced)
                                1 => { guards.pop(); }
                                // FIFO close (unbalanced: parent first)
                                _ => {
                                    if !guards.is_empty() {
                                        guards.remove(0);
                                    }
                                }
                            }
                        }
                        drop(guards);
                    });
                    p.profile("prop")
                });
                prop_assert!(prof.check_well_formed().is_ok(),
                    "pool {}: {:?}", threads, prof.check_well_formed());
            }
        }
    }
}
