//! Kernel execution: grids, blocks, shared memory, and charging.
//!
//! [`GpuContext::launch`] runs a kernel closure once per thread block, with
//! blocks genuinely executing in parallel on host threads (blocks are
//! independent on hardware too — §III: "different thread blocks are
//! independent in their execution"). Cross-block communication goes through
//! device buffers with real atomics, so any interleaving the simulator
//! produces is an interleaving the hardware could produce.
//!
//! The kernel closure receives a [`BlockCtx`] carrying the block's identity,
//! its private shared memory, and the cost-model charging interface. Kernels
//! *charge* the events they perform (`charge_instr`, `charge_tx`, atomics,
//! barriers); memory itself is accessed directly through the device's atomic
//! slices. The per-access helpers ([`BlockCtx::gread`], [`BlockCtx::atomic_add`],
//! …) bundle the access with its charge for the common cases.

use crate::cost::{
    CostParams, CounterSample, Counters, LaunchRecord, SimReport, TransferDir, TransferRecord,
};
use crate::device::{BufferId, Device, OomError, SizeClass};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};

/// Shared memory per thread block: the P100's 64 KiB.
const SHARED_CAPACITY_BYTES: u64 = 64 * 1024;

/// Simulation environment for a run: device cost constants, memory capacity,
/// and an optional simulated-time budget.
#[derive(Debug, Clone, Copy)]
pub struct SimOptions {
    /// Device cost constants.
    pub cost: CostParams,
    /// Device global-memory capacity in bytes (the paper's P100 has 16 GB).
    pub device_capacity_bytes: u64,
    /// Optional simulated-time budget in ms; exceeded → [`SimError::TimeLimit`]
    /// (the bench harness prints these as the paper's "> 1hr" cells).
    pub time_limit_ms: Option<f64>,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            cost: CostParams::p100(),
            device_capacity_bytes: crate::P100_DEVICE_BYTES,
            time_limit_ms: None,
        }
    }
}

impl SimOptions {
    /// Builds a fresh [`GpuContext`] configured per these options.
    pub fn context(&self) -> GpuContext {
        let mut ctx = GpuContext::new(self.cost, self.device_capacity_bytes);
        if let Some(ms) = self.time_limit_ms {
            ctx.set_time_limit_ms(ms);
        }
        ctx
    }
}

/// Grid geometry of a kernel launch (`<<<BLK_NUM, BLK_DIM>>>`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Number of thread blocks (`BLK_NUM`), at least 1.
    pub blocks: u32,
    /// Threads per block (`BLK_DIM`), a positive multiple of 32.
    pub threads_per_block: u32,
}

impl LaunchConfig {
    /// Checks the geometry every launch entry point requires: at least one
    /// block, and a positive multiple of the 32-thread warp per block.
    fn validate(&self) -> Result<(), SimError> {
        if self.blocks >= 1
            && self.threads_per_block >= 32
            && self.threads_per_block.is_multiple_of(32)
        {
            Ok(())
        } else {
            Err(SimError::InvalidLaunch(*self))
        }
    }

    /// The paper's configuration: 108 blocks of 1024 threads (§VI).
    pub fn paper() -> Self {
        LaunchConfig {
            blocks: 108,
            threads_per_block: 1024,
        }
    }

    /// Warps per block (`BLK_DIM >> 5`).
    pub fn warps_per_block(&self) -> u32 {
        self.threads_per_block / 32
    }

    /// Total thread count (`NUM_THREADS`).
    pub fn num_threads(&self) -> u32 {
        self.blocks * self.threads_per_block
    }
}

/// In-kernel failure.
#[derive(Debug, Clone, PartialEq)]
pub enum KernelError {
    /// A `shared_alloc` exceeded the block's shared-memory capacity.
    SharedMemExceeded {
        /// Bytes requested beyond what remained.
        requested_bytes: u64,
        /// Per-block capacity.
        capacity_bytes: u64,
    },
    /// A device buffer used as a work queue overflowed — the paper's
    /// "block overflow ... the graph is too large to be processed given the
    /// space limit" assertion.
    BufferOverflow {
        /// Which buffer overflowed.
        what: String,
    },
    /// Any other kernel-reported failure.
    Other(String),
}

impl std::fmt::Display for KernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelError::SharedMemExceeded { requested_bytes, capacity_bytes } => write!(
                f,
                "shared memory exceeded: requested {requested_bytes} B beyond capacity {capacity_bytes} B"
            ),
            KernelError::BufferOverflow { what } => write!(f, "device buffer overflow: {what}"),
            KernelError::Other(msg) => write!(f, "kernel error: {msg}"),
        }
    }
}

impl std::error::Error for KernelError {}

/// Simulation-level failure.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// Device allocation failed.
    Oom(OomError),
    /// A kernel reported an error.
    Kernel(KernelError),
    /// The configured simulated-time budget was exhausted (the harness
    /// reports these as the paper's "> 1hr" entries).
    TimeLimit {
        /// The configured limit, ms.
        limit_ms: f64,
    },
    /// A launch asked for a grid with no blocks, or with a block width that
    /// is not a positive multiple of the 32-thread warp.
    InvalidLaunch(LaunchConfig),
    /// A run configuration the engine cannot honor: `what` is set to
    /// `value`, and the engine needs `need`.
    InvalidConfig {
        /// The offending setting.
        what: &'static str,
        /// The value it was given (counts convert exactly below 2^53).
        value: f64,
        /// What the engine accepts.
        need: &'static str,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Oom(e) => write!(f, "{e}"),
            SimError::Kernel(e) => write!(f, "{e}"),
            SimError::TimeLimit { limit_ms } => {
                write!(f, "simulated time limit of {limit_ms} ms exceeded")
            }
            SimError::InvalidLaunch(cfg) => write!(
                f,
                "invalid launch geometry: {} blocks of {} threads (need at least 1 block \
                 and a positive multiple of 32 threads per block)",
                cfg.blocks, cfg.threads_per_block
            ),
            SimError::InvalidConfig { what, value, need } => {
                write!(f, "invalid configuration: {what} = {value} (need {need})")
            }
        }
    }
}

impl std::error::Error for SimError {}

impl From<OomError> for SimError {
    fn from(e: OomError) -> Self {
        SimError::Oom(e)
    }
}

impl From<KernelError> for SimError {
    fn from(e: KernelError) -> Self {
        SimError::Kernel(e)
    }
}

/// Handle to a block-shared-memory array (per block, like `__shared__`).
#[derive(Debug, Clone, Copy)]
pub struct SharedArray {
    start: usize,
    len: usize,
}

impl SharedArray {
    /// Number of 32-bit words.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// How a warp's 32 lane addresses map onto global-memory traffic — the
/// charging policy of the warp-granularity [`BlockCtx::gather`] /
/// [`BlockCtx::scatter`] helpers.
///
/// The **invariant** (DESIGN.md "Fast-path cost accounting") is that at any
/// call site converted from per-lane charging, the bulk charge must equal
/// the per-lane sum exactly — the fast path changes how counters are
/// *computed*, never what they *sum to*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Coalescing {
    /// Random-access model: every lane pays its own 32-byte sector
    /// (`global_sectors += lanes`). Bit-identical to a loop of
    /// [`BlockCtx::gread`] / [`BlockCtx::gwrite`] — the drop-in policy for
    /// converted per-lane call sites.
    Scattered,
    /// Classify the warp's addresses into distinct 32-byte sectors in one
    /// pass and charge only the distinct count (`global_sectors +=
    /// distinct`). The hardware-faithful policy for *new* call sites; it
    /// may charge less than `Scattered`, so converting an existing call
    /// site to it would change golden traces.
    Classified,
    /// The warp touches a contiguous run: charge 128-byte transactions
    /// (`global_tx += coalesced_tx(lanes)`), like the hand-written
    /// `charge_tx(coalesced_tx(..))` sites.
    Contiguous,
}

/// Per-block execution context handed to kernel closures.
pub struct BlockCtx<'a> {
    /// The device, for buffer access.
    pub device: &'a Device,
    /// This block's index (`blockIdx.x`).
    pub block_idx: u32,
    /// Grid geometry.
    pub cfg: LaunchConfig,
    /// Event counters for this block.
    pub counters: Counters,
    shared: Vec<u32>,
    /// True when the engine guarantees no other block is executing
    /// concurrently on this device (the inline path of one-shot launches
    /// and every stepped wave). Lets the global-atomic helpers use
    /// plain load/store instead of lock-prefixed RMWs — same values, same
    /// charges, less host time.
    exclusive: bool,
}

impl<'a> BlockCtx<'a> {
    /// Builds a context on a reused shared-memory backing vector (its
    /// capacity survives across launches).
    fn new(
        device: &'a Device,
        block_idx: u32,
        cfg: LaunchConfig,
        mut shared: Vec<u32>,
        exclusive: bool,
    ) -> Self {
        shared.clear();
        BlockCtx {
            device,
            block_idx,
            cfg,
            counters: Counters::default(),
            shared,
            exclusive,
        }
    }

    /// Warps in this block.
    pub fn num_warps(&self) -> u32 {
        self.cfg.warps_per_block()
    }

    // ---- shared memory -------------------------------------------------

    /// Allocates `len` words of block shared memory (zeroed).
    pub fn shared_alloc(&mut self, len: usize) -> Result<SharedArray, KernelError> {
        let new_bytes = (self.shared.len() + len) as u64 * 4;
        if new_bytes > SHARED_CAPACITY_BYTES {
            return Err(KernelError::SharedMemExceeded {
                requested_bytes: new_bytes - SHARED_CAPACITY_BYTES,
                capacity_bytes: SHARED_CAPACITY_BYTES,
            });
        }
        let start = self.shared.len();
        self.shared.resize(start + len, 0);
        Ok(SharedArray { start, len })
    }

    /// Reads a shared-memory word (charged).
    #[inline]
    pub fn sh_read(&mut self, arr: SharedArray, idx: usize) -> u32 {
        debug_assert!(idx < arr.len);
        self.counters.shared_accesses += 1;
        self.shared[arr.start + idx]
    }

    /// Writes a shared-memory word (charged).
    #[inline]
    pub fn sh_write(&mut self, arr: SharedArray, idx: usize, value: u32) {
        debug_assert!(idx < arr.len);
        self.counters.shared_accesses += 1;
        self.shared[arr.start + idx] = value;
    }

    /// Shared-memory atomic add; returns the old value. Within the simulated
    /// block this is sequentialized, but it is charged at shared-atomic cost
    /// (the paper's `atomicAdd(e, 1)` in Algorithm 2).
    #[inline]
    pub fn sh_atomic_add(&mut self, arr: SharedArray, idx: usize, delta: u32) -> u32 {
        debug_assert!(idx < arr.len);
        self.counters.shared_atomics += 1;
        let slot = &mut self.shared[arr.start + idx];
        let old = *slot;
        *slot = old.wrapping_add(delta);
        old
    }

    // ---- global memory -------------------------------------------------

    /// Scalar (uncoalesced) global read: one 32-byte sector access.
    #[inline]
    pub fn gread(&mut self, cell: &AtomicU32) -> u32 {
        self.counters.global_sectors += 1;
        cell.load(Ordering::Relaxed)
    }

    /// Scalar (uncoalesced) global write: one 32-byte sector access.
    #[inline]
    pub fn gwrite(&mut self, cell: &AtomicU32, value: u32) {
        self.counters.global_sectors += 1;
        cell.store(value, Ordering::Relaxed);
    }

    /// A *serialized dependent* global read on the warp's critical path
    /// (pointer chase) — charged with exposed latency on top of the sector
    /// access. This is the cost the VP optimization prefetches away.
    #[inline]
    pub fn gread_dependent(&mut self, cell: &AtomicU32) -> u32 {
        self.counters.global_sectors += 1;
        self.counters.dependent_reads += 1;
        cell.load(Ordering::Relaxed)
    }

    /// Global `atomicAdd`; returns the old value.
    #[inline]
    pub fn atomic_add(&mut self, cell: &AtomicU32, delta: u32) -> u32 {
        self.counters.global_atomics += 1;
        self.raw_atomic_add(cell, delta)
    }

    /// Global `atomicSub`; returns the old value.
    #[inline]
    pub fn atomic_sub(&mut self, cell: &AtomicU32, delta: u32) -> u32 {
        self.counters.global_atomics += 1;
        self.raw_atomic_sub(cell, delta)
    }

    /// *Uncharged* global `atomicAdd` for bulk-charged fast paths: the
    /// caller must add the matching `global_atomics` count itself (one `+=`
    /// per warp/chunk instead of per lane). Exclusive-execution aware.
    #[inline]
    pub fn raw_atomic_add(&self, cell: &AtomicU32, delta: u32) -> u32 {
        if self.exclusive {
            let old = cell.load(Ordering::Relaxed);
            cell.store(old.wrapping_add(delta), Ordering::Relaxed);
            old
        } else {
            cell.fetch_add(delta, Ordering::AcqRel)
        }
    }

    /// *Uncharged* global `atomicSub`; see [`BlockCtx::raw_atomic_add`].
    #[inline]
    pub fn raw_atomic_sub(&self, cell: &AtomicU32, delta: u32) -> u32 {
        if self.exclusive {
            let old = cell.load(Ordering::Relaxed);
            cell.store(old.wrapping_sub(delta), Ordering::Relaxed);
            old
        } else {
            cell.fetch_sub(delta, Ordering::AcqRel)
        }
    }

    /// *Uncharged* shared-memory read for bulk-charged fast paths (caller
    /// accounts `shared_accesses` / `shared_atomics` in bulk).
    #[inline]
    pub fn sh_peek(&self, arr: SharedArray, idx: usize) -> u32 {
        debug_assert!(idx < arr.len);
        self.shared[arr.start + idx]
    }

    /// *Uncharged* shared-memory write; see [`BlockCtx::sh_peek`].
    #[inline]
    pub fn sh_poke(&mut self, arr: SharedArray, idx: usize, value: u32) {
        debug_assert!(idx < arr.len);
        self.shared[arr.start + idx] = value;
    }

    // ---- charging ------------------------------------------------------

    /// Charges `n` warp instructions.
    #[inline]
    pub fn charge_instr(&mut self, n: u64) {
        self.counters.warp_instrs += n;
    }

    /// Charges `n` 128-byte global transactions (use with direct slice
    /// access when a warp touches a contiguous run — see
    /// [`BlockCtx::coalesced_tx`]).
    #[inline]
    pub fn charge_tx(&mut self, n: u64) {
        self.counters.global_tx += n;
    }

    /// Charges `n` random 32-byte sector accesses (use with direct slice
    /// access for scattered per-lane reads/writes).
    #[inline]
    pub fn charge_sector(&mut self, n: u64) {
        self.counters.global_sectors += n;
    }

    /// Transactions needed for a coalesced warp access of `words` 32-bit
    /// words: `ceil(4·words / 128)`.
    #[inline]
    pub fn coalesced_tx(words: u64) -> u64 {
        (words * 4).div_ceil(128)
    }

    /// `__syncthreads()` — block barrier (charged).
    #[inline]
    pub fn sync_threads(&mut self) {
        self.counters.barriers += 1;
    }

    /// `__syncwarp()` — warp barrier (charged as one instruction).
    #[inline]
    pub fn sync_warp(&mut self) {
        self.counters.warp_instrs += 1;
    }

    // ---- warp-granularity memory ops (fast path) -----------------------

    /// Classifies up to one warp's worth of word addresses into distinct
    /// 32-byte sectors (8 words each) in a single pass, returning the
    /// sector count a coalescer would issue. Insertion-dedups into a stack
    /// array — no allocation, O(lanes·distinct) with distinct ≤ 32.
    pub fn warp_sector_count(addrs: &[usize]) -> u64 {
        debug_assert!(addrs.len() <= 32);
        let mut sectors = [0usize; 32];
        let mut n = 0usize;
        'outer: for &a in addrs {
            let s = a >> 3; // 8 × 4-byte words per 32-byte sector
            for &seen in &sectors[..n] {
                if seen == s {
                    continue 'outer;
                }
            }
            sectors[n] = s;
            n += 1;
        }
        n as u64
    }

    /// Charges one warp memory access over `lanes` addresses under the
    /// given [`Coalescing`] policy. `addrs` is only inspected for
    /// [`Coalescing::Classified`]; the other policies need just the count.
    #[inline]
    fn charge_warp_access(&mut self, mode: Coalescing, lanes: usize, addrs: &[usize]) {
        match mode {
            Coalescing::Scattered => self.counters.global_sectors += lanes as u64,
            Coalescing::Classified => {
                self.counters.global_sectors += Self::warp_sector_count(addrs)
            }
            Coalescing::Contiguous => self.counters.global_tx += Self::coalesced_tx(lanes as u64),
        }
    }

    /// Warp-granularity gather: loads `buf[idxs[i]]` into `out[i]` for every
    /// lane, classifying the coalescing **once per warp** and charging the
    /// counters in one bulk update instead of per lane. With
    /// [`Coalescing::Scattered`] this is bit-identical in cost to a loop of
    /// [`BlockCtx::gread`].
    #[inline]
    pub fn gather(&mut self, buf: &[AtomicU32], idxs: &[usize], out: &mut [u32], mode: Coalescing) {
        debug_assert!(idxs.len() <= 32 && out.len() >= idxs.len());
        self.charge_warp_access(mode, idxs.len(), idxs);
        for (o, &i) in out.iter_mut().zip(idxs) {
            *o = buf[i].load(Ordering::Relaxed);
        }
    }

    /// Warp-granularity scatter: stores `vals[i]` to `buf[idxs[i]]`,
    /// classified and charged once per warp (see [`BlockCtx::gather`]).
    #[inline]
    pub fn scatter(&mut self, buf: &[AtomicU32], idxs: &[usize], vals: &[u32], mode: Coalescing) {
        debug_assert!(idxs.len() <= 32 && vals.len() >= idxs.len());
        self.charge_warp_access(mode, idxs.len(), idxs);
        for (&v, &i) in vals.iter().zip(idxs) {
            buf[i].store(v, Ordering::Relaxed);
        }
    }
}

/// Scratch reused across launches, so steady-state launches allocate
/// nothing per dispatch: the wave order and per-block liveness of stepped
/// launches, and one shared-memory backing per block index, which every
/// launch lends to its blocks and takes back.
#[derive(Default)]
struct LaunchScratch {
    order: Vec<usize>,
    alive: Vec<bool>,
    shared: Vec<Vec<u32>>,
}

/// The wave loop of the stepped engine. Every wave reshuffles `order` with
/// the xorshift stream seeded by `seed` (see
/// [`GpuContext::set_schedule_seed`]) and then steps each live block on
/// this thread, in that order, at every rayon width. A block retires when
/// its step returns `false`.
fn run_waves<S>(
    seed: u64,
    order: &mut Vec<usize>,
    alive: &mut Vec<bool>,
    blocks: &mut [(BlockCtx<'_>, S)],
    step: impl Fn(&mut BlockCtx<'_>, &mut S) -> Result<bool, KernelError>,
) -> Result<(), SimError> {
    order.clear();
    order.extend(0..blocks.len());
    alive.clear();
    alive.resize(blocks.len(), true);
    let mut rng = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut live = blocks.len();
    while live > 0 {
        // Fisher–Yates with the xorshift stream
        for i in (1..order.len()).rev() {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let j = (rng % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        for &i in order.iter() {
            if !alive[i] {
                continue;
            }
            let (blk, st) = &mut blocks[i];
            match step(blk, st) {
                Ok(true) => {}
                Ok(false) => {
                    alive[i] = false;
                    live -= 1;
                }
                Err(e) => return Err(SimError::Kernel(e)),
            }
        }
    }
    Ok(())
}

/// The simulated GPU program context: device + cost model + simulated clock.
pub struct GpuContext {
    /// Device memory.
    pub device: Device,
    /// Cost constants.
    pub cost: CostParams,
    time_s: f64,
    limit_s: Option<f64>,
    launches: Vec<LaunchRecord>,
    transfers: Vec<TransferRecord>,
    counter_samples: Vec<CounterSample>,
    h2d_bytes: u64,
    d2h_bytes: u64,
    schedule_seed: u64,
    phase: &'static str,
    profile_blocks: bool,
    /// Workload dimensions (|V|, arc count) declared by the algorithm via
    /// [`GpuContext::set_workload_dims`]; zero until declared. Pure
    /// observability — feeds [`MemStats`](crate::MemStats) extrapolation.
    pub(crate) workload_vertices: u64,
    pub(crate) workload_arcs: u64,
    /// Recycled per-launch `Vec<Counters>` scratch (reused whenever
    /// per-block profiling is off and the vector isn't retained).
    counters_scratch: Vec<Counters>,
    /// Recycled launch scratch (wave order, liveness, shared backings).
    scratch: LaunchScratch,
}

/// Narrows CSR offsets to the device's 32-bit arc offsets, the form every
/// engine uploads with [`GpuContext::htod_tagged`]. A graph of `u32::MAX`
/// or more arcs (its last offset) is a [`SimError::InvalidConfig`].
pub fn narrow_offsets(offsets: &[u64]) -> Result<Vec<u32>, SimError> {
    let arcs = offsets.last().copied().unwrap_or(0);
    if arcs >= u64::from(u32::MAX) {
        return Err(SimError::InvalidConfig {
            what: "arcs",
            value: arcs as f64,
            need: "fewer than 2^32 - 1 for 32-bit arc offsets",
        });
    }
    // Every offset is at most the arc count, which fits in 32 bits.
    Ok(offsets.iter().map(|&o| o as u32).collect())
}

impl GpuContext {
    /// A context with the given cost model and device capacity in bytes.
    /// Shared memory is the P100's 64 KiB per block.
    pub fn new(cost: CostParams, device_capacity_bytes: u64) -> Self {
        GpuContext {
            device: Device::new(device_capacity_bytes),
            cost,
            time_s: 0.0,
            limit_s: None,
            launches: Vec::new(),
            transfers: Vec::new(),
            counter_samples: Vec::new(),
            h2d_bytes: 0,
            d2h_bytes: 0,
            schedule_seed: 0,
            phase: "main",
            profile_blocks: false,
            workload_vertices: 0,
            workload_arcs: 0,
            counters_scratch: Vec::new(),
            scratch: LaunchScratch::default(),
        }
    }

    /// Takes the launch scratch with at least one shared backing per block
    /// of `cfg`.
    fn take_scratch(&mut self, cfg: LaunchConfig) -> LaunchScratch {
        let mut s = std::mem::take(&mut self.scratch);
        let n = cfg.blocks as usize;
        if s.shared.len() < n {
            s.shared.resize_with(n, Vec::new);
        }
        s
    }

    /// Sets the algorithm phase stamped onto subsequent launch and transfer
    /// records (e.g. `"Scan"`, `"Loop"`); returns the previous phase so
    /// callers can restore it. Phases group launches in profiling traces
    /// ([`crate::trace::Trace`]).
    pub fn set_phase(&mut self, phase: &'static str) -> &'static str {
        self.device.note_phase(phase);
        std::mem::replace(&mut self.phase, phase)
    }

    /// The currently active phase.
    pub fn phase(&self) -> &'static str {
        self.phase
    }

    /// Enables/disables per-block counter recording: when on, each
    /// [`LaunchRecord`] keeps every block's counter delta (`block_counters`)
    /// instead of only their sum. Off by default — per-block vectors cost
    /// memory proportional to `blocks × launches`.
    pub fn set_block_profiling(&mut self, on: bool) {
        self.profile_blocks = on;
    }

    /// Sets a simulated-time budget; once exceeded, further launches and
    /// transfers fail with [`SimError::TimeLimit`].
    pub fn set_time_limit_ms(&mut self, ms: f64) {
        self.limit_s = Some(ms / 1e3);
    }

    fn check_limit(&self) -> Result<(), SimError> {
        if let Some(limit) = self.limit_s {
            if self.time_s > limit {
                return Err(SimError::TimeLimit {
                    limit_ms: limit * 1e3,
                });
            }
        }
        Ok(())
    }

    /// Allocates a device buffer without a host transfer.
    pub fn alloc(&mut self, name: &str, len: usize) -> Result<BufferId, SimError> {
        Ok(self.device.alloc(name, len)?)
    }

    /// [`GpuContext::alloc`] with an explicit [`SizeClass`] tag, so the
    /// allocation extrapolates correctly in
    /// [`MemStats::extrapolate`](crate::MemStats::extrapolate). Identical
    /// cost and accounting to `alloc` — the tag is pure observability.
    pub fn alloc_tagged(
        &mut self,
        name: &str,
        len: usize,
        class: SizeClass,
    ) -> Result<BufferId, SimError> {
        Ok(self.device.alloc_with(name, len, 4, class)?)
    }

    /// Declares the workload dimensions (vertex count, arc count) this
    /// context is processing, for capacity extrapolation. Observability
    /// only: charges nothing, perturbs nothing.
    pub fn set_workload_dims(&mut self, vertices: u64, arcs: u64) {
        self.workload_vertices = vertices;
        self.workload_arcs = arcs;
    }

    /// Keeps the device ledger's stamp (logical launch/transfer sequence
    /// number + sim-clock ms) current; called after every event that
    /// advances either.
    fn sync_device_stamp(&mut self) {
        let seq = (self.launches.len() + self.transfers.len()) as u64;
        self.device.set_stamp(seq, self.time_s * 1e3);
    }

    /// Records one host↔device copy: advances the clock and appends a
    /// [`TransferRecord`] stamped with the active phase.
    fn record_transfer(&mut self, dir: TransferDir, bytes: u64) {
        let time_s = self.cost.pcie_latency_s + bytes as f64 / self.cost.pcie_bandwidth;
        match dir {
            TransferDir::HostToDevice => self.h2d_bytes += bytes,
            TransferDir::DeviceToHost => self.d2h_bytes += bytes,
        }
        let start_s = self.time_s;
        self.time_s += time_s;
        self.transfers.push(TransferRecord {
            phase: self.phase,
            start_s,
            dir,
            bytes,
            time_s,
        });
        self.sync_device_stamp();
    }

    /// Samples a named observability counter track at the current sim-clock
    /// timestamp (e.g. the per-round frontier size Algorithm 1 reads back).
    /// Sampling charges nothing — it does not advance the clock or touch any
    /// kernel counter, so enabling it cannot perturb a golden trace's
    /// fingerprint. Samples surface as Perfetto counter tracks
    /// ([`crate::perfetto`]).
    pub fn sample_counter(&mut self, track: &'static str, value: f64) {
        self.counter_samples.push(CounterSample {
            track,
            phase: self.phase,
            time_s: self.time_s,
            value,
        });
    }

    /// Counter-track samples recorded so far, in sampling order.
    pub fn counter_samples(&self) -> &[CounterSample] {
        &self.counter_samples
    }

    /// `cudaMalloc` + `cudaMemcpy` host→device, charged at PCIe bandwidth.
    pub fn htod(&mut self, name: &str, data: &[u32]) -> Result<BufferId, SimError> {
        self.htod_tagged(name, data, SizeClass::Fixed)
    }

    /// [`GpuContext::htod`] with an explicit [`SizeClass`] tag (see
    /// [`GpuContext::alloc_tagged`]). Identical cost and accounting.
    pub fn htod_tagged(
        &mut self,
        name: &str,
        data: &[u32],
        class: SizeClass,
    ) -> Result<BufferId, SimError> {
        self.check_limit()?;
        let id = self.device.alloc_with(name, data.len(), 4, class)?;
        // In bounds: `id` was just allocated with `data.len()` words.
        self.device
            .write_slice(id, data)
            .expect("a fresh allocation holds its data");
        self.record_transfer(TransferDir::HostToDevice, data.len() as u64 * 4);
        Ok(id)
    }

    /// `cudaMemcpy` host→device into an **existing** allocation starting at
    /// element `offset` — the staging pattern of the dynamic maintenance
    /// engine, which reuses one persistent batch buffer across batches
    /// instead of allocating per batch. Charged exactly like
    /// [`GpuContext::htod`]. A copy that would overrun the buffer is a
    /// [`SimError::InvalidConfig`], returned before anything is copied,
    /// recorded or charged.
    pub fn htod_into(&mut self, id: BufferId, offset: usize, data: &[u32]) -> Result<(), SimError> {
        self.check_limit()?;
        let buf = self.device.buffer(id);
        let end = offset.checked_add(data.len());
        if end.is_none_or(|end| end > buf.len()) {
            return Err(SimError::InvalidConfig {
                what: "htod_into end (offset + words)",
                value: offset as f64 + data.len() as f64,
                need: "at most the destination buffer's length",
            });
        }
        // SAFETY: `offset + data.len() <= buf.len()` was checked above. See
        // `Device::write_slice`: quiescent during transfers, so a bulk copy
        // is equivalent to the per-word relaxed stores.
        unsafe {
            std::ptr::copy_nonoverlapping(
                data.as_ptr(),
                buf.as_ptr().add(offset) as *mut u32,
                data.len(),
            );
        }
        self.record_transfer(TransferDir::HostToDevice, data.len() as u64 * 4);
        Ok(())
    }

    /// `cudaMemcpy` device→host of elements `lo..hi` only, charged for the
    /// bytes actually moved — the partial readback the dynamic engine uses
    /// to fetch just a candidate list's prefix. A range past the buffer's
    /// end, or one with `lo > hi`, is a [`SimError::InvalidConfig`],
    /// returned before anything is read, recorded or charged.
    pub fn dtoh_range(&mut self, id: BufferId, lo: usize, hi: usize) -> Result<Vec<u32>, SimError> {
        let buf = self.device.buffer(id);
        if hi > buf.len() {
            return Err(SimError::InvalidConfig {
                what: "dtoh_range end (hi)",
                value: hi as f64,
                need: "at most the source buffer's length",
            });
        }
        if lo > hi {
            return Err(SimError::InvalidConfig {
                what: "dtoh_range start (lo)",
                value: lo as f64,
                need: "at most the range's end (hi)",
            });
        }
        // SAFETY: `lo <= hi <= buf.len()` was checked above. See
        // `Device::write_slice`: quiescent during transfers, so a bulk read
        // is equivalent to the per-word relaxed loads.
        let out: Vec<u32> =
            unsafe { std::slice::from_raw_parts(buf.as_ptr().add(lo) as *const u32, hi - lo) }
                .to_vec();
        self.record_transfer(TransferDir::DeviceToHost, (hi - lo) as u64 * 4);
        Ok(out)
    }

    /// `cudaMemcpy` device→host, charged at PCIe latency + bandwidth (a
    /// synchronizing copy — Algorithm 1 pays this every round for
    /// `gpu_count`).
    pub fn dtoh(&mut self, id: BufferId) -> Vec<u32> {
        let out = self.device.read_vec(id);
        self.record_transfer(TransferDir::DeviceToHost, out.len() as u64 * 4);
        out
    }

    /// Reads a single device word back to the host (the `gpu_count`
    /// pattern), charged as one synchronizing D2H copy.
    pub fn dtoh_word(&mut self, id: BufferId, idx: usize) -> u32 {
        let v = self.device.buffer(id)[idx].load(Ordering::Relaxed);
        self.record_transfer(TransferDir::DeviceToHost, 4);
        v
    }

    /// Launches a kernel: runs `kernel` once per block (in parallel),
    /// aggregates the counters, and advances the simulated clock.
    ///
    /// When the effective rayon fan-out is one thread (or the grid has one
    /// block) the blocks run inline on this thread, in index order, with
    /// exclusive-execution atomics and no parallel-map machinery. The
    /// order-preserving parallel path and the inline path produce
    /// bit-identical counters for any kernel that is deterministic under
    /// block concurrency (the golden pool-size tests pin this). A kernel
    /// whose blocks read device memory that other blocks write during the
    /// launch is not: call it inside a one-thread `install`, or use
    /// [`GpuContext::launch_stepped`].
    pub fn launch<F>(
        &mut self,
        name: &'static str,
        cfg: LaunchConfig,
        kernel: F,
    ) -> Result<(), SimError>
    where
        F: Fn(&mut BlockCtx<'_>) -> Result<(), KernelError> + Sync,
    {
        cfg.validate()?;
        self.check_limit()?;
        let mut scratch = self.take_scratch(cfg);
        let mut per_block = std::mem::take(&mut self.counters_scratch);
        per_block.clear();
        let err = self.run_blocks(cfg, &mut scratch.shared, &mut per_block, &kernel);
        self.scratch = scratch;
        if let Some(e) = err {
            per_block.clear();
            self.counters_scratch = per_block;
            return Err(SimError::Kernel(e));
        }
        self.finish_launch(name, cfg, per_block)
    }

    /// Runs `kernel` once per block, each on its shared backing from
    /// `shared`, and appends every block's counters to `per_block` in block
    /// order. Returns the first error in block order.
    fn run_blocks<F>(
        &self,
        cfg: LaunchConfig,
        shared: &mut Vec<Vec<u32>>,
        per_block: &mut Vec<Counters>,
        kernel: &F,
    ) -> Option<KernelError>
    where
        F: Fn(&mut BlockCtx<'_>) -> Result<(), KernelError> + Sync,
    {
        let device = &self.device;
        let threads = rayon::current_num_threads() as u32;
        if threads <= 1 || cfg.blocks == 1 {
            for (b, backing) in (0..cfg.blocks).zip(shared.iter_mut()) {
                let mut blk = BlockCtx::new(device, b, cfg, std::mem::take(backing), true);
                let r = kernel(&mut blk);
                *backing = blk.shared;
                per_block.push(blk.counters);
                if let Err(e) = r {
                    return Some(e);
                }
            }
            return None;
        }
        let inputs: Vec<(u32, Vec<u32>)> = (0..cfg.blocks)
            .zip(shared.drain(..cfg.blocks as usize))
            .collect();
        let results: Vec<(Result<(), KernelError>, Counters, Vec<u32>)> = inputs
            .into_par_iter()
            .map(|(b, backing)| {
                let mut blk = BlockCtx::new(device, b, cfg, backing, false);
                let r = kernel(&mut blk);
                (r, blk.counters, blk.shared)
            })
            .collect();
        let mut err = None;
        for (r, counters, backing) in results {
            shared.push(backing);
            per_block.push(counters);
            if err.is_none() {
                err = r.err();
            }
        }
        err
    }

    /// Shared launch epilogue: prices the per-block counters with the
    /// roofline model, advances the clock, and appends a [`LaunchRecord`]
    /// stamped with the active phase.
    fn finish_launch(
        &mut self,
        name: &'static str,
        cfg: LaunchConfig,
        mut per_block: Vec<Counters>,
    ) -> Result<(), SimError> {
        let block_cycles: Vec<f64> = per_block
            .iter()
            .map(|c| self.cost.block_cycles(c))
            .collect();
        // flat-combining SIMD reduction — bit-identical to a serial merge
        let total = Counters::flat_sum(&per_block);
        let traffic = self.cost.traffic_bytes(&total);
        let roofline = self.cost.roofline(&block_cycles, traffic);
        let t = roofline.total_s();
        let start_s = self.time_s;
        self.time_s += t;
        let max_block_cycles = block_cycles.iter().copied().fold(0.0, f64::max);
        let sum_block_cycles = block_cycles.iter().sum();
        let block_counters = if self.profile_blocks {
            Some(per_block)
        } else {
            // arena: hand the per-launch counters vector back for reuse
            per_block.clear();
            self.counters_scratch = per_block;
            None
        };
        self.launches.push(LaunchRecord {
            name,
            phase: self.phase,
            config: cfg,
            start_s,
            time_s: t,
            counters: total,
            roofline,
            max_block_cycles,
            sum_block_cycles,
            block_cycles,
            block_counters,
        });
        self.sync_device_stamp();
        self.check_limit()
    }

    /// Launches a kernel whose blocks interact through global memory *while
    /// running* (e.g. work-stealing-style frontier dynamics): blocks advance
    /// in global lockstep **waves**, one `step` per wave, so cross-block
    /// interleaving matches concurrent hardware execution instead of
    /// depending on host scheduling. (A plain [`GpuContext::launch`] runs
    /// each block to completion, which would let early blocks consume work
    /// that concurrent hardware blocks would have shared.)
    ///
    /// `init` builds each block's persistent state, in block order; `step`
    /// performs one barrier-delimited super-step and returns `false` when
    /// the block retires. Within a wave, blocks step one at a time on the
    /// calling thread, at every rayon width, in a deterministic shuffled
    /// order derived from [`GpuContext::set_schedule_seed`] — re-running
    /// with a different seed models hardware scheduling nondeterminism (the
    /// paper's observed up-to-30% run-to-run variance). Since no two blocks
    /// ever run at once, blocks get exclusive-execution atomics.
    pub fn launch_stepped<S, FI, FS>(
        &mut self,
        name: &'static str,
        cfg: LaunchConfig,
        init: FI,
        step: FS,
    ) -> Result<(), SimError>
    where
        FI: Fn(&mut BlockCtx<'_>) -> Result<S, KernelError>,
        FS: Fn(&mut BlockCtx<'_>, &mut S) -> Result<bool, KernelError>,
    {
        cfg.validate()?;
        self.check_limit()?;
        let mut scratch = self.take_scratch(cfg);
        let mut blocks = Vec::with_capacity(cfg.blocks as usize);
        for (b, backing) in (0..cfg.blocks).zip(scratch.shared.iter_mut()) {
            let mut blk = BlockCtx::new(&self.device, b, cfg, std::mem::take(backing), true);
            let state = init(&mut blk)?;
            blocks.push((blk, state));
        }
        run_waves(
            self.schedule_seed,
            &mut scratch.order,
            &mut scratch.alive,
            &mut blocks,
            step,
        )?;
        let mut per_block = std::mem::take(&mut self.counters_scratch);
        per_block.clear();
        for ((blk, _), backing) in blocks.into_iter().zip(scratch.shared.iter_mut()) {
            per_block.push(blk.counters);
            *backing = blk.shared;
        }
        self.scratch = scratch;
        self.finish_launch(name, cfg, per_block)
    }

    /// Sets the wave-scheduling seed used by [`GpuContext::launch_stepped`].
    pub fn set_schedule_seed(&mut self, seed: u64) {
        self.schedule_seed = seed;
    }

    /// Adds raw simulated time (framework overheads charged by the
    /// graph-system layers, e.g. host-device synchronization or autotuner
    /// decisions that are not per-block events).
    pub fn add_overhead_s(&mut self, seconds: f64) -> Result<(), SimError> {
        self.time_s += seconds;
        self.sync_device_stamp();
        self.check_limit()
    }

    /// Total simulated time so far, milliseconds.
    pub fn elapsed_ms(&self) -> f64 {
        self.time_s * 1e3
    }

    /// Launch records, in order.
    pub fn launches(&self) -> &[LaunchRecord] {
        &self.launches
    }

    /// Host↔device transfer records, in order.
    pub fn transfers(&self) -> &[TransferRecord] {
        &self.transfers
    }

    /// Rollup of the whole run.
    pub fn report(&self) -> SimReport {
        let counters = Counters::flat_sum_iter(self.launches.iter().map(|l| &l.counters));
        SimReport {
            total_ms: self.elapsed_ms(),
            launches: self.launches.len() as u64,
            h2d_bytes: self.h2d_bytes,
            d2h_bytes: self.d2h_bytes,
            peak_mem_bytes: self.device.peak_bytes(),
            counters,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> GpuContext {
        GpuContext::new(CostParams::p100(), 1 << 20)
    }

    #[test]
    fn grid_stride_kernel_touches_everything() {
        let mut c = ctx();
        let n = 1000usize;
        let buf = c.htod("x", &vec![1u32; n]).unwrap();
        let cfg = LaunchConfig {
            blocks: 8,
            threads_per_block: 64,
        };
        c.launch("incr", cfg, |blk| {
            let data = blk.device.buffer(buf);
            let mut i = blk.block_idx as usize;
            while i < n {
                let v = blk.gread(&data[i]);
                blk.gwrite(&data[i], v + 1);
                i += cfg.blocks as usize;
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(c.dtoh(buf), vec![2u32; n]);
        assert_eq!(c.launches().len(), 1);
        assert_eq!(c.launches()[0].counters.global_sectors, 2 * n as u64);
    }

    #[test]
    fn atomics_are_cross_block_safe() {
        let mut c = ctx();
        let counter = c.alloc("counter", 1).unwrap();
        let cfg = LaunchConfig {
            blocks: 64,
            threads_per_block: 32,
        };
        c.launch("count", cfg, |blk| {
            let cell = &blk.device.buffer(counter)[0];
            for _ in 0..100 {
                blk.atomic_add(cell, 1);
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(c.dtoh(counter)[0], 6400);
    }

    #[test]
    fn shared_memory_is_per_block_and_limited() {
        let mut c = ctx();
        let out = c.alloc("out", 4).unwrap();
        let cfg = LaunchConfig {
            blocks: 4,
            threads_per_block: 32,
        };
        c.launch("sh", cfg, |blk| {
            let arr = blk.shared_alloc(10)?;
            blk.sh_write(arr, 0, blk.block_idx);
            let v = blk.sh_read(arr, 0);
            blk.gwrite(&blk.device.buffer(out)[blk.block_idx as usize], v);
            Ok(())
        })
        .unwrap();
        assert_eq!(c.dtoh(out), vec![0, 1, 2, 3]);

        // over-allocating the 64 KiB (16 Ki words) fails
        let err = c
            .launch("too_big", cfg, |blk| {
                let _ = blk.shared_alloc(16 * 1024 + 1)?;
                Ok(())
            })
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::Kernel(KernelError::SharedMemExceeded { .. })
        ));
    }

    #[test]
    fn shared_atomic_returns_old_value() {
        let mut c = ctx();
        let out = c.alloc("out", 3).unwrap();
        let cfg = LaunchConfig {
            blocks: 1,
            threads_per_block: 32,
        };
        c.launch("sa", cfg, |blk| {
            let e = blk.shared_alloc(1)?;
            let o1 = blk.sh_atomic_add(e, 0, 5);
            let o2 = blk.sh_atomic_add(e, 0, 2);
            let cur = blk.sh_read(e, 0);
            let out_buf = blk.device.buffer(out);
            blk.gwrite(&out_buf[0], o1);
            blk.gwrite(&out_buf[1], o2);
            blk.gwrite(&out_buf[2], cur);
            Ok(())
        })
        .unwrap();
        assert_eq!(c.dtoh(out), vec![0, 5, 7]);
    }

    #[test]
    fn time_advances_and_limit_trips() {
        let mut c = ctx();
        let buf = c.htod("x", &[0u32; 256]).unwrap();
        assert!(c.elapsed_ms() > 0.0);
        c.set_time_limit_ms(c.elapsed_ms() + 1e-6);
        // one launch is fine (limit checked after)...
        let cfg = LaunchConfig {
            blocks: 1,
            threads_per_block: 32,
        };
        let r1 = c.launch("k", cfg, |blk| {
            blk.charge_instr(1_000_000); // push past the limit
            let _ = buf;
            Ok(())
        });
        assert!(matches!(r1, Err(SimError::TimeLimit { .. })));
        // ...and the next one fails fast
        let r2 = c.launch("k2", cfg, |_| Ok(()));
        assert!(matches!(r2, Err(SimError::TimeLimit { .. })));
    }

    #[test]
    fn oom_propagates() {
        let mut c = GpuContext::new(CostParams::p100(), 64);
        assert!(c.htod("small", &[1, 2, 3]).is_ok()); // 12 B
        let err = c.htod("big", &[0u32; 100]).unwrap_err();
        assert!(matches!(err, SimError::Oom(_)));
    }

    #[test]
    fn kernel_error_propagates() {
        let mut c = ctx();
        let cfg = LaunchConfig {
            blocks: 4,
            threads_per_block: 32,
        };
        let err = c
            .launch("boom", cfg, |blk| {
                if blk.block_idx == 2 {
                    Err(KernelError::BufferOverflow {
                        what: "buf[2]".into(),
                    })
                } else {
                    Ok(())
                }
            })
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::Kernel(KernelError::BufferOverflow { .. })
        ));
    }

    #[test]
    fn stepped_launch_interleaves_blocks_fairly() {
        // Four blocks consume from a shared atomic pool, one item per wave.
        // Lockstep waves give each block ~a quarter of the pool — a
        // run-to-completion schedule would let the first block drain it.
        let mut c = ctx();
        let pool = c.alloc("pool", 1).unwrap();
        c.device.write_slice(pool, &[100]).unwrap();
        let taken = c.alloc("taken", 4).unwrap();
        let cfg = LaunchConfig {
            blocks: 4,
            threads_per_block: 32,
        };
        c.launch_stepped(
            "drain",
            cfg,
            |_| Ok(()),
            |blk, _| {
                let p = &blk.device.buffer(pool)[0];
                if p.load(Ordering::Relaxed) == 0 {
                    return Ok(false);
                }
                blk.atomic_sub(p, 1);
                let t = &blk.device.buffer(taken)[blk.block_idx as usize];
                t.fetch_add(1, Ordering::Relaxed);
                Ok(true)
            },
        )
        .unwrap();
        let shares = c.dtoh(taken);
        assert_eq!(shares.iter().sum::<u32>(), 100);
        for (b, &s) in shares.iter().enumerate() {
            assert!(
                (20..=30).contains(&s),
                "block {b} took {s} of 100 — not fair"
            );
        }
    }

    #[test]
    fn stepped_launch_records_and_charges() {
        let mut c = ctx();
        let cfg = LaunchConfig {
            blocks: 3,
            threads_per_block: 32,
        };
        c.launch_stepped(
            "steps",
            cfg,
            |blk| Ok(blk.block_idx + 2), // block b steps b+2 times
            |blk, remaining| {
                blk.charge_instr(10);
                *remaining -= 1;
                Ok(*remaining > 0)
            },
        )
        .unwrap();
        let rec = &c.launches()[0];
        assert_eq!(rec.name, "steps");
        // total steps = 2 + 3 + 4 = 9 → 90 instructions
        assert_eq!(rec.counters.warp_instrs, 90);
        assert_eq!(rec.max_block_cycles, 40.0);
        assert_eq!(rec.sum_block_cycles, 90.0);
    }

    #[test]
    fn stepped_launch_propagates_kernel_errors() {
        let mut c = ctx();
        let cfg = LaunchConfig {
            blocks: 2,
            threads_per_block: 32,
        };
        let err = c
            .launch_stepped(
                "boom",
                cfg,
                |_| Ok(0u32),
                |blk, n| {
                    *n += 1;
                    if blk.block_idx == 1 && *n == 3 {
                        return Err(KernelError::Other("step failure".into()));
                    }
                    Ok(*n < 10)
                },
            )
            .unwrap_err();
        assert!(matches!(err, SimError::Kernel(KernelError::Other(_))));
    }

    #[test]
    fn coalesced_tx_math() {
        assert_eq!(BlockCtx::coalesced_tx(0), 0);
        assert_eq!(BlockCtx::coalesced_tx(1), 1);
        assert_eq!(BlockCtx::coalesced_tx(32), 1); // 128 B exactly
        assert_eq!(BlockCtx::coalesced_tx(33), 2);
        assert_eq!(BlockCtx::coalesced_tx(64), 2);
    }

    #[test]
    fn records_carry_start_timestamps_and_block_cycles() {
        let mut c = ctx();
        let buf = c.htod("x", &[0u32; 64]).unwrap();
        let cfg = LaunchConfig {
            blocks: 3,
            threads_per_block: 32,
        };
        c.launch("k", cfg, |blk| {
            blk.charge_instr(10 * (blk.block_idx as u64 + 1));
            let _ = buf;
            Ok(())
        })
        .unwrap();
        let t0 = &c.transfers()[0];
        assert_eq!(t0.start_s, 0.0);
        let l = &c.launches()[0];
        // the launch started when the htod finished
        assert!((l.start_s - t0.time_s).abs() < 1e-15);
        assert_eq!(l.block_cycles, vec![10.0, 20.0, 30.0]);
        assert!((c.elapsed_ms() / 1e3 - (l.start_s + l.time_s)).abs() < 1e-15);
    }

    #[test]
    fn htod_into_and_dtoh_range_are_charged_partial_copies() {
        let mut c = ctx();
        let buf = c.htod("stage", &[0u32; 16]).unwrap();
        let (h2d0, d2h0) = (c.report().h2d_bytes, c.report().d2h_bytes);
        let transfers0 = c.transfers().len();
        c.htod_into(buf, 4, &[7, 8, 9]).unwrap();
        assert_eq!(c.report().h2d_bytes - h2d0, 12);
        let got = c.dtoh_range(buf, 3, 8).unwrap();
        assert_eq!(got, vec![0, 7, 8, 9, 0]);
        assert_eq!(c.report().d2h_bytes - d2h0, 20);
        // both copies are recorded (phase-stamped) transfer events
        assert_eq!(c.transfers().len() - transfers0, 2);
        // full readback still sees the in-place write, and no reallocation
        // happened: the ledger holds exactly one entry for the buffer
        assert_eq!(c.dtoh(buf)[4..7], [7, 8, 9]);
        let ms = c.memstats();
        assert_eq!(
            ms.allocations.iter().filter(|a| a.name == "stage").count(),
            1
        );
    }

    #[test]
    fn htod_into_overrun_is_a_typed_error() {
        let mut c = ctx();
        let buf = c.htod("small", &[1, 2, 3, 4]).unwrap();
        let transfers = c.transfers().len();
        let clock = c.elapsed_ms();
        for offset in [2, usize::MAX] {
            let err = c.htod_into(buf, offset, &[7, 8, 9]).unwrap_err();
            assert!(
                matches!(err, SimError::InvalidConfig { what, .. } if what.starts_with("htod_into")),
                "{err}"
            );
        }
        // Nothing was copied, recorded or charged.
        assert_eq!(c.transfers().len(), transfers);
        assert_eq!(c.elapsed_ms(), clock);
        assert_eq!(c.device.read_vec(buf), vec![1, 2, 3, 4]);
    }

    #[test]
    fn dtoh_range_out_of_bounds_is_a_typed_error() {
        let mut c = ctx();
        let buf = c.htod("small", &[1, 2, 3, 4]).unwrap();
        let transfers = c.transfers().len();
        let clock = c.elapsed_ms();
        for (lo, hi, what) in [
            (0, 5, "dtoh_range end (hi)"),
            (3, usize::MAX, "dtoh_range end (hi)"),
            (3, 2, "dtoh_range start (lo)"),
        ] {
            let err = c.dtoh_range(buf, lo, hi).unwrap_err();
            assert!(
                matches!(err, SimError::InvalidConfig { what: w, .. } if w == what),
                "{lo}..{hi}: {err}"
            );
        }
        // Nothing was read back, recorded or charged; an empty range at the
        // end is a valid (charged) copy.
        assert_eq!(c.transfers().len(), transfers);
        assert_eq!(c.elapsed_ms(), clock);
        assert_eq!(c.dtoh_range(buf, 4, 4).unwrap(), Vec::<u32>::new());
    }

    #[test]
    fn write_slice_overrun_is_a_typed_error() {
        let mut c = ctx();
        let buf = c.htod("small", &[1, 2, 3, 4]).unwrap();
        let err = c.device.write_slice(buf, &[9; 5]).unwrap_err();
        assert!(
            matches!(err, SimError::InvalidConfig { what, .. } if what.starts_with("write_slice")),
            "{err}"
        );
        // Nothing was written.
        assert_eq!(c.device.read_vec(buf), vec![1, 2, 3, 4]);
        c.device.write_slice(buf, &[9; 3]).unwrap();
        assert_eq!(c.device.read_vec(buf), vec![9, 9, 9, 4]);
    }

    #[test]
    fn arc_counts_past_32_bit_offsets_are_typed_errors() {
        // A graph this size needs 16 GiB, so the check is tested alone, on
        // the offsets of one vertex holding every arc.
        assert_eq!(
            narrow_offsets(&[0, (1 << 32) - 2]),
            Ok(vec![0, u32::MAX - 1])
        );
        assert_eq!(
            narrow_offsets(&[0, (1 << 32) - 1]),
            Err(SimError::InvalidConfig {
                what: "arcs",
                value: ((1u64 << 32) - 1) as f64,
                need: "fewer than 2^32 - 1 for 32-bit arc offsets",
            })
        );
    }

    #[test]
    fn counter_samples_record_clock_and_phase_without_cost() {
        let mut c = ctx();
        let before = c.elapsed_ms();
        c.set_phase("Sync");
        c.sample_counter("frontier", 42.0);
        assert_eq!(c.elapsed_ms(), before); // sampling is free
        let s = &c.counter_samples()[0];
        assert_eq!((s.track, s.phase, s.value), ("frontier", "Sync", 42.0));
        assert_eq!(s.time_s, 0.0);
    }

    #[test]
    fn report_aggregates() {
        let mut c = ctx();
        let buf = c.htod("x", &[0u32; 64]).unwrap();
        let cfg = LaunchConfig {
            blocks: 2,
            threads_per_block: 32,
        };
        for _ in 0..3 {
            c.launch("k", cfg, |blk| {
                blk.charge_instr(10);
                let _ = buf;
                Ok(())
            })
            .unwrap();
        }
        let rep = c.report();
        assert_eq!(rep.launches, 3);
        assert_eq!(rep.counters.warp_instrs, 60);
        assert_eq!(rep.h2d_bytes, 256);
        assert!(rep.total_ms > 0.0);
        assert_eq!(rep.peak_mem_bytes, 256);
    }

    #[test]
    fn launch_rejects_an_empty_grid_at_every_width() {
        let empty = LaunchConfig {
            blocks: 0,
            threads_per_block: 32,
        };
        for threads in [1usize, 2] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let mut c = ctx();
            let err = pool
                .install(|| c.launch("k", empty, |_| Ok(())))
                .unwrap_err();
            assert_eq!(err, SimError::InvalidLaunch(empty), "width {threads}");
            let err = pool
                .install(|| c.launch_stepped("k", empty, |_| Ok(()), |_, _| Ok(false)))
                .unwrap_err();
            assert_eq!(err, SimError::InvalidLaunch(empty), "width {threads}");
            assert!(c.launches().is_empty());
        }
    }

    #[test]
    fn launches_reject_block_widths_off_the_warp_grid() {
        let mut c = ctx();
        for threads_per_block in [0, 16, 48] {
            let bad = LaunchConfig {
                blocks: 2,
                threads_per_block,
            };
            let want = SimError::InvalidLaunch(bad);
            assert_eq!(c.launch("k", bad, |_| Ok(())), Err(want.clone()));
            let stepped = c.launch_stepped("k", bad, |_| Ok(()), |_, _| Ok(false));
            assert_eq!(stepped, Err(want));
        }
        assert!(c.launches().is_empty());
        assert!(SimError::InvalidLaunch(LaunchConfig {
            blocks: 0,
            threads_per_block: 32
        })
        .to_string()
        .contains("invalid launch geometry: 0 blocks of 32 threads"));
    }
}
