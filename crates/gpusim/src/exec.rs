//! Kernel execution: grids, blocks, shared memory, and charging.
//!
//! [`GpuContext::launch`] runs a kernel closure once per thread block, the
//! blocks one after another in block order on the calling thread at every
//! rayon width. Blocks are independent on hardware (§III: "different
//! thread blocks are independent in their execution"), so block order is
//! a schedule the hardware could run. Cross-block communication goes
//! through device buffers with atomics, so a kernel whose blocks race on
//! a cursor or a degree array sees that one interleaving, at every width.
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
use std::ops::{Bound, RangeBounds};
use std::sync::atomic::{AtomicU32, Ordering};

/// Shared memory per thread block: the P100's 64 KiB. A
/// [`BlockCtx::shared_alloc`] past it fails with
/// [`KernelError::SharedMemExceeded`].
pub const SHARED_CAPACITY_BYTES: u64 = 64 * 1024;

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
}

impl<'a> BlockCtx<'a> {
    /// Builds a context on a reused shared-memory backing vector (its
    /// capacity survives across launches).
    fn new(device: &'a Device, block_idx: u32, cfg: LaunchConfig, mut shared: Vec<u32>) -> Self {
        shared.clear();
        BlockCtx {
            device,
            block_idx,
            cfg,
            counters: Counters::default(),
            shared,
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

    /// Global `atomicAdd`; returns the old value. No other block runs on
    /// this device while this one does, so a plain load and store give the
    /// read-modify-write's value without a lock-prefixed instruction.
    #[inline]
    pub fn atomic_add(&mut self, cell: &AtomicU32, delta: u32) -> u32 {
        self.counters.global_atomics += 1;
        let old = cell.load(Ordering::Relaxed);
        cell.store(old.wrapping_add(delta), Ordering::Relaxed);
        old
    }

    /// Global `atomicSub`; returns the old value (see
    /// [`BlockCtx::atomic_add`]).
    #[inline]
    pub fn atomic_sub(&mut self, cell: &AtomicU32, delta: u32) -> u32 {
        self.counters.global_atomics += 1;
        let old = cell.load(Ordering::Relaxed);
        cell.store(old.wrapping_sub(delta), Ordering::Relaxed);
        old
    }

    /// *Uncharged* shared-memory write for bulk-charged fast paths (caller
    /// accounts `shared_accesses` / `shared_atomics` in bulk).
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
    fn warp_sector_count(addrs: &[usize]) -> u64 {
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
    /// [`Coalescing::Classified`]; `Scattered` needs just the count.
    #[inline]
    fn charge_warp_access(&mut self, mode: Coalescing, lanes: usize, addrs: &[usize]) {
        match mode {
            Coalescing::Scattered => self.counters.global_sectors += lanes as u64,
            Coalescing::Classified => {
                self.counters.global_sectors += Self::warp_sector_count(addrs)
            }
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
/// nothing per dispatch: the wave orders and per-block slots of stepped
/// launches, and one shared-memory backing per block index, which every
/// launch lends to its blocks and takes back.
#[derive(Default)]
struct LaunchScratch {
    waves: WaveTable,
    slots: Vec<u32>,
    shared: Vec<Vec<u32>>,
}

/// The slot of a stepped launch's block that is not live: it had no work,
/// or it retired.
const DEAD: u32 = u32::MAX;

/// Entries [`WaveTable`] holds at most: 1 MiB of block indices.
const WAVE_TABLE_ENTRIES: usize = (1 << 20) / std::mem::size_of::<u32>();

/// The wave orders a context's stepped launches have drawn. Every stepped
/// launch starts from the identity order and the xorshift stream of its
/// schedule seed, and reshuffles once per wave, so wave `w`'s order depends
/// only on (seed, block count, `w`). Row `w` is drawn by the first launch
/// that reaches wave `w` and read by every later one. A launch under
/// another seed or block count rebuilds the table.
#[derive(Default)]
struct WaveTable {
    seed: u64,
    /// 0 until the first launch keys the table (a grid has at least one
    /// block).
    blocks: usize,
    /// Row `w` is `rows[w * blocks..(w + 1) * blocks]`.
    rows: Vec<u32>,
    /// The stream's state after the last row's draw.
    rng: u64,
}

impl WaveTable {
    /// Keys the table on `(seed, blocks)`, dropping its rows on a change.
    fn key(&mut self, seed: u64, blocks: usize) {
        if (self.seed, self.blocks) != (seed, blocks) {
            self.seed = seed;
            self.blocks = blocks;
            self.rows.clear();
            self.rng = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        }
    }

    /// Whether row `wave` is in the table. The first request for the row
    /// after the last draws it, if it fits in [`WAVE_TABLE_ENTRIES`].
    fn has(&mut self, wave: usize) -> bool {
        let at = self.rows.len();
        if wave < at / self.blocks {
            return true;
        }
        if wave > at / self.blocks || at + self.blocks > WAVE_TABLE_ENTRIES {
            return false;
        }
        self.rows
            .reserve_exact((2 * at).clamp(at + self.blocks, WAVE_TABLE_ENTRIES) - at);
        match at {
            0 => self.rows.extend(0..self.blocks as u32),
            _ => self.rows.extend_from_within(at - self.blocks..),
        }
        shuffle(&mut self.rows[at..], &mut self.rng);
        true
    }

    fn row(&self, wave: usize) -> &[u32] {
        &self.rows[wave * self.blocks..(wave + 1) * self.blocks]
    }

    /// The last row drawn, or the identity order before the first.
    fn last(&self) -> Vec<u32> {
        match self.rows.len() {
            0 => (0..self.blocks as u32).collect(),
            at => self.rows[at - self.blocks..].to_vec(),
        }
    }
}

/// Fisher–Yates with the xorshift stream `rng`.
fn shuffle(order: &mut [u32], rng: &mut u64) {
    for i in (1..order.len()).rev() {
        *rng ^= *rng << 13;
        *rng ^= *rng >> 7;
        *rng ^= *rng << 17;
        let j = (*rng % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
}

/// The wave loop of the stepped engine. Every wave reshuffles the previous
/// wave's order of the whole grid, starting from the identity, with the
/// xorshift stream seeded by `seed` (see [`GpuContext::set_schedule_seed`]),
/// and then steps each live block on this thread, in that order, at every
/// rayon width. `slots[b]` is block `b`'s entry in `blocks`, or [`DEAD`]
/// for a block without work, which is dead from wave 0. A block retires,
/// and its slot turns [`DEAD`], when its step returns `false`. The orders
/// come from `table`; waves past its budget reshuffle a working copy of its
/// last row.
fn run_waves<S>(
    seed: u64,
    table: &mut WaveTable,
    slots: &mut [u32],
    blocks: &mut [(BlockCtx<'_>, S)],
    step: impl Fn(&mut BlockCtx<'_>, &mut S) -> Result<bool, KernelError>,
) -> Result<(), KernelError> {
    table.key(seed, slots.len());
    let mut live = blocks.len();
    let (mut spill, mut rng) = (Vec::new(), 0);
    let mut wave = 0;
    while live > 0 {
        let order = if table.has(wave) {
            table.row(wave)
        } else {
            if spill.is_empty() {
                (spill, rng) = (table.last(), table.rng);
            }
            shuffle(&mut spill, &mut rng);
            &spill
        };
        for &b in order {
            let slot = &mut slots[b as usize];
            if *slot == DEAD {
                continue;
            }
            let (blk, st) = &mut blocks[*slot as usize];
            if !step(blk, st)? {
                *slot = DEAD;
                live -= 1;
            }
        }
        wave += 1;
    }
    Ok(())
}

/// The block runner of a plain launch: runs `kernel` once per block of
/// `cfg`, in block order on this thread, each on its backing from
/// `shared`, which it hands back, and appends every block's counters to
/// `per_block`. Stops at the first block that fails.
fn run_blocks(
    device: &Device,
    cfg: LaunchConfig,
    shared: &mut [Vec<u32>],
    per_block: &mut Vec<Counters>,
    kernel: impl Fn(&mut BlockCtx<'_>) -> Result<(), KernelError>,
) -> Result<(), KernelError> {
    for (b, backing) in (0..cfg.blocks).zip(shared) {
        let mut blk = BlockCtx::new(device, b, cfg, std::mem::take(backing));
        let r = kernel(&mut blk);
        *backing = blk.shared;
        per_block.push(blk.counters);
        r?;
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
    /// Recycled launch scratch (wave orders, liveness, shared backings).
    scratch: LaunchScratch,
}

/// Narrows CSR offsets to the device's 32-bit arc offsets, the form every
/// engine uploads with [`GpuContext::htod`]. A graph of `u32::MAX`
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

    /// `cudaMalloc` of `len` zeroed words, without a host transfer. The
    /// [`SizeClass`] tag says how the buffer scales with the graph, for
    /// [`MemStats::extrapolate`](crate::MemStats::extrapolate); it charges
    /// nothing.
    pub fn alloc(
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

    /// Counter-track samples recorded so far, in sampling order; a
    /// [`crate::Trace`] keeps them.
    pub(crate) fn counter_samples(&self) -> &[CounterSample] {
        &self.counter_samples
    }

    /// `cudaMalloc` + `cudaMemcpy` host→device, charged at PCIe latency +
    /// bandwidth; `class` tags the allocation as in [`GpuContext::alloc`].
    pub fn htod(
        &mut self,
        name: &str,
        data: &[u32],
        class: SizeClass,
    ) -> Result<BufferId, SimError> {
        self.check_limit()?;
        let id = self.device.alloc_copy(name, data, class)?;
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
        // SAFETY: `offset + data.len() <= buf.len()` was checked above.
        // Transfers never overlap kernel execution (launches run to
        // completion under `&mut GpuContext`), so no simulated block races
        // these words: one bulk copy through the atomics' `UnsafeCell` is
        // equivalent to the per-word relaxed stores, and vectorizes, which a
        // loop of atomic stores never does.
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

    /// `cudaMemcpy` device→host of the words in `range`, charged at PCIe
    /// latency + bandwidth for the bytes moved: `..` for a whole buffer,
    /// `0..1` for the one-word `gpu_count` sync Algorithm 1 pays every
    /// round. A range past the buffer's end, or one that starts after it
    /// ends, is a [`SimError::InvalidConfig`], returned before anything is
    /// read, recorded or charged.
    pub fn dtoh(
        &mut self,
        id: BufferId,
        range: impl RangeBounds<usize>,
    ) -> Result<Vec<u32>, SimError> {
        let buf = self.device.buffer(id);
        // A saturated bound lies past any buffer, so it fails below.
        let lo = match range.start_bound() {
            Bound::Included(&lo) => lo,
            Bound::Excluded(&lo) => lo.saturating_add(1),
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&hi) => hi.saturating_add(1),
            Bound::Excluded(&hi) => hi,
            Bound::Unbounded => buf.len(),
        };
        if hi > buf.len() {
            return Err(SimError::InvalidConfig {
                what: "dtoh range end",
                value: hi as f64,
                need: "at most the source buffer's length",
            });
        }
        if lo > hi {
            return Err(SimError::InvalidConfig {
                what: "dtoh range start",
                value: lo as f64,
                need: "at most the range's end",
            });
        }
        // SAFETY: `lo <= hi <= buf.len()` was checked above. As in
        // `htod_into`, the device is quiescent during transfers, so a bulk
        // read is equivalent to the per-word relaxed loads.
        let out: Vec<u32> =
            unsafe { std::slice::from_raw_parts(buf.as_ptr().add(lo) as *const u32, hi - lo) }
                .to_vec();
        self.record_transfer(TransferDir::DeviceToHost, (hi - lo) as u64 * 4);
        Ok(out)
    }

    /// Launches a kernel: runs `kernel` once per block, aggregates the
    /// counters, and advances the simulated clock.
    ///
    /// The blocks run to completion one after another, in block order, on
    /// the calling thread, at every rayon width; a failing block ends the
    /// launch. A kernel whose blocks race on device memory (a frontier
    /// cursor, a degree array) therefore sees one interleaving, the same
    /// at every width. A kernel whose blocks must share work as concurrent
    /// hardware blocks would, rather than the first blocks draining it,
    /// uses [`GpuContext::launch_stepped`].
    pub fn launch<F>(
        &mut self,
        name: &'static str,
        cfg: LaunchConfig,
        kernel: F,
    ) -> Result<(), SimError>
    where
        F: Fn(&mut BlockCtx<'_>) -> Result<(), KernelError>,
    {
        self.run_launch(name, cfg, |device, scratch, per_block| {
            run_blocks(device, cfg, &mut scratch.shared, per_block, kernel)
        })
    }

    /// Launches a kernel whose blocks interact through global memory *while
    /// running* (e.g. work-stealing-style frontier dynamics): blocks advance
    /// in global lockstep **waves**, one `step` per wave, so cross-block
    /// interleaving matches concurrent hardware execution instead of
    /// depending on host scheduling. (A plain [`GpuContext::launch`] runs
    /// each block to completion, which would let early blocks consume work
    /// that concurrent hardware blocks would have shared.)
    ///
    /// `has_work(b)` says whether block `b` has work. `init` builds each
    /// busy block's persistent state, in block order; `step` performs one
    /// barrier-delimited super-step and returns `false` when the block
    /// retires. Within a wave, busy blocks step one at a time on the
    /// calling thread, at every rayon width, in a deterministic shuffled
    /// order of the whole grid derived from
    /// [`GpuContext::set_schedule_seed`] — re-running with a different seed
    /// models hardware scheduling nondeterminism (the paper's observed
    /// up-to-30% run-to-run variance).
    ///
    /// A block without work is dead from wave 0. The first one is built,
    /// initialised in its place in block order and stepped until it
    /// retires, on its own; every later one is charged that block's
    /// counters without being built, initialised or stepped. So a block
    /// `has_work` rejects must run alike whatever its index and whenever it
    /// runs, and nothing another block reads may depend on its run: the
    /// peel's loop kernel, whose block with an empty buffer only adds 0 to
    /// `gpu_count` (Algorithm 3, line 5), passes the buffer's emptiness;
    /// kernels without such a block pass `|_| true`.
    pub fn launch_stepped<S, FW, FI, FS>(
        &mut self,
        name: &'static str,
        cfg: LaunchConfig,
        has_work: FW,
        init: FI,
        step: FS,
    ) -> Result<(), SimError>
    where
        FW: Fn(u32) -> bool,
        FI: Fn(&mut BlockCtx<'_>) -> Result<S, KernelError>,
        FS: Fn(&mut BlockCtx<'_>, &mut S) -> Result<bool, KernelError>,
    {
        let seed = self.schedule_seed;
        self.run_launch(name, cfg, |device, scratch, per_block| {
            let LaunchScratch {
                waves,
                slots,
                shared,
            } = scratch;
            slots.clear();
            let mut blocks = Vec::with_capacity(cfg.blocks as usize);
            let mut idle: Option<Counters> = None;
            let mut result = Ok(());
            for b in 0..cfg.blocks {
                let busy = has_work(b);
                if !busy && idle.is_some() {
                    slots.push(DEAD);
                    continue;
                }
                let backing = &mut shared[b as usize];
                let mut blk = BlockCtx::new(device, b, cfg, std::mem::take(backing));
                match init(&mut blk) {
                    Ok(state) if busy => {
                        slots.push(blocks.len() as u32);
                        blocks.push((blk, state));
                        continue;
                    }
                    Ok(mut state) => {
                        result = (|| {
                            while step(&mut blk, &mut state)? {}
                            Ok(())
                        })();
                        slots.push(DEAD);
                        idle = Some(blk.counters);
                    }
                    Err(e) => result = Err(e),
                }
                *backing = blk.shared;
                if result.is_err() {
                    break;
                }
            }
            if result.is_ok() {
                result = run_waves(seed, waves, slots, &mut blocks, step);
            }
            let idle = idle.unwrap_or_default();
            for (blk, _) in blocks {
                let b = blk.block_idx as usize;
                per_block.resize(b, idle);
                per_block.push(blk.counters);
                shared[b] = blk.shared;
            }
            per_block.resize(cfg.blocks as usize, idle);
            result
        })
    }

    /// The one launch lifecycle; `run` runs the blocks. It checks the
    /// geometry and the time limit, then lends `run` the device, the launch
    /// scratch (with a shared backing for every block) and the empty
    /// counter vector, to which `run` appends each block's counters in
    /// block order. `run` hands back every backing it takes, on success and
    /// on failure, so the context keeps its scratch either way. Then the
    /// launch is priced with the roofline model: the clock advances and a
    /// [`LaunchRecord`] stamped with the active phase is appended. A failed
    /// launch records and charges nothing.
    fn run_launch(
        &mut self,
        name: &'static str,
        cfg: LaunchConfig,
        run: impl FnOnce(&Device, &mut LaunchScratch, &mut Vec<Counters>) -> Result<(), KernelError>,
    ) -> Result<(), SimError> {
        cfg.validate()?;
        self.check_limit()?;
        let scratch = &mut self.scratch;
        if scratch.shared.len() < cfg.blocks as usize {
            scratch.shared.resize_with(cfg.blocks as usize, Vec::new);
        }
        self.counters_scratch.clear();
        run(&self.device, scratch, &mut self.counters_scratch)?;
        let per_block = &self.counters_scratch;
        let block_cycles: Vec<f64> = per_block
            .iter()
            .map(|c| self.cost.block_cycles(c))
            .collect();
        let total = Counters::flat_sum(per_block);
        let traffic = self.cost.traffic_bytes(&total);
        let roofline = self.cost.roofline(&block_cycles, traffic);
        let t = roofline.total_s();
        let start_s = self.time_s;
        self.time_s += t;
        // Without block profiling the vector stays, for the next launch.
        let block_counters = self
            .profile_blocks
            .then(|| std::mem::take(&mut self.counters_scratch));
        self.launches.push(LaunchRecord {
            name,
            phase: self.phase,
            config: cfg,
            start_s,
            time_s: t,
            counters: total,
            roofline,
            block_cycles,
            block_counters,
        });
        self.sync_device_stamp();
        self.check_limit()
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
        let counters = Counters::flat_sum(self.launches.iter().map(|l| &l.counters));
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
    use std::cell::{Cell, RefCell};

    fn ctx() -> GpuContext {
        GpuContext::new(CostParams::p100(), 1 << 20)
    }

    #[test]
    fn grid_stride_kernel_touches_everything() {
        let mut c = ctx();
        let n = 1000usize;
        let buf = c.htod("x", &vec![1u32; n], SizeClass::Fixed).unwrap();
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
        assert_eq!(c.dtoh(buf, ..).unwrap(), vec![2u32; n]);
        assert_eq!(c.launches().len(), 1);
        assert_eq!(c.launches()[0].counters.global_sectors, 2 * n as u64);
    }

    #[test]
    fn atomics_are_cross_block_safe() {
        let mut c = ctx();
        let counter = c.alloc("counter", 1, SizeClass::Fixed).unwrap();
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
        assert_eq!(c.dtoh(counter, ..).unwrap()[0], 6400);
    }

    #[test]
    fn shared_memory_is_per_block_and_limited() {
        let mut c = ctx();
        let out = c.alloc("out", 4, SizeClass::Fixed).unwrap();
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
        assert_eq!(c.dtoh(out, ..).unwrap(), vec![0, 1, 2, 3]);

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
        let out = c.alloc("out", 3, SizeClass::Fixed).unwrap();
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
        assert_eq!(c.dtoh(out, ..).unwrap(), vec![0, 5, 7]);
    }

    #[test]
    fn time_advances_and_limit_trips() {
        let mut c = ctx();
        let buf = c.htod("x", &[0u32; 256], SizeClass::Fixed).unwrap();
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
        assert!(c.htod("small", &[1, 2, 3], SizeClass::Fixed).is_ok()); // 12 B
        let err = c.htod("big", &[0u32; 100], SizeClass::Fixed).unwrap_err();
        assert!(matches!(err, SimError::Oom(_)));
    }

    #[test]
    fn kernel_error_propagates() {
        // The launch stops at its first failing block, at every width.
        let cfg = LaunchConfig {
            blocks: 4,
            threads_per_block: 32,
        };
        for threads in [1, 2, 8] {
            let mut c = ctx();
            let ran = Cell::new(0);
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let err = pool
                .install(|| {
                    c.launch("boom", cfg, |blk| {
                        ran.set(ran.get() + 1);
                        if blk.block_idx == 2 {
                            Err(KernelError::BufferOverflow {
                                what: "buf[2]".into(),
                            })
                        } else {
                            Ok(())
                        }
                    })
                })
                .unwrap_err();
            assert!(matches!(
                err,
                SimError::Kernel(KernelError::BufferOverflow { .. })
            ));
            assert_eq!(ran.get(), 3, "width {threads}");
        }
    }

    #[test]
    fn stepped_launch_interleaves_blocks_fairly() {
        // Four blocks consume from a shared atomic pool, one item per wave.
        // Lockstep waves give each block ~a quarter of the pool — a
        // run-to-completion schedule would let the first block drain it.
        let mut c = ctx();
        let pool = c.alloc("pool", 1, SizeClass::Fixed).unwrap();
        c.htod_into(pool, 0, &[100]).unwrap();
        let taken = c.alloc("taken", 4, SizeClass::Fixed).unwrap();
        let cfg = LaunchConfig {
            blocks: 4,
            threads_per_block: 32,
        };
        c.launch_stepped(
            "drain",
            cfg,
            |_| true,
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
        let shares = c.dtoh(taken, ..).unwrap();
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
            |_| true,
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
        assert_eq!(rec.max_block_cycles(), 40.0);
        assert_eq!(rec.sum_block_cycles(), 90.0);
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
                |_| true,
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

    /// Block `b` of a stepped launch with `lives.len()` blocks steps in
    /// waves `0..lives[b]`. Returns each step as `(wave, block)`, in the
    /// order the engine ran them.
    fn stepped_waves(c: &mut GpuContext, lives: &[usize]) -> Vec<(usize, u32)> {
        let log = RefCell::new(Vec::new());
        let cfg = LaunchConfig {
            blocks: lives.len() as u32,
            threads_per_block: 32,
        };
        c.launch_stepped(
            "waves",
            cfg,
            |_| true,
            |_| Ok(0usize),
            |blk, wave| {
                log.borrow_mut().push((*wave, blk.block_idx));
                *wave += 1;
                Ok(*wave < lives[blk.block_idx as usize])
            },
        )
        .unwrap();
        log.into_inner()
    }

    /// What [`stepped_waves`] must return, drawn without the engine from
    /// the documented schedule: the identity order, reshuffled every wave
    /// by Fisher–Yates with the xorshift stream from `seed + 0x9e37…7c15`,
    /// with retired blocks skipped.
    fn predicted_waves(seed: u64, lives: &[usize]) -> Vec<(usize, u32)> {
        let mut order: Vec<u32> = (0..lives.len() as u32).collect();
        let mut x = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut steps = Vec::new();
        for wave in 0..lives.iter().copied().max().unwrap_or(0) {
            for i in (1..order.len()).rev() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                order.swap(i, (x % (i as u64 + 1)) as usize);
            }
            let live = order.iter().filter(|&&b| lives[b as usize] > wave);
            steps.extend(live.map(|&b| (wave, b)));
        }
        steps
    }

    #[test]
    fn wave_orders_follow_the_documented_schedule() {
        // Blocks retire at different waves, so retired blocks are skipped.
        let lives = |blocks: usize, waves: usize| -> Vec<usize> {
            (0..blocks).map(|b| waves - b * 7 % 5).collect()
        };
        let mut c = ctx();
        c.set_schedule_seed(7);
        let table_waves = |c: &GpuContext| c.scratch.waves.rows.len() / c.scratch.waves.blocks;
        // The first launch draws 40 rows; the second, shorter one reads
        // them; the third draws 20 more.
        for waves in [40, 30, 60] {
            let lives = lives(108, waves);
            assert_eq!(stepped_waves(&mut c, &lives), predicted_waves(7, &lives));
        }
        assert_eq!(table_waves(&c), 60);
        // Another seed, then another block count, rebuild the table.
        c.set_schedule_seed(8);
        let l = lives(108, 25);
        assert_eq!(stepped_waves(&mut c, &l), predicted_waves(8, &l));
        assert_eq!(table_waves(&c), 25);
        let l = lives(5, 50);
        assert_eq!(stepped_waves(&mut c, &l), predicted_waves(8, &l));
        // Past the budget, waves reshuffle a copy of the last row: 3,000
        // blocks leave room for 87 rows.
        let l = lives(3_000, 95);
        assert_eq!(stepped_waves(&mut c, &l), predicted_waves(8, &l));
        assert_eq!(table_waves(&c), WAVE_TABLE_ENTRIES / 3_000);
        assert!(c.scratch.waves.rows.capacity() <= WAVE_TABLE_ENTRIES);
        // A second launch past the budget reads the table, then spills.
        assert_eq!(stepped_waves(&mut c, &l), predicted_waves(8, &l));
    }

    /// A stepped launch of `lives.len()` blocks in which block `b` has work
    /// iff `lives[b] > 0`, and then steps in waves `0..lives[b]`; a block
    /// without work retires at its first step. `init` charges `100 + b`
    /// instructions and each step one instruction and one barrier. Returns
    /// the blocks that ran `init` and the `(wave, block)` steps, in the
    /// order the engine ran them.
    fn mixed_launch(c: &mut GpuContext, lives: &[usize]) -> (Vec<u32>, Vec<(usize, u32)>) {
        let (inits, steps) = (RefCell::new(Vec::new()), RefCell::new(Vec::new()));
        let cfg = LaunchConfig {
            blocks: lives.len() as u32,
            threads_per_block: 32,
        };
        c.launch_stepped(
            "mixed",
            cfg,
            |b| lives[b as usize] > 0,
            |blk| {
                inits.borrow_mut().push(blk.block_idx);
                blk.charge_instr(100 + u64::from(blk.block_idx));
                Ok(0usize)
            },
            |blk, wave| {
                steps.borrow_mut().push((*wave, blk.block_idx));
                blk.charge_instr(1);
                blk.sync_threads();
                *wave += 1;
                Ok(*wave < lives[blk.block_idx as usize])
            },
        )
        .unwrap();
        (inits.into_inner(), steps.into_inner())
    }

    #[test]
    fn blocks_without_work_are_charged_not_run() {
        // Blocks 2, 3, 7 and 11 of 12 have work; block 0 is the first
        // without.
        let lives = [0, 0, 3, 1, 0, 0, 0, 5, 0, 0, 0, 2];
        let mut c = ctx();
        c.set_schedule_seed(3);
        c.set_block_profiling(true);
        let (inits, steps) = mixed_launch(&mut c, &lives);
        assert_eq!(inits, [0, 2, 3, 7, 11]);
        // Block 0 ran alone, at its init; the busy blocks step in the
        // whole grid's wave orders, which a launch where every block has
        // work (the idle ones retiring in wave 0) shows.
        assert_eq!(steps[0], (0, 0));
        let all: Vec<usize> = lives.iter().map(|&l| l.max(1)).collect();
        let mut whole = ctx();
        whole.set_schedule_seed(3);
        let busy: Vec<(usize, u32)> = stepped_waves(&mut whole, &all)
            .into_iter()
            .filter(|&(_, b)| lives[b as usize] > 0)
            .collect();
        assert_eq!(steps[1..], busy);
        // Every block without work is charged block 0's counters, though
        // its own init would have charged other ones.
        let per_block = c.launches()[0].block_counters.as_ref().unwrap();
        assert_eq!(per_block.len(), 12);
        for (b, counters) in per_block.iter().enumerate() {
            let (instrs, barriers) = match lives[b] {
                0 => (101, 1),
                l => (100 + b as u64 + l as u64, l as u64),
            };
            assert_eq!(
                (counters.warp_instrs, counters.barriers),
                (instrs, barriers),
                "block {b}"
            );
        }
        assert_eq!(c.launches()[0].counters.warp_instrs, 8 * 101 + 434);
    }

    #[test]
    fn an_all_idle_grid_runs_one_block() {
        let mut c = ctx();
        let (inits, steps) = mixed_launch(&mut c, &[0; 108]);
        assert_eq!((inits, steps), (vec![0], vec![(0, 0)]));
        let rec = &c.launches()[0];
        assert_eq!(rec.block_cycles, vec![rec.block_cycles[0]; 108]);
        assert_eq!(
            (rec.counters.warp_instrs, rec.counters.barriers),
            (108 * 101, 108)
        );
    }

    #[test]
    fn a_failed_launch_keeps_its_contexts_scratch() {
        // An 8-block stepped launch leaves one shared backing per block and
        // the five wave rows it drew. A launch on the same grid that fails
        // in a block's init, in a step or in a plain kernel hands them back.
        let mut c = ctx();
        let cfg = LaunchConfig {
            blocks: 8,
            threads_per_block: 32,
        };
        let kept = |c: &GpuContext| {
            let backings = c.scratch.shared.iter().filter(|s| s.capacity() > 0);
            (backings.count(), c.scratch.waves.rows.len())
        };
        let fails_at = |blk: &BlockCtx<'_>, at: u32| {
            if blk.block_idx == at {
                Err(KernelError::Other(format!("block {at} fails")))
            } else {
                Ok(())
            }
        };
        let five_waves = |_: &mut BlockCtx<'_>, wave: &mut u32| {
            *wave += 1;
            Ok(*wave < 5)
        };
        let one_word = |blk: &mut BlockCtx<'_>| blk.shared_alloc(1).map(|_| 0);
        c.launch_stepped("five_waves", cfg, |_| true, one_word, five_waves)
            .unwrap();
        assert_eq!(kept(&c), (8, 40));
        let init = c.launch_stepped(
            "init_fails",
            cfg,
            |_| true,
            |blk| fails_at(blk, 3),
            |_, _| Ok(false),
        );
        assert!(matches!(init, Err(SimError::Kernel(_))), "{init:?}");
        assert_eq!(kept(&c), (8, 40), "after a failed init");
        // Block 4, the first without work, runs its init after the busy
        // blocks 0..4 have run theirs.
        let idle = c.launch_stepped(
            "idle_init_fails",
            cfg,
            |b| b != 4,
            |blk| fails_at(blk, 4),
            |_, _| Ok(false),
        );
        let want = SimError::Kernel(KernelError::Other("block 4 fails".into()));
        assert_eq!(idle, Err(want));
        assert_eq!(kept(&c), (8, 40), "after a failed idle init");
        let step = c.launch_stepped(
            "step_fails",
            cfg,
            |_| true,
            |_| Ok(0),
            |blk, wave| {
                if *wave == 1 {
                    fails_at(blk, 5)?;
                }
                five_waves(blk, wave)
            },
        );
        assert!(matches!(step, Err(SimError::Kernel(_))), "{step:?}");
        assert_eq!(kept(&c), (8, 40), "after a failed step");
        let plain = c.launch("kernel_fails", cfg, |blk| fails_at(blk, 6));
        assert!(matches!(plain, Err(SimError::Kernel(_))), "{plain:?}");
        assert_eq!(kept(&c), (8, 40), "after a failed kernel");
        assert_eq!(c.launches().len(), 1);
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
        let buf = c.htod("x", &[0u32; 64], SizeClass::Fixed).unwrap();
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
    fn htod_into_and_ranged_dtoh_are_charged_partial_copies() {
        let mut c = ctx();
        let buf = c.htod("stage", &[0u32; 16], SizeClass::Fixed).unwrap();
        let (h2d0, d2h0) = (c.report().h2d_bytes, c.report().d2h_bytes);
        let transfers0 = c.transfers().len();
        c.htod_into(buf, 4, &[7, 8, 9]).unwrap();
        assert_eq!(c.report().h2d_bytes - h2d0, 12);
        let got = c.dtoh(buf, 3..8).unwrap();
        assert_eq!(got, vec![0, 7, 8, 9, 0]);
        assert_eq!(c.report().d2h_bytes - d2h0, 20);
        // both copies are recorded (phase-stamped) transfer events
        assert_eq!(c.transfers().len() - transfers0, 2);
        // full readback still sees the in-place write, and no reallocation
        // happened: the ledger holds exactly one entry for the buffer
        assert_eq!(c.dtoh(buf, ..).unwrap()[4..7], [7, 8, 9]);
        let ms = c.memstats();
        assert_eq!(
            ms.allocations.iter().filter(|a| a.name == "stage").count(),
            1
        );
    }

    #[test]
    fn htod_into_overrun_is_a_typed_error() {
        let mut c = ctx();
        let buf = c.htod("small", &[1, 2, 3, 4], SizeClass::Fixed).unwrap();
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
        assert_eq!(c.dtoh(buf, ..).unwrap(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn dtoh_out_of_bounds_is_a_typed_error() {
        let mut c = ctx();
        let buf = c.htod("small", &[1, 2, 3, 4], SizeClass::Fixed).unwrap();
        let transfers = c.transfers().len();
        let clock = c.elapsed_ms();
        let (end, start) = ("dtoh range end", "dtoh range start");
        #[allow(clippy::reversed_empty_ranges)]
        let failures = [
            (c.dtoh(buf, 0..5), end),
            (c.dtoh(buf, 3..usize::MAX), end),
            (c.dtoh(buf, ..=4), end),
            (c.dtoh(buf, ..=usize::MAX), end),
            (c.dtoh(buf, 3..2), start),
        ];
        for (r, what) in failures {
            let err = r.unwrap_err();
            assert!(
                matches!(err, SimError::InvalidConfig { what: w, .. } if w == what),
                "{err}"
            );
        }
        // Nothing was read back, recorded or charged; an empty range at the
        // end is a valid (charged) copy, and `..` reads the whole buffer.
        assert_eq!(c.transfers().len(), transfers);
        assert_eq!(c.elapsed_ms(), clock);
        assert_eq!(c.dtoh(buf, 4..4).unwrap(), Vec::<u32>::new());
        assert_eq!(c.dtoh(buf, 1..=2).unwrap(), vec![2, 3]);
        assert_eq!(c.dtoh(buf, ..).unwrap(), vec![1, 2, 3, 4]);
        let bytes: Vec<u64> = c.transfers()[transfers..].iter().map(|t| t.bytes).collect();
        assert_eq!(bytes, [0, 8, 16]);
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
        let buf = c.htod("x", &[0u32; 64], SizeClass::Fixed).unwrap();
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
    fn a_plain_launch_runs_its_blocks_in_block_order_at_every_width() {
        // Each of 108 blocks works for a while, then claims the next slot
        // of a device cursor and stores its index there: blocks that ran at
        // once would claim slots out of block order.
        let cfg = LaunchConfig::paper();
        let run = |threads: usize| {
            let mut c = ctx();
            c.set_block_profiling(true);
            let cursor = c.alloc("cursor", 1, SizeClass::Fixed).unwrap();
            let slots = c.alloc("slots", 108, SizeClass::Fixed).unwrap();
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| {
                c.launch("claim", cfg, |blk| {
                    let mut x = u64::from(blk.block_idx);
                    for _ in 0..20_000 {
                        x = std::hint::black_box(x.wrapping_mul(0x5851_f42d_4c95_7f2d) + 1);
                    }
                    blk.charge_instr(x % 7);
                    let slot = blk.atomic_add(&blk.device.buffer(cursor)[0], 1);
                    blk.gwrite(&blk.device.buffer(slots)[slot as usize], blk.block_idx);
                    Ok(())
                })
            })
            .unwrap();
            (c.dtoh(slots, ..).unwrap(), format!("{:?}", c.launches()))
        };
        let (order, records) = run(1);
        assert_eq!(order, (0..108).collect::<Vec<u32>>());
        for threads in [2, 8] {
            let (got, got_records) = run(threads);
            assert_eq!(got, order, "width {threads}");
            assert!(
                got_records == records,
                "width {threads}: the launch records differ"
            );
        }
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
                .install(|| c.launch_stepped("k", empty, |_| true, |_| Ok(()), |_, _| Ok(false)))
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
            let stepped = c.launch_stepped("k", bad, |_| true, |_| Ok(()), |_, _| Ok(false));
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
