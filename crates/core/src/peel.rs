//! The GPU peeling algorithm: host program (Algorithm 1), scan kernel
//! (Algorithm 2) and loop kernel (Algorithm 3), with every §IV-C
//! optimization variant.
//!
//! The kernels run on [`kcore_gpusim`]; their *semantics* are the paper's,
//! including the correctness-critical details:
//!
//! * the barrier-snapshot batching of the loop kernel (warps of a block
//!   process `buf[s .. min(s+warps, e)]` per iteration, with `e` snapshotted
//!   at the `__syncthreads()` — Fig. 5);
//! * the atomic decrement-and-recover protocol on `deg[u]` that both avoids
//!   redundant traversal across blocks and converges `deg[v]` to `core(v)`
//!   (Fig. 6, Cases 1–3);
//! * termination via the device counter `gpu_count` read back each round.

use crate::config::{Buffering, Compaction, PeelConfig};
use kcore_gpusim::scan::{
    ballot_scan, ballot_scan_offsets, block_two_stage_scan, block_two_stage_scan_charges,
    block_two_stage_scan_into,
};
use kcore_gpusim::{
    BlockCtx, BufferId, GpuContext, KernelError, SharedArray, SimError, SimOptions, SimReport,
    SizeClass,
};
use kcore_graph::Csr;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, Ordering};

/// Result of a GPU decomposition run.
#[derive(Debug, Clone)]
pub struct GpuRun {
    /// Per-vertex core numbers.
    pub core: Vec<u32>,
    /// `max_v core(v)`.
    pub k_max: u32,
    /// Number of peeling rounds executed (`k_max + 1`).
    pub rounds: u32,
    /// Simulated-time / traffic / memory report.
    pub report: SimReport,
}

/// Everything the kernels need, bundled for the launch closures.
struct KParams<'a> {
    n: usize,
    cap: usize,
    d_offsets: BufferId,
    d_neighbors: BufferId,
    d_deg: BufferId,
    d_buf: BufferId,
    d_buf_e: BufferId,
    d_count: BufferId,
    cfg: &'a PeelConfig,
}

/// The peel working set resident on one device: the graph arrays, the
/// per-block frontier buffers, and the `gpu_count` termination counter.
///
/// [`decompose_in`] owns one for the whole graph; the sharded engine
/// (`multi_gpu`) owns one per worker device holding that shard's local-ID
/// CSR. The launch helpers below ([`run_scan_loop`], [`run_loop_only`])
/// drive the same kernels either way.
pub(crate) struct DeviceState {
    pub(crate) n: usize,
    pub(crate) cap: usize,
    pub(crate) d_offsets: BufferId,
    pub(crate) d_neighbors: BufferId,
    pub(crate) d_deg: BufferId,
    pub(crate) d_buf: BufferId,
    pub(crate) d_buf_e: BufferId,
    pub(crate) d_count: BufferId,
}

impl DeviceState {
    fn kparams<'a>(&self, cfg: &'a PeelConfig) -> KParams<'a> {
        KParams {
            n: self.n,
            cap: self.cap,
            d_offsets: self.d_offsets,
            d_neighbors: self.d_neighbors,
            d_deg: self.d_deg,
            d_buf: self.d_buf,
            d_buf_e: self.d_buf_e,
            d_count: self.d_count,
            cfg,
        }
    }
}

/// The device CSR indexes arcs with 32-bit offsets: a graph of
/// `u32::MAX` or more arcs is a [`SimError::InvalidConfig`].
fn check_arc_count(arcs: usize) -> Result<(), SimError> {
    if arcs < u32::MAX as usize {
        Ok(())
    } else {
        Err(SimError::InvalidConfig {
            what: "arcs",
            value: arcs as f64,
            need: "fewer than 2^32 - 1 for 32-bit arc offsets",
        })
    }
}

/// Algorithm 1, lines 1–4: loads a CSR plus the working buffers onto
/// `ctx`'s device, its offsets narrowed to 32 bits once
/// [`check_arc_count`] accepts the arc count. Allocation names, order and
/// size classes are part of the golden-trace contract — do not reorder.
pub(crate) fn load_device(
    ctx: &mut GpuContext,
    offsets: &[u64],
    neighbors: &[u32],
    degrees: &[u32],
    cfg: &PeelConfig,
) -> Result<DeviceState, SimError> {
    let n = offsets.len() - 1;
    check_arc_count(neighbors.len())?;
    // Every offset is at most the arc count, which fits in 32 bits.
    let offsets32: Vec<u32> = offsets.iter().map(|&o| o as u32).collect();
    // Algorithm 1, line 1: load G (offset / neighbors / deg) to the device.
    ctx.set_phase("Setup");
    ctx.set_workload_dims(n as u64, neighbors.len() as u64);
    let d_offsets = ctx.htod_tagged("offset", &offsets32, SizeClass::PerVertex)?;
    let d_neighbors = ctx.htod_tagged("neighbors", neighbors, SizeClass::PerArc)?;
    let d_deg = ctx.htod_tagged("deg", degrees, SizeClass::PerVertex)?;
    // Line 4: per-block buffers + the persisted buffer tails + gpu_count.
    // All three are sized by the launch configuration, not the graph, so
    // they extrapolate as `Fixed` (the forecast carries the configured
    // scratch capacity through unscaled).
    let blocks = cfg.launch.blocks as usize;
    let d_buf = ctx.alloc_tagged("buf", blocks * cfg.buf_capacity, SizeClass::Fixed)?;
    let d_buf_e = ctx.alloc_tagged("buf_e", blocks, SizeClass::Fixed)?;
    let d_count = ctx.alloc_tagged("gpu_count", 1, SizeClass::Fixed)?;
    Ok(DeviceState {
        n,
        cap: cfg.buf_capacity,
        d_offsets,
        d_neighbors,
        d_deg,
        d_buf,
        d_buf_e,
        d_count,
    })
}

/// One peel round's device work: a launch of the scan kernel, then a
/// stepped launch of the loop kernel it feeds.
pub(crate) fn run_scan_loop(
    ctx: &mut GpuContext,
    k: u32,
    st: &DeviceState,
    cfg: &PeelConfig,
) -> Result<(), SimError> {
    let p = st.kparams(cfg);
    // The loop kernel's blocks interact through `deg[]` while running
    // (cascading k-shell discovery), so it is a stepped launch: every wave
    // advances each live block by one barrier-delimited iteration,
    // matching concurrent hardware blocks.
    ctx.set_phase("Scan");
    ctx.launch("scan", cfg.launch, |blk| scan_kernel_fast(blk, k, &p))?;
    ctx.set_phase("Loop");
    ctx.launch_stepped(
        "loop",
        cfg.launch,
        |blk| loop_init(blk, &p),
        |blk, st| loop_step_fast(blk, st, k, &p),
    )
}

/// A loop-only launch: consumes whatever frontier `buf`/`buf_e` already
/// hold, without a fresh scan. The sharded engine uses this for border-seed
/// sub-rounds — re-scanning would re-process the whole shard.
pub(crate) fn run_loop_only(
    ctx: &mut GpuContext,
    k: u32,
    st: &DeviceState,
    cfg: &PeelConfig,
) -> Result<(), SimError> {
    let p = st.kparams(cfg);
    ctx.set_phase("Loop");
    ctx.launch_stepped(
        "loop",
        cfg.launch,
        |blk| loop_init(blk, &p),
        |blk, st| loop_step_fast(blk, st, k, &p),
    )
}

/// Frees the working set (device hygiene; peak accounting is unaffected).
/// Free order is part of the golden-trace contract.
pub(crate) fn free_device(ctx: &mut GpuContext, st: &DeviceState) {
    ctx.device.free(st.d_buf);
    ctx.device.free(st.d_buf_e);
    ctx.device.free(st.d_count);
    ctx.device.free(st.d_deg);
    ctx.device.free(st.d_neighbors);
    ctx.device.free(st.d_offsets);
}

/// Runs the full k-core decomposition of `g` under `cfg` on a fresh
/// simulated device described by `opts`.
pub fn decompose(g: &Csr, cfg: &PeelConfig, opts: &SimOptions) -> Result<GpuRun, SimError> {
    let mut ctx = opts.context();
    decompose_in(&mut ctx, g, cfg).map(|(core, rounds)| {
        let k_max = core.iter().copied().max().unwrap_or(0);
        GpuRun {
            core,
            k_max,
            rounds,
            report: ctx.report(),
        }
    })
}

/// Runs the decomposition inside an existing context (the bench harness uses
/// this to share device setup across repetitions). Returns `(core, rounds)`.
pub fn decompose_in(
    ctx: &mut GpuContext,
    g: &Csr,
    cfg: &PeelConfig,
) -> Result<(Vec<u32>, u32), SimError> {
    peel_rounds(ctx, g, cfg, run_scan_loop)
}

/// [`decompose_in`] on the per-lane reference kernels (the scan and loop
/// kernels as first written, charging every access one lane at a time).
/// It is the differential-testing oracle of the production kernels:
/// `tests/fastpath_diff.rs` requires the same core numbers, trace and
/// timeline bytes, and errors.
pub fn decompose_reference_in(
    ctx: &mut GpuContext,
    g: &Csr,
    cfg: &PeelConfig,
) -> Result<(Vec<u32>, u32), SimError> {
    peel_rounds(ctx, g, cfg, |ctx, k, st, cfg| {
        let p = st.kparams(cfg);
        ctx.set_phase("Scan");
        ctx.launch("scan", cfg.launch, |blk| scan_kernel(blk, k, &p))?;
        ctx.set_phase("Loop");
        ctx.launch_stepped(
            "loop",
            cfg.launch,
            |blk| loop_init(blk, &p),
            |blk, st| loop_step(blk, st, k, &p),
        )
    })
}

/// Algorithm 1's host program, with `round` running one round's device work.
fn peel_rounds(
    ctx: &mut GpuContext,
    g: &Csr,
    cfg: &PeelConfig,
    round: impl Fn(&mut GpuContext, u32, &DeviceState, &PeelConfig) -> Result<(), SimError>,
) -> Result<(Vec<u32>, u32), SimError> {
    let n = g.num_vertices() as usize;
    if n == 0 {
        return Ok((Vec::new(), 0));
    }

    let st = load_device(ctx, g.offsets(), g.neighbor_array(), &g.degrees(), cfg)?;
    let mut count = 0u64;
    let mut k = 0u32;
    let mut rounds = 0u32;
    while (count as usize) < n {
        round(ctx, k, &st, cfg)?;
        // Algorithm 1 line 8: the synchronizing gpu_count readback.
        ctx.set_phase("Sync");
        let prev = count;
        count = ctx.dtoh_word(st.d_count, 0) as u64;
        // Observability: this round's k-shell size on the "frontier" counter
        // track (free — sampling charges nothing).
        ctx.sample_counter("frontier", (count - prev) as f64);
        k += 1;
        rounds += 1;
        if k as usize > n + 1 {
            return Err(SimError::Kernel(KernelError::Other(format!(
                "peeling did not converge: k={k} exceeds |V|={n} (count={count})"
            ))));
        }
    }
    // Line 10: deg[] has converged to the core numbers.
    ctx.set_phase("Result");
    let core = ctx.dtoh(st.d_deg);
    free_device(ctx, &st);
    Ok((core, rounds))
}

// ---------------------------------------------------------------------------
// Buffer position translation (Fig. 7) and append plumbing
// ---------------------------------------------------------------------------

/// Where a logical frontier position lives.
enum Slot {
    Shared(usize),
    Global(usize),
}

/// Translates logical position `pos` to a physical slot, honoring
/// shared-memory buffering and the ring layout.
fn translate(pos: u64, e_init: u64, n_b: u64, cap: u64, ring: bool) -> Result<Slot, KernelError> {
    let global_at = |gpos: u64| -> Result<Slot, KernelError> {
        if ring {
            // Positions only exceed `cap` once the ring has wrapped, so the
            // common case skips the division.
            Ok(Slot::Global(if gpos < cap {
                gpos as usize
            } else {
                (gpos % cap) as usize
            }))
        } else if gpos < cap {
            Ok(Slot::Global(gpos as usize))
        } else {
            Err(KernelError::BufferOverflow {
                what: format!("position {gpos} beyond capacity {cap} (no ring buffer)"),
            })
        }
    };
    if n_b == 0 || pos < e_init {
        global_at(pos)
    } else if pos < e_init + n_b {
        Ok(Slot::Shared((pos - e_init) as usize))
    } else {
        global_at(pos - n_b)
    }
}

/// Per-block loop state shared by the helpers below.
struct BufCtx {
    se: SharedArray, // [s, e] in shared memory
    sm_buf: Option<SharedArray>,
    e_init: u64,
    cap: u64,
    ring: bool,
}

impl BufCtx {
    fn n_b(&self) -> u64 {
        self.sm_buf.map(|a| a.len() as u64).unwrap_or(0)
    }

    /// Reads the frontier vertex at logical `pos`, charging per the
    /// buffering mode. `prefetched` marks reads covered by warp-0 VP.
    fn read(
        &self,
        blk: &mut BlockCtx<'_>,
        bufb: &[std::sync::atomic::AtomicU32],
        pos: u64,
        prefetched: bool,
    ) -> Result<u32, KernelError> {
        if self.sm_buf.is_some() {
            blk.charge_instr(2); // Fig. 7 position-translation case check
        }
        match translate(pos, self.e_init, self.n_b(), self.cap, self.ring)? {
            Slot::Shared(i) => {
                Ok(blk.sh_read(self.sm_buf.expect("shared slot without SM buffer"), i))
            }
            Slot::Global(i) => {
                if prefetched {
                    // value was staged into pref[] by warp 0; reading shared
                    blk.counters.shared_accesses += 1;
                    Ok(bufb[i].load(Ordering::Relaxed))
                } else {
                    Ok(blk.gread_dependent(&bufb[i]))
                }
            }
        }
    }

    /// Appends `vals` (a warp batch) at positions starting from an
    /// `e`-advance of `vals.len()`, returning the overflow error the paper's
    /// assert would fire. `batched_tx` marks compaction variants where the
    /// global writes are contiguous and charged as coalesced transactions.
    fn append_batch(
        &self,
        blk: &mut BlockCtx<'_>,
        bufb: &[std::sync::atomic::AtomicU32],
        vals: &[u32],
        batched_tx: bool,
    ) -> Result<(), KernelError> {
        if vals.is_empty() {
            return Ok(());
        }
        let m = vals.len() as u32;
        let base = blk.sh_atomic_add(self.se, 1, m) as u64;
        // Ring-buffer safety: outstanding elements must fit the physical
        // capacity (global cap + shared n_b).
        let s_now = blk.sh_read(self.se, 0) as u64;
        let outstanding = base + m as u64 - s_now;
        if outstanding > self.cap + self.n_b() {
            return Err(KernelError::BufferOverflow {
                what: format!(
                    "block {}: {} outstanding frontier entries exceed capacity {}",
                    blk.block_idx,
                    outstanding,
                    self.cap + self.n_b()
                ),
            });
        }
        let mut global_words = 0u64;
        for (j, &v) in vals.iter().enumerate() {
            if self.sm_buf.is_some() {
                blk.charge_instr(2); // translation case check per write
            }
            match translate(
                base + j as u64,
                self.e_init,
                self.n_b(),
                self.cap,
                self.ring,
            )? {
                Slot::Shared(i) => blk.sh_write(self.sm_buf.unwrap(), i, v),
                Slot::Global(i) => {
                    bufb[i].store(v, Ordering::Relaxed);
                    if batched_tx {
                        global_words += 1;
                    } else {
                        blk.charge_sector(1);
                    }
                }
            }
        }
        if batched_tx && global_words > 0 {
            blk.charge_tx(BlockCtx::coalesced_tx(global_words));
        }
        Ok(())
    }

    /// Appends a single vertex with its own `atomicAdd(e, 1)` — the basic
    /// algorithm's per-element path (Algorithm 3, line 23).
    fn append_one(
        &self,
        blk: &mut BlockCtx<'_>,
        bufb: &[std::sync::atomic::AtomicU32],
        v: u32,
    ) -> Result<(), KernelError> {
        self.append_batch(blk, bufb, &[v], false)
    }
}

// ---------------------------------------------------------------------------
// Scan kernel (Algorithm 2)
// ---------------------------------------------------------------------------

fn scan_kernel(blk: &mut BlockCtx<'_>, k: u32, p: &KParams<'_>) -> Result<(), KernelError> {
    let dev = blk.device;
    let deg = dev.buffer(p.d_deg);
    let b = blk.block_idx as usize;
    let bufb = &dev.buffer(p.d_buf)[b * p.cap..(b + 1) * p.cap];

    // Line 1–2: Thread 0 zeroes the shared tail, barrier.
    let e_arr = blk.shared_alloc(1)?;
    blk.sh_write(e_arr, 0, 0);
    blk.sync_threads();

    let blk_dim = blk.cfg.threads_per_block as usize;
    let num_threads = blk.cfg.num_threads() as usize;
    let mut chunk = b * blk_dim;
    while chunk < p.n {
        let lo = chunk;
        let hi = (chunk + blk_dim).min(p.n);
        let words = (hi - lo) as u64;
        // Coalesced read of this block's deg[] stripe + one compare per warp.
        blk.charge_tx(BlockCtx::coalesced_tx(words));
        blk.charge_instr(words.div_ceil(32));

        match p.cfg.compaction {
            Compaction::None => {
                // Line 6–9: each found vertex appended with its own
                // shared-memory atomicAdd.
                for v in lo..hi {
                    if deg[v].load(Ordering::Relaxed) == k {
                        let pos = blk.sh_atomic_add(e_arr, 0, 1) as u64;
                        if pos >= p.cap as u64 {
                            return Err(KernelError::BufferOverflow {
                                what: format!("block {b}: scan filled buffer (capacity {})", p.cap),
                            });
                        }
                        bufb[pos as usize].store(v as u32, Ordering::Relaxed);
                        blk.charge_sector(1);
                    }
                }
            }
            Compaction::Ballot => {
                // Warp-level compaction (Fig. 8): ballot offsets, one atomic
                // per warp, contiguous batch write. Every chunk pays for the
                // Fig. 8(a) per-thread vid/p/a arrays in shared memory.
                for wstart in (lo..hi).step_by(32) {
                    let wend = (wstart + 32).min(hi);
                    blk.counters.shared_accesses += 3 * (wend - wstart) as u64;
                    let flags: Vec<bool> = (wstart..wend)
                        .map(|v| deg[v].load(Ordering::Relaxed) == k)
                        .collect();
                    let (offsets, total) = ballot_scan(blk, &flags);
                    if total == 0 {
                        continue;
                    }
                    let base = blk.sh_atomic_add(e_arr, 0, total) as u64;
                    if base + total as u64 > p.cap as u64 {
                        return Err(KernelError::BufferOverflow {
                            what: format!("block {b}: scan filled buffer (capacity {})", p.cap),
                        });
                    }
                    blk.charge_tx(BlockCtx::coalesced_tx(total as u64));
                    for (i, v) in (wstart..wend).enumerate() {
                        if flags[i] {
                            bufb[(base + offsets[i] as u64) as usize]
                                .store(v as u32, Ordering::Relaxed);
                        }
                    }
                }
            }
            Compaction::Efficient => {
                // Block-level compaction (Fig. 9): two-stage scan over one
                // flag per thread, then a single batch append.
                let mut values = vec![0u32; blk_dim];
                for (i, v) in (lo..hi).enumerate() {
                    values[i] = (deg[v].load(Ordering::Relaxed) == k) as u32;
                }
                // Fig. 8(a) per-thread vid/p/a arrays, materialized in
                // shared memory for the whole block chunk.
                blk.counters.shared_accesses += 3 * (hi - lo) as u64;
                let (offsets, total) = block_two_stage_scan(blk, &values);
                if total > 0 {
                    let base = blk.sh_atomic_add(e_arr, 0, total) as u64;
                    if base + total as u64 > p.cap as u64 {
                        return Err(KernelError::BufferOverflow {
                            what: format!("block {b}: scan filled buffer (capacity {})", p.cap),
                        });
                    }
                    blk.charge_tx(BlockCtx::coalesced_tx(total as u64));
                    for i in 0..(hi - lo) {
                        if values[i] == 1 {
                            bufb[(base + offsets[i] as u64) as usize]
                                .store((lo + i) as u32, Ordering::Relaxed);
                        }
                    }
                }
            }
        }
        chunk += num_threads;
    }

    // Back up e to global memory for the loop kernel (end of Algorithm 2).
    blk.sync_threads();
    let e = blk.sh_read(e_arr, 0);
    blk.gwrite(&dev.buffer(p.d_buf_e)[b], e);
    Ok(())
}

/// Warp-vectorized [`scan_kernel`]: identical semantics, counters, and error
/// behavior, with the per-lane plumbing hoisted out of the hot loops — the
/// shared tail lives in a local mirror, ballot predicates stay packed as a
/// mask ([`ballot_scan_offsets`]), and the EC scratch buffers are reused
/// across kernel calls via a worker-local cache
/// ([`block_two_stage_scan_into`]). `tests/fastpath_diff.rs` pins the
/// equivalence against the reference.
fn scan_kernel_fast(blk: &mut BlockCtx<'_>, k: u32, p: &KParams<'_>) -> Result<(), KernelError> {
    let dev = blk.device;
    let deg = dev.buffer(p.d_deg);
    // Plain-word view of `deg` for the probe sweeps: the scan kernel only
    // reads degrees (every block, on every path), so the buffer is
    // immutable for the whole launch and the view is sound — and unlike an
    // `AtomicU32` load the compiler may vectorize it.
    let degs: &[u32] = unsafe { std::slice::from_raw_parts(deg.as_ptr() as *const u32, deg.len()) };
    let b = blk.block_idx as usize;
    let bufb = &dev.buffer(p.d_buf)[b * p.cap..(b + 1) * p.cap];

    let e_arr = blk.shared_alloc(1)?;
    blk.sh_write(e_arr, 0, 0);
    blk.sync_threads();

    let blk_dim = blk.cfg.threads_per_block as usize;
    let num_threads = blk.cfg.num_threads() as usize;
    // Local mirror of the shared tail, poked back before the epilogue read;
    // every shared-atomic charge still lands per append.
    let mut e_local = 0u64;
    // EC scratch, reused across chunks — and across kernel calls via a
    // worker-local cache. Contents need no zeroing on reuse: the hit path
    // rewrites `values[..hi-lo]` and explicitly zero-fills the tail before
    // the scan, the miss path never reads it, and `offs` is fully written
    // before it is read. Only the length matters (the charge helper asserts
    // it equals the block dimension).
    let (mut values, mut offs) = if p.cfg.compaction == Compaction::Efficient {
        EC_SCRATCH.with(|s| {
            let (mut v, mut o) = s.take();
            v.resize(blk_dim, 0);
            o.resize(blk_dim, 0);
            (v, o)
        })
    } else {
        (Vec::new(), Vec::new())
    };
    let overflow = |b: usize| KernelError::BufferOverflow {
        what: format!("block {b}: scan filled buffer (capacity {})", p.cap),
    };
    let mut chunk = b * blk_dim;
    while chunk < p.n {
        let lo = chunk;
        let hi = (chunk + blk_dim).min(p.n);
        let words = (hi - lo) as u64;
        blk.charge_tx(BlockCtx::coalesced_tx(words));
        blk.charge_instr(words.div_ceil(32));

        match p.cfg.compaction {
            Compaction::None => {
                // Probe in sub-chunks with a branch-free any-hit reduction
                // (vectorizable); only a sub-chunk containing a k-shell
                // vertex pays the scalar append pass. Charges are per hit
                // either way, so the sweep shape is charge-invisible.
                let mut v = lo;
                while v < hi {
                    let sub_hi = (v + 64).min(hi);
                    let mut hit = false;
                    for &d in &degs[v..sub_hi] {
                        hit |= d == k;
                    }
                    if hit {
                        for u in v..sub_hi {
                            if degs[u] == k {
                                blk.counters.shared_atomics += 1; // atomicAdd(e, 1)
                                let pos = e_local;
                                e_local += 1;
                                if pos >= p.cap as u64 {
                                    return Err(overflow(b));
                                }
                                bufb[pos as usize].store(u as u32, Ordering::Relaxed);
                                blk.charge_sector(1);
                            }
                        }
                    }
                    v = sub_hi;
                }
            }
            Compaction::Ballot => {
                for wstart in (lo..hi).step_by(32) {
                    let wend = (wstart + 32).min(hi);
                    blk.counters.shared_accesses += 3 * (wend - wstart) as u64;
                    // Branch-free any-hit reduction first (vectorizable);
                    // only a warp containing a k-shell vertex pays the
                    // scalar bit pack. The ballot is charged identically
                    // either way (`ballot_scan_offsets` charges by lane
                    // count, not by mask value).
                    let w = &degs[wstart..wend];
                    let mut hit = false;
                    for &d in w {
                        hit |= d == k;
                    }
                    let mut bits = 0u32;
                    if hit {
                        for (i, &d) in w.iter().enumerate() {
                            bits |= ((d == k) as u32) << i;
                        }
                    }
                    let (offsets, total) = ballot_scan_offsets(blk, bits);
                    if total == 0 {
                        continue;
                    }
                    blk.counters.shared_atomics += 1; // atomicAdd(e, total)
                    let base = e_local;
                    e_local += total as u64;
                    if e_local > p.cap as u64 {
                        return Err(overflow(b));
                    }
                    blk.charge_tx(BlockCtx::coalesced_tx(total as u64));
                    for (i, v) in (wstart..wend).enumerate() {
                        if bits >> i & 1 == 1 {
                            bufb[(base + offsets[i] as u64) as usize]
                                .store(v as u32, Ordering::Relaxed);
                        }
                    }
                }
            }
            Compaction::Efficient => {
                // Any-hit reduction first (vectorizable): a chunk with no
                // k-shell vertex pays the full two-stage-scan cost model —
                // every charge is a pure function of the geometry — but
                // skips the element-wise flag fill and the host-side scan
                // arithmetic.
                let w = &degs[lo..hi];
                let mut hit = false;
                for &d in w {
                    hit |= d == k;
                }
                blk.counters.shared_accesses += 3 * (hi - lo) as u64;
                let total = if hit {
                    for (i, &d) in w.iter().enumerate() {
                        values[i] = (d == k) as u32;
                    }
                    values[(hi - lo)..].fill(0);
                    block_two_stage_scan_into(blk, &values, &mut offs)
                } else {
                    block_two_stage_scan_charges(blk, values.len());
                    0
                };
                if total > 0 {
                    blk.counters.shared_atomics += 1; // atomicAdd(e, total)
                    let base = e_local;
                    e_local += total as u64;
                    if e_local > p.cap as u64 {
                        return Err(overflow(b));
                    }
                    blk.charge_tx(BlockCtx::coalesced_tx(total as u64));
                    for i in 0..(hi - lo) {
                        if values[i] == 1 {
                            bufb[(base + offs[i] as u64) as usize]
                                .store((lo + i) as u32, Ordering::Relaxed);
                        }
                    }
                }
            }
        }
        chunk += num_threads;
    }

    blk.sh_poke(e_arr, 0, e_local as u32);
    blk.sync_threads();
    let e = blk.sh_read(e_arr, 0);
    blk.gwrite(&dev.buffer(p.d_buf_e)[b], e);
    if p.cfg.compaction == Compaction::Efficient {
        EC_SCRATCH.with(|s| *s.borrow_mut() = (values, offs));
    }
    Ok(())
}

thread_local! {
    /// Worker-local EC scratch for [`scan_kernel_fast`] (a `(values, offs)`
    /// pair), so the two block-dimension-sized vectors are not
    /// allocated and freed on every kernel call. Error returns drop the
    /// cache for that worker; the next call simply reallocates.
    static EC_SCRATCH: RefCell<(Vec<u32>, Vec<u32>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

// ---------------------------------------------------------------------------
// Loop kernel (Algorithm 3)
// ---------------------------------------------------------------------------

/// Per-block persistent state of the loop kernel across waves.
struct LoopState {
    bc: BufCtx,
    prefetch: bool,
    warp_compact: bool,
    warps: u64,
    compute_warps: u64,
}

/// Lines 1–2 of Algorithm 3: per-block setup (shared s/e, optional SM
/// buffer, optional VP pref array).
fn loop_init<'a>(blk: &mut BlockCtx<'a>, p: &KParams<'_>) -> Result<LoopState, KernelError> {
    let dev = blk.device;
    let b = blk.block_idx as usize;

    let se = blk.shared_alloc(2)?;
    let e0 = blk.gread(&dev.buffer(p.d_buf_e)[b]);
    blk.sh_write(se, 0, 0);
    blk.sh_write(se, 1, e0);

    let sm_buf = match p.cfg.buffering {
        Buffering::SharedMem => Some(blk.shared_alloc(p.cfg.shared_buf_capacity)?),
        _ => None,
    };
    // VP keeps a 31-slot pref[] in shared memory (capacity accounting).
    let _pref = match p.cfg.buffering {
        Buffering::Prefetch => Some(blk.shared_alloc(31)?),
        _ => None,
    };
    let bc = BufCtx {
        se,
        sm_buf,
        e_init: e0 as u64,
        cap: p.cap as u64,
        ring: p.cfg.ring_buffer,
    };

    let warps = blk.num_warps() as u64;
    // VP sacrifices warp 0 to prefetching — unless the block only has one
    // warp, which must keep computing.
    let compute_warps = if p.cfg.buffering == Buffering::Prefetch {
        (warps - 1).max(1)
    } else {
        warps
    };
    Ok(LoopState {
        bc,
        prefetch: p.cfg.buffering == Buffering::Prefetch,
        warp_compact: p.cfg.compaction != Compaction::None,
        warps,
        compute_warps,
    })
}

/// One barrier-delimited iteration of Algorithm 3's outer loop (lines 3–25),
/// plus the line-26 `gpu_count` update when the buffer drains. Returns
/// `false` when the block retires.
fn loop_step(
    blk: &mut BlockCtx<'_>,
    st: &mut LoopState,
    k: u32,
    p: &KParams<'_>,
) -> Result<bool, KernelError> {
    let dev = blk.device;
    let deg = dev.buffer(p.d_deg);
    let offsets = dev.buffer(p.d_offsets);
    let neighbors = dev.buffer(p.d_neighbors);
    let b = blk.block_idx as usize;
    let bufb = &dev.buffer(p.d_buf)[b * p.cap..(b + 1) * p.cap];
    let se = st.bc.se;

    // Line 4: __syncthreads, consistent view of s and e.
    blk.sync_threads();
    let s = blk.sh_read(se, 0) as u64;
    let e = blk.sh_read(se, 1) as u64;
    if s == e {
        // Line 5 break + line 26: thread 0 adds this round's count.
        blk.sync_threads();
        let e_final = blk.sh_read(se, 1);
        blk.atomic_add(&dev.buffer(p.d_count)[0], e_final);
        return Ok(false);
    }
    let e_snap = e; // line 6: e' backed up per warp
    let batch = st.compute_warps.min(e_snap - s);
    // Line 7: barrier before the batch is claimed.
    blk.sync_threads();
    blk.charge_instr(st.warps); // per-warp control flow for this iteration

    if st.prefetch {
        // Warp 0 coalesced-fetches the batch into pref[] while the
        // other warps compute (overlapped — no dependent latency), at the
        // cost of the warp-0 coordination instructions (§IV-C: lane-0
        // advances s, __syncwarp, then the 31 fetch lanes).
        blk.charge_tx(BlockCtx::coalesced_tx(batch));
        blk.counters.shared_accesses += batch;
        blk.charge_instr(3);
        blk.sync_warp();
    }

    for w in 0..batch {
        let pos = s + w;
        // Line 12: v ← buf[i][s'] (translated; prefetched under VP).
        let v = st.bc.read(blk, bufb, pos, st.prefetch)?;
        process_vertex(
            blk,
            &st.bc,
            bufb,
            deg,
            offsets,
            neighbors,
            v,
            k,
            st.warp_compact,
        )?;
    }
    // Lines 9–10: thread 0 (or warp 0 under VP) advances s — at the *end*
    // of the iteration, so the ring-buffer outstanding check inside
    // `append_batch` measures from the floor of the batch still being
    // consumed. (Advancing s up front would let a same-iteration append
    // recycle a slot whose entry this iteration has not read yet; the
    // charge is one shared write either way.)
    blk.sh_write(se, 0, (s + batch) as u32);
    Ok(true)
}

/// Lines 13–24 of Algorithm 3: one warp walks `v`'s adjacency list in
/// 32-neighbor chunks, decrementing `deg[u]` and appending newly degree-`k`
/// neighbors.
#[allow(clippy::too_many_arguments)]
fn process_vertex(
    blk: &mut BlockCtx<'_>,
    bc: &BufCtx,
    bufb: &[std::sync::atomic::AtomicU32],
    deg: &[std::sync::atomic::AtomicU32],
    offsets: &[std::sync::atomic::AtomicU32],
    neighbors: &[std::sync::atomic::AtomicU32],
    v: u32,
    k: u32,
    warp_compact: bool,
) -> Result<(), KernelError> {
    // Line 13: pos_s, pos_e — adjacent words, one sector.
    blk.charge_sector(1);
    let ps = offsets[v as usize].load(Ordering::Relaxed) as usize;
    let pe = offsets[v as usize + 1].load(Ordering::Relaxed) as usize;

    let mut chunk = ps;
    while chunk < pe {
        let cend = (chunk + 32).min(pe);
        let cnt = (cend - chunk) as u64;
        blk.sync_warp(); // line 15
                         // Line 19: coalesced read of up to 32 neighbor IDs.
        blk.charge_tx(BlockCtx::coalesced_tx(cnt));
        blk.charge_instr(2); // lines 16-18 bounds/index math (full warp)

        let mut flags = [false; 32];
        let mut vals = [0u32; 32];
        let mut any = false;
        for (lane, idx) in (chunk..cend).enumerate() {
            let u = neighbors[idx].load(Ordering::Relaxed) as usize;
            // Line 20: random-access probe of deg[u].
            blk.charge_sector(1);
            if deg[u].load(Ordering::Relaxed) > k {
                // Line 21: atomicSub returns the pre-decrement value.
                let old = blk.atomic_sub(&deg[u], 1);
                if old == k + 1 {
                    // Line 22-23: u just became part of the k-shell.
                    flags[lane] = true;
                    vals[lane] = u as u32;
                    any = true;
                } else if old <= k {
                    // Line 24: raced below the floor — recover.
                    blk.atomic_add(&deg[u], 1);
                }
            }
        }
        if warp_compact {
            // BC/EC loop-phase: every chunk materializes the Fig. 8(a)
            // per-thread arrays (vid / p / a) in shared memory and runs the
            // ballot scan — whether or not anything gets appended; that
            // unconditional overhead is exactly why §VI finds compaction
            // slower than plain atomicAdd.
            blk.counters.shared_accesses += 3 * cnt;
            let (offs, total) = ballot_scan(blk, &flags[..(cend - chunk)]);
            if total > 0 {
                let mut batch = Vec::with_capacity(total as usize);
                for (lane, &f) in flags[..(cend - chunk)].iter().enumerate() {
                    if f {
                        debug_assert_eq!(offs[lane] as usize, batch.len());
                        batch.push(vals[lane]);
                    }
                }
                bc.append_batch(blk, bufb, &batch, true)?;
            }
        } else if any {
            for (lane, &f) in flags[..(cend - chunk)].iter().enumerate() {
                if f {
                    bc.append_one(blk, bufb, vals[lane])?;
                }
            }
        }
        chunk = cend;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Fast path: the loop kernel with bulk charging
// ---------------------------------------------------------------------------

/// Warp-vectorized [`loop_step`]: the same iteration, interleaving, counters
/// and errors, with the frontier tail `e` mirrored in a local (see
/// [`Appender`]) and each warp's adjacency chunk charged in bulk (see
/// [`process_vertex_fast`]). Blocks step one at a time in wave order, so
/// the launch-immutable `offset` and `neighbors` arrays are read as plain
/// words.
fn loop_step_fast(
    blk: &mut BlockCtx<'_>,
    st: &mut LoopState,
    k: u32,
    p: &KParams<'_>,
) -> Result<bool, KernelError> {
    let dev = blk.device;
    let deg = dev.buffer(p.d_deg);
    let offsets = dev.buffer(p.d_offsets);
    let neighbors = dev.buffer(p.d_neighbors);
    // SAFETY: `AtomicU32` has the size, alignment and bit validity of
    // `u32`, and no kernel writes `offset` or `neighbors` while a launch
    // runs, so plain-word views of them never race a write (same pattern
    // as the scan kernel's `degs`). Their loads are plain `mov`s the
    // compiler can reorder.
    let offs: &[u32] =
        unsafe { std::slice::from_raw_parts(offsets.as_ptr() as *const u32, offsets.len()) };
    let nbrs: &[u32] =
        unsafe { std::slice::from_raw_parts(neighbors.as_ptr() as *const u32, neighbors.len()) };
    let b = blk.block_idx as usize;
    let bufb = &dev.buffer(p.d_buf)[b * p.cap..(b + 1) * p.cap];
    let se = st.bc.se;

    // Line 4: __syncthreads, consistent view of s and e.
    blk.sync_threads();
    let s = blk.sh_read(se, 0) as u64;
    let e = blk.sh_read(se, 1) as u64;
    if s == e {
        // Line 5 break + line 26: thread 0 adds this round's count.
        blk.sync_threads();
        let e_final = blk.sh_read(se, 1);
        blk.atomic_add(&dev.buffer(p.d_count)[0], e_final);
        return Ok(false);
    }
    let batch = st.compute_warps.min(e - s);
    // Line 7 barrier.
    blk.sync_threads();
    blk.charge_instr(st.warps); // per-warp control flow for this iteration

    if st.prefetch {
        blk.charge_tx(BlockCtx::coalesced_tx(batch));
        blk.counters.shared_accesses += batch;
        blk.charge_instr(3);
        blk.sync_warp();
    }

    let mut ap = Appender { e, s_floor: s };
    for w in 0..batch {
        // Line 12: v ← buf[i][s'] (translated; prefetched under VP).
        let v = st.bc.read(blk, bufb, s + w, st.prefetch)?;
        // Line 13: pos_s, pos_e — adjacent words, one sector.
        blk.charge_sector(1);
        let ps = offs[v as usize] as usize;
        let pe = offs[v as usize + 1] as usize;
        process_vertex_fast(
            blk,
            &st.bc,
            st.warp_compact,
            &mut ap,
            bufb,
            deg,
            nbrs,
            ps,
            pe,
            k,
        )?;
    }
    blk.sh_poke(se, 1, ap.e as u32);
    // Lines 9–10, at the iteration end (see loop_step for why).
    blk.sh_write(se, 0, (s + batch) as u32);
    Ok(true)
}

/// Local mirror of the shared `[s, e]` buffer tail, so the hot append path
/// skips the shared-memory plumbing while charging exactly what
/// [`BufCtx::append_batch`] charges.
struct Appender {
    e: u64,
    s_floor: u64,
}

/// Fast-path twin of [`BufCtx::append_batch`]: identical charges, identical
/// overflow error, with `s`/`e` kept in [`Appender`] locals.
fn append_fast(
    bc: &BufCtx,
    ap: &mut Appender,
    blk: &mut BlockCtx<'_>,
    bufb: &[AtomicU32],
    vals: &[u32],
    batched_tx: bool,
) -> Result<(), KernelError> {
    if vals.is_empty() {
        return Ok(());
    }
    let m = vals.len() as u64;
    blk.counters.shared_atomics += 1; // the warp's atomicAdd(e, m)
    let base = ap.e;
    ap.e += m;
    blk.counters.shared_accesses += 1; // the outstanding-check read of s
    let outstanding = ap.e - ap.s_floor;
    if outstanding > bc.cap + bc.n_b() {
        return Err(KernelError::BufferOverflow {
            what: format!(
                "block {}: {} outstanding frontier entries exceed capacity {}",
                blk.block_idx,
                outstanding,
                bc.cap + bc.n_b()
            ),
        });
    }
    let mut global_words = 0u64;
    for (j, &v) in vals.iter().enumerate() {
        if bc.sm_buf.is_some() {
            blk.charge_instr(2); // translation case check per write
        }
        match translate(base + j as u64, bc.e_init, bc.n_b(), bc.cap, bc.ring)? {
            Slot::Shared(i) => blk.sh_write(bc.sm_buf.unwrap(), i, v),
            Slot::Global(i) => {
                bufb[i].store(v, Ordering::Relaxed);
                if batched_tx {
                    global_words += 1;
                } else {
                    blk.charge_sector(1);
                }
            }
        }
    }
    if batched_tx && global_words > 0 {
        blk.charge_tx(BlockCtx::coalesced_tx(global_words));
    }
    Ok(())
}

/// Bulk-charged twin of [`process_vertex`]: per-lane probes and decrements
/// become one pass with bulk counter updates; ballot predicates stay packed
/// as a mask. The recover branch (line 24) cannot fire while blocks step
/// one at a time — `deg[u]` cannot change between the probe and the
/// decrement — matching the reference wave loop, where it also never
/// executes.
#[allow(clippy::too_many_arguments)]
fn process_vertex_fast(
    blk: &mut BlockCtx<'_>,
    bc: &BufCtx,
    warp_compact: bool,
    ap: &mut Appender,
    bufb: &[AtomicU32],
    deg: &[AtomicU32],
    nbrs: &[u32],
    ps: usize,
    pe: usize,
    k: u32,
) -> Result<(), KernelError> {
    // Hoisted out of the chunk loop; slots are stale across chunks but a
    // lane is only read when its `bits` flag was set this chunk, and the
    // write always precedes the flag.
    let mut vals = [0u32; 32];
    let mut chunk = ps;
    while chunk < pe {
        let cend = (chunk + 32).min(pe);
        let cnt = (cend - chunk) as u64;
        blk.sync_warp(); // line 15
        blk.charge_tx(BlockCtx::coalesced_tx(cnt)); // line 19 neighbor read
        blk.charge_instr(2); // lines 16-18 bounds/index math (full warp)

        // Line 20's random-access deg probes, charged once per chunk; the
        // line-21 decrements counted and added in one update. The probes
        // are independent loads off a contiguous id slice, so the core's
        // out-of-order window already overlaps their misses.
        blk.charge_sector(cnt);
        let ids = &nbrs[chunk..cend];
        let mut bits = 0u32;
        let mut decs = 0u64;
        for (lane, &u) in ids.iter().enumerate() {
            let u = u as usize;
            let old = deg[u].load(Ordering::Relaxed);
            if old > k {
                deg[u].store(old - 1, Ordering::Relaxed);
                decs += 1;
                if old == k + 1 {
                    bits |= 1 << lane;
                    vals[lane] = u as u32;
                }
            }
        }
        blk.counters.global_atomics += decs;

        if warp_compact {
            blk.counters.shared_accesses += 3 * cnt;
            let (offs, total) = ballot_scan_offsets(blk, bits);
            if total > 0 {
                let mut batch = [0u32; 32];
                let mut m = 0usize;
                for lane in 0..(cend - chunk) {
                    if bits >> lane & 1 == 1 {
                        debug_assert_eq!(offs[lane] as usize, m);
                        batch[m] = vals[lane];
                        m += 1;
                    }
                }
                append_fast(bc, ap, blk, bufb, &batch[..m], true)?;
            }
        } else if bits != 0 {
            for lane in 0..(cend - chunk) {
                if bits >> lane & 1 == 1 {
                    append_fast(bc, ap, blk, bufb, &[vals[lane]], false)?;
                }
            }
        }
        chunk = cend;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcore_cpu::{bz, CoreAlgorithm};
    use kcore_gpusim::LaunchConfig;
    use kcore_graph::{fig1_core_numbers, fig1_graph, gen};

    fn small_cfg() -> PeelConfig {
        // small geometry so tests exercise multi-iteration paths
        PeelConfig {
            launch: LaunchConfig {
                blocks: 4,
                threads_per_block: 128,
            },
            buf_capacity: 4_096,
            shared_buf_capacity: 64,
            ..PeelConfig::default()
        }
    }

    fn check(g: &kcore_graph::Csr, cfg: &PeelConfig) {
        let run = decompose(g, cfg, &SimOptions::default()).expect("decompose");
        let expect = bz::Bz.run(g);
        assert_eq!(run.core, expect, "variant {}", cfg.variant_name());
        assert_eq!(run.k_max, expect.iter().copied().max().unwrap_or(0));
    }

    #[test]
    fn fig1_basic() {
        let g = fig1_graph();
        let run = decompose(&g, &small_cfg(), &SimOptions::default()).unwrap();
        assert_eq!(run.core, fig1_core_numbers());
        assert_eq!(run.k_max, 3);
        assert_eq!(run.rounds, 4); // k = 0..3
    }

    #[test]
    fn arc_counts_past_32_bit_offsets_are_typed_errors() {
        // A graph this size needs 16 GiB, so the check is tested alone.
        assert_eq!(check_arc_count((1usize << 32) - 2), Ok(()));
        assert_eq!(
            check_arc_count((1usize << 32) - 1),
            Err(SimError::InvalidConfig {
                what: "arcs",
                value: ((1u64 << 32) - 1) as f64,
                need: "fewer than 2^32 - 1 for 32-bit arc offsets",
            })
        );
    }

    #[test]
    fn all_variants_agree_on_fig1() {
        let g = fig1_graph();
        for cfg in small_cfg().all_variants() {
            check(&g, &cfg);
        }
    }

    #[test]
    fn all_variants_agree_on_random_graph() {
        let g = gen::erdos_renyi_gnm(800, 3_200, 42);
        for cfg in small_cfg().all_variants() {
            check(&g, &cfg);
        }
    }

    #[test]
    fn basic_agrees_on_structured_graphs() {
        let cfg = small_cfg();
        check(&gen::complete(40), &cfg);
        check(&gen::cycle(100), &cfg);
        check(&gen::star(200), &cfg);
        check(&gen::complete_bipartite(5, 50), &cfg);
        check(&gen::grid(17, 13), &cfg);
    }

    #[test]
    fn skewed_and_planted_graphs() {
        let cfg = small_cfg();
        check(&gen::power_law_hubs(3_000, 6_000, 3, 0.2, 7), &cfg);
        check(
            &gen::plant_clique(&gen::erdos_renyi_gnm(1_000, 2_000, 3), 25, 4),
            &cfg,
        );
    }

    #[test]
    fn empty_and_edgeless() {
        let cfg = small_cfg();
        let run = decompose(&kcore_graph::Csr::empty(0), &cfg, &SimOptions::default()).unwrap();
        assert!(run.core.is_empty());
        assert_eq!(run.rounds, 0);
        let run = decompose(&kcore_graph::Csr::empty(9), &cfg, &SimOptions::default()).unwrap();
        assert_eq!(run.core, vec![0; 9]);
        assert_eq!(run.rounds, 1); // everything removed in round k=0
    }

    #[test]
    fn fig6_redundancy_scenario() {
        // The Fig. 6 stress: vertex 0 adjacent to four degree-2 vertices
        // that are all peeled in the same round; deg[0] must converge to 2,
        // not be driven to 0.
        let mut b = kcore_graph::GraphBuilder::new();
        // hub 0 with neighbors 1..4; each neighbor i also linked to i%2+5
        // aides so they have degree 2; plus 5-6 form the rest.
        for i in 1..=4u32 {
            b.add_edge(0, i);
            b.add_edge(i, 5 + (i % 2));
        }
        b.add_edge(5, 6);
        let g = b.build();
        let cfg = small_cfg();
        check(&g, &cfg);
    }

    #[test]
    fn single_block_single_warp_geometry() {
        let g = gen::erdos_renyi_gnm(300, 900, 5);
        let cfg = PeelConfig {
            launch: LaunchConfig {
                blocks: 1,
                threads_per_block: 32,
            },
            buf_capacity: 512,
            ..PeelConfig::default()
        };
        check(&g, &cfg);
        // VP on a one-warp block must not deadlock (warp 0 keeps computing)
        check(&g, &cfg.with_buffering(Buffering::Prefetch));
    }

    #[test]
    fn buffer_overflow_detected_without_ring() {
        // tiny buffer, no ring: the dense graph's round-0..k shells overflow
        let g = gen::complete(64); // one 63-shell of 64 vertices
        let cfg = PeelConfig {
            launch: LaunchConfig {
                blocks: 1,
                threads_per_block: 32,
            },
            buf_capacity: 16,
            ring_buffer: false,
            ..PeelConfig::default()
        };
        let err = decompose(&g, &cfg, &SimOptions::default()).unwrap_err();
        assert!(
            matches!(err, SimError::Kernel(KernelError::BufferOverflow { .. })),
            "{err}"
        );
    }

    #[test]
    fn ring_buffer_recycles_slots() {
        // A long path peels in one round with a cascading frontier much
        // longer than the buffer; the ring makes it fit (outstanding stays
        // small) while the non-ring variant overflows.
        let g = gen::path(3_000);
        let base = PeelConfig {
            launch: LaunchConfig {
                blocks: 1,
                threads_per_block: 32,
            },
            buf_capacity: 3_200, // > initial scan (2 endpoints) but < 2*n appends... n appends total
            ..PeelConfig::default()
        };
        // with ring: works
        let ring = PeelConfig {
            ring_buffer: true,
            buf_capacity: 64,
            ..base
        };
        let run = decompose(&g, &ring, &SimOptions::default()).unwrap();
        assert_eq!(run.core, vec![1; 3_000]);
        // without ring: the same tiny buffer overflows
        let no_ring = PeelConfig {
            ring_buffer: false,
            buf_capacity: 64,
            ..base
        };
        let err = decompose(&g, &no_ring, &SimOptions::default()).unwrap_err();
        assert!(matches!(
            err,
            SimError::Kernel(KernelError::BufferOverflow { .. })
        ));
    }

    #[test]
    fn device_oom_on_tiny_device() {
        let g = gen::erdos_renyi_gnm(1_000, 5_000, 1);
        let cfg = small_cfg();
        let opts = SimOptions {
            device_capacity_bytes: 1024,
            ..SimOptions::default()
        };
        let err = decompose(&g, &cfg, &opts).unwrap_err();
        assert!(matches!(err, SimError::Oom(_)));
    }

    #[test]
    fn time_limit_reports_timeout() {
        let g = gen::erdos_renyi_gnm(2_000, 10_000, 2);
        let cfg = small_cfg();
        let opts = SimOptions {
            time_limit_ms: Some(1e-7),
            ..SimOptions::default()
        };
        let err = decompose(&g, &cfg, &opts).unwrap_err();
        assert!(matches!(err, SimError::TimeLimit { .. }));
    }

    #[test]
    fn report_is_populated() {
        let g = gen::erdos_renyi_gnm(500, 2_000, 3);
        let run = decompose(&g, &small_cfg(), &SimOptions::default()).unwrap();
        assert!(run.report.total_ms > 0.0);
        assert_eq!(run.report.launches as u32, 2 * run.rounds);
        assert!(run.report.peak_mem_bytes > 0);
        assert!(run.report.counters.global_atomics > 0);
    }

    /// `decompose` on a grid of `blocks` × `threads_per_block` must return
    /// the typed geometry error at rayon widths 1 and 2.
    fn assert_rejected(blocks: u32, threads_per_block: u32) {
        let launch = LaunchConfig {
            blocks,
            threads_per_block,
        };
        let g = gen::erdos_renyi_gnm(200, 600, 4);
        for width in [1usize, 2] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(width)
                .build()
                .unwrap();
            let cfg = small_cfg().with_launch(launch);
            let err = pool
                .install(|| decompose(&g, &cfg, &SimOptions::default()))
                .unwrap_err();
            assert_eq!(err, SimError::InvalidLaunch(launch), "width {width}");
        }
    }

    #[test]
    fn partial_warp_blocks_are_rejected() {
        assert_rejected(4, 48);
    }

    #[test]
    fn zero_thread_blocks_are_rejected() {
        assert_rejected(4, 0);
    }

    #[test]
    fn empty_grid_is_rejected() {
        assert_rejected(0, 128);
    }

    #[test]
    fn rounds_equal_kmax_plus_one_when_all_shells_nonempty() {
        // cycle: only shell 2 is non-empty, but rounds still run k=0,1,2
        let run = decompose(&gen::cycle(50), &small_cfg(), &SimOptions::default()).unwrap();
        assert_eq!(run.k_max, 2);
        assert_eq!(run.rounds, 3);
    }
}
