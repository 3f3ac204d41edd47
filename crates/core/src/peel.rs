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
};
use kcore_gpusim::{
    narrow_offsets, BlockCtx, BufferId, Counters, GpuContext, KernelError, LaunchConfig,
    SharedArray, SimError, SimOptions, SimReport, SizeClass, SHARED_CAPACITY_BYTES,
};
use kcore_graph::Csr;
use std::cell::OnceCell;
use std::sync::atomic::{AtomicU32, Ordering};

/// Result of a single-device decomposition run, whichever engine ran it.
#[derive(Debug, Clone)]
pub struct Run {
    /// Per-vertex core numbers.
    pub core: Vec<u32>,
    /// The engine's own iteration count: peel rounds (`k_max + 1`), MPM
    /// sweeps, BSP supersteps or frontier sub-iterations.
    pub iterations: u64,
    /// Simulated-time / traffic / memory report.
    pub report: SimReport,
}

impl Run {
    /// `max_v core(v)` (0 for an empty graph).
    pub fn k_max(&self) -> u32 {
        self.core.iter().copied().max().unwrap_or(0)
    }
}

/// The peel working set resident on one device: the graph arrays, the
/// per-block frontier buffers, and the `gpu_count` termination counter,
/// with the configuration every launch on them uses. The kernels read it
/// from their launch closures.
///
/// [`decompose_in`] owns one for the whole graph; the sharded engine
/// (`multi_gpu`) owns one per worker device holding that shard's local-ID
/// CSR. The launch helpers below ([`run_scan_loop`], [`run_loop_only`])
/// drive the same kernels either way.
pub(crate) struct DeviceState {
    pub(crate) cfg: PeelConfig,
    pub(crate) n: usize,
    pub(crate) cap: usize,
    pub(crate) d_offsets: BufferId,
    pub(crate) d_neighbors: BufferId,
    pub(crate) d_deg: BufferId,
    pub(crate) d_buf: BufferId,
    pub(crate) d_buf_e: BufferId,
    pub(crate) d_count: BufferId,
    /// Each block's scan charges when it finds no hit (prologue, sweep and
    /// epilogue), filled by the block's first scan launch; every scan
    /// merges them (see [`scan_kernel_fast`]).
    empty_scan: Vec<OnceCell<Counters>>,
    /// Host scratch of the hit pass: the round's k-shell, ascending.
    shell: Vec<u32>,
    /// The frontier the next launch hands each block: the scan's k-shell,
    /// or the sharded engine's border seeds.
    pub(crate) buckets: BlockBuckets,
}

/// Algorithm 1, lines 1–4: loads a CSR plus the working buffers onto
/// `ctx`'s device, its offsets narrowed by [`narrow_offsets`]. Allocation
/// names, order and size classes are part of the golden-trace contract —
/// do not reorder. A `cfg` whose loop block needs more shared memory than
/// a block has fails here, before any upload, with the error the first
/// loop launch would return (see [`check_loop_shared_mem`]).
pub(crate) fn load_device(
    ctx: &mut GpuContext,
    offsets: &[u64],
    neighbors: &[u32],
    degrees: &[u32],
    cfg: &PeelConfig,
) -> Result<DeviceState, SimError> {
    check_loop_shared_mem(cfg)?;
    let n = offsets.len() - 1;
    let offsets32 = narrow_offsets(offsets)?;
    // Algorithm 1, line 1: load G (offset / neighbors / deg) to the device.
    ctx.set_phase("Setup");
    ctx.set_workload_dims(n as u64, neighbors.len() as u64);
    let d_offsets = ctx.htod("offset", &offsets32, SizeClass::PerVertex)?;
    let d_neighbors = ctx.htod("neighbors", neighbors, SizeClass::PerArc)?;
    let d_deg = ctx.htod("deg", degrees, SizeClass::PerVertex)?;
    // Line 4: per-block buffers + the persisted buffer tails + gpu_count.
    // All three are sized by the launch configuration, not the graph, so
    // they extrapolate as `Fixed` (the forecast carries the configured
    // scratch capacity through unscaled).
    let blocks = cfg.launch.blocks as usize;
    let d_buf = ctx.alloc("buf", blocks * cfg.buf_capacity, SizeClass::Fixed)?;
    let d_buf_e = ctx.alloc("buf_e", blocks, SizeClass::Fixed)?;
    let d_count = ctx.alloc("gpu_count", 1, SizeClass::Fixed)?;
    Ok(DeviceState {
        cfg: *cfg,
        n,
        cap: cfg.buf_capacity,
        d_offsets,
        d_neighbors,
        d_deg,
        d_buf,
        d_buf_e,
        d_count,
        empty_scan: (0..blocks).map(|_| OnceCell::new()).collect(),
        shell: Vec::new(),
        buckets: BlockBuckets::default(),
    })
}

/// One peel round's device work: the hit pass, a launch of the scan kernel
/// it feeds, then a stepped launch of the loop kernel the scan feeds.
pub(crate) fn run_scan_loop(
    ctx: &mut GpuContext,
    k: u32,
    st: &mut DeviceState,
) -> Result<(), SimError> {
    let dev = &ctx.device;
    // SAFETY: no kernel runs between launches (they complete under
    // `&mut GpuContext`), and the views end before the scan launch.
    let (deg, offs, nbrs) = unsafe {
        (
            plain_words(dev.buffer(st.d_deg)),
            plain_words(dev.buffer(st.d_offsets)),
            plain_words(dev.buffer(st.d_neighbors)),
        )
    };
    find_k_shell(deg, k, &mut st.shell);
    // The loop kernel walks these vertices first.
    for &v in &st.shell {
        prefetch_adjacency(offs, nbrs, v);
    }
    st.buckets.fill(&st.shell, st.cfg.launch);
    let p = &*st;
    ctx.set_phase("Scan");
    ctx.launch("scan", p.cfg.launch, |blk| scan_kernel_fast(blk, p))?;
    run_loop_only(ctx, k, p)
}

/// A loop-only launch: consumes whatever frontier `buf`/`buf_e` already
/// hold. [`run_scan_loop`] ends with one; the sharded engine also runs it
/// alone for border-seed sub-rounds — re-scanning would re-process the
/// whole shard.
///
/// The loop kernel's blocks interact through `deg[]` while running
/// (cascading k-shell discovery), so it is a stepped launch: every wave
/// advances each live block by one barrier-delimited iteration, matching
/// concurrent hardware blocks. A block has work when its bucket does: the
/// scan (or the sharded engine's seed launch) has just written the
/// bucket's length to its `buf_e`, and a block whose buffer is empty only
/// adds 0 to `gpu_count` and leaves (Algorithm 3, line 5), so the launch
/// charges it without running it.
pub(crate) fn run_loop_only(ctx: &mut GpuContext, k: u32, p: &DeviceState) -> Result<(), SimError> {
    ctx.set_phase("Loop");
    ctx.launch_stepped(
        "loop",
        p.cfg.launch,
        |b| !p.buckets.block(b as usize).is_empty(),
        |blk| loop_init(blk, p),
        |blk, st| loop_step_fast(blk, st, k, p),
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
pub fn decompose(g: &Csr, cfg: &PeelConfig, opts: &SimOptions) -> Result<Run, SimError> {
    let mut ctx = opts.context();
    decompose_in(&mut ctx, g, cfg).map(|(core, rounds)| Run {
        core,
        iterations: rounds.into(),
        report: ctx.report(),
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
/// kernels as first written, charging every access one lane at a time),
/// which build and step every block of every launch. It is the
/// differential-testing oracle of the production kernels:
/// `tests/fastpath_diff.rs` requires the same core numbers, trace and
/// timeline bytes, and errors.
pub fn decompose_reference_in(
    ctx: &mut GpuContext,
    g: &Csr,
    cfg: &PeelConfig,
) -> Result<(Vec<u32>, u32), SimError> {
    peel_rounds(ctx, g, cfg, |ctx, k, p| {
        ctx.set_phase("Scan");
        ctx.launch("scan", p.cfg.launch, |blk| scan_kernel(blk, k, p))?;
        ctx.set_phase("Loop");
        ctx.launch_stepped(
            "loop",
            p.cfg.launch,
            |_| true,
            |blk| loop_init(blk, p),
            |blk, st| loop_step(blk, st, k, p),
        )
    })
}

/// Algorithm 1's host program, with `round` running one round's device work.
fn peel_rounds(
    ctx: &mut GpuContext,
    g: &Csr,
    cfg: &PeelConfig,
    round: impl Fn(&mut GpuContext, u32, &mut DeviceState) -> Result<(), SimError>,
) -> Result<(Vec<u32>, u32), SimError> {
    let n = g.num_vertices() as usize;
    if n == 0 {
        return Ok((Vec::new(), 0));
    }

    let mut st = load_device(ctx, g.offsets(), g.neighbor_array(), &g.degrees(), cfg)?;
    let mut count = 0u64;
    let mut k = 0u32;
    let mut rounds = 0u32;
    while (count as usize) < n {
        round(ctx, k, &mut st)?;
        // Algorithm 1 line 8: the synchronizing gpu_count readback.
        ctx.set_phase("Sync");
        let prev = count;
        count = ctx.dtoh(st.d_count, 0..1)?[0] as u64;
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
    let core = ctx.dtoh(st.d_deg, ..)?;
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

fn scan_kernel(blk: &mut BlockCtx<'_>, k: u32, p: &DeviceState) -> Result<(), KernelError> {
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

/// Vertices per k-shell mask of the hit pass (one `u64`).
const SHELL_CHUNK: usize = 64;

/// The hit pass: fills `shell` with every vertex `v` whose `degs[v]` is
/// `k`, ascending. It reads the degrees [`SHELL_CHUNK`] at a time into a
/// branch-free k-shell bit mask ([`eq_mask`]); only hits take the scalar
/// path. It runs between launches, on a plain-word view of `deg`, and
/// charges nothing: the scan kernel charges the sweep the device makes
/// (see [`scan_kernel_fast`]).
fn find_k_shell(degs: &[u32], k: u32, shell: &mut Vec<u32>) {
    shell.clear();
    let mut push_hits = |base: usize, mut mask: u64| {
        while mask != 0 {
            shell.push((base + mask.trailing_zeros() as usize) as u32);
            mask &= mask - 1;
        }
    };
    let mut chunks = degs.chunks_exact(SHELL_CHUNK);
    for (c, words) in chunks.by_ref().enumerate() {
        let words: &[u32; SHELL_CHUNK] = words.try_into().expect("exact chunk");
        push_hits(c * SHELL_CHUNK, eq_mask(words, k));
    }
    let rest = chunks.remainder();
    if !rest.is_empty() {
        // The short last chunk is padded with a value that is not `k`.
        let mut words = [!k; SHELL_CHUNK];
        words[..rest.len()].copy_from_slice(rest);
        push_hits(degs.len() - rest.len(), eq_mask(&words, k));
    }
}

/// Bit `i` is set iff `words[i] == k`. The any-hit reduction first
/// vectorizes to a few wide compares, and most chunks hold no hit; only a
/// chunk that does pays the bit pack.
#[inline]
fn eq_mask(words: &[u32; SHELL_CHUNK], k: u32) -> u64 {
    let mut hit = false;
    for &d in words {
        hit |= d == k;
    }
    if !hit {
        return 0;
    }
    let mut mask = 0u64;
    for (i, &d) in words.iter().enumerate() {
        mask |= ((d == k) as u64) << i;
    }
    mask
}

/// A vertex list bucketed by the block whose scan owns each vertex,
/// Algorithm 2's `(v / BLK_DIM) mod BLK_NUM`: the round's k-shell for the
/// scan kernel, or the sharded engine's border seeds for its seed launch.
/// The buckets keep their capacity across fills.
#[derive(Default)]
pub(crate) struct BlockBuckets(Vec<Vec<u32>>);

impl BlockBuckets {
    /// Buckets `vertices` for the blocks of `launch`, each bucket in list
    /// order. A geometry with no blocks or zero-width blocks, which every
    /// launch rejects, leaves no vertex in any bucket.
    pub(crate) fn fill(&mut self, vertices: &[u32], launch: LaunchConfig) {
        let (blocks, blk_dim) = (launch.blocks as usize, launch.threads_per_block as usize);
        self.0.resize_with(blocks, Vec::new);
        self.0.iter_mut().for_each(Vec::clear);
        if blocks > 0 && blk_dim > 0 {
            for &v in vertices {
                self.0[(v as usize / blk_dim) % blocks].push(v);
            }
        }
    }

    /// Block `b`'s vertices.
    pub(crate) fn block(&self, b: usize) -> &[u32] {
        &self.0[b]
    }
}

/// [`scan_kernel`] from the round's k-shell, which the hit pass found
/// ([`find_k_shell`]) and bucketed per block: the same buffer contents,
/// counters and errors (DESIGN.md "Fast-path cost accounting"). Block `b`
/// writes its `h` hits, ascending, to `buf[b][0..h]`, where every
/// variant's reference leaves them, and `h` to `buf_e[b]`, and fails as the
/// reference does exactly when `h > cap`. It charges what the block costs
/// with no hit ([`charge_empty_scan`], computed on the block's first scan
/// of `p` and cached) plus the batches, so a block without hits merges one
/// cached `Counters` and writes `buf_e[b] = 0`.
fn scan_kernel_fast(blk: &mut BlockCtx<'_>, p: &DeviceState) -> Result<(), KernelError> {
    let dev = blk.device;
    let b = blk.block_idx as usize;
    let empty = *p.empty_scan[b].get_or_init(|| {
        let outer = std::mem::take(&mut blk.counters);
        charge_empty_scan(blk, p);
        std::mem::replace(&mut blk.counters, outer)
    });
    blk.counters.merge(&empty);

    let mine = p.buckets.block(b);
    let h = mine.len();
    if h > p.cap {
        return Err(KernelError::BufferOverflow {
            what: format!("block {b}: scan filled buffer (capacity {})", p.cap),
        });
    }
    let bufb = &dev.buffer(p.d_buf)[b * p.cap..b * p.cap + h];
    for (slot, &v) in bufb.iter().zip(mine) {
        slot.store(v, Ordering::Relaxed);
    }
    match p.cfg.compaction {
        Compaction::None => {
            blk.counters.shared_atomics += h as u64; // atomicAdd(e, 1) per hit
            blk.charge_sector(h as u64);
        }
        Compaction::Ballot => charge_batches(blk, mine, 32),
        Compaction::Efficient => charge_batches(blk, mine, blk.cfg.threads_per_block),
    }
    // The tail's back-up, charged with the epilogue.
    dev.buffer(p.d_buf_e)[b].store(h as u32, Ordering::Relaxed);
    Ok(())
}

/// Charges what [`scan_kernel`] costs a block whatever `deg` holds, which
/// is all it costs a block that finds no hit. The prologue: thread 0 zeroes
/// the shared tail `e`, then a barrier. The sweep, per chunk: the coalesced
/// `deg` read and one compare per warp; under BC, per 32-lane window, the
/// Fig. 8(a) arrays in shared memory and a ballot scan; under EC, per
/// chunk, the same arrays and a two-stage scan. The epilogue: a barrier,
/// the read of `e` and its write to `buf_e`.
fn charge_empty_scan(blk: &mut BlockCtx<'_>, p: &DeviceState) {
    blk.counters.shared_accesses += 1;
    blk.sync_threads();
    let blk_dim = blk.cfg.threads_per_block as usize;
    let num_threads = blk.cfg.num_threads() as usize;
    let mut lo = blk.block_idx as usize * blk_dim;
    while lo < p.n {
        let words = ((lo + blk_dim).min(p.n) - lo) as u64;
        blk.charge_tx(BlockCtx::coalesced_tx(words));
        blk.charge_instr(words.div_ceil(32));
        match p.cfg.compaction {
            Compaction::None => {}
            Compaction::Ballot => {
                blk.counters.shared_accesses += 3 * words;
                for _ in 0..words.div_ceil(32) {
                    ballot_scan_offsets(blk, 0);
                }
            }
            Compaction::Efficient => {
                blk.counters.shared_accesses += 3 * words;
                block_two_stage_scan_charges(blk, blk_dim);
            }
        }
        lo += num_threads;
    }
    blk.sync_threads();
    blk.counters.shared_accesses += 1;
    blk.charge_sector(1);
}

/// Charges one `atomicAdd(e, total)` and one coalesced batch write per run
/// of ascending `hits` in the same `width`-vertex group (a ballot window or
/// a block chunk): the appends of the groups that found a hit.
fn charge_batches(blk: &mut BlockCtx<'_>, hits: &[u32], width: u32) {
    for batch in hits.chunk_by(|&a, &b| a / width == b / width) {
        blk.counters.shared_atomics += 1;
        blk.charge_tx(BlockCtx::coalesced_tx(batch.len() as u64));
    }
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

/// Words of VP's `pref[]`: one per fetch lane of warp 0.
const PREF_WORDS: usize = 31;

/// Fails, as the first loop block's [`loop_init`] would, when `cfg`'s loop
/// block needs more than [`SHARED_CAPACITY_BYTES`] of shared memory: the
/// two words of `s` and `e`, plus the SM buffer or VP's `pref[]`.
fn check_loop_shared_mem(cfg: &PeelConfig) -> Result<(), SimError> {
    let words = 2usize.saturating_add(match cfg.buffering {
        Buffering::Global => 0,
        Buffering::SharedMem => cfg.shared_buf_capacity,
        Buffering::Prefetch => PREF_WORDS,
    });
    let bytes = (words as u64).saturating_mul(4);
    if bytes > SHARED_CAPACITY_BYTES {
        return Err(SimError::Kernel(KernelError::SharedMemExceeded {
            requested_bytes: bytes - SHARED_CAPACITY_BYTES,
            capacity_bytes: SHARED_CAPACITY_BYTES,
        }));
    }
    Ok(())
}

/// Lines 1–2 of Algorithm 3: per-block setup (shared s/e, optional SM
/// buffer, optional VP pref array).
fn loop_init<'a>(blk: &mut BlockCtx<'a>, p: &DeviceState) -> Result<LoopState, KernelError> {
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
        Buffering::Prefetch => Some(blk.shared_alloc(PREF_WORDS)?),
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
    p: &DeviceState,
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
/// [`Appender`]) and each vertex's adjacency charged in bulk (see
/// [`process_vertex_fast`]). Blocks step one at a time in wave order, so
/// the launch-immutable `offset` and `neighbors` arrays are read as plain
/// words. A step that leaves entries in the block's global buffer
/// prefetches the adjacency of the vertex the next wave starts from
/// ([`prefetch_adjacency`]).
fn loop_step_fast(
    blk: &mut BlockCtx<'_>,
    st: &mut LoopState,
    k: u32,
    p: &DeviceState,
) -> Result<bool, KernelError> {
    let dev = blk.device;
    let deg = dev.buffer(p.d_deg);
    // SAFETY: no kernel writes `offset` or `neighbors`.
    let (offs, nbrs) = unsafe {
        (
            plain_words(dev.buffer(p.d_offsets)),
            plain_words(dev.buffer(p.d_neighbors)),
        )
    };
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
    // The block reaches its next vertex one wave later: start fetching its
    // adjacency now, while the other blocks step.
    let next = s + batch;
    if next < ap.e {
        let bc = &st.bc;
        if let Ok(Slot::Global(i)) = translate(next, bc.e_init, bc.n_b(), bc.cap, bc.ring) {
            prefetch_adjacency(offs, nbrs, bufb[i].load(Ordering::Relaxed));
        }
    }
    Ok(true)
}

/// A plain-word view of a device buffer: its loads are plain `mov`s the
/// compiler may vectorize and reorder.
///
/// # Safety
///
/// Nothing may write `buf` while the view lives: hold it between launches,
/// or inside a launch whose kernels never write `buf`.
unsafe fn plain_words(buf: &[AtomicU32]) -> &[u32] {
    // SAFETY: `AtomicU32` has the size, alignment and bit validity of
    // `u32`, and the caller rules out writes while the view lives.
    unsafe { std::slice::from_raw_parts(buf.as_ptr() as *const u32, buf.len()) }
}

/// Cache lines of an adjacency list [`prefetch_adjacency`] requests at most.
const PREFETCH_LINES: usize = 8;

/// Asks the CPU to start loading the first [`PREFETCH_LINES`] cache lines of
/// `v`'s adjacency list, which a block walks soon. It has no architectural
/// effect, so nothing is charged and no recorded quantity moves.
#[inline]
fn prefetch_adjacency(offs: &[u32], nbrs: &[u32], v: u32) {
    let (lo, hi) = (offs[v as usize] as usize, offs[v as usize + 1] as usize);
    // 16 words to a 64-byte line.
    for at in (lo..hi).step_by(16).take(PREFETCH_LINES) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `at < nbrs.len()`; a prefetch neither faults nor changes
        // memory, and SSE is baseline on x86_64.
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch::<_MM_HINT_T0>(nbrs.as_ptr().add(at) as *const i8);
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = (nbrs, at);
    }
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

/// Bulk-charged twin of [`process_vertex`]: the same decrements, appends,
/// counters and errors, with per-lane charges summed into bulk updates. The
/// recover branch (line 24) cannot fire while blocks step one at a time —
/// `deg[u]` cannot change between the probe and the decrement — matching
/// the reference wave loop, where it also never executes.
///
/// Each lane stores `old - (old > k)` to `deg[u]` unconditionally. Stepped
/// blocks run one at a time, so the store is exact: a lane that does not
/// decrement rewrites the value it just loaded, which no other block can
/// have changed (the sharded engine's drain still finds its ghost slots by
/// value). Only the decrements are counted as atomics, as in the reference.
///
/// Without compaction the whole list is one pass: the per-chunk charges
/// depend only on the degree `d`, so they are billed once — `⌈d/32⌉` chunks
/// of a `__syncwarp` and two index instructions, one coalesced transaction
/// each (`coalesced_tx` of 1 to 32 words is 1), and `d` probe sectors — and
/// a neighbor that reaches `k` is appended as the walk meets it, which is
/// the reference's order (lanes within a chunk, chunks in order). An append
/// writes the buffer, never `deg`, so appending before the chunk's later
/// decrements moves only the device state an overflow error leaves behind,
/// and a failed launch records nothing. BC and EC keep the chunk loop:
/// their ballot scan runs once per chunk, with the predicates packed as a
/// mask.
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
    if !warp_compact {
        let d = (pe - ps) as u64;
        let chunks = d.div_ceil(32);
        blk.charge_instr(3 * chunks); // line 15 sync + lines 16-18, per chunk
        blk.charge_tx(chunks); // line 19 neighbor reads
        blk.charge_sector(d); // line 20 deg probes
        let mut decs = 0u64;
        for &u in &nbrs[ps..pe] {
            let slot = &deg[u as usize];
            let old = slot.load(Ordering::Relaxed);
            let dec = (old > k) as u32;
            slot.store(old - dec, Ordering::Relaxed);
            decs += u64::from(dec);
            if old == k + 1 {
                append_fast(bc, ap, blk, bufb, &[u], false)?;
            }
        }
        blk.counters.global_atomics += decs;
        return Ok(());
    }
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
        let mut decs = 0u32;
        for (lane, &u) in ids.iter().enumerate() {
            let slot = &deg[u as usize];
            let old = slot.load(Ordering::Relaxed);
            let dec = (old > k) as u32;
            slot.store(old - dec, Ordering::Relaxed);
            decs += dec;
            bits |= ((old == k + 1) as u32) << lane;
        }
        blk.counters.global_atomics += u64::from(decs);

        blk.counters.shared_accesses += 3 * cnt;
        let (offs, total) = ballot_scan_offsets(blk, bits);
        if total > 0 {
            let mut batch = [0u32; 32];
            let mut m = 0usize;
            for (lane, &u) in ids.iter().enumerate() {
                if bits >> lane & 1 == 1 {
                    debug_assert_eq!(offs[lane] as usize, m);
                    batch[m] = u;
                    m += 1;
                }
            }
            append_fast(bc, ap, blk, bufb, &batch[..m], true)?;
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
        assert_eq!(run.k_max(), expect.iter().copied().max().unwrap_or(0));
    }

    #[test]
    fn fig1_basic() {
        let g = fig1_graph();
        let run = decompose(&g, &small_cfg(), &SimOptions::default()).unwrap();
        assert_eq!(run.core, fig1_core_numbers());
        assert_eq!(run.k_max(), 3);
        assert_eq!(run.iterations, 4); // k = 0..3
    }

    #[test]
    fn hit_pass_and_buckets_match_a_scalar_filter() {
        let geometries = [(1u32, 32u32), (3, 96), (4, 64), (108, 32)];
        let mut shell = Vec::new();
        let mut buckets = BlockBuckets::default();
        for n in [0usize, 1, 63, 64, 65, 1_000] {
            let mixed: Vec<u32> = (0..n as u32).map(|v| v * 7 % 5).collect();
            // k = 3 is absent from the first two, everywhere in the third.
            for degs in [vec![0; n], mixed, vec![3; n]] {
                find_k_shell(&degs, 3, &mut shell);
                let expect: Vec<u32> = (0..n as u32).filter(|&v| degs[v as usize] == 3).collect();
                assert_eq!(shell, expect, "n = {n}");
                for (blocks, threads_per_block) in geometries {
                    let launch = LaunchConfig {
                        blocks,
                        threads_per_block,
                    };
                    buckets.fill(&shell, launch);
                    for b in 0..blocks {
                        let owned: Vec<u32> = expect
                            .iter()
                            .copied()
                            .filter(|&v| (v / threads_per_block) % blocks == b)
                            .collect();
                        assert_eq!(buckets.block(b as usize), owned, "n = {n}, {launch:?}");
                    }
                }
            }
        }
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
        assert_eq!(run.iterations, 0);
        let run = decompose(&kcore_graph::Csr::empty(9), &cfg, &SimOptions::default()).unwrap();
        assert_eq!(run.core, vec![0; 9]);
        assert_eq!(run.iterations, 1); // everything removed in round k=0
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
        assert_eq!(run.report.launches, 2 * run.iterations);
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
        assert_eq!(run.k_max(), 2);
        assert_eq!(run.iterations, 3);
    }
}
