//! Batched dynamic k-core maintenance on the simulated GPU.
//!
//! Where [`crate::peel`] recomputes every core number from scratch, this
//! module *maintains* them under a stream of [`EdgeUpdate`] batches. It
//! keeps every vertex's MCD — its count of neighbors whose core is at least
//! its own — exact on the device, and uses it to confine each edge's
//! traversal to vertices that can change (DESIGN.md, "Dynamic
//! maintenance"). For an edge `{u, v}` with `K = min(core(u), core(v))`,
//! only core-`K` vertices can change, and by at most 1:
//!
//! * a deletion peels MCD directly from the core-`K` endpoints: a vertex
//!   whose MCD falls below `K` drops to `K − 1`, recounts its own MCD while
//!   its adjacency is walked, and takes one off the MCD of each neighbor
//!   still at `K`;
//! * an insertion first runs the PCD prune, which retires it when no
//!   endpoint can rise. Otherwise a search through core-`K` vertices whose
//!   MCD is above `K` gathers the candidates, an eviction cascade removes
//!   those left with at most `K` supporters, and the survivors rise to
//!   `K + 1` with their MCD set to their final support.
//!
//! Batches are *net-effect* processed: cores are a function of the final
//! graph only, so [`EdgeSet::classify`] rejects and nets each batch, and the
//! net deletes, then the net inserts, are walked one edge at a time. The
//! traversals are kernelized on [`kcore_gpusim`] with the same
//! block-granularity frontier buffers, ballot compaction and stepped wave
//! discipline as the peel kernels — traces are bit-identical at any rayon
//! pool size. Past [`DynamicConfig::crossover`] net updates the engine
//! falls back to a from-scratch [`peel::decompose_in`].

use crate::config::PeelConfig;
use crate::peel;
use kcore_gpusim::scan::ballot_scan_offsets;
use kcore_gpusim::{
    BlockCtx, BufferId, Coalescing, GpuContext, KernelError, LaunchConfig, SharedArray, SimError,
    SimOptions, SizeClass,
};
use kcore_graph::{Csr, EdgeSet, EdgeUpdate, NetBatch};
use std::sync::atomic::Ordering;

/// Tuning knobs of the dynamic engine.
#[derive(Debug, Clone)]
pub struct DynamicConfig {
    /// Kernel launch geometry for the traversal/counter kernels.
    pub launch: LaunchConfig,
    /// Net-update count at and above which the engine abandons maintenance
    /// and re-peels from scratch.
    pub crossover: usize,
    /// Spare adjacency slots per vertex in the device CSR; exhausting a
    /// vertex's slots triggers a full rebuild (counted in the report). The
    /// padded adjacency, arcs plus `slack` per vertex, must fit 32-bit
    /// indexing; a larger one is a [`SimError::InvalidConfig`].
    pub slack: u32,
    /// Configuration for the embedded from-scratch peel (initialisation and
    /// the crossover fallback).
    pub peel: PeelConfig,
}

impl Default for DynamicConfig {
    fn default() -> Self {
        DynamicConfig {
            launch: LaunchConfig {
                blocks: 8,
                threads_per_block: 128,
            },
            crossover: 4096,
            slack: 8,
            peel: PeelConfig::default(),
        }
    }
}

impl DynamicConfig {
    /// Derives the maintenance/re-peel crossover from measured costs: the
    /// smallest net-update count at which one from-scratch peel
    /// (`repeel_ms`) is no more expensive than per-edge maintenance at
    /// `per_update_ms` each — i.e. `ceil(repeel_ms / per_update_ms)`.
    ///
    /// Degenerate inputs keep the engine on a sane path: a non-positive
    /// `per_update_ms` (maintenance is free or unmeasured) disables the
    /// fallback (`usize::MAX`), a non-positive `repeel_ms` makes every
    /// non-empty batch re-peel (`1`).
    pub fn auto_crossover(repeel_ms: f64, per_update_ms: f64) -> usize {
        if per_update_ms <= 0.0 || !per_update_ms.is_finite() {
            return usize::MAX;
        }
        if repeel_ms <= 0.0 || !repeel_ms.is_finite() {
            return 1;
        }
        let ratio = (repeel_ms / per_update_ms).ceil();
        if ratio >= usize::MAX as f64 {
            usize::MAX
        } else {
            (ratio as usize).max(1)
        }
    }
}

/// Which path [`DynamicCore::apply_batch`] took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchPath {
    /// Every accepted update cancelled out (or none were accepted).
    Noop,
    /// Theorem-backed per-edge maintenance traversals.
    Maintained,
    /// Net updates reached [`DynamicConfig::crossover`]: from-scratch peel.
    Repeeled,
}

/// Per-batch outcome and work accounting.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// [`NetBatch::accepted_inserts`] of the batch.
    pub accepted_inserts: usize,
    /// [`NetBatch::accepted_deletes`] of the batch.
    pub accepted_deletes: usize,
    /// [`NetBatch::rejected`] of the batch.
    pub rejected: usize,
    /// Insertions surviving net-effect cancellation.
    pub net_inserts: usize,
    /// Deletions surviving net-effect cancellation.
    pub net_deletes: usize,
    /// The processing path taken.
    pub path: BatchPath,
    /// Vertices the batch's traversals examined. An insertion counts the
    /// candidates its search gathered. A deletion counts its core-`K`
    /// endpoints plus the MCD decrements its cascade issued, one per
    /// neighbor still at `K` when a dropped vertex is walked.
    pub candidates: u64,
    /// Total vertices whose core number changed.
    pub changed: u64,
    /// Insertions the PCD prune retired: their search seeds no candidate.
    pub pruned_inserts: usize,
    /// Lifetime adjacency rebuilds (slack exhaustion) so far.
    pub rebuilds: u64,
    /// Simulated milliseconds this batch cost.
    pub sim_ms: f64,
}

/// First changed-list slot of `dyn.result`, after the op's three counters.
const LIST: usize = 3;

/// Smallest per-block frontier buffer, in words. A block's buffer holds
/// `n.max(MIN_FRONTIER_WORDS)` words, which can never overflow because every
/// frontier is deduplicated.
const MIN_FRONTIER_WORDS: usize = 64;

/// Net updates staged per structural H2D copy (`dyn.batch` holds two words
/// each); a larger batch is processed in chunks of this many.
const BATCH_CAPACITY: usize = 1024;

/// Words of `dyn.result` an op copies back at once: the counters and the
/// first five changed vertices, one 32-byte sector. Any short copy costs
/// the same PCIe latency, and most ops change fewer vertices.
const RESULT_WINDOW: usize = 8;

/// Copyable bundle of everything the kernels need.
#[derive(Clone, Copy)]
struct DynParams {
    bufcap: usize,
    d_off: BufferId,
    d_len: BufferId,
    d_adj: BufferId,
    d_core: BufferId,
    d_mcd: BufferId,
    d_flag: BufferId,
    d_evic: BufferId,
    d_sup: BufferId,
    d_cand: BufferId,
    d_res: BufferId,
    d_buf: BufferId,
    d_batch: BufferId,
}

/// GPU-resident dynamically-maintained k-core decomposition.
///
/// Owns a [`GpuContext`]; the graph lives on the device as a slack-padded
/// CSR (`dyn.offset` / `dyn.len` / `dyn.adj`) beside the core numbers
/// (`dyn.core`) and MCD counters (`dyn.mcd`). A host [`EdgeSet`] mirror
/// classifies updates and rebuilds the padding when slack runs out.
pub struct DynamicCore {
    ctx: GpuContext,
    cfg: DynamicConfig,
    /// Host mirror, kept exactly in sync with the device CSR (up to
    /// within-list order, which the device's swap-remove deletes permute).
    graph: EdgeSet,
    core_host: Vec<u32>,
    /// Per-vertex device slot capacity (degree + slack at last build).
    cap: Vec<u32>,
    rebuilds: u64,
    p: DynParams,
}

impl DynamicCore {
    /// Builds the engine over `g`: runs a full on-device peel for the
    /// initial core numbers, uploads the padded CSR and derives the MCD
    /// counters with a device kernel.
    ///
    /// Returns [`SimError::InvalidConfig`] when the padded adjacency (arcs
    /// plus [`DynamicConfig::slack`] per vertex) exceeds 32-bit indexing.
    pub fn from_csr(opts: &SimOptions, g: &Csr, cfg: DynamicConfig) -> Result<Self, SimError> {
        let n = g.num_vertices() as usize;
        let mut ctx = opts.context();
        let (core_host, _rounds) = peel::decompose_in(&mut ctx, g, &cfg.peel)?;
        let graph = EdgeSet::from_csr(g);

        ctx.set_phase("DynInit");
        ctx.set_workload_dims(n as u64, g.num_arcs());
        let off = padded_offsets(&graph, cfg.slack.max(1))?;
        let (d_off, d_len, d_adj, cap) = upload_csr(&mut ctx, &graph, off)?;
        let pad = n.max(1);
        let core_padded: Vec<u32> = if n == 0 { vec![0] } else { core_host.clone() };
        let d_core = ctx.htod_tagged("dyn.core", &core_padded, SizeClass::PerVertex)?;
        let d_mcd = ctx.alloc_tagged("dyn.mcd", pad, SizeClass::PerVertex)?;
        let d_flag = ctx.alloc_tagged("dyn.flag", pad, SizeClass::PerVertex)?;
        let d_evic = ctx.alloc_tagged("dyn.evic", pad, SizeClass::PerVertex)?;
        let d_sup = ctx.alloc_tagged("dyn.sup", pad, SizeClass::PerVertex)?;
        let d_cand = ctx.alloc_tagged("dyn.cand", pad, SizeClass::PerVertex)?;
        let d_res = ctx.alloc_tagged("dyn.result", LIST + pad, SizeClass::PerVertex)?;
        let bufcap = n.max(MIN_FRONTIER_WORDS);
        let d_buf = ctx.alloc_tagged(
            "dyn.buf",
            cfg.launch.blocks as usize * bufcap,
            SizeClass::Fixed,
        )?;
        let d_batch = ctx.alloc_tagged("dyn.batch", 2 * BATCH_CAPACITY, SizeClass::Batch)?;

        let p = DynParams {
            bufcap,
            d_off,
            d_len,
            d_adj,
            d_core,
            d_mcd,
            d_flag,
            d_evic,
            d_sup,
            d_cand,
            d_res,
            d_buf,
            d_batch,
        };
        let mut this = DynamicCore {
            ctx,
            cfg,
            graph,
            core_host,
            cap,
            rebuilds: 0,
            p,
        };
        if n > 0 {
            this.ctx.set_phase("DynMcd");
            this.run_mcd_full()?;
        }
        Ok(this)
    }

    /// Applies one batch of updates and returns what happened.
    ///
    /// [`EdgeSet::classify`] checks and nets the batch on the host. The net
    /// updates are staged to the device in chunks of 1024 (one H2D copy
    /// each) and processed deletes first, each with its own theorem-backed
    /// traversal — or, past [`DynamicConfig::crossover`], by one
    /// from-scratch peel.
    pub fn apply_batch(&mut self, updates: &[EdgeUpdate]) -> Result<BatchReport, SimError> {
        let t0 = self.ctx.elapsed_ms();
        self.ctx.set_phase("DynClassify");
        let net = self.graph.classify(updates);
        let mut rep = BatchReport {
            accepted_inserts: net.accepted_inserts,
            accepted_deletes: net.accepted_deletes,
            rejected: net.rejected,
            net_inserts: net.inserts.len(),
            net_deletes: net.deletes.len(),
            path: BatchPath::Noop,
            candidates: 0,
            changed: 0,
            pruned_inserts: 0,
            rebuilds: self.rebuilds,
            sim_ms: 0.0,
        };
        let count = net.deletes.len() + net.inserts.len();
        if count == 0 {
            rep.path = BatchPath::Noop;
        } else if count >= self.cfg.crossover {
            rep.path = BatchPath::Repeeled;
            self.repeel(&net)?;
        } else {
            rep.path = BatchPath::Maintained;
            let all: Vec<(bool, u32, u32)> = net
                .deletes
                .iter()
                .map(|&(u, v)| (false, u, v))
                .chain(net.inserts.iter().map(|&(u, v)| (true, u, v)))
                .collect();
            for chunk in all.chunks(BATCH_CAPACITY) {
                self.ctx.set_phase("DynStruct");
                let words: Vec<u32> = chunk.iter().flat_map(|&(_, u, v)| [u, v]).collect();
                self.ctx.htod_into(self.p.d_batch, 0, &words)?;
                for (i, &(ins, u, v)) in chunk.iter().enumerate() {
                    if ins {
                        self.process_insert(i, u, v, &mut rep)?;
                    } else {
                        self.process_delete(i, u, v, &mut rep)?;
                    }
                }
            }
        }
        self.ctx.set_phase("DynSync");
        let (n, arcs) = (self.num_vertices() as u64, self.num_arcs());
        self.ctx.set_workload_dims(n, arcs);
        rep.rebuilds = self.rebuilds;
        rep.sim_ms = self.ctx.elapsed_ms() - t0;
        Ok(rep)
    }

    // -- accessors ----------------------------------------------------------

    /// Current core numbers (host mirror; equal to the device array).
    pub fn cores(&self) -> &[u32] {
        &self.core_host
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Number of directed arcs currently stored.
    pub fn num_arcs(&self) -> u64 {
        self.graph.num_arcs()
    }

    /// Lifetime adjacency rebuild count (slack exhaustion).
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// The owned simulation context (trace/report access).
    pub fn ctx(&self) -> &GpuContext {
        &self.ctx
    }

    /// Mutable context access (phase labelling around the engine).
    pub fn ctx_mut(&mut self) -> &mut GpuContext {
        &mut self.ctx
    }

    /// The engine's configuration.
    pub fn config(&self) -> &DynamicConfig {
        &self.cfg
    }

    /// Copies the device core array back (charged D2H). Differential tests
    /// use this to pin host mirror ≡ device state.
    pub fn device_cores(&mut self) -> Vec<u32> {
        let n = self.num_vertices();
        if n == 0 {
            return Vec::new();
        }
        // In bounds: `dyn.core` holds `n.max(1)` words for the engine's life.
        let cores = self.ctx.dtoh_range(self.p.d_core, 0, n);
        cores.expect("dyn.core holds n words")
    }

    /// Copies the device MCD array back (charged D2H).
    pub fn device_mcd(&mut self) -> Vec<u32> {
        let n = self.num_vertices();
        if n == 0 {
            return Vec::new();
        }
        // In bounds: `dyn.mcd` holds `n.max(1)` words for the engine's life.
        let mcd = self.ctx.dtoh_range(self.p.d_mcd, 0, n);
        mcd.expect("dyn.mcd holds n words")
    }

    // -- per-update processing ---------------------------------------------

    /// One net deletion: the structural kernel, then the MCD cascade from
    /// the core-`k` endpoints.
    fn process_delete(
        &mut self,
        i: usize,
        a: u32,
        b: u32,
        rep: &mut BatchReport,
    ) -> Result<(), SimError> {
        let k = self.core_host[a as usize].min(self.core_host[b as usize]);
        self.graph.remove(a, b);

        self.ctx.set_phase("DynStruct");
        let p = self.p;
        let one = self.one_block();
        self.ctx
            .launch("dyn_edge_del", one, |blk| k_edge(blk, &p, i, false))?;
        if k == 0 {
            // Core numbers of 0 cannot drop; the theorem confines all other
            // vertices (core > K = 0) to no change.
            return Ok(());
        }
        let roots = self.roots(a, b, k);
        self.ctx.set_phase("DynCascade");
        self.ctx.launch_stepped(
            "dyn_drop",
            self.cfg.launch,
            |blk| drop_init(blk, &p, &roots, k),
            |blk, st| drop_step(blk, st, &p, k),
        )?;
        let (decrements, _, dropped) = self.read_result()?;
        for &w in &dropped {
            self.core_host[w as usize] = k - 1;
        }
        rep.candidates += roots.len() as u64 + decrements;
        rep.changed += dropped.len() as u64;
        Ok(())
    }

    /// One net insertion: the structural kernel with the PCD prune, then
    /// the candidate search, the support kernel, the eviction cascade at
    /// threshold `k + 1` and the rise. The search of an insertion the prune
    /// retired seeds nothing, so the later kernels find no candidates; the
    /// host learns of the prune from the op's one result copy.
    fn process_insert(
        &mut self,
        i: usize,
        a: u32,
        b: u32,
        rep: &mut BatchReport,
    ) -> Result<(), SimError> {
        if self.graph.degree(a) == self.cap[a as usize]
            || self.graph.degree(b) == self.cap[b as usize]
        {
            self.rebuilds += 1;
            self.rebuild_adjacency()?;
        }
        let k = self.core_host[a as usize].min(self.core_host[b as usize]);
        self.graph.insert(a, b);

        self.ctx.set_phase("DynStruct");
        let p = self.p;
        let one = self.one_block();
        self.ctx
            .launch("dyn_edge_ins", one, |blk| k_edge(blk, &p, i, true))?;
        let roots = self.roots(a, b, k);
        self.ctx.set_phase("DynSubcore");
        self.ctx.launch_stepped(
            "dyn_subcore",
            self.cfg.launch,
            |blk| bfs_init(blk, &p, &roots, k),
            |blk, st| bfs_step(blk, st, &p, k),
        )?;
        self.ctx.set_phase("DynSupport");
        self.ctx
            .launch("dyn_support", self.cfg.launch, |blk| k_support(blk, &p, k))?;
        self.ctx.set_phase("DynCascade");
        self.ctx.launch_stepped(
            "dyn_cascade",
            self.cfg.launch,
            |blk| casc_init(blk, &p, k + 1),
            |blk, st| casc_step(blk, st, &p, k + 1),
        )?;
        self.ctx.set_phase("DynRise");
        self.ctx.launch_stepped(
            "dyn_rise",
            self.cfg.launch,
            |blk| rise_init(blk, &p, k),
            |blk, _| rise_clear(blk, &p),
        )?;
        let (cand_n, may_rise, risen) = self.read_result()?;
        if !may_rise {
            rep.pruned_inserts += 1;
        }
        for &w in &risen {
            self.core_host[w as usize] = k + 1;
        }
        rep.candidates += cand_n;
        rep.changed += risen.len() as u64;
        Ok(())
    }

    /// The endpoints of `{a, b}` whose core is `k`, the traversal roots.
    fn roots(&self, a: u32, b: u32, k: u32) -> Vec<u32> {
        [a, b]
            .into_iter()
            .filter(|&w| self.core_host[w as usize] == k)
            .collect()
    }

    /// One block of the configured width: the structural kernel's grid.
    fn one_block(&self) -> LaunchConfig {
        LaunchConfig {
            blocks: 1,
            threads_per_block: self.cfg.launch.threads_per_block,
        }
    }

    /// Reads an op's result back: one copy brings the counters and the
    /// head of the changed list, and only a list longer than the window
    /// needs a second. Returns the work tally, the prune flag and the
    /// changed list.
    fn read_result(&mut self) -> Result<(u64, bool, Vec<u32>), SimError> {
        self.ctx.set_phase("DynResult");
        let len = self.ctx.device.len(self.p.d_res);
        let mut res = self
            .ctx
            .dtoh_range(self.p.d_res, 0, RESULT_WINDOW.min(len))?;
        let end = LIST + res[1] as usize;
        if end > res.len() {
            let head = res.len();
            res.extend(self.ctx.dtoh_range(self.p.d_res, head, end)?);
        }
        Ok((u64::from(res[0]), res[2] != 0, res[LIST..end].to_vec()))
    }

    /// Crossover fallback: apply the net updates to the mirror, re-peel the
    /// whole graph on-device, rebuild the padded CSR and refresh every MCD.
    fn repeel(&mut self, net: &NetBatch) -> Result<(), SimError> {
        self.graph.apply(net);
        self.ctx.set_phase("DynRepeel");
        let csr = self.graph.to_csr();
        let (core, _rounds) = peel::decompose_in(&mut self.ctx, &csr, &self.cfg.peel)?;
        self.core_host = core;
        self.ctx.set_phase("DynRepeel");
        self.rebuild_adjacency()?;
        if self.num_vertices() > 0 {
            self.ctx.htod_into(self.p.d_core, 0, &self.core_host)?;
            self.ctx.set_phase("DynMcd");
            self.run_mcd_full()?;
        }
        Ok(())
    }

    fn run_mcd_full(&mut self) -> Result<(), SimError> {
        let p = self.p;
        let count = self.num_vertices();
        self.ctx
            .launch("dyn_mcd", self.cfg.launch, move |blk| k_mcd(blk, &p, count))
    }

    /// Frees and re-uploads the padded device CSR from the mirror with fresh
    /// slack. Core/MCD/flag buffers are untouched. The layout is checked
    /// before anything is freed, so an oversized one leaves the engine as
    /// it was.
    fn rebuild_adjacency(&mut self) -> Result<(), SimError> {
        let off = padded_offsets(&self.graph, self.cfg.slack.max(1))?;
        self.ctx.device.free(self.p.d_adj);
        self.ctx.device.free(self.p.d_len);
        self.ctx.device.free(self.p.d_off);
        let (d_off, d_len, d_adj, cap) = upload_csr(&mut self.ctx, &self.graph, off)?;
        self.p.d_off = d_off;
        self.p.d_len = d_len;
        self.p.d_adj = d_adj;
        self.cap = cap;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Device CSR layout
// ---------------------------------------------------------------------------

/// Slot offsets of the slack-padded device CSR: vertex `v` owns
/// `deg(v) + slack` slots from `off[v]`. Summed in `u64`; a total beyond
/// 32-bit indexing is a [`SimError::InvalidConfig`].
fn padded_offsets(graph: &EdgeSet, slack: u32) -> Result<Vec<u32>, SimError> {
    let n = graph.num_vertices();
    let mut off: Vec<u32> = Vec::with_capacity(n + 1);
    let mut cur = 0u64;
    off.push(0);
    for v in 0..n as u32 {
        cur += u64::from(graph.degree(v)) + u64::from(slack);
        let Ok(o) = u32::try_from(cur) else {
            return Err(SimError::InvalidConfig {
                what: "dynamic adjacency slots (arcs plus slack per vertex)",
                value: graph.num_arcs() as f64 + n as f64 * f64::from(slack),
                need: "at most 2^32 - 1 slots in total",
            });
        };
        off.push(o);
    }
    Ok(off)
}

/// Uploads the slack-padded device CSR laid out by `off`: live length in
/// `dyn.len`, unused pad slots zeroed. Returns the three buffers plus the
/// per-vertex capacity.
fn upload_csr(
    ctx: &mut GpuContext,
    graph: &EdgeSet,
    off: Vec<u32>,
) -> Result<(BufferId, BufferId, BufferId, Vec<u32>), SimError> {
    let n = graph.num_vertices();
    let cap: Vec<u32> = off.windows(2).map(|w| w[1] - w[0]).collect();
    let mut len: Vec<u32> = (0..n as u32).map(|v| graph.degree(v)).collect();
    if len.is_empty() {
        len.push(0);
    }
    let mut flat = vec![0u32; (off[n] as usize).max(1)];
    for v in 0..n as u32 {
        let (o, l) = (off[v as usize] as usize, graph.neighbors(v));
        flat[o..o + l.len()].copy_from_slice(l);
    }
    let d_off = ctx.htod_tagged("dyn.offset", &off, SizeClass::PerVertex)?;
    let d_len = ctx.htod_tagged("dyn.len", &len, SizeClass::PerVertex)?;
    let d_adj = ctx.htod_tagged("dyn.adj", &flat, SizeClass::PerArc)?;
    Ok((d_off, d_len, d_adj, cap))
}

// ---------------------------------------------------------------------------
// Kernels
// ---------------------------------------------------------------------------
//
// `dyn.result` holds one op's result: [0] the traversal's work tally (the
// insertion candidate cursor, or the deletion cascade's MCD decrements),
// [1] the changed-list cursor, [2] the insertion's PCD prune flag, and the
// changed list from [LIST]. The op's structural kernel resets the three
// counters.
//
// Determinism discipline:
//
// * plain `launch` kernels (`k_mcd`, `k_support` and the one-block
//   `k_edge`) only perform block-disjoint writes — no shared atomic
//   cursors across concurrent blocks;
// * list compaction (candidate / changed cursors) and the deletion's MCD
//   decrement tally happen only on serial lanes: the stepped launches'
//   init (block order) and steps (one block at a time, in wave order);
// * the rise kernel's MCD increments land on other blocks' vertices. They
//   are commutative atomic adds to non-candidates, whose MCD nothing else
//   writes in that launch, so every block order gives the same counts;
// * the deletion cascade decrements a vertex's MCD only while it is still
//   at `K`. The decrement that returns exactly `K` drops it, so exactly
//   one walker drops it, and its recount comes in a later wave.

/// Walks `v`'s live adjacency in 32-lane warp chunks. Per chunk it charges
/// one warp sync, the coalesced read of the neighbor ids, one gather of
/// each buffer in `gathered` (at most two) and one instruction; `f` gets the
/// chunk's neighbor ids and the gathered words, `words[g][t]` for buffer
/// `g` and lane `t`.
fn scan_neighbors(
    blk: &mut BlockCtx<'_>,
    p: &DynParams,
    v: usize,
    gathered: &[BufferId],
    mut f: impl FnMut(&mut BlockCtx<'_>, &[usize], &[[u32; 32]; 2]),
) {
    let dev = blk.device;
    let off = dev.buffer(p.d_off);
    let lenb = dev.buffer(p.d_len);
    let adjb = dev.buffer(p.d_adj);
    blk.charge_sector(2); // off[v] + len[v] (distinct arrays)
    let o = off[v].load(Ordering::Relaxed) as usize;
    let oe = o + lenb[v].load(Ordering::Relaxed) as usize;
    let mut chunk = o;
    while chunk < oe {
        let cend = (chunk + 32).min(oe);
        blk.sync_warp();
        blk.charge_tx(BlockCtx::coalesced_tx((cend - chunk) as u64));
        let idxs: Vec<usize> = (chunk..cend)
            .map(|j| adjb[j].load(Ordering::Relaxed) as usize)
            .collect();
        let mut words = [[0u32; 32]; 2];
        for (out, &buf) in words.iter_mut().zip(gathered) {
            blk.gather(dev.buffer(buf), &idxs, out, Coalescing::Classified);
        }
        f(blk, &idxs, &words);
        blk.charge_instr(1);
        chunk = cend;
    }
}

/// MCD counter kernel, vertex `i` striped over blocks:
/// `mcd(v) = |{u ∈ N(v) : core(u) >= core(v)}|`.
fn k_mcd(blk: &mut BlockCtx<'_>, p: &DynParams, count: usize) -> Result<(), KernelError> {
    let dev = blk.device;
    let core = dev.buffer(p.d_core);
    let mcd = dev.buffer(p.d_mcd);
    let blocks = blk.cfg.blocks as usize;
    let mut v = blk.block_idx as usize;
    while v < count {
        let cv = blk.gread(&core[v]);
        let mut m = 0u32;
        scan_neighbors(blk, p, v, &[p.d_core], |_, idxs, w| {
            m += w[0][..idxs.len()].iter().filter(|&&c| c >= cv).count() as u32;
        });
        blk.gwrite(&mcd[v], m);
        v += blocks;
    }
    Ok(())
}

/// Structural edge kernel (one block): resets the op's counters, reads op
/// `i`'s `[u, v]` from the staging buffer, splices both adjacency
/// directions (append for insert, swap-remove for delete) and applies the
/// endpoint MCD deltas against the current cores.
///
/// An insertion then runs the PCD prune against the new structure: for
/// each root `r` (an endpoint of core `K = min(core(u), core(v))`),
/// `pcd(r) = |{x ∈ N(r) : core(x) > K ∨ (core(x) == K ∧ mcd(x) > K)}|`,
/// and `result[2]` is raised if some root has `pcd > K`. If none does, no
/// core number can rise and the insertion retires without a traversal.
fn k_edge(
    blk: &mut BlockCtx<'_>,
    p: &DynParams,
    i: usize,
    insert: bool,
) -> Result<(), KernelError> {
    let dev = blk.device;
    let batch = dev.buffer(p.d_batch);
    let off = dev.buffer(p.d_off);
    let lenb = dev.buffer(p.d_len);
    let adjb = dev.buffer(p.d_adj);
    let core = dev.buffer(p.d_core);
    let mcd = dev.buffer(p.d_mcd);
    let res = dev.buffer(p.d_res);
    for m in &res[..LIST] {
        blk.gwrite(m, 0);
    }
    blk.charge_sector(1); // the op's adjacent [u, v] pair
    let u = batch[2 * i].load(Ordering::Relaxed);
    let v = batch[2 * i + 1].load(Ordering::Relaxed);
    let cu = blk.gread(&core[u as usize]);
    let cv = blk.gread(&core[v as usize]);
    for &(a, b, ca, cb) in &[(u, v, cu, cv), (v, u, cv, cu)] {
        let a = a as usize;
        blk.charge_sector(2); // off[a] + len[a]
        let o = off[a].load(Ordering::Relaxed) as usize;
        let l = lenb[a].load(Ordering::Relaxed) as usize;
        if insert {
            blk.gwrite(&adjb[o + l], b);
            blk.gwrite(&lenb[a], l as u32 + 1);
        } else {
            // Linear probe for `b`, 32-lane chunks, early exit per chunk.
            let mut found = usize::MAX;
            let mut chunk = o;
            let oe = o + l;
            while chunk < oe {
                let cend = (chunk + 32).min(oe);
                blk.sync_warp();
                blk.charge_tx(BlockCtx::coalesced_tx((cend - chunk) as u64));
                blk.charge_instr(1);
                for j in chunk..cend {
                    if adjb[j].load(Ordering::Relaxed) == b {
                        found = j;
                    }
                }
                if found != usize::MAX {
                    break;
                }
                chunk = cend;
            }
            assert!(found != usize::MAX, "delete of edge absent on device");
            let last = o + l - 1;
            if found != last {
                let w = blk.gread(&adjb[last]);
                blk.gwrite(&adjb[found], w);
            }
            blk.gwrite(&lenb[a], l as u32 - 1);
        }
        // Endpoint MCD delta: b (dis)appears in N(a) and counts iff
        // core(b) >= core(a).
        if cb >= ca {
            if insert {
                blk.atomic_add(&mcd[a], 1);
            } else {
                blk.atomic_sub(&mcd[a], 1);
            }
        }
    }
    if insert {
        let k = cu.min(cv);
        for (r, _) in [(u, cu), (v, cv)].into_iter().filter(|&(_, c)| c == k) {
            let mut pcd = 0u32;
            scan_neighbors(blk, p, r as usize, &[p.d_core, p.d_mcd], |_, idxs, w| {
                pcd += (0..idxs.len())
                    .filter(|&t| w[0][t] > k || (w[0][t] == k && w[1][t] > k))
                    .count() as u32;
            });
            if pcd > k {
                blk.gwrite(&res[2], 1);
            }
        }
    }
    Ok(())
}

/// Per-block state of the stepped traversal kernels.
struct TravState {
    /// Shared `[s, e]`: the block's frontier window in `dyn.buf`.
    se: SharedArray,
    /// MCD decrements this block has issued (the deletion cascade's tally).
    decrements: u32,
}

impl TravState {
    /// Publishes a frontier of `e` seeds (init lane).
    fn new(blk: &mut BlockCtx<'_>, e: u32) -> Result<TravState, KernelError> {
        let se = blk.shared_alloc(2)?;
        blk.sh_write(se, 0, 0);
        blk.sh_write(se, 1, e);
        Ok(TravState { se, decrements: 0 })
    }
}

fn overflow(b: u32, what: &str, cap: usize) -> KernelError {
    KernelError::BufferOverflow {
        what: format!("block {b}: {what} frontier exceeds capacity {cap}"),
    }
}

/// Appends `v` to this block's frontier at slot `*e` (init lane).
fn seed(
    blk: &mut BlockCtx<'_>,
    p: &DynParams,
    e: &mut u32,
    v: usize,
    what: &str,
) -> Result<(), KernelError> {
    if *e as usize >= p.bufcap {
        return Err(overflow(blk.block_idx, what, p.bufcap));
    }
    let dev = blk.device;
    let slot = blk.block_idx as usize * p.bufcap + *e as usize;
    blk.gwrite(&dev.buffer(p.d_buf)[slot], v as u32);
    *e += 1;
    Ok(())
}

/// Appends `x` to the changed list (cursor `result[1]`).
fn note_changed(blk: &mut BlockCtx<'_>, p: &DynParams, x: usize) {
    let res = blk.device.buffer(p.d_res);
    let slot = LIST + blk.atomic_add(&res[1], 1) as usize;
    blk.gwrite(&res[slot], x as u32);
}

/// One wave of a stepped traversal, shared by the deletion cascade, the
/// insertion search and the eviction cascade: each warp takes one frontier
/// vertex and walks its adjacency in 32-neighbor chunks, gathering
/// `gathered[x]` for every neighbor `x` and ballot-compacting the neighbors
/// whose word satisfies `pick`. `visit` handles each compacted neighbor and
/// its word in order and returns whether it joins this block's frontier
/// (overflow reported as `what`). With `count_into`, each walked vertex's
/// count of picked neighbors is written there. Returns `false` once the
/// frontier has drained.
///
/// A neighbor appears once per adjacency list and its word is gathered
/// just before its chunk is visited, so `visit` sees its current word even
/// when visits rewrite `gathered` (the deletion cascade lowers the cores it
/// gathers). Appends land past the frontier's tail, so reads and writes
/// may interleave in any order.
#[allow(clippy::too_many_arguments)]
fn walk_wave(
    blk: &mut BlockCtx<'_>,
    st: &mut TravState,
    p: &DynParams,
    gathered: BufferId,
    pick: impl Fn(u32) -> bool,
    count_into: Option<BufferId>,
    what: &str,
    mut visit: impl FnMut(&mut BlockCtx<'_>, usize, u32) -> Result<bool, KernelError>,
) -> Result<bool, KernelError> {
    let dev = blk.device;
    let b = blk.block_idx as usize;
    let bufb = &dev.buffer(p.d_buf)[b * p.bufcap..(b + 1) * p.bufcap];
    let off = dev.buffer(p.d_off);
    let lenb = dev.buffer(p.d_len);
    let adjb = dev.buffer(p.d_adj);
    let words = dev.buffer(gathered);

    blk.sync_threads();
    let s = blk.sh_read(st.se, 0) as u64;
    let mut e = blk.sh_read(st.se, 1) as u64;
    if s == e {
        blk.sync_threads();
        return Ok(false);
    }
    let warps = blk.num_warps() as u64;
    let batch = warps.min(e - s);
    blk.sync_threads();
    blk.charge_instr(warps);
    for w in 0..batch {
        let v = blk.gread_dependent(&bufb[(s + w) as usize]) as usize;
        blk.charge_sector(2);
        let o = off[v].load(Ordering::Relaxed) as usize;
        let l = lenb[v].load(Ordering::Relaxed) as usize;
        let mut picked = 0u32;
        let mut chunk = o;
        let oe = o + l;
        while chunk < oe {
            let cend = (chunk + 32).min(oe);
            let cnt = cend - chunk;
            blk.sync_warp();
            blk.charge_tx(BlockCtx::coalesced_tx(cnt as u64));
            let idxs: Vec<usize> = (chunk..cend)
                .map(|j| adjb[j].load(Ordering::Relaxed) as usize)
                .collect();
            let mut vals = [0u32; 32];
            blk.gather(words, &idxs, &mut vals, Coalescing::Classified);
            let mut bits = 0u32;
            for t in 0..cnt {
                if pick(vals[t]) {
                    bits |= 1 << t;
                }
            }
            let (_offs, total) = ballot_scan_offsets(blk, bits);
            picked += total;
            if total > 0 {
                for t in 0..cnt {
                    if bits >> t & 1 == 1 && visit(blk, idxs[t], vals[t])? {
                        if e as usize >= p.bufcap {
                            return Err(overflow(blk.block_idx, what, p.bufcap));
                        }
                        blk.gwrite(&bufb[e as usize], idxs[t] as u32);
                        e += 1;
                    }
                }
            }
            chunk = cend;
        }
        if let Some(buf) = count_into {
            blk.gwrite(&dev.buffer(buf)[v], picked);
        }
    }
    blk.sh_poke(st.se, 1, e as u32);
    blk.sh_write(st.se, 0, (s + batch) as u32);
    Ok(true)
}

/// Drops `x` from core `k` to `k − 1` and notes it as changed.
fn drop_vertex(blk: &mut BlockCtx<'_>, p: &DynParams, x: usize, k: u32) {
    let dev = blk.device;
    blk.gwrite(&dev.buffer(p.d_core)[x], k - 1);
    note_changed(blk, p, x);
}

/// Deletion cascade, init (block order): stripes the roots over blocks. A
/// root whose MCD, already net of the deleted edge, is below `k` has too
/// few neighbors left at core `>= k`: it drops and seeds this block's
/// frontier.
fn drop_init(
    blk: &mut BlockCtx<'_>,
    p: &DynParams,
    roots: &[u32],
    k: u32,
) -> Result<TravState, KernelError> {
    let dev = blk.device;
    let mcd = dev.buffer(p.d_mcd);
    let b = blk.block_idx as usize;
    let blocks = blk.cfg.blocks as usize;
    let mut e = 0u32;
    for (idx, &r) in roots.iter().enumerate() {
        let r = r as usize;
        if idx % blocks == b && blk.gread(&mcd[r]) < k {
            drop_vertex(blk, p, r, k);
            seed(blk, p, &mut e, r, "cascade")?;
        }
    }
    TravState::new(blk, e)
}

/// Deletion cascade, one wave: walks each dropped vertex's neighbors of
/// core `>= k − 1`. Their count is the vertex's new MCD, since a
/// neighbor's core only moves from `k` to `k − 1` meanwhile. Each neighbor
/// still at `k` loses one MCD, as the walked vertex no longer counts for
/// it; a decrement from exactly `k` drops that neighbor too. A core-`k`
/// vertex's MCD stays at least `k` until it drops, so no decrement
/// underflows. When the block retires it adds its decrements to
/// `result[0]`.
fn drop_step(
    blk: &mut BlockCtx<'_>,
    st: &mut TravState,
    p: &DynParams,
    k: u32,
) -> Result<bool, KernelError> {
    let dev = blk.device;
    let mcd = dev.buffer(p.d_mcd);
    let mut decrements = 0u32;
    let more = walk_wave(
        blk,
        st,
        p,
        p.d_core,
        |c| c + 1 >= k,
        Some(p.d_mcd),
        "cascade",
        |blk, x, c| {
            if c != k {
                return Ok(false);
            }
            decrements += 1;
            let old = blk.atomic_sub(&mcd[x], 1);
            debug_assert!(old >= k, "MCD underflow on a core-k vertex");
            if old != k {
                return Ok(false);
            }
            drop_vertex(blk, p, x, k);
            Ok(true)
        },
    )?;
    st.decrements += decrements;
    if !more && st.decrements > 0 {
        blk.atomic_add(&dev.buffer(p.d_res)[0], st.decrements);
    }
    Ok(more)
}

/// Makes `x` an insertion candidate if it can rise — its MCD is above `k`
/// — and this visit flags it first: appends it to the candidate list
/// (cursor `result[0]`).
fn claim(blk: &mut BlockCtx<'_>, p: &DynParams, x: usize, k: u32) -> bool {
    let dev = blk.device;
    if blk.gread(&dev.buffer(p.d_mcd)[x]) <= k || blk.atomic_add(&dev.buffer(p.d_flag)[x], 1) != 0 {
        return false;
    }
    let slot = blk.atomic_add(&dev.buffer(p.d_res)[0], 1) as usize;
    blk.gwrite(&dev.buffer(p.d_cand)[slot], x as u32);
    true
}

/// Insertion search, init (block order): stripes the roots over blocks and
/// seeds this block's frontier with each root it claims — none if the PCD
/// prune retired the insertion (`result[2] == 0`).
fn bfs_init(
    blk: &mut BlockCtx<'_>,
    p: &DynParams,
    roots: &[u32],
    k: u32,
) -> Result<TravState, KernelError> {
    let res = blk.device.buffer(p.d_res);
    let b = blk.block_idx as usize;
    let blocks = blk.cfg.blocks as usize;
    let mut e = 0u32;
    for (idx, &r) in roots.iter().enumerate() {
        if idx % blocks == b && blk.gread(&res[2]) != 0 && claim(blk, p, r as usize, k) {
            seed(blk, p, &mut e, r as usize, "subcore")?;
        }
    }
    TravState::new(blk, e)
}

/// Insertion search, one wave: walks the frontier's core-`k` neighbors and
/// claims each one that can rise. Nothing rising is missed: a vertex that
/// rises has more than `k` neighbors of core `>= k`, and risen vertices
/// reach a root through other risen vertices.
fn bfs_step(
    blk: &mut BlockCtx<'_>,
    st: &mut TravState,
    p: &DynParams,
    k: u32,
) -> Result<bool, KernelError> {
    walk_wave(
        blk,
        st,
        p,
        p.d_core,
        |c| c == k,
        None,
        "subcore",
        |blk, x, _| Ok(claim(blk, p, x, k)),
    )
}

/// Support kernel (insertions): for each of the `result[0]` candidates `v`,
/// `sup[v] = |{x ∈ N(v) : core(x) > k ∨ flag(x)}|` — supporters either
/// already above `k` or fellow candidates. Plain launch: `flag` is
/// immutable here, writes are block-disjoint.
fn k_support(blk: &mut BlockCtx<'_>, p: &DynParams, k: u32) -> Result<(), KernelError> {
    let dev = blk.device;
    let sup = dev.buffer(p.d_sup);
    let cand = dev.buffer(p.d_cand);
    let cand_n = blk.gread(&dev.buffer(p.d_res)[0]) as usize;
    let blocks = blk.cfg.blocks as usize;
    let mut i = blk.block_idx as usize;
    while i < cand_n {
        let v = blk.gread(&cand[i]) as usize;
        let mut m = 0u32;
        scan_neighbors(blk, p, v, &[p.d_core, p.d_flag], |_, idxs, w| {
            m += (0..idxs.len())
                .filter(|&t| w[0][t] > k || w[1][t] != 0)
                .count() as u32;
        });
        blk.gwrite(&sup[v], m);
        i += blocks;
    }
    Ok(())
}

/// Eviction cascade, init (block order): stripes the candidate list over
/// blocks and immediately evicts every candidate whose support is already
/// below `thresh`, seeding this block's frontier with it.
fn casc_init(blk: &mut BlockCtx<'_>, p: &DynParams, thresh: u32) -> Result<TravState, KernelError> {
    let dev = blk.device;
    let cand = dev.buffer(p.d_cand);
    let sup = dev.buffer(p.d_sup);
    let evic = dev.buffer(p.d_evic);
    let blocks = blk.cfg.blocks as usize;
    let cand_n = blk.gread(&dev.buffer(p.d_res)[0]) as usize;
    let mut e = 0u32;
    let mut i = blk.block_idx as usize;
    while i < cand_n {
        let v = blk.gread(&cand[i]) as usize;
        if blk.gread(&sup[v]) < thresh {
            blk.gwrite(&evic[v], 1);
            seed(blk, p, &mut e, v, "cascade")?;
        }
        i += blocks;
    }
    TravState::new(blk, e)
}

/// Eviction cascade, one wave: walks the evicted frontier's neighbors
/// inside the candidate set (`flag`) and decrements each un-evicted one's
/// support; a decrement from exactly `thresh` evicts it too. An
/// un-evicted candidate always has `sup >= thresh >= 1`, so the decrement
/// cannot underflow.
fn casc_step(
    blk: &mut BlockCtx<'_>,
    st: &mut TravState,
    p: &DynParams,
    thresh: u32,
) -> Result<bool, KernelError> {
    let dev = blk.device;
    let sup = dev.buffer(p.d_sup);
    let evic = dev.buffer(p.d_evic);
    walk_wave(
        blk,
        st,
        p,
        p.d_flag,
        |f| f != 0,
        None,
        "cascade",
        |blk, x, _| {
            if blk.gread(&evic[x]) != 0 {
                return Ok(false);
            }
            let old = blk.atomic_sub(&sup[x], 1);
            debug_assert!(old >= thresh, "support underflow on un-evicted candidate");
            if old != thresh {
                return Ok(false);
            }
            blk.gwrite(&evic[x], 1);
            Ok(true)
        },
    )
}

/// Rise kernel, init (block order): stripes the candidates over blocks.
/// Each survivor (never evicted) rises to `k + 1` and is noted as changed.
/// Its MCD becomes its final support: its neighbors of core `> k` plus its
/// surviving fellow candidates. It now counts for each non-candidate
/// neighbor already at `k + 1`, which gains one MCD; no other MCD moves.
/// Candidate flags stay set until every block's init has run, so the
/// neighbor test never mistakes a survivor risen in an earlier block for
/// a non-candidate.
fn rise_init(blk: &mut BlockCtx<'_>, p: &DynParams, k: u32) -> Result<(), KernelError> {
    let dev = blk.device;
    let cand = dev.buffer(p.d_cand);
    let evic = dev.buffer(p.d_evic);
    let sup = dev.buffer(p.d_sup);
    let core = dev.buffer(p.d_core);
    let mcd = dev.buffer(p.d_mcd);
    let blocks = blk.cfg.blocks as usize;
    let cand_n = blk.gread(&dev.buffer(p.d_res)[0]) as usize;
    let mut i = blk.block_idx as usize;
    while i < cand_n {
        let v = blk.gread(&cand[i]) as usize;
        if blk.gread(&evic[v]) == 0 {
            blk.gwrite(&core[v], k + 1);
            let s = blk.gread(&sup[v]);
            blk.gwrite(&mcd[v], s);
            note_changed(blk, p, v);
            scan_neighbors(blk, p, v, &[p.d_core, p.d_flag], |blk, idxs, w| {
                for (t, &x) in idxs.iter().enumerate() {
                    if w[0][t] == k + 1 && w[1][t] == 0 {
                        blk.atomic_add(&mcd[x], 1);
                    }
                }
            });
        }
        i += blocks;
    }
    Ok(())
}

/// Rise kernel, second wave (after every block's init): clears this
/// block's candidates' flags and eviction marks for the next insertion.
/// `sup` needs no reset: `k_support` writes every candidate's before
/// anything reads it.
fn rise_clear(blk: &mut BlockCtx<'_>, p: &DynParams) -> Result<bool, KernelError> {
    let dev = blk.device;
    let cand = dev.buffer(p.d_cand);
    let flag = dev.buffer(p.d_flag);
    let evic = dev.buffer(p.d_evic);
    blk.sync_threads();
    let blocks = blk.cfg.blocks as usize;
    let cand_n = blk.gread(&dev.buffer(p.d_res)[0]) as usize;
    let mut i = blk.block_idx as usize;
    while i < cand_n {
        let v = blk.gread(&cand[i]) as usize;
        blk.gwrite(&flag[v], 0);
        blk.gwrite(&evic[v], 0);
        i += blocks;
    }
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcore_cpu::{bz, CoreAlgorithm};
    use kcore_graph::{fig1_graph, gen};

    fn small_cfg() -> DynamicConfig {
        DynamicConfig {
            launch: LaunchConfig {
                blocks: 4,
                threads_per_block: 64,
            },
            ..DynamicConfig::default()
        }
    }

    /// Re-peels the mirror from scratch with the CPU oracle and checks the
    /// host cores, the device cores and the device MCD all agree with it.
    fn assert_consistent(dc: &mut DynamicCore) {
        let g = dc.graph.to_csr();
        let expect = bz::Bz.run(&g);
        assert_eq!(dc.cores(), &expect[..], "host cores diverge from oracle");
        assert_eq!(dc.device_cores(), expect, "device cores diverge from host");
        let mcd_expect: Vec<u32> = (0..g.num_vertices())
            .map(|v| {
                g.neighbors(v)
                    .iter()
                    .filter(|&&u| expect[u as usize] >= expect[v as usize])
                    .count() as u32
            })
            .collect();
        assert_eq!(dc.device_mcd(), mcd_expect, "device MCD diverges");
    }

    #[test]
    fn auto_crossover_is_pinned_between_measured_bounds() {
        // The derived crossover c is the break-even point: maintaining
        // c-1 updates is strictly cheaper than a re-peel, maintaining c
        // is not.
        for &(repeel_ms, per_update_ms) in &[
            (12.0, 3.0),
            (12.5, 3.0),
            (0.4, 3.0),
            (5000.0, 0.07),
            (1.0, 1.0),
        ] {
            let c = DynamicConfig::auto_crossover(repeel_ms, per_update_ms);
            assert!(c >= 1);
            assert!(
                per_update_ms * c as f64 >= repeel_ms,
                "re-peel must pay off at the crossover: {per_update_ms} * {c} < {repeel_ms}"
            );
            assert!(
                per_update_ms * ((c - 1) as f64) < repeel_ms,
                "crossover is not minimal: {per_update_ms} * {} >= {repeel_ms}",
                c - 1
            );
        }
    }

    #[test]
    fn auto_crossover_degenerate_inputs() {
        assert_eq!(DynamicConfig::auto_crossover(10.0, 0.0), usize::MAX);
        assert_eq!(DynamicConfig::auto_crossover(10.0, -1.0), usize::MAX);
        assert_eq!(DynamicConfig::auto_crossover(10.0, f64::NAN), usize::MAX);
        assert_eq!(DynamicConfig::auto_crossover(0.0, 1.0), 1);
        assert_eq!(DynamicConfig::auto_crossover(-3.0, 1.0), 1);
        assert_eq!(DynamicConfig::auto_crossover(f64::INFINITY, 1.0), 1);
        assert_eq!(DynamicConfig::auto_crossover(12.0, 3.0), 4);
    }

    #[test]
    fn insert_and_delete_round_trip_on_fig1() {
        let mut dc =
            DynamicCore::from_csr(&SimOptions::default(), &fig1_graph(), small_cfg()).unwrap();
        assert_eq!(dc.cores(), &kcore_graph::fig1_core_numbers()[..]);
        assert_consistent(&mut dc);

        // Pendants 9 (on the 3-clique side) and 10 (on the ring) both have
        // core 1; the new edge gives each a second core->=2 neighbor, so
        // both rise to 2.
        let rep = dc
            .apply_batch(&[EdgeUpdate::Insert(9, 10)])
            .expect("insert");
        assert_eq!(rep.path, BatchPath::Maintained);
        assert_eq!((rep.net_inserts, rep.net_deletes, rep.rejected), (1, 0, 0));
        assert_eq!(dc.cores()[9], 2);
        assert_eq!(dc.cores()[10], 2);
        assert_consistent(&mut dc);

        // Deleting it restores the original decomposition.
        let rep = dc
            .apply_batch(&[EdgeUpdate::Delete(10, 9)])
            .expect("delete");
        assert_eq!(rep.path, BatchPath::Maintained);
        assert_eq!(rep.changed, 2);
        assert_eq!(dc.cores(), &kcore_graph::fig1_core_numbers()[..]);
        assert_consistent(&mut dc);
    }

    #[test]
    fn rejected_updates_and_noop_batches() {
        let mut dc =
            DynamicCore::from_csr(&SimOptions::default(), &fig1_graph(), small_cfg()).unwrap();
        // self-loop, out-of-range, duplicate insert, absent delete
        let rep = dc
            .apply_batch(&[
                EdgeUpdate::Insert(3, 3),
                EdgeUpdate::Insert(0, 99),
                EdgeUpdate::Insert(0, 1),
                EdgeUpdate::Delete(9, 10),
            ])
            .unwrap();
        assert_eq!(rep.path, BatchPath::Noop);
        assert_eq!(rep.rejected, 4);
        assert_eq!(rep.accepted_inserts + rep.accepted_deletes, 0);
        assert_eq!(dc.cores(), &kcore_graph::fig1_core_numbers()[..]);

        // Accepted but net-cancelling: insert then delete the same edge.
        let rep = dc
            .apply_batch(&[EdgeUpdate::Insert(9, 10), EdgeUpdate::Delete(9, 10)])
            .unwrap();
        assert_eq!(rep.path, BatchPath::Noop);
        assert_eq!((rep.accepted_inserts, rep.accepted_deletes), (1, 1));
        assert_eq!(rep.net_inserts + rep.net_deletes, 0);
        assert_consistent(&mut dc);
    }

    #[test]
    fn insert_between_isolated_vertices_from_empty() {
        let mut dc =
            DynamicCore::from_csr(&SimOptions::default(), &Csr::empty(6), small_cfg()).unwrap();
        assert_eq!(dc.cores(), &[0; 6]);
        let rep = dc.apply_batch(&[EdgeUpdate::Insert(0, 1)]).unwrap();
        assert_eq!(rep.path, BatchPath::Maintained);
        assert_eq!(dc.cores()[..2], [1, 1]);
        assert_consistent(&mut dc);
        // Build a triangle: third edge raises all three to core 2.
        dc.apply_batch(&[EdgeUpdate::Insert(1, 2), EdgeUpdate::Insert(2, 0)])
            .unwrap();
        assert_eq!(dc.cores()[..3], [2, 2, 2]);
        assert_consistent(&mut dc);
    }

    #[test]
    fn pcd_prune_retires_rise_free_insertions() {
        // Two disjoint edges 0-1 and 2-3 (all cores 1). Joining them into a
        // path with {1, 2} changes nothing: every vertex keeps core 1, and
        // both roots have PCD <= 1 (each endpoint's only fellow core-1
        // neighbor with mcd > 1 is the other root), so the prune retires
        // the insertion without any traversal.
        let mut b = kcore_graph::GraphBuilder::new();
        b.add_edge(0, 1);
        b.add_edge(2, 3);
        let g = b.build();
        let mut dc = DynamicCore::from_csr(&SimOptions::default(), &g, small_cfg()).unwrap();
        let rep = dc.apply_batch(&[EdgeUpdate::Insert(1, 2)]).unwrap();
        assert_eq!(rep.path, BatchPath::Maintained);
        assert_eq!(rep.changed, 0);
        assert_eq!(rep.candidates, 0, "prune must fire before any traversal");
        assert_eq!(rep.pruned_inserts, 1, "PCD prune should retire this");
        assert_eq!(dc.cores(), &[1, 1, 1, 1]);
        assert_consistent(&mut dc);

        // Pendant-to-pendant in fig1 *does* rise (each gains a second
        // core->=2 neighbor) — the prune must let it through.
        let mut dc =
            DynamicCore::from_csr(&SimOptions::default(), &fig1_graph(), small_cfg()).unwrap();
        let rep = dc.apply_batch(&[EdgeUpdate::Insert(9, 11)]).unwrap();
        assert_eq!(rep.pruned_inserts, 0);
        assert_eq!(rep.changed, 2);
        assert_consistent(&mut dc);
    }

    #[test]
    fn crossover_forces_repeel() {
        let cfg = DynamicConfig {
            crossover: 1,
            ..small_cfg()
        };
        let mut dc = DynamicCore::from_csr(&SimOptions::default(), &fig1_graph(), cfg).unwrap();
        let rep = dc.apply_batch(&[EdgeUpdate::Insert(9, 10)]).unwrap();
        assert_eq!(rep.path, BatchPath::Repeeled);
        assert_eq!(dc.cores()[9], 2);
        assert_consistent(&mut dc);
    }

    #[test]
    fn slack_exhaustion_triggers_rebuild() {
        let cfg = DynamicConfig {
            slack: 1,
            ..small_cfg()
        };
        let mut dc = DynamicCore::from_csr(&SimOptions::default(), &Csr::empty(12), cfg).unwrap();
        // Grow a star around vertex 0: each insert raises deg(0) by one,
        // exhausting the 1-slot slack repeatedly.
        for v in 1..12u32 {
            dc.apply_batch(&[EdgeUpdate::Insert(0, v)]).unwrap();
        }
        assert!(dc.rebuilds() > 0, "slack 1 must force rebuilds");
        assert_eq!(dc.cores(), &[1; 12]);
        assert_consistent(&mut dc);
    }

    #[test]
    fn mixed_churn_matches_oracle_on_random_graph() {
        let g = gen::erdos_renyi_gnm(60, 140, 11);
        let mut dc = DynamicCore::from_csr(&SimOptions::default(), &g, small_cfg()).unwrap();
        assert_consistent(&mut dc);
        // Deterministic xorshift edge churn, applied in small mixed batches.
        let mut state = 0x2545_f491u32;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            state
        };
        for round in 0..12 {
            let mut batch = Vec::new();
            for _ in 0..9 {
                let u = rng() % 60;
                let v = rng() % 60;
                if rng() % 2 == 0 {
                    batch.push(EdgeUpdate::Insert(u, v));
                } else {
                    batch.push(EdgeUpdate::Delete(u, v));
                }
            }
            let rep = dc.apply_batch(&batch).expect("batch");
            assert_eq!(
                rep.accepted_inserts + rep.accepted_deletes + rep.rejected,
                batch.len(),
                "round {round}: classification must account for every update"
            );
            assert_consistent(&mut dc);
        }
    }

    #[test]
    fn batch_equals_singles_equals_repeel() {
        // One batch, the same updates one-at-a-time, and a crossover=0
        // repeel must all land in the identical final state.
        let g = gen::erdos_renyi_gnm(40, 80, 3);
        let updates = [
            EdgeUpdate::Insert(0, 1),
            EdgeUpdate::Insert(1, 2),
            EdgeUpdate::Insert(2, 0),
            EdgeUpdate::Delete(3, 4),
            EdgeUpdate::Insert(5, 6),
            EdgeUpdate::Delete(0, 1),
        ];
        let run = |batched: bool, crossover: usize| -> Vec<u32> {
            let cfg = DynamicConfig {
                crossover,
                ..small_cfg()
            };
            let mut dc = DynamicCore::from_csr(&SimOptions::default(), &g, cfg).unwrap();
            if batched {
                dc.apply_batch(&updates).unwrap();
            } else {
                for u in updates {
                    dc.apply_batch(std::slice::from_ref(&u)).unwrap();
                }
            }
            assert_consistent(&mut dc);
            dc.cores().to_vec()
        };
        let a = run(true, usize::MAX);
        let b = run(false, usize::MAX);
        let c = run(true, 1);
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn oversized_padded_adjacency_is_a_typed_error() {
        // A 3-vertex path: 4 arcs plus 3 × slack slots pass 2^32 for both
        // slacks. Neither may panic, at build time or in a rebuild.
        let g = kcore_graph::builder::from_edges(3, &[(0, 1), (1, 2)]);
        let opts = SimOptions::default();
        let mut dc = DynamicCore::from_csr(&opts, &g, small_cfg()).unwrap();
        let live = dc.ctx().device.used_bytes();
        for slack in [1u32 << 31, u32::MAX] {
            let cfg = DynamicConfig {
                slack,
                ..small_cfg()
            };
            let err = DynamicCore::from_csr(&opts, &g, cfg).err();
            assert!(
                matches!(err, Some(SimError::InvalidConfig { .. })),
                "from_csr with slack {slack}: {err:?}"
            );
            dc.cfg.slack = slack;
            let err = dc.rebuild_adjacency().err();
            assert!(
                matches!(err, Some(SimError::InvalidConfig { .. })),
                "rebuild with slack {slack}: {err:?}"
            );
            assert_eq!(dc.ctx().device.used_bytes(), live, "rebuild freed the CSR");
        }
        // The refused rebuild left the engine intact.
        dc.cfg.slack = 8;
        dc.apply_batch(&[EdgeUpdate::Insert(0, 2)]).unwrap();
        assert_eq!(dc.cores(), &[2, 2, 2]);
        assert_consistent(&mut dc);
    }

    #[test]
    fn empty_engine_rejects_everything() {
        let mut dc =
            DynamicCore::from_csr(&SimOptions::default(), &Csr::empty(0), small_cfg()).unwrap();
        let rep = dc
            .apply_batch(&[EdgeUpdate::Insert(0, 1), EdgeUpdate::Delete(2, 3)])
            .unwrap();
        assert_eq!(rep.path, BatchPath::Noop);
        assert_eq!(rep.rejected, 2);
        assert!(dc.cores().is_empty());
        assert!(dc.device_cores().is_empty());
    }
}
