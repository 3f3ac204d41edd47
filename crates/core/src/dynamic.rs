//! Batched dynamic k-core maintenance on the simulated GPU.
//!
//! Where [`crate::peel`] recomputes every core number from scratch, this
//! module *maintains* them under a stream of [`EdgeUpdate`] batches. It
//! keeps every vertex's MCD — its count of neighbors whose core is at least
//! its own — exact on the device, and uses it to confine each traversal to
//! vertices that can change (DESIGN.md, "Dynamic maintenance").
//!
//! Batches are *net-effect* processed: cores are a function of the final
//! graph only, so [`EdgeSet::classify`] rejects and nets each batch. The
//! net deletes, then the net inserts, are split into matchings, groups of
//! edges that share no vertex, and each matching runs one traversal from
//! all of its roots. Deleting or inserting a matching moves every core by
//! at most 1 (Jin et al., TPDS 2018), so for an edge `{u, v}` with
//! `K = min(core(u), core(v))` only core-`K` vertices can change through
//! it. All core levels share the traversal's grid, each vertex taking its
//! own core from before the matching as its `K`:
//!
//! * a deletion peels MCD directly from its roots, the core-`K` endpoints:
//!   a vertex whose MCD falls below `K` drops to `K − 1`, recounts its own
//!   MCD while its adjacency is walked, and takes one off the MCD of each
//!   neighbor still at `K`;
//! * an insertion first runs the PCD prune, which retires it when no
//!   endpoint can rise. Otherwise a search through core-`K` vertices whose
//!   MCD is above `K` gathers the candidates, an eviction cascade removes
//!   those left with at most `K` supporters at or above their level, and
//!   the survivors rise to `K + 1` with their MCD set to their final
//!   support.
//!
//! The traversals are kernelized on [`kcore_gpusim`] with the same
//! block-granularity frontier buffers, ballot compaction and stepped wave
//! discipline as the peel kernels — traces are bit-identical at any rayon
//! pool size. Past [`DynamicConfig::crossover`] net updates the engine
//! falls back to a from-scratch [`peel::decompose_in`].
//!
//! A maintained batch stages its edges with one H2D copy and makes no host
//! round trip between its traversals: a matching of deletes makes one
//! launch and a matching of inserts three, so `G_I` insert and `G_D`
//! delete matchings make `3·G_I + G_D + 1` launches with the batch end.
//! The batch's tallies and its changed vertices accumulate on the device,
//! and one batch-end launch and one readback (two for a long list) bring
//! them back. EXPERIMENTS.md's `table_dynamic` entry quotes what a batch
//! costs on an rmat-16 stream.

use crate::config::PeelConfig;
use crate::peel;
use kcore_gpusim::scan::ballot_scan_offsets;
use kcore_gpusim::{
    BlockCtx, BufferId, Coalescing, GpuContext, KernelError, LaunchConfig, SharedArray, SimError,
    SimOptions, SizeClass,
};
use kcore_graph::{Csr, EdgeSet, EdgeUpdate, NetBatch};
use std::iter::StepBy;
use std::ops::Range;
use std::sync::atomic::{AtomicU32, Ordering};

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

/// Which path [`DynamicCore::apply_batch`] took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchPath {
    /// Every accepted update cancelled out (or none were accepted).
    Noop,
    /// Theorem-backed maintenance: one traversal per matching of the net
    /// deletes, then of the net inserts.
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
    /// Vertices the batch's traversals examined. A matching of insertions
    /// counts the candidates its search gathered. A matching of deletions
    /// counts its edges' core-`K` endpoints plus the MCD decrements its
    /// cascade issued, one per neighbor at the walked vertex's old core and
    /// not yet dropping. Each traversal sees the cores its matching's
    /// edges leave together, so the tally depends on the batching
    /// (`table_dynamic`'s `cand` column).
    pub candidates: u64,
    /// Total vertices whose core number changed.
    pub changed: u64,
    /// Insertions the PCD prune retired, judged against the structure of
    /// their whole matching: their search seeds no candidate.
    pub pruned_inserts: usize,
    /// Lifetime adjacency rebuilds (slack exhaustion) so far.
    pub rebuilds: u64,
    /// Simulated milliseconds this batch cost.
    pub sim_ms: f64,
}

/// The batch's counters at the head of `dyn.result`, one sector: three
/// 64-bit counters as (low, high) word pairs, then the changed-list length.
/// `WORK` is the work tally ([`BatchReport::candidates`]), `CHANGED` the
/// core-change count and `PRUNED` the pruned-insertion count. The sector's
/// last word, `CAND`, is the current insertion group's candidate count.
const WORK: usize = 0;
const CHANGED: usize = 2;
const PRUNED: usize = 4;
const LEN: usize = 6;
const CAND: usize = 7;
/// First changed-list word of `dyn.result`: each changed vertex once, as a
/// `(vertex, final core)` pair.
const LIST: usize = 8;

/// The `dyn.flag` word of an evicted insertion candidate. A claim counts a
/// candidate's flag up from 1, to at most its degree plus one, so no claim
/// reaches it.
const EVICTED: u32 = u32::MAX;

/// Smallest per-block frontier buffer, in words. A block's buffer holds
/// `n.max(MIN_FRONTIER_WORDS)` words, which can never overflow because every
/// frontier is deduplicated.
const MIN_FRONTIER_WORDS: usize = 64;

/// Net updates `dyn.batch` holds when the engine is built, two words each;
/// a larger batch regrows it to the batch's size.
const BATCH_CAPACITY: usize = 1024;

/// Changed-list entries the batch's one readback brings with the counters.
/// A 64-update `dyn-churn` batch usually changes fewer cores than this
/// (DESIGN.md "Per-group launches and per-batch copies" states the
/// measured median and how it was taken), so most batches need one copy;
/// only a longer list needs a second. The spare bytes cost next to nothing
/// beside the copy's PCIe latency (1 KiB at 12 GB/s is 0.09 µs against
/// 8 µs).
const WINDOW_ENTRIES: usize = 128;
/// Words of `dyn.result` the batch's readback copies at once.
const RESULT_WINDOW: usize = LIST + 2 * WINDOW_ENTRIES;

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
    d_sup: BufferId,
    d_cand: BufferId,
    d_mark: BufferId,
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
    /// Per vertex, the partition sweep that last took it (see
    /// [`DynamicCore::matchings`]).
    stamp: Vec<u32>,
    /// The latest partition sweep's stamp.
    sweep: u32,
    /// The first error a batch returned; every later batch returns it.
    failed: Option<SimError>,
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
        let d_core = ctx.htod("dyn.core", &core_padded, SizeClass::PerVertex)?;
        let d_mcd = ctx.alloc("dyn.mcd", pad, SizeClass::PerVertex)?;
        let d_flag = ctx.alloc("dyn.flag", pad, SizeClass::PerVertex)?;
        let d_sup = ctx.alloc("dyn.sup", pad, SizeClass::PerVertex)?;
        let d_cand = ctx.alloc("dyn.cand", pad, SizeClass::PerVertex)?;
        let d_mark = ctx.alloc("dyn.mark", pad, SizeClass::PerVertex)?;
        let d_res = ctx.alloc("dyn.result", LIST + 2 * pad, SizeClass::PerVertex)?;
        let bufcap = n.max(MIN_FRONTIER_WORDS);
        let d_buf = ctx.alloc(
            "dyn.buf",
            cfg.launch.blocks as usize * bufcap,
            SizeClass::Fixed,
        )?;
        let d_batch = ctx.alloc("dyn.batch", 2 * BATCH_CAPACITY, SizeClass::Batch)?;

        let p = DynParams {
            bufcap,
            d_off,
            d_len,
            d_adj,
            d_core,
            d_mcd,
            d_flag,
            d_sup,
            d_cand,
            d_mark,
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
            stamp: vec![0; n],
            sweep: 0,
            failed: None,
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
    /// deletes, then the net inserts, are split into matchings, staged to
    /// the device with one H2D copy and processed with one theorem-backed
    /// traversal per matching — or, past [`DynamicConfig::crossover`], by
    /// one from-scratch peel. A maintained batch reads its results back
    /// once, at its end.
    ///
    /// A failed launch or copy (an OOM, a time-limit trip) returns its
    /// error and leaves the engine partly updated, its host and device
    /// state out of step. The engine keeps that first error and returns it
    /// from every later call, also after the cause is lifted; build a new
    /// engine to go on.
    pub fn apply_batch(&mut self, updates: &[EdgeUpdate]) -> Result<BatchReport, SimError> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        let rep = self.apply(updates);
        if let Err(e) = &rep {
            self.failed = Some(e.clone());
        }
        rep
    }

    fn apply(&mut self, updates: &[EdgeUpdate]) -> Result<BatchReport, SimError> {
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
            self.maintain(&net, &mut rep)?;
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
        let cores = self.ctx.dtoh(self.p.d_core, 0..n);
        cores.expect("dyn.core holds n words")
    }

    /// Copies the device MCD array back (charged D2H).
    pub fn device_mcd(&mut self) -> Vec<u32> {
        let n = self.num_vertices();
        if n == 0 {
            return Vec::new();
        }
        // In bounds: `dyn.mcd` holds `n.max(1)` words for the engine's life.
        let mcd = self.ctx.dtoh(self.p.d_mcd, 0..n);
        mcd.expect("dyn.mcd holds n words")
    }

    // -- batch maintenance --------------------------------------------------

    /// Walks a net batch on the device, one traversal per matching and no
    /// host round trip between them, then lists the changed vertices' final
    /// cores and reads the batch's counters and list back in one copy (two
    /// for a list longer than the window).
    ///
    /// The edges are staged in matching order, deletes first, with one H2D
    /// copy. A batch that outgrows `dyn.batch` first frees it and allocates
    /// one of its own size.
    fn maintain(&mut self, net: &NetBatch, rep: &mut BatchReport) -> Result<(), SimError> {
        let mut order = Vec::with_capacity(net.deletes.len() + net.inserts.len());
        let mut ends = Vec::new();
        self.matchings(&net.deletes, &mut order, &mut ends);
        let delete_matchings = ends.len();
        self.matchings(&net.inserts, &mut order, &mut ends);
        self.ctx.set_phase("DynStage");
        let words: Vec<u32> = order.iter().flat_map(|&(u, v)| [u, v]).collect();
        if words.len() > self.ctx.device.len(self.p.d_batch) {
            self.ctx.device.free(self.p.d_batch);
            self.p.d_batch = self.ctx.alloc("dyn.batch", words.len(), SizeClass::Batch)?;
        }
        self.ctx.htod_into(self.p.d_batch, 0, &words)?;
        let mut lo = 0;
        for (m, &hi) in ends.iter().enumerate() {
            let grp = Group {
                lo,
                hi,
                first: lo == 0,
            };
            if m < delete_matchings {
                self.delete(grp, &order[lo..hi])?;
            } else {
                self.insert(grp, &order[lo..hi])?;
            }
            lo = hi;
        }
        self.ctx.set_phase("DynResult");
        let p = self.p;
        self.ctx
            .launch("dyn_list", self.cfg.launch, |blk| k_list(blk, &p))?;
        let len = self.ctx.device.len(self.p.d_res);
        let mut res = self.ctx.dtoh(self.p.d_res, 0..RESULT_WINDOW.min(len))?;
        let end = LIST + 2 * res[LEN] as usize;
        if end > res.len() {
            let head = res.len();
            res.extend(self.ctx.dtoh(self.p.d_res, head..end)?);
        }
        let counter = |at: usize| u64::from(res[at]) | u64::from(res[at + 1]) << 32;
        rep.candidates = counter(WORK);
        rep.changed = counter(CHANGED);
        rep.pruned_inserts = counter(PRUNED) as usize;
        for pair in res[LIST..end].chunks_exact(2) {
            self.core_host[pair[0] as usize] = pair[1];
        }
        Ok(())
    }

    /// Splits `edges` into matchings by first fit in list order (each edge
    /// joins the first matching that holds neither of its endpoints),
    /// appends them to `order` one matching after another and pushes each
    /// one's end. Each sweep over the edges left forms one matching; a
    /// vertex's stamp says whether the current sweep took it, so nothing is
    /// cleared between sweeps.
    fn matchings(
        &mut self,
        edges: &[(u32, u32)],
        order: &mut Vec<(u32, u32)>,
        ends: &mut Vec<usize>,
    ) {
        let mut rest = edges.to_vec();
        while !rest.is_empty() {
            self.sweep = self.sweep.wrapping_add(1);
            if self.sweep == 0 {
                self.stamp.fill(0);
                self.sweep = 1;
            }
            let (now, stamp) = (self.sweep, &mut self.stamp);
            rest.retain(|&(u, v)| {
                let (a, b) = (u as usize, v as usize);
                if stamp[a] == now || stamp[b] == now {
                    return true;
                }
                stamp[a] = now;
                stamp[b] = now;
                order.push((u, v));
                false
            });
            ends.push(order.len());
        }
    }

    /// One group of net deletions: a single launch, the MCD cascade, whose
    /// init applies the structure and checks the roots on the device.
    fn delete(&mut self, grp: Group, edges: &[(u32, u32)]) -> Result<(), SimError> {
        for &(a, b) in edges {
            self.graph.remove(a, b);
        }
        self.ctx.set_phase("DynCascade");
        let p = self.p;
        self.ctx.launch_stepped(
            "dyn_drop",
            self.cfg.launch,
            |_| true,
            |blk| drop_init(blk, &p, grp),
            |blk, st| drop_step(blk, st, &p),
        )
    }

    /// One group of net insertions: the candidate search, whose init
    /// applies the structure and whose first wave runs the PCD prune; the
    /// eviction cascade, whose init counts the candidates' support; and
    /// the rise. The search of a group the prune retired seeds nothing, so
    /// the later launches find no candidates.
    fn insert(&mut self, grp: Group, edges: &[(u32, u32)]) -> Result<(), SimError> {
        let full = |a: u32| self.graph.degree(a) == self.cap[a as usize];
        if edges.iter().any(|&(a, b)| full(a) || full(b)) {
            self.rebuilds += 1;
            self.rebuild_adjacency()?;
        }
        for &(a, b) in edges {
            self.graph.insert(a, b);
        }
        let p = self.p;
        let launch = self.cfg.launch;
        self.ctx.set_phase("DynSubcore");
        self.ctx.launch_stepped(
            "dyn_subcore",
            launch,
            |_| true,
            |blk| bfs_init(blk, &p, grp),
            |blk, st| bfs_step(blk, st, &p, grp),
        )?;
        self.ctx.set_phase("DynCascade");
        self.ctx.launch_stepped(
            "dyn_cascade",
            launch,
            |_| true,
            |blk| casc_init(blk, &p),
            |blk, st| casc_step(blk, st, &p),
        )?;
        self.ctx.set_phase("DynRise");
        self.ctx.launch_stepped(
            "dyn_rise",
            launch,
            |_| true,
            |blk| rise_init(blk, &p),
            |blk, cand_n| rise_clear(blk, &p, *cand_n),
        )
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
    let d_off = ctx.htod("dyn.offset", &off, SizeClass::PerVertex)?;
    let d_len = ctx.htod("dyn.len", &len, SizeClass::PerVertex)?;
    let d_adj = ctx.htod("dyn.adj", &flat, SizeClass::PerArc)?;
    Ok((d_off, d_len, d_adj, cap))
}

// ---------------------------------------------------------------------------
// Kernels
// ---------------------------------------------------------------------------
//
// `dyn.result` holds one batch's result: its three 64-bit counters (the
// work tally, the core-change count and the pruned-insertion count), the
// changed-list length, the current insertion group's candidate count, and
// from [LIST] the changed list, each changed vertex once as a `(vertex,
// final core)` pair. The batch's first launch zeroes the counter sector; a
// vertex's first change of the batch sets its `dyn.mark` and appends it,
// and the batch-end `k_list` writes each listed vertex's final core beside
// it and clears its mark.
//
// Each traversal runs one group: a matching, whose edges share no vertex,
// so no core moves by more than 1 (DESIGN.md, "Dynamic maintenance"). All
// core levels share the group's grid, and every rule takes a vertex's own
// core from before the group as its `K`. The group's first launch applies
// its edges in the blocks' inits, striped over the grid. A block's init
// writes nothing another block's init reads: other blocks read it in that
// launch's waves or in later launches.
//
// Determinism discipline:
//
// * plain `launch` kernels (`k_mcd`, `k_list`) only perform block-disjoint
//   writes — no shared atomic cursors across concurrent blocks;
// * list compaction (candidate / changed cursors) happens only on serial
//   lanes: the stepped launches' init (block order) and steps (one block
//   at a time, in wave order); a block adds its work and change tallies to
//   the batch counters there too, with the carry into the high word
//   raised by the add that wraps the low one;
// * the rise kernel's MCD increments land on other blocks' vertices. They
//   are commutative atomic adds to vertices that do not rise, whose MCD
//   nothing else writes in that launch, so every block order gives the
//   same counts;
// * the deletion cascade decrements a vertex's MCD only while it sits at
//   the walker's level and is not yet dropping. The decrement that returns
//   exactly that level marks it dropping, so exactly one walker drops it;
//   its core falls, and its MCD is recounted, when it is walked in a later
//   wave.

/// The ids at adjacency slots `lo..hi`, one warp chunk of at most 32, in a
/// stack array whose first `hi - lo` entries are live.
fn chunk_ids(adjb: &[AtomicU32], lo: usize, hi: usize) -> [usize; 32] {
    let mut ids = [0usize; 32];
    for (id, slot) in ids.iter_mut().zip(&adjb[lo..hi]) {
        *id = slot.load(Ordering::Relaxed) as usize;
    }
    ids
}

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
        let ids = chunk_ids(adjb, chunk, cend);
        let idxs = &ids[..cend - chunk];
        let mut words = [[0u32; 32]; 2];
        for (out, &buf) in words.iter_mut().zip(gathered) {
            blk.gather(dev.buffer(buf), idxs, out, Coalescing::Classified);
        }
        f(blk, idxs, &words);
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
    for v in striped(blk, 0, count) {
        let cv = blk.gread(&core[v]);
        let mut m = 0u32;
        scan_neighbors(blk, p, v, &[p.d_core], |_, idxs, w| {
            m += w[0][..idxs.len()].iter().filter(|&&c| c >= cv).count() as u32;
        });
        blk.gwrite(&mcd[v], m);
    }
    Ok(())
}

/// Batch-end kernel, the changed list striped over blocks: writes each
/// listed vertex's final core beside it and clears its mark for the next
/// batch.
fn k_list(blk: &mut BlockCtx<'_>, p: &DynParams) -> Result<(), KernelError> {
    let dev = blk.device;
    let res = dev.buffer(p.d_res);
    let core = dev.buffer(p.d_core);
    let mark = dev.buffer(p.d_mark);
    let len = blk.gread(&res[LEN]) as usize;
    for j in striped(blk, 0, len) {
        let x = blk.gread(&res[LIST + 2 * j]) as usize;
        let c = blk.gread(&core[x]);
        blk.gwrite(&res[LIST + 2 * j + 1], c);
        blk.gwrite(&mark[x], 0);
    }
    Ok(())
}

/// This block's share of the indices `lo..hi`: striped over the grid.
fn striped(blk: &BlockCtx<'_>, lo: usize, hi: usize) -> StepBy<Range<usize>> {
    (lo + blk.block_idx as usize..hi).step_by(blk.cfg.blocks as usize)
}

/// The group a traversal applies: the staged pairs `lo..hi` of
/// `dyn.batch`, one matching, and whether it opens the batch.
#[derive(Clone, Copy)]
struct Group {
    lo: usize,
    hi: usize,
    first: bool,
}

/// A staged edge `[u, v]` and its endpoints' cores from before its group.
struct Edge {
    ends: [u32; 2],
    cores: [u32; 2],
}

impl Edge {
    /// `K = min(core(u), core(v))`.
    fn k(&self) -> u32 {
        self.cores[0].min(self.cores[1])
    }

    /// The roots: the endpoints of core `K`, in `[u, v]` order.
    fn roots(&self) -> impl Iterator<Item = usize> + '_ {
        let k = self.k();
        (0..2)
            .filter(move |&i| self.cores[i] == k)
            .map(move |i| self.ends[i] as usize)
    }
}

/// Reads staged pair `i` (one sector) and both endpoints' cores.
fn read_edge(blk: &mut BlockCtx<'_>, p: &DynParams, i: usize) -> Edge {
    let dev = blk.device;
    let batch = dev.buffer(p.d_batch);
    let core = dev.buffer(p.d_core);
    blk.charge_sector(1); // the adjacent [u, v] pair
    let ends = [2 * i, 2 * i + 1].map(|w| batch[w].load(Ordering::Relaxed));
    let cores = ends.map(|w| blk.gread(&core[w as usize]));
    Edge { ends, cores }
}

/// Applies staged edge `i` in the init of its group's first launch: splices
/// both adjacency directions (append for insert, swap-remove for delete)
/// and applies the endpoint MCD deltas against the cores from before the
/// group. No other edge of the group touches these endpoints' lists or
/// counters. A delete whose edge the probe does not find is a
/// [`KernelError::Other`].
fn splice(
    blk: &mut BlockCtx<'_>,
    p: &DynParams,
    i: usize,
    insert: bool,
) -> Result<Edge, KernelError> {
    let dev = blk.device;
    let off = dev.buffer(p.d_off);
    let lenb = dev.buffer(p.d_len);
    let adjb = dev.buffer(p.d_adj);
    let mcd = dev.buffer(p.d_mcd);
    let edge = read_edge(blk, p, i);
    let ([u, v], [cu, cv]) = (edge.ends, edge.cores);
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
            let mut found = None;
            let mut chunk = o;
            let oe = o + l;
            while chunk < oe && found.is_none() {
                let cend = (chunk + 32).min(oe);
                blk.sync_warp();
                blk.charge_tx(BlockCtx::coalesced_tx((cend - chunk) as u64));
                blk.charge_instr(1);
                found = (chunk..cend).rfind(|&j| adjb[j].load(Ordering::Relaxed) == b);
                chunk = cend;
            }
            let Some(found) = found else {
                return Err(KernelError::Other(format!(
                    "delete of edge {{{u}, {v}}} absent on device"
                )));
            };
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
    Ok(edge)
}

/// Zeroes the batch's counter sector: block 0's init of the batch's first
/// launch, before any block adds to it.
fn open_batch(blk: &mut BlockCtx<'_>, p: &DynParams) {
    blk.charge_sector(1);
    for w in &blk.device.buffer(p.d_res)[..LIST] {
        w.store(0, Ordering::Relaxed);
    }
}

/// Reads the insertion group's candidate count (one sector).
fn read_cand(blk: &mut BlockCtx<'_>, p: &DynParams) -> usize {
    let res = blk.device.buffer(p.d_res);
    blk.gread(&res[CAND]) as usize
}

/// Adds `d` to the batch's 64-bit counter at `dyn.result[at]` (low word)
/// and `[at + 1]` (high word): the add that wraps the low word carries.
fn add_counter(blk: &mut BlockCtx<'_>, p: &DynParams, at: usize, d: u32) {
    let res = blk.device.buffer(p.d_res);
    if blk.atomic_add(&res[at], d).checked_add(d).is_none() {
        blk.atomic_add(&res[at + 1], 1);
    }
}

/// Per-block state of the stepped traversal kernels.
struct TravState {
    /// Shared `[s, e]`: the block's frontier window in `dyn.buf`.
    se: SharedArray,
    /// The deletion's work this block tallies: its roots and the MCD
    /// decrements it issued.
    work: u32,
    /// Vertices this block dropped.
    changed: u32,
    /// The insertion search's first wave, which runs the PCD prune and
    /// claims the roots of this block's edges, is still to come.
    roots_pending: bool,
}

impl TravState {
    /// Publishes a frontier of `e` seeds (init lane).
    fn new(blk: &mut BlockCtx<'_>, e: u32) -> Result<TravState, KernelError> {
        let se = blk.shared_alloc(2)?;
        blk.sh_write(se, 0, 0);
        blk.sh_write(se, 1, e);
        Ok(TravState {
            se,
            work: 0,
            changed: 0,
            roots_pending: false,
        })
    }
}

fn overflow(b: u32, what: &str, cap: usize) -> KernelError {
    KernelError::BufferOverflow {
        what: format!("block {b}: {what} frontier exceeds capacity {cap}"),
    }
}

/// Appends `v` to this block's frontier at slot `*e` (init lane, or the
/// insertion search's first wave).
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

/// Lists `x` as changed on its first change of the batch: the mark that
/// returns 0 appends it (cursor `result[LEN]`).
fn list_changed(blk: &mut BlockCtx<'_>, p: &DynParams, x: usize) {
    let dev = blk.device;
    if blk.atomic_add(&dev.buffer(p.d_mark)[x], 1) == 0 {
        let res = dev.buffer(p.d_res);
        let j = blk.atomic_add(&res[LEN], 1) as usize;
        blk.gwrite(&res[LIST + 2 * j], x as u32);
    }
}

/// One wave of a stepped traversal, shared by the deletion cascade, the
/// insertion search and the eviction cascade: each warp takes one frontier
/// vertex, learns its level `k` from `level`, and walks its adjacency in
/// 32-neighbor chunks, gathering `gathered[x]` for every neighbor `x` and
/// ballot-compacting the neighbors whose word `pick(k, word)` accepts.
/// `visit` handles each compacted neighbor and its word in order and
/// returns whether it joins this block's frontier (overflow reported as
/// `what`). With `count_into`, each walked vertex's count of picked
/// neighbors is written there. Returns `false` once the frontier has
/// drained.
///
/// A neighbor appears once per adjacency list and its word is gathered
/// just before its chunk is visited, so `visit` sees its current word.
/// Appends land past the frontier's tail, so reads and writes may
/// interleave in any order.
#[allow(clippy::too_many_arguments)]
fn walk_wave(
    blk: &mut BlockCtx<'_>,
    st: &mut TravState,
    p: &DynParams,
    gathered: BufferId,
    count_into: Option<BufferId>,
    what: &str,
    mut level: impl FnMut(&mut BlockCtx<'_>, usize) -> u32,
    pick: impl Fn(u32, u32) -> bool,
    mut visit: impl FnMut(&mut BlockCtx<'_>, u32, usize, u32) -> Result<bool, KernelError>,
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
        let k = level(blk, v);
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
            let ids = chunk_ids(adjb, chunk, cend);
            let idxs = &ids[..cnt];
            let mut vals = [0u32; 32];
            blk.gather(words, idxs, &mut vals, Coalescing::Classified);
            let mut bits = 0u32;
            for t in 0..cnt {
                if pick(k, vals[t]) {
                    bits |= 1 << t;
                }
            }
            let (_offs, total) = ballot_scan_offsets(blk, bits);
            picked += total;
            if total > 0 {
                for t in 0..cnt {
                    if bits >> t & 1 == 1 && visit(blk, k, idxs[t], vals[t])? {
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

/// Deletion cascade, init (block order). Each block applies its share of
/// the group ([`splice`]), counts the edges' roots as work and checks each
/// root: its MCD, already net of the deleted edge, below `K` means too few
/// neighbors left at core `>= K`, so the root is marked dropping
/// (`dyn.flag`) and seeds this block's frontier. Only the block that
/// splices an edge writes its roots' MCD, so the check reads nothing
/// another block's init writes, and every root is checked before any
/// walker can reach it.
fn drop_init(blk: &mut BlockCtx<'_>, p: &DynParams, grp: Group) -> Result<TravState, KernelError> {
    if grp.first && blk.block_idx == 0 {
        open_batch(blk, p);
    }
    let dev = blk.device;
    let mcd = dev.buffer(p.d_mcd);
    let flag = dev.buffer(p.d_flag);
    let (mut e, mut roots) = (0u32, 0u32);
    for i in striped(blk, grp.lo, grp.hi) {
        let edge = splice(blk, p, i, false)?;
        let k = edge.k();
        for r in edge.roots() {
            roots += 1;
            if blk.gread(&mcd[r]) < k {
                blk.gwrite(&flag[r], 1);
                seed(blk, p, &mut e, r, "cascade")?;
            }
        }
    }
    let mut st = TravState::new(blk, e)?;
    st.work = roots;
    Ok(st)
}

/// Deletion cascade, one wave. A dropping vertex drops as it is walked:
/// from its level `k` to `k − 1`, its dropping mark cleared, listed as
/// changed. Its walk counts its neighbors of core `>= k − 1`, its new MCD,
/// and takes one off the MCD of each neighbor at `k` that is not dropping
/// already, as the walked vertex no longer counts for it; a decrement from
/// exactly `k` marks that neighbor dropping too.
///
/// A core falls only as its vertex is walked, so a recount counts each
/// neighbor that will still fall, and that neighbor's walk takes it off
/// again. A vertex dropped from `k + 1` therefore reaches core `k` only
/// with its exact recount, and since no core falls twice in a group, a
/// level-`k` walker's decrement never takes it below `k`. A vertex at its
/// own level keeps at least that much MCD until it is marked, so no
/// decrement underflows. When a block retires it adds its work and
/// changes to the batch counters.
fn drop_step(
    blk: &mut BlockCtx<'_>,
    st: &mut TravState,
    p: &DynParams,
) -> Result<bool, KernelError> {
    let dev = blk.device;
    let core = dev.buffer(p.d_core);
    let mcd = dev.buffer(p.d_mcd);
    let flag = dev.buffer(p.d_flag);
    let (mut decrements, mut dropped) = (0u32, 0u32);
    let more = walk_wave(
        blk,
        st,
        p,
        p.d_core,
        Some(p.d_mcd),
        "cascade",
        |blk, v| {
            let k = blk.gread(&core[v]);
            blk.gwrite(&core[v], k - 1);
            blk.gwrite(&flag[v], 0);
            list_changed(blk, p, v);
            dropped += 1;
            k
        },
        |k, c| c + 1 >= k,
        |blk, k, x, c| {
            if c != k || blk.gread(&flag[x]) != 0 {
                return Ok(false);
            }
            decrements += 1;
            let old = blk.atomic_sub(&mcd[x], 1);
            debug_assert!(old >= k, "MCD underflow on a core-k vertex");
            if old != k {
                return Ok(false);
            }
            blk.gwrite(&flag[x], 1);
            Ok(true)
        },
    )?;
    st.work += decrements;
    st.changed += dropped;
    if !more {
        if st.work > 0 {
            add_counter(blk, p, WORK, st.work);
        }
        if st.changed > 0 {
            add_counter(blk, p, CHANGED, st.changed);
        }
    }
    Ok(more)
}

/// Makes `x`, of core `k`, an insertion candidate if it can rise — its MCD
/// is above `k` — and this visit flags it first: appends it to the
/// candidate list (cursor `dyn.result[CAND]`).
fn claim(blk: &mut BlockCtx<'_>, p: &DynParams, x: usize, k: u32) -> bool {
    let dev = blk.device;
    if blk.gread(&dev.buffer(p.d_mcd)[x]) <= k || blk.atomic_add(&dev.buffer(p.d_flag)[x], 1) != 0 {
        return false;
    }
    let slot = blk.atomic_add(&dev.buffer(p.d_res)[CAND], 1) as usize;
    blk.gwrite(&dev.buffer(p.d_cand)[slot], x as u32);
    true
}

/// Insertion search, init (block order). Each block applies its share of
/// the group ([`splice`]), and block 0 zeroes the candidate count (with
/// the whole counter sector on the batch's first launch). The roots wait
/// for the first wave: their PCD prune reads neighbors' MCD, which other
/// blocks' splices write.
fn bfs_init(blk: &mut BlockCtx<'_>, p: &DynParams, grp: Group) -> Result<TravState, KernelError> {
    if blk.block_idx == 0 {
        if grp.first {
            open_batch(blk, p);
        } else {
            let res = blk.device.buffer(p.d_res);
            blk.gwrite(&res[CAND], 0);
        }
    }
    for i in striped(blk, grp.lo, grp.hi) {
        splice(blk, p, i, true)?;
    }
    let mut st = TravState::new(blk, 0)?;
    st.roots_pending = true;
    Ok(st)
}

/// Insertion search, one wave: walks the frontier's neighbors at the
/// walked vertex's own level `k` and claims each one that can rise. Nothing
/// rising is missed: a vertex that rises has more than `k` neighbors of
/// core `>= k`, and risen vertices reach a root of their level through
/// other risen vertices. A block's first wave first seeds its frontier
/// ([`claim_roots`]).
fn bfs_step(
    blk: &mut BlockCtx<'_>,
    st: &mut TravState,
    p: &DynParams,
    grp: Group,
) -> Result<bool, KernelError> {
    if std::mem::take(&mut st.roots_pending) {
        claim_roots(blk, st, p, grp)?;
    }
    let core = blk.device.buffer(p.d_core);
    walk_wave(
        blk,
        st,
        p,
        p.d_core,
        None,
        "subcore",
        |blk, v| blk.gread(&core[v]),
        |k, c| c == k,
        |blk, k, x, _| Ok(claim(blk, p, x, k)),
    )
}

/// The PCD prune and the root claims for this block's edges, against the
/// whole group's structure. For each root `r` of an edge of level `K`,
/// `pcd(r) = |{x ∈ N(r) : core(x) > K ∨ (core(x) == K ∧ mcd(x) > K)}|`.
/// If no root has `pcd > K`, no core can rise through the edge: it is
/// counted as pruned and seeds nothing. Otherwise the block claims its
/// roots and seeds its frontier with them; a candidate set is a closure,
/// so it does not depend on which block seeds it.
fn claim_roots(
    blk: &mut BlockCtx<'_>,
    st: &mut TravState,
    p: &DynParams,
    grp: Group,
) -> Result<(), KernelError> {
    let (mut e, mut pruned) = (0u32, 0u32);
    for i in striped(blk, grp.lo, grp.hi) {
        let edge = read_edge(blk, p, i);
        let k = edge.k();
        let mut may_rise = false;
        for r in edge.roots() {
            let mut pcd = 0u32;
            scan_neighbors(blk, p, r, &[p.d_core, p.d_mcd], |_, idxs, w| {
                pcd += (0..idxs.len())
                    .filter(|&t| w[0][t] > k || (w[0][t] == k && w[1][t] > k))
                    .count() as u32;
            });
            may_rise |= pcd > k;
        }
        if !may_rise {
            pruned += 1;
            continue;
        }
        for r in edge.roots() {
            if claim(blk, p, r, k) {
                seed(blk, p, &mut e, r, "subcore")?;
            }
        }
    }
    if pruned > 0 {
        add_counter(blk, p, PRUNED, pruned);
    }
    blk.sh_write(st.se, 1, e);
    Ok(())
}

/// Eviction cascade, init (block order): stripes the search's candidates
/// over blocks. For each, of level `k`, it counts the support
/// `sup[v] = |{x ∈ N(v) : core(x) > k ∨ (core(x) == k ∧ flag(x))}|` —
/// supporters either already above `k` or fellow candidates of its level;
/// a candidate of level `k − 1` rises at most to `k` — and evicts it at
/// once if that is below the threshold `k + 1`: its flag becomes
/// [`EVICTED`], and it seeds this block's frontier. An eviction turns one
/// nonzero flag into another and `core` does not change in this launch, so
/// no count depends on block order; each block writes only its own
/// candidates' `sup`.
fn casc_init(blk: &mut BlockCtx<'_>, p: &DynParams) -> Result<TravState, KernelError> {
    let dev = blk.device;
    let cand = dev.buffer(p.d_cand);
    let core = dev.buffer(p.d_core);
    let sup = dev.buffer(p.d_sup);
    let flag = dev.buffer(p.d_flag);
    let cand_n = read_cand(blk, p);
    let mut e = 0u32;
    for i in striped(blk, 0, cand_n) {
        let v = blk.gread(&cand[i]) as usize;
        let k = blk.gread(&core[v]);
        let mut m = 0u32;
        scan_neighbors(blk, p, v, &[p.d_core, p.d_flag], |_, idxs, w| {
            m += (0..idxs.len())
                .filter(|&t| w[0][t] > k || (w[0][t] == k && w[1][t] != 0))
                .count() as u32;
        });
        blk.gwrite(&sup[v], m);
        if m <= k {
            blk.gwrite(&flag[v], EVICTED);
            seed(blk, p, &mut e, v, "cascade")?;
        }
    }
    TravState::new(blk, e)
}

/// Eviction cascade, one wave: walks each evicted vertex's candidate
/// neighbors (`flag`) and decrements the support of each un-evicted one of
/// the evicted vertex's own level `k`, told apart by the flag word the walk
/// gathered; a decrement from exactly the threshold `k + 1` evicts it too.
/// A candidate of level `k − 1` keeps its support: the evicted vertex stays
/// at `k`, above it. An un-evicted candidate always has
/// `sup >= k + 1 >= 1`, so the decrement cannot underflow.
fn casc_step(
    blk: &mut BlockCtx<'_>,
    st: &mut TravState,
    p: &DynParams,
) -> Result<bool, KernelError> {
    let dev = blk.device;
    let core = dev.buffer(p.d_core);
    let sup = dev.buffer(p.d_sup);
    let flag = dev.buffer(p.d_flag);
    walk_wave(
        blk,
        st,
        p,
        p.d_flag,
        None,
        "cascade",
        |blk, x| blk.gread(&core[x]),
        |_, f| f != 0,
        |blk, k, y, f| {
            if f == EVICTED || blk.gread(&core[y]) != k {
                return Ok(false);
            }
            let old = blk.atomic_sub(&sup[y], 1);
            debug_assert!(old > k, "support underflow on un-evicted candidate");
            if old != k + 1 {
                return Ok(false);
            }
            blk.gwrite(&flag[y], EVICTED);
            Ok(true)
        },
    )
}

/// Rise kernel, init (block order): stripes the candidates over blocks.
/// Each survivor (never evicted) rises from its level `k` to `k + 1` and
/// is listed as changed. Its MCD becomes its final support: its neighbors
/// of core `> k` plus its surviving fellow candidates. It now counts for
/// each neighbor that had core `k + 1` before the group and does not rise
/// — a non-candidate, or a candidate of level `k + 1` the cascade evicted
/// — which gains one MCD; no other MCD moves. The test reads the flag word
/// the walk gathers: 0 or [`EVICTED`] stays, a claim count rises. Flags
/// stay set until every block's init has run, so the test never mistakes a
/// survivor risen in an earlier block for a vertex that stays. Block 0 adds
/// the candidates to the work tally, and each block its risen vertices to
/// the change count. Returns the candidate count for the clearing wave.
fn rise_init(blk: &mut BlockCtx<'_>, p: &DynParams) -> Result<usize, KernelError> {
    let dev = blk.device;
    let cand = dev.buffer(p.d_cand);
    let flag = dev.buffer(p.d_flag);
    let sup = dev.buffer(p.d_sup);
    let core = dev.buffer(p.d_core);
    let mcd = dev.buffer(p.d_mcd);
    let cand_n = read_cand(blk, p);
    if blk.block_idx == 0 && cand_n > 0 {
        add_counter(blk, p, WORK, cand_n as u32);
    }
    let mut risen = 0u32;
    for i in striped(blk, 0, cand_n) {
        let v = blk.gread(&cand[i]) as usize;
        if blk.gread(&flag[v]) == EVICTED {
            continue;
        }
        let k = blk.gread(&core[v]);
        blk.gwrite(&core[v], k + 1);
        let s = blk.gread(&sup[v]);
        blk.gwrite(&mcd[v], s);
        list_changed(blk, p, v);
        risen += 1;
        scan_neighbors(blk, p, v, &[p.d_core, p.d_flag], |blk, idxs, w| {
            for (t, &x) in idxs.iter().enumerate() {
                if w[0][t] == k + 1 && (w[1][t] == 0 || w[1][t] == EVICTED) {
                    blk.atomic_add(&mcd[x], 1);
                }
            }
        });
    }
    if risen > 0 {
        add_counter(blk, p, CHANGED, risen);
    }
    Ok(cand_n)
}

/// Rise kernel, second wave (after every block's init): clears this
/// block's candidates' flags for the next group.
/// `sup` needs no reset: the eviction cascade's init writes every
/// candidate's before anything reads it.
fn rise_clear(blk: &mut BlockCtx<'_>, p: &DynParams, cand_n: usize) -> Result<bool, KernelError> {
    let dev = blk.device;
    let cand = dev.buffer(p.d_cand);
    let flag = dev.buffer(p.d_flag);
    blk.sync_threads();
    for i in striped(blk, 0, cand_n) {
        let v = blk.gread(&cand[i]) as usize;
        blk.gwrite(&flag[v], 0);
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

    /// A maintained batch's launches and copies as a formula in its insert
    /// and delete groups `G_I` and `G_D`: `3·G_I + G_D` launches plus the
    /// batch-end `dyn_list`, one H2D copy, also for a batch that outgrows
    /// the staging buffer, and one D2H copy, or two when the changed list
    /// outgrows the readback window. Disjoint edges make one group per
    /// phase; a star's edges share its center, so each is a group.
    #[test]
    fn launches_and_copies_per_batch_follow_net_updates() {
        use kcore_gpusim::TransferDir;
        /// Disjoint edges `{2j, 2j + 1}` for `j` in `range`.
        fn pairs(range: std::ops::Range<u32>, mk: fn(u32, u32) -> EdgeUpdate) -> Vec<EdgeUpdate> {
            range.map(|j| mk(2 * j, 2 * j + 1)).collect()
        }
        let ins = EdgeUpdate::Insert as fn(u32, u32) -> EdgeUpdate;
        let del = EdgeUpdate::Delete as fn(u32, u32) -> EdgeUpdate;
        let w = WINDOW_ENTRIES as u32;
        let big = BATCH_CAPACITY as u32 + 76;
        let center = 2 * big;
        let star = |mk: fn(u32, u32) -> EdgeUpdate| -> Vec<EdgeUpdate> {
            (1..5).map(|x| mk(center, center + x)).collect()
        };
        let mut dc = DynamicCore::from_csr(
            &SimOptions::default(),
            &Csr::empty(center as usize + 5),
            small_cfg(),
        )
        .unwrap();
        let mixed: Vec<EdgeUpdate> = pairs(3..5, ins)
            .into_iter()
            .chain(pairs(0..1, del))
            .collect();
        // (batch, (G_I, G_D), changed, D2H copies): each disjoint edge
        // changes both endpoints, a star its center and its leaves.
        let cases = [
            ("pure insert", pairs(0..3, ins), (1, 0), 6, 1),
            ("pure delete", pairs(1..3, del), (0, 1), 4, 1),
            ("mixed", mixed, (1, 1), 6, 1),
            (
                "list past the window",
                pairs(5..w / 2 + 6, ins),
                (1, 0),
                w + 2,
                2,
            ),
            (
                "past the staging buffer",
                pairs(w / 2 + 6..big, ins),
                (1, 0),
                2 * big - w - 12,
                2,
            ),
            ("star insert", star(ins), (4, 0), 5, 1),
            ("star delete", star(del), (0, 4), 5, 1),
        ];
        for (label, batch, (gi, gd), changed, d2h) in cases {
            let (l0, x0) = (dc.ctx().launches().len(), dc.ctx().transfers().len());
            let rep = dc.apply_batch(&batch).unwrap();
            assert_eq!(rep.path, BatchPath::Maintained, "{label}");
            assert_eq!(rep.rebuilds, 0, "{label}: a rebuild adds copies");
            assert_eq!(rep.changed, u64::from(changed), "{label}");
            let copies = &dc.ctx().transfers()[x0..];
            let h2d = copies
                .iter()
                .filter(|t| t.dir == TransferDir::HostToDevice)
                .count();
            let got = (dc.ctx().launches().len() - l0, h2d, copies.len() - h2d);
            let want = (3 * gi + gd + 1, 1, d2h);
            assert_eq!(
                got, want,
                "{label}: (launches, H2D, D2H) with G_I = {gi}, G_D = {gd}"
            );
        }
        assert_consistent(&mut dc);
    }

    /// The partition is first fit in list order, one sweep per matching,
    /// and a wrapped sweep stamp does not mistake old stamps for new.
    #[test]
    fn matchings_are_first_fit_in_list_order() {
        let mut dc =
            DynamicCore::from_csr(&SimOptions::default(), &Csr::empty(6), small_cfg()).unwrap();
        let edges = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (0, 2)];
        let want = (
            vec![(0, 1), (2, 3), (4, 5), (1, 2), (3, 0), (0, 2)],
            vec![3, 5, 6],
        );
        for stale in [None, Some(u32::MAX)] {
            if let Some(sweep) = stale {
                dc.sweep = sweep;
                dc.stamp.fill(1);
            }
            let (mut order, mut ends) = (Vec::new(), Vec::new());
            dc.matchings(&edges, &mut order, &mut ends);
            assert_eq!((order, ends), want, "sweep {stale:?}");
        }
    }

    /// A batch counter is 64 bits wide: the add that wraps its low word
    /// carries into the high word, so no tally the host used to sum in
    /// `u64` wraps on the device.
    #[test]
    fn batch_counters_carry_into_the_high_word() {
        let mut dc =
            DynamicCore::from_csr(&SimOptions::default(), &Csr::empty(4), small_cfg()).unwrap();
        let p = dc.p;
        dc.ctx.htod_into(p.d_res, WORK, &[u32::MAX - 1, 7]).unwrap();
        let one = LaunchConfig {
            blocks: 1,
            threads_per_block: 32,
        };
        for d in [1, 3] {
            dc.ctx
                .launch("carry", one, |blk| {
                    add_counter(blk, &p, WORK, d);
                    Ok(())
                })
                .unwrap();
        }
        assert_eq!(dc.ctx.dtoh(p.d_res, WORK..WORK + 2).unwrap(), [2, 8]);
    }

    /// A batch that fails mid-way leaves the host mirror ahead of the
    /// device, so the engine keeps the error: lifting the time limit that
    /// tripped it does not let a later batch run on the half-applied state.
    #[test]
    fn a_failed_batch_fails_every_later_batch() {
        let mut dc =
            DynamicCore::from_csr(&SimOptions::default(), &Csr::empty(12), small_cfg()).unwrap();
        // A star of four insert groups: the limit trips after the staging copy.
        let star: Vec<EdgeUpdate> = (1..5).map(|x| EdgeUpdate::Insert(0, x)).collect();
        let t = dc.ctx().elapsed_ms();
        dc.ctx_mut().set_time_limit_ms(t + 0.001);
        let err = dc.apply_batch(&star).unwrap_err();
        assert!(matches!(err, SimError::TimeLimit { .. }), "{err:?}");
        dc.ctx_mut().set_time_limit_ms(f64::INFINITY);
        let later = dc.apply_batch(&[EdgeUpdate::Insert(6, 7)]);
        assert_eq!(later.err(), Some(err));
        assert_eq!(dc.cores(), &[0; 12], "the host cores saw no change");
    }

    /// A batch that outgrows `dyn.batch` frees it and allocates one of its
    /// own size. An OOM there is the typed error, which the engine keeps.
    #[test]
    fn an_oom_regrowing_the_staging_buffer_is_kept() {
        let n = 4 * BATCH_CAPACITY;
        let cfg = || {
            let mut cfg = small_cfg();
            cfg.peel = cfg.peel.with_launch(cfg.launch).with_buf_capacity(n);
            cfg
        };
        let probe = DynamicCore::from_csr(&SimOptions::default(), &Csr::empty(n), cfg()).unwrap();
        let dev = &probe.ctx().device;
        // Room for the built engine and 1 KiB more: the 2,048 disjoint inserts
        // need a 4,096-word buffer in place of the 2,048-word one.
        let opts = SimOptions {
            device_capacity_bytes: dev.used_bytes() + 1024,
            ..SimOptions::default()
        };
        assert!(dev.peak_bytes() <= opts.device_capacity_bytes);
        let mut dc = DynamicCore::from_csr(&opts, &Csr::empty(n), cfg()).unwrap();
        let batch: Vec<EdgeUpdate> = (0..n as u32 / 2)
            .map(|j| EdgeUpdate::Insert(2 * j, 2 * j + 1))
            .collect();
        let err = dc.apply_batch(&batch).unwrap_err();
        assert!(matches!(err, SimError::Oom(_)), "{err:?}");
        let later = dc.apply_batch(&[EdgeUpdate::Insert(0, 2)]);
        assert_eq!(later.err(), Some(err));
    }

    /// A device adjacency that lacks an edge the mirror holds fails the
    /// delete's probe with a typed error instead of a panic.
    #[test]
    fn delete_absent_on_device_is_a_typed_error() {
        let g = kcore_graph::builder::from_edges(3, &[(0, 1), (1, 2)]);
        let mut dc = DynamicCore::from_csr(&SimOptions::default(), &g, small_cfg()).unwrap();
        let p = dc.p;
        dc.ctx.htod_into(p.d_len, 0, &[0]).unwrap();
        let err = dc.apply_batch(&[EdgeUpdate::Delete(0, 1)]).err();
        assert!(
            matches!(err, Some(SimError::Kernel(KernelError::Other(_)))),
            "{err:?}"
        );
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
