//! Batched dynamic k-core maintenance on the simulated GPU.
//!
//! Where [`crate::peel`] recomputes every core number from scratch, this
//! module *maintains* them under a stream of [`EdgeUpdate`] batches, using
//! the locality theorems of the incremental k-core literature (see
//! DESIGN.md, "Dynamic maintenance: locality theorems and the batch
//! contract"):
//!
//! * after inserting or deleting one edge `{u, v}` with
//!   `K = min(core(u), core(v))`, only vertices with core number exactly
//!   `K` that are reachable from the affected endpoints through core-`K`
//!   vertices (the *K-subcore*) can change, and by at most 1;
//! * a deleted core-`K` vertex `v` keeps its core iff it retains at least
//!   `K` neighbors of (new) core `>= K` — its MCD;
//! * an insertion can only raise cores if some root endpoint `w` has
//!   `PCD(w) > K`, which gives a one-kernel prune that retires most
//!   insertions without any traversal.
//!
//! Batches are *net-effect* processed: cores are a function of the final
//! graph only, so cancelling insert/delete pairs are elided, duplicates and
//! self-loops rejected, and the surviving updates grouped (deletes first,
//! then inserts) and walked with per-edge theorem-backed traversals. The
//! per-edge traversals are kernelized on [`kcore_gpusim`] with the same
//! block-granularity frontier buffers, ballot compaction and stepped
//! wave discipline as the peel kernels — traces are bit-identical at any
//! rayon pool size. Past [`DynamicConfig::crossover`] net updates the
//! engine falls back to a from-scratch [`peel::decompose_in`], which is
//! cheaper than massed traversals.
//!
//! MCD counters are maintained device-side: structural kernels apply the
//! endpoint deltas and every op that changes cores refreshes the counters
//! of the changed vertices and their neighbors with a list-mode kernel, so
//! the next op's prune/seed reads exact values.

use crate::config::PeelConfig;
use crate::peel;
use kcore_gpusim::scan::ballot_scan_offsets;
use kcore_gpusim::{
    BlockCtx, BufferId, Coalescing, GpuContext, KernelError, LaunchConfig, SharedArray, SimError,
    SimOptions, SizeClass,
};
use kcore_graph::{Csr, EdgeUpdate};
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::Ordering;

/// Tuning knobs of the dynamic engine.
#[derive(Debug, Clone)]
pub struct DynamicConfig {
    /// Kernel launch geometry for the traversal/counter kernels.
    pub launch: LaunchConfig,
    /// Per-block frontier buffer capacity in words; `0` = auto (`n.max(64)`,
    /// which can never overflow because subcore frontiers are deduplicated).
    pub buf_capacity: usize,
    /// Device staging capacity in *updates* per structural H2D copy; larger
    /// batches are processed in chunks of this many net updates.
    pub batch_capacity: usize,
    /// Net-update count at and above which the engine abandons maintenance
    /// and re-peels from scratch.
    pub crossover: usize,
    /// Spare adjacency slots per vertex in the device CSR; exhausting a
    /// vertex's slots triggers a full rebuild (counted in the report).
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
            buf_capacity: 0,
            batch_capacity: 1024,
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

    /// [`Self::auto_crossover`] applied in place.
    pub fn with_auto_crossover(mut self, repeel_ms: f64, per_update_ms: f64) -> Self {
        self.crossover = Self::auto_crossover(repeel_ms, per_update_ms);
        self
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
    /// Insertions accepted during classification (edge absent at that point
    /// of the batch sequence).
    pub accepted_inserts: usize,
    /// Deletions accepted during classification.
    pub accepted_deletes: usize,
    /// Updates rejected: self-loops, out-of-range endpoints, duplicate
    /// inserts, deletes of absent edges.
    pub rejected: usize,
    /// Insertions surviving net-effect cancellation.
    pub net_inserts: usize,
    /// Deletions surviving net-effect cancellation.
    pub net_deletes: usize,
    /// The processing path taken.
    pub path: BatchPath,
    /// Net updates grouped by `K = min(core(u), core(v))` at batch start,
    /// ascending — the superior-edge groups of the classification phase.
    pub groups: Vec<(u32, usize)>,
    /// Total subcore candidates collected across the batch's traversals.
    pub candidates: u64,
    /// Total vertices whose core number changed.
    pub changed: u64,
    /// Insertions retired by the PCD prune without any traversal.
    pub pruned_inserts: usize,
    /// Lifetime adjacency rebuilds (slack exhaustion) so far.
    pub rebuilds: u64,
    /// Simulated milliseconds this batch cost.
    pub sim_ms: f64,
}

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
    d_chg: BufferId,
    d_meta: BufferId,
    d_buf: BufferId,
    d_batch: BufferId,
}

/// GPU-resident dynamically-maintained k-core decomposition.
///
/// Owns a [`GpuContext`]; the graph lives on the device as a slack-padded
/// CSR (`dyn.offset` / `dyn.len` / `dyn.adj`) beside the core numbers
/// (`dyn.core`) and MCD counters (`dyn.mcd`). A host adjacency mirror
/// validates updates and rebuilds the padding when slack runs out.
pub struct DynamicCore {
    ctx: GpuContext,
    cfg: DynamicConfig,
    n: usize,
    /// Host mirror: sorted adjacency lists, kept exactly in sync with the
    /// device CSR (up to within-list order, which the device's swap-remove
    /// deletes permute).
    adj: Vec<Vec<u32>>,
    core_host: Vec<u32>,
    /// Per-vertex device slot capacity (degree + slack at last build).
    cap: Vec<u32>,
    arcs: u64,
    rebuilds: u64,
    p: DynParams,
}

impl DynamicCore {
    /// Builds the engine over `g`: runs a full on-device peel for the
    /// initial core numbers, uploads the padded CSR and derives the MCD
    /// counters with a device kernel.
    pub fn from_csr(opts: &SimOptions, g: &Csr, cfg: DynamicConfig) -> Result<Self, SimError> {
        let n = g.num_vertices() as usize;
        let mut ctx = opts.context();
        let (core_host, _rounds) = peel::decompose_in(&mut ctx, g, &cfg.peel)?;
        let adj: Vec<Vec<u32>> = (0..n as u32).map(|v| g.neighbors(v).to_vec()).collect();

        ctx.set_phase("DynInit");
        ctx.set_workload_dims(n as u64, g.num_arcs());
        let (d_off, d_len, d_adj, cap) = build_device_csr(&mut ctx, &adj, cfg.slack.max(1))?;
        let pad = n.max(1);
        let core_padded: Vec<u32> = if n == 0 { vec![0] } else { core_host.clone() };
        let d_core = ctx.htod_tagged("dyn.core", &core_padded, SizeClass::PerVertex)?;
        let d_mcd = ctx.alloc_tagged("dyn.mcd", pad, SizeClass::PerVertex)?;
        let d_flag = ctx.alloc_tagged("dyn.flag", pad, SizeClass::PerVertex)?;
        let d_evic = ctx.alloc_tagged("dyn.evic", pad, SizeClass::PerVertex)?;
        let d_sup = ctx.alloc_tagged("dyn.sup", pad, SizeClass::PerVertex)?;
        let d_cand = ctx.alloc_tagged("dyn.cand", pad, SizeClass::PerVertex)?;
        let d_chg = ctx.alloc_tagged("dyn.changed", pad, SizeClass::PerVertex)?;
        let d_meta = ctx.alloc_tagged("dyn.meta", 4, SizeClass::Fixed)?;
        let bufcap = if cfg.buf_capacity == 0 {
            n.max(64)
        } else {
            cfg.buf_capacity
        };
        let d_buf = ctx.alloc_tagged(
            "dyn.buf",
            cfg.launch.blocks as usize * bufcap,
            SizeClass::Fixed,
        )?;
        let d_batch =
            ctx.alloc_tagged("dyn.batch", 2 * cfg.batch_capacity.max(1), SizeClass::Batch)?;

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
            d_chg,
            d_meta,
            d_buf,
            d_batch,
        };
        let mut this = DynamicCore {
            ctx,
            cfg,
            n,
            adj,
            core_host,
            cap,
            arcs: g.num_arcs(),
            rebuilds: 0,
            p,
        };
        if n > 0 {
            this.ctx.set_phase("DynMcd");
            this.run_mcd_full()?;
        }
        Ok(this)
    }

    /// An engine over `n` isolated vertices (the streaming-from-nothing
    /// entry point).
    pub fn new(opts: &SimOptions, n: usize, cfg: DynamicConfig) -> Result<Self, SimError> {
        Self::from_csr(opts, &Csr::empty(n), cfg)
    }

    /// Applies one batch of updates and returns what happened.
    ///
    /// Classification is host-side and sequential: each update is validated
    /// against the state the *prefix* of the batch leaves behind (so
    /// `Insert(a,b), Delete(a,b)` both count as accepted and then cancel).
    /// Surviving net updates are staged to the device in
    /// [`DynamicConfig::batch_capacity`]-sized chunks and processed deletes
    /// first, each with its own theorem-backed traversal — or, past
    /// [`DynamicConfig::crossover`], by one from-scratch peel.
    pub fn apply_batch(&mut self, updates: &[EdgeUpdate]) -> Result<BatchReport, SimError> {
        let _batch_span = self.ctx.host_span("dynamic/batch");
        let t0 = self.ctx.elapsed_ms();
        let mut rep = BatchReport {
            accepted_inserts: 0,
            accepted_deletes: 0,
            rejected: 0,
            net_inserts: 0,
            net_deletes: 0,
            path: BatchPath::Noop,
            groups: Vec::new(),
            candidates: 0,
            changed: 0,
            pruned_inserts: 0,
            rebuilds: self.rebuilds,
            sim_ms: 0.0,
        };
        let classify_span = self.ctx.host_span("dynamic/classify");
        self.ctx.set_phase("DynClassify");
        let n = self.n as u32;
        // Presence of each touched edge after the batch prefix seen so far.
        let mut pending: BTreeMap<(u32, u32), bool> = BTreeMap::new();
        for up in updates {
            let (x, y) = up.endpoints();
            if x == y || x >= n || y >= n {
                rep.rejected += 1;
                continue;
            }
            let key = up.key();
            let present = pending
                .get(&key)
                .copied()
                .unwrap_or_else(|| has_adj(&self.adj, key.0, key.1));
            if up.is_insert() {
                if present {
                    rep.rejected += 1;
                } else {
                    pending.insert(key, true);
                    rep.accepted_inserts += 1;
                }
            } else if present {
                pending.insert(key, false);
                rep.accepted_deletes += 1;
            } else {
                rep.rejected += 1;
            }
        }
        let mut net_del: Vec<(u32, u32)> = Vec::new();
        let mut net_ins: Vec<(u32, u32)> = Vec::new();
        for (&(u, v), &fin) in &pending {
            if fin == has_adj(&self.adj, u, v) {
                continue; // cancelled out
            }
            if fin {
                net_ins.push((u, v));
            } else {
                net_del.push((u, v));
            }
        }
        rep.net_inserts = net_ins.len();
        rep.net_deletes = net_del.len();
        let mut groups: BTreeMap<u32, usize> = BTreeMap::new();
        for &(u, v) in net_del.iter().chain(net_ins.iter()) {
            let k = self.core_host[u as usize].min(self.core_host[v as usize]);
            *groups.entry(k).or_insert(0) += 1;
        }
        rep.groups = groups.into_iter().collect();

        drop(classify_span);
        let net = net_del.len() + net_ins.len();
        if net == 0 {
            rep.path = BatchPath::Noop;
        } else if net >= self.cfg.crossover {
            rep.path = BatchPath::Repeeled;
            let _repeel_span = self.ctx.host_span("dynamic/repeel");
            self.repeel(&net_del, &net_ins)?;
        } else {
            rep.path = BatchPath::Maintained;
            let _maintain_span = self.ctx.host_span("dynamic/maintain");
            let chunk_cap = self.cfg.batch_capacity.max(1);
            let all: Vec<(bool, u32, u32)> = net_del
                .iter()
                .map(|&(u, v)| (false, u, v))
                .chain(net_ins.iter().map(|&(u, v)| (true, u, v)))
                .collect();
            for chunk in all.chunks(chunk_cap) {
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
        self.ctx.set_workload_dims(self.n as u64, self.arcs);
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
        self.n
    }

    /// Number of directed arcs currently stored.
    pub fn num_arcs(&self) -> u64 {
        self.arcs
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
        if self.n == 0 {
            return Vec::new();
        }
        self.ctx.dtoh_range(self.p.d_core, 0, self.n)
    }

    /// Copies the device MCD array back (charged D2H).
    pub fn device_mcd(&mut self) -> Vec<u32> {
        if self.n == 0 {
            return Vec::new();
        }
        self.ctx.dtoh_range(self.p.d_mcd, 0, self.n)
    }

    // -- per-update processing ---------------------------------------------

    /// One net deletion: structural kernel, subcore search seeded with MCD,
    /// eviction cascade at threshold `k`, commit, MCD refresh.
    fn process_delete(
        &mut self,
        i: usize,
        a: u32,
        b: u32,
        rep: &mut BatchReport,
    ) -> Result<(), SimError> {
        let k = self.core_host[a as usize].min(self.core_host[b as usize]);
        del_adj(&mut self.adj[a as usize], b);
        del_adj(&mut self.adj[b as usize], a);
        self.arcs -= 2;

        self.ctx.set_phase("DynStruct");
        let p = self.p;
        let one = LaunchConfig {
            blocks: 1,
            threads_per_block: self.cfg.launch.threads_per_block,
        };
        self.ctx
            .launch("dyn_edge_del", one, |blk| k_edge(blk, &p, i, false))?;
        if k == 0 {
            // Core numbers of 0 cannot drop; the theorem confines all other
            // vertices (core > K = 0) to no change.
            return Ok(());
        }
        let mut roots: Vec<u32> = Vec::new();
        if self.core_host[a as usize] == k {
            roots.push(a);
        }
        if self.core_host[b as usize] == k {
            roots.push(b);
        }
        self.ctx.set_phase("DynSubcore");
        self.launch_subcore(&roots, k, true)?;
        let cand_n = self.ctx.dtoh_word(self.p.d_meta, 0) as usize;
        self.ctx.set_phase("DynCascade");
        self.launch_cascade(k, Some(k - 1))?;
        let chg_n = self.ctx.dtoh_word(self.p.d_meta, 1) as usize;
        let dropped = self.ctx.dtoh_range(self.p.d_chg, 0, chg_n);
        self.ctx.set_phase("DynCommit");
        self.launch_commit(k, false, cand_n)?;
        for &w in &dropped {
            self.core_host[w as usize] = k - 1;
        }
        rep.candidates += cand_n as u64;
        rep.changed += chg_n as u64;
        if !dropped.is_empty() {
            let dirty = self.dirty_closure(&dropped);
            self.refresh_mcd(&dirty)?;
        }
        Ok(())
    }

    /// One net insertion: structural kernel, PCD prune, then (if the prune
    /// cannot retire it) subcore search, support kernel, eviction cascade at
    /// threshold `k + 1`, commit, MCD refresh.
    fn process_insert(
        &mut self,
        i: usize,
        a: u32,
        b: u32,
        rep: &mut BatchReport,
    ) -> Result<(), SimError> {
        if self.adj[a as usize].len() as u32 == self.cap[a as usize]
            || self.adj[b as usize].len() as u32 == self.cap[b as usize]
        {
            self.rebuilds += 1;
            self.rebuild_adjacency()?;
        }
        let k = self.core_host[a as usize].min(self.core_host[b as usize]);
        add_adj(&mut self.adj[a as usize], b);
        add_adj(&mut self.adj[b as usize], a);
        self.arcs += 2;

        self.ctx.set_phase("DynStruct");
        let p = self.p;
        let one = LaunchConfig {
            blocks: 1,
            threads_per_block: self.cfg.launch.threads_per_block,
        };
        self.ctx
            .launch("dyn_edge_ins", one, |blk| k_edge(blk, &p, i, true))?;

        let mut roots: Vec<u32> = Vec::new();
        if self.core_host[a as usize] == k {
            roots.push(a);
        }
        if self.core_host[b as usize] == k {
            roots.push(b);
        }
        self.ctx.set_phase("DynPrune");
        let pr = roots.clone();
        self.ctx
            .launch("dyn_prune", one, move |blk| k_prune(blk, &p, &pr, k))?;
        if self.ctx.dtoh_word(self.p.d_meta, 2) == 0 {
            rep.pruned_inserts += 1;
            return Ok(());
        }
        self.ctx.set_phase("DynSubcore");
        self.launch_subcore(&roots, k, false)?;
        let cand_n = self.ctx.dtoh_word(self.p.d_meta, 0) as usize;
        self.ctx.set_phase("DynSupport");
        self.ctx
            .launch("dyn_support", self.cfg.launch, move |blk| {
                k_support(blk, &p, k, cand_n)
            })?;
        self.ctx.set_phase("DynCascade");
        self.launch_cascade(k + 1, None)?;
        let evic_n = self.ctx.dtoh_word(self.p.d_meta, 1) as usize;
        let cand = self.ctx.dtoh_range(self.p.d_cand, 0, cand_n);
        let evicted = self.ctx.dtoh_range(self.p.d_chg, 0, evic_n);
        self.ctx.set_phase("DynCommit");
        self.launch_commit(k, true, cand_n)?;
        let evs: HashSet<u32> = evicted.into_iter().collect();
        let survivors: Vec<u32> = cand.into_iter().filter(|v| !evs.contains(v)).collect();
        for &w in &survivors {
            self.core_host[w as usize] = k + 1;
        }
        rep.candidates += cand_n as u64;
        rep.changed += survivors.len() as u64;
        if !survivors.is_empty() {
            let dirty = self.dirty_closure(&survivors);
            self.refresh_mcd(&dirty)?;
        }
        Ok(())
    }

    /// Crossover fallback: apply the net updates to the mirror, re-peel the
    /// whole graph on-device, rebuild the padded CSR and refresh every MCD.
    fn repeel(&mut self, net_del: &[(u32, u32)], net_ins: &[(u32, u32)]) -> Result<(), SimError> {
        for &(u, v) in net_del {
            del_adj(&mut self.adj[u as usize], v);
            del_adj(&mut self.adj[v as usize], u);
            self.arcs -= 2;
        }
        for &(u, v) in net_ins {
            add_adj(&mut self.adj[u as usize], v);
            add_adj(&mut self.adj[v as usize], u);
            self.arcs += 2;
        }
        self.ctx.set_phase("DynRepeel");
        let csr = self.mirror_csr();
        let (core, _rounds) = peel::decompose_in(&mut self.ctx, &csr, &self.cfg.peel)?;
        self.core_host = core;
        self.ctx.set_phase("DynRepeel");
        self.rebuild_adjacency()?;
        if self.n > 0 {
            self.ctx.htod_into(self.p.d_core, 0, &self.core_host)?;
            self.ctx.set_phase("DynMcd");
            self.run_mcd_full()?;
        }
        Ok(())
    }

    // -- launch wrappers ----------------------------------------------------

    fn launch_subcore(&mut self, roots: &[u32], k: u32, seed_mcd: bool) -> Result<(), SimError> {
        let p = self.p;
        let roots = roots.to_vec();
        self.ctx.launch_stepped(
            "dyn_subcore",
            self.cfg.launch,
            |blk| bfs_init(blk, &p, &roots, seed_mcd),
            |blk, st| bfs_step(blk, st, &p, k, seed_mcd),
        )
    }

    fn launch_cascade(&mut self, thresh: u32, drop_to: Option<u32>) -> Result<(), SimError> {
        let p = self.p;
        self.ctx.launch_stepped(
            "dyn_cascade",
            self.cfg.launch,
            |blk| casc_init(blk, &p, thresh, drop_to),
            |blk, st| casc_step(blk, st, &p, thresh, drop_to),
        )
    }

    fn launch_commit(&mut self, k: u32, rise: bool, cand_n: usize) -> Result<(), SimError> {
        let p = self.p;
        self.ctx.launch("dyn_commit", self.cfg.launch, move |blk| {
            k_commit(blk, &p, k, rise, cand_n)
        })
    }

    fn run_mcd_full(&mut self) -> Result<(), SimError> {
        let p = self.p;
        let count = self.n;
        self.ctx.launch("dyn_mcd", self.cfg.launch, move |blk| {
            k_mcd(blk, &p, count, false)
        })
    }

    /// Recomputes MCD for `dirty` (sorted, deduplicated) with the list-mode
    /// counter kernel, staging the list through `dyn.cand`.
    fn refresh_mcd(&mut self, dirty: &[u32]) -> Result<(), SimError> {
        self.ctx.set_phase("DynMcd");
        self.ctx.htod_into(self.p.d_cand, 0, dirty)?;
        let p = self.p;
        let count = dirty.len();
        self.ctx.launch("dyn_mcd", self.cfg.launch, move |blk| {
            k_mcd(blk, &p, count, true)
        })
    }

    /// `seed ∪ N(seed)` from the (post-op) mirror, sorted and deduplicated —
    /// exactly the vertices whose MCD a set of core changes can disturb.
    fn dirty_closure(&self, seed: &[u32]) -> Vec<u32> {
        let mut dirty: Vec<u32> = seed.to_vec();
        for &v in seed {
            dirty.extend_from_slice(&self.adj[v as usize]);
        }
        dirty.sort_unstable();
        dirty.dedup();
        dirty
    }

    /// Frees and re-uploads the padded device CSR from the mirror with fresh
    /// slack. Core/MCD/flag buffers are untouched.
    fn rebuild_adjacency(&mut self) -> Result<(), SimError> {
        self.ctx.device.free(self.p.d_adj);
        self.ctx.device.free(self.p.d_len);
        self.ctx.device.free(self.p.d_off);
        let (d_off, d_len, d_adj, cap) =
            build_device_csr(&mut self.ctx, &self.adj, self.cfg.slack.max(1))?;
        self.p.d_off = d_off;
        self.p.d_len = d_len;
        self.p.d_adj = d_adj;
        self.cap = cap;
        Ok(())
    }

    /// The mirror as a validated [`Csr`] (repeel input, test oracle).
    fn mirror_csr(&self) -> Csr {
        let mut offsets = Vec::with_capacity(self.n + 1);
        let mut neighbors: Vec<u32> = Vec::with_capacity(self.arcs as usize);
        let mut cur = 0u64;
        offsets.push(0u64);
        for l in &self.adj {
            neighbors.extend_from_slice(l);
            cur += l.len() as u64;
            offsets.push(cur);
        }
        Csr::new(offsets, neighbors).expect("dynamic mirror is a valid simple graph")
    }
}

// ---------------------------------------------------------------------------
// Host-side adjacency mirror helpers
// ---------------------------------------------------------------------------

fn has_adj(adj: &[Vec<u32>], u: u32, v: u32) -> bool {
    adj[u as usize].binary_search(&v).is_ok()
}

fn add_adj(list: &mut Vec<u32>, v: u32) {
    if let Err(i) = list.binary_search(&v) {
        list.insert(i, v);
    }
}

fn del_adj(list: &mut Vec<u32>, v: u32) {
    if let Ok(i) = list.binary_search(&v) {
        list.remove(i);
    }
}

/// Builds the slack-padded device CSR from the mirror: per-vertex capacity
/// `deg + slack`, live length in `dyn.len`, unused pad slots zeroed.
/// Returns the three buffers plus the capacity vector.
fn build_device_csr(
    ctx: &mut GpuContext,
    adj: &[Vec<u32>],
    slack: u32,
) -> Result<(BufferId, BufferId, BufferId, Vec<u32>), SimError> {
    let n = adj.len();
    let mut off: Vec<u32> = Vec::with_capacity(n + 1);
    let mut len: Vec<u32> = Vec::with_capacity(n.max(1));
    let mut cap: Vec<u32> = Vec::with_capacity(n);
    let mut cur = 0u64;
    off.push(0);
    for l in adj {
        let c = l.len() as u32 + slack;
        cap.push(c);
        len.push(l.len() as u32);
        cur += c as u64;
        assert!(
            cur < u32::MAX as u64,
            "padded adjacency exceeds 32-bit indexing"
        );
        off.push(cur as u32);
    }
    let mut flat = vec![0u32; (cur as usize).max(1)];
    for (v, l) in adj.iter().enumerate() {
        let o = off[v] as usize;
        flat[o..o + l.len()].copy_from_slice(l);
    }
    if len.is_empty() {
        len.push(0);
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
// Determinism discipline:
//
// * plain `launch` kernels (`k_mcd`, `k_support`, `k_commit`, and the
//   one-block `k_edge` / `k_prune`) only perform block-disjoint writes —
//   no shared atomic cursors across concurrent blocks;
// * list compaction (candidate / changed cursors in `dyn.meta`) happens
//   only on serial lanes: the stepped launches' init (block order) and
//   steps (one block at a time, in wave order).

/// MCD counter kernel. Full mode (`list == false`): vertex `i` striped over
/// blocks. List mode: vertex `dyn.cand[i]`. `mcd(v) = |{u ∈ N(v) :
/// core(u) >= core(v)}|`.
fn k_mcd(
    blk: &mut BlockCtx<'_>,
    p: &DynParams,
    count: usize,
    list: bool,
) -> Result<(), KernelError> {
    let dev = blk.device;
    let off = dev.buffer(p.d_off);
    let lenb = dev.buffer(p.d_len);
    let adjb = dev.buffer(p.d_adj);
    let core = dev.buffer(p.d_core);
    let mcd = dev.buffer(p.d_mcd);
    let cand = dev.buffer(p.d_cand);
    let blocks = blk.cfg.blocks as usize;
    let mut i = blk.block_idx as usize;
    while i < count {
        let v = if list {
            blk.gread(&cand[i]) as usize
        } else {
            i
        };
        blk.charge_sector(2); // off[v] + len[v] (distinct arrays)
        let o = off[v].load(Ordering::Relaxed) as usize;
        let l = lenb[v].load(Ordering::Relaxed) as usize;
        let cv = blk.gread(&core[v]);
        let mut m = 0u32;
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
            let mut cs = [0u32; 32];
            blk.gather(core, &idxs, &mut cs, Coalescing::Classified);
            for t in 0..cnt {
                if cs[t] >= cv {
                    m += 1;
                }
            }
            blk.charge_instr(1);
            chunk = cend;
        }
        blk.gwrite(&mcd[v], m);
        i += blocks;
    }
    Ok(())
}

/// Structural edge kernel (one block): reads op `i`'s `[u, v]` from the
/// staging buffer, splices both adjacency directions (append for insert,
/// swap-remove for delete) and applies the endpoint MCD deltas against the
/// current cores.
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
    Ok(())
}

/// PCD prune kernel (one block): for each insertion root `r`, computes
/// `pcd(r) = |{x ∈ N(r) : core(x) > k ∨ (core(x) == k ∧ mcd(x) > k)}|`
/// against the post-insert structure and raises `meta[2]` if any root has
/// `pcd > k`. If no root does, no core number can rise and the insertion
/// retires without a traversal.
fn k_prune(
    blk: &mut BlockCtx<'_>,
    p: &DynParams,
    roots: &[u32],
    k: u32,
) -> Result<(), KernelError> {
    let dev = blk.device;
    let off = dev.buffer(p.d_off);
    let lenb = dev.buffer(p.d_len);
    let adjb = dev.buffer(p.d_adj);
    let core = dev.buffer(p.d_core);
    let mcd = dev.buffer(p.d_mcd);
    let meta = dev.buffer(p.d_meta);
    blk.gwrite(&meta[2], 0);
    for &r in roots {
        let r = r as usize;
        blk.charge_sector(2);
        let o = off[r].load(Ordering::Relaxed) as usize;
        let l = lenb[r].load(Ordering::Relaxed) as usize;
        let mut pcd = 0u32;
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
            let mut cs = [0u32; 32];
            let mut ms = [0u32; 32];
            blk.gather(core, &idxs, &mut cs, Coalescing::Classified);
            blk.gather(mcd, &idxs, &mut ms, Coalescing::Classified);
            for t in 0..cnt {
                if cs[t] > k || (cs[t] == k && ms[t] > k) {
                    pcd += 1;
                }
            }
            blk.charge_instr(1);
            chunk = cend;
        }
        if pcd > k {
            blk.gwrite(&meta[2], 1);
        }
    }
    Ok(())
}

/// Per-block state of the stepped traversal kernels: shared `[s, e]`.
struct TravState {
    se: SharedArray,
}

fn overflow(b: u32, what: &str, cap: usize) -> KernelError {
    KernelError::BufferOverflow {
        what: format!("block {b}: {what} frontier exceeds capacity {cap}"),
    }
}

/// Subcore search, init (block order): stripes the roots over blocks,
/// test-sets their visited flag, appends them to the candidate list
/// (cursor `meta[0]`) and this block's frontier. For deletions
/// (`seed_mcd`), seeds `sup[r] = mcd[r]` — for a core-`k` vertex MCD *is*
/// the deletion-cascade support.
fn bfs_init(
    blk: &mut BlockCtx<'_>,
    p: &DynParams,
    roots: &[u32],
    seed_mcd: bool,
) -> Result<TravState, KernelError> {
    let dev = blk.device;
    let b = blk.block_idx as usize;
    let blocks = blk.cfg.blocks as usize;
    let bufb = &dev.buffer(p.d_buf)[b * p.bufcap..(b + 1) * p.bufcap];
    let flag = dev.buffer(p.d_flag);
    let cand = dev.buffer(p.d_cand);
    let sup = dev.buffer(p.d_sup);
    let mcd = dev.buffer(p.d_mcd);
    let meta = dev.buffer(p.d_meta);
    let se = blk.shared_alloc(2)?;
    let mut e = 0u32;
    for (idx, &r) in roots.iter().enumerate() {
        if idx % blocks != b {
            continue;
        }
        let old = blk.atomic_add(&flag[r as usize], 1);
        if old == 0 {
            let slot = blk.atomic_add(&meta[0], 1) as usize;
            blk.gwrite(&cand[slot], r);
            if seed_mcd {
                let m = blk.gread(&mcd[r as usize]);
                blk.gwrite(&sup[r as usize], m);
            }
            if e as usize >= p.bufcap {
                return Err(overflow(blk.block_idx, "subcore", p.bufcap));
            }
            blk.gwrite(&bufb[e as usize], r);
            e += 1;
        }
    }
    blk.sh_write(se, 0, 0);
    blk.sh_write(se, 1, e);
    Ok(TravState { se })
}

/// One wave of a stepped traversal, shared by the subcore search and the
/// eviction cascade: each warp takes one frontier vertex and walks its
/// adjacency in 32-neighbor chunks, gathering `gathered[u]` for every
/// neighbor `u` and ballot-compacting the neighbors whose word satisfies
/// `pick`. `visit` handles each compacted neighbor in order and returns
/// whether it joins this block's frontier (overflow reported as `what`).
/// Returns `false` once the frontier has drained.
///
/// `gathered` must be immutable during the launch (the subcore search
/// gathers `core`, the cascade `flag`), and appends land past the
/// frontier's tail, so reads and writes may interleave in any order.
fn walk_wave(
    blk: &mut BlockCtx<'_>,
    st: &mut TravState,
    p: &DynParams,
    gathered: BufferId,
    pick: impl Fn(u32) -> bool,
    what: &str,
    mut visit: impl FnMut(&mut BlockCtx<'_>, usize) -> Result<bool, KernelError>,
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
            if total > 0 {
                for t in 0..cnt {
                    if bits >> t & 1 == 1 && visit(blk, idxs[t])? {
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
    }
    blk.sh_poke(st.se, 1, e as u32);
    blk.sh_write(st.se, 0, (s + batch) as u32);
    Ok(true)
}

/// Subcore search, one wave: walks the frontier's core-`k` neighbors and
/// test-sets each one's flag; a first visit appends it to the candidate
/// list and this block's frontier, seeding support from MCD for deletions.
fn bfs_step(
    blk: &mut BlockCtx<'_>,
    st: &mut TravState,
    p: &DynParams,
    k: u32,
    seed_mcd: bool,
) -> Result<bool, KernelError> {
    let dev = blk.device;
    let flag = dev.buffer(p.d_flag);
    let cand = dev.buffer(p.d_cand);
    let sup = dev.buffer(p.d_sup);
    let mcd = dev.buffer(p.d_mcd);
    let meta = dev.buffer(p.d_meta);
    walk_wave(
        blk,
        st,
        p,
        p.d_core,
        |c| c == k,
        "subcore",
        |blk, x| {
            if blk.atomic_add(&flag[x], 1) != 0 {
                return Ok(false);
            }
            let slot = blk.atomic_add(&meta[0], 1) as usize;
            blk.gwrite(&cand[slot], x as u32);
            if seed_mcd {
                let m = blk.gread(&mcd[x]);
                blk.gwrite(&sup[x], m);
            }
            Ok(true)
        },
    )
}

/// Support kernel (insertions): for each candidate `v`,
/// `sup[v] = |{x ∈ N(v) : core(x) > k ∨ flag(x)}|` — supporters either
/// already above `k` or fellow candidates. Plain launch: `flag` is
/// immutable here, writes are block-disjoint.
fn k_support(
    blk: &mut BlockCtx<'_>,
    p: &DynParams,
    k: u32,
    cand_n: usize,
) -> Result<(), KernelError> {
    let dev = blk.device;
    let off = dev.buffer(p.d_off);
    let lenb = dev.buffer(p.d_len);
    let adjb = dev.buffer(p.d_adj);
    let core = dev.buffer(p.d_core);
    let flag = dev.buffer(p.d_flag);
    let sup = dev.buffer(p.d_sup);
    let cand = dev.buffer(p.d_cand);
    let blocks = blk.cfg.blocks as usize;
    let mut i = blk.block_idx as usize;
    while i < cand_n {
        let v = blk.gread(&cand[i]) as usize;
        blk.charge_sector(2);
        let o = off[v].load(Ordering::Relaxed) as usize;
        let l = lenb[v].load(Ordering::Relaxed) as usize;
        let mut m = 0u32;
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
            let mut cs = [0u32; 32];
            let mut fs = [0u32; 32];
            blk.gather(core, &idxs, &mut cs, Coalescing::Classified);
            blk.gather(flag, &idxs, &mut fs, Coalescing::Classified);
            for t in 0..cnt {
                if cs[t] > k || fs[t] != 0 {
                    m += 1;
                }
            }
            blk.charge_instr(1);
            chunk = cend;
        }
        blk.gwrite(&sup[v], m);
        i += blocks;
    }
    Ok(())
}

/// Eviction cascade, init (block order): stripes the candidate list over
/// blocks and immediately evicts every candidate whose support is already
/// below `thresh` — writing `evic`, the changed list (cursor `meta[1]`),
/// optionally the dropped core value, and this block's frontier.
fn casc_init(
    blk: &mut BlockCtx<'_>,
    p: &DynParams,
    thresh: u32,
    drop_to: Option<u32>,
) -> Result<TravState, KernelError> {
    let dev = blk.device;
    let b = blk.block_idx as usize;
    let blocks = blk.cfg.blocks as usize;
    let bufb = &dev.buffer(p.d_buf)[b * p.bufcap..(b + 1) * p.bufcap];
    let cand = dev.buffer(p.d_cand);
    let sup = dev.buffer(p.d_sup);
    let evic = dev.buffer(p.d_evic);
    let core = dev.buffer(p.d_core);
    let chg = dev.buffer(p.d_chg);
    let meta = dev.buffer(p.d_meta);
    let se = blk.shared_alloc(2)?;
    let cand_n = blk.gread(&meta[0]) as usize;
    let mut e = 0u32;
    let mut i = b;
    while i < cand_n {
        let v = blk.gread(&cand[i]) as usize;
        let sv = blk.gread(&sup[v]);
        if sv < thresh {
            blk.gwrite(&evic[v], 1);
            if let Some(c) = drop_to {
                blk.gwrite(&core[v], c);
            }
            let slot = blk.atomic_add(&meta[1], 1) as usize;
            blk.gwrite(&chg[slot], v as u32);
            if e as usize >= p.bufcap {
                return Err(overflow(blk.block_idx, "cascade", p.bufcap));
            }
            blk.gwrite(&bufb[e as usize], v as u32);
            e += 1;
        }
        i += blocks;
    }
    blk.sh_write(se, 0, 0);
    blk.sh_write(se, 1, e);
    Ok(TravState { se })
}

/// Eviction cascade, one wave: walks the evicted frontier's neighbors
/// inside the candidate set (`flag`) and decrements each un-evicted one's
/// support; a decrement from exactly `thresh` evicts — mark, changed-list
/// append, optional core drop, frontier append. An un-evicted candidate
/// always has `sup >= thresh >= 1`, so the decrement cannot underflow.
fn casc_step(
    blk: &mut BlockCtx<'_>,
    st: &mut TravState,
    p: &DynParams,
    thresh: u32,
    drop_to: Option<u32>,
) -> Result<bool, KernelError> {
    let dev = blk.device;
    let sup = dev.buffer(p.d_sup);
    let evic = dev.buffer(p.d_evic);
    let core = dev.buffer(p.d_core);
    let chg = dev.buffer(p.d_chg);
    let meta = dev.buffer(p.d_meta);
    walk_wave(
        blk,
        st,
        p,
        p.d_flag,
        |f| f != 0,
        "cascade",
        |blk, x| {
            if blk.gread(&evic[x]) != 0 {
                return Ok(false);
            }
            let old = blk.atomic_sub(&sup[x], 1);
            debug_assert!(old >= thresh, "support underflow on un-evicted candidate");
            if old != thresh {
                return Ok(false);
            }
            blk.gwrite(&evic[x], 1);
            if let Some(c) = drop_to {
                blk.gwrite(&core[x], c);
            }
            let slot = blk.atomic_add(&meta[1], 1) as usize;
            blk.gwrite(&chg[slot], x as u32);
            Ok(true)
        },
    )
}

/// Commit/cleanup kernel: for insertions (`rise`), survivors (un-evicted
/// candidates) get core `k + 1`; then every candidate's flag / eviction
/// mark / support is zeroed for the next op and block 0 resets the list
/// cursors. Plain launch: stripes are block-disjoint, `meta` is block 0's.
fn k_commit(
    blk: &mut BlockCtx<'_>,
    p: &DynParams,
    k: u32,
    rise: bool,
    cand_n: usize,
) -> Result<(), KernelError> {
    let dev = blk.device;
    let cand = dev.buffer(p.d_cand);
    let flag = dev.buffer(p.d_flag);
    let evic = dev.buffer(p.d_evic);
    let sup = dev.buffer(p.d_sup);
    let core = dev.buffer(p.d_core);
    let meta = dev.buffer(p.d_meta);
    let blocks = blk.cfg.blocks as usize;
    let b = blk.block_idx as usize;
    if b == 0 {
        blk.gwrite(&meta[0], 0);
        blk.gwrite(&meta[1], 0);
        blk.gwrite(&meta[2], 0);
    }
    let mut i = b;
    while i < cand_n {
        let v = blk.gread(&cand[i]) as usize;
        if rise && blk.gread(&evic[v]) == 0 {
            blk.gwrite(&core[v], k + 1);
        }
        blk.gwrite(&flag[v], 0);
        blk.gwrite(&evic[v], 0);
        blk.gwrite(&sup[v], 0);
        i += blocks;
    }
    Ok(())
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
        let g = dc.mirror_csr();
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
        let cfg = DynamicConfig::default().with_auto_crossover(12.0, 3.0);
        assert_eq!(cfg.crossover, 4);
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
        let mut dc = DynamicCore::new(&SimOptions::default(), 6, small_cfg()).unwrap();
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
        let mut dc = DynamicCore::new(&SimOptions::default(), 12, cfg).unwrap();
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
    fn empty_engine_rejects_everything() {
        let mut dc = DynamicCore::new(&SimOptions::default(), 0, small_cfg()).unwrap();
        let rep = dc
            .apply_batch(&[EdgeUpdate::Insert(0, 1), EdgeUpdate::Delete(2, 3)])
            .unwrap();
        assert_eq!(rep.path, BatchPath::Noop);
        assert_eq!(rep.rejected, 2);
        assert!(dc.cores().is_empty());
        assert!(dc.device_cores().is_empty());
    }
}
