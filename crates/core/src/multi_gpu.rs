//! Multi-GPU k-core decomposition — the paper's §VII future work, built out
//! as real edge-partitioned sharding.
//!
//! > "we can partition a graph among worker GPUs running our kernels, but
//! > degree updates of border vertices would be aggregated afterwards, which
//! > can be computed at a master GPU. Moreover, the updates may cause new
//! > border vertices to be in k-shell, so more than one round may be needed
//! > to compute a k-shell."
//!
//! Design implemented here (see DESIGN.md "Sharded decomposition"):
//!
//! * the graph is split by a [`Partition`] (balanced-arcs ranges) into
//!   per-shard **local-ID compacted CSRs**: each worker device holds only
//!   its owned rows, its ghost table, and its share of the arcs —
//!   O(owned + ghosts) residency, not the old O(|V|)-per-worker replicated
//!   arrays;
//! * every worker runs the **real scan/loop peel kernels** from [`peel`]
//!   over its shard, executed concurrently on the rayon pool;
//! * ghost vertices use the **sentinel-accumulator protocol**: their `deg`
//!   slots are pinned at the `GHOST_BASE` sentinel, so the unmodified loop
//!   kernel's decrement-and-recover arithmetic simply counts border
//!   decrements in the slot (a ghost can never scan-match `k`, never
//!   crosses `k + 1`, and never dips below the recover floor). After the
//!   local loops drain, the host reads each slot's delta, resets it, and
//!   ships `(vertex, delta)` packets through the master to the owners;
//! * owners apply border decrements with a floor at `k`; a vertex landing
//!   exactly on `k` is seeded into the owner's next sub-round (the paper's
//!   "new border vertices in the k-shell") via a seed launch that rebuilds
//!   the per-block frontier, followed by a loop-only launch — never a
//!   re-scan. The exchange is charged as the paper's master aggregation
//!   (the second hop carries one packet per vertex reached), while the host
//!   applies each packet at its owner as it drains: the floor makes a
//!   vertex's deltas applied one at a time land where their sum lands;
//! * sub-rounds repeat until the exchange produces no seeds. The fleet
//!   clock charges each barrier sub-round the slowest device's own clock
//!   delta (the workers run concurrently) and each exchange its pack
//!   kernels, two link hops and apply kernels. At one device this is
//!   exactly what [`peel::decompose`] charges.
//!
//! **Determinism.** Ghost drains happen in shard index order, each ghost
//! table ascending, and each owner's seeds are sorted ascending before its
//! seed launch. Worker kernels run on private contexts whose engine is
//! pool-size-independent, so traces, counters, `total_ms` and
//! `exchanged_bytes` are bit-identical at any rayon pool size —
//! `tests/multi_shard.rs` pins this.

use crate::config::PeelConfig;
use crate::peel;
use kcore_gpusim::{
    BlockCtx, BufferId, ExchangeTrace, FleetTrace, FlowEdge, GpuContext, KernelError, RoundTrace,
    SimError, SimOptions, SizeClass, SubRoundSlice, Trace, PACKET_BYTES,
};
use kcore_graph::{Csr, Partition, PartitionStats, PartitionStrategy, VertexId};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};

/// Sentinel base value for ghost `deg` slots. Large enough that a ghost can
/// never equal the round's `k` (scan), cross `k + 1` (frontier append), or
/// fall to the recover floor: a slot absorbs at most one decrement per
/// incident arc per run, and `|V| <` [`MAX_VERTICES`] is checked up front.
const GHOST_BASE: u32 = 0x7FFF_FFFF;

/// Vertex-count bound of a sharded run: below it every degree, and so every
/// count of decrements a ghost slot absorbs, stays under `2^30`, which keeps
/// [`GHOST_BASE`] slots clear of every real degree and every `k`.
const MAX_VERTICES: usize = 1 << 30;

/// Device-count bound of a sharded run. Each worker is a whole simulated
/// device, built before the first round, and every exchange records a seed
/// count per device, so a count far beyond the paper's "a master GPU" and
/// its workers is refused rather than built.
const MAX_DEVICES: usize = 65_535;

/// Configuration of a multi-GPU run.
#[derive(Debug, Clone, Copy)]
pub struct MultiGpuConfig {
    /// Number of worker GPUs (each gets its own simulated device).
    pub num_gpus: usize,
    /// Kernel configuration used by every worker.
    pub peel: PeelConfig,
    /// Vertex-to-shard assignment strategy.
    pub partition: PartitionStrategy,
    /// Inter-GPU link bandwidth, bytes/s (PCIe peer-to-peer ≈ 10 GB/s on
    /// the paper-era platform; NVLink would be ~40 GB/s).
    pub link_bandwidth: f64,
    /// Fixed per-exchange latency, seconds.
    pub link_latency_s: f64,
}

impl Default for MultiGpuConfig {
    fn default() -> Self {
        MultiGpuConfig {
            num_gpus: 4,
            peel: PeelConfig::default(),
            partition: PartitionStrategy::BalancedArcs,
            link_bandwidth: 10e9,
            link_latency_s: 10e-6,
        }
    }
}

/// Result of a multi-GPU decomposition.
#[derive(Debug, Clone)]
pub struct MultiGpuRun {
    /// Per-vertex core numbers.
    pub core: Vec<u32>,
    /// Peeling rounds (`k_max + 1`).
    pub rounds: u32,
    /// Total sub-rounds across all rounds (> rounds when k-shells span
    /// partition borders).
    pub sub_rounds: u32,
    /// Simulated wall time (slowest device per phase + exchanges), ms.
    pub total_ms: f64,
    /// Each worker device's peak, bytes, in shard order.
    pub per_device_peak_bytes: Vec<u64>,
    /// Each worker trace's counters fingerprint, in shard order.
    pub worker_fingerprints: Vec<u64>,
    /// Bytes exchanged between devices over the whole run: the ledger's
    /// [`ExchangeTrace::bytes`], summed.
    pub exchanged_bytes: u64,
    /// Exchanges that actually carried border packets (informational
    /// observability rollup of the ledger — never feeds the cost model).
    pub exchange_rounds: u64,
    /// Total worker→master border packets over the run (informational).
    pub border_packets: u64,
}

/// A traced fleet run: the result plus every observability artifact the
/// fleet layer derives — one trace per device and the [`FleetTrace`]
/// ledger. Everything here observes the same run; none of it perturbs
/// `total_ms`, fingerprints, or `exchanged_bytes`.
#[derive(Debug, Clone)]
pub struct FleetRun {
    /// The decomposition result, bit-identical to [`decompose_multi`].
    pub run: MultiGpuRun,
    /// Per-worker traces, shard order — the run's one capture of each
    /// device, which the ledger's flow edges index into and its methods
    /// (the merged Perfetto rendering included) take as an argument.
    pub traces: Vec<Trace>,
    /// The fleet ledger: sub-round slices and exchange flows, from which
    /// the critical path is derived.
    pub fleet: FleetTrace,
    /// The border structure of the partition the run peeled.
    pub partition: PartitionStats,
}

/// One worker: a device context holding its shard's peel working set.
struct Worker {
    ctx: GpuContext,
    st: peel::DeviceState,
    /// Exchange staging buffer (ledger residency for update packets).
    d_xfer: Option<BufferId>,
    /// Cumulative `gpu_count` readback = owned vertices removed so far.
    count: u64,
    /// Border seeds (local IDs) for the next sub-round, in arrival order.
    seeds: Vec<u32>,
    /// One bit per owned vertex: a packet reached it in this exchange.
    reached: Vec<u64>,
}

/// Runs the distributed decomposition. `opts.device_capacity_bytes` is the
/// capacity of *each* worker device. Zero or more than 65,535 devices, a
/// link latency that is negative or not finite, a link bandwidth that is
/// not positive or not finite, or a graph of `2^30` or more vertices, is a
/// [`SimError::InvalidConfig`].
pub fn decompose_multi(
    g: &Csr,
    cfg: &MultiGpuConfig,
    opts: &SimOptions,
) -> Result<MultiGpuRun, SimError> {
    decompose_multi_impl(g, cfg, opts).map(|(run, ..)| run)
}

/// [`decompose_multi`] with the full fleet observability layer: the run,
/// one trace per worker (for golden pinning, per-device memstats and the
/// Perfetto rendering), and the [`FleetTrace`] ledger (exchange flows,
/// sub-round slices, per-round critical path). The run itself — `total_ms`,
/// fingerprints, `exchanged_bytes` — is bit-identical to
/// [`decompose_multi`]; the fleet layer only observes.
pub fn decompose_multi_fleet(
    g: &Csr,
    cfg: &MultiGpuConfig,
    opts: &SimOptions,
    label: impl Into<String>,
) -> Result<FleetRun, SimError> {
    let (run, fleet, mut contexts, part) = decompose_multi_impl(g, cfg, opts)?;
    let traces: Vec<Trace> = contexts
        .iter_mut()
        .enumerate()
        .map(|(wi, ctx)| ctx.trace(format!("worker{wi}")))
        .collect();
    Ok(FleetRun {
        run,
        traces,
        fleet: FleetTrace {
            label: label.into(),
            ..fleet
        },
        partition: part.stats(),
    })
}

/// The configuration checks shared by both sharded entry points;
/// [`decompose_multi`] lists what they reject.
fn check_config(g: &Csr, cfg: &MultiGpuConfig) -> Result<(), SimError> {
    if cfg.num_gpus == 0 {
        return Err(SimError::InvalidConfig {
            what: "num_gpus",
            value: 0.0,
            need: "at least 1",
        });
    }
    if cfg.num_gpus > MAX_DEVICES {
        return Err(SimError::InvalidConfig {
            what: "num_gpus",
            value: cfg.num_gpus as f64,
            need: "at most 65535",
        });
    }
    if !(cfg.link_latency_s.is_finite() && cfg.link_latency_s >= 0.0) {
        return Err(SimError::InvalidConfig {
            what: "link_latency_s",
            value: cfg.link_latency_s,
            need: "a finite value >= 0",
        });
    }
    if !(cfg.link_bandwidth.is_finite() && cfg.link_bandwidth > 0.0) {
        return Err(SimError::InvalidConfig {
            what: "link_bandwidth",
            value: cfg.link_bandwidth,
            need: "a finite value > 0",
        });
    }
    let n = g.num_vertices() as usize;
    if n >= MAX_VERTICES {
        return Err(SimError::InvalidConfig {
            what: "vertices",
            value: n as f64,
            need: "fewer than 2^30 for the ghost sentinel",
        });
    }
    Ok(())
}

/// The sharded run, its unlabelled ledger, the worker contexts in shard
/// order and the partition, which [`decompose_multi_fleet`] builds its
/// traces and border stats from.
fn decompose_multi_impl(
    g: &Csr,
    cfg: &MultiGpuConfig,
    opts: &SimOptions,
) -> Result<(MultiGpuRun, FleetTrace, Vec<GpuContext>, Partition), SimError> {
    check_config(g, cfg)?;
    let part = Partition::build(g, cfg.num_gpus, cfg.partition);
    let n = g.num_vertices() as usize;
    if n == 0 {
        let run = MultiGpuRun {
            core: Vec::new(),
            rounds: 0,
            sub_rounds: 0,
            total_ms: 0.0,
            per_device_peak_bytes: Vec::new(),
            worker_fingerprints: Vec::new(),
            exchanged_bytes: 0,
            exchange_rounds: 0,
            border_packets: 0,
        };
        let fleet = FleetTrace {
            label: String::new(),
            num_devices: 0,
            total_ms: 0.0,
            setup_ms: 0.0,
            result_ms: 0.0,
            rounds: Vec::new(),
        };
        return Ok((run, fleet, Vec::new(), part));
    }
    // ---- load shards ------------------------------------------------------
    let mut workers = build_workers(&part, cfg, opts)?;
    let mut total_ms = max_f64(workers.iter().map(|w| w.ctx.elapsed_ms()));
    let setup_ms = total_ms;

    let mut k = 0u32;
    let mut removed = 0u64;
    // Fleet ledger: `round_log[k]` peels `k`. Every charged_ms below is the
    // addend folded into total_ms.
    let mut round_log: Vec<RoundTrace> = Vec::new();

    while removed < n as u64 {
        let mut slices: Vec<SubRoundSlice> = Vec::new();
        let mut exchanges: Vec<ExchangeTrace> = Vec::new();
        // Sub-round 0: every worker scans its shard for the k-shell and
        // drains the resulting cascade — the real kernels, concurrently.
        let slice = run_workers(&mut workers, |w| {
            peel::run_scan_loop(&mut w.ctx, k, &mut w.st)?;
            sync_worker(w)
        })?;
        total_ms += slice.charged_ms;
        slices.push(slice);

        // Border sub-rounds: exchange ghost decrements, seed owners, run
        // loop-only launches, until an exchange produces no seeds.
        loop {
            let ledger = exchange(&mut workers, &part, k, cfg)?;
            total_ms += ledger.charged_ms;
            let seeded = ledger.seeds() > 0;
            exchanges.push(ledger);
            if !seeded {
                break;
            }
            let slice = run_workers(&mut workers, |w| {
                if w.seeds.is_empty() {
                    return Ok(());
                }
                // Ascending, the order the master's aggregated list gives.
                let mut seeds = std::mem::take(&mut w.seeds);
                seeds.sort_unstable();
                seed_frontier(&mut w.ctx, &mut w.st, &seeds)?;
                peel::run_loop_only(&mut w.ctx, k, &w.st)?;
                sync_worker(w)
            })?;
            total_ms += slice.charged_ms;
            slices.push(slice);
        }

        round_log.push(RoundTrace { slices, exchanges });
        removed = workers.iter().map(|w| w.count).sum();
        k += 1;
        if k as usize > n + 1 {
            return Err(SimError::Kernel(KernelError::Other(format!(
                "sharded peeling did not converge: k={k} exceeds |V|={n} (removed={removed})"
            ))));
        }
    }

    // ---- gather results ---------------------------------------------------
    // Owned deg ranges have converged to the core numbers, exactly as in
    // the single-device run; ghost slots still hold the sentinel.
    let mut core = vec![0u32; n];
    let mut result_ms = 0.0f64;
    for (w, shard) in workers.iter_mut().zip(&part.shards) {
        let before = w.ctx.elapsed_ms();
        w.ctx.set_phase("Result");
        let owned = shard.owned.start as usize..shard.owned.end as usize;
        core[owned].copy_from_slice(&w.ctx.dtoh(w.st.d_deg, ..shard.num_owned())?);
        peel::free_device(&mut w.ctx, &w.st);
        if let Some(x) = w.d_xfer {
            w.ctx.device.free(x);
        }
        result_ms = result_ms.max(w.ctx.elapsed_ms() - before);
    }
    total_ms += result_ms;

    // Fingerprints digest the launch and transfer records directly, as
    // `Trace::counters_fingerprint` would; traces are captured only when
    // the fleet layer asks. The counts and the bytes are the ledger's.
    let exchanges = || round_log.iter().flat_map(|r| &r.exchanges);
    let run = MultiGpuRun {
        core,
        rounds: k,
        sub_rounds: round_log.iter().map(|r| r.slices.len() as u32).sum(),
        total_ms,
        per_device_peak_bytes: workers.iter().map(|w| w.ctx.device.peak_bytes()).collect(),
        worker_fingerprints: workers
            .iter()
            .map(|w| w.ctx.counters_fingerprint())
            .collect(),
        exchanged_bytes: exchanges().map(ExchangeTrace::bytes).sum(),
        exchange_rounds: exchanges().filter(|e| e.packets_out() > 0).count() as u64,
        border_packets: exchanges().map(ExchangeTrace::packets_out).sum(),
    };
    let fleet = FleetTrace {
        label: String::new(),
        num_devices: workers.len(),
        total_ms,
        setup_ms,
        result_ms,
        rounds: round_log,
    };
    let contexts = workers.into_iter().map(|w| w.ctx).collect();
    Ok((run, fleet, contexts, part))
}

/// Loads every shard onto its own device: the local-ID CSR through
/// [`peel::load_device`] (ghost `deg` slots pinned at [`GHOST_BASE`]) plus
/// the exchange staging buffer. Allocation names and order per worker match
/// the single-device run — memstats on a worker context shows only
/// shard-local sizes.
fn build_workers(
    part: &Partition,
    cfg: &MultiGpuConfig,
    opts: &SimOptions,
) -> Result<Vec<Worker>, SimError> {
    let mut workers = Vec::with_capacity(part.num_shards());
    for shard in &part.shards {
        let mut ctx = opts.context();
        let mut deg = shard.csr.degrees();
        for d in deg[shard.num_owned()..].iter_mut() {
            *d = GHOST_BASE;
        }
        let st = peel::load_device(
            &mut ctx,
            shard.csr.offsets(),
            shard.csr.neighbor_array(),
            &deg,
            &cfg.peel,
        )?;
        // Staging room for one exchange's worth of (vertex, delta) packets:
        // at most one per ghost. Batch-class: packet volume is a border
        // property, not a |V|/|E|-linear one.
        let d_xfer = if shard.ghosts.is_empty() {
            None
        } else {
            Some(ctx.alloc("mgpu.xfer", 2 * shard.ghosts.len(), SizeClass::Batch)?)
        };
        workers.push(Worker {
            ctx,
            st,
            d_xfer,
            count: 0,
            seeds: Vec::new(),
            reached: vec![0; shard.num_owned().div_ceil(64)],
        });
    }
    Ok(workers)
}

/// Runs `f` on every worker concurrently (order-preserving rayon map) and
/// records the barrier sub-round as a [`SubRoundSlice`]: each device's
/// local clock at entry and its delta over the sub-round, in shard order.
/// The devices run the sub-round concurrently, so it charges the slowest
/// one's delta. Each worker only ever touches its own context, so every
/// field is bit-identical at any pool size.
fn run_workers(
    workers: &mut [Worker],
    f: impl Fn(&mut Worker) -> Result<(), SimError> + Sync,
) -> Result<SubRoundSlice, SimError> {
    let mut observed = workers
        .par_iter_mut()
        .enumerate()
        .map(|(i, w)| {
            let start = w.ctx.elapsed_ms();
            let r = f(w).map(|()| (start, w.ctx.elapsed_ms() - start));
            vec![(i, r)]
        })
        .reduce(Vec::new, |mut a, mut b| {
            a.append(&mut b);
            a
        });
    // Reduction order is unspecified; shard order is restored by index so
    // every ledger field is pool-size-independent.
    observed.sort_by_key(|&(i, _)| i);
    let (device_start_ms, device_ms): (Vec<f64>, Vec<f64>) = observed
        .into_iter()
        .map(|(_, r)| r)
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .unzip();
    Ok(SubRoundSlice {
        charged_ms: max_f64(device_ms.iter().copied()),
        device_start_ms,
        device_ms,
    })
}

/// The synchronizing `gpu_count` readback (Algorithm 1 line 8) on one
/// worker, plus the frontier observability sample.
fn sync_worker(w: &mut Worker) -> Result<(), SimError> {
    let before_sync = w.count;
    w.ctx.set_phase("Sync");
    w.count = w.ctx.dtoh(w.st.d_count, 0..1)?[0] as u64;
    w.ctx
        .sample_counter("frontier", (w.count - before_sync) as f64);
    Ok(())
}

/// Ghost slots per touched-slot bit mask of the drain (one `u64`).
const DRAIN_CHUNK: usize = 64;

/// One border exchange: drain every worker's ghost accumulator slots,
/// applying each packet at its owner with the floor-at-`k` rule as it is
/// drained, charge the packets' trip worker → master → owner, and seed
/// owners whose vertices crossed into the k-shell. Returns the ledger: the
/// [`ExchangeTrace`] records the shard-pair flows, the seeds and the cost of
/// each stage, and its `charged_ms` is their sum `pack_ms + hop1_ms +
/// hop2_ms + apply_ms`, the exchange's simulated wall time.
///
/// The master of the paper's sketch sums each vertex's deltas before the
/// owner applies them. Applying them one at a time instead leaves the same
/// `deg`: from `deg > k`, each step lands on `max(k, deg − delta)`, so the
/// steps compose to `max(k, deg − Σ delta)`. A vertex thus lands on `k`
/// exactly when the sum would take it there, and at most once, since from
/// there every later step applies nothing. So the host never builds the
/// master's list; hop 2 and each owner's apply kernel are charged on the
/// vertices reached, the list's length.
fn exchange(
    workers: &mut [Worker],
    part: &Partition,
    k: u32,
    cfg: &MultiGpuConfig,
) -> Result<ExchangeTrace, SimError> {
    let num = workers.len();
    let mut ledger = ExchangeTrace {
        charged_ms: 0.0,
        pack_ms: 0.0,
        hop1_ms: 0.0,
        hop2_ms: 0.0,
        apply_ms: 0.0,
        pack_bounding_device: 0,
        apply_bounding_device: 0,
        packets_aggregated: 0,
        seeds_per_device: vec![0; num],
        flows: Vec::new(),
    };
    // Packets each shard ships (hop 1), and packets the master forwards to
    // each owner (hop 2): one per owned vertex that the shipped packets reach.
    let mut shipped = vec![0u64; num];
    let mut forwarded = vec![0u64; num];
    // `(from, to, packets)` shard-pair flow counts, ascending `(from, to)`.
    let mut flows: Vec<(usize, usize, u64)> = Vec::new();
    // ---- drain and apply, shard index order ------------------------------
    // Each owner's `deg`, reached bits and seed list, so a packet is applied
    // at its owner while its shipper drains.
    let mut owners: Vec<_> = workers
        .iter_mut()
        .map(|w| {
            (
                w.ctx.device.buffer(w.st.d_deg),
                &mut w.reached,
                &mut w.seeds,
            )
        })
        .collect();
    for (from, shard) in part.shards.iter().enumerate() {
        let slots = &owners[from].0[shard.num_owned()..];
        let mut to = 0;
        shipped[from] = drain_ghosts(slots, &shard.ghosts, |gv, delta| {
            // Owners are ascending vertex ranges and the ghost table is
            // ascending, so walking forward finds each packet's owner,
            // and this shard meets its peers in ascending order, so the
            // flows stay sorted by (from, to).
            while part.shards[to].owned.end <= gv {
                to += 1;
            }
            match flows.last_mut() {
                Some((f, last_to, count)) if *f == from && *last_to == to => *count += 1,
                _ => {
                    debug_assert!(flows.last().is_none_or(|&(f, t, _)| (f, t) < (from, to)));
                    flows.push((from, to, 1));
                }
            }
            let (deg, bits, seeds) = &mut owners[to];
            let lv = (gv - part.shards[to].owned.start) as usize;
            let bit = 1u64 << (lv % 64);
            forwarded[to] += ((bits[lv / 64] & bit) == 0) as u64;
            bits[lv / 64] |= bit;
            let cur = deg[lv].load(Ordering::Relaxed);
            // Floor at k (Fig. 6 Case-1 recovery, host side): removed
            // vertices sit at their core (≤ k) and are untouched.
            let applicable = cur.saturating_sub(k).min(delta);
            if applicable > 0 {
                deg[lv].store(cur - applicable, Ordering::Relaxed);
                // Seed only on the crossing itself, so a vertex already
                // waiting in a seed list is not re-seeded later.
                if cur - applicable == k {
                    seeds.push(lv as u32);
                }
            }
        });
    }
    // Per-device launch-record indices backing the flow edges.
    let mut pack_seq: Vec<Option<usize>> = vec![None; num];
    let mut apply_seq: Vec<Option<usize>> = vec![None; num];
    // ---- pack, shard index order ------------------------------------------
    for (wi, w) in workers.iter_mut().enumerate() {
        let touched = shipped[wi];
        if touched == 0 {
            continue;
        }
        // Pack kernel: gather the touched (vertex, delta) pairs into the
        // xfer staging buffer — sparse slot reads, coalesced packet writes.
        let before = w.ctx.elapsed_ms();
        w.ctx.set_phase("Exchange");
        w.ctx.launch("mgpu_pack", cfg.peel.launch, move |blk| {
            let share = touched / blk.cfg.blocks as u64 + 1;
            blk.charge_sector(share);
            blk.charge_tx(BlockCtx::coalesced_tx(2 * share));
            Ok(())
        })?;
        pack_seq[wi] = Some(w.ctx.launches().len() - 1);
        let delta = w.ctx.elapsed_ms() - before;
        if delta > ledger.pack_ms {
            ledger.pack_ms = delta;
            ledger.pack_bounding_device = wi;
        }
    }
    let packets_out: u64 = shipped.iter().sum();
    if packets_out == 0 {
        return Ok(ledger);
    }

    // ---- the two link hops -----------------------------------------------
    // Each packet is (vertex, delta), shipped worker → master → owner (two
    // hops, as the paper sketches); the master dedups, so the second hop
    // carries one packet per vertex reached. Each hop costs the link
    // latency plus its packets over the bandwidth.
    ledger.packets_aggregated = forwarded.iter().sum();
    let packet_bytes = PACKET_BYTES as f64;
    ledger.hop1_ms =
        (cfg.link_latency_s + packets_out as f64 * packet_bytes / cfg.link_bandwidth) * 1e3;
    ledger.hop2_ms = (cfg.link_latency_s
        + ledger.packets_aggregated as f64 * packet_bytes / cfg.link_bandwidth)
        * 1e3;

    // ---- apply kernels, shard index order ---------------------------------
    for (owner, w) in workers.iter_mut().enumerate() {
        let m = forwarded[owner];
        if m == 0 {
            continue;
        }
        w.reached.fill(0);
        ledger.seeds_per_device[owner] = w.seeds.len() as u64;
        // Apply kernel: coalesced packet reads, random-access deg probes,
        // one atomic per applied decrement.
        let before = w.ctx.elapsed_ms();
        w.ctx.set_phase("Exchange");
        w.ctx.launch("mgpu_apply", cfg.peel.launch, move |blk| {
            let share = m / blk.cfg.blocks as u64 + 1;
            blk.charge_tx(BlockCtx::coalesced_tx(2 * share));
            blk.charge_sector(share);
            blk.counters.global_atomics += share;
            Ok(())
        })?;
        apply_seq[owner] = Some(w.ctx.launches().len() - 1);
        let delta = w.ctx.elapsed_ms() - before;
        if delta > ledger.apply_ms {
            ledger.apply_ms = delta;
            ledger.apply_bounding_device = owner;
        }
    }
    // Flow edges: every pair that shipped packets has a pack launch on the
    // shipper and — because the master forwards every aggregated vertex to
    // its owner — an apply launch on the receiver.
    ledger.flows = flows
        .iter()
        .map(|&(from, to, packets)| FlowEdge {
            from_device: from,
            to_device: to,
            packets,
            pack_launch_seq: pack_seq[from].expect("shipper ran a pack launch"),
            apply_launch_seq: apply_seq[to].expect("owner ran an apply launch"),
        })
        .collect();
    ledger.charged_ms = ledger.pack_ms + ledger.hop1_ms + ledger.hop2_ms + ledger.apply_ms;
    Ok(ledger)
}

/// Drains one worker's ghost accumulator slots, `slots[i]` holding ghost
/// `ghosts[i]`: for each touched slot, in ascending ghost order, calls
/// `emit(global vertex, delta)` with `delta = GHOST_BASE − slot` and resets
/// the slot to the sentinel for the next sub-round. A host peek of device
/// memory, free like any host inspection of the simulator. Returns the
/// touched-slot count.
///
/// The slots are copied out as plain words, [`DRAIN_CHUNK`] at a time, and
/// compared into a branch-free touched-slot bit mask, as the peel's hit
/// pass reads degrees; only the touched slots take the scalar path.
fn drain_ghosts(
    slots: &[AtomicU32],
    ghosts: &[VertexId],
    mut emit: impl FnMut(VertexId, u32),
) -> u64 {
    let mut touched = 0u64;
    for (chunk, ghosts) in slots.chunks(DRAIN_CHUNK).zip(ghosts.chunks(DRAIN_CHUNK)) {
        // A short last chunk is padded with untouched slots, so the mask
        // loop always runs DRAIN_CHUNK times and vectorizes.
        let mut words = [GHOST_BASE; DRAIN_CHUNK];
        // SAFETY: `AtomicU32` has the layout of `u32`, and `chunk` holds at
        // most `DRAIN_CHUNK` words. No kernel runs while the host drains
        // (launches complete under `&mut GpuContext`, and the exchange
        // holds every worker), so a bulk read equals per-word relaxed loads.
        unsafe {
            std::ptr::copy_nonoverlapping(
                chunk.as_ptr() as *const u32,
                words.as_mut_ptr(),
                chunk.len(),
            );
        }
        let mut mask = 0u64;
        for (i, &v) in words.iter().enumerate() {
            mask |= ((v != GHOST_BASE) as u64) << i;
        }
        while mask != 0 {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            chunk[i].store(GHOST_BASE, Ordering::Relaxed);
            emit(ghosts[i], GHOST_BASE - words[i]);
            touched += 1;
        }
    }
    touched
}

/// Injects border seeds (local IDs) into the per-block frontier buffers for
/// a loop-only launch: each block takes the seeds its scan would have
/// found, in seed-list order, and **every** block rewrites its `buf_e` tail
/// — a block with no seeds must clear the stale tail left by the previous
/// launch, or the loop kernel would re-consume garbage. The host buckets
/// the list per block once, with the scan's [`peel::BlockBuckets`]; each
/// block still charges the broadcast read of the whole list.
fn seed_frontier(
    ctx: &mut GpuContext,
    st: &mut peel::DeviceState,
    seeds: &[u32],
) -> Result<(), SimError> {
    ctx.set_phase("Seed");
    st.buckets.fill(seeds, st.cfg.launch);
    let (cap, d_buf, d_buf_e, buckets) = (st.cap, st.d_buf, st.d_buf_e, &st.buckets);
    ctx.launch("mgpu_seed", st.cfg.launch, |blk| {
        let dev = blk.device;
        let b = blk.block_idx as usize;
        let mine = buckets.block(b);
        // Broadcast read of the seed list (coalesced).
        blk.charge_tx(BlockCtx::coalesced_tx(seeds.len() as u64));
        if mine.len() > cap {
            return Err(KernelError::BufferOverflow {
                what: format!("block {b}: seed injection filled buffer (capacity {cap})"),
            });
        }
        let bufb = &dev.buffer(d_buf)[b * cap..(b + 1) * cap];
        for (slot, &v) in bufb.iter().zip(mine) {
            slot.store(v, Ordering::Relaxed);
        }
        if !mine.is_empty() {
            blk.charge_tx(BlockCtx::coalesced_tx(mine.len() as u64));
        }
        blk.gwrite(&dev.buffer(d_buf_e)[b], mine.len() as u32);
        Ok(())
    })?;
    Ok(())
}

fn max_f64(it: impl Iterator<Item = f64>) -> f64 {
    it.fold(0.0f64, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcore_cpu::CoreAlgorithm;
    use kcore_gpusim::LaunchConfig;
    use kcore_graph::gen;

    fn cfg(p: usize) -> MultiGpuConfig {
        MultiGpuConfig {
            num_gpus: p,
            peel: PeelConfig {
                launch: LaunchConfig {
                    blocks: 8,
                    threads_per_block: 128,
                },
                buf_capacity: 8_192,
                ..PeelConfig::default()
            },
            ..MultiGpuConfig::default()
        }
    }

    fn check(g: &Csr, p: usize) {
        let run = decompose_multi(g, &cfg(p), &SimOptions::default()).unwrap();
        let expect = kcore_cpu::bz::Bz.run(g);
        assert_eq!(run.core, expect, "{p} GPUs");
    }

    #[test]
    fn fig1_on_various_gpu_counts() {
        let g = kcore_graph::fig1_graph();
        for p in [1, 2, 3, 4, 8] {
            check(&g, p);
        }
    }

    #[test]
    fn random_graphs() {
        for seed in 0..3 {
            let g = gen::erdos_renyi_gnm(400, 1_600, seed);
            check(&g, 4);
        }
    }

    #[test]
    fn skewed_and_structured() {
        check(&gen::power_law_hubs(1_000, 2_000, 2, 0.2, 6), 4);
        check(&gen::complete(30), 3);
        check(&gen::path(200), 5);
    }

    #[test]
    fn border_shells_need_extra_sub_rounds() {
        // A path crosses every partition border, so its single 1-shell
        // cascade must bounce between workers: sub_rounds > rounds.
        let g = gen::path(400);
        let run = decompose_multi(&g, &cfg(4), &SimOptions::default()).unwrap();
        assert_eq!(run.core, vec![1; 400]);
        assert!(
            run.sub_rounds > run.rounds,
            "{} !> {}",
            run.sub_rounds,
            run.rounds
        );
        assert!(run.exchanged_bytes > 0);
    }

    #[test]
    fn one_gpu_needs_no_exchange() {
        let g = gen::erdos_renyi_gnm(300, 900, 1);
        let run = decompose_multi(&g, &cfg(1), &SimOptions::default()).unwrap();
        assert_eq!(run.exchanged_bytes, 0);
        assert_eq!(run.sub_rounds, run.rounds);
    }

    #[test]
    fn more_gpus_than_vertices() {
        let g = gen::complete(3);
        let run = decompose_multi(&g, &cfg(16), &SimOptions::default()).unwrap();
        assert_eq!(run.core, vec![2, 2, 2]);
        // shard count clamps to |V|
        assert_eq!(run.per_device_peak_bytes.len(), 3);
    }

    #[test]
    fn empty_graph() {
        let run = decompose_multi(&Csr::empty(0), &cfg(2), &SimOptions::default()).unwrap();
        assert!(run.core.is_empty());
        assert!(run.worker_fingerprints.is_empty());
    }

    #[test]
    fn worker_residency_is_shard_local() {
        // Tentpole memory contract: each worker's ledger holds only
        // shard-local allocations — no full-|V| arrays on any device.
        let g = gen::erdos_renyi_gnm(1_200, 6_000, 9);
        let FleetRun { run, traces, .. } =
            decompose_multi_fleet(&g, &cfg(4), &SimOptions::default(), "residency").unwrap();
        assert_eq!(run.core, kcore_cpu::bz::Bz.run(&g));
        let part = Partition::build(&g, 4, PartitionStrategy::BalancedArcs);
        assert_eq!(traces.len(), 4);
        for (t, shard) in traces.iter().zip(&part.shards) {
            let deg = t
                .memstats
                .allocations
                .iter()
                .find(|a| a.name == "deg")
                .expect("worker has a deg allocation");
            assert_eq!(
                deg.elems as usize,
                shard.num_local(),
                "deg must be shard-sized"
            );
            assert!(shard.num_local() < g.num_vertices() as usize);
            let nbrs = t
                .memstats
                .allocations
                .iter()
                .find(|a| a.name == "neighbors")
                .unwrap();
            assert_eq!(nbrs.elems, shard.owned_arcs);
        }
    }

    #[test]
    fn fleet_capture_observes_and_never_charges() {
        // The fleet path must return the *same run* — total_ms to the bit,
        // identical fingerprints and exchange volume — while its ledger
        // reconciles with the device clocks (check_well_formed).
        let g = gen::path(400);
        let base = decompose_multi(&g, &cfg(4), &SimOptions::default()).unwrap();
        let fr = decompose_multi_fleet(&g, &cfg(4), &SimOptions::default(), "path400").unwrap();
        assert_eq!(fr.run.total_ms.to_bits(), base.total_ms.to_bits());
        assert_eq!(fr.run.worker_fingerprints, base.worker_fingerprints);
        assert_eq!(fr.run.exchanged_bytes, base.exchanged_bytes);
        let fleet_fps: Vec<u64> = fr.traces.iter().map(|t| t.counters_fingerprint()).collect();
        assert_eq!(fleet_fps, base.worker_fingerprints);
        fr.fleet.check_well_formed(&fr.traces).unwrap();
        assert_eq!(fr.fleet.rounds.len(), fr.run.rounds as usize);
        // path(400) over 4 shards bounces its 1-shell across borders
        assert!(fr.run.border_packets > 0);
        assert!(fr.run.exchange_rounds > 0);
        // every round has a named bounding resource
        for c in fr.fleet.critical_path() {
            assert_ne!(c.bound, "idle");
            assert!(c.bounding_resource.starts_with("device") || c.bounding_resource == "link");
        }
        // the merged perfetto export renders and carries link flow events
        let json = fr.fleet.merged_chrome_json(&fr.traces);
        let json = json.unwrap();
        assert!(json.contains("Fleet links"));
        assert!(json.contains("\"ph\":\"s\""));
        assert!(json.contains("border cascades"));
    }

    #[test]
    fn one_gpu_fleet_has_no_flows() {
        let g = gen::erdos_renyi_gnm(300, 900, 1);
        let fr = decompose_multi_fleet(&g, &cfg(1), &SimOptions::default(), "er").unwrap();
        fr.fleet.check_well_formed(&fr.traces).unwrap();
        assert_eq!(fr.run.border_packets, 0);
        assert_eq!(fr.run.exchange_rounds, 0);
        assert!(fr
            .fleet
            .rounds
            .iter()
            .all(|r| r.exchanges.iter().all(|e| e.flows.is_empty())));
    }

    #[test]
    fn pool_sizes_are_bit_identical() {
        let g = gen::path(400);
        let base = decompose_multi(&g, &cfg(4), &SimOptions::default()).unwrap();
        for threads in [1usize, 2, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let run =
                pool.install(|| decompose_multi(&g, &cfg(4), &SimOptions::default()).unwrap());
            assert_eq!(run.core, base.core, "pool {threads}");
            assert_eq!(run.worker_fingerprints, base.worker_fingerprints);
            assert_eq!(run.exchanged_bytes, base.exchanged_bytes);
            assert_eq!(run.sub_rounds, base.sub_rounds);
            assert_eq!(run.total_ms.to_bits(), base.total_ms.to_bits());
        }
    }
}
