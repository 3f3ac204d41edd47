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
//! * owners apply aggregated border decrements with a floor at `k`; a
//!   vertex landing exactly on `k` is seeded into the owner's next
//!   sub-round (the paper's "new border vertices in the k-shell") via a
//!   seed launch that rebuilds the per-block frontier, followed by a
//!   loop-only launch — never a re-scan;
//! * sub-rounds repeat until the exchange produces no seeds. The fleet
//!   clock charges each barrier sub-round the slowest device's own clock
//!   delta (the workers run concurrently) and each exchange its pack
//!   kernels, two link hops and apply kernels. At one device this is
//!   exactly what [`peel::decompose`] charges.
//!
//! **Determinism.** The merge order is fixed: ghost drains happen in shard
//! index order, the master merges the shards' ascending packet runs into
//! one list by ascending global vertex ID, and owner lookup is the O(1)
//! partition map. Worker kernels run on private contexts whose engine is
//! pool-size-independent, so traces, counters, `total_ms` and
//! `exchanged_bytes` are bit-identical at any rayon pool size —
//! `tests/multi_shard.rs` pins this.

use crate::config::PeelConfig;
use crate::peel;
use kcore_gpusim::{
    BlockCtx, BufferId, ExchangeTrace, FleetTrace, FlowEdge, GpuContext, KernelError, RoundTrace,
    SimError, SimOptions, SizeClass, SubRoundSlice, Timeline, Trace,
};
use kcore_graph::{Csr, Partition, PartitionStrategy, Shard};
use rayon::prelude::*;
use std::sync::atomic::Ordering;

/// Sentinel base value for ghost `deg` slots. Large enough that a ghost can
/// never equal the round's `k` (scan), cross `k + 1` (frontier append), or
/// fall to the recover floor: a slot absorbs at most one decrement per
/// incident arc per run, and `|V| <` [`MAX_VERTICES`] is checked up front.
const GHOST_BASE: u32 = 0x7FFF_FFFF;

/// Vertex-count bound of a sharded run: below it every degree, and so every
/// count of decrements a ghost slot absorbs, stays under `2^30`, which keeps
/// [`GHOST_BASE`] slots clear of every real degree and every `k`.
const MAX_VERTICES: usize = 1 << 30;

/// Device-count bound of a sharded run: [`Partition::build`] stores each
/// vertex's owner shard as a `u16`.
const MAX_DEVICES: usize = u16::MAX as usize;

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
    /// `max_v core(v)`.
    pub k_max: u32,
    /// Peeling rounds (`k_max + 1`).
    pub rounds: u32,
    /// Total sub-rounds across all rounds (> rounds when k-shells span
    /// partition borders).
    pub sub_rounds: u32,
    /// Simulated wall time (slowest device per phase + exchanges), ms.
    pub total_ms: f64,
    /// Sum of worker device peaks, bytes.
    pub total_peak_mem_bytes: u64,
    /// Each worker device's peak, bytes, in shard order.
    pub per_device_peak_bytes: Vec<u64>,
    /// Each worker trace's counters fingerprint, in shard order.
    pub worker_fingerprints: Vec<u64>,
    /// Bytes exchanged between devices over the whole run.
    pub exchanged_bytes: u64,
    /// Exchanges that actually carried border packets (informational
    /// observability rollup — never feeds the cost model).
    pub exchange_rounds: u64,
    /// Total worker→master border packets over the run (informational).
    pub border_packets: u64,
}

/// A traced fleet run: the result plus every observability artifact the
/// fleet layer derives — per-device traces/timelines and the
/// [`FleetTrace`] ledger. Everything here observes the same run; none of it
/// perturbs `total_ms`, fingerprints, or `exchanged_bytes`.
#[derive(Debug, Clone)]
pub struct FleetRun {
    /// The decomposition result, bit-identical to [`decompose_multi`].
    pub run: MultiGpuRun,
    /// Per-worker traces, shard order — the run's one copy, which the
    /// ledger's flow edges index into and its methods take as an argument.
    pub traces: Vec<Trace>,
    /// Per-worker SM timelines, shard order — feed
    /// [`FleetTrace::merged_chrome_json`].
    pub timelines: Vec<Timeline>,
    /// The fleet ledger: exchange flows, sub-round slices, critical path.
    pub fleet: FleetTrace,
}

/// One worker: a device context holding its shard's peel working set.
struct Worker {
    ctx: GpuContext,
    st: peel::DeviceState,
    n_owned: usize,
    /// Exchange staging buffer (ledger residency for update packets).
    d_xfer: Option<BufferId>,
    /// Cumulative `gpu_count` readback = owned vertices removed so far.
    count: u64,
    /// Border seeds (local IDs, ascending) for the next sub-round.
    seeds: Vec<u32>,
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
    decompose_multi_impl(g, cfg, opts, None).map(|(run, _)| run)
}

/// [`decompose_multi`] with the full fleet observability layer: the run,
/// the per-worker traces (for golden pinning and per-device memstats) and
/// timelines, and the [`FleetTrace`] ledger (exchange flows, sub-round
/// slices, per-round critical path). The run itself — `total_ms`,
/// fingerprints, `exchanged_bytes` — is bit-identical to
/// [`decompose_multi`]; the fleet layer only observes.
pub fn decompose_multi_fleet(
    g: &Csr,
    cfg: &MultiGpuConfig,
    opts: &SimOptions,
    label: impl Into<String>,
) -> Result<FleetRun, SimError> {
    let (run, capture) = decompose_multi_impl(g, cfg, opts, Some(label.into()))?;
    let FleetCapture {
        label,
        traces,
        timelines,
        rounds,
        setup_ms,
        result_ms,
    } = capture.expect("decompose_multi_impl captures when given a label");
    let fleet = FleetTrace::new(
        label,
        setup_ms,
        result_ms,
        run.total_ms,
        run.exchanged_bytes,
        rounds,
        traces.len(),
    );
    Ok(FleetRun {
        run,
        traces,
        timelines,
        fleet,
    })
}

/// What `decompose_multi_impl` captures for [`decompose_multi_fleet`] when
/// given a label: per-worker traces and timelines, and the per-round ledger.
struct FleetCapture {
    label: String,
    traces: Vec<Trace>,
    timelines: Vec<Timeline>,
    rounds: Vec<RoundTrace>,
    setup_ms: f64,
    result_ms: f64,
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
            need: "at most 65535 for the u16 owner map",
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

fn decompose_multi_impl(
    g: &Csr,
    cfg: &MultiGpuConfig,
    opts: &SimOptions,
    fleet_label: Option<String>,
) -> Result<(MultiGpuRun, Option<FleetCapture>), SimError> {
    check_config(g, cfg)?;
    let n = g.num_vertices() as usize;
    if n == 0 {
        return Ok((
            MultiGpuRun {
                core: Vec::new(),
                k_max: 0,
                rounds: 0,
                sub_rounds: 0,
                total_ms: 0.0,
                total_peak_mem_bytes: 0,
                per_device_peak_bytes: Vec::new(),
                worker_fingerprints: Vec::new(),
                exchanged_bytes: 0,
                exchange_rounds: 0,
                border_packets: 0,
            },
            fleet_label.map(|label| FleetCapture {
                label,
                traces: Vec::new(),
                timelines: Vec::new(),
                rounds: Vec::new(),
                setup_ms: 0.0,
                result_ms: 0.0,
            }),
        ));
    }
    // ---- partition & load shards ----------------------------------------
    let part = Partition::build(g, cfg.num_gpus, cfg.partition);
    let mut workers = build_workers(&part, cfg, opts)?;
    let mut total_ms = max_f64(workers.iter().map(|w| w.ctx.elapsed_ms()));
    let setup_ms = total_ms;

    let mut exchanged_bytes = 0u64;
    let mut sub_rounds = 0u32;
    let mut rounds = 0u32;
    let mut k = 0u32;
    let mut removed = 0u64;
    let mut scratch = ExchangeScratch::default();
    // Fleet ledger: one entry per peel round. Every charged_ms below is the
    // addend folded into total_ms.
    let mut round_log: Vec<RoundTrace> = Vec::new();

    while removed < n as u64 {
        rounds += 1;
        let mut slices: Vec<SubRoundSlice> = Vec::new();
        let mut exchanges: Vec<ExchangeTrace> = Vec::new();
        // Sub-round 0: every worker scans its shard for the k-shell and
        // drains the resulting cascade — the real kernels, concurrently.
        sub_rounds += 1;
        let slice = run_workers(&mut workers, 0, |w| {
            peel::run_scan_loop(&mut w.ctx, k, &mut w.st)?;
            sync_worker(w);
            Ok(())
        })?;
        total_ms += slice.charged_ms;
        slices.push(slice);

        // Border sub-rounds: exchange ghost decrements, seed owners, run
        // loop-only launches, until an exchange produces no seeds.
        loop {
            let (any_seeds, ledger) = exchange(
                &mut workers,
                &part,
                k,
                cfg,
                &mut scratch,
                &mut exchanged_bytes,
                slices.len() as u32 - 1,
            )?;
            total_ms += ledger.charged_ms;
            exchanges.push(ledger);
            if !any_seeds {
                break;
            }
            sub_rounds += 1;
            let slice = run_workers(&mut workers, slices.len() as u32, |w| {
                if w.seeds.is_empty() {
                    return Ok(());
                }
                let seeds = std::mem::take(&mut w.seeds);
                seed_frontier(&mut w.ctx, &mut w.st, &seeds)?;
                peel::run_loop_only(&mut w.ctx, k, &w.st)?;
                sync_worker(w);
                Ok(())
            })?;
            total_ms += slice.charged_ms;
            slices.push(slice);
        }

        round_log.push(RoundTrace {
            k,
            sub_rounds: slices.len() as u32,
            slices,
            exchanges,
        });
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
    for (wi, w) in workers.iter_mut().enumerate() {
        let before = w.ctx.elapsed_ms();
        w.ctx.set_phase("Result");
        let owned_core = w.ctx.dtoh_range(w.st.d_deg, 0, w.n_owned)?;
        for (l, &v) in part.shards[wi].owned.iter().enumerate() {
            core[v as usize] = owned_core[l];
        }
        peel::free_device(&mut w.ctx, &w.st);
        if let Some(x) = w.d_xfer {
            w.ctx.device.free(x);
        }
        result_ms = result_ms.max(w.ctx.elapsed_ms() - before);
    }
    total_ms += result_ms;

    // Fingerprints digest the launch and transfer records directly, as
    // `Trace::counters_fingerprint` would; traces and timelines are built
    // only when the fleet layer asked. All are pure derivations.
    let worker_fingerprints: Vec<u64> = workers
        .iter()
        .map(|w| w.ctx.counters_fingerprint())
        .collect();
    let per_device_peak_bytes: Vec<u64> =
        workers.iter().map(|w| w.ctx.device.peak_bytes()).collect();
    let k_max = core.iter().copied().max().unwrap_or(0);
    let exchange_rounds = round_log
        .iter()
        .flat_map(|r| &r.exchanges)
        .filter(|e| e.packets_out > 0)
        .count() as u64;
    let border_packets = round_log
        .iter()
        .flat_map(|r| &r.exchanges)
        .map(|e| e.packets_out)
        .sum();
    let fleet_capture = fleet_label.map(|label| {
        let timelines: Vec<Timeline> = workers
            .iter()
            .enumerate()
            .map(|(wi, w)| w.ctx.timeline(format!("worker{wi}")))
            .collect();
        let traces: Vec<Trace> = workers
            .iter_mut()
            .enumerate()
            .map(|(wi, w)| w.ctx.trace(format!("worker{wi}")))
            .collect();
        FleetCapture {
            label,
            traces,
            timelines,
            rounds: round_log,
            setup_ms,
            result_ms,
        }
    });
    Ok((
        MultiGpuRun {
            core,
            k_max,
            rounds,
            sub_rounds,
            total_ms,
            total_peak_mem_bytes: per_device_peak_bytes.iter().sum(),
            per_device_peak_bytes,
            worker_fingerprints,
            exchanged_bytes,
            exchange_rounds,
            border_packets,
        },
        fleet_capture,
    ))
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
            Some(ctx.alloc_tagged("mgpu.xfer", 2 * shard.ghosts.len(), SizeClass::Batch)?)
        };
        workers.push(Worker {
            ctx,
            st,
            n_owned: shard.num_owned(),
            d_xfer,
            count: 0,
            seeds: Vec::new(),
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
    sub_round: u32,
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
        sub_round,
        charged_ms: max_f64(device_ms.iter().copied()),
        device_start_ms,
        device_ms,
    })
}

/// The synchronizing `gpu_count` readback (Algorithm 1 line 8) on one
/// worker, plus the frontier observability sample.
fn sync_worker(w: &mut Worker) {
    let before_sync = w.count;
    w.ctx.set_phase("Sync");
    w.count = w.ctx.dtoh_word(w.st.d_count, 0) as u64;
    w.ctx
        .sample_counter("frontier", (w.count - before_sync) as f64);
}

/// Host scratch of [`exchange`], reused across exchanges.
#[derive(Default)]
struct ExchangeScratch {
    /// Drained `(global vertex, delta)` packets: one ascending run per
    /// shard, in shard order.
    packets: Vec<(u32, u32)>,
    /// End offset in `packets` of each shard's run.
    run_ends: Vec<usize>,
    /// The runs merged by ascending vertex, equal vertices summed.
    aggregated: Vec<(u32, u32)>,
    /// `(from, to, packets)` shard-pair flow counts, ascending `(from, to)`.
    flows: Vec<(usize, usize, u64)>,
}

/// Ghost slots per touched-slot bit mask of the drain (one `u64`).
const DRAIN_CHUNK: usize = 64;

/// One border exchange: drain every worker's ghost accumulator slots, ship
/// the packets worker → master → owner, apply them with the floor-at-`k`
/// rule, and seed owners whose vertices crossed into the k-shell. Returns
/// `(any seeds produced, ledger)`: the [`ExchangeTrace`] records the
/// shard-pair flows and the cost of each stage, and its `charged_ms` is
/// their sum `pack_ms + hop1_ms + hop2_ms + apply_ms`, the exchange's
/// simulated wall time.
#[allow(clippy::too_many_arguments)]
fn exchange(
    workers: &mut [Worker],
    part: &Partition,
    k: u32,
    cfg: &MultiGpuConfig,
    scratch: &mut ExchangeScratch,
    exchanged_bytes: &mut u64,
    after_sub_round: u32,
) -> Result<(bool, ExchangeTrace), SimError> {
    let num = workers.len();
    let mut ledger = ExchangeTrace {
        after_sub_round,
        charged_ms: 0.0,
        pack_ms: 0.0,
        hop1_ms: 0.0,
        hop2_ms: 0.0,
        apply_ms: 0.0,
        pack_bounding_device: 0,
        apply_bounding_device: 0,
        packets_out: 0,
        packets_aggregated: 0,
        bytes: 0,
        seeds: 0,
        seeds_per_device: vec![0; num],
        flows: Vec::new(),
    };
    // Per-device launch-record indices backing the flow edges.
    let mut pack_seq: Vec<Option<usize>> = vec![None; num];
    let mut apply_seq: Vec<Option<usize>> = vec![None; num];
    // ---- drain + pack, shard index order ---------------------------------
    let ExchangeScratch {
        packets,
        run_ends,
        aggregated,
        flows,
    } = scratch;
    packets.clear();
    run_ends.clear();
    flows.clear();
    for (wi, w) in workers.iter_mut().enumerate() {
        let shard = &part.shards[wi];
        let before = w.ctx.elapsed_ms();
        let touched = drain_ghosts(w, shard, |gv, delta| {
            packets.push((gv, delta));
            // Owners are ascending vertex ranges and the ghost table is
            // ascending, so this shard meets its peers in ascending order
            // and the flows stay sorted by (from, to).
            let to = part.owner_of(gv);
            match flows.last_mut() {
                Some((from, last_to, count)) if *from == wi && *last_to == to => *count += 1,
                _ => {
                    debug_assert!(flows.last().is_none_or(|&(f, t, _)| (f, t) < (wi, to)));
                    flows.push((wi, to, 1));
                }
            }
        });
        run_ends.push(packets.len());
        if touched > 0 {
            // Pack kernel: gather the touched (vertex, delta) pairs into
            // the xfer staging buffer — sparse slot reads, coalesced
            // packet writes.
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
    }
    if packets.is_empty() {
        return Ok((false, ledger));
    }
    let packets_out = packets.len() as u64;

    // ---- master aggregation, ascending global ID -------------------------
    merge_runs(packets, run_ends, aggregated);
    // Each packet is (vertex, delta): 8 bytes, shipped worker → master →
    // owner (two hops, as the paper sketches); the master dedups, so the
    // second hop carries the aggregated packets. Each hop costs the link
    // latency plus its packets over the bandwidth.
    let bytes = (packets_out + aggregated.len() as u64) * 8;
    *exchanged_bytes += bytes;
    ledger.hop1_ms = (cfg.link_latency_s + packets_out as f64 * 8.0 / cfg.link_bandwidth) * 1e3;
    ledger.hop2_ms =
        (cfg.link_latency_s + aggregated.len() as f64 * 8.0 / cfg.link_bandwidth) * 1e3;
    ledger.packets_out = packets_out;
    ledger.packets_aggregated = aggregated.len() as u64;
    ledger.bytes = bytes;

    // ---- owner-side apply, shard index order -----------------------------
    // O(1) owner lookup through the partition map (the old prototype did a
    // linear scan over worker ranges per update).
    let mut any_seeds = false;
    let mut start = 0usize;
    while start < aggregated.len() {
        // Owners hold ascending vertex ranges, so each owner's packets are
        // one run of the ascending list.
        let owner = part.owner_of(aggregated[start].0);
        let last = part.shards[owner].owned[part.shards[owner].num_owned() - 1];
        let end = start + aggregated[start..].partition_point(|&(v, _)| v <= last);
        let bucket = &aggregated[start..end];
        let w = &mut workers[owner];
        let before = w.ctx.elapsed_ms();
        // Apply kernel: coalesced packet reads, random-access deg probes,
        // one atomic per applied decrement.
        let m = bucket.len() as u64;
        w.ctx.set_phase("Exchange");
        w.ctx.launch("mgpu_apply", cfg.peel.launch, move |blk| {
            let share = m / blk.cfg.blocks as u64 + 1;
            blk.charge_tx(BlockCtx::coalesced_tx(2 * share));
            blk.charge_sector(share);
            blk.counters.global_atomics += share;
            Ok(())
        })?;
        apply_seq[owner] = Some(w.ctx.launches().len() - 1);
        {
            let deg = w.ctx.device.buffer(w.st.d_deg);
            for &(gv, cnt) in bucket {
                let lv = part.local_id[gv as usize] as usize;
                let cur = deg[lv].load(Ordering::Relaxed);
                // Floor at k (Fig. 6 Case-1 recovery, host side): removed
                // vertices sit at their core (≤ k) and are untouched.
                let applicable = cur.saturating_sub(k).min(cnt);
                if applicable > 0 {
                    deg[lv].store(cur - applicable, Ordering::Relaxed);
                    // Seed only on the crossing itself, so a vertex already
                    // waiting in a seed list is not re-seeded later.
                    if cur - applicable == k {
                        w.seeds.push(lv as u32);
                        any_seeds = true;
                        ledger.seeds += 1;
                        ledger.seeds_per_device[owner] += 1;
                    }
                }
            }
        }
        let delta = w.ctx.elapsed_ms() - before;
        if delta > ledger.apply_ms {
            ledger.apply_ms = delta;
            ledger.apply_bounding_device = owner;
        }
        start = end;
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
            bytes: packets * 8,
            pack_launch_seq: pack_seq[from].expect("shipper ran a pack launch"),
            apply_launch_seq: apply_seq[to].expect("owner ran an apply launch"),
        })
        .collect();
    ledger.charged_ms = ledger.pack_ms + ledger.hop1_ms + ledger.hop2_ms + ledger.apply_ms;
    Ok((any_seeds, ledger))
}

/// Drains one worker's ghost accumulator slots `deg[n_owned..n_local]`: for
/// each touched slot, in ascending ghost order, calls `emit(global vertex,
/// delta)` with `delta = GHOST_BASE − slot` and resets the slot to the
/// sentinel for the next sub-round. A host peek of device memory, free like
/// any host inspection of the simulator. Returns the touched-slot count.
///
/// The slots are copied out as plain words, [`DRAIN_CHUNK`] at a time, and
/// compared into a branch-free touched-slot bit mask, as the peel's hit
/// pass reads degrees; only the touched slots take the scalar path.
fn drain_ghosts(w: &Worker, shard: &Shard, mut emit: impl FnMut(u32, u32)) -> u64 {
    let slots = &w.ctx.device.buffer(w.st.d_deg)[w.n_owned..w.n_owned + shard.ghosts.len()];
    let mut touched = 0u64;
    for (chunk, ghosts) in slots
        .chunks(DRAIN_CHUNK)
        .zip(shard.ghosts.chunks(DRAIN_CHUNK))
    {
        // A short last chunk is padded with untouched slots, so the mask
        // loop always runs DRAIN_CHUNK times and vectorizes.
        let mut words = [GHOST_BASE; DRAIN_CHUNK];
        // SAFETY: `AtomicU32` has the layout of `u32`, and `chunk` holds at
        // most `DRAIN_CHUNK` words. No kernel runs while the host drains
        // (launches complete under `&mut GpuContext`, and the caller holds
        // the worker), so a bulk read equals per-word relaxed loads.
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

/// Merges ascending runs of `(vertex, delta)` packets into `out` by
/// ascending vertex, summing the deltas of equal vertices. Run `i` is
/// `packets[run_ends[i - 1]..run_ends[i]]` (from 0 for `i = 0`) and is
/// strictly ascending in vertex; runs may be empty, and the last ends at
/// `packets.len()`. Adjacent runs merge pairwise, level by level:
/// O(packets · log runs). `packets` and `run_ends` serve as scratch and are
/// left unspecified.
fn merge_runs(packets: &mut Vec<(u32, u32)>, run_ends: &mut Vec<usize>, out: &mut Vec<(u32, u32)>) {
    while run_ends.len() > 1 {
        out.clear();
        let mut start = 0;
        let mut ends = 0;
        for pair in (0..run_ends.len()).step_by(2) {
            let mid = run_ends[pair];
            let end = run_ends.get(pair + 1).copied().unwrap_or(mid);
            merge_two(&packets[start..mid], &packets[mid..end], out);
            run_ends[ends] = out.len();
            ends += 1;
            start = end;
        }
        run_ends.truncate(ends);
        std::mem::swap(packets, out);
    }
    std::mem::swap(packets, out);
}

/// Appends the merge of two strictly ascending packet runs to `out`,
/// summing the deltas of a vertex both carry.
fn merge_two(a: &[(u32, u32)], b: &[(u32, u32)], out: &mut Vec<(u32, u32)>) {
    out.reserve(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    // Branch-free step: take the smaller head, or both heads summed.
    while i < a.len() && j < b.len() {
        let ((va, da), (vb, db)) = (a[i], b[j]);
        let (take_a, take_b) = (va <= vb, vb <= va);
        out.push((va.min(vb), da * take_a as u32 + db * take_b as u32));
        i += take_a as usize;
        j += take_b as usize;
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
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
        assert_eq!(run.k_max, expect.iter().copied().max().unwrap_or(0));
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
        // per-device peaks sum to the reported fleet total
        assert_eq!(
            run.per_device_peak_bytes.iter().sum::<u64>(),
            run.total_peak_mem_bytes
        );
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
        let ledger_bytes: u64 = fr
            .fleet
            .rounds
            .iter()
            .flat_map(|r| &r.exchanges)
            .map(|e| e.bytes)
            .sum();
        assert_eq!(ledger_bytes, fr.run.exchanged_bytes);
        // every round has a named bounding resource
        for c in &fr.fleet.critical_path {
            assert_ne!(c.bound, "idle");
            assert!(c.bounding_resource.starts_with("device") || c.bounding_resource == "link");
        }
        // the merged perfetto export renders and carries link flow events
        let json = fr.fleet.merged_chrome_json(&fr.traces, &fr.timelines);
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
    fn merge_runs_matches_sort_and_sum() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(19);
        let mut out = Vec::new();
        for case in 0..200 {
            let runs = 1 + case % 64;
            let mut packets: Vec<(u32, u32)> = Vec::new();
            let mut run_ends = Vec::new();
            for _ in 0..runs {
                // A quarter of the runs are empty; the small ID range makes
                // vertices repeat across runs.
                if rng.gen_range(0u32..4) > 0 {
                    let mut v = rng.gen_range(0u32..8);
                    for _ in 0..rng.gen_range(1usize..40) {
                        packets.push((v, rng.gen_range(1u32..1_000)));
                        v += rng.gen_range(1u32..6);
                    }
                }
                run_ends.push(packets.len());
            }
            let mut expect = packets.clone();
            expect.sort_unstable();
            let mut summed: Vec<(u32, u32)> = Vec::new();
            for &(v, d) in &expect {
                match summed.last_mut() {
                    Some((lv, ld)) if *lv == v => *ld += d,
                    _ => summed.push((v, d)),
                }
            }
            merge_runs(&mut packets, &mut run_ends, &mut out);
            assert_eq!(out, summed, "case {case}: {runs} runs");
        }
        merge_runs(&mut Vec::new(), &mut vec![0, 0], &mut out);
        assert!(out.is_empty());
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
