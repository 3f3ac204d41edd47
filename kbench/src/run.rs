//! One run of one workload: set-up, warm-up, a closed loop of checked ops,
//! and the metrics they yield.
//!
//! Ops are issued by one client, each when the previous one has returned
//! and been checked; only the public call an op makes is timed. A run holds
//! [`INSTANCES`] instances of its workload, each with its own seeded vertex
//! labeling (and, for `dyn-churn`, its own engine and update stream), and
//! rotates ops across them, so one run averages over labelings instead of
//! measuring one. The untraced run reports the end-to-end metrics; the
//! traced run (`--trace 1`) records spans around every call, reads the
//! simulator's records and the fleet ledger after each op, and reports the
//! per-layer metrics.

use crate::inputs::{self, derive, Churn, Scale, Workload, CHURN_BATCH};
use crate::layers::{MultiStats, SimBreakdown, BUCKETS, COUNTERS, PEEL_PHASES};
use crate::spans::Tracer;
use crate::stats::{median, percentile};
use kcore_cpu::incremental::DynamicGraph;
use kcore_gpu::{
    decompose, decompose_in, decompose_multi, decompose_multi_fleet, BatchPath, BatchReport,
    DynamicConfig, DynamicCore, MultiGpuConfig, PeelConfig,
};
use kcore_gpusim::{LaunchConfig, SimError, SimOptions};
use kcore_graph::{Csr, Partition, PartitionStrategy};
use std::path::PathBuf;
use std::time::Instant;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the timed phase; at least the workload's minimum op count
    /// runs however long it takes.
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Rayon width, installed explicitly for the whole run.
    pub threads: usize,
    /// Where the input edge lists are staged.
    pub out: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything a run produced.
pub struct RunResult {
    /// Ops issued (warm-up, timed and side measurements) plus set-up and
    /// end-of-run checks.
    pub attempted: u64,
    /// Errors, wrong cores, rejected updates and oracle mismatches.
    pub failed: u64,
    /// Ops in the timed phase.
    pub samples: usize,
    pub metrics: Vec<Metric>,
    pub tracer: Tracer,
}

impl RunResult {
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Seeded instances per run; `setup_s` is the median of their set-ups.
pub const INSTANCES: usize = 3;

/// Untimed warm-up ops, and the minimum timed op count. The leading
/// `min_ops` timed ops are a fixed amount of work: the simulated-time
/// metrics and peak RSS cover them, so those repeat for a seed however many
/// ops the host fits in the run. Each count is a multiple of
/// [`INSTANCES`], fills most of a 15 s run on a 2-core x86-64 box, and
/// leaves at least ten samples above the p90.
struct Plan {
    warmup: usize,
    min_ops: usize,
}

impl Plan {
    fn of(w: Workload, scale: Scale) -> Plan {
        let (warmup, min_ops) = match (scale, w) {
            (Scale::Check, _) => (INSTANCES, 2 * INSTANCES),
            (Scale::Full, Workload::PeelDeep) => (3, 330),
            (Scale::Full, Workload::PeelHub) => (3, 102),
            (Scale::Full, Workload::DynChurn) => (9, 600),
            (Scale::Full, Workload::ShardP4) => (3, 132),
        };
        Plan { warmup, min_ops }
    }
}

/// Ops per rayon width in the traced run's fan-out measurement.
const FANOUT_OPS: usize = 10;
/// No-op launches timed for `gpusim.empty_launch_us`.
const EMPTY_LAUNCHES: usize = 200;

/// Words in the reference probe's table (1 MiB).
const PROBE_WORDS: usize = 1 << 17;
/// Steps of the reference probe on each side of a timed call.
const PROBE_STEPS: u32 = 100_000;
/// What the two probe halves take together on a calm 2-core x86-64 box
/// (0.82–0.84 ms measured), ms: the speed host times are rescaled to.
const PROBE_NOMINAL_MS: f64 = 0.8;

/// Host speed probe: a fixed xorshift walk updating a 1 MiB table, timed.
///
/// The benchmark box shares its cores and memory with other tenants, which
/// slowed one op by up to a third from one run to the next. The probe runs right
/// before and after every timed call and slows alike, so host times are
/// reported as `wall × PROBE_NOMINAL_MS / probe`: wall time at nominal
/// machine speed. Over five runs of one seed that cut the spread of the
/// host p50 from 2.5–19% to 0.9–5.5% across the workloads; raw wall time
/// stays in the per-layer metrics.
fn reference_ms(table: &mut [u64]) -> f64 {
    let t0 = Instant::now();
    let mask = table.len() - 1;
    let mut x = 0x1234_5678_9abc_def0u64;
    for _ in 0..PROBE_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = x as usize & mask;
        table[i] = table[i].wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(x);
    }
    std::hint::black_box(&*table);
    ms_since(t0)
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The engine an op drives.
enum Engine {
    Peel {
        sim: SimOptions,
        cfg: PeelConfig,
    },
    Shard {
        sim: SimOptions,
        cfg: MultiGpuConfig,
    },
    Dyn {
        dc: Box<DynamicCore>,
        oracle: DynamicGraph,
        churn: Churn,
    },
}

/// One seeded instance of the workload, with the core numbers its ops must
/// reproduce.
struct Instance {
    g: Csr,
    truth: Vec<u32>,
    engine: Engine,
}

struct Bench {
    workload: Workload,
    seed: u64,
    instances: Vec<Instance>,
    next_op: u64,
    /// The reference probe's table.
    probe: Vec<u64>,
}

/// Per-layer readings of one traced op.
struct Layers {
    sim: SimBreakdown,
    capture_ms: f64,
    multi: Option<MultiStats>,
}

/// Outcome of one op.
struct Op {
    /// Wall time of the op's public call, ms.
    wall_ms: f64,
    /// `wall_ms` at nominal host speed (see [`reference_ms`]).
    host_ms: f64,
    /// The reference probe's time around the op, ms.
    probe_ms: f64,
    sim_ms: f64,
    peak_bytes: u64,
    ok: bool,
    rounds: u32,
    layers: Option<Layers>,
    batch: Option<BatchReport>,
    oracle_ms: f64,
}

impl Op {
    fn new(wall_ms: f64, ok: bool, layers: Option<Layers>) -> Op {
        Op {
            wall_ms,
            host_ms: 0.0,
            probe_ms: 0.0,
            sim_ms: 0.0,
            peak_bytes: 0,
            ok,
            rounds: 0,
            layers,
            batch: None,
            oracle_ms: 0.0,
        }
    }
}

/// The `dyn-churn` engine configuration: the 16×128 geometry of the
/// dynamic table, for both maintenance kernels and the embedded peel.
fn dyn_config() -> DynamicConfig {
    let launch = LaunchConfig {
        blocks: 16,
        threads_per_block: 128,
    };
    DynamicConfig {
        launch,
        peel: PeelConfig::default().with_launch(launch),
        ..DynamicConfig::default()
    }
}

impl Bench {
    /// Simulator options and launch geometry of the workload's kernels.
    fn geometry(&self) -> (SimOptions, LaunchConfig) {
        match &self.instances[0].engine {
            Engine::Peel { sim, cfg } => (*sim, cfg.launch),
            Engine::Shard { sim, cfg } => (*sim, cfg.peel.launch),
            Engine::Dyn { dc, .. } => (SimOptions::default(), dc.config().launch),
        }
    }

    /// Runs the next op, on the next instance, between the two halves of
    /// the reference probe.
    fn measured_op(&mut self, tr: &mut Tracer) -> Op {
        self.next_op += 1;
        tr.set_op(self.next_op);
        let schedule_seed = derive(self.seed, self.workload, 1) ^ self.next_op;
        let k = (self.next_op % INSTANCES as u64) as usize;
        let before = reference_ms(&mut self.probe);
        let mut op = self.instances[k].op(tr, schedule_seed);
        op.probe_ms = before + reference_ms(&mut self.probe);
        op.host_ms = op.wall_ms * PROBE_NOMINAL_MS / op.probe_ms;
        op
    }
}

impl Instance {
    fn op(&mut self, tr: &mut Tracer, schedule_seed: u64) -> Op {
        let Instance { g, truth, engine } = self;
        match engine {
            Engine::Peel { sim, cfg } => tr.span("op", |tr| {
                let t0 = Instant::now();
                let mut ctx = tr.span("ctx.new", |_| sim.context());
                ctx.set_schedule_seed(schedule_seed);
                let res = tr.span("decompose_in", |_| decompose_in(&mut ctx, g, cfg));
                let wall_ms = ms_since(t0);
                let layers = tr.enabled().then(|| {
                    let t = Instant::now();
                    let trace = tr.span("ctx.trace", |_| ctx.trace("op"));
                    let capture_ms = ms_since(t);
                    let mut sim = SimBreakdown::default();
                    sim.add_trace(&trace);
                    Layers {
                        sim,
                        capture_ms,
                        multi: None,
                    }
                });
                let ok = tr.span(
                    "compare",
                    |_| matches!(&res, Ok((core, _)) if core == truth),
                );
                Op {
                    sim_ms: ctx.elapsed_ms(),
                    peak_bytes: ctx.device.peak_bytes(),
                    rounds: res.map_or(0, |(_, rounds)| rounds),
                    ..Op::new(wall_ms, ok, layers)
                }
            }),
            Engine::Shard { sim, cfg } => tr.span("op", |tr| {
                let t0 = Instant::now();
                let (res, wall_ms) = if tr.enabled() {
                    let r = tr.span("decompose_multi_fleet", |_| {
                        decompose_multi_fleet(g, cfg, sim, "op")
                    });
                    (r.map(|fr| (fr.run.clone(), Some(fr))), ms_since(t0))
                } else {
                    let r = tr.span("decompose_multi", |_| decompose_multi(g, cfg, sim));
                    (r.map(|run| (run, None)), ms_since(t0))
                };
                let layers = match &res {
                    Ok((_, Some(fr))) => {
                        let mut sim = SimBreakdown::default();
                        for t in &fr.traces {
                            sim.add_trace(t);
                        }
                        Some(Layers {
                            sim,
                            capture_ms: 0.0,
                            multi: Some(MultiStats::from_fleet(fr)),
                        })
                    }
                    _ => None,
                };
                let ok = tr.span(
                    "compare",
                    |_| matches!(&res, Ok((run, _)) if run.core == *truth),
                );
                let mut op = Op::new(wall_ms, ok, layers);
                if let Ok((run, _)) = &res {
                    op.sim_ms = run.total_ms;
                    op.peak_bytes = run.per_device_peak_bytes.iter().copied().max().unwrap_or(0);
                    op.rounds = run.rounds;
                }
                op
            }),
            Engine::Dyn { dc, oracle, churn } => {
                let batch = churn.next_batch(CHURN_BATCH);
                tr.span("op", |tr| {
                    let (l0, x0) = (dc.ctx().launches().len(), dc.ctx().transfers().len());
                    let t0 = Instant::now();
                    let rep = tr.span("apply_batch", |_| dc.apply_batch(&batch));
                    let wall_ms = ms_since(t0);
                    let layers = tr.enabled().then(|| {
                        let t = Instant::now();
                        let ctx = dc.ctx();
                        let mut sim = SimBreakdown::default();
                        tr.span("timeline.hotspots", |_| {
                            sim.add_records(
                                &ctx.launches()[l0..],
                                &ctx.transfers()[x0..],
                                &ctx.cost,
                            )
                        });
                        Layers {
                            sim,
                            capture_ms: ms_since(t),
                            multi: None,
                        }
                    });
                    let t = Instant::now();
                    let outcome =
                        tr.span("incremental.apply_batch", |_| oracle.apply_batch(&batch));
                    let oracle_ms = ms_since(t);
                    let ok = tr.span("compare", |_| {
                        matches!(&rep, Ok(r) if r.rejected == 0)
                            && outcome.rejected == 0
                            && dc.cores() == oracle.cores()
                    });
                    Op {
                        sim_ms: rep.as_ref().map_or(0.0, |r| r.sim_ms),
                        peak_bytes: dc.ctx().device.peak_bytes(),
                        batch: rep.ok(),
                        oracle_ms,
                        ..Op::new(wall_ms, ok, layers)
                    }
                })
            }
        }
    }
}

/// Attempted and failed counts over a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Runs ops until both `min_ops` are done and `seconds` have passed.
/// Returns them with the peak RSS as of the `min_ops`-th op: `dyn-churn`'s
/// engine keeps a record of every launch, so its memory grows with the op
/// count and is only comparable over a fixed amount of work.
fn timed(
    bench: &mut Bench,
    tr: &mut Tracer,
    tally: &mut Tally,
    min_ops: usize,
    seconds: f64,
) -> (Vec<Op>, f64) {
    let start = Instant::now();
    let mut ops = Vec::new();
    let mut rss_mb = 0.0;
    while ops.len() < min_ops || start.elapsed().as_secs_f64() < seconds {
        let op = bench.measured_op(tr);
        tally.check(op.ok);
        ops.push(op);
        if ops.len() == min_ops {
            rss_mb = peak_rss_mb();
        }
    }
    (ops, rss_mb)
}

/// The set-up a user pays before the first op — ingesting the edge list,
/// plus building the resident engine for `dyn-churn` — and the oracle's
/// costs, per instance at nominal host speed.
struct Setup {
    bench: Bench,
    setup_s: Vec<f64>,
    ingest_s: Vec<f64>,
    bz_ms: Vec<f64>,
    verify_ms: Vec<f64>,
    initial_ok: bool,
}

fn set_up(o: &RunOptions, tr: &mut Tracer) -> Result<Setup, String> {
    let w = o.workload;
    let (generated, paper) = tr.span("generate", |_| inputs::generate(w, o.scale));
    std::fs::create_dir_all(&o.out).map_err(|e| format!("create {}: {e}", o.out.display()))?;
    let mut probe = vec![1u64; PROBE_WORDS];
    let mut s = Setup {
        bench: Bench {
            workload: w,
            seed: o.seed,
            instances: Vec::with_capacity(INSTANCES),
            next_op: 0,
            probe: Vec::new(),
        },
        setup_s: Vec::new(),
        ingest_s: Vec::new(),
        bz_ms: Vec::new(),
        verify_ms: Vec::new(),
        initial_ok: true,
    };
    for k in 0..INSTANCES as u64 {
        // Instance k's line order (stream 2) and update stream (stream 3).
        let stream = |i: u64| derive(o.seed, w, (k << 4) | i);
        let path = o.out.join(format!("{}-{}-{k}.edges", w.name(), o.seed));
        tr.span("write_edge_list", |_| {
            inputs::write_edge_list(&generated, &path, stream(2))
        })
        .map_err(|e| format!("write {}: {e}", path.display()))?;

        let before = reference_ms(&mut probe);
        let t0 = Instant::now();
        let loaded = tr.span("load_edge_list", |_| kcore_graph::io::load_edge_list(&path));
        let ingest_s = t0.elapsed().as_secs_f64();
        // Best effort: a leftover input is harmless and rewritten next run.
        let _ = std::fs::remove_file(&path);
        let (g, _) = loaded.map_err(|e| format!("ingest {}: {e}", path.display()))?;
        let dc = match w {
            Workload::DynChurn => Some(
                tr.span("DynamicCore::from_csr", |_| {
                    DynamicCore::from_csr(&SimOptions::default(), &g, dyn_config())
                })
                .map_err(|e| format!("dynamic engine init: {e}"))?,
            ),
            _ => None,
        };
        let total_s = t0.elapsed().as_secs_f64();
        let speed = PROBE_NOMINAL_MS / (before + reference_ms(&mut probe));
        s.setup_s.push(total_s * speed);
        s.ingest_s.push(ingest_s * speed);

        let t = Instant::now();
        let truth = tr.span("bz", |_| kcore_cpu::bz::core_numbers(&g));
        s.bz_ms.push(ms_since(t));
        let t = Instant::now();
        tr.span("check_core_numbers", |_| {
            kcore_cpu::verify::check_core_numbers(&g, &truth)
        })
        .map_err(|e| format!("BZ oracle fails the core certificate: {e}"))?;
        s.verify_ms.push(ms_since(t));

        let engine = match (w, &paper, dc) {
            (Workload::DynChurn, _, Some(dc)) => {
                s.initial_ok &= dc.cores() == truth;
                Engine::Dyn {
                    oracle: DynamicGraph::from_csr(&g),
                    churn: Churn::new(&g, stream(3)),
                    dc: Box::new(dc),
                }
            }
            (Workload::ShardP4, Some(paper), _) => {
                let (sim, peel) = inputs::paper_scaled(&g, paper);
                Engine::Shard {
                    sim,
                    cfg: MultiGpuConfig {
                        num_gpus: 4,
                        peel,
                        partition: PartitionStrategy::BalancedArcs,
                        ..MultiGpuConfig::default()
                    },
                }
            }
            (_, Some(paper), _) => {
                let (sim, cfg) = inputs::paper_scaled(&g, paper);
                Engine::Peel { sim, cfg }
            }
            _ => return Err(format!("{}: no engine for this input", w.name())),
        };
        s.bench.instances.push(Instance { g, truth, engine });
    }
    s.bench.probe = probe;
    Ok(s)
}

/// Peak resident set of this process (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Runs one workload at `o.threads` rayon width.
pub fn run(o: &RunOptions) -> Result<RunResult, String> {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(o.threads)
        .build()
        .map_err(|e| e.to_string())?;
    pool.install(|| run_pinned(o))
}

fn run_pinned(o: &RunOptions) -> Result<RunResult, String> {
    let plan = Plan::of(o.workload, o.scale);
    let mut tr = Tracer::new(o.trace);
    let mut setup = tr.span("setup", |tr| set_up(o, tr))?;
    let mut tally = Tally::default();
    tally.check(setup.initial_ok);

    tr.set_enabled(false);
    for _ in 0..plan.warmup {
        let op = setup.bench.measured_op(&mut tr);
        tally.check(op.ok);
    }
    let (metrics, samples) = if o.trace {
        per_layer(&mut setup, &plan, o.seconds, &mut tr, &mut tally)?
    } else {
        let (ops, rss_mb) = timed(
            &mut setup.bench,
            &mut tr,
            &mut tally,
            plan.min_ops,
            o.seconds,
        );
        (end_to_end(&ops, plan.min_ops, &setup, rss_mb), ops.len())
    };
    for inst in &setup.bench.instances {
        if let Engine::Dyn { dc, oracle, .. } = &inst.engine {
            // The incremental oracle itself is checked against a
            // from-scratch peel of the final graph.
            let fresh = kcore_cpu::bz::core_numbers(&oracle.to_csr());
            tally.check(dc.cores() == fresh.as_slice());
        }
    }
    Ok(RunResult {
        attempted: tally.attempted,
        failed: tally.failed,
        samples,
        metrics,
        tracer: tr,
    })
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(ops: &[Op], min_ops: usize, setup: &Setup, rss_mb: f64) -> Vec<Metric> {
    let sim: Vec<f64> = ops[..min_ops].iter().map(|op| op.sim_ms).collect();
    let host: Vec<f64> = ops.iter().map(|op| op.host_ms).collect();
    let peak = ops.iter().map(|op| op.peak_bytes).max().unwrap_or(0);
    vec![
        metric("sim_ms_p50", percentile(&sim, 50.0), "ms"),
        metric("sim_ms_p90", percentile(&sim, 90.0), "ms"),
        metric("host_ms_p50", percentile(&host, 50.0), "ms"),
        metric("host_ms_p90", percentile(&host, 90.0), "ms"),
        metric(
            "host_ops_per_s",
            ratio(1e3 * ops.len() as f64, host.iter().sum()),
            "ops/s",
        ),
        metric("setup_s", median(&setup.setup_s), "s"),
        metric("host_peak_rss_mb", rss_mb, "MB"),
        metric("device_peak_mb", peak as f64 / 1e6, "MB"),
    ]
}

/// The traced run: half the time untraced (the overhead baseline), half
/// traced, then side measurements. Returns the per-layer metrics and the
/// traced op count.
fn per_layer(
    setup: &mut Setup,
    plan: &Plan,
    seconds: f64,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Result<(Vec<Metric>, usize), String> {
    let min_half = plan.min_ops / 2;
    let (plain, _) = timed(&mut setup.bench, tr, tally, min_half, seconds / 2.0);
    tr.set_enabled(true);
    let (ops, _) = timed(&mut setup.bench, tr, tally, min_half, seconds / 2.0);
    let bench = &mut setup.bench;

    let (sim_opts, launch) = bench.geometry();
    let mut ctx = sim_opts.context();
    let mut empty_us = Vec::with_capacity(EMPTY_LAUNCHES);
    for _ in 0..EMPTY_LAUNCHES {
        let t = Instant::now();
        ctx.launch("kbench_noop", launch, |_| Ok(()))
            .map_err(|e| format!("no-op launch: {e}"))?;
        empty_us.push(ms_since(t) * 1e3);
    }
    let fanout = fanout_slowdown(bench, tr, tally)?;

    let med = |f: &dyn Fn(&Op, &Layers) -> f64| -> f64 {
        let v: Vec<f64> = ops
            .iter()
            .filter_map(|op| op.layers.as_ref().map(|l| f(op, l)))
            .collect();
        median(&v)
    };
    let mut m = Vec::new();
    let edges = bench.instances[0].g.num_edges() as f64;
    let ingest_s = median(&setup.ingest_s);
    m.push(metric("graph.ingest_s", ingest_s, "s"));
    m.push(metric(
        "graph.ingest_medges_per_s",
        ratio(edges / 1e6, ingest_s),
        "Medges/s",
    ));
    let (partition_ms, ghosts, border_arcs, p1_overcharge) = match &bench.instances[0].engine {
        Engine::Shard { sim, cfg } => {
            let g = &bench.instances[0].g;
            let mut times = Vec::new();
            let mut part = None;
            for _ in 0..INSTANCES {
                let t = Instant::now();
                part = Some(tr.span("Partition::build", |_| {
                    Partition::build(g, cfg.num_gpus, cfg.partition)
                }));
                times.push(ms_since(t));
            }
            let stats = part.expect("partition built").stats();
            let p1 = tr
                .span("p1_overcharge", |_| p1_overcharge_ms(g, cfg, sim))
                .map_err(|e| format!("p=1 reconciliation: {e}"))?;
            (
                median(&times),
                stats.total_ghosts as f64,
                stats.total_border_arcs as f64,
                p1,
            )
        }
        _ => (0.0, 0.0, 0.0, 0.0),
    };
    m.push(metric("graph.partition_ms", partition_ms, "ms"));
    m.push(metric("graph.ghosts", ghosts, "count"));
    m.push(metric("graph.border_arcs", border_arcs, "count"));

    m.push(metric(
        "gpusim.launches",
        med(&|_, l| l.sim.launches),
        "count",
    ));
    m.push(metric(
        "gpusim.host_us_per_launch",
        med(&|op, l| ratio(op.host_ms * 1e3, l.sim.launches)),
        "us",
    ));
    m.push(metric("gpusim.empty_launch_us", median(&empty_us), "us"));
    m.push(metric(
        "gpusim.transfer_ms",
        med(&|_, l| l.sim.transfer_ms),
        "ms",
    ));
    m.push(metric(
        "gpusim.launch_overhead_ms",
        med(&|_, l| l.sim.launch_overhead_ms),
        "ms",
    ));
    m.push(metric(
        "gpusim.compute_ms",
        med(&|_, l| l.sim.compute_ms),
        "ms",
    ));
    m.push(metric("gpusim.mem_ms", med(&|_, l| l.sim.mem_ms), "ms"));
    for (i, c) in COUNTERS.iter().enumerate() {
        m.push(metric(
            &format!("gpusim.{c}"),
            med(&|_, l| l.sim.counters[i]),
            "count",
        ));
    }
    m.push(metric(
        "gpusim.h2d_mb",
        med(&|_, l| l.sim.h2d_bytes / 1e6),
        "MB",
    ));
    m.push(metric(
        "gpusim.d2h_mb",
        med(&|_, l| l.sim.d2h_bytes / 1e6),
        "MB",
    ));
    for (i, b) in BUCKETS.iter().enumerate() {
        m.push(metric(
            &format!("gpusim.loop.{b}_ms"),
            med(&|_, l| l.sim.loop_buckets[i]),
            "ms",
        ));
    }
    m.push(metric(
        "gpusim.scan.total_ms",
        med(&|_, l| l.sim.scan_ms),
        "ms",
    ));
    let warp_instrs = COUNTERS
        .iter()
        .position(|&c| c == "warp_instrs")
        .expect("counter");
    m.push(metric(
        "gpusim.host_ns_per_warp_instr",
        med(&|op, l| ratio(op.host_ms * 1e6, l.sim.counters[warp_instrs])),
        "ns",
    ));
    m.push(metric("gpusim.fanout_slowdown", fanout, "x"));

    m.push(metric(
        "core.peel.rounds",
        med(&|op, _| f64::from(op.rounds)),
        "count",
    ));
    m.push(metric(
        "core.peel.host_us_per_round",
        med(&|op, _| ratio(op.host_ms * 1e3, f64::from(op.rounds))),
        "us",
    ));
    for (i, p) in PEEL_PHASES.iter().enumerate() {
        let name = format!("core.peel.{}_sim_ms", p.to_ascii_lowercase());
        m.push(metric(&name, med(&|_, l| l.sim.phase_ms[i]), "ms"));
    }

    let multi = |f: &dyn Fn(&MultiStats) -> f64| med(&|_, l| l.multi.as_ref().map_or(0.0, f));
    m.push(metric(
        "core.multi.sub_rounds",
        multi(&|s| s.sub_rounds),
        "count",
    ));
    m.push(metric(
        "core.multi.exchange_rounds",
        multi(&|s| s.exchange_rounds),
        "count",
    ));
    m.push(metric(
        "core.multi.border_packets",
        multi(&|s| s.border_packets),
        "count",
    ));
    m.push(metric(
        "core.multi.exchanged_mb",
        multi(&|s| s.exchanged_mb),
        "MB",
    ));
    m.push(metric(
        "core.multi.max_device_peak_mb",
        multi(&|s| s.max_device_peak_mb),
        "MB",
    ));
    m.push(metric("core.multi.link_ms", multi(&|s| s.link_ms), "ms"));
    m.push(metric(
        "core.multi.pack_apply_ms",
        multi(&|s| s.pack_apply_ms),
        "ms",
    ));
    m.push(metric(
        "core.multi.slice_charged_ms",
        multi(&|s| s.slice_charged_ms),
        "ms",
    ));
    m.push(metric(
        "core.multi.slice_device_max_ms",
        multi(&|s| s.slice_device_max_ms),
        "ms",
    ));
    m.push(metric(
        "core.multi.device_busy_frac",
        multi(&|s| s.device_busy_frac),
        "frac",
    ));
    m.push(metric(
        "core.multi.charge_residual_ms",
        multi(&|s| s.charge_residual_ms),
        "ms",
    ));
    m.push(metric("core.multi.p1_overcharge_ms", p1_overcharge, "ms"));

    let batches: Vec<&BatchReport> = ops.iter().filter_map(|op| op.batch.as_ref()).collect();
    let per_batch =
        |f: fn(&BatchReport) -> f64| median(&batches.iter().map(|b| f(b)).collect::<Vec<_>>());
    // A fold from +0.0: an empty float `sum()` is -0.0, which prints as "-0".
    let sum = |f: fn(&BatchReport) -> f64| batches.iter().fold(0.0, |acc, b| acc + f(b));
    let mut rebuilds = 0.0;
    let mut repeel_ms = Vec::new();
    for inst in &bench.instances {
        if let Engine::Dyn { dc, oracle, .. } = &inst.engine {
            rebuilds += dc.rebuilds() as f64;
            let run = tr
                .span("decompose", |_| {
                    decompose(&oracle.to_csr(), &dc.config().peel, &SimOptions::default())
                })
                .map_err(|e| format!("re-peel of the final graph: {e}"))?;
            repeel_ms.push(run.report.total_ms);
        }
    }
    let dynamic = !repeel_ms.is_empty();
    m.push(metric(
        "core.dynamic.candidates",
        per_batch(|b| b.candidates as f64),
        "count",
    ));
    m.push(metric(
        "core.dynamic.changed",
        per_batch(|b| b.changed as f64),
        "count",
    ));
    m.push(metric(
        "core.dynamic.pruned_inserts",
        per_batch(|b| b.pruned_inserts as f64),
        "count",
    ));
    m.push(metric(
        "core.dynamic.repeeled_batches",
        sum(|b| f64::from(u8::from(b.path == BatchPath::Repeeled))),
        "count",
    ));
    m.push(metric("core.dynamic.rebuilds", rebuilds, "count"));
    m.push(metric(
        "core.dynamic.rejected",
        sum(|b| b.rejected as f64),
        "count",
    ));
    m.push(metric(
        "core.dynamic.useful_ratio",
        ratio(sum(|b| b.changed as f64), sum(|b| b.candidates as f64)),
        "frac",
    ));
    let init_ms: Vec<f64> = setup
        .setup_s
        .iter()
        .zip(&setup.ingest_s)
        .map(|(t, i)| (t - i) * 1e3)
        .collect();
    m.push(metric(
        "core.dynamic.init_ms",
        if dynamic { median(&init_ms) } else { 0.0 },
        "ms",
    ));
    m.push(metric(
        "core.dynamic.repeel_sim_ms",
        median(&repeel_ms),
        "ms",
    ));

    m.push(metric("cpu.bz_ms", median(&setup.bz_ms), "ms"));
    m.push(metric("cpu.verify_ms", median(&setup.verify_ms), "ms"));
    let oracle_ms: Vec<f64> = ops
        .iter()
        .filter(|op| op.batch.is_some())
        .map(|op| op.oracle_ms)
        .collect();
    m.push(metric(
        "cpu.incremental_ms_per_batch",
        median(&oracle_ms),
        "ms",
    ));

    let host_p50 = |ops: &[Op]| median(&ops.iter().map(|op| op.host_ms).collect::<Vec<_>>());
    m.push(metric(
        "bench.trace_overhead_frac",
        ratio(host_p50(&ops), host_p50(&plain)) - 1.0,
        "frac",
    ));
    m.push(metric(
        "bench.trace_capture_ms",
        med(&|_, l| l.capture_ms),
        "ms",
    ));
    m.push(metric(
        "bench.host_wall_ms_p50",
        median(&plain.iter().map(|op| op.wall_ms).collect::<Vec<_>>()),
        "ms",
    ));
    m.push(metric(
        "bench.probe_ms",
        median(&plain.iter().map(|op| op.probe_ms).collect::<Vec<_>>()),
        "ms",
    ));
    Ok((m, ops.len()))
}

/// Host p50 of [`FANOUT_OPS`] ops at two threads over the same at one
/// thread; 1.0 when the machine has a single core.
fn fanout_slowdown(bench: &mut Bench, tr: &mut Tracer, tally: &mut Tally) -> Result<f64, String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 2 {
        return Ok(1.0);
    }
    let mut p50 = [0.0; 2];
    for (i, width) in [1usize, 2].into_iter().enumerate() {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(width)
            .build()
            .map_err(|e| e.to_string())?;
        let host: Vec<f64> = pool.install(|| {
            (0..FANOUT_OPS)
                .map(|_| {
                    let op = bench.measured_op(tr);
                    tally.check(op.ok);
                    op.host_ms
                })
                .collect()
        });
        p50[i] = median(&host);
    }
    Ok(ratio(p50[1], p50[0]))
}

/// Simulated time the sharded engine charges at one device beyond what the
/// single-device engine charges for the same graph and configuration, ms.
/// At one device the two should agree, so this isolates charging error.
pub fn p1_overcharge_ms(g: &Csr, cfg: &MultiGpuConfig, sim: &SimOptions) -> Result<f64, SimError> {
    let one = MultiGpuConfig {
        num_gpus: 1,
        ..*cfg
    };
    let sharded = decompose_multi(g, &one, sim)?;
    let single = decompose(g, &cfg.peel, sim)?;
    Ok(sharded.total_ms - single.report.total_ms)
}
