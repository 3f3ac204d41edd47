//! The sharded report: every (dataset, device count) cell of the scaling
//! curve, the fleet table and the full-scale fit forecast runs once through
//! [`capture_sharded`], and the three sections render from those captures
//! (DESIGN.md "Sharded decomposition").
//!
//! * **Scaling curve** — on the `@2x` high-fidelity stand-ins (the selected
//!   datasets under `--check`) at 1, 2, 4 and 8 devices: simulated time,
//!   speedup over one device, exchange volume, sub-rounds, the largest
//!   per-device peak and the critical path. The fleet clock charges each
//!   barrier sub-round the slowest device's delta and each exchange its
//!   kernels and link hops, so the curve shows what the overlap buys and
//!   the critical-path column what the borders cost.
//! * **Fleet table** — every selected dataset (`KCORE_SMOKE`,
//!   `KCORE_DATASETS`) at 2 and 4 devices: exchange traffic, partition
//!   border structure, the rounds each resource bounded, and the busiest
//!   device with its dominant roofline bucket.
//! * **Fit forecast** — uk-2005 at 1, 2, 4 and 8 devices: each worker's
//!   allocation ledger, read from its trace, extrapolated with
//!   [`kcore_gpusim::MemStats::extrapolate`] to its share of the paper-scale
//!   dimensions (39.5 M vertices, 936 M edges) against 16 GB P100 devices.
//!
//! A cell that two sections share runs once: under `--check` the curve and
//! the fleet table read the same runs, and at full size the forecast reads
//! the fleet table's uk-2005 runs at 2 and 4 devices.

use crate::capture::sharded_config;
use crate::{
    capture_sharded, check_round_trip, prepare, render_table, save_fleet, selected, table_files,
    timeline_enabled, titled, to_json, Env, Outcome, RunCapture,
};
use kcore_gpu::{decompose_multi, FleetRun};
use kcore_gpusim::{FleetTrace, Hotspot, P100_DEVICE_BYTES};
use kcore_graph::datasets::{self, Dataset};
use kcore_graph::PartitionStats;
use kcore_systems::Engine;
use serde::Serialize;

/// The device counts of the scaling curve and of the fit forecast.
const CURVE_DEVICES: [usize; 4] = [1, 2, 4, 8];
/// The device counts of the fleet table.
const FLEET_DEVICES: [usize; 2] = [2, 4];

#[derive(Serialize, Clone)]
struct ScaleRow {
    dataset: String,
    devices: usize,
    total_ms: f64,
    /// Over the dataset's one-device run; set when the curve renders.
    speedup: f64,
    sub_rounds: u32,
    exchanged_bytes: u64,
    max_device_peak_bytes: u64,
    total_peak_bytes: u64,
    exchange_rounds: u64,
    border_packets: u64,
    /// Whole-run aggregate of the per-round critical-path components.
    critical: CriticalAgg,
}

/// Per-round critical-path components summed over a run, with the count of
/// rounds each resource bounded — the curve's `Critical path` column and
/// the fleet table's bound counts.
#[derive(Serialize, Clone, Default)]
struct CriticalAgg {
    compute_ms: f64,
    cascade_ms: f64,
    exchange_ms: f64,
    link_ms: f64,
    compute_bound_rounds: u32,
    cascade_bound_rounds: u32,
    exchange_bound_rounds: u32,
    link_bound_rounds: u32,
    /// Total peel rounds in the run (the denominator of the bound counts).
    rounds: usize,
    /// The resource bounding the most rounds.
    dominant: String,
}

impl CriticalAgg {
    fn from_fleet(fleet: &FleetTrace) -> CriticalAgg {
        let mut a = CriticalAgg {
            rounds: fleet.rounds.len(),
            ..CriticalAgg::default()
        };
        for c in fleet.critical_path() {
            a.compute_ms += c.compute_ms;
            a.cascade_ms += c.cascade_ms;
            a.exchange_ms += c.exchange_kernel_ms;
            a.link_ms += c.link_ms;
            match c.bound {
                "compute" => a.compute_bound_rounds += 1,
                "cascade" => a.cascade_bound_rounds += 1,
                "exchange" => a.exchange_bound_rounds += 1,
                "link" => a.link_bound_rounds += 1,
                _ => {}
            }
        }
        let counts = [
            ("compute", a.compute_bound_rounds),
            ("cascade", a.cascade_bound_rounds),
            ("exchange", a.exchange_bound_rounds),
            ("link", a.link_bound_rounds),
        ];
        a.dominant = counts.iter().max_by_key(|(_, n)| *n).unwrap().0.into();
        a
    }

    /// The rounds no resource bounded: every component was zero.
    fn idle_rounds(&self) -> u32 {
        let bound = self.compute_bound_rounds
            + self.cascade_bound_rounds
            + self.exchange_bound_rounds
            + self.link_bound_rounds;
        self.rounds as u32 - bound
    }

    /// Compact table cell: the components' shares of their sum, as
    /// percentages, plus the modal bounding resource.
    fn cell(&self) -> String {
        let sum = self.compute_ms + self.cascade_ms + self.exchange_ms + self.link_ms;
        let pct = |ms: f64| if sum <= 0.0 { 0.0 } else { 100.0 * ms / sum };
        let (c, ca) = (pct(self.compute_ms), pct(self.cascade_ms));
        let (x, l) = (pct(self.exchange_ms), pct(self.link_ms));
        let n = match self.dominant.as_str() {
            "compute" => self.compute_bound_rounds,
            "cascade" => self.cascade_bound_rounds,
            "exchange" => self.exchange_bound_rounds,
            _ => self.link_bound_rounds,
        };
        format!(
            "c{c:.0}/s{ca:.0}/x{x:.0}/l{l:.0}% {}@{n}/{}r",
            self.dominant, self.rounds
        )
    }
}

#[derive(Serialize, Clone)]
struct FleetRow {
    dataset: String,
    devices: usize,
    total_ms: f64,
    rounds: usize,
    exchange_rounds: u64,
    border_packets: u64,
    exchanged_bytes: u64,
    /// Partition border structure (ghosts / border arcs per shard pair).
    partition: PartitionStats,
    /// Whole-run critical-path component totals, ms.
    compute_ms: f64,
    cascade_ms: f64,
    exchange_kernel_ms: f64,
    link_ms: f64,
    /// Rounds bounded by each resource.
    bound_counts: BoundCounts,
    /// Per-device rollups: kernel time and its dominant roofline bucket.
    devices_rollup: Vec<RollupRow>,
}

#[derive(Serialize, Clone)]
struct BoundCounts {
    compute: u32,
    cascade: u32,
    exchange: u32,
    link: u32,
    idle: u32,
}

#[derive(Serialize, Clone)]
struct RollupRow {
    device: usize,
    total_ms: f64,
    kernel_ms: f64,
    launches: u64,
    dominant_bucket: String,
    dominant_ms: f64,
}

#[derive(Serialize, Clone)]
struct FitRow {
    dataset: String,
    devices: usize,
    full_vertices: u64,
    full_arcs: u64,
    /// Max over shards of the per-device full-scale prediction.
    max_predicted_peak_bytes: u64,
    device_capacity_bytes: u64,
    fits: bool,
}

#[derive(Serialize)]
struct TableScale {
    scaling: Vec<ScaleRow>,
    fit: Vec<FitRow>,
}

/// One sharded run, summarized from its kept capture into the row each
/// section renders from it.
#[derive(Clone)]
pub struct ShardCell {
    scale: ScaleRow,
    fleet: FleetRow,
    fit: FitRow,
}

impl ShardCell {
    /// Summarizes `cap`, a kept [`capture_sharded`] capture on `e`.
    ///
    /// # Panics
    ///
    /// Unless the run finished with the BZ core numbers and its fleet
    /// ledger reconciles with the device clocks
    /// ([`FleetTrace::check_well_formed`]).
    pub fn new(e: &Env, cap: &RunCapture) -> ShardCell {
        let name = e.dataset.name.to_string();
        assert_eq!(cap.outcome, Outcome::Ok, "{} on {name}", cap.name);
        let FleetRun {
            run,
            traces,
            fleet,
            partition,
            ..
        } = cap.fleet.as_ref().expect("the capture keeps the fleet run");
        fleet
            .check_well_formed(traces)
            .expect("fleet ledger must reconcile with the device clocks");
        let critical = CriticalAgg::from_fleet(fleet);
        let p = fleet.num_devices;
        // each worker's ledger scaled to its share of the paper-scale
        // dimensions: shard-local dims × the stand-in's vertex/arc ratios
        let full_vertices = e.dataset.paper.num_vertices;
        let full_arcs = 2 * e.dataset.paper.num_edges;
        let vratio = full_vertices as f64 / e.stats.num_vertices.max(1) as f64;
        let aratio = full_arcs as f64 / (2 * e.stats.num_edges.max(1)) as f64;
        let (mut max_predicted_peak_bytes, mut fits) = (0, true);
        for stats in traces.iter().map(|t| &t.memstats) {
            let shard_full_v = (stats.sim_vertices as f64 * vratio) as u64;
            let shard_full_a = (stats.sim_arcs as f64 * aratio) as u64;
            let f = stats.extrapolate(shard_full_v, shard_full_a);
            max_predicted_peak_bytes = max_predicted_peak_bytes.max(f.predicted_peak_bytes);
            fits &= f.fits;
        }
        ShardCell {
            scale: ScaleRow {
                dataset: name.clone(),
                devices: p,
                total_ms: run.total_ms,
                speedup: f64::NAN,
                sub_rounds: run.sub_rounds,
                exchanged_bytes: run.exchanged_bytes,
                max_device_peak_bytes: cap.peak_bytes,
                total_peak_bytes: run.per_device_peak_bytes.iter().sum(),
                exchange_rounds: run.exchange_rounds,
                border_packets: run.border_packets,
                critical: critical.clone(),
            },
            fleet: FleetRow {
                dataset: name.clone(),
                devices: fleet.num_devices,
                total_ms: fleet.total_ms,
                rounds: fleet.rounds.len(),
                exchange_rounds: run.exchange_rounds,
                border_packets: run.border_packets,
                exchanged_bytes: run.exchanged_bytes,
                partition: partition.clone(),
                compute_ms: critical.compute_ms,
                cascade_ms: critical.cascade_ms,
                exchange_kernel_ms: critical.exchange_ms,
                link_ms: critical.link_ms,
                bound_counts: BoundCounts {
                    compute: critical.compute_bound_rounds,
                    cascade: critical.cascade_bound_rounds,
                    exchange: critical.exchange_bound_rounds,
                    link: critical.link_bound_rounds,
                    idle: critical.idle_rounds(),
                },
                devices_rollup: traces
                    .iter()
                    .enumerate()
                    .map(|(device, t)| {
                        let all = Hotspot::sum(&t.hotspots);
                        let (bucket, ms) = all.dominant_bucket();
                        RollupRow {
                            device,
                            total_ms: t.totals.time_ms,
                            kernel_ms: all.total_ms,
                            launches: t.totals.launches,
                            dominant_bucket: bucket.to_string(),
                            dominant_ms: ms,
                        }
                    })
                    .collect(),
            },
            fit: FitRow {
                dataset: name,
                devices: p,
                full_vertices,
                full_arcs,
                max_predicted_peak_bytes,
                device_capacity_bytes: P100_DEVICE_BYTES,
                fits,
            },
        }
    }
}

/// The sharded report's cells, one list per section, in render order.
pub struct ShardReport {
    scaling: Vec<ShardCell>,
    fleet: Vec<ShardCell>,
    fit: Vec<ShardCell>,
}

impl ShardReport {
    /// Runs every cell of the three sections once, one dataset environment
    /// at a time. `KCORE_TIMELINE` dumps each run's fleet artifacts.
    ///
    /// `check` runs the curve on the selected datasets instead of the
    /// `@2x` stand-ins and asserts the sharded contract: one device
    /// exchanges nothing and charges bit-for-bit what the single-device
    /// engine charges; the largest per-device peak shrinks as the pool
    /// grows; at four devices every worker ledger is shard-local; each
    /// fleet-table run's `.fleet.json` document survives the round trip
    /// through `serde_json::from_str` (`check_round_trip`) and the run is
    /// the one `decompose_multi` returns; and uk-2005 fits on eight 16 GB
    /// devices. Whether checked or not, every run must compute the BZ core
    /// numbers and reconcile its fleet ledger ([`ShardCell::new`]).
    pub fn run(check: bool) -> ShardReport {
        let fleet = selected();
        let curve = if check {
            fleet.clone()
        } else {
            datasets::scaled_up_variants()
        };
        let fit = [datasets::by_name("uk-2005").expect("registry has uk-2005")];
        let sections: [(&[Dataset], &[usize]); 3] = [
            (&curve, &CURVE_DEVICES),
            (&fleet, &FLEET_DEVICES),
            (&fit, &CURVE_DEVICES),
        ];
        let wants = |(datasets, devices): (&[Dataset], &[usize]), d: &Dataset, p: usize| {
            devices.contains(&p) && datasets.iter().any(|x| x.name == d.name)
        };

        // each dataset once, at every device count a section asks of it (the
        // fleet table's counts are among the curve's)
        let mut cells: Vec<(&str, usize, ShardCell)> = Vec::new();
        for d in curve.iter().chain(&fleet).chain(&fit) {
            if cells.iter().any(|(name, ..)| *name == d.name) {
                continue;
            }
            let e = prepare(d.clone());
            eprintln!("[table_scale] {}", d.name);
            let counts = CURVE_DEVICES.into_iter();
            for p in counts.filter(|&p| sections.iter().any(|&s| wants(s, d, p))) {
                let cap = capture_sharded(&e, p, true);
                let cell = ShardCell::new(&e, &cap);
                let fr = cap.fleet.as_ref().expect("kept");
                if check {
                    let curve_p1 = p == 1 && wants(sections[0], d, p);
                    check_run(&e, p, fr, curve_p1, wants(sections[1], d, p));
                }
                if timeline_enabled() {
                    save_fleet(d.name, p, fr);
                }
                cells.push((d.name, p, cell));
            }
        }
        let [scaling, fleet, fit] = sections.map(|(datasets, devices)| {
            let cells = &cells;
            let section = datasets
                .iter()
                .flat_map(|d| devices.iter().map(move |&p| (d, p)));
            section
                .map(|(d, p)| {
                    let found = cells.iter().find(|(name, q, _)| *name == d.name && *q == p);
                    found.expect("every cell ran").2.clone()
                })
                .collect()
        });
        let report = ShardReport {
            scaling,
            fleet,
            fit,
        };
        if check {
            report.check();
        }
        report
    }

    /// The files the report writes, as `(name, contents)`: the scaling
    /// curve with the fit forecast, and the fleet table, each as text (as
    /// printed) and JSON.
    pub fn files(&self) -> Vec<(String, String)> {
        [
            table_files("table_scale", self.scale_table()),
            table_files("table_fleet", fleet_table(&self.fleet)),
        ]
        .concat()
    }

    /// The scaling curve, then the fit forecast.
    fn scale_table(&self) -> (String, String) {
        let (scaling, curve_text) = curve(&self.scaling);
        let fit: Vec<FitRow> = self.fit.iter().map(|c| c.fit.clone()).collect();
        let fit_rows: Vec<Vec<String>> = fit
            .iter()
            .map(|r| {
                vec![
                    r.dataset.clone(),
                    r.devices.to_string(),
                    format!(
                        "{:.2}",
                        r.max_predicted_peak_bytes as f64 / (1 << 30) as f64
                    ),
                    if r.fits { "yes" } else { "NO" }.to_string(),
                ]
            })
            .collect();
        let fit_headers = ["Dataset", "Devices", "Max dev GB @1x", "Fits 16 GB"].map(String::from);
        let text = curve_text
            + &titled(
                "FULL-SCALE FIT FORECAST (per-device predicted peak vs 16 GB P100)",
                &fit_headers,
                &fit_rows,
            );
        (text, to_json(&TableScale { scaling, fit }))
    }

    /// The row-level half of the `--check` contract.
    fn check(&self) {
        for pair in self.scaling.windows(2) {
            let (prev, next) = (&pair[0].scale, &pair[1].scale);
            if prev.dataset == next.dataset {
                assert!(
                    next.max_device_peak_bytes < prev.max_device_peak_bytes,
                    "{}: per-device peak must shrink with the pool \
                     ({} B at p={} !< {} B)",
                    next.dataset,
                    next.max_device_peak_bytes,
                    next.devices,
                    prev.max_device_peak_bytes
                );
            }
        }
        let fits_at_8 = self.fit.iter().any(|c| c.fit.devices == 8 && c.fit.fits);
        assert!(fits_at_8, "uk-2005 @1x must fit on 8 x 16 GB devices");
        eprintln!("[table_scale] check OK: sharded contract holds, ledgers reconcile and parse");
    }
}

/// The scaling curve over `cells`, as text and JSON. Each dataset's cells
/// come in ascending device count from one device, the run its speedup is
/// over.
pub fn scaling_curve(cells: &[ShardCell]) -> (String, String) {
    let (rows, text) = curve(cells);
    (text, to_json(&rows))
}

/// The scaling curve's rows, with their speedups set, and its text section.
fn curve(cells: &[ShardCell]) -> (Vec<ScaleRow>, String) {
    // each dataset's curve starts at one device
    let mut base = f64::NAN;
    let scaling: Vec<ScaleRow> = cells
        .iter()
        .map(|c| {
            if c.scale.devices == 1 {
                base = c.scale.total_ms;
            }
            ScaleRow {
                speedup: base / c.scale.total_ms,
                ..c.scale.clone()
            }
        })
        .collect();
    let mb = |b: u64| b as f64 / (1024.0 * 1024.0);
    let rows: Vec<Vec<String>> = scaling
        .iter()
        .map(|r| {
            vec![
                r.dataset.clone(),
                r.devices.to_string(),
                format!("{:.2}", r.total_ms),
                format!("{:.2}x", r.speedup),
                format!("{:.2}", mb(r.exchanged_bytes)),
                format!("{:.1}", mb(r.max_device_peak_bytes)),
                r.sub_rounds.to_string(),
                r.critical.cell(),
            ]
        })
        .collect();
    let headers = [
        "Dataset",
        "Devices",
        "ms",
        "Speedup",
        "Exch MB",
        "Max dev MB",
        "Sub-rounds",
        "Critical path",
    ]
    .map(String::from);
    let text = format!(
        "{}\nCritical path column: per-round aggregate shares of \
         compute(c)/cascade(s)/exchange-kernel(x)/link(l), then the resource \
         bounding the most rounds (bound@rounds/total).\n",
        titled("SHARDED SCALING", &headers, &rows),
    );
    (scaling, text)
}

/// The fleet table over `cells`, as text and JSON.
pub fn fleet_table(cells: &[ShardCell]) -> (String, String) {
    let rows: Vec<FleetRow> = cells.iter().map(|c| c.fleet.clone()).collect();
    let headers = [
        "Dataset",
        "Devices",
        "ms",
        "Rounds",
        "Xch rounds",
        "Packets",
        "Ghosts",
        "Border arcs",
        "Bound (c/s/x/l)",
        "Dominant rollup",
    ]
    .map(String::from);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let dominant = r
                .devices_rollup
                .iter()
                .max_by(|a, b| a.kernel_ms.total_cmp(&b.kernel_ms))
                .map(|d| format!("d{} {}", d.device, d.dominant_bucket))
                .unwrap_or_else(|| "-".into());
            let b = &r.bound_counts;
            vec![
                r.dataset.clone(),
                r.devices.to_string(),
                format!("{:.2}", r.total_ms),
                r.rounds.to_string(),
                r.exchange_rounds.to_string(),
                r.border_packets.to_string(),
                r.partition.total_ghosts.to_string(),
                r.partition.total_border_arcs.to_string(),
                format!("{}/{}/{}/{}", b.compute, b.cascade, b.exchange, b.link),
                dominant,
            ]
        })
        .collect();
    let text = format!(
        "FLEET OBSERVABILITY REPORT\n\n{}\n\
         Bound (c/s/x/l): rounds whose critical path is bounded by compute /\n\
         cascade sub-rounds / exchange kernels / link transfer. Dominant rollup:\n\
         the busiest device and its dominant roofline bucket.\n",
        render_table(&headers, &table)
    );
    (text, to_json(&rows))
}

/// The per-run half of the `--check` contract, on `e`'s run `fr` on `p`
/// devices: the one-device run of the curve (`curve_p1`) against the
/// single-device engine, worker residency at four devices, and a fleet-table
/// run (`fleet`) through the JSON reader and against `decompose_multi`.
fn check_run(e: &Env, p: usize, fr: &FleetRun, curve_p1: bool, fleet: bool) {
    let name = e.dataset.name;
    if curve_p1 {
        assert_eq!(fr.run.exchanged_bytes, 0, "one device must not exchange");
        let single = Engine::OURS.run(&e.graph, &e.sim, &e.opts).unwrap();
        let single = single.report.total_ms;
        assert_eq!(
            fr.run.total_ms.to_bits(),
            single.to_bits(),
            "{name}: one device must charge what the single-device engine \
             charges ({} ms vs {single} ms)",
            fr.run.total_ms
        );
    }
    if p == 4 {
        // the partition contract the ledgers see: every worker holds only
        // its shard's rows
        let n = e.graph.num_vertices() as u64;
        for (wi, t) in fr.traces.iter().enumerate() {
            let deg = t.memstats.allocations.iter().find(|a| a.name == "deg");
            let deg = deg.expect("worker must ledger a deg allocation");
            assert!(
                deg.elems < n,
                "{name}: worker {wi} deg has {} elems — not shard-local (|V| = {n})",
                deg.elems
            );
            assert_eq!(
                deg.elems, t.memstats.sim_vertices,
                "ledger vs workload dims"
            );
        }
    }
    if fleet {
        check_round_trip(&fr.fleet.to_json(&fr.traces));
        check_matches_decompose_multi(e, p, fr);
    }
}

/// The fleet run is the run `decompose_multi` returns: the same cores and
/// simulated time to the bit, exchange volume and sub-rounds, and worker
/// fingerprints. `decompose_multi` digests each worker's launch and
/// transfer records without building a trace, so its fingerprints are also
/// checked against the fleet run's traces.
fn check_matches_decompose_multi(e: &Env, p: usize, fr: &FleetRun) {
    let run = decompose_multi(&e.graph, &sharded_config(e, p), &e.sim)
        .expect("decompose_multi runs where the fleet run did");
    let (want, trace_fps) = (&fr.run, fr.traces.iter().map(|t| t.counters_fingerprint()));
    assert_eq!(run.core, want.core, "p={p}: cores");
    let (ms, want_ms) = (run.total_ms, want.total_ms);
    assert_eq!(
        ms.to_bits(),
        want_ms.to_bits(),
        "p={p}: total_ms {ms} vs fleet {want_ms}"
    );
    let fps = &run.worker_fingerprints;
    assert_eq!(fps, &want.worker_fingerprints, "p={p}: worker fingerprints");
    assert!(
        fps.iter().copied().eq(trace_fps),
        "p={p}: worker fingerprints vs fleet traces"
    );
    assert_eq!(
        run.exchanged_bytes, want.exchanged_bytes,
        "p={p}: exchanged bytes"
    );
    assert_eq!(run.sub_rounds, want.sub_rounds, "p={p}: sub-rounds");
}
