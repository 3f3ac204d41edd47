//! The billion-edge scaling table: edge-partitioned sharded decomposition
//! across 1/2/4/8 worker devices (DESIGN.md "Sharded decomposition").
//!
//! Two sections:
//!
//! * **Scaling curve** — on the `@2x` high-fidelity stand-ins, simulated
//!   wall time, speedup over the 1-device run, exchange volume, sub-rounds,
//!   and max per-device peak memory at each device count. The fleet clock
//!   charges each barrier sub-round the slowest device's delta and each
//!   exchange its kernels and link hops, so the curve shows what the
//!   overlap buys and the critical-path column what the borders cost.
//! * **Full-scale fit** — per-shard [`kcore_gpusim::MemStats::extrapolate`]
//!   forecasts for uk-2005 at paper scale (39.5 M vertices, 936 M edges)
//!   against 16 GB P100 devices: the max predicted per-device peak for each
//!   pool size, proving where the billion-edge rows fit.
//!
//! With `--check` (used by `scripts/ci.sh`), runs the smoke datasets
//! instead and asserts the sharded contract: cores equal BZ at every pool
//! size, one device exchanges nothing and charges bit-for-bit what the
//! single-device engine charges, shard-local worker residency, max
//! per-device peak strictly decreasing 1 → 2 → 4 devices, and the uk-2005
//! @1x forecast fitting on ≤ 8 devices.

use kcore_bench::{
    fleet_timeline_enabled, prepare, prepare_all, print_table, save_fleet, save_json,
};
use kcore_gpu::{decompose, decompose_multi_fleet, shard_memstats, MultiGpuConfig};
use kcore_gpusim::{FleetTrace, P100_DEVICE_BYTES};
use kcore_graph::datasets;
use serde::Serialize;

const DEVICE_COUNTS: [usize; 4] = [1, 2, 4, 8];

#[derive(Serialize)]
struct ScaleRow {
    dataset: String,
    devices: usize,
    total_ms: f64,
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
/// rounds each resource bounded — the `Critical path` table column.
#[derive(Serialize, Clone)]
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
            compute_ms: 0.0,
            cascade_ms: 0.0,
            exchange_ms: 0.0,
            link_ms: 0.0,
            compute_bound_rounds: 0,
            cascade_bound_rounds: 0,
            exchange_bound_rounds: 0,
            link_bound_rounds: 0,
            rounds: fleet.critical_path.len(),
            dominant: "compute".into(),
        };
        for c in &fleet.critical_path {
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

    /// Component shares of the aggregate, `(compute, cascade, exchange,
    /// link)`, as percentages.
    fn shares(&self) -> (f64, f64, f64, f64) {
        let sum = self.compute_ms + self.cascade_ms + self.exchange_ms + self.link_ms;
        if sum <= 0.0 {
            return (0.0, 0.0, 0.0, 0.0);
        }
        (
            100.0 * self.compute_ms / sum,
            100.0 * self.cascade_ms / sum,
            100.0 * self.exchange_ms / sum,
            100.0 * self.link_ms / sum,
        )
    }

    /// Compact table cell: component share percentages plus the modal
    /// bounding resource.
    fn cell(&self) -> String {
        let (c, ca, x, l) = self.shares();
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

#[derive(Serialize)]
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

fn mb(b: u64) -> f64 {
    b as f64 / (1024.0 * 1024.0)
}

/// The scaling sweep over one prepared dataset environment.
fn sweep(e: &kcore_bench::Env, check: bool) -> Vec<ScaleRow> {
    let mut rows = Vec::new();
    let mut base_ms = None;
    let mut prev_peak = u64::MAX;
    for &p in &DEVICE_COUNTS {
        let cfg = MultiGpuConfig {
            num_gpus: p,
            peel: e.peel_cfg,
            ..MultiGpuConfig::default()
        };
        let label = format!("{} p={p}", e.dataset.name);
        let fr = decompose_multi_fleet(&e.graph, &cfg, &e.sim, label).unwrap();
        fr.fleet
            .check_well_formed()
            .expect("fleet ledger must reconcile with the device clocks");
        let run = &fr.run;
        assert_eq!(run.core, e.truth, "{} p={p}", e.dataset.name);
        if fleet_timeline_enabled() {
            let slug = format!("{}_p{p}", e.dataset.name.replace(['-', '.'], "_"));
            save_fleet(&slug, &fr);
        }
        let base = *base_ms.get_or_insert(run.total_ms);
        let max_peak = run.per_device_peak_bytes.iter().copied().max().unwrap_or(0);
        if check {
            if p == 1 {
                assert_eq!(run.exchanged_bytes, 0, "one device must not exchange");
                let single = decompose(&e.graph, &e.peel_cfg, &e.sim)
                    .unwrap()
                    .report
                    .total_ms;
                assert_eq!(
                    run.total_ms.to_bits(),
                    single.to_bits(),
                    "{}: one device must charge what the single-device engine \
                     charges ({} ms vs {single} ms)",
                    e.dataset.name,
                    run.total_ms
                );
            } else {
                assert!(
                    max_peak < prev_peak,
                    "{}: per-device peak must shrink with the pool \
                     ({max_peak} B at p={p} !< {prev_peak} B)",
                    e.dataset.name
                );
            }
        }
        prev_peak = max_peak;
        rows.push(ScaleRow {
            dataset: e.dataset.name.to_string(),
            devices: p,
            total_ms: run.total_ms,
            speedup: base / run.total_ms,
            sub_rounds: run.sub_rounds,
            exchanged_bytes: run.exchanged_bytes,
            max_device_peak_bytes: max_peak,
            total_peak_bytes: run.total_peak_mem_bytes,
            exchange_rounds: run.exchange_rounds,
            border_packets: run.border_packets,
            critical: CriticalAgg::from_fleet(&fr.fleet),
        });
    }
    rows
}

/// Per-shard full-scale forecast: each worker's memstats extrapolated to
/// its share of the paper-scale dimensions (shard-local dims × the
/// stand-in's vertex/arc ratios).
fn fit_rows(e: &kcore_bench::Env) -> Vec<FitRow> {
    let full_v = e.dataset.paper.num_vertices;
    let full_a = 2 * e.dataset.paper.num_edges;
    let vratio = full_v as f64 / e.stats.num_vertices.max(1) as f64;
    let aratio = full_a as f64 / (2 * e.stats.num_edges.max(1)) as f64;
    let mut rows = Vec::new();
    for &p in &DEVICE_COUNTS {
        let cfg = MultiGpuConfig {
            num_gpus: p,
            peel: e.peel_cfg,
            ..MultiGpuConfig::default()
        };
        let fleet = shard_memstats(&e.graph, &cfg, &e.sim).unwrap();
        let mut max_peak = 0u64;
        let mut all_fit = true;
        for stats in &fleet.devices {
            let shard_full_v = (stats.sim_vertices as f64 * vratio) as u64;
            let shard_full_a = (stats.sim_arcs as f64 * aratio) as u64;
            let f = stats.extrapolate(shard_full_v, shard_full_a);
            max_peak = max_peak.max(f.predicted_peak_bytes);
            all_fit &= f.fits;
        }
        rows.push(FitRow {
            dataset: e.dataset.name.to_string(),
            devices: p,
            full_vertices: full_v,
            full_arcs: full_a,
            max_predicted_peak_bytes: max_peak,
            device_capacity_bytes: P100_DEVICE_BYTES,
            fits: all_fit,
        });
    }
    rows
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");

    // --check exercises the contract on the fast smoke stand-ins; the real
    // table runs the @2x high-fidelity rows.
    let envs: Vec<kcore_bench::Env> = if check {
        prepare_all()
    } else {
        datasets::scaled_up_variants()
            .into_iter()
            .map(prepare)
            .collect()
    };

    let mut scaling = Vec::new();
    for e in &envs {
        eprintln!("[table_scale] {}", e.dataset.name);
        scaling.extend(sweep(e, check));
    }

    // Residency spot check: every worker ledger is shard-local (the
    // partition contract memstats sees), on the first dataset at 4 devices.
    if check {
        let e = &envs[0];
        let cfg = MultiGpuConfig {
            num_gpus: 4,
            peel: e.peel_cfg,
            ..MultiGpuConfig::default()
        };
        let traces = decompose_multi_fleet(&e.graph, &cfg, &e.sim, "residency")
            .unwrap()
            .traces;
        let n = e.graph.num_vertices() as u64;
        for (wi, t) in traces.iter().enumerate() {
            let deg = t
                .memstats
                .allocations
                .iter()
                .find(|a| a.name == "deg")
                .expect("worker must ledger a deg allocation");
            assert!(
                deg.elems < n,
                "worker {wi} deg has {} elems — not shard-local (|V| = {n})",
                deg.elems
            );
            assert_eq!(
                deg.elems, t.memstats.sim_vertices,
                "ledger vs workload dims"
            );
        }
        eprintln!("[table_scale] residency OK: worker ledgers are shard-local");
    }

    // Full-scale fit forecast for the paper's billion-edge web row.
    let uk = prepare(datasets::by_name("uk-2005").expect("registry has uk-2005"));
    let fit = fit_rows(&uk);
    if check {
        let fits_at_8 = fit.iter().any(|r| r.devices == 8 && r.fits);
        assert!(fits_at_8, "uk-2005 @1x must fit on 8 x 16 GB devices");
    }

    let headers: Vec<String> = [
        "Dataset",
        "Devices",
        "ms",
        "Speedup",
        "Exch MB",
        "Max dev MB",
        "Sub-rounds",
        "Critical path",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
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
    println!("\nSHARDED SCALING\n");
    print_table(&headers, &rows);
    println!(
        "\nCritical path column: per-round aggregate shares of \
         compute(c)/cascade(s)/exchange-kernel(x)/link(l), then the resource \
         bounding the most rounds (bound@rounds/total)."
    );

    let fit_headers: Vec<String> = ["Dataset", "Devices", "Max dev GB @1x", "Fits 16 GB"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let fit_rows_txt: Vec<Vec<String>> = fit
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
    println!("\nFULL-SCALE FIT FORECAST (per-device predicted peak vs 16 GB P100)\n");
    print_table(&fit_headers, &fit_rows_txt);

    save_json("table_scale", &TableScale { scaling, fit });
    if check {
        eprintln!("[table_scale] check OK: sharded contract holds on smoke datasets");
    }
}
