//! Shared harness for the table/figure regeneration binaries.
//!
//! Every experiment runs on the Table I dataset stand-ins at reduced scale
//! (DESIGN.md). To keep the *relative* quantities faithful, the harness
//! derives a per-dataset **scale factor** `paper |E| / stand-in |E|` at
//! runtime and scales the environment by it:
//!
//! * simulated device capacity = 16 GiB / scale (so the paper's OOM points
//!   reappear at the same datasets);
//! * simulated time budget = 1 hour / scale (so "> 1hr" cells reappear);
//! * per-block buffer capacity = 1 M IDs / scale (the paper's buffer
//!   budget, same fraction of the graph).
//!
//! Environment knobs:
//!
//! * `KCORE_RUNS` — repetitions for the ablation's avg ± std (default 3;
//!   the paper uses 100);
//! * `KCORE_DATASETS` — comma-separated dataset-name filter;
//! * `KCORE_SMOKE` — set to use the miniature smoke-test registry subset
//!   (fast CI runs).

pub mod regress;

use kcore_cpu::CoreAlgorithm;
use kcore_gpu::PeelConfig;
use kcore_gpusim::{SimError, SimOptions};
use kcore_graph::datasets::{self, Dataset};
use kcore_graph::{Csr, GraphStats};
use serde::Serialize;
use std::io::Write as _;
use std::path::PathBuf;

/// Everything a table binary needs for one dataset.
pub struct Env {
    /// The registry entry (paper stats + generator).
    pub dataset: Dataset,
    /// The generated stand-in graph.
    pub graph: Csr,
    /// Stand-in statistics.
    pub stats: GraphStats,
    /// `paper |E| / stand-in |E|`.
    pub scale: f64,
    /// Scaled simulation options (capacity + time budget).
    pub sim: SimOptions,
    /// Scaled peel configuration ("Ours" baseline; derive variants from it).
    pub peel_cfg: PeelConfig,
    /// Ground-truth core numbers (BZ).
    pub truth: Vec<u32>,
    /// `k_max` of the stand-in.
    pub k_max: u32,
}

/// The paper's 1-hour budget, ms.
pub const PAPER_HOUR_MS: f64 = 3_600_000.0;
/// The paper's device memory (P100), bytes.
pub const PAPER_DEVICE_BYTES: u64 = 16 * (1 << 30);

/// Prepares one dataset environment. The stand-in graph comes from the
/// `KCORE_CACHE_DIR` binary cache when enabled (identical bytes either
/// way), so a suite of table binaries generates each dataset only once.
pub fn prepare(dataset: Dataset) -> Env {
    let graph = dataset.generate_cached();
    let stats = GraphStats::compute(&graph);
    let scale = (dataset.paper.num_edges as f64 / stats.num_edges.max(1) as f64).max(1.0);
    let mut sim = SimOptions {
        device_capacity_bytes: (PAPER_DEVICE_BYTES as f64 / scale) as u64,
        time_limit_ms: Some(PAPER_HOUR_MS / scale),
        ..SimOptions::default()
    };
    // Scale the *fixed* per-event costs (kernel launch, host round trips)
    // with the graph, so the fixed-to-variable cost ratio stays
    // paper-comparable: a 1/100-scale graph with full-size launch overhead
    // would be entirely launch-bound and hide every variant difference.
    sim.cost.kernel_launch_s /= scale;
    sim.cost.pcie_latency_s /= scale;
    // Scale the grid geometry so each block covers the same number of
    // grid-stride stripes as at paper scale (Algorithm 2 assigns blocks
    // contiguous BLK_DIM-sized stripes every NUM_THREADS vertices; with the
    // paper's 110 592 threads against a down-scaled |V|, blocks would each
    // own a single contiguous stripe and per-block load balance would be
    // destroyed). BLK_NUM stays 108 (it matches the SM count); BLK_DIM
    // shrinks by the vertex scale. Barrier cost shrinks with the block
    // width (fewer warps to converge).
    let vertex_scale =
        (dataset.paper.num_vertices as f64 / stats.num_vertices.max(1) as f64).max(1.0);
    let dim = (((1024.0 / vertex_scale) as u32) / 32 * 32).clamp(32, 1024);
    sim.cost.barrier_cycles = (dim / 32) as f64;
    let peel_cfg = PeelConfig {
        launch: kcore_gpusim::LaunchConfig {
            blocks: 108,
            threads_per_block: dim,
        },
        buf_capacity: ((1_000_000.0 / scale) as usize).max(4_096),
        shared_buf_capacity: ((10_000.0 / scale) as usize).max(64),
        ..PeelConfig::default()
    };
    let truth = kcore_cpu::bz::Bz.run(&graph);
    let k_max = kcore_cpu::k_max(&truth);
    Env {
        dataset,
        graph,
        stats,
        scale,
        sim,
        peel_cfg,
        truth,
        k_max,
    }
}

/// Prepares all selected datasets (honoring `KCORE_SMOKE` / `KCORE_DATASETS`).
pub fn prepare_all() -> Vec<Env> {
    let base = if std::env::var_os("KCORE_SMOKE").is_some() {
        datasets::smoke_subset()
    } else {
        datasets::registry()
    };
    let filter: Option<Vec<String>> = std::env::var("KCORE_DATASETS").ok().map(|s| {
        s.split(',')
            .map(|x| x.trim().to_ascii_lowercase())
            .collect()
    });
    base.into_iter()
        .filter(|d| {
            filter
                .as_ref()
                .is_none_or(|f| f.iter().any(|x| x == &d.name.to_ascii_lowercase()))
        })
        .map(prepare)
        .collect()
}

/// Repetition count for avg ± std experiments.
pub fn runs() -> usize {
    std::env::var("KCORE_RUNS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3)
        .max(1)
}

/// One table cell: a time, or one of the paper's special outcomes.
#[derive(Debug, Clone, Serialize)]
pub enum Cell {
    /// Simulated or measured milliseconds (avg, std).
    Time {
        /// Mean over repetitions.
        avg_ms: f64,
        /// Standard deviation over repetitions (0 for single runs).
        std_ms: f64,
    },
    /// Exceeded the (scaled) 1-hour budget.
    OverHour,
    /// Graph loading alone exceeded the budget (VETGA's "LD > 1hr").
    LoadOverHour,
    /// Device out of memory.
    Oom,
    /// Implementation produced wrong core numbers (should never appear; kept
    /// so the harness surfaces rather than hides a correctness regression).
    Wrong,
}

impl Cell {
    /// Builds a cell from repetition times in ms.
    pub fn from_times(times: &[f64]) -> Cell {
        let n = times.len() as f64;
        let avg = times.iter().sum::<f64>() / n;
        let var = times.iter().map(|t| (t - avg) * (t - avg)).sum::<f64>() / n;
        Cell::Time {
            avg_ms: avg,
            std_ms: var.sqrt(),
        }
    }

    /// Builds a cell from one run outcome, checking correctness.
    pub fn from_result(res: Result<(Vec<u32>, f64), SimError>, truth: &[u32]) -> Cell {
        match res {
            Ok((core, ms)) => {
                if core == truth {
                    Cell::Time {
                        avg_ms: ms,
                        std_ms: 0.0,
                    }
                } else {
                    Cell::Wrong
                }
            }
            Err(SimError::TimeLimit { .. }) => Cell::OverHour,
            Err(SimError::Oom(_)) => Cell::Oom,
            Err(e) => panic!("unexpected simulation failure: {e}"),
        }
    }

    /// Mean time, if this is a time cell.
    pub fn avg_ms(&self) -> Option<f64> {
        match self {
            Cell::Time { avg_ms, .. } => Some(*avg_ms),
            _ => None,
        }
    }

    /// Renders like the paper's cells: `"12.3"`, `"> 1hr"`, `"LD > 1hr"`,
    /// `"OOM"`. Scaled-time cells are in *scaled* ms (multiply by the
    /// dataset scale for a paper-equivalent figure).
    pub fn render(&self, with_std: bool) -> String {
        match self {
            Cell::Time { avg_ms, std_ms } => {
                if with_std {
                    format!("{:.2}±{:.2}", avg_ms, std_ms)
                } else if *avg_ms >= 100.0 {
                    format!("{avg_ms:.0}")
                } else {
                    format!("{avg_ms:.2}")
                }
            }
            Cell::OverHour => "> 1hr".into(),
            Cell::LoadOverHour => "LD > 1hr".into(),
            Cell::Oom => "OOM".into(),
            Cell::Wrong => "WRONG!".into(),
        }
    }
}

/// Prints an aligned text table.
pub fn print_table(headers: &[String], rows: &[Vec<String>]) {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, &w) in widths.iter().enumerate() {
            if i > 0 {
                s.push_str("  ");
            }
            let cell = cells.get(i).map(String::as_str).unwrap_or("");
            if i == 0 {
                s.push_str(&format!("{cell:<w$}"));
            } else {
                s.push_str(&format!("{cell:>w$}"));
            }
        }
        s
    };
    println!("{}", line(headers));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1))
    );
    for row in rows {
        println!("{}", line(row));
    }
}

/// Marks the minimum time cell of a row with the paper's asterisk.
pub fn mark_best(cells: &mut [String], times: &[Option<f64>]) {
    if let Some((best, _)) = times
        .iter()
        .enumerate()
        .filter_map(|(i, t)| t.map(|t| (i, t)))
        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
    {
        cells[best] = format!("{}*", cells[best]);
    }
}

/// Where result JSON files go (`results/` at the workspace root).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("KCORE_RESULTS_DIR")
        .unwrap_or_else(|_| format!("{}/../../results", env!("CARGO_MANIFEST_DIR")));
    let p = PathBuf::from(dir);
    std::fs::create_dir_all(&p).expect("create results dir");
    p
}

/// Writes a captured kernel [`Trace`](kcore_gpusim::Trace) as pretty-printed
/// JSON into `results/traces/<name>.json`.
///
/// Overwriting a previous dump is announced rather than silent, and a
/// previous dump written under a *different* trace schema is preserved as
/// `<name>.schema<v>.json` instead of being mixed over — tooling scanning
/// the directory never sees two schemas under one name.
pub fn save_trace(name: &str, trace: &kcore_gpusim::Trace) {
    let dir = results_dir().join("traces");
    std::fs::create_dir_all(&dir).expect("create traces dir");
    let path = dir.join(format!("{name}.json"));
    if let Ok(old) = std::fs::read_to_string(&path) {
        let old_schema = regress::parse_json(&old)
            .ok()
            .and_then(|v| regress::get(&v, "schema_version").and_then(regress::as_u64))
            // PR 1 traces predate the schema_version field
            .unwrap_or(1);
        if old_schema != kcore_gpusim::TRACE_SCHEMA_VERSION as u64 {
            let aside = dir.join(format!("{name}.schema{old_schema}.json"));
            std::fs::rename(&path, &aside).expect("preserve old-schema trace");
            eprintln!(
                "[trace {name}: previous dump used schema {old_schema} (current {}); kept as {}]",
                kcore_gpusim::TRACE_SCHEMA_VERSION,
                aside.display()
            );
        } else {
            eprintln!("[trace {name}: overwriting previous dump]");
        }
    }
    std::fs::write(&path, trace.to_json()).expect("write trace");
    eprintln!("[saved {}]", path.display());
}

/// Writes a [`Timeline`](kcore_gpusim::Timeline) as Chrome trace-event JSON
/// into `results/traces/<name>.perfetto.json` (open in <https://ui.perfetto.dev>).
pub fn save_timeline(name: &str, timeline: &kcore_gpusim::Timeline) {
    let dir = results_dir().join("traces");
    std::fs::create_dir_all(&dir).expect("create traces dir");
    let path = dir.join(format!("{name}.perfetto.json"));
    std::fs::write(&path, timeline.to_chrome_json()).expect("write timeline");
    eprintln!("[saved {}]", path.display());
}

/// Writes a [`HostProfile`](kcore_gpusim::HostProfile) as pretty-printed
/// JSON into `results/traces/<name>.hostprof.json`. Host profiles live in
/// their own schema-versioned files beside the trace — they are wall-clock
/// observations, never part of a golden trace or fingerprint.
pub fn save_hostprof(name: &str, profile: &kcore_gpusim::HostProfile) {
    let dir = results_dir().join("traces");
    std::fs::create_dir_all(&dir).expect("create traces dir");
    let path = dir.join(format!("{name}.hostprof.json"));
    std::fs::write(&path, profile.to_json()).expect("write host profile");
    eprintln!("[saved {}]", path.display());
}

/// Env knob: set `KCORE_FLEET_TIMELINE=1` to make `inspect` and
/// `table_scale` export fleet observability artifacts (the fleet trace plus
/// the merged multi-device Perfetto document) beside their normal output.
pub const FLEET_TIMELINE_ENV: &str = "KCORE_FLEET_TIMELINE";

/// Whether [`FLEET_TIMELINE_ENV`] is set.
pub fn fleet_timeline_enabled() -> bool {
    std::env::var_os(FLEET_TIMELINE_ENV).is_some()
}

/// Writes a [`FleetRun`](kcore_gpu::FleetRun)'s observability artifacts:
/// the fleet trace as `results/traces/<name>.fleet.json` and the merged
/// multi-device Perfetto document as
/// `results/traces/<name>.fleet.perfetto.json` (open in
/// <https://ui.perfetto.dev> — one process per device plus the link
/// process with worker→master→owner flow events).
pub fn save_fleet(name: &str, fr: &kcore_gpu::FleetRun) {
    let dir = results_dir().join("traces");
    std::fs::create_dir_all(&dir).expect("create traces dir");
    let path = dir.join(format!("{name}.fleet.json"));
    std::fs::write(&path, fr.fleet.to_json()).expect("write fleet trace");
    eprintln!("[saved {}]", path.display());
    let path = dir.join(format!("{name}.fleet.perfetto.json"));
    std::fs::write(&path, fr.fleet.merged_chrome_json(&fr.timelines))
        .expect("write fleet timeline");
    eprintln!("[saved {}]", path.display());
}

/// Serializes rows as JSON into `results/<name>.json`.
pub fn save_json<T: Serialize>(name: &str, value: &T) {
    let path = results_dir().join(format!("{name}.json"));
    let mut f = std::fs::File::create(&path).expect("create results file");
    let s = serde_json::to_string_pretty(value).expect("serialize results");
    f.write_all(s.as_bytes()).expect("write results");
    eprintln!("[saved {}]", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_stats() {
        let c = Cell::from_times(&[10.0, 14.0]);
        match c {
            Cell::Time { avg_ms, std_ms } => {
                assert!((avg_ms - 12.0).abs() < 1e-9);
                assert!((std_ms - 2.0).abs() < 1e-9);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn cell_render() {
        assert_eq!(Cell::OverHour.render(false), "> 1hr");
        assert_eq!(Cell::Oom.render(false), "OOM");
        assert_eq!(Cell::LoadOverHour.render(false), "LD > 1hr");
        assert_eq!(
            Cell::Time {
                avg_ms: 123.4,
                std_ms: 0.0
            }
            .render(false),
            "123"
        );
        assert_eq!(
            Cell::Time {
                avg_ms: 1.25,
                std_ms: 0.5
            }
            .render(true),
            "1.25±0.50"
        );
    }

    #[test]
    fn cell_from_result_checks_correctness() {
        let truth = vec![1, 2];
        let ok = Cell::from_result(Ok((vec![1, 2], 5.0)), &truth);
        assert!(matches!(ok, Cell::Time { .. }));
        let wrong = Cell::from_result(Ok((vec![1, 1], 5.0)), &truth);
        assert!(matches!(wrong, Cell::Wrong));
    }

    #[test]
    fn mark_best_appends_asterisk() {
        let mut cells = vec!["5.0".to_string(), "3.0".to_string()];
        mark_best(&mut cells, &[Some(5.0), Some(3.0)]);
        assert_eq!(cells[1], "3.0*");
        assert_eq!(cells[0], "5.0");
    }

    #[test]
    fn smoke_env_prepares() {
        std::env::set_var("KCORE_SMOKE", "1");
        std::env::set_var("KCORE_DATASETS", "amazon0601");
        let envs = prepare_all();
        std::env::remove_var("KCORE_SMOKE");
        std::env::remove_var("KCORE_DATASETS");
        assert_eq!(envs.len(), 1);
        let e = &envs[0];
        assert!(e.scale > 1.0);
        assert!(e.sim.time_limit_ms.unwrap() < PAPER_HOUR_MS);
        assert_eq!(e.truth.len() as u32, e.graph.num_vertices());
    }
}
