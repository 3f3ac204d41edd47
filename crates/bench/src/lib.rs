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
//!   (fast CI runs);
//! * `KCORE_BLESS` — set to make [`assert_golden`] rewrite the golden files
//!   of the tests instead of comparing against them.
//!
//! Every GPU engine runs through one cell runner, [`capture`] (the
//! sharded engine through [`capture_sharded`]); the [`Sweep`] runs each cell of Tables II, III and V and the capacity report
//! once and renders the four tables from those captures, and the
//! [`ShardReport`] does the same for the sharded engine's scaling curve,
//! fleet table and fit forecast. [`table1`], [`table4`], [`table_dynamic`],
//! [`fig10_case_study`] and [`extensions`] render the other results. Each
//! report returns its results files as `(name, contents)`, text and JSON
//! from one set of row values, and every table binary writes them through
//! [`write_files`].

mod capture;
mod dynamic;
mod scale;
mod sweep;
mod tables;

pub use capture::{capture, capture_in, capture_sharded, Outcome, RunCapture};
pub use dynamic::table_dynamic;
pub use scale::{fleet_table, scaling_curve, ShardCell, ShardReport};
pub use sweep::{DatasetSweep, Sweep};
pub use tables::{extensions, fig10_case_study, table1, table4};

use kcore_cpu::CoreAlgorithm;
use kcore_gpu::PeelConfig;
use kcore_gpusim::{SimOptions, P100_DEVICE_BYTES};
use kcore_graph::datasets::{self, Dataset};
use kcore_graph::{Csr, EdgeUpdate, GraphStats};
use kcore_systems::{EngineOptions, FrameworkCosts};
use serde::Serialize;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};

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
    /// What every engine runs with: the scaled peel geometry, the scaled
    /// framework costs, and the stand-in's `k_max`.
    pub opts: EngineOptions,
    /// Ground-truth core numbers (BZ).
    pub truth: Vec<u32>,
}

/// The paper's 1-hour budget, ms.
pub const PAPER_HOUR_MS: f64 = 3_600_000.0;

/// Prepares one dataset environment. The stand-in graph comes from the
/// `KCORE_CACHE_DIR` binary cache when enabled (identical bytes either
/// way), so a suite of table binaries generates each dataset only once.
pub fn prepare(dataset: Dataset) -> Env {
    let graph = dataset.generate_cached();
    let stats = GraphStats::compute(&graph);
    let scale = (dataset.paper.num_edges as f64 / stats.num_edges.max(1) as f64).max(1.0);
    let mut sim = SimOptions {
        device_capacity_bytes: (P100_DEVICE_BYTES as f64 / scale) as u64,
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
    let peel = PeelConfig {
        launch: kcore_gpusim::LaunchConfig {
            blocks: 108,
            threads_per_block: dim,
        },
        buf_capacity: ((1_000_000.0 / scale) as usize).max(4_096),
        shared_buf_capacity: ((10_000.0 / scale) as usize).max(64),
        ..PeelConfig::default()
    };
    let truth = kcore_cpu::bz::Bz.run(&graph);
    let opts = EngineOptions {
        peel,
        // the frameworks' fixed-time constants scale like the launch and
        // PCIe overheads above
        costs: FrameworkCosts::default().scaled(scale),
        k_max: kcore_cpu::k_max(&truth),
    };
    Env {
        dataset,
        graph,
        stats,
        scale,
        sim,
        opts,
        truth,
    }
}

/// Prepares all selected datasets (honoring `KCORE_SMOKE` / `KCORE_DATASETS`);
/// panics if `KCORE_DATASETS` names a dataset outside the selectable set.
pub fn prepare_all() -> Vec<Env> {
    selected().into_iter().map(prepare).collect()
}

/// The datasets [`prepare_all`] prepares.
pub(crate) fn selected() -> Vec<Dataset> {
    let base = if std::env::var_os("KCORE_SMOKE").is_some() {
        datasets::smoke_subset()
    } else {
        datasets::registry()
    };
    let filter = std::env::var("KCORE_DATASETS").ok();
    select(base, filter.as_deref()).unwrap_or_else(|err| panic!("{err}"))
}

/// The datasets of `base` that a comma-separated, case-insensitive
/// `KCORE_DATASETS` filter names, in `base`'s order (all of `base` without a
/// filter). A name that matches nothing is an error naming it and the
/// datasets that can be selected.
pub(crate) fn select(base: Vec<Dataset>, filter: Option<&str>) -> Result<Vec<Dataset>, String> {
    let Some(filter) = filter else {
        return Ok(base);
    };
    let names: Vec<&str> = filter.split(',').map(str::trim).collect();
    let named = |d: &Dataset, x: &str| d.name.eq_ignore_ascii_case(x);
    let unmatched: Vec<&&str> = names
        .iter()
        .filter(|x| !base.iter().any(|d| named(d, x)))
        .collect();
    if !unmatched.is_empty() {
        let known: Vec<&str> = base.iter().map(|d| d.name).collect();
        let known = known.join(", ");
        return Err(format!(
            "KCORE_DATASETS names no dataset {unmatched:?}; choose from {known}"
        ));
    }
    Ok(base
        .into_iter()
        .filter(|d| names.iter().any(|x| named(d, x)))
        .collect())
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
    /// so the harness surfaces rather than hides a correctness regression,
    /// and `sweep --check` fails on it).
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

/// An aligned text table: the header line, a rule, one line per row. The
/// first column is left-aligned, the others right-aligned.
pub(crate) fn render_table(headers: &[String], rows: &[Vec<String>]) -> String {
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
        s.push('\n');
        s
    };
    let mut out = line(headers);
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&line(row));
    }
    out
}

/// A table's text as its binary prints it: a blank line, the title, a
/// blank line, the table.
pub(crate) fn titled(title: &str, headers: &[String], rows: &[Vec<String>]) -> String {
    format!("\n{title}\n\n{}", render_table(headers, rows))
}

pub(crate) fn to_json<T: Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).expect("serialize results")
}

/// A table's two results files from its `(text, json)`: `<name>.txt` and
/// `<name>.json`.
pub(crate) fn table_files(name: &str, (text, json): (String, String)) -> Vec<(String, String)> {
    vec![
        (format!("{name}.txt"), text),
        (format!("{name}.json"), json),
    ]
}

/// Publishes a report's results files: prints each `.txt` file to stdout
/// and writes every file into the results directory (`KCORE_RESULTS_DIR`,
/// or else `results/` at the workspace root).
pub fn write_files(files: &[(String, String)]) {
    for (name, contents) in files {
        if name.ends_with(".txt") {
            print!("{contents}");
        }
        save(name, contents);
    }
}

/// Marks the minimum time cell of a row with the paper's asterisk.
pub(crate) fn mark_best(cells: &mut [String], times: &[Option<f64>]) {
    if let Some((best, _)) = times
        .iter()
        .enumerate()
        .filter_map(|(i, t)| t.map(|t| (i, t)))
        .min_by(|a, b| a.1.total_cmp(&b.1))
    {
        cells[best] = format!("{}*", cells[best]);
    }
}

/// Writes a captured kernel [`Trace`](kcore_gpusim::Trace) as a JSON
/// document into `results/traces/<name>.json`.
pub fn save_trace(name: &str, trace: &kcore_gpusim::Trace) {
    save(&format!("traces/{name}.json"), &trace.to_json());
}

/// Writes a [`Timeline`](kcore_gpusim::Timeline) as Chrome trace-event JSON
/// into `results/traces/<name>.perfetto.json` (open in <https://ui.perfetto.dev>).
pub fn save_timeline(name: &str, timeline: &kcore_gpusim::Timeline) {
    save(
        &format!("traces/{name}.perfetto.json"),
        &timeline.to_chrome_json(),
    );
}

/// Env knob: set `KCORE_FLEET_TIMELINE=1` to make `inspect` and
/// `table_scale` export fleet observability artifacts (the fleet trace plus
/// the merged multi-device Perfetto document) beside their normal output.
pub const FLEET_TIMELINE_ENV: &str = "KCORE_FLEET_TIMELINE";

/// Whether [`FLEET_TIMELINE_ENV`] is set.
pub fn fleet_timeline_enabled() -> bool {
    std::env::var_os(FLEET_TIMELINE_ENV).is_some()
}

/// Writes the observability artifacts of `dataset`'s sharded run on `p`
/// devices, named `<dataset>_fleet_p<p>` with `-` and `.` turned into `_`:
/// the fleet ledger with its worker traces as
/// `results/traces/<name>.fleet.json` and the merged multi-device Perfetto
/// document as
/// `results/traces/<name>.fleet.perfetto.json` (open in
/// <https://ui.perfetto.dev> — one process per device plus the link
/// process with worker→master→owner flow events).
pub fn save_fleet(dataset: &str, p: usize, fr: &kcore_gpu::FleetRun) {
    let name = format!("{}_fleet_p{p}", dataset.replace(['-', '.'], "_"));
    save(
        &format!("traces/{name}.fleet.json"),
        &fr.fleet.to_json(&fr.traces),
    );
    let merged = fr.fleet.merged_chrome_json(&fr.traces, &fr.timelines);
    let merged = merged.expect("a fleet run's own traces merge with its ledger");
    save(&format!("traces/{name}.fleet.perfetto.json"), &merged);
}

/// Parses a written schema document back through the workspace's JSON
/// reader (`serde_json::from_str`) and panics unless it prints back to the
/// same bytes and states `"schema_version":`
/// [`SCHEMA_VERSION`](kcore_gpusim::SCHEMA_VERSION) exactly once, as the
/// first key of its top level — the `--check` of `sweep` (on a trace) and
/// of `table_scale` (on each fleet-table run's `.fleet.json` document).
pub(crate) fn check_round_trip(doc: &str) {
    let v = serde_json::from_str(doc).expect("a written document must parse");
    let back = serde_json::to_string_pretty(&v).expect("a parsed document prints");
    assert!(
        back == doc,
        "a document must survive the round trip byte for byte"
    );
    let version = kcore_gpusim::SCHEMA_VERSION;
    let head = format!("{{\n  \"schema_version\": {version},\n");
    assert!(
        doc.starts_with(&head),
        "a document must open with schema_version {version}"
    );
    assert_eq!(
        doc.matches("\"schema_version\"").count(),
        1,
        "a document states its schema version once"
    );
}

/// Checks `got` against the checked-in golden file at `path`, or writes it
/// there when `KCORE_BLESS` is set. The compare is exact text: a
/// missing file, or any differing byte, panics with the file, the first
/// differing line and the command that re-blesses it.
pub fn assert_golden(path: &Path, got: &str) {
    // A test binary is `target/<profile>/deps/<test name>-<hash>`.
    let exe = std::env::current_exe().unwrap_or_default();
    let stem = exe.file_stem().and_then(|s| s.to_str()).unwrap_or("");
    let test = stem.rsplit_once('-').map_or(stem, |(name, _)| name);
    let bless = format!("KCORE_BLESS=1 cargo test --test {test}");
    if std::env::var_os("KCORE_BLESS").is_some() {
        std::fs::write(path, got).expect("write golden file");
        eprintln!("blessed {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden file {} ({e}); create it with `{bless}`",
            path.display()
        )
    });
    if want == got {
        return;
    }
    let (mut want_lines, mut got_lines) = (want.split('\n'), got.split('\n'));
    for line in 1.. {
        let (w, g) = (want_lines.next(), got_lines.next());
        if w != g {
            let end = "<end of file>";
            panic!(
                "{} differs at line {line}:\n  golden: {}\n  got:    {}\n\
                 if the change is intentional, re-bless with `{bless}`",
                path.display(),
                w.unwrap_or(end),
                g.unwrap_or(end)
            );
        }
    }
}

/// A seeded stream of valid edge updates against an evolving graph, with
/// the rule of kbench's `dyn-churn` stream: each update is equally likely a
/// delete of a present edge or an insert of an absent non-loop pair, and no
/// edge appears twice in one batch, so an engine must accept every update.
pub struct ValidChurn {
    n: u32,
    state: u64,
    edges: Vec<(u32, u32)>,
    slot: HashMap<(u32, u32), usize>,
}

impl ValidChurn {
    /// A stream over `g`'s vertices that starts from `g`'s edges.
    pub fn new(g: &Csr, seed: u64) -> ValidChurn {
        let edges: Vec<(u32, u32)> = g.edges().collect();
        let slot = edges.iter().enumerate().map(|(i, &e)| (e, i)).collect();
        ValidChurn {
            n: g.num_vertices(),
            state: seed,
            edges,
            slot,
        }
    }

    /// The next `size` updates, valid against the graph that every earlier
    /// batch leaves behind. Any split of the batch into consecutive chunks
    /// is valid too.
    ///
    /// # Panics
    ///
    /// If `size` exceeds the number of vertex pairs, which would leave no
    /// batch without a repeated edge.
    pub fn next_batch(&mut self, size: usize) -> Vec<EdgeUpdate> {
        let n = u64::from(self.n);
        assert!(
            size as u64 <= n * n.saturating_sub(1) / 2,
            "a batch of {size} distinct edges needs more than {n} vertices"
        );
        let mut touched: HashSet<(u32, u32)> = HashSet::with_capacity(size);
        let mut out = Vec::with_capacity(size);
        while out.len() < size {
            if self.next() & 1 == 0 && !self.edges.is_empty() {
                let i = self.below(self.edges.len() as u64) as usize;
                let e = self.edges[i];
                if !touched.insert(e) {
                    continue;
                }
                self.slot.remove(&e);
                self.edges.swap_remove(i);
                if let Some(&moved) = self.edges.get(i) {
                    self.slot.insert(moved, i);
                }
                out.push(EdgeUpdate::Delete(e.1, e.0));
            } else {
                let u = self.below(n) as u32;
                let v = self.below(n) as u32;
                let e = (u.min(v), u.max(v));
                if u == v || self.slot.contains_key(&e) || !touched.insert(e) {
                    continue;
                }
                self.slot.insert(e, self.edges.len());
                self.edges.push(e);
                out.push(EdgeUpdate::Insert(u, v));
            }
        }
        out
    }

    /// splitmix64.
    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Writes `contents` to `<results dir>/<path>`, creating its directory,
/// and announces the file on stderr. The results directory is
/// `KCORE_RESULTS_DIR`, or else `results/` at the workspace root.
pub(crate) fn save(path: &str, contents: &str) {
    let dir = std::env::var("KCORE_RESULTS_DIR")
        .unwrap_or_else(|_| format!("{}/../../results", env!("CARGO_MANIFEST_DIR")));
    let path = PathBuf::from(dir).join(path);
    let dir = path.parent().expect("a file under the results dir");
    std::fs::create_dir_all(dir).expect("create results dir");
    std::fs::write(&path, contents).expect("write results file");
    eprintln!("[saved {}]", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_churn_is_valid_balanced_and_seeded() {
        let g = kcore_graph::gen::rmat(8, 1_500, kcore_graph::gen::RmatParams::graph500(), 3);
        let mut graph = kcore_graph::EdgeSet::from_csr(&g);
        let mut a = ValidChurn::new(&g, 11);
        let mut b = ValidChurn::new(&g, 11);
        let (mut ins, mut del) = (0, 0);
        for _ in 0..40 {
            let batch = a.next_batch(64);
            assert_eq!(batch, b.next_batch(64), "same seed, same stream");
            let keys: HashSet<(u32, u32)> = batch.iter().map(|u| u.key()).collect();
            assert_eq!(keys.len(), batch.len(), "an edge appears twice in a batch");
            ins += batch.iter().filter(|u| u.is_insert()).count();
            del += batch.iter().filter(|u| !u.is_insert()).count();
            let net = graph.classify(&batch);
            assert_eq!(net.rejected, 0);
            graph.apply(&net);
        }
        let total = (ins + del) as f64;
        assert!(
            (ins as f64 / total - 0.5).abs() < 0.1,
            "{ins} inserts, {del} deletes"
        );
    }

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
    fn mark_best_appends_asterisk() {
        let mut cells = vec!["5.0".to_string(), "3.0".to_string()];
        mark_best(&mut cells, &[Some(5.0), Some(3.0)]);
        assert_eq!(cells[1], "3.0*");
        assert_eq!(cells[0], "5.0");
    }

    /// A golden file holding `text` in a fresh temp directory.
    fn temp_golden(name: &str, text: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("kcore_golden_{}_{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        path
    }

    fn panic_message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
        let err = std::panic::catch_unwind(f).expect_err("the check passed");
        match err.downcast::<String>() {
            Ok(msg) => *msg,
            Err(err) => err.downcast_ref::<&str>().unwrap().to_string(),
        }
    }

    #[test]
    fn assert_golden_accepts_identical_text() {
        let path = temp_golden("same.json", "{\n  \"a\": 1\n}");
        assert_golden(&path, "{\n  \"a\": 1\n}");
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn assert_golden_on_a_missing_file_names_the_bless_command() {
        let path = std::env::temp_dir().join("kcore_golden_absent/none.json");
        let msg = panic_message(|| assert_golden(&path, "{}"));
        assert!(msg.contains("cannot read golden file"), "{msg}");
        assert!(
            msg.contains("KCORE_BLESS=1 cargo test --test kcore_bench"),
            "{msg}"
        );
    }

    /// A one-byte change fails on its line, naming the file; a schema bump
    /// is such a change, on the `schema_version` line.
    #[test]
    fn assert_golden_names_the_file_and_first_differing_line() {
        let want = "{\n  \"schema_version\": 3,\n  \"sim_ms\": 0.5\n}";
        let path = temp_golden("one_byte.json", want);
        for (got, line, golden_line, got_line) in [
            (
                want.replace('3', "4"),
                2,
                "  \"schema_version\": 3,",
                "  \"schema_version\": 4,",
            ),
            (
                want.replace('5', "6"),
                3,
                "  \"sim_ms\": 0.5",
                "  \"sim_ms\": 0.6",
            ),
            // a trailing newline differs past the last line
            (format!("{want}\n"), 5, "<end of file>", ""),
        ] {
            let msg = panic_message(|| assert_golden(&path, &got));
            let head = format!(
                "{} differs at line {line}:\n  golden: {golden_line}\n  got:    {got_line}\n",
                path.display()
            );
            assert!(msg.starts_with(&head), "{msg}");
            assert!(msg.contains("KCORE_BLESS=1"), "{msg}");
        }
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn round_trip_check_wants_one_current_version_on_top() {
        let mut ctx = kcore_gpusim::SimOptions::default().context();
        ctx.htod("x", &[1, 2, 3]).unwrap();
        let doc = ctx.trace("probe").to_json();
        check_round_trip(&doc);
        let nested = doc.replacen(
            "\"label\": \"probe\"",
            "\"label\": {\n    \"schema_version\": 5\n  }",
            1,
        );
        let old = doc.replacen("\"schema_version\": 5", "\"schema_version\": 4", 1);
        let compact = serde_json::to_string(&serde_json::from_str(&doc).unwrap()).unwrap();
        for (bad, why) in [
            (nested, "states its schema version once"),
            (old, "open with schema_version 5"),
            (compact, "byte for byte"),
        ] {
            let msg = panic_message(|| check_round_trip(&bad));
            assert!(msg.contains(why), "{msg}");
        }
    }

    #[test]
    fn smoke_env_prepares() {
        let d = select(datasets::smoke_subset(), Some("amazon0601")).unwrap();
        let envs: Vec<Env> = d.into_iter().map(prepare).collect();
        assert_eq!(envs.len(), 1);
        let e = &envs[0];
        assert!(e.scale > 1.0);
        assert!(e.sim.time_limit_ms.unwrap() < PAPER_HOUR_MS);
        assert_eq!(e.truth.len() as u32, e.graph.num_vertices());
    }

    fn selected(base: Vec<Dataset>, filter: Option<&str>) -> Result<Vec<&'static str>, String> {
        select(base, filter).map(|ds| ds.iter().map(|d| d.name).collect())
    }

    #[test]
    fn select_matches_names_case_insensitively_in_registry_order() {
        let all = datasets::registry().len();
        assert_eq!(selected(datasets::registry(), None).unwrap().len(), all);
        assert_eq!(
            selected(datasets::registry(), Some(" WIKI-talk ,Amazon0601")),
            Ok(vec!["amazon0601", "wiki-Talk"])
        );
    }

    #[test]
    fn select_rejects_a_typo_naming_it_and_the_choices() {
        let err = selected(datasets::registry(), Some("amazon0601,amazon0602")).unwrap_err();
        assert!(err.contains("[\"amazon0602\"]"), "{err}");
        assert!(!err.contains("[\"amazon0601"), "{err}");
        assert!(err.contains("choose from amazon0601, "), "{err}");
        assert!(err.contains("com-Orkut"), "{err}");
    }

    #[test]
    fn select_rejects_a_dataset_outside_the_smoke_subset() {
        assert!(datasets::by_name("com-Orkut").is_some());
        let err = selected(datasets::smoke_subset(), Some("com-Orkut")).unwrap_err();
        assert!(err.contains("[\"com-Orkut\"]"), "{err}");
        assert!(
            !err.contains("choose from amazon0601, wiki-Talk, web-Google, "),
            "{err}"
        );
        assert!(
            err.ends_with("choose from amazon0601, wiki-Talk, web-Google"),
            "{err}"
        );
    }
}
