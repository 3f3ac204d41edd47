//! Golden tests for the simulated benchmark cells and the smoke tables.
//!
//! Each cell is one (dataset, implementation) run in the scaled environment
//! the table sweep uses (`kcore_bench::prepare`), read through the sweep's
//! cell runner (`kcore_bench::capture`). `bench_smoke.json` stores each
//! GPU implementation's status, simulated milliseconds, launch count and
//! counters fingerprint. `serde_json` prints an f64 in its shortest
//! round-trip form, so a move of one ulp in `sim_ms`, either way, changes
//! the text. `tables_smoke/` holds the eight files `sweep` writes (Tables
//! II, III and V and `table_mem`, text and JSON) at the default three
//! seeded runs. Every cell is deterministic and independent of the rayon
//! width, so the exact compare cannot flake. The dataset list is
//! `datasets::smoke_subset()` itself: no environment variable narrows it.
//! Both tests read one smoke sweep, so each cell runs once per test binary.
//!
//! After an *intentional* change to what the simulator charges, regenerate
//! the golden files and record the reason in CHANGES.md:
//!
//! ```bash
//! KCORE_BLESS=1 cargo test --test golden_bench
//! ```

use kcore_bench::{assert_golden, capture, prepare, Env, Outcome, Program, RunCapture, Sweep};
use kcore_graph::datasets;
use serde::Serialize;
use std::path::PathBuf;
use std::sync::OnceLock;

#[derive(Serialize)]
struct BenchCell {
    dataset: &'static str,
    impl_name: &'static str,
    /// `"ok"`, `"wrong"`, `"timeout"`, `"oom"` or `"load_timeout"`.
    status: &'static str,
    sim_ms: f64,
    launches: u64,
    counters_fingerprint: u64,
}

impl BenchCell {
    fn new(dataset: &'static str, cap: &RunCapture) -> BenchCell {
        let cell = BenchCell {
            dataset,
            impl_name: cap.program.name(),
            status: match cap.outcome {
                Outcome::Ok => "ok",
                Outcome::WrongCores => "wrong",
                Outcome::TimeLimit => "timeout",
                Outcome::Oom => "oom",
            },
            sim_ms: cap.sim_ms,
            launches: cap.launches,
            counters_fingerprint: cap.fingerprint,
        };
        if !cap.load_over_hour {
            return cell;
        }
        // past the (scaled) hour VETGA's load alone fails, and the paper
        // reports "LD > 1hr" with nothing to time
        BenchCell {
            status: "load_timeout",
            sim_ms: 0.0,
            launches: 0,
            counters_fingerprint: 0,
            ..cell
        }
    }
}

/// The smoke environments and their sweep at three seeded runs.
fn smoke() -> &'static (Vec<Env>, Sweep) {
    static SMOKE: OnceLock<(Vec<Env>, Sweep)> = OnceLock::new();
    SMOKE.get_or_init(|| {
        let envs: Vec<Env> = datasets::smoke_subset().into_iter().map(prepare).collect();
        let sweep = Sweep::run(&envs, 3);
        (envs, sweep)
    })
}

fn golden_text(cells: &[BenchCell]) -> String {
    serde_json::to_string_pretty(cells).unwrap()
}

/// Table III's programs from the sweep's seed-0 runs, then the sharded
/// engine on four devices.
#[test]
fn smoke_cells_match_checked_in_golden() {
    let (envs, sweep) = smoke();
    let mut cells = Vec::new();
    for (e, d) in envs.iter().zip(&sweep.datasets) {
        let sharded = capture(e, Program::ShardedP4, 0, false);
        cells.extend(
            d.seed0
                .iter()
                .chain([&sharded])
                .map(|c| BenchCell::new(e.dataset.name, c)),
        );
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/bench_smoke.json");
    assert_golden(&path, &golden_text(&cells));
}

/// The eight files `KCORE_SMOKE=1 sweep` writes, and its `--check`.
#[test]
fn smoke_tables_match_checked_in_golden() {
    let (_, sweep) = smoke();
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/tables_smoke");
    for (name, text) in sweep.files() {
        assert_golden(&dir.join(name), &text);
    }
    sweep.check();
}

#[test]
fn a_one_ulp_move_in_sim_ms_changes_the_golden_text() {
    let cell = |sim_ms: f64| BenchCell {
        dataset: "amazon0601",
        impl_name: "Ours",
        status: "ok",
        sim_ms,
        launches: 34,
        counters_fingerprint: 2_105_491_459_483_439_001,
    };
    for ms in [0.136584244359182, 100.0] {
        let text = golden_text(&[cell(ms)]);
        for moved in [ms.next_up(), ms.next_down()] {
            let moved_text = golden_text(&[cell(moved)]);
            assert_ne!(moved_text, text, "{ms:?} -> {moved:?}");
            // the text holds the exact bits
            let back = serde_json::from_str(&moved_text).unwrap();
            let back = back.as_array().unwrap()[0]
                .get("sim_ms")
                .and_then(serde_json::Value::as_f64);
            assert_eq!(back.map(f64::to_bits), Some(moved.to_bits()));
        }
    }
}
