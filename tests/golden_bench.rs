//! Golden tests for the simulated benchmark cells and the smoke tables.
//!
//! Each cell is one (dataset, implementation) run in the scaled environment
//! the table sweep uses (`kcore_bench::prepare`), read through the sweep's
//! cell runners (`kcore_bench::capture` and `capture_sharded`). `bench_smoke.json` stores each
//! GPU implementation's status, simulated milliseconds, launch count and
//! counters fingerprint. `serde_json` prints an f64 in its shortest
//! round-trip form, so a move of one ulp in `sim_ms`, either way, changes
//! the text. `tables_smoke/` holds the eight files `sweep` writes (Tables
//! II, III and V and `table_mem`, text and JSON) at the default three
//! seeded runs, the scaling curve and the fleet table `table_scale` writes,
//! and the files of `table1`, `table_dynamic` and `fig10_case_study` (text
//! and JSON each).
//! Every cell is deterministic and independent of the rayon width, so the
//! exact compare cannot flake. The dataset list is
//! `datasets::smoke_subset()` itself: no environment variable narrows it.
//! The tests read one smoke capture set, so each cell runs once per test
//! binary.
//!
//! After an *intentional* change to what the simulator charges, regenerate
//! the golden files and record the reason in CHANGES.md:
//!
//! ```bash
//! KCORE_BLESS=1 cargo test --test golden_bench
//! ```

use kcore_bench::{
    assert_golden, capture_sharded, fig10_case_study, fleet_table, prepare, scaling_curve, table1,
    table_dynamic, Env, Outcome, RunCapture, ShardCell, Sweep,
};
use kcore_graph::datasets;
use serde::Serialize;
use std::path::PathBuf;
use std::sync::OnceLock;

#[derive(Serialize)]
struct BenchCell {
    dataset: &'static str,
    impl_name: String,
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
            impl_name: cap.name.clone(),
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

/// The device counts of the sharded smoke runs: `table_scale`'s curve.
const SHARDED_DEVICES: [usize; 4] = [1, 2, 4, 8];

/// The smoke environments, their sweep at three seeded runs, and per
/// dataset the sharded engine's kept runs at each of [`SHARDED_DEVICES`].
struct Smoke {
    envs: Vec<Env>,
    sweep: Sweep,
    sharded: Vec<[RunCapture; 4]>,
}

fn smoke() -> &'static Smoke {
    static SMOKE: OnceLock<Smoke> = OnceLock::new();
    SMOKE.get_or_init(|| {
        let envs: Vec<Env> = datasets::smoke_subset().into_iter().map(prepare).collect();
        let sweep = Sweep::run(&envs, 3);
        let sharded = envs
            .iter()
            .map(|e| SHARDED_DEVICES.map(|p| capture_sharded(e, p, true)))
            .collect();
        Smoke {
            envs,
            sweep,
            sharded,
        }
    })
}

fn golden_text(cells: &[BenchCell]) -> String {
    serde_json::to_string_pretty(cells).unwrap()
}

fn tables_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/tables_smoke")
}

/// Table III's programs from the sweep's seed-0 runs, then the sharded
/// engine on four devices.
#[test]
fn smoke_cells_match_checked_in_golden() {
    let smoke = smoke();
    let mut cells = Vec::new();
    for ((e, d), [_, _, p4, _]) in smoke
        .envs
        .iter()
        .zip(&smoke.sweep.datasets)
        .zip(&smoke.sharded)
    {
        cells.extend(
            d.seed0
                .iter()
                .chain([p4])
                .map(|c| BenchCell::new(e.dataset.name, c)),
        );
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/bench_smoke.json");
    assert_golden(&path, &golden_text(&cells));
}

/// The eight files `KCORE_SMOKE=1 sweep` writes, and its `--check`.
#[test]
fn smoke_tables_match_checked_in_golden() {
    let sweep = &smoke().sweep;
    for (name, text) in sweep.files() {
        assert_golden(&tables_dir().join(name), &text);
    }
    sweep.check();
}

/// The sharded smoke runs on `devices`, as `table_scale`'s cells, dataset
/// by dataset in ascending device count.
fn shard_cells(devices: &[usize]) -> Vec<ShardCell> {
    let smoke = smoke();
    let mut cells = Vec::new();
    for (e, caps) in smoke.envs.iter().zip(&smoke.sharded) {
        for (p, cap) in SHARDED_DEVICES.iter().zip(caps) {
            if devices.contains(p) {
                cells.push(ShardCell::new(e, cap));
            }
        }
    }
    cells
}

/// The scaling curve `KCORE_SMOKE=1 table_scale --check` writes as the
/// first section of its `table_scale` files: the smoke datasets on 1, 2, 4
/// and 8 devices.
#[test]
fn smoke_scaling_curve_matches_checked_in_golden() {
    let (text, json) = scaling_curve(&shard_cells(&SHARDED_DEVICES));
    assert_golden(&tables_dir().join("table_scale_curve.txt"), &text);
    assert_golden(&tables_dir().join("table_scale_curve.json"), &json);
}

/// The fleet table `KCORE_SMOKE=1 table_scale` writes: the smoke datasets
/// on two and four devices.
#[test]
fn smoke_fleet_table_matches_checked_in_golden() {
    let (text, json) = fleet_table(&shard_cells(&[2, 4]));
    assert_golden(&tables_dir().join("table_fleet.txt"), &text);
    assert_golden(&tables_dir().join("table_fleet.json"), &json);
}

/// The files `KCORE_SMOKE=1 table1`, `KCORE_SMOKE=1 table_dynamic` (with
/// its `--check`) and `fig10_case_study` write.
#[test]
fn smoke_reports_match_checked_in_golden() {
    let files = [
        table1(&smoke().envs),
        table_dynamic(true, true),
        fig10_case_study(),
    ];
    for (name, text) in files.concat() {
        assert_golden(&tables_dir().join(name), &text);
    }
}

#[test]
fn a_one_ulp_move_in_sim_ms_changes_the_golden_text() {
    let cell = |sim_ms: f64| BenchCell {
        dataset: "amazon0601",
        impl_name: "Ours".into(),
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
