//! Golden test for the simulated benchmark cells: every GPU implementation
//! on each smoke dataset, pinned exactly.
//!
//! Each cell is one (dataset, implementation) run in the scaled environment
//! the table binaries use (`kcore_bench::prepare`). The golden stores the
//! cell's status, simulated milliseconds, launch count and counters
//! fingerprint. `serde_json` prints an f64 in its shortest round-trip form,
//! so a move of one ulp in `sim_ms`, either way, changes the text. Every
//! cell is deterministic and independent of the rayon width, so the exact
//! compare cannot flake. The dataset list is `datasets::smoke_subset()`
//! itself: no environment variable narrows it.
//!
//! After an *intentional* change to what the simulator charges, regenerate
//! the golden file and record the reason in CHANGES.md:
//!
//! ```bash
//! KCORE_BLESS=1 cargo test --test golden_bench
//! ```

use kcore_bench::{assert_golden, prepare, Env, PAPER_HOUR_MS};
use kcore_gpu::{decompose_multi_fleet, FleetRun, MultiGpuConfig};
use kcore_gpusim::{fnv1a_bytes, GpuContext, SimError};
use kcore_graph::datasets;
use kcore_systems::{gswitch, gunrock, medusa, vetga, FrameworkCosts};
use serde::Serialize;
use std::path::PathBuf;

#[derive(Serialize)]
struct BenchCell {
    dataset: &'static str,
    impl_name: &'static str,
    /// `"ok"`, `"wrong"`, `"timeout"`, `"oom"`, `"error"` or
    /// `"load_timeout"`.
    status: &'static str,
    sim_ms: f64,
    launches: u64,
    counters_fingerprint: u64,
}

fn status(res: Result<&[u32], &SimError>, truth: &[u32]) -> &'static str {
    match res {
        Ok(core) if core == truth => "ok",
        Ok(_) => "wrong",
        Err(SimError::TimeLimit { .. }) => "timeout",
        Err(SimError::Oom(_)) => "oom",
        Err(_) => "error",
    }
}

/// A single-device cell, read from the context's trace after the run.
fn traced(
    e: &Env,
    impl_name: &'static str,
    run: impl FnOnce(&mut GpuContext) -> Result<Vec<u32>, SimError>,
) -> BenchCell {
    let mut ctx = e.sim.context();
    let res = run(&mut ctx);
    let trace = ctx.trace(impl_name);
    BenchCell {
        dataset: e.dataset.name,
        impl_name,
        status: status(res.as_deref(), &e.truth),
        sim_ms: trace.totals.time_ms,
        launches: trace.totals.launches,
        counters_fingerprint: trace.counters_fingerprint(),
    }
}

/// The sharded cell: four devices, the fingerprint digesting the workers'
/// fingerprints in shard order.
fn sharded(e: &Env) -> BenchCell {
    let cfg = MultiGpuConfig {
        num_gpus: 4,
        peel: e.peel_cfg,
        ..MultiGpuConfig::default()
    };
    let (status, sim_ms, launches, counters_fingerprint) =
        match decompose_multi_fleet(&e.graph, &cfg, &e.sim, e.dataset.name) {
            Ok(FleetRun { run, traces, .. }) => {
                let fp_bytes: Vec<u8> = run
                    .worker_fingerprints
                    .iter()
                    .flat_map(|fp| fp.to_le_bytes())
                    .collect();
                (
                    status(Ok(&run.core), &e.truth),
                    run.total_ms,
                    traces.iter().map(|t| t.totals.launches).sum(),
                    fnv1a_bytes(&fp_bytes),
                )
            }
            Err(err) => (status(Err(&err), &e.truth), 0.0, 0, 0),
        };
    BenchCell {
        dataset: e.dataset.name,
        impl_name: "Sharded p=4",
        status,
        sim_ms,
        launches,
        counters_fingerprint,
    }
}

/// Drops an engine's second return value, keeping the core numbers.
fn core<T>(res: Result<(Vec<u32>, T), SimError>) -> Result<Vec<u32>, SimError> {
    res.map(|(core, _)| core)
}

fn cells_of(e: &Env) -> Vec<BenchCell> {
    let costs = FrameworkCosts::default().scaled(e.scale);
    // VETGA loads through a slow edge-list path; past the (scaled) hour the
    // paper reports "LD > 1hr" without running it.
    let vetga_cell = if vetga::load_time_ms(&e.graph, &costs) > PAPER_HOUR_MS / e.scale {
        BenchCell {
            dataset: e.dataset.name,
            impl_name: "VETGA",
            status: "load_timeout",
            sim_ms: 0.0,
            launches: 0,
            counters_fingerprint: 0,
        }
    } else {
        traced(e, "VETGA", |ctx| {
            core(vetga::peel_in(ctx, &e.graph, &costs))
        })
    };
    vec![
        traced(e, "Ours", |ctx| {
            core(kcore_gpu::decompose_in(ctx, &e.graph, &e.peel_cfg))
        }),
        vetga_cell,
        traced(e, "Medusa-MPM", |ctx| {
            core(medusa::mpm_in(ctx, &e.graph, &costs))
        }),
        traced(e, "Medusa-Peel", |ctx| {
            core(medusa::peel_in(ctx, &e.graph, &costs))
        }),
        traced(e, "Gunrock", |ctx| {
            core(gunrock::peel_in(ctx, &e.graph, &costs))
        }),
        traced(e, "GSwitch", |ctx| {
            core(gswitch::peel_in(ctx, &e.graph, e.k_max, &costs))
        }),
        sharded(e),
    ]
}

fn golden_text(cells: &[BenchCell]) -> String {
    serde_json::to_string_pretty(cells).unwrap()
}

#[test]
fn smoke_cells_match_checked_in_golden() {
    let cells: Vec<BenchCell> = datasets::smoke_subset()
        .into_iter()
        .flat_map(|d| cells_of(&prepare(d)))
        .collect();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/bench_smoke.json");
    assert_golden(&path, &golden_text(&cells));
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
