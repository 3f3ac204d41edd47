//! Full-scale P100 capacity report: runs every GPU implementation at the
//! harness's dataset scale, snapshots the allocation ledger via
//! [`GpuContext::memstats`], and extrapolates each footprint to the paper's
//! full dataset dimensions against a 16 GB Tesla P100.
//!
//! The printed verdict per cell is:
//!
//! * `OOM` — the scaled run itself exceeded its (scaled) device capacity, so
//!   the full-scale run certainly does too (the ledger stops at the failed
//!   allocation, making any forecast a lower bound);
//! * `P.P fits` / `P.P OOM!` — the predicted full-scale peak in GB and
//!   whether it fits in 16 GB.
//!
//! Predicted-OOM cells must agree with the `N/A` cells of Tables III/V by
//! construction: a run that OOMs at scale `s` against `16 GB / s` is exactly
//! a run whose full-scale footprint exceeds 16 GB under linear scaling.
//!
//! With `--check` (used by `scripts/ci.sh`), the binary additionally asserts
//! that "Ours" (the paper's peeling kernel) is predicted to fit on every
//! dataset, and that a schema-v3 trace round-trips through
//! `Trace::to_json` → `serde_json::from_str` with its `memstats` block
//! intact.

use kcore_bench::{prepare_all, print_table, save_json};
use kcore_gpusim::{CapacityForecast, GpuContext, SimError, P100_DEVICE_BYTES};
use kcore_systems::{gswitch, gunrock, medusa, vetga, FrameworkCosts};
use serde::Serialize;
use serde_json::Value;

#[derive(Serialize)]
struct CellReport {
    system: String,
    /// The scaled run itself hit OOM (forecast is then a lower bound).
    run_oom: bool,
    /// Peak bytes observed in the scaled run's ledger.
    sim_peak_bytes: u64,
    /// Full-scale prediction (present even for OOM runs, as a lower bound).
    predicted_peak_bytes: u64,
    headroom_bytes: i64,
    /// Final verdict: does the full-scale run fit in 16 GB?
    fits: bool,
}

#[derive(Serialize)]
struct Row {
    dataset: String,
    full_vertices: u64,
    full_arcs: u64,
    device_capacity_bytes: u64,
    cells: Vec<CellReport>,
}

/// Runs one implementation, snapshots its memstats, and extrapolates.
fn report(
    ctx: &mut GpuContext,
    res: Result<(), SimError>,
    system: &str,
    full_vertices: u64,
    full_arcs: u64,
) -> CellReport {
    let run_oom = match res {
        Ok(()) | Err(SimError::TimeLimit { .. }) => false,
        Err(SimError::Oom(_)) => true,
        Err(e) => panic!("unexpected failure: {e}"),
    };
    let stats = ctx.memstats();
    let f: CapacityForecast = stats.extrapolate(full_vertices, full_arcs);
    CellReport {
        system: system.to_string(),
        run_oom,
        sim_peak_bytes: stats.peak_bytes,
        predicted_peak_bytes: f.predicted_peak_bytes,
        headroom_bytes: f.headroom_bytes,
        // A run that OOMed at 16GB/scale capacity exceeds 16 GB at full
        // scale under the same linear scaling; otherwise trust the replayed
        // forecast.
        fits: !run_oom && f.fits,
    }
}

fn render(c: &CellReport) -> String {
    if c.run_oom {
        return "OOM".into();
    }
    let gb = c.predicted_peak_bytes as f64 / (1024.0 * 1024.0 * 1024.0);
    format!("{:.1} {}", gb, if c.fits { "fits" } else { "OOM!" })
}

/// `--check`: a v3 trace must survive `to_json` → `serde_json::from_str`
/// with schema_version 3 and a memstats block.
fn check_v3_round_trip() {
    let mut ctx = kcore_gpusim::SimOptions::default().context();
    ctx.htod("probe", &[1u32, 2, 3]).unwrap();
    let json = ctx.trace("memreport v3 round-trip probe").to_json();
    let v = serde_json::from_str(&json).expect("v3 trace must parse");
    let schema = v.get("schema_version").and_then(Value::as_u64);
    assert_eq!(schema, Some(3), "trace schema_version must be 3");
    let mem = v.get("memstats").expect("trace must embed memstats");
    let peak = mem.get("peak_bytes").and_then(Value::as_u64);
    assert_eq!(
        peak,
        Some(12),
        "memstats peak must round-trip (3 u32 words)"
    );
    eprintln!("[memreport] schema-v3 round-trip OK");
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let envs = prepare_all();
    let columns = [
        "Ours",
        "VETGA",
        "Medusa-MPM",
        "Medusa-Peel",
        "Gunrock",
        "GSwitch",
    ];
    let mut headers = vec!["Dataset".to_string()];
    headers.extend(columns.iter().map(|s| s.to_string()));

    let mut rows = Vec::new();
    let mut json = Vec::new();
    for e in &envs {
        eprintln!("[memreport] {}", e.dataset.name);
        // Footprints are fixed at allocation time (cudaMalloc up front), so
        // cap the simulated run right after setup, like table5.
        let mut sim = e.sim;
        let cap = sim.time_limit_ms.unwrap_or(f64::MAX);
        sim.time_limit_ms = Some(cap.min(60.0));
        let costs = FrameworkCosts::default().scaled(e.scale);
        let full_v = e.dataset.paper.num_vertices;
        // paper rows count undirected edges; the CSR stores both arcs
        let full_a = 2 * e.dataset.paper.num_edges;

        let mut cells = Vec::new();
        {
            let mut ctx = sim.context();
            let res = kcore_gpu::decompose_in(&mut ctx, &e.graph, &e.peel_cfg).map(|_| ());
            cells.push(report(&mut ctx, res, "Ours", full_v, full_a));
        }
        {
            let mut ctx = sim.context();
            let res = vetga::peel_in(&mut ctx, &e.graph, &costs).map(|_| ());
            cells.push(report(&mut ctx, res, "VETGA", full_v, full_a));
        }
        {
            let mut ctx = sim.context();
            let res = medusa::mpm_in(&mut ctx, &e.graph, &costs).map(|_| ());
            cells.push(report(&mut ctx, res, "Medusa-MPM", full_v, full_a));
        }
        {
            let mut ctx = sim.context();
            let res = medusa::peel_in(&mut ctx, &e.graph, &costs).map(|_| ());
            cells.push(report(&mut ctx, res, "Medusa-Peel", full_v, full_a));
        }
        {
            let mut ctx = sim.context();
            let res = gunrock::peel_in(&mut ctx, &e.graph, &costs).map(|_| ());
            cells.push(report(&mut ctx, res, "Gunrock", full_v, full_a));
        }
        {
            let mut ctx = sim.context();
            let res = gswitch::peel_in(&mut ctx, &e.graph, e.k_max, &costs).map(|_| ());
            cells.push(report(&mut ctx, res, "GSwitch", full_v, full_a));
        }

        if check {
            let ours = &cells[0];
            assert!(
                ours.fits,
                "[memreport] peel predicted OOM on {} (predicted {} B > {} B)",
                e.dataset.name, ours.predicted_peak_bytes, P100_DEVICE_BYTES
            );
        }

        let mut row = vec![e.dataset.name.to_string()];
        row.extend(cells.iter().map(render));
        rows.push(row);
        json.push(Row {
            dataset: e.dataset.name.to_string(),
            full_vertices: full_v,
            full_arcs: full_a,
            device_capacity_bytes: P100_DEVICE_BYTES,
            cells,
        });
    }
    println!("\nPREDICTED FULL-SCALE PEAK DEVICE MEMORY (GB vs 16 GB P100; OOM = scaled run exceeded capacity)\n");
    print_table(&headers, &rows);
    save_json("table_mem", &json);
    if check {
        check_v3_round_trip();
        eprintln!("[memreport] check OK: peel predicted to fit on every dataset");
    }
}
