//! Fleet observability report: runs the sharded decomposition with the
//! exchange ledger armed and rolls the per-device / per-round story up into
//! `results/table_fleet.{json,txt}` — partition border structure, exchange
//! traffic, per-shard hotspot rollups, and the per-round critical path
//! naming the device or link hop that bounds each round.
//!
//! ```bash
//! cargo run --release -p kcore-bench --bin fleetreport            # report
//! cargo run --release -p kcore-bench --bin fleetreport -- --check # validate
//! ```
//!
//! Every run's ledger must pass [`FleetTrace::check_well_formed`]: each
//! sub-round slice charges exactly its slowest device's clock delta, each
//! exchange its pack + hop + apply components, and every exchange flow
//! references a real pack/apply launch record on the shipping/owning
//! device. `--check` additionally round-trips every fleet trace through
//! `serde_json::from_str`: schema versions survive the round trip and
//! per-round critical-path shares sum to 1.0.
//! Everything here observes — the runs it measures are bit-identical to
//! `decompose_multi`, which `--check` asserts by running it too.
//!
//! Dataset selection honors `KCORE_SMOKE` / `KCORE_DATASETS`; set
//! `KCORE_FLEET_TIMELINE=1` to also dump each run's fleet trace and merged
//! multi-device Perfetto document under `results/traces/`.

use kcore_bench::{fleet_timeline_enabled, prepare_all, save, save_fleet, save_json};
use kcore_gpu::{decompose_multi, decompose_multi_fleet, FleetRun, MultiGpuConfig};
use kcore_gpusim::{FleetTrace, SimOptions, FLEET_SCHEMA_VERSION};
use kcore_graph::{Csr, Partition};
use serde::Serialize;
use serde_json::Value;

const DEVICE_COUNTS: [usize; 2] = [2, 4];

#[derive(Serialize)]
struct FleetRow {
    dataset: String,
    devices: usize,
    total_ms: f64,
    rounds: usize,
    exchange_rounds: u64,
    border_packets: u64,
    exchanged_bytes: u64,
    /// Partition border structure (ghosts / border arcs per shard pair).
    partition: kcore_graph::PartitionStats,
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

#[derive(Serialize)]
struct BoundCounts {
    compute: u32,
    cascade: u32,
    exchange: u32,
    link: u32,
    idle: u32,
}

#[derive(Serialize)]
struct RollupRow {
    device: usize,
    total_ms: f64,
    kernel_ms: f64,
    launches: u64,
    dominant_bucket: String,
    dominant_ms: f64,
}

fn summarize(fleet: &FleetTrace, partition: kcore_graph::PartitionStats) -> FleetRow {
    let mut row = FleetRow {
        dataset: String::new(),
        devices: fleet.num_devices,
        total_ms: fleet.total_ms,
        rounds: fleet.rounds.len(),
        exchange_rounds: fleet.exchange_rounds,
        border_packets: fleet.border_packets,
        exchanged_bytes: fleet.exchanged_bytes,
        partition,
        compute_ms: 0.0,
        cascade_ms: 0.0,
        exchange_kernel_ms: 0.0,
        link_ms: 0.0,
        bound_counts: BoundCounts {
            compute: 0,
            cascade: 0,
            exchange: 0,
            link: 0,
            idle: 0,
        },
        devices_rollup: fleet
            .device_rollups
            .iter()
            .map(|r| {
                let (bucket, ms) = r.dominant();
                RollupRow {
                    device: r.device,
                    total_ms: r.total_ms,
                    kernel_ms: r.kernel_ms,
                    launches: r.launches,
                    dominant_bucket: bucket.to_string(),
                    dominant_ms: ms,
                }
            })
            .collect(),
    };
    for c in &fleet.critical_path {
        row.compute_ms += c.compute_ms;
        row.cascade_ms += c.cascade_ms;
        row.exchange_kernel_ms += c.exchange_kernel_ms;
        row.link_ms += c.link_ms;
        match c.bound {
            "compute" => row.bound_counts.compute += 1,
            "cascade" => row.bound_counts.cascade += 1,
            "exchange" => row.bound_counts.exchange += 1,
            "link" => row.bound_counts.link += 1,
            _ => row.bound_counts.idle += 1,
        }
    }
    row
}

/// `--check`: the schema must survive a round trip through the workspace's
/// one JSON reader.
fn check_round_trip(fleet: &FleetTrace) {
    let v = serde_json::from_str(&fleet.to_json()).expect("fleet JSON must parse");
    assert_eq!(
        v.get("schema_version").and_then(Value::as_u64),
        Some(FLEET_SCHEMA_VERSION as u64),
        "schema_version must round-trip"
    );
    assert_eq!(
        v.get("label").and_then(Value::as_str),
        Some(fleet.label.as_str())
    );
    assert_eq!(
        v.get("num_devices").and_then(Value::as_u64),
        Some(fleet.num_devices as u64)
    );
    let total = v.get("total_ms").and_then(Value::as_f64).expect("total_ms");
    assert!(
        (total - fleet.total_ms).abs() <= 1e-9 * fleet.total_ms.max(1.0),
        "total_ms must survive the round trip ({total} vs {})",
        fleet.total_ms
    );
    let rounds = v
        .get("rounds")
        .and_then(Value::as_array)
        .expect("rounds array");
    assert_eq!(rounds.len(), fleet.rounds.len());
    let crit = v
        .get("critical_path")
        .and_then(Value::as_array)
        .expect("critical_path array");
    assert_eq!(crit.len(), fleet.critical_path.len());
    for c in crit {
        let share: f64 = [
            "compute_share",
            "cascade_share",
            "exchange_share",
            "link_share",
        ]
        .iter()
        .map(|k| c.get(k).and_then(Value::as_f64).expect("share field"))
        .sum();
        assert!(
            share == 0.0 || (share - 1.0).abs() < 1e-9,
            "critical-path shares must sum to 1.0 (got {share})"
        );
    }
}

/// `--check`: the fleet run is the run `decompose_multi` returns: the same
/// cores and simulated time to the bit, exchange volume and sub-rounds, and
/// worker fingerprints. `decompose_multi` digests each worker's launch and
/// transfer records without building a trace, so its fingerprints are also
/// checked against the fleet run's traces.
fn check_matches_decompose_multi(g: &Csr, cfg: &MultiGpuConfig, sim: &SimOptions, fr: &FleetRun) {
    let run = decompose_multi(g, cfg, sim).expect("decompose_multi runs where the fleet run did");
    let p = cfg.num_gpus;
    assert_eq!(run.core, fr.run.core, "p={p}: cores");
    assert_eq!(
        run.total_ms.to_bits(),
        fr.run.total_ms.to_bits(),
        "p={p}: total_ms {} vs fleet {}",
        run.total_ms,
        fr.run.total_ms
    );
    let trace_fps: Vec<u64> = fr.traces.iter().map(|t| t.counters_fingerprint()).collect();
    assert_eq!(
        run.worker_fingerprints, fr.run.worker_fingerprints,
        "p={p}: worker fingerprints"
    );
    assert_eq!(
        run.worker_fingerprints, trace_fps,
        "p={p}: worker fingerprints vs fleet traces"
    );
    assert_eq!(
        run.exchanged_bytes, fr.run.exchanged_bytes,
        "p={p}: exchanged bytes"
    );
    assert_eq!(run.sub_rounds, fr.run.sub_rounds, "p={p}: sub-rounds");
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let envs = prepare_all();
    let mut rows = Vec::new();
    for e in &envs {
        eprintln!("[fleetreport] {}", e.dataset.name);
        for &p in &DEVICE_COUNTS {
            let cfg = MultiGpuConfig {
                num_gpus: p,
                peel: e.peel_cfg,
                ..MultiGpuConfig::default()
            };
            let label = format!("{} p={p} fleet", e.dataset.name);
            let fr = decompose_multi_fleet(&e.graph, &cfg, &e.sim, label).unwrap();
            assert_eq!(fr.run.core, e.truth, "{} p={p}", e.dataset.name);
            // The ledger contract: slices reconciled against the device
            // clocks, flow↔launch references, share sums — always enforced,
            // not only under --check.
            fr.fleet
                .check_well_formed()
                .expect("fleet ledger must reconcile with the device clocks");
            if check {
                check_round_trip(&fr.fleet);
                check_matches_decompose_multi(&e.graph, &cfg, &e.sim, &fr);
            }
            if fleet_timeline_enabled() {
                let slug = format!("{}_fleet_p{p}", e.dataset.name.replace(['-', '.'], "_"));
                save_fleet(&slug, &fr);
            }
            let part = Partition::build(&e.graph, p, cfg.partition);
            let mut row = summarize(&fr.fleet, part.stats());
            row.dataset = e.dataset.name.to_string();
            rows.push(row);
        }
    }

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
    ];
    let mut table = vec![headers.iter().map(|s| s.to_string()).collect::<Vec<_>>()];
    for r in &rows {
        let dominant = r
            .devices_rollup
            .iter()
            .max_by(|a, b| a.kernel_ms.partial_cmp(&b.kernel_ms).unwrap())
            .map(|d| format!("d{} {}", d.device, d.dominant_bucket))
            .unwrap_or_else(|| "-".into());
        table.push(vec![
            r.dataset.clone(),
            r.devices.to_string(),
            format!("{:.2}", r.total_ms),
            r.rounds.to_string(),
            r.exchange_rounds.to_string(),
            r.border_packets.to_string(),
            r.partition.total_ghosts.to_string(),
            r.partition.total_border_arcs.to_string(),
            format!(
                "{}/{}/{}/{}",
                r.bound_counts.compute,
                r.bound_counts.cascade,
                r.bound_counts.exchange,
                r.bound_counts.link
            ),
            dominant,
        ]);
    }
    let widths: Vec<usize> = (0..headers.len())
        .map(|i| table.iter().map(|row| row[i].len()).max().unwrap())
        .collect();
    let mut txt = String::from("FLEET OBSERVABILITY REPORT\n\n");
    for (ri, row) in table.iter().enumerate() {
        for (i, cell) in row.iter().enumerate() {
            if i > 0 {
                txt.push_str("  ");
            }
            txt.push_str(&format!("{cell:>w$}", w = widths[i]));
        }
        txt.push('\n');
        if ri == 0 {
            txt.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (headers.len() - 1)));
            txt.push('\n');
        }
    }
    txt.push_str(
        "\nBound (c/s/x/l): rounds whose critical path is bounded by compute /\n\
         cascade sub-rounds / exchange kernels / link transfer. Dominant rollup:\n\
         the busiest device and its dominant roofline bucket.\n",
    );
    print!("{txt}");
    save("table_fleet.txt", &txt);
    save_json("table_fleet", &rows);
    if check {
        eprintln!("[fleetreport] check OK: ledgers reconcile, parse, and tile");
    }
}
