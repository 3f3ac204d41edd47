//! Bench-regression recorder: measures every implementation on the selected
//! datasets and appends a schema-versioned snapshot (`BENCH_<n>.json`) to the
//! results directory, diffing against the previous snapshot on the way.
//!
//! ```bash
//! cargo run --release -p kcore-bench --bin record_bench           # record
//! cargo run --release -p kcore-bench --bin record_bench -- --check # diff only
//! ```
//!
//! `--check` measures and diffs but records nothing — the CI mode used by
//! `scripts/check_regression.sh`. The process exits non-zero when any
//! implementation's status, simulated time, launch count or counters
//! fingerprint differs from the latest recorded snapshot (see
//! [`regress::diff`]).
//!
//! Dataset selection honors `KCORE_SMOKE` / `KCORE_DATASETS` like every
//! other bench binary; snapshots remember which registry they measured and
//! refuse to diff across modes.

use kcore_bench::regress::{self, Entry, HotspotSummary, Snapshot};
use kcore_bench::{prepare_all, results_dir, PAPER_HOUR_MS};
use kcore_gpusim::{GpuContext, SimError};
use kcore_systems::{gswitch, gunrock, medusa, vetga, FrameworkCosts};

fn status_of(res: &Result<Vec<u32>, SimError>, truth: &[u32]) -> &'static str {
    match res {
        Ok(core) if core == truth => "ok",
        Ok(_) => "wrong",
        Err(SimError::TimeLimit { .. }) => "timeout",
        Err(SimError::Oom(_)) => "oom",
        Err(_) => "error",
    }
}

fn entry(
    ctx: &mut GpuContext,
    dataset: &str,
    impl_name: &str,
    res: Result<Vec<u32>, SimError>,
    truth: &[u32],
) -> Entry {
    let trace = ctx.trace(format!("{impl_name} on {dataset} (record_bench)"));
    Entry {
        dataset: dataset.into(),
        impl_name: impl_name.into(),
        status: status_of(&res, truth).into(),
        sim_ms: trace.totals.time_ms,
        launches: trace.totals.launches,
        counters_fingerprint: trace.counters_fingerprint(),
        exchange_rounds: 0,
        border_packets: 0,
        hotspots: trace
            .hotspots
            .iter()
            .map(|h| {
                let (dominant, dominant_ms) = h.dominant_bucket();
                HotspotSummary {
                    kernel: h.kernel.into(),
                    launches: h.launches,
                    total_ms: h.total_ms,
                    dominant: dominant.into(),
                    dominant_ms,
                }
            })
            .collect(),
    }
}

fn main() {
    let check_only = std::env::args().any(|a| a == "--check");
    let mode = if std::env::var_os("KCORE_SMOKE").is_some() {
        "smoke"
    } else {
        "full"
    };
    let envs = prepare_all();
    let mut entries = Vec::new();
    for e in &envs {
        eprintln!("[record_bench] {}", e.dataset.name);
        let costs = FrameworkCosts::default().scaled(e.scale);
        let name = e.dataset.name;
        {
            let mut ctx = e.sim.context();
            let res =
                kcore_gpu::decompose_in(&mut ctx, &e.graph, &e.peel_cfg).map(|(core, _)| core);
            entries.push(entry(&mut ctx, name, "Ours", res, &e.truth));
        }
        // VETGA loads via a slow edge-list path; past the (scaled) hour the
        // paper reports "LD > 1hr" without running, and so do we.
        if vetga::load_time_ms(&e.graph, &costs) > PAPER_HOUR_MS / e.scale {
            entries.push(Entry {
                dataset: name.into(),
                impl_name: "VETGA".into(),
                status: "load_timeout".into(),
                sim_ms: 0.0,
                launches: 0,
                counters_fingerprint: 0,
                exchange_rounds: 0,
                border_packets: 0,
                hotspots: Vec::new(),
            });
        } else {
            let mut ctx = e.sim.context();
            let res = vetga::peel_in(&mut ctx, &e.graph, &costs).map(|(core, _)| core);
            entries.push(entry(&mut ctx, name, "VETGA", res, &e.truth));
        }
        {
            let mut ctx = e.sim.context();
            let res = medusa::mpm_in(&mut ctx, &e.graph, &costs).map(|(core, _)| core);
            entries.push(entry(&mut ctx, name, "Medusa-MPM", res, &e.truth));
        }
        {
            let mut ctx = e.sim.context();
            let res = medusa::peel_in(&mut ctx, &e.graph, &costs).map(|(core, _)| core);
            entries.push(entry(&mut ctx, name, "Medusa-Peel", res, &e.truth));
        }
        {
            let mut ctx = e.sim.context();
            let res = gunrock::peel_in(&mut ctx, &e.graph, &costs).map(|(core, _)| core);
            entries.push(entry(&mut ctx, name, "Gunrock", res, &e.truth));
        }
        {
            let mut ctx = e.sim.context();
            let res = gswitch::peel_in(&mut ctx, &e.graph, e.k_max, &costs).map(|(core, _)| core);
            entries.push(entry(&mut ctx, name, "GSwitch", res, &e.truth));
        }
        // Sharded fleet cell: the only entry whose informational exchange
        // fields are non-zero. Its fingerprint digests the per-worker
        // fingerprints in shard order (same workload ⇒ same digest).
        {
            let cfg = kcore_gpu::MultiGpuConfig {
                num_gpus: 4,
                peel: e.peel_cfg,
                ..kcore_gpu::MultiGpuConfig::default()
            };
            match kcore_gpu::decompose_multi_fleet(&e.graph, &cfg, &e.sim, name) {
                Ok(kcore_gpu::FleetRun { run, traces, .. }) => {
                    let mut fp_bytes = Vec::with_capacity(8 * run.worker_fingerprints.len());
                    for fp in &run.worker_fingerprints {
                        fp_bytes.extend_from_slice(&fp.to_le_bytes());
                    }
                    entries.push(Entry {
                        dataset: name.into(),
                        impl_name: "Sharded p=4".into(),
                        status: if run.core == e.truth { "ok" } else { "wrong" }.into(),
                        sim_ms: run.total_ms,
                        launches: traces.iter().map(|t| t.totals.launches).sum(),
                        counters_fingerprint: kcore_gpusim::fnv1a_bytes(&fp_bytes),
                        exchange_rounds: run.exchange_rounds,
                        border_packets: run.border_packets,
                        hotspots: Vec::new(),
                    });
                }
                Err(err) => entries.push(Entry {
                    dataset: name.into(),
                    impl_name: "Sharded p=4".into(),
                    status: match err {
                        SimError::Oom(_) => "oom",
                        SimError::TimeLimit { .. } => "timeout",
                        _ => "error",
                    }
                    .into(),
                    sim_ms: 0.0,
                    launches: 0,
                    counters_fingerprint: 0,
                    exchange_rounds: 0,
                    border_packets: 0,
                    hotspots: Vec::new(),
                }),
            }
        }
    }

    let dir = results_dir();
    let prev = regress::latest_snapshot(&dir);
    let seq = prev.as_ref().map(|(s, _)| s + 1).unwrap_or(0);
    let snap = Snapshot {
        schema_version: regress::BENCH_SCHEMA_VERSION,
        trace_schema_version: kcore_gpusim::TRACE_SCHEMA_VERSION,
        seq,
        mode: mode.into(),
        entries,
    };

    let mut failed = false;
    match &prev {
        None => println!(
            "\nno previous BENCH_*.json in {} — baseline run",
            dir.display()
        ),
        Some((prev_seq, prev_val)) => {
            let rep = regress::diff(prev_val, &snap);
            println!("\ndiff vs BENCH_{prev_seq}.json:");
            if let Some(why) = &rep.skipped {
                println!("  skipped: {why}");
            }
            for line in &rep.lines {
                println!("{line}");
            }
            if rep.failed() {
                println!("\nMOVED (a deliberate move needs a new snapshot):");
                for r in &rep.mismatches {
                    println!("  {r}");
                }
                failed = true;
            }
        }
    }

    if check_only {
        println!("(--check: snapshot not recorded)");
    } else {
        let path = regress::write_snapshot(&dir, &snap);
        println!("recorded {}", path.display());
    }
    if failed {
        std::process::exit(1);
    }
}
