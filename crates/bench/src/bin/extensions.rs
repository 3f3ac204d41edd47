//! Extension experiments beyond the paper's tables (the multi-GPU
//! extension of §VII is `table_scale`'s):
//!
//! 1. **Ring-buffer ablation** (§IV-C): the smallest per-block buffer that
//!    completes each dataset, with and without the ring layout — the ring's
//!    slot recycling is what keeps the frontier footprint bounded.
//! 2. **Direct GPU-MPM vs peeling vs Medusa-MPM**: the total-workload
//!    trade-off the introduction discusses, measured.

use kcore_bench::{prepare, print_table, save_json};
use kcore_gpu::{decompose, mpm_gpu, PeelConfig};
use kcore_gpusim::{KernelError, SimError};
use kcore_systems::{medusa, FrameworkCosts};
use serde::Serialize;

#[derive(Serialize, Default)]
struct Results {
    ring_ablation: Vec<(String, usize, usize)>, // dataset, min cap ring, min cap no-ring
    mpm_vs_peel: Vec<(String, f64, f64, f64)>,  // dataset, peel ms, gpu-mpm ms, medusa ms
}

fn min_buf_capacity(e: &kcore_bench::Env, ring: bool) -> usize {
    // exponential + binary search for the smallest capacity that completes
    let ok = |cap: usize| {
        let cfg = PeelConfig {
            buf_capacity: cap,
            ring_buffer: ring,
            ..e.peel_cfg
        };
        match decompose(&e.graph, &cfg, &e.sim) {
            Ok(run) => {
                assert_eq!(run.core, e.truth);
                true
            }
            Err(SimError::Kernel(KernelError::BufferOverflow { .. })) => false,
            Err(err) => panic!("unexpected failure: {err}"),
        }
    };
    let mut hi = 64usize;
    while !ok(hi) {
        hi *= 2;
        assert!(hi <= 1 << 26, "runaway capacity search");
    }
    let mut lo = hi / 2;
    while lo + 1 < hi {
        let mid = (lo + hi) / 2;
        if ok(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

fn main() {
    let names = ["amazon0601", "web-BerkStan", "soc-LiveJournal1"];
    let mut out = Results::default();

    println!(
        "EXTENSION 1 — RING-BUFFER ABLATION (§IV-C): smallest per-block buffer that completes\n"
    );
    let mut rows = Vec::new();
    for name in names {
        let e = prepare(kcore_graph::datasets::by_name(name).unwrap());
        let ring = min_buf_capacity(&e, true);
        let flat = min_buf_capacity(&e, false);
        rows.push(vec![
            name.to_string(),
            ring.to_string(),
            flat.to_string(),
            format!("{:.1}x", flat as f64 / ring as f64),
        ]);
        out.ring_ablation.push((name.into(), ring, flat));
    }
    print_table(
        &["Dataset", "ring buffer", "flat buffer", "ring advantage"].map(String::from),
        &rows,
    );

    println!(
        "\nEXTENSION 2 — PEELING vs DIRECT GPU-MPM vs MEDUSA-MPM (total-workload trade-off)\n"
    );
    let mut rows = Vec::new();
    for name in names {
        let e = prepare(kcore_graph::datasets::by_name(name).unwrap());
        let peel_ms = decompose(&e.graph, &e.peel_cfg, &e.sim)
            .unwrap()
            .report
            .total_ms;
        let gpu_mpm = mpm_gpu::decompose_mpm(&e.graph, &e.sim).unwrap();
        assert_eq!(gpu_mpm.core, e.truth);
        let costs = FrameworkCosts::default().scaled(e.scale);
        let med = medusa::mpm(&e.graph, &e.sim, &costs)
            .map(|r| r.report.total_ms)
            .unwrap_or(f64::NAN);
        rows.push(vec![
            name.to_string(),
            format!("{:.2}", peel_ms),
            format!("{:.2} ({} sweeps)", gpu_mpm.report.total_ms, gpu_mpm.sweeps),
            format!("{med:.2}"),
        ]);
        out.mpm_vs_peel
            .push((name.into(), peel_ms, gpu_mpm.report.total_ms, med));
    }
    print_table(
        &["Dataset", "Peel (Ours)", "GPU-MPM (direct)", "Medusa-MPM"].map(String::from),
        &rows,
    );
    println!(
        "\nThe direct MPM kernel removes Medusa's framework tax but still pays MPM's higher\n\
         total workload — the §I trade-off: massive parallelism cannot fully offset\n\
         recomputing every vertex until convergence."
    );
    save_json("extensions", &out);
}
