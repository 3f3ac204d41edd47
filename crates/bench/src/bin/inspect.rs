//! Diagnostic tool: breaks down where simulated time goes for each
//! implementation on one graph. Not part of the paper's tables — used to
//! understand/calibrate the cost model.
//!
//! ```bash
//! cargo run --release -p kcore-bench --bin inspect [dataset-name]
//! ```
//!
//! Besides the console breakdown, every implementation's kernel trace
//! (DESIGN.md "Profiling & traces") is dumped to
//! `results/traces/<dataset>_<impl>.json`. Knobs: `KCORE_TRACE_BLOCKS=1`
//! records per-block counters in "Ours"' trace (large output);
//! `KCORE_TIMELINE=1` exports each implementation's SM timeline as Chrome
//! trace-event JSON (`<dataset>_<impl>.perfetto.json`, open in
//! <https://ui.perfetto.dev>) and prints every implementation's per-kernel
//! hotspots ("Ours" always prints its own); `KCORE_FLEET_TIMELINE=1` also
//! runs the sharded p=4 decomposition, dumps its fleet ledger and merged
//! multi-device Perfetto file (`<dataset>_fleet_p4.fleet{,.perfetto}.json`)
//! and prints a per-round critical-path breakdown.

use kcore_bench::{
    capture, capture_in, fleet_timeline_enabled, prepare, save_fleet, save_timeline, save_trace,
    Outcome, Program,
};
use kcore_gpusim::DeviceRollup;

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "soc-LiveJournal1".into());
    let d = kcore_graph::datasets::by_name(&name).expect("unknown dataset");
    let e = prepare(d);
    let profile_blocks = std::env::var("KCORE_TRACE_BLOCKS").is_ok();
    let timeline = std::env::var_os("KCORE_TIMELINE").is_some();
    println!(
        "{}: |V|={} |E|={} k_max={} scale=1/{:.0}\n",
        e.dataset.name, e.stats.num_vertices, e.stats.num_edges, e.k_max, e.scale
    );

    for program in Program::peel_variants().chain(Program::TABLE3[1..].iter().copied()) {
        let mut ctx = e.sim.context();
        ctx.set_block_profiling(profile_blocks && program == Program::OURS);
        let cap = capture_in(&mut ctx, &e, program, true);
        let trace = cap.trace.as_ref().expect("capture keeps the trace");
        let c = &trace.totals.counters;
        println!(
            "{:<14} {:>10.3} ms  launches={:<6} iters={:<6} tx={:<9} sect={:<9} dep={:<8} atom={:<9} sh={:<9} instr={:<10} barr={:<7} peak={}MB{}",
            program.name(),
            cap.sim_ms,
            cap.launches,
            cap.iterations,
            c.global_tx,
            c.global_sectors,
            c.dependent_reads,
            c.global_atomics,
            c.shared_accesses + c.shared_atomics,
            c.warp_instrs,
            c.barriers,
            cap.peak_bytes >> 20,
            match cap.outcome {
                Outcome::Ok => String::new(),
                other => format!("  {other:?}"),
            }
        );
        if program == Program::OURS || timeline {
            for h in &trace.hotspots {
                let (bucket, ms) = h.dominant_bucket();
                println!(
                    "    kernel {:<16} {:>9.3} ms over {} launches  dominant: {bucket} ({ms:.3} ms)",
                    h.kernel, h.total_ms, h.launches
                );
            }
        }
        if program == Program::OURS {
            for l in trace.launches.iter().filter(|l| l.kernel == "loop") {
                println!(
                    "      loop launch: {:>9.1} us, max-block {:>10.0} cyc, mean-block {:>10.0} cyc",
                    l.time_ms * 1e3,
                    l.max_block_cycles,
                    l.sum_block_cycles / l.blocks as f64
                );
            }
        }
        let slug: String = program
            .name()
            .to_ascii_lowercase()
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        let file = format!("{}_{slug}", e.dataset.name);
        save_trace(&file, trace);
        if timeline {
            save_timeline(&file, &ctx.timeline(trace.label.clone()));
        }
    }

    // Fleet view: the sharded p=4 run with the exchange ledger, merged
    // multi-device Perfetto export, and per-round critical path.
    if fleet_timeline_enabled() {
        let cap = capture(&e, Program::Sharded(4), 0, true);
        let Some(fr) = cap.fleet else {
            println!("Fleet p=4: {:?}", cap.outcome);
            return;
        };
        fr.fleet
            .check_well_formed(&fr.traces)
            .expect("fleet ledger must reconcile with the device clocks");
        println!(
            "\nFleet p=4      {:>10.3} ms  {} rounds, {} exchange rounds, {} border packets, {} B exchanged",
            fr.run.total_ms,
            fr.fleet.rounds.len(),
            fr.run.exchange_rounds,
            fr.run.border_packets,
            fr.run.exchanged_bytes,
        );
        for c in &fr.fleet.critical_path {
            println!(
                "    k={:<4} {:>9.3} ms  compute {:>5.1}% cascade {:>5.1}% exchange {:>5.1}% link {:>5.1}%  bound: {} ({})",
                c.k,
                c.compute_ms + c.cascade_ms + c.exchange_kernel_ms + c.link_ms,
                100.0 * c.compute_share,
                100.0 * c.cascade_share,
                100.0 * c.exchange_share,
                100.0 * c.link_share,
                c.bound,
                c.bounding_resource,
            );
        }
        for (d, t) in fr.traces.iter().enumerate() {
            let r = DeviceRollup::from_trace(d, t);
            let (bucket, ms) = r.dominant();
            println!(
                "    device {} rollup: {:.3} ms kernels, dominant {bucket} ({ms:.3} ms)",
                r.device, r.kernel_ms
            );
        }
        save_fleet(e.dataset.name, 4, &fr);
    }
}
