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
//! `results/traces/<dataset>_<impl>.json`; "Ours"' trace also holds its
//! per-block counters. `KCORE_TIMELINE=1` also writes each
//! implementation's trace as a Perfetto document
//! (`<dataset>_<impl>.perfetto.json`, open in <https://ui.perfetto.dev>),
//! prints every implementation's per-kernel hotspots ("Ours" always prints
//! its own), runs the sharded p=4 decomposition, dumps its fleet ledger and
//! merged multi-device Perfetto document
//! (`<dataset>_fleet_p4.fleet{,.perfetto}.json`) and prints a per-round
//! critical-path breakdown.

use kcore_bench::{
    capture_in, capture_sharded, prepare, save_fleet, save_timeline, save_trace, timeline_enabled,
    Outcome,
};
use kcore_gpusim::Hotspot;
use kcore_systems::Engine;

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "soc-LiveJournal1".into());
    let d = kcore_graph::datasets::by_name(&name).expect("unknown dataset");
    let e = prepare(d);
    let timeline = timeline_enabled();
    println!(
        "{}: |V|={} |E|={} k_max={} scale=1/{:.0}\n",
        e.dataset.name, e.stats.num_vertices, e.stats.num_edges, e.opts.k_max, e.scale
    );

    for engine in Engine::peel_variants().chain(Engine::TABLE3[1..].iter().copied()) {
        let mut ctx = e.sim.context();
        ctx.set_block_profiling(engine == Engine::OURS);
        let cap = capture_in(&mut ctx, &e, engine, true);
        let trace = cap.trace.as_ref().expect("capture keeps the trace");
        let c = &trace.totals.counters;
        println!(
            "{:<14} {:>10.3} ms  launches={:<6} iters={:<6} tx={:<9} sect={:<9} dep={:<8} atom={:<9} sh={:<9} instr={:<10} barr={:<7} peak={}MB{}",
            cap.name,
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
        if engine == Engine::OURS || timeline {
            for h in &trace.hotspots {
                let (bucket, ms) = h.dominant_bucket();
                println!(
                    "    kernel {:<16} {:>9.3} ms over {} launches  dominant: {bucket} ({ms:.3} ms)",
                    h.kernel, h.total_ms, h.launches
                );
            }
        }
        if engine == Engine::OURS {
            for l in trace.launches.iter().filter(|l| l.name == "loop") {
                println!(
                    "      loop launch: {:>9.1} us, max-block {:>10.0} cyc, mean-block {:>10.0} cyc",
                    l.time_s * 1e3 * 1e3,
                    l.max_block_cycles(),
                    l.sum_block_cycles() / l.config.blocks as f64
                );
            }
        }
        let slug: String = cap
            .name
            .to_ascii_lowercase()
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        let file = format!("{}_{slug}", e.dataset.name);
        save_trace(&file, trace);
        if timeline {
            save_timeline(&file, trace);
        }
    }

    // Fleet view: the sharded p=4 run with the exchange ledger, merged
    // multi-device Perfetto export, and per-round critical path.
    if timeline {
        let cap = capture_sharded(&e, 4, true);
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
        for (k, c) in fr.fleet.critical_path().enumerate() {
            println!(
                "    k={k:<4} {:>9.3} ms  compute {:>5.1}% cascade {:>5.1}% exchange {:>5.1}% link {:>5.1}%  bound: {} ({})",
                c.total_ms(),
                100.0 * c.share(c.compute_ms),
                100.0 * c.share(c.cascade_ms),
                100.0 * c.share(c.exchange_kernel_ms),
                100.0 * c.share(c.link_ms),
                c.bound,
                c.bounding_resource,
            );
        }
        for (d, t) in fr.traces.iter().enumerate() {
            let all = Hotspot::sum(&t.hotspots);
            let (bucket, ms) = all.dominant_bucket();
            println!(
                "    device {d} rollup: {:.3} ms kernels, dominant {bucket} ({ms:.3} ms)",
                all.total_ms
            );
        }
        save_fleet(e.dataset.name, 4, &fr);
    }
}
