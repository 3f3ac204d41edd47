//! Diagnostic tool: breaks down where simulated time goes for each
//! implementation on one graph. Not part of the paper's tables — used to
//! understand/calibrate the cost model.
//!
//! ```bash
//! cargo run --release -p kcore-bench --bin inspect [dataset-name]
//! ```
//!
//! Besides the console breakdown, every implementation's full kernel trace
//! (per-launch counters, roofline decomposition, per-phase rollups — see
//! DESIGN.md "Profiling & traces") is dumped to
//! `results/traces/<dataset>_<impl>.json`. Set `KCORE_TRACE_BLOCKS=1` to
//! also record per-block counters for each launch (large output). Set
//! `KCORE_TIMELINE=1` to additionally export each implementation's SM
//! timeline as Chrome trace-event JSON
//! (`results/traces/<dataset>_<impl>.perfetto.json`, open in
//! <https://ui.perfetto.dev>) and print the per-kernel hotspot attribution.
//! Set `KCORE_FLEET_TIMELINE=1` to additionally run the sharded
//! p=4 decomposition and dump its fleet ledger + merged multi-device
//! Perfetto file (`results/traces/<dataset>_fleet_p4.fleet{,.perfetto}.json`)
//! plus a per-round critical-path breakdown on the console.

use kcore_bench::{fleet_timeline_enabled, prepare, save_fleet, save_timeline, save_trace};
use kcore_gpusim::{Counters, GpuContext, HOTSPOT_TOP_K};
use kcore_systems::{gswitch, gunrock, medusa, vetga, FrameworkCosts};

fn show(label: &str, ms: f64, iters: u64, c: &Counters, peak: u64) {
    println!(
        "{label:<14} {ms:>10.3} ms  iters={iters:<6} tx={:<9} sect={:<9} dep={:<8} atom={:<9} sh={:<9} instr={:<10} barr={:<7} peak={}MB",
        c.global_tx,
        c.global_sectors,
        c.dependent_reads,
        c.global_atomics,
        c.shared_accesses + c.shared_atomics,
        c.warp_instrs,
        c.barriers,
        peak / (1 << 20),
    );
}

fn dump(ctx: &mut GpuContext, dataset: &str, label: &str) {
    let slug: String = label
        .to_ascii_lowercase()
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    save_trace(
        &format!("{dataset}_{slug}"),
        &ctx.trace(format!("{label} on {dataset}")),
    );
    if std::env::var_os("KCORE_TIMELINE").is_some() {
        let timeline = ctx.timeline(format!("{label} on {dataset}"));
        save_timeline(&format!("{dataset}_{slug}"), &timeline);
        for h in ctx.hotspots(HOTSPOT_TOP_K) {
            let (bucket, ms) = h.dominant_bucket();
            println!(
                "    hotspot {:<16} {:>9.3} ms over {} launches  dominant: {bucket} ({ms:.3} ms)",
                h.kernel, h.total_ms, h.launches
            );
        }
    }
}

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "soc-LiveJournal1".into());
    let d = kcore_graph::datasets::by_name(&name).expect("unknown dataset");
    let e = prepare(d);
    let profile_blocks = std::env::var("KCORE_TRACE_BLOCKS").is_ok();
    println!(
        "{}: |V|={} |E|={} k_max={} scale=1/{:.0}\n",
        e.dataset.name, e.stats.num_vertices, e.stats.num_edges, e.k_max, e.scale
    );
    let costs = FrameworkCosts::default().scaled(e.scale);

    // Ours with per-kernel breakdown.
    {
        let mut ctx = e.sim.context();
        ctx.set_block_profiling(profile_blocks);
        let res = kcore_gpu::decompose_in(&mut ctx, &e.graph, &e.peel_cfg);
        let rep = ctx.report();
        match res {
            Ok(_) => show(
                "Ours",
                rep.total_ms,
                rep.launches,
                &rep.counters,
                rep.peak_mem_bytes,
            ),
            Err(err) => println!("Ours: {err}"),
        }
        // aggregate per kernel name
        let mut per: std::collections::BTreeMap<&str, (f64, u64)> = Default::default();
        for l in ctx.launches() {
            let e = per.entry(l.name).or_default();
            e.0 += l.time_s * 1e3;
            e.1 += 1;
        }
        for (k, (ms, n)) in per {
            println!("    kernel {k:<10} {ms:>9.3} ms over {n} launches");
        }
        for l in ctx.launches().iter().filter(|l| l.name == "loop") {
            println!(
                "      loop launch: {:>9.1} us, max-block {:>10.0} cyc, mean-block {:>10.0} cyc",
                l.time_s * 1e6,
                l.max_block_cycles,
                l.sum_block_cycles / l.blocks() as f64
            );
        }
        dump(&mut ctx, e.dataset.name, "Ours");
    }
    for cfgv in e.peel_cfg.all_variants() {
        if cfgv.variant_name() == "Ours" {
            continue;
        }
        let mut ctx = e.sim.context();
        match kcore_gpu::decompose_in(&mut ctx, &e.graph, &cfgv) {
            Ok(_) => {
                let r = ctx.report();
                show(
                    cfgv.variant_name(),
                    r.total_ms,
                    r.launches,
                    &r.counters,
                    r.peak_mem_bytes,
                );
            }
            Err(err) => println!("{}: {err}", cfgv.variant_name()),
        }
        dump(&mut ctx, e.dataset.name, cfgv.variant_name());
    }
    {
        let mut ctx = e.sim.context();
        match gswitch::peel_in(&mut ctx, &e.graph, e.k_max, &costs) {
            Ok((_, it)) => {
                let r = ctx.report();
                show("GSwitch", r.total_ms, it, &r.counters, r.peak_mem_bytes);
            }
            Err(err) => println!("GSwitch: {err}"),
        }
        dump(&mut ctx, e.dataset.name, "GSwitch");
    }
    {
        let mut ctx = e.sim.context();
        match gunrock::peel_in(&mut ctx, &e.graph, &costs) {
            Ok((_, it)) => {
                let r = ctx.report();
                show("Gunrock", r.total_ms, it, &r.counters, r.peak_mem_bytes);
            }
            Err(err) => println!("Gunrock: {err}"),
        }
        dump(&mut ctx, e.dataset.name, "Gunrock");
    }
    {
        let mut ctx = e.sim.context();
        match vetga::peel_in(&mut ctx, &e.graph, &costs) {
            Ok((_, it)) => {
                let r = ctx.report();
                show("VETGA", r.total_ms, it, &r.counters, r.peak_mem_bytes);
            }
            Err(err) => println!("VETGA: {err}"),
        }
        dump(&mut ctx, e.dataset.name, "VETGA");
    }
    {
        let mut ctx = e.sim.context();
        match medusa::peel_in(&mut ctx, &e.graph, &costs) {
            Ok((_, it)) => {
                let r = ctx.report();
                show("Medusa-Peel", r.total_ms, it, &r.counters, r.peak_mem_bytes);
            }
            Err(err) => println!("Medusa-Peel: {err}"),
        }
        dump(&mut ctx, e.dataset.name, "Medusa-Peel");
    }
    {
        let mut ctx = e.sim.context();
        match medusa::mpm_in(&mut ctx, &e.graph, &costs) {
            Ok((_, it)) => {
                let r = ctx.report();
                show("Medusa-MPM", r.total_ms, it, &r.counters, r.peak_mem_bytes);
            }
            Err(err) => println!("Medusa-MPM: {err}"),
        }
        dump(&mut ctx, e.dataset.name, "Medusa-MPM");
    }

    // Fleet view: the sharded p=4 run with the exchange ledger, merged
    // multi-device Perfetto export, and per-round critical path.
    if fleet_timeline_enabled() {
        let cfg = kcore_gpu::MultiGpuConfig {
            num_gpus: 4,
            peel: e.peel_cfg,
            ..kcore_gpu::MultiGpuConfig::default()
        };
        let label = format!("{} p=4 fleet", e.dataset.name);
        match kcore_gpu::decompose_multi_fleet(&e.graph, &cfg, &e.sim, label) {
            Ok(fr) => {
                fr.fleet
                    .check_well_formed()
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
                for r in &fr.fleet.device_rollups {
                    let (bucket, ms) = r.dominant();
                    println!(
                        "    device {} rollup: {:.3} ms kernels, dominant {bucket} ({ms:.3} ms)",
                        r.device, r.kernel_ms
                    );
                }
                let slug = format!("{}_fleet_p4", e.dataset.name.replace(['-', '.'], "_"));
                save_fleet(&slug, &fr);
            }
            Err(err) => println!("Fleet p=4: {err}"),
        }
    }
}
