//! GSWITCH-style autotuned frontier peeling (Meng et al., PPoPP'19).
//!
//! GSWITCH observes frontier features each iteration and switches the kernel
//! configuration: a **sparse** iteration advances from an explicit frontier
//! list (like Gunrock, but fused into fewer kernels), while a **dense**
//! iteration sweeps a vertex bitmap — cheaper when the frontier is a large
//! fraction of the graph. Together with a fused kernel and an on-device
//! termination flag this gives a much lower per-iteration overhead, which is
//! why GSWITCH is the fastest system baseline in Table III.
//!
//! One faithful quirk (§V): GSWITCH "does not support an easy way to write
//! the outer loop of rounds, so we simply repeat the iterative computations
//! for n rounds, where n is hardcoded as the core number of each input
//! graph" — [`Engine::Gswitch`](crate::Engine::Gswitch) therefore takes
//! the number of rounds as an input
//! ([`EngineOptions::k_max`](crate::EngineOptions::k_max)) instead of
//! tracking a removal count.

use crate::FrameworkCosts;
use kcore_gpusim::warp::WARP_SIZE;
use kcore_gpusim::{
    narrow_offsets, BlockCtx, Coalescing, GpuContext, LaunchConfig, SimError, SizeClass,
};
use kcore_graph::Csr;
use std::sync::atomic::Ordering;

/// Runs GSWITCH-style peeling for rounds `k = 0 ..= k_max_hint` in `ctx`.
///
/// With `k_max_hint >= k_max(G)` the result is the exact decomposition; a
/// smaller hint leaves deeper cores unpeeled, exactly as the hardcoded
/// round count would on the real system.
pub(crate) fn peel_in(
    ctx: &mut GpuContext,
    g: &Csr,
    k_max_hint: u32,
    costs: &FrameworkCosts,
) -> Result<(Vec<u32>, u64), SimError> {
    let n = g.num_vertices() as usize;
    if n == 0 {
        return Ok((Vec::new(), 0));
    }
    ctx.set_phase("Setup");
    ctx.set_workload_dims(n as u64, g.num_arcs());
    let offsets32 = narrow_offsets(g.offsets())?;
    let d_offsets = ctx.htod("gswitch.offset", &offsets32, SizeClass::PerVertex)?;
    let d_neighbors = ctx.htod("gswitch.neighbors", g.neighbor_array(), SizeClass::PerArc)?;
    let d_deg = ctx.htod("gswitch.deg", &g.degrees(), SizeClass::PerVertex)?;
    // Frontier list + bitmap (the autotuner keeps both representations), a
    // removed bitmap, and the engine's generic per-arc message slots.
    let d_flist = ctx.alloc("gswitch.frontier_list", n, SizeClass::PerVertex)?;
    let d_fbitmap = ctx.alloc(
        "gswitch.frontier_bitmap",
        n.div_ceil(32),
        SizeClass::PerVertex,
    )?;
    let d_removed = ctx.alloc("gswitch.removed", n, SizeClass::PerVertex)?;
    let d_eaux = ctx.alloc("gswitch.edge_aux", g.num_arcs() as usize, SizeClass::PerArc)?;
    let d_len = ctx.alloc("gswitch.frontier_len", 1, SizeClass::Fixed)?;
    let launch = LaunchConfig::paper();

    let mut iterations = 0u64;
    for k in 0..=k_max_hint {
        // Fused filter+advance iterations until this round's shell drains.
        loop {
            iterations += 1;
            // reset length
            ctx.set_phase("Reset");
            ctx.launch(
                "gswitch_reset",
                LaunchConfig {
                    blocks: 1,
                    threads_per_block: 32,
                },
                |blk| {
                    blk.gwrite(&blk.device.buffer(d_len)[0], 0);
                    Ok(())
                },
            )?;
            // Dense fused iteration: sweep all vertices; those with deg == k
            // are processed in place (bitmap mode — the autotuner picks
            // dense here because shell candidates are discovered by sweep).
            ctx.set_phase("Fused");
            let fused = |blk: &mut BlockCtx<'_>| {
                let d = blk.device;
                let offsets = d.buffer(d_offsets);
                let neighbors = d.buffer(d_neighbors);
                let deg = d.buffer(d_deg);
                let len = &d.buffer(d_len)[0];
                let blocks = blk.cfg.blocks as usize;
                let b = blk.block_idx as usize;
                let (lo, hi) = (b * n / blocks, (b + 1) * n / blocks);
                // bitmap + degree sweep, coalesced
                blk.charge_tx(BlockCtx::coalesced_tx((hi - lo) as u64));
                blk.charge_instr(((hi - lo) as u64).div_ceil(32));
                let removed = d.buffer(d_removed);
                for v in lo..hi {
                    if removed[v].load(Ordering::Relaxed) == 1
                        || deg[v].load(Ordering::Relaxed) != k
                    {
                        continue;
                    }
                    // claim v through the removed bitmap so exactly one
                    // block processes it even if ranges race via cascades
                    if blk.atomic_add(&removed[v], 1) != 0 {
                        continue;
                    }
                    blk.atomic_add(len, 1);
                    blk.charge_sector(1);
                    let (s, e) = (
                        offsets[v].load(Ordering::Relaxed) as usize,
                        offsets[v + 1].load(Ordering::Relaxed) as usize,
                    );
                    blk.charge_tx(BlockCtx::coalesced_tx((e - s) as u64));
                    blk.charge_instr(((e - s) as u64).div_ceil(32).max(1) * 2);
                    // generic engine tax: `comp` UDF dispatch per arc
                    blk.charge_instr((e - s) as u64 * costs.gswitch_arc_cycles / 32);
                    // Warp-vectorized arc visit: one scattered warp gather
                    // for the lanes' degree probes (charge-identical to a
                    // per-lane sector each), then per-lane
                    // decrement-and-recover.
                    let mut j = s;
                    while j < e {
                        let cnt = (e - j).min(WARP_SIZE);
                        let mut idxs = [0usize; WARP_SIZE];
                        for (l, slot) in idxs[..cnt].iter_mut().enumerate() {
                            *slot = neighbors[j + l].load(Ordering::Relaxed) as usize;
                        }
                        let mut degs = [0u32; WARP_SIZE];
                        blk.gather(deg, &idxs[..cnt], &mut degs[..cnt], Coalescing::Scattered);
                        for l in 0..cnt {
                            if degs[l] > k {
                                let old = blk.atomic_sub(&deg[idxs[l]], 1);
                                if old <= k {
                                    blk.atomic_add(&deg[idxs[l]], 1);
                                }
                                // newly degree-k neighbors are found by the
                                // next sweep (dense mode needs no explicit
                                // frontier)
                            }
                        }
                        j += cnt;
                    }
                }
                Ok(())
            };
            ctx.launch("gswitch_fused", launch, fused)?;
            ctx.add_overhead_s(costs.gswitch_subiter_s)?;
            ctx.set_phase("Sync");
            let processed = ctx.dtoh(d_len, 0..1)?[0];
            // Observability: vertices this sweep peeled (free — charges
            // nothing).
            ctx.sample_counter("frontier", processed as f64);
            if processed == 0 {
                break;
            }
        }
        let _ = k;
    }
    ctx.set_phase("Result");
    let core = ctx.dtoh(d_deg, ..)?;
    let _ = (d_flist, d_fbitmap, d_eaux);
    Ok((core, iterations))
}

#[cfg(test)]
mod tests {
    use crate::testutil::expect;
    use crate::{Engine, EngineOptions};
    use kcore_gpu::Run;
    use kcore_gpusim::SimOptions;
    use kcore_graph::{gen, Csr};

    fn gswitch(g: &Csr, k_max: u32) -> Run {
        let opts = EngineOptions {
            k_max,
            ..EngineOptions::default()
        };
        Engine::Gswitch
            .run(g, &SimOptions::default(), &opts)
            .unwrap()
    }

    #[test]
    fn oversized_hint_is_harmless() {
        assert_eq!(gswitch(&gen::cycle(30), 10).core, vec![2; 30]);
    }

    #[test]
    fn undersized_hint_leaves_deep_cores_unpeeled() {
        // star: k_max = 1, all cores 1, but the center's raw degree is 4.
        // With hint 0 no round-1 peeling happens, so the center's degree
        // never converges down to its core number.
        let g = gen::star(4);
        let run = gswitch(&g, 0);
        assert_ne!(run.core, expect(&g));
        assert_eq!(run.core[0], 4); // untouched raw degree
    }

    #[test]
    fn dense_sweep_counts_iterations() {
        // Dense sweeps may absorb an entire cascade in one pass (a block
        // scanning left-to-right chases the chain), so we only require the
        // structural minimum: at least one productive sweep plus the empty
        // termination sweep, per non-empty round.
        let g = gen::path(100);
        let e = expect(&g);
        let run = gswitch(&g, kcore_cpu::k_max(&e));
        assert_eq!(run.core, e);
        assert!(run.iterations >= 3, "got {}", run.iterations);
    }
}
