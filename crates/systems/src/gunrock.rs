//! Gunrock-style frontier-centric peeling (Wang et al., PPoPP'16).
//!
//! Gunrock's data-centric abstraction expresses an algorithm as operations
//! on a frontier: **advance** (visit the arcs of frontier vertices,
//! load-balanced across threads) and **filter** (compact the output
//! frontier). Its k-core app runs, per round `k`, an initial filter over all
//! vertices followed by advance/filter sub-iterations until the k-shell
//! stops cascading.
//!
//! Costs reproduced: per-arc load-balanced advance (coalesced frontier
//! reads, scattered degree atomics), an extra compaction pass over every
//! output frontier, several kernel launches plus a host synchronization per
//! sub-iteration ([`crate::FrameworkCosts::gunrock_subiter_s`]), and
//! edge-capacity frontier scratch that inflates the memory footprint
//! (Table V).

use crate::FrameworkCosts;
use kcore_gpusim::warp::WARP_SIZE;
use kcore_gpusim::{
    narrow_offsets, BlockCtx, Coalescing, GpuContext, KernelError, LaunchConfig, SimError,
    SizeClass,
};
use kcore_graph::Csr;
use std::sync::atomic::Ordering;

/// Runs Gunrock-style peeling to completion in `ctx`.
pub(crate) fn peel_in(
    ctx: &mut GpuContext,
    g: &Csr,
    costs: &FrameworkCosts,
) -> Result<(Vec<u32>, u64), SimError> {
    let n = g.num_vertices() as usize;
    if n == 0 {
        return Ok((Vec::new(), 0));
    }
    ctx.set_phase("Setup");
    ctx.set_workload_dims(n as u64, g.num_arcs());
    let offsets32 = narrow_offsets(g.offsets())?;
    let d_offsets = ctx.htod("gunrock.offset", &offsets32, SizeClass::PerVertex)?;
    let d_neighbors = ctx.htod("gunrock.neighbors", g.neighbor_array(), SizeClass::PerArc)?;
    let d_deg = ctx.htod("gunrock.deg", &g.degrees(), SizeClass::PerVertex)?;
    // Frontier double buffer (vertex frontiers) + edge-capacity scratch the
    // runtime keeps for advance output before filtering.
    let d_f_in = ctx.alloc("gunrock.frontier_in", n, SizeClass::PerVertex)?;
    let d_f_out = ctx.alloc("gunrock.frontier_out", n, SizeClass::PerVertex)?;
    // Edge-sized runtime structures: a CSC duplicate (Gunrock builds both
    // orientations), the advance output scratch, and per-edge flags for the
    // load-balanced partitioning — the footprint that makes Gunrock OOM
    // earlier than GSWITCH in Tables III/V.
    // arcs + n + 1 words: arc-dominated, so `PerArc` is the closest
    // linear tag (the n+1 offset tail under-scales by a hair — see
    // DESIGN.md on why extrapolation is linear per class)
    let d_csc = ctx.alloc(
        "gunrock.csc",
        g.num_arcs() as usize + n + 1,
        SizeClass::PerArc,
    )?;
    let d_escratch = ctx.alloc(
        "gunrock.edge_scratch",
        g.num_arcs() as usize,
        SizeClass::PerArc,
    )?;
    let d_eflags = ctx.alloc(
        "gunrock.edge_flags",
        g.num_arcs() as usize,
        SizeClass::PerArc,
    )?;
    let d_len = ctx.alloc("gunrock.frontier_len", 1, SizeClass::Fixed)?;
    let launch = LaunchConfig::paper();

    let mut removed = 0u64;
    let mut k = 0u32;
    let mut iterations = 0u64;
    while removed < n as u64 {
        // Initial filter over all vertices: deg == k joins the frontier.
        ctx.set_phase("Filter");
        let filter_init = |blk: &mut BlockCtx<'_>| {
            let d = blk.device;
            let deg = d.buffer(d_deg);
            let f_in = d.buffer(d_f_in);
            let len = &d.buffer(d_len)[0];
            let blocks = blk.cfg.blocks as usize;
            let b = blk.block_idx as usize;
            let (lo, hi) = (b * n / blocks, (b + 1) * n / blocks);
            blk.charge_tx(BlockCtx::coalesced_tx((hi - lo) as u64));
            blk.charge_instr(((hi - lo) as u64).div_ceil(32));
            for v in lo..hi {
                if deg[v].load(Ordering::Relaxed) == k {
                    let slot = blk.atomic_add(len, 1) as usize;
                    f_in[slot].store(v as u32, Ordering::Relaxed);
                    blk.charge_sector(1);
                }
            }
            Ok(())
        };
        ctx.launch("gunrock_filter_init", launch, filter_init)?;
        ctx.set_phase("Sync");
        let mut flen = ctx.dtoh(d_len, 0..1)?[0] as u64;
        // Observability: post-filter frontier length (free — charges nothing).
        ctx.sample_counter("frontier", flen as f64);
        ctx.add_overhead_s(costs.gunrock_subiter_s)?;

        let mut bufs = [d_f_in, d_f_out];
        while flen > 0 {
            iterations += 1;
            removed += flen;
            let (f_cur, f_nxt) = (bufs[0], bufs[1]);
            // reset output length
            ctx.set_phase("Reset");
            ctx.launch(
                "gunrock_reset",
                LaunchConfig {
                    blocks: 1,
                    threads_per_block: 32,
                },
                |blk| {
                    blk.gwrite(&blk.device.buffer(d_len)[0], 0);
                    Ok(())
                },
            )?;
            // Advance: visit the arcs of every frontier vertex, load-balanced.
            let flen_now = flen as usize;
            ctx.set_phase("Advance");
            let advance = |blk: &mut BlockCtx<'_>| {
                let d = blk.device;
                let offsets = d.buffer(d_offsets);
                let neighbors = d.buffer(d_neighbors);
                let deg = d.buffer(d_deg);
                let fin = d.buffer(f_cur);
                let fout = d.buffer(f_nxt);
                let len = &d.buffer(d_len)[0];
                let blocks = blk.cfg.blocks as usize;
                let b = blk.block_idx as usize;
                let (lo, hi) = (b * flen_now / blocks, (b + 1) * flen_now / blocks);
                blk.charge_tx(BlockCtx::coalesced_tx((hi - lo) as u64)); // frontier read
                for i in lo..hi {
                    let v = fin[i].load(Ordering::Relaxed) as usize;
                    blk.charge_sector(1); // row offsets
                    let (s, e) = (
                        offsets[v].load(Ordering::Relaxed) as usize,
                        offsets[v + 1].load(Ordering::Relaxed) as usize,
                    );
                    blk.charge_tx(BlockCtx::coalesced_tx((e - s) as u64)); // neighbor ids
                    blk.charge_instr(((e - s) as u64).div_ceil(32).max(1) * 2);
                    // generic advance operator tax: UDF dispatch +
                    // load-balancing bookkeeping per arc
                    blk.charge_instr((e - s) as u64 * costs.gunrock_arc_cycles / 32);
                    // Warp-vectorized arc visit: gather the lanes' degree
                    // probes in one warp access (scattered — charge-identical
                    // to a per-lane sector probe), then resolve the
                    // decrement-and-recover protocol per lane.
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
                            let u = idxs[l];
                            if degs[l] > k {
                                let old = blk.atomic_sub(&deg[u], 1);
                                if old == k + 1 {
                                    let slot = blk.atomic_add(len, 1) as usize;
                                    if slot >= n {
                                        return Err(KernelError::BufferOverflow {
                                            what: "gunrock frontier".into(),
                                        });
                                    }
                                    fout[slot].store(u as u32, Ordering::Relaxed);
                                    blk.charge_sector(1);
                                } else if old <= k {
                                    blk.atomic_add(&deg[u], 1);
                                }
                            }
                        }
                        j += cnt;
                    }
                }
                Ok(())
            };
            ctx.launch("gunrock_advance", launch, advance)?;
            ctx.set_phase("Sync");
            let out_len = ctx.dtoh(d_len, 0..1)?[0] as u64;
            ctx.sample_counter("frontier", out_len as f64);
            // Filter: compaction/validation pass over the output frontier.
            if out_len > 0 {
                ctx.set_phase("Filter");
                ctx.launch("gunrock_filter", launch, |blk| {
                    let blocks = blk.cfg.blocks as usize;
                    let b = blk.block_idx as usize;
                    let (lo, hi) = (
                        b * out_len as usize / blocks,
                        (b + 1) * out_len as usize / blocks,
                    );
                    blk.charge_tx(2 * BlockCtx::coalesced_tx((hi - lo) as u64)); // read + rewrite
                    blk.charge_instr(((hi - lo) as u64) * 3 / 32 + 1);
                    Ok(())
                })?;
            }
            ctx.add_overhead_s(costs.gunrock_subiter_s)?;
            flen = out_len;
            bufs.swap(0, 1);
        }
        k += 1;
        if k as usize > n + 1 {
            return Err(SimError::Kernel(KernelError::Other(
                "gunrock peel did not converge".into(),
            )));
        }
    }
    ctx.set_phase("Result");
    let core = ctx.dtoh(d_deg, ..)?;
    let _ = (d_csc, d_escratch, d_eflags); // retained for the runtime's footprint
    Ok((core, iterations))
}

#[cfg(test)]
mod tests {
    use crate::{Engine, EngineOptions};
    use kcore_gpusim::SimOptions;
    use kcore_graph::gen;

    #[test]
    fn memory_footprint_includes_edge_scratch() {
        let g = gen::erdos_renyi_gnm(1_000, 8_000, 4);
        let run = Engine::Gunrock
            .run(&g, &SimOptions::default(), &EngineOptions::default())
            .unwrap();
        // CSR ~ (n+1 + 2m + n) words; scratch adds 2m words more
        let csr_words = (1_001 + 16_000 + 1_000) as u64;
        assert!(run.report.peak_mem_bytes > csr_words * 4 + 16_000 * 4);
        assert!(run.iterations > 0);
    }
}
