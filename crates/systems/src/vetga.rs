//! VETGA — vectorized k-core decomposition for GPU acceleration
//! (Mehrafsa, Chester, Thomo; SSDBM'20).
//!
//! VETGA reframes peeling entirely in terms of whole-array vector
//! primitives (mask, gather, scatter-add, where, any) so PyTorch can execute
//! it on a GPU. Per sub-iteration the runtime dispatches ~8 primitives, each
//! a full pass over an `n`- or `m`-sized tensor, with PyTorch's per-kernel
//! dispatch overhead ([`crate::FrameworkCosts::vetga_dispatch_s`]) —
//! there is no frontier: cost is `O(n + m)` per sub-iteration regardless of
//! shell size, which is why VETGA trails the tailor-made kernels by 1–2
//! orders of magnitude.
//!
//! The Python-side **graph loading** phase is also modelled
//! ([`load_time_ms`]), apart from the run: the paper's Table III reports
//! "LD > 1hr" for the four billion-edge crawls even after the authors
//! optimized the loader.

use crate::FrameworkCosts;
use kcore_gpusim::{BlockCtx, GpuContext, LaunchConfig, SimError, SizeClass};
use kcore_graph::Csr;
use std::sync::atomic::Ordering;

/// Charges one vector primitive: dispatch overhead + a streaming pass.
fn vec_pass(
    ctx: &mut GpuContext,
    name: &'static str,
    words: u64,
    dispatch_s: f64,
) -> Result<(), SimError> {
    ctx.set_phase("Primitive");
    ctx.add_overhead_s(dispatch_s)?;
    ctx.launch(name, LaunchConfig::paper(), move |blk| {
        let blocks = blk.cfg.blocks as u64;
        let share = words / blocks + 1;
        blk.charge_tx(BlockCtx::coalesced_tx(share));
        blk.charge_instr(share.div_ceil(32));
        Ok(())
    })
}

/// Modelled Python-side loading time for `g`, ms — reported apart from
/// the run, as the paper excludes it from computation time but flags
/// "LD > 1hr".
pub fn load_time_ms(g: &Csr, costs: &FrameworkCosts) -> f64 {
    g.num_edges() as f64 * costs.vetga_load_s_per_edge * 1e3
}

/// Runs VETGA's vector-primitive peeling in `ctx`.
pub(crate) fn peel_in(
    ctx: &mut GpuContext,
    g: &Csr,
    costs: &FrameworkCosts,
) -> Result<(Vec<u32>, u64), SimError> {
    let n = g.num_vertices() as usize;
    let m_arcs = g.num_arcs() as usize;
    if n == 0 {
        return Ok((Vec::new(), 0));
    }

    // Tensors: src/dst per arc (COO, what torch scatter ops consume), plus
    // degree / alive / frontier / contribution vectors.
    ctx.set_phase("Setup");
    ctx.set_workload_dims(n as u64, g.num_arcs());
    let mut src = vec![0u32; m_arcs];
    for v in 0..g.num_vertices() {
        let (s, e) = (
            g.offsets()[v as usize] as usize,
            g.offsets()[v as usize + 1] as usize,
        );
        src[s..e].fill(v);
    }
    let d_src = ctx.htod("vetga.src", &src, SizeClass::PerArc)?;
    let d_dst = ctx.htod("vetga.dst", g.neighbor_array(), SizeClass::PerArc)?;
    let d_deg = ctx.htod("vetga.deg", &g.degrees(), SizeClass::PerVertex)?;
    let d_core = ctx.alloc("vetga.core", n, SizeClass::PerVertex)?;
    let d_alive = ctx.alloc("vetga.alive", n, SizeClass::PerVertex)?;
    let d_frontier = ctx.alloc("vetga.frontier", n, SizeClass::PerVertex)?;
    let d_contrib = ctx.alloc("vetga.contrib", m_arcs, SizeClass::PerArc)?;
    ctx.device.fill(d_alive, 1);

    let nn = n as u64;
    let mm = m_arcs as u64;
    let mut removed = 0u64;
    let mut k = 0u32;
    let mut iterations = 0u64;
    while removed < nn {
        loop {
            iterations += 1;
            // 1) frontier = alive & (deg <= k)           [n-pass mask]
            vec_pass(ctx, "vetga_mask", 3 * nn, costs.vetga_dispatch_s)?;
            let mut any = 0u64;
            {
                let deg = ctx.device.buffer(d_deg);
                let alive = ctx.device.buffer(d_alive);
                let fr = ctx.device.buffer(d_frontier);
                for v in 0..n {
                    let f = alive[v].load(Ordering::Relaxed) == 1
                        && deg[v].load(Ordering::Relaxed) <= k;
                    fr[v].store(f as u32, Ordering::Relaxed);
                    any += f as u64;
                }
            }
            // 2) any(frontier)                            [n-pass reduce + sync]
            vec_pass(ctx, "vetga_any", nn, costs.vetga_dispatch_s)?;
            ctx.set_phase("Sync");
            ctx.dtoh(d_frontier, 0..1)?; // host sync for the Python `if`
            if any == 0 {
                break;
            }
            removed += any;
            // 3) core = where(frontier, k, core)          [n-pass]
            vec_pass(ctx, "vetga_where_core", 2 * nn, costs.vetga_dispatch_s)?;
            // 4) alive = alive & !frontier                [n-pass]
            vec_pass(ctx, "vetga_andnot", 2 * nn, costs.vetga_dispatch_s)?;
            {
                let fr = ctx.device.buffer(d_frontier);
                let alive = ctx.device.buffer(d_alive);
                let core = ctx.device.buffer(d_core);
                for v in 0..n {
                    if fr[v].load(Ordering::Relaxed) == 1 {
                        core[v].store(k, Ordering::Relaxed);
                        alive[v].store(0, Ordering::Relaxed);
                    }
                }
            }
            // 5) contrib = gather(frontier, src)          [m-pass gather]
            vec_pass(ctx, "vetga_gather", 2 * mm, costs.vetga_dispatch_s)?;
            // 6) delta = scatter_add(contrib, dst)        [m-pass scatter]
            vec_pass(
                ctx,
                "vetga_scatter_add",
                2 * mm + nn,
                costs.vetga_dispatch_s,
            )?;
            // 7) deg = deg - delta                         [n-pass]
            // 8) deg = max(deg, k)  (floor, keeps removed vertices at core)
            vec_pass(ctx, "vetga_sub_clamp", 3 * nn, costs.vetga_dispatch_s)?;
            {
                let fr = ctx.device.buffer(d_frontier);
                let srcb = ctx.device.buffer(d_src);
                let dstb = ctx.device.buffer(d_dst);
                let contrib = ctx.device.buffer(d_contrib);
                let deg = ctx.device.buffer(d_deg);
                let alive = ctx.device.buffer(d_alive);
                for j in 0..m_arcs {
                    let c = fr[srcb[j].load(Ordering::Relaxed) as usize].load(Ordering::Relaxed);
                    contrib[j].store(c, Ordering::Relaxed);
                }
                for j in 0..m_arcs {
                    if contrib[j].load(Ordering::Relaxed) == 1 {
                        let t = dstb[j].load(Ordering::Relaxed) as usize;
                        if alive[t].load(Ordering::Relaxed) == 1 {
                            // cannot underflow: each arc contributes at most
                            // once across the whole run, so total decrements
                            // never exceed the initial degree. Batch
                            // removals may push deg below k — the `<= k`
                            // frontier mask of the next sub-iteration is
                            // what assigns those vertices core k.
                            deg[t].fetch_sub(1, Ordering::Relaxed);
                        }
                    }
                }
            }
        }
        k += 1;
        if k as usize > n + 1 {
            return Err(SimError::Kernel(kcore_gpusim::KernelError::Other(
                "vetga did not converge".into(),
            )));
        }
    }
    ctx.set_phase("Result");
    let core = ctx.dtoh(d_core, ..)?;
    Ok((core, iterations))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, EngineOptions};
    use kcore_gpusim::SimOptions;
    use kcore_graph::gen;

    #[test]
    fn load_time_scales_with_edges() {
        let small = gen::erdos_renyi_gnm(100, 200, 1);
        let large = gen::erdos_renyi_gnm(100, 2_000, 1);
        let c = FrameworkCosts::default();
        assert!(load_time_ms(&large, &c) > 5.0 * load_time_ms(&small, &c));
    }

    #[test]
    fn cost_is_shell_size_independent() {
        // a single-round graph (path) still pays full-array passes per
        // sub-iteration: iterations * (n+m) traffic dwarfs the shell sizes
        let g = gen::path(2_000);
        let r = Engine::Vetga
            .run(&g, &SimOptions::default(), &EngineOptions::default())
            .unwrap();
        assert_eq!(r.core, vec![1; 2_000]);
        assert!(
            r.iterations > 500,
            "path cascades one hop per sub-iteration"
        );
    }
}
