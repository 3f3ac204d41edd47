//! Medusa-style vertex-centric BSP (Zhong & He, 2014).
//!
//! Medusa strictly mimics Pregel: users write `SendMessage` /
//! `CombineMessage` / `UpdateVertex` UDFs and the runtime materializes a
//! per-edge message array each superstep. The performance-relevant
//! mechanics reproduced here:
//!
//! * **dense messaging** — *every* vertex writes a message on *every* arc,
//!   every superstep, through a precomputed reverse index (scattered
//!   writes);
//! * **thread-per-vertex execution** — a warp serializes on the
//!   largest-degree vertex among its 32 (no load-balanced advance in 2014);
//! * **three kernels + a host round trip per superstep** (send,
//!   combine/update, flag readback).
//!
//! Two programs, as in §V: [`Engine::MedusaMpm`](crate::Engine::MedusaMpm)
//! (h-index refinement) and [`Engine::MedusaPeel`](crate::Engine::MedusaPeel)
//! (edge-centric peeling with an added outer round loop).

use crate::FrameworkCosts;
use kcore_gpusim::warp::WARP_SIZE;
use kcore_gpusim::{
    narrow_offsets, BlockCtx, BufferId, Coalescing, GpuContext, LaunchConfig, SimError, SizeClass,
};
use kcore_graph::Csr;
use std::sync::atomic::{AtomicU32, Ordering};

/// SendMessage's scattered per-arc broadcast: stores `val` to
/// `msg[ridx[j]]` for every arc of `v`, one warp-granularity
/// [`BlockCtx::scatter`] per 32 arcs. Charge-identical to the per-lane
/// form (`Coalescing::Scattered` bills one 32-byte sector per arc).
fn scatter_messages(
    blk: &mut BlockCtx<'_>,
    ridx: &[AtomicU32],
    msg: &[AtomicU32],
    s: usize,
    e: usize,
    val: u32,
) {
    let vals = [val; WARP_SIZE];
    let mut j = s;
    while j < e {
        let cnt = (e - j).min(WARP_SIZE);
        let mut idxs = [0usize; WARP_SIZE];
        for (l, slot) in idxs[..cnt].iter_mut().enumerate() {
            *slot = ridx[j + l].load(Ordering::Relaxed) as usize;
        }
        blk.scatter(msg, &idxs[..cnt], &vals[..cnt], Coalescing::Scattered);
        j += cnt;
    }
}

/// Number of vertices a Medusa "block" owns per launch (vertex-partitioned).
fn block_range(blk: &BlockCtx<'_>, n: usize) -> (usize, usize) {
    let b = blk.block_idx as usize;
    let blocks = blk.cfg.blocks as usize;
    (b * n / blocks, (b + 1) * n / blocks)
}

/// Charges the thread-per-vertex divergence model: each 32-vertex group
/// costs `max(degree in group) * cycles_per_msg` warp instructions.
fn charge_vertex_groups(
    blk: &mut BlockCtx<'_>,
    degs: impl Iterator<Item = u32>,
    cycles_per_msg: u64,
) {
    let mut group_max = 0u32;
    let mut in_group = 0u32;
    for d in degs {
        group_max = group_max.max(d);
        in_group += 1;
        if in_group == 32 {
            blk.charge_instr(group_max as u64 * cycles_per_msg);
            group_max = 0;
            in_group = 0;
        }
    }
    if in_group > 0 {
        blk.charge_instr(group_max as u64 * cycles_per_msg);
    }
}

/// Device-side graph + messaging plumbing shared by both programs.
struct MedusaDev {
    n: usize,
    d_offsets: BufferId,
    /// Held for the device-footprint accounting (the runtime keeps the
    /// adjacency resident even though the UDF programs read via `ridx`).
    #[allow(dead_code)]
    d_neighbors: BufferId,
    d_ridx: BufferId,
    d_msg: BufferId,
    d_flag: BufferId,
    launch: LaunchConfig,
}

impl MedusaDev {
    fn load(ctx: &mut GpuContext, g: &Csr) -> Result<Self, SimError> {
        ctx.set_phase("Setup");
        ctx.set_workload_dims(u64::from(g.num_vertices()), g.num_arcs());
        let n = g.num_vertices() as usize;
        let offsets32 = narrow_offsets(g.offsets())?;
        let d_offsets = ctx.htod("medusa.offset", &offsets32, SizeClass::PerVertex)?;
        let d_neighbors = ctx.htod("medusa.neighbors", g.neighbor_array(), SizeClass::PerArc)?;
        // Reverse index: arc j (u→v, at position j of u's list) delivers its
        // message into v's incoming slot — the position of u in v's list.
        // Every slot is below the arc count, which `narrow_offsets` bounded
        // below 2^32 - 1.
        let mut ridx = vec![0u32; g.num_arcs() as usize];
        for u in 0..g.num_vertices() {
            let base = g.offsets()[u as usize] as usize;
            for (off, &v) in g.neighbors(u).iter().enumerate() {
                let pos_in_v = g.neighbors(v).binary_search(&u).expect("symmetric graph");
                ridx[base + off] = (g.offsets()[v as usize] as usize + pos_in_v) as u32;
            }
        }
        let d_ridx = ctx.htod("medusa.ridx", &ridx, SizeClass::PerArc)?;
        let d_msg = ctx.alloc("medusa.msg", g.num_arcs() as usize, SizeClass::PerArc)?;
        // Medusa's runtime additionally materializes an edge list (source
        // and destination arrays) for its edge-oriented message plumbing —
        // part of why the system OOMs the large crawls in Table III/V.
        let _d_esrc = ctx.alloc("medusa.edge_src", g.num_arcs() as usize, SizeClass::PerArc)?;
        let _d_edst = ctx.alloc("medusa.edge_dst", g.num_arcs() as usize, SizeClass::PerArc)?;
        let d_flag = ctx.alloc("medusa.flag", 1, SizeClass::Fixed)?;
        Ok(MedusaDev {
            n,
            d_offsets,
            d_neighbors,
            d_ridx,
            d_msg,
            d_flag,
            launch: LaunchConfig::paper(),
        })
    }

    /// Host-side flag reset, charged as a tiny memset kernel.
    fn reset_flag(&self, ctx: &mut GpuContext) -> Result<(), SimError> {
        let flag = self.d_flag;
        ctx.set_phase("Memset");
        ctx.launch(
            "medusa_memset",
            LaunchConfig {
                blocks: 1,
                threads_per_block: 32,
            },
            move |blk| {
                blk.gwrite(&blk.device.buffer(flag)[0], 0);
                Ok(())
            },
        )
    }
}

/// Medusa-MPM in `ctx`: every vertex repeatedly refines its core estimate
/// with the h-index of its neighbors' estimates, under BSP supersteps,
/// until no estimate changes.
pub(crate) fn mpm_in(
    ctx: &mut GpuContext,
    g: &Csr,
    costs: &FrameworkCosts,
) -> Result<(Vec<u32>, u64), SimError> {
    let n = g.num_vertices() as usize;
    if n == 0 {
        return Ok((Vec::new(), 0));
    }
    let dev = MedusaDev::load(ctx, g)?;
    let d_a = ctx.htod("medusa.a", &g.degrees(), SizeClass::PerVertex)?;
    let d_a_new = ctx.alloc("medusa.a_new", n, SizeClass::PerVertex)?;

    let mut iterations = 0u64;
    let mut bufs = [d_a, d_a_new]; // ping-pong
    loop {
        iterations += 1;
        dev.reset_flag(ctx)?;
        let (cur, next) = (bufs[0], bufs[1]);

        // SendMessage: a(v) broadcast to all neighbors through ridx.
        ctx.set_phase("Send");
        ctx.launch("medusa_send", dev.launch, |blk| {
            let d = blk.device;
            let (lo, hi) = block_range(blk, dev.n);
            let offsets = d.buffer(dev.d_offsets);
            let ridx = d.buffer(dev.d_ridx);
            let msg = d.buffer(dev.d_msg);
            let a = d.buffer(cur);
            charge_vertex_groups(
                blk,
                (lo..hi).map(|v| {
                    offsets[v + 1].load(Ordering::Relaxed) - offsets[v].load(Ordering::Relaxed)
                }),
                costs.medusa_msg_cycles,
            );
            for v in lo..hi {
                let (s, e) = (
                    offsets[v].load(Ordering::Relaxed) as usize,
                    offsets[v + 1].load(Ordering::Relaxed) as usize,
                );
                let av = a[v].load(Ordering::Relaxed);
                blk.charge_tx(BlockCtx::coalesced_tx((e - s) as u64) + 1); // ridx + a[v]
                scatter_messages(blk, ridx, msg, s, e, av);
            }
            Ok(())
        })?;

        // CombineMessage (h-index) + UpdateVertex.
        ctx.set_phase("Update");
        ctx.launch("medusa_update", dev.launch, |blk| {
            let d = blk.device;
            let (lo, hi) = block_range(blk, dev.n);
            let offsets = d.buffer(dev.d_offsets);
            let msg = d.buffer(dev.d_msg);
            let a = d.buffer(cur);
            let a_out = d.buffer(next);
            let flag = &d.buffer(dev.d_flag)[0];
            charge_vertex_groups(
                blk,
                (lo..hi).map(|v| {
                    offsets[v + 1].load(Ordering::Relaxed) - offsets[v].load(Ordering::Relaxed)
                }),
                costs.medusa_hindex_cycles,
            );
            let mut scratch: Vec<u32> = Vec::new();
            for v in lo..hi {
                let (s, e) = (
                    offsets[v].load(Ordering::Relaxed) as usize,
                    offsets[v + 1].load(Ordering::Relaxed) as usize,
                );
                let cur_a = a[v].load(Ordering::Relaxed);
                blk.charge_tx(BlockCtx::coalesced_tx((e - s) as u64) + 1);
                let h = h_index_bounded(
                    (s..e).map(|j| msg[j].load(Ordering::Relaxed)),
                    cur_a,
                    &mut scratch,
                );
                a_out[v].store(h, Ordering::Relaxed);
                blk.charge_sector(1);
                if h != cur_a {
                    blk.atomic_add(flag, 1);
                }
            }
            Ok(())
        })?;

        ctx.set_phase("Sync");
        let changed = ctx.dtoh(dev.d_flag, 0..1)?[0];
        // Observability: estimates that moved this superstep (free).
        ctx.sample_counter("changed", changed as f64);
        bufs.swap(0, 1);
        if changed == 0 {
            break;
        }
    }
    ctx.set_phase("Result");
    let core = ctx.dtoh(bufs[0], ..)?;
    Ok((core, iterations))
}

/// Medusa-Peel in `ctx`: the edge-centric peeling program of §V, with the
/// added outer loop of rounds. Every superstep all vertices send (0 or 1),
/// the sum combiner counts deleted neighbors, and UpdateVertex decrements.
pub(crate) fn peel_in(
    ctx: &mut GpuContext,
    g: &Csr,
    costs: &FrameworkCosts,
) -> Result<(Vec<u32>, u64), SimError> {
    let n = g.num_vertices() as usize;
    if n == 0 {
        return Ok((Vec::new(), 0));
    }
    let dev = MedusaDev::load(ctx, g)?;
    let d_deg = ctx.htod("medusa.deg", &g.degrees(), SizeClass::PerVertex)?;
    let d_core = ctx.alloc("medusa.core", n, SizeClass::PerVertex)?;
    let d_deleted = ctx.alloc("medusa.deleted", n, SizeClass::PerVertex)?;

    let mut iterations = 0u64;
    let mut total_deleted = 0u64;
    let mut k = 0u32;
    while total_deleted < n as u64 {
        // Inner BSP loop: supersteps until a superstep deletes nothing.
        loop {
            iterations += 1;
            dev.reset_flag(ctx)?;

            // SendMessage: k-shell members mark themselves deleted and send
            // 1; everyone else sends 0. All m messages are materialized.
            ctx.set_phase("Send");
            ctx.launch("medusa_send", dev.launch, |blk| {
                let d = blk.device;
                let (lo, hi) = block_range(blk, dev.n);
                let offsets = d.buffer(dev.d_offsets);
                let ridx = d.buffer(dev.d_ridx);
                let msg = d.buffer(dev.d_msg);
                let deg = d.buffer(d_deg);
                let core = d.buffer(d_core);
                let deleted = d.buffer(d_deleted);
                let flag = &d.buffer(dev.d_flag)[0];
                charge_vertex_groups(
                    blk,
                    (lo..hi).map(|v| {
                        offsets[v + 1].load(Ordering::Relaxed) - offsets[v].load(Ordering::Relaxed)
                    }),
                    costs.medusa_msg_cycles,
                );
                for v in lo..hi {
                    let (s, e) = (
                        offsets[v].load(Ordering::Relaxed) as usize,
                        offsets[v + 1].load(Ordering::Relaxed) as usize,
                    );
                    blk.charge_tx(BlockCtx::coalesced_tx((e - s) as u64) + 1);
                    let is_shell = deleted[v].load(Ordering::Relaxed) == 0
                        && deg[v].load(Ordering::Relaxed) <= k;
                    let m_val = if is_shell {
                        core[v].store(k, Ordering::Relaxed);
                        deleted[v].store(1, Ordering::Relaxed);
                        blk.atomic_add(flag, 1);
                        1
                    } else {
                        0
                    };
                    scatter_messages(blk, ridx, msg, s, e, m_val);
                }
                Ok(())
            })?;

            // CombineMessage (sum) + UpdateVertex (degree decrement).
            ctx.set_phase("Update");
            ctx.launch("medusa_update", dev.launch, |blk| {
                let d = blk.device;
                let (lo, hi) = block_range(blk, dev.n);
                let offsets = d.buffer(dev.d_offsets);
                let msg = d.buffer(dev.d_msg);
                let deg = d.buffer(d_deg);
                let deleted = d.buffer(d_deleted);
                charge_vertex_groups(
                    blk,
                    (lo..hi).map(|v| {
                        offsets[v + 1].load(Ordering::Relaxed) - offsets[v].load(Ordering::Relaxed)
                    }),
                    costs.medusa_sum_cycles,
                );
                for v in lo..hi {
                    if deleted[v].load(Ordering::Relaxed) == 1 {
                        continue;
                    }
                    let (s, e) = (
                        offsets[v].load(Ordering::Relaxed) as usize,
                        offsets[v + 1].load(Ordering::Relaxed) as usize,
                    );
                    blk.charge_tx(BlockCtx::coalesced_tx((e - s) as u64) + 1);
                    let cnt: u32 = (s..e).map(|j| msg[j].load(Ordering::Relaxed)).sum();
                    if cnt > 0 {
                        let dv = deg[v].load(Ordering::Relaxed);
                        deg[v].store(dv.saturating_sub(cnt), Ordering::Relaxed);
                        blk.charge_sector(1);
                    }
                }
                Ok(())
            })?;

            ctx.set_phase("Sync");
            let deleted_now = ctx.dtoh(dev.d_flag, 0..1)?[0] as u64;
            // Observability: vertices deleted this superstep (free).
            ctx.sample_counter("frontier", deleted_now as f64);
            total_deleted += deleted_now;
            if deleted_now == 0 {
                break;
            }
        }
        k += 1;
        if k as usize > n + 1 {
            return Err(SimError::Kernel(kcore_gpusim::KernelError::Other(
                "medusa peel did not converge".into(),
            )));
        }
    }
    ctx.set_phase("Result");
    let core = ctx.dtoh(d_core, ..)?;
    Ok((core, iterations))
}

/// h-index with an upper bound (same operator as `kcore-cpu`, local copy to
/// keep the crates decoupled).
fn h_index_bounded(values: impl Iterator<Item = u32>, bound: u32, scratch: &mut Vec<u32>) -> u32 {
    let b = bound as usize;
    scratch.clear();
    scratch.resize(b + 1, 0);
    for v in values {
        scratch[(v as usize).min(b)] += 1;
    }
    let mut at_least = 0u32;
    for i in (1..=b).rev() {
        at_least += scratch[i];
        if at_least as usize >= i {
            return i as u32;
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use crate::{Engine, EngineOptions};
    use kcore_gpu::Run;
    use kcore_gpusim::{SimError, SimOptions};
    use kcore_graph::{gen, Csr};

    fn run(engine: Engine, g: &Csr, sim: &SimOptions) -> Result<Run, SimError> {
        engine.run(g, sim, &EngineOptions::default())
    }

    #[test]
    fn mpm_slower_than_fewer_supersteps_graph() {
        // a path needs many supersteps; a clique converges immediately
        let sim = SimOptions::default();
        let rp = run(Engine::MedusaMpm, &gen::path(128), &sim).unwrap();
        let rc = run(Engine::MedusaMpm, &gen::complete(64), &sim).unwrap();
        assert!(rp.iterations > rc.iterations);
    }

    #[test]
    fn oom_on_tiny_device() {
        let g = gen::erdos_renyi_gnm(1_000, 4_000, 1);
        let small = SimOptions {
            device_capacity_bytes: 1 << 12,
            ..SimOptions::default()
        };
        assert!(matches!(
            run(Engine::MedusaMpm, &g, &small),
            Err(SimError::Oom(_))
        ));
    }

    #[test]
    fn time_limit_trips() {
        let g = gen::erdos_renyi_gnm(2_000, 8_000, 2);
        let o = SimOptions {
            time_limit_ms: Some(1e-6),
            ..SimOptions::default()
        };
        assert!(matches!(
            run(Engine::MedusaPeel, &g, &o),
            Err(SimError::TimeLimit { .. })
        ));
    }
}
