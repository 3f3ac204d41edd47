//! Differential tests for the GPU dynamic k-core maintenance engine
//! (`kcore_gpu::dynamic`): after **every** batch the engine must agree with
//! the CPU oracle (`kcore_cpu::incremental::DynamicGraph`), an edge set
//! whose cores a from-scratch BZ peel re-derives after each batch — the
//! definitional truth. The two share only the batch rule
//! (`kcore_graph::EdgeSet::classify`, tested on its own in `kcore-graph`);
//! no traversal code.
//!
//! The engine's host mirror, its device core array, and its device-resident
//! MCD counters are all checked. Updates are adversarial: interleaved
//! inserts and deletes, duplicate inserts, deletes of absent edges,
//! self-loops and out-of-range endpoints (all of which both sides must
//! reject identically), across batch sizes 1 / 16 / 1024 and rayon pool
//! sizes 1 / 2 / 8. A valid stream (`kcore_bench::ValidChurn`: deletes of
//! present edges, inserts of absent pairs) rides along at batch sizes
//! 1 / 16 / 64, so every delete is accepted and runs the deletion path.
//!
//! The engine runs one traversal per matching of a batch's net deletes or
//! net inserts, every core level on one grid. Batches that are matchings
//! over several core levels, and one small case per hazard of that shared
//! grid, check it at grids of 1, 2 and 16 blocks.

use kcore::cpu::bz;
use kcore::cpu::incremental::DynamicGraph;
use kcore::gpu::{BatchPath, DynamicConfig, DynamicCore, SimOptions};
use kcore::gpusim::LaunchConfig;
use kcore::graph::{builder::from_edges, gen, Csr, EdgeSet, EdgeUpdate};
use kcore_bench::ValidChurn;
use proptest::prelude::*;

fn engine_cfg() -> DynamicConfig {
    DynamicConfig {
        launch: LaunchConfig {
            blocks: 4,
            threads_per_block: 64,
        },
        ..DynamicConfig::default()
    }
}

/// Deterministic xorshift32 churn: endpoints drawn from `0..n + 2` so a few
/// updates are out of range, and `u == v` collisions produce self-loops.
fn churn_ops(n: u32, count: usize, mut state: u32) -> Vec<EdgeUpdate> {
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 17;
        state ^= state << 5;
        state
    };
    (0..count)
        .map(|_| {
            let u = rng() % (n + 2);
            let v = rng() % (n + 2);
            if rng() % 2 == 0 {
                EdgeUpdate::Insert(u, v)
            } else {
                EdgeUpdate::Delete(u, v)
            }
        })
        .collect()
}

/// Runs `ops` through the GPU engine in `batch_size` chunks, checking after
/// every batch that the engine's host cores, device cores and device MCD
/// equal the oracle's, and that nothing is rejected when the stream is
/// `valid`. Returns the final core numbers.
fn run_diff(
    g: &Csr,
    ops: &[EdgeUpdate],
    batch_size: usize,
    cfg: DynamicConfig,
    valid: bool,
) -> Vec<u32> {
    let mut dc = DynamicCore::from_csr(&SimOptions::default(), g, cfg).expect("engine init");
    let mut oracle = DynamicGraph::from_csr(g);
    assert_eq!(dc.cores(), oracle.cores(), "initial state diverges");
    for (bi, batch) in ops.chunks(batch_size).enumerate() {
        let rep = dc.apply_batch(batch).expect("apply_batch");
        let out = oracle.apply_batch(batch);
        assert!(
            !valid || rep.rejected == 0,
            "batch {bi}: the engine rejected {} updates of a valid stream",
            rep.rejected
        );
        // Both sides validate sequentially against the batch prefix, so
        // they must reject exactly the same updates.
        assert_eq!(
            rep.rejected, out.rejected,
            "batch {bi}: rejection count diverges from the CPU oracle"
        );
        assert_eq!(
            rep.accepted_inserts + rep.accepted_deletes,
            out.accepted_inserts + out.accepted_deletes,
            "batch {bi}: accepted count diverges from the CPU oracle"
        );
        assert_eq!(
            dc.cores(),
            oracle.cores(),
            "batch {bi} (size {batch_size}): GPU cores diverge from CPU oracle"
        );
        assert_eq!(
            dc.device_cores(),
            oracle.cores(),
            "batch {bi}: device core array diverges from host mirror"
        );
        assert_eq!(
            dc.device_mcd(),
            oracle.mcd(),
            "batch {bi}: device MCD counters diverge from oracle"
        );
    }
    dc.cores().to_vec()
}

#[test]
fn fixed_churn_agrees_at_every_batch_size() {
    let g = gen::erdos_renyi_gnm(64, 160, 9);
    let ops = churn_ops(64, 180, 0x2545_f491);
    let mut finals = Vec::new();
    for bs in [1usize, 16, 1024] {
        finals.push(run_diff(&g, &ops, bs, engine_cfg(), false));
    }
    // Cores are a function of the final graph: batch size must not matter.
    assert_eq!(finals[0], finals[1]);
    assert_eq!(finals[0], finals[2]);
}

/// Valid churn on an ER and an R-MAT graph: every update is accepted, so
/// half the stream exercises the deletion cascade (random pairs almost
/// never name a present edge).
#[test]
fn valid_churn_agrees_at_every_batch_size() {
    let graphs = [
        gen::erdos_renyi_gnm(64, 160, 9),
        gen::rmat(7, 600, gen::RmatParams::graph500(), 3),
    ];
    for g in &graphs {
        for bs in [1usize, 16, 64] {
            let mut churn = ValidChurn::new(g, 0x5eed + bs as u64);
            let ops: Vec<EdgeUpdate> = (0..192 / bs).flat_map(|_| churn.next_batch(bs)).collect();
            run_diff(g, &ops, bs, engine_cfg(), true);
        }
    }
}

#[test]
fn traces_are_bit_identical_across_rayon_pool_sizes() {
    let g = gen::erdos_renyi_gnm(48, 120, 5);
    let ops = churn_ops(48, 96, 0xdead_beef);
    let capture = || {
        let mut dc =
            DynamicCore::from_csr(&SimOptions::default(), &g, engine_cfg()).expect("engine init");
        for batch in ops.chunks(16) {
            dc.apply_batch(batch).expect("apply_batch");
        }
        let cores = dc.cores().to_vec();
        let trace = dc.ctx_mut().trace("pool");
        (cores, trace.counters_fingerprint(), trace.to_json())
    };
    let (ref_cores, ref_fp, ref_json) = capture();
    for threads in [1usize, 2, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let (cores, fp, json) = pool.install(capture);
        assert_eq!(cores, ref_cores, "cores diverged with {threads} threads");
        assert_eq!(fp, ref_fp, "fingerprint diverged with {threads} threads");
        assert_eq!(json, ref_json, "trace diverged with {threads} threads");
    }
}

#[test]
fn crossover_repeel_lands_in_the_same_state_as_maintenance() {
    let g = gen::erdos_renyi_gnm(56, 130, 21);
    let ops = churn_ops(56, 140, 0x0bad_cafe);
    let maintained = run_diff(&g, &ops, 1024, engine_cfg(), false);
    let repeeled = run_diff(
        &g,
        &ops,
        1024,
        DynamicConfig {
            crossover: 1,
            ..engine_cfg()
        },
        false,
    );
    assert_eq!(maintained, repeeled);
}

#[test]
fn empty_batches_and_all_rejected_batches_are_noops() {
    let g = gen::erdos_renyi_gnm(32, 64, 2);
    let mut dc =
        DynamicCore::from_csr(&SimOptions::default(), &g, engine_cfg()).expect("engine init");
    let before = dc.cores().to_vec();
    let rep = dc.apply_batch(&[]).unwrap();
    assert_eq!(rep.path, BatchPath::Noop);
    let rep = dc
        .apply_batch(&[
            EdgeUpdate::Insert(5, 5),
            EdgeUpdate::Insert(0, 4_000_000),
            EdgeUpdate::Delete(31, 31),
        ])
        .unwrap();
    assert_eq!(rep.path, BatchPath::Noop);
    assert_eq!(rep.rejected, 3);
    assert_eq!(dc.cores(), &before[..]);
}

/// DESIGN.md's "Why one traversal per matching" example. On the 4-cycle
/// 0-1-2-3 every core is 2, and both chords have `K = 2`. Either chord alone
/// leaves every core at 2; both together make K4, where every core is 3.
/// The chords form one matching, whose one traversal must find that rise
/// although no single edge of it causes it.
#[test]
fn same_k_insertions_change_cores_only_together() {
    let cycle = from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
    let engine = || DynamicCore::from_csr(&SimOptions::default(), &cycle, engine_cfg()).unwrap();
    for chord in [EdgeUpdate::Insert(0, 2), EdgeUpdate::Insert(1, 3)] {
        let mut dc = engine();
        assert_eq!(dc.cores(), [2, 2, 2, 2]);
        let rep = dc.apply_batch(&[chord]).unwrap();
        assert_eq!(rep.changed, 0, "{chord:?}");
        assert_eq!(dc.cores(), [2, 2, 2, 2], "{chord:?}");
        assert_eq!(dc.device_cores(), [2, 2, 2, 2], "{chord:?}");
    }
    let mut dc = engine();
    let launches = dc.ctx().launches().len();
    let rep = dc
        .apply_batch(&[EdgeUpdate::Insert(0, 2), EdgeUpdate::Insert(1, 3)])
        .unwrap();
    assert_eq!(rep.path, BatchPath::Maintained);
    assert_eq!(rep.net_inserts, 2);
    assert_eq!(rep.changed, 4);
    assert_eq!(dc.cores(), [3, 3, 3, 3]);
    assert_eq!(dc.device_cores(), [3, 3, 3, 3]);
    // The chords share no vertex: one search, cascade and rise find the
    // rise together, and the batch-end list makes the fourth launch.
    assert_eq!(dc.ctx().launches().len() - launches, 3 + 1);
}

/// The engine configuration at a grid of `blocks` one-warp blocks, so each
/// wave of a block walks one frontier vertex and blocks interleave finely.
fn grid(blocks: u32) -> DynamicConfig {
    DynamicConfig {
        launch: LaunchConfig {
            blocks,
            threads_per_block: 32,
        },
        ..DynamicConfig::default()
    }
}

/// Applies `batch` to `n` vertices with `edges` at grids of 1, 2 and 16
/// blocks, checking host cores, device cores and device MCD against BZ.
fn one_matching(n: u32, edges: &[(u32, u32)], batch: &[EdgeUpdate]) {
    let g = from_edges(n, edges);
    for blocks in [1, 2, 16] {
        run_diff(&g, batch, batch.len(), grid(blocks), true);
    }
}

/// Shared-grid hazard 1, support. The path 1-0-3 has core 1 and vertex 2
/// core 0. Inserting {2, 0} (level 0) and {1, 3} (level 1) together lifts
/// the triangle to 2 and vertex 2 to 1. Vertex 2 is a candidate of level 0
/// beside level-1 candidate 0, but it ends at core 1, so it must not count
/// in 0's support, which becomes 0's MCD.
#[test]
fn support_counts_only_candidates_of_the_same_level() {
    use EdgeUpdate::Insert;
    one_matching(4, &[(0, 1), (0, 3)], &[Insert(2, 0), Insert(1, 3)]);
}

/// Shared-grid hazard 1, eviction. Vertices 1, 2, 3, 4 and 6 have core 2,
/// and 0 and 5 are isolated. Inserting {4, 6} makes level-2 candidates that
/// the cascade evicts, while {3, 5} and {1, 0} lift 5 and 0 to core 1.
/// Vertex 3 is an evicted candidate that stays at core 2, so its eviction
/// must not take away 5's support, which 3 alone gives.
#[test]
fn eviction_spares_candidates_of_other_levels() {
    use EdgeUpdate::Insert;
    let edges = [(1, 2), (1, 3), (2, 4), (2, 6), (3, 4), (3, 6)];
    one_matching(7, &edges, &[Insert(4, 6), Insert(3, 5), Insert(1, 0)]);
}

/// Shared-grid hazard 2, rise. Vertices 0-4 have core 2 and pendant 5 on
/// vertex 3 core 1. Inserting {1, 0} makes level-2 candidates the cascade
/// evicts, while {2, 5} lifts 5 to core 2. Vertices 2 and 3 are evicted
/// candidates that stay at 2, so each gains one MCD when 5 reaches their
/// core.
#[test]
fn rise_credits_evicted_candidates_of_the_level_above() {
    use EdgeUpdate::Insert;
    let edges = [(0, 2), (0, 3), (1, 2), (1, 4), (2, 3), (3, 4), (3, 5)];
    one_matching(6, &edges, &[Insert(1, 0), Insert(2, 5)]);
}

/// Shared-grid hazard 3, deletion. Vertices 0, 1, 3, 4 form a K4 (core 3)
/// and vertex 2, adjacent to 0 and 4, has core 2. Deleting {0, 2} drops 2
/// to core 1, and deleting {1, 4} drops the K4 to core 2. Walking 2 must
/// not take MCD from 4, which reaches core 2 only as it is walked: taking
/// it from a stale count would drop 4 a second time.
#[test]
fn deletion_recounts_a_dropped_vertex_before_the_level_below_meets_it() {
    use EdgeUpdate::Delete;
    let edges = [
        (0, 1),
        (0, 2),
        (0, 3),
        (0, 4),
        (1, 3),
        (1, 4),
        (2, 4),
        (3, 4),
    ];
    one_matching(5, &edges, &[Delete(4, 1), Delete(0, 2)]);
}

/// Up to `count` batches of `m` updates, each a matching over the graph the
/// batches before it leave: a delete of each present pair, an insert of
/// each absent one. A batch first takes one pair at each of three core
/// levels (the greatest, a middle and the least core present, in that
/// order, so a lower level's pair never takes the vertices a higher one
/// needs), then pairs of random unused vertices; the stream ends early once
/// the graph has fewer than three core levels. Returns the updates and the
/// fewest levels a batch touched, a pair's level being
/// `min(core(u), core(v))` before its batch.
fn matching_batches(g: &Csr, mut state: u32, m: usize, count: usize) -> (Vec<EdgeUpdate>, usize) {
    let n = g.num_vertices();
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 17;
        state ^= state << 5;
        state as usize
    };
    let mut set = EdgeSet::from_csr(g);
    let (mut ops, mut fewest) = (Vec::new(), usize::MAX);
    for _ in 0..count {
        let core = bz::core_numbers(&set.to_csr());
        let mut levels = core.clone();
        levels.sort_unstable();
        levels.dedup();
        if levels.len() < 3 {
            break;
        }
        let wanted = [
            levels[levels.len() - 1],
            levels[levels.len() / 2],
            levels[0],
        ];
        let mut used = vec![false; n as usize];
        let mut batch = Vec::new();
        // A pair of unused vertices: `u` at level `l` and `v` at `l` or
        // above, or any two without a level.
        let mut pick = |want: Option<u32>, batch: &mut Vec<EdgeUpdate>| {
            let mut draw = |fits: &dyn Fn(usize) -> bool, used: &[bool]| {
                let free: Vec<usize> = (0..n as usize).filter(|&x| !used[x] && fits(x)).collect();
                (!free.is_empty()).then(|| free[rng() % free.len()])
            };
            let Some(u) = draw(&|x| want.is_none_or(|l| core[x] == l), &used) else {
                return;
            };
            used[u] = true;
            let Some(v) = draw(&|x| want.is_none_or(|l| core[x] >= l), &used) else {
                used[u] = false;
                return;
            };
            used[v] = true;
            let (u, v) = (u as u32, v as u32);
            batch.push(if set.contains(u, v) {
                EdgeUpdate::Delete(u, v)
            } else {
                EdgeUpdate::Insert(u, v)
            });
        };
        for l in wanted {
            pick(Some(l), &mut batch);
        }
        for _ in batch.len()..m {
            pick(None, &mut batch);
        }
        let mut touched: Vec<u32> = batch
            .iter()
            .map(|e| {
                let (u, v) = e.endpoints();
                core[u as usize].min(core[v as usize])
            })
            .collect();
        touched.sort_unstable();
        touched.dedup();
        fewest = fewest.min(touched.len());
        set.apply(&set.classify(&batch));
        ops.extend(batch);
    }
    (ops, fewest)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random initial graph, random adversarial update stream, random batch
    /// size from {1, 16, 1024}: GPU ≡ CPU oracle ≡ BZ after every batch.
    #[test]
    fn gpu_dynamic_matches_cpu_incremental_and_bz(
        n in 8u32..40,
        edges in proptest::collection::vec((0u32..40, 0u32..40), 0..80),
        raw_ops in proptest::collection::vec((0u32..2, 0u32..44, 0u32..44), 1..48),
        bs_sel in 0usize..3,
    ) {
        let edges: Vec<(u32, u32)> = edges
            .into_iter()
            .map(|(u, v)| (u % n, v % n))
            .collect();
        let g = from_edges(n, &edges);
        // Endpoints in 0..n+4: out-of-range and self-loop attempts ride
        // along with real updates.
        let ops: Vec<EdgeUpdate> = raw_ops
            .into_iter()
            .map(|(kind, u, v)| {
                let (u, v) = (u % (n + 4), v % (n + 4));
                if kind == 0 {
                    EdgeUpdate::Insert(u, v)
                } else {
                    EdgeUpdate::Delete(u, v)
                }
            })
            .collect();
        let bs = [1usize, 16, 1024][bs_sel];
        run_diff(&g, &ops, bs, engine_cfg(), false);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random graphs with planted cliques of cores 2, 4 and 6, and batches
    /// that are matchings of deletes and inserts over at least three core
    /// levels, so each phase of a batch is one traversal on one grid. At
    /// grids of 1, 2 and 16 blocks and in rayon pools of 1, 2 and 8
    /// threads, host cores, device cores and device MCD equal BZ after
    /// every batch.
    #[test]
    fn matchings_over_three_core_levels_match_bz(
        n in 20u32..40,
        extra in proptest::collection::vec((0u32..40, 0u32..40), 0..20),
        seed in 1u32..u32::MAX,
        m in 3usize..8,
        blocks_sel in 0usize..3,
        threads_sel in 0usize..3,
    ) {
        let mut edges: Vec<(u32, u32)> = extra.into_iter().map(|(u, v)| (u % n, v % n)).collect();
        for clique in [0..3u32, 3..8, 8..15] {
            for u in clique.clone() {
                edges.extend((u + 1..clique.end).map(|v| (u, v)));
            }
        }
        let g = from_edges(n, &edges);
        let (ops, fewest) = matching_batches(&g, seed, m, 6);
        prop_assert!(!ops.is_empty() && fewest >= 3, "a batch touched only {} core levels", fewest);
        let threads = [1usize, 2, 8][threads_sel];
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        pool.install(|| run_diff(&g, &ops, m, grid([1, 2, 16][blocks_sel]), true));
    }
}
