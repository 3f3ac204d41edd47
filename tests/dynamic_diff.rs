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

use kcore::cpu::incremental::DynamicGraph;
use kcore::gpu::{BatchPath, DynamicConfig, DynamicCore, SimOptions};
use kcore::gpusim::LaunchConfig;
use kcore::graph::{builder::from_edges, gen, Csr, EdgeUpdate};
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

/// DESIGN.md's "Why per-edge traversals" counterexample. On the 4-cycle
/// 0-1-2-3 every core is 2, and both chords have `K = 2`. Either chord alone
/// leaves every core at 2; both together make K4, where every core is 3. A
/// traversal per same-`K` group would have to find that rise although no
/// single edge of the group causes it.
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
    let rep = dc
        .apply_batch(&[EdgeUpdate::Insert(0, 2), EdgeUpdate::Insert(1, 3)])
        .unwrap();
    assert_eq!(rep.path, BatchPath::Maintained);
    assert_eq!(rep.net_inserts, 2);
    assert_eq!(rep.changed, 4);
    assert_eq!(dc.cores(), [3, 3, 3, 3]);
    assert_eq!(dc.device_cores(), [3, 3, 3, 3]);
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
