//! Exhaustive checks over every small graph: every batch of the dynamic
//! maintenance engine ([`DynamicCore`]) and every run of each
//! [`Engine::all`] value on every graph on a few labelled vertices, each
//! against BZ.
//!
//! The dynamic sweep takes every graph on `n` labelled vertices and applies
//! each non-empty set of its vertex pairs, up to a size, as one toggle
//! batch: a pair of the set is deleted if present and inserted if absent.
//! It then toggles the set back. After every batch the host cores, the
//! device cores and the device MCD must equal BZ's on the toggled graph,
//! the batch must be maintained, and it must make `3·G_I + G_D + 1`
//! launches, `G_I` and `G_D` being the matchings that first fit makes of
//! its net inserts and net deletes (DESIGN.md, "Dynamic maintenance"). The
//! batches reach every shape a shared grid can get wrong: matchings over
//! several core levels, candidates evicted at one level beside others
//! rising at the next, drops cascading across levels.
//!
//! Tier-1 runs the 4-vertex sweeps. The larger ones are ignored by default
//! and run in release in `scripts/ci.sh`:
//!
//! ```bash
//! cargo test --release --test exhaustive -- --include-ignored
//! ```

use kcore::cpu::{self, bz, CoreAlgorithm};
use kcore::gpu::{BatchPath, DynamicConfig, DynamicCore, PeelConfig, SimOptions};
use kcore::gpusim::LaunchConfig;
use kcore::graph::{builder::from_edges, Csr, EdgeUpdate};
use kcore::systems::{Engine, EngineOptions};

/// Every vertex pair of `n` labelled vertices, ascending, the order in
/// which `EdgeSet::classify` lists a batch's net updates.
fn vertex_pairs(n: u32) -> Vec<(u32, u32)> {
    (0..n)
        .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
        .collect()
}

/// The pairs whose bits `mask` sets.
fn pairs_in(pairs: &[(u32, u32)], mask: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
    let bits = pairs.iter().enumerate();
    bits.filter(move |&(i, _)| mask >> i & 1 == 1)
        .map(|(_, &e)| e)
}

/// The graph on `n` vertices whose edges are the pairs in `mask`.
fn graph_of(n: u32, pairs: &[(u32, u32)], mask: u32) -> Csr {
    from_edges(n, &pairs_in(pairs, mask).collect::<Vec<_>>())
}

/// BZ's cores of a graph and the MCD they imply:
/// `mcd(v) = |{u ∈ N(v) : core(u) >= core(v)}|`.
struct Truth {
    core: Vec<u32>,
    mcd: Vec<u32>,
}

fn truth(g: &Csr) -> Truth {
    let core = bz::Bz.run(g);
    let mcd = (0..g.num_vertices())
        .map(|v| {
            let above = g
                .neighbors(v)
                .iter()
                .filter(|&&u| core[u as usize] >= core[v as usize]);
            above.count() as u32
        })
        .collect();
    Truth { core, mcd }
}

/// How many matchings first fit makes of `edges` in list order: each edge
/// joins the first matching that holds neither of its endpoints.
fn first_fit(edges: impl Iterator<Item = (u32, u32)>) -> usize {
    let mut matchings: Vec<u64> = Vec::new();
    for (u, v) in edges {
        let ends = 1 << u | 1 << v;
        match matchings.iter_mut().find(|m| **m & ends == 0) {
            Some(m) => *m |= ends,
            None => matchings.push(ends),
        }
    }
    matchings.len()
}

/// The engine on a grid of `blocks` one-warp blocks; its embedded peel
/// runs on the same grid with 64-word frontier buffers.
fn grid(blocks: u32) -> DynamicConfig {
    let launch = LaunchConfig {
        blocks,
        threads_per_block: 32,
    };
    DynamicConfig {
        launch,
        peel: PeelConfig::default()
            .with_launch(launch)
            .with_buf_capacity(64),
        ..DynamicConfig::default()
    }
}

/// Applies every toggle set of at most `max_set` pairs to every graph on
/// `n` vertices, and then toggles it back, at a grid of `blocks` blocks,
/// checking every batch. Returns the number of batches.
fn sweep(n: u32, max_set: u32, blocks: u32) -> usize {
    let pairs = vertex_pairs(n);
    let graphs = 1u32 << pairs.len();
    let truths: Vec<Truth> = (0..graphs)
        .map(|m| truth(&graph_of(n, &pairs, m)))
        .collect();
    let sets: Vec<u32> = (1..graphs).filter(|s| s.count_ones() <= max_set).collect();
    let mut batches = 0;
    for mask in 0..graphs {
        let g = graph_of(n, &pairs, mask);
        let mut dc =
            DynamicCore::from_csr(&SimOptions::default(), &g, grid(blocks)).expect("engine init");
        assert_eq!(dc.cores(), truths[mask as usize].core, "initial cores");
        for &set in &sets {
            for from in [mask, mask ^ set] {
                let witness = || {
                    let edges: Vec<_> = pairs_in(&pairs, from).collect();
                    let toggled: Vec<_> = pairs_in(&pairs, set).collect();
                    format!(
                        "{n} vertices at {blocks} blocks, graph {edges:?}, toggling {toggled:?}"
                    )
                };
                let batch: Vec<EdgeUpdate> = (0..pairs.len())
                    .filter(|&i| set >> i & 1 == 1)
                    .map(|i| {
                        let (u, v) = pairs[i];
                        if from >> i & 1 == 1 {
                            EdgeUpdate::Delete(u, v)
                        } else {
                            EdgeUpdate::Insert(u, v)
                        }
                    })
                    .collect();
                let g_d = first_fit(pairs_in(&pairs, set & from));
                let g_i = first_fit(pairs_in(&pairs, set & !from));
                let before = dc.ctx().launches().len();
                let rep = dc
                    .apply_batch(&batch)
                    .unwrap_or_else(|e| panic!("{e}: {}", witness()));
                let launches = dc.ctx().launches().len() - before;
                assert_eq!(rep.path, BatchPath::Maintained, "{}", witness());
                assert_eq!(
                    launches,
                    3 * g_i + g_d + 1,
                    "launches with G_I = {g_i}, G_D = {g_d}: {}",
                    witness()
                );
                let want = &truths[(from ^ set) as usize];
                assert_eq!(dc.cores(), want.core, "host cores: {}", witness());
                assert_eq!(dc.device_cores(), want.core, "device cores: {}", witness());
                assert_eq!(dc.device_mcd(), want.mcd, "device MCD: {}", witness());
                batches += 1;
            }
        }
    }
    batches
}

/// Every engine of [`Engine::all`] on every graph on at most `max_n`
/// vertices, on a grid of 4 blocks of 64 threads, against BZ. Returns the
/// number of runs.
fn every_engine(max_n: u32) -> usize {
    let launch = LaunchConfig {
        blocks: 4,
        threads_per_block: 64,
    };
    let peel = PeelConfig::default()
        .with_launch(launch)
        .with_buf_capacity(64);
    let mut runs = 0;
    for n in 0..=max_n {
        let pairs = vertex_pairs(n);
        for mask in 0..1u32 << pairs.len() {
            let g = graph_of(n, &pairs, mask);
            let core = bz::Bz.run(&g);
            let opts = EngineOptions {
                peel,
                k_max: cpu::k_max(&core),
                ..EngineOptions::default()
            };
            for engine in Engine::all() {
                let edges = || pairs_in(&pairs, mask).collect::<Vec<_>>();
                let run = engine
                    .run(&g, &SimOptions::default(), &opts)
                    .unwrap_or_else(|e| {
                        panic!("{}: {e} on {n} vertices, {:?}", engine.name(), edges())
                    });
                assert_eq!(
                    run.core,
                    core,
                    "{} on {n} vertices, {:?}",
                    engine.name(),
                    edges()
                );
                runs += 1;
            }
        }
    }
    runs
}

/// 8,064 batches a grid, at grids of 1, 2 and 16 blocks, in rayon pools of
/// 1 and 2 threads.
#[test]
fn every_batch_on_four_vertices() {
    for threads in [1, 2] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        for blocks in [1, 2, 16] {
            assert_eq!(pool.install(|| sweep(4, 6, blocks)), 64 * 63 * 2);
        }
    }
}

/// 2,095,104 batches at one block.
#[test]
#[ignore = "release only: scripts/ci.sh runs it with --include-ignored"]
fn every_batch_on_five_vertices() {
    assert_eq!(sweep(5, 10, 1), 1024 * 1023 * 2);
}

/// 7,864,320 batches of one or two pairs at two blocks. Some hazards of the
/// shared grid first show on six vertices.
#[test]
#[ignore = "release only: scripts/ci.sh runs it with --include-ignored"]
fn every_batch_of_two_pairs_on_six_vertices() {
    assert_eq!(sweep(6, 2, 2), (1 << 15) * (15 + 105) * 2);
}

/// 1,824 runs: 24 engines on the 76 graphs on at most four vertices.
#[test]
fn every_engine_on_every_graph_on_four_vertices() {
    assert_eq!(every_engine(4), Engine::all().count() * 76);
}

/// 812,832 runs: 24 engines on the 33,868 graphs on at most six vertices.
#[test]
#[ignore = "release only: scripts/ci.sh runs it with --include-ignored"]
fn every_engine_on_every_graph_on_six_vertices() {
    assert_eq!(every_engine(6), Engine::all().count() * 33_868);
}
