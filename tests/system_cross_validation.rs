//! Property-based cross-validation of the graph-parallel **system**
//! re-implementations (Medusa, Gunrock, GSWITCH, VETGA) against the BZ
//! CPU baseline, one proptest per system, each run through `Engine`. The
//! system baselines take framework shortcuts (hardcoded round counts,
//! message materialization, full-array vector passes), so their *results*
//! agreeing with BZ on arbitrary random graphs is the soundness property
//! the Table III comparison rests on. `invariants.rs::gpu_matches_bz`
//! checks every `Engine::all()` value the same way.

use kcore::cpu::{self, CoreAlgorithm};
use kcore::gpusim::SimOptions;
use kcore::graph::{builder::from_edges, Csr};
use kcore::systems::{Engine, EngineOptions};
use proptest::prelude::*;

/// Strategy: a random simple undirected graph with up to `n` vertices
/// (same shape as `invariants.rs::graph_strategy`).
fn graph_strategy(max_n: u32, max_m: usize) -> impl Strategy<Value = Csr> {
    (2..=max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n), 0..max_m)
            .prop_map(move |edges| from_edges(n, &edges))
    })
}

/// Runs `engine` on `g` and returns its cores next to BZ's. GSWITCH needs
/// the round count up front (§V's hardcoded outer loop); with an exact
/// `k_max` the result must be the exact decomposition.
fn cores_and_truth(engine: Engine, g: &Csr) -> (Vec<u32>, Vec<u32>) {
    let truth = cpu::bz::Bz.run(g);
    let opts = EngineOptions {
        k_max: cpu::k_max(&truth),
        ..EngineOptions::default()
    };
    let run = engine.run(g, &SimOptions::default(), &opts).unwrap();
    (run.core, truth)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn medusa_peel_matches_bz(g in graph_strategy(40, 160)) {
        let (core, truth) = cores_and_truth(Engine::MedusaPeel, &g);
        prop_assert_eq!(core, truth);
    }

    #[test]
    fn medusa_mpm_matches_bz(g in graph_strategy(40, 160)) {
        let (core, truth) = cores_and_truth(Engine::MedusaMpm, &g);
        prop_assert_eq!(core, truth);
    }

    #[test]
    fn gunrock_matches_bz(g in graph_strategy(40, 160)) {
        let (core, truth) = cores_and_truth(Engine::Gunrock, &g);
        prop_assert_eq!(core, truth);
    }

    #[test]
    fn gswitch_matches_bz(g in graph_strategy(40, 160)) {
        let (core, truth) = cores_and_truth(Engine::Gswitch, &g);
        prop_assert_eq!(core, truth);
    }

    #[test]
    fn vetga_matches_bz(g in graph_strategy(40, 160)) {
        let (core, truth) = cores_and_truth(Engine::Vetga, &g);
        prop_assert_eq!(core, truth);
    }
}
