//! Cross-implementation agreement: every decomposition implementation in
//! the workspace — the CPU algorithms and every GPU engine of
//! `Engine::all()` — must produce identical core numbers on every graph.

use kcore::cpu::{self, CoreAlgorithm};
use kcore::gpu::{PeelConfig, SimOptions};
use kcore::gpusim::LaunchConfig;
use kcore::graph::{gen, Csr};
use kcore::systems::{Engine, EngineOptions};

fn cpu_algorithms() -> Vec<Box<dyn CoreAlgorithm>> {
    vec![
        Box::new(cpu::bz::Bz),
        Box::new(cpu::naive::Naive),
        Box::new(cpu::park::SerialPark),
        Box::new(cpu::park::ParallelPark { threads: 4 }),
        Box::new(cpu::pkc::SerialPkc),
        Box::new(cpu::pkc::SerialPkcO),
        Box::new(cpu::pkc::ParallelPkc { threads: 4 }),
        Box::new(cpu::pkc::ParallelPkcO { threads: 4 }),
        Box::new(cpu::mpm::SerialMpm),
        Box::new(cpu::mpm::ParallelMpm),
    ]
}

fn check_all(g: &Csr, label: &str) {
    let truth = cpu::verify::reference_core_numbers(g);
    for alg in cpu_algorithms() {
        assert_eq!(alg.run(g), truth, "{label}: CPU {}", alg.name());
    }
    let opts = EngineOptions {
        peel: PeelConfig {
            launch: LaunchConfig {
                blocks: 6,
                threads_per_block: 128,
            },
            buf_capacity: 8_192,
            shared_buf_capacity: 128,
            ..PeelConfig::default()
        },
        k_max: cpu::k_max(&truth),
        ..EngineOptions::default()
    };
    for engine in Engine::all() {
        let run = engine.run(g, &SimOptions::default(), &opts);
        let run = run.unwrap_or_else(|e| panic!("{label}: {}: {e}", engine.name()));
        assert_eq!(run.core, truth, "{label}: GPU {}", engine.name());
    }
}

#[test]
fn fig1_graph() {
    check_all(&kcore::graph::fig1_graph(), "fig1");
}

#[test]
fn structured_graphs() {
    check_all(&gen::complete(12), "K12");
    check_all(&gen::cycle(25), "C25");
    check_all(&gen::path(30), "P30");
    check_all(&gen::star(20), "star20");
    check_all(&gen::grid(6, 7), "grid6x7");
    check_all(&gen::complete_bipartite(4, 9), "K4,9");
}

#[test]
fn edgeless_graphs() {
    check_all(&Csr::empty(0), "empty");
    check_all(&Csr::empty(13), "13 isolated");
}

#[test]
fn random_graphs() {
    for seed in 0..3 {
        check_all(
            &gen::erdos_renyi_gnm(250, 900, seed),
            &format!("gnm seed {seed}"),
        );
    }
}

#[test]
fn skewed_graph() {
    check_all(&gen::power_law_hubs(600, 1_200, 2, 0.25, 3), "hubs");
}

#[test]
fn rmat_graph() {
    check_all(
        &gen::rmat(9, 2_000, gen::RmatParams::graph500(), 5),
        "rmat9",
    );
}

#[test]
fn collaboration_graph() {
    check_all(&gen::overlapping_cliques(300, 120, 2..=6, 8), "collab");
}

#[test]
fn planted_core_graph() {
    let g = gen::plant_clique(&gen::erdos_renyi_gnm(400, 800, 2), 15, 3);
    check_all(&g, "planted clique");
}

#[test]
fn web_graph() {
    check_all(&gen::web_crawl(800, 8, 0.6, 1_500, 4), "web");
}

#[test]
fn temporal_snapshot() {
    let params = kcore::graph::gen::temporal::CorpusParams {
        start_year: 1990,
        end_year: 1994,
        papers_first_year: 30,
        ..Default::default()
    };
    let corpus = kcore::graph::gen::temporal::generate_corpus(&params, 3);
    check_all(&corpus.interaction_snapshot(1994), "temporal");
}
