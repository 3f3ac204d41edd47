//! Integration tests for the extension modules: multi-GPU decomposition
//! (§VII future work), the direct GPU-MPM kernel and streaming core
//! maintenance — all cross-validated against the core pipeline.

use kcore::cpu::{self, CoreAlgorithm};
use kcore::gpu::{decompose, decompose_multi, MultiGpuConfig, PeelConfig, SimOptions};
use kcore::gpusim::LaunchConfig;
use kcore::graph::gen;
use kcore::systems::{Engine, EngineOptions};
use proptest::prelude::*;

fn small_peel() -> PeelConfig {
    PeelConfig {
        launch: LaunchConfig {
            blocks: 8,
            threads_per_block: 64,
        },
        buf_capacity: 4_096,
        ..PeelConfig::default()
    }
}

#[test]
fn multi_gpu_matches_single_gpu_and_bz() {
    let g = gen::web_crawl(4_000, 10, 0.6, 9_000, 12);
    let truth = cpu::bz::Bz.run(&g);
    let single = decompose(&g, &small_peel(), &SimOptions::default()).unwrap();
    assert_eq!(single.core, truth);
    for gpus in [2, 4, 7] {
        let cfg = MultiGpuConfig {
            num_gpus: gpus,
            peel: small_peel(),
            ..MultiGpuConfig::default()
        };
        let multi = decompose_multi(&g, &cfg, &SimOptions::default()).unwrap();
        assert_eq!(multi.core, truth, "{gpus} GPUs");
    }
}

#[test]
fn multi_gpu_memory_splits_but_totals_more() {
    // each worker holds only its compacted shard, but shards overlap at
    // ghost vertices, so the summed footprint exceeds single-GPU while the
    // per-device max shrinks — the trade §VII is about.
    let g = gen::rmat(12, 30_000, gen::RmatParams::graph500(), 5);
    let single = decompose(&g, &small_peel(), &SimOptions::default()).unwrap();
    let cfg = MultiGpuConfig {
        num_gpus: 4,
        peel: small_peel(),
        ..MultiGpuConfig::default()
    };
    let multi = decompose_multi(&g, &cfg, &SimOptions::default()).unwrap();
    assert_eq!(multi.core, single.core);
    let fleet_peak: u64 = multi.per_device_peak_bytes.iter().sum();
    assert!(fleet_peak > single.report.peak_mem_bytes);
}

#[test]
fn gpu_mpm_agrees_and_pays_more_total_work_than_peeling() {
    // MPM recomputes vertices many times (its total workload exceeds
    // peeling's — the §I trade-off), but every implementation agrees.
    let g = gen::rmat(12, 25_000, gen::RmatParams::graph500(), 8);
    let truth = cpu::bz::Bz.run(&g);
    let opts = EngineOptions {
        peel: small_peel(),
        ..EngineOptions::default()
    };
    let [peel, mpm] =
        [Engine::OURS, Engine::GpuMpm].map(|e| e.run(&g, &SimOptions::default(), &opts).unwrap());
    assert_eq!(peel.core, truth);
    assert_eq!(mpm.core, truth);
    // total traffic of MPM exceeds peeling's (each sweep touches all arcs)
    let peel_traffic = peel.report.counters.global_tx + peel.report.counters.global_sectors;
    let mpm_traffic = mpm.report.counters.global_tx + mpm.report.counters.global_sectors;
    assert!(
        mpm_traffic > peel_traffic,
        "MPM traffic {mpm_traffic} should exceed peeling's {peel_traffic}"
    );
}

#[test]
fn gpu_mpm_is_cheaper_than_medusa_mpm() {
    // the point of the tailor-made kernel: no message materialization,
    // no reverse index — less traffic and time than the Medusa version
    let g = gen::rmat(12, 30_000, gen::RmatParams::graph500(), 3);
    let [direct, medusa] = [Engine::GpuMpm, Engine::MedusaMpm].map(|e| {
        e.run(&g, &SimOptions::default(), &EngineOptions::default())
            .unwrap()
    });
    assert_eq!(direct.core, medusa.core);
    assert!(
        direct.report.total_ms < medusa.report.total_ms,
        "direct {} !< medusa {}",
        direct.report.total_ms,
        medusa.report.total_ms
    );
    assert!(direct.report.peak_mem_bytes < medusa.report.peak_mem_bytes);
}

#[test]
fn incremental_maintenance_tracks_growing_snapshot() {
    // mirror the temporal case study: maintain cores incrementally while the
    // co-authorship network grows; cross-check against full recomputation.
    let params = kcore::graph::gen::temporal::CorpusParams {
        start_year: 1990,
        end_year: 1996,
        papers_first_year: 25,
        ..Default::default()
    };
    let corpus = kcore::graph::gen::temporal::generate_corpus(&params, 4);
    let final_g = corpus.interaction_snapshot(1996);
    let mut dyn_g = cpu::incremental::DynamicGraph::new(final_g.num_vertices() as usize);
    for (u, v) in final_g.edges() {
        dyn_g.insert_edge(u, v);
    }
    assert_eq!(dyn_g.cores(), &cpu::bz::Bz.run(&final_g)[..]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Multi-GPU agrees with BZ over random graphs and worker counts.
    #[test]
    fn multi_gpu_random(seed in 0u64..500, gpus in 1usize..6) {
        let g = gen::erdos_renyi_gnm(120, 420, seed);
        let cfg = MultiGpuConfig { num_gpus: gpus, peel: small_peel(), ..MultiGpuConfig::default() };
        let run = decompose_multi(&g, &cfg, &SimOptions::default()).unwrap();
        prop_assert_eq!(run.core, cpu::bz::Bz.run(&g));
    }

    /// Incremental insert+remove round trip restores the original cores.
    #[test]
    fn incremental_round_trip(seed in 0u64..500) {
        let g = gen::erdos_renyi_gnm(60, 150, seed);
        let mut dg = cpu::incremental::DynamicGraph::from_csr(&g);
        let before = dg.cores().to_vec();
        // add a random batch of extra edges, then remove them again
        let extra = gen::erdos_renyi_gnm(60, 80, seed ^ 0xABCD);
        let added: Vec<(u32, u32)> =
            extra.edges().filter(|&(u, v)| dg.insert_edge(u, v)).collect();
        for &(u, v) in added.iter().rev() {
            prop_assert!(dg.remove_edge(u, v));
        }
        prop_assert_eq!(dg.cores(), &before[..]);
    }
}
