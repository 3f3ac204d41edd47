//! Integration tests for edge-partitioned sharded decomposition (DESIGN.md
//! "Sharded decomposition"): the sharded path must equal BZ on adversarial
//! graphs and at several shard counts, be bit-identical at any rayon pool
//! size, and match a checked-in golden that pins every worker's per-phase
//! counters plus the exchange volume.
//!
//! After an *intentional* change to the sharded kernels or the exchange
//! protocol, regenerate the golden file:
//!
//! ```bash
//! KCORE_BLESS=1 cargo test --test multi_shard
//! ```

use kcore::cpu::{self, CoreAlgorithm};
use kcore::gpu::{
    decompose_multi, decompose_multi_fleet, FleetRun, MultiGpuConfig, MultiGpuRun, PeelConfig,
    SimOptions,
};
use kcore::gpusim::{Counters, LaunchConfig, TRACE_SCHEMA_VERSION};
use kcore::graph::{gen, Csr, PartitionStrategy};
use proptest::prelude::*;
use serde::Serialize;
use std::path::PathBuf;

fn small_cfg(p: usize, strategy: PartitionStrategy) -> MultiGpuConfig {
    MultiGpuConfig {
        num_gpus: p,
        partition: strategy,
        peel: PeelConfig {
            launch: LaunchConfig {
                blocks: 8,
                threads_per_block: 64,
            },
            buf_capacity: 4_096,
            ..PeelConfig::default()
        },
        ..MultiGpuConfig::default()
    }
}

// ---------------------------------------------------------------------------
// Shard counts
// ---------------------------------------------------------------------------

/// Sharded ≡ BZ at several shard counts and under both partitioners.
#[test]
fn exec_paths_agree_at_all_shard_counts() {
    let g = gen::web_crawl(2_000, 9, 0.55, 4_500, 21);
    let truth = cpu::bz::Bz.run(&g);
    for strategy in [
        PartitionStrategy::BalancedArcs,
        PartitionStrategy::DegreeAware,
    ] {
        for p in [2usize, 4, 8] {
            let run = decompose_multi(&g, &small_cfg(p, strategy), &SimOptions::default()).unwrap();
            assert_eq!(run.core, truth, "p={p} {}", strategy.name());
        }
    }
}

// ---------------------------------------------------------------------------
// Pool-size determinism on adversarial graphs
// ---------------------------------------------------------------------------

/// Runs the same sharded decomposition under rayon pools of 1, 2, and 8
/// threads and asserts the outputs are bit-identical: core vector, worker
/// trace JSONs, exchange volume, sub-round count, simulated time.
fn traced(g: &Csr, cfg: &MultiGpuConfig) -> (MultiGpuRun, Vec<kcore::gpusim::Trace>) {
    let FleetRun { run, traces, .. } =
        decompose_multi_fleet(g, cfg, &SimOptions::default(), "shard").unwrap();
    (run, traces)
}

fn assert_pool_invariant(g: &Csr, cfg: &MultiGpuConfig) -> MultiGpuRun {
    let (base, base_traces) = traced(g, cfg);
    let base_json: Vec<String> = base_traces.iter().map(|t| t.to_json()).collect();
    for threads in [1usize, 2, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let (run, traces) = pool.install(|| traced(g, cfg));
        assert_eq!(run.core, base.core, "core diverged at pool {threads}");
        assert_eq!(run.sub_rounds, base.sub_rounds);
        assert_eq!(run.exchanged_bytes, base.exchanged_bytes);
        assert_eq!(run.worker_fingerprints, base.worker_fingerprints);
        assert_eq!(
            run.total_ms.to_bits(),
            base.total_ms.to_bits(),
            "simulated time diverged at pool {threads}"
        );
        let json: Vec<String> = traces.iter().map(|t| t.to_json()).collect();
        assert_eq!(json, base_json, "worker traces diverged at pool {threads}");
    }
    base
}

#[test]
fn adversarial_graphs_match_bz_at_all_pool_sizes() {
    // Hubs whose neighborhoods straddle every shard border, a path whose
    // single shell must cascade through each border in turn, and a clique
    // union with isolated vertices where some shards go idle early.
    let cases: Vec<(Csr, usize)> = vec![
        (gen::power_law_hubs(1_200, 2_400, 4, 0.3, 11), 4),
        (gen::path(600), 5),
        (gen::overlapping_cliques(400, 60, 3..=8, 13), 3),
    ];
    for (g, p) in &cases {
        let truth = cpu::bz::Bz.run(g);
        for strategy in [
            PartitionStrategy::BalancedArcs,
            PartitionStrategy::DegreeAware,
        ] {
            let run = assert_pool_invariant(g, &small_cfg(*p, strategy));
            assert_eq!(run.core, truth, "p={p} {}", strategy.name());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random graphs, random shard counts, both partitioners: sharded ≡ BZ.
    #[test]
    fn sharded_matches_bz(seed in 0u64..10_000, p in 1usize..9, degree_aware in any::<bool>()) {
        let g = gen::erdos_renyi_gnm(300 + (seed % 7) as u32 * 50, 900 + seed % 1_000, seed);
        let strategy = if degree_aware {
            PartitionStrategy::DegreeAware
        } else {
            PartitionStrategy::BalancedArcs
        };
        let run = decompose_multi(&g, &small_cfg(p, strategy), &SimOptions::default()).unwrap();
        prop_assert_eq!(run.core, cpu::bz::Bz.run(&g));
    }
}

// ---------------------------------------------------------------------------
// Checked-in golden for the sharded run
// ---------------------------------------------------------------------------

/// Timing-free projection of a sharded run: per-worker per-phase launch
/// counts and counters plus the run-level merge invariants. Pins the whole
/// distributed execution — a lost exchange, an extra sub-round, or a
/// mischarged kernel fails CI even when the core vector is still right.
#[derive(Serialize)]
struct GoldenMulti {
    schema_version: u32,
    sub_rounds: u32,
    rounds: u32,
    exchanged_bytes: u64,
    per_device_peak_bytes: Vec<u64>,
    workers: Vec<GoldenWorker>,
}

#[derive(Serialize)]
struct GoldenWorker {
    fingerprint: String,
    phases: Vec<GoldenPhase>,
}

#[derive(Serialize)]
struct GoldenPhase {
    phase: &'static str,
    launches: u64,
    h2d_bytes: u64,
    d2h_bytes: u64,
    counters: Counters,
}

#[test]
fn sharded_run_matches_checked_in_golden() {
    let g = gen::rmat(9, 2_000, gen::RmatParams::graph500(), 7);
    let cfg = MultiGpuConfig {
        num_gpus: 4,
        peel: PeelConfig::default().with_launch(LaunchConfig {
            blocks: 16,
            threads_per_block: 128,
        }),
        ..MultiGpuConfig::default()
    };
    let (run, traces) = traced(&g, &cfg);
    assert_eq!(run.core, cpu::bz::Bz.run(&g));
    let golden = GoldenMulti {
        schema_version: TRACE_SCHEMA_VERSION,
        sub_rounds: run.sub_rounds,
        rounds: run.rounds,
        exchanged_bytes: run.exchanged_bytes,
        per_device_peak_bytes: run.per_device_peak_bytes.clone(),
        workers: traces
            .iter()
            .map(|t| GoldenWorker {
                fingerprint: format!("{:#018x}", t.counters_fingerprint()),
                phases: t
                    .phases
                    .iter()
                    .map(|p| GoldenPhase {
                        phase: p.phase,
                        launches: p.launches,
                        h2d_bytes: p.h2d_bytes,
                        d2h_bytes: p.d2h_bytes,
                        counters: p.counters,
                    })
                    .collect(),
            })
            .collect(),
    };
    let got = serde_json::to_string_pretty(&golden).unwrap();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/multi_rmat9.json");
    if std::env::var("KCORE_BLESS").is_ok() {
        std::fs::write(&path, &got).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden file {} ({e}); run with KCORE_BLESS=1 to create it",
            path.display()
        )
    });
    let want_schema = kcore_bench::regress::parse_json(&want)
        .ok()
        .and_then(|v| {
            kcore_bench::regress::get(&v, "schema_version").and_then(kcore_bench::regress::as_u64)
        })
        .unwrap_or(1);
    assert_eq!(
        want_schema, TRACE_SCHEMA_VERSION as u64,
        "golden blessed under trace schema {want_schema}, current is {TRACE_SCHEMA_VERSION}; \
         refusing to diff across schemas — regenerate with KCORE_BLESS=1"
    );
    assert_eq!(
        got,
        want,
        "sharded execution diverged from {}; if the change is intentional, \
         regenerate with KCORE_BLESS=1",
        path.display()
    );
}
