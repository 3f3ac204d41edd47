//! Integration tests for edge-partitioned sharded decomposition (DESIGN.md
//! "Sharded decomposition"): the sharded path must equal BZ on adversarial
//! graphs and at several shard counts, be bit-identical at any rayon pool
//! size, charge at one device exactly what the single-device engine
//! charges, refuse bad device counts and link constants with a typed
//! error, and match two checked-in goldens: one pins every worker's
//! per-phase counters plus the exchange volume at four devices, the other
//! the simulated time, exchange counts and worker fingerprints at 2, 3, 8
//! and 16 devices.
//!
//! After an *intentional* change to the sharded kernels or the exchange
//! protocol, regenerate the golden files:
//!
//! ```bash
//! KCORE_BLESS=1 cargo test --test multi_shard
//! ```

use kcore::cpu::{self, CoreAlgorithm};
use kcore::gpu::{
    decompose, decompose_multi, decompose_multi_fleet, FleetRun, MultiGpuConfig, MultiGpuRun,
    PeelConfig, SimOptions,
};
use kcore::gpusim::{Counters, LaunchConfig, SimError, SCHEMA_VERSION};
use kcore::graph::{gen, Csr};
use proptest::prelude::*;
use serde::Serialize;
use std::path::PathBuf;

fn small_cfg(p: usize) -> MultiGpuConfig {
    MultiGpuConfig {
        num_gpus: p,
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

/// Sharded ≡ BZ at several shard counts.
#[test]
fn exec_paths_agree_at_all_shard_counts() {
    let g = gen::web_crawl(2_000, 9, 0.55, 4_500, 21);
    let truth = cpu::bz::Bz.run(&g);
    for p in [2usize, 4, 8] {
        let run = decompose_multi(&g, &small_cfg(p), &SimOptions::default()).unwrap();
        assert_eq!(run.core, truth, "p={p}");
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
        let run = assert_pool_invariant(g, &small_cfg(*p));
        assert_eq!(run.core, cpu::bz::Bz.run(g), "p={p}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random graphs, random shard counts: sharded ≡ BZ.
    #[test]
    fn sharded_matches_bz(seed in 0u64..10_000, p in 1usize..9) {
        let g = gen::erdos_renyi_gnm(300 + (seed % 7) as u32 * 50, 900 + seed % 1_000, seed);
        let run = decompose_multi(&g, &small_cfg(p), &SimOptions::default()).unwrap();
        prop_assert_eq!(run.core, cpu::bz::Bz.run(&g));
    }

    /// At one device the fleet clock is that device's clock: over random
    /// graphs, launch geometries and kernel variants, the sharded engine
    /// charges the single-device engine's `total_ms` to the bit.
    #[test]
    fn one_device_charges_what_the_single_device_engine_charges(
        seed in 0u64..10_000,
        blocks in 1u32..9,
        warps in 1u32..9,
        buf_capacity in 2_048usize..6_144,
        ring_buffer in any::<bool>(),
        variant in 0usize..9,
    ) {
        let g = if seed % 2 == 0 {
            gen::erdos_renyi_gnm(200 + (seed % 9) as u32 * 50, 600 + seed % 2_000, seed)
        } else {
            gen::rmat(8 + (seed % 3) as u32, 1_500 + seed % 2_000, gen::RmatParams::graph500(), seed)
        };
        let base = PeelConfig {
            launch: LaunchConfig { blocks, threads_per_block: 32 * warps },
            buf_capacity,
            ring_buffer,
            ..PeelConfig::default()
        };
        let peel = base.all_variants()[variant];
        let cfg = MultiGpuConfig { num_gpus: 1, peel, ..MultiGpuConfig::default() };
        let sharded = decompose_multi(&g, &cfg, &SimOptions::default()).unwrap();
        let single = decompose(&g, &peel, &SimOptions::default()).unwrap();
        prop_assert_eq!(&sharded.core, &single.core);
        prop_assert_eq!(
            sharded.total_ms.to_bits(),
            single.report.total_ms.to_bits(),
            "sharded p=1 {} ms vs single-device {} ms ({})",
            sharded.total_ms,
            single.report.total_ms,
            peel.variant_name()
        );
    }
}

// ---------------------------------------------------------------------------
// Configuration errors
// ---------------------------------------------------------------------------

/// Zero devices is a typed error from both sharded entry points, on an
/// empty graph as on any other.
#[test]
fn zero_devices_is_a_typed_error() {
    let cfg = small_cfg(0);
    let want = SimError::InvalidConfig {
        what: "num_gpus",
        value: 0.0,
        need: "at least 1",
    };
    for g in [Csr::empty(0), gen::path(10)] {
        let opts = SimOptions::default();
        assert_eq!(decompose_multi(&g, &cfg, &opts).unwrap_err(), want);
        assert_eq!(
            decompose_multi_fleet(&g, &cfg, &opts, "zero").unwrap_err(),
            want
        );
    }
    assert_eq!(
        want.to_string(),
        "invalid configuration: num_gpus = 0 (need at least 1)"
    );
}

/// Link constants that would charge a NaN, infinite or negative time, and
/// more devices than a sharded run builds, are typed errors from both
/// sharded entry points rather than a nonsense total or a panic.
#[test]
fn bad_link_constants_and_device_counts_are_typed_errors() {
    let rmat = gen::rmat(9, 2_000, gen::RmatParams::graph500(), 7);
    let path = gen::path(70_001);
    let link = |latency: f64, bandwidth: f64| MultiGpuConfig {
        link_latency_s: latency,
        link_bandwidth: bandwidth,
        ..small_cfg(2)
    };
    let cases = [
        (&rmat, link(f64::NAN, 10e9), "link_latency_s"),
        (&rmat, link(-1.0, 10e9), "link_latency_s"),
        (&rmat, link(f64::INFINITY, 10e9), "link_latency_s"),
        (&rmat, link(10e-6, f64::NAN), "link_bandwidth"),
        (&rmat, link(10e-6, 0.0), "link_bandwidth"),
        (&rmat, link(10e-6, f64::INFINITY), "link_bandwidth"),
        (&path, small_cfg(70_000), "num_gpus"),
    ];
    let opts = SimOptions::default();
    for (g, cfg, want) in cases {
        let label = format!(
            "{want}: latency {} bandwidth {} p={}",
            cfg.link_latency_s, cfg.link_bandwidth, cfg.num_gpus
        );
        let errs = [
            decompose_multi(g, &cfg, &opts).map(|r| r.total_ms),
            decompose_multi_fleet(g, &cfg, &opts, "bad").map(|f| f.run.total_ms),
        ];
        for err in errs {
            match err {
                Err(SimError::InvalidConfig { what, .. }) => assert_eq!(what, want, "{label}"),
                other => panic!("{label}: {other:?}"),
            }
        }
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
        schema_version: SCHEMA_VERSION,
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
    kcore_bench::assert_golden(&path, &got);
}

/// One `decompose_multi` run at one shard count, as the shard-count golden
/// pins it: the simulated time to the bit, the exchange counts, and each
/// worker's counters fingerprint.
#[derive(Serialize)]
struct GoldenShardCount {
    graph: &'static str,
    p: usize,
    total_ms_bits: String,
    sub_rounds: u32,
    exchanged_bytes: u64,
    exchange_rounds: u64,
    border_packets: u64,
    worker_fingerprints: Vec<String>,
}

/// The border exchange beyond four devices: uneven shard counts, shards of a
/// few dozen vertices, a path whose one shell crosses every border, and a
/// random graph whose border seeds a shard receives out of order, so the
/// ascending seed order shows in its worker fingerprints at p = 3, 8 and 16.
#[test]
fn shard_counts_match_checked_in_golden() {
    let graphs = [
        ("rmat9", gen::rmat(9, 2_000, gen::RmatParams::graph500(), 7)),
        ("path600", gen::path(600)),
        ("er3000", gen::erdos_renyi_gnm(3_000, 12_000, 5)),
    ];
    let mut cells = Vec::new();
    for (name, g) in &graphs {
        for p in [2usize, 3, 8, 16] {
            let cfg = MultiGpuConfig {
                num_gpus: p,
                peel: PeelConfig::default().with_launch(LaunchConfig {
                    blocks: 16,
                    threads_per_block: 128,
                }),
                ..MultiGpuConfig::default()
            };
            let run = decompose_multi(g, &cfg, &SimOptions::default()).unwrap();
            assert_eq!(run.core, cpu::bz::Bz.run(g), "{name} p={p}");
            cells.push(GoldenShardCount {
                graph: name,
                p,
                total_ms_bits: format!("{:#018x}", run.total_ms.to_bits()),
                sub_rounds: run.sub_rounds,
                exchanged_bytes: run.exchanged_bytes,
                exchange_rounds: run.exchange_rounds,
                border_packets: run.border_packets,
                worker_fingerprints: run
                    .worker_fingerprints
                    .iter()
                    .map(|f| format!("{f:#018x}"))
                    .collect(),
            });
        }
    }
    let got = serde_json::to_string_pretty(&cells).unwrap();
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/multi_shard_counts.json");
    kcore_bench::assert_golden(&path, &got);
}
