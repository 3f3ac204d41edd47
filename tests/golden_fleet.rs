//! Integration tests for the fleet observability layer (DESIGN.md "Fleet
//! observability & the exchange ledger"): the fleet trace and the merged
//! multi-device Perfetto export must be byte-identical at any rayon pool
//! size and match checked-in FNV digests; per-device rollups must tile each
//! worker's kernel time; and capturing the fleet view must not perturb the
//! run it observes.
//!
//! After an *intentional* change to the ledger schema or the merged export,
//! regenerate the golden file:
//!
//! ```bash
//! KCORE_BLESS=1 cargo test --test golden_fleet
//! ```

use kcore::cpu::{self, CoreAlgorithm};
use kcore::gpu::{
    decompose_multi, decompose_multi_fleet, FleetRun, MultiGpuConfig, PeelConfig, SimOptions,
};
use kcore::gpusim::{fnv1a_bytes, DeviceRollup, LaunchConfig, SCHEMA_VERSION};
use kcore::graph::gen;
use proptest::prelude::*;
use serde::Serialize;
use std::path::PathBuf;

fn golden_cfg() -> MultiGpuConfig {
    MultiGpuConfig {
        num_gpus: 4,
        peel: PeelConfig::default().with_launch(LaunchConfig {
            blocks: 16,
            threads_per_block: 128,
        }),
        ..MultiGpuConfig::default()
    }
}

fn golden_run() -> FleetRun {
    let g = gen::rmat(9, 2_000, gen::RmatParams::graph500(), 7);
    decompose_multi_fleet(&g, &golden_cfg(), &SimOptions::default(), "fleet_rmat9").unwrap()
}

/// Digest projection of the fleet artifacts. The FNVs pin every byte of the
/// `.fleet.json` document (the ledger with its worker traces) and the merged
/// Perfetto document — any reordering, a lost flow event, or a
/// nondeterministic field fails CI.
#[derive(Serialize)]
struct GoldenFleet {
    schema_version: u32,
    num_devices: usize,
    rounds: usize,
    exchange_rounds: u64,
    border_packets: u64,
    exchanged_bytes: u64,
    total_ms_bits: String,
    fleet_json_fnv: String,
    merged_perfetto_fnv: String,
}

#[test]
fn fleet_artifacts_match_golden_at_all_pool_sizes() {
    let fr = golden_run();
    fr.fleet.check_well_formed(&fr.traces).unwrap();
    let g = gen::rmat(9, 2_000, gen::RmatParams::graph500(), 7);
    assert_eq!(fr.run.core, cpu::bz::Bz.run(&g));

    let base_json = fr.fleet.to_json(&fr.traces);
    let base_perfetto = fr.fleet.merged_chrome_json(&fr.traces, &fr.timelines);

    // Byte-identity across rayon pool sizes: both artifacts, not just the
    // scalars — counter ordering and flow ids must be deterministic too.
    for threads in [1usize, 2, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let fr2 = pool.install(golden_run);
        assert_eq!(
            fr2.fleet.to_json(&fr2.traces),
            base_json,
            "fleet trace diverged at pool {threads}"
        );
        assert_eq!(
            fr2.fleet.merged_chrome_json(&fr2.traces, &fr2.timelines),
            base_perfetto,
            "merged Perfetto diverged at pool {threads}"
        );
    }

    let golden = GoldenFleet {
        schema_version: SCHEMA_VERSION,
        num_devices: fr.fleet.num_devices,
        rounds: fr.fleet.rounds.len(),
        exchange_rounds: fr.run.exchange_rounds,
        border_packets: fr.run.border_packets,
        exchanged_bytes: fr.fleet.exchanged_bytes,
        total_ms_bits: format!("{:#018x}", fr.fleet.total_ms.to_bits()),
        fleet_json_fnv: format!("{:#018x}", fnv1a_bytes(base_json.as_bytes())),
        merged_perfetto_fnv: format!("{:#018x}", fnv1a_bytes(base_perfetto.as_bytes())),
    };
    let got = serde_json::to_string_pretty(&golden).unwrap();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fleet_rmat9.json");
    kcore_bench::assert_golden(&path, &got);
}

/// The fleet view is an observer: the run it returns must be bit-identical
/// to the untraced sharded run, and its worker traces must carry that run's
/// fingerprints.
#[test]
fn fleet_capture_is_bit_identical_to_traced_run() {
    let g = gen::rmat(9, 2_000, gen::RmatParams::graph500(), 7);
    let fr = golden_run();
    let run = decompose_multi(&g, &golden_cfg(), &SimOptions::default()).unwrap();
    assert_eq!(fr.run.core, run.core);
    assert_eq!(fr.run.total_ms.to_bits(), run.total_ms.to_bits());
    assert_eq!(fr.run.exchanged_bytes, run.exchanged_bytes);
    assert_eq!(fr.run.worker_fingerprints, run.worker_fingerprints);
    let fleet_fps: Vec<u64> = fr.traces.iter().map(|t| t.counters_fingerprint()).collect();
    assert_eq!(
        fleet_fps, run.worker_fingerprints,
        "worker traces must be unperturbed"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The rollup derived from each worker's trace tiles that worker's
    /// kernel time: the roofline decomposition may not lose or invent
    /// simulated time, on any graph and at any shard count.
    #[test]
    fn rollup_buckets_tile_worker_kernel_time(seed in 0u64..10_000, p in 2usize..6) {
        let g = gen::erdos_renyi_gnm(300 + (seed % 5) as u32 * 40, 900 + seed % 800, seed);
        let cfg = MultiGpuConfig {
            num_gpus: p,
            peel: PeelConfig {
                launch: LaunchConfig { blocks: 8, threads_per_block: 64 },
                buf_capacity: 4_096,
                ..PeelConfig::default()
            },
            ..MultiGpuConfig::default()
        };
        let fr = decompose_multi_fleet(&g, &cfg, &SimOptions::default(), "proptest").unwrap();
        fr.fleet.check_well_formed(&fr.traces).unwrap();
        prop_assert_eq!(fr.traces.len(), p);
        for (d, t) in fr.traces.iter().enumerate() {
            let r = DeviceRollup::from_trace(d, t);
            let bucket_sum: f64 = r.buckets().iter().map(|(_, ms)| ms).sum();
            let worker_total: f64 = t.launches.iter().map(|l| l.time_ms).sum();
            prop_assert!(
                (bucket_sum - r.kernel_ms).abs() <= 1e-9 * r.kernel_ms.max(1.0),
                "buckets {} != rollup kernel_ms {}", bucket_sum, r.kernel_ms
            );
            prop_assert!(
                (r.kernel_ms - worker_total).abs() <= 1e-9 * worker_total.max(1.0),
                "rollup {} != worker kernel total {}", r.kernel_ms, worker_total
            );
        }
    }
}
