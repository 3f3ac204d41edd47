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
use kcore::gpusim::{fnv1a_bytes, LaunchConfig, FLEET_SCHEMA_VERSION, TRACE_SCHEMA_VERSION};
use kcore::graph::{gen, PartitionStrategy};
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
/// ledger JSON and the merged Perfetto document — any reordering, a lost
/// flow event, or a nondeterministic field fails CI.
#[derive(Serialize)]
struct GoldenFleet {
    schema_version: u32,
    trace_schema_version: u32,
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
    fr.fleet.check_well_formed().unwrap();
    let g = gen::rmat(9, 2_000, gen::RmatParams::graph500(), 7);
    assert_eq!(fr.run.core, cpu::bz::Bz.run(&g));

    let base_json = fr.fleet.to_json();
    let base_perfetto = fr.fleet.merged_chrome_json(&fr.timelines);

    // Byte-identity across rayon pool sizes: both artifacts, not just the
    // scalars — counter ordering and flow ids must be deterministic too.
    for threads in [1usize, 2, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let fr2 = pool.install(golden_run);
        assert_eq!(
            fr2.fleet.to_json(),
            base_json,
            "fleet trace diverged at pool {threads}"
        );
        assert_eq!(
            fr2.fleet.merged_chrome_json(&fr2.timelines),
            base_perfetto,
            "merged Perfetto diverged at pool {threads}"
        );
    }

    let golden = GoldenFleet {
        schema_version: FLEET_SCHEMA_VERSION,
        trace_schema_version: TRACE_SCHEMA_VERSION,
        num_devices: fr.fleet.num_devices,
        rounds: fr.fleet.rounds.len(),
        exchange_rounds: fr.fleet.exchange_rounds,
        border_packets: fr.fleet.border_packets,
        exchanged_bytes: fr.fleet.exchanged_bytes,
        total_ms_bits: format!("{:#018x}", fr.fleet.total_ms.to_bits()),
        fleet_json_fnv: format!("{:#018x}", fnv1a_bytes(base_json.as_bytes())),
        merged_perfetto_fnv: format!("{:#018x}", fnv1a_bytes(base_perfetto.as_bytes())),
    };
    let got = serde_json::to_string_pretty(&golden).unwrap();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fleet_rmat9.json");
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
        .unwrap_or(0);
    assert_eq!(
        want_schema, FLEET_SCHEMA_VERSION as u64,
        "golden blessed under fleet schema {want_schema}, current is {FLEET_SCHEMA_VERSION}; \
         refusing to diff across schemas — regenerate with KCORE_BLESS=1"
    );
    let want_trace_schema = kcore_bench::regress::parse_json(&want)
        .ok()
        .and_then(|v| {
            kcore_bench::regress::get(&v, "trace_schema_version")
                .and_then(kcore_bench::regress::as_u64)
        })
        .unwrap_or(0);
    assert_eq!(
        want_trace_schema, TRACE_SCHEMA_VERSION as u64,
        "golden blessed under trace schema {want_trace_schema}, current is \
         {TRACE_SCHEMA_VERSION}; refusing to diff across schemas — regenerate with KCORE_BLESS=1"
    );
    assert_eq!(
        got,
        want,
        "fleet artifacts diverged from {}; if the change is intentional, \
         regenerate with KCORE_BLESS=1",
        path.display()
    );
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

    /// Per-device rollup buckets tile each worker's kernel time: the
    /// roofline decomposition may not lose or invent simulated time, on any
    /// graph and at any shard count.
    #[test]
    fn rollup_buckets_tile_worker_kernel_time(seed in 0u64..10_000, p in 2usize..6) {
        let g = gen::erdos_renyi_gnm(300 + (seed % 5) as u32 * 40, 900 + seed % 800, seed);
        let cfg = MultiGpuConfig {
            num_gpus: p,
            partition: if seed % 2 == 0 {
                PartitionStrategy::BalancedArcs
            } else {
                PartitionStrategy::DegreeAware
            },
            peel: PeelConfig {
                launch: LaunchConfig { blocks: 8, threads_per_block: 64 },
                buf_capacity: 4_096,
                ..PeelConfig::default()
            },
            ..MultiGpuConfig::default()
        };
        let fr = decompose_multi_fleet(&g, &cfg, &SimOptions::default(), "proptest").unwrap();
        fr.fleet.check_well_formed().unwrap();
        prop_assert_eq!(fr.fleet.device_rollups.len(), fr.traces.len());
        for (r, t) in fr.fleet.device_rollups.iter().zip(&fr.traces) {
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
