//! Differential tests: the production peel against its per-lane reference
//! oracle (DESIGN.md "Fast-path cost accounting").
//!
//! [`kcore_gpu::decompose_in`] runs the warp-vectorized kernels, scan and
//! loop fused into one engine entry per round;
//! [`kcore_gpu::decompose_reference_in`] runs the original per-access
//! kernels as two launches per round. The contract is that the choice is
//! **unobservable**: identical core numbers, identical per-phase counters,
//! identical trace fingerprints, identical Perfetto timeline bytes, and
//! identical errors — across every Table II variant, on randomized graphs,
//! at every rayon pool size.

use kcore_gpu::PeelConfig;
use kcore_gpusim::{GpuContext, LaunchConfig, SimError, SimOptions, Trace};
use kcore_graph::{gen, Csr};

/// A peel entry point: production or reference.
type Peel = fn(&mut GpuContext, &Csr, &PeelConfig) -> Result<(Vec<u32>, u32), SimError>;

const PRODUCTION: Peel = kcore_gpu::decompose_in;
const REFERENCE: Peel = kcore_gpu::decompose_reference_in;

/// Runs one full decomposition and captures (core, rounds, trace JSON,
/// Perfetto JSON).
fn run(peel: Peel, g: &Csr, cfg: &PeelConfig) -> (Vec<u32>, u32, String, String) {
    let mut ctx = SimOptions::default().context();
    ctx.set_block_profiling(true);
    let (core, rounds) = peel(&mut ctx, g, cfg).expect("decompose");
    let timeline = ctx.timeline("diff").to_chrome_json();
    (core, rounds, ctx.trace("diff").to_json(), timeline)
}

fn assert_paths_identical(g: &Csr, cfg: &PeelConfig, what: &str) {
    let reference = run(REFERENCE, g, cfg);
    let got = run(PRODUCTION, g, cfg);
    assert_eq!(got.0, reference.0, "{what}: core numbers diverged");
    assert_eq!(got.1, reference.1, "{what}: round count diverged");
    assert_eq!(got.2, reference.2, "{what}: trace JSON diverged");
    assert_eq!(got.3, reference.3, "{what}: Perfetto timeline diverged");
}

fn small_cfg() -> PeelConfig {
    PeelConfig {
        launch: LaunchConfig {
            blocks: 4,
            threads_per_block: 128,
        },
        buf_capacity: 4_096,
        shared_buf_capacity: 64,
        ..PeelConfig::default()
    }
}

#[test]
fn all_variants_identical_on_rmat() {
    let g = gen::rmat(9, 2_000, gen::RmatParams::graph500(), 7);
    for cfg in small_cfg().all_variants() {
        assert_paths_identical(&g, &cfg, cfg.variant_name());
    }
}

#[test]
fn all_variants_identical_on_random_graphs() {
    for seed in [1u64, 2, 3] {
        let g = gen::erdos_renyi_gnm(600, 2_400, seed);
        for cfg in small_cfg().all_variants() {
            assert_paths_identical(&g, &cfg, &format!("gnm seed {seed} {}", cfg.variant_name()));
        }
    }
}

#[test]
fn identical_on_randomized_geometries() {
    // xorshift-driven random (graph, geometry, variant) draws — the
    // "randomized kernels" sweep: every draw must be path-invariant.
    let mut rng = 0x5eed_cafe_f00d_0001u64;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    for trial in 0..6 {
        let n = 200 + (next() % 800) as u32;
        let m = n as u64 * (1 + next() % 6);
        let g = gen::erdos_renyi_gnm(n, m, next());
        let base = PeelConfig {
            launch: LaunchConfig {
                blocks: 1 + (next() % 8) as u32,
                threads_per_block: 32 * (1 + (next() % 8) as u32),
            },
            buf_capacity: 2_048 + (next() % 4_096) as usize,
            shared_buf_capacity: 32 + (next() % 96) as usize,
            ring_buffer: next() % 2 == 0,
            ..PeelConfig::default()
        };
        let variants = base.all_variants();
        let cfg = variants[(next() % variants.len() as u64) as usize];
        assert_paths_identical(&g, &cfg, &format!("trial {trial} {}", cfg.variant_name()));
    }
}

#[test]
fn identical_across_rayon_pool_sizes() {
    // Pool size sets the fan-out of plain launches and the fused scan step
    // (waves are serial at every width): the counters and fingerprints
    // must not notice.
    let g = gen::rmat(9, 2_000, gen::RmatParams::graph500(), 7);
    let cfg = small_cfg();
    let reference = run(REFERENCE, &g, &cfg);
    for threads in [1usize, 2, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        for peel in [PRODUCTION, REFERENCE] {
            let got = pool.install(|| run(peel, &g, &cfg));
            assert_eq!(
                got.0, reference.0,
                "core numbers diverged at pool size {threads}"
            );
            assert_eq!(got.2, reference.2, "trace diverged at pool size {threads}");
            assert_eq!(
                got.3, reference.3,
                "timeline diverged at pool size {threads}"
            );
        }
    }
}

#[test]
fn counter_fingerprints_match() {
    // Direct fingerprint comparison (the quantity the golden files pin).
    let g = gen::power_law_hubs(2_000, 5_000, 4, 0.25, 11);
    for cfg in [small_cfg(), small_cfg().with_buf_capacity(1_024)] {
        let fp = |peel: Peel| -> u64 {
            let mut ctx = SimOptions::default().context();
            ctx.set_block_profiling(true);
            peel(&mut ctx, &g, &cfg).unwrap();
            Trace::counters_fingerprint(&ctx.trace("fp"))
        };
        assert_eq!(fp(PRODUCTION), fp(REFERENCE));
    }
}

#[test]
fn overflow_errors_are_path_invariant() {
    // Production must fail exactly where the reference fails, with the
    // same error (no ring buffer + tiny capacity ⇒ overflow).
    let g = gen::complete(64);
    let cfg = PeelConfig {
        launch: LaunchConfig {
            blocks: 1,
            threads_per_block: 32,
        },
        buf_capacity: 16,
        ring_buffer: false,
        ..PeelConfig::default()
    };
    let err_of = |peel: Peel| {
        let mut ctx = SimOptions::default().context();
        peel(&mut ctx, &g, &cfg).unwrap_err().to_string()
    };
    assert_eq!(err_of(PRODUCTION), err_of(REFERENCE));
}
