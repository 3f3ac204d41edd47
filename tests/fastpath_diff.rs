//! Differential tests: the production peel against its per-lane reference
//! oracle (DESIGN.md "Fast-path cost accounting").
//!
//! `Engine::Peel` runs the warp-vectorized kernels of
//! [`kcore_gpu::decompose_in`]; `Engine::Reference` runs the original
//! per-access kernels of [`kcore_gpu::decompose_reference_in`]. Both
//! dispatch a scan launch and a stepped loop launch per round. The
//! contract is that the choice is **unobservable**: identical core
//! numbers, identical per-phase counters, identical trace fingerprints,
//! identical Perfetto timeline bytes, and identical errors — across every
//! Table II variant, on randomized graphs, at every rayon pool size.

use kcore_gpu::{Buffering, Compaction, DynamicConfig, DynamicCore, MultiGpuConfig, PeelConfig};
use kcore_gpusim::{
    GpuContext, KernelError, LaunchConfig, SimError, SimOptions, Trace, SHARED_CAPACITY_BYTES,
};
use kcore_graph::{gen, Csr, GraphBuilder};
use kcore_systems::{Engine, EngineOptions};

/// `cfg`'s variant on the production kernels and on the reference ones.
fn paths(cfg: &PeelConfig) -> [Engine; 2] {
    let (c, b) = (cfg.compaction, cfg.buffering);
    [Engine::Peel(c, b), Engine::Reference(c, b)]
}

/// Runs `engine` under `cfg`'s geometry in `ctx`.
fn run_in(
    engine: Engine,
    ctx: &mut GpuContext,
    g: &Csr,
    cfg: &PeelConfig,
) -> Result<kcore_gpu::Run, kcore_gpusim::SimError> {
    let opts = EngineOptions {
        peel: *cfg,
        ..EngineOptions::default()
    };
    engine.run_in(ctx, g, &opts)
}

/// Runs one full decomposition and captures (core, rounds, and the trace's
/// JSON and Perfetto renderings).
fn run(engine: Engine, g: &Csr, cfg: &PeelConfig) -> (Vec<u32>, u64, String, String) {
    let mut ctx = SimOptions::default().context();
    ctx.set_block_profiling(true);
    let r = run_in(engine, &mut ctx, g, cfg).expect("decompose");
    let trace = ctx.trace("diff");
    (
        r.core,
        r.iterations,
        trace.to_json(),
        trace.to_chrome_json(),
    )
}

fn assert_paths_identical(g: &Csr, cfg: &PeelConfig, what: &str) {
    let [production, reference] = paths(cfg);
    let reference = run(reference, g, cfg);
    let got = run(production, g, cfg);
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
    // Fixed geometries aimed at the scan's chunk bookkeeping.
    let launch = |blocks, threads_per_block| {
        small_cfg().with_launch(LaunchConfig {
            blocks,
            threads_per_block,
        })
    };
    let cases = [
        // |V| is not a multiple of BLK_DIM, and the partial last chunk
        // (chunk 9 of 17 words; chunk 5 of 40 words) is in block 1 or 2.
        (593, 2_400, launch(4, 64), "partial last chunk in block 1"),
        (520, 2_000, launch(3, 96), "partial last chunk in block 2"),
        // |V| < blocks × BLK_DIM: blocks 3..7 own no chunk at all.
        (300, 1_200, launch(8, 128), "blocks without a chunk"),
        // Mean degree 1: about 47 of each 128-vertex chunk are isolated,
        // so round 0 puts several hits in most BC windows and more than 32
        // in an EC chunk (a batch of 2 transactions).
        (1_000, 500, launch(3, 128), "dense shells"),
    ];
    for (n, m, base, what) in cases {
        let g = gen::erdos_renyi_gnm(n, m, 4);
        for cfg in base.all_variants() {
            assert_paths_identical(&g, &cfg, &format!("{what} {}", cfg.variant_name()));
        }
    }
    // Degrees at the loop's 32-neighbor chunk boundaries: the walk charges
    // each vertex's chunk terms from ⌈d/32⌉. A star's hub walks d leaves
    // that no longer decrement; a clique's vertices decrement and append.
    for d in [31u32, 32, 33, 64, 65] {
        for (g, shape) in [(gen::star(d), "star"), (gen::complete(d + 1), "clique")] {
            for cfg in small_cfg().all_variants() {
                let what = format!("{shape} of degree {d} {}", cfg.variant_name());
                assert_paths_identical(&g, &cfg, &what);
            }
        }
    }
}

/// Loop blocks of a production run of Ours under `cfg` that had no work
/// (no warp instruction), and all its loop blocks, per launch.
fn idle_loop_blocks(g: &Csr, cfg: &PeelConfig) -> Vec<(usize, usize)> {
    let mut ctx = SimOptions::default().context();
    ctx.set_block_profiling(true);
    run_in(Engine::OURS, &mut ctx, g, cfg).unwrap();
    let loops = ctx.launches().iter().filter(|l| l.name == "loop");
    let blocks = loops.map(|l| l.block_counters.clone().unwrap());
    blocks
        .map(|b| (b.iter().filter(|c| c.warp_instrs == 0).count(), b.len()))
        .collect()
}

#[test]
fn identical_when_most_blocks_have_no_work() {
    // The paper's 108 blocks at one warp each. An R-MAT at scale 10 owns
    // chunks in 32 of them, and a planted 40-clique makes many thin rounds;
    // a cycle's rounds 0 and 1 find empty k-shells, so every block of
    // those launches is idle.
    let cfg = PeelConfig {
        launch: LaunchConfig {
            blocks: 108,
            threads_per_block: 32,
        },
        ..small_cfg()
    };
    let rmat = gen::rmat(10, 4_000, gen::RmatParams::graph500(), 5);
    let thin = gen::plant_clique(&rmat, 40, 9);
    let idle = idle_loop_blocks(&thin, &cfg);
    let (idle_blocks, all): (usize, usize) =
        idle.iter().fold((0, 0), |s, b| (s.0 + b.0, s.1 + b.1));
    assert!(idle.len() > 30 && 10 * idle_blocks > 9 * all, "{idle:?}");
    let cycle = gen::cycle(5_000);
    assert_eq!(idle_loop_blocks(&cycle, &cfg)[..2], [(108, 108); 2]);
    for (g, shape) in [(thin, "rmat-10 with a 40-clique"), (cycle, "cycle")] {
        for width in [1usize, 2] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(width)
                .build()
                .unwrap();
            for cfg in cfg.all_variants() {
                let what = format!("{shape} at width {width} {}", cfg.variant_name());
                pool.install(|| assert_paths_identical(&g, &cfg, &what));
            }
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
    // Launches run their blocks in block order and waves are serial at
    // every width, so the counters and fingerprints must not notice the
    // pool size.
    let g = gen::rmat(9, 2_000, gen::RmatParams::graph500(), 7);
    let cfg = small_cfg();
    let reference = run(paths(&cfg)[1], &g, &cfg);
    for threads in [1usize, 2, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        for engine in paths(&cfg) {
            let got = pool.install(|| run(engine, &g, &cfg));
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
        let [production, reference] = paths(&cfg).map(|engine| {
            let mut ctx = SimOptions::default().context();
            ctx.set_block_profiling(true);
            run_in(engine, &mut ctx, &g, &cfg).unwrap();
            Trace::counters_fingerprint(&ctx.trace("fp"))
        });
        assert_eq!(production, reference);
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
    let errs_of = |g: &Csr, cfg: &PeelConfig| {
        paths(cfg).map(|engine| {
            let mut ctx = SimOptions::default().context();
            run_in(engine, &mut ctx, g, cfg).unwrap_err().to_string()
        })
    };
    let [production, reference] = errs_of(&g, &cfg);
    assert_eq!(production, reference);

    // A scan overflow in block 2 while blocks 0 and 1 fit: four 32-vertex
    // chunks, one per block. Round 0's hits are the isolated vertices: 5 in
    // chunk 0, 6 in chunk 1 and all 32 of chunk 2, against a capacity of
    // 16; the rest of each chunk is a cycle.
    let mut b = GraphBuilder::with_num_vertices(128);
    for (lo, hi) in [(5u32, 32u32), (38, 64), (96, 128)] {
        for v in lo..hi {
            b.add_edge(v, if v + 1 == hi { lo } else { v + 1 });
        }
    }
    let g = b.build();
    for compaction in [Compaction::None, Compaction::Ballot, Compaction::Efficient] {
        let cfg = PeelConfig {
            launch: LaunchConfig {
                blocks: 4,
                threads_per_block: 32,
            },
            buf_capacity: 16,
            ..PeelConfig::default()
        }
        .with_compaction(compaction);
        let [err, reference] = errs_of(&g, &cfg);
        assert!(
            err.contains("block 2: scan filled buffer (capacity 16)"),
            "{compaction:?}: {err}"
        );
        assert_eq!(err, reference, "{compaction:?}");
    }
}

#[test]
fn shared_memory_need_is_checked_at_entry() {
    // Under SM buffering a loop block holds `s`, `e` and the buffer:
    // 2 + 16,382 words are exactly 64 KiB.
    let g = gen::erdos_renyi_gnm(300, 900, 5);
    let sm = |shared_buf_capacity| PeelConfig {
        shared_buf_capacity,
        ..small_cfg().with_buffering(Buffering::SharedMem)
    };
    assert_paths_identical(&g, &sm(16_382), "SM buffer of 16,382 words");
    let over = sm(16_383);
    let want = SimError::Kernel(KernelError::SharedMemExceeded {
        requested_bytes: 4,
        capacity_bytes: SHARED_CAPACITY_BYTES,
    });
    for engine in paths(&over) {
        let mut ctx = SimOptions::default().context();
        assert_eq!(
            run_in(engine, &mut ctx, &g, &over).err(),
            Some(want.clone())
        );
        // Before any upload or launch.
        assert!(ctx.transfers().is_empty() && ctx.launches().is_empty());
    }
    let multi = MultiGpuConfig {
        num_gpus: 2,
        peel: over,
        ..MultiGpuConfig::default()
    };
    let opts = SimOptions::default();
    assert_eq!(
        kcore_gpu::decompose_multi(&g, &multi, &opts).err(),
        Some(want.clone())
    );
    let dynamic = DynamicConfig {
        peel: over,
        ..DynamicConfig::default()
    };
    assert_eq!(DynamicCore::from_csr(&opts, &g, dynamic).err(), Some(want));
}
