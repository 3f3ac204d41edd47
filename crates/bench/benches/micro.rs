//! Criterion micro-benchmarks backing the §VI ablation discussion:
//!
//! * warp-scan algorithms (HS vs Blelloch vs Ballot) — the Fig. 8 choice;
//! * atomic-append vs compaction in the scan kernel — the "Occam's razor"
//!   finding that plain `atomicAdd` wins on modern GPUs;
//! * the h-index operator — MPM's inner loop;
//! * CPU algorithms on a mid-size graph — Table IV in miniature;
//! * GPU peel variants end-to-end on a small graph — Table II in miniature.
//!
//! Simulator benches measure *host* time of the simulation (useful for
//! regression tracking); simulated-time comparisons live in the table
//! binaries.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kcore_cpu::CoreAlgorithm;
use kcore_gpu::{decompose, decompose_reference_in, PeelConfig, SimOptions};
use kcore_gpusim::scan::{
    ballot_scan, ballot_scan_offsets, blelloch_exclusive_scan, hs_inclusive_scan,
};
use kcore_gpusim::warp::WARP_SIZE;
use kcore_gpusim::{Coalescing, CostParams, GpuContext, LaunchConfig};
use kcore_graph::gen;
use std::hint::black_box;
use std::sync::atomic::Ordering;

fn bench_warp_scans(c: &mut Criterion) {
    let mut group = c.benchmark_group("warp_scan");
    group.bench_function("hillis_steele", |b| {
        let mut ctx = GpuContext::new(CostParams::p100(), 1 << 16);
        b.iter(|| {
            ctx.launch(
                "hs",
                LaunchConfig {
                    blocks: 1,
                    threads_per_block: 32,
                },
                |blk| {
                    let mut lanes = [1u32; 32];
                    hs_inclusive_scan(blk, black_box(&mut lanes));
                    black_box(lanes[31]);
                    Ok(())
                },
            )
            .unwrap();
        })
    });
    group.bench_function("blelloch", |b| {
        let mut ctx = GpuContext::new(CostParams::p100(), 1 << 16);
        b.iter(|| {
            ctx.launch(
                "bl",
                LaunchConfig {
                    blocks: 1,
                    threads_per_block: 32,
                },
                |blk| {
                    let mut lanes = [1u32; 32];
                    blelloch_exclusive_scan(blk, black_box(&mut lanes));
                    black_box(lanes[31]);
                    Ok(())
                },
            )
            .unwrap();
        })
    });
    group.bench_function("ballot", |b| {
        let mut ctx = GpuContext::new(CostParams::p100(), 1 << 16);
        b.iter(|| {
            ctx.launch(
                "ba",
                LaunchConfig {
                    blocks: 1,
                    threads_per_block: 32,
                },
                |blk| {
                    let flags = [true; 32];
                    let (off, total) = ballot_scan(blk, black_box(&flags));
                    black_box((off, total));
                    Ok(())
                },
            )
            .unwrap();
        })
    });
    group.bench_function("ballot_offsets", |b| {
        let mut ctx = GpuContext::new(CostParams::p100(), 1 << 16);
        b.iter(|| {
            ctx.launch(
                "bo",
                LaunchConfig {
                    blocks: 1,
                    threads_per_block: 32,
                },
                |blk| {
                    let (off, total) = ballot_scan_offsets(blk, black_box(u32::MAX));
                    black_box((off, total));
                    Ok(())
                },
            )
            .unwrap();
        })
    });
    group.finish();
}

/// Per-lane charged loads vs the warp-granularity [`kcore_gpusim::BlockCtx`]
/// helpers — the tentpole fast-path primitive, measured in isolation.
fn bench_warp_memops(c: &mut Criterion) {
    const N: usize = 4_096;
    let data: Vec<u32> = (0..N as u32).collect();
    let idxs: Vec<usize> = (0..N).map(|i| (i * 37) % N).collect();
    let mut group = c.benchmark_group("warp_memops");
    group.bench_function("per_lane_gather", |b| {
        let mut ctx = GpuContext::new(CostParams::p100(), 1 << 16);
        let d_buf = ctx.htod("bench.buf", &data).unwrap();
        b.iter(|| {
            ctx.launch(
                "pl",
                LaunchConfig {
                    blocks: 1,
                    threads_per_block: 32,
                },
                |blk| {
                    let buf = blk.device.buffer(d_buf);
                    let mut sum = 0u64;
                    for &i in black_box(&idxs) {
                        blk.charge_sector(1);
                        sum += buf[i].load(Ordering::Relaxed) as u64;
                    }
                    black_box(sum);
                    Ok(())
                },
            )
            .unwrap();
        })
    });
    for (name, mode) in [
        ("warp_gather_scattered", Coalescing::Scattered),
        ("warp_gather_classified", Coalescing::Classified),
    ] {
        group.bench_function(name, |b| {
            let mut ctx = GpuContext::new(CostParams::p100(), 1 << 16);
            let d_buf = ctx.htod("bench.buf", &data).unwrap();
            b.iter(|| {
                ctx.launch(
                    "wg",
                    LaunchConfig {
                        blocks: 1,
                        threads_per_block: 32,
                    },
                    |blk| {
                        let buf = blk.device.buffer(d_buf);
                        let mut sum = 0u64;
                        let mut vals = [0u32; WARP_SIZE];
                        for chunk in black_box(&idxs).chunks(WARP_SIZE) {
                            blk.gather(buf, chunk, &mut vals[..chunk.len()], mode);
                            sum += vals[..chunk.len()].iter().map(|&v| v as u64).sum::<u64>();
                        }
                        black_box(sum);
                        Ok(())
                    },
                )
                .unwrap();
            })
        });
    }
    group.finish();
}

/// Pure kernel-dispatch overhead of [`GpuContext::launch`] (no body work):
/// the serial fast path at pool size 1, the rayon path otherwise.
fn bench_launch_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("launch_dispatch");
    for blocks in [1u32, 16, 108] {
        group.bench_with_input(
            BenchmarkId::from_parameter(blocks),
            &blocks,
            |b, &blocks| {
                let mut ctx = GpuContext::new(CostParams::p100(), 1 << 16);
                b.iter(|| {
                    ctx.launch(
                        "noop",
                        LaunchConfig {
                            blocks,
                            threads_per_block: 128,
                        },
                        |blk| {
                            black_box(blk.block_idx);
                            Ok(())
                        },
                    )
                    .unwrap();
                })
            },
        );
    }
    group.finish();
}

/// End-to-end host time of the production peel and of its per-lane
/// reference oracle on one graph — bit-identical in output, differing only
/// in how the host computes the charges.
fn bench_exec_paths(c: &mut Criterion) {
    let g = gen::rmat(12, 20_000, gen::RmatParams::graph500(), 7);
    let base = PeelConfig {
        launch: LaunchConfig {
            blocks: 16,
            threads_per_block: 256,
        },
        buf_capacity: 16_384,
        shared_buf_capacity: 512,
        ..PeelConfig::default()
    };
    let mut group = c.benchmark_group("exec_path_rmat12");
    group.sample_size(10);
    group.bench_function("production", |b| {
        b.iter(|| black_box(decompose(&g, &base, &SimOptions::default()).unwrap()))
    });
    group.bench_function("reference", |b| {
        b.iter(|| {
            let mut ctx = SimOptions::default().context();
            black_box(decompose_reference_in(&mut ctx, &g, &base).unwrap())
        })
    });
    group.finish();
}

fn bench_hindex(c: &mut Criterion) {
    let mut group = c.benchmark_group("h_index");
    for size in [8usize, 64, 512] {
        let values: Vec<u32> = (0..size as u32).map(|i| (i * 37) % 97).collect();
        group.bench_with_input(BenchmarkId::from_parameter(size), &values, |b, vals| {
            let mut scratch = Vec::new();
            b.iter(|| {
                kcore_cpu::hindex::h_index_bounded(
                    black_box(vals.iter().copied()),
                    vals.len() as u32,
                    &mut scratch,
                )
            })
        });
    }
    group.finish();
}

fn bench_cpu_algorithms(c: &mut Criterion) {
    let g = gen::rmat(14, 100_000, gen::RmatParams::graph500(), 99);
    let mut group = c.benchmark_group("cpu_decomposition_rmat14");
    group.sample_size(10);
    let algs: Vec<Box<dyn CoreAlgorithm>> = vec![
        Box::new(kcore_cpu::bz::Bz),
        Box::new(kcore_cpu::park::SerialPark),
        Box::new(kcore_cpu::park::ParallelPark::default()),
        Box::new(kcore_cpu::pkc::SerialPkc),
        Box::new(kcore_cpu::pkc::ParallelPkc::default()),
        Box::new(kcore_cpu::pkc::ParallelPkcO::default()),
        Box::new(kcore_cpu::mpm::SerialMpm),
        Box::new(kcore_cpu::mpm::ParallelMpm),
    ];
    for alg in &algs {
        group.bench_function(alg.name(), |b| b.iter(|| black_box(alg.run(&g))));
    }
    group.finish();
}

fn bench_gpu_variants(c: &mut Criterion) {
    let g = gen::rmat(12, 20_000, gen::RmatParams::graph500(), 7);
    let base = PeelConfig {
        launch: LaunchConfig {
            blocks: 16,
            threads_per_block: 256,
        },
        buf_capacity: 16_384,
        shared_buf_capacity: 512,
        ..PeelConfig::default()
    };
    let mut group = c.benchmark_group("gpu_peel_variants_rmat12");
    group.sample_size(10);
    for cfg in base.all_variants() {
        group.bench_function(cfg.variant_name(), |b| {
            b.iter(|| black_box(decompose(&g, &cfg, &SimOptions::default()).unwrap()))
        });
    }
    group.finish();
}

fn bench_graph_builder(c: &mut Criterion) {
    let edges: Vec<(u32, u32)> = {
        let g = gen::rmat(13, 50_000, gen::RmatParams::mild(), 3);
        g.edges().collect()
    };
    c.bench_function("csr_build_50k_edges", |b| {
        b.iter(|| black_box(kcore_graph::builder::from_edges(1 << 13, black_box(&edges))))
    });
}

/// The ingestion pipeline end to end: R-MAT sampling (serial single-stream
/// vs chunked parallel), the CSR build paths over the same edge list, and
/// the two edge-list text parsers over the same buffer. Each pair is a
/// differential micro-benchmark of byte-identical implementations, so any
/// gap is pure pipeline overhead/win.
fn bench_ingest(c: &mut Criterion) {
    use kcore_graph::builder::{from_edges_with, BuildPath};

    let mut group = c.benchmark_group("ingest");
    let (scale, m, seed) = (14u32, 200_000u64, 11u64);
    // The parallel paths short-circuit to their serial twins on a
    // single-threaded pool, so pin a >=2-thread pool: on multi-core hosts
    // this measures the real speedup, on a 1-core host the (oversubscribed)
    // fan-out overhead — either way the parallel machinery runs.
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .max(2);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap();
    group.bench_function("rmat_serial_200k", |b| {
        b.iter(|| {
            black_box(gen::rmat_serial(
                scale,
                m,
                gen::RmatParams::graph500(),
                seed,
            ))
        })
    });
    group.bench_function("rmat_parallel_200k", |b| {
        b.iter(|| {
            pool.install(|| black_box(gen::rmat(scale, m, gen::RmatParams::graph500(), seed)))
        })
    });

    let edges: Vec<(u32, u32)> = gen::rmat(scale, m, gen::RmatParams::graph500(), seed)
        .edges()
        .collect();
    let n = 1u32 << scale;
    group.bench_function("csr_build_serial", |b| {
        b.iter(|| black_box(from_edges_with(n, black_box(&edges), BuildPath::Serial)))
    });
    group.bench_function("csr_build_parallel", |b| {
        b.iter(|| {
            pool.install(|| black_box(from_edges_with(n, black_box(&edges), BuildPath::Parallel)))
        })
    });

    let text = {
        let mut s = String::new();
        for &(u, v) in &edges {
            s.push_str(&format!("{u}\t{v}\n"));
        }
        s
    };
    group.bench_function("parse_streaming", |b| {
        b.iter(|| black_box(kcore_graph::io::parse_edge_list(black_box(text.as_bytes())).unwrap()))
    });
    group.bench_function("parse_bytes_parallel", |b| {
        b.iter(|| {
            pool.install(|| {
                black_box(
                    kcore_graph::io::parse_edge_list_bytes(black_box(text.as_bytes())).unwrap(),
                )
            })
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_warp_scans,
    bench_warp_memops,
    bench_launch_dispatch,
    bench_exec_paths,
    bench_hindex,
    bench_cpu_algorithms,
    bench_gpu_variants,
    bench_graph_builder,
    bench_ingest
);
criterion_main!(benches);
