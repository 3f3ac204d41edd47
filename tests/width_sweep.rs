//! Rayon-width invariance of every engine of `Engine::all()`.
//!
//! Each engine runs once at width 1 and three times each at widths 2 and 8.
//! Every run must reproduce the width-1 core numbers, iteration count,
//! simulated total time (to the bit), launch count and grand-total
//! counters. Gunrock's filter and advance and GSwitch's fused sweep have
//! blocks that race on a frontier cursor or on `deg[]` while they run; a
//! launch that ran its blocks at once would give them run-to-run drift at
//! widths above 1, and every launch runs its blocks in block order instead.
//!
//! `every_engine_is_width_invariant` loops over `Engine::all()`; the
//! engines that the golden pool-size sweeps do not already pin (the four
//! baseline systems, Medusa's MPM program and the direct GPU MPM) keep a
//! test of their own as well.

use kcore::gpu::{PeelConfig, Run, SimOptions};
use kcore::gpusim::{Counters, LaunchConfig};
use kcore::graph::gen;
use kcore::systems::{Engine, EngineOptions};

/// Everything a run reports that must not depend on the rayon width.
#[derive(Debug, PartialEq)]
struct Outcome {
    core: Vec<u32>,
    iterations: u64,
    total_ms_bits: u64,
    launches: u64,
    counters: Counters,
}

impl From<Run> for Outcome {
    fn from(run: Run) -> Outcome {
        Outcome {
            core: run.core,
            iterations: run.iterations,
            total_ms_bits: run.report.total_ms.to_bits(),
            launches: run.report.launches,
            counters: run.report.counters,
        }
    }
}

fn assert_width_invariant(engine: Engine) {
    // Hubs over a sparse background: cascades cross block ranges, so racing
    // blocks would see each other's degree updates in host-timing order.
    let g = gen::power_law_hubs(6_000, 24_000, 4, 0.25, 11);
    let opts = EngineOptions {
        peel: PeelConfig {
            launch: LaunchConfig {
                blocks: 16,
                threads_per_block: 128,
            },
            buf_capacity: 8_192,
            shared_buf_capacity: 128,
            ..PeelConfig::default()
        },
        k_max: kcore::cpu::k_max(&kcore::cpu::bz::core_numbers(&g)),
        ..EngineOptions::default()
    };
    let width = |n: usize| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .unwrap()
    };
    let run = || Outcome::from(engine.run(&g, &SimOptions::default(), &opts).unwrap());
    let want = width(1).install(run);
    for threads in [2usize, 8] {
        for rep in 0..3 {
            let got = width(threads).install(run);
            assert!(
                got == want,
                "{} at width {threads} (run {rep}) differs from width 1: total {} ms vs {} ms",
                engine.name(),
                f64::from_bits(got.total_ms_bits),
                f64::from_bits(want.total_ms_bits),
            );
        }
    }
}

#[test]
fn every_engine_is_width_invariant() {
    Engine::all().for_each(assert_width_invariant);
}

#[test]
fn medusa_peel_is_width_invariant() {
    assert_width_invariant(Engine::MedusaPeel);
}

#[test]
fn medusa_mpm_is_width_invariant() {
    assert_width_invariant(Engine::MedusaMpm);
}

#[test]
fn gunrock_is_width_invariant() {
    assert_width_invariant(Engine::Gunrock);
}

#[test]
fn gswitch_is_width_invariant() {
    assert_width_invariant(Engine::Gswitch);
}

#[test]
fn vetga_is_width_invariant() {
    assert_width_invariant(Engine::Vetga);
}

#[test]
fn gpu_mpm_is_width_invariant() {
    assert_width_invariant(Engine::GpuMpm);
}
