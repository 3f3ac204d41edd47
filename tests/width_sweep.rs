//! Rayon-width invariance of the engines that the golden pool-size sweeps
//! do not already pin: the four baseline systems (Medusa, Gunrock, GSWITCH,
//! VETGA), Medusa's MPM program, and the direct GPU MPM.
//!
//! Each engine runs once at width 1 and three times each at widths 2 and 8.
//! Every run must reproduce the width-1 core numbers, iteration count,
//! simulated total time (to the bit), launch count and grand-total
//! counters. A kernel whose blocks race on device memory while they run
//! breaks this at widths above 1 — the run-to-run drift a plain launch's
//! contract rules out.

use kcore::gpu::mpm_gpu;
use kcore::gpusim::{Counters, SimOptions, SimReport};
use kcore::graph::{gen, Csr};
use kcore::systems::{gswitch, gunrock, medusa, vetga, FrameworkCosts};

/// Everything a run reports that must not depend on the rayon width.
#[derive(Debug, PartialEq)]
struct Outcome {
    core: Vec<u32>,
    iterations: u64,
    total_ms_bits: u64,
    launches: u64,
    counters: Counters,
}

fn outcome(core: Vec<u32>, iterations: u64, report: &SimReport) -> Outcome {
    Outcome {
        core,
        iterations,
        total_ms_bits: report.total_ms.to_bits(),
        launches: report.launches,
        counters: report.counters,
    }
}

/// Hubs over a sparse background: cascades cross block ranges, so racing
/// blocks would see each other's degree updates in host-timing order.
fn graph() -> Csr {
    gen::power_law_hubs(6_000, 24_000, 4, 0.25, 11)
}

fn assert_width_invariant(name: &str, run: impl Fn(&Csr) -> Outcome) {
    let g = graph();
    let width = |n: usize| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .unwrap()
    };
    let want = width(1).install(|| run(&g));
    for threads in [2usize, 8] {
        for rep in 0..3 {
            let got = width(threads).install(|| run(&g));
            assert!(
                got == want,
                "{name} at width {threads} (run {rep}) differs from width 1: total {} ms vs {} ms",
                f64::from_bits(got.total_ms_bits),
                f64::from_bits(want.total_ms_bits),
            );
        }
    }
}

fn opts() -> SimOptions {
    SimOptions::default()
}

#[test]
fn medusa_peel_is_width_invariant() {
    assert_width_invariant("medusa peel", |g| {
        let r = medusa::peel(g, &opts(), &FrameworkCosts::default()).unwrap();
        outcome(r.core, r.iterations, &r.report)
    });
}

#[test]
fn medusa_mpm_is_width_invariant() {
    assert_width_invariant("medusa mpm", |g| {
        let r = medusa::mpm(g, &opts(), &FrameworkCosts::default()).unwrap();
        outcome(r.core, r.iterations, &r.report)
    });
}

#[test]
fn gunrock_is_width_invariant() {
    assert_width_invariant("gunrock", |g| {
        let r = gunrock::peel(g, &opts(), &FrameworkCosts::default()).unwrap();
        outcome(r.core, r.iterations, &r.report)
    });
}

#[test]
fn gswitch_is_width_invariant() {
    let k_max = kcore::cpu::bz::core_numbers(&graph())
        .into_iter()
        .max()
        .unwrap_or(0);
    assert_width_invariant("gswitch", |g| {
        let r = gswitch::peel(g, k_max, &opts(), &FrameworkCosts::default()).unwrap();
        outcome(r.core, r.iterations, &r.report)
    });
}

#[test]
fn vetga_is_width_invariant() {
    assert_width_invariant("vetga", |g| {
        let r = vetga::peel(g, &opts(), &FrameworkCosts::default()).unwrap();
        outcome(r.run.core, r.run.iterations, &r.run.report)
    });
}

#[test]
fn gpu_mpm_is_width_invariant() {
    assert_width_invariant("gpu mpm", |g| {
        let r = mpm_gpu::decompose_mpm(g, &opts()).unwrap();
        outcome(r.core, u64::from(r.sweeps), &r.report)
    });
}
