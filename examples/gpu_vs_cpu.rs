//! GPU vs CPU head-to-head on one graph — Table III/IV in miniature, plus
//! the McSherry "scalability, but at what COST?" framing the paper builds
//! on: how do graph-parallel-system implementations compare with a direct
//! kernel and with plain CPU code?
//!
//! ```bash
//! cargo run --release --example gpu_vs_cpu
//! ```

use kcore::cpu::{self, CoreAlgorithm};
use kcore::gpu::{PeelConfig, SimOptions};
use kcore::graph::gen;
use kcore::systems::{vetga, Engine, EngineOptions};
use std::time::Instant;

fn main() {
    let g = gen::rmat(15, 400_000, gen::RmatParams::graph500(), 31);
    println!(
        "graph: |V|={} |E|={} d_max={}\n",
        g.num_vertices(),
        g.num_edges(),
        g.max_degree()
    );

    let truth = cpu::bz::Bz.run(&g);
    println!("{:<24} {:>12}  notes", "implementation", "time (ms)");
    println!("{}", "-".repeat(64));

    // --- the direct kernel and the GPU systems (simulated) ---
    let opts = EngineOptions {
        peel: PeelConfig {
            buf_capacity: 65_536,
            ..PeelConfig::default()
        },
        k_max: cpu::k_max(&truth),
        ..EngineOptions::default()
    };
    for engine in Engine::TABLE3 {
        let run = engine.run(&g, &SimOptions::default(), &opts);
        let run = run.unwrap_or_else(|e| panic!("{}: {e}", engine.name()));
        assert_eq!(run.core, truth, "{}", engine.name());
        let note = match engine {
            Engine::Vetga => format!(
                "+ {:.0} ms Python loading",
                vetga::load_time_ms(&g, &opts.costs)
            ),
            Engine::Gswitch => "autotuned frontier engine".into(),
            Engine::MedusaMpm => format!("{} h-index sweeps", run.iterations),
            Engine::MedusaPeel => format!("{} BSP supersteps", run.iterations),
            Engine::Gunrock => format!("{} sub-iterations", run.iterations),
            _ => format!("simulated P100, {} rounds", run.iterations),
        };
        println!(
            "{:<24} {:>12.2}  {note}",
            format!("GPU: {}", engine.name()),
            run.report.total_ms
        );
    }

    // --- CPU algorithms (real wall-clock on this machine) ---
    let algs: Vec<Box<dyn CoreAlgorithm>> = vec![
        Box::new(cpu::bz::Bz),
        Box::new(cpu::park::SerialPark),
        Box::new(cpu::park::ParallelPark::default()),
        Box::new(cpu::pkc::SerialPkc),
        Box::new(cpu::pkc::ParallelPkc::default()),
        Box::new(cpu::pkc::ParallelPkcO::default()),
        Box::new(cpu::mpm::SerialMpm),
        Box::new(cpu::mpm::ParallelMpm),
    ];
    for alg in algs {
        let t0 = Instant::now();
        let core = alg.run(&g);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(core, truth, "{}", alg.name());
        println!(
            "{:<24} {:>12.2}  host wall-clock",
            format!("CPU: {}", alg.name()),
            ms
        );
    }

    println!(
        "\nGPU times are simulated against a P100 cost model; CPU times are measured on this\n\
         machine. The ordering — direct kernels beat system frameworks beat iterative MPM —\n\
         is the paper's Table III/IV shape."
    );
}
