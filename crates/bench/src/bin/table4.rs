//! Regenerates **Table IV** (CPU programs): Ours (simulated GPU) against the
//! measured wall-clock of NetworkX-profile, BZ, serial/parallel ParK,
//! serial/parallel PKC-o, MPM and serial/parallel PKC on this machine.
//!
//! GPU-vs-CPU comparability caveat: the Ours column is simulated
//! (P100-calibrated) while CPU columns are real wall-clock on the host —
//! EXPERIMENTS.md discusses how to read the comparison.

use kcore_bench::{capture, mark_best, prepare_all, print_table, save_json, Cell, Program};
use kcore_cpu::{bz, mpm, naive, park, pkc, CoreAlgorithm};
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct Row {
    dataset: String,
    cells: Vec<(String, Cell)>,
}

fn measure(alg: &dyn CoreAlgorithm, g: &kcore_graph::Csr, truth: &[u32]) -> Cell {
    let t0 = Instant::now();
    let core = alg.run(g);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    if core == truth {
        Cell::Time {
            avg_ms: ms,
            std_ms: 0.0,
        }
    } else {
        Cell::Wrong
    }
}

fn main() {
    let envs = prepare_all();
    // Table IV column order.
    let algs: Vec<Box<dyn CoreAlgorithm>> = vec![
        Box::new(naive::Naive),
        Box::new(bz::Bz),
        Box::new(park::SerialPark),
        Box::new(park::ParallelPark::default()),
        Box::new(pkc::SerialPkcO),
        Box::new(pkc::ParallelPkcO::default()),
        Box::new(mpm::ParallelMpm),
        Box::new(pkc::SerialPkc),
        Box::new(pkc::ParallelPkc::default()),
    ];
    let mut headers = vec!["Dataset".to_string(), "Ours".to_string()];
    headers.extend(algs.iter().map(|a| a.name().to_string()));

    let mut rows = Vec::new();
    let mut json = Vec::new();
    for e in &envs {
        eprintln!("[table4] {}", e.dataset.name);
        let mut cells = vec![capture(e, Program::OURS, 0, false).cell()];
        for a in &algs {
            cells.push(measure(a.as_ref(), &e.graph, &e.truth));
        }
        let times: Vec<Option<f64>> = cells.iter().map(Cell::avg_ms).collect();
        let mut txt = vec![e.dataset.name.to_string()];
        txt.extend(cells.iter().map(|c| c.render(false)));
        mark_best(&mut txt[1..], &times);
        rows.push(txt);
        let mut names = vec!["Ours".to_string()];
        names.extend(algs.iter().map(|a| a.name().to_string()));
        json.push(Row {
            dataset: e.dataset.name.to_string(),
            cells: names.into_iter().zip(cells).collect(),
        });
    }
    println!("\nTABLE IV — COMPUTATION TIME OF CPU PROGRAMS (ms; Ours = simulated GPU, others = host wall-clock)\n");
    print_table(&headers, &rows);
    save_json("table4", &json);
}
