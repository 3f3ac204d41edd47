//! The reports beside the sweep and the sharded report: Table I
//! (datasets), Table IV (CPU programs), the Fig. 10 case study and the
//! extension experiments. Each renders its text and JSON from one set of
//! row values.

use crate::sweep::time_table;
use crate::{
    capture, prepare, render_table, run_jobs, runs, table_files, titled, to_json, Cell, Env,
};
use kcore_cpu::{bz, mpm, naive, park, pkc, CoreAlgorithm};
use kcore_gpu::{decompose, PeelConfig, SimOptions};
use kcore_gpusim::{KernelError, SimError};
use kcore_graph::datasets;
use kcore_graph::gen::temporal::{generate_corpus, CorpusParams};
use kcore_systems::Engine;
use serde::Serialize;
use std::collections::BTreeSet;
use std::time::Instant;

#[derive(Serialize)]
struct DatasetRow {
    dataset: String,
    category: String,
    num_vertices: u64,
    num_edges: u64,
    avg_degree: f64,
    degree_std: f64,
    max_degree: u32,
    k_max: u32,
    scale: f64,
    paper_vertices: u64,
    paper_edges: u64,
    paper_k_max: u32,
}

/// **Table I** over `envs`: each stand-in's |V|, |E|, d_avg, std, d_max,
/// k_max and category next to the paper's published values, as
/// `table1.{txt,json}`.
pub fn table1(envs: &[Env]) -> Vec<(String, String)> {
    let rows: Vec<DatasetRow> = envs
        .iter()
        .map(|e| DatasetRow {
            dataset: e.dataset.name.to_string(),
            category: e.dataset.category.to_string(),
            num_vertices: e.stats.num_vertices,
            num_edges: e.stats.num_edges,
            avg_degree: e.stats.avg_degree,
            degree_std: e.stats.degree_std,
            max_degree: e.stats.max_degree,
            k_max: e.opts.k_max,
            scale: e.scale,
            paper_vertices: e.dataset.paper.num_vertices,
            paper_edges: e.dataset.paper.num_edges,
            paper_k_max: e.dataset.paper.k_max,
        })
        .collect();
    let text: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.dataset.clone(),
                r.num_vertices.to_string(),
                r.num_edges.to_string(),
                format!("{:.1}", r.avg_degree),
                format!("{:.0}", r.degree_std),
                r.max_degree.to_string(),
                r.k_max.to_string(),
                r.category.clone(),
                format!("1/{:.0}", r.scale),
                r.paper_vertices.to_string(),
                r.paper_edges.to_string(),
                r.paper_k_max.to_string(),
            ]
        })
        .collect();
    let headers = [
        "Dataset",
        "|V|",
        "|E|",
        "davg",
        "std",
        "dmax",
        "kmax",
        "Category",
        "scale",
        "paper|V|",
        "paper|E|",
        "paper kmax",
    ]
    .map(String::from);
    let title = "TABLE I — DATASETS (synthetic stand-ins at 1/scale of the paper's graphs)";
    let table = format!("{title}\n\n{}", render_table(&headers, &text));
    table_files("table1", (table, to_json(&rows)))
}

/// **Table IV** over `envs`: Ours (simulated GPU, P100-calibrated) against
/// the host wall-clock of NetworkX-profile, BZ, serial/parallel ParK,
/// serial/parallel PKC-o, MPM and serial/parallel PKC, as
/// `table4.{txt,json}`. Each CPU cell is the mean of [`runs`] timed runs
/// (its JSON keeps their spread); a CPU program that misses the BZ core
/// numbers on any run shows `WRONG!`.
pub fn table4(envs: &[Env]) -> Vec<(String, String)> {
    let algs: [Box<dyn CoreAlgorithm>; 9] = [
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
    let rows = envs.iter().map(|e| {
        eprintln!("[table4] {}", e.dataset.name);
        let ours = capture(e, Engine::OURS, 0, false).cell();
        let cpu = algs.iter().map(|a| {
            let times: Option<Vec<f64>> = (0..runs())
                .map(|_| {
                    let t0 = Instant::now();
                    let core = a.run(&e.graph);
                    let ms = t0.elapsed().as_secs_f64() * 1e3;
                    (core == e.truth).then_some(ms)
                })
                .collect();
            times.map_or(Cell::Wrong, |t| Cell::from_times(&t))
        });
        (e.dataset.name, std::iter::once(ours).chain(cpu).collect())
    });
    let title = "TABLE IV — COMPUTATION TIME OF CPU PROGRAMS (ms; Ours = simulated GPU, others = host wall-clock)";
    table_files("table4", time_table(title, headers, rows, false))
}

#[derive(Serialize)]
struct CaseStudy {
    g1_year: u32,
    g2_year: u32,
    g1_vertices: u32,
    g1_edges: u64,
    g2_vertices: u32,
    g2_edges: u64,
    k_max_1: u32,
    k_max_2: u32,
    s1_size: usize,
    s2_size: usize,
    both: Vec<String>,
    entered: Vec<String>,
    left: Vec<String>,
    gpu_ms_g1: f64,
    gpu_ms_g2: f64,
}

/// The **Fig. 10 case study**, temporal co-citation network analysis, as
/// `fig10.{txt,json}`. Builds two author-interaction snapshots G1 (papers
/// ≤ 1995) and G2 (≤ 2000) from a synthetic citation corpus, extracts each
/// snapshot's k_max-core (S1, S2) with the GPU peeling algorithm, and lists
/// the word-cloud partition: S1∩S2 (authors most active in both periods),
/// S2−S1 (newly most-active), S1−S2 (dropped out of the most-active core).
pub fn fig10_case_study() -> Vec<(String, String)> {
    let corpus = generate_corpus(&CorpusParams::default(), 2023);
    let (y1, y2) = (1995u32, 2000u32);
    let g1 = corpus.interaction_snapshot(y1);
    let g2 = corpus.interaction_snapshot(y2);
    let cfg = PeelConfig {
        buf_capacity: 65_536,
        ..PeelConfig::default()
    };
    let opts = SimOptions::default();
    let r1 = decompose(&g1, &cfg, &opts).expect("G1 decomposition");
    let r2 = decompose(&g2, &cfg, &opts).expect("G2 decomposition");
    let (k1, s1) = kmax_core(&r1.core);
    let (k2, s2) = kmax_core(&r2.core);

    // Order authors inside each region by their activity (degree in the
    // later snapshot) so the "cloud" leads with the most active.
    let by_activity = |mut region: Vec<&u32>, g: &kcore_graph::Csr| -> Vec<String> {
        region.sort_by_key(|&&a| std::cmp::Reverse(g.degree(a)));
        region.into_iter().map(|&a| corpus.author_name(a)).collect()
    };
    let s = CaseStudy {
        g1_year: y1,
        g2_year: y2,
        g1_vertices: g1.num_vertices(),
        g1_edges: g1.num_edges(),
        g2_vertices: g2.num_vertices(),
        g2_edges: g2.num_edges(),
        k_max_1: k1,
        k_max_2: k2,
        s1_size: s1.len(),
        s2_size: s2.len(),
        both: by_activity(s1.intersection(&s2).collect(), &g2),
        entered: by_activity(s2.difference(&s1).collect(), &g2),
        left: by_activity(s1.difference(&s2).collect(), &g1),
        gpu_ms_g1: r1.report.total_ms,
        gpu_ms_g2: r2.report.total_ms,
    };
    let text = format!(
        "FIG. 10 — CASE STUDY: CO-CITATION NETWORK ANALYSIS (synthetic corpus)\n\n\
         G1 (≤{}): |V|={} |E|={} k_max={}, |S1|={}   (GPU: {:.2} ms simulated)\n\
         G2 (≤{}): |V|={} |E|={} k_max={}, |S2|={}   (GPU: {:.2} ms simulated)\n\n\
         ── S1 ∩ S2 — most active in BOTH periods ({} authors) ──\n{}\n\n\
         ── S2 − S1 — became most active by {} ({} authors) ──\n{}\n\n\
         ── S1 − S2 — fell out of the most-active core ({} authors) ──\n{}\n",
        s.g1_year,
        s.g1_vertices,
        s.g1_edges,
        s.k_max_1,
        s.s1_size,
        s.gpu_ms_g1,
        s.g2_year,
        s.g2_vertices,
        s.g2_edges,
        s.k_max_2,
        s.s2_size,
        s.gpu_ms_g2,
        s.both.len(),
        cloud(&s.both),
        s.g2_year,
        s.entered.len(),
        cloud(&s.entered),
        s.left.len(),
        cloud(&s.left),
    );
    table_files("fig10", (text, to_json(&s)))
}

/// The k_max of `core` and the vertices of its k_max-core.
fn kmax_core(core: &[u32]) -> (u32, BTreeSet<u32>) {
    let km = core.iter().copied().max().unwrap_or(0);
    let s = core
        .iter()
        .enumerate()
        .filter_map(|(v, &c)| (c == km && km > 0).then_some(v as u32))
        .collect();
    (km, s)
}

/// Renders a word-cloud-ish block: names sized by rank (bigger names first,
/// in upper case; later names lower case), wrapped.
fn cloud(names: &[String]) -> String {
    let mut out = String::new();
    let mut line = String::new();
    for (i, n) in names.iter().enumerate() {
        let word = if i < 6 { n.to_uppercase() } else { n.clone() };
        if line.len() + word.len() + 2 > 78 {
            out.push_str(&line);
            out.push('\n');
            line.clear();
        }
        if !line.is_empty() {
            line.push_str("  ");
        }
        line.push_str(&word);
    }
    out.push_str(&line);
    out
}

#[derive(Serialize, Default)]
struct Extensions {
    ring_ablation: Vec<(String, usize, usize)>, // dataset, min cap ring, min cap no-ring
    mpm_vs_peel: Vec<(String, f64, f64, f64)>,  // dataset, peel ms, gpu-mpm ms, medusa ms
}

/// The extension experiments beyond the paper's tables (the multi-GPU
/// extension of §VII is [`ShardReport`](crate::ShardReport)'s), on
/// amazon0601, web-BerkStan and soc-LiveJournal1, as
/// `extensions.{txt,json}`:
///
/// 1. **Ring-buffer ablation** (§IV-C): the smallest per-block buffer that
///    completes each dataset, with and without the ring layout — the ring's
///    slot recycling is what keeps the frontier footprint bounded.
/// 2. **Direct GPU-MPM vs peeling vs Medusa-MPM**: the total-workload
///    trade-off the introduction discusses, measured.
///
/// Each dataset is one [`run_jobs`] job.
pub fn extensions() -> Vec<(String, String)> {
    // The slowest dataset's job first, so it starts at once; the tables
    // list the rows the other way round.
    let names = ["soc-LiveJournal1", "web-BerkStan", "amazon0601"];
    let rows = run_jobs(&names, |&name| {
        let e = prepare(datasets::by_name(name).expect("a registry dataset"));
        let ring = min_buf_capacity(&e, true);
        let flat = min_buf_capacity(&e, false);
        let ring_row = vec![
            name.to_string(),
            ring.to_string(),
            flat.to_string(),
            format!("{:.1}x", flat as f64 / ring as f64),
        ];

        let run = |engine: Engine| engine.run(&e.graph, &e.sim, &e.opts);
        let peel_ms = run(Engine::OURS)
            .expect("the peel completes")
            .report
            .total_ms;
        let gpu_mpm = run(Engine::GpuMpm).expect("GPU-MPM completes");
        assert_eq!(gpu_mpm.core, e.truth);
        let med = run(Engine::MedusaMpm).map_or(f64::NAN, |r| r.report.total_ms);
        let mpm_ms = gpu_mpm.report.total_ms;
        let mpm_row = vec![
            name.to_string(),
            format!("{peel_ms:.2}"),
            format!("{mpm_ms:.2} ({} sweeps)", gpu_mpm.iterations),
            format!("{med:.2}"),
        ];
        let cells = (
            (name.into(), ring, flat),
            (name.into(), peel_ms, mpm_ms, med),
        );
        (ring_row, mpm_row, cells)
    });
    let mut out = Extensions::default();
    let (mut ring_rows, mut mpm_rows) = (Vec::new(), Vec::new());
    for (ring_row, mpm_row, (ring, mpm)) in rows.into_iter().rev() {
        ring_rows.push(ring_row);
        mpm_rows.push(mpm_row);
        out.ring_ablation.push(ring);
        out.mpm_vs_peel.push(mpm);
    }
    let ring_headers = ["Dataset", "ring buffer", "flat buffer", "ring advantage"];
    let mpm_headers = ["Dataset", "Peel (Ours)", "GPU-MPM (direct)", "Medusa-MPM"];
    let text = format!(
        "EXTENSION 1 — RING-BUFFER ABLATION (§IV-C): smallest per-block buffer that completes\n\n\
         {}{}\n\
         The direct MPM kernel removes Medusa's framework tax but still pays MPM's higher\n\
         total workload — the §I trade-off: massive parallelism cannot fully offset\n\
         recomputing every vertex until convergence.\n",
        render_table(&ring_headers.map(String::from), &ring_rows),
        titled(
            "EXTENSION 2 — PEELING vs DIRECT GPU-MPM vs MEDUSA-MPM (total-workload trade-off)",
            &mpm_headers.map(String::from),
            &mpm_rows
        ),
    );
    table_files("extensions", (text, to_json(&out)))
}

/// The smallest per-block buffer capacity with which the peel completes
/// `e`, with or without the ring layout: an exponential, then a binary
/// search.
fn min_buf_capacity(e: &Env, ring: bool) -> usize {
    let ok = |cap: usize| {
        let cfg = PeelConfig {
            buf_capacity: cap,
            ring_buffer: ring,
            ..e.opts.peel
        };
        match decompose(&e.graph, &cfg, &e.sim) {
            Ok(run) => {
                assert_eq!(run.core, e.truth);
                true
            }
            Err(SimError::Kernel(KernelError::BufferOverflow { .. })) => false,
            Err(err) => panic!("unexpected failure: {err}"),
        }
    };
    let mut hi = 64usize;
    while !ok(hi) {
        hi *= 2;
        assert!(hi <= 1 << 26, "runaway capacity search");
    }
    let mut lo = hi / 2;
    while lo + 1 < hi {
        let mid = (lo + hi) / 2;
        if ok(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}
