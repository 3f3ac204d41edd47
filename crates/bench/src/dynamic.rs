//! The **dynamic maintenance table** (the paper's §VI motivation):
//! sustained updates/sec of the batched GPU maintenance engine on R-MAT
//! edge churn, against the only strategy the paper's systems offer an
//! evolving graph — a full from-scratch re-peel after every update.
//!
//! The churn stream is valid ([`ValidChurn`]): each update is equally
//! likely to delete a present edge or insert an absent pair, and no edge
//! repeats within a 1024-update batch, so every smaller batch size replays
//! the same stream and the engine rejects nothing. For each batch size the
//! whole stream is replayed through a fresh [`DynamicCore`] and the
//! *simulated* milliseconds are summed; the baseline is the average
//! simulated cost of a full peel sampled at evenly spaced points of the
//! same stream (graph size barely moves, so the sample mean is
//! representative). The measured maintenance/re-peel **crossover** — the
//! net batch size at which one re-peel becomes cheaper than maintaining
//! the batch — is derived from the largest-batch run and reported next to
//! the engine's configured fallback threshold.

use crate::{table_files, titled, to_json, ValidChurn};
use kcore_cpu::{bz, CoreAlgorithm};
use kcore_gpu::{BatchPath, BatchReport, DynamicConfig, DynamicCore, PeelConfig};
use kcore_gpusim::{LaunchConfig, SimOptions, TransferDir};
use kcore_graph::{gen, EdgeSet, EdgeUpdate};
use serde::Serialize;
use std::collections::HashSet;

#[derive(Serialize, Default)]
struct Row {
    batch_size: usize,
    sim_ms: f64,
    updates_per_sec: f64,
    speedup_vs_repeel: f64,
    batches: usize,
    repeeled_batches: usize,
    pruned_inserts: usize,
    candidates: u64,
    changed: u64,
}

#[derive(Serialize)]
struct Table {
    scale: u32,
    num_vertices: u32,
    num_edges: u64,
    updates: usize,
    repeel_avg_ms: f64,
    baseline_updates_per_sec: f64,
    /// Measured: net updates at which one full re-peel costs less than
    /// maintaining them (derived from the largest-batch run).
    crossover_updates: u64,
    /// Configured: net-update count at which the engine falls back.
    configured_crossover: usize,
    rows: Vec<Row>,
}

/// The dynamic maintenance table as `table_dynamic.{txt,json}`: 4,096
/// updates on rmat-16 (the acceptance workload), or 256 on rmat-9 under
/// `smoke`.
///
/// `check` additionally asserts that no run rejects an update, that every
/// maintained batch reads its results back only at its end (at most two
/// D2H copies, and no launch after them) and makes exactly one traversal
/// per matching (`apply_checked`), verifies the final core numbers of
/// every run against a from-scratch BZ peel of the final graph, drives one
/// pure-insert batch and one pure-delete batch checked against BZ after
/// each, and at full scale asserts the ≥ 10x acceptance bar.
pub fn table_dynamic(smoke: bool, check: bool) -> Vec<(String, String)> {
    let (scale, m, updates, samples) = if smoke {
        (9u32, 2_000u64, 256usize, 4usize)
    } else {
        (16u32, 262_144u64, 4_096usize, 6usize)
    };
    let launch = LaunchConfig {
        blocks: 16,
        threads_per_block: 128,
    };
    let peel_cfg = PeelConfig::default().with_launch(launch);
    let dyn_cfg = DynamicConfig {
        launch,
        peel: peel_cfg,
        ..DynamicConfig::default()
    };

    eprintln!("[table_dynamic] generating rmat-{scale} ({m} edge samples)");
    let g = gen::rmat(scale, m, gen::RmatParams::graph500(), 7);
    let n = g.num_vertices();
    let batch_sizes = [1usize, 16, 64, 256, 1024];
    let max_batch = batch_sizes[batch_sizes.len() - 1];
    let mut churn = ValidChurn::new(&g, 0x1234_5678);
    let ops: Vec<EdgeUpdate> = (0..updates.div_ceil(max_batch))
        .flat_map(|_| churn.next_batch(max_batch))
        .take(updates)
        .collect();

    // Host replay of the stream: snapshots for the sampled re-peel baseline
    // and the final graph, the ground truth for `check`.
    let mut graph = EdgeSet::from_csr(&g);
    let stride = (updates / samples).max(1);
    let mut repeel_ms = Vec::new();
    for (i, chunk) in ops.chunks(stride).enumerate() {
        graph.apply(&graph.classify(chunk));
        if chunk.len() == stride {
            let snap = graph.to_csr();
            let run = kcore_gpu::decompose(&snap, &peel_cfg, &SimOptions::default())
                .expect("baseline peel");
            eprintln!(
                "[table_dynamic] re-peel sample at update {}: {:.3} ms",
                (i + 1) * stride,
                run.report.total_ms
            );
            repeel_ms.push(run.report.total_ms);
        }
    }
    let repeel_avg_ms = repeel_ms.iter().sum::<f64>() / repeel_ms.len() as f64;
    let baseline_ups = 1_000.0 / repeel_avg_ms;
    let last = graph.to_csr();
    let truth = bz::Bz.run(&last);

    let mut rows = Vec::new();
    for &bs in &batch_sizes {
        let mut dc = DynamicCore::from_csr(&SimOptions::default(), &g, dyn_cfg.clone())
            .expect("engine init");
        let mut mirror = check.then(|| EdgeSet::from_csr(&g));
        let mut row = Row {
            batch_size: bs,
            ..Row::default()
        };
        let mut rejected = 0usize;
        for batch in ops.chunks(bs) {
            let rep = apply_checked(&mut dc, batch, mirror.as_mut());
            rejected += rep.rejected;
            row.sim_ms += rep.sim_ms;
            row.batches += 1;
            row.repeeled_batches += usize::from(rep.path == BatchPath::Repeeled);
            row.pruned_inserts += rep.pruned_inserts;
            row.candidates += rep.candidates;
            row.changed += rep.changed;
        }
        row.updates_per_sec = updates as f64 * 1_000.0 / row.sim_ms;
        row.speedup_vs_repeel = row.updates_per_sec / baseline_ups;
        eprintln!(
            "[table_dynamic] batch {bs}: {:.3} ms, {:.0} upd/s ({:.1}x)",
            row.sim_ms, row.updates_per_sec, row.speedup_vs_repeel
        );
        if check {
            assert_eq!(
                rejected, 0,
                "batch size {bs}: the engine rejected updates of a valid stream"
            );
            assert_eq!(
                dc.cores(),
                &truth[..],
                "batch size {bs}: maintained cores diverge from from-scratch BZ"
            );
        }
        rows.push(row);
    }

    // Measured crossover: per-update maintenance cost from the
    // largest-batch run (best amortization) vs one full re-peel.
    let per_update_ms = rows.last().expect("a batch size").sim_ms / updates as f64;
    let crossover_updates = (repeel_avg_ms / per_update_ms).ceil() as u64;
    let table = Table {
        scale,
        num_vertices: n,
        num_edges: last.num_edges(),
        updates,
        repeel_avg_ms,
        baseline_updates_per_sec: baseline_ups,
        crossover_updates,
        configured_crossover: dyn_cfg.crossover,
        rows,
    };

    let headers = [
        "Batch", "sim ms", "upd/s", "vs peel", "repeels", "pruned", "cand", "changed",
    ]
    .map(String::from);
    let mut text: Vec<Vec<String>> = table
        .rows
        .iter()
        .map(|r| {
            vec![
                r.batch_size.to_string(),
                format!("{:.2}", r.sim_ms),
                format!("{:.0}", r.updates_per_sec),
                format!("{:.1}x", r.speedup_vs_repeel),
                r.repeeled_batches.to_string(),
                r.pruned_inserts.to_string(),
                r.candidates.to_string(),
                r.changed.to_string(),
            ]
        })
        .collect();
    let mut repeel = vec![
        "re-peel".into(),
        format!("{repeel_avg_ms:.2}"),
        format!("{baseline_ups:.0}"),
        "1.0x".into(),
    ];
    repeel.resize(headers.len(), "-".into());
    text.push(repeel);
    let title = format!(
        "DYNAMIC MAINTENANCE — rmat-{scale} ({n} vertices, {} edges), {updates} updates",
        table.num_edges
    );
    let text = format!(
        "{}\nbaseline: full re-peel avg {repeel_avg_ms:.2} ms over {} samples\n\
         crossover: one re-peel ≈ {crossover_updates} maintained updates \
         (engine falls back at {} net updates/batch)\n",
        titled(&title, &headers, &text),
        repeel_ms.len(),
        dyn_cfg.crossover
    );

    if check {
        // One pure-insert batch followed by one pure-delete batch of the
        // same edges, checked against BZ after each.
        let mut dc =
            DynamicCore::from_csr(&SimOptions::default(), &g, dyn_cfg).expect("smoke engine init");
        let mut graph = EdgeSet::from_csr(&g);
        let pairs: Vec<(u32, u32)> = (0..32u32).map(|i| (i, i + n / 2)).collect();
        for mk in [
            EdgeUpdate::Insert as fn(u32, u32) -> EdgeUpdate,
            EdgeUpdate::Delete as fn(u32, u32) -> EdgeUpdate,
        ] {
            let batch: Vec<EdgeUpdate> = pairs.iter().map(|&(u, v)| mk(u, v)).collect();
            apply_checked(&mut dc, &batch, Some(&mut graph));
            assert_eq!(
                dc.cores(),
                &bz::Bz.run(&graph.to_csr())[..],
                "smoke batch diverges from from-scratch BZ"
            );
        }
        let best = table.rows.iter().map(|r| r.speedup_vs_repeel);
        let best = best.fold(0.0f64, f64::max);
        if smoke {
            eprintln!("[table_dynamic] check OK (smoke scale; best speedup {best:.1}x)");
        } else {
            assert!(
                best >= 10.0,
                "acceptance: batched maintenance must sustain ≥ 10x updates/sec over \
                 per-update re-peel at batch ≤ 1024 (best {best:.1}x)"
            );
            eprintln!("[table_dynamic] check OK (best speedup {best:.1}x ≥ 10x)");
        }
    }
    table_files("table_dynamic", (text, to_json(&table)))
}

/// Applies one batch. With the table's `mirror` (under `check`), it also
/// classifies the batch there and checks a maintained batch's records. The
/// batch makes no host round trip between its updates, as its transfer
/// records show: at most two D2H copies (the counters with the head of the
/// changed list, and the rest of a long list), and no launch after the
/// first of them. And it runs one traversal per matching: exactly
/// `3·G_I + G_D + 1` launches, `G_I` and `G_D` being the matchings that
/// first fit makes of the mirror's net inserts and net deletes.
fn apply_checked(
    dc: &mut DynamicCore,
    batch: &[EdgeUpdate],
    mirror: Option<&mut EdgeSet>,
) -> BatchReport {
    let (l0, x0) = (dc.ctx().launches().len(), dc.ctx().transfers().len());
    let rep = dc.apply_batch(batch).expect("apply_batch");
    let Some(mirror) = mirror else {
        return rep;
    };
    let net = mirror.classify(batch);
    mirror.apply(&net);
    if rep.path == BatchPath::Maintained {
        let ctx = dc.ctx();
        let mut reads = ctx.transfers()[x0..]
            .iter()
            .filter(|t| t.dir == TransferDir::DeviceToHost);
        let first = reads
            .next()
            .expect("a maintained batch reads its result back");
        assert!(
            reads.count() <= 1,
            "a maintained batch of {} updates made more than two D2H copies",
            batch.len()
        );
        assert!(
            ctx.launches()[l0..]
                .iter()
                .all(|l| l.start_s < first.start_s),
            "a maintained batch of {} updates launched after reading back",
            batch.len()
        );
        let (g_i, g_d) = (first_fit(&net.inserts), first_fit(&net.deletes));
        assert_eq!(
            ctx.launches().len() - l0,
            3 * g_i + g_d + 1,
            "a maintained batch of {} updates with G_I = {g_i}, G_D = {g_d}",
            batch.len()
        );
    }
    rep
}

/// How many matchings first fit makes of `edges` in list order: each edge
/// joins the first matching that holds neither of its endpoints.
fn first_fit(edges: &[(u32, u32)]) -> usize {
    let mut matchings: Vec<HashSet<u32>> = Vec::new();
    for &(u, v) in edges {
        match matchings
            .iter_mut()
            .find(|m| !m.contains(&u) && !m.contains(&v))
        {
            Some(m) => m.extend([u, v]),
            None => matchings.push(HashSet::from([u, v])),
        }
    }
    matchings.len()
}
