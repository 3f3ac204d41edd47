//! Host-side profiling report: where *wall-clock* time goes while the
//! simulator runs Table II's nine peeling variants — as opposed to every
//! other table, which reports *simulated* device time. The split matters:
//! simulated time is the paper's claim, host time is what a contributor
//! actually waits for, and a host-side regression (say, an accidental
//! allocation storm in the wave scheduler) is invisible to every simulated
//! metric.
//!
//! ```bash
//! cargo run --release -p kcore-bench --bin hostprof            # report
//! cargo run --release -p kcore-bench --bin hostprof -- --check # CI smoke
//! ```
//!
//! Each (dataset, variant) run gets a wall-clock [`HostProfiler`] wrapped
//! in a `run` span; the per-launch buckets (dispatch, serial commit,
//! arena, transfers, fused step) accumulated by the execution engine are
//! rolled up per phase and printed host-vs-sim.
//! Output lands in `results/table_host.json` and `results/table_host.txt`,
//! the latter naming the top host overhead buckets across the whole sweep.
//!
//! `--check` is the CI smoke: it additionally asserts that every profile
//! round-trips through the JSON parser under the current schema, that
//! bucket time never exceeds the run span that contains it, and that the
//! buckets attribute at least [`COVERAGE_FLOOR`] of the run span's wall
//! time — the engine's instrumentation is considered broken below that.

use kcore_bench::regress::{self, parse_json};
use kcore_bench::{prepare_all, print_table, results_dir, save_json};
use kcore_gpusim::{HostBucket, HostProfile, HostProfiler, HOSTPROF_SCHEMA_VERSION};
use serde::Serialize;

/// Minimum fraction of the `run` span the named buckets must explain in
/// `--check` mode.
pub const COVERAGE_FLOOR: f64 = 0.95;

#[derive(Serialize)]
struct Row {
    dataset: String,
    variant: String,
    /// Simulated device milliseconds (what the tables report).
    sim_ms: f64,
    /// Wall-clock milliseconds of the whole run span.
    host_ms: f64,
    /// Wall-clock milliseconds explained by named buckets.
    attributed_ms: f64,
    /// `attributed_ms / host_ms`.
    coverage: f64,
    /// Per-bucket wall-clock milliseconds, [`HostBucket::ALL`] order.
    buckets_ms: Vec<(String, f64)>,
}

/// Sums a profile's bucket seconds across phases, in [`HostBucket::ALL`]
/// order.
fn bucket_totals(p: &HostProfile) -> Vec<(String, f64)> {
    HostBucket::ALL
        .iter()
        .map(|b| {
            let s: f64 = p.phases.iter().map(|ph| ph.bucket_s(*b)).sum();
            (b.label().to_string(), s * 1e3)
        })
        .collect()
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let envs = prepare_all();
    let variants = kcore_gpu::PeelConfig::default().all_variants();

    // Warm-up: the process's first run pays one-time costs (first-touch
    // pages, thread spawn-up, allocator growth) that would land in — and
    // distort — whichever (dataset, variant) happens to go first. Run one
    // unprofiled throwaway first so every measured run starts warm.
    if let Some(e) = envs.first() {
        let mut ctx = e.sim.context();
        let _ = kcore_gpu::decompose_in(&mut ctx, &e.graph, &e.peel_cfg);
    }

    let mut rows: Vec<Row> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    for e in &envs {
        eprintln!("[hostprof] {}", e.dataset.name);
        for base in &variants {
            let cfg = kcore_gpu::PeelConfig {
                compaction: base.compaction,
                buffering: base.buffering,
                ..e.peel_cfg
            };
            let mut ctx = e.sim.context();
            // Wall-clock profiler, injected explicitly: this binary measures
            // host time by design, no env opt-in needed.
            ctx.set_host_profiler(Some(HostProfiler::wall()));
            let span = ctx.host_span("run");
            let res = kcore_gpu::decompose_in(&mut ctx, &e.graph, &cfg);
            drop(span);
            let label = format!("{} on {}", cfg.variant_name(), e.dataset.name);
            let profile = ctx.host_profile(&label).expect("profiler was attached");
            if let Err(err) = res {
                // OOM / time-limit runs still profile cleanly; note and keep.
                eprintln!("  {label}: {err} (profiled anyway)");
            }
            let host_ms = profile.root_span_s() * 1e3;
            let attributed_ms = profile.attributed_s() * 1e3;
            let coverage = if host_ms > 0.0 {
                attributed_ms / host_ms
            } else {
                0.0
            };
            if check {
                check_profile(&profile, host_ms, attributed_ms, coverage, &mut failures);
            }
            rows.push(Row {
                dataset: e.dataset.name.to_string(),
                variant: cfg.variant_name().to_string(),
                sim_ms: ctx.elapsed_ms(),
                host_ms,
                attributed_ms,
                coverage,
                buckets_ms: bucket_totals(&profile),
            });
        }
    }

    // Top host overheads across the sweep: total ms per bucket, descending.
    let mut totals: Vec<(String, f64)> = HostBucket::ALL
        .iter()
        .map(|b| (b.label().to_string(), 0.0))
        .collect();
    for r in &rows {
        for (i, (_, ms)) in r.buckets_ms.iter().enumerate() {
            totals[i].1 += ms;
        }
    }
    totals.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());

    let headers: Vec<String> = [
        "Dataset", "Variant", "sim ms", "host ms", "attr ms", "cover",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.dataset.clone(),
                r.variant.clone(),
                format!("{:.3}", r.sim_ms),
                format!("{:.1}", r.host_ms),
                format!("{:.1}", r.attributed_ms),
                format!("{:.1}%", r.coverage * 100.0),
            ]
        })
        .collect();
    println!("\nTABLE HOST — wall-clock attribution of the ablation sweep\n");
    print_table(&headers, &table);
    println!("\ntop host overheads across the sweep:");
    let mut txt = String::new();
    txt.push_str("TABLE HOST — wall-clock attribution of the ablation sweep\n\n");
    txt.push_str(&headers.join("  "));
    txt.push('\n');
    for r in &table {
        txt.push_str(&r.join("  "));
        txt.push('\n');
    }
    txt.push_str("\ntop host overheads across the sweep:\n");
    for (i, (name, ms)) in totals.iter().take(3).enumerate() {
        let line = format!("  {}. {name}: {ms:.1} ms", i + 1);
        println!("{line}");
        txt.push_str(&line);
        txt.push('\n');
    }
    save_json("table_host", &rows);
    let txt_path = results_dir().join("table_host.txt");
    std::fs::write(&txt_path, txt).expect("write table_host.txt");
    eprintln!("[saved {}]", txt_path.display());

    if check {
        // The JSON artifact itself must read back through the same parser
        // the regression tooling uses.
        let json_path = results_dir().join("table_host.json");
        let text = std::fs::read_to_string(&json_path).expect("read table_host.json back");
        match parse_json(&text) {
            Ok(v) => {
                let arr = regress::as_array(&v).map(Vec::len).unwrap_or(0);
                if arr != rows.len() {
                    failures.push(format!(
                        "table_host.json round-trip: {arr} rows parsed, {} written",
                        rows.len()
                    ));
                }
            }
            Err(e) => failures.push(format!("table_host.json does not re-parse: {e}")),
        }
        if failures.is_empty() {
            println!("\nhostprof --check: all profiles well-formed");
        } else {
            println!("\nhostprof --check FAILURES:");
            for f in &failures {
                println!("  {f}");
            }
            std::process::exit(1);
        }
    }
}

/// `--check` assertions for one profile.
fn check_profile(
    profile: &HostProfile,
    host_ms: f64,
    attributed_ms: f64,
    coverage: f64,
    failures: &mut Vec<String>,
) {
    let label = &profile.label;
    // (1) the profile's own JSON parses under the current schema
    match parse_json(&profile.to_json()) {
        Ok(v) => {
            let schema = regress::get(&v, "schema_version").and_then(regress::as_u64);
            if schema != Some(HOSTPROF_SCHEMA_VERSION as u64) {
                failures.push(format!(
                    "{label}: schema_version {schema:?} != {HOSTPROF_SCHEMA_VERSION}"
                ));
            }
        }
        Err(e) => failures.push(format!("{label}: profile JSON does not parse: {e}")),
    }
    if let Err(e) = profile.check_well_formed() {
        failures.push(format!("{label}: malformed span tree: {e}"));
    }
    // (2) buckets can never exceed the span that contains them (1% slack
    // for clock-read granularity at microsecond-scale runs)
    if attributed_ms > host_ms * 1.01 + 0.1 {
        failures.push(format!(
            "{label}: attributed {attributed_ms:.2} ms exceeds run span {host_ms:.2} ms"
        ));
    }
    // (3) the instrumentation must explain the run
    if coverage < COVERAGE_FLOOR {
        failures.push(format!(
            "{label}: buckets cover {:.1}% of the run span (< {:.0}%)",
            coverage * 100.0,
            COVERAGE_FLOOR * 100.0
        ));
    }
}
