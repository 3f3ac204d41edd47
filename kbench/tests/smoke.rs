//! Smoke test of the benchmark at `--check` sizes: it emits every metric
//! `BENCHMARK.json` declares, with its unit; no op fails; simulated metrics
//! repeat exactly across runs and rayon widths; spans are well-formed; the
//! sharded charge reconciles at one device.

use kcore_gpu::{decompose_multi_fleet, MultiGpuConfig, PeelConfig};
use kcore_gpusim::{LaunchConfig, SimOptions};
use kcore_kbench::json::{self, Json};
use kcore_kbench::layers::MultiStats;
use kcore_kbench::run::p1_overcharge_ms;
use kcore_kbench::{run, RunOptions, RunResult, Scale, Workload};
use std::path::PathBuf;

fn options(w: Workload, trace: bool, threads: usize, dir: &str) -> RunOptions {
    RunOptions {
        workload: w,
        seed: 1,
        seconds: 0.0,
        trace,
        scale: Scale::Check,
        threads,
        out: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(dir),
    }
}

fn run_ok(o: &RunOptions) -> RunResult {
    let r = run(o).unwrap_or_else(|e| panic!("{}: {e}", o.workload.name()));
    assert!(r.attempted >= 1);
    assert_eq!(
        r.failed,
        0,
        "{}: {} of {} ops failed",
        o.workload.name(),
        r.failed,
        r.attempted
    );
    assert_eq!(r.fail_frac(), 0.0);
    r
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark directory");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

fn assert_emits(r: &RunResult, list: &str, w: Workload) {
    let want = declared(list);
    let got: Vec<(String, String)> = r
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect();
    assert_eq!(
        got,
        want,
        "{}: {list} metrics differ from BENCHMARK.json",
        w.name()
    );
    // The printed result line carries the same metrics and parses.
    let line = json::parse(&r.result_line()).expect("result line is JSON");
    assert_eq!(
        line.get("metrics").and_then(Json::as_object).unwrap().len(),
        want.len()
    );
    assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
}

const SIM_METRICS: [&str; 3] = ["sim_ms_p50", "sim_ms_p90", "device_peak_mb"];

#[test]
fn every_workload_emits_the_declared_metrics_and_repeats_its_sim_metrics() {
    for w in Workload::ALL {
        let dir = format!("e2e-{}", w.name());
        let a = run_ok(&options(w, false, 1, &dir));
        assert_emits(&a, "end_to_end", w);
        for m in &a.metrics {
            assert!(m.value > 0.0, "{}: {} is {}", w.name(), m.name, m.value);
        }
        let b = run_ok(&options(w, false, 1, &dir));
        let c = run_ok(&options(w, false, 2, &dir));
        for name in SIM_METRICS {
            let v = a.metric(name).unwrap();
            assert_eq!(
                v.to_bits(),
                b.metric(name).unwrap().to_bits(),
                "{}: {name} across runs",
                w.name()
            );
            assert_eq!(
                v.to_bits(),
                c.metric(name).unwrap().to_bits(),
                "{}: {name} at 2 threads",
                w.name()
            );
        }
    }
}

#[test]
fn traced_runs_emit_layers_and_well_formed_spans() {
    for w in Workload::ALL {
        let r = run_ok(&options(
            w,
            true,
            w.threads(),
            &format!("traced-{}", w.name()),
        ));
        assert_emits(&r, "per_layer", w);
        let spans = r.tracer.spans();
        assert!(
            spans.iter().any(|s| s.name == "op"),
            "{}: no op spans",
            w.name()
        );
        for (i, s) in spans.iter().enumerate() {
            assert!(
                s.end_us >= s.start_us,
                "{}: span {i} ends before it starts",
                w.name()
            );
            if let Some(p) = s.parent {
                let p = &spans[p];
                assert!(
                    p.start_us <= s.start_us && s.end_us <= p.end_us,
                    "{}: span {i} escapes its parent",
                    w.name()
                );
                assert_eq!(
                    p.op,
                    s.op,
                    "{}: span {i} and its parent belong to different ops",
                    w.name()
                );
            }
        }
        assert!(
            r.tracer.self_times().iter().all(|&t| t >= -1e-6),
            "{}: negative self time",
            w.name()
        );
        let doc = json::parse(&r.tracer.to_json(w.name())).expect("spans file is JSON");
        assert_eq!(
            doc.get("spans").and_then(Json::as_array).unwrap().len(),
            spans.len()
        );
        if w == Workload::DynChurn {
            assert_eq!(
                r.metric("core.dynamic.rejected"),
                Some(0.0),
                "churn stream has invalid updates"
            );
            assert!(r.metric("core.dynamic.repeel_sim_ms").unwrap() > 0.0);
        }
        if w == Workload::ShardP4 {
            assert!(r.metric("core.multi.sub_rounds").unwrap() > 0.0);
        }
    }
}

#[test]
fn sharded_charge_residual_matches_p1_overcharge() {
    let g = kcore_graph::gen::rmat(10, 6_000, kcore_graph::gen::RmatParams::graph500(), 7);
    let sim = SimOptions::default();
    let cfg = MultiGpuConfig {
        num_gpus: 1,
        peel: PeelConfig::default().with_launch(LaunchConfig {
            blocks: 16,
            threads_per_block: 128,
        }),
        ..MultiGpuConfig::default()
    };
    let fleet = decompose_multi_fleet(&g, &cfg, &sim, "p1").unwrap();
    let residual = MultiStats::from_fleet(&fleet).charge_residual_ms;
    let over = p1_overcharge_ms(&g, &cfg, &sim).unwrap();
    let tol = 1e-9 * fleet.run.total_ms;
    assert!(
        (residual - over).abs() <= tol,
        "ledger residual {residual} ms vs p=1 overcharge {over} ms"
    );
}
