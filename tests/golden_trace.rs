//! Golden-trace regression tests for the profiling subsystem (DESIGN.md
//! "Profiling & traces").
//!
//! The simulator is deterministic by construction: every quantity in a
//! trace is *simulated* (no wall-clock reads), the peeling loop's wave
//! shuffle is seeded, and the rayon shim's parallel map is order-preserving
//! regardless of thread count. These tests pin that property down three
//! ways:
//!
//! 1. the same program on the same graph yields a **bit-identical** trace
//!    JSON across two captures in one process;
//! 2. the trace is identical across rayon thread-pool sizes (1, 2, 4);
//! 3. the per-phase counters match a checked-in golden file, so an
//!    accidental change to kernel accounting (a lost `charge_tx`, a phase
//!    mislabel, a different launch count) fails CI even if the result
//!    vector is still correct.
//!
//! After an *intentional* accounting change, regenerate the golden file:
//!
//! ```bash
//! KCORE_BLESS=1 cargo test --test golden_trace
//! ```

use kcore_bench::assert_golden;
use kcore_gpu::PeelConfig;
use kcore_gpusim::{fnv1a_bytes, Counters, SimOptions, Timeline, Trace, SCHEMA_VERSION};
use kcore_graph::gen;
use serde::Serialize;
use std::path::PathBuf;

/// One full peel of a small, seeded R-MAT graph with per-block counters on.
/// A reduced grid keeps each simulated run fast; the launch geometry is part
/// of the fingerprint, so the golden pins it too.
fn capture_both(label: &str) -> (Trace, Timeline) {
    let g = gen::rmat(9, 2_000, gen::RmatParams::graph500(), 7);
    let cfg = PeelConfig::default().with_launch(kcore_gpusim::LaunchConfig {
        blocks: 16,
        threads_per_block: 128,
    });
    let mut ctx = SimOptions::default().context();
    ctx.set_block_profiling(true);
    kcore_gpu::decompose_in(&mut ctx, &g, &cfg).unwrap();
    let timeline = ctx.timeline(label);
    (ctx.trace(label), timeline)
}

fn capture(label: &str) -> Trace {
    capture_both(label).0
}

#[test]
fn trace_is_bit_identical_across_runs() {
    let a = capture("run");
    let b = capture("run");
    assert_eq!(a.counters_fingerprint(), b.counters_fingerprint());
    assert_eq!(a.to_json(), b.to_json());
}

#[test]
fn trace_is_identical_across_thread_pool_sizes() {
    let reference = capture("pool");
    let reference_json = reference.to_json();
    for threads in [1usize, 2, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let t = pool.install(|| capture("pool"));
        assert_eq!(
            t.counters_fingerprint(),
            reference.counters_fingerprint(),
            "fingerprint diverged with {threads} rayon threads"
        );
        assert_eq!(
            t.to_json(),
            reference_json,
            "trace diverged with {threads} rayon threads"
        );
    }
}

/// The timing-free projection of a trace that the golden file stores:
/// per-phase launch counts and summed counters, plus the fingerprint over
/// the full launch/transfer sequence. Timing is excluded on purpose so the
/// golden survives cost-*constant* recalibration but catches any change to
/// what the kernels actually do.
#[derive(Serialize)]
struct Golden {
    schema_version: u32,
    fingerprint: String,
    phases: Vec<GoldenPhase>,
}

#[derive(Serialize)]
struct GoldenPhase {
    phase: &'static str,
    launches: u64,
    h2d_bytes: u64,
    d2h_bytes: u64,
    counters: Counters,
}

fn golden_of(trace: &Trace) -> String {
    let g = Golden {
        schema_version: SCHEMA_VERSION,
        fingerprint: format!("{:#018x}", trace.counters_fingerprint()),
        phases: trace
            .phases
            .iter()
            .map(|p| GoldenPhase {
                phase: p.phase,
                launches: p.launches,
                h2d_bytes: p.h2d_bytes,
                d2h_bytes: p.d2h_bytes,
                counters: p.counters,
            })
            .collect(),
    };
    serde_json::to_string_pretty(&g).unwrap()
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

#[test]
fn trace_matches_checked_in_golden() {
    let got = golden_of(&capture("golden"));
    assert_golden(&golden_path("peel_rmat9.json"), &got);
}

// ---------------------------------------------------------------------------
// Memory observability (memstats) determinism
// ---------------------------------------------------------------------------

/// The memstats snapshot embedded in a trace is itself golden-pinned: the
/// full JSON document (ledger, phase watermarks, peak live set) is
/// byte-identical across runs and rayon pool sizes. Its transfers are the
/// trace's: the `peel_rmat9.json` golden pins them per phase.
#[test]
fn memstats_matches_checked_in_golden() {
    let trace = capture("memstats-golden");
    let got = trace.memstats.to_json();

    for threads in [1usize, 2, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let again = pool
            .install(|| capture("memstats-golden"))
            .memstats
            .to_json();
        assert_eq!(again, got, "memstats diverged with {threads} rayon threads");
    }

    assert_golden(&golden_path("peel_rmat9_memstats.json"), &got);
}

// ---------------------------------------------------------------------------
// Timeline / Perfetto export determinism
// ---------------------------------------------------------------------------

/// The checked-in projection of the SM timeline: event population counts
/// plus an FNV-1a hash of the exact Chrome trace-event JSON bytes, so the
/// golden pins every byte of the export without checking in the (large)
/// event stream itself.
#[derive(Serialize)]
struct GoldenTimeline {
    schema_version: u32,
    sm_count: u32,
    spans: usize,
    transfers: usize,
    counter_points: usize,
    perfetto_json_fnv1a: String,
}

fn golden_timeline_of(tl: &Timeline) -> String {
    let g = GoldenTimeline {
        schema_version: SCHEMA_VERSION,
        sm_count: tl.sm_count,
        spans: tl.spans.len(),
        transfers: tl.transfers.len(),
        counter_points: tl.counters.len(),
        perfetto_json_fnv1a: format!("{:#018x}", fnv1a_bytes(tl.to_chrome_json().as_bytes())),
    };
    serde_json::to_string_pretty(&g).unwrap()
}

#[test]
fn perfetto_json_is_byte_identical_across_runs_and_pool_sizes() {
    let reference = capture_both("timeline").1.to_chrome_json();
    assert_eq!(reference, capture_both("timeline").1.to_chrome_json());
    for threads in [1usize, 2, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let json = pool.install(|| capture_both("timeline").1.to_chrome_json());
        assert_eq!(
            json, reference,
            "Perfetto export diverged with {threads} rayon threads"
        );
    }
}

#[test]
fn timeline_matches_checked_in_golden() {
    let got = golden_timeline_of(&capture_both("timeline-golden").1);
    assert_golden(&golden_path("peel_rmat9_timeline.json"), &got);
}
