//! Golden-trace regression test for the dynamic maintenance engine
//! (`kcore_gpu::dynamic`), mirroring `golden_trace.rs` for the static peel.
//!
//! A fixed churn workload (seeded R-MAT base graph; an xorshift stream of
//! random pairs covering inserts, rejects and a PCD-pruned tail, plus valid
//! deletes and inserts from [`kcore_bench::ValidChurn`]) is driven through
//! [`kcore_gpu::DynamicCore`], and the per-phase launch counts,
//! transfer bytes and kernel counters are pinned against
//! `tests/golden/dynamic_rmat9.json`. The memstats snapshot rides along as
//! an FNV-1a hash so allocation-ledger changes are caught too.
//!
//! After an *intentional* accounting change, regenerate the golden file:
//!
//! ```bash
//! KCORE_BLESS=1 cargo test --test golden_dynamic
//! ```

use kcore_bench::{assert_golden, ValidChurn};
use kcore_gpu::{DynamicConfig, DynamicCore};
use kcore_gpusim::{fnv1a_bytes, Counters, SimOptions, Trace, SCHEMA_VERSION};
use kcore_graph::{gen, EdgeUpdate};
use serde::Serialize;
use std::path::PathBuf;

/// The fixed churn workload: every update class the engine distinguishes
/// (insert, delete, duplicate/self-loop/out-of-range reject) appears, and
/// batches are large enough that classification and the per-edge kernels
/// all run. Random pairs almost never name a present edge, so each batch
/// also carries 32 valid updates, about half of them deletes that reach
/// the deletion cascade. Same base graph and reduced grid as the static
/// peel golden.
fn capture(label: &str) -> Trace {
    let g = gen::rmat(9, 2_000, gen::RmatParams::graph500(), 7);
    let n = g.num_vertices();
    let cfg = DynamicConfig {
        launch: kcore_gpusim::LaunchConfig {
            blocks: 16,
            threads_per_block: 128,
        },
        ..DynamicConfig::default()
    };
    let mut dc = DynamicCore::from_csr(&SimOptions::default(), &g, cfg).unwrap();
    dc.ctx_mut().set_block_profiling(true);
    let mut state: u32 = 0x9e37_79b9;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 17;
        state ^= state << 5;
        state
    };
    let mut churn = ValidChurn::new(&g, 0x9e37_79b9);
    for _ in 0..4 {
        let mut batch: Vec<EdgeUpdate> = (0..64)
            .map(|_| {
                let u = rng() % (n + 2);
                let v = rng() % (n + 2);
                if rng() % 2 == 0 {
                    EdgeUpdate::Insert(u, v)
                } else {
                    EdgeUpdate::Delete(u, v)
                }
            })
            .collect();
        batch.extend(churn.next_batch(32));
        dc.apply_batch(&batch).unwrap();
    }
    dc.ctx_mut().trace(label)
}

/// Timing-free golden projection, identical in shape to the static peel
/// golden (`golden_trace.rs`), plus a hash of the memstats JSON so the
/// dynamic engine's allocation ledger is pinned without a second file.
#[derive(Serialize)]
struct Golden {
    schema_version: u32,
    fingerprint: String,
    memstats_fnv1a: String,
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
        memstats_fnv1a: format!("{:#018x}", fnv1a_bytes(trace.memstats.to_json().as_bytes())),
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

#[test]
fn dynamic_trace_is_bit_identical_across_runs_and_pool_sizes() {
    let reference = capture("run");
    let reference_json = reference.to_json();
    assert_eq!(capture("run").to_json(), reference_json);
    for threads in [1usize, 2, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let t = pool.install(|| capture("run"));
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

#[test]
fn dynamic_trace_matches_checked_in_golden() {
    let got = golden_of(&capture("golden"));
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/dynamic_rmat9.json");
    assert_golden(&path, &got);
}
