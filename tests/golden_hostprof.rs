//! Golden tests for the host profiling layer (DESIGN.md "Host profiling &
//! the wall-clock/sim-clock split").
//!
//! Host profiles measure *wall-clock* time, so their values can never be
//! golden-pinned directly — instead the tests inject the deterministic
//! [`FakeClock`], under which every clock read returns the next tick of a
//! fixed sequence. The engine reads the clock only on the calling thread,
//! and its wave loop is serial at every rayon width, so the clock-read
//! sequence is exactly reproducible and the full host-track Perfetto export
//! is byte-stable — which the golden pins via an FNV-1a hash, alongside the
//! span tree and per-phase launch counts. The golden is blessed at pool
//! size 1; pools 2 and 8 must reproduce the same projection.
//!
//! After an intentional instrumentation change, regenerate:
//!
//! ```bash
//! KCORE_BLESS=1 cargo test --test golden_hostprof
//! ```

use kcore_bench::regress;
use kcore_gpu::PeelConfig;
use kcore_gpusim::{HostProfile, HostProfiler, SimOptions, HOSTPROF_SCHEMA_VERSION};
use kcore_graph::gen;
use serde::Serialize;
use std::path::PathBuf;

/// The golden workload: the same seeded R-MAT peel the trace goldens pin,
/// with a fake-clock profiler attached (10 us per clock read).
fn capture(label: &str) -> (HostProfile, String) {
    let g = gen::rmat(9, 2_000, gen::RmatParams::graph500(), 7);
    let cfg = PeelConfig::default().with_launch(kcore_gpusim::LaunchConfig {
        blocks: 16,
        threads_per_block: 128,
    });
    let mut ctx = SimOptions::default().context();
    ctx.set_host_profiler(Some(HostProfiler::faked(10)));
    kcore_gpu::decompose_in(&mut ctx, &g, &cfg).unwrap();
    let timeline = ctx.timeline(label);
    let profile = ctx.host_profile(label).expect("profiler attached");
    let chrome = timeline.to_chrome_json_with_host(Some(&profile));
    (profile, chrome)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The checked-in projection: span tree (names + depths, in start order),
/// per-phase launch counts, and a hash of the combined SM + host Perfetto
/// export under the fake clock. Wall-clock-dependent values (alloc counts,
/// real durations) are excluded by construction — the fake clock makes
/// every remaining byte a pure function of the engine's instrumentation.
#[derive(Serialize)]
struct GoldenHostprof {
    schema_version: u32,
    threads: usize,
    spans: Vec<(String, u32)>,
    phases: Vec<(String, u64)>,
    perfetto_host_json_fnv1a: String,
}

fn golden_of(profile: &HostProfile, chrome: &str) -> String {
    let g = GoldenHostprof {
        schema_version: profile.schema_version,
        threads: profile.threads.len(),
        spans: profile
            .threads
            .iter()
            .flat_map(|t| t.spans.iter().map(|s| (s.name.clone(), s.depth)))
            .collect(),
        phases: profile
            .phases
            .iter()
            .map(|p| (p.phase.clone(), p.launches))
            .collect(),
        perfetto_host_json_fnv1a: format!("{:#018x}", fnv1a(chrome.as_bytes())),
    };
    serde_json::to_string_pretty(&g).unwrap()
}

/// Span names `decompose_in` is contractually expected to emit.
const PEEL_SPANS: [&str; 4] = ["peel", "peel/setup", "peel/rounds", "peel/result"];

#[test]
fn fake_clock_hostprof_matches_checked_in_golden() {
    // Pool size 1: the engine's serial specializations make the clock-read
    // sequence (and hence every fake timestamp) exactly reproducible.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    let (profile, chrome) = pool.install(|| capture("hostprof-golden"));
    let got = golden_of(&profile, &chrome);

    // determinism before comparing to disk: a second capture is bit-identical
    let (profile2, chrome2) = pool.install(|| capture("hostprof-golden"));
    assert_eq!(golden_of(&profile2, &chrome2), got);
    assert_eq!(chrome2, chrome, "fake-clock Perfetto export not bit-stable");

    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/peel_rmat9_hostprof.json");
    if std::env::var("KCORE_BLESS").is_ok() {
        std::fs::write(&path, &got).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden file {} ({e}); run with KCORE_BLESS=1 to create it",
            path.display()
        )
    });
    let want_schema = regress::parse_json(&want)
        .ok()
        .and_then(|v| regress::get(&v, "schema_version").and_then(regress::as_u64))
        .unwrap_or(0);
    assert_eq!(
        want_schema, HOSTPROF_SCHEMA_VERSION as u64,
        "golden blessed under hostprof schema {want_schema}, current is \
         {HOSTPROF_SCHEMA_VERSION}; refusing to diff across schemas — regenerate with \
         KCORE_BLESS=1"
    );
    assert_eq!(
        got,
        want,
        "host-profile projection diverged from {}; if the instrumentation change is \
         intentional, regenerate with KCORE_BLESS=1",
        path.display()
    );
}

#[test]
fn hostprof_shape_is_stable_across_pool_sizes() {
    let mut at_pool_1 = None;
    for threads in [1usize, 2, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let (profile, chrome) = pool.install(|| capture("hostprof-pools"));
        // only the calling thread reads the clock, so even the fake-clock
        // timestamps match pool 1's
        let projection = golden_of(&profile, &chrome);
        assert_eq!(
            at_pool_1.get_or_insert_with(|| projection.clone()),
            &projection,
            "fake-clock projection at pool {threads} differs from pool 1"
        );
        profile
            .check_well_formed()
            .unwrap_or_else(|e| panic!("malformed span tree at pool {threads}: {e}"));
        let names: std::collections::BTreeSet<&str> = profile
            .threads
            .iter()
            .flat_map(|t| t.spans.iter().map(|s| s.name.as_str()))
            .collect();
        for expected in PEEL_SPANS {
            assert!(
                names.contains(expected),
                "span {expected:?} missing at pool {threads} (got {names:?})"
            );
        }
        // the profile JSON round-trips through the workspace's own parser
        let v = regress::parse_json(&profile.to_json())
            .unwrap_or_else(|e| panic!("profile JSON unparseable at pool {threads}: {e}"));
        assert_eq!(
            regress::get(&v, "schema_version").and_then(regress::as_u64),
            Some(HOSTPROF_SCHEMA_VERSION as u64)
        );
        // and the combined export carries the host process beside the SMs
        assert!(
            chrome.contains("Host (wall clock)"),
            "host process missing from Perfetto export at pool {threads}"
        );
        assert!(chrome.contains("\"cat\":\"host\""));
    }
}

/// The host profiler must never leak into the simulated artifacts: a
/// profiled run's trace and plain Perfetto export are byte-identical to an
/// unprofiled run's.
#[test]
fn profiling_never_perturbs_simulated_artifacts() {
    let g = gen::rmat(9, 2_000, gen::RmatParams::graph500(), 7);
    let cfg = PeelConfig::default().with_launch(kcore_gpusim::LaunchConfig {
        blocks: 16,
        threads_per_block: 128,
    });
    let run = |profiled: bool| {
        let mut ctx = SimOptions::default().context();
        if profiled {
            ctx.set_host_profiler(Some(HostProfiler::faked(10)));
        } else {
            ctx.set_host_profiler(None);
        }
        kcore_gpu::decompose_in(&mut ctx, &g, &cfg).unwrap();
        (
            ctx.trace("perturb").to_json(),
            ctx.timeline("perturb").to_chrome_json(),
        )
    };
    let (trace_off, chrome_off) = run(false);
    let (trace_on, chrome_on) = run(true);
    assert_eq!(trace_on, trace_off, "profiling changed the trace");
    assert_eq!(
        chrome_on, chrome_off,
        "profiling changed the plain Perfetto export"
    );
}
