//! Edge-case tests for the simulator's cost model and memory accounting:
//! the degenerate inputs where a bug would silently skew every table in
//! the evaluation (a free empty launch, an OOM that misreports its peak,
//! counter aggregation that depends on merge order, a Perfetto document
//! that draws another schedule than the one the launch was priced on).

use kcore::gpu::{decompose_in, PeelConfig};
use kcore::gpusim::{Counters, GpuContext, LaunchConfig, SimError, SimOptions, SizeClass};
use kcore::graph::gen;
use proptest::prelude::*;
use serde::Value;

fn ctx() -> GpuContext {
    SimOptions::default().context()
}

#[test]
fn empty_launch_still_charges_launch_overhead() {
    let mut c = ctx();
    let before = c.elapsed_ms();
    c.launch(
        "noop",
        LaunchConfig {
            blocks: 4,
            threads_per_block: 32,
        },
        |_| Ok(()),
    )
    .unwrap();
    let dt_s = (c.elapsed_ms() - before) / 1e3;
    // a kernel that does no work costs exactly one launch overhead
    assert!((dt_s - c.cost.kernel_launch_s).abs() < 1e-12, "dt={dt_s}");
    let l = &c.launches()[0];
    assert_eq!(l.counters, Counters::default());
    assert_eq!(l.roofline.launch_overhead_s, c.cost.kernel_launch_s);
    assert_eq!(l.roofline.compute_s, 0.0);
    assert_eq!(l.roofline.mem_s, 0.0);
    assert_eq!(l.roofline.bound(), "launch");
}

#[test]
fn oom_reports_accurate_sizes_and_peak() {
    let opts = SimOptions {
        device_capacity_bytes: 1024,
        ..SimOptions::default()
    };
    let mut c = opts.context();
    c.alloc("fits", 128, SizeClass::Fixed).unwrap(); // 512 B
    let err = c.alloc("too-big", 256, SizeClass::Fixed).unwrap_err(); // 1024 B > 512 B free
    match err {
        SimError::Oom(e) => {
            assert_eq!(e.name, "too-big");
            assert_eq!(e.requested_bytes, 1024);
            assert_eq!(e.available_bytes, 512);
            assert_eq!(e.capacity_bytes, 1024);
        }
        other => panic!("expected Oom, got {other}"),
    }
    // the failed allocation does not count toward the recorded peak
    assert_eq!(c.report().peak_mem_bytes, 512);
}

/// The trace's Perfetto document draws every block where the priced
/// schedule ran it, one block at a time per SM. On each compute-bound
/// launch no two SM spans on one SM overlap, each span lasts its block's
/// cycles / `clock_hz`, and the SMs' idle time inside the execution window
/// is `sm_count ×` the launch's divergence term. A peel at the paper's
/// 108 × 1024 geometry and a skewed 200-block launch both put more blocks
/// than SMs on the device, where a second scheduler would place them
/// differently.
#[test]
fn timeline_spans_are_the_priced_block_schedule() {
    let mut c = ctx();
    let g = gen::rmat(11, 8_000, gen::RmatParams::graph500(), 3);
    decompose_in(&mut c, &g, &PeelConfig::default()).unwrap();
    let cfg = LaunchConfig {
        blocks: 200,
        threads_per_block: 256,
    };
    c.launch("skewed", cfg, |blk| {
        blk.charge_instr(1_000 * (blk.block_idx as u64 % 7 + 1));
        Ok(())
    })
    .unwrap();
    // every SM span the document holds, as (sm, start ms, end ms, block),
    // per launch: the "X" events of the GPU process (pid 0)
    let doc = serde_json::from_str(&c.trace("schedule").to_chrome_json()).unwrap();
    let mut drawn: Vec<Vec<(u64, f64, f64, u64)>> = vec![Vec::new(); c.launches().len()];
    for e in doc.get("traceEvents").and_then(Value::as_array).unwrap() {
        let field = |k: &str| e.get(k).unwrap();
        if field("pid").as_u64() != Some(0) || field("ph").as_str() != Some("X") {
            continue;
        }
        let arg = |k: &str| field("args").get(k).and_then(Value::as_u64).unwrap();
        let (ts, dur) = (
            field("ts").as_f64().unwrap(),
            field("dur").as_f64().unwrap(),
        );
        let span = (
            field("tid").as_u64().unwrap(),
            ts / 1e3,
            (ts + dur) / 1e3,
            arg("block"),
        );
        drawn[arg("launch") as usize].push(span);
    }
    let (sms, clock_hz) = (c.cost.sm_count as f64, c.cost.clock_hz);
    let mut crowded = Vec::new();
    for (seq, (l, spans)) in c.launches().iter().zip(&mut drawn).enumerate() {
        assert_eq!(spans.len(), l.config.blocks as usize, "launch {seq}");
        let r = &l.roofline;
        if r.compute_s == 0.0 || r.compute_s < r.mem_s {
            continue;
        }
        let window_ms = (l.time_s - r.launch_overhead_s) * 1e3;
        let eps_ms = 1e-9 * window_ms;
        spans.sort_by(|a, b| (a.0, a.1, a.2).partial_cmp(&(b.0, b.1, b.2)).unwrap());
        for w in spans.windows(2) {
            let ((sm_a, _, end_a, block_a), (sm_b, start_b, _, block_b)) = (w[0], w[1]);
            assert!(
                sm_a != sm_b || end_a <= start_b + eps_ms,
                "launch {seq} ({}): blocks {block_a} and {block_b} overlap on SM {sm_a}",
                l.name
            );
        }
        let mut busy_ms = 0.0;
        for &(_, start_ms, end_ms, block) in spans.iter() {
            let (lasts, priced) = (end_ms - start_ms, l.block_cycles[block as usize]);
            let priced_ms = priced / clock_hz * 1e3;
            assert!(
                (lasts - priced_ms).abs() <= eps_ms,
                "launch {seq} ({}) block {block}: drawn {lasts} ms, priced {priced_ms} ms",
                l.name
            );
            busy_ms += lasts;
        }
        let idle_ms = sms * window_ms - busy_ms;
        let divergence_ms = (r.compute_s - l.sum_block_cycles() / (sms * clock_hz)) * 1e3;
        assert!(
            (idle_ms - sms * divergence_ms).abs() <= 1e-9 * sms * window_ms,
            "launch {seq} ({}): {idle_ms} SM·ms idle, divergence {divergence_ms} ms",
            l.name
        );
        if l.config.blocks > c.cost.sm_count {
            crowded.push(l.name);
        }
    }
    assert!(crowded.contains(&"skewed"), "{crowded:?}");
    assert!(crowded.iter().any(|&k| k != "skewed"), "{crowded:?}");
}

fn arb_counters() -> impl Strategy<Value = Counters> {
    // small ranges are enough: merge is element-wise addition
    let f = 0u64..1u64 << 40;
    (
        f.clone(),
        f.clone(),
        f.clone(),
        f.clone(),
        f.clone(),
        f.clone(),
        f.clone(),
        f,
    )
        .prop_map(|(a, b, c, d, e, g, h, i)| Counters {
            global_tx: a,
            global_sectors: b,
            dependent_reads: c,
            global_atomics: d,
            shared_atomics: e,
            shared_accesses: g,
            warp_instrs: h,
            barriers: i,
        })
}

proptest! {
    /// `Counters::merge` is associative and commutative with a zero
    /// identity, so per-block aggregation order (and therefore rayon
    /// chunking) can never change a launch's summed counters.
    #[test]
    fn counters_merge_is_associative((a, b, c) in (arb_counters(), arb_counters(), arb_counters())) {
        let mut ab = a; ab.merge(&b);
        let mut ab_c = ab; ab_c.merge(&c);

        let mut bc = b; bc.merge(&c);
        let mut a_bc = a; a_bc.merge(&bc);

        prop_assert_eq!(ab_c, a_bc);

        let mut ba = b; ba.merge(&a);
        prop_assert_eq!(ab, ba);

        let mut az = a; az.merge(&Counters::default());
        prop_assert_eq!(az, a);
    }
}
