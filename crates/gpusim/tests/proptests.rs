//! Property-based tests of the simulator's foundational pieces: the
//! makespan scheduler, the scan algorithms, and device memory accounting.

use kcore_gpusim::cost::makespan;
use kcore_gpusim::scan::{
    ballot_scan, blelloch_exclusive_scan, block_two_stage_scan, hs_inclusive_scan,
    reference_exclusive_scan,
};
use kcore_gpusim::{CostParams, Device, GpuContext, LaunchConfig, SizeClass};
use proptest::prelude::*;

proptest! {
    /// makespan is bounded below by both max(job) and sum/machines, and
    /// above by the sum; greedy list scheduling is within 2x of the lower
    /// bound (classic Graham bound).
    #[test]
    fn makespan_bounds(jobs in proptest::collection::vec(0.0f64..1e6, 0..200), machines in 1usize..64) {
        let ms = makespan(&jobs, machines, |_, _, _| {});
        let sum: f64 = jobs.iter().sum();
        let max = jobs.iter().copied().fold(0.0, f64::max);
        let lower = max.max(sum / machines as f64);
        prop_assert!(ms >= lower - 1e-9);
        prop_assert!(ms <= sum + 1e-9);
        prop_assert!(ms <= 2.0 * lower + 1e-9, "greedy within Graham bound");
    }

    /// All scan implementations agree with the host reference.
    #[test]
    fn scans_agree(values in proptest::collection::vec(0u32..100, 1..=32)) {
        let mut ctx = GpuContext::new(CostParams::p100(), 1 << 16);
        let vals = values.clone();
        ctx.launch("scans", LaunchConfig { blocks: 1, threads_per_block: 32 }, move |blk| {
            let (ex, total) = reference_exclusive_scan(&vals);
            // HS inclusive
            let mut hs = vals.clone();
            hs_inclusive_scan(blk, &mut hs);
            for i in 0..vals.len() {
                assert_eq!(hs[i], ex[i] + vals[i], "hs lane {i}");
            }
            // Blelloch (power-of-two only)
            if vals.len().is_power_of_two() {
                let mut bl = vals.clone();
                blelloch_exclusive_scan(blk, &mut bl);
                assert_eq!(bl, ex, "blelloch");
            }
            // ballot over derived 0/1 flags
            let flags: Vec<bool> = vals.iter().map(|&v| v % 2 == 1).collect();
            let ones: Vec<u32> = flags.iter().map(|&f| f as u32).collect();
            let (ex1, t1) = reference_exclusive_scan(&ones);
            let (off, tot) = ballot_scan(blk, &flags);
            assert_eq!(off, ex1, "ballot offsets");
            assert_eq!(tot, t1, "ballot total");
            let _ = total;
            Ok(())
        }).unwrap();
    }

    /// Block-level two-stage scan agrees with the reference for any block
    /// width (multiple of 32, one value per thread).
    #[test]
    fn block_scan_agrees(warps in 1u32..=32, seed in 0u64..1000) {
        let threads = warps * 32;
        let mut ctx = GpuContext::new(CostParams::p100(), 1 << 16);
        ctx.launch("bscan", LaunchConfig { blocks: 1, threads_per_block: threads }, move |blk| {
            let vals: Vec<u32> = (0..threads as u64)
                .map(|i| ((i.wrapping_mul(seed + 7)) % 9) as u32)
                .collect();
            let (off, total) = block_two_stage_scan(blk, &vals);
            let (ex, t) = reference_exclusive_scan(&vals);
            assert_eq!(off, ex);
            assert_eq!(total, t);
            Ok(())
        }).unwrap();
    }

    /// Device accounting: any interleaving of allocs and frees keeps
    /// used = sum(live) and peak = running max.
    #[test]
    fn device_accounting(ops in proptest::collection::vec((1usize..1000, any::<bool>()), 1..60)) {
        let mut d = Device::new(1 << 30);
        let mut live: Vec<(kcore_gpusim::BufferId, u64)> = Vec::new();
        let mut used = 0u64;
        let mut peak = 0u64;
        for (len, free_first) in ops {
            if free_first && !live.is_empty() {
                let (id, bytes) = live.swap_remove(0);
                d.free(id);
                used -= bytes;
            }
            let id = d.alloc_with("x", len, 4, SizeClass::Fixed).unwrap();
            let bytes = len as u64 * 4;
            live.push((id, bytes));
            used += bytes;
            peak = peak.max(used);
            prop_assert_eq!(d.used_bytes(), used);
            prop_assert_eq!(d.peak_bytes(), peak);
        }
    }

    /// Allocation-ledger invariants under any interleaving of tagged
    /// allocs and frees: live bytes = sum of live ledger entries, the
    /// device peak = the max of the ledger's replayed live curve, every
    /// per-phase watermark ≤ the global peak, and the phase watermark of
    /// the currently active phase ≥ current live bytes.
    #[test]
    fn ledger_invariants(ops in proptest::collection::vec(
        (1usize..1000, 1usize..=8, 0u8..3, any::<bool>(), any::<bool>()),
        1..60,
    )) {
        let phases: [&'static str; 3] = ["Setup", "Loop", "Result"];
        let mut d = Device::new(1 << 30);
        let mut live: Vec<kcore_gpusim::BufferId> = Vec::new();
        let mut phase = "main";
        for (i, (elems, elem_bytes, class, free_first, switch_phase)) in
            ops.into_iter().enumerate()
        {
            if switch_phase {
                phase = phases[i % phases.len()];
                d.note_phase(phase);
            }
            if free_first && !live.is_empty() {
                d.free(live.swap_remove(0));
            }
            let class = [SizeClass::PerVertex, SizeClass::PerArc, SizeClass::Fixed]
                [class as usize];
            live.push(d.alloc_with("x", elems, elem_bytes, class).unwrap());

            let ledger = d.ledger();
            let live_sum: u64 = ledger.iter().filter(|e| e.is_live()).map(|e| e.bytes).sum();
            prop_assert_eq!(d.used_bytes(), live_sum, "used = sum of live ledger entries");
            // replay the live curve in fine-op order; its max is the peak
            let mut events: Vec<(u64, i64)> = Vec::new();
            for e in ledger {
                events.push((e.alloc_op, e.bytes as i64));
                if let Some(op) = e.free_op {
                    events.push((op, -(e.bytes as i64)));
                }
            }
            events.sort_unstable();
            let mut cur = 0i64;
            let mut replay_peak = 0i64;
            for (_, delta) in events {
                cur += delta;
                replay_peak = replay_peak.max(cur);
            }
            prop_assert_eq!(d.peak_bytes(), replay_peak as u64, "peak = max of live curve");
            for &(p, watermark) in d.phase_peaks() {
                prop_assert!(watermark <= d.peak_bytes(), "phase {} above global peak", p);
                if p == phase {
                    prop_assert!(watermark >= d.used_bytes(), "active phase below live bytes");
                }
            }
        }
    }

    /// An OOM error reports exactly the numbers the ledger implies: the
    /// requested size, the free bytes derived from the live ledger sum, and
    /// the configured capacity.
    #[test]
    fn oom_error_matches_ledger(fill in 1usize..200, req_over in 1usize..100) {
        let capacity = 4096u64;
        let mut d = Device::new(capacity);
        let fill = fill.min(1000);
        d.alloc_with("fill", fill, 4, SizeClass::Fixed).unwrap();
        let live_sum: u64 = d.ledger().iter().filter(|e| e.is_live()).map(|e| e.bytes).sum();
        let free = capacity - live_sum;
        let req_elems = (free / 4) as usize + req_over; // always too big
        let err = d.alloc_with("big", req_elems, 4, SizeClass::PerArc).unwrap_err();
        prop_assert_eq!(err.requested_bytes, req_elems as u64 * 4);
        prop_assert_eq!(err.available_bytes, free);
        prop_assert_eq!(err.capacity_bytes, capacity);
        // the failed request left no ledger entry and charged nothing
        prop_assert_eq!(d.ledger().len(), 1);
        prop_assert_eq!(d.used_bytes(), live_sum);
    }

    /// Simulated time is additive across launches and monotone.
    #[test]
    fn time_is_monotone(instrs in proptest::collection::vec(1u64..1_000_000, 1..20)) {
        let mut ctx = GpuContext::new(CostParams::p100(), 1 << 16);
        let mut last = 0.0f64;
        for n in instrs {
            ctx.launch("w", LaunchConfig { blocks: 2, threads_per_block: 32 }, move |blk| {
                blk.charge_instr(n);
                Ok(())
            }).unwrap();
            let now = ctx.elapsed_ms();
            prop_assert!(now > last);
            last = now;
        }
    }
}
