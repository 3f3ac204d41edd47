//! Parallel prefix-sum ("scan") algorithms — the machinery behind the
//! paper's compaction optimizations (§IV-C, Figs. 8 and 9).
//!
//! * [`hs_inclusive_scan`] — Hillis–Steele, `log n` SIMT steps (Fig. 8(b));
//! * [`blelloch_exclusive_scan`] — work-efficient but `2 log n` steps, which
//!   is why the paper adopts HS instead;
//! * [`ballot_scan`] — the warp-level 0/1 scan via `__ballot_sync` + `__popc`
//!   (Fig. 8(c)), the cheapest compaction offset computation;
//! * [`block_two_stage_scan`] — the intra-block scan of Sengupta et al.
//!   (Fig. 9): per-warp HS, warp-0 scan of warp sums, then offset add.

use crate::exec::BlockCtx;
use crate::warp::{ballot_sync, lane_mask_lt, WARP_SIZE};

/// Hillis–Steele inclusive scan over one warp's lane values, in place.
/// `ceil(log2(len))` shuffle+add steps, each one warp instruction pair.
pub fn hs_inclusive_scan(blk: &mut BlockCtx<'_>, lanes: &mut [u32]) {
    assert!(lanes.len() <= WARP_SIZE);
    let n = lanes.len();
    if n <= 1 {
        return;
    }
    let mut delta = 1usize;
    while delta < n {
        // One `__shfl_up_sync` plus one masked add, fused without the
        // shuffle's temporary: sweeping high-to-low reads each
        // `lanes[i - delta]` before the sweep reaches it, so every add sees
        // the pre-step value. Charged as two warp instructions: the shuffle
        // and the add.
        blk.charge_instr(2);
        for i in (delta..n).rev() {
            lanes[i] += lanes[i - delta];
        }
        delta <<= 1;
    }
}

/// Blelloch work-efficient exclusive scan (upsweep + downsweep), in place.
/// Runs `2·log2(len)` steps — "Blelloch algorithm needs twice the number of
/// iterations" (§IV-C) — which is why BC/EC use HS or ballot instead.
pub fn blelloch_exclusive_scan(blk: &mut BlockCtx<'_>, lanes: &mut [u32]) {
    let n = lanes.len();
    assert!(
        n <= WARP_SIZE && n.is_power_of_two() || n <= 1,
        "blelloch needs a power-of-two width"
    );
    if n <= 1 {
        if n == 1 {
            lanes[0] = 0;
        }
        return;
    }
    // upsweep
    let mut d = 1usize;
    while d < n {
        blk.charge_instr(2); // index math + add per step
        let mut i = 2 * d - 1;
        while i < n {
            lanes[i] += lanes[i - d];
            i += 2 * d;
        }
        d <<= 1;
    }
    lanes[n - 1] = 0;
    // downsweep
    let mut d = n / 2;
    while d >= 1 {
        blk.charge_instr(2);
        let mut i = 2 * d - 1;
        while i < n {
            let t = lanes[i - d];
            lanes[i - d] = lanes[i];
            lanes[i] += t;
            i += 2 * d;
        }
        d /= 2;
    }
}

/// Warp-level exclusive scan of 0/1 flags via ballot (Fig. 8(c)):
/// returns `(exclusive offsets per lane, total ones)`.
///
/// Three warp instructions total (`__ballot_sync`, mask, `__popc`) —
/// independent of the warp width, which is what makes it faster than HS.
pub fn ballot_scan(blk: &mut BlockCtx<'_>, flags: &[bool]) -> (Vec<u32>, u32) {
    assert!(flags.len() <= WARP_SIZE);
    let bits = ballot_sync(blk, flags);
    blk.charge_instr(2); // mask construction + __popc, one SIMT step each
    let offsets: Vec<u32> = (0..flags.len())
        .map(|lane| (bits & lane_mask_lt(lane)).count_ones())
        .collect();
    (offsets, bits.count_ones())
}

/// [`ballot_scan`] from a pre-packed ballot mask, returning offsets in a
/// stack array instead of a `Vec`. Charges the full three-instruction
/// sequence (`__ballot_sync`, mask, `__popc`) — identical to calling
/// `ballot_sync` on bool flags followed by `ballot_scan`'s offset step —
/// so fast-path callers that keep predicates as bits charge the same.
pub fn ballot_scan_offsets(blk: &mut BlockCtx<'_>, bits: u32) -> ([u32; WARP_SIZE], u32) {
    // The simulated instruction sequence is data-independent, so the charge
    // is the same whether the ballot is empty or full.
    blk.charge_instr(3);
    if bits == 0 {
        // all-empty chunk — the common case between k-shell cascades
        return ([0u32; WARP_SIZE], 0);
    }
    // offsets[lane] = popcount(bits & lane_mask_lt(lane)), computed as one
    // running sum instead of 32 masked popcounts
    let mut offsets = [0u32; WARP_SIZE];
    let mut acc = 0u32;
    for (lane, slot) in offsets.iter_mut().enumerate() {
        *slot = acc;
        acc += (bits >> lane) & 1;
    }
    (offsets, acc)
}

/// Intra-block two-stage exclusive scan (Fig. 9) over one value per thread.
///
/// `values.len()` must equal the block's thread count. Stages:
/// 1. each warp HS-scans its 32 lanes;
/// 2. the last lane of each warp deposits the warp total (charged as shared
///    memory traffic), then **warp 0 alone** scans the warp totals — the
///    under-utilization the paper's §VI calls out ("only Warp 0 computes in
///    Stages (2) and (3)");
/// 3. every warp adds its warp-offset.
///
/// Block barriers separate the stages. Returns `(exclusive offsets, total)`.
pub fn block_two_stage_scan(blk: &mut BlockCtx<'_>, values: &[u32]) -> (Vec<u32>, u32) {
    let mut out = vec![0u32; values.len()];
    let total = block_two_stage_scan_into(blk, values, &mut out);
    (out, total)
}

/// [`block_two_stage_scan`] writing into a caller-provided slice — lets hot
/// loops reuse one scratch buffer across chunks instead of allocating a
/// fresh offsets `Vec` per call. Charges are identical to the allocating
/// form. `out.len()` must equal `values.len()`. Returns the total.
pub fn block_two_stage_scan_into(blk: &mut BlockCtx<'_>, values: &[u32], out: &mut [u32]) -> u32 {
    let n = values.len();
    assert_eq!(out.len(), n, "output slice must match value count");
    block_two_stage_scan_charges(blk, n);
    let mut acc = 0u32;
    for (slot, &v) in out.iter_mut().zip(values) {
        *slot = acc;
        acc += v;
    }
    acc
}

/// Books exactly the charges [`block_two_stage_scan_into`] books for an
/// `n`-value scan, without computing the scan. The three stages compose to
/// a plain exclusive scan (warp-inclusive, minus own value, plus the
/// exclusive warp offset), and every charge is a pure function of the
/// geometry, never of the data — so a caller that already knows the values
/// are all zero (no set flag in the chunk) can pay the cost model and skip
/// the arithmetic, bit-identically.
pub fn block_two_stage_scan_charges(blk: &mut BlockCtx<'_>, n: usize) {
    assert_eq!(
        n, blk.cfg.threads_per_block as usize,
        "one value per thread"
    );
    let num_warps = n.div_ceil(WARP_SIZE);
    assert!(num_warps <= WARP_SIZE, "warp totals must fit one warp");

    // Stage 1: every warp pays one HS scan over its lane width (2 SIMT
    // instructions per doubling step, `hs_steps` steps).
    let full_warps = (n / WARP_SIZE) as u64;
    let rem = n % WARP_SIZE;
    let mut instrs = full_warps * 2 * hs_steps(WARP_SIZE);
    if rem > 0 {
        instrs += 2 * hs_steps(rem);
    }
    blk.charge_instr(instrs);
    // Stage 2: warp totals to shared memory, barrier, then warp 0 alone
    // HS-scans the totals (cannot use ballot scan here: "elements are not
    // 0-1", §IV-C).
    blk.counters.shared_accesses += num_warps as u64 * 2; // deposit + reload
    blk.sync_threads();
    blk.charge_instr(2 * hs_steps(num_warps));
    blk.sync_threads();
    // Stage 3: one SIMT add per warp folds in the warp offset.
    blk.charge_instr(num_warps as u64);
}

/// Doubling steps (`ceil(log2(n))`) a Hillis–Steele scan takes over `n`
/// lanes — the step count [`hs_inclusive_scan`] charges 2 instructions for.
fn hs_steps(n: usize) -> u64 {
    if n <= 1 {
        0
    } else {
        (usize::BITS - (n - 1).leading_zeros()) as u64
    }
}

/// Host-side reference exclusive scan, for tests.
pub fn reference_exclusive_scan(values: &[u32]) -> (Vec<u32>, u32) {
    let mut out = Vec::with_capacity(values.len());
    let mut acc = 0u32;
    for &v in values {
        out.push(acc);
        acc += v;
    }
    (out, acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CostParams, GpuContext, LaunchConfig};

    fn with_block(threads: u32, f: impl Fn(&mut BlockCtx<'_>) + Sync) {
        let mut c = GpuContext::new(CostParams::p100(), 1 << 16);
        let cfg = LaunchConfig {
            blocks: 1,
            threads_per_block: threads,
        };
        c.launch("t", cfg, |blk| {
            f(blk);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn hs_matches_reference() {
        with_block(32, |blk| {
            let vals: Vec<u32> = (0..32).map(|i| (i * 7 + 3) % 5).collect();
            let mut lanes = vals.clone();
            hs_inclusive_scan(blk, &mut lanes);
            let (ex, total) = reference_exclusive_scan(&vals);
            for i in 0..32 {
                assert_eq!(lanes[i], ex[i] + vals[i], "lane {i}");
            }
            assert_eq!(*lanes.last().unwrap(), total);
        });
    }

    #[test]
    fn hs_short_and_empty() {
        with_block(32, |blk| {
            let mut one = vec![5u32];
            hs_inclusive_scan(blk, &mut one);
            assert_eq!(one, vec![5]);
            let mut empty: Vec<u32> = vec![];
            hs_inclusive_scan(blk, &mut empty);
            assert!(empty.is_empty());
            let mut odd = vec![1u32, 2, 3, 4, 5];
            hs_inclusive_scan(blk, &mut odd);
            assert_eq!(odd, vec![1, 3, 6, 10, 15]);
        });
    }

    #[test]
    fn blelloch_matches_reference() {
        with_block(32, |blk| {
            let vals: Vec<u32> = (0..32).map(|i| i % 4).collect();
            let mut lanes = vals.clone();
            blelloch_exclusive_scan(blk, &mut lanes);
            let (ex, _) = reference_exclusive_scan(&vals);
            assert_eq!(lanes, ex);
        });
    }

    #[test]
    fn blelloch_takes_twice_the_steps_of_hs() {
        // The §IV-C reason for picking HS: count charged instructions.
        let mut c = GpuContext::new(CostParams::p100(), 1 << 16);
        let cfg = LaunchConfig {
            blocks: 2,
            threads_per_block: 32,
        };
        let hs_cost = std::sync::atomic::AtomicU32::new(0);
        let bl_cost = std::sync::atomic::AtomicU32::new(0);
        c.launch("cmp", cfg, |blk| {
            let mut v = [1u32; 32];
            let before = blk.counters.warp_instrs;
            if blk.block_idx == 0 {
                hs_inclusive_scan(blk, &mut v);
                hs_cost.store(
                    (blk.counters.warp_instrs - before) as u32,
                    std::sync::atomic::Ordering::Relaxed,
                );
            } else {
                blelloch_exclusive_scan(blk, &mut v);
                bl_cost.store(
                    (blk.counters.warp_instrs - before) as u32,
                    std::sync::atomic::Ordering::Relaxed,
                );
            }
            Ok(())
        })
        .unwrap();
        let (h, b) = (
            hs_cost.load(std::sync::atomic::Ordering::Relaxed),
            bl_cost.load(std::sync::atomic::Ordering::Relaxed),
        );
        assert!(b > h, "blelloch {b} should cost more than HS {h}");
    }

    #[test]
    fn ballot_scan_matches_reference() {
        with_block(32, |blk| {
            // the Fig. 8(a) example: p = [1,0,0,1,1,1,0,1]
            let flags = [true, false, false, true, true, true, false, true];
            let (off, total) = ballot_scan(blk, &flags);
            assert_eq!(off, vec![0, 1, 1, 1, 2, 3, 4, 4]);
            assert_eq!(total, 5);
        });
    }

    #[test]
    fn ballot_scan_cheaper_than_hs() {
        with_block(32, |blk| {
            let flags = [true; 32];
            let before = blk.counters.warp_instrs;
            let _ = ballot_scan(blk, &flags);
            let ballot_cost = blk.counters.warp_instrs - before;
            let before = blk.counters.warp_instrs;
            let mut v = [1u32; 32];
            hs_inclusive_scan(blk, &mut v);
            let hs_cost = blk.counters.warp_instrs - before;
            assert!(
                ballot_cost < hs_cost,
                "ballot {ballot_cost} vs hs {hs_cost}"
            );
        });
    }

    #[test]
    fn ballot_scan_offsets_matches_ballot_scan() {
        with_block(32, |blk| {
            let flags: Vec<bool> = (0..32).map(|i| (i * 7) % 3 == 0).collect();
            let before = blk.counters.warp_instrs;
            let (off, total) = ballot_scan(blk, &flags);
            let ref_cost = blk.counters.warp_instrs - before;
            let bits = flags
                .iter()
                .enumerate()
                .fold(0u32, |m, (i, &p)| if p { m | (1 << i) } else { m });
            let before = blk.counters.warp_instrs;
            let (fast, fast_total) = ballot_scan_offsets(blk, bits);
            let fast_cost = blk.counters.warp_instrs - before;
            assert_eq!(&fast[..off.len()], off.as_slice());
            assert_eq!(fast_total, total);
            assert_eq!(fast_cost, ref_cost, "identical charging");
        });
    }

    #[test]
    fn block_scan_into_matches_allocating() {
        for threads in [32u32, 256] {
            with_block(threads, move |blk| {
                let vals: Vec<u32> = (0..threads).map(|i| (i * 5 + 2) % 9).collect();
                let before = blk.counters;
                let (off, total) = block_two_stage_scan(blk, &vals);
                let ref_counters = blk.counters;
                let mut out = vec![0u32; vals.len()];
                let fast_total = block_two_stage_scan_into(blk, &vals, &mut out);
                assert_eq!(out, off);
                assert_eq!(fast_total, total);
                // both calls must charge the same deltas
                assert_eq!(
                    ref_counters.warp_instrs - before.warp_instrs,
                    blk.counters.warp_instrs - ref_counters.warp_instrs
                );
                assert_eq!(
                    ref_counters.shared_accesses - before.shared_accesses,
                    blk.counters.shared_accesses - ref_counters.shared_accesses
                );
            });
        }
    }

    #[test]
    fn block_scan_matches_reference() {
        for threads in [32u32, 64, 256, 1024] {
            with_block(threads, move |blk| {
                let vals: Vec<u32> = (0..threads).map(|i| (i * 13 + 1) % 7).collect();
                let (off, total) = block_two_stage_scan(blk, &vals);
                let (ex, t) = reference_exclusive_scan(&vals);
                assert_eq!(off, ex, "threads={threads}");
                assert_eq!(total, t);
            });
        }
    }

    #[test]
    fn block_scan_uses_barriers() {
        with_block(1024, |blk| {
            let vals = vec![1u32; 1024];
            let before = blk.counters.barriers;
            let _ = block_two_stage_scan(blk, &vals);
            assert!(
                blk.counters.barriers >= before + 2,
                "two stage boundaries expected"
            );
        });
    }
}
