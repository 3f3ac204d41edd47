//! Warp-level primitives: `__ballot_sync` and the lane masks the ballot scan
//! pairs it with. The scans in [`crate::scan`] fuse their own shuffles.
//!
//! A warp is modelled as a slice of up to 32 lane values; a primitive is one
//! SIMT instruction executed by the whole warp, charged accordingly.

use crate::exec::BlockCtx;

/// Lanes per warp.
pub const WARP_SIZE: usize = 32;

/// `__ballot_sync`: packs each lane's predicate into a 32-bit mask
/// (lane `i` → bit `i`). One warp instruction.
pub fn ballot_sync(blk: &mut BlockCtx<'_>, predicates: &[bool]) -> u32 {
    assert!(predicates.len() <= WARP_SIZE);
    blk.charge_instr(1);
    let mut bits = 0u32;
    for (i, &p) in predicates.iter().enumerate() {
        if p {
            bits |= 1 << i;
        }
    }
    bits
}

/// The mask of bits strictly below `lane` — the "last j bits" mask of the
/// paper's Fig. 8(c) ballot-scan illustration.
pub fn lane_mask_lt(lane: usize) -> u32 {
    debug_assert!(lane < WARP_SIZE);
    (1u32 << lane) - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CostParams, GpuContext, LaunchConfig};
    use std::sync::atomic::{AtomicU32, Ordering};

    /// Runs `f` inside a one-block kernel and returns the instruction count.
    fn in_block(f: impl Fn(&mut BlockCtx<'_>) + Sync) -> u64 {
        let mut c = GpuContext::new(CostParams::p100(), 1 << 16);
        let cfg = LaunchConfig {
            blocks: 1,
            threads_per_block: 32,
        };
        let instrs = AtomicU32::new(0);
        c.launch("t", cfg, |blk| {
            f(blk);
            instrs.store(blk.counters.warp_instrs as u32, Ordering::Relaxed);
            Ok(())
        })
        .unwrap();
        instrs.load(Ordering::Relaxed) as u64
    }

    #[test]
    fn ballot_packs_bits() {
        in_block(|blk| {
            let preds = [true, false, true, true];
            assert_eq!(ballot_sync(blk, &preds), 0b1101);
            let all: Vec<bool> = vec![true; 32];
            assert_eq!(ballot_sync(blk, &all), u32::MAX);
            assert_eq!(ballot_sync(blk, &[]), 0);
        });
    }

    #[test]
    fn lane_masks() {
        assert_eq!(lane_mask_lt(0), 0);
        assert_eq!(lane_mask_lt(3), 0b111);
        assert_eq!(lane_mask_lt(31), 0x7fff_ffff);
    }

    #[test]
    fn primitives_charge_one_instruction_each() {
        let n = in_block(|blk| {
            let _ = ballot_sync(blk, &[true; 32]);
            let _ = ballot_sync(blk, &[false; 7]);
        });
        assert_eq!(n, 2);
    }
}
