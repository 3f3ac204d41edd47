//! Hotspot attribution: where inside the device each kernel's charged
//! time arose.
//!
//! The trace ([`crate::trace`]) answers *how much* each launch cost, and
//! its Perfetto rendering ([`crate::Trace::to_chrome_json`]) *when and
//! where*: every block on the SM the priced schedule ran it on. This module
//! answers **why**: [`Hotspot`] attributes each kernel's charged time to
//! launch overhead, divergence/load-imbalance exposure, atomic contention,
//! uncoalesced sector traffic, coalesced transactions, shared-memory work,
//! plain instructions, barriers, and bandwidth stall, plus the top-k most
//! expensive blocks (the simulator charges at warp granularity inside a
//! block, so a skewed warp surfaces as a skewed block). The cycle buckets
//! group the per-counter cycle terms the launch was priced from
//! (`CostParams::cycle_terms`).

use crate::cost::{CostParams, LaunchRecord};
use serde::Serialize;

/// Per-kernel attribution of charged time to its causes. All `*_ms` buckets
/// sum to `total_ms` (up to float rounding): the fixed launch overheads,
/// then the execution window split into divergence exposure, bandwidth
/// stall, and the balanced compute distributed proportionally to the cycle
/// buckets the kernels actually charged.
#[derive(Debug, Clone, Serialize)]
pub struct Hotspot {
    /// Kernel name the attribution aggregates over.
    pub kernel: &'static str,
    /// Launches of this kernel.
    pub launches: u64,
    /// Total simulated time across those launches, ms.
    pub total_ms: f64,
    /// Fixed per-launch overhead, ms.
    pub launch_overhead_ms: f64,
    /// Divergence / load-imbalance exposure: SM-idle time caused by skewed
    /// per-block (and therefore per-warp) cycle counts — the makespan minus
    /// the perfectly balanced compute time, which is the priced schedule's
    /// idle SM time over `sm_count`, ms.
    pub divergence_ms: f64,
    /// Bandwidth stall: execution time beyond the compute makespan on
    /// memory-bound launches, ms.
    pub mem_stall_ms: f64,
    /// Global + shared atomic contention share of balanced compute, ms.
    pub atomics_ms: f64,
    /// Uncoalesced traffic share (random sectors + serialized dependent
    /// reads), ms.
    pub uncoalesced_ms: f64,
    /// Coalesced 128-byte transaction issue share, ms.
    pub coalesced_ms: f64,
    /// Shared-memory access share, ms.
    pub shared_ms: f64,
    /// Plain warp-instruction share, ms.
    pub instr_ms: f64,
    /// `__syncthreads` barrier share, ms.
    pub barrier_ms: f64,
    /// The most expensive blocks across all launches of this kernel,
    /// worst first.
    pub top_blocks: Vec<BlockCost>,
}

/// One expensive block, for hotspot top-k lists.
#[derive(Debug, Clone, Serialize)]
pub struct BlockCost {
    /// Launch ordinal the block ran in.
    pub launch_seq: usize,
    /// Block index within that launch's grid.
    pub block: u32,
    /// Priced cycles the block charged.
    pub cycles: f64,
}

impl Hotspot {
    /// An attribution of `kernel` with no launches yet.
    fn zero(kernel: &'static str) -> Hotspot {
        Hotspot {
            kernel,
            launches: 0,
            total_ms: 0.0,
            launch_overhead_ms: 0.0,
            divergence_ms: 0.0,
            mem_stall_ms: 0.0,
            atomics_ms: 0.0,
            uncoalesced_ms: 0.0,
            coalesced_ms: 0.0,
            shared_ms: 0.0,
            instr_ms: 0.0,
            barrier_ms: 0.0,
            top_blocks: Vec::new(),
        }
    }

    /// The nine attribution buckets as `(name, ms)`, in the canonical
    /// order. They tile `total_ms`.
    pub fn buckets(&self) -> [(&'static str, f64); 9] {
        [
            ("launch_overhead", self.launch_overhead_ms),
            ("divergence", self.divergence_ms),
            ("mem_stall", self.mem_stall_ms),
            ("atomics", self.atomics_ms),
            ("uncoalesced", self.uncoalesced_ms),
            ("coalesced", self.coalesced_ms),
            ("shared", self.shared_ms),
            ("instr", self.instr_ms),
            ("barriers", self.barrier_ms),
        ]
    }

    /// The largest attribution bucket, as `(name, ms)` — what to blame
    /// first. Launch overhead competes too (the paper's many-tiny-launch
    /// pathology shows up here). Ties go to the name that sorts first.
    pub fn dominant_bucket(&self) -> (&'static str, f64) {
        self.buckets()
            .into_iter()
            .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(a.0)))
            .unwrap()
    }

    /// One run's attribution: the per-kernel `hotspots` (a trace's, say)
    /// summed field by field, in order from 0.0, as kernel `"all"` with no
    /// top blocks.
    pub fn sum(hotspots: &[Hotspot]) -> Hotspot {
        let mut all = Hotspot::zero("all");
        for h in hotspots {
            all.launches += h.launches;
            all.total_ms += h.total_ms;
            all.launch_overhead_ms += h.launch_overhead_ms;
            all.divergence_ms += h.divergence_ms;
            all.mem_stall_ms += h.mem_stall_ms;
            all.atomics_ms += h.atomics_ms;
            all.uncoalesced_ms += h.uncoalesced_ms;
            all.coalesced_ms += h.coalesced_ms;
            all.shared_ms += h.shared_ms;
            all.instr_ms += h.instr_ms;
            all.barrier_ms += h.barrier_ms;
        }
        all
    }
}

/// Builds per-kernel [`Hotspot`] records from launch records, keeping the
/// `top_k` worst blocks per kernel. Kernels appear in first-launch order.
/// Only a positive `top_k` collects blocks, and only the kept ones are
/// sorted.
pub fn hotspots(launches: &[LaunchRecord], cost: &CostParams, top_k: usize) -> Vec<Hotspot> {
    let mut out: Vec<Hotspot> = Vec::new();
    let mut blocks: Vec<Vec<BlockCost>> = Vec::new();
    for (seq, l) in launches.iter().enumerate() {
        let idx = if let Some(i) = out.iter().position(|h| h.kernel == l.name) {
            i
        } else {
            out.push(Hotspot::zero(l.name));
            blocks.push(Vec::new());
            out.len() - 1
        };
        let h = &mut out[idx];
        h.launches += 1;
        h.total_ms += l.time_s * 1e3;
        h.launch_overhead_ms += l.roofline.launch_overhead_s * 1e3;
        let exec_s = l.time_s - l.roofline.launch_overhead_s;
        // Bandwidth stall: whatever the roofline charged beyond the compute
        // makespan (zero for compute-bound launches).
        let mem_stall_s = (exec_s - l.roofline.compute_s).max(0.0);
        h.mem_stall_ms += mem_stall_s * 1e3;
        // Divergence/imbalance exposure: makespan minus perfectly balanced
        // distribution of the summed cycles over the SMs.
        let balanced_s = l.sum_block_cycles() / cost.sm_count as f64 / cost.clock_hz;
        let divergence_s = (l.roofline.compute_s - balanced_s).max(0.0);
        h.divergence_ms += divergence_s * 1e3;
        // The balanced share splits proportionally to the cycle terms the
        // launch was priced from.
        let [coalesced, sectors, dependent, global_atomics, shared_atomics, shared, instr, barrier] =
            cost.cycle_terms(&l.counters);
        let atomics = global_atomics + shared_atomics;
        let uncoalesced = sectors + dependent;
        let total_cycles = atomics + uncoalesced + coalesced + shared + instr + barrier;
        if total_cycles > 0.0 {
            let per_cycle_ms = balanced_s / total_cycles * 1e3;
            h.atomics_ms += atomics * per_cycle_ms;
            h.uncoalesced_ms += uncoalesced * per_cycle_ms;
            h.coalesced_ms += coalesced * per_cycle_ms;
            h.shared_ms += shared * per_cycle_ms;
            h.instr_ms += instr * per_cycle_ms;
            h.barrier_ms += barrier * per_cycle_ms;
        }
        if top_k > 0 {
            for (b, &cyc) in l.block_cycles.iter().enumerate() {
                blocks[idx].push(BlockCost {
                    launch_seq: seq,
                    block: b as u32,
                    cycles: cyc,
                });
            }
        }
    }
    for (h, mut bl) in out.iter_mut().zip(blocks) {
        if bl.len() > top_k {
            bl.select_nth_unstable_by(top_k, worse_first);
            bl.truncate(top_k);
        }
        bl.sort_by(worse_first);
        h.top_blocks = bl;
    }
    out
}

/// The order of [`Hotspot::top_blocks`]: most cycles first, ties to the
/// earlier launch, then to the lower block index. No two blocks tie.
fn worse_first(a: &BlockCost, b: &BlockCost) -> std::cmp::Ordering {
    b.cycles
        .total_cmp(&a.cycles)
        .then(a.launch_seq.cmp(&b.launch_seq))
        .then(a.block.cmp(&b.block))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{GpuContext, LaunchConfig};
    use crate::SizeClass;

    fn skewed_ctx() -> GpuContext {
        skewed_ctx_with(CostParams::p100())
    }

    fn skewed_ctx_with(cost: CostParams) -> GpuContext {
        let mut c = GpuContext::new(cost, 1 << 20);
        let buf = c.htod("x", &[0u32; 64], SizeClass::Fixed).unwrap();
        let cfg = LaunchConfig {
            blocks: 4,
            threads_per_block: 64,
        };
        c.set_phase("Loop");
        c.launch("loop", cfg, |blk| {
            blk.charge_instr(100 * (blk.block_idx as u64 + 1));
            blk.atomic_add(&blk.device.buffer(buf)[0], 1);
            Ok(())
        })
        .unwrap();
        c.set_phase("Sync");
        c.dtoh(buf, 0..1).unwrap();
        c.sample_counter("frontier", 3.0);
        c
    }

    /// `CostParams` is public and unchecked: a NaN constant makes NaN block
    /// cycles and times, which every ordering of the views must accept.
    #[test]
    fn nan_cost_constant_does_not_panic_the_views() {
        let cost = CostParams {
            instr_cycles: f64::NAN,
            ..CostParams::p100()
        };
        let mut c = skewed_ctx_with(cost);
        assert!(c.launches()[0].block_cycles.iter().all(|b| b.is_nan()));
        let trace = c.trace("nan");
        assert_eq!((trace.launches.len(), trace.hotspots.len()), (1, 1));
        trace.hotspots[0].dominant_bucket();
        assert!(!trace.to_chrome_json().is_empty());
    }

    #[test]
    fn hotspot_buckets_sum_to_total() {
        let c = skewed_ctx();
        let hs = hotspots(c.launches(), &c.cost, 3);
        assert_eq!(hs.len(), 1);
        let h = &hs[0];
        assert_eq!((h.kernel, h.launches), ("loop", 1));
        let sum = h.launch_overhead_ms
            + h.divergence_ms
            + h.mem_stall_ms
            + h.atomics_ms
            + h.uncoalesced_ms
            + h.coalesced_ms
            + h.shared_ms
            + h.instr_ms
            + h.barrier_ms;
        assert!((sum - h.total_ms).abs() < 1e-9 * h.total_ms.max(1.0));
        // skewed instruction counts → instruction share dominates the
        // balanced compute, and skew shows up as divergence exposure
        assert!(h.instr_ms > h.atomics_ms);
        assert!(h.divergence_ms > 0.0);
        // top blocks ranked worst-first: block 3 charged the most
        assert_eq!(h.top_blocks[0].block, 3);
        assert_eq!(h.top_blocks.len(), 3);
    }

    /// The kept blocks are the full sort's prefix, ties included: two
    /// launches of the same kernel with equal and skewed block cycles.
    #[test]
    fn top_blocks_are_the_full_sorts_prefix() {
        let mut c = GpuContext::new(CostParams::p100(), 1 << 20);
        let cfg = LaunchConfig {
            blocks: 6,
            threads_per_block: 32,
        };
        for skew in [[1, 3, 3, 1, 2, 3], [3, 1, 2, 3, 3, 1]] {
            c.launch("k", cfg, |blk| {
                blk.charge_instr(skew[blk.block_idx as usize]);
                Ok(())
            })
            .unwrap();
        }
        let mut all: Vec<(usize, u32, f64)> = c
            .launches()
            .iter()
            .enumerate()
            .flat_map(|(seq, l)| {
                let cycles = l.block_cycles.iter().enumerate();
                cycles.map(move |(b, &cyc)| (seq, b as u32, cyc))
            })
            .collect();
        all.sort_by(|a, b| b.2.total_cmp(&a.2).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));
        for top_k in [0, 1, 3, all.len(), all.len() + 1] {
            let h = &hotspots(c.launches(), &c.cost, top_k)[0];
            let kept: Vec<(usize, u32, f64)> = h
                .top_blocks
                .iter()
                .map(|b| (b.launch_seq, b.block, b.cycles))
                .collect();
            assert_eq!(kept, all[..top_k.min(all.len())], "top_k = {top_k}");
        }
    }

    #[test]
    fn dominant_bucket_names_the_biggest_term() {
        let mut c = GpuContext::new(CostParams::p100(), 1 << 20);
        let cfg = LaunchConfig {
            blocks: 1,
            threads_per_block: 32,
        };
        c.launch("nop", cfg, |_| Ok(())).unwrap();
        let h = &hotspots(c.launches(), &c.cost, 1)[0];
        assert_eq!(h.dominant_bucket().0, "launch_overhead");
    }
}
