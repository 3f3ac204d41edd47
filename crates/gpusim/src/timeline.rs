//! SM-level execution timeline and hotspot attribution.
//!
//! The trace subsystem ([`crate::trace`]) answers *how much* each launch
//! cost; this module answers **when and where** inside the device those
//! costs arose:
//!
//! * [`Timeline`] — every block of every launch placed on the SM (and
//!   residency slot) that ran it, with sim-clock begin/end timestamps
//!   derived from the cost model's per-block cycle counts via the
//!   deterministic scheduler in [`crate::cost::schedule_blocks`]. Host↔device
//!   copies and host-sampled counter tracks (frontier size per round, …)
//!   ride along so the whole run renders as one coherent picture.
//! * [`Hotspot`] — per-kernel attribution of the charged time to *why* it
//!   was charged: launch overhead, divergence/load-imbalance exposure,
//!   atomic contention, uncoalesced sector traffic, coalesced transactions,
//!   shared-memory work, plain instructions, barriers, and bandwidth stall,
//!   plus the top-k most expensive blocks (the simulator charges at warp
//!   granularity inside a block, so a skewed warp surfaces as a skewed
//!   block).
//!
//! **Timestamp derivation.** A launch's record stores its issue time
//! (`start_s`) and each block's priced cycle count. The scheduler replays
//! dispatch onto `sm_count × occupancy` residency slots; the resulting cycle
//! offsets are then scaled so the schedule spans exactly the launch's
//! roofline-charged execution window (`time_s − launch_overhead_s`). For a
//! compute-bound launch that scale is just `1/clock_hz`; for a
//! bandwidth-bound launch the blocks stretch proportionally — the DRAM stall
//! is distributed over the blocks that caused the traffic. Everything is
//! simulated arithmetic over recorded values, so a timeline (and its
//! Perfetto export) is bit-identical across runs and host thread counts.

use crate::cost::{schedule_blocks, CostParams, LaunchRecord, TransferDir};
use crate::exec::GpuContext;
use serde::Serialize;

/// An SM-level execution timeline of one simulated run.
#[derive(Debug, Clone, Serialize)]
pub struct Timeline {
    /// Caller-chosen run label.
    pub label: String,
    /// SMs on the simulated device (one Perfetto track each).
    pub sm_count: u32,
    /// One span per executed block, in (launch, block) order.
    pub spans: Vec<TimelineSpan>,
    /// Host↔device copies as timeline spans, in issue order.
    pub transfers: Vec<TransferSpan>,
    /// Host-sampled counter-track points, in sampling order.
    pub counters: Vec<CounterPoint>,
    /// Device-allocation lifetimes as timeline spans, in allocation order
    /// (drives the Perfetto memory process and `device_bytes` counter
    /// track).
    pub memory: Vec<MemSpan>,
}

/// One block's residency on one SM.
#[derive(Debug, Clone, Serialize)]
pub struct TimelineSpan {
    /// Launch ordinal the block belongs to.
    pub launch_seq: usize,
    /// Kernel name.
    pub kernel: &'static str,
    /// Phase active at launch time.
    pub phase: &'static str,
    /// SM that ran the block.
    pub sm: u32,
    /// Residency slot on the SM (occupancy-limited).
    pub slot: u32,
    /// Block index within the grid.
    pub block: u32,
    /// Warps the block occupied while resident.
    pub warps: u32,
    /// Sim-clock begin, ms.
    pub start_ms: f64,
    /// Sim-clock end, ms.
    pub end_ms: f64,
}

/// One host↔device copy on the timeline.
#[derive(Debug, Clone, Serialize)]
pub struct TransferSpan {
    /// Transfer ordinal.
    pub seq: usize,
    /// Phase active at issue time.
    pub phase: &'static str,
    /// `"h2d"` or `"d2h"`.
    pub dir: &'static str,
    /// Payload bytes.
    pub bytes: u64,
    /// Sim-clock begin, ms.
    pub start_ms: f64,
    /// Sim-clock end, ms.
    pub end_ms: f64,
}

/// One device allocation's lifetime on the timeline.
#[derive(Debug, Clone, Serialize)]
pub struct MemSpan {
    /// Allocation name.
    pub name: String,
    /// Size in bytes.
    pub bytes: u64,
    /// Scaling tag declared at the alloc site.
    pub size_class: crate::device::SizeClass,
    /// Phase the allocation was made in.
    pub phase: &'static str,
    /// Device slot the allocation occupied (its lane: slots are reused
    /// after a free, so consecutive lifetimes can share a lane).
    pub slot: u64,
    /// Sim-clock allocation time, ms.
    pub start_ms: f64,
    /// Sim-clock free time, ms (allocations never freed extend to the end
    /// of the run).
    pub end_ms: f64,
    /// Whether the allocation was freed before the snapshot.
    pub freed: bool,
}

/// One sampled point on a named counter track.
#[derive(Debug, Clone, Serialize)]
pub struct CounterPoint {
    /// Track name.
    pub track: &'static str,
    /// Phase active at sampling time.
    pub phase: &'static str,
    /// Sim-clock timestamp, ms.
    pub time_ms: f64,
    /// Sampled value.
    pub value: f64,
}

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
    /// the perfectly balanced compute time, ms.
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
    /// The largest attribution bucket, as `(name, ms)` — what to blame
    /// first. Launch overhead competes too (the paper's many-tiny-launch
    /// pathology shows up here).
    pub fn dominant_bucket(&self) -> (&'static str, f64) {
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
        .into_iter()
        .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(a.0)))
        .unwrap()
    }
}

/// Builds per-kernel [`Hotspot`] records from launch records, keeping the
/// `top_k` worst blocks per kernel. Kernels appear in first-launch order.
pub fn hotspots(launches: &[LaunchRecord], cost: &CostParams, top_k: usize) -> Vec<Hotspot> {
    let mut out: Vec<Hotspot> = Vec::new();
    let mut blocks: Vec<Vec<BlockCost>> = Vec::new();
    for (seq, l) in launches.iter().enumerate() {
        let idx = if let Some(i) = out.iter().position(|h| h.kernel == l.name) {
            i
        } else {
            out.push(Hotspot {
                kernel: l.name,
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
            });
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
        let balanced_s = l.sum_block_cycles / cost.sm_count as f64 / cost.clock_hz;
        let divergence_s = (l.roofline.compute_s - balanced_s).max(0.0);
        h.divergence_ms += divergence_s * 1e3;
        // The balanced share splits proportionally to the cycle buckets the
        // blocks actually charged.
        let c = &l.counters;
        let atomics = c.global_atomics as f64 * cost.global_atomic_cycles
            + c.shared_atomics as f64 * cost.shared_atomic_cycles;
        let uncoalesced = c.global_sectors as f64 * cost.sector_issue_cycles
            + c.dependent_reads as f64 * cost.dependent_latency_cycles;
        let coalesced = c.global_tx as f64 * cost.tx_issue_cycles;
        let shared = c.shared_accesses as f64 * cost.shared_access_cycles;
        let instr = c.warp_instrs as f64 * cost.instr_cycles;
        let barrier = c.barriers as f64 * cost.barrier_cycles;
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
        for (b, &cyc) in l.block_cycles.iter().enumerate() {
            blocks[idx].push(BlockCost {
                launch_seq: seq,
                block: b as u32,
                cycles: cyc,
            });
        }
    }
    for (h, mut bl) in out.iter_mut().zip(blocks) {
        bl.sort_by(|a, b| {
            b.cycles
                .total_cmp(&a.cycles)
                .then(a.launch_seq.cmp(&b.launch_seq))
                .then(a.block.cmp(&b.block))
        });
        bl.truncate(top_k);
        h.top_blocks = bl;
    }
    out
}

impl GpuContext {
    /// Builds the SM-level [`Timeline`] of everything recorded so far. Pure
    /// derivation over the launch/transfer/sample records — cheap, callable
    /// mid-run, and deterministic (see the module docs for how timestamps
    /// derive from the cost model).
    pub fn timeline(&self, label: impl Into<String>) -> Timeline {
        let mut spans = Vec::new();
        for (seq, l) in self.launches().iter().enumerate() {
            let occ = self.cost.occupancy(&l.config);
            let sched = schedule_blocks(&l.block_cycles, self.cost.sm_count, occ);
            let horizon = sched.iter().map(|s| s.end_cycles).fold(0.0, f64::max);
            let exec_s = l.time_s - l.roofline.launch_overhead_s;
            let scale_s = if horizon > 0.0 { exec_s / horizon } else { 0.0 };
            let exec_start_s = l.start_s + l.roofline.launch_overhead_s;
            for s in sched {
                spans.push(TimelineSpan {
                    launch_seq: seq,
                    kernel: l.name,
                    phase: l.phase,
                    sm: s.sm,
                    slot: s.slot,
                    block: s.block,
                    warps: l.config.warps_per_block(),
                    start_ms: (exec_start_s + s.start_cycles * scale_s) * 1e3,
                    end_ms: (exec_start_s + s.end_cycles * scale_s) * 1e3,
                });
            }
        }
        let transfers = self
            .transfers()
            .iter()
            .enumerate()
            .map(|(seq, t)| TransferSpan {
                seq,
                phase: t.phase,
                dir: match t.dir {
                    TransferDir::HostToDevice => "h2d",
                    TransferDir::DeviceToHost => "d2h",
                },
                bytes: t.bytes,
                start_ms: t.start_s * 1e3,
                end_ms: (t.start_s + t.time_s) * 1e3,
            })
            .collect();
        let counters = self
            .counter_samples()
            .iter()
            .map(|s| CounterPoint {
                track: s.track,
                phase: s.phase,
                time_ms: s.time_s * 1e3,
                value: s.value,
            })
            .collect();
        let end_ms = self.elapsed_ms();
        let memory = self
            .device
            .ledger()
            .iter()
            .map(|e| MemSpan {
                name: e.name.clone(),
                bytes: e.bytes,
                size_class: e.size_class,
                phase: e.phase,
                slot: e.slot,
                start_ms: e.alloc_ms,
                end_ms: e.free_ms.unwrap_or(end_ms),
                freed: !e.is_live(),
            })
            .collect();
        Timeline {
            label: label.into(),
            sm_count: self.cost.sm_count,
            spans,
            transfers,
            counters,
            memory,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::LaunchConfig;
    use crate::CostParams;

    fn skewed_ctx() -> GpuContext {
        skewed_ctx_with(CostParams::p100())
    }

    fn skewed_ctx_with(cost: CostParams) -> GpuContext {
        let mut c = GpuContext::new(cost, 1 << 20);
        let buf = c.htod("x", &[0u32; 64]).unwrap();
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
        c.dtoh_word(buf, 0);
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
        assert!(!c.timeline("nan").to_chrome_json().is_empty());
    }

    #[test]
    fn spans_tile_the_launch_window() {
        let c = skewed_ctx();
        let tl = c.timeline("unit");
        assert_eq!(tl.sm_count, 56);
        assert_eq!(tl.spans.len(), 4);
        let l = &c.launches()[0];
        let exec_start_ms = (l.start_s + l.roofline.launch_overhead_s) * 1e3;
        let end_ms = (l.start_s + l.time_s) * 1e3;
        for s in &tl.spans {
            assert_eq!((s.kernel, s.phase), ("loop", "Loop"));
            assert_eq!(s.warps, 2);
            assert!(s.start_ms >= exec_start_ms - 1e-12);
            assert!(s.end_ms <= end_ms + 1e-12);
        }
        // with 56 SMs and 4 blocks, every block gets its own SM at slot 0
        // and starts at the window's opening edge
        for s in &tl.spans {
            assert_eq!((s.sm, s.slot), (s.block, 0));
            assert!((s.start_ms - exec_start_ms).abs() < 1e-12);
        }
        // the worst block (4× cycles) closes the window exactly
        let worst = tl.spans.iter().find(|s| s.block == 3).unwrap();
        assert!((worst.end_ms - end_ms).abs() < 1e-12);
    }

    #[test]
    fn transfers_and_counters_carry_timestamps() {
        let c = skewed_ctx();
        let tl = c.timeline("unit");
        assert_eq!(tl.transfers.len(), 2); // htod + dtoh_word
        assert_eq!(tl.transfers[0].dir, "h2d");
        assert!(tl.transfers[0].start_ms < tl.transfers[0].end_ms);
        let cp = &tl.counters[0];
        assert_eq!((cp.track, cp.phase, cp.value), ("frontier", "Sync", 3.0));
        // sampled after the dtoh_word finished
        assert!((cp.time_ms - tl.transfers[1].end_ms).abs() < 1e-12);
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

    #[test]
    fn memory_spans_cover_allocation_lifetimes() {
        let c = skewed_ctx();
        let tl = c.timeline("unit");
        assert_eq!(tl.memory.len(), 1); // the htod'd "x"
        let m = &tl.memory[0];
        assert_eq!((m.name.as_str(), m.bytes, m.slot), ("x", 256, 0));
        // never freed → the span extends to the end of the run
        assert!(!m.freed);
        assert_eq!(m.start_ms, 0.0);
        assert!((m.end_ms - c.elapsed_ms()).abs() < 1e-12);
    }

    #[test]
    fn timeline_is_deterministic() {
        let a = skewed_ctx().timeline("t");
        let b = skewed_ctx().timeline("t");
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }
}
