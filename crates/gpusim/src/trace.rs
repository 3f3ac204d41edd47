//! Structured profiling traces for simulated runs.
//!
//! A [`Trace`] is a serializable snapshot of everything a [`GpuContext`]
//! recorded: every kernel launch with its grid geometry, summed (and
//! optionally per-block) [`Counters`], and [`Roofline`] decomposition; every
//! host↔device transfer; and per-phase rollups driven by the
//! [`GpuContext::set_phase`] annotations the algorithms thread through
//! their rounds (`"Scan"`, `"Loop"`, …).
//!
//! Traces serve two purposes:
//!
//! 1. **Inspection** — `inspect` dumps them as JSON documents of schema
//!    [`crate::SCHEMA_VERSION`] under `results/traces/` so a run can be
//!    profiled offline (which kernel dominates, whether it is compute- or
//!    bandwidth-bound, how imbalanced its blocks are). DESIGN.md documents
//!    the schema.
//! 2. **Regression** — everything in a trace is *simulated* (counters and
//!    simulated seconds, never wall time), so a trace is bit-for-bit
//!    deterministic and the golden-trace tests can assert exact equality
//!    across runs and host thread counts.

use crate::cost::{Counters, Roofline, TransferDir, TransferRecord};
use crate::exec::GpuContext;
use crate::memstats::MemStats;
use crate::timeline::Hotspot;
use serde::Serialize;

/// Worst blocks kept per kernel in a trace's hotspot records.
pub const HOTSPOT_TOP_K: usize = 5;

/// A serializable profiling snapshot of one simulated run.
#[derive(Debug, Clone, Serialize)]
pub struct Trace {
    /// Caller-chosen run label (dataset, variant, …).
    pub label: String,
    /// Device constants (capacity and peak live in `memstats`).
    pub device: DeviceInfo,
    /// Whole-run rollup.
    pub totals: Totals,
    /// Per-phase rollups, in first-activation order.
    pub phases: Vec<PhaseSummary>,
    /// Per-kernel cost attribution ([`crate::timeline::hotspots`]), in
    /// first-launch order.
    pub hotspots: Vec<Hotspot>,
    /// Device-memory snapshot: allocation ledger, per-phase watermarks,
    /// peak live set.
    pub memstats: MemStats,
    /// One event per kernel launch, in launch order.
    pub launches: Vec<LaunchEvent>,
    /// One event per host↔device copy, in issue order.
    pub transfers: Vec<TransferEvent>,
}

/// The simulated device a trace was captured on.
#[derive(Debug, Clone, Serialize)]
pub struct DeviceInfo {
    /// Streaming multiprocessors.
    pub sm_count: u32,
    /// Core clock, Hz.
    pub clock_hz: f64,
    /// Global-memory bandwidth, bytes/s.
    pub mem_bandwidth: f64,
}

/// Whole-run totals.
#[derive(Debug, Clone, Serialize)]
pub struct Totals {
    /// Total simulated time (kernels + transfers + overheads), ms.
    pub time_ms: f64,
    /// Kernel launches.
    pub launches: u64,
    /// Host↔device copies.
    pub transfers: u64,
    /// Host→device bytes.
    pub h2d_bytes: u64,
    /// Device→host bytes.
    pub d2h_bytes: u64,
    /// Grand-total counters over all launches.
    pub counters: Counters,
}

/// Rollup of one algorithm phase (consecutive or not).
#[derive(Debug, Clone, Serialize)]
pub struct PhaseSummary {
    /// Phase name as passed to [`GpuContext::set_phase`].
    pub phase: &'static str,
    /// Kernel launches stamped with this phase.
    pub launches: u64,
    /// Summed kernel time, ms.
    pub kernel_ms: f64,
    /// Summed launch-overhead roofline term, ms.
    pub launch_overhead_ms: f64,
    /// Summed compute roofline term, ms.
    pub compute_ms: f64,
    /// Summed bandwidth roofline term, ms.
    pub mem_ms: f64,
    /// Summed transfer time in this phase, ms.
    pub transfer_ms: f64,
    /// Host→device bytes moved in this phase.
    pub h2d_bytes: u64,
    /// Device→host bytes moved in this phase.
    pub d2h_bytes: u64,
    /// Summed counters over this phase's launches.
    pub counters: Counters,
}

/// One kernel launch, flattened for serialization.
#[derive(Debug, Clone, Serialize)]
pub struct LaunchEvent {
    /// Launch ordinal within the run (0-based).
    pub seq: usize,
    /// Phase active at launch time.
    pub phase: &'static str,
    /// Kernel name.
    pub kernel: &'static str,
    /// Grid blocks.
    pub blocks: u32,
    /// Threads per block.
    pub threads_per_block: u32,
    /// Sim-clock issue timestamp, ms.
    pub start_ms: f64,
    /// Simulated duration, ms.
    pub time_ms: f64,
    /// Binding roofline term: `"launch"`, `"compute"`, or `"memory"`.
    pub bound: &'static str,
    /// Roofline decomposition of the duration (seconds, as modelled).
    pub roofline: Roofline,
    /// Largest single-block cycle count (load-imbalance diagnostics).
    pub max_block_cycles: f64,
    /// Total cycle count across blocks.
    pub sum_block_cycles: f64,
    /// Summed counters over all blocks.
    pub counters: Counters,
    /// Per-block counter deltas, when block profiling was enabled.
    pub block_counters: Option<Vec<Counters>>,
}

/// One host↔device copy, flattened for serialization.
#[derive(Debug, Clone, Serialize)]
pub struct TransferEvent {
    /// Transfer ordinal within the run (0-based).
    pub seq: usize,
    /// Phase active at transfer time.
    pub phase: &'static str,
    /// `"h2d"` or `"d2h"`.
    pub dir: &'static str,
    /// Payload bytes.
    pub bytes: u64,
    /// Sim-clock issue timestamp, ms.
    pub start_ms: f64,
    /// Simulated duration, ms.
    pub time_ms: f64,
}

impl Trace {
    /// The trace as a pretty-printed JSON document of schema
    /// [`crate::SCHEMA_VERSION`].
    pub fn to_json(&self) -> String {
        crate::to_document(|| self.to_value())
    }

    /// An order-sensitive FNV-1a digest over every launch's identity and
    /// counters. Two runs that executed the same kernels in the same phases
    /// with identical per-event counters share a fingerprint; timing fields
    /// are excluded, so the digest is stable under cost-constant changes.
    pub fn counters_fingerprint(&self) -> u64 {
        counters_digest(
            self.launches.iter().map(|l| {
                (
                    l.phase,
                    l.kernel,
                    l.blocks,
                    l.threads_per_block,
                    &l.counters,
                )
            }),
            self.transfers.iter().map(|t| t.bytes),
        )
    }
}

/// The digest behind [`Trace::counters_fingerprint`] and
/// [`GpuContext::counters_fingerprint`]: each launch as `(phase, kernel,
/// blocks, threads per block, counters)`, then each transfer's bytes.
fn counters_digest<'a>(
    launches: impl Iterator<Item = (&'a str, &'a str, u32, u32, &'a Counters)>,
    transfer_bytes: impl Iterator<Item = u64>,
) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (phase, kernel, blocks, threads_per_block, counters) in launches {
        for b in phase.bytes().chain(kernel.bytes()) {
            h = fnv1a(h, b as u64);
        }
        h = fnv1a(h, blocks as u64);
        h = fnv1a(h, threads_per_block as u64);
        for w in counter_words(counters) {
            h = fnv1a(h, w);
        }
    }
    for bytes in transfer_bytes {
        h = fnv1a(h, bytes);
    }
    h
}

fn fnv1a(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(0x0000_0100_0000_01b3)
}

fn counter_words(c: &Counters) -> [u64; 8] {
    [
        c.global_tx,
        c.global_sectors,
        c.dependent_reads,
        c.global_atomics,
        c.shared_atomics,
        c.shared_accesses,
        c.warp_instrs,
        c.barriers,
    ]
}

impl GpuContext {
    /// The [`Trace::counters_fingerprint`] of everything recorded so far,
    /// digested from the launch and transfer records without building a
    /// trace.
    pub fn counters_fingerprint(&self) -> u64 {
        counters_digest(
            self.launches().iter().map(|l| {
                (
                    l.phase,
                    l.name,
                    l.config.blocks,
                    l.config.threads_per_block,
                    &l.counters,
                )
            }),
            self.transfers().iter().map(|t| t.bytes),
        )
    }

    /// Captures a [`Trace`] of everything recorded so far.
    ///
    /// The snapshot is cheap relative to a run (it clones records), can be
    /// taken mid-run, and contains only simulated quantities — capturing it
    /// twice from the same context yields identical traces.
    ///
    /// Taking a snapshot **resets the active phase to `"main"`**: a trace
    /// marks the end of a measured episode, so whatever label the episode
    /// left active must not silently stick to the next episode's records
    /// (back-to-back traces used to inherit stale phase labels).
    pub fn trace(&mut self, label: impl Into<String>) -> Trace {
        let report = self.report();
        // snapshot memory before the phase reset below, so the memstats
        // embedded here match a standalone `memstats()` call exactly
        let memstats = self.memstats();
        let launches: Vec<LaunchEvent> = self
            .launches()
            .iter()
            .enumerate()
            .map(|(seq, l)| LaunchEvent {
                seq,
                phase: l.phase,
                kernel: l.name,
                blocks: l.config.blocks,
                threads_per_block: l.config.threads_per_block,
                start_ms: l.start_s * 1e3,
                time_ms: l.time_s * 1e3,
                bound: l.roofline.bound(),
                roofline: l.roofline,
                max_block_cycles: l.max_block_cycles,
                sum_block_cycles: l.sum_block_cycles,
                counters: l.counters,
                block_counters: l.block_counters.clone(),
            })
            .collect();
        let transfers: Vec<TransferEvent> = self
            .transfers()
            .iter()
            .enumerate()
            .map(|(seq, t)| TransferEvent {
                seq,
                phase: t.phase,
                dir: match t.dir {
                    TransferDir::HostToDevice => "h2d",
                    TransferDir::DeviceToHost => "d2h",
                },
                bytes: t.bytes,
                start_ms: t.start_s * 1e3,
                time_ms: t.time_s * 1e3,
            })
            .collect();
        self.set_phase("main");
        Trace {
            label: label.into(),
            device: DeviceInfo {
                sm_count: self.cost.sm_count,
                clock_hz: self.cost.clock_hz,
                mem_bandwidth: self.cost.mem_bandwidth,
            },
            totals: Totals {
                time_ms: report.total_ms,
                launches: report.launches,
                transfers: self.transfers().len() as u64,
                h2d_bytes: report.h2d_bytes,
                d2h_bytes: report.d2h_bytes,
                counters: report.counters,
            },
            phases: summarize_phases(self.launches(), self.transfers()),
            hotspots: crate::timeline::hotspots(self.launches(), &self.cost, HOTSPOT_TOP_K),
            memstats,
            launches,
            transfers,
        }
    }
}

/// Groups launches and transfers into per-phase rollups. Phases appear in
/// the order they first launched a kernel; phases that only performed
/// transfers follow, in first-transfer order.
fn summarize_phases(
    launches: &[crate::cost::LaunchRecord],
    transfers: &[TransferRecord],
) -> Vec<PhaseSummary> {
    let mut phases: Vec<PhaseSummary> = Vec::new();
    let find = |phases: &mut Vec<PhaseSummary>, name: &'static str| -> usize {
        if let Some(i) = phases.iter().position(|p| p.phase == name) {
            i
        } else {
            phases.push(PhaseSummary {
                phase: name,
                launches: 0,
                kernel_ms: 0.0,
                launch_overhead_ms: 0.0,
                compute_ms: 0.0,
                mem_ms: 0.0,
                transfer_ms: 0.0,
                h2d_bytes: 0,
                d2h_bytes: 0,
                counters: Counters::default(),
            });
            phases.len() - 1
        }
    };
    for l in launches {
        let i = find(&mut phases, l.phase);
        let p = &mut phases[i];
        p.launches += 1;
        p.kernel_ms += l.time_s * 1e3;
        p.launch_overhead_ms += l.roofline.launch_overhead_s * 1e3;
        p.compute_ms += l.roofline.compute_s * 1e3;
        p.mem_ms += l.roofline.mem_s * 1e3;
    }
    // Counters are u64 sums, so unlike the f64 columns above they can be
    // flat-combined per phase in one vectorized pass each.
    for p in &mut phases {
        p.counters = Counters::flat_sum_iter(
            launches
                .iter()
                .filter(|l| l.phase == p.phase)
                .map(|l| &l.counters),
        );
    }
    for t in transfers {
        let i = find(&mut phases, t.phase);
        let p = &mut phases[i];
        p.transfer_ms += t.time_s * 1e3;
        match t.dir {
            TransferDir::HostToDevice => p.h2d_bytes += t.bytes,
            TransferDir::DeviceToHost => p.d2h_bytes += t.bytes,
        }
    }
    phases
}

#[cfg(test)]
mod tests {
    use crate::exec::{GpuContext, LaunchConfig};
    use crate::CostParams;

    fn traced_ctx() -> GpuContext {
        let mut c = GpuContext::new(CostParams::p100(), 1 << 20);
        c.set_block_profiling(true);
        let buf = c.htod("x", &[0u32; 64]).unwrap();
        let cfg = LaunchConfig {
            blocks: 4,
            threads_per_block: 32,
        };
        c.set_phase("Scan");
        c.launch("scan", cfg, |blk| {
            blk.charge_tx(8);
            Ok(())
        })
        .unwrap();
        c.set_phase("Loop");
        for _ in 0..2 {
            c.launch("loop", cfg, |blk| {
                blk.charge_instr(100 * (blk.block_idx as u64 + 1));
                Ok(())
            })
            .unwrap();
            c.dtoh_word(buf, 0);
        }
        c
    }

    #[test]
    fn trace_groups_phases_in_first_seen_order() {
        let mut c = traced_ctx();
        let t = c.trace("unit");
        // the htod happened under the default "main" phase, which never
        // launches a kernel — transfer-only phases sort after launch phases
        let names: Vec<&str> = t.phases.iter().map(|p| p.phase).collect();
        assert_eq!(names, ["Scan", "Loop", "main"]);
        let scan = &t.phases[0];
        assert_eq!(scan.launches, 1);
        assert_eq!(scan.counters.global_tx, 4 * 8);
        let lp = &t.phases[1];
        assert_eq!(lp.launches, 2);
        assert_eq!(lp.d2h_bytes, 8);
        assert!(lp.transfer_ms > 0.0);
    }

    #[test]
    fn trace_events_carry_roofline_and_blocks() {
        let mut c = traced_ctx();
        let t = c.trace("unit");
        assert_eq!(t.launches.len(), 3);
        assert_eq!(t.transfers.len(), 3); // 1 htod + 2 dtoh_word
        let ev = &t.launches[0];
        assert_eq!((ev.seq, ev.kernel, ev.phase), (0, "scan", "Scan"));
        assert_eq!(ev.blocks, 4);
        let rl = &ev.roofline;
        assert!(
            (rl.launch_overhead_s + rl.compute_s.max(rl.mem_s) - ev.time_ms / 1e3).abs() < 1e-15
        );
        // per-block profiling was on: 4 blocks, deltas sum to the total
        let per = ev.block_counters.as_ref().unwrap();
        assert_eq!(per.len(), 4);
        assert_eq!(
            per.iter().map(|c| c.global_tx).sum::<u64>(),
            ev.counters.global_tx
        );
        // loop kernel skews instructions by block index
        let lp = &t.launches[1];
        let per = lp.block_counters.as_ref().unwrap();
        assert_eq!(per[3].warp_instrs, 400);
        // totals roll everything up
        assert_eq!(t.totals.launches, 3);
        assert_eq!(t.totals.counters.warp_instrs, 2 * (100 + 200 + 300 + 400));
        assert_eq!(t.device.sm_count, 56);
    }

    #[test]
    fn empty_launch_is_launch_bound() {
        let mut c = GpuContext::new(CostParams::p100(), 1 << 20);
        let cfg = LaunchConfig {
            blocks: 1,
            threads_per_block: 32,
        };
        c.launch("nop", cfg, |_| Ok(())).unwrap();
        let t = c.trace("unit");
        assert_eq!(t.launches[0].bound, "launch");
    }

    #[test]
    fn fingerprint_ignores_label_but_not_counters() {
        let a = traced_ctx().trace("a");
        let b = traced_ctx().trace("b");
        assert_eq!(a.counters_fingerprint(), b.counters_fingerprint());
        // the context digests its records to the trace's fingerprint
        assert_eq!(
            traced_ctx().counters_fingerprint(),
            a.counters_fingerprint()
        );

        let mut c = GpuContext::new(CostParams::p100(), 1 << 20);
        c.set_phase("Scan");
        let cfg = LaunchConfig {
            blocks: 4,
            threads_per_block: 32,
        };
        c.launch("scan", cfg, |blk| {
            blk.charge_tx(9); // one extra transaction
            Ok(())
        })
        .unwrap();
        assert_ne!(
            a.counters_fingerprint(),
            c.trace("a").counters_fingerprint()
        );
    }

    #[test]
    fn trace_serializes_to_json() {
        let mut c = traced_ctx();
        let json = c.trace("unit").to_json();
        assert!(json.starts_with("{\n  \"schema_version\": 4,\n  \"label\": \"unit\","));
        assert_eq!(json.matches("schema_version").count(), 1);
        assert!(json.contains("\"label\": \"unit\""));
        assert!(json.contains("\"phase\": \"Scan\""));
        assert!(json.contains("\"bound\""));
        assert!(json.contains("\"block_counters\""));
        assert!(json.contains("\"hotspots\""));
        assert!(json.contains("\"memstats\""));
        assert!(json.contains("\"peak_live_set\""));
        // capturing twice yields byte-identical JSON (simulated time only)
        assert_eq!(json, c.trace("unit").to_json());
    }

    #[test]
    fn trace_carries_launch_and_transfer_start_timestamps() {
        let mut c = traced_ctx();
        let t = c.trace("unit");
        // events are recorded in clock order: starts never decrease and each
        // launch begins exactly where the preceding activity left off
        assert_eq!(t.transfers[0].start_ms, 0.0);
        assert!((t.launches[0].start_ms - t.transfers[0].time_ms).abs() < 1e-12);
        for w in t.launches.windows(2) {
            assert!(w[1].start_ms >= w[0].start_ms + w[0].time_ms - 1e-12);
        }
    }

    #[test]
    fn trace_summarizes_hotspots_per_kernel() {
        let mut c = traced_ctx();
        let t = c.trace("unit");
        let names: Vec<&str> = t.hotspots.iter().map(|h| h.kernel).collect();
        assert_eq!(names, ["scan", "loop"]);
        assert_eq!(t.hotspots[1].launches, 2);
        // attribution tiles each kernel's total time
        for h in &t.hotspots {
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
        }
    }

    #[test]
    fn snapshot_resets_sticky_phase_label() {
        let mut c = traced_ctx();
        assert_eq!(c.phase(), "Loop"); // left sticky by the last episode
        let _ = c.trace("episode 1");
        assert_eq!(c.phase(), "main");
        // records from the next episode don't inherit the stale label
        let cfg = LaunchConfig {
            blocks: 1,
            threads_per_block: 32,
        };
        c.launch("next", cfg, |_| Ok(())).unwrap();
        let t = c.trace("episode 2");
        assert_eq!(t.launches.last().unwrap().phase, "main");
    }
}
