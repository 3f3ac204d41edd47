//! Structured profiling traces for simulated runs.
//!
//! A [`Trace`] is the one snapshot of everything a [`GpuContext`]
//! recorded: the context's own launch, transfer and counter-sample records
//! ([`LaunchRecord`], [`TransferRecord`], [`CounterSample`]), its
//! allocation ledger ([`MemStats`]), and per-phase and per-kernel rollups
//! derived from them, driven by the [`GpuContext::set_phase`] annotations
//! the algorithms thread through their rounds (`"Scan"`, `"Loop"`, …).
//!
//! A trace has two renderings:
//!
//! 1. **[`Trace::to_json`]** — the JSON document of schema
//!    [`crate::SCHEMA_VERSION`] that `inspect` dumps under
//!    `results/traces/`, so a run can be profiled offline (which kernel
//!    dominates, whether it is compute- or bandwidth-bound, how imbalanced
//!    its blocks are). DESIGN.md documents the schema.
//! 2. **[`Trace::to_chrome_json`]** — the SM-level Perfetto document
//!    ([`crate::perfetto`]).
//!
//! Everything in a trace is *simulated* (counters and simulated seconds,
//! never wall time), so a trace and both its renderings are bit-for-bit
//! deterministic, and the golden-trace tests assert exact equality across
//! runs and host thread counts.

use crate::cost::{CounterSample, Counters, LaunchRecord, TransferDir, TransferRecord};
use crate::exec::GpuContext;
use crate::memstats::MemStats;
use crate::perfetto::obj;
use crate::timeline::Hotspot;
use serde::{Serialize, Value};

/// Worst blocks kept per kernel in a trace's hotspot records.
pub const HOTSPOT_TOP_K: usize = 5;

/// A profiling snapshot of one simulated run. Its JSON document
/// ([`Trace::to_json`]) writes each launch and transfer with its ordinal
/// as `seq` and its times in ms, and leaves out the per-block cycles and
/// the counter samples, which only the Perfetto rendering draws.
#[derive(Debug, Clone)]
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
    /// Every kernel launch, in launch order.
    pub launches: Vec<LaunchRecord>,
    /// Every host↔device copy, in issue order.
    pub transfers: Vec<TransferRecord>,
    /// Every host-sampled counter-track point, in sampling order.
    pub samples: Vec<CounterSample>,
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

/// A transfer direction as the documents name it: `"h2d"` or `"d2h"`.
pub(crate) fn dir_name(dir: TransferDir) -> &'static str {
    match dir {
        TransferDir::HostToDevice => "h2d",
        TransferDir::DeviceToHost => "d2h",
    }
}

impl Serialize for Trace {
    fn to_value(&self) -> Value {
        let launches = self.launches.iter().enumerate().map(|(seq, l)| {
            obj(vec![
                ("seq", seq.to_value()),
                ("phase", l.phase.to_value()),
                ("kernel", l.name.to_value()),
                ("blocks", l.config.blocks.to_value()),
                ("threads_per_block", l.config.threads_per_block.to_value()),
                ("start_ms", (l.start_s * 1e3).to_value()),
                ("time_ms", (l.time_s * 1e3).to_value()),
                ("bound", l.roofline.bound().to_value()),
                ("roofline", l.roofline.to_value()),
                ("max_block_cycles", l.max_block_cycles().to_value()),
                ("sum_block_cycles", l.sum_block_cycles().to_value()),
                ("counters", l.counters.to_value()),
                ("block_counters", l.block_counters.to_value()),
            ])
        });
        let transfers = self.transfers.iter().enumerate().map(|(seq, t)| {
            obj(vec![
                ("seq", seq.to_value()),
                ("phase", t.phase.to_value()),
                ("dir", dir_name(t.dir).to_value()),
                ("bytes", t.bytes.to_value()),
                ("start_ms", (t.start_s * 1e3).to_value()),
                ("time_ms", (t.time_s * 1e3).to_value()),
            ])
        });
        obj(vec![
            ("label", self.label.to_value()),
            ("device", self.device.to_value()),
            ("totals", self.totals.to_value()),
            ("phases", self.phases.to_value()),
            ("hotspots", self.hotspots.to_value()),
            ("memstats", self.memstats.to_value()),
            ("launches", Value::Array(launches.collect())),
            ("transfers", Value::Array(transfers.collect())),
        ])
    }
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
        counters_digest(&self.launches, &self.transfers)
    }
}

/// The digest behind [`Trace::counters_fingerprint`] and
/// [`GpuContext::counters_fingerprint`]: each launch as `(phase, kernel,
/// blocks, threads per block, counters)`, then each transfer's bytes.
fn counters_digest(launches: &[LaunchRecord], transfers: &[TransferRecord]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for l in launches {
        for b in l.phase.bytes().chain(l.name.bytes()) {
            h = fnv1a(h, b as u64);
        }
        h = fnv1a(h, l.config.blocks as u64);
        h = fnv1a(h, l.config.threads_per_block as u64);
        for w in l.counters.to_words() {
            h = fnv1a(h, w);
        }
    }
    for t in transfers {
        h = fnv1a(h, t.bytes);
    }
    h
}

fn fnv1a(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(0x0000_0100_0000_01b3)
}

impl GpuContext {
    /// The [`Trace::counters_fingerprint`] of everything recorded so far,
    /// digested from the launch and transfer records without building a
    /// trace.
    pub fn counters_fingerprint(&self) -> u64 {
        counters_digest(self.launches(), self.transfers())
    }

    /// Captures a [`Trace`] of everything recorded so far.
    ///
    /// The snapshot clones the context's records, can be taken mid-run,
    /// and contains only simulated quantities — capturing it twice from
    /// the same context yields identical traces.
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
            launches: self.launches().to_vec(),
            transfers: self.transfers().to_vec(),
            samples: self.counter_samples().to_vec(),
        }
    }
}

/// Groups launches and transfers into per-phase rollups. Phases appear in
/// the order they first launched a kernel; phases that only performed
/// transfers follow, in first-transfer order.
fn summarize_phases(launches: &[LaunchRecord], transfers: &[TransferRecord]) -> Vec<PhaseSummary> {
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
    // Counters are exact u64 sums, so unlike the f64 columns above they can
    // be summed per phase in one pass each, in any order.
    for p in &mut phases {
        p.counters = Counters::flat_sum(
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
    use crate::{CostParams, SizeClass};
    use serde::Value;

    fn traced_ctx() -> GpuContext {
        let mut c = GpuContext::new(CostParams::p100(), 1 << 20);
        c.set_block_profiling(true);
        let buf = c.htod("x", &[0u32; 64], SizeClass::Fixed).unwrap();
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
            c.dtoh(buf, 0..1).unwrap();
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
        assert_eq!(t.transfers.len(), 3); // 1 htod + 2 one-word dtoh
        let ev = &t.launches[0];
        assert_eq!((ev.name, ev.phase), ("scan", "Scan"));
        assert_eq!(ev.config.blocks, 4);
        let rl = &ev.roofline;
        assert!((rl.launch_overhead_s + rl.compute_s.max(rl.mem_s) - ev.time_s).abs() < 1e-15);
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
        assert_eq!(t.launches[0].roofline.bound(), "launch");
        assert!(c.trace("unit").to_json().contains("\"bound\": \"launch\""));
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
        c.sample_counter("frontier", 1.0);
        let json = c.trace("unit").to_json();
        assert!(json.starts_with("{\n  \"schema_version\": 5,\n  \"label\": \"unit\","));
        assert_eq!(json.matches("schema_version").count(), 1);
        assert!(json.contains("\"label\": \"unit\""));
        assert!(json.contains("\"phase\": \"Scan\""));
        assert!(json.contains("\"bound\""));
        assert!(json.contains("\"block_counters\""));
        assert!(json.contains("\"hotspots\""));
        assert!(json.contains("\"memstats\""));
        assert!(json.contains("\"peak_live_set\""));
        // each record under the keys it has always been written with; the
        // block cycles and the counter samples are the Perfetto rendering's
        let v = serde_json::from_str(&json).unwrap();
        let keys = |v: &Value| match v {
            Value::Object(fields) => fields.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
            _ => panic!("not an object"),
        };
        let first = |key: &str| v.get(key).and_then(Value::as_array).unwrap()[0].clone();
        let launch_keys = [
            "seq",
            "phase",
            "kernel",
            "blocks",
            "threads_per_block",
            "start_ms",
            "time_ms",
            "bound",
            "roofline",
            "max_block_cycles",
            "sum_block_cycles",
            "counters",
            "block_counters",
        ];
        assert_eq!(keys(&first("launches")), launch_keys);
        let transfer_keys = ["seq", "phase", "dir", "bytes", "start_ms", "time_ms"];
        assert_eq!(keys(&first("transfers")), transfer_keys);
        assert_eq!(
            first("transfers").get("dir").and_then(Value::as_str),
            Some("h2d")
        );
        assert!(!json.contains("\"block_cycles\"") && !json.contains("\"samples\""));
        // capturing twice yields byte-identical JSON (simulated time only)
        assert_eq!(json, c.trace("unit").to_json());
    }

    #[test]
    fn trace_carries_launch_and_transfer_start_timestamps() {
        let mut c = traced_ctx();
        let t = c.trace("unit");
        // events are recorded in clock order: starts never decrease and each
        // launch begins exactly where the preceding activity left off
        assert_eq!(t.transfers[0].start_s, 0.0);
        assert!((t.launches[0].start_s - t.transfers[0].time_s).abs() < 1e-15);
        for w in t.launches.windows(2) {
            assert!(w[1].start_s >= w[0].start_s + w[0].time_s - 1e-15);
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
