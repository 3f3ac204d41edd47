//! Device-memory statistics and full-scale capacity extrapolation.
//!
//! [`GpuContext::memstats`] snapshots the device's allocation ledger
//! ([`crate::device`]) into a serializable [`MemStats`]: the per-allocation
//! table, per-phase live-byte high-watermarks, and the top-k live
//! allocations at the global peak. Transfers are not repeated here: a
//! [`crate::Trace`]'s `totals` and `phases` are the transfer record.
//! Everything in it is *simulated* and *observed* — capturing
//! a snapshot charges no time and perturbs no counter, so memstats can be
//! taken from any run without changing its golden trace.
//!
//! **Capacity extrapolation.** The bench harness runs Table I stand-ins at
//! roughly 1/100 scale with a proportionally shrunk device, so a run's raw
//! peak says nothing about the paper's 16 GB P100 directly.
//! [`MemStats::extrapolate`] predicts the *full-scale* footprint from the
//! ledger: every allocation is tagged at its alloc site with a
//! [`SizeClass`] declaring how its size depends on the graph, and the
//! extrapolator scales each entry linearly by that dependence — `PerVertex`
//! by `full_vertices / sim_vertices`, `PerArc` by `full_arcs / sim_arcs`,
//! `Fixed` not at all — then replays the live-bytes step function with the
//! scaled sizes to find the predicted peak. Linear-per-class is exact for
//! every CSR array, degree/core/frontier vector and per-edge tensor in this
//! repo (their sizes are literally `n`, `n+1` or `arcs` words); it is the
//! same first-order model the paper uses when it reports which graphs fit
//! (Tables 3–5).

use crate::device::{LedgerEntry, SizeClass};
use crate::exec::GpuContext;
use serde::Serialize;

/// The paper's device: a Tesla P100 with 16 GB of global memory.
pub const P100_DEVICE_BYTES: u64 = 16 * (1 << 30);

/// Live allocations kept in the peak snapshot (and per forecast).
pub const PEAK_LIVE_SET_TOP_K: usize = 8;

/// A serializable snapshot of one run's device-memory behaviour.
#[derive(Debug, Clone, Serialize)]
pub struct MemStats {
    /// Device global-memory capacity of the run, bytes.
    pub capacity_bytes: u64,
    /// Bytes live at snapshot time.
    pub live_bytes: u64,
    /// Peak live bytes over the run.
    pub peak_bytes: u64,
    /// Workload |V| declared via [`GpuContext::set_workload_dims`] (0 if
    /// never declared).
    pub sim_vertices: u64,
    /// Workload arc count declared via [`GpuContext::set_workload_dims`].
    pub sim_arcs: u64,
    /// Per-allocation ledger, in allocation order.
    pub allocations: Vec<LedgerEntry>,
    /// Per-phase live-byte high-watermarks, in first-activation order.
    pub phase_peaks: Vec<PhasePeak>,
    /// The largest live allocations at the moment of the global peak,
    /// descending by size (top [`PEAK_LIVE_SET_TOP_K`]).
    pub peak_live_set: Vec<LiveAlloc>,
}

/// One phase's live-byte high-watermark.
#[derive(Debug, Clone, Serialize)]
pub struct PhasePeak {
    /// Phase name.
    pub phase: &'static str,
    /// Maximum live bytes while the phase was active.
    pub peak_bytes: u64,
}

/// A named allocation in a live-set snapshot.
#[derive(Debug, Clone, Serialize)]
pub struct LiveAlloc {
    /// Allocation name.
    pub name: String,
    /// Size in bytes (scaled, in a forecast's contributor list).
    pub bytes: u64,
    /// Scaling tag declared at the alloc site.
    pub size_class: SizeClass,
    /// Phase the allocation was made in.
    pub phase: &'static str,
}

/// A full-scale capacity prediction derived from a reduced-scale run — the
/// fit/OOM verdict of `sweep`'s `table_mem` and of `table_scale`'s fit
/// forecast.
#[derive(Debug, Clone, Serialize)]
pub struct CapacityForecast {
    /// Capacity of the target device ([`P100_DEVICE_BYTES`]).
    pub device_capacity_bytes: u64,
    /// Full-scale |V| the run was extrapolated to.
    pub full_vertices: u64,
    /// Full-scale arc count the run was extrapolated to.
    pub full_arcs: u64,
    /// Predicted full-scale peak live bytes.
    pub predicted_peak_bytes: u64,
    /// Whether the predicted peak fits the target device.
    pub fits: bool,
    /// `capacity − predicted peak` (negative when over capacity).
    pub headroom_bytes: i64,
    /// The largest scaled allocations live at the predicted peak,
    /// descending by scaled size (top [`PEAK_LIVE_SET_TOP_K`]).
    pub top_contributors: Vec<LiveAlloc>,
}

/// Scales `bytes` by `full/sim` in u128 so per-vertex × billion-vertex
/// products can't overflow; `sim == 0` (dims never declared) scales by 1.
fn scale_bytes(bytes: u64, full: u64, sim: u64) -> u64 {
    if sim == 0 {
        return bytes;
    }
    (bytes as u128 * full as u128 / sim as u128) as u64
}

fn scaled_entry_bytes(e: &LedgerEntry, stats: &MemStats, full_n: u64, full_arcs: u64) -> u64 {
    match e.size_class {
        SizeClass::PerVertex => scale_bytes(e.bytes, full_n, stats.sim_vertices),
        SizeClass::PerArc => scale_bytes(e.bytes, full_arcs, stats.sim_arcs),
        SizeClass::Fixed | SizeClass::Batch => e.bytes,
    }
}

/// Replays the ledger's alloc/free events in fine-op order with `bytes(e)`
/// per entry, returning the peak live total and the ledger indices live at
/// the first moment that peak is reached.
fn replay_peak(ledger: &[LedgerEntry], bytes: impl Fn(&LedgerEntry) -> u64) -> (u64, Vec<usize>) {
    // (op, ledger index, is_alloc) — ops are unique, so a sort by op fully
    // reconstructs the event order.
    let mut events: Vec<(u64, usize, bool)> = Vec::with_capacity(ledger.len() * 2);
    for (i, e) in ledger.iter().enumerate() {
        events.push((e.alloc_op, i, true));
        if let Some(op) = e.free_op {
            events.push((op, i, false));
        }
    }
    events.sort_unstable_by_key(|&(op, _, _)| op);
    let mut live: Vec<usize> = Vec::new();
    let mut cur = 0u64;
    let mut peak = 0u64;
    let mut at_peak: Vec<usize> = Vec::new();
    for (_, i, is_alloc) in events {
        if is_alloc {
            cur += bytes(&ledger[i]);
            live.push(i);
            if cur > peak {
                peak = cur;
                at_peak = live.clone();
            }
        } else {
            cur -= bytes(&ledger[i]);
            live.retain(|&l| l != i);
        }
    }
    (peak, at_peak)
}

/// Turns a set of live ledger indices into a top-k list, descending by
/// `bytes(e)` with allocation order as the tie-break.
fn top_live(
    ledger: &[LedgerEntry],
    live: &[usize],
    bytes: impl Fn(&LedgerEntry) -> u64,
) -> Vec<LiveAlloc> {
    let mut set: Vec<LiveAlloc> = live
        .iter()
        .map(|&i| {
            let e = &ledger[i];
            LiveAlloc {
                name: e.name.clone(),
                bytes: bytes(e),
                size_class: e.size_class,
                phase: e.phase,
            }
        })
        .collect();
    // live indices are in allocation order already; stable sort keeps that
    // order among equal sizes
    set.sort_by_key(|a| std::cmp::Reverse(a.bytes));
    set.truncate(PEAK_LIVE_SET_TOP_K);
    set
}

impl MemStats {
    /// The snapshot as a standalone pretty-printed JSON document of schema
    /// [`crate::SCHEMA_VERSION`] (inside a [`crate::Trace`] it carries no
    /// version of its own).
    pub fn to_json(&self) -> String {
        crate::to_document(|| self.to_value())
    }

    /// Predicts the full-scale peak footprint against the paper's 16 GB
    /// P100: scales every allocation by its [`SizeClass`] dependence on
    /// `full_vertices`/`full_arcs`, replays the live-bytes curve with the
    /// scaled sizes, and reports a fit/OOM verdict. If the run never
    /// declared its workload dimensions, sizes pass through unscaled.
    pub fn extrapolate(&self, full_vertices: u64, full_arcs: u64) -> CapacityForecast {
        let scaled = |e: &LedgerEntry| scaled_entry_bytes(e, self, full_vertices, full_arcs);
        let (predicted, live_at_peak) = replay_peak(&self.allocations, scaled);
        CapacityForecast {
            device_capacity_bytes: P100_DEVICE_BYTES,
            full_vertices,
            full_arcs,
            predicted_peak_bytes: predicted,
            fits: predicted <= P100_DEVICE_BYTES,
            headroom_bytes: P100_DEVICE_BYTES as i64 - predicted as i64,
            top_contributors: top_live(&self.allocations, &live_at_peak, scaled),
        }
    }
}

impl GpuContext {
    /// Captures a [`MemStats`] snapshot of the device-memory behaviour
    /// recorded so far. Free of charge: taking it advances no clock and
    /// touches no counter, so it cannot perturb a golden trace.
    pub fn memstats(&self) -> MemStats {
        let ledger = self.device.ledger().to_vec();
        let (peak, live_at_peak) = replay_peak(&ledger, |e| e.bytes);
        debug_assert_eq!(peak, self.device.peak_bytes());
        let peak_live_set = top_live(&ledger, &live_at_peak, |e| e.bytes);
        let phase_peaks = self
            .device
            .phase_peaks()
            .iter()
            .map(|&(phase, peak_bytes)| PhasePeak { phase, peak_bytes })
            .collect();
        MemStats {
            capacity_bytes: self.device.capacity_bytes(),
            live_bytes: self.device.used_bytes(),
            peak_bytes: self.device.peak_bytes(),
            sim_vertices: self.workload_vertices,
            sim_arcs: self.workload_arcs,
            allocations: ledger,
            phase_peaks,
            peak_live_set,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CostParams;

    fn ctx() -> GpuContext {
        GpuContext::new(CostParams::p100(), 1 << 30)
    }

    /// A miniature run shaped like the peel kernel's memory story: CSR
    /// inputs in Setup, a fixed scratch buffer, everything freed in Result.
    fn run(c: &mut GpuContext, n: usize, arcs: usize) {
        c.set_workload_dims(n as u64, arcs as u64);
        c.set_phase("Setup");
        let offsets = c
            .htod_tagged("offset", &vec![0u32; n + 1], SizeClass::PerVertex)
            .unwrap();
        let neigh = c
            .htod_tagged("neighbors", &vec![0u32; arcs], SizeClass::PerArc)
            .unwrap();
        let buf = c.alloc_tagged("buf", 64, SizeClass::Fixed).unwrap();
        c.set_phase("Loop");
        c.dtoh_word(buf, 0);
        c.set_phase("Result");
        c.device.free(buf);
        c.device.free(neigh);
        c.device.free(offsets);
    }

    #[test]
    fn memstats_tables_match_run() {
        let mut c = ctx();
        run(&mut c, 100, 400);
        let ms = c.memstats();
        assert_eq!(ms.sim_vertices, 100);
        assert_eq!(ms.sim_arcs, 400);
        assert_eq!(ms.live_bytes, 0);
        // peak = offsets (404) + neighbors (1600) + buf (256)
        assert_eq!(ms.peak_bytes, 404 + 1600 + 256);
        assert_eq!(ms.allocations.len(), 3);
        assert!(ms.allocations.iter().all(|e| !e.is_live()));
        // phase watermarks: Setup saw the peak, Loop held it, Result drained
        let peaks: Vec<(&str, u64)> = ms
            .phase_peaks
            .iter()
            .map(|p| (p.phase, p.peak_bytes))
            .collect();
        assert_eq!(peaks[0], ("Setup", 2260));
        assert_eq!(peaks[1], ("Loop", 2260));
        assert_eq!(peaks[2], ("Result", 2260));
        assert!(ms.phase_peaks.iter().all(|p| p.peak_bytes <= ms.peak_bytes));
        // the peak live set is every allocation, largest first
        let names: Vec<&str> = ms.peak_live_set.iter().map(|a| a.name.as_str()).collect();
        assert_eq!(names, ["neighbors", "offset", "buf"]);
    }

    #[test]
    fn extrapolation_scales_by_size_class() {
        let mut c = ctx();
        run(&mut c, 100, 400);
        let ms = c.memstats();
        // 10× vertices, 100× arcs
        let f = ms.extrapolate(1000, 40_000);
        // offsets 404 → 4040, neighbors 1600 → 160000, buf stays 256
        assert_eq!(f.predicted_peak_bytes, 4040 + 160_000 + 256);
        assert!(f.fits);
        assert_eq!(
            f.headroom_bytes,
            P100_DEVICE_BYTES as i64 - f.predicted_peak_bytes as i64
        );
        assert_eq!(f.top_contributors[0].name, "neighbors");
        assert_eq!(f.top_contributors[0].bytes, 160_000);
    }

    #[test]
    fn extrapolation_reports_oom_when_over_capacity() {
        let mut c = ctx();
        run(&mut c, 100, 400);
        let ms = c.memstats();
        // blow the arcs up until the neighbor array alone exceeds 16 GiB:
        // 1600 B × (full/400) > 16 GiB → full > 4.29e12/400 … use 1e13
        let f = ms.extrapolate(100, 10_000_000_000_000);
        assert!(!f.fits);
        assert!(f.headroom_bytes < 0);
        assert!(f.predicted_peak_bytes > P100_DEVICE_BYTES);
    }

    #[test]
    fn extrapolation_replays_lifetimes_not_totals() {
        // Two huge PerArc buffers that never coexist: the forecast must
        // replay the live curve (peak = one buffer), not sum the ledger.
        let mut c = ctx();
        c.set_workload_dims(10, 1000);
        let a = c.alloc_tagged("a", 250, SizeClass::PerArc).unwrap(); // 1000 B
        c.device.free(a);
        let _b = c.alloc_tagged("b", 250, SizeClass::PerArc).unwrap();
        let ms = c.memstats();
        assert_eq!(ms.peak_bytes, 1000);
        let f = ms.extrapolate(10, 2000);
        assert_eq!(f.predicted_peak_bytes, 2000); // one buffer, doubled arcs
        assert_eq!(f.top_contributors.len(), 1);
    }

    #[test]
    fn undeclared_dims_pass_through_unscaled() {
        let mut c = ctx();
        let _ = c.alloc_tagged("x", 100, SizeClass::PerVertex).unwrap();
        let ms = c.memstats();
        assert_eq!((ms.sim_vertices, ms.sim_arcs), (0, 0));
        let f = ms.extrapolate(1_000_000, 2_000_000);
        assert_eq!(f.predicted_peak_bytes, 400);
    }

    #[test]
    fn memstats_capture_is_free_and_repeatable() {
        let mut c = ctx();
        run(&mut c, 50, 200);
        let before = c.elapsed_ms();
        let a = c.memstats();
        assert_eq!(c.elapsed_ms(), before);
        let b = c.memstats();
        let json = a.to_json();
        assert_eq!(json, b.to_json());
        assert!(json.starts_with("{\n  \"schema_version\": 4,\n  \"capacity_bytes\""));
        assert!(json.contains("\"size_class\": \"PerArc\""));
    }
}
