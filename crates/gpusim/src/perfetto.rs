//! The Perfetto rendering of a [`Trace`]: Chrome trace-event JSON.
//!
//! [`Trace::to_chrome_json`] renders a trace as the Chrome trace-event
//! JSON format (the `traceEvents` array of `"X"` complete / `"M"` metadata
//! / `"C"` counter events, timestamps in microseconds) that
//! <https://ui.perfetto.dev> and `chrome://tracing` open directly:
//!
//! * **pid 0 — the GPU.** One thread track per SM (`tid` = the SM index),
//!   on which the priced block schedule runs one block at a time. Each
//!   block is an `"X"` span named after its kernel, with the phase as
//!   category and launch/block/warps in `args`.
//! * **pid 1 — PCIe.** Host↔device copies as `"X"` spans (`h2d` / `d2h`).
//! * **pid 2 — device memory.** One `"X"` lifetime slice per allocation
//!   of the trace's ledger (named after the buffer, phase as category,
//!   bytes/size-class in `args`), laned by the device slot the allocation
//!   occupied, plus a `device_bytes` counter stepping through the
//!   live-footprint curve — so footprint tiling renders directly against
//!   the SM tracks. An allocation never freed lasts to the end of the run
//!   (`totals.time_ms`).
//! * **Counter tracks.** Every [`crate::CounterSample`] recorded via
//!   [`crate::GpuContext::sample_counter`] (frontier size per round, …)
//!   becomes a `"C"` event, and an `active_warps` counter is derived from
//!   the block spans' begin/end edges — the live-occupancy sawtooth that
//!   makes divergence tails visible at a glance.
//!
//! **Block placement.** A launch record stores its issue time (`start_s`)
//! and each block's priced cycle count. [`crate::cost::makespan`] replays
//! dispatch onto the `sm_count` SMs, one block at a time per SM, as
//! pricing did; the resulting cycle offsets are then scaled so the schedule
//! spans exactly the launch's roofline-charged execution window
//! (`time_s − launch_overhead_s`). For a compute-bound launch that scale is
//! `1/clock_hz`, so each span lasts its block's cycles and the SMs' idle
//! time inside the window is `sm_count ×` the launch's divergence bucket
//! ([`crate::Hotspot`]); for a bandwidth-bound launch the blocks stretch
//! proportionally — the DRAM stall is distributed over the blocks that
//! caused the traffic.
//!
//! The rendering is plain arithmetic over the trace's recorded values in a
//! fixed order — same trace ⇒ byte-identical JSON (asserted by the golden
//! tests across runs and rayon pool sizes).

use crate::cost::makespan;
use crate::trace::{dir_name, Trace};
use serde::{Serialize, Value};

const GPU_PID: u64 = 0;
const PCIE_PID: u64 = 1;
const MEM_PID: u64 = 2;

/// One block's residency on one SM, where the priced schedule ran it.
struct BlockSpan {
    /// Index of the block's launch in [`Trace::launches`].
    launch: usize,
    /// Block index within the grid.
    block: u32,
    /// SM that ran the block.
    sm: u32,
    /// Sim-clock begin, ms.
    start_ms: f64,
    /// Sim-clock end, ms.
    end_ms: f64,
}

/// Every block of every launch in `trace`, in (launch, block) order.
fn block_spans(trace: &Trace) -> Vec<BlockSpan> {
    let sms = trace.device.sm_count as usize;
    let mut spans = Vec::new();
    let mut placed = Vec::new();
    for (launch, l) in trace.launches.iter().enumerate() {
        // the schedule the launch was priced on, block by block
        let horizon = makespan(&l.block_cycles, sms, |sm, start, end| {
            placed.push((sm as u32, start, end))
        });
        let exec_s = l.time_s - l.roofline.launch_overhead_s;
        let scale_s = if horizon > 0.0 { exec_s / horizon } else { 0.0 };
        let exec_start_s = l.start_s + l.roofline.launch_overhead_s;
        for (block, (sm, start, end)) in placed.drain(..).enumerate() {
            spans.push(BlockSpan {
                launch,
                block: block as u32,
                sm,
                start_ms: (exec_start_s + start * scale_s) * 1e3,
                end_ms: (exec_start_s + end * scale_s) * 1e3,
            });
        }
    }
    spans
}

impl Trace {
    /// Renders the trace as compact Chrome trace-event JSON, the Perfetto
    /// document (see the module docs for the track layout).
    pub fn to_chrome_json(&self) -> String {
        let mut events: Vec<Value> = Vec::new();
        self.push_chrome_events(&mut events, GPU_PID, PCIE_PID, MEM_PID, "");
        let doc = obj(vec![
            ("traceEvents", Value::Array(events)),
            ("displayTimeUnit", Value::Str("ms".into())),
            (
                "otherData",
                obj(vec![
                    ("schema_version", Value::UInt(crate::SCHEMA_VERSION.into())),
                    ("label", Value::Str(self.label.clone())),
                    ("sm_count", Value::UInt(self.device.sm_count as u64)),
                ]),
            ),
        ]);
        serde_json::to_string(&doc).expect("a Perfetto document serializes")
    }

    /// Appends this trace's track metadata, block/transfer/memory spans,
    /// and counter events onto `events`, parameterized over the three
    /// process ids and a process-name prefix. [`Trace::to_chrome_json`]
    /// calls this with `(0, 1, 2, "")`, while the fleet rendering
    /// ([`crate::fleet`]) lays several devices side by side under distinct
    /// pids and `"D<n> · "` prefixes.
    pub(crate) fn push_chrome_events(
        &self,
        events: &mut Vec<Value>,
        gpu_pid: u64,
        pcie_pid: u64,
        mem_pid: u64,
        prefix: &str,
    ) {
        let spans = block_spans(self);
        let allocations = &self.memstats.allocations;
        // ---- track metadata ------------------------------------------
        events.push(meta_event(
            "process_name",
            gpu_pid,
            None,
            format!(
                "{prefix}GPU · {} SMs · {}",
                self.device.sm_count, self.label
            ),
        ));
        events.push(meta_event(
            "process_name",
            pcie_pid,
            None,
            format!("{prefix}PCIe"),
        ));
        events.push(meta_event(
            "thread_name",
            pcie_pid,
            Some(0),
            "Host ↔ Device".into(),
        ));
        if !allocations.is_empty() {
            events.push(meta_event(
                "process_name",
                mem_pid,
                None,
                format!("{prefix}Device memory"),
            ));
            let mut lanes: Vec<u64> = allocations.iter().map(|e| e.slot).collect();
            lanes.sort_unstable();
            lanes.dedup();
            for lane in lanes {
                events.push(meta_event(
                    "thread_name",
                    mem_pid,
                    Some(lane),
                    format!("alloc slot {lane}"),
                ));
            }
        }
        // name only the SM tracks that actually ran a block, in SM order
        let mut sms: Vec<u32> = spans.iter().map(|s| s.sm).collect();
        sms.sort_unstable();
        sms.dedup();
        for sm in sms {
            let tid = sm as u64;
            let name = format!("SM {sm:02}");
            events.push(meta_event("thread_name", gpu_pid, Some(tid), name));
            events.push(obj(vec![
                ("name", Value::Str("thread_sort_index".into())),
                ("ph", Value::Str("M".into())),
                ("pid", Value::UInt(gpu_pid)),
                ("tid", Value::UInt(tid)),
                ("args", obj(vec![("sort_index", Value::UInt(tid))])),
            ]));
        }

        // ---- block spans ---------------------------------------------
        for s in &spans {
            let l = &self.launches[s.launch];
            events.push(obj(vec![
                ("name", Value::Str(l.name.into())),
                ("cat", Value::Str(l.phase.into())),
                ("ph", Value::Str("X".into())),
                ("ts", Value::Float(s.start_ms * 1e3)),
                ("dur", Value::Float((s.end_ms - s.start_ms) * 1e3)),
                ("pid", Value::UInt(gpu_pid)),
                ("tid", Value::UInt(s.sm as u64)),
                (
                    "args",
                    obj(vec![
                        ("launch", Value::UInt(s.launch as u64)),
                        ("block", Value::UInt(s.block as u64)),
                        ("warps", Value::UInt(l.config.warps_per_block() as u64)),
                    ]),
                ),
            ]));
        }

        // ---- PCIe transfer spans -------------------------------------
        for (seq, t) in self.transfers.iter().enumerate() {
            let (start_ms, end_ms) = (t.start_s * 1e3, (t.start_s + t.time_s) * 1e3);
            events.push(obj(vec![
                ("name", Value::Str(dir_name(t.dir).into())),
                ("cat", Value::Str(t.phase.into())),
                ("ph", Value::Str("X".into())),
                ("ts", Value::Float(start_ms * 1e3)),
                ("dur", Value::Float((end_ms - start_ms) * 1e3)),
                ("pid", Value::UInt(pcie_pid)),
                ("tid", Value::UInt(0)),
                (
                    "args",
                    obj(vec![
                        ("seq", Value::UInt(seq as u64)),
                        ("bytes", Value::UInt(t.bytes)),
                    ]),
                ),
            ]));
        }

        // ---- device-memory lifetime slices ---------------------------
        for e in allocations {
            let end_ms = e.free_ms.unwrap_or(self.totals.time_ms);
            events.push(obj(vec![
                ("name", Value::Str(e.name.clone())),
                ("cat", Value::Str(e.phase.into())),
                ("ph", Value::Str("X".into())),
                ("ts", Value::Float(e.alloc_ms * 1e3)),
                ("dur", Value::Float((end_ms - e.alloc_ms) * 1e3)),
                ("pid", Value::UInt(mem_pid)),
                ("tid", Value::UInt(e.slot)),
                (
                    "args",
                    obj(vec![
                        ("bytes", Value::UInt(e.bytes)),
                        ("size_class", e.size_class.to_value()),
                        ("freed", Value::Bool(!e.is_live())),
                    ]),
                ),
            ]));
        }

        // ---- counter tracks ------------------------------------------
        for c in &self.samples {
            events.push(counter_event(gpu_pid, c.track, c.time_s * 1e3, c.value));
        }
        for (ts_ms, warps) in self.active_warps(&spans) {
            events.push(counter_event(gpu_pid, "active_warps", ts_ms, warps as f64));
        }
        for (ts_ms, bytes) in self.device_bytes() {
            events.push(counter_event(mem_pid, "device_bytes", ts_ms, bytes as f64));
        }
    }

    /// The `active_warps` sawtooth: net resident warps after each distinct
    /// edge of `spans` (this trace's blocks), in timestamp order.
    fn active_warps(&self, spans: &[BlockSpan]) -> Vec<(f64, i64)> {
        let mut edges: Vec<(f64, i64)> = Vec::with_capacity(spans.len() * 2);
        for s in spans {
            let warps = self.launches[s.launch].config.warps_per_block() as i64;
            edges.push((s.start_ms, warps));
            edges.push((s.end_ms, -warps));
        }
        merge_edges(edges)
    }

    /// The `device_bytes` step function: live footprint after each
    /// distinct alloc/free edge. Allocations never freed contribute no
    /// closing edge, so the curve ends at the still-live level instead of
    /// draining to zero.
    fn device_bytes(&self) -> Vec<(f64, i64)> {
        let allocations = &self.memstats.allocations;
        let mut edges: Vec<(f64, i64)> = Vec::with_capacity(allocations.len() * 2);
        for e in allocations {
            edges.push((e.alloc_ms, e.bytes as i64));
            if let Some(free_ms) = e.free_ms {
                edges.push((free_ms, -(e.bytes as i64)));
            }
        }
        merge_edges(edges)
    }
}

/// Accumulates +/− edges into a step curve with one point per distinct
/// timestamp. Negative edges sort first at equal timestamps (retire before
/// dispatch), so back-to-back blocks on one SM don't double-count.
fn merge_edges(mut edges: Vec<(f64, i64)>) -> Vec<(f64, i64)> {
    edges.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut out: Vec<(f64, i64)> = Vec::new();
    let mut level = 0i64;
    for (ts, delta) in edges {
        level += delta;
        match out.last_mut() {
            Some(last) if last.0 == ts => last.1 = level,
            _ => out.push((ts, level)),
        }
    }
    out
}

pub(crate) fn counter_event(pid: u64, track: &str, ts_ms: f64, value: f64) -> Value {
    obj(vec![
        ("name", Value::Str(track.into())),
        ("ph", Value::Str("C".into())),
        ("ts", Value::Float(ts_ms * 1e3)),
        ("pid", Value::UInt(pid)),
        ("tid", Value::UInt(0)),
        ("args", obj(vec![("value", Value::Float(value))])),
    ])
}

pub(crate) fn meta_event(name: &str, pid: u64, tid: Option<u64>, value: String) -> Value {
    let mut entries = vec![
        ("name", Value::Str(name.into())),
        ("ph", Value::Str("M".into())),
        ("pid", Value::UInt(pid)),
    ];
    if let Some(tid) = tid {
        entries.push(("tid", Value::UInt(tid)));
    }
    entries.push(("args", obj(vec![("name", Value::Str(value))])));
    obj(entries)
}

pub(crate) fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

#[cfg(test)]
mod tests {
    use super::block_spans;
    use crate::exec::{GpuContext, LaunchConfig};
    use crate::{CostParams, SizeClass, TransferDir};
    use serde::Value;

    fn ctx() -> GpuContext {
        let mut c = GpuContext::new(CostParams::p100(), 1 << 20);
        let buf = c.htod("x", &[0u32; 64], SizeClass::Fixed).unwrap();
        let cfg = LaunchConfig {
            blocks: 3,
            threads_per_block: 64,
        };
        c.set_phase("Loop");
        c.launch("loop", cfg, |blk| {
            blk.charge_instr(50 * (blk.block_idx as u64 + 1));
            Ok(())
        })
        .unwrap();
        c.set_phase("Sync");
        c.dtoh(buf, 0..1).unwrap();
        c.sample_counter("frontier", 7.0);
        c
    }

    #[test]
    fn export_contains_tracks_spans_and_counters() {
        let json = ctx().trace("rmat9/peel").to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        // track naming
        assert!(json.contains("\"GPU · 56 SMs · rmat9/peel\""));
        assert!(json.contains("\"SM 00\""));
        assert!(json.contains("\"SM 02\""));
        assert!(json.contains("\"PCIe\""));
        // block spans carry kernel name, phase category, and block args
        assert!(json.contains("\"name\":\"loop\",\"cat\":\"Loop\",\"ph\":\"X\""));
        assert!(json.contains("\"block\":2"));
        // transfers and counter tracks
        assert!(json.contains("\"name\":\"h2d\""));
        assert!(json.contains("\"name\":\"d2h\""));
        assert!(json.contains("\"name\":\"frontier\",\"ph\":\"C\""));
        assert!(json.contains("\"name\":\"active_warps\",\"ph\":\"C\""));
        // device-memory process: lifetime slice for the htod'd buffer and
        // the footprint counter
        assert!(json.contains("\"Device memory\""));
        assert!(json.contains("\"alloc slot 0\""));
        assert!(json.contains("\"name\":\"x\",\"cat\":\"main\",\"ph\":\"X\""));
        assert!(json.contains("\"size_class\":\"Fixed\""));
        assert!(json.contains("\"name\":\"device_bytes\",\"ph\":\"C\""));
        // trailer
        assert!(json.contains("\"displayTimeUnit\":\"ms\""));
        assert!(json.contains("\"otherData\":{\"schema_version\":5,"));
    }

    #[test]
    fn spans_tile_the_launch_window() {
        let mut c = ctx();
        let spans = block_spans(&c.trace("unit"));
        assert_eq!(spans.len(), 3);
        let l = &c.launches()[0];
        let exec_start_ms = (l.start_s + l.roofline.launch_overhead_s) * 1e3;
        let end_ms = (l.start_s + l.time_s) * 1e3;
        for s in &spans {
            assert_eq!(s.launch, 0);
            assert!(s.start_ms >= exec_start_ms - 1e-12);
            assert!(s.end_ms <= end_ms + 1e-12);
        }
        // with 56 SMs and 3 blocks, every block gets its own SM and starts
        // at the window's opening edge
        for s in &spans {
            assert_eq!(s.sm, s.block);
            assert!((s.start_ms - exec_start_ms).abs() < 1e-12);
        }
        // the worst block (3× cycles) closes the window exactly
        let worst = spans.iter().find(|s| s.block == 2).unwrap();
        assert!((worst.end_ms - end_ms).abs() < 1e-12);
    }

    #[test]
    fn transfers_and_counters_carry_timestamps() {
        let t = ctx().trace("unit");
        assert_eq!(t.transfers.len(), 2); // htod + one-word dtoh
        assert_eq!(t.transfers[0].dir, TransferDir::HostToDevice);
        assert!(t.transfers[0].time_s > 0.0);
        let s = &t.samples[0];
        assert_eq!((s.track, s.phase, s.value), ("frontier", "Sync", 7.0));
        // sampled after the one-word dtoh finished
        let d2h = &t.transfers[1];
        assert!((s.time_s - (d2h.start_s + d2h.time_s)).abs() < 1e-15);
    }

    /// The memory process draws each ledger entry from its allocation to
    /// its free, or to the end of the run while it is live.
    #[test]
    fn memory_spans_cover_allocation_lifetimes() {
        let mut c = ctx();
        let json = c.trace("unit").to_chrome_json();
        let doc = serde_json::from_str(&json).unwrap();
        let events = doc.get("traceEvents").and_then(Value::as_array).unwrap();
        let slices: Vec<&Value> = events
            .iter()
            .filter(|e| e.get("pid").and_then(Value::as_u64) == Some(2))
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .collect();
        assert_eq!(slices.len(), 1); // the htod'd "x"
        let m = slices[0];
        let field = |k: &str| m.get(k).and_then(Value::as_f64).unwrap();
        assert_eq!(m.get("name").and_then(Value::as_str), Some("x"));
        assert_eq!((field("tid"), field("ts")), (0.0, 0.0));
        let args = m.get("args").unwrap();
        assert_eq!(args.get("bytes").and_then(Value::as_u64), Some(256));
        // never freed → the slice extends to the end of the run
        assert_eq!(args.get("freed"), Some(&Value::Bool(false)));
        assert!((field("dur") - c.elapsed_ms() * 1e3).abs() < 1e-9);
    }

    #[test]
    fn active_warps_rises_and_drains_to_zero() {
        let t = ctx().trace("t");
        let steps = t.active_warps(&block_spans(&t));
        assert!(!steps.is_empty());
        // 3 blocks × 2 warps all start together at the window edge
        assert_eq!(steps[0].1, 6);
        // everything retires by the end
        assert_eq!(steps.last().unwrap().1, 0);
        // timestamps strictly increase after edge-merging
        for w in steps.windows(2) {
            assert!(w[1].0 > w[0].0);
        }
    }

    #[test]
    fn device_bytes_steps_with_alloc_and_free() {
        let mut c = ctx();
        let tmp = c.alloc("scratch", 16, SizeClass::Fixed).unwrap(); // +64 B
        c.device.free(tmp);
        let steps = c.trace("t").device_bytes();
        // htod (256 B) at t=0, then +64/−64 at the current clock (merged to
        // one point back at the pre-alloc level)
        assert_eq!(steps.first().unwrap().1, 256);
        assert_eq!(steps.last().unwrap().1, 256);
        assert!(steps.iter().any(|&(_, v)| v == 256 + 64) || steps.len() == 2);
        // never drains to zero: "x" is still live at snapshot time
        assert!(steps.iter().all(|&(_, v)| v >= 256));
    }

    #[test]
    fn export_is_byte_identical_across_captures() {
        let a = ctx().trace("t").to_chrome_json();
        let b = ctx().trace("t").to_chrome_json();
        assert_eq!(a, b);
    }
}
