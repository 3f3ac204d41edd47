//! Chrome trace-event export of a [`Timeline`], loadable in Perfetto.
//!
//! [`Timeline::to_chrome_json`] serializes an SM-level timeline to the
//! Chrome trace-event JSON format (the `traceEvents` array of `"X"`
//! complete / `"M"` metadata / `"C"` counter events, timestamps in
//! microseconds) that <https://ui.perfetto.dev> and `chrome://tracing`
//! open directly:
//!
//! * **pid 0 — the GPU.** One thread track per SM; a block executing on a
//!   residency slot beyond the first gets a sibling `SM nn · slot s` track
//!   so concurrent residents never overlap within one track. Each block is
//!   an `"X"` span named after its kernel, with the phase as category and
//!   launch/block/slot/warps in `args`.
//! * **pid 1 — PCIe.** Host↔device copies as `"X"` spans (`h2d` / `d2h`).
//! * **pid 2 — device memory.** One `"X"` lifetime slice per allocation
//!   (named after the buffer, phase as category, bytes/size-class in
//!   `args`), laned by the device slot the allocation occupied, plus a
//!   `device_bytes` counter stepping through the live-footprint curve — so
//!   footprint tiling renders directly against the SM tracks.
//! * **Counter tracks.** Every [`crate::timeline::CounterPoint`] sampled via
//!   [`crate::GpuContext::sample_counter`] (frontier size per round, …)
//!   becomes a `"C"` event, and an `active_warps` counter is derived from
//!   the block spans' begin/end edges — the live-occupancy sawtooth that
//!   makes divergence tails visible at a glance.
//!
//! The export is plain arithmetic over the timeline's recorded values in a
//! fixed order — same timeline ⇒ byte-identical JSON (asserted by the
//! golden tests across runs and rayon pool sizes).

use crate::timeline::Timeline;
use serde::{Serialize, Value};

/// Track-id stride separating residency slots of one SM: `tid = sm * 64 +
/// slot`. 64 > [`crate::CostParams::max_blocks_per_sm`] on every modelled
/// device, so slot tracks of adjacent SMs can't collide and sorting by tid
/// groups each SM with its slots.
const SLOT_STRIDE: u32 = 64;

const GPU_PID: u64 = 0;
const PCIE_PID: u64 = 1;
const MEM_PID: u64 = 2;

impl Timeline {
    /// Serializes the timeline as compact Chrome trace-event JSON (see the
    /// module docs for the track layout).
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
                    ("sm_count", Value::UInt(self.sm_count as u64)),
                ]),
            ),
        ]);
        serde_json::to_string(&doc).expect("timeline serializes")
    }

    /// Appends this timeline's track metadata, block/transfer/memory spans,
    /// and counter events onto `events`, parameterized over the three
    /// process ids and a process-name prefix. The single-device exports call
    /// this with `(0, 1, 2, "")` — byte-identical to the pre-refactor
    /// output — while the fleet export ([`crate::fleet`]) lays several
    /// devices side by side under distinct pids and `"D<n> · "` prefixes.
    pub(crate) fn push_chrome_events(
        &self,
        events: &mut Vec<Value>,
        gpu_pid: u64,
        pcie_pid: u64,
        mem_pid: u64,
        prefix: &str,
    ) {
        // ---- track metadata ------------------------------------------
        events.push(meta_event(
            "process_name",
            gpu_pid,
            None,
            format!("{prefix}GPU · {} SMs · {}", self.sm_count, self.label),
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
        if !self.memory.is_empty() {
            events.push(meta_event(
                "process_name",
                mem_pid,
                None,
                format!("{prefix}Device memory"),
            ));
            let mut lanes: Vec<u64> = self.memory.iter().map(|m| m.slot).collect();
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
        // name only the (sm, slot) tracks that actually ran a block, in
        // (sm, slot) order
        let mut tids: Vec<(u32, u32)> = self.spans.iter().map(|s| (s.sm, s.slot)).collect();
        tids.sort_unstable();
        tids.dedup();
        for (sm, slot) in tids {
            let tid = (sm * SLOT_STRIDE + slot) as u64;
            let name = if slot == 0 {
                format!("SM {sm:02}")
            } else {
                format!("SM {sm:02} · slot {slot}")
            };
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
        for s in &self.spans {
            events.push(obj(vec![
                ("name", Value::Str(s.kernel.into())),
                ("cat", Value::Str(s.phase.into())),
                ("ph", Value::Str("X".into())),
                ("ts", Value::Float(s.start_ms * 1e3)),
                ("dur", Value::Float((s.end_ms - s.start_ms) * 1e3)),
                ("pid", Value::UInt(gpu_pid)),
                ("tid", Value::UInt((s.sm * SLOT_STRIDE + s.slot) as u64)),
                (
                    "args",
                    obj(vec![
                        ("launch", Value::UInt(s.launch_seq as u64)),
                        ("block", Value::UInt(s.block as u64)),
                        ("warps", Value::UInt(s.warps as u64)),
                    ]),
                ),
            ]));
        }

        // ---- PCIe transfer spans -------------------------------------
        for t in &self.transfers {
            events.push(obj(vec![
                ("name", Value::Str(t.dir.into())),
                ("cat", Value::Str(t.phase.into())),
                ("ph", Value::Str("X".into())),
                ("ts", Value::Float(t.start_ms * 1e3)),
                ("dur", Value::Float((t.end_ms - t.start_ms) * 1e3)),
                ("pid", Value::UInt(pcie_pid)),
                ("tid", Value::UInt(0)),
                (
                    "args",
                    obj(vec![
                        ("seq", Value::UInt(t.seq as u64)),
                        ("bytes", Value::UInt(t.bytes)),
                    ]),
                ),
            ]));
        }

        // ---- device-memory lifetime slices ---------------------------
        for m in &self.memory {
            events.push(obj(vec![
                ("name", Value::Str(m.name.clone())),
                ("cat", Value::Str(m.phase.into())),
                ("ph", Value::Str("X".into())),
                ("ts", Value::Float(m.start_ms * 1e3)),
                ("dur", Value::Float((m.end_ms - m.start_ms) * 1e3)),
                ("pid", Value::UInt(mem_pid)),
                ("tid", Value::UInt(m.slot)),
                (
                    "args",
                    obj(vec![
                        ("bytes", Value::UInt(m.bytes)),
                        ("size_class", m.size_class.to_value()),
                        ("freed", Value::Bool(m.freed)),
                    ]),
                ),
            ]));
        }

        // ---- counter tracks ------------------------------------------
        for c in &self.counters {
            events.push(counter_event(gpu_pid, c.track, c.time_ms, c.value));
        }
        for (ts_ms, warps) in active_warps(self) {
            events.push(counter_event(gpu_pid, "active_warps", ts_ms, warps as f64));
        }
        for (ts_ms, bytes) in device_bytes(self) {
            events.push(counter_event(mem_pid, "device_bytes", ts_ms, bytes as f64));
        }
    }
}

/// The `active_warps` sawtooth: net resident warps after each distinct span
/// edge, in timestamp order.
fn active_warps(tl: &Timeline) -> Vec<(f64, i64)> {
    let mut edges: Vec<(f64, i64)> = Vec::with_capacity(tl.spans.len() * 2);
    for s in &tl.spans {
        edges.push((s.start_ms, s.warps as i64));
        edges.push((s.end_ms, -(s.warps as i64)));
    }
    merge_edges(edges)
}

/// The `device_bytes` step function: live footprint after each distinct
/// alloc/free edge. Allocations never freed contribute no closing edge, so
/// the curve ends at the still-live level instead of draining to zero.
fn device_bytes(tl: &Timeline) -> Vec<(f64, i64)> {
    let mut edges: Vec<(f64, i64)> = Vec::with_capacity(tl.memory.len() * 2);
    for m in &tl.memory {
        edges.push((m.start_ms, m.bytes as i64));
        if m.freed {
            edges.push((m.end_ms, -(m.bytes as i64)));
        }
    }
    merge_edges(edges)
}

/// Accumulates +/− edges into a step curve with one point per distinct
/// timestamp. Negative edges sort first at equal timestamps (retire before
/// dispatch), so back-to-back occupants of one slot don't double-count.
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
    use crate::exec::{GpuContext, LaunchConfig};
    use crate::CostParams;

    fn ctx() -> GpuContext {
        let mut c = GpuContext::new(CostParams::p100(), 1 << 20);
        let buf = c.htod("x", &[0u32; 64]).unwrap();
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
        c.dtoh_word(buf, 0);
        c.sample_counter("frontier", 7.0);
        c
    }

    #[test]
    fn export_contains_tracks_spans_and_counters() {
        let json = ctx().timeline("rmat9/peel").to_chrome_json();
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
    fn active_warps_rises_and_drains_to_zero() {
        let tl = ctx().timeline("t");
        let steps = super::active_warps(&tl);
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
        let tmp = c.alloc("scratch", 16).unwrap(); // +64 B
        c.device.free(tmp);
        let tl = c.timeline("t");
        let steps = super::device_bytes(&tl);
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
        let a = ctx().timeline("t").to_chrome_json();
        let b = ctx().timeline("t").to_chrome_json();
        assert_eq!(a, b);
    }
}
