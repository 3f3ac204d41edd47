//! Fleet observability: the ledger of a sharded multi-device run.
//!
//! The single-device observability stack ([`crate::trace`],
//! [`crate::timeline`], [`crate::perfetto`]) answers *what one device did*.
//! This module answers what the **fleet** did: a [`FleetTrace`] records,
//! per peel round, an **exchange ledger** — per shard-pair packet counts,
//! bytes, the latency-vs-bandwidth split of each link hop, and the
//! border-cascade sub-round slices — and a per-round **critical-path
//! analysis** naming the device or link hop that bounds `total_ms`. The
//! ledger stores only what the worker traces do not: the traces themselves
//! (held once, beside the ledger, by the engine's fleet run) are passed to
//! every method that reads them, and a per-device hotspot/roofline rollup
//! ([`DeviceRollup::from_trace`]) is derived from a trace when needed.
//!
//! **Observes, never charges.** Every number here is recorded alongside the
//! engine's existing accounting: `total_ms`, `exchanged_bytes`, worker
//! traces and fingerprints are bit-identical with or without fleet capture,
//! and the whole ledger is derived deterministically, so fleet artifacts are
//! bit-identical across rayon pool sizes like every prior layer.
//!
//! **The fleet clock.** Each device context runs its own simulated clock,
//! so per-device numbers (sub-round slice starts, launch references) are
//! device-local. The fleet clock is composed from them: the devices run
//! each barrier sub-round concurrently, so a sub-round costs the slowest
//! device's delta (`charged_ms = max(device_ms)`); each exchange then costs
//! its pack kernels, both link hops and its apply kernels
//! (`pack_ms + hop1_ms + hop2_ms + apply_ms`). `total_ms` is the setup
//! phase, those addends in order, and the result gather.
//! [`FleetTrace::check_well_formed`] reconciles every slice against its
//! device clocks and every exchange against its components, and replays the
//! addends to `total_ms`, all bit-for-bit. [`FleetTrace::to_json`] writes the
//! ledger and its worker traces as one document of schema
//! [`crate::SCHEMA_VERSION`].
//!
//! [`FleetTrace::merged_chrome_json`] renders the whole fleet as one
//! Perfetto document: one process triple (GPU / PCIe / memory) per device on
//! its local clock, a link process on the fleet clock carrying
//! `worker → master` / `master → owner` hop slices, flow events tying each
//! shard-pair's pack launch to its apply launch, and border-cascade slices
//! on each owner device's tracks.

use crate::perfetto::{counter_event, meta_event, obj};
use crate::timeline::Timeline;
use crate::trace::Trace;
use serde::{Serialize, Value};

/// Serializable ledger of one sharded multi-device run. Its flow edges
/// index into the run's worker traces, which the methods that read them
/// take as an argument, in shard order.
#[derive(Debug, Clone, Serialize)]
pub struct FleetTrace {
    /// Caller-chosen run label (dataset, shard count, …).
    pub label: String,
    /// Worker devices in the fleet (shard order).
    pub num_devices: usize,
    /// The engine's simulated wall time, ms — bit-identical to
    /// `MultiGpuRun::total_ms`.
    pub total_ms: f64,
    /// Charged shard-load phase (partition + device loads), ms.
    pub setup_ms: f64,
    /// Charged result-gather phase, ms.
    pub result_ms: f64,
    /// Bytes shipped over the links, both hops — bit-identical to
    /// `MultiGpuRun::exchanged_bytes`.
    pub exchanged_bytes: u64,
    /// Per-peel-round ledger, in round (ascending `k`) order.
    pub rounds: Vec<RoundTrace>,
    /// Per-round critical-path attribution, same order as `rounds`.
    pub critical_path: Vec<RoundCritical>,
}

/// Ledger of one peel round (one `k`).
#[derive(Debug, Clone, Serialize)]
pub struct RoundTrace {
    /// The `k` this round peeled.
    pub k: u32,
    /// Barrier sub-rounds in this round (1 scan + cascades).
    pub sub_rounds: u32,
    /// One slice per barrier sub-round: index 0 is the scan+drain, the rest
    /// are border cascades.
    pub slices: Vec<SubRoundSlice>,
    /// One entry per exchange; `exchanges[i]` follows `slices[i]`, and the
    /// final exchange of a round is the empty one that ended it.
    pub exchanges: Vec<ExchangeTrace>,
}

/// One barrier sub-round across the fleet.
#[derive(Debug, Clone, Serialize)]
pub struct SubRoundSlice {
    /// 0 for the scan+drain sub-round, 1.. for border cascades.
    pub sub_round: u32,
    /// Exact f64 addend the engine folded into `total_ms` for this
    /// sub-round: the slowest device's delta, `max(device_ms)`.
    pub charged_ms: f64,
    /// Each device's local clock when the sub-round began, ms.
    pub device_start_ms: Vec<f64>,
    /// Each device's simulated-time delta over the sub-round, ms (0.0 for
    /// devices idle in a cascade sub-round).
    pub device_ms: Vec<f64>,
}

/// One border exchange: ghost drain → pack kernels → two link hops →
/// owner-side apply kernels → seeding.
#[derive(Debug, Clone, Serialize)]
pub struct ExchangeTrace {
    /// Sub-round index the exchange followed (0 = after the scan).
    pub after_sub_round: u32,
    /// Exact f64 addend the engine folded into `total_ms`:
    /// `pack_ms + hop1_ms + hop2_ms + apply_ms`.
    pub charged_ms: f64,
    /// Max-over-workers pack-kernel delta, ms.
    pub pack_ms: f64,
    /// Worker→master hop: per-exchange latency + `packets_out` packets over
    /// the link bandwidth, ms.
    pub hop1_ms: f64,
    /// Master→owner hop: latency + aggregated packets, ms.
    pub hop2_ms: f64,
    /// Max-over-owners apply-kernel delta, ms.
    pub apply_ms: f64,
    /// Worker with the largest pack delta (0 when nothing was packed).
    pub pack_bounding_device: usize,
    /// Owner with the largest apply delta (0 when nothing applied).
    pub apply_bounding_device: usize,
    /// Raw worker→master packets.
    pub packets_out: u64,
    /// Deduplicated master→owner packets.
    pub packets_aggregated: u64,
    /// Link bytes both hops (8 bytes per packet).
    pub bytes: u64,
    /// Border vertices that crossed into the k-shell and were seeded.
    pub seeds: u64,
    /// Seeds landing on each owner device, shard order.
    pub seeds_per_device: Vec<u64>,
    /// Per shard-pair packet flows, ascending (from, to) order.
    pub flows: Vec<FlowEdge>,
}

/// Packets one worker shipped to one owner in a single exchange.
#[derive(Debug, Clone, Serialize)]
pub struct FlowEdge {
    /// Shipping worker (shard index).
    pub from_device: usize,
    /// Owning worker (shard index).
    pub to_device: usize,
    /// Packets on this pair.
    pub packets: u64,
    /// Bytes on this pair (8 per packet).
    pub bytes: u64,
    /// Index into the `from_device` worker trace's `launches` of the
    /// `mgpu_pack` launch that staged the packets.
    pub pack_launch_seq: usize,
    /// Index into the `to_device` worker trace's `launches` of the (final)
    /// `mgpu_apply` launch that applied this exchange's packets on the
    /// owner.
    pub apply_launch_seq: usize,
}

/// The resource bounding one peel round, with the delta-based component
/// decomposition its shares are computed over.
#[derive(Debug, Clone, Serialize)]
pub struct RoundCritical {
    /// The `k` this round peeled.
    pub k: u32,
    /// Barrier sub-rounds in the round.
    pub sub_rounds: u32,
    /// Max-over-devices scan+drain delta, ms.
    pub compute_ms: f64,
    /// Σ over cascade sub-rounds of the max-over-devices delta, ms.
    pub cascade_ms: f64,
    /// Σ pack + apply kernel deltas, ms.
    pub exchange_kernel_ms: f64,
    /// Σ link hop costs (latency + bandwidth terms), ms.
    pub link_ms: f64,
    /// `compute_ms` over the component sum.
    pub compute_share: f64,
    /// `cascade_ms` over the component sum.
    pub cascade_share: f64,
    /// `exchange_kernel_ms` over the component sum.
    pub exchange_share: f64,
    /// `link_ms` over the component sum.
    pub link_share: f64,
    /// Largest component: `"compute"`, `"cascade"`, `"exchange"`, `"link"`,
    /// or `"idle"` for an all-zero round.
    pub bound: &'static str,
    /// The concrete bounding resource: `"device<n>"` for kernel-side
    /// components, `"link"` for the hop costs, `"none"` when idle.
    pub bounding_resource: String,
}

/// Per-device rollup of the hotspot attribution and data movement — the
/// roofline view of one shard's whole run, derived from its trace.
#[derive(Debug, Clone, Serialize)]
pub struct DeviceRollup {
    /// Shard / device index.
    pub device: usize,
    /// The device's local simulated clock at capture, ms.
    pub total_ms: f64,
    /// Σ kernel durations (what the bucket columns tile), ms.
    pub kernel_ms: f64,
    /// Kernel launches on the device.
    pub launches: u64,
    /// Host→device bytes.
    pub h2d_bytes: u64,
    /// Device→host bytes.
    pub d2h_bytes: u64,
    /// Fixed launch overheads, ms.
    pub launch_overhead_ms: f64,
    /// Divergence / load-imbalance exposure, ms.
    pub divergence_ms: f64,
    /// Bandwidth stall, ms.
    pub mem_stall_ms: f64,
    /// Atomic contention share, ms.
    pub atomics_ms: f64,
    /// Uncoalesced-traffic share, ms.
    pub uncoalesced_ms: f64,
    /// Coalesced-transaction share, ms.
    pub coalesced_ms: f64,
    /// Shared-memory share, ms.
    pub shared_ms: f64,
    /// Plain-instruction share, ms.
    pub instr_ms: f64,
    /// Barrier share, ms.
    pub barrier_ms: f64,
    /// Largest bucket name.
    pub dominant_bucket: &'static str,
    /// That bucket's share, ms.
    pub dominant_ms: f64,
}

impl DeviceRollup {
    /// Sums a device [`Trace`]'s per-kernel hotspot buckets into one
    /// roofline rollup.
    pub fn from_trace(device: usize, t: &Trace) -> DeviceRollup {
        let mut r = DeviceRollup {
            device,
            total_ms: t.totals.time_ms,
            kernel_ms: 0.0,
            launches: t.totals.launches,
            h2d_bytes: t.totals.h2d_bytes,
            d2h_bytes: t.totals.d2h_bytes,
            launch_overhead_ms: 0.0,
            divergence_ms: 0.0,
            mem_stall_ms: 0.0,
            atomics_ms: 0.0,
            uncoalesced_ms: 0.0,
            coalesced_ms: 0.0,
            shared_ms: 0.0,
            instr_ms: 0.0,
            barrier_ms: 0.0,
            dominant_bucket: "idle",
            dominant_ms: 0.0,
        };
        for h in &t.hotspots {
            r.kernel_ms += h.total_ms;
            r.launch_overhead_ms += h.launch_overhead_ms;
            r.divergence_ms += h.divergence_ms;
            r.mem_stall_ms += h.mem_stall_ms;
            r.atomics_ms += h.atomics_ms;
            r.uncoalesced_ms += h.uncoalesced_ms;
            r.coalesced_ms += h.coalesced_ms;
            r.shared_ms += h.shared_ms;
            r.instr_ms += h.instr_ms;
            r.barrier_ms += h.barrier_ms;
        }
        let (name, ms) = r.dominant();
        r.dominant_bucket = name;
        r.dominant_ms = ms;
        r
    }

    /// The nine attribution buckets, in the canonical order.
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

    pub fn dominant(&self) -> (&'static str, f64) {
        self.buckets()
            .into_iter()
            .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(a.0)))
            .unwrap()
    }
}

impl FleetTrace {
    /// Assembles a fleet trace over `num_devices` workers from the engine's
    /// recorded rounds, deriving the critical path.
    pub fn new(
        label: impl Into<String>,
        setup_ms: f64,
        result_ms: f64,
        total_ms: f64,
        exchanged_bytes: u64,
        rounds: Vec<RoundTrace>,
        num_devices: usize,
    ) -> FleetTrace {
        let critical_path = rounds.iter().map(round_critical).collect();
        FleetTrace {
            label: label.into(),
            num_devices,
            total_ms,
            setup_ms,
            result_ms,
            exchanged_bytes,
            rounds,
            critical_path,
        }
    }

    /// The ledger and the run's worker `traces` (shard order, under
    /// `devices`) as one pretty-printed JSON document of schema
    /// [`crate::SCHEMA_VERSION`] — the `.fleet.json` dump.
    pub fn to_json(&self, traces: &[Trace]) -> String {
        crate::to_document(|| {
            let mut doc = self.to_value();
            if let Value::Object(fields) = &mut doc {
                fields.push(("devices".into(), traces.to_value()));
            }
            doc
        })
    }

    /// Structural validation of the ledger against the run's worker
    /// `traces` (shard order), which `table_scale` asserts on every sharded
    /// run:
    ///
    /// * every slice's `charged_ms` is its slowest device's clock delta,
    ///   `max(device_ms)`, **to the bit**, and every exchange's is
    ///   `pack_ms + hop1_ms + hop2_ms + apply_ms`;
    /// * replaying the charged addends in recorded order reproduces
    ///   `total_ms` **to the bit**;
    /// * every round's critical-path shares sum to 1 (±1e-9) and name a
    ///   real device;
    /// * every flow edge references a real `mgpu_pack` / `mgpu_apply`
    ///   launch record in the worker traces, and per-pair packets sum to
    ///   the exchange's `packets_out`;
    /// * the buckets of each worker's [`DeviceRollup`] tile its summed
    ///   kernel time.
    pub fn check_well_formed(&self, traces: &[Trace]) -> Result<(), String> {
        if traces.len() != self.num_devices {
            return Err(format!(
                "{} worker traces, num_devices says {}",
                traces.len(),
                self.num_devices
            ));
        }
        if self.critical_path.len() != self.rounds.len() {
            return Err("critical_path / rounds length mismatch".into());
        }
        let mut replay = self.setup_ms;
        for (ri, r) in self.rounds.iter().enumerate() {
            if r.slices.is_empty() || r.slices.len() != r.exchanges.len() {
                return Err(format!(
                    "round {ri} (k={}): {} slices vs {} exchanges",
                    r.k,
                    r.slices.len(),
                    r.exchanges.len()
                ));
            }
            for (s, e) in r.slices.iter().zip(&r.exchanges) {
                if s.device_ms.len() != self.num_devices
                    || s.device_start_ms.len() != self.num_devices
                {
                    return Err(format!(
                        "round {ri} slice {}: bad device vectors",
                        s.sub_round
                    ));
                }
                let slowest = max_device_ms(&s.device_ms);
                if s.charged_ms.to_bits() != slowest.to_bits() {
                    return Err(format!(
                        "round {ri} (k={}) sub-round {}: charged {} ms but the slowest \
                         device clock advanced {slowest} ms",
                        r.k, s.sub_round, s.charged_ms
                    ));
                }
                let components = e.pack_ms + e.hop1_ms + e.hop2_ms + e.apply_ms;
                if e.charged_ms.to_bits() != components.to_bits() {
                    return Err(format!(
                        "round {ri} (k={}) exchange after sub-round {}: charged {} ms, \
                         pack + hops + apply = {components} ms",
                        r.k, e.after_sub_round, e.charged_ms
                    ));
                }
                replay += s.charged_ms;
                replay += e.charged_ms;
                if e.bytes != (e.packets_out + e.packets_aggregated) * 8 {
                    return Err(format!(
                        "round {ri}: exchange bytes {} != 8·({} + {})",
                        e.bytes, e.packets_out, e.packets_aggregated
                    ));
                }
                let flow_packets: u64 = e.flows.iter().map(|f| f.packets).sum();
                if flow_packets != e.packets_out {
                    return Err(format!(
                        "round {ri}: flow packets {flow_packets} != packets_out {}",
                        e.packets_out
                    ));
                }
                if e.seeds_per_device.len() != self.num_devices
                    || e.seeds_per_device.iter().sum::<u64>() != e.seeds
                {
                    return Err(format!("round {ri}: seeds_per_device inconsistent"));
                }
                for f in &e.flows {
                    if f.from_device >= self.num_devices || f.to_device >= self.num_devices {
                        return Err(format!("round {ri}: flow names a non-existent device"));
                    }
                    let pack = traces[f.from_device]
                        .launches
                        .get(f.pack_launch_seq)
                        .ok_or_else(|| format!("round {ri}: dangling pack launch seq"))?;
                    if pack.kernel != "mgpu_pack" {
                        return Err(format!(
                            "round {ri}: flow pack seq {} is a {:?} launch",
                            f.pack_launch_seq, pack.kernel
                        ));
                    }
                    let apply = traces[f.to_device]
                        .launches
                        .get(f.apply_launch_seq)
                        .ok_or_else(|| format!("round {ri}: dangling apply launch seq"))?;
                    if apply.kernel != "mgpu_apply" {
                        return Err(format!(
                            "round {ri}: flow apply seq {} is a {:?} launch",
                            f.apply_launch_seq, apply.kernel
                        ));
                    }
                }
            }
            let c = &self.critical_path[ri];
            if c.k != r.k {
                return Err(format!("critical_path[{ri}] k mismatch"));
            }
            let share_sum = c.compute_share + c.cascade_share + c.exchange_share + c.link_share;
            let component_sum = c.compute_ms + c.cascade_ms + c.exchange_kernel_ms + c.link_ms;
            if component_sum > 0.0 && (share_sum - 1.0).abs() > 1e-9 {
                return Err(format!(
                    "round {ri} (k={}): critical-path shares sum to {share_sum}",
                    r.k
                ));
            }
            if c.bound != "idle" && c.bound != "link" && !c.bounding_resource.starts_with("device")
            {
                return Err(format!(
                    "round {ri}: bound {} with resource {}",
                    c.bound, c.bounding_resource
                ));
            }
        }
        replay += self.result_ms;
        if replay.to_bits() != self.total_ms.to_bits() {
            return Err(format!(
                "charged replay {replay} does not reproduce total_ms {} bit-for-bit",
                self.total_ms
            ));
        }
        for (d, t) in traces.iter().enumerate() {
            let r = DeviceRollup::from_trace(d, t);
            let bucket_sum: f64 = r.buckets().iter().map(|b| b.1).sum();
            if (bucket_sum - r.kernel_ms).abs() > 1e-9 * r.kernel_ms.max(1.0) {
                return Err(format!(
                    "device {} rollup buckets {bucket_sum} don't tile kernel_ms {}",
                    r.device, r.kernel_ms
                ));
            }
        }
        Ok(())
    }

    /// Renders the fleet as one merged Chrome trace-event document:
    ///
    /// * per device `d`: the full single-device track set (GPU SM tracks,
    ///   PCIe, memory) under pids `1+3d..3+3d` with a `D<d> · ` name
    ///   prefix, on the device's **local** clock, plus a `border cascades`
    ///   track carrying that device's sub-round slices;
    /// * pid 0: the link process on the **fleet** clock, with
    ///   `worker → master` / `master → owner` hop slices per exchange;
    /// * flow events (`s`/`t`/`f`) tying each shard-pair's `mgpu_pack`
    ///   launch through the two hops to its owner's `mgpu_apply` launch.
    ///
    /// `traces` and `timelines` must be the per-device traces and timelines
    /// captured from the same run, shard order. Deterministic: same run ⇒
    /// byte-identical JSON.
    pub fn merged_chrome_json(&self, traces: &[Trace], timelines: &[Timeline]) -> String {
        assert_eq!(traces.len(), self.num_devices, "one trace per device");
        assert_eq!(timelines.len(), self.num_devices, "one timeline per device");
        /// tid of the per-device cascade track: above any `sm * 64 + slot`
        /// the SM layout can produce.
        const CASCADE_TID: u64 = 4000;
        const LINK_PID: u64 = 0;
        let gpu_pid = |d: usize| 1 + 3 * d as u64;
        let mut events: Vec<Value> = Vec::new();

        // ---- link process (fleet clock) -------------------------------
        events.push(meta_event(
            "process_name",
            LINK_PID,
            None,
            format!(
                "Fleet links · {} devices · {}",
                self.num_devices, self.label
            ),
        ));
        events.push(meta_event(
            "thread_name",
            LINK_PID,
            Some(0),
            "worker → master".into(),
        ));
        events.push(meta_event(
            "thread_name",
            LINK_PID,
            Some(1),
            "master → owner".into(),
        ));

        // ---- per-device track sets (local clocks) --------------------
        for (d, tl) in timelines.iter().enumerate() {
            tl.push_chrome_events(
                &mut events,
                gpu_pid(d),
                gpu_pid(d) + 1,
                gpu_pid(d) + 2,
                &format!("D{d} · "),
            );
            events.push(meta_event(
                "thread_name",
                gpu_pid(d),
                Some(CASCADE_TID),
                "border cascades".into(),
            ));
        }

        // ---- sub-round + exchange slices, flows ----------------------
        let mut fleet_now = self.setup_ms;
        let mut flow_id = 0u64;
        for r in &self.rounds {
            for (s, e) in r.slices.iter().zip(&r.exchanges) {
                // cascade slices land on each active device's own track, at
                // that device's local clock — they tile against its SM rows.
                if s.sub_round > 0 {
                    for d in 0..self.num_devices {
                        if s.device_ms[d] > 0.0 {
                            events.push(obj(vec![
                                (
                                    "name",
                                    Value::Str(format!("cascade k={} #{}", r.k, s.sub_round)),
                                ),
                                ("cat", Value::Str("BorderCascade".into())),
                                ("ph", Value::Str("X".into())),
                                ("ts", Value::Float(s.device_start_ms[d] * 1e3)),
                                ("dur", Value::Float(s.device_ms[d] * 1e3)),
                                ("pid", Value::UInt(gpu_pid(d))),
                                ("tid", Value::UInt(CASCADE_TID)),
                                (
                                    "args",
                                    obj(vec![
                                        ("k", Value::UInt(r.k as u64)),
                                        ("sub_round", Value::UInt(s.sub_round as u64)),
                                        ("charged_ms", Value::Float(s.charged_ms)),
                                    ]),
                                ),
                            ]));
                        }
                    }
                }
                fleet_now += s.charged_ms;
                let hop1_ts = (fleet_now + e.pack_ms) * 1e3;
                let hop2_ts = hop1_ts + e.hop1_ms * 1e3;
                if e.packets_out > 0 {
                    for (tid, name, ts, dur, packets) in [
                        (0u64, "worker → master", hop1_ts, e.hop1_ms, e.packets_out),
                        (
                            1,
                            "master → owner",
                            hop2_ts,
                            e.hop2_ms,
                            e.packets_aggregated,
                        ),
                    ] {
                        events.push(obj(vec![
                            ("name", Value::Str(format!("{name} k={}", r.k))),
                            ("cat", Value::Str("Exchange".into())),
                            ("ph", Value::Str("X".into())),
                            ("ts", Value::Float(ts)),
                            ("dur", Value::Float(dur * 1e3)),
                            ("pid", Value::UInt(LINK_PID)),
                            ("tid", Value::UInt(tid)),
                            (
                                "args",
                                obj(vec![
                                    ("packets", Value::UInt(packets)),
                                    ("bytes", Value::UInt(e.bytes)),
                                    ("seeds", Value::UInt(e.seeds)),
                                ]),
                            ),
                        ]));
                    }
                    for f in &e.flows {
                        let pack = &traces[f.from_device].launches[f.pack_launch_seq];
                        let apply = &traces[f.to_device].launches[f.apply_launch_seq];
                        let hops = [
                            (
                                "s",
                                gpu_pid(f.from_device),
                                CASCADE_TID,
                                (pack.start_ms + pack.time_ms) * 1e3,
                            ),
                            ("t", LINK_PID, 0, hop1_ts),
                            ("t", LINK_PID, 1, hop2_ts),
                            ("f", gpu_pid(f.to_device), CASCADE_TID, apply.start_ms * 1e3),
                        ];
                        for (ph, pid, tid, ts) in hops {
                            let mut fields = vec![
                                ("name", Value::Str("border packets".into())),
                                ("cat", Value::Str("Exchange".into())),
                                ("ph", Value::Str(ph.into())),
                                ("id", Value::UInt(flow_id)),
                                ("ts", Value::Float(ts)),
                                ("pid", Value::UInt(pid)),
                                ("tid", Value::UInt(tid)),
                            ];
                            if ph == "f" {
                                fields.push(("bp", Value::Str("e".into())));
                            }
                            fields.push((
                                "args",
                                obj(vec![
                                    ("from_device", Value::UInt(f.from_device as u64)),
                                    ("to_device", Value::UInt(f.to_device as u64)),
                                    ("packets", Value::UInt(f.packets)),
                                    ("bytes", Value::UInt(f.bytes)),
                                    ("pack_launch", Value::UInt(f.pack_launch_seq as u64)),
                                    ("apply_launch", Value::UInt(f.apply_launch_seq as u64)),
                                ]),
                            ));
                            events.push(obj(fields));
                        }
                        flow_id += 1;
                    }
                }
                fleet_now += e.charged_ms;
            }
            // fleet-clock counter: seeds produced per round
            let seeds: u64 = r.exchanges.iter().map(|e| e.seeds).sum();
            events.push(counter_event(
                LINK_PID,
                "border_seeds",
                fleet_now,
                seeds as f64,
            ));
        }

        let doc = obj(vec![
            ("traceEvents", Value::Array(events)),
            ("displayTimeUnit", Value::Str("ms".into())),
            (
                "otherData",
                obj(vec![
                    ("schema_version", Value::UInt(crate::SCHEMA_VERSION.into())),
                    ("label", Value::Str(self.label.clone())),
                    ("num_devices", Value::UInt(self.num_devices as u64)),
                    (
                        "clock_note",
                        Value::Str(
                            "device processes replay each device's local simulated clock; \
                             the link process replays the fleet clock (slowest device per \
                             sub-round plus each exchange)"
                                .into(),
                        ),
                    ),
                ]),
            ),
        ]);
        serde_json::to_string(&doc).expect("fleet timeline serializes")
    }
}

/// The slowest device's delta over a sub-round: what the fleet clock
/// charges for it.
fn max_device_ms(device_ms: &[f64]) -> f64 {
    device_ms.iter().copied().fold(0.0f64, f64::max)
}

/// Derives one round's critical-path attribution from its ledger.
fn round_critical(r: &RoundTrace) -> RoundCritical {
    let argmax_d = |v: &[f64]| {
        let m = max_device_ms(v);
        v.iter().position(|&x| x == m).unwrap_or(0)
    };
    let compute_ms = r
        .slices
        .first()
        .map(|s| max_device_ms(&s.device_ms))
        .unwrap_or(0.0);
    // `+ 0.0` normalizes the -0.0 an empty f64 sum produces.
    let cascade_ms: f64 = r.slices[1..]
        .iter()
        .map(|s| max_device_ms(&s.device_ms))
        .sum::<f64>()
        + 0.0;
    let exchange_kernel_ms: f64 = r
        .exchanges
        .iter()
        .map(|e| e.pack_ms + e.apply_ms)
        .sum::<f64>()
        + 0.0;
    let link_ms: f64 = r
        .exchanges
        .iter()
        .map(|e| e.hop1_ms + e.hop2_ms)
        .sum::<f64>()
        + 0.0;
    let sum = compute_ms + cascade_ms + exchange_kernel_ms + link_ms;
    let share = |x: f64| if sum > 0.0 { x / sum } else { 0.0 };
    let components = [
        ("compute", compute_ms),
        ("cascade", cascade_ms),
        ("exchange", exchange_kernel_ms),
        ("link", link_ms),
    ];
    let (bound, _) = components
        .into_iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap();
    let bounding_resource = if sum == 0.0 {
        "none".to_string()
    } else {
        match bound {
            "compute" => format!(
                "device{}",
                r.slices
                    .first()
                    .map(|s| argmax_d(&s.device_ms))
                    .unwrap_or(0)
            ),
            "cascade" => {
                // the cascade sub-round with the largest fleet-wide delta,
                // then its bounding device
                let worst = r.slices[1..]
                    .iter()
                    .max_by(|a, b| {
                        max_device_ms(&a.device_ms).total_cmp(&max_device_ms(&b.device_ms))
                    })
                    .map(|s| argmax_d(&s.device_ms))
                    .unwrap_or(0);
                format!("device{worst}")
            }
            "exchange" => {
                let worst = r
                    .exchanges
                    .iter()
                    .max_by(|a, b| (a.pack_ms + a.apply_ms).total_cmp(&(b.pack_ms + b.apply_ms)))
                    .map(|e| {
                        if e.apply_ms >= e.pack_ms {
                            e.apply_bounding_device
                        } else {
                            e.pack_bounding_device
                        }
                    })
                    .unwrap_or(0);
                format!("device{worst}")
            }
            _ => "link".to_string(),
        }
    };
    let bound = if sum == 0.0 { "idle" } else { bound };
    RoundCritical {
        k: r.k,
        sub_rounds: r.slices.len() as u32,
        compute_ms,
        cascade_ms,
        exchange_kernel_ms,
        link_ms,
        compute_share: share(compute_ms),
        cascade_share: share(cascade_ms),
        exchange_share: share(exchange_kernel_ms),
        link_share: share(link_ms),
        bound,
        bounding_resource,
    }
}

/// Order-sensitive FNV-1a digest of a byte string — the fingerprint the
/// golden fleet tests pin merged-Perfetto exports with.
pub fn fnv1a_bytes(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A slice charging what the engine charges: the slowest device.
    fn slice(sub: u32, per: Vec<f64>) -> SubRoundSlice {
        SubRoundSlice {
            sub_round: sub,
            charged_ms: max_device_ms(&per),
            device_start_ms: vec![0.0; per.len()],
            device_ms: per,
        }
    }

    fn empty_exchange(after: u32, n: usize) -> ExchangeTrace {
        ExchangeTrace {
            after_sub_round: after,
            charged_ms: 0.0,
            pack_ms: 0.0,
            hop1_ms: 0.0,
            hop2_ms: 0.0,
            apply_ms: 0.0,
            pack_bounding_device: 0,
            apply_bounding_device: 0,
            packets_out: 0,
            packets_aggregated: 0,
            bytes: 0,
            seeds: 0,
            seeds_per_device: vec![0; n],
            flows: Vec::new(),
        }
    }

    /// Two worker contexts: device 0 ran one `mgpu_pack`, device 1 one
    /// `mgpu_apply` — the launches the synthetic flow edge references.
    fn dummy_contexts() -> Vec<crate::GpuContext> {
        use crate::{CostParams, GpuContext, LaunchConfig};
        let cfg = LaunchConfig {
            blocks: 1,
            threads_per_block: 32,
        };
        ["mgpu_pack", "mgpu_apply"]
            .iter()
            .map(|kernel| {
                let mut ctx = GpuContext::new(CostParams::p100(), 1 << 16);
                ctx.launch(kernel, cfg, |_| Ok(())).unwrap();
                ctx
            })
            .collect()
    }

    fn dummy_devices() -> Vec<Trace> {
        let ctxs = dummy_contexts().into_iter().enumerate();
        ctxs.map(|(d, mut c)| c.trace(format!("d{d}"))).collect()
    }

    fn synthetic_rounds() -> Vec<RoundTrace> {
        vec![
            RoundTrace {
                k: 0,
                sub_rounds: 1,
                slices: vec![slice(0, vec![1.0, 2.0])],
                exchanges: vec![empty_exchange(0, 2)],
            },
            RoundTrace {
                k: 1,
                sub_rounds: 2,
                slices: vec![slice(0, vec![2.0, 1.0]), slice(1, vec![0.0, 0.5])],
                exchanges: vec![
                    ExchangeTrace {
                        after_sub_round: 0,
                        charged_ms: 0.25 + 0.2 + 0.15 + 0.1,
                        pack_ms: 0.25,
                        hop1_ms: 0.2,
                        hop2_ms: 0.15,
                        apply_ms: 0.1,
                        pack_bounding_device: 0,
                        apply_bounding_device: 1,
                        packets_out: 3,
                        packets_aggregated: 2,
                        bytes: 40,
                        seeds: 1,
                        seeds_per_device: vec![0, 1],
                        flows: vec![FlowEdge {
                            from_device: 0,
                            to_device: 1,
                            packets: 3,
                            bytes: 24,
                            pack_launch_seq: 0,
                            apply_launch_seq: 0,
                        }],
                    },
                    empty_exchange(1, 2),
                ],
            },
        ]
    }

    /// A fleet trace over `rounds` whose `total_ms` replays their charged
    /// addends (setup 1.0 ms, result 0.5 ms).
    fn fleet(rounds: Vec<RoundTrace>) -> FleetTrace {
        let mut total = 1.0;
        for r in &rounds {
            for (s, e) in r.slices.iter().zip(&r.exchanges) {
                total += s.charged_ms;
                total += e.charged_ms;
            }
        }
        total += 0.5;
        FleetTrace::new("unit", 1.0, 0.5, total, 40, rounds, 2)
    }

    fn synthetic() -> FleetTrace {
        fleet(synthetic_rounds())
    }

    #[test]
    fn critical_path_shares_sum_and_name_resources() {
        let ft = synthetic();
        assert_eq!(ft.critical_path.len(), 2);
        let c0 = &ft.critical_path[0];
        assert_eq!(
            (c0.bound, c0.bounding_resource.as_str()),
            ("compute", "device1")
        );
        let c1 = &ft.critical_path[1];
        // compute 2.0 dominates cascade 0.5, exchange 0.35, link 0.35
        assert_eq!(
            (c1.bound, c1.bounding_resource.as_str()),
            ("compute", "device0")
        );
        for c in &ft.critical_path {
            let s = c.compute_share + c.cascade_share + c.exchange_share + c.link_share;
            assert!((s - 1.0).abs() < 1e-12, "{s}");
        }
    }

    #[test]
    fn replay_must_reproduce_total_to_the_bit() {
        let traces = dummy_devices();
        let ft = synthetic();
        assert_eq!(ft.check_well_formed(&traces), Ok(()));
        let mut bad = synthetic();
        bad.total_ms += 1e-9;
        let err = bad.check_well_formed(&traces).unwrap_err();
        assert!(err.contains("bit-for-bit"), "{err}");
    }

    #[test]
    fn check_reconciles_charges_against_device_clocks() {
        // A slice billing more than its slowest device's delta — what the
        // cumulative-clock charge did — with a `total_ms` that replays the
        // inflated addends, so only the device clocks can expose it.
        let mut rounds = synthetic_rounds();
        rounds[1].slices[1].charged_ms = 3.0;
        let err = fleet(rounds)
            .check_well_formed(&dummy_devices())
            .unwrap_err();
        assert!(err.contains("round 1 (k=1) sub-round 1"), "{err}");
        assert!(
            err.contains("slowest device clock advanced 0.5 ms"),
            "{err}"
        );

        let mut rounds = synthetic_rounds();
        rounds[1].exchanges[0].charged_ms = 0.75;
        let err = fleet(rounds)
            .check_well_formed(&dummy_devices())
            .unwrap_err();
        assert!(err.contains("exchange after sub-round 0"), "{err}");
    }

    #[test]
    fn check_rejects_inconsistent_ledgers() {
        let traces = dummy_devices();
        let mut ft = synthetic();
        ft.rounds[1].exchanges[0].bytes = 41;
        assert!(ft.check_well_formed(&traces).unwrap_err().contains("bytes"));

        let mut ft = synthetic();
        ft.rounds[1].exchanges[0].seeds_per_device = vec![0, 0];
        assert!(ft
            .check_well_formed(&traces)
            .unwrap_err()
            .contains("seeds_per_device"));

        // the flow's pack launch must be a real `mgpu_pack` record
        let swapped: Vec<Trace> = traces.iter().rev().cloned().collect();
        let err = synthetic().check_well_formed(&swapped).unwrap_err();
        assert!(
            err.contains("flow pack seq 0 is a \"mgpu_apply\" launch"),
            "{err}"
        );

        let err = synthetic().check_well_formed(&traces[..1]).unwrap_err();
        assert!(err.contains("1 worker traces, num_devices says 2"), "{err}");
    }

    #[test]
    fn document_states_the_schema_once_and_holds_the_worker_traces() {
        let traces = dummy_devices();
        let json = synthetic().to_json(&traces);
        assert!(json.starts_with("{\n  \"schema_version\": 4,\n  \"label\": \"unit\","));
        assert_eq!(json.matches("schema_version").count(), 1);
        let v = serde_json::from_str(&json).unwrap();
        let devices = v.get("devices").and_then(Value::as_array).unwrap();
        let labels: Vec<&str> = devices
            .iter()
            .map(|d| d.get("label").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(labels, ["d0", "d1"]);
        let timelines: Vec<Timeline> = dummy_contexts().iter().map(|c| c.timeline("t")).collect();
        let merged = synthetic().merged_chrome_json(&traces, &timelines);
        assert!(merged.contains("\"otherData\":{\"schema_version\":4,"));
    }

    #[test]
    fn fnv_digest_is_order_sensitive() {
        assert_ne!(fnv1a_bytes(b"ab"), fnv1a_bytes(b"ba"));
        assert_eq!(fnv1a_bytes(b""), 0xcbf2_9ce4_8422_2325);
    }
}
