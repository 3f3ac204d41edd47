//! Fleet observability: the ledger of a sharded multi-device run.
//!
//! The single-device observability stack (a [`Trace`] with its hotspots
//! and its Perfetto rendering) answers *what one device did*.
//! This module answers what the **fleet** did: a [`FleetTrace`] records,
//! per peel round, an **exchange ledger** — per shard-pair packet counts,
//! bytes, the latency-vs-bandwidth split of each link hop, and the
//! border-cascade sub-round slices — and a per-round **critical-path
//! analysis** naming the device or link hop that bounds `total_ms`. The
//! ledger stores each fact once, and nothing it or the worker traces can
//! derive: a round's `k`, a slice's or an exchange's sub-round are their
//! positions, an exchange's packet, seed and byte totals sum its flows and
//! seed counts ([`ExchangeTrace::packets_out`], [`ExchangeTrace::seeds`],
//! [`ExchangeTrace::bytes`]), the critical path is computed on read
//! ([`FleetTrace::critical_path`]), the traces themselves (held once, beside
//! the ledger, by the engine's fleet run) are passed to every method that
//! reads them, and a device's roofline rollup is the sum of its trace's
//! hotspots ([`Hotspot::sum`]).
//!
//! **Observes, never charges.** Every number here is recorded alongside the
//! engine's existing accounting: `total_ms`, the exchanged bytes, worker
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
use crate::timeline::Hotspot;
use crate::trace::Trace;
use serde::{Serialize, Value};

/// Bytes of one border packet, a `(vertex, delta)` pair of `u32`s: what
/// each link hop ships per packet.
pub const PACKET_BYTES: u64 = 8;

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
    /// Per-peel-round ledger: `rounds[k]` peeled `k`.
    pub rounds: Vec<RoundTrace>,
}

/// Ledger of one peel round (one `k`).
#[derive(Debug, Clone, Serialize)]
pub struct RoundTrace {
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
    /// Exact f64 addend the engine folded into `total_ms`:
    /// `pack_ms + hop1_ms + hop2_ms + apply_ms`.
    pub charged_ms: f64,
    /// Max-over-workers pack-kernel delta, ms.
    pub pack_ms: f64,
    /// Worker→master hop: per-exchange latency + [`Self::packets_out`]
    /// packets over the link bandwidth, ms.
    pub hop1_ms: f64,
    /// Master→owner hop: latency + aggregated packets, ms.
    pub hop2_ms: f64,
    /// Max-over-owners apply-kernel delta, ms.
    pub apply_ms: f64,
    /// Worker with the largest pack delta (0 when nothing was packed).
    pub pack_bounding_device: usize,
    /// Owner with the largest apply delta (0 when nothing applied).
    pub apply_bounding_device: usize,
    /// Deduplicated master→owner packets.
    pub packets_aggregated: u64,
    /// Border vertices that crossed into the k-shell and were seeded, per
    /// owner device, shard order.
    pub seeds_per_device: Vec<u64>,
    /// Per shard-pair packet flows, ascending (from, to) order.
    pub flows: Vec<FlowEdge>,
}

impl ExchangeTrace {
    /// Raw worker→master packets: every drained packet took one flow.
    pub fn packets_out(&self) -> u64 {
        self.flows.iter().map(|f| f.packets).sum()
    }

    /// Border vertices seeded into the next sub-round.
    pub fn seeds(&self) -> u64 {
        self.seeds_per_device.iter().sum()
    }

    /// Link bytes, both hops.
    pub fn bytes(&self) -> u64 {
        (self.packets_out() + self.packets_aggregated) * PACKET_BYTES
    }
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
#[derive(Debug, Clone)]
pub struct RoundCritical {
    /// Max-over-devices scan+drain delta, ms.
    pub compute_ms: f64,
    /// Σ over cascade sub-rounds of the max-over-devices delta, ms.
    pub cascade_ms: f64,
    /// Σ pack + apply kernel deltas, ms.
    pub exchange_kernel_ms: f64,
    /// Σ link hop costs (latency + bandwidth terms), ms.
    pub link_ms: f64,
    /// Largest component: `"compute"`, `"cascade"`, `"exchange"`, `"link"`,
    /// or `"idle"` for an all-zero round.
    pub bound: &'static str,
    /// The concrete bounding resource: `"device<n>"` for kernel-side
    /// components, `"link"` for the hop costs, `"none"` when idle.
    pub bounding_resource: String,
}

impl RoundCritical {
    /// The component sum, ms.
    pub fn total_ms(&self) -> f64 {
        self.compute_ms + self.cascade_ms + self.exchange_kernel_ms + self.link_ms
    }

    /// `ms`, one of the components, over their sum (0 for an idle round).
    pub fn share(&self, ms: f64) -> f64 {
        let sum = self.total_ms();
        if sum > 0.0 {
            ms / sum
        } else {
            0.0
        }
    }
}

impl FleetTrace {
    /// Per-round critical-path attribution, in round order, derived from
    /// the ledger on read.
    pub fn critical_path(&self) -> impl Iterator<Item = RoundCritical> + '_ {
        self.rounds.iter().map(round_critical)
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
    /// * every flow edge references a real `mgpu_pack` / `mgpu_apply`
    ///   launch record in the worker traces;
    /// * the hotspot buckets of each worker's trace, summed
    ///   ([`Hotspot::sum`]), tile its summed kernel time.
    pub fn check_well_formed(&self, traces: &[Trace]) -> Result<(), String> {
        if traces.len() != self.num_devices {
            return Err(format!(
                "{} worker traces, num_devices says {}",
                traces.len(),
                self.num_devices
            ));
        }
        let mut replay = self.setup_ms;
        for (k, r) in self.rounds.iter().enumerate() {
            if r.slices.is_empty() || r.slices.len() != r.exchanges.len() {
                return Err(format!(
                    "k={k}: {} slices vs {} exchanges",
                    r.slices.len(),
                    r.exchanges.len()
                ));
            }
            for (sub, (s, e)) in r.slices.iter().zip(&r.exchanges).enumerate() {
                if s.device_ms.len() != self.num_devices
                    || s.device_start_ms.len() != self.num_devices
                    || e.seeds_per_device.len() != self.num_devices
                {
                    return Err(format!("k={k} sub-round {sub}: bad device vectors"));
                }
                let slowest = max_device_ms(&s.device_ms);
                if s.charged_ms.to_bits() != slowest.to_bits() {
                    return Err(format!(
                        "k={k} sub-round {sub}: charged {} ms but the slowest device clock \
                         advanced {slowest} ms",
                        s.charged_ms
                    ));
                }
                let components = e.pack_ms + e.hop1_ms + e.hop2_ms + e.apply_ms;
                if e.charged_ms.to_bits() != components.to_bits() {
                    return Err(format!(
                        "k={k} exchange after sub-round {sub}: charged {} ms, \
                         pack + hops + apply = {components} ms",
                        e.charged_ms
                    ));
                }
                replay += s.charged_ms;
                replay += e.charged_ms;
                for f in &e.flows {
                    if f.from_device >= self.num_devices || f.to_device >= self.num_devices {
                        return Err(format!("k={k}: flow names a non-existent device"));
                    }
                    let pack = traces[f.from_device]
                        .launches
                        .get(f.pack_launch_seq)
                        .ok_or_else(|| format!("k={k}: dangling pack launch seq"))?;
                    if pack.name != "mgpu_pack" {
                        return Err(format!(
                            "k={k}: flow pack seq {} is a {:?} launch",
                            f.pack_launch_seq, pack.name
                        ));
                    }
                    let apply = traces[f.to_device]
                        .launches
                        .get(f.apply_launch_seq)
                        .ok_or_else(|| format!("k={k}: dangling apply launch seq"))?;
                    if apply.name != "mgpu_apply" {
                        return Err(format!(
                            "k={k}: flow apply seq {} is a {:?} launch",
                            f.apply_launch_seq, apply.name
                        ));
                    }
                }
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
            let all = Hotspot::sum(&t.hotspots);
            let bucket_sum: f64 = all.buckets().iter().map(|b| b.1).sum();
            if (bucket_sum - all.total_ms).abs() > 1e-9 * all.total_ms.max(1.0) {
                return Err(format!(
                    "device {d} hotspot buckets {bucket_sum} don't tile its kernel time {}",
                    all.total_ms
                ));
            }
        }
        Ok(())
    }

    /// Renders the fleet as one merged Chrome trace-event document:
    ///
    /// * per device `d`: its trace's full single-device track set
    ///   ([`Trace::to_chrome_json`]: GPU SM tracks, PCIe, memory) under pids
    ///   `1+3d..3+3d` with a `D<d> · ` name prefix, on the device's
    ///   **local** clock, plus a `border cascades` track carrying that
    ///   device's sub-round slices;
    /// * pid 0: the link process on the **fleet** clock, with
    ///   `worker → master` / `master → owner` hop slices per exchange;
    /// * flow events (`s`/`t`/`f`) tying each shard-pair's `mgpu_pack`
    ///   launch through the two hops to its owner's `mgpu_apply` launch.
    ///
    /// `traces` must be the run's per-device traces, shard order; traces
    /// from another run are a [`MergeError`] where they disagree with the
    /// ledger. Deterministic: same run ⇒ byte-identical JSON.
    pub fn merged_chrome_json(&self, traces: &[Trace]) -> Result<String, MergeError> {
        if traces.len() != self.num_devices {
            let (got, devices) = (traces.len(), self.num_devices);
            return Err(MergeError::DeviceCount { got, devices });
        }
        /// tid of the per-device cascade track: above any SM index, the
        /// tid of an SM track.
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
        for (d, t) in traces.iter().enumerate() {
            t.push_chrome_events(
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
        for (k, r) in self.rounds.iter().enumerate() {
            for (sub, (s, e)) in r.slices.iter().zip(&r.exchanges).enumerate() {
                // cascade slices land on each active device's own track, at
                // that device's local clock — they tile against its SM rows.
                if sub > 0 {
                    let clocks = s.device_start_ms.iter().zip(&s.device_ms);
                    for (d, (&start_ms, &ms)) in clocks.enumerate() {
                        if ms > 0.0 {
                            events.push(obj(vec![
                                ("name", Value::Str(format!("cascade k={k} #{sub}"))),
                                ("cat", Value::Str("BorderCascade".into())),
                                ("ph", Value::Str("X".into())),
                                ("ts", Value::Float(start_ms * 1e3)),
                                ("dur", Value::Float(ms * 1e3)),
                                ("pid", Value::UInt(gpu_pid(d))),
                                ("tid", Value::UInt(CASCADE_TID)),
                                (
                                    "args",
                                    obj(vec![
                                        ("k", Value::UInt(k as u64)),
                                        ("sub_round", Value::UInt(sub as u64)),
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
                let packets_out = e.packets_out();
                if packets_out > 0 {
                    for (tid, name, ts, dur, packets) in [
                        (0u64, "worker → master", hop1_ts, e.hop1_ms, packets_out),
                        (
                            1,
                            "master → owner",
                            hop2_ts,
                            e.hop2_ms,
                            e.packets_aggregated,
                        ),
                    ] {
                        events.push(obj(vec![
                            ("name", Value::Str(format!("{name} k={k}"))),
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
                                    ("bytes", Value::UInt(e.bytes())),
                                    ("seeds", Value::UInt(e.seeds())),
                                ]),
                            ),
                        ]));
                    }
                    for f in &e.flows {
                        let launch = |device: usize, seq: usize| {
                            let found = traces.get(device).and_then(|t| t.launches.get(seq));
                            found.ok_or(MergeError::MissingLaunch { k, device, seq })
                        };
                        let pack = launch(f.from_device, f.pack_launch_seq)?;
                        let apply = launch(f.to_device, f.apply_launch_seq)?;
                        // the pack launch's end and the apply launch's
                        // start in µs, from the ms values the trace
                        // document writes
                        let pack_ts = (pack.start_s * 1e3 + pack.time_s * 1e3) * 1e3;
                        let apply_ts = apply.start_s * 1e3 * 1e3;
                        let hops = [
                            ("s", gpu_pid(f.from_device), CASCADE_TID, pack_ts),
                            ("t", LINK_PID, 0, hop1_ts),
                            ("t", LINK_PID, 1, hop2_ts),
                            ("f", gpu_pid(f.to_device), CASCADE_TID, apply_ts),
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
                                    ("bytes", Value::UInt(f.packets * PACKET_BYTES)),
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
            let seeds: u64 = r.exchanges.iter().map(ExchangeTrace::seeds).sum();
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
        Ok(serde_json::to_string(&doc).expect("a fleet Perfetto document serializes"))
    }
}

/// Why [`FleetTrace::merged_chrome_json`] cannot merge a ledger with the
/// traces it was handed: they are not that run's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// `got` worker traces for a ledger of `devices` devices.
    DeviceCount {
        /// The number of traces.
        got: usize,
        /// The ledger's `num_devices`.
        devices: usize,
    },
    /// A flow edge of round `k` names launch `seq` of `device`, which the
    /// traces do not hold.
    MissingLaunch {
        /// The round.
        k: usize,
        /// The flow's pack or apply device.
        device: usize,
        /// The launch sequence number it names.
        seq: usize,
    },
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::DeviceCount { got, devices } => {
                write!(f, "{got} worker traces, num_devices says {devices}")
            }
            MergeError::MissingLaunch { k, device, seq } => write!(
                f,
                "k={k}: a flow names launch {seq} of device {device}, which its trace does not hold"
            ),
        }
    }
}

impl std::error::Error for MergeError {}

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
        compute_ms,
        cascade_ms,
        exchange_kernel_ms,
        link_ms,
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
    fn slice(per: Vec<f64>) -> SubRoundSlice {
        SubRoundSlice {
            charged_ms: max_device_ms(&per),
            device_start_ms: vec![0.0; per.len()],
            device_ms: per,
        }
    }

    fn empty_exchange(n: usize) -> ExchangeTrace {
        ExchangeTrace {
            charged_ms: 0.0,
            pack_ms: 0.0,
            hop1_ms: 0.0,
            hop2_ms: 0.0,
            apply_ms: 0.0,
            pack_bounding_device: 0,
            apply_bounding_device: 0,
            packets_aggregated: 0,
            seeds_per_device: vec![0; n],
            flows: Vec::new(),
        }
    }

    /// Two worker traces: device 0 ran one `mgpu_pack`, device 1 one
    /// `mgpu_apply` — the launches the synthetic flow edge references.
    fn dummy_devices() -> Vec<Trace> {
        use crate::{CostParams, GpuContext, LaunchConfig};
        let cfg = LaunchConfig {
            blocks: 1,
            threads_per_block: 32,
        };
        ["mgpu_pack", "mgpu_apply"]
            .iter()
            .enumerate()
            .map(|(d, kernel)| {
                let mut ctx = GpuContext::new(CostParams::p100(), 1 << 16);
                ctx.launch(kernel, cfg, |_| Ok(())).unwrap();
                ctx.trace(format!("d{d}"))
            })
            .collect()
    }

    fn synthetic_rounds() -> Vec<RoundTrace> {
        vec![
            RoundTrace {
                slices: vec![slice(vec![1.0, 2.0])],
                exchanges: vec![empty_exchange(2)],
            },
            RoundTrace {
                slices: vec![slice(vec![2.0, 1.0]), slice(vec![0.0, 0.5])],
                exchanges: vec![
                    ExchangeTrace {
                        charged_ms: 0.25 + 0.2 + 0.15 + 0.1,
                        pack_ms: 0.25,
                        hop1_ms: 0.2,
                        hop2_ms: 0.15,
                        apply_ms: 0.1,
                        pack_bounding_device: 0,
                        apply_bounding_device: 1,
                        packets_aggregated: 2,
                        seeds_per_device: vec![0, 1],
                        flows: vec![FlowEdge {
                            from_device: 0,
                            to_device: 1,
                            packets: 3,
                            pack_launch_seq: 0,
                            apply_launch_seq: 0,
                        }],
                    },
                    empty_exchange(2),
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
        FleetTrace {
            label: "unit".into(),
            num_devices: 2,
            total_ms: total,
            setup_ms: 1.0,
            result_ms: 0.5,
            rounds,
        }
    }

    fn synthetic() -> FleetTrace {
        fleet(synthetic_rounds())
    }

    #[test]
    fn exchange_totals_sum_its_flows_and_seeds() {
        let e = &synthetic_rounds()[1].exchanges[0];
        assert_eq!((e.packets_out(), e.seeds(), e.bytes()), (3, 1, 40));
        let idle = empty_exchange(2);
        assert_eq!((idle.packets_out(), idle.seeds(), idle.bytes()), (0, 0, 0));
    }

    #[test]
    fn critical_path_shares_sum_and_name_resources() {
        let ft = synthetic();
        let path: Vec<RoundCritical> = ft.critical_path().collect();
        assert_eq!(path.len(), 2);
        let c0 = &path[0];
        assert_eq!(
            (c0.bound, c0.bounding_resource.as_str()),
            ("compute", "device1")
        );
        let c1 = &path[1];
        // compute 2.0 dominates cascade 0.5, exchange 0.35, link 0.35
        assert_eq!(
            (c1.bound, c1.bounding_resource.as_str()),
            ("compute", "device0")
        );
        for c in &path {
            let components = [c.compute_ms, c.cascade_ms, c.exchange_kernel_ms, c.link_ms];
            let s: f64 = components.iter().map(|&ms| c.share(ms)).sum();
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
        assert!(err.contains("k=1 sub-round 1"), "{err}");
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
        ft.rounds[1].exchanges[0].seeds_per_device = vec![1];
        let err = ft.check_well_formed(&traces).unwrap_err();
        assert!(err.contains("k=1 sub-round 0: bad device vectors"), "{err}");

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

    /// The keys of a JSON object, in document order.
    fn keys(v: &Value) -> Vec<&str> {
        match v {
            Value::Object(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("not an object: {v:?}"),
        }
    }

    #[test]
    fn document_states_the_schema_once_and_holds_the_worker_traces() {
        let traces = dummy_devices();
        let json = synthetic().to_json(&traces);
        assert!(json.starts_with("{\n  \"schema_version\": 5,\n  \"label\": \"unit\","));
        assert_eq!(json.matches("schema_version").count(), 1);
        let v = serde_json::from_str(&json).unwrap();
        // the ledger stores facts only: no key it can derive
        let fleet_keys = [
            "schema_version",
            "label",
            "num_devices",
            "total_ms",
            "setup_ms",
            "result_ms",
            "rounds",
            "devices",
        ];
        assert_eq!(keys(&v), fleet_keys);
        let round = &v.get("rounds").and_then(Value::as_array).unwrap()[1];
        assert_eq!(keys(round), ["slices", "exchanges"]);
        let slice = &round.get("slices").and_then(Value::as_array).unwrap()[0];
        assert_eq!(keys(slice), ["charged_ms", "device_start_ms", "device_ms"]);
        let exchange = &round.get("exchanges").and_then(Value::as_array).unwrap()[0];
        let exchange_keys = [
            "charged_ms",
            "pack_ms",
            "hop1_ms",
            "hop2_ms",
            "apply_ms",
            "pack_bounding_device",
            "apply_bounding_device",
            "packets_aggregated",
            "seeds_per_device",
            "flows",
        ];
        assert_eq!(keys(exchange), exchange_keys);
        let flow = &exchange.get("flows").and_then(Value::as_array).unwrap()[0];
        let flow_keys = [
            "from_device",
            "to_device",
            "packets",
            "pack_launch_seq",
            "apply_launch_seq",
        ];
        assert_eq!(keys(flow), flow_keys);
        let devices = v.get("devices").and_then(Value::as_array).unwrap();
        let labels: Vec<&str> = devices
            .iter()
            .map(|d| d.get("label").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(labels, ["d0", "d1"]);
        let merged = synthetic().merged_chrome_json(&traces).unwrap();
        assert!(merged.contains("\"otherData\":{\"schema_version\":5,"));
    }

    /// A ledger merged with another run's traces is an error, not a panic.
    #[test]
    fn merge_rejects_another_runs_inputs() {
        let ft = synthetic();
        // a run whose devices launched nothing
        let idle: Vec<crate::GpuContext> = (0..2)
            .map(|_| crate::GpuContext::new(crate::CostParams::p100(), 1 << 16))
            .collect();
        let traces: Vec<Trace> = idle.into_iter().map(|mut c| c.trace("idle")).collect();
        let missing = MergeError::MissingLaunch {
            k: 1,
            device: 0,
            seq: 0,
        };
        assert_eq!(ft.merged_chrome_json(&traces), Err(missing));
        // a run on one device
        let err = ft.merged_chrome_json(&traces[..1]);
        assert_eq!(err, Err(MergeError::DeviceCount { got: 1, devices: 2 }));
        assert_eq!(
            err.unwrap_err().to_string(),
            "1 worker traces, num_devices says 2"
        );
    }

    #[test]
    fn fnv_digest_is_order_sensitive() {
        assert_ne!(fnv1a_bytes(b"ab"), fnv1a_bytes(b"ba"));
        assert_eq!(fnv1a_bytes(b""), 0xcbf2_9ce4_8422_2325);
    }
}
