//! Per-layer readings of one op, taken from outside the program: the
//! simulator's launch and transfer records (or a captured `Trace`) and the
//! sharded engine's fleet ledger.

use kcore_gpu::FleetRun;
use kcore_gpusim::{
    CostParams, Counters, Hotspot, LaunchRecord, Trace, TransferDir, TransferRecord,
};

/// Phases the peel engine labels, in round order.
pub const PEEL_PHASES: [&str; 5] = ["Setup", "Scan", "Loop", "Sync", "Result"];

/// Hotspot buckets, in the simulator's canonical order.
pub const BUCKETS: [&str; 9] = [
    "launch_overhead",
    "divergence",
    "mem_stall",
    "atomics",
    "uncoalesced",
    "coalesced",
    "shared",
    "instr",
    "barrier",
];

/// Counters reported per op, in this order.
pub const COUNTERS: [&str; 7] = [
    "global_tx",
    "global_sectors",
    "global_atomics",
    "dependent_reads",
    "shared_accesses",
    "warp_instrs",
    "barriers",
];

/// Where one op's simulated time and traffic went, summed over devices.
#[derive(Debug, Clone, Default)]
pub struct SimBreakdown {
    pub launches: f64,
    pub launch_overhead_ms: f64,
    pub compute_ms: f64,
    pub mem_ms: f64,
    pub transfer_ms: f64,
    pub h2d_bytes: f64,
    pub d2h_bytes: f64,
    pub counters: [f64; 7],
    /// The peel `loop` kernel's hotspot buckets, ms.
    pub loop_buckets: [f64; 9],
    /// The peel `scan` kernel's total, ms.
    pub scan_ms: f64,
    /// Kernel plus transfer time per [`PEEL_PHASES`] entry, ms.
    pub phase_ms: [f64; 5],
}

impl SimBreakdown {
    pub fn add_trace(&mut self, t: &Trace) {
        self.launches += t.totals.launches as f64;
        self.h2d_bytes += t.totals.h2d_bytes as f64;
        self.d2h_bytes += t.totals.d2h_bytes as f64;
        self.add_counters(&t.totals.counters);
        for p in &t.phases {
            self.launch_overhead_ms += p.launch_overhead_ms;
            self.compute_ms += p.compute_ms;
            self.mem_ms += p.mem_ms;
            self.transfer_ms += p.transfer_ms;
            self.add_phase(p.phase, p.kernel_ms + p.transfer_ms);
        }
        self.add_hotspots(&t.hotspots);
    }

    pub fn add_records(
        &mut self,
        launches: &[LaunchRecord],
        transfers: &[TransferRecord],
        cost: &CostParams,
    ) {
        for l in launches {
            self.launches += 1.0;
            self.launch_overhead_ms += l.roofline.launch_overhead_s * 1e3;
            self.compute_ms += l.roofline.compute_s * 1e3;
            self.mem_ms += l.roofline.mem_s * 1e3;
            self.add_counters(&l.counters);
            self.add_phase(l.phase, l.time_s * 1e3);
        }
        for t in transfers {
            self.transfer_ms += t.time_s * 1e3;
            match t.dir {
                TransferDir::HostToDevice => self.h2d_bytes += t.bytes as f64,
                TransferDir::DeviceToHost => self.d2h_bytes += t.bytes as f64,
            }
            self.add_phase(t.phase, t.time_s * 1e3);
        }
        self.add_hotspots(&kcore_gpusim::timeline::hotspots(launches, cost, 0));
    }

    fn add_counters(&mut self, c: &Counters) {
        let words = [
            c.global_tx,
            c.global_sectors,
            c.global_atomics,
            c.dependent_reads,
            c.shared_accesses,
            c.warp_instrs,
            c.barriers,
        ];
        for (acc, w) in self.counters.iter_mut().zip(words) {
            *acc += w as f64;
        }
    }

    fn add_phase(&mut self, phase: &str, ms: f64) {
        if let Some(i) = PEEL_PHASES.iter().position(|&p| p == phase) {
            self.phase_ms[i] += ms;
        }
    }

    fn add_hotspots(&mut self, hotspots: &[Hotspot]) {
        for h in hotspots {
            match h.kernel {
                "loop" => {
                    let b = [
                        h.launch_overhead_ms,
                        h.divergence_ms,
                        h.mem_stall_ms,
                        h.atomics_ms,
                        h.uncoalesced_ms,
                        h.coalesced_ms,
                        h.shared_ms,
                        h.instr_ms,
                        h.barrier_ms,
                    ];
                    for (acc, x) in self.loop_buckets.iter_mut().zip(b) {
                        *acc += x;
                    }
                }
                "scan" => self.scan_ms += h.total_ms,
                _ => {}
            }
        }
    }
}

/// The sharded engine's ledger, reduced to the quantities that explain its
/// charge.
#[derive(Debug, Clone, Default)]
pub struct MultiStats {
    pub sub_rounds: f64,
    pub exchange_rounds: f64,
    pub border_packets: f64,
    pub exchanged_mb: f64,
    pub max_device_peak_mb: f64,
    /// Σ worker→master plus master→owner hop costs, ms.
    pub link_ms: f64,
    /// Σ pack plus apply kernel deltas, ms.
    pub pack_apply_ms: f64,
    /// Σ what each barrier sub-round charged, ms.
    pub slice_charged_ms: f64,
    /// Σ over sub-rounds of the slowest device's own clock delta, ms.
    pub slice_device_max_ms: f64,
    /// Σ device deltas ÷ (devices × [`Self::slice_device_max_ms`]).
    pub device_busy_frac: f64,
    /// `total_ms` minus what the ledger's device clocks account for:
    /// setup + Σ slowest-device slice deltas + Σ exchange charges + result.
    pub charge_residual_ms: f64,
}

impl MultiStats {
    pub fn from_fleet(fr: &FleetRun) -> MultiStats {
        let f = &fr.fleet;
        let mut s = MultiStats {
            sub_rounds: f64::from(fr.run.sub_rounds),
            exchange_rounds: fr.run.exchange_rounds as f64,
            border_packets: fr.run.border_packets as f64,
            exchanged_mb: fr.run.exchanged_bytes as f64 / 1e6,
            max_device_peak_mb: fr
                .run
                .per_device_peak_bytes
                .iter()
                .copied()
                .max()
                .unwrap_or(0) as f64
                / 1e6,
            ..MultiStats::default()
        };
        let mut busy = 0.0;
        let mut exchange_charged = 0.0;
        for r in &f.rounds {
            for sl in &r.slices {
                s.slice_charged_ms += sl.charged_ms;
                s.slice_device_max_ms += sl.device_ms.iter().copied().fold(0.0, f64::max);
                busy += sl.device_ms.iter().sum::<f64>();
            }
            for x in &r.exchanges {
                s.link_ms += x.hop1_ms + x.hop2_ms;
                s.pack_apply_ms += x.pack_ms + x.apply_ms;
                exchange_charged += x.charged_ms;
            }
        }
        let capacity = f.num_devices as f64 * s.slice_device_max_ms;
        s.device_busy_frac = if capacity > 0.0 { busy / capacity } else { 0.0 };
        s.charge_residual_ms =
            f.total_ms - (f.setup_ms + s.slice_device_max_ms + exchange_charged + f.result_ms);
        s
    }
}
