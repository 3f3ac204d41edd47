//! The roofline cost model.
//!
//! Each kernel launch accumulates per-block [`Counters`]; the launch's
//! simulated time is
//!
//! ```text
//! t = launch_overhead + max( makespan(block cycles over SMs) / clock,
//!                            global traffic bytes / memory bandwidth )
//! ```
//!
//! The compute term captures instruction-bound kernels (e.g. h-index
//! combiners, compaction offset math — the paper's §VI ablation insight that
//! "compaction runs additional instructions ... the cost of which is
//! non-trivial"); the bandwidth term captures the memory-bound scans and
//! adjacency walks. The makespan models the paper's block scheduling ("as
//! thread blocks terminate, new blocks are launched on the vacated SMs").
//! [`makespan`] is the simulator's one block scheduler: pricing reads its
//! horizon, and a trace's Perfetto rendering
//! ([`crate::Trace::to_chrome_json`]) draws each block where it placed it.
//!
//! Constants for the paper's test device are in [`CostParams::p100`]; each
//! value cites its source. The model is calibrated for *relative* orderings
//! (which algorithm wins, by roughly what factor), not absolute times —
//! EXPERIMENTS.md quantifies the match.

use crate::exec::LaunchConfig;
use serde::Serialize;

/// Per-block event counters accumulated by kernels.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Counters {
    /// 128-byte global-memory transactions (coalesced accesses count one per
    /// segment; an uncoalesced warp access counts one per lane).
    pub global_tx: u64,
    /// 32-byte global-memory sector accesses — the granularity of *random*
    /// scalar reads/writes (e.g. the loop kernel's `deg[u]` probes), which on
    /// Pascal fetch one sector, not a full 128-byte line.
    pub global_sectors: u64,
    /// Serialized dependent global reads on a warp's critical path (the
    /// `v = buf[i][s']` pointer chase of Algorithm 3) — the latency the VP
    /// optimization hides by prefetching.
    pub dependent_reads: u64,
    /// Global-memory atomic operations (`atomicAdd`/`atomicSub` on device
    /// buffers).
    pub global_atomics: u64,
    /// Shared-memory atomics (cheap, hardware-accelerated — the paper's §VI
    /// point that "shared memory atomic operations have been highly
    /// optimized by NVIDIA").
    pub shared_atomics: u64,
    /// Plain shared-memory accesses.
    pub shared_accesses: u64,
    /// Warp-level instructions (one per warp per SIMT instruction, whatever
    /// the number of active lanes — divergence wastes lanes, not warps).
    pub warp_instrs: u64,
    /// Block barriers (`__syncthreads`).
    pub barriers: u64,
}

impl Counters {
    /// The counter fields as a fixed-width word array, in the canonical
    /// field order (the same order [`Counters::merge`] sums them in).
    #[inline]
    pub fn to_words(&self) -> [u64; 8] {
        [
            self.global_tx,
            self.global_sectors,
            self.dependent_reads,
            self.global_atomics,
            self.shared_atomics,
            self.shared_accesses,
            self.warp_instrs,
            self.barriers,
        ]
    }

    /// Inverse of [`Counters::to_words`].
    #[inline]
    pub fn from_words(w: [u64; 8]) -> Self {
        Counters {
            global_tx: w[0],
            global_sectors: w[1],
            dependent_reads: w[2],
            global_atomics: w[3],
            shared_atomics: w[4],
            shared_accesses: w[5],
            warp_instrs: w[6],
            barriers: w[7],
        }
    }

    /// Element-wise sum.
    pub fn merge(&mut self, other: &Counters) {
        self.global_tx += other.global_tx;
        self.global_sectors += other.global_sectors;
        self.dependent_reads += other.dependent_reads;
        self.global_atomics += other.global_atomics;
        self.shared_atomics += other.shared_atomics;
        self.shared_accesses += other.shared_accesses;
        self.warp_instrs += other.warp_instrs;
        self.barriers += other.barriers;
    }

    /// Element-wise sum of `items`, added as [`Counters::to_words`] arrays.
    /// u64 addition is exact, so the total is bit-identical to a serial
    /// [`Counters::merge`] loop (pinned by a unit test), and launch
    /// epilogues and trace rollups use it without moving a golden byte.
    pub fn flat_sum<'a>(items: impl IntoIterator<Item = &'a Counters>) -> Counters {
        let mut total = [0u64; 8];
        for c in items {
            for (t, x) in total.iter_mut().zip(c.to_words()) {
                *t += x;
            }
        }
        Counters::from_words(total)
    }
}

/// Calibrated device constants.
#[derive(Debug, Clone, Copy)]
pub struct CostParams {
    /// Streaming multiprocessors.
    pub sm_count: u32,
    /// Core clock in Hz.
    pub clock_hz: f64,
    /// Global (HBM) bandwidth in bytes/s.
    pub mem_bandwidth: f64,
    /// Host↔device (PCIe) bandwidth in bytes/s.
    pub pcie_bandwidth: f64,
    /// Fixed kernel-launch overhead in seconds.
    pub kernel_launch_s: f64,
    /// Issue cycles per 128-byte global transaction (latency is otherwise
    /// hidden by warp oversubscription; throughput is the bandwidth term).
    pub tx_issue_cycles: f64,
    /// Issue cycles per 32-byte random sector access.
    pub sector_issue_cycles: f64,
    /// Exposed latency cycles per serialized dependent read (amortized over
    /// the ~8× warp oversubscription a P100 SM sustains; raw DRAM latency is
    /// hundreds of cycles, but only the un-overlapped residue lands on the
    /// critical path).
    pub dependent_latency_cycles: f64,
    /// Fixed per-call host↔device transfer latency (driver + PCIe round
    /// trip), seconds. Dominates tiny synchronizing copies like the
    /// per-round `gpu_count` readback of Algorithm 1.
    pub pcie_latency_s: f64,
    /// Cycles per global atomic.
    pub global_atomic_cycles: f64,
    /// Cycles per shared-memory atomic.
    pub shared_atomic_cycles: f64,
    /// Cycles per plain shared-memory access.
    pub shared_access_cycles: f64,
    /// Cycles per warp instruction.
    pub instr_cycles: f64,
    /// Cycles per block barrier.
    pub barrier_cycles: f64,
    /// Global-traffic bytes attributed to one global atomic (read-modify-
    /// write of one 32-byte sector).
    pub atomic_traffic_bytes: u64,
}

impl CostParams {
    /// NVIDIA Tesla P100 (the paper's device, §VI):
    /// 56 SMs, 1.33 GHz boost clock, 732 GB/s HBM2, 16 GB global memory
    /// (capacity is configured on the [`crate::Device`], not here), PCIe 3
    /// x16 ≈ 12 GB/s effective. Launch overhead ~5 µs is the commonly
    /// measured null-kernel cost. Atomic costs reflect Pascal's optimized
    /// atomics (the paper's reference \[11\]): shared atomics near register speed,
    /// global atomics ~1 sector round trip amortized.
    pub fn p100() -> Self {
        CostParams {
            sm_count: 56,
            clock_hz: 1.33e9,
            mem_bandwidth: 732e9,
            pcie_bandwidth: 12e9,
            kernel_launch_s: 5e-6,
            tx_issue_cycles: 4.0,
            sector_issue_cycles: 4.0,
            dependent_latency_cycles: 6.0,
            pcie_latency_s: 8e-6,
            global_atomic_cycles: 24.0,
            shared_atomic_cycles: 3.0,
            shared_access_cycles: 2.0,
            instr_cycles: 1.0,
            barrier_cycles: 32.0,
            atomic_traffic_bytes: 32,
        }
    }

    /// These constants for a graph `scale` times smaller than the one they
    /// were measured on: the fixed per-event costs (kernel launch, PCIe
    /// round trip) shrink by `scale`, so the fixed-to-variable cost ratio
    /// stays what it is at full size.
    pub fn scaled(self, scale: f64) -> Self {
        CostParams {
            kernel_launch_s: self.kernel_launch_s / scale,
            pcie_latency_s: self.pcie_latency_s / scale,
            ..self
        }
    }

    /// The cycles each counter of `c` costs on one SM, in [`Counters`]
    /// field order: coalesced transactions, random sectors, dependent
    /// reads, global atomics, shared atomics, shared accesses, warp
    /// instructions, barriers. [`CostParams::block_cycles`] sums them and
    /// [`crate::timeline::hotspots`] attributes time by them.
    pub(crate) fn cycle_terms(&self, c: &Counters) -> [f64; 8] {
        [
            c.global_tx as f64 * self.tx_issue_cycles,
            c.global_sectors as f64 * self.sector_issue_cycles,
            c.dependent_reads as f64 * self.dependent_latency_cycles,
            c.global_atomics as f64 * self.global_atomic_cycles,
            c.shared_atomics as f64 * self.shared_atomic_cycles,
            c.shared_accesses as f64 * self.shared_access_cycles,
            c.warp_instrs as f64 * self.instr_cycles,
            c.barriers as f64 * self.barrier_cycles,
        ]
    }

    /// Compute cycles a block's counters cost on one SM: its cycle terms,
    /// summed in order.
    pub fn block_cycles(&self, c: &Counters) -> f64 {
        let [tx, sectors, dependent, atomics, shared_atomics, shared, instrs, barriers] =
            self.cycle_terms(c);
        tx + sectors + dependent + atomics + shared_atomics + shared + instrs + barriers
    }

    /// Global-memory traffic in bytes implied by the counters.
    pub fn traffic_bytes(&self, c: &Counters) -> u64 {
        c.global_tx * 128
            + c.global_sectors * 32
            + c.dependent_reads * 32
            + c.global_atomics * self.atomic_traffic_bytes
    }

    /// Roofline decomposition of a launch: the fixed launch overhead, the
    /// compute makespan term, and the bandwidth term. `block_cycles` holds
    /// one entry per block, in dispatch order; blocks are greedily assigned
    /// to the least-loaded SM (the hardware's dispatch behaviour).
    pub fn roofline(&self, block_cycles: &[f64], total_traffic_bytes: u64) -> Roofline {
        let makespan = makespan(block_cycles, self.sm_count as usize, |_, _, _| {});
        Roofline {
            launch_overhead_s: self.kernel_launch_s,
            compute_s: makespan / self.clock_hz,
            mem_s: total_traffic_bytes as f64 / self.mem_bandwidth,
        }
    }
}

/// The roofline decomposition of one launch's simulated time.
///
/// The launch's duration is `launch_overhead_s + max(compute_s, mem_s)`
/// ([`Roofline::total_s`]); [`Roofline::bound`] names the binding term.
/// Profiling traces carry this per launch so a dump shows *why* a kernel
/// costs what it costs, not just how much.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Roofline {
    /// Fixed kernel-launch overhead, seconds ([`CostParams::kernel_launch_s`]).
    pub launch_overhead_s: f64,
    /// Compute term: block-cycle makespan over the SMs / clock, seconds.
    pub compute_s: f64,
    /// Bandwidth term: global traffic bytes / memory bandwidth, seconds.
    pub mem_s: f64,
}

impl Roofline {
    /// The launch's total simulated duration.
    pub fn total_s(&self) -> f64 {
        self.launch_overhead_s + self.compute_s.max(self.mem_s)
    }

    /// Which term binds: `"launch"` when the fixed overhead exceeds both
    /// roofline terms, else `"compute"` or `"memory"` (ties → `"compute"`).
    pub fn bound(&self) -> &'static str {
        if self.launch_overhead_s >= self.compute_s.max(self.mem_s) {
            "launch"
        } else if self.compute_s >= self.mem_s {
            "compute"
        } else {
            "memory"
        }
    }
}

/// Machine counts [`makespan`] schedules without allocating: every SM count
/// a [`CostParams`] preset uses.
const MAKESPAN_STACK_MACHINES: usize = 128;

/// Greedy list-scheduling makespan of `jobs` on `machines` (dispatch order,
/// least-loaded machine first, lowest index on load ties) — how block grids
/// fill SMs, one block at a time per SM. `place(machine, start, end)` sees
/// each job's placement, in job order, as it is made: pricing passes a
/// no-op, the Perfetto rendering draws its block spans from them. A tournament tree keeps
/// the least-loaded machine at its root, so each job costs O(log machines);
/// the picks, and so the float sums, are those of a linear min-scan.
///
/// While machines sit idle the tree is not needed: if jobs `0..j` are all
/// positive and `j < machines`, machines `0..j` carry positive loads and
/// the rest carry 0, so job `j` lands on machine `j` at start 0, and
/// `0.0 + x == x`. The tree is built at the first job that finds no machine
/// idle or is not positive (zero, negative or NaN).
pub fn makespan(jobs: &[f64], machines: usize, mut place: impl FnMut(usize, f64, f64)) -> f64 {
    assert!(machines > 0);
    // Leaves `leaves..2 * leaves` of `winner` hold machine indices, padding
    // beyond `machines` loads +inf; inner node `i` holds the winner of its
    // children `2i` and `2i + 1`, the left one on equal loads. Left
    // subtrees hold the lower indices, so the root is the lowest-index
    // least-loaded machine.
    let leaves = machines.next_power_of_two();
    let mut stack_loads = [0.0f64; MAKESPAN_STACK_MACHINES];
    let mut stack_winner = [0u32; 2 * MAKESPAN_STACK_MACHINES];
    let (mut heap_loads, mut heap_winner) = (Vec::new(), Vec::new());
    let (loads, winner): (&mut [f64], &mut [u32]) = if leaves <= MAKESPAN_STACK_MACHINES {
        (&mut stack_loads[..leaves], &mut stack_winner[..2 * leaves])
    } else {
        heap_loads.resize(leaves, 0.0);
        heap_winner.resize(2 * leaves, 0);
        (&mut heap_loads, &mut heap_winner)
    };
    let idle = jobs.iter().take(machines).take_while(|&&j| j > 0.0).count();
    for (m, &j) in jobs[..idle].iter().enumerate() {
        loads[m] = j;
        place(m, 0.0, j);
    }
    if idle < jobs.len() {
        loads[machines..].fill(f64::INFINITY);
        let pick = |loads: &[f64], a: u32, b: u32| {
            if loads[b as usize] < loads[a as usize] {
                b
            } else {
                a
            }
        };
        for (m, w) in winner[leaves..].iter_mut().enumerate() {
            *w = m as u32;
        }
        for i in (1..leaves).rev() {
            winner[i] = pick(loads, winner[2 * i], winner[2 * i + 1]);
        }
        for &j in &jobs[idle..] {
            // Node 1 is the root (with one machine, the lone leaf).
            let m = winner[1] as usize;
            let start = loads[m];
            loads[m] += j;
            place(m, start, loads[m]);
            let mut i = (leaves + m) / 2;
            while i >= 1 {
                winner[i] = pick(loads, winner[2 * i], winner[2 * i + 1]);
                i /= 2;
            }
        }
    }
    loads[..machines]
        .iter()
        .fold(0.0, |acc, &l| f64::max(acc, l))
}

/// A record of one simulated kernel launch.
#[derive(Debug, Clone)]
pub struct LaunchRecord {
    /// Kernel name.
    pub name: &'static str,
    /// Algorithm phase active at launch time ([`crate::GpuContext::set_phase`]).
    pub phase: &'static str,
    /// Grid geometry of the launch.
    pub config: LaunchConfig,
    /// Sim-clock timestamp at which the launch was issued, seconds.
    pub start_s: f64,
    /// Simulated duration of this launch, in seconds.
    pub time_s: f64,
    /// Summed counters over all blocks.
    pub counters: Counters,
    /// Roofline decomposition of `time_s` (launch / compute / bandwidth).
    pub roofline: Roofline,
    /// Every block's priced cycle count, in dispatch order — the input the
    /// Perfetto rendering replays through [`makespan`] to place each block.
    pub block_cycles: Vec<f64>,
    /// Per-block counter deltas, recorded only when block profiling is on
    /// ([`crate::GpuContext::set_block_profiling`]) — `counters` is their sum.
    pub block_counters: Option<Vec<Counters>>,
}

impl LaunchRecord {
    /// Largest single-block cycle count (load-imbalance diagnostics).
    pub fn max_block_cycles(&self) -> f64 {
        self.block_cycles.iter().copied().fold(0.0, f64::max)
    }

    /// Total cycle count across blocks, summed in dispatch order.
    pub fn sum_block_cycles(&self) -> f64 {
        self.block_cycles.iter().sum()
    }
}

/// Direction of a recorded host↔device copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum TransferDir {
    /// Host → device (`cudaMemcpyHostToDevice`).
    HostToDevice,
    /// Device → host (`cudaMemcpyDeviceToHost`).
    DeviceToHost,
}

/// A record of one simulated host↔device transfer.
#[derive(Debug, Clone, Serialize)]
pub struct TransferRecord {
    /// Algorithm phase active at transfer time.
    pub phase: &'static str,
    /// Sim-clock timestamp at which the copy was issued, seconds.
    pub start_s: f64,
    /// Copy direction.
    pub dir: TransferDir,
    /// Payload size.
    pub bytes: u64,
    /// Simulated duration (PCIe latency + bytes / PCIe bandwidth), seconds.
    pub time_s: f64,
}

/// One host-sampled point on a named counter track (e.g. per-round frontier
/// size), timestamped with the sim clock at the moment of sampling. Sampling
/// is free (no simulated cost) — it is pure observability, recorded by
/// [`crate::GpuContext::sample_counter`] and exported as a Perfetto counter
/// track.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct CounterSample {
    /// Track name (`"frontier"`, `"changed"`, …).
    pub track: &'static str,
    /// Algorithm phase active at sampling time.
    pub phase: &'static str,
    /// Sim-clock timestamp, seconds.
    pub time_s: f64,
    /// Sampled value.
    pub value: f64,
}

/// Summary of a whole simulated program run.
#[derive(Debug, Clone, Default)]
pub struct SimReport {
    /// Total simulated time (kernels + transfers), milliseconds.
    pub total_ms: f64,
    /// Number of kernel launches.
    pub launches: u64,
    /// Host→device bytes moved.
    pub h2d_bytes: u64,
    /// Device→host bytes moved.
    pub d2h_bytes: u64,
    /// Peak device memory, bytes.
    pub peak_mem_bytes: u64,
    /// Grand-total counters.
    pub counters: Counters,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every job's `(machine, start, end)`, in job order, and the makespan.
    fn schedule(jobs: &[f64], machines: usize) -> (Vec<(usize, f64, f64)>, f64) {
        let mut placed = Vec::new();
        let horizon = makespan(jobs, machines, |m, start, end| placed.push((m, start, end)));
        (placed, horizon)
    }

    #[test]
    fn makespan_balances() {
        // 4 equal jobs on 2 machines -> 2 jobs each
        assert_eq!(schedule(&[1.0, 1.0, 1.0, 1.0], 2).1, 2.0);
        // one big job dominates
        assert_eq!(schedule(&[10.0, 1.0, 1.0], 4).1, 10.0);
        // empty
        assert_eq!(schedule(&[], 8).1, 0.0);
        // more machines than jobs
        assert_eq!(schedule(&[3.0, 2.0], 56).1, 3.0);
    }

    #[test]
    fn makespan_matches_a_linear_min_scan() {
        // The tournament tree must pick what a linear scan for the
        // lowest-index least-loaded machine picks, job by job, and so make
        // bit-identical float sums, below, at and above the allocation-free
        // machine count, with tied loads and zero-cycle jobs. The sets made
        // per machine count aim at the idle-machine prefix: its first zero
        // job at index 1, `m - 1` or `m`, fewer jobs than machines, and
        // exactly `m` jobs.
        let positive = |n: usize| -> Vec<f64> { (0..n).map(|i| (i % 5) as f64 + 0.5).collect() };
        let zero_at = |at: usize, m: usize| {
            let mut jobs = positive(m + 40);
            jobs[at] = 0.0;
            jobs
        };
        let job_sets: [Vec<f64>; 3] = [
            (0..108).map(|i| ((i * 37 % 19) as f64) + 0.25).collect(),
            (0..700).map(|i| [0.0, 3.0, 3.0, 0.5][i % 4]).collect(),
            (0..500)
                .map(|i| {
                    if i % 3 == 0 {
                        0.0
                    } else {
                        (i % 7) as f64 * 0.1
                    }
                })
                .collect(),
        ];
        for m in [1usize, 2, 56, 128, 129, 300] {
            let prefix_sets = [
                zero_at(1, m),
                zero_at(m - 1, m),
                zero_at(m, m),
                positive(m / 2),
                positive(m),
            ];
            for jobs in job_sets.iter().chain(&prefix_sets) {
                let mut loads = vec![0.0f64; m];
                let mut expect = Vec::new();
                for &j in jobs {
                    let idx = (0..m).min_by(|&a, &b| loads[a].total_cmp(&loads[b]));
                    let idx = idx.unwrap();
                    expect.push((idx, loads[idx], loads[idx] + j));
                    loads[idx] += j;
                }
                let (placed, horizon) = schedule(jobs, m);
                assert_eq!(placed, expect, "{m} machines, {} jobs", jobs.len());
                let expect = loads.into_iter().fold(0.0, f64::max);
                assert_eq!(horizon.to_bits(), expect.to_bits());
            }
        }
    }

    #[test]
    fn roofline_picks_binding_constraint() {
        let p = CostParams::p100();
        // pure compute: 1 block, lots of instructions, no traffic
        let t_compute = p.roofline(&[1.33e9], 0).total_s(); // 1e9-cycle block = 1 s
        assert!((t_compute - (1.0 + p.kernel_launch_s)).abs() < 1e-9);
        // pure memory: trivial compute, 732 GB of traffic = 1 s
        let t_mem = p.roofline(&[1.0], 732_000_000_000).total_s();
        assert!((t_mem - (1.0 + p.kernel_launch_s)).abs() < 1e-6);
    }

    #[test]
    fn block_cycles_sums_components() {
        let p = CostParams::p100();
        let c = Counters {
            global_tx: 2,
            global_sectors: 3,
            dependent_reads: 1,
            global_atomics: 1,
            shared_atomics: 1,
            shared_accesses: 1,
            warp_instrs: 10,
            barriers: 1,
        };
        let expect = 2.0 * p.tx_issue_cycles
            + 3.0 * p.sector_issue_cycles
            + p.dependent_latency_cycles
            + p.global_atomic_cycles
            + p.shared_atomic_cycles
            + p.shared_access_cycles
            + 10.0 * p.instr_cycles
            + p.barrier_cycles;
        assert_eq!(p.block_cycles(&c), expect);
        assert_eq!(p.traffic_bytes(&c), 2 * 128 + 3 * 32 + 32 + 32);
    }

    #[test]
    fn counters_merge() {
        let mut a = Counters {
            global_tx: 1,
            ..Default::default()
        };
        let b = Counters {
            global_tx: 2,
            warp_instrs: 5,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.global_tx, 3);
        assert_eq!(a.warp_instrs, 5);
    }

    #[test]
    fn flat_sum_matches_serial_merge() {
        // every length around the 4-lane chunk boundary, with all fields live
        for len in 0..=11usize {
            let items: Vec<Counters> = (0..len)
                .map(|i| {
                    let mut w = [0u64; 8];
                    for (j, slot) in w.iter_mut().enumerate() {
                        *slot = (i as u64 + 1) * 1_000_003 + j as u64 * 7919;
                    }
                    Counters::from_words(w)
                })
                .collect();
            let mut serial = Counters::default();
            for c in &items {
                serial.merge(c);
            }
            assert_eq!(Counters::flat_sum(&items), serial, "len={len}");
        }
    }

    #[test]
    fn counters_words_round_trip() {
        let c = Counters {
            global_tx: 1,
            global_sectors: 2,
            dependent_reads: 3,
            global_atomics: 4,
            shared_atomics: 5,
            shared_accesses: 6,
            warp_instrs: 7,
            barriers: 8,
        };
        assert_eq!(Counters::from_words(c.to_words()), c);
    }

    #[test]
    fn launch_overhead_dominates_empty_kernel() {
        let p = CostParams::p100();
        let t = p.roofline(&[0.0; 108], 0).total_s();
        assert!((t - p.kernel_launch_s).abs() < 1e-12);
    }
}
