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
//!
//! Constants for the paper's test device are in [`CostParams::p100`]; each
//! value cites its source. The model is calibrated for *relative* orderings
//! (which algorithm wins, by roughly what factor), not absolute times —
//! EXPERIMENTS.md quantifies the match.

use crate::exec::LaunchConfig;
use serde::Serialize;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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

    /// Flat-combining sum of a counter slice: four fixed-width accumulator
    /// lanes of 8 words each, combined at the end — a shape the
    /// auto-vectorizer turns into packed 64-bit adds. Because u64 addition
    /// is associative and commutative, the total is bit-identical to a
    /// serial [`Counters::merge`] loop (pinned by a unit test), so launch
    /// epilogues and trace rollups can use it freely without perturbing a
    /// single golden byte.
    pub fn flat_sum(items: &[Counters]) -> Counters {
        const LANES: usize = 4;
        let mut acc = [[0u64; 8]; LANES];
        let mut chunks = items.chunks_exact(LANES);
        for chunk in &mut chunks {
            for (lane, c) in acc.iter_mut().zip(chunk) {
                let w = c.to_words();
                for (a, x) in lane.iter_mut().zip(w) {
                    *a += x;
                }
            }
        }
        let mut total = [0u64; 8];
        for lane in &acc {
            for (t, a) in total.iter_mut().zip(lane) {
                *t += a;
            }
        }
        for c in chunks.remainder() {
            for (t, x) in total.iter_mut().zip(c.to_words()) {
                *t += x;
            }
        }
        Counters::from_words(total)
    }

    /// [`Counters::flat_sum`] over an iterator (e.g. a projection of launch
    /// records): round-robins items across the same four word-array lanes.
    /// Identical totals to a serial merge loop, for the same reason.
    pub fn flat_sum_iter<'a>(items: impl Iterator<Item = &'a Counters>) -> Counters {
        const LANES: usize = 4;
        let mut acc = [[0u64; 8]; LANES];
        for (i, c) in items.enumerate() {
            let lane = &mut acc[i % LANES];
            for (a, x) in lane.iter_mut().zip(c.to_words()) {
                *a += x;
            }
        }
        let mut total = [0u64; 8];
        for lane in &acc {
            for (t, a) in total.iter_mut().zip(lane) {
                *t += a;
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
    /// Maximum resident threads per SM (occupancy ceiling).
    pub max_threads_per_sm: u32,
    /// Maximum resident blocks per SM (hardware scheduler limit).
    pub max_blocks_per_sm: u32,
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
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
        }
    }

    /// Blocks of `cfg`'s width that can be *resident* on one SM at once:
    /// the thread-count ceiling (`max_threads_per_sm / BLK_DIM`) clamped by
    /// the hardware block-scheduler limit, never below one. With the paper's
    /// 1024-thread blocks a P100 SM holds 2 blocks.
    pub fn occupancy(&self, cfg: &LaunchConfig) -> u32 {
        (self.max_threads_per_sm / cfg.threads_per_block.max(1))
            .min(self.max_blocks_per_sm)
            .max(1)
    }

    /// Compute cycles a block's counters cost on one SM.
    pub fn block_cycles(&self, c: &Counters) -> f64 {
        c.global_tx as f64 * self.tx_issue_cycles
            + c.global_sectors as f64 * self.sector_issue_cycles
            + c.dependent_reads as f64 * self.dependent_latency_cycles
            + c.global_atomics as f64 * self.global_atomic_cycles
            + c.shared_atomics as f64 * self.shared_atomic_cycles
            + c.shared_accesses as f64 * self.shared_access_cycles
            + c.warp_instrs as f64 * self.instr_cycles
            + c.barriers as f64 * self.barrier_cycles
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
        let makespan = makespan(block_cycles, self.sm_count as usize);
        Roofline {
            launch_overhead_s: self.kernel_launch_s,
            compute_s: makespan / self.clock_hz,
            mem_s: total_traffic_bytes as f64 / self.mem_bandwidth,
        }
    }

    /// Kernel time: launch overhead + roofline of compute makespan vs
    /// bandwidth (see [`CostParams::roofline`] for the decomposition).
    pub fn kernel_time_s(&self, block_cycles: &[f64], total_traffic_bytes: u64) -> f64 {
        self.roofline(block_cycles, total_traffic_bytes).total_s()
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

/// One block's placement in the per-SM schedule of a launch
/// ([`schedule_blocks`]): which SM (and residency slot on it) ran the block
/// and over which simulated cycle interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct BlockSchedule {
    /// Block index within the grid (`blockIdx.x`).
    pub block: u32,
    /// SM the block ran on.
    pub sm: u32,
    /// Residency slot on that SM (0-based; bounded by
    /// [`CostParams::occupancy`]).
    pub slot: u32,
    /// Cycle at which the block began executing, relative to launch start.
    pub start_cycles: f64,
    /// Cycle at which the block retired.
    pub end_cycles: f64,
}

/// Deterministic per-SM block scheduling of a launch: each of `sm_count` SMs
/// offers `occupancy` residency slots; a slot executes its blocks
/// back-to-back. Blocks dispatch in index order to the earliest-free slot
/// (ties → lowest SM, then lowest slot), so uniform grids round-robin across
/// the SMs first and only then stack residency — the hardware's "as thread
/// blocks terminate, new blocks are launched on the vacated SMs" behaviour
/// with occupancy-limited residency. The returned spans drive the
/// [`crate::timeline::Timeline`] events; their makespan is the schedule's
/// compute horizon.
pub fn schedule_blocks(block_cycles: &[f64], sm_count: u32, occupancy: u32) -> Vec<BlockSchedule> {
    let sms = sm_count.max(1) as usize;
    let occ = occupancy.max(1) as usize;
    // context index = slot * sms + sm, so the tie-break "lowest context
    // index" fills slot 0 of every SM before any SM hosts a second block.
    // A min-heap keyed (free_at, ctx) pops exactly the lexicographic
    // minimum the old linear min-scan selected, so assignments — and the
    // float addition order behind every timestamp — are bit-identical,
    // in O(blocks log contexts) instead of O(blocks · contexts).
    let mut heap: BinaryHeap<Reverse<SlotKey>> =
        (0..sms * occ).map(|i| Reverse(SlotKey(0.0, i))).collect();
    block_cycles
        .iter()
        .enumerate()
        .map(|(b, &cycles)| {
            let Reverse(SlotKey(start, ctx_idx)) = heap.pop().unwrap();
            let end = start + cycles;
            heap.push(Reverse(SlotKey(end, ctx_idx)));
            BlockSchedule {
                block: b as u32,
                sm: (ctx_idx % sms) as u32,
                slot: (ctx_idx / sms) as u32,
                start_cycles: start,
                end_cycles: end,
            }
        })
        .collect()
}

/// Heap key for the greedy schedulers: least load first, ties broken by
/// lowest machine/context index — the order the old linear `min_by` scans
/// established. `total_cmp` orders a NaN load (a NaN cost constant) too.
#[derive(PartialEq)]
struct SlotKey(f64, usize);

impl Eq for SlotKey {}

impl PartialOrd for SlotKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SlotKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
    }
}

/// Machine counts [`makespan`] schedules without allocating: every SM count
/// a [`CostParams`] preset uses.
const MAKESPAN_STACK_MACHINES: usize = 128;

/// Greedy list-scheduling makespan of `jobs` on `machines` (dispatch order,
/// least-loaded machine first, lowest index on load ties) — how block grids
/// fill SMs. A tournament tree keeps the least-loaded machine at its root,
/// so each job costs O(log machines); the picks, and so the float sums, are
/// those of a linear min-scan.
pub fn makespan(jobs: &[f64], machines: usize) -> f64 {
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
    for &j in jobs {
        // Node 1 is the root (with one machine, the lone leaf).
        let m = winner[1] as usize;
        loads[m] += j;
        let mut i = (leaves + m) / 2;
        while i >= 1 {
            winner[i] = pick(loads, winner[2 * i], winner[2 * i + 1]);
            i /= 2;
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
    /// Largest single-block cycle count (load-imbalance diagnostics).
    pub max_block_cycles: f64,
    /// Total cycle count across blocks.
    pub sum_block_cycles: f64,
    /// Every block's priced cycle count, in dispatch order — the input the
    /// timeline's per-SM scheduler replays ([`schedule_blocks`]).
    pub block_cycles: Vec<f64>,
    /// Per-block counter deltas, recorded only when block profiling is on
    /// ([`crate::GpuContext::set_block_profiling`]) — `counters` is their sum.
    pub block_counters: Option<Vec<Counters>>,
}

impl LaunchRecord {
    /// Number of blocks in the launch grid.
    pub fn blocks(&self) -> u32 {
        self.config.blocks
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

    #[test]
    fn makespan_balances() {
        // 4 equal jobs on 2 machines -> 2 jobs each
        assert_eq!(makespan(&[1.0, 1.0, 1.0, 1.0], 2), 2.0);
        // one big job dominates
        assert_eq!(makespan(&[10.0, 1.0, 1.0], 4), 10.0);
        // empty
        assert_eq!(makespan(&[], 8), 0.0);
        // more machines than jobs
        assert_eq!(makespan(&[3.0, 2.0], 56), 3.0);
    }

    #[test]
    fn makespan_scan_matches_heap() {
        // The tournament tree must make bit-identical float sums to a heap
        // of (load, index) keys (same per-job machine selection), below,
        // at and above the allocation-free machine count, with tied loads
        // and zero-cycle jobs.
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
        for jobs in &job_sets {
            for m in [1usize, 2, 56, 128, 129, 300] {
                let mut heap: BinaryHeap<Reverse<SlotKey>> =
                    (0..m).map(|i| Reverse(SlotKey(0.0, i))).collect();
                for &j in jobs {
                    let Reverse(SlotKey(load, idx)) = heap.pop().unwrap();
                    heap.push(Reverse(SlotKey(load + j, idx)));
                }
                let expect = heap
                    .into_iter()
                    .map(|Reverse(SlotKey(l, _))| l)
                    .fold(0.0, f64::max);
                assert_eq!(
                    makespan(jobs, m).to_bits(),
                    expect.to_bits(),
                    "{m} machines, {} jobs",
                    jobs.len()
                );
            }
        }
    }

    #[test]
    fn roofline_picks_binding_constraint() {
        let p = CostParams::p100();
        // pure compute: 1 block, lots of instructions, no traffic
        let t_compute = p.kernel_time_s(&[1.33e9], 0); // 1e9-cycle block = 1 s
        assert!((t_compute - (1.0 + p.kernel_launch_s)).abs() < 1e-9);
        // pure memory: trivial compute, 732 GB of traffic = 1 s
        let t_mem = p.kernel_time_s(&[1.0], 732_000_000_000);
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
    fn occupancy_respects_thread_and_block_limits() {
        let p = CostParams::p100();
        let cfg = |tpb: u32| LaunchConfig {
            blocks: 108,
            threads_per_block: tpb,
        };
        assert_eq!(p.occupancy(&cfg(1024)), 2); // 2048 / 1024
        assert_eq!(p.occupancy(&cfg(256)), 8);
        assert_eq!(p.occupancy(&cfg(32)), 32); // block-scheduler limit binds
        assert_eq!(p.occupancy(&cfg(2048)), 1);
    }

    #[test]
    fn schedule_round_robins_before_stacking_residency() {
        // 6 equal blocks, 4 SMs, occupancy 2: blocks 0-3 land on SMs 0-3
        // slot 0 at cycle 0; blocks 4-5 stack onto slot 1 of SMs 0-1.
        let s = schedule_blocks(&[10.0; 6], 4, 2);
        for b in 0..4 {
            assert_eq!((s[b].sm, s[b].slot, s[b].start_cycles), (b as u32, 0, 0.0));
        }
        assert_eq!((s[4].sm, s[4].slot), (0, 1));
        assert_eq!((s[5].sm, s[5].slot), (1, 1));
        assert_eq!(s[5].end_cycles, 10.0);
    }

    #[test]
    fn schedule_backfills_vacated_slots() {
        // occupancy 1, 2 SMs: the third block waits for the earliest SM.
        let s = schedule_blocks(&[5.0, 20.0, 7.0], 2, 1);
        assert_eq!(
            (s[2].sm, s[2].start_cycles, s[2].end_cycles),
            (0, 5.0, 12.0)
        );
        // schedule makespan matches the greedy makespan on the same machines
        let horizon = s.iter().map(|b| b.end_cycles).fold(0.0, f64::max);
        assert_eq!(horizon, makespan(&[5.0, 20.0, 7.0], 2));
    }

    #[test]
    fn schedule_is_deterministic_and_covers_all_blocks() {
        let cycles: Vec<f64> = (0..200).map(|i| ((i * 37) % 97) as f64).collect();
        let a = schedule_blocks(&cycles, 56, 2);
        let b = schedule_blocks(&cycles, 56, 2);
        assert_eq!(a, b);
        assert_eq!(a.len(), 200);
        for (i, sp) in a.iter().enumerate() {
            assert_eq!(sp.block as usize, i);
            assert!(sp.sm < 56 && sp.slot < 2);
            assert!((sp.end_cycles - sp.start_cycles - cycles[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn launch_overhead_dominates_empty_kernel() {
        let p = CostParams::p100();
        let t = p.kernel_time_s(&[0.0; 108], 0);
        assert!((t - p.kernel_launch_s).abs() < 1e-12);
    }
}
