//! Workload inputs: the seeded stand-in graphs, their SNAP edge-list files,
//! the paper scaling the table harness applies, and the valid churn stream.

use kcore_gpu::PeelConfig;
use kcore_gpusim::{LaunchConfig, SimOptions};
use kcore_graph::datasets::{self, Dataset, GenSpec, PaperRow};
use kcore_graph::{gen, Csr, EdgeUpdate};
use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::path::Path;

/// The four workloads. Each stresses a different part of the program; the
/// README says which, and which later change each one should move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PeelDeep,
    PeelHub,
    DynChurn,
    ShardP4,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PeelDeep,
        Workload::PeelHub,
        Workload::DynChurn,
        Workload::ShardP4,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PeelDeep => "peel-deep",
            Workload::PeelHub => "peel-hub",
            Workload::DynChurn => "dyn-churn",
            Workload::ShardP4 => "shard-p4",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Rayon width the workload runs at. `peel-hub` is the one workload on
    /// the engine's parallel path; the rest measure the serial path.
    pub fn threads(self) -> usize {
        match self {
            Workload::PeelHub => 2,
            _ => 1,
        }
    }

    /// Distinct tag mixed into the run seed, so workloads draw unrelated
    /// streams from one `--seed`.
    fn tag(self) -> u64 {
        match self {
            Workload::PeelDeep => 1,
            Workload::PeelHub => 2,
            Workload::DynChurn => 3,
            Workload::ShardP4 => 4,
        }
    }
}

/// Input size: the benchmark proper, or the miniature `--check` smoke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Check,
}

/// Updates per `dyn-churn` batch.
pub const CHURN_BATCH: usize = 64;

/// SplitMix64: the benchmark's only random source, so every input is a
/// function of the seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Derives the seed of one input stream of `workload` from the run seed.
pub fn derive(seed: u64, workload: Workload, stream: u64) -> u64 {
    Rng::new(seed ^ (workload.tag() << 56) ^ (stream << 48)).next_u64()
}

/// Generates the workload's graph and, for the Table I stand-ins, the
/// paper row the table harness scales the simulator by.
///
/// The structure is the registry's, with its fixed generator seed: which
/// graph a workload peels is part of the workload's definition. Over ten
/// seed-drawn com-Orkut stand-ins the simulated peel time ranged 6.6 to
/// 15.5 ms, so seeding the structure would turn run-to-run spread into a
/// change of workload.
/// The run seed instead relabels the graph (through the edge-list line
/// order), sets the schedule seeds and draws the update stream.
pub fn generate(w: Workload, scale: Scale) -> (Csr, Option<PaperRow>) {
    // The smoke subset shrinks the stand-ins it holds; com-Orkut is not
    // among them and is shrunk below.
    let stand_in = |name: &str| -> Dataset {
        let smoke = match scale {
            Scale::Full => None,
            Scale::Check => datasets::smoke_subset()
                .into_iter()
                .find(|d| d.name == name),
        };
        smoke
            .or_else(|| datasets::by_name(name))
            .expect("stand-in is in the dataset registry")
    };
    let dataset = match (w, scale) {
        (Workload::PeelDeep, Scale::Full) => stand_in("com-Orkut"),
        (Workload::PeelDeep, Scale::Check) => Dataset {
            spec: GenSpec::Rmat {
                scale: 11,
                m: 40_000,
            },
            core_boost: 24,
            ..stand_in("com-Orkut")
        },
        (Workload::PeelHub, _) => stand_in("wiki-Talk"),
        (Workload::ShardP4, _) => stand_in("amazon0601"),
        (Workload::DynChurn, _) => {
            let (s, m) = match scale {
                Scale::Full => (16, 262_144),
                Scale::Check => (10, 4_096),
            };
            // Seed 7 is the dynamic table's graph.
            return (gen::rmat(s, m, gen::RmatParams::graph500(), 7), None);
        }
    };
    (dataset.generate(), Some(dataset.paper))
}

/// Writes `g` as a SNAP edge list: a comment header, then each undirected
/// edge once, in a seeded random line order and orientation.
pub fn write_edge_list(g: &Csr, path: &Path, seed: u64) -> std::io::Result<()> {
    let mut rng = Rng::new(seed);
    let mut edges: Vec<(u32, u32)> = g.edges().collect();
    for i in (1..edges.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        edges.swap(i, j);
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        w,
        "# Undirected graph: {} nodes, {} edges",
        g.num_vertices(),
        edges.len()
    )?;
    writeln!(w, "# FromNodeId\tToNodeId")?;
    for (u, v) in edges {
        if rng.next_u64() & 1 == 0 {
            writeln!(w, "{u}\t{v}")?;
        } else {
            writeln!(w, "{v}\t{u}")?;
        }
    }
    w.flush()
}

/// The simulator options and peel configuration the table harness derives
/// for a stand-in of `paper` (its `prepare`): device capacity, time budget
/// and fixed per-event costs scale with `paper |E| / stand-in |E|`, and the
/// block width with the vertex ratio, so fixed-to-variable cost ratios stay
/// paper-comparable.
pub fn paper_scaled(g: &Csr, paper: &PaperRow) -> (SimOptions, PeelConfig) {
    const PAPER_DEVICE_BYTES: f64 = (16u64 << 30) as f64;
    const PAPER_HOUR_MS: f64 = 3_600_000.0;
    let scale = (paper.num_edges as f64 / g.num_edges().max(1) as f64).max(1.0);
    let mut sim = SimOptions {
        device_capacity_bytes: (PAPER_DEVICE_BYTES / scale) as u64,
        time_limit_ms: Some(PAPER_HOUR_MS / scale),
        ..SimOptions::default()
    };
    sim.cost.kernel_launch_s /= scale;
    sim.cost.pcie_latency_s /= scale;
    let vertex_scale = (paper.num_vertices as f64 / f64::from(g.num_vertices().max(1))).max(1.0);
    let dim = (((1024.0 / vertex_scale) as u32) / 32 * 32).clamp(32, 1024);
    sim.cost.barrier_cycles = f64::from(dim / 32);
    let peel = PeelConfig {
        launch: LaunchConfig {
            blocks: 108,
            threads_per_block: dim,
        },
        buf_capacity: ((1_000_000.0 / scale) as usize).max(4_096),
        shared_buf_capacity: ((10_000.0 / scale) as usize).max(64),
        ..PeelConfig::default()
    };
    (sim, peel)
}

/// A stream of valid edge updates against an evolving graph: each update is
/// equally likely a delete of a present edge or an insert of an absent
/// non-loop pair, and no edge appears twice in one batch, so an engine must
/// accept every update.
pub struct Churn {
    n: u32,
    rng: Rng,
    edges: Vec<(u32, u32)>,
    slot: HashMap<(u32, u32), usize>,
}

impl Churn {
    pub fn new(g: &Csr, seed: u64) -> Churn {
        let edges: Vec<(u32, u32)> = g.edges().collect();
        let slot = edges.iter().enumerate().map(|(i, &e)| (e, i)).collect();
        Churn {
            n: g.num_vertices(),
            rng: Rng::new(seed),
            edges,
            slot,
        }
    }

    pub fn next_batch(&mut self, size: usize) -> Vec<EdgeUpdate> {
        let mut touched: HashSet<(u32, u32)> = HashSet::with_capacity(size);
        let mut out = Vec::with_capacity(size);
        while out.len() < size {
            if self.rng.next_u64() & 1 == 0 && !self.edges.is_empty() {
                let i = self.rng.below(self.edges.len() as u64) as usize;
                let e = self.edges[i];
                if !touched.insert(e) {
                    continue;
                }
                self.slot.remove(&e);
                self.edges.swap_remove(i);
                if let Some(&moved) = self.edges.get(i) {
                    self.slot.insert(moved, i);
                }
                out.push(EdgeUpdate::Delete(e.1, e.0));
            } else {
                let u = self.rng.below(u64::from(self.n)) as u32;
                let v = self.rng.below(u64::from(self.n)) as u32;
                let e = (u.min(v), u.max(v));
                if u == v || self.slot.contains_key(&e) || !touched.insert(e) {
                    continue;
                }
                self.slot.insert(e, self.edges.len());
                self.edges.push(e);
                out.push(EdgeUpdate::Insert(u, v));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcore_cpu::incremental::DynamicGraph;

    #[test]
    fn churn_stream_is_valid_and_seeded() {
        let g = gen::rmat(8, 1_500, gen::RmatParams::graph500(), 3);
        let mut oracle = DynamicGraph::from_csr(&g);
        let mut a = Churn::new(&g, 11);
        let mut b = Churn::new(&g, 11);
        let (mut ins, mut del) = (0, 0);
        for _ in 0..40 {
            let batch = a.next_batch(CHURN_BATCH);
            assert_eq!(batch, b.next_batch(CHURN_BATCH), "same seed, same stream");
            let keys: HashSet<(u32, u32)> = batch.iter().map(|u| u.key()).collect();
            assert_eq!(keys.len(), batch.len(), "an edge appears twice in a batch");
            ins += batch.iter().filter(|u| u.is_insert()).count();
            del += batch.iter().filter(|u| !u.is_insert()).count();
            assert_eq!(oracle.apply_batch(&batch).rejected, 0);
        }
        let total = (ins + del) as f64;
        assert!(
            (ins as f64 / total - 0.5).abs() < 0.1,
            "{ins} inserts, {del} deletes"
        );
    }

    #[test]
    fn edge_list_round_trips_through_ingest() {
        let g = gen::rmat(8, 1_000, gen::RmatParams::graph500(), 5);
        let dir = std::env::temp_dir().join(format!("kbench-unit-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.edges");
        write_edge_list(&g, &path, 9).unwrap();
        let (h, _) = kcore_graph::io::load_edge_list(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(h.num_edges(), g.num_edges());
        let mut a = kcore_cpu::bz::core_numbers(&g);
        let mut b = kcore_cpu::bz::core_numbers(&h);
        a.retain(|&c| c > 0);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "ingest preserves the core-number multiset");
    }
}
