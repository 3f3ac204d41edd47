//! Configuration of the GPU peeling algorithm and its optimization variants.
//!
//! Table II ablates nine versions: {basic, BC, EC} × {no buffering, SM, VP}.
//! [`PeelConfig`] encodes that matrix plus the grid geometry and buffer
//! capacities of §VI ("BLK_NUM = 108 blocks, each with BLK_DIM = 1024
//! threads", per-block global buffer of 1 M vertex IDs, shared buffer of
//! 10 000 IDs).

use kcore_gpusim::LaunchConfig;

/// How new k-shell vertices are appended to the block buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Compaction {
    /// One `atomicAdd(e, 1)` per appended vertex — the basic algorithm
    /// ("Ours"). The §VI finding is that this simplest scheme wins.
    None,
    /// **BC** — warp-level ballot compaction (Fig. 8(c)) in both kernels:
    /// offsets via `__ballot_sync` + `__popc`, one `atomicAdd` per warp batch.
    Ballot,
    /// **EC** — "efficient" compaction: block-level two-stage scan (Fig. 9)
    /// in the scan kernel, warp-level ballot in the loop kernel.
    Efficient,
}

/// How the loop kernel reads/writes frontier vertices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Buffering {
    /// Directly against the global-memory block buffer.
    Global,
    /// **SM** — shared-memory buffering (Fig. 7): the first
    /// `shared_buf_capacity` appended vertices live in block shared memory;
    /// every buffered access pays the position-translation case check.
    SharedMem,
    /// **VP** — vertex frontier prefetching: warp 0 prefetches the next
    /// batch of frontier vertices into shared memory while the other 31
    /// warps compute, hiding the dependent-read latency at the price of one
    /// compute warp.
    Prefetch,
}

/// Full configuration of a peeling run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeelConfig {
    /// Grid geometry.
    pub launch: LaunchConfig,
    /// Per-block global buffer capacity, in vertex IDs.
    pub buf_capacity: usize,
    /// Shared-memory buffer capacity in vertex IDs (used by
    /// [`Buffering::SharedMem`]).
    pub shared_buf_capacity: usize,
    /// Append strategy.
    pub compaction: Compaction,
    /// Frontier buffering strategy.
    pub buffering: Buffering,
    /// Organize block buffers as ring buffers (§IV-C) so consumed slots are
    /// recycled; disabling reverts to the plain fixed array that overflows
    /// once `e` reaches capacity.
    pub ring_buffer: bool,
}

impl Default for PeelConfig {
    fn default() -> Self {
        PeelConfig {
            launch: LaunchConfig::paper(),
            buf_capacity: 1_000_000,
            shared_buf_capacity: 10_000,
            compaction: Compaction::None,
            buffering: Buffering::Global,
            ring_buffer: true,
        }
    }
}

impl PeelConfig {
    /// The basic algorithm — the paper's "Ours".
    pub fn ours() -> Self {
        Self::default()
    }

    /// Shared-memory buffering variant.
    pub fn sm() -> Self {
        PeelConfig {
            buffering: Buffering::SharedMem,
            ..Self::default()
        }
    }

    /// Vertex-prefetching variant.
    pub fn vp() -> Self {
        PeelConfig {
            buffering: Buffering::Prefetch,
            ..Self::default()
        }
    }

    /// Ballot-compaction variant.
    pub fn bc() -> Self {
        PeelConfig {
            compaction: Compaction::Ballot,
            ..Self::default()
        }
    }

    /// Efficient (block-level) compaction variant.
    pub fn ec() -> Self {
        PeelConfig {
            compaction: Compaction::Efficient,
            ..Self::default()
        }
    }

    /// Applies a buffering strategy on top of `self` (builder style).
    pub fn with_buffering(mut self, b: Buffering) -> Self {
        self.buffering = b;
        self
    }

    /// Applies an append strategy on top of `self` (builder style).
    pub fn with_compaction(mut self, c: Compaction) -> Self {
        self.compaction = c;
        self
    }

    /// Overrides buffer capacity (IDs per block).
    pub fn with_buf_capacity(mut self, cap: usize) -> Self {
        self.buf_capacity = cap;
        self
    }

    /// Overrides grid geometry.
    pub fn with_launch(mut self, launch: LaunchConfig) -> Self {
        self.launch = launch;
        self
    }

    /// The Table II column name of this variant.
    pub fn variant_name(&self) -> &'static str {
        match (self.compaction, self.buffering) {
            (Compaction::None, Buffering::Global) => "Ours",
            (Compaction::None, Buffering::SharedMem) => "SM",
            (Compaction::None, Buffering::Prefetch) => "VP",
            (Compaction::Ballot, Buffering::Global) => "BC",
            (Compaction::Ballot, Buffering::SharedMem) => "BC+SM",
            (Compaction::Ballot, Buffering::Prefetch) => "BC+VP",
            (Compaction::Efficient, Buffering::Global) => "EC",
            (Compaction::Efficient, Buffering::SharedMem) => "EC+SM",
            (Compaction::Efficient, Buffering::Prefetch) => "EC+VP",
        }
    }

    /// All nine Table II variants, in the table's column order, derived from
    /// `self`'s geometry/capacities.
    pub fn all_variants(&self) -> Vec<PeelConfig> {
        let mut out = Vec::with_capacity(9);
        for c in [Compaction::None, Compaction::Ballot, Compaction::Efficient] {
            for b in [Buffering::Global, Buffering::SharedMem, Buffering::Prefetch] {
                out.push(PeelConfig {
                    compaction: c,
                    buffering: b,
                    ..*self
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = PeelConfig::default();
        assert_eq!(c.launch.blocks, 108);
        assert_eq!(c.launch.threads_per_block, 1024);
        assert_eq!(c.buf_capacity, 1_000_000);
        assert_eq!(c.shared_buf_capacity, 10_000);
        assert!(c.ring_buffer);
    }

    #[test]
    fn variant_names() {
        assert_eq!(PeelConfig::ours().variant_name(), "Ours");
        assert_eq!(PeelConfig::sm().variant_name(), "SM");
        assert_eq!(PeelConfig::vp().variant_name(), "VP");
        assert_eq!(PeelConfig::bc().variant_name(), "BC");
        assert_eq!(PeelConfig::ec().variant_name(), "EC");
        assert_eq!(
            PeelConfig::bc()
                .with_buffering(Buffering::SharedMem)
                .variant_name(),
            "BC+SM"
        );
        assert_eq!(
            PeelConfig::ec()
                .with_buffering(Buffering::Prefetch)
                .variant_name(),
            "EC+VP"
        );
    }

    #[test]
    fn all_variants_covers_table2() {
        let names: Vec<_> = PeelConfig::default()
            .all_variants()
            .iter()
            .map(|v| v.variant_name())
            .collect();
        assert_eq!(
            names,
            vec!["Ours", "SM", "VP", "BC", "BC+SM", "BC+VP", "EC", "EC+SM", "EC+VP"]
        );
    }
}
