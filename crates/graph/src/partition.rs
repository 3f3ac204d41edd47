//! Edge-partitioned sharding of a CSR graph for multi-device decomposition.
//!
//! A [`Partition`] splits the vertex set into `p` contiguous ranges, one
//! per shard, and gives every shard a **compact local-ID CSR**: the shard's
//! own range `owned` is recoded to local IDs `0..num_owned` (`v −
//! owned.start`), the border vertices it can reach on other shards
//! (**ghosts**) occupy `num_owned..num_local`, and the shard's adjacency
//! rows are rewritten in local IDs. Ghost rows are empty — a ghost's
//! adjacency lives on its owner — so a shard's device footprint is
//! `O(owned vertices + ghosts + owned arcs)`, not `O(|V|)` per worker. The
//! ranges tile `0..|V|` in shard order, so the partition stores no
//! per-vertex table: [`Partition::owner_of`] searches the `p` ranges.
//!
//! The strategy, [`PartitionStrategy::BalancedArcs`], cuts the ranges so
//! every shard holds ~`(|arcs| + |rows|) / p` of the per-round kernel work
//! (prefix sums over the global offset array; rows weigh the scan, arcs
//! weigh the loop). Contiguous ownership keeps border sets small on graphs
//! with locality (meshes, paths, web crawls after BFS renumber).
//!
//! A partition is a pure function of `(graph, p)` — no RNG, no thread
//! timing — so it is bit-identical across runs and rayon pool sizes, which
//! the multi-GPU determinism contract builds on.
//!
//! The shard CSR intentionally relaxes two [`Csr`] invariants (it is built
//! through the unchecked constructor): rows are **not symmetric** (ghost
//! rows are empty while owned rows may point at ghosts) and neighbor lists
//! are sorted by *global* ID, which is not monotone in local IDs once
//! ghosts interleave. Both are documented properties of the shard contract,
//! not bugs: the peel kernels never traverse a ghost row and never rely on
//! sorted adjacency.

use crate::csr::{Csr, VertexId};
use serde::Serialize;
use std::ops::Range;

/// How [`Partition::build`] assigns vertices to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionStrategy {
    /// Contiguous vertex ranges with ~equal `arcs + rows` work sums.
    BalancedArcs,
}

impl PartitionStrategy {
    /// Stable lowercase name (bench JSON).
    pub fn name(&self) -> &'static str {
        match self {
            PartitionStrategy::BalancedArcs => "balanced",
        }
    }
}

/// One shard of a [`Partition`]: local-ID compacted CSR plus the recode
/// back to global IDs.
#[derive(Debug, Clone)]
pub struct Shard {
    /// Global IDs of the owned vertices, a non-empty range; the local ID of
    /// owned vertex `v` is `v − owned.start`.
    pub owned: Range<VertexId>,
    /// Global IDs of ghost vertices, ascending; local ID = `num_owned() +
    /// rank`. A ghost is a non-owned vertex adjacent to an owned one.
    pub ghosts: Vec<VertexId>,
    /// Local-ID CSR: rows `0..num_owned()` carry the owned vertices' full
    /// adjacency (owned and ghost neighbors alike, recoded); ghost rows are
    /// empty. See the module docs for the relaxed invariants.
    pub csr: Csr,
    /// Directed arcs whose source is owned here (= `csr.num_arcs()`).
    pub owned_arcs: u64,
}

impl Shard {
    /// Number of owned vertices.
    #[inline]
    pub fn num_owned(&self) -> usize {
        self.owned.len()
    }

    /// Owned + ghost vertices — the shard's device-resident vertex count.
    #[inline]
    pub fn num_local(&self) -> usize {
        self.num_owned() + self.ghosts.len()
    }

    /// Global ID of local vertex `l` (owned or ghost).
    #[inline]
    pub fn global_of(&self, l: usize) -> VertexId {
        match l.checked_sub(self.num_owned()) {
            None => self.owned.start + l as VertexId,
            Some(i) => self.ghosts[i],
        }
    }
}

/// A complete sharding of one graph.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Strategy that produced this partition.
    pub strategy: PartitionStrategy,
    /// The shards, in index order; their owned ranges tile `0..|V|` in this
    /// order.
    pub shards: Vec<Shard>,
}

impl Partition {
    /// Builds a `p`-way partition of `g`. `p` is clamped to `[1, |V|]`
    /// (each shard must own at least one vertex); an empty graph yields an
    /// empty partition.
    pub fn build(g: &Csr, p: usize, strategy: PartitionStrategy) -> Partition {
        let n = g.num_vertices() as usize;
        if n == 0 {
            return Partition {
                strategy,
                shards: Vec::new(),
            };
        }
        let bounds = match strategy {
            PartitionStrategy::BalancedArcs => balanced_arcs_bounds(g, p.clamp(1, n)),
        };
        let mut slot = vec![UNSEEN; n];
        let shards = bounds
            .windows(2)
            .map(|w| build_shard(g, &mut slot, w[0] as VertexId..w[1] as VertexId))
            .collect();
        Partition { strategy, shards }
    }

    /// Number of shards.
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Shard index owning global vertex `v`: a binary search over the `p`
    /// owned ranges. The border exchange never calls it per packet; it walks
    /// each ascending ghost table forward along the ranges instead.
    pub fn owner_of(&self, v: VertexId) -> usize {
        self.shards.partition_point(|s| s.owned.end <= v)
    }

    /// Border structure rollup for observability: per-shard ghost/border-arc
    /// counts and the per-peer breakdown — who each shard's ghosts belong
    /// to, i.e. the static shape of the exchange traffic the fleet ledger
    /// measures dynamically. Pure derivation; deterministic like the
    /// partition itself.
    pub fn stats(&self) -> PartitionStats {
        let shards = self
            .shards
            .iter()
            .enumerate()
            .map(|(s, shard)| {
                // Per-peer ghost counts: each ghost belongs to exactly one
                // other shard.
                let mut peer_ghosts = vec![0u64; self.num_shards()];
                for &gv in &shard.ghosts {
                    peer_ghosts[self.owner_of(gv)] += 1;
                }
                // Border arcs: owned-row endpoints that are ghosts, counted
                // per owning peer (arc multiplicity, unlike the deduped
                // ghost table).
                let num_owned = shard.num_owned();
                let mut peer_arcs = vec![0u64; self.num_shards()];
                let mut border_arcs = 0u64;
                for l in 0..num_owned {
                    for &lu in shard.csr.neighbors(l as u32) {
                        if lu as usize >= num_owned {
                            let gv = shard.ghosts[lu as usize - num_owned];
                            peer_arcs[self.owner_of(gv)] += 1;
                            border_arcs += 1;
                        }
                    }
                }
                let peers = (0..self.num_shards())
                    .filter(|&p| peer_ghosts[p] > 0)
                    .map(|p| PeerStats {
                        peer: p,
                        ghosts: peer_ghosts[p],
                        border_arcs: peer_arcs[p],
                    })
                    .collect();
                ShardStats {
                    shard: s,
                    owned: shard.num_owned() as u64,
                    ghosts: shard.ghosts.len() as u64,
                    owned_arcs: shard.owned_arcs,
                    border_arcs,
                    peers,
                }
            })
            .collect::<Vec<_>>();
        PartitionStats {
            strategy: self.strategy.name(),
            num_shards: self.num_shards(),
            total_ghosts: shards.iter().map(|s: &ShardStats| s.ghosts).sum(),
            total_border_arcs: shards.iter().map(|s| s.border_arcs).sum(),
            shards,
        }
    }
}

/// Output of [`Partition::stats`]: the static border topology of a
/// partition, the denominator for the fleet exchange ledger.
#[derive(Debug, Clone, Serialize)]
pub struct PartitionStats {
    /// Strategy name (`"balanced"`).
    pub strategy: &'static str,
    /// Shard count.
    pub num_shards: usize,
    /// Σ per-shard ghost-table sizes.
    pub total_ghosts: u64,
    /// Σ per-shard border arcs (owned→ghost endpoints).
    pub total_border_arcs: u64,
    /// Per-shard breakdowns, index order.
    pub shards: Vec<ShardStats>,
}

/// One shard's border structure.
#[derive(Debug, Clone, Serialize)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Owned vertices.
    pub owned: u64,
    /// Ghost-table size.
    pub ghosts: u64,
    /// Directed arcs sourced at owned vertices.
    pub owned_arcs: u64,
    /// Owned-row endpoints that land on ghosts.
    pub border_arcs: u64,
    /// Per-peer ghost/border-arc counts, ascending peer index, peers with
    /// at least one ghost only.
    pub peers: Vec<PeerStats>,
}

/// Ghost/border-arc counts against one peer shard.
#[derive(Debug, Clone, Serialize)]
pub struct PeerStats {
    /// Peer shard index (the owner of these ghosts).
    pub peer: usize,
    /// Ghosts of this shard owned by `peer`.
    pub ghosts: u64,
    /// Border arcs from this shard's owned rows into `peer`'s vertices.
    pub border_arcs: u64,
}

/// A [`Partition::build`] scratch `slot` entry outside the shard being built.
const UNSEEN: u32 = u32::MAX;

/// Builds the shard that owns `owned`: ghost discovery + local-ID CSR
/// recode. `slot` is a `|V|`-sized scratch array shared by all shards,
/// [`UNSEEN`] everywhere on entry and on return. While this shard is built
/// it holds each owned and ghost vertex's local ID, so the shard costs
/// O(owned + owned arcs + ghosts·log ghosts) and the whole partition O(|V| +
/// arcs + Σ ghosts·log ghosts).
fn build_shard(g: &Csr, slot: &mut [u32], owned: Range<VertexId>) -> Shard {
    for v in owned.clone() {
        slot[v as usize] = v - owned.start;
    }
    // The owned rows are one slice of the global adjacency array.
    let (lo, hi) = (owned.start as usize, owned.end as usize);
    let arcs = &g.neighbor_array()[g.offsets()[lo] as usize..g.offsets()[hi] as usize];
    // Ghosts: every non-owned endpoint of an owned row, deduped, ascending.
    let mut ghosts: Vec<VertexId> = Vec::new();
    for &u in arcs {
        if slot[u as usize] == UNSEEN {
            // Any value but UNSEEN marks it found; its local ID follows.
            slot[u as usize] = 0;
            ghosts.push(u);
        }
    }
    ghosts.sort_unstable();
    let num_owned = owned.len();
    for (i, &u) in ghosts.iter().enumerate() {
        slot[u as usize] = (num_owned + i) as u32;
    }

    // Local CSR: owned rows recoded, ghost rows empty.
    let owned_arcs = arcs.len() as u64;
    let mut offsets: Vec<u64> = g.offsets()[lo..=hi]
        .iter()
        .map(|&o| o - g.offsets()[lo])
        .collect();
    offsets.resize(num_owned + ghosts.len() + 1, owned_arcs);
    let neighbors = arcs.iter().map(|&u| slot[u as usize]).collect();
    for u in owned.clone().chain(ghosts.iter().copied()) {
        slot[u as usize] = UNSEEN;
    }
    Shard {
        owned,
        ghosts,
        csr: Csr::from_parts_unchecked(offsets, neighbors),
        owned_arcs,
    }
}

/// The `p + 1` bounds of contiguous ranges cut at ~equal prefix sums of
/// `arcs + rows`; shard `s` owns `bounds[s]..bounds[s + 1]`. The combined
/// weight models a worker's per-round cost: the scan kernel walks every
/// local row while the loop kernel's traffic follows arcs, so cutting on
/// arcs alone leaves the low-degree tail shard with most of the rows and
/// the fleet's scan time pinned at the single-device value. Every shard
/// gets at least one vertex (requires `p <= n`, guaranteed by the caller).
fn balanced_arcs_bounds(g: &Csr, p: usize) -> Vec<usize> {
    let n = g.num_vertices() as usize;
    let offsets = g.offsets();
    // weight(i) = arcs before vertex i + rows before vertex i, strictly
    // increasing in i, so a binary search finds each cut.
    let weight = |i: usize| offsets[i] + i as u64;
    let total = weight(n);
    let mut bounds = Vec::with_capacity(p + 1);
    bounds.push(0usize);
    for s in 1..p {
        let target = total * s as u64 / p as u64;
        let (mut lo, mut hi) = (0usize, n);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if weight(mid) < target {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        // Keep every shard non-empty: stay above the previous cut and leave
        // one vertex for each remaining shard.
        bounds.push(lo.clamp(bounds[s - 1] + 1, n - (p - s)));
    }
    bounds.push(n);
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    const BALANCED: PartitionStrategy = PartitionStrategy::BalancedArcs;

    /// Structural contract every partition must satisfy: the owned ranges
    /// are non-empty and tile `0..|V|` in shard order, `owner_of` and the
    /// local IDs agree with them, the recode round-trips, ghost tables are
    /// exact, arcs are conserved and ghost rows are empty.
    fn verify(g: &Csr, part: &Partition) {
        let n = g.num_vertices();
        let mut next = 0;
        let mut total_arcs = 0u64;
        for (s, shard) in part.shards.iter().enumerate() {
            assert_eq!(
                shard.owned.start, next,
                "shard {s} does not start where the previous range ends"
            );
            assert!(!shard.owned.is_empty(), "shard {s} owns no vertices");
            next = shard.owned.end;
            assert!(shard.ghosts.windows(2).all(|w| w[0] < w[1]));
            assert_eq!(shard.csr.num_vertices() as usize, shard.num_local());
            assert_eq!(shard.csr.num_arcs(), shard.owned_arcs);
            total_arcs += shard.owned_arcs;
            for (i, &u) in shard.ghosts.iter().enumerate() {
                assert!(!shard.owned.contains(&u), "ghost {u} owned by its shard");
                // ghost rows are empty
                assert_eq!(shard.csr.degree((shard.num_owned() + i) as u32), 0);
            }
            // ghost set is exactly the non-owned endpoints of owned rows
            let mut expect: Vec<VertexId> = shard
                .owned
                .clone()
                .flat_map(|v| g.neighbors(v).iter().copied())
                .filter(|u| !shard.owned.contains(u))
                .collect();
            expect.sort_unstable();
            expect.dedup();
            assert_eq!(shard.ghosts, expect);
        }
        assert_eq!(next, n, "the owned ranges do not reach |V|");
        assert_eq!(total_arcs, g.num_arcs(), "arcs not conserved");
        for v in 0..n {
            let s = part.owner_of(v);
            let shard = &part.shards[s];
            assert!(
                shard.owned.contains(&v),
                "owner_of({v}) = {s} does not own it"
            );
            // the local row mirrors the global row through global_of
            let l = v - shard.owned.start;
            assert_eq!(shard.global_of(l as usize), v);
            let row: Vec<VertexId> = shard
                .csr
                .neighbors(l)
                .iter()
                .map(|&lu| shard.global_of(lu as usize))
                .collect();
            assert_eq!(row, g.neighbors(v));
        }
    }

    #[test]
    fn partitions_hold_the_contract() {
        let graphs = [
            gen::erdos_renyi_gnm(500, 2_000, 7),
            gen::power_law_hubs(1_000, 3_000, 3, 0.2, 9),
            gen::path(300),
            gen::complete(25),
            gen::star(200),
        ];
        for g in &graphs {
            for p in [1, 2, 3, 4, 8, 16, 64, g.num_vertices() as usize] {
                verify(g, &Partition::build(g, p, BALANCED));
            }
        }
    }

    #[test]
    fn p_clamped_to_vertex_count_and_floor_one() {
        let g = gen::complete(3);
        let part = Partition::build(&g, 16, BALANCED);
        assert_eq!(part.num_shards(), 3);
        verify(&g, &part);
        let part = Partition::build(&g, 0, BALANCED);
        assert_eq!(part.num_shards(), 1);
    }

    #[test]
    fn empty_graph_yields_empty_partition() {
        let g = Csr::empty(0);
        assert_eq!(Partition::build(&g, 4, BALANCED).num_shards(), 0);
    }

    #[test]
    fn single_shard_is_the_identity_recode() {
        let g = gen::erdos_renyi_gnm(200, 800, 3);
        let part = Partition::build(&g, 1, BALANCED);
        assert_eq!(part.num_shards(), 1);
        let shard = &part.shards[0];
        assert!(shard.ghosts.is_empty());
        assert_eq!(shard.num_owned() as u32, g.num_vertices());
        assert_eq!(shard.csr, g);
    }

    #[test]
    fn balanced_arcs_balances_arcs() {
        let g = gen::erdos_renyi_gnm(2_000, 10_000, 11);
        let part = Partition::build(&g, 4, BALANCED);
        let per: Vec<u64> = part.shards.iter().map(|s| s.owned_arcs).collect();
        let ideal = g.num_arcs() / 4;
        for &a in &per {
            // ER degrees are tightly concentrated; cuts land close to ideal
            assert!(
                a as f64 > ideal as f64 * 0.8 && (a as f64) < ideal as f64 * 1.2,
                "arc loads {per:?} far from ideal {ideal}"
            );
        }
        verify(&g, &part);
    }

    #[test]
    fn stats_tile_the_border_structure() {
        let g = gen::power_law_hubs(1_000, 3_000, 3, 0.2, 9);
        let part = Partition::build(&g, 4, BALANCED);
        let stats = part.stats();
        assert_eq!(stats.num_shards, 4);
        assert_eq!(stats.strategy, BALANCED.name());
        for (s, shard) in part.shards.iter().enumerate() {
            let st = &stats.shards[s];
            assert_eq!(st.owned, shard.num_owned() as u64);
            assert_eq!(st.ghosts, shard.ghosts.len() as u64);
            assert_eq!(st.owned_arcs, shard.owned_arcs);
            // peer breakdowns tile the shard totals
            assert_eq!(st.peers.iter().map(|p| p.ghosts).sum::<u64>(), st.ghosts);
            assert_eq!(
                st.peers.iter().map(|p| p.border_arcs).sum::<u64>(),
                st.border_arcs
            );
            // no shard is its own peer
            assert!(st.peers.iter().all(|p| p.peer != s));
        }
        assert_eq!(
            stats.total_ghosts,
            part.shards.iter().map(|s| s.ghosts.len() as u64).sum()
        );
        // border arcs are symmetric in aggregate: every owned→ghost arc
        // on shard A into B has a mirror owned→ghost arc on B into A
        // (the graph is symmetric), so per-pair counts must match.
        for a in 0..4usize {
            for pa in &stats.shards[a].peers {
                let mirror = stats.shards[pa.peer]
                    .peers
                    .iter()
                    .find(|p| p.peer == a)
                    .expect("peer relation is symmetric");
                assert_eq!(mirror.border_arcs, pa.border_arcs);
            }
        }
        // single shard: no borders at all
        let solo = Partition::build(&g, 1, BALANCED).stats();
        assert_eq!(solo.total_ghosts, 0);
        assert_eq!(solo.total_border_arcs, 0);
    }

    #[test]
    fn partitions_are_deterministic() {
        let g = gen::rmat(10, 5_000, gen::RmatParams::graph500(), 21);
        let a = Partition::build(&g, 4, BALANCED);
        let b = Partition::build(&g, 4, BALANCED);
        verify(&g, &a);
        assert_eq!((a.num_shards(), b.num_shards()), (4, 4));
        for (x, y) in a.shards.iter().zip(&b.shards) {
            assert_eq!(x.owned, y.owned);
            assert_eq!(x.csr, y.csr);
            assert_eq!(x.ghosts, y.ghosts);
        }
    }
}
