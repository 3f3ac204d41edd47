//! Normalizing graph builder.
//!
//! Every algorithm in the suite assumes a *simple undirected* graph with
//! densely indexed vertex IDs, exactly like the paper ("Some graphs are
//! directed and we make them undirected by ignoring the edge direction";
//! non-dense IDs go through ID recoding as preprocessing). The builder
//! performs that normalization: it symmetrizes, deduplicates, and drops
//! self-loops.
//!
//! # Build paths
//!
//! Two construction paths produce **bit-identical** CSRs (offsets and
//! neighbor array) from the same edge set:
//!
//! * [`BuildPath::Serial`] — the original single-threaded counting-sort
//!   construction, retained as the differential oracle (mirroring the
//!   peel's per-lane reference, `kcore_gpu::decompose_reference_in`);
//! * [`BuildPath::Parallel`] — a rayon-parallel pipeline: chunked degree
//!   count → prefix sum → parallel scatter (atomic per-vertex cursors) →
//!   per-vertex sort/dedup → parallel compaction. The scatter order within
//!   an adjacency list is thread-timing dependent, but the subsequent
//!   per-list sort + dedup canonicalizes it, so the final CSR does not
//!   depend on the thread count or interleaving.
//!
//! [`GraphBuilder::build`] auto-dispatches ([`BuildPath::Auto`]): parallel
//! above [`PARALLEL_BUILD_MIN_EDGES`] raw edges, serial below (where thread
//! spawn overhead dominates). `tests/parallel_build.rs` pins the
//! equivalence across rayon pool sizes 1/2/8.

use crate::csr::{Csr, VertexId};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Which CSR construction path [`GraphBuilder::build_with`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BuildPath {
    /// Pick by input size and pool: parallel at or above
    /// [`PARALLEL_BUILD_MIN_EDGES`] raw edges when the current rayon pool
    /// has more than one thread. On a single-threaded pool the parallel
    /// pipeline's extra passes (atomic histogram, scatter, per-vertex
    /// sort) are pure overhead (~3x measured), so `Auto` stays serial —
    /// output is bit-identical either way, only wall-clock differs.
    #[default]
    Auto,
    /// The original single-threaded construction (differential oracle).
    Serial,
    /// The chunked parallel pipeline (identical output, any pool size).
    Parallel,
}

/// Raw-edge count at which [`BuildPath::Auto`] switches to the parallel
/// pipeline. Below this the per-thread scatter/sort chunks are too small to
/// amortize thread spawns.
pub const PARALLEL_BUILD_MIN_EDGES: usize = 1 << 15;

/// Edges per counting/scatter work item in the parallel pipeline. Fixed
/// (not derived from the pool size) so the chunk decomposition — and with
/// it every atomically-reserved slot set — is the same for every run shape.
const EDGE_CHUNK: usize = 1 << 16;

/// Accumulates edges and produces a normalized [`Csr`].
///
/// The vertex universe is `0..=max_id_seen` unless [`GraphBuilder::with_num_vertices`]
/// pinned it larger (isolated trailing vertices are allowed).
#[derive(Default, Clone, Debug)]
pub struct GraphBuilder {
    edges: Vec<(VertexId, VertexId)>,
    min_vertices: u32,
}

impl GraphBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty builder that will produce at least `n` vertices even if the
    /// trailing ones are isolated.
    pub fn with_num_vertices(n: u32) -> Self {
        GraphBuilder {
            edges: Vec::new(),
            min_vertices: n,
        }
    }

    /// Pre-allocates for `m` edges.
    pub fn with_capacity(m: usize) -> Self {
        GraphBuilder {
            edges: Vec::with_capacity(m),
            min_vertices: 0,
        }
    }

    /// Records the undirected edge `{u, v}`. Self-loops and duplicates are
    /// accepted here and removed at [`GraphBuilder::build`] time.
    #[inline]
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) {
        self.edges.push((u, v));
    }

    /// Records many edges at once.
    pub fn extend_edges<I: IntoIterator<Item = (VertexId, VertexId)>>(&mut self, it: I) {
        self.edges.extend(it);
    }

    /// Number of raw (pre-normalization) edges recorded so far.
    pub fn raw_edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Builds the normalized CSR: undirected, no self-loops, no duplicate
    /// edges, sorted adjacency lists. Dispatches per [`BuildPath::Auto`].
    pub fn build(self) -> Csr {
        self.build_with(BuildPath::Auto)
    }

    /// Builds the normalized CSR on an explicit path. Both paths produce
    /// bit-identical results; see the module docs.
    pub fn build_with(self, path: BuildPath) -> Csr {
        let parallel = match path {
            BuildPath::Serial => false,
            BuildPath::Parallel => true,
            BuildPath::Auto => {
                self.edges.len() >= PARALLEL_BUILD_MIN_EDGES && rayon::current_num_threads() > 1
            }
        };
        let GraphBuilder {
            edges,
            min_vertices,
        } = self;
        if parallel {
            build_parallel(edges, min_vertices)
        } else {
            build_serial(edges, min_vertices)
        }
    }
}

/// The original single-threaded counting-sort CSR construction — the
/// differential oracle for [`build_parallel`].
fn build_serial(edges: Vec<(VertexId, VertexId)>, min_vertices: u32) -> Csr {
    let n = edges
        .iter()
        .map(|&(u, v)| u.max(v) + 1)
        .max()
        .unwrap_or(0)
        .max(min_vertices) as usize;

    // Counting-sort style CSR construction: count, prefix, scatter.
    // Both arc directions are materialized; dedup happens per-list after
    // sorting, then offsets are re-compacted.
    let mut count = vec![0u64; n + 1];
    for &(u, v) in &edges {
        if u != v {
            count[u as usize + 1] += 1;
            count[v as usize + 1] += 1;
        }
    }
    for i in 0..n {
        count[i + 1] += count[i];
    }
    let mut cursor = count.clone();
    let total = count[n] as usize;
    let mut adj = vec![0 as VertexId; total];
    for &(u, v) in &edges {
        if u != v {
            adj[cursor[u as usize] as usize] = v;
            cursor[u as usize] += 1;
            adj[cursor[v as usize] as usize] = u;
            cursor[v as usize] += 1;
        }
    }
    drop(edges);

    // Sort + dedup each list, compacting in place.
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0u64);
    let mut write = 0usize;
    for v in 0..n {
        let (s, e) = (count[v] as usize, count[v + 1] as usize);
        adj[s..e].sort_unstable();
        let mut prev: Option<VertexId> = None;
        for i in s..e {
            let u = adj[i];
            if prev != Some(u) {
                adj[write] = u;
                write += 1;
                prev = Some(u);
            }
        }
        offsets.push(write as u64);
    }
    adj.truncate(write);
    adj.shrink_to_fit();
    Csr::from_parts_unchecked(offsets, adj)
}

/// Shared write access to disjoint slots of one slice. Every writer
/// reserves its slot through an atomic cursor (scatter) or owns a
/// pre-partitioned range (compaction), so no two threads touch one index.
struct SharedSlice<T>(*mut T);

unsafe impl<T: Send> Sync for SharedSlice<T> {}

impl<T> SharedSlice<T> {
    /// Writes `val` at `i`. Caller guarantees `i` is in bounds and no other
    /// thread reads or writes index `i` during the parallel section.
    #[inline]
    unsafe fn write(&self, i: usize, val: T) {
        *self.0.add(i) = val;
    }
}

/// Rayon-parallel CSR construction (see module docs for the stages). The
/// result is bit-identical to [`build_serial`] because per-vertex sort +
/// dedup canonicalizes whatever scatter order the atomics produced.
fn build_parallel(edges: Vec<(VertexId, VertexId)>, min_vertices: u32) -> Csr {
    if edges.is_empty() {
        return Csr::empty(min_vertices as usize);
    }

    // Stage 1: vertex-universe size, reduced over fixed-size chunks.
    let n = edges
        .chunks(EDGE_CHUNK)
        .collect::<Vec<_>>()
        .into_par_iter()
        .map(|c| c.iter().map(|&(u, v)| u.max(v) + 1).max().unwrap_or(0))
        .reduce(|| 0, u32::max)
        .max(min_vertices) as usize;

    // Stage 2: degree count (self-loops excluded). Atomic adds commute, so
    // the counts are exact regardless of scheduling.
    let degree: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    edges
        .chunks(EDGE_CHUNK)
        .collect::<Vec<_>>()
        .into_par_iter()
        .for_each(|chunk| {
            for &(u, v) in chunk {
                if u != v {
                    degree[u as usize].fetch_add(1, Ordering::Relaxed);
                    degree[v as usize].fetch_add(1, Ordering::Relaxed);
                }
            }
        });

    // Stage 3: exclusive prefix sum over degrees (serial: O(n) additions
    // are noise next to the O(m) stages).
    let mut count = vec![0u64; n + 1];
    for v in 0..n {
        count[v + 1] = count[v] + degree[v].load(Ordering::Relaxed) as u64;
    }
    let total = count[n] as usize;

    // Stage 4: parallel scatter. Each arc reserves a slot in its vertex's
    // segment via an atomic cursor; slots are disjoint by construction.
    let cursor: Vec<AtomicU64> = count[..n].iter().map(|&c| AtomicU64::new(c)).collect();
    let mut adj = vec![0 as VertexId; total];
    {
        let out = SharedSlice(adj.as_mut_ptr());
        edges
            .chunks(EDGE_CHUNK)
            .collect::<Vec<_>>()
            .into_par_iter()
            .for_each(|chunk| {
                for &(u, v) in chunk {
                    if u != v {
                        let su = cursor[u as usize].fetch_add(1, Ordering::Relaxed) as usize;
                        let sv = cursor[v as usize].fetch_add(1, Ordering::Relaxed) as usize;
                        // SAFETY: fetch_add hands every arc a unique slot
                        // inside its vertex's [count[v], count[v+1]) segment.
                        unsafe {
                            out.write(su, v);
                            out.write(sv, u);
                        }
                    }
                }
            });
    }
    drop(edges);
    drop(cursor);
    drop(degree);

    // Stage 5: per-vertex sort + dedup, parallel over contiguous vertex
    // ranges balanced by arc count. Each range owns a disjoint sub-slice of
    // `adj`; the deduped list is compacted to the front of each vertex's
    // own segment and its new length recorded.
    let ranges = vertex_ranges(&count, rayon::current_num_threads().max(1) * 4);
    let mut range_slices: Vec<(std::ops::Range<usize>, &mut [VertexId])> =
        Vec::with_capacity(ranges.len());
    let mut rest: &mut [VertexId] = &mut adj;
    let mut consumed = 0usize;
    for r in &ranges {
        let end = count[r.end] as usize;
        let (head, tail) = rest.split_at_mut(end - consumed);
        consumed = end;
        range_slices.push((r.clone(), head));
        rest = tail;
    }
    let new_lens: Vec<Vec<u32>> = range_slices
        .into_par_iter()
        .map(|(range, slice)| {
            let base = count[range.start] as usize;
            let mut lens = Vec::with_capacity(range.len());
            for v in range {
                let (s, e) = (count[v] as usize - base, count[v + 1] as usize - base);
                let seg = &mut slice[s..e];
                seg.sort_unstable();
                let mut w = 0usize;
                for i in 0..seg.len() {
                    if i == 0 || seg[i] != seg[w - 1] {
                        seg[w] = seg[i];
                        w += 1;
                    }
                }
                lens.push(w as u32);
            }
            lens
        })
        .collect();
    let new_len: Vec<u32> = new_lens.into_iter().flatten().collect();

    // Stage 6: final offsets (prefix sum over deduped lengths) + parallel
    // compaction into a fresh neighbor array (disjoint per-vertex writes).
    let mut offsets = vec![0u64; n + 1];
    for v in 0..n {
        offsets[v + 1] = offsets[v] + new_len[v] as u64;
    }
    let mut neighbors = vec![0 as VertexId; offsets[n] as usize];
    {
        let out = SharedSlice(neighbors.as_mut_ptr());
        let adj_ref = &adj;
        let offsets_ref = &offsets;
        let count_ref = &count;
        let new_len_ref = &new_len;
        ranges.into_par_iter().for_each(|range| {
            for v in range {
                let src = count_ref[v] as usize;
                let dst = offsets_ref[v] as usize;
                let len = new_len_ref[v] as usize;
                for (i, &x) in adj_ref[src..src + len].iter().enumerate() {
                    // SAFETY: [offsets[v], offsets[v+1]) ranges are disjoint
                    // across vertices and cover `neighbors` exactly.
                    unsafe { out.write(dst + i, x) };
                }
            }
        });
    }
    Csr::from_parts_unchecked(offsets, neighbors)
}

/// Partitions `0..n` into at most `pieces` contiguous vertex ranges of
/// roughly equal arc mass (per the exclusive prefix sums in `count`). The
/// partition only affects scheduling, never the output.
fn vertex_ranges(count: &[u64], pieces: usize) -> Vec<std::ops::Range<usize>> {
    let n = count.len() - 1;
    let total = count[n];
    if n == 0 {
        return Vec::new();
    }
    let target = (total / pieces.max(1) as u64).max(1);
    let mut ranges = Vec::with_capacity(pieces);
    let mut start = 0usize;
    for v in 1..=n {
        if v == n || count[v] - count[start] >= target {
            ranges.push(start..v);
            start = v;
        }
    }
    ranges
}

/// Convenience: builds a normalized graph directly from an edge slice.
pub fn from_edges(n: u32, edges: &[(VertexId, VertexId)]) -> Csr {
    from_edges_with(n, edges, BuildPath::Auto)
}

/// [`from_edges`] with an explicit [`BuildPath`] (differential tests).
pub fn from_edges_with(n: u32, edges: &[(VertexId, VertexId)], path: BuildPath) -> Csr {
    let mut b = GraphBuilder::with_num_vertices(n);
    b.extend_edges(edges.iter().copied());
    b.build_with(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drops_self_loops_and_duplicates() {
        let g = from_edges(3, &[(0, 1), (1, 0), (0, 1), (1, 1), (2, 2), (1, 2)]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.degree(2), 1);
    }

    #[test]
    fn symmetrizes_directed_input() {
        let g = from_edges(2, &[(0, 1)]);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0]);
    }

    #[test]
    fn respects_min_vertices() {
        let g = from_edges(10, &[(0, 1)]);
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.degree(9), 0);
    }

    #[test]
    fn empty_builder_builds_empty_graph() {
        let g = GraphBuilder::new().build();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn adjacency_sorted() {
        let g = from_edges(5, &[(3, 0), (3, 4), (3, 1), (3, 2)]);
        assert_eq!(g.neighbors(3), &[0, 1, 2, 4]);
    }

    #[test]
    fn result_passes_full_validation() {
        let g = from_edges(6, &[(0, 1), (5, 2), (2, 0), (4, 1), (1, 0), (3, 3)]);
        let v = crate::csr::Csr::new(g.offsets().to_vec(), g.neighbor_array().to_vec());
        assert!(v.is_ok());
    }

    #[test]
    fn parallel_path_matches_serial_on_edge_cases() {
        let cases: Vec<Vec<(u32, u32)>> = vec![
            vec![],
            vec![(0, 0)],
            vec![(0, 1), (1, 0), (0, 1), (1, 1), (2, 2), (1, 2)],
            vec![(7, 7), (7, 7)],
            (0..100).map(|i| (i % 10, (i * 7) % 13)).collect(),
        ];
        for edges in cases {
            let a = from_edges_with(16, &edges, BuildPath::Serial);
            let b = from_edges_with(16, &edges, BuildPath::Parallel);
            assert_eq!(a, b, "edges {edges:?}");
        }
    }

    #[test]
    fn parallel_path_passes_full_validation() {
        let edges: Vec<(u32, u32)> = (0..5_000u32).map(|i| (i % 97, (i * 31) % 89)).collect();
        let g = from_edges_with(100, &edges, BuildPath::Parallel);
        let v = crate::csr::Csr::new(g.offsets().to_vec(), g.neighbor_array().to_vec());
        assert!(v.is_ok());
    }
}
