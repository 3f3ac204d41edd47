//! Edge updates for the dynamic (streaming) setting, and the graph they
//! evolve.
//!
//! A batch of [`EdgeUpdate`]s is the unit of work of dynamic core
//! maintenance. [`EdgeSet`] holds the graph of an update stream as sorted
//! adjacency lists, and [`EdgeSet::classify`] states the batch rule once:
//! which updates a batch accepts, and the net edge changes they leave. The
//! GPU engine (`kcore-gpu`'s `dynamic` module) keeps an `EdgeSet` as its
//! host mirror and walks the [`NetBatch`] edge by edge on the device; the
//! CPU oracle (`kcore-cpu`'s `incremental` module) applies the same net
//! batch and re-derives every core from scratch. The types live here so
//! both sides — and the bench and tests that drive them — share one
//! vocabulary without `kcore-gpu` depending on `kcore-cpu`.

use crate::csr::{Csr, VertexId};
use std::collections::BTreeMap;

/// One edge mutation against an undirected simple graph.
///
/// Endpoints are unordered: `Insert(u, v)` and `Insert(v, u)` denote the
/// same update. Self-loops (`u == v`) and out-of-range endpoints are *valid
/// values* but are rejected (not normalized) by [`EdgeSet::classify`],
/// mirroring [`GraphBuilder`](crate::GraphBuilder)'s simple-graph contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeUpdate {
    /// Insert undirected edge `{u, v}`.
    Insert(u32, u32),
    /// Delete undirected edge `{u, v}`.
    Delete(u32, u32),
}

impl EdgeUpdate {
    /// The endpoints as written (not canonicalized).
    pub fn endpoints(self) -> (u32, u32) {
        match self {
            EdgeUpdate::Insert(u, v) | EdgeUpdate::Delete(u, v) => (u, v),
        }
    }

    /// The endpoints as a canonical `(min, max)` pair — the undirected
    /// edge's identity.
    pub fn key(self) -> (u32, u32) {
        let (u, v) = self.endpoints();
        (u.min(v), u.max(v))
    }

    /// Whether this update is an insertion.
    pub fn is_insert(self) -> bool {
        matches!(self, EdgeUpdate::Insert(..))
    }
}

/// A batch of updates classified against an [`EdgeSet`] by
/// [`EdgeSet::classify`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetBatch {
    /// Insertions accepted: the edge was absent in the state the batch
    /// prefix leaves.
    pub accepted_inserts: usize,
    /// Deletions accepted: the edge was present in that state.
    pub accepted_deletes: usize,
    /// Updates rejected: self-loops, endpoints out of range, inserts of
    /// present edges and deletes of absent ones.
    pub rejected: usize,
    /// The edges the batch removes, as [`EdgeUpdate::key`]s, ascending.
    pub deletes: Vec<(u32, u32)>,
    /// The edges the batch adds, as [`EdgeUpdate::key`]s, ascending.
    pub inserts: Vec<(u32, u32)>,
}

/// A simple undirected graph under edge updates: one sorted adjacency list
/// per vertex, each edge stored once per endpoint.
///
/// Every mutation goes through the batch rule, so the lists stay sorted,
/// loop-free and symmetric by construction, which is what lets
/// [`EdgeSet::to_csr`] skip [`Csr::new`]'s validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeSet {
    adj: Vec<Vec<VertexId>>,
    arcs: u64,
}

impl EdgeSet {
    /// An edgeless graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        EdgeSet {
            adj: vec![Vec::new(); n],
            arcs: 0,
        }
    }

    /// The edges of `g`.
    pub fn from_csr(g: &Csr) -> Self {
        EdgeSet {
            adj: (0..g.num_vertices())
                .map(|v| g.neighbors(v).to_vec())
                .collect(),
            arcs: g.num_arcs(),
        }
    }

    /// Number of vertices (fixed for the set's life).
    pub fn num_vertices(&self) -> usize {
        self.adj.len()
    }

    /// Number of directed arcs: twice the edge count.
    pub fn num_arcs(&self) -> u64 {
        self.arcs
    }

    /// Degree of `v`.
    pub fn degree(&self, v: VertexId) -> u32 {
        self.adj[v as usize].len() as u32
    }

    /// The neighbors of `v`, ascending.
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.adj[v as usize]
    }

    /// Whether edge `{u, v}` is present; `false` for any pair that cannot
    /// be an edge (a self-loop, an endpoint out of range).
    pub fn contains(&self, u: VertexId, v: VertexId) -> bool {
        self.adj
            .get(u as usize)
            .is_some_and(|l| l.binary_search(&v).is_ok())
    }

    /// The batch rule for one update, given whether its edge is present in
    /// the state the batch prefix leaves: an insert needs two distinct
    /// in-range endpoints and an absent edge, a delete a present edge.
    fn accepts(&self, up: EdgeUpdate, present: bool) -> bool {
        let (u, v) = up.endpoints();
        let n = self.adj.len();
        if up.is_insert() {
            u != v && (u as usize) < n && (v as usize) < n && !present
        } else {
            present
        }
    }

    /// Adds edge `{u, v}` if the batch rule accepts `Insert(u, v)` here,
    /// and returns whether it did.
    pub fn insert(&mut self, u: VertexId, v: VertexId) -> bool {
        if !self.accepts(EdgeUpdate::Insert(u, v), self.contains(u, v)) {
            return false;
        }
        for (a, b) in [(u, v), (v, u)] {
            let list = &mut self.adj[a as usize];
            list.insert(list.partition_point(|&x| x < b), b);
        }
        self.arcs += 2;
        true
    }

    /// Removes edge `{u, v}` if it is present, and returns whether it was.
    pub fn remove(&mut self, u: VertexId, v: VertexId) -> bool {
        if !self.contains(u, v) {
            return false;
        }
        for (a, b) in [(u, v), (v, u)] {
            let list = &mut self.adj[a as usize];
            list.remove(list.partition_point(|&x| x < b));
        }
        self.arcs -= 2;
        true
    }

    /// Classifies a batch without changing the set. Each update is checked
    /// against the state its batch prefix leaves, so `Insert(a, b),
    /// Delete(a, b)` of an absent edge accepts both, and the pair cancels:
    /// [`NetBatch::deletes`] and [`NetBatch::inserts`] hold only the edges
    /// whose presence the whole batch changes. Core numbers are a function
    /// of the graph alone, so any engine that applies this net batch, in
    /// any order, must end in the same cores.
    pub fn classify(&self, updates: &[EdgeUpdate]) -> NetBatch {
        let mut net = NetBatch::default();
        // Presence of each accepted update's edge after the prefix so far.
        let mut touched: BTreeMap<(u32, u32), bool> = BTreeMap::new();
        for &up in updates {
            let (u, v) = up.key();
            let present = touched
                .get(&(u, v))
                .copied()
                .unwrap_or_else(|| self.contains(u, v));
            if !self.accepts(up, present) {
                net.rejected += 1;
                continue;
            }
            touched.insert((u, v), up.is_insert());
            if up.is_insert() {
                net.accepted_inserts += 1;
            } else {
                net.accepted_deletes += 1;
            }
        }
        for ((u, v), present) in touched {
            if present != self.contains(u, v) {
                let list = if present {
                    &mut net.inserts
                } else {
                    &mut net.deletes
                };
                list.push((u, v));
            }
        }
        net
    }

    /// Applies a batch [`EdgeSet::classify`] returned for this set: its net
    /// deletes, then its net inserts.
    pub fn apply(&mut self, net: &NetBatch) {
        for &(u, v) in &net.deletes {
            self.remove(u, v);
        }
        for &(u, v) in &net.inserts {
            self.insert(u, v);
        }
    }

    /// The graph as a [`Csr`], assembled from the lists as
    /// [`GraphBuilder`](crate::GraphBuilder) assembles its own, without
    /// re-validation. Debug builds check the result with [`Csr::new`].
    pub fn to_csr(&self) -> Csr {
        let mut offsets = Vec::with_capacity(self.adj.len() + 1);
        let mut neighbors = Vec::with_capacity(self.arcs as usize);
        offsets.push(0u64);
        for list in &self.adj {
            neighbors.extend_from_slice(list);
            offsets.push(neighbors.len() as u64);
        }
        debug_assert_eq!(
            Csr::new(offsets.clone(), neighbors.clone()).err(),
            None,
            "an EdgeSet holds a simple undirected graph"
        );
        Csr::from_parts_unchecked(offsets, neighbors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;
    use proptest::prelude::*;
    use std::collections::{BTreeSet, HashSet};

    #[test]
    fn key_is_orientation_invariant() {
        assert_eq!(EdgeUpdate::Insert(7, 3).key(), (3, 7));
        assert_eq!(EdgeUpdate::Delete(3, 7).key(), (3, 7));
        assert_eq!(EdgeUpdate::Insert(5, 5).key(), (5, 5));
        assert!(EdgeUpdate::Insert(0, 1).is_insert());
        assert!(!EdgeUpdate::Delete(0, 1).is_insert());
        assert_eq!(EdgeUpdate::Delete(9, 2).endpoints(), (9, 2));
    }

    #[test]
    fn rejects_duplicates_and_self_loops() {
        let mut s = EdgeSet::new(3);
        assert!(s.insert(0, 1));
        assert!(!s.insert(0, 1));
        assert!(!s.insert(1, 0));
        assert!(!s.insert(2, 2));
        assert!(!s.remove(0, 2));
        assert_eq!((s.degree(0), s.num_arcs()), (1, 2));
    }

    #[test]
    fn delete_of_absent_edge_is_a_clean_noop() {
        let mut s = EdgeSet::new(4);
        assert!(s.insert(0, 1));
        let before = s.clone();
        assert!(!s.remove(0, 2)); // never existed
        assert!(!s.remove(2, 3)); // between isolated vertices
        assert!(!s.remove(0, 7)); // out of range
        assert!(!s.remove(7, 0));
        assert!(!s.remove(2, 2)); // self-loop
        assert_eq!(s, before);
        assert!(s.remove(1, 0)); // direction-insensitive removal still works
        assert_eq!(s, EdgeSet::new(4));
    }

    #[test]
    fn classify_counts_in_order_and_nets_the_batch() {
        let mut s = EdgeSet::new(5);
        let batch = [
            EdgeUpdate::Insert(0, 1),
            EdgeUpdate::Insert(1, 0), // duplicate (orientation-insensitive)
            EdgeUpdate::Insert(2, 2), // self-loop
            EdgeUpdate::Insert(2, 1),
            EdgeUpdate::Delete(0, 1), // deletes the edge inserted above
            EdgeUpdate::Delete(0, 1), // now absent
            EdgeUpdate::Insert(0, 9), // out of range
        ];
        let net = s.classify(&batch);
        assert_eq!(
            net,
            NetBatch {
                accepted_inserts: 2,
                accepted_deletes: 1,
                rejected: 4,
                deletes: vec![],
                inserts: vec![(1, 2)],
            }
        );
        assert_eq!(s, EdgeSet::new(5), "classify changes nothing");
        s.apply(&net);
        assert_eq!(s.neighbors(1), [2]);
        assert_eq!(s.num_arcs(), 2);

        // A delete of a present edge and its re-insert cancel too; the net
        // lists come out deletes first, each ascending by key.
        let net = s.classify(&[
            EdgeUpdate::Insert(4, 3),
            EdgeUpdate::Delete(2, 1),
            EdgeUpdate::Insert(1, 2),
            EdgeUpdate::Insert(0, 4),
        ]);
        assert_eq!((net.accepted_inserts, net.accepted_deletes), (3, 1));
        assert_eq!(net.deletes, []);
        assert_eq!(net.inserts, [(0, 4), (3, 4)]);
    }

    /// Endpoints in `0..n + 2` and keys from a small range, so a stream
    /// repeats edges, names absent ones and carries self-loops and
    /// out-of-range endpoints.
    fn stream(n: u32, raw: Vec<(bool, u32, u32)>) -> Vec<EdgeUpdate> {
        raw.into_iter()
            .map(|(ins, u, v)| {
                let (u, v) = (u % (n + 2), v % (n + 2));
                if ins {
                    EdgeUpdate::Insert(u, v)
                } else {
                    EdgeUpdate::Delete(u, v)
                }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `classify` then `apply` equals applying the stream one update at
        /// a time to a `HashSet` of keys: the same rejections, the same
        /// accepted counts, and net lists that are exactly the sorted
        /// differences between the initial and the final edge sets.
        #[test]
        fn classify_matches_a_sequential_model(
            n in 1u32..12,
            edges in proptest::collection::vec((0u32..12, 0u32..12), 0..30),
            raw in proptest::collection::vec((any::<bool>(), 0u32..14, 0u32..14), 0..60),
        ) {
            let edges: Vec<(u32, u32)> = edges.into_iter().map(|(u, v)| (u % n, v % n)).collect();
            let g = from_edges(n, &edges);
            let initial: HashSet<(u32, u32)> = g.edges().collect();
            let ups = stream(n, raw);

            let mut model = initial.clone();
            let (mut ins, mut del, mut rej) = (0, 0, 0);
            for up in &ups {
                let (u, v) = up.key();
                let valid = u != v && v < n;
                if up.is_insert() && valid && model.insert((u, v)) {
                    ins += 1;
                } else if !up.is_insert() && model.remove(&(u, v)) {
                    del += 1;
                } else {
                    rej += 1;
                }
            }

            let mut s = EdgeSet::from_csr(&g);
            let net = s.classify(&ups);
            prop_assert_eq!((net.accepted_inserts, net.accepted_deletes, net.rejected), (ins, del, rej));
            let mut gone: Vec<(u32, u32)> = initial.difference(&model).copied().collect();
            let mut new: Vec<(u32, u32)> = model.difference(&initial).copied().collect();
            gone.sort_unstable();
            new.sort_unstable();
            prop_assert_eq!(&net.deletes, &gone);
            prop_assert_eq!(&net.inserts, &new);

            s.apply(&net);
            let mut fin: Vec<(u32, u32)> = model.into_iter().collect();
            fin.sort_unstable();
            prop_assert_eq!(s.to_csr().edges().collect::<Vec<_>>(), fin);
            prop_assert_eq!(s.num_arcs(), 2 * s.to_csr().num_edges());
        }

        /// After any sequence of single updates, `to_csr` equals
        /// `GraphBuilder`'s CSR of the same edges and passes `Csr::new`.
        #[test]
        fn to_csr_is_the_builders_csr(
            n in 1u32..16,
            raw in proptest::collection::vec((any::<bool>(), 0u32..18, 0u32..18), 0..80),
        ) {
            let mut s = EdgeSet::new(n as usize);
            let mut edges = BTreeSet::new();
            for up in stream(n, raw) {
                let (u, v) = up.endpoints();
                if up.is_insert() && s.insert(u, v) {
                    edges.insert(up.key());
                } else if !up.is_insert() && s.remove(u, v) {
                    edges.remove(&up.key());
                }
            }
            let csr = s.to_csr();
            let edges: Vec<(u32, u32)> = edges.into_iter().collect();
            prop_assert_eq!(&csr, &from_edges(n, &edges));
            prop_assert_eq!(
                Csr::new(csr.offsets().to_vec(), csr.neighbor_array().to_vec()).as_ref(),
                Ok(&csr)
            );
        }
    }
}
