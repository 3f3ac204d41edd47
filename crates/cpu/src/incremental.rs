//! The CPU oracle of dynamic core maintenance (the streaming setting the
//! paper surveys in §II-C, and the motivation for "lightning fast"
//! decomposition of evolving networks in the §VI case study).
//!
//! [`DynamicGraph`] is a [`kcore_graph::EdgeSet`] plus the core numbers of
//! its graph, which [`bz`] re-derives from scratch after every batch. It
//! shares the batch rule with the GPU engine (`kcore-gpu`'s `dynamic`
//! module) through [`EdgeSet::classify`] and nothing else: the engine's
//! subcore traversals are checked against a from-scratch peel, the way
//! Parallel-CoreMaint checks its maintenance against `computeCores()`.
//!
//! The type keeps its path and name because the repository benchmark
//! (`kbench`'s `dyn-churn` workload) calls `from_csr`, `apply_batch`,
//! `cores` and `to_csr`; moving it onto `EdgeSet` and BZ directly is left
//! to a change of the benchmark.

use crate::bz;
use kcore_graph::{Csr, EdgeSet, EdgeUpdate, NetBatch};

/// A mutable graph and the core numbers of its current state.
#[derive(Debug, Clone)]
pub struct DynamicGraph {
    graph: EdgeSet,
    core: Vec<u32>,
}

impl DynamicGraph {
    /// An edgeless graph on `n` vertices (all cores 0).
    pub fn new(n: usize) -> Self {
        DynamicGraph {
            graph: EdgeSet::new(n),
            core: vec![0; n],
        }
    }

    /// Imports a static graph and computes its decomposition once (BZ).
    pub fn from_csr(g: &Csr) -> Self {
        DynamicGraph {
            graph: EdgeSet::from_csr(g),
            core: bz::core_numbers(g),
        }
    }

    /// All current core numbers.
    pub fn cores(&self) -> &[u32] {
        &self.core
    }

    /// Exports the current graph (for cross-checking).
    pub fn to_csr(&self) -> Csr {
        self.graph.to_csr()
    }

    /// Classifies `updates` with [`EdgeSet::classify`], applies the net
    /// batch and re-derives every core with BZ. Cores are a function of the
    /// final graph alone, so any engine that applies the same net batch must
    /// end in exactly this state, whatever order or batching it uses.
    pub fn apply_batch(&mut self, updates: &[EdgeUpdate]) -> NetBatch {
        let net = self.graph.classify(updates);
        self.graph.apply(&net);
        self.core = bz::core_numbers(&self.graph.to_csr());
        net
    }

    /// Reference MCD (*maximum core degree*) of every vertex:
    /// `mcd(v) = |{u ∈ N(v) : core(u) ≥ core(v)}|` — the number of
    /// neighbors that can possibly support `v` at its current level
    /// (Snippet 3's `computeMcd`, Sariyüce et al.). The GPU engine maintains
    /// the same counter on the device and is checked against this.
    pub fn mcd(&self) -> Vec<u32> {
        (0..self.graph.num_vertices() as u32)
            .map(|v| {
                let cv = self.core[v as usize];
                self.graph
                    .neighbors(v)
                    .iter()
                    .filter(|&&u| self.core[u as usize] >= cv)
                    .count() as u32
            })
            .collect()
    }
}
