//! CPU k-core decomposition algorithms.
//!
//! This crate implements every CPU baseline of the paper's Table IV:
//!
//! * [`bz`] — Batagelj–Zaversnik serial peeling, the linear-time
//!   state of the art and the *reference implementation* every other
//!   algorithm in the workspace is validated against;
//! * [`park`] — ParK (Dasari et al.), the first parallel peeling algorithm
//!   (two-phase scan/loop with sub-level synchronization), serial and
//!   parallel;
//! * [`pkc`] — PKC (Kabir & Madduri): thread-local buffers remove sub-level
//!   synchronization; the optimized variant additionally compacts the
//!   remaining-vertex list to cut scan cost (the paper's `PKC` vs `PKC-o`);
//! * [`mpm`] — Montresor–De Pellegrini–Miorandi iterative h-index
//!   refinement, serial and parallel;
//! * [`naive`] — a deliberately allocation-heavy dict-of-sets implementation
//!   mirroring the algorithmic profile of NetworkX's `core_number`;
//! * [`incremental`] — streaming core maintenance under edge
//!   insertions/deletions (related-work extension, §II-C).
//!
//! # Example
//!
//! ```
//! use kcore_cpu::{bz, CoreAlgorithm};
//! let g = kcore_graph::fig1_graph();
//! let core = bz::Bz.run(&g);
//! assert_eq!(core, kcore_graph::fig1_core_numbers());
//! ```

// Kernel-style code indexes several parallel device arrays with one
// explicit loop variable, mirroring the CUDA idiom it simulates; iterator
// rewrites would obscure that correspondence.
#![allow(clippy::needless_range_loop)]

pub mod bz;
pub mod hindex;
pub mod incremental;
pub mod mpm;
pub mod naive;
pub mod park;
pub mod pkc;
pub mod verify;

use kcore_graph::Csr;

/// A k-core decomposition algorithm: maps a graph to per-vertex core numbers.
pub trait CoreAlgorithm {
    /// Display name matching the paper's table column.
    fn name(&self) -> &'static str;

    /// Computes `core(v)` for every vertex.
    fn run(&self, g: &Csr) -> Vec<u32>;
}

/// The graph's degeneracy `k_max = max_v core(v)` (0 for an empty graph).
pub fn k_max(core: &[u32]) -> u32 {
    core.iter().copied().max().unwrap_or(0)
}

/// Splits vertices into shells: `shells[k]` lists the vertices with
/// `core(v) == k`, for `k = 0..=k_max`.
pub fn shells(core: &[u32]) -> Vec<Vec<u32>> {
    let km = k_max(core) as usize;
    let mut out = vec![Vec::new(); km + 1];
    for (v, &k) in core.iter().enumerate() {
        out[k as usize].push(v as u32);
    }
    out
}

/// Boolean membership mask of the k-core: `core(v) >= k`.
pub fn kcore_mask(core: &[u32], k: u32) -> Vec<bool> {
    core.iter().map(|&c| c >= k).collect()
}

/// Default worker count for the parallel algorithms: the machine's available
/// parallelism (the paper uses all 48 hardware threads of its test server).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shell_partition_sums_to_n() {
        let core = vec![3, 3, 2, 1, 1, 0];
        let sh = shells(&core);
        assert_eq!(sh.len(), 4);
        assert_eq!(sh.iter().map(Vec::len).sum::<usize>(), 6);
        assert_eq!(sh[1], vec![3, 4]);
        assert_eq!(sh[0], vec![5]);
    }

    #[test]
    fn kmax_of_empty_is_zero() {
        assert_eq!(k_max(&[]), 0);
    }

    #[test]
    fn kcore_helpers() {
        let core = vec![3, 1, 2, 3];
        assert_eq!(kcore_mask(&core, 3), vec![true, false, false, true]);
    }
}
