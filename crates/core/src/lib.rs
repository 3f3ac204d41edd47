//! `kcore-gpu` — the paper's primary contribution: a highly optimized
//! peeling algorithm for k-core decomposition on a GPU.
//!
//! The algorithm follows PKC's two-phase structure, re-engineered for the
//! SIMT execution model (§IV):
//!
//! * **block-granularity buffers** — the global memory outside the graph is
//!   partitioned into one frontier buffer per thread block (challenge 1);
//! * **scan kernel** per round `k` collects degree-`k` vertices into each
//!   block's buffer (Algorithm 2);
//! * **loop kernel** runs the intra-block BFS over the k-shell: each warp
//!   takes one frontier vertex and its 32 lanes walk the adjacency list with
//!   coalesced accesses, decrementing neighbor degrees atomically
//!   (Algorithm 3);
//! * the **decrement-and-recover** protocol resolves cross-block races so
//!   each k-shell vertex is collected exactly once and `deg[v]` converges to
//!   `core(v)` (challenge 2, Fig. 6);
//! * **shared-memory head/tail** (`s`, `e`) with barrier-snapshot batching
//!   makes the buffer thread-safe within a block (challenge 3, Fig. 5).
//!
//! The §IV-C optimizations — ring buffers, shared-memory buffering (SM),
//! vertex frontier prefetching (VP), ballot compaction (BC) and block-level
//! efficient compaction (EC) — are all implemented and selectable through
//! [`PeelConfig`], reproducing the Table II ablation matrix.
//!
//! Everything runs on the [`kcore_gpusim`] simulator; see DESIGN.md for the
//! hardware-substitution rationale.
//!
//! # Example
//!
//! ```
//! use kcore_gpu::{decompose, PeelConfig, SimOptions};
//!
//! let g = kcore_graph::fig1_graph();
//! let run = decompose(&g, &PeelConfig::ours(), &SimOptions::default()).unwrap();
//! assert_eq!(run.core, kcore_graph::fig1_core_numbers());
//! assert_eq!(run.k_max, 3);
//! println!("simulated time: {:.3} ms", run.report.total_ms);
//! ```

// Kernel-style code indexes several parallel device arrays with one
// explicit loop variable, mirroring the CUDA idiom it simulates; iterator
// rewrites would obscure that correspondence.
#![allow(clippy::needless_range_loop)]

pub mod config;
pub mod dynamic;
pub mod mpm_gpu;
pub mod multi_gpu;
pub mod peel;

pub use config::{Buffering, Compaction, PeelConfig};
pub use dynamic::{BatchPath, BatchReport, DynamicConfig, DynamicCore};
pub use kcore_gpusim::SimOptions;
pub use multi_gpu::{
    decompose_multi, decompose_multi_fleet, shard_memstats, single_gpu_ms, FleetRun,
    MultiGpuConfig, MultiGpuRun,
};
pub use peel::{decompose, decompose_in, decompose_reference_in, GpuRun};
