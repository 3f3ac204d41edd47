//! A deterministic SIMT GPU simulator.
//!
//! The paper's contribution is a CUDA kernel suite; this workspace has no
//! physical GPU, so the kernels run on this simulator instead (see DESIGN.md
//! for the substitution argument). The simulator reproduces the two things
//! the paper's claims rest on:
//!
//! 1. **Execution semantics** — grids of independent thread blocks; warps of
//!    32 lanes executing in lockstep with divergence masking; per-block
//!    shared memory; `__syncthreads`/`__syncwarp` barriers with
//!    snapshot-consistent visibility; global-memory atomics
//!    (`atomicAdd`/`atomicSub`); `__ballot_sync`, and warp scans that fuse
//!    their `__shfl_up_sync` and `__popc` steps. A plain launch's blocks run
//!    to completion one after another, in block order, on the calling
//!    thread, at every rayon width; a stepped launch's blocks step one at a
//!    time in a seeded wave order. Within a block, barrier-delimited phases
//!    execute warp-by-warp with the visibility the barriers guarantee on
//!    hardware.
//! 2. **A cost model** — every kernel accumulates per-block counters
//!    (coalesced global transactions, atomics, shared-memory traffic, warp
//!    instructions, barriers). Kernel time is a roofline:
//!    `launch_overhead + max(compute makespan over SMs, bytes / bandwidth)`,
//!    with constants calibrated to the paper's NVIDIA Tesla P100
//!    ([`CostParams::p100`]).
//!
//! Device memory is a tracked arena: allocations update current/peak byte
//! counts and fail with [`OomError`] beyond capacity — producing the
//! paper's "OOM" table entries naturally. Every alloc/free is also recorded
//! in an allocation ledger ([`device::LedgerEntry`]) feeding
//! [`MemStats`] snapshots, per-phase memory watermarks, and full-scale
//! capacity forecasts ([`MemStats::extrapolate`]) — observability that
//! charges nothing and cannot perturb a golden trace.
//!
//! A context is captured once, by [`GpuContext::trace`]: the [`Trace`]
//! holds the context's own launch, transfer and counter-sample records and
//! its ledger, and renders them two ways — as a JSON document
//! ([`Trace::to_json`]) and as an SM-level Perfetto document
//! ([`Trace::to_chrome_json`]). A sharded run's [`FleetTrace`] ledger
//! renders beside its worker traces the same two ways.
//!
//! # Example
//!
//! ```
//! use kcore_gpusim::{GpuContext, CostParams, LaunchConfig, SizeClass};
//!
//! let mut ctx = GpuContext::new(CostParams::p100(), 1 << 20);
//! let data = ctx.htod("numbers", &[1, 2, 3, 4], SizeClass::Fixed).unwrap();
//! let cfg = LaunchConfig { blocks: 2, threads_per_block: 64 };
//! ctx.launch("double", cfg, |blk| {
//!     let buf = blk.device.buffer(data);
//!     // grid-stride loop over the 4 elements
//!     for i in (blk.block_idx as usize..4).step_by(cfg.blocks as usize) {
//!         let v = blk.gread(&buf[i]);
//!         blk.gwrite(&buf[i], v * 2);
//!     }
//!     Ok(())
//! }).unwrap();
//! assert_eq!(ctx.dtoh(data, ..).unwrap(), vec![2, 4, 6, 8]);
//! assert!(ctx.elapsed_ms() > 0.0);
//! ```

// Kernel-style code indexes several parallel device arrays with one
// explicit loop variable, mirroring the CUDA idiom it simulates; iterator
// rewrites would obscure that correspondence.
#![allow(clippy::needless_range_loop)]

pub mod cost;
pub mod device;
pub mod exec;
pub mod fleet;
pub mod memstats;
pub mod perfetto;
pub mod scan;
pub mod timeline;
pub mod trace;
pub mod warp;

pub use cost::{
    CostParams, CounterSample, Counters, LaunchRecord, Roofline, SimReport, TransferDir,
    TransferRecord,
};
pub use device::{BufferId, Device, LedgerEntry, OomError, SizeClass};
pub use exec::{
    narrow_offsets, BlockCtx, Coalescing, GpuContext, KernelError, LaunchConfig, SharedArray,
    SimError, SimOptions, SHARED_CAPACITY_BYTES,
};
pub use fleet::{
    fnv1a_bytes, ExchangeTrace, FleetTrace, FlowEdge, MergeError, RoundCritical, RoundTrace,
    SubRoundSlice, PACKET_BYTES,
};
pub use memstats::{
    CapacityForecast, LiveAlloc, MemStats, PhasePeak, P100_DEVICE_BYTES, PEAK_LIVE_SET_TOP_K,
};
pub use timeline::{BlockCost, Hotspot};
pub use trace::{DeviceInfo, PhaseSummary, Totals, Trace, HOTSPOT_TOP_K};

/// Version of every document the observability layer writes: a [`Trace`]
/// (with the [`MemStats`] inside it), a standalone [`MemStats`], a trace's
/// Perfetto rendering ([`Trace::to_chrome_json`]) and the fleet's
/// ([`FleetTrace::merged_chrome_json`]), and a [`FleetTrace`] with its
/// worker traces. A version describes a written document, not a run, so no
/// in-memory value carries one: each writer states it once, as the first
/// key of the document's top level (`otherData.schema_version` in the
/// Perfetto exports). Bumped on any change to a document's shape, so a
/// golden file fails at its `schema_version` line first.
///
/// History: 1 = launch/transfer/phase rollups; 2 = hotspot attribution and
/// event timestamps; 3 = the trace embeds `memstats` (the memory snapshot
/// and the fleet ledger were versioned apart, at 1 and 2); 4 = one version
/// for all four documents, and each fact stored once: `memstats` drops its
/// transfer rollup (the trace's `totals` and `phases` hold it), the trace's
/// `device` drops the capacity and peak that its `memstats` holds, and the
/// fleet ledger drops its cloned worker traces, its stored device rollups
/// and its second fold of the exchange counts; 5 = the fleet ledger stores
/// facts only: it drops its stored critical path, its top-level
/// `exchanged_bytes`, the positional `k`, `sub_round` and `after_sub_round`,
/// each round's `sub_rounds`, each exchange's `packets_out`, `seeds` and
/// `bytes`, and each flow's `bytes`, which its readers derive.
pub const SCHEMA_VERSION: u32 = 5;

/// A schema document: the JSON object its closure builds, with
/// `"schema_version":` [`SCHEMA_VERSION`] inserted as the first key.
struct Document<F>(F);

impl<F: Fn() -> serde::Value> serde::Serialize for Document<F> {
    fn to_value(&self) -> serde::Value {
        let mut doc = (self.0)();
        if let serde::Value::Object(fields) = &mut doc {
            let version = serde::Value::UInt(SCHEMA_VERSION.into());
            fields.insert(0, ("schema_version".into(), version));
        }
        doc
    }
}

/// The schema document `body` builds, pretty-printed. The printer calls
/// `body` once, so the tree is built once and never copied.
pub(crate) fn to_document(body: impl Fn() -> serde::Value) -> String {
    serde_json::to_string_pretty(&Document(body)).expect("a schema document serializes")
}
