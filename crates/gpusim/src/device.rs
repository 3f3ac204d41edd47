//! Tracked device (global) memory.
//!
//! Mirrors the `cudaMalloc`/`cudaFree` discipline of §III: the host program
//! allocates input and intermediate buffers in device memory, and the peak
//! footprint determines whether a graph fits on the GPU at all (Table V). All
//! buffers are `u32`-typed — vertex IDs, degrees, offsets and counters are
//! all 32-bit words on the device, as in the paper's kernels — and exposed
//! as `AtomicU32` slices because thread blocks run concurrently.
//!
//! Beyond the current/peak scalars, the device keeps an **allocation
//! ledger**: one [`LedgerEntry`] per `alloc`, recording what was allocated
//! (name, element count and size, byte total, [`SizeClass`] scaling tag),
//! *when* (the algorithm phase, the launch/transfer sequence number, and the
//! sim-clock timestamp — all stamped by the owning
//! [`GpuContext`](crate::GpuContext)), and when it was freed. The ledger is
//! pure observation: it charges no simulated time and perturbs no counter,
//! so enabling or reading it cannot change a golden trace. It feeds
//! [`MemStats`](crate::MemStats) (per-allocation tables, per-phase
//! high-watermarks, capacity extrapolation) and the Perfetto memory tracks.

use serde::Serialize;
use std::sync::atomic::{AtomicU32, Ordering};

/// Handle to a device allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufferId(pub(crate) usize);

/// How an allocation's size depends on the input graph — declared at the
/// alloc site so [`MemStats::extrapolate`](crate::MemStats::extrapolate) can
/// scale a reduced-scale run's footprint to the full-scale dataset: a
/// `PerVertex` buffer grows linearly with |V|, a `PerArc` buffer with the
/// arc count, and a `Fixed` buffer (flags, counters, per-block scratch of
/// configured size) not at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum SizeClass {
    /// Size proportional to the number of vertices (degree/core arrays,
    /// frontier lists, CSR offsets).
    PerVertex,
    /// Size proportional to the number of arcs (adjacency, per-edge
    /// messages, COO tensors).
    PerArc,
    /// Size independent of the graph (device counters, flags, buffers of
    /// configuration-chosen capacity).
    Fixed,
    /// Size proportional to the dynamic-update batch capacity, not the
    /// graph: staging buffers for edge-churn batches. Extrapolates like
    /// `Fixed` (a full-scale run ships the same batches), but stays
    /// distinguishable in capacity reports so the maintenance engine's
    /// scratch is separable from graph state.
    Batch,
}

/// One allocation's life in the ledger. Timestamps come in three flavors:
/// `*_seq` is the logical launch/transfer sequence number (how many kernel
/// launches and host↔device copies had been issued), `*_ms` the sim-clock
/// time, and `*_op` a fine-grained ledger operation counter that totally
/// orders allocs and frees even between launches (several allocations made
/// back-to-back share a `seq` and an `ms` but never an `op`).
#[derive(Debug, Clone, Serialize)]
pub struct LedgerEntry {
    /// Name given at the alloc site.
    pub name: String,
    /// Element count requested.
    pub elems: u64,
    /// Bytes per element (4 for the kernels' u32 buffers).
    pub elem_bytes: u64,
    /// Total bytes (`elems * elem_bytes`).
    pub bytes: u64,
    /// Scaling tag for capacity extrapolation.
    pub size_class: SizeClass,
    /// Algorithm phase active at allocation time.
    pub phase: &'static str,
    /// Device slot the allocation occupied (Perfetto lane; slots are reused
    /// after a free, so a slot can host several non-overlapping entries).
    pub slot: u64,
    /// Launch/transfer sequence number at allocation.
    pub alloc_seq: u64,
    /// Sim-clock timestamp at allocation, ms.
    pub alloc_ms: f64,
    /// Ledger operation ordinal of the allocation.
    pub alloc_op: u64,
    /// Launch/transfer sequence number at free (`None` while live).
    pub free_seq: Option<u64>,
    /// Sim-clock timestamp at free, ms (`None` while live).
    pub free_ms: Option<f64>,
    /// Ledger operation ordinal of the free (`None` while live).
    pub free_op: Option<u64>,
}

impl LedgerEntry {
    /// Whether the allocation was still live when last observed.
    pub fn is_live(&self) -> bool {
        self.free_op.is_none()
    }
}

/// Device allocation failure — surfaces as the paper's "OOM" table entries.
#[derive(Debug, Clone, PartialEq)]
pub struct OomError {
    /// Name of the allocation that failed.
    pub name: String,
    /// Requested size in bytes.
    pub requested_bytes: u64,
    /// Bytes still free at the time of the request.
    pub available_bytes: u64,
    /// Total device capacity.
    pub capacity_bytes: u64,
}

impl std::fmt::Display for OomError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "device OOM allocating {:?}: requested {} B, available {} B of {} B",
            self.name, self.requested_bytes, self.available_bytes, self.capacity_bytes
        )
    }
}

impl std::error::Error for OomError {}

struct Allocation {
    data: Vec<AtomicU32>,
    /// Index of this allocation's entry in the ledger (frees close it).
    ledger_idx: usize,
}

/// A simulated GPU device: a fixed-capacity global memory arena with
/// current/peak accounting and an allocation ledger.
pub struct Device {
    capacity: u64,
    used: u64,
    peak: u64,
    slots: Vec<Option<Allocation>>,
    ledger: Vec<LedgerEntry>,
    /// Per-phase live-byte high-watermarks, in first-activation order.
    phase_peaks: Vec<(&'static str, u64)>,
    /// Stamp kept current by the owning context: active phase, logical
    /// launch/transfer sequence number, sim-clock ms.
    phase: &'static str,
    seq: u64,
    time_ms: f64,
    /// Fine-grained ledger operation counter (allocs + frees).
    op: u64,
}

impl Device {
    /// A device with `capacity_bytes` of global memory.
    pub fn new(capacity_bytes: u64) -> Self {
        Device {
            capacity: capacity_bytes,
            used: 0,
            peak: 0,
            slots: Vec::new(),
            ledger: Vec::new(),
            phase_peaks: Vec::new(),
            phase: "main",
            seq: 0,
            time_ms: 0.0,
            op: 0,
        }
    }

    /// Allocates `elems` elements of `elem_bytes` bytes each,
    /// zero-initialized, tagged with `class` for capacity extrapolation.
    /// Byte accounting is exact (`elems * elem_bytes`); the backing store is
    /// word-granular, so non-multiple-of-4 sizes round the *storage* up but
    /// never the accounting.
    pub fn alloc_with(
        &mut self,
        name: &str,
        elems: usize,
        elem_bytes: usize,
        class: SizeClass,
    ) -> Result<BufferId, OomError> {
        // calloc-backed zero fill: `vec![0u32; n]` lowers to alloc_zeroed
        // (lazily zeroed pages from the OS), where a per-element
        // `AtomicU32::new(0)` collect would write every word up front.
        self.alloc_backing(name, elems, elem_bytes, class, |words| vec![0u32; words])
    }

    /// Allocates `data.len()` 32-bit words holding a copy of `data`, tagged
    /// with `class`: the ledger entry and accounting of [`Device::alloc_with`]
    /// with 4-byte elements, and each word written once, where an
    /// allocation followed by a copy writes it twice.
    pub(crate) fn alloc_copy(
        &mut self,
        name: &str,
        data: &[u32],
        class: SizeClass,
    ) -> Result<BufferId, OomError> {
        self.alloc_backing(name, data.len(), 4, class, |_| data.to_vec())
    }

    /// Accounts `elems * elem_bytes` bytes, then stores the backing
    /// `fill(words)` builds, `words` long, in a slot and the ledger.
    fn alloc_backing(
        &mut self,
        name: &str,
        elems: usize,
        elem_bytes: usize,
        class: SizeClass,
        fill: impl FnOnce(usize) -> Vec<u32>,
    ) -> Result<BufferId, OomError> {
        let bytes = elems as u64 * elem_bytes as u64;
        if self.used + bytes > self.capacity {
            return Err(OomError {
                name: name.to_owned(),
                requested_bytes: bytes,
                available_bytes: self.capacity - self.used,
                capacity_bytes: self.capacity,
            });
        }
        self.used += bytes;
        self.peak = self.peak.max(self.used);
        self.bump_phase_peak();
        let words = (bytes as usize).div_ceil(4);
        let ledger_idx = self.ledger.len();
        let backing = fill(words);
        debug_assert_eq!(backing.len(), words);
        // SAFETY: AtomicU32 is layout-identical to u32 (same size and
        // alignment, every bit pattern valid), so rewrapping the backing is
        // sound.
        let data = {
            let mut v = std::mem::ManuallyDrop::new(backing);
            unsafe { Vec::from_raw_parts(v.as_mut_ptr() as *mut AtomicU32, v.len(), v.capacity()) }
        };
        let alloc = Allocation { data, ledger_idx };
        // Reuse a free slot if any, else push.
        let id = match self.slots.iter().position(Option::is_none) {
            Some(i) => {
                self.slots[i] = Some(alloc);
                i
            }
            None => {
                self.slots.push(Some(alloc));
                self.slots.len() - 1
            }
        };
        self.ledger.push(LedgerEntry {
            name: name.to_owned(),
            elems: elems as u64,
            elem_bytes: elem_bytes as u64,
            bytes,
            size_class: class,
            phase: self.phase,
            slot: id as u64,
            alloc_seq: self.seq,
            alloc_ms: self.time_ms,
            alloc_op: self.op,
            free_seq: None,
            free_ms: None,
            free_op: None,
        });
        self.op += 1;
        Ok(BufferId(id))
    }

    /// Frees an allocation (`cudaFree`).
    ///
    /// # Panics
    /// Panics on double free or an invalid handle — both are host-program
    /// bugs, exactly as they would be under CUDA.
    pub fn free(&mut self, id: BufferId) {
        let alloc = self.slots[id.0]
            .take()
            .expect("double free / invalid buffer id");
        let entry = &mut self.ledger[alloc.ledger_idx];
        self.used -= entry.bytes;
        entry.free_seq = Some(self.seq);
        entry.free_ms = Some(self.time_ms);
        entry.free_op = Some(self.op);
        self.op += 1;
    }

    /// The allocation ledger: one entry per `alloc`, in allocation order.
    pub fn ledger(&self) -> &[LedgerEntry] {
        &self.ledger
    }

    /// Per-phase live-byte high-watermarks, in first-activation order. A
    /// phase's watermark is the maximum of `used_bytes` while it was active
    /// (so a phase that only frees still records what it started with).
    pub fn phase_peaks(&self) -> &[(&'static str, u64)] {
        &self.phase_peaks
    }

    /// Updates the stamp the ledger records on allocs/frees. The owning
    /// [`GpuContext`](crate::GpuContext) calls this after every event that
    /// advances the logical clock (launches, transfers, overheads); the
    /// device itself never advances time.
    pub fn set_stamp(&mut self, seq: u64, time_ms: f64) {
        self.seq = seq;
        self.time_ms = time_ms;
    }

    /// Records a phase change for the per-phase watermarks and subsequent
    /// ledger entries. Entering a phase floors its watermark at the current
    /// live bytes.
    pub fn note_phase(&mut self, phase: &'static str) {
        self.phase = phase;
        self.bump_phase_peak();
    }

    fn bump_phase_peak(&mut self) {
        let phase = self.phase;
        match self.phase_peaks.iter_mut().find(|(p, _)| *p == phase) {
            Some((_, peak)) => *peak = (*peak).max(self.used),
            None => self.phase_peaks.push((phase, self.used)),
        }
    }

    /// The words of a buffer. Atomic because blocks execute concurrently.
    pub fn buffer(&self, id: BufferId) -> &[AtomicU32] {
        &self.slots[id.0]
            .as_ref()
            .expect("freed or invalid buffer id")
            .data
    }

    /// Number of words in a buffer.
    pub fn len(&self, id: BufferId) -> usize {
        self.buffer(id).len()
    }

    /// Fills a buffer with `value` (host-side helper, like `cudaMemset`).
    pub fn fill(&self, id: BufferId, value: u32) {
        for w in self.buffer(id) {
            w.store(value, Ordering::Relaxed);
        }
    }

    /// Bytes currently allocated.
    pub fn used_bytes(&self) -> u64 {
        self.used
    }

    /// Peak bytes ever allocated — the Table V metric.
    pub fn peak_bytes(&self) -> u64 {
        self.peak
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_accounting() {
        let mut d = Device::new(1024);
        let a = d.alloc_with("a", 100, 4, SizeClass::Fixed).unwrap(); // 400 B
        assert_eq!(d.used_bytes(), 400);
        let b = d.alloc_with("b", 100, 4, SizeClass::Fixed).unwrap(); // 800 B
        assert_eq!(d.used_bytes(), 800);
        assert_eq!(d.peak_bytes(), 800);
        d.free(a);
        assert_eq!(d.used_bytes(), 400);
        assert_eq!(d.peak_bytes(), 800); // peak sticks
        let c = d.alloc_with("c", 150, 4, SizeClass::Fixed).unwrap(); // reuses slot, 1000 B total
        assert_eq!(d.used_bytes(), 1000);
        assert_eq!(d.peak_bytes(), 1000);
        d.free(b);
        d.free(c);
        assert_eq!(d.used_bytes(), 0);
    }

    #[test]
    fn oom_reports_details() {
        let mut d = Device::new(100);
        let _a = d.alloc_with("a", 20, 4, SizeClass::Fixed).unwrap(); // 80 B
        let err = d.alloc_with("big", 10, 4, SizeClass::Fixed).unwrap_err(); // 40 B > 20 free
        assert_eq!(err.requested_bytes, 40);
        assert_eq!(err.available_bytes, 20);
        assert_eq!(err.name, "big");
        assert!(err.to_string().contains("OOM"));
    }

    /// The words of buffer `id`, read with relaxed loads.
    fn words(d: &Device, id: BufferId) -> Vec<u32> {
        d.buffer(id)
            .iter()
            .map(|w| w.load(Ordering::Relaxed))
            .collect()
    }

    #[test]
    fn read_write_round_trip() {
        let mut d = Device::new(1024);
        let id = d.alloc_copy("x", &[9, 8, 7, 6], SizeClass::Fixed).unwrap();
        assert_eq!(words(&d, id), vec![9, 8, 7, 6]);
        d.fill(id, 5);
        assert_eq!(words(&d, id), vec![5, 5, 5, 5]);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut d = Device::new(1024);
        let id = d.alloc_with("x", 1, 4, SizeClass::Fixed).unwrap();
        d.free(id);
        d.free(id);
    }

    #[test]
    fn zero_initialized() {
        let mut d = Device::new(1024);
        let id = d.alloc_with("z", 8, 4, SizeClass::Fixed).unwrap();
        assert_eq!(words(&d, id), vec![0; 8]);
    }

    #[test]
    fn elem_size_accounting_is_exact() {
        let mut d = Device::new(1024);
        // 8-byte elements: 10 × 8 = 80 B, 20 words of storage
        let wide = d.alloc_with("wide", 10, 8, SizeClass::Fixed).unwrap();
        assert_eq!(d.used_bytes(), 80);
        assert_eq!(d.len(wide), 20);
        // 1-byte elements: 7 B accounted, storage rounds up to 2 words
        let bytes = d.alloc_with("bytes", 7, 1, SizeClass::PerVertex).unwrap();
        assert_eq!(d.used_bytes(), 87);
        assert_eq!(d.len(bytes), 2);
        d.free(wide);
        assert_eq!(d.used_bytes(), 7); // freed by ledger bytes, not words*4
        d.free(bytes);
        assert_eq!(d.used_bytes(), 0);
    }

    #[test]
    fn ledger_records_lifetimes_and_stamps() {
        let mut d = Device::new(1 << 20);
        d.note_phase("Setup");
        let a = d.alloc_with("deg", 100, 4, SizeClass::PerVertex).unwrap();
        d.set_stamp(3, 1.5);
        d.note_phase("Loop");
        let _b = d.alloc_with("adj", 50, 4, SizeClass::PerArc).unwrap();
        d.free(a);
        let led = d.ledger();
        assert_eq!(led.len(), 2);
        let e = &led[0];
        assert_eq!((e.name.as_str(), e.elems, e.bytes), ("deg", 100, 400));
        assert_eq!((e.phase, e.alloc_seq, e.alloc_ms), ("Setup", 0, 0.0));
        assert_eq!(e.size_class, SizeClass::PerVertex);
        assert!(!e.is_live());
        assert_eq!((e.free_seq, e.free_ms), (Some(3), Some(1.5)));
        let b = &led[1];
        assert_eq!((b.phase, b.alloc_seq, b.alloc_ms), ("Loop", 3, 1.5));
        assert!(b.is_live());
        // ops totally order the three ledger events
        assert_eq!(
            (led[0].alloc_op, led[1].alloc_op, led[0].free_op),
            (0, 1, Some(2))
        );
    }

    #[test]
    fn phase_peaks_track_watermarks() {
        let mut d = Device::new(1 << 20);
        d.note_phase("Setup");
        let a = d.alloc_with("a", 100, 4, SizeClass::Fixed).unwrap(); // 400 B
        let b = d.alloc_with("b", 50, 4, SizeClass::Fixed).unwrap(); // 600 B
        d.note_phase("Loop");
        d.free(a); // frees don't raise any watermark
        let _c = d.alloc_with("c", 25, 4, SizeClass::Fixed).unwrap(); // 300 B live
        d.note_phase("Result");
        d.free(b);
        assert_eq!(
            d.phase_peaks(),
            &[("Setup", 600), ("Loop", 600), ("Result", 300)]
        );
        assert_eq!(d.peak_bytes(), 600);
    }
}
