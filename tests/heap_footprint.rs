//! Heap-footprint gate: per-NIC state must follow traffic, not cluster size.
//!
//! The MCP creates a go-back-N connection on a peer's first packet and the
//! NIC extension allocates a port's unexpected-record row on that port's
//! first record, so a PE barrier over N nodes holds about log2 N
//! connections per NIC instead of N. This runs a 1024-node NIC-PE barrier
//! under a counting `#[global_allocator]` and bounds the peak live heap:
//! an eager N² connection table (about 88 B per node pair, ~90 MiB at this
//! size) cannot come back unnoticed.
//!
//! Single test in this file on purpose: the byte counters are process-wide
//! and concurrent sibling tests would make the bound meaningless.

use gmsim_testbed::{Algorithm, BarrierExperiment, Descriptor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

impl Counting {
    fn grow(by: usize) {
        let now = LIVE.fetch_add(by, Ordering::Relaxed) + by;
        PEAK.fetch_max(now, Ordering::Relaxed);
    }
}

// SAFETY: delegates every operation to `System`; only adds relaxed counters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            Self::grow(layout.size());
        }
        p
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            Self::grow(layout.size());
        }
        p
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            Self::grow(new_size);
        }
        p
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

/// Peak live heap a 1024-node NIC-PE barrier may hold, in MiB. The run
/// peaks at about 20 MiB with connections created on first use and at
/// about 110 MiB with an eager all-pairs table; 48 MiB leaves room for
/// ordinary growth elsewhere while still failing on any per-pair table.
const PEAK_BOUND_MIB: f64 = 48.0;

#[test]
fn nic_pe_at_1024_nodes_fits_the_heap_bound() {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let m = BarrierExperiment::new(1024, Algorithm::Nic(Descriptor::Pe))
        .rounds(4, 1)
        .run()
        .unwrap();
    assert!(m.mean_us > 0.0);
    let peak_mib = (PEAK.load(Ordering::Relaxed) - base) as f64 / (1024.0 * 1024.0);
    eprintln!("peak live heap of a 1024-node NIC-PE run: {peak_mib:.2} MiB");
    assert!(
        peak_mib <= PEAK_BOUND_MIB,
        "1024-node NIC-PE run peaked at {peak_mib:.2} MiB of live heap \
         (bound {PEAK_BOUND_MIB} MiB): is per-NIC state sized by the cluster again?"
    );
}
