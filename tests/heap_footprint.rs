//! Heap-footprint gate: per-NIC state must follow traffic, not cluster size.
//!
//! The MCP creates a go-back-N connection on a peer's first packet, finds
//! it through a peer-sorted index of touched peers only, and the NIC
//! extension keeps its unexpected records in per-port lists, so a PE
//! barrier over N nodes holds about log2 N connections per NIC and no
//! table sized by N. This runs NIC-PE barriers under a counting
//! `#[global_allocator]` and checks two things: the peak live heap at 1024
//! nodes stays under a fixed bound, and the peak per node barely grows
//! from 256 to 1024 nodes. The second check catches any per-NIC table
//! sized by the cluster (4 B per peer is 4 MiB at 1024 nodes, well under
//! any absolute bound, but it shows as per-node growth).
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

/// Peak live heap a 1024-node NIC-PE barrier may hold, in MiB: the
/// measured 8.34 MiB plus about 10% headroom. 88-byte events carrying
/// their packets inline, 32-byte notes, doubling connection tables and a
/// hashed sent cache gave 10.2 MiB; eagerly allocated turnaround histograms and four-slot
/// go-back-N windows on every NIC gave 14.8 MiB, a 4-byte-per-peer index on
/// every NIC adds 4 MiB and an eager all-pairs connection table about
/// 90 MiB.
const PEAK_BOUND_MIB: f64 = 9.2;

/// Largest allowed ratio of the per-node peak at 1024 nodes to that at 256
/// nodes. State sized by traffic gives about 1.1 (log2 N connections per
/// NIC); one N-sized table per NIC already gave 1.32.
const PER_NODE_GROWTH_BOUND: f64 = 1.2;

/// Peak live heap, in bytes, of a NIC-PE barrier over `nodes` nodes.
fn peak_bytes(nodes: usize) -> usize {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let m = BarrierExperiment::new(nodes, Algorithm::Nic(Descriptor::Pe))
        .rounds(4, 1)
        .run()
        .unwrap();
    assert!(m.mean_us > 0.0);
    PEAK.load(Ordering::Relaxed) - base
}

#[test]
fn nic_pe_at_1024_nodes_fits_the_heap_bound() {
    let small = peak_bytes(256) as f64 / 256.0;
    let peak = peak_bytes(1024);
    let peak_mib = peak as f64 / (1024.0 * 1024.0);
    let large = peak as f64 / 1024.0;
    let growth = large / small;
    eprintln!(
        "peak live heap of a 1024-node NIC-PE run: {peak_mib:.2} MiB; \
         per node {:.2} KiB at 1024 nodes, {:.2} KiB at 256 ({growth:.3}x)",
        large / 1024.0,
        small / 1024.0
    );
    assert!(
        peak_mib <= PEAK_BOUND_MIB,
        "1024-node NIC-PE run peaked at {peak_mib:.2} MiB of live heap \
         (bound {PEAK_BOUND_MIB} MiB): is per-NIC state sized by the cluster again?"
    );
    assert!(
        growth <= PER_NODE_GROWTH_BOUND,
        "peak heap per node grew {growth:.3}x from 256 to 1024 nodes \
         (bound {PER_NODE_GROWTH_BOUND}x): is some per-NIC table sized by the cluster?"
    );
}
