//! Heap scaling: the peak live heap of a NIC-based PE barrier at 256, 1024
//! and 4096 nodes, in total and per node.
//!
//! ```text
//! cargo run --release --example heap_scaling
//! ```
//!
//! Every NIC holds go-back-N state only for the peers it exchanges
//! packets with (about log2 N under PE) and keeps unexpected records in
//! short per-port lists, so the per-node figure should stay nearly flat as
//! the cluster grows. A counting `#[global_allocator]` measures it; each
//! size runs one warm-up round and four measured rounds.
//!
//! Exits 1 if the per-node peak at 4096 nodes exceeds
//! [`PER_NODE_GROWTH_BOUND`] times the per-node peak at 256 nodes: the
//! same per-node check `tests/heap_footprint.rs` makes up to 1024 nodes,
//! at a size too slow for the tier-1 suite.

use nic_barrier_suite::testbed::{Algorithm, BarrierExperiment, Descriptor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Largest allowed ratio of the per-node peak at 4096 nodes to that at 256
/// nodes. State sized by traffic gives about 1.14 (log2 N connections per
/// NIC); one table per NIC sized by the cluster gives far more.
const PER_NODE_GROWTH_BOUND: f64 = 1.2;

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

fn main() -> ExitCode {
    println!(
        "{:>6}  {:>14}  {:>14}  {:>10}  {:>8}",
        "nodes", "peak heap MiB", "KiB per node", "mean us", "wall s"
    );
    let mut per_node = Vec::new();
    for nodes in [256usize, 1024, 4096] {
        let base = LIVE.load(Ordering::Relaxed);
        PEAK.store(base, Ordering::Relaxed);
        let start = Instant::now();
        let m = BarrierExperiment::new(nodes, Algorithm::Nic(Descriptor::Pe))
            .rounds(4, 1)
            .run()
            .unwrap_or_else(|e| panic!("{nodes}-node NIC-PE run failed: {e}"));
        let wall = start.elapsed().as_secs_f64();
        let peak = (PEAK.load(Ordering::Relaxed) - base) as f64;
        per_node.push(peak / nodes as f64);
        println!(
            "{nodes:>6}  {:>14.2}  {:>14.2}  {:>10.2}  {wall:>8.2}",
            peak / (1024.0 * 1024.0),
            peak / 1024.0 / nodes as f64,
            m.mean_us
        );
    }
    let growth = per_node[2] / per_node[0];
    println!("per-node growth 256 -> 4096 nodes: {growth:.3}x (bound {PER_NODE_GROWTH_BOUND}x)");
    if growth > PER_NODE_GROWTH_BOUND {
        eprintln!("per-node peak heap grows with cluster size: some per-NIC table is sized by N");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
