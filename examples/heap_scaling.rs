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
//! After the 1024-node cell it prints the largest allocation sizes live at
//! that cell's peak (count × bytes per size), so heap work starts from a
//! measured breakdown: the allocator keeps a live count per size and copies
//! it whenever the live heap climbs 1% past the last copy.
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

/// Cluster size whose peak-heap breakdown is printed.
const BREAKDOWN_NODES: usize = 1024;

/// Rows of the breakdown.
const BREAKDOWN_ROWS: usize = 12;

/// Allocation sizes below this many bytes get a class each; larger blocks
/// share one class per power of two.
const EXACT_SIZES: usize = 1024;
const CLASSES: usize = EXACT_SIZES + usize::BITS as usize;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Live blocks and bytes per size class.
struct Classes {
    blocks: [AtomicUsize; CLASSES],
    bytes: [AtomicUsize; CLASSES],
}

impl Classes {
    const fn new() -> Self {
        Classes {
            blocks: [const { AtomicUsize::new(0) }; CLASSES],
            bytes: [const { AtomicUsize::new(0) }; CLASSES],
        }
    }

    fn class_of(size: usize) -> usize {
        if size < EXACT_SIZES {
            size
        } else {
            EXACT_SIZES + size.ilog2() as usize
        }
    }

    fn add(&self, size: usize) {
        let c = Self::class_of(size);
        self.blocks[c].fetch_add(1, Ordering::Relaxed);
        self.bytes[c].fetch_add(size, Ordering::Relaxed);
    }

    fn sub(&self, size: usize) {
        let c = Self::class_of(size);
        self.blocks[c].fetch_sub(1, Ordering::Relaxed);
        self.bytes[c].fetch_sub(size, Ordering::Relaxed);
    }

    fn copy_from(&self, other: &Classes) {
        for c in 0..CLASSES {
            let blocks = other.blocks[c].load(Ordering::Relaxed);
            self.blocks[c].store(blocks, Ordering::Relaxed);
            let bytes = other.bytes[c].load(Ordering::Relaxed);
            self.bytes[c].store(bytes, Ordering::Relaxed);
        }
    }
}

static LIVE_CLASSES: Classes = Classes::new();
/// `LIVE_CLASSES` as it stood within 1% of the current cell's peak.
static PEAK_CLASSES: Classes = Classes::new();
/// Live bytes when `PEAK_CLASSES` was last copied.
static COPIED_AT: AtomicUsize = AtomicUsize::new(0);

struct Counting;

impl Counting {
    fn grow(by: usize) {
        LIVE_CLASSES.add(by);
        let now = LIVE.fetch_add(by, Ordering::Relaxed) + by;
        PEAK.fetch_max(now, Ordering::Relaxed);
        if now > COPIED_AT.load(Ordering::Relaxed) / 100 * 101 {
            COPIED_AT.store(now, Ordering::Relaxed);
            PEAK_CLASSES.copy_from(&LIVE_CLASSES);
        }
    }

    fn shrink(by: usize) {
        LIVE_CLASSES.sub(by);
        LIVE.fetch_sub(by, Ordering::Relaxed);
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
            Self::shrink(layout.size());
            Self::grow(new_size);
        }
        p
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        Self::shrink(layout.size());
    }
}

/// `(bytes, blocks, class)` of every size class live at the last cell's
/// peak, most bytes first.
fn peak_breakdown() -> Vec<(usize, usize, usize)> {
    let mut rows: Vec<(usize, usize, usize)> = (0..CLASSES)
        .map(|c| {
            let blocks = PEAK_CLASSES.blocks[c].load(Ordering::Relaxed);
            (PEAK_CLASSES.bytes[c].load(Ordering::Relaxed), blocks, c)
        })
        .filter(|&(_, blocks, _)| blocks > 0)
        .collect();
    rows.sort_unstable_by(|a, b| b.cmp(a));
    rows
}

fn print_breakdown(nodes: usize, rows: &[(usize, usize, usize)]) {
    let total: usize = rows.iter().map(|r| r.0).sum();
    println!("largest live allocation sizes at the {nodes}-node peak:");
    println!(
        "{:>16}  {:>9}  {:>10}  {:>6}",
        "block size", "blocks", "KiB", "share"
    );
    for &(bytes, blocks, c) in rows.iter().take(BREAKDOWN_ROWS) {
        let size = if c < EXACT_SIZES {
            format!("{c} B")
        } else {
            let lo = 1usize << (c - EXACT_SIZES);
            format!("{lo}..{} B", 2 * lo)
        };
        println!(
            "{size:>16}  {blocks:>9}  {:>10.1}  {:>5.1}%",
            bytes as f64 / 1024.0,
            100.0 * bytes as f64 / total as f64
        );
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
    let mut breakdown = Vec::new();
    for nodes in [256usize, 1024, 4096] {
        let base = LIVE.load(Ordering::Relaxed);
        PEAK.store(base, Ordering::Relaxed);
        COPIED_AT.store(base, Ordering::Relaxed);
        PEAK_CLASSES.copy_from(&LIVE_CLASSES);
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
        if nodes == BREAKDOWN_NODES {
            breakdown = peak_breakdown();
        }
    }
    let growth = per_node[2] / per_node[0];
    println!("per-node growth 256 -> 4096 nodes: {growth:.3}x (bound {PER_NODE_GROWTH_BOUND}x)");
    println!();
    print_breakdown(BREAKDOWN_NODES, &breakdown);
    if growth > PER_NODE_GROWTH_BOUND {
        eprintln!("per-node peak heap grows with cluster size: some per-NIC table is sized by N");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
