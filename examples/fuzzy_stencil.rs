//! Fuzzy-barrier stencil: the paper's §2.1 motivation made concrete.
//!
//! An iterative stencil computation alternates a compute phase with a
//! barrier. With a host-based (or blocking) barrier the two phases are
//! serial; with the NIC-based barrier the host can compute its *interior*
//! points while the NIC synchronizes — Gupta's fuzzy barrier. This example
//! sweeps the compute grain and prints how much synchronization time the
//! fuzzy barrier hides, i.e. how much finer the parallel grain can get.
//!
//! ```text
//! cargo run --release --example fuzzy_stencil
//! ```

use nic_barrier_suite::testbed::{Algorithm, BarrierExperiment, Descriptor, Table};

/// Steady-state period of a compute + NIC-PE barrier loop on `nodes` nodes,
/// µs per iteration: `compute_us` of work per round, overlapped with the
/// barrier (the fuzzy barrier) or before it (blocking).
fn period(nodes: usize, compute_us: u64, overlap: bool) -> f64 {
    BarrierExperiment::new(nodes, Algorithm::Nic(Descriptor::Pe))
        .compute(compute_us, overlap)
        .rounds(120, 20)
        .run()
        .expect("fuzzy barrier loop")
        .mean_us
}

fn main() {
    const NODES: usize = 8;
    println!("iterative stencil on {NODES} nodes, LANai 4.3");
    println!("(per-iteration compute split: 75% interior overlappable, 25% boundary)\n");

    let mut t = Table::new(vec![
        "grain (us/iter)",
        "blocking (us/iter)",
        "fuzzy (us/iter)",
        "speedup",
        "sync overhead (blocking)",
        "sync overhead (fuzzy)",
    ]);
    for grain in [25u64, 50, 100, 200, 400] {
        // Blocking: all compute, then the barrier.
        let blocking = period(NODES, grain, false);
        // Fuzzy: boundary compute happens before the barrier initiation (it
        // produces the halo the neighbours need); interior overlaps. We
        // model the non-overlappable boundary quarter as part of the next
        // round's critical path by overlapping only 75% of the grain.
        let interior = grain * 3 / 4;
        let boundary = grain - interior;
        let fuzzy = period(NODES, interior, true) + boundary as f64;
        let pure = grain as f64;
        t.row(vec![
            grain.to_string(),
            format!("{blocking:.2}"),
            format!("{fuzzy:.2}"),
            format!("{:.2}x", blocking / fuzzy),
            format!("{:.0}%", (blocking - pure) / pure * 100.0),
            format!("{:.0}%", (fuzzy - pure) / pure * 100.0),
        ]);
    }
    print!("{}", t.render());
    println!(
        "\nThe finer the grain, the more the barrier dominates a blocking\n\
         iteration — and the more the NIC-based fuzzy barrier wins, which is\n\
         exactly the paper's \"finer-grained computation\" argument (§1)."
    );
}
