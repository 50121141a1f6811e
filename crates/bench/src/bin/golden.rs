//! Writes the two golden-equivalence fixtures that
//! `tests/golden_equivalence.rs` and `tests/pdes_equivalence.rs` read:
//!
//! ```text
//! cargo run --release -p gmsim-bench --bin golden
//! ```
//!
//! Both cover every PE/GB configuration with N ∈ 2..=32 and tree
//! dimension ∈ 1..=4, on both the NIC-side and host-side implementations.
//! `tests/data/golden_barriers.txt` pins the virtual-time barrier latency.
//! It was first captured from the pre-IR (hand-inlined) state machines, so
//! the schedule-IR interpreters are held to *identical* virtual time, not
//! merely close. Values are printed with round-trip precision (`{:.17e}`)
//! and the tests compare parsed f64s for exact equality.
//! `tests/data/golden_digests.txt` pins each run's output digest
//! (`Measurement::digest`): its events, per-node counters and notes.

use gmsim_testbed::{run_all, Algorithm, BarrierExperiment, Descriptor};
use std::fmt::Write as _;

fn main() {
    let mut grid = Vec::new();
    for n in 2usize..=32 {
        grid.push(("nic-pe", n, 0, Algorithm::Nic(Descriptor::Pe)));
        grid.push(("host-pe", n, 0, Algorithm::Host(Descriptor::Pe)));
        for dim in 1usize..=4 {
            grid.push(("nic-gb", n, dim, Algorithm::Nic(Descriptor::gb(dim))));
            grid.push(("host-gb", n, dim, Algorithm::Host(Descriptor::gb(dim))));
        }
    }
    let experiments: Vec<_> = grid
        .iter()
        .map(|&(_, n, _, alg)| BarrierExperiment::new(n, alg).rounds(40, 5))
        .collect();
    let measured = run_all(&experiments).expect("every golden configuration runs");
    let setup = "(rounds=40 warmup=5, LANai 4.3, no skew)";
    let mut means = format!("# family n dim mean_us  {setup}\n");
    let mut digests = format!("# family n dim digest  {setup}\n");
    for ((family, n, dim, _), m) in grid.iter().zip(&measured) {
        writeln!(means, "{family} {n} {dim} {:.17e}", m.mean_us).unwrap();
        writeln!(digests, "{family} {n} {dim} {:016x}", m.digest()).unwrap();
    }
    let data = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/data");
    for (file, text) in [
        ("golden_barriers.txt", means),
        ("golden_digests.txt", digests),
    ] {
        let path = format!("{data}/{file}");
        std::fs::write(&path, text).unwrap_or_else(|e| panic!("{path}: {e}"));
    }
}
