//! Print the paper-vs-measured headline table (same data as
//! `repro headline`, through the public library API).
//!
//! ```text
//! cargo run --release --example latency_table
//! ```

use nic_barrier_suite::lanai::NicModel;
use nic_barrier_suite::testbed::{best_gb_dim, Algorithm, BarrierExperiment, Descriptor, Table};

fn main() {
    let l43 = NicModel::LANAI_4_3;
    let l72 = NicModel::LANAI_7_2;
    let run = |n: usize, a: Algorithm, nic: NicModel| {
        BarrierExperiment::new(n, a).nic(nic).run().unwrap().mean_us
    };

    let nic16 = run(16, Algorithm::Nic(Descriptor::Pe), l43);
    let host16 = run(16, Algorithm::Host(Descriptor::Pe), l43);
    let nic8 = run(8, Algorithm::Nic(Descriptor::Pe), l43);
    let host8 = run(8, Algorithm::Host(Descriptor::Pe), l43);
    let (gbd, gb16) = best_gb_dim(BarrierExperiment::new(
        16,
        Algorithm::Nic(Descriptor::gb(1)),
    ))
    .unwrap();
    let nic8f = run(8, Algorithm::Nic(Descriptor::Pe), l72);
    let host8f = run(8, Algorithm::Host(Descriptor::Pe), l72);

    let mut t = Table::new(vec!["paper claim", "paper", "this reproduction"]);
    t.row(vec![
        "NIC-PE barrier, 16 nodes, LANai 4.3".into(),
        "102.14 us".into(),
        format!("{nic16:.2} us"),
    ]);
    t.row(vec![
        format!("NIC-GB barrier, 16 nodes (best dim: ours d={gbd})"),
        "152.27 us".into(),
        format!("{:.2} us", gb16.mean_us),
    ]);
    t.row(vec![
        "factor of improvement, PE, 16 nodes".into(),
        "1.78x".into(),
        format!("{:.2}x", host16 / nic16),
    ]);
    t.row(vec![
        "factor of improvement, PE, 8 nodes, LANai 4.3".into(),
        "1.66x".into(),
        format!("{:.2}x", host8 / nic8),
    ]);
    t.row(vec![
        "NIC-PE barrier, 8 nodes, LANai 7.2".into(),
        "49.25 us".into(),
        format!("{nic8f:.2} us"),
    ]);
    t.row(vec![
        "host-PE barrier, 8 nodes, LANai 7.2".into(),
        "90.24 us".into(),
        format!("{host8f:.2} us"),
    ]);
    t.row(vec![
        "factor of improvement, PE, 8 nodes, LANai 7.2".into(),
        "1.83x".into(),
        format!("{:.2}x", host8f / nic8f),
    ]);
    print!("{}", t.render());
}
