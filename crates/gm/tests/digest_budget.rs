//! The steady-state digests share one budget over the whole run: a run
//! that never proves a period hashes at most one record per
//! [`COST_RATIO`] events fired, however many candidates it tries.

use gmsim_gm::cluster::{ClusterBuilder, ClusterSim};
use gmsim_gm::steady::COST_RATIO;
use gmsim_gm::{GmConfig, Payload};
use gmsim_lanai::NicModel;
use nic_barrier::{BarrierExtension, BarrierGroup, Descriptor, NicBarrierLoop};

/// `rounds` NIC broadcasts of dimension `dim` and `bytes` at 64 nodes.
fn bcast64(dim: usize, bytes: u64, rounds: u64) -> ClusterSim {
    let desc = Descriptor::bcast(dim).with_payload(Payload::for_size(bytes));
    let group = BarrierGroup::one_per_node(64, 1);
    let mut b = ClusterBuilder::new(64)
        .config(GmConfig::paper_host(NicModel::LANAI_4_3))
        .extension(BarrierExtension::factory());
    for rank in 0..group.len() {
        let program = NicBarrierLoop::new(group.clone(), rank, desc, rounds);
        b = b.program(group.member(rank), Box::new(program), Default::default());
    }
    let mut sim = b.build();
    sim.run();
    sim
}

/// The records every digest of `sim` hashed, checked against its events.
fn hashed_within_budget(sim: &ClusterSim, label: &str) -> u64 {
    let (cl, events) = (sim.world(), sim.events_fired());
    assert_eq!(cl.steady(), None, "{label} proves no period");
    let hashed = cl.digest_records();
    assert!(
        hashed * COST_RATIO <= events,
        "{label}: {hashed} records hashed over {events} events"
    );
    hashed
}

#[test]
fn a_run_without_a_period_hashes_at_most_its_events_over_the_cost_ratio() {
    // The 4 KiB d = 4 broadcast: its pending set grows every round, so no
    // signature repeats and no digest is taken.
    hashed_within_budget(&bcast64(4, 4096, 120), "4 KiB d = 4 broadcast");
    // The zero-byte d = 2 broadcast repeats its signatures but not its
    // state: it keeps taking digests that refute their candidates until
    // the budget stops it.
    let sim = bcast64(2, 0, 400);
    assert!(hashed_within_budget(&sim, "0 B d = 2 broadcast") > 0);
}
