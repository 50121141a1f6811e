//! Cross-crate integration tests: barrier *correctness* (not latency)
//! across algorithms, sizes, placements and topologies.
//!
//! The central invariant, from the definition of a barrier: **no process
//! completes barrier round k until every process has entered round k** —
//! and since a process enters round k only after completing round k−1, the
//! earliest round-k completion must come strictly after the latest
//! round-(k−1) completion.

use nic_barrier_suite::barrier::programs::{decode_note, NicBarrierLoop};
use nic_barrier_suite::barrier::{BarrierExtension, BarrierGroup, Descriptor, HostBarrierLoop};
use nic_barrier_suite::des::{RunOutcome, SimTime};
use nic_barrier_suite::gm::cluster::{ClusterBuilder, ClusterSim};
use nic_barrier_suite::gm::{GlobalPort, GmConfig, GmEvent, HostCtx, HostProgram};
use nic_barrier_suite::lanai::NicModel;
use nic_barrier_suite::myrinet::TopologyBuilder;
use nic_barrier_suite::testbed::{Algorithm, BarrierExperiment};

/// Extract `(round, node, time)` completions from a finished simulation.
fn completions(sim: &ClusterSim) -> Vec<(u64, usize, SimTime)> {
    sim.world()
        .notes
        .iter()
        .filter_map(|n| decode_note(n.tag).map(|r| (r, n.node().0, n.at)))
        .collect()
}

/// Assert the barrier invariant over a completed multi-round run.
fn assert_barrier_invariant(sim: &ClusterSim, procs: usize, rounds: u64) {
    let notes = completions(sim);
    for round in 0..rounds {
        let this: Vec<SimTime> = notes
            .iter()
            .filter(|(r, _, _)| *r == round)
            .map(|(_, _, t)| *t)
            .collect();
        assert_eq!(this.len(), procs, "round {round} incomplete");
        if round > 0 {
            let min_this = *this.iter().min().unwrap();
            let max_prev = notes
                .iter()
                .filter(|(r, _, _)| *r + 1 == round)
                .map(|(_, _, t)| *t)
                .max()
                .unwrap();
            assert!(
                min_this > max_prev,
                "round {round}: completion {min_this:?} before predecessor {max_prev:?}"
            );
        }
    }
}

fn build_nic_barrier_sim(
    group: &BarrierGroup,
    nodes: usize,
    algo: Descriptor,
    rounds: u64,
    skews: &[u64],
) -> ClusterSim {
    let mut b = ClusterBuilder::new(nodes)
        .config(GmConfig::paper_host(NicModel::LANAI_4_3))
        .extension(BarrierExtension::factory());
    for rank in 0..group.len() {
        b = b.program(
            group.member(rank),
            Box::new(NicBarrierLoop::new(group.clone(), rank, algo, rounds)),
            SimTime::from_us(skews.get(rank).copied().unwrap_or(0)),
        );
    }
    b.build()
}

#[test]
fn nic_pe_invariant_all_sizes() {
    for n in [2usize, 3, 5, 8, 13, 16] {
        let group = BarrierGroup::one_per_node(n, 1);
        let mut sim = build_nic_barrier_sim(&group, n, Descriptor::Pe, 5, &[]);
        assert_eq!(sim.run(), RunOutcome::Quiescent, "n={n}");
        assert_barrier_invariant(&sim, n, 5);
    }
}

#[test]
fn nic_gb_invariant_all_dims() {
    let n = 9;
    for dim in 1..n {
        let group = BarrierGroup::one_per_node(n, 1);
        let mut sim = build_nic_barrier_sim(&group, n, Descriptor::gb(dim), 4, &[]);
        assert_eq!(sim.run(), RunOutcome::Quiescent, "dim={dim}");
        assert_barrier_invariant(&sim, n, 4);
    }
}

#[test]
fn nic_pe_invariant_under_heavy_skew() {
    let n = 8;
    let group = BarrierGroup::one_per_node(n, 1);
    let skews = [0u64, 900, 13, 450, 777, 1, 333, 620];
    let mut sim = build_nic_barrier_sim(&group, n, Descriptor::Pe, 6, &skews);
    assert_eq!(sim.run(), RunOutcome::Quiescent);
    assert_barrier_invariant(&sim, n, 6);
    // The slowest starter gates round 0.
    let first = completions(&sim)
        .iter()
        .filter(|(r, _, _)| *r == 0)
        .map(|(_, _, t)| *t)
        .min()
        .unwrap();
    assert!(first > SimTime::from_us(900));
}

#[test]
fn packed_processes_share_nics_correctly() {
    // 12 processes on 4 nodes, 3 per node.
    let group = BarrierGroup::new(
        (0..12)
            .map(|i| GlobalPort::new(i / 3, 1 + (i % 3) as u8))
            .collect(),
    );
    let mut sim = build_nic_barrier_sim(&group, 4, Descriptor::Pe, 4, &[]);
    assert_eq!(sim.run(), RunOutcome::Quiescent);
    assert_barrier_invariant(&sim, 12, 4);
}

#[test]
fn multi_switch_topology_works() {
    // 8 nodes spread over a chain of 4 switches.
    let n = 8;
    let group = BarrierGroup::one_per_node(n, 1);
    let mut b = ClusterBuilder::new(n)
        .config(GmConfig::paper_host(NicModel::LANAI_4_3))
        .topology(TopologyBuilder::switch_chain(4, 2))
        .extension(BarrierExtension::factory());
    for rank in 0..n {
        b = b.program(
            group.member(rank),
            Box::new(NicBarrierLoop::new(group.clone(), rank, Descriptor::Pe, 3)),
            SimTime::ZERO,
        );
    }
    let mut sim = b.build();
    assert_eq!(sim.run(), RunOutcome::Quiescent);
    assert_barrier_invariant(&sim, n, 3);
}

#[test]
fn multi_switch_is_slower_than_single_switch() {
    let single = BarrierExperiment::new(8, Algorithm::Nic(Descriptor::Pe))
        .rounds(40, 5)
        .run()
        .unwrap();
    let n = 8;
    let group = BarrierGroup::one_per_node(n, 1);
    let mut b = ClusterBuilder::new(n)
        .config(GmConfig::paper_host(NicModel::LANAI_4_3))
        .topology(TopologyBuilder::switch_chain(8, 1))
        .extension(BarrierExtension::factory());
    for rank in 0..n {
        b = b.program(
            group.member(rank),
            Box::new(NicBarrierLoop::new(group.clone(), rank, Descriptor::Pe, 40)),
            SimTime::ZERO,
        );
    }
    let mut sim = b.build();
    sim.run();
    let last = completions(&sim).iter().map(|(_, _, t)| *t).max().unwrap();
    let chain_mean = last.as_us_f64() / 40.0;
    assert!(
        chain_mean > single.mean_us,
        "chain {chain_mean:.1} vs single {:.1}",
        single.mean_us
    );
}

/// A program that alternates PE and GB barriers in one stream — this is the
/// harshest test of the unexpected-record's packet-type checking: a node
/// racing ahead sends GB gathers while a peer still sits in the PE round.
struct AlternatingLoop {
    group: BarrierGroup,
    rank: usize,
    rounds: u64,
    round: u64,
}

impl AlternatingLoop {
    fn token(&self) -> nic_barrier_suite::gm::CollectiveToken {
        if self.round.is_multiple_of(2) {
            self.group.pe_token(self.rank)
        } else {
            self.group.gb_token(self.rank, 2)
        }
    }
}

impl HostProgram for AlternatingLoop {
    fn on_start(&mut self, ctx: &mut HostCtx) {
        ctx.start_collective(self.token());
    }
    fn on_event(&mut self, ev: &GmEvent, ctx: &mut HostCtx) {
        if matches!(ev, GmEvent::BarrierComplete { .. }) {
            ctx.note(nic_barrier_suite::barrier::programs::note_tag(self.round));
            self.round += 1;
            if self.round < self.rounds {
                ctx.start_collective(self.token());
            }
        }
    }
}

#[test]
fn mixed_pe_gb_stream_synchronizes() {
    let n = 8;
    let rounds = 6;
    let group = BarrierGroup::one_per_node(n, 1);
    let mut b = ClusterBuilder::new(n)
        .config(GmConfig::paper_host(NicModel::LANAI_4_3))
        .extension(BarrierExtension::factory());
    for rank in 0..n {
        b = b.program(
            group.member(rank),
            Box::new(AlternatingLoop {
                group: group.clone(),
                rank,
                rounds,
                round: 0,
            }),
            SimTime::from_us((rank as u64 * 29) % 97),
        );
    }
    let mut sim = b.build();
    assert_eq!(sim.run(), RunOutcome::Quiescent);
    assert_barrier_invariant(&sim, n, rounds);
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        BarrierExperiment::new(8, Algorithm::Nic(Descriptor::Pe))
            .rounds(50, 5)
            .skew(200, 99)
            .run()
            .unwrap()
            .mean_us
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same seed must give bit-identical results");
}

/// Non-power-of-two groups take the PE *fold* path (extra ranks fold into
/// the power-of-two core before the exchange and unfold after). Both
/// interpreters of the compiled schedule — the NIC firmware extension and
/// the host baseline — must run it end to end and keep the barrier
/// invariant.
#[test]
fn non_power_of_two_pe_fold_both_interpreters() {
    const ROUNDS: u64 = 4;
    for n in [3usize, 5, 6, 7, 11, 13] {
        let group = BarrierGroup::one_per_node(n, 1);

        // NIC interpreter: one collective token per round, the firmware
        // walks the folded schedule.
        let mut nic_sim = build_nic_barrier_sim(&group, n, Descriptor::Pe, ROUNDS, &[]);
        assert_eq!(nic_sim.run(), RunOutcome::Quiescent, "nic n={n}");
        assert_barrier_invariant(&nic_sim, n, ROUNDS);

        // Host interpreter: the same compiled schedule over plain sends.
        let mut b = ClusterBuilder::new(n)
            .config(GmConfig::paper_host(NicModel::LANAI_4_3))
            .extension(BarrierExtension::factory());
        for rank in 0..n {
            b = b.program(
                group.member(rank),
                Box::new(HostBarrierLoop::new(&group, rank, Descriptor::Pe, ROUNDS)),
                SimTime::from_us((rank as u64 * 41) % 113),
            );
        }
        let mut host_sim = b.build();
        assert_eq!(host_sim.run(), RunOutcome::Quiescent, "host n={n}");
        assert_barrier_invariant(&host_sim, n, ROUNDS);
    }
}

#[test]
fn single_process_barrier_is_trivial() {
    let group = BarrierGroup::one_per_node(1, 1);
    let mut sim = build_nic_barrier_sim(&group, 1, Descriptor::Pe, 3, &[]);
    assert_eq!(sim.run(), RunOutcome::Quiescent);
    assert_eq!(completions(&sim).len(), 3);
}
