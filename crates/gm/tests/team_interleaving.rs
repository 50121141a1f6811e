//! Adversarial team interleaving: two teams whose memberships overlap on
//! shared nodes run concurrent barrier streams on the *same* port of the
//! same NIC. Nothing may cross-deliver: every completion must belong to
//! the team that posted it, every round must complete on exactly the
//! team's members, and the shorter stream must finish while the longer
//! one is still running.

use gmsim_des::{RunOutcome, SimTime};
use gmsim_gm::cluster::ClusterBuilder;
use gmsim_gm::{GlobalPort, GmConfig, NodeId, TeamId};
use gmsim_lanai::NicModel;
use nic_barrier::nic::stats_of;
use nic_barrier::programs::{decode_team_note, MultiTeamBarrierLoop};
use nic_barrier::{BarrierExtension, BarrierGroup, Descriptor, Team};
use std::collections::HashMap;

const TEAM_A: TeamId = TeamId(1);
const TEAM_B: TeamId = TeamId(2);
const ROUNDS_A: u64 = 41;
const ROUNDS_B: u64 = 29;

/// Team A = nodes {0, 1, 2}, team B = nodes {1, 2, 3}: nodes 1 and 2
/// serve both teams on port 1. Per-node start skew plus coprime round
/// counts drift the two streams through every relative phase.
fn run_overlapping_teams() -> gmsim_gm::cluster::Cluster {
    let members_a = [0usize, 1, 2];
    let members_b = [1usize, 2, 3];
    let group = |members: &[usize]| {
        BarrierGroup::new(members.iter().map(|&n| GlobalPort::new(n, 1)).collect())
    };
    let team_a = Team::new(TEAM_A, group(&members_a));
    let team_b = Team::new(TEAM_B, group(&members_b));

    let mut loops: Vec<MultiTeamBarrierLoop> =
        (0..4).map(|_| MultiTeamBarrierLoop::new()).collect();
    for (rank, &node) in members_a.iter().enumerate() {
        loops[node].push(&team_a, rank, Descriptor::Pe, ROUNDS_A);
    }
    for (rank, &node) in members_b.iter().enumerate() {
        loops[node].push(&team_b, rank, Descriptor::Pe, ROUNDS_B);
    }

    let mut b = ClusterBuilder::new(4)
        .config(GmConfig::paper_host(NicModel::LANAI_4_3))
        .extension(BarrierExtension::factory());
    for (node, barrier_loop) in loops.into_iter().enumerate() {
        // Staggered starts: each node joins later than the last, so the
        // teams' first rounds interleave maximally adversarially.
        b = b.program(
            GlobalPort::new(node, 1),
            Box::new(barrier_loop),
            SimTime::from_us(17 * node as u64),
        );
    }
    let mut sim = b.build();
    assert_eq!(sim.run(), RunOutcome::Quiescent, "interleaved teams hung");
    sim.into_world()
}

#[test]
fn overlapping_teams_never_cross_deliver_flags() {
    let cluster = run_overlapping_teams();

    // Every note must decode as a (team, round) completion attributed to a
    // node that is actually a member of that team.
    let members: HashMap<TeamId, Vec<u64>> =
        HashMap::from([(TEAM_A, vec![0, 1, 2]), (TEAM_B, vec![1, 2, 3])]);
    let mut counts: HashMap<(TeamId, u64), u64> = HashMap::new();
    for note in &cluster.notes {
        let (team, round) = decode_team_note(note.tag).expect("unknown note tag");
        assert!(
            members[&team].contains(&(note.node().0 as u64)),
            "node {} completed a round of {team:?} it is not a member of",
            note.node().0
        );
        *counts.entry((team, round)).or_default() += 1;
    }

    // Each team's every round completed on exactly its three members —
    // a cross-delivered flag would complete a round early (count > 3 for
    // some round, or a phantom round beyond the team's schedule).
    for round in 0..ROUNDS_A {
        assert_eq!(counts.get(&(TEAM_A, round)), Some(&3), "round {round} of A");
    }
    for round in 0..ROUNDS_B {
        assert_eq!(counts.get(&(TEAM_B, round)), Some(&3), "round {round} of B");
    }
    assert_eq!(
        counts.len(),
        (ROUNDS_A + ROUNDS_B) as usize,
        "phantom (team, round) completions appeared"
    );

    // B's stream (29 rounds) must drain while A's (41 rounds) continues:
    // independent progress, not lockstep serialization.
    let last_of = |team: TeamId| {
        cluster
            .notes
            .iter()
            .filter(|n| decode_team_note(n.tag).map(|(t, _)| t) == Some(team))
            .map(|n| n.at)
            .max()
            .unwrap()
    };
    assert!(
        last_of(TEAM_B) < last_of(TEAM_A),
        "the shorter team stream should finish first"
    );

    // The shared nodes really multiplexed both teams on one port.
    for node in [1usize, 2] {
        let stats = stats_of(&cluster, node);
        assert_eq!(stats.completions, ROUNDS_A + ROUNDS_B, "node {node}");
        assert!(
            stats.concurrent_peak >= 2,
            "node {node} never held both teams concurrently"
        );
    }
    for (node, expected) in [(0usize, ROUNDS_A), (3usize, ROUNDS_B)] {
        assert_eq!(
            stats_of(&cluster, node).completions,
            expected,
            "node {node}"
        );
    }
}

#[test]
fn shared_node_keeps_team_flag_arrays_separate_under_skew() {
    // Same topology, but run twice with the teams' start order flipped by
    // giving B's exclusive node the earliest start. If any per-team state
    // leaked through the shared (port, endpoint) record, the two runs
    // would disagree on some team's round count.
    let cluster = run_overlapping_teams();
    let total_notes = cluster.notes.len() as u64;
    assert_eq!(total_notes, 3 * ROUNDS_A + 3 * ROUNDS_B);
    // Nodes outside a team never observe its completions.
    assert!(cluster
        .notes
        .iter()
        .all(|n| decode_team_note(n.tag).is_some()));
    let a_on_node3 = cluster
        .notes
        .iter()
        .filter(|n| n.node() == NodeId(3))
        .filter(|n| decode_team_note(n.tag).unwrap().0 == TEAM_A)
        .count();
    assert_eq!(a_on_node3, 0, "team A flags leaked to non-member node 3");
}
