//! The team refactor's safety property: a team of size N in an otherwise
//! idle cluster is *bit-identical* to today's global barrier. The team id
//! rides in the high half of the extension word and in note/tag bits the
//! firmware never prices, so relabeling the barrier must change nothing —
//! not the mean, not a single round gap, not one simulation event.

use gmsim_des::SimRng;
use gmsim_testbed::prelude::*;

/// Random non-global team ids, deterministic across runs.
fn team_ids(seed: u64, n: usize) -> Vec<TeamId> {
    let mut rng = SimRng::new(seed);
    (0..n)
        .map(|_| TeamId(1 + rng.below(65_534) as u32))
        .collect()
}

/// The team id rides in every note's tag, so a team run's output digest
/// differs from the global run's by design and this list stays: every
/// figure the notes yield, the events and the summed counters must agree.
fn assert_identical(global: &Measurement, team: &Measurement, what: &str) {
    assert_eq!(global.mean_us, team.mean_us, "{what}: mean");
    assert_eq!(global.p99_us, team.p99_us, "{what}: p99");
    assert_eq!(
        global.first_round_us, team.first_round_us,
        "{what}: first round"
    );
    assert_eq!(
        format!("{:?}", global.per_round),
        format!("{:?}", team.per_round),
        "{what}: per-round summary"
    );
    assert_eq!(global.events, team.events, "{what}: event count");
    assert_eq!(global.metrics, team.metrics, "{what}: counters");
}

#[test]
fn team_of_size_n_is_bit_identical_to_global_barrier() {
    let algorithms = [
        Algorithm::Nic(Descriptor::Pe),
        Algorithm::Host(Descriptor::Pe),
        Algorithm::Nic(Descriptor::gb(2)),
        Algorithm::Nic(Descriptor::dissemination()),
    ];
    let sizes = [2usize, 3, 5, 8, 16];
    let ids = team_ids(0xDEC0DE, algorithms.len() * sizes.len());
    let mut case = 0;
    for &alg in &algorithms {
        for &n in &sizes {
            let team_id = ids[case];
            case += 1;
            let global = BarrierExperiment::new(n, alg)
                .rounds(40, 8)
                .run()
                .expect("global run");
            let team = BarrierExperiment::new(n, alg)
                .rounds(40, 8)
                .team(team_id)
                .run()
                .expect("team run");
            assert_identical(&global, &team, &format!("{alg:?} n={n} {team_id:?}"));
        }
    }
}

#[test]
fn team_label_survives_skew_and_packing() {
    // The property must also hold off the happy path: skewed starts and
    // multiple processes per node (the §3.4 same-NIC flags path).
    let skew_global = BarrierExperiment::new(8, Algorithm::Nic(Descriptor::Pe))
        .rounds(30, 5)
        .skew(300, 11)
        .run()
        .expect("skewed global");
    let skew_team = BarrierExperiment::new(8, Algorithm::Nic(Descriptor::Pe))
        .rounds(30, 5)
        .skew(300, 11)
        .team(TeamId(4242))
        .run()
        .expect("skewed team");
    assert_identical(&skew_global, &skew_team, "skewed");

    let packed_global = BarrierExperiment::new(8, Algorithm::Nic(Descriptor::Pe))
        .rounds(30, 5)
        .layout(ProcessLayout::Packed { procs_per_node: 2 })
        .run()
        .expect("packed global");
    let packed_team = BarrierExperiment::new(8, Algorithm::Nic(Descriptor::Pe))
        .rounds(30, 5)
        .layout(ProcessLayout::Packed { procs_per_node: 2 })
        .team(TeamId(7))
        .run()
        .expect("packed team");
    assert_identical(&packed_global, &packed_team, "packed");
}
