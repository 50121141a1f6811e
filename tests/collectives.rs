//! The §8 future-work collectives, end to end: NIC-based broadcast, reduce
//! and allreduce must deliver correct values across sizes, dimensions,
//! skews and fault injection.

use nic_barrier_suite::barrier::programs::{OneShotCollective, NOTE_COLLECTIVE_VALUE};
use nic_barrier_suite::barrier::{BarrierExtension, BarrierGroup, ReduceOp};
use nic_barrier_suite::des::{RunOutcome, SimTime};
use nic_barrier_suite::gm::cluster::{ClusterBuilder, ClusterSim};
use nic_barrier_suite::gm::{CollectiveToken, GmConfig};
use nic_barrier_suite::lanai::NicModel;
use nic_barrier_suite::myrinet::fault::FaultPlan;

fn run_collective(
    n: usize,
    tokens: Vec<CollectiveToken>,
    skews: &[u64],
    faults: Option<(f64, u64)>,
) -> ClusterSim {
    let group = BarrierGroup::one_per_node(n, 1);
    let mut b = ClusterBuilder::new(n)
        .config(GmConfig::paper_host(NicModel::LANAI_4_3))
        .extension(BarrierExtension::factory());
    if let Some((p, seed)) = faults {
        b = b.faults(FaultPlan::drops(p), seed);
    }
    for (rank, token) in tokens.into_iter().enumerate() {
        b = b.program(
            group.member(rank),
            Box::new(OneShotCollective::new(token)),
            SimTime::from_us(skews.get(rank).copied().unwrap_or(0)),
        );
    }
    let mut sim = b.build();
    assert_eq!(sim.run(), RunOutcome::Quiescent);
    sim
}

fn results(sim: &ClusterSim) -> Vec<(usize, u64)> {
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

#[test]
fn broadcast_delivers_root_value_everywhere() {
    for n in [2usize, 3, 7, 12] {
        for dim in [1usize, 2, 3] {
            let group = BarrierGroup::one_per_node(n, 1);
            let tokens = (0..n)
                .map(|r| group.broadcast_token(r, dim, if r == 0 { 5555 } else { 0 }))
                .collect();
            let sim = run_collective(n, tokens, &[], None);
            let vals = results(&sim);
            assert_eq!(vals.len(), n, "n={n} dim={dim}");
            assert!(
                vals.iter().all(|(_, v)| *v == 5555),
                "n={n} dim={dim}: {vals:?}"
            );
        }
    }
}

#[test]
fn reduce_sum_min_max_are_correct() {
    let n = 9;
    let contribs: Vec<u64> = (0..n as u64).map(|r| (r * 37 + 11) % 101).collect();
    for (op, expect) in [
        (ReduceOp::Sum, contribs.iter().sum::<u64>()),
        (ReduceOp::Min, *contribs.iter().min().unwrap()),
        (ReduceOp::Max, *contribs.iter().max().unwrap()),
    ] {
        let group = BarrierGroup::one_per_node(n, 1);
        let tokens = (0..n)
            .map(|r| group.reduce_token(op, r, 2, contribs[r]))
            .collect();
        let sim = run_collective(n, tokens, &[], None);
        let root = results(&sim)
            .into_iter()
            .find(|(node, _)| *node == 0)
            .expect("root result");
        assert_eq!(root.1, expect, "{op:?}");
    }
}

#[test]
fn allreduce_delivers_global_value_to_all() {
    for n in [2usize, 5, 8] {
        for dim in [1usize, 2, 4] {
            let group = BarrierGroup::one_per_node(n, 1);
            let tokens = (0..n)
                .map(|r| group.allreduce_token(ReduceOp::Sum, r, dim, r as u64 + 1))
                .collect();
            let sim = run_collective(n, tokens, &[], None);
            let expect: u64 = (1..=n as u64).sum();
            let vals = results(&sim);
            assert_eq!(vals.len(), n, "n={n} dim={dim}");
            assert!(
                vals.iter().all(|(_, v)| *v == expect),
                "n={n} dim={dim}: {vals:?} != {expect}"
            );
        }
    }
}

#[test]
fn scan_delivers_inclusive_prefixes() {
    // Hillis–Steele prefix scan through the same compiled-schedule path:
    // rank r must end with op(contrib[0], ..., contrib[r]).
    for n in [2usize, 3, 5, 8, 11] {
        let contribs: Vec<u64> = (0..n as u64).map(|r| (r * 13 + 7) % 50).collect();
        for op in [ReduceOp::Sum, ReduceOp::Max] {
            let group = BarrierGroup::one_per_node(n, 1);
            let tokens = (0..n)
                .map(|r| group.scan_token(op, r, contribs[r]))
                .collect();
            let sim = run_collective(n, tokens, &[], None);
            let vals = results(&sim);
            assert_eq!(vals.len(), n, "n={n} {op:?}");
            for (node, got) in vals {
                let expect = contribs[..=node]
                    .iter()
                    .copied()
                    .reduce(|a, b| op.combine(a, b))
                    .unwrap();
                assert_eq!(got, expect, "n={n} {op:?} rank={node}");
            }
        }
    }
}

#[test]
fn scan_correct_under_skew_and_drops() {
    let n = 7;
    let skews = [400u64, 0, 90, 610, 20, 300, 150];
    let group = BarrierGroup::one_per_node(n, 1);
    let tokens = (0..n)
        .map(|r| group.scan_token(ReduceOp::Sum, r, 1 << r))
        .collect();
    let sim = run_collective(n, tokens, &skews, Some((0.10, 3)));
    let vals = results(&sim);
    assert_eq!(vals.len(), n);
    for (node, got) in vals {
        assert_eq!(got, (1u64 << (node + 1)) - 1, "rank {node}");
    }
}

#[test]
fn collectives_correct_under_skew() {
    let n = 6;
    let skews = [500u64, 0, 120, 340, 60, 210];
    let group = BarrierGroup::one_per_node(n, 1);
    let tokens = (0..n)
        .map(|r| group.allreduce_token(ReduceOp::Max, r, 2, 10 + r as u64))
        .collect();
    let sim = run_collective(n, tokens, &skews, None);
    let vals = results(&sim);
    assert_eq!(vals.len(), n);
    assert!(vals.iter().all(|(_, v)| *v == 15));
}

#[test]
fn collectives_correct_under_drops() {
    let n = 5;
    for seed in [1u64, 2] {
        let group = BarrierGroup::one_per_node(n, 1);
        let tokens = (0..n)
            .map(|r| group.allreduce_token(ReduceOp::Sum, r, 2, 1 << r))
            .collect();
        let sim = run_collective(n, tokens, &[], Some((0.15, seed)));
        let vals = results(&sim);
        let expect = (1u64 << n) - 1;
        assert_eq!(vals.len(), n, "seed={seed}");
        assert!(vals.iter().all(|(_, v)| *v == expect), "seed={seed}");
    }
}

#[test]
fn reduce_root_gets_result_even_when_root_is_late() {
    let n = 4;
    let group = BarrierGroup::one_per_node(n, 1);
    let tokens = (0..n)
        .map(|r| group.reduce_token(ReduceOp::Sum, r, 3, 100 + r as u64))
        .collect();
    // Root starts last: every gather is an "unexpected" early arrival that
    // the record must hold (with its value!) until the root's token lands.
    let skews = [800u64, 0, 0, 0];
    let sim = run_collective(n, tokens, &skews, None);
    let root = results(&sim)
        .into_iter()
        .find(|(node, _)| *node == 0)
        .unwrap();
    assert_eq!(root.1, 100 + 101 + 102 + 103);
}

#[test]
fn broadcast_value_waits_for_late_receiver() {
    let n = 3;
    let group = BarrierGroup::one_per_node(n, 1);
    let tokens = (0..n)
        .map(|r| group.broadcast_token(r, 2, if r == 0 { 77 } else { 0 }))
        .collect();
    // Node 2 posts its token long after the root broadcast: the value is
    // recorded against its port and consumed when the token arrives.
    let skews = [0u64, 0, 2_000];
    let sim = run_collective(n, tokens, &skews, None);
    let vals = results(&sim);
    assert_eq!(vals.len(), n);
    assert!(vals.iter().all(|(_, v)| *v == 77));
    let late = sim
        .world()
        .notes
        .iter()
        .find(|nt| nt.node().0 == 2 && nt.tag & NOTE_COLLECTIVE_VALUE == NOTE_COLLECTIVE_VALUE)
        .unwrap();
    assert!(late.at > SimTime::from_ms(2));
}
