//! System-level randomized tests: for arbitrary group sizes, algorithms,
//! tree dimensions, start skews and fault seeds, every barrier stream
//! completes and satisfies the barrier invariant.
//!
//! These run whole simulations per case, so case counts are kept modest;
//! run with `--release` for comfort.

use nic_barrier_suite::barrier::programs::{decode_note, NicBarrierLoop};
use nic_barrier_suite::barrier::{BarrierExtension, BarrierGroup, Descriptor};
use nic_barrier_suite::des::check::{forall, Gen};
use nic_barrier_suite::des::{RunOutcome, SimTime};
use nic_barrier_suite::gm::cluster::ClusterBuilder;
use nic_barrier_suite::gm::{GlobalPort, GmConfig};
use nic_barrier_suite::lanai::NicModel;
use nic_barrier_suite::myrinet::FaultPlan;

#[derive(Debug, Clone)]
struct Scenario {
    procs: usize,
    procs_per_node: usize,
    algo: Descriptor,
    rounds: u64,
    skews: Vec<u64>,
    drop_pct: u8,
    seed: u64,
}

fn scenario(g: &mut Gen) -> Scenario {
    // 0 = PE, 1..=4 = GB with that dim, 5..=7 = dissemination radix 2..4
    let algo = match g.usize_in(0, 7) {
        0 => Descriptor::Pe,
        5 => Descriptor::dissemination(),
        r @ (6 | 7) => Descriptor::dissemination_radix(r - 4),
        dim => Descriptor::gb(dim),
    };
    Scenario {
        procs: g.usize_in(2, 12),
        procs_per_node: g.usize_in(1, 3),
        algo,
        rounds: g.u64_in(1, 4),
        skews: (0..12).map(|_| g.u64_in(0, 399)).collect(),
        drop_pct: g.u8_in(0, 20),
        seed: g.any_u64(),
    }
}

fn run_scenario(sc: &Scenario) {
    let members: Vec<GlobalPort> = (0..sc.procs)
        .map(|i| GlobalPort::new(i / sc.procs_per_node, 1 + (i % sc.procs_per_node) as u8))
        .collect();
    let nodes = sc.procs.div_ceil(sc.procs_per_node);
    let group = BarrierGroup::new(members);
    let mut b = ClusterBuilder::new(nodes)
        .config(GmConfig::paper_host(NicModel::LANAI_4_3))
        .extension(BarrierExtension::factory());
    if sc.drop_pct > 0 {
        b = b.faults(FaultPlan::drops(sc.drop_pct as f64 / 100.0), sc.seed);
    }
    for rank in 0..sc.procs {
        b = b.program(
            group.member(rank),
            Box::new(NicBarrierLoop::new(group.clone(), rank, sc.algo, sc.rounds)),
            SimTime::from_us(sc.skews[rank % sc.skews.len()]),
        );
    }
    let mut sim = b.build();
    assert_eq!(sim.run(), RunOutcome::Quiescent, "hung: {sc:?}");
    let notes: Vec<(u64, SimTime)> = sim
        .world()
        .notes
        .iter()
        .filter_map(|n| decode_note(n.tag).map(|r| (r, n.at)))
        .collect();
    for round in 0..sc.rounds {
        let this: Vec<SimTime> = notes
            .iter()
            .filter(|(r, _)| *r == round)
            .map(|(_, t)| *t)
            .collect();
        assert_eq!(this.len(), sc.procs, "round {round} incomplete: {sc:?}");
        if round > 0 {
            let min_this = this.iter().min().copied().unwrap();
            let max_prev = notes
                .iter()
                .filter(|(r, _)| *r + 1 == round)
                .map(|(_, t)| *t)
                .max()
                .unwrap();
            assert!(min_this > max_prev, "invariant broken: {sc:?}");
        }
    }
}

#[test]
fn any_scenario_synchronizes() {
    forall(48, 0x5757_0001, |g| {
        let sc = scenario(g);
        run_scenario(&sc);
    });
}

/// A directed regression sweep over the scenario corners the random
/// strategy may miss (maximum packing, dim ≥ procs, heavy loss).
#[test]
fn corner_scenarios() {
    let corners = [
        Scenario {
            procs: 12,
            procs_per_node: 3,
            algo: Descriptor::gb(4),
            rounds: 3,
            skews: vec![0; 12],
            drop_pct: 20,
            seed: 7,
        },
        Scenario {
            procs: 2,
            procs_per_node: 2, // both processes on ONE node: wire never used
            algo: Descriptor::Pe,
            rounds: 4,
            skews: vec![100, 0],
            drop_pct: 0,
            seed: 0,
        },
        Scenario {
            procs: 5,
            procs_per_node: 1,
            algo: Descriptor::gb(4), // dim ≈ procs: flat tree
            rounds: 2,
            skews: vec![0, 399, 1, 250, 9],
            drop_pct: 10,
            seed: 3,
        },
    ];
    for sc in &corners {
        run_scenario(sc);
    }
}

// ---- Segmentation oracle: pipelining must not change any result ----

use nic_barrier_suite::barrier::programs::{OneShotCollective, NOTE_COLLECTIVE_VALUE};
use nic_barrier_suite::barrier::ReduceOp;
use nic_barrier_suite::gm::Payload;

#[derive(Debug, Clone)]
struct SegScenario {
    n: usize,
    dim: usize,
    op: ReduceOp,
    /// 0 = reduce, 1 = allreduce, 2 = scan, 3 = broadcast.
    kind: usize,
    bytes: u64,
    seg_bytes: u64,
    values: Vec<u64>,
    skews: Vec<u64>,
    drop_pct: u8,
    seed: u64,
}

fn seg_scenario(g: &mut Gen) -> SegScenario {
    let n = g.usize_in(2, 10);
    // Always at least two segments, so the pipelined arm really pipelines.
    let seg_bytes = g.u64_in(1, 3) * 2048;
    let bytes = seg_bytes * g.u64_in(2, 6) + g.u64_in(0, seg_bytes - 1);
    SegScenario {
        n,
        dim: g.usize_in(1, 3),
        op: [ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max][g.usize_in(0, 2)],
        kind: g.usize_in(0, 3),
        bytes,
        seg_bytes,
        // Small enough that a 10-rank Sum stays under 2^32: completion
        // notes pack the delivered value into the low 32 tag bits.
        values: (0..n).map(|_| g.u64_in(0, 0x0FFF_FFFF)).collect(),
        skews: (0..n).map(|_| g.u64_in(0, 399)).collect(),
        drop_pct: g.u8_in(0, 10),
        seed: g.any_u64(),
    }
}

/// Run one collective over `payload` and collect each rank's delivered
/// value, sorted by rank.
fn seg_run(sc: &SegScenario, payload: Payload) -> Vec<(usize, u64)> {
    let group = BarrierGroup::one_per_node(sc.n, 1);
    let desc = match sc.kind {
        0 => Descriptor::reduce(sc.op, sc.dim),
        1 => Descriptor::allreduce(sc.op, sc.dim),
        2 => Descriptor::scan(sc.op),
        _ => Descriptor::bcast(sc.dim),
    }
    .with_payload(payload);
    let mut b = ClusterBuilder::new(sc.n)
        .config(GmConfig::paper_host(NicModel::LANAI_4_3))
        .extension(BarrierExtension::factory());
    if sc.drop_pct > 0 {
        b = b.faults(FaultPlan::drops(sc.drop_pct as f64 / 100.0), sc.seed);
    }
    for rank in 0..sc.n {
        let value = if sc.kind == 3 && rank != 0 {
            0
        } else {
            sc.values[rank]
        };
        let token = group.token(desc, rank).with_value(value);
        b = b.program(
            group.member(rank),
            Box::new(OneShotCollective::new(token)),
            SimTime::from_us(sc.skews[rank]),
        );
    }
    let mut sim = b.build();
    assert_eq!(sim.run(), RunOutcome::Quiescent, "hung: {sc:?}");
    let mut out: Vec<(usize, u64)> = sim
        .world()
        .notes
        .iter()
        .filter(|n| n.tag & NOTE_COLLECTIVE_VALUE == NOTE_COLLECTIVE_VALUE)
        .map(|n| (n.node().0, n.tag & 0xFFFF_FFFF))
        .collect();
    out.sort_unstable();
    out
}

/// Cutting a payload into segments must not change any delivered value:
/// each segment is an independent combine lane, so the segmented run is
/// combine-order-identical to the unsegmented (eager) oracle — even with
/// skews and packet loss reordering arrivals.
#[test]
fn segmented_collectives_match_eager_oracle() {
    forall(32, 0x5e65_0001, |g| {
        let sc = seg_scenario(g);
        let eager = seg_run(&sc, Payload::eager(sc.bytes));
        let piped = seg_run(&sc, Payload::pipelined(sc.bytes, sc.seg_bytes));
        assert_eq!(eager, piped, "segmentation changed a result: {sc:?}");
        assert!(!eager.is_empty(), "no results delivered: {sc:?}");
    });
}
