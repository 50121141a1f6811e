//! §3.3 reliability and ordering: "a lost barrier message could hang
//! processes indefinitely" — with the reliable wire mode, barriers must
//! survive packet drops and corruption; and barrier packets travel in the
//! same ordered stream as data, so messages sent before a barrier are
//! delivered before it completes at the receiver.

use nic_barrier_suite::barrier::programs::{decode_note, note_tag, NicBarrierLoop};
use nic_barrier_suite::barrier::{BarrierExtension, BarrierGroup, Descriptor};
use nic_barrier_suite::des::{RunOutcome, SimTime};
use nic_barrier_suite::gm::cluster::ClusterBuilder;
use nic_barrier_suite::gm::{GlobalPort, GmConfig, GmEvent, HostCtx, HostProgram};
use nic_barrier_suite::lanai::NicModel;
use nic_barrier_suite::myrinet::fault::FaultPlan;

fn lossy_barrier_run(drop_p: f64, corrupt_p: f64, seed: u64, n: usize, rounds: u64) -> bool {
    let group = BarrierGroup::one_per_node(n, 1);
    let mut b = ClusterBuilder::new(n)
        .config(GmConfig::paper_host(NicModel::LANAI_4_3))
        .faults(
            FaultPlan {
                drop_probability: drop_p,
                corrupt_probability: corrupt_p,
                ..FaultPlan::NONE
            },
            seed,
        )
        .extension(BarrierExtension::factory());
    for rank in 0..n {
        b = b.program(
            group.member(rank),
            Box::new(NicBarrierLoop::new(
                group.clone(),
                rank,
                Descriptor::Pe,
                rounds,
            )),
            SimTime::ZERO,
        );
    }
    let mut sim = b.build();
    if sim.run() != RunOutcome::Quiescent {
        return false;
    }
    let done = sim
        .world()
        .notes
        .iter()
        .filter(|r| decode_note(r.tag).is_some())
        .count() as u64;
    done == n as u64 * rounds
}

#[test]
fn barriers_survive_packet_drops() {
    for seed in [1u64, 2, 3] {
        assert!(
            lossy_barrier_run(0.10, 0.0, seed, 8, 10),
            "10% drops, seed {seed}"
        );
    }
}

#[test]
fn barriers_survive_corruption() {
    assert!(lossy_barrier_run(0.0, 0.15, 7, 8, 10));
}

#[test]
fn barriers_survive_heavy_combined_loss() {
    assert!(lossy_barrier_run(0.25, 0.10, 11, 4, 8));
}

#[test]
fn gb_barriers_survive_drops_too() {
    let n = 6;
    let group = BarrierGroup::one_per_node(n, 1);
    let mut b = ClusterBuilder::new(n)
        .config(GmConfig::paper_host(NicModel::LANAI_4_3))
        .faults(FaultPlan::drops(0.15), 23)
        .extension(BarrierExtension::factory());
    for rank in 0..n {
        b = b.program(
            group.member(rank),
            Box::new(NicBarrierLoop::new(
                group.clone(),
                rank,
                Descriptor::gb(2),
                6,
            )),
            SimTime::ZERO,
        );
    }
    let mut sim = b.build();
    assert_eq!(sim.run(), RunOutcome::Quiescent);
    let done = sim
        .world()
        .notes
        .iter()
        .filter(|r| decode_note(r.tag).is_some())
        .count();
    assert_eq!(done, n * 6);
}

#[test]
fn drops_actually_happened_and_were_retransmitted() {
    let n = 4;
    let group = BarrierGroup::one_per_node(n, 1);
    let mut b = ClusterBuilder::new(n)
        .config(GmConfig::paper_host(NicModel::LANAI_4_3))
        .faults(FaultPlan::drops(0.2), 5)
        .extension(BarrierExtension::factory());
    for rank in 0..n {
        b = b.program(
            group.member(rank),
            Box::new(NicBarrierLoop::new(group.clone(), rank, Descriptor::Pe, 10)),
            SimTime::ZERO,
        );
    }
    let mut sim = b.build();
    assert_eq!(sim.run(), RunOutcome::Quiescent);
    let cl = sim.world();
    assert!(
        cl.fabric.stats().drops > 0,
        "the fault plan must have fired"
    );
    let retx: u64 = (0..n).map(|i| cl.nodes[i].mcp.core.stats.retx).sum();
    assert!(retx > 0, "recovery must use retransmissions");
}

/// §3.3's ordering guarantee: a data message sent *before* the sender
/// initiates a barrier is received *before* that barrier completes at the
/// receiver (both travel the same reliable in-order stream).
struct SenderThenBarrier {
    group: BarrierGroup,
    peer: GlobalPort,
}
impl HostProgram for SenderThenBarrier {
    fn on_start(&mut self, ctx: &mut HostCtx) {
        ctx.send(self.peer, 256, 777); // data first
        ctx.start_collective(self.group.token(Descriptor::Pe, 0)); // then the barrier
    }
    fn on_event(&mut self, ev: &GmEvent, ctx: &mut HostCtx) {
        if matches!(ev, GmEvent::BarrierComplete { .. }) {
            ctx.note(note_tag(0));
        }
    }
}
struct ReceiverInBarrier {
    group: BarrierGroup,
    data_at: Option<SimTime>,
    barrier_at: Option<SimTime>,
}
impl HostProgram for ReceiverInBarrier {
    fn on_start(&mut self, ctx: &mut HostCtx) {
        ctx.start_collective(self.group.token(Descriptor::Pe, 1));
    }
    fn on_event(&mut self, ev: &GmEvent, ctx: &mut HostCtx) {
        match ev {
            GmEvent::Recv { tag: 777, .. } => {
                self.data_at = Some(ctx.now);
                ctx.provide_recv(1);
                ctx.note(1000);
            }
            GmEvent::BarrierComplete { .. } => {
                self.barrier_at = Some(ctx.now);
                ctx.note(note_tag(0));
            }
            _ => {}
        }
    }
}

#[test]
fn message_before_barrier_arrives_before_barrier_completes() {
    // Run with drops so a retransmission could reorder things if the
    // implementation were wrong.
    for (seed, drops) in [(0u64, 0.0), (3, 0.2), (9, 0.2)] {
        let group = BarrierGroup::one_per_node(2, 1);
        let mut b = ClusterBuilder::new(2).config(GmConfig::paper_host(NicModel::LANAI_4_3));
        if drops > 0.0 {
            b = b.faults(FaultPlan::drops(drops), seed);
        }
        let mut sim = b
            .extension(BarrierExtension::factory())
            .program(
                group.member(0),
                Box::new(SenderThenBarrier {
                    group: group.clone(),
                    peer: group.member(1),
                }),
                SimTime::ZERO,
            )
            .program(
                group.member(1),
                Box::new(ReceiverInBarrier {
                    group: group.clone(),
                    data_at: None,
                    barrier_at: None,
                }),
                SimTime::ZERO,
            )
            .build();
        assert_eq!(sim.run(), RunOutcome::Quiescent, "seed {seed}");
        let cl = sim.world();
        let data_at = cl
            .notes
            .iter()
            .find(|n| n.tag == 1000)
            .map(|n| n.at)
            .expect("data must arrive");
        let barrier_at = cl
            .notes
            .iter()
            .filter(|n| decode_note(n.tag).is_some() && n.node().0 == 1)
            .map(|n| n.at)
            .max()
            .expect("barrier must complete at the receiver");
        assert!(
            data_at < barrier_at,
            "seed {seed}: data at {data_at:?} must precede barrier completion {barrier_at:?}"
        );
    }
}

#[test]
fn fault_free_and_faulty_runs_reach_identical_steady_state_results() {
    // Reliability is transparent: the set of completions is identical with
    // and without faults (times differ, results don't).
    let run_count = |faults: bool| {
        let n = 4;
        let group = BarrierGroup::one_per_node(n, 1);
        let mut b = ClusterBuilder::new(n)
            .config(GmConfig::paper_host(NicModel::LANAI_4_3))
            .extension(BarrierExtension::factory());
        if faults {
            b = b.faults(FaultPlan::drops(0.3), 17);
        }
        for rank in 0..n {
            b = b.program(
                group.member(rank),
                Box::new(NicBarrierLoop::new(group.clone(), rank, Descriptor::Pe, 7)),
                SimTime::ZERO,
            );
        }
        let mut sim = b.build();
        assert_eq!(sim.run(), RunOutcome::Quiescent);
        sim.world()
            .notes
            .iter()
            .filter(|r| decode_note(r.tag).is_some())
            .count()
    };
    assert_eq!(run_count(false), run_count(true));
}
