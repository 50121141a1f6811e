//! §3.2 lifecycle tests: initialization and cleanup of barrier state when
//! processes die and endpoints are reused.
//!
//! The paper's motivating scenario: process A (node 0) initiates a barrier
//! with process B (node 1); B dies before the message arrives; A dies too;
//! replacements A′ and B′ reuse the same endpoints. Without the
//! record-then-reject-on-open protocol, B′ could consume A's stale message
//! and complete a barrier A′ never entered.

use nic_barrier_suite::barrier::nic::{pkt, record_stats_of, stats_of, BarrierExtension};
use nic_barrier_suite::barrier::programs::{decode_note, note_tag};
use nic_barrier_suite::barrier::{BarrierGroup, Descriptor};
use nic_barrier_suite::des::{RunOutcome, SimTime};
use nic_barrier_suite::gm::cluster::ClusterBuilder;
use nic_barrier_suite::gm::{GmConfig, GmEvent, HostCtx, HostProgram};
use nic_barrier_suite::lanai::NicModel;

/// Process A: starts a 2-party barrier, then dies (closes its port) before
/// it can complete.
struct DoomedInitiator {
    group: BarrierGroup,
    rank: usize,
    die_after: SimTime,
}

impl HostProgram for DoomedInitiator {
    fn on_start(&mut self, ctx: &mut HostCtx) {
        ctx.start_collective(self.group.token(Descriptor::Pe, self.rank));
        // Die before the barrier can possibly complete: close the port.
        ctx.compute(self.die_after);
        ctx.close_port();
    }
    fn on_event(&mut self, _: &GmEvent, _: &mut HostCtx) {}
}

/// Replacement process: runs one barrier and notes completion.
struct Replacement {
    group: BarrierGroup,
    rank: usize,
    done: bool,
}

impl HostProgram for Replacement {
    fn on_start(&mut self, ctx: &mut HostCtx) {
        ctx.start_collective(self.group.token(Descriptor::Pe, self.rank));
    }
    fn on_event(&mut self, ev: &GmEvent, ctx: &mut HostCtx) {
        if matches!(ev, GmEvent::BarrierComplete { .. }) && !self.done {
            self.done = true;
            ctx.note(note_tag(0));
        }
    }
}

/// The full A/B/A′/B′ scenario. B never starts at all (died before opening
/// its port); A's barrier message is recorded against B's closed port. A
/// dies. Then A′ and B′ start on the same endpoints and must complete
/// *their* barrier — driven by the §3.2 reject/resend protocol, since the
/// stale record for B's port is flushed back to A's endpoint (now owned by
/// A′, whose epoch differs, so nothing is wrongly resent).
#[test]
fn stale_barrier_message_does_not_leak_into_new_processes() {
    let group = BarrierGroup::one_per_node(2, 1);
    let mut sim = ClusterBuilder::new(2)
        .config(GmConfig::paper_host(NicModel::LANAI_4_3))
        .extension(BarrierExtension::factory())
        // A on node 0 port 1: initiates, dies at t=200us.
        .program(
            group.member(0),
            Box::new(DoomedInitiator {
                group: group.clone(),
                rank: 0,
                die_after: SimTime::from_us(200),
            }),
            SimTime::ZERO,
        )
        // B never starts. A′ takes over node 0 port 1 at t=1ms.
        .program(
            group.member(0),
            Box::new(Replacement {
                group: group.clone(),
                rank: 0,
                done: false,
            }),
            SimTime::from_ms(1),
        )
        // B′ takes over node 1 port 1 at t=1.2ms.
        .program(
            group.member(1),
            Box::new(Replacement {
                group: group.clone(),
                rank: 1,
                done: false,
            }),
            SimTime::from_us(1_200),
        )
        .build();
    assert_eq!(sim.run(), RunOutcome::Quiescent);
    let cl = sim.world();
    // Both replacements completed exactly one barrier.
    let done: Vec<_> = cl
        .notes
        .iter()
        .filter(|n| decode_note(n.tag).is_some())
        .collect();
    assert_eq!(done.len(), 2, "both A' and B' complete");
    // And only after B′ started: the stale record must not have completed
    // B′'s barrier against A's old message.
    for n in &done {
        assert!(
            n.at > SimTime::from_us(1_200),
            "completion at {:?} predates B' starting",
            n.at
        );
    }
    // The §3.2 machinery actually fired: node 1 recorded A's message while
    // its port was closed; A′'s later message (a different epoch of the
    // same endpoint) superseded it, so A's message can never complete
    // anything. When B′ opened, the surviving record was rejected back,
    // and A′ — same epoch, barrier still in flight — resent it.
    let r1 = record_stats_of(cl, 1);
    assert!(
        r1.superseded >= 1,
        "A's dead-process record must be superseded by A′'s"
    );
    assert_eq!(r1.queued_extra, 0, "no same-process duplicates");
    let s1 = stats_of(cl, 1);
    assert!(s1.rejects_sent >= 1, "B' should flush the recorded message");
    let s0 = stats_of(cl, 0);
    assert!(s0.rejects_received >= 1);
    assert!(s0.resends >= 1, "A′ must resend to complete its barrier");
}

/// The benign §3.2 case: the receiver's process simply hasn't started yet.
/// The sender's barrier message is recorded, rejected on open, and resent —
/// because the sender is still the same process (same epoch), the barrier
/// completes normally. "This may happen, if, for instance, the first
/// action of a program is to do a barrier in order to make sure all its
/// peers have started."
#[test]
fn barrier_before_peer_starts_completes_via_resend() {
    let group = BarrierGroup::one_per_node(2, 1);
    let mut sim = ClusterBuilder::new(2)
        .config(GmConfig::paper_host(NicModel::LANAI_4_3))
        .extension(BarrierExtension::factory())
        .program(
            group.member(0),
            Box::new(Replacement {
                group: group.clone(),
                rank: 0,
                done: false,
            }),
            SimTime::ZERO,
        )
        // The peer opens its port 5ms later.
        .program(
            group.member(1),
            Box::new(Replacement {
                group: group.clone(),
                rank: 1,
                done: false,
            }),
            SimTime::from_ms(5),
        )
        .build();
    assert_eq!(sim.run(), RunOutcome::Quiescent);
    let cl = sim.world();
    let done = cl
        .notes
        .iter()
        .filter(|n| decode_note(n.tag).is_some())
        .count();
    assert_eq!(done, 2);
    let s1 = stats_of(cl, 1);
    assert!(
        s1.rejects_sent >= 1,
        "late opener rejects the early message"
    );
    let s0 = stats_of(cl, 0);
    assert_eq!(s0.stale_rejects, 0, "sender is alive: reject is not stale");
    assert!(s0.resends >= 1, "sender must resend after the reject");
}

/// Closing a port mid-barrier aborts the NIC-side state (the paper's
/// benchmark constraint, §4.4, is that this never happens during
/// measurement — here we verify the firmware cleans up rather than leaks).
#[test]
fn close_aborts_inflight_collective() {
    let group = BarrierGroup::one_per_node(2, 1);
    let mut sim = ClusterBuilder::new(2)
        .config(GmConfig::paper_host(NicModel::LANAI_4_3))
        .extension(BarrierExtension::factory())
        .program(
            group.member(0),
            Box::new(DoomedInitiator {
                group: group.clone(),
                rank: 0,
                die_after: SimTime::from_us(100),
            }),
            SimTime::ZERO,
        )
        .build();
    assert_eq!(sim.run(), RunOutcome::Quiescent);
    let s0 = stats_of(sim.world(), 0);
    assert_eq!(s0.aborted, 1, "the in-flight barrier must be aborted");
    assert_eq!(s0.completions, 0);
}

/// REJECT packets must never be generated for ports that were never sent
/// anything — opening a fresh port is silent.
#[test]
fn opening_untouched_port_sends_nothing() {
    let group = BarrierGroup::one_per_node(2, 1);
    let mut sim = ClusterBuilder::new(2)
        .config(GmConfig::paper_host(NicModel::LANAI_4_3))
        .extension(BarrierExtension::factory())
        .program(
            group.member(0),
            Box::new(Replacement {
                group: group.clone(),
                rank: 0,
                done: false,
            }),
            SimTime::ZERO,
        )
        .program(
            group.member(1),
            Box::new(Replacement {
                group: group.clone(),
                rank: 1,
                done: false,
            }),
            SimTime::ZERO,
        )
        .build();
    sim.run();
    let cl = sim.world();
    for node in 0..2 {
        assert_eq!(stats_of(cl, node).rejects_sent, 0);
    }
    // Double-check no REJECT-typed packet exists in the trace by counting
    // extension stats; pkt::REJECT is only produced by the reject path.
    let _ = pkt::REJECT;
}
