//! Host-model semantics: program-order action timing, event queueing under
//! load, and send-token flow control at the cluster level.

use nic_barrier_suite::des::{RunOutcome, SimTime};
use nic_barrier_suite::gm::cluster::ClusterBuilder;
use nic_barrier_suite::gm::{GlobalPort, GmConfig, GmEvent, HostCtx, HostProgram, PortId};
use nic_barrier_suite::lanai::NicModel;

struct Script {
    acts: Vec<fn(&mut HostCtx)>,
}
impl HostProgram for Script {
    fn on_start(&mut self, ctx: &mut HostCtx) {
        for a in &self.acts {
            a(ctx);
        }
    }
    fn on_event(&mut self, ev: &GmEvent, ctx: &mut HostCtx) {
        if matches!(ev, GmEvent::Recv { .. }) {
            ctx.provide_recv(1);
            ctx.note(0xEC);
        }
    }
}

/// Compute before a send delays the send by exactly the compute time: the
/// receiver sees the message one compute-quantum later.
#[test]
fn compute_delays_subsequent_send() {
    let arrival = |precompute_us: u64| -> SimTime {
        let acts: Vec<fn(&mut HostCtx)> = if precompute_us == 0 {
            vec![|ctx| ctx.send(GlobalPort::new(1, 1), 8, 1)]
        } else {
            vec![|ctx| ctx.compute(SimTime::from_us(250)), |ctx| {
                ctx.send(GlobalPort::new(1, 1), 8, 1)
            }]
        };
        let mut sim = ClusterBuilder::new(2)
            .config(GmConfig::paper_host(NicModel::LANAI_4_3))
            .program(
                GlobalPort::new(0, 1),
                Box::new(Script { acts }),
                SimTime::ZERO,
            )
            .program(
                GlobalPort::new(1, 1),
                Box::new(Script { acts: vec![] }),
                SimTime::ZERO,
            )
            .build();
        assert_eq!(sim.run(), RunOutcome::Quiescent);
        sim.world()
            .notes
            .iter()
            .find(|n| n.tag == 0xEC)
            .expect("message not received")
            .at
    };
    let base = arrival(0);
    let delayed = arrival(250);
    assert_eq!(delayed - base, SimTime::from_us(250));
}

/// Back-to-back sends serialize at the host by exactly the Send overhead.
#[test]
fn sends_serialize_at_send_overhead() {
    struct Burst;
    impl HostProgram for Burst {
        fn on_start(&mut self, ctx: &mut HostCtx) {
            for tag in 0..4 {
                ctx.send(GlobalPort::new(1, 1), 8, tag);
            }
        }
        fn on_event(&mut self, _: &GmEvent, _: &mut HostCtx) {}
    }
    struct Stamper;
    impl HostProgram for Stamper {
        fn on_start(&mut self, _: &mut HostCtx) {}
        fn on_event(&mut self, ev: &GmEvent, ctx: &mut HostCtx) {
            if let GmEvent::Recv { tag, .. } = ev {
                ctx.provide_recv(1);
                ctx.note(0xAB00 | *tag);
            }
        }
    }
    let mut sim = ClusterBuilder::new(2)
        .config(GmConfig::paper_host(NicModel::LANAI_4_3))
        .program(GlobalPort::new(0, 1), Box::new(Burst), SimTime::ZERO)
        .program(GlobalPort::new(1, 1), Box::new(Stamper), SimTime::ZERO)
        .build();
    assert_eq!(sim.run(), RunOutcome::Quiescent);
    let times: Vec<SimTime> = (0..4u64)
        .map(|tag| {
            sim.world()
                .notes
                .iter()
                .find(|n| n.tag == 0xAB00 | tag)
                .unwrap()
                .at
        })
        .collect();
    // In-order arrival (same reliable stream), spaced by at least some
    // serialization (host posts are 8us apart; NIC/host pipelines may
    // compress but never reorder).
    for w in times.windows(2) {
        assert!(w[0] < w[1], "delivery out of order: {times:?}");
    }
}

/// Events queued while the host is busy are processed back to back, each
/// paying HRecv, in arrival order.
#[test]
fn busy_host_drains_event_queue_in_order() {
    struct BusySink {
        order: Vec<u64>,
    }
    impl HostProgram for BusySink {
        fn on_start(&mut self, ctx: &mut HostCtx) {
            // Hog the host long enough for all messages to arrive.
            ctx.compute(SimTime::from_ms(1));
        }
        fn on_event(&mut self, ev: &GmEvent, ctx: &mut HostCtx) {
            if let GmEvent::Recv { tag, .. } = ev {
                self.order.push(*tag);
                ctx.provide_recv(1);
                ctx.note(0xD0_0000 | (self.order.len() as u64));
            }
        }
    }
    struct Burst;
    impl HostProgram for Burst {
        fn on_start(&mut self, ctx: &mut HostCtx) {
            for tag in 0..5 {
                ctx.send(GlobalPort::new(1, 1), 8, tag);
            }
        }
        fn on_event(&mut self, _: &GmEvent, _: &mut HostCtx) {}
    }
    let mut sim = ClusterBuilder::new(2)
        .config(GmConfig::paper_host(NicModel::LANAI_4_3))
        .program(GlobalPort::new(0, 1), Box::new(Burst), SimTime::ZERO)
        .program(
            GlobalPort::new(1, 1),
            Box::new(BusySink { order: vec![] }),
            SimTime::ZERO,
        )
        .build();
    assert_eq!(sim.run(), RunOutcome::Quiescent);
    let cl = sim.world();
    // All five processed, the first no earlier than the 1ms compute ends,
    // consecutive ones exactly HRecv apart (queue drain).
    let times: Vec<SimTime> = (1..=5u64)
        .map(|i| cl.notes.iter().find(|n| n.tag == 0xD0_0000 | i).unwrap().at)
        .collect();
    assert!(times[0] >= SimTime::from_ms(1));
    let hrecv = cl.config().host_recv_overhead;
    for w in times.windows(2) {
        assert_eq!(w[1] - w[0], hrecv, "queue drain spacing");
    }
}

/// Exhausting send tokens is never silent: GM would block the process, so
/// the cluster drops the send and records the starved port on its node for
/// whoever runs the cluster to report.
#[test]
fn send_token_exhaustion_is_recorded() {
    struct Flood;
    impl HostProgram for Flood {
        fn on_start(&mut self, ctx: &mut HostCtx) {
            for tag in 0..64 {
                ctx.send(GlobalPort::new(1, 1), 8, tag);
            }
        }
        fn on_event(&mut self, _: &GmEvent, _: &mut HostCtx) {}
    }
    let config = GmConfig::paper_host(NicModel::LANAI_4_3);
    let mut sim = ClusterBuilder::new(2)
        .config(config)
        .program(GlobalPort::new(0, 1), Box::new(Flood), SimTime::ZERO)
        .program(
            GlobalPort::new(1, 1),
            Box::new(Script { acts: vec![] }),
            SimTime::ZERO,
        )
        .build();
    assert_eq!(sim.run(), RunOutcome::Quiescent);
    let cl = sim.world();
    assert_eq!(cl.nodes[0].starved, Some(PortId(1)));
    assert_eq!(cl.nodes[1].starved, None);
    // Only the sends that found a token were delivered.
    let delivered = cl.notes.iter().filter(|n| n.tag == 0xEC).count();
    assert_eq!(delivered, config.send_tokens_per_port as usize);
}
