//! Bit-exactness gate for the conservative parallel DES core.
//!
//! The parallel engine (DESIGN.md §15) promises that `.parallel(t)` only
//! trades wall-clock time: every virtual-time observable — latencies,
//! event counts, counters, histograms, traces — must be **bit-identical**
//! to the serial scheduler for any thread count. This suite pins that
//! promise three ways:
//!
//! 1. The full 310-configuration golden fixtures (the pre-IR latency
//!    capture and the output digests that `tests/golden_equivalence.rs`
//!    guards serially) re-run through the parallel path with 2 workers,
//!    demanding exact equality.
//! 2. A property matrix over algorithms × faults × teams × layout ×
//!    tracing, comparing the output digest and the trace between serial
//!    and t ∈ {2, 4, 8}.
//! 3. The degenerate partitionings: a zero-lookahead fabric and a
//!    one-node cluster must fall back to the serial engine rather than
//!    deadlock or window incorrectly.

use nic_barrier_suite::des::{RunOutcome, SimTime};
use nic_barrier_suite::gm::cluster::ClusterBuilder;
use nic_barrier_suite::gm::events::GmEvent;
use nic_barrier_suite::gm::host::{HostCtx, HostProgram};
use nic_barrier_suite::gm::ids::GlobalPort;
use nic_barrier_suite::myrinet::route::Vertex;
use nic_barrier_suite::myrinet::topology::{LinkSpec, TopologyBuilder};
use nic_barrier_suite::testbed::prelude::*;

#[path = "common/golden.rs"]
mod golden;

/// The whole pre-refactor capture, replayed through the parallel engine.
///
/// Every golden configuration lives on a single crossbar, where the
/// partition map degrades to one LP per NIC — so 2 workers genuinely
/// exercises cross-LP windowing, not a serial fallback.
#[test]
fn golden_fixture_reproduced_bit_exactly_through_pdes() {
    golden::assert_reproduced("parallel(2)", |e| e.parallel(2));
}

/// Serial ≡ parallel(t) for t ∈ {2, 4, 8} across a configuration matrix
/// that exercises every mechanism the windowed engine must replay
/// deterministically: lossy links (fault RNG draw order), teams, packed
/// layout (same-NIC loopback stays in-LP), skewed starts, and bounded
/// trace rings (eviction order).
#[test]
fn parallel_measurements_match_serial_across_configs() {
    let configs: Vec<(&str, BarrierExperiment)> = vec![
        (
            "nic-pe n=16 lossy",
            BarrierExperiment::new(16, Algorithm::Nic(Descriptor::Pe))
                .rounds(30, 4)
                .faults(FaultPlan::drops(0.02))
                .skew(3, 11),
        ),
        (
            "host-gb n=24 team",
            BarrierExperiment::new(24, Algorithm::Host(Descriptor::gb(2)))
                .rounds(20, 3)
                .team(TeamId(9)),
        ),
        (
            "nic-gb n=32 packed traced",
            BarrierExperiment::new(32, Algorithm::Nic(Descriptor::gb(4)))
                .rounds(20, 3)
                .layout(ProcessLayout::Packed { procs_per_node: 2 })
                .trace(512),
        ),
        (
            "nic-pe n=8 lossy traced",
            BarrierExperiment::new(8, Algorithm::Nic(Descriptor::Pe))
                .rounds(25, 4)
                .faults(FaultPlan::drops(0.05))
                .trace(256),
        ),
    ];
    for (label, base) in &configs {
        let serial = base.run().unwrap();
        for threads in [2usize, 4, 8] {
            let par = base.parallel(threads).run().unwrap();
            assert_eq!(serial.digest(), par.digest(), "{label} t={threads}");
            assert_eq!(serial.trace, par.trace, "{label} t={threads}: trace");
        }
    }
}

/// Segment streams are the newest source of event-count pressure on the
/// windowed engine: a pipelined collective multiplies every wire packet,
/// per-lane combine, and DMA completion by the segment count, and the
/// per-segment REJECT/resend protocol interleaves with port-open skew.
/// All of it must still replay bit-identically under `build_parallel(2)`.
#[test]
fn segmented_payload_streams_replay_bit_identically() {
    use nic_barrier_suite::barrier::ReduceOp;
    use nic_barrier_suite::gm::Payload;
    let configs: Vec<(&str, BarrierExperiment)> = vec![
        (
            "nic-bcast n=16 pipelined 64K skewed",
            BarrierExperiment::new(
                16,
                Algorithm::Nic(Descriptor::bcast(2).with_payload(Payload::pipelined(65536, 4096))),
            )
            .rounds(12, 2)
            .skew(5, 97),
        ),
        (
            "nic-allreduce n=24 pipelined 20000/4096 lossy",
            BarrierExperiment::new(
                24,
                Algorithm::Nic(
                    Descriptor::allreduce(ReduceOp::Sum, 3)
                        .with_payload(Payload::pipelined(20000, 4096)),
                ),
            )
            .rounds(10, 2)
            .faults(FaultPlan::drops(0.02)),
        ),
        (
            "nic-scan n=12 pipelined odd-size packed",
            BarrierExperiment::new(
                12,
                Algorithm::Nic(
                    Descriptor::scan(ReduceOp::Max).with_payload(Payload::pipelined(9001, 2048)),
                ),
            )
            .rounds(10, 2)
            .layout(ProcessLayout::Packed { procs_per_node: 2 }),
        ),
        (
            "nic-reduce n=16 eager 16K traced",
            BarrierExperiment::new(
                16,
                Algorithm::Nic(
                    Descriptor::reduce(ReduceOp::Min, 2).with_payload(Payload::eager(16384)),
                ),
            )
            .rounds(10, 2)
            .trace(512),
        ),
    ];
    for (label, base) in &configs {
        let serial = base.run().unwrap();
        let par = base.parallel(2).run().unwrap();
        assert_eq!(serial.digest(), par.digest(), "{label}");
        assert_eq!(serial.trace, par.trace, "{label}: trace");
    }
}

/// Sends a short tagged ping-pong with a fixed peer; used to drive the
/// degenerate-topology clusters below with real traffic.
struct PingPong {
    peer: GlobalPort,
    initiator: bool,
}

impl HostProgram for PingPong {
    fn on_start(&mut self, ctx: &mut HostCtx) {
        if self.initiator {
            ctx.send(self.peer, 64, 1);
        }
    }
    fn on_event(&mut self, ev: &GmEvent, ctx: &mut HostCtx) {
        if let GmEvent::Recv { tag, .. } = ev {
            ctx.note(*tag);
            ctx.provide_recv(1);
            if *tag < 4 {
                ctx.send(self.peer, 64, tag + 1);
            }
        }
    }
}

fn ping_pong_cluster(n: usize) -> ClusterBuilder {
    let mut b = ClusterBuilder::new(n);
    for i in 0..n {
        let peer = GlobalPort::new((i + 1) % n, 1);
        b = b.program(
            GlobalPort::new(i, 1),
            Box::new(PingPong {
                peer,
                initiator: i % 2 == 0,
            }),
            SimTime::from_us(i as u64),
        );
    }
    b
}

/// A fabric whose minimum delivery latency is zero admits no conservative
/// window: the engine must refuse to partition and run serially — same
/// results, no deadlock.
#[test]
fn zero_lookahead_fabric_falls_back_to_serial() {
    let topology = || {
        let mut b = TopologyBuilder::new();
        let sw = b.add_switch(SimTime::ZERO);
        let spec = LinkSpec {
            bytes_per_ns: f64::INFINITY,
            propagation: SimTime::ZERO,
        };
        for _ in 0..2 {
            let n = b.add_nic();
            b.connect(Vertex::Nic(n), Vertex::Switch(sw), spec);
        }
        let t = b.build();
        assert_eq!(t.min_delivery_latency(), Some(SimTime::ZERO));
        t
    };

    let mut serial = ping_pong_cluster(2).topology(topology()).build();
    assert_eq!(serial.run(), RunOutcome::Quiescent);
    let serial_digest = serial
        .world()
        .output_digest(serial.events_fired(), |_, _| {});

    let mut par = ping_pong_cluster(2).topology(topology()).build_parallel(4);
    assert!(
        !par.is_parallel(),
        "zero lookahead must force the serial fallback"
    );
    assert_eq!(par.partitions(), 1);
    assert_eq!(par.run(), RunOutcome::Quiescent);
    let events = par.events_fired();
    assert_eq!(
        par.into_world().output_digest(events, |_, _| {}),
        serial_digest
    );
}

/// One node is one partition: nothing to overlap, so the engine runs the
/// proven serial scheduler instead of paying window synchronization.
#[test]
fn one_node_cluster_is_a_single_serial_partition() {
    let mut par = ping_pong_cluster(1).build_parallel(8);
    assert!(!par.is_parallel());
    assert_eq!(par.partitions(), 1);
    assert_eq!(par.run(), RunOutcome::Quiescent);

    let mut serial = ping_pong_cluster(1).build();
    assert_eq!(serial.run(), RunOutcome::Quiescent);
    assert_eq!(par.events_fired(), serial.events_fired());
}
