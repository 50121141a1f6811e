//! Connections are created on first use: a NIC holds go-back-N state only
//! for the peers it exchanged packets with, and post-run inspection still
//! sees them in ascending peer order.

use gmsim_des::rng::SimRng;
use gmsim_des::trace::{TracePayload, Tracer};
use gmsim_des::{RunOutcome, SimTime};
use gmsim_gm::cluster::ClusterBuilder;
use gmsim_gm::{GlobalPort, GmConfig, GmEvent, HostCtx, HostProgram, McpCore, NodeId};
use gmsim_lanai::NicModel;
use gmsim_myrinet::FaultPlan;
use nic_barrier::{BarrierExtension, BarrierGroup, Descriptor, NicBarrierLoop};
use std::borrow::Cow;
use std::collections::BTreeSet;

/// Peer node ids of every connection `node` holds, in iteration order.
fn connection_peers(cluster: &gmsim_gm::cluster::Cluster, node: usize) -> Vec<usize> {
    cluster.nodes[node]
        .mcp
        .core
        .connections()
        .map(|c| c.peer().0)
        .collect()
}

#[test]
fn pe_barrier_holds_connections_only_for_its_partners() {
    const N: usize = 64;
    let tracer = Tracer::bounded(1 << 20);
    let group = BarrierGroup::one_per_node(N, 1);
    let mut b = ClusterBuilder::new(N)
        .config(GmConfig::paper_host(NicModel::LANAI_4_3))
        .extension(BarrierExtension::factory())
        .tracer(tracer.clone());
    for rank in 0..N {
        b = b.program(
            GlobalPort::new(rank, 1),
            Box::new(NicBarrierLoop::new(group.clone(), rank, Descriptor::Pe, 3)),
            SimTime::ZERO,
        );
    }
    let mut sim = b.build();
    assert_eq!(sim.run(), RunOutcome::Quiescent);
    assert_eq!(tracer.dropped(), 0, "trace ring overflowed");

    // Who exchanged packets with whom, from the wire records alone.
    let mut exchanged = vec![BTreeSet::new(); N];
    for rec in tracer.snapshot() {
        let me = rec.component.node as usize;
        match rec.payload {
            TracePayload::WireInject { dst, .. } => {
                exchanged[me].insert(dst as usize);
            }
            TracePayload::WireDeliver { src, .. } => {
                exchanged[me].insert(src as usize);
            }
            _ => {}
        }
    }
    let cluster = sim.into_world();
    for (node, peers) in exchanged.iter().enumerate() {
        let expected: Vec<usize> = peers.iter().copied().collect();
        assert_eq!(
            connection_peers(&cluster, node),
            expected,
            "node {node}: connections must be exactly its traffic peers, ascending"
        );
        // PE at a power of two: one partner per round, log2 N rounds.
        assert_eq!(expected.len(), N.trailing_zeros() as usize, "node {node}");
    }
}

/// Sends one message to each of `peers`, in the given order.
struct SendEach {
    peers: Vec<usize>,
}

impl HostProgram for SendEach {
    fn on_start(&mut self, ctx: &mut HostCtx) {
        for (i, &peer) in self.peers.iter().enumerate() {
            ctx.send_notify(GlobalPort::new(peer, 1), 64, i as u64);
        }
    }
    fn on_event(&mut self, _ev: &GmEvent, _ctx: &mut HostCtx) {}
}

/// Accepts whatever arrives.
struct Sink;

impl HostProgram for Sink {
    fn on_start(&mut self, _ctx: &mut HostCtx) {}
    fn on_event(&mut self, ev: &GmEvent, ctx: &mut HostCtx) {
        if let GmEvent::Recv { .. } = ev {
            ctx.provide_recv(1);
        }
    }
}

#[test]
fn dead_peers_are_reported_lowest_first() {
    // Every packet node 0 injects is lost, so both of its connections
    // exhaust the retransmit budget. Node 0 touches peer 3 before peer 1;
    // the post-run scan must still name peer 1, as it did when the table
    // held every peer in node order.
    let mut sim = ClusterBuilder::new(4)
        .config(GmConfig::paper_host(NicModel::LANAI_4_3))
        .faults(FaultPlan::drops(1.0).only_from(0), 7)
        .program(
            GlobalPort::new(0, 1),
            Box::new(SendEach { peers: vec![3, 1] }),
            SimTime::ZERO,
        )
        .program(GlobalPort::new(1, 1), Box::new(Sink), SimTime::ZERO)
        .program(GlobalPort::new(3, 1), Box::new(Sink), SimTime::ZERO)
        .build();
    assert_eq!(sim.run(), RunOutcome::Quiescent);
    let cluster = sim.into_world();

    assert_eq!(connection_peers(&cluster, 0), [1, 3]);
    assert!(cluster.nodes[0].mcp.core.connections().all(|c| c.is_dead()));
    let reported = cluster.nodes[0]
        .mcp
        .core
        .connections()
        .find(|c| c.is_dead())
        .map(|c| c.peer().0);
    assert_eq!(reported, Some(1));
    // Nothing ever reached the other nodes: they hold no connections.
    for node in 1..4 {
        assert!(connection_peers(&cluster, node).is_empty(), "node {node}");
    }
}

#[test]
fn connections_come_back_in_ascending_peer_order_whatever_the_touch_order() {
    const N: usize = 512;
    let mut rng = SimRng::new(0xC0FF_EE18);
    for _ in 0..16 {
        let mut core = McpCore::new(NodeId(3), N, GmConfig::default());
        let mut peers: Vec<usize> = (0..N).filter(|_| rng.chance(0.05)).collect();
        rng.shuffle(&mut peers);
        for &p in &peers {
            core.conn_mut(NodeId(p)).assign_seq();
        }
        // A second touch finds the same connection instead of a new one.
        for &p in &peers {
            assert_eq!(core.conn(NodeId(p)).peer(), NodeId(p));
            core.conn_mut(NodeId(p)).assign_seq();
        }
        peers.sort_unstable();
        let got: Vec<usize> = core.connections().map(|c| c.peer().0).collect();
        assert_eq!(got, peers);
    }
}

#[test]
fn reading_an_untouched_peer_stores_nothing() {
    let mut core = McpCore::new(NodeId(0), 8, GmConfig::default());
    core.conn_mut(NodeId(5));
    for p in 0..8 {
        let conn = core.conn(NodeId(p));
        assert_eq!(conn.peer(), NodeId(p));
        assert_eq!(matches!(conn, Cow::Borrowed(_)), p == 5, "peer {p}");
    }
    let _ = core.rto_for(NodeId(2));
    let _ = core.rto_deadline(NodeId(7));
    let peers: Vec<usize> = core.connections().map(|c| c.peer().0).collect();
    assert_eq!(peers, [5]);
}

#[test]
#[should_panic(expected = "peer 8 is outside the cluster of 8 nodes")]
fn conn_past_the_cluster_panics_naming_peer_and_size() {
    let core = McpCore::new(NodeId(0), 8, GmConfig::default());
    let _ = core.conn(NodeId(8));
}

#[test]
#[should_panic(expected = "peer 9 is outside the cluster of 8 nodes")]
fn conn_mut_past_the_cluster_panics_instead_of_inserting() {
    let mut core = McpCore::new(NodeId(0), 8, GmConfig::default());
    core.conn_mut(NodeId(9));
}
