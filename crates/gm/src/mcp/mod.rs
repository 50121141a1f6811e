//! The Myrinet Control Program (MCP): GM's NIC firmware.
//!
//! "The MCP consists of four state machines called SDMA, SEND, RECV and
//! RDMA" (§4.1, Figure 4). We model each machine as a set of
//! run-to-completion handlers charged in cycles on the shared
//! [`gmsim_lanai::NicProcessor`]:
//!
//! * **SDMA** ([`sdma`]) — polls host send tokens, DMAs payloads into NIC
//!   transmit buffers, prepares packets, and hands collective tokens to the
//!   firmware extension.
//! * **SEND** — dispatches prepared packets and pending acks to the wire
//!   (folded into the transmit helpers here; its per-packet cost is
//!   `send_cycles`).
//! * **RECV** ([`recv`]) — receives worms, classifies them against the
//!   connection sequence space, generates acks/nacks.
//! * **RDMA** — DMAs accepted data and completion events up to host
//!   buffers (the `complete_to_host` helper).
//!
//! Handlers never touch the scheduler; they *return* [`McpOutput`]s with
//! absolute timestamps computed from the hardware resources, and the
//! cluster glue turns those into events. That keeps every state machine
//! unit-testable without a running simulation.

pub mod recv;
pub mod sdma;

use crate::config::GmConfig;
use crate::connection::{Connection, SentEntry};
use crate::events::GmEvent;
use crate::ext::McpExtension;
use crate::ids::{GlobalPort, NodeId, PortId};
use crate::packet::{ExtPacket, Packet, PacketKind};
use crate::port::{new_port_table, PortState};
use crate::steady::Rebase;
use gmsim_des::trace::{ComponentId, TracePayload, Tracer, Unit};
use gmsim_des::{Counter, EventId, SimTime, Walk};
use gmsim_lanai::NicHardware;
use std::borrow::Cow;

/// An effect the firmware wants the outside world to apply.
#[derive(Debug)]
pub enum McpOutput {
    /// Put `pkt` on the wire at time `at` (or loop it back if the
    /// destination is this NIC).
    Transmit {
        /// Wire injection time (transmit channel becomes busy then).
        at: SimTime,
        /// The packet.
        pkt: Packet,
    },
    /// Deliver `ev` to the host process on `port` at time `at` (the RDMA
    /// into the host buffer completes then).
    HostEvent {
        /// RDMA completion time.
        at: SimTime,
        /// Destination port.
        port: PortId,
        /// The event.
        ev: GmEvent,
    },
    /// Fire `kind` back into the firmware at time `at`.
    Timer {
        /// Expiry time.
        at: SimTime,
        /// What to do on expiry.
        kind: TimerKind,
    },
    /// Take the pending timer event `id` out of the queue unfired: the
    /// ack that emptied its connection's window leaves it nothing to time.
    CancelTimer {
        /// The name the scheduler gave the timer ([`McpCore::bind_timer`]).
        id: EventId,
    },
}

/// Firmware timers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimerKind {
    /// Retransmission timeout for the connection to `peer`. One timer per
    /// connection while it has packets in flight, tracking the *oldest
    /// unacknowledged* packet: on expiry the firmware compares `now`
    /// against that packet's live deadline and either re-arms (progress
    /// was made since arming) or retransmits with exponential backoff. The
    /// ack that empties the window cancels it, unless it is due more than
    /// one base RTO after that ack (see `Connection::cancel_idle_timer`).
    Rto {
        /// Peer NIC of the connection.
        peer: NodeId,
    },
}

/// Firmware counters (per NIC).
#[derive(Debug, Clone, Default)]
pub struct McpStats {
    /// Data packets transmitted (first transmissions).
    pub data_tx: u64,
    /// Extension packets transmitted (first transmissions).
    pub ext_tx: u64,
    /// Packets retransmitted (any kind).
    pub retx: u64,
    /// Acks transmitted.
    pub ack_tx: u64,
    /// Nacks transmitted.
    pub nack_tx: u64,
    /// Data packets delivered to host buffers.
    pub data_delivered: u64,
    /// Packets discarded: CRC failure.
    pub crc_drops: u64,
    /// Packets discarded: duplicate sequence.
    pub dup_drops: u64,
    /// Data packets refused: destination port closed or no receive token.
    pub rnr_refusals: u64,
    /// Host events delivered (all kinds).
    pub host_events: u64,
    /// Genuine RTO expiries (each bumps the connection's backoff level).
    pub rto_backoffs: u64,
    /// RTO timer expiries that found the deadline moved forward since
    /// arming (a later ack, or a refreshed send) and re-armed for free. A
    /// timer cancelled when its window empties, or firing after that, is
    /// not counted.
    pub timer_cancels: u64,
    /// Connections that exhausted their retransmit budget and declared the
    /// peer unreachable.
    pub gave_up: u64,
}

gmsim_des::walk! {
    impl Walk for McpStats {
        data_tx, ext_tx, data_delivered, rnr_refusals: counter,
        retx: counter(Counter::PacketsRetransmitted),
        ack_tx: counter(Counter::AcksSent),
        nack_tx: counter(Counter::NacksSent),
        crc_drops: counter(Counter::CrcDrops),
        dup_drops: counter(Counter::DupDrops),
        host_events: counter(Counter::CompletionDmas),
        rto_backoffs: counter(Counter::RtoBackoffs),
        timer_cancels: counter(Counter::TimerCancels),
        gave_up: counter(Counter::GaveUp),
    }
}

/// Everything the MCP knows except the extension itself. Extensions receive
/// `&mut McpCore`, so the split avoids a double borrow.
pub struct McpCore {
    node: NodeId,
    config: GmConfig,
    /// The NIC hardware this firmware runs on.
    pub hw: NicHardware,
    ports: Vec<PortState>,
    /// Number of nodes in the cluster (the RTO grace reads it).
    cluster_size: usize,
    /// `(peer node, index in conns)` for every peer a packet has been
    /// exchanged with, sorted by peer and searched by binary search: 8 B
    /// per touched peer, nothing for the rest of the cluster.
    peer_index: Vec<(u32, u32)>,
    /// Connections in order of first use: a NIC holds state only for the
    /// peers its traffic reaches (about log2 N under a PE barrier). Both
    /// tables grow by exactly one entry per new peer, never doubling past
    /// what they hold.
    conns: Vec<Connection>,
    /// Counters.
    pub stats: McpStats,
    /// Payload bytes awaiting acknowledgment on every connection, kept as
    /// sends are recorded, acked and abandoned (the RTO grace reads it).
    unacked_bytes: u64,
    /// Reusable buffer for acked-entry draining (ack hot path).
    pub(crate) acked_scratch: Vec<SentEntry>,
    tracer: Tracer,
}

// Connections are walked in peer order, which does not depend on the order
// of first use.
gmsim_des::walk! {
    pub(crate) fn walk(cx: &mut Rebase) for McpCore {
        node, config, cluster_size: scratch("fixed at build"),
        hw: walk(),
        ports: state,
        peer_index: state(h => peer_index.len().hash(h)),
        conns: with(
            v => peer_index.iter().for_each(|&(_, i)| conns[i as usize].walk(*node, cx, v)),
            f => peer_index.iter().for_each(|&(_, i)| conns[i as usize].walk_mut(f))
        ),
        stats: walk(),
        unacked_bytes: state,
        acked_scratch: scratch("emptied by every ack"),
        tracer: scratch("records, never steers"),
    }
}

impl McpCore {
    /// Firmware state for `node` in a cluster of `cluster_size` nodes.
    ///
    /// # Panics
    /// If `cluster_size` does not fit the 32-bit connection index.
    pub fn new(node: NodeId, cluster_size: usize, config: GmConfig) -> Self {
        assert!(
            u32::try_from(cluster_size).is_ok(),
            "cluster of {cluster_size} nodes exceeds the connection index"
        );
        McpCore {
            node,
            config,
            hw: NicHardware::new(config.nic),
            ports: new_port_table(),
            cluster_size,
            peer_index: Vec::new(),
            conns: Vec::new(),
            stats: McpStats::default(),
            unacked_bytes: 0,
            acked_scratch: Vec::new(),
            tracer: Tracer::disabled(),
        }
    }

    /// This NIC's node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Install the cluster's shared trace handle (disabled by default).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Record a structured trace event attributed to `unit` of this NIC
    /// (no-op when tracing is disabled).
    #[inline]
    pub fn trace(&self, at: SimTime, unit: Unit, payload: TracePayload) {
        self.tracer.record(
            at,
            ComponentId {
                node: self.node.0 as u32,
                unit,
            },
            payload,
        );
    }

    /// Cluster configuration.
    pub fn config(&self) -> &GmConfig {
        &self.config
    }

    /// Number of nodes in the cluster.
    pub fn cluster_size(&self) -> usize {
        self.cluster_size
    }

    /// Port table entry.
    pub fn port(&self, p: PortId) -> &PortState {
        &self.ports[p.idx()]
    }

    /// Mutable port table entry.
    pub fn port_mut(&mut self, p: PortId) -> &mut PortState {
        &mut self.ports[p.idx()]
    }

    /// Where `peer` sits in the sorted peer index: `Ok(i)` if it has a
    /// connection, `Err(i)` for the insertion point otherwise.
    ///
    /// # Panics
    /// If `peer` is not a node of this cluster.
    fn find_peer(&self, peer: NodeId) -> Result<usize, usize> {
        assert!(
            peer.0 < self.cluster_size,
            "peer {} is outside the cluster of {} nodes",
            peer.0,
            self.cluster_size
        );
        self.peer_index
            .binary_search_by_key(&(peer.0 as u32), |&(p, _)| p)
    }

    /// Connection to a peer NIC. A peer no packet has been exchanged with
    /// reads as a fresh [`Connection::new`], without being stored.
    ///
    /// # Panics
    /// If `peer` is not a node of this cluster.
    pub fn conn(&self, peer: NodeId) -> Cow<'_, Connection> {
        match self.find_peer(peer) {
            Ok(i) => Cow::Borrowed(&self.conns[self.peer_index[i].1 as usize]),
            Err(_) => Cow::Owned(Connection::new(peer)),
        }
    }

    /// Mutable connection to a peer NIC, created on first use.
    ///
    /// # Panics
    /// If `peer` is not a node of this cluster.
    pub fn conn_mut(&mut self, peer: NodeId) -> &mut Connection {
        let slot = match self.find_peer(peer) {
            Ok(i) => self.peer_index[i].1,
            Err(i) => {
                let slot = self.conns.len() as u32;
                self.peer_index.reserve_exact(1);
                self.peer_index.insert(i, (peer.0 as u32, slot));
                self.conns.reserve_exact(1);
                self.conns.push(Connection::new(peer));
                slot
            }
        };
        &mut self.conns[slot as usize]
    }

    /// Every connection created so far, in ascending peer order
    /// (post-run health inspection: the testbed scans for dead peers to
    /// surface `PeerUnreachable` as a typed error).
    pub fn connections(&self) -> impl Iterator<Item = &Connection> {
        self.peer_index
            .iter()
            .map(|&(_, slot)| &self.conns[slot as usize])
    }

    /// Current RTO for the connection to `peer`: the base timeout doubled
    /// (`rto_backoff`×) per consecutive genuine timeout, capped at
    /// `rto_max`.
    pub fn rto_for(&self, peer: NodeId) -> SimTime {
        self.rto(self.conn(peer).backoff_level())
    }

    /// The RTO after `level` consecutive genuine timeouts.
    fn rto(&self, level: u32) -> SimTime {
        let base = self.config.retransmit_timeout.as_ns();
        let cap = self.config.rto_max.as_ns();
        let mult = self.config.rto_backoff.max(1) as u64;
        let mut rto = base;
        for _ in 0..level {
            rto = rto.saturating_mul(mult);
            if rto >= cap {
                break;
            }
        }
        SimTime::from_ns(rto.min(cap))
    }

    /// Congestion multiplier for the payload-aware RTO grace. Under a
    /// data-carrying collective every node injects a worm per round, and
    /// in the worst round (a doubling schedule's last step sends rank
    /// distance `cluster/2`) each worm crosses the bisection — so a single
    /// link, and therefore the ack we are waiting on, can legitimately sit
    /// behind up to `cluster/2` worm serializations of traffic that is
    /// *not* ours. The factor is `2 * cluster/2 = cluster`: the bisection
    /// bound, doubled for the round trip. Sub-worst-case traffic just
    /// means the timer re-arms early for free; a genuine loss still stalls
    /// the ack stream and expires.
    fn grace_per_byte_ns(&self) -> f64 {
        let bisection = (self.cluster_size() as f64 / 2.0).max(1.0);
        let wire = gmsim_myrinet::LinkSpec::MYRINET_1280;
        2.0 * bisection / wire.bytes_per_ns
    }

    /// Size-aware grace added to every RTO deadline: wire time (scaled by
    /// the fan-in factor, see `McpCore::grace_per_byte_ns`) for every
    /// payload byte still awaiting acknowledgment on this NIC. Segmented
    /// collective payloads legitimately occupy links for hundreds of
    /// microseconds per round, and worms to different peers share this
    /// NIC's egress link, so a burst of sends (e.g. the tail rounds of a
    /// scan, which receive nothing between sends) delays the oldest ACK by
    /// the whole backlog, not just one connection's share. A deadline blind
    /// to that backlog would misread wormhole occupancy as loss, and the
    /// go-back-N recovery would re-inject the very worms that caused the
    /// stall (a retransmission storm). Zero-payload barrier traffic adds
    /// zero grace, leaving the calibrated base RTO in charge.
    pub fn ack_grace(&self) -> SimTime {
        self.grace(self.unacked_bytes)
    }

    /// Wire time, scaled by the fan-in factor, for `bytes` unacked bytes.
    fn grace(&self, bytes: u64) -> SimTime {
        if bytes == 0 {
            return SimTime::ZERO;
        }
        SimTime::from_ns((bytes as f64 * self.grace_per_byte_ns()).ceil() as u64)
    }

    /// The live RTO deadline of the connection to `peer`, or `None` with
    /// nothing in flight: the current (backed-off) RTO plus
    /// [`McpCore::ack_grace`] after the anchor. The anchor is the later of
    /// the oldest unacked transmission and the peer's last sign of life:
    /// congestion slows the ack stream without stopping it, so each arrival
    /// restarts the clock (RFC 6298 style), while a real loss stalls acks
    /// entirely and still expires one RTO later. Every expiry checks it.
    pub fn rto_deadline(&self, peer: NodeId) -> Option<SimTime> {
        let conn = self.conn(peer);
        let anchor = conn
            .oldest_unacked()?
            .sent_at
            .max(conn.last_peer_activity());
        Some(anchor + self.rto_for(peer) + self.ack_grace())
    }

    /// Account for `entry`, which left the window acked or abandoned.
    pub(crate) fn settle(&mut self, entry: &SentEntry) {
        self.unacked_bytes -= entry.packet.payload_bytes() as u64;
    }

    /// Schedule the RTO timer of the connection to `peer` at `at`.
    fn arm_timer(&mut self, peer: NodeId, at: SimTime, out: &mut Vec<McpOutput>) {
        self.conn_mut(peer).arm_timer(at);
        out.push(McpOutput::Timer {
            at,
            kind: TimerKind::Rto { peer },
        });
    }

    /// Record the scheduler's name for the `kind` timer just scheduled, so
    /// that the ack that empties its window can cancel it
    /// ([`McpOutput::CancelTimer`]).
    pub fn bind_timer(&mut self, kind: TimerKind, id: EventId) {
        let TimerKind::Rto { peer } = kind;
        self.conn_mut(peer).bind_timer(id);
    }

    /// Charge `cycles` on the NIC processor starting no earlier than
    /// `earliest`; returns the completion time.
    pub fn exec(&mut self, cycles: u64, earliest: SimTime) -> SimTime {
        self.hw.cpu.run(cycles, earliest).1
    }

    /// Transmit a reliable packet: charge the SEND machine, record it on
    /// the connection, and make sure the connection's (single) RTO timer is
    /// armed. A timer is pending whenever packets are in flight (unless the
    /// connection gave up), so only a send into an empty window, with no
    /// timer left pending from the last one, arms one: one RTO plus the
    /// grace of this packet's own bytes after it, and
    /// expiries then recheck the live [`McpCore::rto_deadline`]. Follow-up
    /// packets add no timer event — scheduler occupancy stays at most one
    /// timer per connection no matter how deep the window or how many
    /// retransmissions occur.
    pub(crate) fn transmit_reliable(
        &mut self,
        pkt: Packet,
        ready: SimTime,
        out: &mut Vec<McpOutput>,
    ) {
        let send_cycles = self.config.nic.costs.send_cycles;
        let at = self.exec(send_cycles, ready);
        let peer = pkt.dst.node;
        debug_assert!(pkt.seq().is_some(), "reliable packet without seq");
        let bytes = pkt.payload_bytes() as u64;
        self.unacked_bytes += bytes;
        let conn = self.conn_mut(peer);
        let arm = !conn.timer_armed() && !conn.is_dead();
        debug_assert!(
            !arm || conn.in_flight() == 0,
            "a window filled without a timer"
        );
        conn.record_sent(pkt, at);
        if arm {
            let level = conn.backoff_level();
            let deadline = at + self.rto(level) + self.grace(bytes);
            self.arm_timer(peer, deadline, out);
        }
        out.push(McpOutput::Transmit { at, pkt });
    }

    /// Transmit a control packet (ack/nack/unreliable ext): charge the
    /// SEND machine only.
    pub(crate) fn transmit_control(
        &mut self,
        pkt: Packet,
        ready: SimTime,
        out: &mut Vec<McpOutput>,
    ) {
        let send_cycles = self.config.nic.costs.send_cycles;
        let at = self.exec(send_cycles, ready);
        out.push(McpOutput::Transmit { at, pkt });
    }

    /// Extension helper: send an extension packet from `src_port` on this
    /// NIC to `dst`, honouring the configured collective wire mode. Barrier
    /// messages never touch host memory — this is the heart of the paper's
    /// latency win.
    pub fn send_ext(
        &mut self,
        src_port: PortId,
        dst: GlobalPort,
        body: ExtPacket,
        ready: SimTime,
        out: &mut Vec<McpOutput>,
    ) {
        let src = GlobalPort {
            node: self.node,
            port: src_port,
        };
        self.stats.ext_tx += 1;
        match self.config.collective_wire {
            crate::config::CollectiveWireMode::Reliable => {
                let seq = self.conn_mut(dst.node).assign_seq();
                let pkt = Packet {
                    src,
                    dst,
                    kind: PacketKind::Ext {
                        seq: Some(seq),
                        body,
                    },
                };
                self.transmit_reliable(pkt, ready, out);
            }
            crate::config::CollectiveWireMode::Unreliable => {
                let pkt = Packet {
                    src,
                    dst,
                    kind: PacketKind::Ext { seq: None, body },
                };
                self.transmit_control(pkt, ready, out);
            }
        }
    }

    /// Extension/core helper: deliver a completion event to the host
    /// process on `port` through the RDMA machine.
    pub fn complete_to_host(
        &mut self,
        port: PortId,
        ev: GmEvent,
        ready: SimTime,
        out: &mut Vec<McpOutput>,
    ) {
        let rdma_cycles = self.config.nic.costs.rdma_cycles;
        let t = self.exec(rdma_cycles, ready);
        let done = self.hw.rdma.begin(ev.rdma_bytes(), t);
        self.stats.host_events += 1;
        self.trace(
            done,
            Unit::Rdma,
            TracePayload::CompletionDma {
                port: port.0,
                bytes: ev.rdma_bytes() as u32,
            },
        );
        out.push(McpOutput::HostEvent { at: done, port, ev });
    }
}

/// The complete firmware: core state plus the installed extension.
pub struct Mcp {
    /// Core state machines and hardware.
    pub core: McpCore,
    ext: Box<dyn McpExtension>,
}

gmsim_des::walk! {
    pub(crate) fn walk(cx: &mut Rebase) for Mcp {
        core: walk(cx),
        ext: with(
            v => match ext.steady() {
                Some(ext) => ext.walk(v),
                None => cx.fail(),
            },
            f => if let Some(ext) = ext.steady_mut() { ext.walk_mut(f) }
        ),
    }
}

impl Mcp {
    /// Firmware with `ext` installed.
    pub fn new(core: McpCore, ext: Box<dyn McpExtension>) -> Self {
        Mcp { core, ext }
    }

    /// The installed extension (for post-run inspection in tests).
    pub fn ext(&self) -> &dyn McpExtension {
        self.ext.as_ref()
    }

    /// A process opens `port`.
    pub fn open_port(&mut self, port: PortId, now: SimTime) -> Vec<McpOutput> {
        let mut out = Vec::new();
        self.open_port_into(port, now, &mut out);
        out
    }

    /// [`Mcp::open_port`] appending into a caller-owned buffer (hot path).
    pub fn open_port_into(&mut self, port: PortId, now: SimTime, out: &mut Vec<McpOutput>) {
        let (st, rt) = (
            self.core.config.send_tokens_per_port,
            self.core.config.recv_tokens_per_port,
        );
        self.core.port_mut(port).open(st, rt);
        self.ext.on_port_open(&mut self.core, port, now, out);
    }

    /// The process on `port` exits.
    pub fn close_port(&mut self, port: PortId, now: SimTime) -> Vec<McpOutput> {
        let mut out = Vec::new();
        self.close_port_into(port, now, &mut out);
        out
    }

    /// [`Mcp::close_port`] appending into a caller-owned buffer (hot path).
    pub fn close_port_into(&mut self, port: PortId, now: SimTime, out: &mut Vec<McpOutput>) {
        self.core.port_mut(port).close();
        self.ext.on_port_close(&mut self.core, port, now, out);
    }

    /// Retransmission timer expiry.
    pub fn handle_timer(&mut self, kind: TimerKind, now: SimTime) -> Vec<McpOutput> {
        let mut out = Vec::new();
        self.handle_timer_into(kind, now, &mut out);
        out
    }

    /// [`Mcp::handle_timer`] appending into a caller-owned buffer.
    ///
    /// The expiry logic is TCP-style lazy evaluation: the pending timer may
    /// predate acks or retransmissions, so on expiry the firmware recomputes
    /// the live deadline ([`McpCore::rto_deadline`]). An early fire re-arms
    /// at the live deadline without charging the NIC processor (so
    /// fault-free hardware state is untouched); a genuine expiry backs off
    /// the RTO, retransmits go-back-N from the oldest packet, and — once
    /// the retransmit budget is gone — declares the peer unreachable,
    /// reclaims send tokens, and notifies every affected open port. A timer
    /// left pending past its window may fire with nothing in flight and
    /// does nothing; an expiry that finds no timer armed is ignored.
    pub fn handle_timer_into(&mut self, kind: TimerKind, now: SimTime, out: &mut Vec<McpOutput>) {
        match kind {
            TimerKind::Rto { peer } => {
                if !self.core.conn(peer).timer_armed() {
                    return;
                }
                self.core.conn_mut(peer).timer_fired();
                let Some(deadline) = self.core.rto_deadline(peer) else {
                    return;
                };
                if now < deadline {
                    // Progress since arming: re-arm at the real deadline.
                    self.core.stats.timer_cancels += 1;
                    self.core.arm_timer(peer, deadline, out);
                    return;
                }
                self.core.conn_mut(peer).note_timeout_attempt();
                if self.core.conn(peer).attempts() > self.core.config.retransmit_budget {
                    self.give_up(peer, now, out);
                    return;
                }
                self.core.stats.rto_backoffs += 1;
                let from = self
                    .core
                    .conn(peer)
                    .oldest_unacked()
                    .and_then(|e| e.packet.seq());
                let from = from.expect("a deadline implies a packet in flight");
                let again = self.core.conn_mut(peer).on_nack(from, now);
                self.core.stats.retx += again.len() as u64;
                self.core.trace(
                    now,
                    Unit::Send,
                    TracePayload::Timeout {
                        peer: peer.0 as u32,
                    },
                );
                let mut last_at = now;
                let node = self.core.node();
                for sent in again {
                    let pkt = sent.to_packet(node, peer);
                    let send_cycles = self.core.config.nic.costs.send_cycles;
                    let at = self.core.exec(send_cycles, now);
                    // Refresh the connection's record of when this packet
                    // went out so the next deadline computation is live.
                    self.core
                        .conn_mut(peer)
                        .refresh_sent_at(pkt.seq().unwrap(), at);
                    self.core.trace(
                        at,
                        Unit::Send,
                        TracePayload::Retransmit {
                            peer: peer.0 as u32,
                        },
                    );
                    out.push(McpOutput::Transmit { at, pkt });
                    last_at = at;
                }
                // One timer, re-armed with the backed-off RTO.
                let at = last_at + self.core.rto_for(peer);
                self.core.arm_timer(peer, at, out);
            }
        }
    }

    /// Retransmit budget exhausted: kill the connection, reclaim the send
    /// tokens of abandoned data packets, and deliver `PeerUnreachable` to
    /// each distinct open port that had traffic in flight to `peer`.
    fn give_up(&mut self, peer: NodeId, now: SimTime, out: &mut Vec<McpOutput>) {
        self.core.stats.gave_up += 1;
        self.core.trace(
            now,
            Unit::Send,
            TracePayload::GaveUp {
                peer: peer.0 as u32,
            },
        );
        let abandoned = self.core.conn_mut(peer).mark_dead();
        let mut notified: Vec<PortId> = Vec::new();
        for entry in abandoned {
            self.core.settle(&entry);
            let port = entry.packet.src_port;
            if matches!(entry.packet.kind, PacketKind::Data { .. }) {
                self.core.port_mut(port).return_send_token();
            }
            if !notified.contains(&port) && self.core.port(port).is_open() {
                notified.push(port);
                self.core
                    .complete_to_host(port, GmEvent::PeerUnreachable { peer }, now, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ext::NullExtension;
    use crate::ids::TeamId;

    fn core() -> McpCore {
        McpCore::new(NodeId(0), 4, GmConfig::default())
    }

    #[test]
    fn exec_charges_the_processor() {
        let mut c = core();
        let t1 = c.exec(33, SimTime::ZERO);
        let t2 = c.exec(33, SimTime::ZERO);
        assert!(t2 > t1, "handlers serialize on the NIC cpu");
    }

    #[test]
    fn complete_to_host_emits_host_event() {
        let mut c = core();
        let mut out = Vec::new();
        c.complete_to_host(
            PortId(1),
            GmEvent::BarrierComplete {
                team: TeamId::GLOBAL,
            },
            SimTime::ZERO,
            &mut out,
        );
        assert_eq!(out.len(), 1);
        match &out[0] {
            McpOutput::HostEvent { at, port, ev } => {
                assert!(*at > SimTime::ZERO, "RDMA takes time");
                assert_eq!(*port, PortId(1));
                assert_eq!(
                    *ev,
                    GmEvent::BarrierComplete {
                        team: TeamId::GLOBAL
                    }
                );
            }
            other => panic!("unexpected output {other:?}"),
        }
        assert_eq!(c.stats.host_events, 1);
    }

    #[test]
    fn send_ext_reliable_arms_timer() {
        let mut c = core();
        let mut out = Vec::new();
        let body = ExtPacket::new(1, 0, 0);
        c.send_ext(
            PortId(1),
            GlobalPort::new(2, 1),
            body,
            SimTime::ZERO,
            &mut out,
        );
        assert!(matches!(out[0], McpOutput::Timer { .. }));
        assert!(matches!(out[1], McpOutput::Transmit { .. }));
        assert_eq!(c.conn(NodeId(2)).in_flight(), 1);
    }

    #[test]
    fn send_ext_unreliable_skips_connection() {
        let cfg = GmConfig {
            collective_wire: crate::config::CollectiveWireMode::Unreliable,
            ..GmConfig::default()
        };
        let mut c = McpCore::new(NodeId(0), 4, cfg);
        let mut out = Vec::new();
        let body = ExtPacket::new(1, 0, 0);
        c.send_ext(
            PortId(1),
            GlobalPort::new(2, 1),
            body,
            SimTime::ZERO,
            &mut out,
        );
        assert_eq!(out.len(), 1, "no timer in unreliable mode");
        assert!(matches!(out[0], McpOutput::Transmit { .. }));
        assert_eq!(c.conn(NodeId(2)).in_flight(), 0);
    }

    #[test]
    fn open_close_roundtrip() {
        let mut m = Mcp::new(core(), Box::new(NullExtension));
        let out = m.open_port(PortId(2), SimTime::ZERO);
        assert!(out.is_empty());
        assert!(m.core.port(PortId(2)).is_open());
        m.close_port(PortId(2), SimTime::ZERO);
        assert!(!m.core.port(PortId(2)).is_open());
    }

    #[test]
    fn stale_timer_is_noop() {
        let mut m = Mcp::new(core(), Box::new(NullExtension));
        let out = m.handle_timer(TimerKind::Rto { peer: NodeId(1) }, SimTime::from_ms(1));
        assert!(out.is_empty());
        // No timer was armed, so this expiry is no early fire either.
        assert_eq!(m.core.stats.timer_cancels, 0);
        assert_eq!(
            m.core.connections().count(),
            0,
            "a stray expiry stores nothing"
        );
    }

    #[test]
    fn the_ack_that_empties_the_window_cancels_the_timer() {
        let mut m = Mcp::new(core(), Box::new(NullExtension));
        let body = ExtPacket::new(1, 0, 0);
        let mut out = Vec::new();
        for _ in 0..2 {
            m.core.send_ext(
                PortId(1),
                GlobalPort::new(2, 1),
                body,
                SimTime::ZERO,
                &mut out,
            );
        }
        let ack = |ack| Packet {
            src: GlobalPort::new(2, 0),
            dst: GlobalPort::new(0, 0),
            kind: PacketKind::Ack { ack },
        };
        m.handle_wire_packet(ack(1), false, SimTime::from_us(10));
        assert!(m.core.conn(NodeId(2)).timer_armed(), "one packet in flight");
        // No glue named the timer, so there is no event to cancel.
        let out = m.handle_wire_packet(ack(2), false, SimTime::from_us(20));
        assert!(out.is_empty());
        assert!(!m.core.conn(NodeId(2)).timer_armed());
        // The next send arms a fresh timer at its own deadline.
        let mut out = Vec::new();
        let at = SimTime::from_us(30);
        m.core
            .send_ext(PortId(1), GlobalPort::new(2, 1), body, at, &mut out);
        let deadline = m.core.rto_deadline(NodeId(2)).expect("in flight");
        assert!(matches!(out[0], McpOutput::Timer { at, .. } if at == deadline));
        assert_eq!(m.core.stats.timer_cancels, 0, "no timer fired");
    }

    #[test]
    fn a_backed_off_timer_outlives_its_window() {
        let mut m = Mcp::new(core(), Box::new(NullExtension));
        let body = ExtPacket::new(1, 0, 0);
        let peer = NodeId(2);
        let send = |m: &mut Mcp, at| {
            let mut out = Vec::new();
            m.core
                .send_ext(PortId(1), GlobalPort::new(2, 1), body, at, &mut out);
            out
        };
        send(&mut m, SimTime::ZERO);
        // The first deadline passes: retransmit and re-arm one doubled RTO
        // after the resend.
        let lost = m.core.rto_deadline(peer).expect("in flight");
        let out = m.handle_timer(TimerKind::Rto { peer }, lost);
        let Some(&McpOutput::Timer { at: backed_off, .. }) = out.last() else {
            panic!("a genuine expiry re-arms");
        };
        assert!(backed_off > lost + m.core.rto(0));
        // The resend's ack empties the window more than one base RTO short
        // of that timer, so it stays: cancelling it would catch the next
        // loss earlier than the lazy firmware does.
        let acked = lost + SimTime::from_us(10);
        let ack = Packet {
            src: GlobalPort::new(2, 0),
            dst: GlobalPort::new(0, 0),
            kind: PacketKind::Ack { ack: 1 },
        };
        assert!(m.handle_wire_packet(ack, false, acked).is_empty());
        assert!(m.core.conn(peer).timer_armed());
        // The next send arms nothing, and its loss is caught when the
        // backed-off timer fires, after the send's own deadline.
        let out = send(&mut m, acked + SimTime::from_us(10));
        assert!(!out.iter().any(|o| matches!(o, McpOutput::Timer { .. })));
        assert!(m.core.rto_deadline(peer).expect("in flight") < backed_off);
        m.handle_timer(TimerKind::Rto { peer }, backed_off);
        assert_eq!(m.core.stats.rto_backoffs, 2);
    }

    #[test]
    fn second_reliable_send_arms_no_extra_timer() {
        let mut c = core();
        let body = ExtPacket::new(1, 0, 0);
        let mut out = Vec::new();
        c.send_ext(
            PortId(1),
            GlobalPort::new(2, 1),
            body,
            SimTime::ZERO,
            &mut out,
        );
        let timers = |v: &Vec<McpOutput>| {
            v.iter()
                .filter(|o| matches!(o, McpOutput::Timer { .. }))
                .count()
        };
        assert_eq!(timers(&out), 1);
        let mut out2 = Vec::new();
        c.send_ext(
            PortId(1),
            GlobalPort::new(2, 1),
            body,
            SimTime::ZERO,
            &mut out2,
        );
        assert_eq!(timers(&out2), 0, "per-connection timer already pending");
        assert_eq!(c.conn(NodeId(2)).in_flight(), 2);
    }

    #[test]
    fn backoff_doubles_rto_up_to_cap() {
        let mut c = core();
        let base = c.config().retransmit_timeout;
        assert_eq!(c.rto_for(NodeId(1)), base);
        c.conn_mut(NodeId(1)).note_timeout_attempt();
        assert_eq!(c.rto_for(NodeId(1)), base * 2);
        c.conn_mut(NodeId(1)).note_timeout_attempt();
        assert_eq!(c.rto_for(NodeId(1)), base * 4);
        for _ in 0..20 {
            c.conn_mut(NodeId(1)).note_timeout_attempt();
        }
        assert_eq!(c.rto_for(NodeId(1)), c.config().rto_max);
    }

    #[test]
    fn early_fire_rearms_without_charging_cpu() {
        let mut m = Mcp::new(core(), Box::new(NullExtension));
        m.open_port(PortId(1), SimTime::ZERO);
        let body = ExtPacket::new(1, 0, 0);
        let mut out = Vec::new();
        m.core.send_ext(
            PortId(1),
            GlobalPort::new(2, 1),
            body,
            SimTime::ZERO,
            &mut out,
        );
        let deadline = match out[0] {
            McpOutput::Timer { at, .. } => at,
            _ => panic!("expected timer first"),
        };
        // Ack arrives conceptually late; fire the timer early instead:
        // refresh the oldest entry so the deadline moved forward.
        m.core
            .conn_mut(NodeId(2))
            .refresh_sent_at(0, SimTime::from_us(100));
        let cpu_before = m.core.exec(0, SimTime::ZERO);
        let out2 = m.handle_timer(TimerKind::Rto { peer: NodeId(2) }, deadline);
        assert_eq!(out2.len(), 1, "re-arm only");
        match out2[0] {
            McpOutput::Timer { at, .. } => assert!(at > deadline),
            ref other => panic!("unexpected output {other:?}"),
        }
        let cpu_after = m.core.exec(0, SimTime::ZERO);
        assert_eq!(cpu_before, cpu_after, "early fire must not charge the cpu");
        assert_eq!(m.core.stats.timer_cancels, 1);
    }

    #[test]
    fn budget_exhaustion_reports_peer_unreachable() {
        let mut m = Mcp::new(core(), Box::new(NullExtension));
        m.open_port(PortId(1), SimTime::ZERO);
        let body = ExtPacket::new(1, 0, 0);
        let mut out = Vec::new();
        m.core.send_ext(
            PortId(1),
            GlobalPort::new(2, 1),
            body,
            SimTime::ZERO,
            &mut out,
        );
        let budget = m.core.config().retransmit_budget;
        let mut now = SimTime::from_ms(10);
        let mut unreachable = Vec::new();
        for _ in 0..=budget {
            let outs = m.handle_timer(TimerKind::Rto { peer: NodeId(2) }, now);
            for o in outs {
                match o {
                    McpOutput::Timer { at, .. } => now = at.max(now + SimTime::from_ms(1)),
                    McpOutput::HostEvent { ev, port, .. } => unreachable.push((port, ev)),
                    McpOutput::Transmit { .. } | McpOutput::CancelTimer { .. } => {}
                }
            }
            now += SimTime::from_ms(1);
        }
        assert!(m.core.conn(NodeId(2)).is_dead());
        assert_eq!(m.core.stats.gave_up, 1);
        assert_eq!(
            unreachable,
            [(PortId(1), GmEvent::PeerUnreachable { peer: NodeId(2) })]
        );
        // Dead connection: further timers and sends are inert.
        assert!(m
            .handle_timer(TimerKind::Rto { peer: NodeId(2) }, now)
            .is_empty());
    }
}
