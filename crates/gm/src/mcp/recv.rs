//! The RECV and RDMA state machines: wire packets → host deliveries.
//!
//! "The RECV state machine receives incoming packets into receive buffers
//! and handles acknowledgment and negative acknowledgment packets. ... The
//! RDMA state machine prepares acknowledgment and negative acknowledgment
//! packets and DMAs the data to the host buffer corresponding to an
//! appropriate receive token" (§4.1).

use super::{Mcp, McpOutput};
use crate::connection::{RxVerdict, SentPacket};
use crate::events::GmEvent;
use crate::ids::{GlobalPort, NodeId, PortId};
use crate::packet::{Packet, PacketKind, Seq};
use gmsim_des::trace::{TracePayload, Unit};
use gmsim_des::SimTime;

impl Mcp {
    /// A worm fully arrived at this NIC at `now`. `corrupted` marks a CRC
    /// failure injected by the fabric: the NIC burns reception time, then
    /// discards silently (the sender's timeout recovers).
    pub fn handle_wire_packet(
        &mut self,
        pkt: Packet,
        corrupted: bool,
        now: SimTime,
    ) -> Vec<McpOutput> {
        let mut out = Vec::new();
        self.handle_wire_packet_into(pkt, corrupted, now, &mut out);
        out
    }

    /// [`Mcp::handle_wire_packet`] appending into a caller-owned buffer
    /// (hot path).
    pub fn handle_wire_packet_into(
        &mut self,
        pkt: Packet,
        corrupted: bool,
        now: SimTime,
        out: &mut Vec<McpOutput>,
    ) {
        let costs = self.core.config().nic.costs;
        match pkt.kind {
            PacketKind::Ack { ack } => {
                let t = self.core.exec(costs.ack_rx_cycles, now);
                if corrupted {
                    self.core.stats.crc_drops += 1;
                    return;
                }
                // Any intact ack proves the peer is alive: reset the
                // backoff/budget clock and restart the RTO anchor.
                let mut acked = std::mem::take(&mut self.core.acked_scratch);
                let peer = pkt.src.node;
                // A send after this ack arms its own timer at least one
                // base RTO after now, so an idle timer due by then could
                // only fire first and find the window empty, or re-arm
                // toward the expiry that send's timer reaches: with zero
                // grace, cancelling it moves no timeout. One due later
                // (backed off, or with payload grace) would catch the next
                // send's loss later than that send's own timer, so it
                // stays, as the lazy firmware leaves it.
                let horizon = now + self.core.rto(0);
                let conn = self.core.conn_mut(peer);
                conn.reset_liveness();
                conn.note_peer_activity(t);
                conn.drain_acked_into(ack, &mut acked);
                if let Some(id) = conn.cancel_idle_timer(horizon) {
                    out.push(McpOutput::CancelTimer { id });
                }
                for entry in acked.drain(..) {
                    self.core.settle(&entry);
                    if let PacketKind::Data { tag, notify, .. } = entry.packet.kind {
                        // The send event's resources are free: the send
                        // token returns to the process.
                        let port = entry.packet.src_port;
                        self.core.port_mut(port).return_send_token();
                        if notify {
                            self.core
                                .complete_to_host(port, GmEvent::Sent { tag }, t, out);
                        }
                    }
                }
                self.core.acked_scratch = acked;
            }
            PacketKind::Nack { expected } => {
                let t = self.core.exec(costs.ack_rx_cycles, now);
                if corrupted {
                    self.core.stats.crc_drops += 1;
                    return;
                }
                let conn = self.core.conn_mut(pkt.src.node);
                conn.reset_liveness();
                conn.note_peer_activity(t);
                let again = conn.on_nack(expected, t);
                self.core.stats.retx += again.len() as u64;
                self.retransmit(pkt.src.node, again, t, out);
            }
            PacketKind::Data { seq, len, tag, .. } => {
                let t = self.core.exec(costs.recv_cycles, now);
                if corrupted {
                    self.core.stats.crc_drops += 1;
                    return;
                }
                // The first packet from a peer creates its connection.
                match self.core.conn_mut(pkt.src.node).peek_rx(seq) {
                    RxVerdict::Duplicate => {
                        self.core.stats.dup_drops += 1;
                        self.send_ack(pkt.src.node, t, out);
                    }
                    RxVerdict::OutOfOrder { expected } => {
                        self.send_nack(pkt.src.node, expected, t, out);
                    }
                    RxVerdict::Accept => {
                        let port_ok = self.core.port(pkt.dst.port).is_open();
                        let token_ok =
                            port_ok && self.core.port_mut(pkt.dst.port).take_recv_token();
                        if !token_ok {
                            // Receiver not ready: refuse without advancing
                            // the window; the sender will go-back-N.
                            self.core.stats.rnr_refusals += 1;
                            self.send_nack(pkt.src.node, seq, t, out);
                            return;
                        }
                        self.core.conn_mut(pkt.src.node).advance_rx();
                        self.send_ack(pkt.src.node, t, out);
                        self.core.stats.data_delivered += 1;
                        self.core.complete_to_host(
                            pkt.dst.port,
                            GmEvent::Recv {
                                src: pkt.src,
                                len,
                                tag,
                            },
                            t,
                            out,
                        );
                    }
                }
            }
            PacketKind::Ext { seq, body } => {
                let t = self.core.exec(costs.ext_recv_cycles, now);
                if corrupted {
                    self.core.stats.crc_drops += 1;
                    return;
                }
                match seq {
                    Some(seq) => match self.core.conn_mut(pkt.src.node).peek_rx(seq) {
                        RxVerdict::Duplicate => {
                            self.core.stats.dup_drops += 1;
                            self.send_ack(pkt.src.node, t, out);
                        }
                        RxVerdict::OutOfOrder { expected } => {
                            self.send_nack(pkt.src.node, expected, t, out);
                        }
                        RxVerdict::Accept => {
                            self.core.conn_mut(pkt.src.node).advance_rx();
                            self.send_ack(pkt.src.node, t, out);
                            self.ext
                                .on_ext_packet(&mut self.core, pkt.src, pkt.dst, body, t, out);
                        }
                    },
                    None => {
                        // Unreliable collective packet: straight to the
                        // extension (the paper's prototype path).
                        self.ext
                            .on_ext_packet(&mut self.core, pkt.src, pkt.dst, body, t, out);
                    }
                }
            }
        }
    }

    /// Go-back-N retransmission after a nack. Arms no timers: whenever a
    /// connection has traffic in flight its single RTO timer is already
    /// pending, and its lazy deadline check picks up the refreshed
    /// `sent_at` values on expiry.
    fn retransmit(
        &mut self,
        peer: NodeId,
        pkts: Vec<SentPacket>,
        ready: SimTime,
        out: &mut Vec<McpOutput>,
    ) {
        let costs = self.core.config().nic.costs;
        let node = self.core.node();
        for sent in pkts {
            let pkt = sent.to_packet(node, peer);
            let at = self.core.exec(costs.send_cycles, ready);
            let seq = pkt.seq().unwrap();
            self.core.conn_mut(peer).refresh_sent_at(seq, at);
            self.core.trace(
                at,
                Unit::Send,
                TracePayload::Retransmit {
                    peer: peer.0 as u32,
                },
            );
            out.push(McpOutput::Transmit { at, pkt });
        }
    }

    fn send_ack(&mut self, peer: NodeId, ready: SimTime, out: &mut Vec<McpOutput>) {
        let costs = self.core.config().nic.costs;
        let t = self.core.exec(costs.ack_tx_cycles, ready);
        let ack = self.core.conn(peer).ack_value();
        self.core.stats.ack_tx += 1;
        let pkt = Packet {
            src: GlobalPort {
                node: self.core.node(),
                port: PortId(0),
            },
            dst: GlobalPort {
                node: peer,
                port: PortId(0),
            },
            kind: PacketKind::Ack { ack },
        };
        self.core.transmit_control(pkt, t, out);
    }

    fn send_nack(&mut self, peer: NodeId, expected: Seq, ready: SimTime, out: &mut Vec<McpOutput>) {
        let costs = self.core.config().nic.costs;
        let t = self.core.exec(costs.ack_tx_cycles, ready);
        self.core.stats.nack_tx += 1;
        let pkt = Packet {
            src: GlobalPort {
                node: self.core.node(),
                port: PortId(0),
            },
            dst: GlobalPort {
                node: peer,
                port: PortId(0),
            },
            kind: PacketKind::Nack { expected },
        };
        self.core.transmit_control(pkt, t, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GmConfig;
    use crate::ext::NullExtension;
    use crate::mcp::McpCore;
    use crate::token::SendToken;

    fn mcp_at(node: usize) -> Mcp {
        let mut m = Mcp::new(
            McpCore::new(NodeId(node), 4, GmConfig::default()),
            Box::new(NullExtension),
        );
        m.open_port(PortId(1), SimTime::ZERO);
        m
    }

    fn data_pkt(seq: Seq) -> Packet {
        Packet {
            src: GlobalPort::new(0, 1),
            dst: GlobalPort::new(1, 1),
            kind: PacketKind::Data {
                seq,
                len: 32,
                tag: 9,
                notify: false,
            },
        }
    }

    #[test]
    fn in_order_data_is_acked_and_delivered() {
        let mut m = mcp_at(1);
        let out = m.handle_wire_packet(data_pkt(0), false, SimTime::ZERO);
        let acks = out
            .iter()
            .filter(|o| {
                matches!(o, McpOutput::Transmit { pkt, .. } if matches!(pkt.kind, PacketKind::Ack { .. }))
            })
            .count();
        let deliveries = out
            .iter()
            .filter(|o| {
                matches!(
                    o,
                    McpOutput::HostEvent {
                        ev: GmEvent::Recv { .. },
                        ..
                    }
                )
            })
            .count();
        assert_eq!((acks, deliveries), (1, 1));
        assert_eq!(m.core.stats.data_delivered, 1);
    }

    #[test]
    fn out_of_order_data_is_nacked() {
        let mut m = mcp_at(1);
        let out = m.handle_wire_packet(data_pkt(3), false, SimTime::ZERO);
        assert!(out.iter().any(|o| matches!(
            o,
            McpOutput::Transmit { pkt, .. } if matches!(pkt.kind, PacketKind::Nack { expected: 0 })
        )));
        assert!(!out.iter().any(|o| matches!(o, McpOutput::HostEvent { .. })));
    }

    #[test]
    fn duplicate_data_is_reacked_not_redelivered() {
        let mut m = mcp_at(1);
        m.handle_wire_packet(data_pkt(0), false, SimTime::ZERO);
        let out = m.handle_wire_packet(data_pkt(0), false, SimTime::from_us(1));
        assert_eq!(m.core.stats.dup_drops, 1);
        assert!(out.iter().any(|o| matches!(
            o,
            McpOutput::Transmit { pkt, .. } if matches!(pkt.kind, PacketKind::Ack { ack: 1 })
        )));
        assert_eq!(m.core.stats.data_delivered, 1);
    }

    #[test]
    fn corrupted_packet_burns_time_and_vanishes() {
        let mut m = mcp_at(1);
        let before = m.core.hw.cpu.busy_until();
        let out = m.handle_wire_packet(data_pkt(0), true, SimTime::ZERO);
        assert!(out.is_empty());
        assert_eq!(m.core.stats.crc_drops, 1);
        assert!(m.core.hw.cpu.busy_until() > before);
    }

    #[test]
    fn closed_port_data_is_refused_with_nack() {
        let mut m = mcp_at(1);
        let mut pkt = data_pkt(0);
        pkt.dst.port = PortId(5); // never opened
        let out = m.handle_wire_packet(pkt, false, SimTime::ZERO);
        assert_eq!(m.core.stats.rnr_refusals, 1);
        assert!(out.iter().any(|o| matches!(
            o,
            McpOutput::Transmit { pkt, .. } if matches!(pkt.kind, PacketKind::Nack { expected: 0 })
        )));
        // Window must not advance: the retransmission is still acceptable.
        assert_eq!(m.core.conn(NodeId(0)).ack_value(), 0);
    }

    #[test]
    fn ack_returns_send_token_and_clears_flight() {
        // Sender side: send one message, then absorb the ack for it.
        let mut m = mcp_at(0);
        let tokens_before = m.core.port(PortId(1)).send_tokens();
        m.core.port_mut(PortId(1)).take_send_token();
        m.handle_send_token(
            SendToken::Data {
                src_port: PortId(1),
                dst: GlobalPort::new(1, 1),
                len: 8,
                tag: 0,
                notify: false,
            },
            SimTime::ZERO,
        );
        assert_eq!(m.core.conn(NodeId(1)).in_flight(), 1);
        let ack = Packet {
            src: GlobalPort::new(1, 0),
            dst: GlobalPort::new(0, 0),
            kind: PacketKind::Ack { ack: 1 },
        };
        let out = m.handle_wire_packet(ack, false, SimTime::from_us(100));
        assert!(out.is_empty(), "no notify requested");
        assert_eq!(m.core.conn(NodeId(1)).in_flight(), 0);
        assert_eq!(m.core.port(PortId(1)).send_tokens(), tokens_before);
    }

    #[test]
    fn nack_triggers_go_back_n_retransmission() {
        let mut m = mcp_at(0);
        for _ in 0..3 {
            m.handle_send_token(
                SendToken::Data {
                    src_port: PortId(1),
                    dst: GlobalPort::new(1, 1),
                    len: 8,
                    tag: 0,
                    notify: false,
                },
                SimTime::ZERO,
            );
        }
        let nack = Packet {
            src: GlobalPort::new(1, 0),
            dst: GlobalPort::new(0, 0),
            kind: PacketKind::Nack { expected: 1 },
        };
        let out = m.handle_wire_packet(nack, false, SimTime::from_us(200));
        let resent: Vec<Seq> = out
            .iter()
            .filter_map(|o| match o {
                McpOutput::Transmit { pkt, .. } => pkt.seq(),
                _ => None,
            })
            .collect();
        assert_eq!(resent, [1, 2]);
        assert_eq!(m.core.stats.retx, 2);
    }
}
