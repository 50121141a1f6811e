//! Reliable NIC-to-NIC connections.
//!
//! "At the host level GM is connectionless, but provides reliability by
//! maintaining reliable connections between NICs of different nodes" (§4.1).
//! Each connection carries its own sequence space, a sent (unacknowledged)
//! list, cumulative acks, nacks, and go-back-N retransmission: "If a packet
//! is negatively acknowledged, all packets sent after that packet must be
//! resent" (§4.4).
//!
//! This module is a pure state machine — no timing, no scheduling — which
//! is what makes the retransmission corner cases unit-testable.

use crate::ids::{GlobalPort, NodeId, PortId};
use crate::packet::{seq_before, Packet, PacketKind, Seq};
use crate::steady::Rebase;
use gmsim_des::{EventId, SimTime};
use std::collections::VecDeque;

/// Verdict on an arriving reliable packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RxVerdict {
    /// In order: deliver it and bump the expected sequence.
    Accept,
    /// Already delivered: discard, but re-ack so the sender can advance.
    Duplicate,
    /// A gap: discard and nack with the sequence we still need.
    OutOfOrder {
        /// The sequence number the receiver is waiting for.
        expected: Seq,
    },
}

/// A transmitted reliable packet minus its two node ids: the connection
/// knows its peer and the firmware its own node, so a retransmission
/// rebuilds the full [`Packet`] with [`SentPacket::to_packet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SentPacket {
    /// Sending port.
    pub src_port: PortId,
    /// Receiving port.
    pub dst_port: PortId,
    /// Payload discriminant, sequence number included.
    pub kind: PacketKind,
}

impl SentPacket {
    /// The endpoint ports and kind of `pkt`.
    pub fn of(pkt: &Packet) -> Self {
        SentPacket {
            src_port: pkt.src.port,
            dst_port: pkt.dst.port,
            kind: pkt.kind,
        }
    }

    /// The packet as sent from `node` to `peer`.
    pub fn to_packet(&self, node: NodeId, peer: NodeId) -> Packet {
        Packet {
            src: GlobalPort {
                node,
                port: self.src_port,
            },
            dst: GlobalPort {
                node: peer,
                port: self.dst_port,
            },
            kind: self.kind,
        }
    }

    /// The sequence number (every recorded packet has one).
    pub fn seq(&self) -> Option<Seq> {
        self.kind.seq()
    }

    /// Payload bytes the packet puts on the wire ([`Packet::payload_bytes`]).
    pub fn payload_bytes(&self) -> usize {
        self.kind.payload_bytes()
    }
}

/// An unacknowledged transmission.
#[derive(Debug, Clone, Copy)]
pub struct SentEntry {
    /// The packet as transmitted (retransmissions copy it).
    pub packet: SentPacket,
    /// When it was last (re)transmitted — identifies stale timers.
    pub sent_at: SimTime,
}

// A 1024-node NIC-PE barrier holds about ten thousand of these.
const _: () = assert!(std::mem::size_of::<SentEntry>() == 64);

/// A connection's RTO timer event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RtoTimer {
    /// None pending.
    Idle,
    /// One pending at `at`, named `id` once the scheduler has taken it.
    Armed { at: SimTime, id: Option<EventId> },
}

/// One reliable connection to a peer NIC.
#[derive(Debug, Clone)]
pub struct Connection {
    peer: NodeId,
    next_tx: Seq,
    expect_rx: Seq,
    /// Unacknowledged sends, oldest first. Sized by what it has held:
    /// the first send reserves room for exactly one entry, because barrier
    /// traffic never has more than one packet in flight per connection
    /// (std's default first growth would reserve four). Deeper windows —
    /// pipelined payloads, go-back-N resends — grow by doubling from there.
    sent: VecDeque<SentEntry>,
    /// Retransmissions performed (stats/ablation).
    retransmissions: u64,
    /// The RTO timer event the firmware has pending for this connection:
    /// one while packets are in flight (unless it gave up), at most one
    /// after the window empties ([`Connection::cancel_idle_timer`]).
    timer: RtoTimer,
    /// Consecutive genuine timeouts since the last forward progress —
    /// drives exponential RTO backoff.
    backoff_level: u32,
    /// Timeout-driven retransmission attempts since the last forward
    /// progress — compared against the retransmit budget.
    attempts: u32,
    /// Set once the retransmit budget is exhausted; the connection stops
    /// transmitting and the peer is reported unreachable.
    dead: bool,
    /// When the peer last gave evidence of life (ack or nack arrival).
    /// Anchors the RTO deadline: congestion slows acks but does not stop
    /// them, so the timeout clock restarts on every arrival (RFC 6298
    /// style); a genuine loss stalls the ack stream and still expires.
    last_peer_activity: SimTime,
}

impl Connection {
    /// A fresh connection to `peer`.
    pub fn new(peer: NodeId) -> Self {
        Connection::with_initial_seq(peer, 0)
    }

    /// A connection whose sequence space starts at `seq` on both sides
    /// (lets tests exercise wrap-around without a trillion-packet soak).
    pub fn with_initial_seq(peer: NodeId, seq: Seq) -> Self {
        Connection {
            peer,
            next_tx: seq,
            expect_rx: seq,
            sent: VecDeque::new(),
            retransmissions: 0,
            timer: RtoTimer::Idle,
            backoff_level: 0,
            attempts: 0,
            dead: false,
            last_peer_activity: SimTime::ZERO,
        }
    }

    /// The peer NIC.
    pub fn peer(&self) -> NodeId {
        self.peer
    }

    /// The sequence number the next transmission will carry.
    pub fn next_tx(&self) -> Seq {
        self.next_tx
    }

    /// The sequence number the receive side waits for next.
    pub fn expect_rx(&self) -> Seq {
        self.expect_rx
    }

    /// Unacknowledged sends, oldest first.
    pub fn sent_entries(&self) -> impl Iterator<Item = &SentEntry> {
        self.sent.iter()
    }

    /// Allocate the next transmit sequence number. The space wraps; all
    /// orderings go through [`seq_before`], so a wrap is harmless as long
    /// as fewer than half the space is ever in flight (the send-token pool
    /// keeps the window a few dozen packets wide).
    pub fn assign_seq(&mut self) -> Seq {
        let s = self.next_tx;
        self.next_tx = self.next_tx.wrapping_add(1);
        s
    }

    /// Record a reliable transmission awaiting acknowledgment.
    ///
    /// # Panics
    /// Panics if the packet carries no sequence number or sequences are
    /// recorded out of order (both are firmware bugs).
    pub fn record_sent(&mut self, packet: Packet, at: SimTime) {
        let seq = packet.seq().expect("recording an unsequenced packet");
        debug_assert_eq!(packet.dst.node, self.peer, "packet for another connection");
        if let Some(back) = self.sent.back() {
            assert!(
                seq_before(back.packet.seq().unwrap(), seq),
                "sent list out of order: {seq}"
            );
        }
        if self.sent.capacity() == 0 {
            self.sent.reserve_exact(1);
        }
        self.sent.push_back(SentEntry {
            packet: SentPacket::of(&packet),
            sent_at: at,
        });
    }

    /// Apply a cumulative ack: drop every entry with `seq < ack`.
    /// Returns how many sends completed.
    pub fn on_ack(&mut self, ack: Seq) -> usize {
        self.on_ack_drain(ack).len()
    }

    /// Apply a cumulative ack, returning the completed entries (the caller
    /// returns send tokens and fires completion callbacks from them).
    pub fn on_ack_drain(&mut self, ack: Seq) -> Vec<SentEntry> {
        let mut done = Vec::new();
        self.drain_acked_into(ack, &mut done);
        done
    }

    /// Like [`Connection::on_ack_drain`], but appending into a caller-owned
    /// buffer so the ack hot path can reuse one scratch allocation.
    pub fn drain_acked_into(&mut self, ack: Seq, out: &mut Vec<SentEntry>) {
        while let Some(front) = self.sent.front() {
            if seq_before(front.packet.seq().unwrap(), ack) {
                out.push(self.sent.pop_front().unwrap());
            } else {
                break;
            }
        }
    }

    /// Go-back-N after a nack: return copies of every unacked packet with
    /// `seq >= expected`, marking them retransmitted at `now`.
    pub fn on_nack(&mut self, expected: Seq, now: SimTime) -> Vec<SentPacket> {
        let mut out = Vec::new();
        for entry in self.sent.iter_mut() {
            if !seq_before(entry.packet.seq().unwrap(), expected) {
                entry.sent_at = now;
                self.retransmissions += 1;
                out.push(entry.packet);
            }
        }
        out
    }

    /// Retransmission-timer expiry for the entry `(seq, sent_at)`. If that
    /// exact transmission is still unacknowledged, go-back-N from it;
    /// otherwise the timer is stale and nothing happens.
    pub fn on_timeout(&mut self, seq: Seq, sent_at: SimTime, now: SimTime) -> Vec<SentPacket> {
        let live = self
            .sent
            .iter()
            .any(|e| e.packet.seq().unwrap() == seq && e.sent_at == sent_at);
        if !live {
            return Vec::new();
        }
        self.on_nack(seq, now)
    }

    /// Oldest unacknowledged entry, if any (drives timer re-arming).
    pub fn oldest_unacked(&self) -> Option<&SentEntry> {
        self.sent.front()
    }

    /// Update the recorded transmission instant of `seq` (after the SEND
    /// machine fixes the actual wire time of a retransmission).
    pub fn refresh_sent_at(&mut self, seq: Seq, at: SimTime) {
        if let Some(e) = self
            .sent
            .iter_mut()
            .find(|e| e.packet.seq().unwrap() == seq)
        {
            e.sent_at = at;
        }
    }

    /// Classify without advancing (used when delivery might be refused, e.g.
    /// receiver-not-ready, in which case the window must not move).
    /// Wrap-safe: "already delivered" means strictly before `expect_rx` in
    /// serial-number order.
    pub fn peek_rx(&self, seq: Seq) -> RxVerdict {
        if seq == self.expect_rx {
            RxVerdict::Accept
        } else if seq_before(seq, self.expect_rx) {
            RxVerdict::Duplicate
        } else {
            RxVerdict::OutOfOrder {
                expected: self.expect_rx,
            }
        }
    }

    /// Advance the receive window after a peeked Accept was honoured.
    pub fn advance_rx(&mut self) {
        self.expect_rx = self.expect_rx.wrapping_add(1);
    }

    /// Number of unacknowledged packets.
    pub fn in_flight(&self) -> usize {
        self.sent.len()
    }

    /// Classify an arriving reliable packet and advance the receive window
    /// on acceptance. Same acceptance rule as [`Connection::peek_rx`] — this
    /// is literally peek-then-advance, so the two paths cannot drift.
    pub fn classify_rx(&mut self, seq: Seq) -> RxVerdict {
        let verdict = self.peek_rx(seq);
        if verdict == RxVerdict::Accept {
            self.advance_rx();
        }
        verdict
    }

    /// Cumulative ack value to advertise (one past the last in-order seq).
    pub fn ack_value(&self) -> Seq {
        self.expect_rx
    }

    /// Total retransmitted packets.
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
    }

    /// Whether an RTO timer event is currently pending for this connection.
    pub fn timer_armed(&self) -> bool {
        matches!(self.timer, RtoTimer::Armed { .. })
    }

    /// Record that a timer event is being scheduled at `at`.
    pub fn arm_timer(&mut self, at: SimTime) {
        self.timer = RtoTimer::Armed { at, id: None };
    }

    /// Record that the pending timer event fired.
    pub fn timer_fired(&mut self) {
        self.timer = RtoTimer::Idle;
    }

    /// Record the scheduler's name for the timer event just scheduled.
    pub fn bind_timer(&mut self, event: EventId) {
        if let RtoTimer::Armed { id, .. } = &mut self.timer {
            *id = Some(event);
        }
    }

    /// With the window empty, disarm the pending timer unless it is due
    /// after `horizon`: a timer due by then has nothing left to time, and
    /// left pending it would fire for nothing. Returns its name to cancel,
    /// if it was given one.
    pub fn cancel_idle_timer(&mut self, horizon: SimTime) -> Option<EventId> {
        match self.timer {
            RtoTimer::Armed { at, id } if self.sent.is_empty() && at <= horizon => {
                self.timer = RtoTimer::Idle;
                id
            }
            _ => None,
        }
    }

    /// Current exponential-backoff level (0 after any forward progress).
    pub fn backoff_level(&self) -> u32 {
        self.backoff_level
    }

    /// Timeout-driven retransmission attempts since the last forward
    /// progress.
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// Register one genuine RTO expiry: bumps the attempt count and the
    /// backoff level (capped well below anything that could overflow the
    /// RTO doubling loop).
    pub fn note_timeout_attempt(&mut self) {
        self.attempts += 1;
        self.backoff_level = (self.backoff_level + 1).min(32);
    }

    /// The peer made forward progress (acked or nacked something): reset
    /// the backoff and the retransmit-budget clock.
    pub fn reset_liveness(&mut self) {
        self.attempts = 0;
        self.backoff_level = 0;
    }

    /// Record evidence of peer life at `at` (ack/nack arrival).
    pub fn note_peer_activity(&mut self, at: SimTime) {
        if at > self.last_peer_activity {
            self.last_peer_activity = at;
        }
    }

    /// When the peer last acked or nacked anything ([`SimTime::ZERO`] if
    /// never).
    pub fn last_peer_activity(&self) -> SimTime {
        self.last_peer_activity
    }

    /// True once the retransmit budget was exhausted and the connection
    /// declared its peer unreachable.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Give up on the peer: stop retransmitting and drop the unacked list
    /// (the caller surfaces `PeerUnreachable` to the affected ports).
    /// Returns the abandoned entries so tokens can be reclaimed.
    pub fn mark_dead(&mut self) -> Vec<SentEntry> {
        self.dead = true;
        self.sent.drain(..).collect()
    }
}

// Sequence numbers hash relative to their stream's next one on the sending
// side: `next_tx` for this side's stream, the peer's for the reverse one.
gmsim_des::walk! {
    pub(crate) fn walk(node: NodeId, cx: &mut Rebase) for Connection {
        peer, backoff_level, attempts, dead: state,
        // An armed timer's instant and name are its pending event's, which
        // is hashed with the pending events.
        timer: state(h => matches!(timer, RtoTimer::Armed { .. }).hash(h)),
        next_tx: scratch("the base this stream's sequence numbers hash against"),
        expect_rx: state(h => expect_rx.wrapping_sub(cx.next_tx(*peer, node)).hash(h)),
        sent: state(h => {
            h.item();
            sent.len().hash(h);
            for SentEntry { packet, sent_at } in sent {
                let SentPacket { src_port, dst_port, kind } = packet;
                h.item();
                h.time(*sent_at);
                (src_port, dst_port).hash(h);
                let src = GlobalPort { node, port: *src_port };
                cx.reliable_kind(src, kind, *next_tx, h);
            }
        }),
        retransmissions: counter,
        // The RTO deadline anchors on the later of the oldest unacked
        // transmission and the peer's last activity. Both only move
        // forward, so an activity before the oldest send never matters
        // again, and with nothing in flight no past activity does.
        last_peer_activity: state(h => match sent.front() {
            Some(oldest) => {
                h.word(1);
                h.time((*last_peer_activity).max(oldest.sent_at));
            }
            None => h.word(0),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(seq: Seq) -> Packet {
        Packet {
            src: GlobalPort::new(0, 1),
            dst: GlobalPort::new(1, 1),
            kind: PacketKind::Data {
                seq,
                len: 8,
                tag: 0,
                notify: false,
            },
        }
    }

    fn conn() -> Connection {
        Connection::new(NodeId(1))
    }

    #[test]
    fn seq_assignment_is_dense() {
        let mut c = conn();
        assert_eq!(c.assign_seq(), 0);
        assert_eq!(c.assign_seq(), 1);
        assert_eq!(c.assign_seq(), 2);
    }

    #[test]
    fn in_order_receive_accepts() {
        let mut c = conn();
        assert_eq!(c.classify_rx(0), RxVerdict::Accept);
        assert_eq!(c.classify_rx(1), RxVerdict::Accept);
        assert_eq!(c.ack_value(), 2);
    }

    #[test]
    fn gap_nacks_and_does_not_advance() {
        let mut c = conn();
        assert_eq!(c.classify_rx(0), RxVerdict::Accept);
        assert_eq!(c.classify_rx(3), RxVerdict::OutOfOrder { expected: 1 });
        assert_eq!(c.ack_value(), 1);
        // the missing packet is still acceptable
        assert_eq!(c.classify_rx(1), RxVerdict::Accept);
    }

    #[test]
    fn duplicate_detected() {
        let mut c = conn();
        assert_eq!(c.classify_rx(0), RxVerdict::Accept);
        assert_eq!(c.classify_rx(0), RxVerdict::Duplicate);
    }

    #[test]
    fn cumulative_ack_clears_prefix() {
        let mut c = conn();
        for s in 0..4 {
            let q = c.assign_seq();
            c.record_sent(pkt(q), SimTime::from_ns(s));
        }
        assert_eq!(c.in_flight(), 4);
        assert_eq!(c.on_ack(2), 2);
        assert_eq!(c.in_flight(), 2);
        assert_eq!(c.oldest_unacked().unwrap().packet.seq(), Some(2));
        assert_eq!(c.on_ack(100), 2);
        assert_eq!(c.in_flight(), 0);
    }

    #[test]
    fn nack_triggers_go_back_n() {
        let mut c = conn();
        for s in 0..3 {
            let q = c.assign_seq();
            c.record_sent(pkt(q), SimTime::from_ns(s));
        }
        let re = c.on_nack(1, SimTime::from_us(5));
        let seqs: Vec<_> = re.iter().map(|p| p.seq().unwrap()).collect();
        assert_eq!(seqs, [1, 2]);
        assert_eq!(c.retransmissions(), 2);
        // sent_at was refreshed
        assert!(c
            .sent
            .iter()
            .filter(|e| e.packet.seq().unwrap() >= 1)
            .all(|e| e.sent_at == SimTime::from_us(5)));
    }

    #[test]
    fn stale_timeout_is_ignored() {
        let mut c = conn();
        let q = c.assign_seq();
        c.record_sent(pkt(q), SimTime::from_ns(10));
        // A timer armed for an older transmission instant must not fire.
        assert!(c
            .on_timeout(0, SimTime::from_ns(5), SimTime::from_us(1))
            .is_empty());
        // The live one does.
        let re = c.on_timeout(0, SimTime::from_ns(10), SimTime::from_us(1));
        assert_eq!(re.len(), 1);
    }

    #[test]
    fn timeout_after_ack_is_ignored() {
        let mut c = conn();
        let q = c.assign_seq();
        c.record_sent(pkt(q), SimTime::from_ns(10));
        c.on_ack(1);
        assert!(c
            .on_timeout(0, SimTime::from_ns(10), SimTime::from_us(1))
            .is_empty());
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn recording_out_of_order_panics() {
        let mut c = conn();
        c.record_sent(pkt(5), SimTime::ZERO);
        c.record_sent(pkt(3), SimTime::ZERO);
    }

    #[test]
    fn seq_space_wraps_without_panicking() {
        let mut c = Connection::with_initial_seq(NodeId(1), Seq::MAX - 1);
        let a = c.assign_seq();
        let b = c.assign_seq();
        let d = c.assign_seq();
        assert_eq!((a, b, d), (Seq::MAX - 1, Seq::MAX, 0));
        c.record_sent(pkt(a), SimTime::ZERO);
        c.record_sent(pkt(b), SimTime::ZERO);
        c.record_sent(pkt(d), SimTime::ZERO);
        // A cumulative ack from past the wrap clears the whole prefix.
        assert_eq!(c.on_ack(1), 3);
        assert_eq!(c.in_flight(), 0);
    }

    #[test]
    fn receive_window_wraps() {
        let mut c = Connection::with_initial_seq(NodeId(1), Seq::MAX);
        assert_eq!(c.classify_rx(Seq::MAX), RxVerdict::Accept);
        assert_eq!(c.classify_rx(0), RxVerdict::Accept);
        assert_eq!(c.ack_value(), 1);
        // Pre-wrap seqs are duplicates, not "huge future" packets.
        assert_eq!(c.classify_rx(Seq::MAX), RxVerdict::Duplicate);
        assert_eq!(c.classify_rx(2), RxVerdict::OutOfOrder { expected: 1 });
    }

    #[test]
    fn classify_matches_peek_then_advance() {
        let mut a = conn();
        let mut b = conn();
        for seq in [0u64, 2, 0, 1, 1, 3, 2] {
            let via_peek = {
                let v = a.peek_rx(seq);
                if v == RxVerdict::Accept {
                    a.advance_rx();
                }
                v
            };
            assert_eq!(b.classify_rx(seq), via_peek, "seq {seq}");
        }
    }

    #[test]
    fn liveness_tracking() {
        let mut c = conn();
        assert_eq!((c.attempts(), c.backoff_level()), (0, 0));
        c.note_timeout_attempt();
        c.note_timeout_attempt();
        assert_eq!((c.attempts(), c.backoff_level()), (2, 2));
        c.reset_liveness();
        assert_eq!((c.attempts(), c.backoff_level()), (0, 0));
    }

    #[test]
    fn mark_dead_drains_unacked() {
        let mut c = conn();
        for _ in 0..3 {
            let q = c.assign_seq();
            c.record_sent(pkt(q), SimTime::ZERO);
        }
        assert!(!c.is_dead());
        let abandoned = c.mark_dead();
        assert!(c.is_dead());
        assert_eq!(abandoned.len(), 3);
        assert_eq!(c.in_flight(), 0);
        // A stale timeout on a dead connection retransmits nothing.
        assert!(c
            .on_timeout(0, SimTime::ZERO, SimTime::from_us(1))
            .is_empty());
    }
}
