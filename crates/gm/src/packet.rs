//! GM wire packets.
//!
//! Everything that crosses the fabric is a [`Packet`]: reliable data,
//! acknowledgments, negative acknowledgments, or an *extension* packet — the
//! mechanism through which the barrier adds its gather/broadcast/PE packet
//! types ("There is a separate packet type for each phase", §5.2).

use crate::ids::GlobalPort;

/// Sequence number on a reliable connection.
///
/// 64 bits wide so soak runs never exhaust the space in practice, but all
/// comparisons still go through [`seq_before`] so the protocol stays correct
/// even across a wrap (connections may start anywhere in the space).
pub type Seq = u64;

/// Serial-number ("RFC 1982"-style) ordering: true when `a` precedes `b`
/// in the circular sequence space, i.e. `b` is at most half the space ahead.
/// Wrap-safe: `seq_before(Seq::MAX, 0)` holds.
pub fn seq_before(a: Seq, b: Seq) -> bool {
    (b.wrapping_sub(a) as i64) > 0
}

/// Body of an extension (collective) packet: a type opcode and two small
/// operand words, enough for barrier round tags and reduce operands. These
/// stay opaque to the GM core; the firmware extension interprets them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExtPacket {
    /// Extension-defined packet type (e.g. PE-exchange / gather / broadcast).
    pub ext_type: u8,
    /// First operand word (barrier extensions use it as the step/round tag).
    pub a: u64,
    /// Second operand word (reduction value, broadcast payload, ...).
    pub b: u64,
    /// Pipeline segment index this packet carries (0 for barriers and
    /// eager payloads).
    pub seg: u32,
    /// Modelled payload bytes riding behind the header (0 for barriers).
    pub len: u32,
}

impl ExtPacket {
    /// On-wire *header* size: opcode + two u64 operands. Data segments add
    /// [`ExtPacket::len`] on top; the zero-payload barrier packet is exactly
    /// this many bytes, as it has been since the original prototype.
    pub const WIRE_BYTES: usize = 17;

    /// A zero-payload extension packet (barrier rounds, control).
    pub fn new(ext_type: u8, a: u64, b: u64) -> Self {
        ExtPacket {
            ext_type,
            a,
            b,
            seg: 0,
            len: 0,
        }
    }

    /// Attach a data segment (builder style).
    pub fn with_segment(mut self, seg: u32, len: u32) -> Self {
        self.seg = seg;
        self.len = len;
        self
    }
}

/// What a packet is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// Reliable user data, carrying a per-connection sequence number and an
    /// application tag (our stand-in for message contents).
    Data {
        /// Connection sequence number.
        seq: Seq,
        /// Application payload bytes (modelled, not stored byte-for-byte).
        len: usize,
        /// Application tag, delivered to the receiving process.
        tag: u64,
        /// Whether the sender asked for a completion callback (a `Sent`
        /// event) once this packet is acknowledged.
        notify: bool,
    },
    /// Cumulative acknowledgment: everything `< ack` has been received.
    Ack {
        /// One past the highest in-order sequence received.
        ack: Seq,
    },
    /// Negative acknowledgment: receiver expected `expected`, got something
    /// later. Sender must go-back-N from `expected`.
    Nack {
        /// The sequence number the receiver is waiting for.
        expected: Seq,
    },
    /// An extension (collective) packet. When `seq` is `Some`, the packet
    /// travels inside the connection's reliable, ordered stream (the §3.3
    /// design the paper adopts); `None` is the fire-and-forget mode of the
    /// paper's prototype, kept for the reliability ablation.
    Ext {
        /// Reliable-stream sequence number, if any.
        seq: Option<Seq>,
        /// Extension body.
        body: ExtPacket,
    },
}

/// A packet in flight between two endpoints. `Copy`: packets are a few
/// scalar words, so the hot path moves them by value instead of cloning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// Sending endpoint.
    pub src: GlobalPort,
    /// Receiving endpoint.
    pub dst: GlobalPort,
    /// Payload discriminant.
    pub kind: PacketKind,
}

impl PacketKind {
    /// Bytes of payload a packet of this kind puts on the wire
    /// (headers/route bytes are added by the fabric's wire format).
    pub fn payload_bytes(&self) -> usize {
        match self {
            PacketKind::Data { len, .. } => *len,
            // Real GM puts a small (wrapping) sequence field on the wire;
            // the in-memory `Seq` width is a simulator convenience and does
            // not change the modelled byte count.
            PacketKind::Ack { .. } | PacketKind::Nack { .. } => 4,
            PacketKind::Ext { body, .. } => ExtPacket::WIRE_BYTES + body.len as usize,
        }
    }

    /// The sequence number, for kinds that travel in the reliable stream.
    pub fn seq(&self) -> Option<Seq> {
        match self {
            PacketKind::Data { seq, .. } => Some(*seq),
            PacketKind::Ext { seq, .. } => *seq,
            _ => None,
        }
    }
}

impl Packet {
    /// Bytes of payload this packet puts on the wire (headers/route bytes
    /// are added by the fabric's wire format).
    pub fn payload_bytes(&self) -> usize {
        self.kind.payload_bytes()
    }

    /// The sequence number, for packets that travel in the reliable stream.
    pub fn seq(&self) -> Option<Seq> {
        self.kind.seq()
    }

    /// True for packets that consume a slot in the reliable stream and must
    /// be acknowledged.
    pub fn is_reliable(&self) -> bool {
        self.seq().is_some()
    }

    /// Stable one-byte code for trace records: 1 = data, 2 = ack, 3 = nack,
    /// `0x10 | ext_type` for extension packets.
    pub fn trace_code(&self) -> u8 {
        match &self.kind {
            PacketKind::Data { .. } => 1,
            PacketKind::Ack { .. } => 2,
            PacketKind::Nack { .. } => 3,
            PacketKind::Ext { body, .. } => 0x10 | (body.ext_type & 0x0f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gp(n: usize, p: u8) -> GlobalPort {
        GlobalPort::new(n, p)
    }

    #[test]
    fn payload_sizes() {
        let data = Packet {
            src: gp(0, 1),
            dst: gp(1, 1),
            kind: PacketKind::Data {
                seq: 0,
                len: 100,
                tag: 7,
                notify: false,
            },
        };
        assert_eq!(data.payload_bytes(), 100);
        let ack = Packet {
            src: gp(1, 0),
            dst: gp(0, 0),
            kind: PacketKind::Ack { ack: 3 },
        };
        assert_eq!(ack.payload_bytes(), 4);
        let ext = Packet {
            src: gp(0, 1),
            dst: gp(1, 1),
            kind: PacketKind::Ext {
                seq: None,
                body: ExtPacket::new(1, 0, 0),
            },
        };
        assert_eq!(ext.payload_bytes(), ExtPacket::WIRE_BYTES);
        let seg = Packet {
            src: gp(0, 1),
            dst: gp(1, 1),
            kind: PacketKind::Ext {
                seq: None,
                body: ExtPacket::new(3, 0, 0).with_segment(2, 4096),
            },
        };
        assert_eq!(seg.payload_bytes(), ExtPacket::WIRE_BYTES + 4096);
    }

    #[test]
    fn seq_before_is_wrap_safe() {
        assert!(seq_before(0, 1));
        assert!(!seq_before(1, 0));
        assert!(!seq_before(7, 7));
        assert!(seq_before(Seq::MAX, 0));
        assert!(seq_before(Seq::MAX - 2, Seq::MAX));
        assert!(!seq_before(1, Seq::MAX));
    }

    #[test]
    fn reliability_classification() {
        let mk = |kind| Packet {
            src: gp(0, 1),
            dst: gp(1, 1),
            kind,
        };
        assert!(mk(PacketKind::Data {
            seq: 5,
            len: 1,
            tag: 0,
            notify: false,
        })
        .is_reliable());
        assert!(!mk(PacketKind::Ack { ack: 1 }).is_reliable());
        assert!(!mk(PacketKind::Nack { expected: 1 }).is_reliable());
        let body = ExtPacket::new(2, 1, 2);
        assert!(mk(PacketKind::Ext { seq: Some(9), body }).is_reliable());
        assert!(!mk(PacketKind::Ext { seq: None, body }).is_reliable());
        assert_eq!(mk(PacketKind::Ext { seq: Some(9), body }).seq(), Some(9));
    }
}
