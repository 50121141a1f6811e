//! The collective schedule IR: a compiled, per-rank program of explicit
//! steps that both the NIC firmware extension and the host-based baselines
//! interpret.
//!
//! §4.2 of the paper puts the barrier's state "in the *send token*"; §5.1
//! keeps schedule *construction* on the host ("the tree construction is a
//! relatively computationally intensive task which can easily be computed
//! at the host"). The IR is the concrete form of that split: a compiler
//! (`nic_barrier::schedule::compile`) turns an algorithm descriptor into a
//! [`CollectiveSchedule`] — a flat list of [`ScheduleStep`]s — and the
//! executors walk the program step by step without knowing which algorithm
//! produced it. Firmware-side costs are named symbolically by [`Charge`]
//! so the same program carries its own cost annotations; the host-side
//! interpreter ignores them and pays ordinary GM send/receive overheads.

use crate::ids::GlobalPort;

/// A payload size in bytes. Newtyped so byte counts and segment counts
/// cannot be confused anywhere charges are computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bytes(pub u64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0);

    /// The raw byte count.
    pub fn get(self) -> u64 {
        self.0
    }

    /// The byte count as a `usize` (for DMA/wire interfaces).
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

/// A count of pipeline segments. Newtyped counterpart of [`Bytes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Segments(pub u32);

impl Segments {
    /// A single segment (the eager / zero-payload case).
    pub const ONE: Segments = Segments(1);

    /// The raw segment count.
    pub fn get(self) -> u32 {
        self.0
    }
}

/// The data a collective carries and how the NIC pipelines it.
///
/// `bytes` is the full application message size; `seg_bytes` is the
/// pipelining granularity. A payload whose size is at most one segment
/// moves as a single worm (*eager*); anything larger is cut into
/// `ceil(bytes / seg_bytes)` segments that stream through the SDMA →
/// wire → RDMA pipeline (*pipelined*), overlapping the per-segment DMA
/// and wire times. A zero-byte payload is the plain barrier and is
/// guaranteed to add no charges anywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Payload {
    /// Total message size.
    pub bytes: Bytes,
    /// Segment granularity (must be nonzero when `bytes` is nonzero).
    pub seg_bytes: Bytes,
}

impl Payload {
    /// The zero-byte payload: a pure synchronization collective.
    pub const EMPTY: Payload = Payload {
        bytes: Bytes::ZERO,
        seg_bytes: Bytes::ZERO,
    };

    /// Messages at or below this size move as one eager worm when sized
    /// by [`Payload::for_size`]; larger ones pipeline in segments of this
    /// granularity (GM's ~4 KB MTU).
    pub const DEFAULT_SEG_BYTES: u64 = 4096;

    /// An eager payload: the whole message as one segment.
    pub fn eager(bytes: u64) -> Payload {
        Payload {
            bytes: Bytes(bytes),
            seg_bytes: Bytes(bytes.max(1)),
        }
    }

    /// A pipelined payload cut into `seg_bytes`-sized segments.
    ///
    /// # Panics
    /// If `seg_bytes` is zero while `bytes` is nonzero.
    pub fn pipelined(bytes: u64, seg_bytes: u64) -> Payload {
        assert!(
            bytes == 0 || seg_bytes > 0,
            "pipelined payload needs a nonzero segment size"
        );
        Payload {
            bytes: Bytes(bytes),
            seg_bytes: Bytes(seg_bytes),
        }
    }

    /// The default policy: eager at or below [`Payload::DEFAULT_SEG_BYTES`],
    /// pipelined above it.
    pub fn for_size(bytes: u64) -> Payload {
        if bytes <= Self::DEFAULT_SEG_BYTES {
            Payload::eager(bytes)
        } else {
            Payload::pipelined(bytes, Self::DEFAULT_SEG_BYTES)
        }
    }

    /// True when no data rides the collective (the plain barrier).
    pub fn is_empty(self) -> bool {
        self.bytes.0 == 0
    }

    /// True when the payload moves as a single worm.
    pub fn is_eager(self) -> bool {
        self.segments() == Segments::ONE
    }

    /// Number of pipeline segments. Zero-byte payloads count as one
    /// (the single zero-length barrier packet).
    pub fn segments(self) -> Segments {
        if self.bytes.0 == 0 {
            Segments::ONE
        } else {
            Segments(self.bytes.0.div_ceil(self.seg_bytes.0) as u32)
        }
    }

    /// Size of segment `i` (zero-based); the last segment may be short.
    pub fn seg_len(self, i: u32) -> Bytes {
        let segs = self.segments().0;
        debug_assert!(i < segs);
        if self.bytes.0 == 0 {
            Bytes::ZERO
        } else if i + 1 == segs {
            Bytes(self.bytes.0 - u64::from(i) * self.seg_bytes.0)
        } else {
            self.seg_bytes
        }
    }
}

/// Combining operator for value-carrying collectives (u64 operands).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    /// Wrapping sum.
    Sum,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

impl ReduceOp {
    /// Combine two operands.
    pub fn combine(self, a: u64, b: u64) -> u64 {
        match self {
            ReduceOp::Sum => a.wrapping_add(b),
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
        }
    }

    /// The identity element.
    pub fn identity(self) -> u64 {
        match self {
            ReduceOp::Sum => 0,
            ReduceOp::Min => u64::MAX,
            ReduceOp::Max => 0,
        }
    }
}

/// Symbolic firmware cost of executing one step (resolved against the
/// calibrated `BarrierCosts` table by the NIC interpreter; ignored by the
/// host interpreter).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Charge {
    /// Preparing and queueing one pairwise-exchange-style packet (§5.2's
    /// SDMA-side work).
    ExchangeSend,
    /// Matching one awaited packet against the record and advancing
    /// (§5.2's RDMA-side five-step update).
    ExchangeMatch,
    /// Consuming one gather message (tree walk + combine).
    Gather,
    /// Re-queueing the token for one broadcast child.
    ChildSend,
    /// No firmware charge — e.g. the GB gather-up send, which piggybacks
    /// on the state update that absorbed the last child.
    Free,
}

/// Symbolic cost of picking up the collective token itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TokenCharge {
    /// A PE-style token: a flat peer list, cheap to parse.
    Light,
    /// A tree token: the firmware parses the neighbourhood and sets up
    /// tree state (§6 blames this overhead for NIC-GB's two-node loss).
    Tree,
}

/// Which completion event a [`ScheduleStep::DeliverCompletion`] DMAs to
/// the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompletionKind {
    /// `GM_BARRIER_COMPLETED_EVENT`.
    Barrier,
    /// A broadcast value delivery.
    Broadcast,
    /// A reduction result (at the root, or everywhere for allreduce).
    Reduce,
    /// A prefix-scan result.
    Scan,
}

/// One step of a compiled collective program.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ScheduleStep {
    /// Send the accumulator to each peer in order as a packet of `kind`.
    SendTo {
        /// Destination endpoints, sent back to back.
        peers: Vec<GlobalPort>,
        /// Wire packet kind (`nic_barrier::nic::pkt`).
        kind: u8,
        /// Firmware cost per packet.
        charge: Charge,
    },
    /// Wait until a packet of `kind` has arrived from every peer,
    /// consuming them in any order as they land.
    RecvFrom {
        /// Endpoints that must each deliver one packet.
        peers: Vec<GlobalPort>,
        /// Wire packet kind expected.
        kind: u8,
        /// `Some(op)`: fold each arriving value into the accumulator.
        /// `None`: overwrite the accumulator with the arriving value
        /// (a broadcast hand-down; harmless for barriers, whose values
        /// are all zero).
        combine: Option<ReduceOp>,
        /// Firmware cost per consumed packet.
        charge: Charge,
    },
    /// DMA the completion event to the host. Placed *before* any trailing
    /// [`ScheduleStep::SendTo`] so the §5.2 order — completion first,
    /// forwarding second — is encoded in the program itself.
    DeliverCompletion(CompletionKind),
}

/// A compiled per-rank collective program, carried inside the send token
/// the host posts (§4.2).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CollectiveSchedule {
    /// The steps, executed in order (receives may park the program).
    pub steps: Vec<ScheduleStep>,
    /// Cost class of picking up this token.
    pub token_charge: TokenCharge,
    /// The data this collective carries. [`Payload::EMPTY`] for barriers;
    /// every `SendTo`/`RecvFrom` moves one packet *per segment* per peer
    /// when nonempty.
    pub payload: Payload,
}

impl CollectiveSchedule {
    /// A program with no payload (pure synchronization).
    pub fn new(steps: Vec<ScheduleStep>, token_charge: TokenCharge) -> Self {
        CollectiveSchedule {
            steps,
            token_charge,
            payload: Payload::EMPTY,
        }
    }

    /// Attach a payload (builder style).
    pub fn with_payload(mut self, payload: Payload) -> Self {
        self.payload = payload;
        self
    }

    /// Number of endpoint references in the program (descriptor-size
    /// proxy: each peer is one record in the posted token).
    pub fn peer_refs(&self) -> usize {
        self.steps
            .iter()
            .map(|s| match s {
                ScheduleStep::SendTo { peers, .. } | ScheduleStep::RecvFrom { peers, .. } => {
                    peers.len()
                }
                ScheduleStep::DeliverCompletion(_) => 0,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduce_semantics() {
        assert_eq!(ReduceOp::Sum.combine(3, 4), 7);
        assert_eq!(ReduceOp::Sum.combine(u64::MAX, 1), 0, "wrapping");
        assert_eq!(ReduceOp::Min.combine(3, 4), 3);
        assert_eq!(ReduceOp::Max.combine(3, 4), 4);
        for op in [ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max] {
            for x in [0u64, 1, 17, u64::MAX] {
                assert_eq!(op.combine(op.identity(), x), x, "{op:?} identity");
            }
        }
    }

    #[test]
    fn peer_refs_counts_every_endpoint() {
        let gp = |n: usize| GlobalPort::new(n, 1);
        let s = CollectiveSchedule::new(
            vec![
                ScheduleStep::RecvFrom {
                    peers: vec![gp(1), gp(2)],
                    kind: 2,
                    combine: None,
                    charge: Charge::Gather,
                },
                ScheduleStep::DeliverCompletion(CompletionKind::Barrier),
                ScheduleStep::SendTo {
                    peers: vec![gp(1)],
                    kind: 3,
                    charge: Charge::ChildSend,
                },
            ],
            TokenCharge::Tree,
        );
        assert_eq!(s.peer_refs(), 3);
        assert_eq!(s.payload, Payload::EMPTY);
    }

    #[test]
    fn empty_payload_is_one_zero_length_segment() {
        let p = Payload::EMPTY;
        assert!(p.is_empty());
        assert!(p.is_eager());
        assert_eq!(p.segments(), Segments::ONE);
        assert_eq!(p.seg_len(0), Bytes::ZERO);
    }

    #[test]
    fn eager_payload_is_one_segment() {
        let p = Payload::eager(100_000);
        assert!(!p.is_empty());
        assert!(p.is_eager());
        assert_eq!(p.segments(), Segments::ONE);
        assert_eq!(p.seg_len(0), Bytes(100_000));
    }

    #[test]
    fn pipelined_payload_segments_and_short_tail() {
        let p = Payload::pipelined(10_000, 4096);
        assert_eq!(p.segments(), Segments(3));
        assert_eq!(p.seg_len(0), Bytes(4096));
        assert_eq!(p.seg_len(1), Bytes(4096));
        assert_eq!(p.seg_len(2), Bytes(10_000 - 2 * 4096));
        let exact = Payload::pipelined(8192, 4096);
        assert_eq!(exact.segments(), Segments(2));
        assert_eq!(exact.seg_len(1), Bytes(4096));
    }

    #[test]
    fn for_size_crosses_at_default_seg_bytes() {
        assert!(Payload::for_size(0).is_empty());
        assert!(Payload::for_size(Payload::DEFAULT_SEG_BYTES).is_eager());
        let big = Payload::for_size(Payload::DEFAULT_SEG_BYTES + 1);
        assert!(!big.is_eager());
        assert_eq!(big.segments(), Segments(2));
    }

    #[test]
    #[should_panic(expected = "nonzero segment size")]
    fn pipelined_rejects_zero_segment_size() {
        let _ = Payload::pipelined(10, 0);
    }
}
