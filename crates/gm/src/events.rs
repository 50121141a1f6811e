//! Events GM delivers to host processes.
//!
//! A GM process polls `gm_receive()`; each poll may return one event. The
//! paper adds `GM_BARRIER_COMPLETED_EVENT` to the stock set; our collective
//! extensions add value-carrying completions for the future-work
//! collectives (§8).

use crate::ids::{GlobalPort, TeamId};

/// An event returned by the (modelled) `gm_receive()` poll. `Copy`: all
/// variants are scalar words, so events move by value through the host
/// queue without cloning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GmEvent {
    /// A send completed and its send token returned to the process.
    Sent {
        /// Application tag of the completed send.
        tag: u64,
    },
    /// A message arrived into a provided receive buffer.
    Recv {
        /// Sending endpoint.
        src: GlobalPort,
        /// Payload length.
        len: usize,
        /// Application tag.
        tag: u64,
    },
    /// `GM_BARRIER_COMPLETED_EVENT`: the NIC finished the barrier this port
    /// initiated on `team`.
    BarrierComplete {
        /// The communicator whose barrier completed — lets a process
        /// driving several concurrent teams on one port tell completions
        /// apart.
        team: TeamId,
    },
    /// A NIC-based broadcast delivered `value` to this port.
    BroadcastComplete {
        /// The broadcast payload word.
        value: u64,
    },
    /// A NIC-based reduction completed with `value` (delivered at the root,
    /// or everywhere for allreduce).
    ReduceComplete {
        /// The reduced value.
        value: u64,
    },
    /// A NIC-based prefix scan completed; `value` is this rank's inclusive
    /// prefix.
    ScanComplete {
        /// This rank's prefix result.
        value: u64,
    },
    /// The reliable connection to `peer` exhausted its retransmit budget
    /// and gave up; in-flight sends to that peer will never complete.
    PeerUnreachable {
        /// The unreachable peer node.
        peer: crate::ids::NodeId,
    },
}

impl GmEvent {
    /// Bytes the RDMA engine moves to the host to deliver this event
    /// (receive-token completion record, plus payload for data).
    pub fn rdma_bytes(&self) -> usize {
        match self {
            GmEvent::Recv { len, .. } => 16 + len,
            _ => 16,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rdma_cost_scales_with_payload() {
        let small = GmEvent::BarrierComplete {
            team: TeamId::GLOBAL,
        }
        .rdma_bytes();
        let data = GmEvent::Recv {
            src: GlobalPort::new(0, 1),
            len: 100,
            tag: 0,
        }
        .rdma_bytes();
        assert_eq!(small, 16);
        assert_eq!(data, 116);
    }
}
