//! The unexpected-barrier-message record (§3.1).
//!
//! "The NIC must be prepared to receive a barrier message from any process
//! on any node in any order at any time. However, once a process initiates
//! a barrier operation and is waiting for it to complete, it will not
//! initiate another one until that barrier completes. So the NIC can
//! receive at most one unexpected message from every other process on every
//! node." The paper records these in a bit array per connection (one bit
//! per remote port).
//!
//! Each local port keeps its records as one list in arrival order, so the
//! record costs nothing for ports and peers that never hold an unexpected
//! message, and nothing that grows with the cluster. A list is short: a
//! PE barrier holds at most one record per partner (about log2 N), so a
//! linear scan replaces the paper's bit test. "Is a bit set for this
//! endpoint" is "does the list hold an entry from it", and consuming a
//! record takes the oldest entry matching `(sender endpoint, team, kind)`.
//!
//! A list rather than one slot per endpoint because the §8 value
//! collectives break the paper's one-outstanding invariant: a broadcast
//! root completes immediately and can race a second collective ahead, so
//! a slow receiver may legitimately hold a BCAST *and* a PE message (or
//! two BCASTs) from the same endpoint at once. For pure barrier traffic
//! each `(endpoint, team, kind)` holds at most one entry, preserving the
//! paper's argument (the `queued_extra` counter proves it in tests).
//!
//! Entries also carry the sender's port *epoch* (for the §3.2
//! record-then-reject-on-open protocol) and an operand *value* (for
//! reductions/broadcasts).

use gmsim_des::Walk;
use gmsim_gm::{GlobalPort, PortId, TeamId, GM_NUM_PORTS};
use std::hash::Hash;

/// Data stored with one recorded message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RecordMeta {
    /// The communicator the message belongs to — consumption is
    /// team-keyed so an overlapping team's flag can never satisfy this
    /// team's step (teams sharing a NIC stay isolated).
    pub team: TeamId,
    /// Packet type (PE / gather / broadcast) — consumption is type-keyed
    /// so a gather for a future GB barrier can never satisfy a PE step.
    pub kind: u8,
    /// The sender port's epoch when the message was sent (§3.2 staleness).
    pub epoch: u32,
    /// Operand carried by the packet (reduce partials, broadcast values).
    pub value: u64,
    /// Pipeline segment index for data-carrying collectives (0 for
    /// barriers and eager payloads).
    pub seg: u32,
}

/// Counters for the record (exposed for the ablation benches).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecordStats {
    /// Messages recorded as unexpected.
    pub recorded: u64,
    /// Recorded messages later consumed by a collective step.
    pub consumed: u64,
    /// Records queued behind an existing record from the same endpoint —
    /// zero for pure barrier streams (the paper's §3.1 invariant), nonzero
    /// only when §8 value collectives race ahead.
    pub queued_extra: u64,
    /// Records superseded across an endpoint epoch change (§3.2 endpoint
    /// reuse: the dead process's message is discarded).
    pub superseded: u64,
}

/// The per-NIC unexpected-message record.
#[derive(Debug, Clone)]
pub struct UnexpectedRecord {
    nodes: usize,
    /// `lists[local_port]`: every record awaiting that port, with its
    /// sender, oldest first.
    lists: [Vec<(GlobalPort, RecordMeta)>; GM_NUM_PORTS as usize],
    /// Counters.
    pub stats: RecordStats,
}

gmsim_des::walk! {
    impl Walk for UnexpectedRecord {
        nodes: scratch("fixed at build"),
        lists: state(h => for list in lists {
            list.len().hash(h);
            for entry in list {
                h.item();
                entry.hash(h);
            }
        }),
        stats: walk(),
    }
}

gmsim_des::walk! {
    impl Walk for RecordStats {
        recorded, consumed, queued_extra, superseded: counter,
    }
}

/// Does `entry` come from `from` on `team` with packet type `kind`?
fn matches(entry: &(GlobalPort, RecordMeta), from: GlobalPort, team: TeamId, kind: u8) -> bool {
    entry.0 == from && entry.1.team == team && entry.1.kind == kind
}

impl UnexpectedRecord {
    /// A record for a cluster of `nodes` nodes.
    pub fn new(nodes: usize) -> Self {
        UnexpectedRecord {
            nodes,
            lists: Default::default(),
            stats: RecordStats::default(),
        }
    }

    /// Record an unexpected message from `from` addressed to `local`.
    /// Returns `false` if something was already recorded from that
    /// endpoint. A record from an *older* epoch of the same endpoint, team
    /// and kind is discarded first (its sender is dead, §3.2).
    pub fn set(&mut self, local: PortId, from: GlobalPort, meta: RecordMeta) -> bool {
        debug_assert!(from.node.0 < self.nodes);
        let fresh = !self.peek(local, from);
        let list = &mut self.lists[local.idx()];
        let (mut superseded, mut live) = (0, 0);
        // Epoch change supersedes everything the dead process left behind.
        list.retain(|e| {
            if !matches(e, from, meta.team, meta.kind) {
                true
            } else if e.1.epoch == meta.epoch {
                live += 1;
                true
            } else {
                superseded += 1;
                false
            }
        });
        self.stats.superseded += superseded;
        if live > 0 {
            self.stats.queued_extra += 1;
        }
        list.push((from, meta));
        self.stats.recorded += 1;
        fresh
    }

    /// Non-destructive test: has `from` already sent something to `local`?
    pub fn peek(&self, local: PortId, from: GlobalPort) -> bool {
        self.lists[local.idx()].iter().any(|e| e.0 == from)
    }

    /// "After a bit is checked, the bit is cleared" (§4.3): consume the
    /// oldest record of `expect_kind` on `team` from `from`, if any.
    /// Matching on the team is what keeps overlapping teams from consuming
    /// each other's flags.
    pub fn check_clear(
        &mut self,
        local: PortId,
        team: TeamId,
        from: GlobalPort,
        expect_kind: u8,
    ) -> Option<RecordMeta> {
        let list = &mut self.lists[local.idx()];
        let at = list
            .iter()
            .position(|e| matches(e, from, team, expect_kind))?;
        self.stats.consumed += 1;
        Some(list.remove(at).1)
    }

    /// Drain every record addressed to `local` (port-open rejection, §3.2),
    /// ordered by sender endpoint, team and kind, oldest first within each.
    pub fn drain_port(&mut self, local: PortId) -> Vec<(GlobalPort, RecordMeta)> {
        let mut out = std::mem::take(&mut self.lists[local.idx()]);
        out.sort_by_key(|(g, m)| (g.node, g.port, m.team, m.kind));
        out
    }

    /// Total records currently held (diagnostics).
    pub fn outstanding(&self) -> usize {
        self.lists.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gp(n: usize, p: u8) -> GlobalPort {
        GlobalPort::new(n, p)
    }

    const META: RecordMeta = RecordMeta {
        team: TeamId::GLOBAL,
        kind: 1,
        epoch: 1,
        value: 0,
        seg: 0,
    };

    #[test]
    fn set_then_check_clear_roundtrip() {
        let mut r = UnexpectedRecord::new(4);
        let meta = RecordMeta {
            team: TeamId::GLOBAL,
            kind: 2,
            epoch: 7,
            value: 99,
            seg: 0,
        };
        assert!(r.set(PortId(1), gp(2, 3), meta));
        assert!(r.peek(PortId(1), gp(2, 3)));
        assert_eq!(
            r.check_clear(PortId(1), TeamId::GLOBAL, gp(2, 3), 2),
            Some(meta)
        );
        assert!(!r.peek(PortId(1), gp(2, 3)));
        assert!(r
            .check_clear(PortId(1), TeamId::GLOBAL, gp(2, 3), 2)
            .is_none());
        assert_eq!(r.stats.consumed, 1);
    }

    #[test]
    fn records_are_per_local_port() {
        let mut r = UnexpectedRecord::new(2);
        r.set(PortId(1), gp(1, 1), META);
        assert!(!r.peek(PortId(2), gp(1, 1)));
        assert!(r
            .check_clear(PortId(2), TeamId::GLOBAL, gp(1, 1), 1)
            .is_none());
        assert!(r.peek(PortId(1), gp(1, 1)));
    }

    #[test]
    fn records_are_per_source_port() {
        let mut r = UnexpectedRecord::new(2);
        r.set(PortId(1), gp(1, 1), META);
        let meta2 = RecordMeta {
            team: TeamId::GLOBAL,
            kind: 1,
            epoch: 2,
            value: 5,
            seg: 0,
        };
        r.set(PortId(1), gp(1, 2), meta2);
        assert_eq!(r.outstanding(), 2);
        assert_eq!(
            r.check_clear(PortId(1), TeamId::GLOBAL, gp(1, 2), 1),
            Some(meta2)
        );
        assert!(r.peek(PortId(1), gp(1, 1)));
    }

    #[test]
    fn wrong_kind_is_not_consumed() {
        let mut r = UnexpectedRecord::new(2);
        r.set(PortId(1), gp(1, 1), META); // kind 1
        assert!(r
            .check_clear(PortId(1), TeamId::GLOBAL, gp(1, 1), 3)
            .is_none());
        assert!(r.peek(PortId(1), gp(1, 1)), "record stays in place");
    }

    #[test]
    fn different_kinds_coexist_from_one_endpoint() {
        // The broadcast-races-ahead case: BCAST then PE from one endpoint.
        let mut r = UnexpectedRecord::new(2);
        let bcast = RecordMeta {
            team: TeamId::GLOBAL,
            kind: 3,
            epoch: 1,
            value: 42,
            seg: 0,
        };
        let pe = RecordMeta {
            team: TeamId::GLOBAL,
            kind: 1,
            epoch: 1,
            value: 0,
            seg: 0,
        };
        r.set(PortId(1), gp(1, 1), bcast);
        r.set(PortId(1), gp(1, 1), pe);
        assert_eq!(r.outstanding(), 2);
        assert_eq!(
            r.check_clear(PortId(1), TeamId::GLOBAL, gp(1, 1), 1),
            Some(pe)
        );
        assert!(r.peek(PortId(1), gp(1, 1)), "bcast still recorded");
        assert_eq!(
            r.check_clear(PortId(1), TeamId::GLOBAL, gp(1, 1), 3),
            Some(bcast)
        );
        assert!(!r.peek(PortId(1), gp(1, 1)));
    }

    #[test]
    fn same_kind_queues_fifo() {
        let mut r = UnexpectedRecord::new(2);
        let v1 = RecordMeta {
            team: TeamId::GLOBAL,
            kind: 3,
            epoch: 1,
            value: 1,
            seg: 0,
        };
        let v2 = RecordMeta {
            team: TeamId::GLOBAL,
            kind: 3,
            epoch: 1,
            value: 2,
            seg: 0,
        };
        r.set(PortId(1), gp(1, 1), v1);
        r.set(PortId(1), gp(1, 1), v2);
        assert_eq!(r.stats.queued_extra, 1);
        assert_eq!(
            r.check_clear(PortId(1), TeamId::GLOBAL, gp(1, 1), 3),
            Some(v1)
        );
        assert_eq!(
            r.check_clear(PortId(1), TeamId::GLOBAL, gp(1, 1), 3),
            Some(v2)
        );
    }

    #[test]
    fn epoch_change_supersedes_old_records() {
        let mut r = UnexpectedRecord::new(2);
        r.set(PortId(1), gp(1, 1), META); // epoch 1
        let newer = RecordMeta {
            team: TeamId::GLOBAL,
            kind: 1,
            epoch: 2,
            value: 9,
            seg: 0,
        };
        r.set(PortId(1), gp(1, 1), newer);
        assert_eq!(r.stats.superseded, 1);
        assert_eq!(
            r.check_clear(PortId(1), TeamId::GLOBAL, gp(1, 1), 1),
            Some(newer)
        );
        assert!(r
            .check_clear(PortId(1), TeamId::GLOBAL, gp(1, 1), 1)
            .is_none());
    }

    #[test]
    fn drain_port_returns_everything_for_that_port() {
        let mut r = UnexpectedRecord::new(3);
        r.set(PortId(1), gp(0, 2), META);
        r.set(
            PortId(1),
            gp(2, 5),
            RecordMeta {
                team: TeamId::GLOBAL,
                kind: 1,
                epoch: 3,
                value: 1,
                seg: 0,
            },
        );
        r.set(PortId(4), gp(2, 5), META);
        let drained = r.drain_port(PortId(1));
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].0, gp(0, 2));
        assert_eq!(drained[1].0, gp(2, 5));
        assert_eq!(drained[1].1.epoch, 3);
        assert_eq!(r.outstanding(), 1, "other port untouched");
        assert!(r.peek(PortId(4), gp(2, 5)));
    }

    #[test]
    fn drain_empty_port_is_empty() {
        let mut r = UnexpectedRecord::new(2);
        assert!(r.drain_port(PortId(3)).is_empty());
    }

    #[test]
    fn teams_do_not_cross_consume() {
        // Two teams sharing one (local port, sender endpoint): team 2's
        // recorded flag must not satisfy team 1's check, and vice versa.
        let mut r = UnexpectedRecord::new(2);
        let t1 = RecordMeta {
            team: TeamId(1),
            kind: 1,
            epoch: 1,
            value: 10,
            seg: 0,
        };
        let t2 = RecordMeta {
            team: TeamId(2),
            kind: 1,
            epoch: 1,
            value: 20,
            seg: 0,
        };
        r.set(PortId(1), gp(1, 1), t2);
        assert!(
            r.check_clear(PortId(1), TeamId(1), gp(1, 1), 1).is_none(),
            "team 1 must not consume team 2's record"
        );
        r.set(PortId(1), gp(1, 1), t1);
        assert_eq!(r.check_clear(PortId(1), TeamId(1), gp(1, 1), 1), Some(t1));
        assert!(r.peek(PortId(1), gp(1, 1)), "team 2's record survives");
        assert_eq!(r.check_clear(PortId(1), TeamId(2), gp(1, 1), 1), Some(t2));
        assert!(!r.peek(PortId(1), gp(1, 1)));
    }

    #[test]
    fn outstanding_counts_records() {
        let mut r = UnexpectedRecord::new(4);
        assert_eq!(r.outstanding(), 0);
        for p in 0..4u8 {
            r.set(PortId(1), gp(3, p), META);
        }
        assert_eq!(r.outstanding(), 4);
    }
}
