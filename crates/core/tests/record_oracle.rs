//! The unexpected record against a reference model.
//!
//! `BitRowRecord` below is the record as it used to be built: a byte per
//! remote node and local port (one bit per remote port, the paper's §3.1
//! bit array) in front of FIFO queues keyed by `(local port, team, sender
//! endpoint, kind)`. The library keeps one arrival-ordered list per local
//! port instead. Seeded random sequences of every operation, over several
//! ports, teams, kinds, epochs and segments, must give identical return
//! values, `drain_port` order and [`RecordStats`] from both.

use gmsim_des::check::{forall, Gen};
use gmsim_gm::{GlobalPort, PortId, TeamId, GM_NUM_PORTS};
use nic_barrier::unexpected::{RecordMeta, RecordStats, UnexpectedRecord};
use std::collections::{HashMap, VecDeque};

/// The bit-array-plus-queues record the library's list record replaced.
struct BitRowRecord {
    nodes: usize,
    bits: [Vec<u8>; GM_NUM_PORTS as usize],
    queues: HashMap<(u8, TeamId, GlobalPort, u8), VecDeque<RecordMeta>>,
    stats: RecordStats,
}

impl BitRowRecord {
    fn new(nodes: usize) -> Self {
        BitRowRecord {
            nodes,
            bits: Default::default(),
            queues: HashMap::new(),
            stats: RecordStats::default(),
        }
    }

    fn mask(from: GlobalPort) -> u8 {
        1u8 << from.port.0
    }

    fn any_queued(&self, local: PortId, from: GlobalPort) -> bool {
        self.queues
            .iter()
            .any(|((p, _, f, _), q)| *p == local.0 && *f == from && !q.is_empty())
    }

    fn set(&mut self, local: PortId, from: GlobalPort, meta: RecordMeta) -> bool {
        let fresh = !self.peek(local, from);
        assert_eq!(fresh, !self.any_queued(local, from));
        let q = self
            .queues
            .entry((local.0, meta.team, from, meta.kind))
            .or_default();
        let before = q.len();
        q.retain(|m| m.epoch == meta.epoch);
        self.stats.superseded += (before - q.len()) as u64;
        if !q.is_empty() {
            self.stats.queued_extra += 1;
        }
        q.push_back(meta);
        let row = &mut self.bits[local.idx()];
        if row.is_empty() {
            row.resize(self.nodes, 0);
        }
        row[from.node.0] |= Self::mask(from);
        self.stats.recorded += 1;
        fresh
    }

    fn peek(&self, local: PortId, from: GlobalPort) -> bool {
        self.bits[local.idx()]
            .get(from.node.0)
            .is_some_and(|b| b & Self::mask(from) != 0)
    }

    fn check_clear(
        &mut self,
        local: PortId,
        team: TeamId,
        from: GlobalPort,
        expect_kind: u8,
    ) -> Option<RecordMeta> {
        if !self.peek(local, from) {
            return None;
        }
        let meta = self
            .queues
            .get_mut(&(local.0, team, from, expect_kind))
            .and_then(|q| q.pop_front())?;
        self.stats.consumed += 1;
        if !self.any_queued(local, from) {
            self.bits[local.idx()][from.node.0] &= !Self::mask(from);
        }
        Some(meta)
    }

    fn drain_port(&mut self, local: PortId) -> Vec<(GlobalPort, RecordMeta)> {
        let mut out = Vec::new();
        let keys: Vec<_> = self
            .queues
            .keys()
            .filter(|(p, _, _, _)| *p == local.0)
            .copied()
            .collect();
        for key in keys {
            if let Some(q) = self.queues.remove(&key) {
                out.extend(q.into_iter().map(|meta| (key.2, meta)));
            }
        }
        out.sort_by_key(|(g, m)| (g.node, g.port, m.team, m.kind));
        self.bits[local.idx()].fill(0);
        out
    }

    fn outstanding(&self) -> usize {
        self.queues.values().map(VecDeque::len).sum()
    }
}

const NODES: usize = 4;
const TEAMS: [TeamId; 3] = [TeamId::GLOBAL, TeamId(1), TeamId(7)];

/// A sender endpoint from a small pool, so operations collide often.
fn endpoint(g: &mut Gen) -> GlobalPort {
    GlobalPort::new(g.usize_in(0, NODES - 1), g.u8_in(0, 2))
}

fn team(g: &mut Gen) -> TeamId {
    TEAMS[g.usize_in(0, TEAMS.len() - 1)]
}

/// Runs one random operation sequence through both records, asserting
/// they agree after every step; returns the model's final counters.
fn run_case(g: &mut Gen) -> RecordStats {
    let mut real = UnexpectedRecord::new(NODES);
    let mut model = BitRowRecord::new(NODES);
    // Each sender endpoint's current epoch: mostly stable, so same-key
    // records queue up, and bumped now and then to supersede them.
    let mut epochs = [[1u32; 3]; NODES];
    let steps = g.usize_in(1, 300);
    for _ in 0..steps {
        let local = PortId(g.u8_in(0, 3));
        match g.usize_in(0, 9) {
            0..=3 => {
                let from = endpoint(g);
                let epoch = &mut epochs[from.node.0][from.port.0 as usize];
                if g.chance(0.1) {
                    *epoch += 1;
                }
                let meta = RecordMeta {
                    team: team(g),
                    kind: g.u8_in(1, 3),
                    epoch: *epoch,
                    value: g.any_u64(),
                    seg: g.u32_in(0, 3),
                };
                assert_eq!(real.set(local, from, meta), model.set(local, from, meta));
            }
            4 => {
                let from = endpoint(g);
                assert_eq!(real.peek(local, from), model.peek(local, from));
            }
            5..=7 => {
                let (from, team, kind) = (endpoint(g), team(g), g.u8_in(1, 3));
                assert_eq!(
                    real.check_clear(local, team, from, kind),
                    model.check_clear(local, team, from, kind)
                );
            }
            8 => assert_eq!(real.drain_port(local), model.drain_port(local)),
            _ => assert_eq!(real.outstanding(), model.outstanding()),
        }
        assert_eq!(real.stats, model.stats);
        for p in 0..GM_NUM_PORTS {
            for node in 0..NODES {
                for sport in 0..3 {
                    let from = GlobalPort::new(node, sport);
                    assert_eq!(real.peek(PortId(p), from), model.peek(PortId(p), from));
                }
            }
        }
    }
    assert_eq!(real.outstanding(), model.outstanding());
    model.stats
}

#[test]
fn list_record_matches_the_bit_row_record() {
    let mut total = RecordStats::default();
    forall(256, 0x5EED_0018, |g| {
        let s = run_case(g);
        total.recorded += s.recorded;
        total.consumed += s.consumed;
        total.queued_extra += s.queued_extra;
        total.superseded += s.superseded;
    });
    // The sequences must reach every counter, or the comparison proves
    // less than it claims.
    assert!(total.consumed > 0, "{total:?}");
    assert!(total.queued_extra > 0, "{total:?}");
    assert!(total.superseded > 0, "{total:?}");
}
