//! Host-based barrier baselines (the paper's comparator).
//!
//! "Most current clusters use software barriers based on *host-based*
//! point-to-point communication" (§1). [`HostBarrierLoop`] interprets the
//! *same* compiled [`CollectiveSchedule`] programs the NIC extension runs —
//! one compiler, two interpreters — but every message is an ordinary GM
//! send: host → NIC → wire → NIC → host at every hop. The evaluation's
//! factor of improvement is NIC-based latency versus this.
//!
//! The program runs `rounds` consecutive barriers back to back (the paper
//! averages 100 000) and emits a [`note`](gmsim_gm::HostCtx::note) at every
//! completion step; the testbed turns those notes into mean latency.
//!
//! Message tags encode `(round, packet kind)` so that messages from a peer
//! that has already raced ahead into the next barrier are parked in a
//! host-side unexpected set — the same §3.1 problem, solved at host level.

use crate::group::{BarrierGroup, Team};
use crate::hash::MulBuildHasher;
use crate::programs::{note_team_tag, shift_team_note};
use crate::schedule::Descriptor;
use gmsim_des::trace::TracePayload;
use gmsim_des::{SimTime, StateHasher};
use gmsim_gm::{
    CollectiveSchedule, GlobalPort, GmEvent, HostCtx, HostProgram, ScheduleStep, SteadyProgram,
    TeamId,
};
use std::collections::HashSet;
use std::hash::Hash;

/// Barrier payload size used by the host baselines (bytes).
pub const HOST_BARRIER_MSG_BYTES: usize = 8;

/// The point-to-point tag of a barrier message: team id (bits 48+), round
/// number (bits 24–47), pipeline segment (bits 8–23) and the schedule's
/// packet kind (low byte), so cross-team, cross-round, cross-segment and
/// cross-phase messages never alias. Zero-payload schedules always tag
/// segment 0 and put exactly [`HOST_BARRIER_MSG_BYTES`] on the wire, as
/// before the payload redesign.
fn step_tag(team: TeamId, round: u64, seg: u32, kind: u8) -> u64 {
    ((team.0 as u64) << 48) | (round << 24) | (u64::from(seg) << 8) | u64::from(kind)
}

/// The round field of a [`step_tag`].
const TAG_ROUND: u64 = 0xFF_FFFF << 24;

/// `tag` with its round field made relative to `anchor` (wrapping within
/// the field).
fn rebase_step_tag(tag: u64, anchor: u64) -> u64 {
    let round = (tag & TAG_ROUND) >> 24;
    (tag & !TAG_ROUND) | ((round.wrapping_sub(anchor) << 24) & TAG_ROUND)
}

/// Host-based barrier loop: interprets a compiled collective schedule with
/// ordinary sends, `rounds` consecutive times.
pub struct HostBarrierLoop {
    schedule: CollectiveSchedule,
    team: TeamId,
    rounds: u64,
    round: u64,
    pc: usize,
    outstanding: Option<Vec<(GlobalPort, u64)>>,
    unexpected: HashSet<(GlobalPort, u64), MulBuildHasher>,
    /// For recv-free schedules (a scan's rank 0 only ever sends): the pc of
    /// the last send step, which is issued with a completion notify so the
    /// next round can wait for it instead of flooding the send-token pool.
    pace_on_send_pc: Option<usize>,
    await_sent: bool,
}

impl HostBarrierLoop {
    /// The program for `rank` of `group` running the algorithm `desc`.
    pub fn new(group: &BarrierGroup, rank: usize, desc: Descriptor, rounds: u64) -> Self {
        Self::with_schedule(group.compile(desc, rank), rounds)
    }

    /// The program for team rank `rank` of `team`: tags and notes carry
    /// the team id, so concurrent host-level teams never alias.
    pub fn for_team(team: &Team, rank: usize, desc: Descriptor, rounds: u64) -> Self {
        let mut this = Self::with_schedule(team.compile(desc, rank), rounds);
        this.team = team.id();
        this
    }

    /// Run an arbitrary compiled schedule as a host-based barrier loop.
    pub fn with_schedule(schedule: CollectiveSchedule, rounds: u64) -> Self {
        let has_recv = schedule
            .steps
            .iter()
            .any(|s| matches!(s, ScheduleStep::RecvFrom { .. }));
        let pace_on_send_pc = if has_recv {
            None
        } else {
            schedule
                .steps
                .iter()
                .rposition(|s| matches!(s, ScheduleStep::SendTo { .. }))
        };
        HostBarrierLoop {
            schedule,
            team: TeamId::GLOBAL,
            rounds,
            round: 0,
            pc: 0,
            outstanding: None,
            unexpected: HashSet::default(),
            pace_on_send_pc,
            await_sent: false,
        }
    }

    fn advance(&mut self, ctx: &mut HostCtx) {
        while self.round < self.rounds {
            if self.pc == self.schedule.steps.len() {
                if self.await_sent {
                    return; // next round starts when the notify lands
                }
                self.round += 1;
                self.pc = 0;
                continue;
            }
            match &self.schedule.steps[self.pc] {
                ScheduleStep::SendTo { peers, kind, .. } => {
                    // Data-carrying collectives send one ordinary GM message
                    // per pipeline segment (header + segment bytes); the
                    // host/NIC send path charges every hop per message, which
                    // is exactly what the NIC offload amortizes. Barriers
                    // take this loop with one zero-payload segment.
                    let payload = self.schedule.payload;
                    let segs = payload.segments().get();
                    let notify_here = self.pace_on_send_pc == Some(self.pc);
                    for seg in 0..segs {
                        let tag = step_tag(self.team, self.round, seg, *kind);
                        let len = HOST_BARRIER_MSG_BYTES + payload.seg_len(seg).as_usize();
                        for (i, peer) in peers.iter().enumerate() {
                            ctx.trace(TracePayload::BarrierSend {
                                peer: peer.node.0 as u32,
                                kind: *kind,
                                local: false,
                            });
                            if notify_here && seg + 1 == segs && i + 1 == peers.len() {
                                ctx.send_notify(*peer, len, tag);
                                self.await_sent = true;
                            } else {
                                ctx.send(*peer, len, tag);
                            }
                        }
                    }
                    self.pc += 1;
                }
                ScheduleStep::RecvFrom { peers, kind, .. } => {
                    let payload = self.schedule.payload;
                    let segs = payload.segments().get();
                    let mut outstanding = self.outstanding.take().unwrap_or_else(|| {
                        let mut waits = Vec::with_capacity(peers.len() * segs as usize);
                        for seg in 0..segs {
                            let tag = step_tag(self.team, self.round, seg, *kind);
                            waits.extend(peers.iter().map(|p| (*p, tag)));
                        }
                        waits
                    });
                    outstanding.retain(|(p, tag)| !self.unexpected.remove(&(*p, *tag)));
                    if outstanding.is_empty() {
                        self.pc += 1;
                    } else {
                        self.outstanding = Some(outstanding);
                        return;
                    }
                }
                ScheduleStep::DeliverCompletion(_) => {
                    // The host-level analogue of the completion event. Any
                    // trailing forwarding steps (GB broadcast hand-down)
                    // run after, exactly like the NIC interpreter (§5.2).
                    ctx.note(note_team_tag(self.team, self.round));
                    self.pc += 1;
                }
            }
        }
    }
}

impl HostProgram for HostBarrierLoop {
    fn on_start(&mut self, ctx: &mut HostCtx) {
        self.advance(ctx);
    }

    fn on_event(&mut self, ev: &GmEvent, ctx: &mut HostCtx) {
        match ev {
            GmEvent::Recv { src, tag, .. } => {
                ctx.provide_recv(1);
                ctx.trace(TracePayload::BarrierRecv {
                    peer: src.node.0 as u32,
                    kind: (*tag & 0xff) as u8,
                });
                let fresh = self.unexpected.insert((*src, *tag));
                debug_assert!(fresh, "duplicate barrier message {src:?}/{tag}");
                self.advance(ctx);
            }
            GmEvent::Sent { .. } => {
                // Only recv-free schedules ask for send notifies.
                self.await_sent = false;
                self.advance(ctx);
            }
            _ => {}
        }
    }

    fn steady(&self) -> Option<&dyn SteadyProgram> {
        Some(self)
    }

    fn steady_mut(&mut self) -> Option<&mut dyn SteadyProgram> {
        Some(self)
    }
}

/// Every tag this loop sends or waits for carries its round, so the
/// outstanding receives and the early arrivals hash with rebased rounds;
/// the early-arrival set hashes order-free (a wrapping sum of per-entry
/// digests), as its iteration order is not part of the behaviour.
impl SteadyProgram for HostBarrierLoop {
    fn progress(&self) -> (u64, u64) {
        (self.round, self.rounds)
    }

    fn digest(&self, anchor: u64, h: &mut StateHasher) {
        h.signed(self.round.wrapping_sub(anchor) as i64);
        (&self.schedule, self.team, self.pc).hash(h);
        (self.pace_on_send_pc, self.await_sent).hash(h);
        match &self.outstanding {
            None => h.word(u64::MAX),
            Some(waits) => {
                waits.len().hash(h);
                for &(peer, tag) in waits {
                    (peer, rebase_step_tag(tag, anchor)).hash(h);
                }
            }
        }
        self.unexpected.len().hash(h);
        let mut early = 0u128;
        for &(peer, tag) in &self.unexpected {
            h.item();
            let mut e = StateHasher::new(SimTime::ZERO);
            (peer, rebase_step_tag(tag, anchor)).hash(&mut e);
            early = early.wrapping_add(e.finish128());
        }
        h.word(early as u64);
        h.word((early >> 64) as u64);
    }

    fn rebase_tag(&self, tag: u64, anchor: u64) -> u64 {
        rebase_step_tag(tag, anchor)
    }

    fn skip(&mut self, rounds: u64) {
        self.rounds -= rounds;
    }

    fn shift_note(&self, tag: u64, rounds: u64) -> u64 {
        shift_team_note(tag, rounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs::decode_note;
    use gmsim_des::{RunOutcome, SimTime};
    use gmsim_gm::cluster::ClusterBuilder;

    fn run_host_pe(n: usize, rounds: u64) -> Vec<(u64, SimTime)> {
        let group = BarrierGroup::one_per_node(n, 1);
        let mut b = ClusterBuilder::new(n);
        for rank in 0..n {
            b = b.program(
                group.member(rank),
                Box::new(HostBarrierLoop::new(&group, rank, Descriptor::Pe, rounds)),
                SimTime::ZERO,
            );
        }
        let mut sim = b.build();
        assert_eq!(sim.run(), RunOutcome::Quiescent);
        sim.into_world()
            .notes
            .iter()
            .filter_map(|r| decode_note(r.tag).map(|round| (round, r.at)))
            .collect()
    }

    #[test]
    fn rebased_tags_keep_team_segment_and_kind() {
        let tag = step_tag(TeamId(3), 1000, 7, 2);
        let rebased = rebase_step_tag(tag, 990);
        assert_eq!(rebased, step_tag(TeamId(3), 10, 7, 2));
        // A lagging round wraps within the field instead of borrowing
        // from the team bits.
        let behind = rebase_step_tag(step_tag(TeamId(3), 5, 0, 1), 6);
        assert_eq!(behind >> 48, 3);
        assert_eq!(behind & !TAG_ROUND, step_tag(TeamId(3), 0, 0, 1));
    }

    #[test]
    fn pe_completes_on_every_node_every_round() {
        for n in [2usize, 4, 8] {
            let notes = run_host_pe(n, 3);
            assert_eq!(notes.len(), n * 3, "n={n}");
            for round in 0..3u64 {
                assert_eq!(
                    notes.iter().filter(|(r, _)| *r == round).count(),
                    n,
                    "round {round}"
                );
            }
        }
    }

    #[test]
    fn pe_rounds_complete_in_order() {
        let notes = run_host_pe(4, 4);
        // No node can finish round r+1 before every node finished... not
        // true in general, but a node's own rounds must be ordered.
        let mut by_round: Vec<SimTime> = Vec::new();
        for round in 0..4u64 {
            let latest = notes
                .iter()
                .filter(|(r, _)| *r == round)
                .map(|(_, t)| *t)
                .max()
                .unwrap();
            by_round.push(latest);
        }
        assert!(by_round.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn pe_barrier_synchronizes() {
        // Barrier invariant: no node completes round r before every node
        // has *started* round r (= completed r-1).
        let notes = run_host_pe(8, 3);
        for round in 1..3u64 {
            let earliest_done_r = notes
                .iter()
                .filter(|(r, _)| *r == round)
                .map(|(_, t)| *t)
                .min()
                .unwrap();
            let latest_done_prev = notes
                .iter()
                .filter(|(r, _)| *r + 1 == round)
                .map(|(_, t)| *t)
                .max()
                .unwrap();
            assert!(
                earliest_done_r > latest_done_prev,
                "round {round} overlapped its predecessor"
            );
        }
    }

    #[test]
    fn gb_completes_for_all_dimensions() {
        let n = 6;
        for dim in 1..n {
            let group = BarrierGroup::one_per_node(n, 1);
            let mut b = ClusterBuilder::new(n);
            for rank in 0..n {
                b = b.program(
                    group.member(rank),
                    Box::new(HostBarrierLoop::new(&group, rank, Descriptor::gb(dim), 2)),
                    SimTime::ZERO,
                );
            }
            let mut sim = b.build();
            assert_eq!(sim.run(), RunOutcome::Quiescent, "dim={dim}");
            let done = sim
                .world()
                .notes
                .iter()
                .filter(|r| decode_note(r.tag).is_some())
                .count();
            assert_eq!(done, n * 2, "dim={dim}");
        }
    }

    #[test]
    fn skewed_starts_still_synchronize() {
        let n = 4;
        let group = BarrierGroup::one_per_node(n, 1);
        let mut b = ClusterBuilder::new(n);
        for rank in 0..n {
            b = b.program(
                group.member(rank),
                Box::new(HostBarrierLoop::new(&group, rank, Descriptor::Pe, 2)),
                SimTime::from_us(rank as u64 * 37),
            );
        }
        let mut sim = b.build();
        assert_eq!(sim.run(), RunOutcome::Quiescent);
        // The slowest starter gates everyone: nobody completes round 0
        // before the last start (node 3 at 111us).
        let first_done = sim
            .world()
            .notes
            .iter()
            .filter(|r| decode_note(r.tag) == Some(0))
            .map(|r| r.at)
            .min()
            .unwrap();
        assert!(first_done > SimTime::from_us(111));
    }
}
