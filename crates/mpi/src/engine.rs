//! The script interpreter: [`MpiProcess`] executes an [`MpiOp`] script as
//! an event-driven [`HostProgram`].
//!
//! Blocking-style semantics on a callback model: `step` runs ops until one
//! must wait (an unmatched `Recv`, an in-flight barrier/collective), then
//! parks; GM events unpark it. Host time accumulates through
//! `HostCtx::compute`/`send`, so a script's timeline is exactly what the
//! equivalent hand-written state machine would produce, plus the MPI
//! layer's per-call overhead.

use crate::config::{BarrierBinding, MpiConfig};
use crate::ops::{Buf, MpiOp};
use gmsim_des::SimTime;
use gmsim_gm::{
    CollectiveSchedule, CollectiveToken, GlobalPort, GmEvent, HostCtx, HostProgram, Payload,
    ScheduleStep, TeamId,
};
use nic_barrier::{BarrierGroup, Descriptor, ReduceOp, Team};
use std::collections::HashMap;
use std::sync::Arc;

/// Note tag emitted when a script finishes (timestamped at the end of the
/// host's queued work, i.e. program completion).
pub const NOTE_MPI_DONE: u64 = 0x3D0E << 32;

/// GM tag namespace: user messages vs the layer's internal host-barrier
/// messages.
const USER_TAG: u64 = 1 << 40;
const HBAR_TAG: u64 = 1 << 41;

fn user_tag(tag: u32) -> u64 {
    USER_TAG | tag as u64
}

/// Internal host-barrier tag: team id in bits 48+, round number and the
/// schedule step's packet kind below, so cross-communicator, cross-round
/// and cross-phase messages never alias. World barriers ([`TeamId::GLOBAL`])
/// produce exactly the pre-team tags. Panics on a team id above
/// [`TeamId::MAX`], which would alias another team's tags.
fn hbar_tag(team: TeamId, round: u64, kind: u8) -> u64 {
    assert!(
        team <= TeamId::MAX,
        "team id too large for the tag encoding"
    );
    HBAR_TAG | (u64::from(team.0) << 48) | (round << 8) | u64::from(kind)
}

/// The inbox key of a host-barrier tag: everything but the namespace bit —
/// team, round and kind all participate in matching.
fn hbar_key(tag: u64) -> u64 {
    tag & !HBAR_TAG
}

/// Host barrier payload size (matches the host baseline).
const HBAR_BYTES: usize = 8;
/// User message modelled payload is whatever the script says; receives
/// match on (src, tag) only, as in MPI.

#[derive(Debug)]
struct Frame {
    ops: Arc<Vec<MpiOp>>,
    idx: usize,
    iters_left: u64,
}

#[derive(Debug, PartialEq, Eq)]
enum Blocked {
    No,
    Recv { src: usize, tag: u32 },
    NicCollective,
    HostBarrier,
}

#[derive(Debug)]
struct HostBarrier {
    schedule: CollectiveSchedule,
    pc: usize,
    outstanding: Option<Vec<GlobalPort>>,
    round: u64,
    /// The communicator the barrier runs on; tags carry it so overlapping
    /// communicators' messages never satisfy each other.
    team: TeamId,
}

/// The active sub-communicator: a team handle plus this process's rank
/// within it. `None` means the world communicator.
#[derive(Debug)]
struct Comm {
    team: Team,
    rank: usize,
}

/// Layer statistics for one process.
#[derive(Debug, Clone, Copy, Default)]
pub struct MpiStats {
    /// Barriers completed.
    pub barriers: u64,
    /// Sends issued.
    pub sends: u64,
    /// Receives completed.
    pub recvs: u64,
    /// Value collectives completed.
    pub collectives: u64,
    /// Sub-communicators entered via `CommSplit`.
    pub comms_created: u64,
    /// The last collective's result value.
    pub last_value: u64,
    /// When the script finished (host-work end), if it has.
    pub finished_at: Option<SimTime>,
}

/// A scripted MPI process.
pub struct MpiProcess {
    group: BarrierGroup,
    rank: usize,
    config: MpiConfig,
    frames: Vec<Frame>,
    blocked: Blocked,
    /// Unexpected user messages: (src world rank, tag) → arrival count.
    inbox: HashMap<(usize, u32), u32>,
    /// Unexpected host-barrier messages: (src world rank, tag key) → seen.
    hbar_inbox: HashMap<(usize, u64), u32>,
    hbar: Option<HostBarrier>,
    /// Host-barrier round counters, one per communicator so rounds stay
    /// consecutive within each team.
    barrier_rounds: HashMap<TeamId, u64>,
    /// The active sub-communicator (`None` = world).
    comm: Option<Comm>,
    /// Counters.
    pub stats: MpiStats,
}

impl MpiProcess {
    /// A process executing `program` as `rank` of `group`.
    ///
    /// # Panics
    /// If `rank` is out of range for the group, or if the config's barrier
    /// binding is invalid ([`BarrierBinding::validate`]) — the check runs
    /// here, at the construction boundary, so a misconfigured binding can
    /// never reach schedule compilation mid-run.
    pub fn new(group: BarrierGroup, rank: usize, config: MpiConfig, program: Vec<MpiOp>) -> Self {
        assert!(rank < group.len());
        if let Err(e) = config.barrier.validate() {
            panic!("invalid MPI barrier binding: {e}");
        }
        MpiProcess {
            group,
            rank,
            config,
            frames: vec![Frame {
                ops: Arc::new(program),
                idx: 0,
                iters_left: 1,
            }],
            blocked: Blocked::No,
            inbox: HashMap::new(),
            hbar_inbox: HashMap::new(),
            hbar: None,
            barrier_rounds: HashMap::new(),
            comm: None,
            stats: MpiStats::default(),
        }
    }

    /// The communicator ops currently run on: the active split, or world.
    fn active_group(&self) -> &BarrierGroup {
        self.comm.as_ref().map_or(&self.group, |c| c.team.group())
    }

    /// This process's rank within the active communicator.
    fn active_rank(&self) -> usize {
        self.comm.as_ref().map_or(self.rank, |c| c.rank)
    }

    /// The team id the active communicator's collectives run under.
    fn active_team(&self) -> TeamId {
        self.comm.as_ref().map_or(TeamId::GLOBAL, |c| c.team.id())
    }

    /// Stamp a token with the active team (identity on the world, so the
    /// single-communicator path is byte-for-byte the pre-team one).
    fn stamp(&self, token: CollectiveToken) -> CollectiveToken {
        match &self.comm {
            Some(c) => token.with_team(c.team.id()),
            None => token,
        }
    }

    /// Map a rank in the active communicator to its world rank (the inbox
    /// key space — events arrive labelled by endpoint, i.e. world member).
    fn world_rank(&self, rank: usize) -> usize {
        match &self.comm {
            Some(c) => self
                .group
                .rank_of(c.team.member(rank))
                .expect("communicator member outside the world group"),
            None => rank,
        }
    }

    fn endpoint(&self, rank: usize) -> gmsim_gm::GlobalPort {
        self.active_group().member(rank)
    }

    fn take_inbox(&mut self, src: usize, tag: u32) -> bool {
        match self.inbox.get_mut(&(src, tag)) {
            Some(c) if *c > 0 => {
                *c -= 1;
                if *c == 0 {
                    self.inbox.remove(&(src, tag));
                }
                true
            }
            _ => false,
        }
    }

    /// Consume an unexpected host-barrier message from `src` with the
    /// given low-32 tag key, if one has arrived.
    fn take_hbar(&mut self, src: usize, key: u64) -> bool {
        match self.hbar_inbox.get_mut(&(src, key)) {
            Some(c) if *c > 0 => {
                *c -= 1;
                if *c == 0 {
                    self.hbar_inbox.remove(&(src, key));
                }
                true
            }
            _ => false,
        }
    }

    /// Drive the host-based barrier sub-machine; true when it completed.
    ///
    /// The internal point-to-point messages go through the MPI layer's own
    /// machinery (as in MPICH over GM), so each one pays the layer's
    /// per-call and per-receive overheads — this is precisely the §2.2
    /// mechanism by which "the addition of another programming layer such
    /// as MPI" widens the NIC barrier's advantage: the host-based barrier
    /// pays the layer `log2 N` times per barrier, the NIC-based one once.
    fn drive_hbar(&mut self, ctx: &mut HostCtx) -> bool {
        loop {
            let Some(hb) = &self.hbar else { return true };
            if hb.pc == hb.schedule.steps.len() {
                self.hbar = None;
                return true;
            }
            let round = hb.round;
            let team = hb.team;
            match hb.schedule.steps[hb.pc].clone() {
                ScheduleStep::SendTo { peers, kind, .. } => {
                    for peer in peers {
                        ctx.compute(self.config.call_overhead);
                        ctx.send(peer, HBAR_BYTES, hbar_tag(team, round, kind));
                    }
                    self.hbar.as_mut().unwrap().pc += 1;
                }
                ScheduleStep::RecvFrom { peers, kind, .. } => {
                    let key = hbar_key(hbar_tag(team, round, kind));
                    let pending = self
                        .hbar
                        .as_mut()
                        .unwrap()
                        .outstanding
                        .take()
                        .unwrap_or(peers);
                    let mut still_waiting = Vec::new();
                    for peer in pending {
                        let peer_rank = self
                            .group
                            .rank_of(peer)
                            .expect("barrier peer not in the world group");
                        if self.take_hbar(peer_rank, key) {
                            ctx.compute(self.config.recv_overhead);
                        } else {
                            still_waiting.push(peer);
                        }
                    }
                    let hb = self.hbar.as_mut().unwrap();
                    if still_waiting.is_empty() {
                        hb.pc += 1;
                    } else {
                        hb.outstanding = Some(still_waiting);
                        return false;
                    }
                }
                ScheduleStep::DeliverCompletion(_) => {
                    self.hbar.as_mut().unwrap().pc += 1;
                }
            }
        }
    }

    /// A `Bcast` tree rooted at an arbitrary rank: rotate ranks so the
    /// root is virtual rank 0, compute the dimension-2 heap tree there,
    /// and map back. The buffer's byte size picks eager vs pipelined
    /// segmentation.
    fn rotated_broadcast_token(&self, root: usize, buf: Buf) -> CollectiveToken {
        let group = self.active_group();
        let rank = self.active_rank();
        let n = group.len();
        let virt = (rank + n - root) % n;
        let rotated: Vec<GlobalPort> = (0..n).map(|v| group.member((v + root) % n)).collect();
        let desc = Descriptor::bcast(2).with_payload(Payload::for_size(buf.len_bytes()));
        let schedule = nic_barrier::compile(desc, virt, &rotated);
        let token =
            CollectiveToken::new(schedule).with_value(if rank == root { buf.fill } else { 0 });
        self.stamp(token)
    }

    /// Execute ops until the script blocks or finishes.
    fn step(&mut self, ctx: &mut HostCtx) {
        debug_assert_eq!(self.blocked, Blocked::No);
        loop {
            let Some(frame) = self.frames.last_mut() else {
                if self.stats.finished_at.is_none() {
                    self.stats.finished_at = Some(ctx.now);
                    ctx.note_after_work(NOTE_MPI_DONE);
                }
                return;
            };
            if frame.idx == frame.ops.len() {
                frame.iters_left -= 1;
                if frame.iters_left == 0 {
                    self.frames.pop();
                } else {
                    frame.idx = 0;
                }
                continue;
            }
            let op = frame.ops[frame.idx].clone();
            frame.idx += 1;
            match op {
                MpiOp::Compute(d) => {
                    ctx.compute(d);
                }
                MpiOp::Repeat { n, body } => {
                    if n > 0 && !body.is_empty() {
                        self.frames.push(Frame {
                            ops: body,
                            idx: 0,
                            iters_left: n,
                        });
                    }
                }
                MpiOp::Send { dst, len, tag } => {
                    ctx.compute(self.config.call_overhead);
                    self.stats.sends += 1;
                    ctx.send(self.endpoint(dst), len, user_tag(tag));
                }
                MpiOp::Recv { src, tag } => {
                    ctx.compute(self.config.call_overhead);
                    // Receives match on world ranks: events arrive labelled
                    // by endpoint, so a communicator-relative source is
                    // translated once here.
                    let src = self.world_rank(src);
                    if self.take_inbox(src, tag) {
                        ctx.compute(self.config.recv_overhead);
                        self.stats.recvs += 1;
                    } else {
                        self.blocked = Blocked::Recv { src, tag };
                        return;
                    }
                }
                MpiOp::Barrier => {
                    ctx.compute(self.config.call_overhead);
                    match self.config.barrier {
                        BarrierBinding::NicPe => {
                            let token =
                                self.stamp(self.active_group().pe_token(self.active_rank()));
                            ctx.start_collective(token);
                            self.blocked = Blocked::NicCollective;
                            return;
                        }
                        BarrierBinding::NicGb { dim } => {
                            let token =
                                self.stamp(self.active_group().gb_token(self.active_rank(), dim));
                            ctx.start_collective(token);
                            self.blocked = Blocked::NicCollective;
                            return;
                        }
                        BarrierBinding::NicDissemination { radix } => {
                            let token = self.stamp(
                                self.active_group()
                                    .dissemination_radix_token(self.active_rank(), radix),
                            );
                            ctx.start_collective(token);
                            self.blocked = Blocked::NicCollective;
                            return;
                        }
                        BarrierBinding::HostPe => {
                            let team = self.active_team();
                            let counter = self.barrier_rounds.entry(team).or_default();
                            let round = *counter;
                            *counter += 1;
                            self.hbar = Some(HostBarrier {
                                schedule: self
                                    .active_group()
                                    .compile(Descriptor::Pe, self.active_rank()),
                                pc: 0,
                                outstanding: None,
                                round,
                                team,
                            });
                            if self.drive_hbar(ctx) {
                                self.stats.barriers += 1;
                            } else {
                                self.blocked = Blocked::HostBarrier;
                                return;
                            }
                        }
                    }
                }
                MpiOp::Bcast { root, buf } => {
                    ctx.compute(self.config.call_overhead);
                    ctx.start_collective(self.rotated_broadcast_token(root, buf));
                    self.blocked = Blocked::NicCollective;
                    return;
                }
                MpiOp::AllReduce { op, buf } => {
                    ctx.compute(self.config.call_overhead);
                    ctx.start_collective(self.allreduce_token(op, buf));
                    self.blocked = Blocked::NicCollective;
                    return;
                }
                MpiOp::Scan { op, buf } => {
                    ctx.compute(self.config.call_overhead);
                    let desc =
                        Descriptor::scan(op).with_payload(Payload::for_size(buf.len_bytes()));
                    let schedule = self.active_group().compile(desc, self.active_rank());
                    let token = self.stamp(CollectiveToken::new(schedule).with_value(buf.fill));
                    ctx.start_collective(token);
                    self.blocked = Blocked::NicCollective;
                    return;
                }
                MpiOp::CommSplit { base, colors } => {
                    // Comm_split is collective, but with every rank handed
                    // the same color array the membership exchange is a
                    // no-op; only the call overhead is charged.
                    ctx.compute(self.config.call_overhead);
                    assert!(
                        base >= 1,
                        "team base 0 collides with the world communicator"
                    );
                    assert_eq!(
                        colors.len(),
                        self.group.len(),
                        "comm_split needs one color per world rank"
                    );
                    let color = colors[self.rank];
                    let members: Vec<usize> = (0..self.group.len())
                        .filter(|&r| colors[r] == color)
                        .collect();
                    let rank = members
                        .iter()
                        .position(|&r| r == self.rank)
                        .expect("own rank always shares its own color");
                    let id = base
                        .checked_add(color)
                        .filter(|&id| id <= TeamId::MAX.0)
                        .unwrap_or_else(|| {
                            panic!(
                                "comm_split team id {base} + {color} exceeds the 16-bit team field"
                            )
                        });
                    let team = Team::subset(TeamId(id), &self.group, &members);
                    self.stats.comms_created += 1;
                    self.comm = Some(Comm { team, rank });
                }
                MpiOp::CommWorld => {
                    ctx.compute(self.config.call_overhead);
                    self.comm = None;
                }
            }
        }
    }

    fn allreduce_token(&self, op: ReduceOp, buf: Buf) -> CollectiveToken {
        let desc = Descriptor::allreduce(op, 2).with_payload(Payload::for_size(buf.len_bytes()));
        let schedule = self.active_group().compile(desc, self.active_rank());
        self.stamp(CollectiveToken::new(schedule).with_value(buf.fill))
    }
}

impl HostProgram for MpiProcess {
    fn on_start(&mut self, ctx: &mut HostCtx) {
        self.step(ctx);
    }

    fn on_event(&mut self, ev: &GmEvent, ctx: &mut HostCtx) {
        match ev {
            GmEvent::Recv { src, tag, .. } => {
                ctx.provide_recv(1);
                let src_rank = self
                    .group
                    .rank_of(*src)
                    .expect("message from outside the group");
                if tag & HBAR_TAG != 0 {
                    let key = hbar_key(*tag);
                    *self.hbar_inbox.entry((src_rank, key)).or_default() += 1;
                    if self.blocked == Blocked::HostBarrier && self.drive_hbar(ctx) {
                        self.stats.barriers += 1;
                        self.blocked = Blocked::No;
                        self.step(ctx);
                    }
                } else {
                    let utag = (tag & 0xFFFF_FFFF) as u32;
                    *self.inbox.entry((src_rank, utag)).or_default() += 1;
                    if self.blocked
                        == (Blocked::Recv {
                            src: src_rank,
                            tag: utag,
                        })
                        && self.take_inbox(src_rank, utag)
                    {
                        ctx.compute(self.config.recv_overhead);
                        self.stats.recvs += 1;
                        self.blocked = Blocked::No;
                        self.step(ctx);
                    }
                }
            }
            GmEvent::BarrierComplete { .. } => {
                if self.blocked == Blocked::NicCollective {
                    self.stats.barriers += 1;
                    self.blocked = Blocked::No;
                    self.step(ctx);
                }
            }
            GmEvent::BroadcastComplete { value }
            | GmEvent::ReduceComplete { value }
            | GmEvent::ScanComplete { value } => {
                if self.blocked == Blocked::NicCollective {
                    self.stats.collectives += 1;
                    self.stats.last_value = *value;
                    self.blocked = Blocked::No;
                    self.step(ctx);
                }
            }
            GmEvent::Sent { .. } => {}
            // A dead peer means this process can never unblock; the testbed
            // surfaces it as a typed experiment error, not an MPI event.
            GmEvent::PeerUnreachable { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::script;

    #[test]
    fn frames_unwind_nested_repeats() {
        let program = script()
            .repeat(2, |b| b.compute_us(1).repeat(3, |i| i.compute_us(1)))
            .build();
        let group = BarrierGroup::one_per_node(1, 1);
        let mut p = MpiProcess::new(group, 0, MpiConfig::nic_based(), program);
        let mut ctx = HostCtx::new(SimTime::ZERO, gmsim_gm::NodeId(0), gmsim_gm::PortId(1));
        p.step(&mut ctx);
        assert!(p.stats.finished_at.is_some());
        // 2 * (1 + 3) = 8 compute actions + the completion note
        assert_eq!(ctx.into_actions().len(), 9);
    }

    #[test]
    fn recv_blocks_until_message() {
        let program = script().recv(1, 9).compute_us(5).build();
        let group = BarrierGroup::one_per_node(2, 1);
        let mut p = MpiProcess::new(group.clone(), 0, MpiConfig::nic_based(), program);
        let mut ctx = HostCtx::new(SimTime::ZERO, gmsim_gm::NodeId(0), gmsim_gm::PortId(1));
        p.step(&mut ctx);
        assert_eq!(p.blocked, Blocked::Recv { src: 1, tag: 9 });
        assert!(p.stats.finished_at.is_none());
        // the matching message unblocks and finishes the script
        let mut ctx = HostCtx::new(
            SimTime::from_us(50),
            gmsim_gm::NodeId(0),
            gmsim_gm::PortId(1),
        );
        p.on_event(
            &GmEvent::Recv {
                src: group.member(1),
                len: 8,
                tag: user_tag(9),
            },
            &mut ctx,
        );
        assert_eq!(p.blocked, Blocked::No);
        assert!(p.stats.finished_at.is_some());
        assert_eq!(p.stats.recvs, 1);
    }

    #[test]
    fn wrong_tag_does_not_unblock() {
        let program = script().recv(1, 9).build();
        let group = BarrierGroup::one_per_node(2, 1);
        let mut p = MpiProcess::new(group.clone(), 0, MpiConfig::nic_based(), program);
        let mut ctx = HostCtx::new(SimTime::ZERO, gmsim_gm::NodeId(0), gmsim_gm::PortId(1));
        p.step(&mut ctx);
        let mut ctx = HostCtx::new(
            SimTime::from_us(1),
            gmsim_gm::NodeId(0),
            gmsim_gm::PortId(1),
        );
        p.on_event(
            &GmEvent::Recv {
                src: group.member(1),
                len: 8,
                tag: user_tag(8), // different tag
            },
            &mut ctx,
        );
        assert_eq!(p.blocked, Blocked::Recv { src: 1, tag: 9 });
        // it is queued for a later recv, not lost
        assert_eq!(p.inbox.get(&(1, 8)), Some(&1));
    }

    #[test]
    fn tag_namespaces_do_not_collide() {
        assert_ne!(user_tag(0) & HBAR_TAG, HBAR_TAG);
        assert_ne!(hbar_tag(TeamId::GLOBAL, 0, 1) & USER_TAG, USER_TAG);
        assert_eq!(user_tag(7) & 0xFFFF_FFFF, 7);
        // round 3, packet kind 1 → (3 << 8) | 1
        assert_eq!(hbar_tag(TeamId::GLOBAL, 3, 1) & 0xFFFF_FFFF, 0x301);
        // the world key is exactly the pre-team key; team bits separate
        // overlapping communicators' otherwise-identical rounds
        assert_eq!(hbar_key(hbar_tag(TeamId::GLOBAL, 3, 1)), 0x301);
        assert_ne!(
            hbar_key(hbar_tag(TeamId(1), 3, 1)),
            hbar_key(hbar_tag(TeamId(2), 3, 1))
        );
    }

    #[test]
    #[should_panic(expected = "team id too large")]
    fn hbar_tag_rejects_ids_past_16_bits() {
        hbar_tag(TeamId(TeamId::MAX.0 + 1), 0, 1);
    }

    /// Run a `comm_split(base, colors)` on rank 1 of a 2-rank world.
    fn split_on_rank_1(base: u32, colors: Vec<u32>) {
        let program = script().comm_split(base, colors).barrier().build();
        let group = BarrierGroup::one_per_node(2, 1);
        let mut p = MpiProcess::new(group, 1, MpiConfig::nic_based(), program);
        let mut ctx = HostCtx::new(SimTime::ZERO, gmsim_gm::NodeId(1), gmsim_gm::PortId(1));
        p.step(&mut ctx);
    }

    #[test]
    fn comm_split_accepts_the_largest_team_id() {
        split_on_rank_1(TeamId::MAX.0 - 1, vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "exceeds the 16-bit team field")]
    fn comm_split_rejects_team_ids_past_16_bits() {
        split_on_rank_1(TeamId::MAX.0, vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "exceeds the 16-bit team field")]
    fn comm_split_rejects_overflowing_team_ids() {
        split_on_rank_1(u32::MAX, vec![0, 1]);
    }

    #[test]
    fn dissemination_binding_posts_kary_token() {
        // 9 ranks at radix 3: rank 0's first round sends to ranks 1 and 2.
        let program = script().barrier().build();
        let group = BarrierGroup::one_per_node(9, 1);
        let config = MpiConfig::try_nic_dissemination(3).unwrap();
        let mut p = MpiProcess::new(group.clone(), 0, config, program);
        let mut ctx = HostCtx::new(SimTime::ZERO, gmsim_gm::NodeId(0), gmsim_gm::PortId(1));
        p.step(&mut ctx);
        assert_eq!(p.blocked, Blocked::NicCollective);
        let token = ctx
            .into_actions()
            .into_iter()
            .find_map(|a| match a {
                gmsim_gm::HostAction::Collective(t) => Some(t),
                _ => None,
            })
            .expect("barrier posts a collective token");
        let first_sends: Vec<GlobalPort> = token
            .schedule
            .steps
            .iter()
            .filter_map(|s| match s {
                ScheduleStep::SendTo { peers, .. } => Some(peers.clone()),
                _ => None,
            })
            .flatten()
            .take(2)
            .collect();
        assert_eq!(first_sends, vec![group.member(1), group.member(2)]);
    }

    #[test]
    #[should_panic(expected = "invalid MPI barrier binding")]
    fn invalid_binding_panics_at_process_construction() {
        let config = MpiConfig {
            barrier: BarrierBinding::NicDissemination { radix: 1 },
            ..MpiConfig::nic_based()
        };
        let _ = MpiProcess::new(
            BarrierGroup::one_per_node(2, 1),
            0,
            config,
            script().barrier().build(),
        );
    }

    #[test]
    fn comm_split_routes_collectives_through_team_handles() {
        // world of 4, split into odds and evens; world rank 3 is rank 1 of
        // the odd communicator (team 1 + color 1 = TeamId(2)).
        let program = script().comm_split(1, vec![0, 1, 0, 1]).barrier().build();
        let group = BarrierGroup::one_per_node(4, 1);
        let mut p = MpiProcess::new(group.clone(), 3, MpiConfig::nic_based(), program);
        let mut ctx = HostCtx::new(SimTime::ZERO, gmsim_gm::NodeId(3), gmsim_gm::PortId(1));
        p.step(&mut ctx);
        assert_eq!(p.stats.comms_created, 1);
        assert_eq!(p.blocked, Blocked::NicCollective);
        let token = ctx
            .into_actions()
            .into_iter()
            .find_map(|a| match a {
                gmsim_gm::HostAction::Collective(t) => Some(t),
                _ => None,
            })
            .expect("barrier posts a collective token");
        assert_eq!(token.team, TeamId(2));
        // the schedule is compiled for rank 1 of the 2-member odd group:
        // a pairwise exchange with world rank 1, not with any even rank.
        let peers: Vec<GlobalPort> = token
            .schedule
            .steps
            .iter()
            .filter_map(|s| match s {
                ScheduleStep::SendTo { peers, .. } => Some(peers.clone()),
                _ => None,
            })
            .flatten()
            .collect();
        assert_eq!(peers, vec![group.member(1)]);
    }

    #[test]
    fn comm_split_translates_p2p_ranks_and_comm_world_restores() {
        // odd communicator rank 0 = world rank 1; a recv from comm rank 1
        // must match a message from world rank 3's endpoint.
        let program = script()
            .comm_split(1, vec![0, 1, 0, 1])
            .recv(1, 7)
            .comm_world()
            .recv(0, 8)
            .build();
        let group = BarrierGroup::one_per_node(4, 1);
        let mut p = MpiProcess::new(group.clone(), 1, MpiConfig::nic_based(), program);
        let mut ctx = HostCtx::new(SimTime::ZERO, gmsim_gm::NodeId(1), gmsim_gm::PortId(1));
        p.step(&mut ctx);
        assert_eq!(p.blocked, Blocked::Recv { src: 3, tag: 7 });
        let mut ctx = HostCtx::new(
            SimTime::from_us(5),
            gmsim_gm::NodeId(1),
            gmsim_gm::PortId(1),
        );
        p.on_event(
            &GmEvent::Recv {
                src: group.member(3),
                len: 8,
                tag: user_tag(7),
            },
            &mut ctx,
        );
        // past comm_world, ranks are world ranks again
        assert_eq!(p.blocked, Blocked::Recv { src: 0, tag: 8 });
        let mut ctx = HostCtx::new(
            SimTime::from_us(9),
            gmsim_gm::NodeId(1),
            gmsim_gm::PortId(1),
        );
        p.on_event(
            &GmEvent::Recv {
                src: group.member(0),
                len: 8,
                tag: user_tag(8),
            },
            &mut ctx,
        );
        assert!(p.stats.finished_at.is_some());
        assert_eq!(p.stats.recvs, 2);
    }

    #[test]
    fn host_barriers_on_overlapping_comms_do_not_cross_satisfy() {
        // world rank 0 splits into the even communicator and runs a
        // host-level barrier with world rank 2. A team-0 (world) barrier
        // message for the same round/kind must NOT unblock it; the
        // team-stamped one must.
        let program = script().comm_split(1, vec![0, 1, 0, 1]).barrier().build();
        let group = BarrierGroup::one_per_node(4, 1);
        let mut p = MpiProcess::new(group.clone(), 0, MpiConfig::host_based(), program);
        let mut ctx = HostCtx::new(SimTime::ZERO, gmsim_gm::NodeId(0), gmsim_gm::PortId(1));
        p.step(&mut ctx);
        assert_eq!(p.blocked, Blocked::HostBarrier);
        let hb = p.hbar.as_ref().expect("host barrier in flight");
        assert_eq!(hb.team, TeamId(1));
        let (round, kind) = (hb.round, 1);
        // a stale world-communicator message: same round and kind, team 0
        let mut ctx = HostCtx::new(
            SimTime::from_us(3),
            gmsim_gm::NodeId(0),
            gmsim_gm::PortId(1),
        );
        p.on_event(
            &GmEvent::Recv {
                src: group.member(2),
                len: HBAR_BYTES,
                tag: hbar_tag(TeamId::GLOBAL, round, kind),
            },
            &mut ctx,
        );
        assert_eq!(p.blocked, Blocked::HostBarrier, "world tag must not match");
        // the real team-stamped message completes the barrier
        let mut ctx = HostCtx::new(
            SimTime::from_us(4),
            gmsim_gm::NodeId(0),
            gmsim_gm::PortId(1),
        );
        p.on_event(
            &GmEvent::Recv {
                src: group.member(2),
                len: HBAR_BYTES,
                tag: hbar_tag(TeamId(1), round, kind),
            },
            &mut ctx,
        );
        assert_eq!(p.blocked, Blocked::No);
        assert_eq!(p.stats.barriers, 1);
        assert!(p.stats.finished_at.is_some());
    }
}
