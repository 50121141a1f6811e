//! Barrier groups: ordered endpoint lists and their collective tokens.
//!
//! "A barrier operation synchronizes the processes which are attached to
//! the specified endpoints" (§3, system model). A [`BarrierGroup`] is that
//! endpoint list; each member compiles its own per-rank schedule from an
//! algorithm [`Descriptor`] — only that rank's program (its PE exchange
//! list, or its GB parent/children neighbourhood) crosses the host/NIC
//! boundary, never the full member list (§5.1).

use crate::schedule::{self, Descriptor};
use gmsim_gm::{CollectiveSchedule, CollectiveToken, GlobalPort, TeamId};

/// An ordered set of endpoints participating in collectives together.
///
/// ```
/// use nic_barrier::{BarrierGroup, Descriptor};
/// use gmsim_gm::ScheduleStep;
///
/// // Port 1 on each of 8 nodes.
/// let group = BarrierGroup::one_per_node(8, 1);
/// assert_eq!(group.len(), 8);
///
/// // Rank 3's PE program: 3 exchanges (send+recv pairs) + completion.
/// let prog = group.compile(Descriptor::Pe, 3);
/// assert_eq!(prog.steps.len(), 7);
///
/// // Its GB program in a binary tree talks to parent rank 1 and child
/// // rank 7 only.
/// let gb = group.compile(Descriptor::gb(2), 3);
/// let first_gather = gb.steps.iter().find_map(|s| match s {
///     ScheduleStep::RecvFrom { peers, .. } => Some(peers.clone()),
///     _ => None,
/// });
/// assert_eq!(first_gather, Some(vec![group.member(7)]));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BarrierGroup {
    members: Vec<GlobalPort>,
}

impl BarrierGroup {
    /// Build from an explicit member list.
    ///
    /// # Panics
    /// Panics on duplicates — an endpoint can appear in a group once.
    pub fn new(members: Vec<GlobalPort>) -> Self {
        let mut seen = members.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), members.len(), "duplicate endpoint in group");
        assert!(!members.is_empty(), "empty group");
        BarrierGroup { members }
    }

    /// The common case: one process per node, nodes `0..n`, all on `port`.
    pub fn one_per_node(n: usize, port: u8) -> Self {
        BarrierGroup::new((0..n).map(|i| GlobalPort::new(i, port)).collect())
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True for a singleton group.
    pub fn is_empty(&self) -> bool {
        false // an invariant: groups are never empty
    }

    /// The members in rank order.
    pub fn members(&self) -> &[GlobalPort] {
        &self.members
    }

    /// The endpoint at `rank`.
    pub fn member(&self, rank: usize) -> GlobalPort {
        self.members[rank]
    }

    /// The rank of `ep`, if a member.
    pub fn rank_of(&self, ep: GlobalPort) -> Option<usize> {
        self.members.iter().position(|m| *m == ep)
    }

    /// Compile `desc` into `rank`'s schedule over this group's members.
    pub fn compile(&self, desc: Descriptor, rank: usize) -> CollectiveSchedule {
        schedule::compile(desc, rank, &self.members)
    }

    /// The collective send token for `rank` running `desc`
    /// (`gm_barrier_send_with_callback` and its value-carrying cousins).
    pub fn token(&self, desc: Descriptor, rank: usize) -> CollectiveToken {
        CollectiveToken::new(self.compile(desc, rank))
    }
}

/// A first-class communicator: a [`TeamId`] bound to an ordered member
/// list. Ranks are positions *within the team* — the rank-translation
/// layer between a job's local numbering and global endpoints — and every
/// token built here is stamped with the team id, so the NIC keeps this
/// team's barrier state separate from every overlapping team's.
///
/// [`Team::global`] wraps a group under [`TeamId::GLOBAL`]; its tokens are
/// bit-identical to the group's own, which is what keeps the single-team
/// path exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Team {
    id: TeamId,
    group: BarrierGroup,
}

impl Team {
    /// Bind `group` to communicator `id`.
    pub fn new(id: TeamId, group: BarrierGroup) -> Self {
        Team { id, group }
    }

    /// The implicit whole-cluster communicator over `group`.
    pub fn global(group: BarrierGroup) -> Self {
        Team::new(TeamId::GLOBAL, group)
    }

    /// Build a sub-team from `parent` by selecting parent ranks — the
    /// rank-translation step of a `comm_split`: member `i` of the new team
    /// is `parent_ranks[i]` of the parent group.
    ///
    /// # Panics
    /// Panics if a selected rank is out of range or selected twice
    /// (via [`BarrierGroup::new`]'s duplicate check).
    pub fn subset(id: TeamId, parent: &BarrierGroup, parent_ranks: &[usize]) -> Self {
        let members = parent_ranks.iter().map(|&r| parent.member(r)).collect();
        Team::new(id, BarrierGroup::new(members))
    }

    /// The communicator id.
    pub fn id(&self) -> TeamId {
        self.id
    }

    /// The underlying endpoint list.
    pub fn group(&self) -> &BarrierGroup {
        &self.group
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.group.len()
    }

    /// True for a singleton team (never: teams are non-empty).
    pub fn is_empty(&self) -> bool {
        self.group.is_empty()
    }

    /// The endpoint at team rank `rank`.
    pub fn member(&self, rank: usize) -> GlobalPort {
        self.group.member(rank)
    }

    /// The team rank of `ep`, if a member.
    pub fn rank_of(&self, ep: GlobalPort) -> Option<usize> {
        self.group.rank_of(ep)
    }

    /// Compile `desc` into team rank `rank`'s schedule.
    pub fn compile(&self, desc: Descriptor, rank: usize) -> CollectiveSchedule {
        self.group.compile(desc, rank)
    }

    /// The collective send token for team rank `rank` running `desc`,
    /// stamped with this team's id.
    pub fn token(&self, desc: Descriptor, rank: usize) -> CollectiveToken {
        self.group.token(desc, rank).with_team(self.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmsim_gm::{CompletionKind, ReduceOp, ScheduleStep, TokenCharge};

    #[test]
    fn one_per_node_ranks() {
        let g = BarrierGroup::one_per_node(4, 1);
        assert_eq!(g.len(), 4);
        assert_eq!(g.member(2), GlobalPort::new(2, 1));
        assert_eq!(g.rank_of(GlobalPort::new(3, 1)), Some(3));
        assert_eq!(g.rank_of(GlobalPort::new(3, 2)), None);
    }

    #[test]
    #[should_panic(expected = "duplicate endpoint")]
    fn duplicates_rejected() {
        BarrierGroup::new(vec![GlobalPort::new(0, 1), GlobalPort::new(0, 1)]);
    }

    #[test]
    fn pe_token_has_log2_exchange_pairs() {
        let g = BarrierGroup::one_per_node(8, 1);
        let t = g.token(Descriptor::Pe, 3);
        assert_eq!(t.schedule.token_charge, TokenCharge::Light);
        // 3 exchanges, each a SendTo + RecvFrom, plus the completion.
        assert_eq!(t.schedule.steps.len(), 7);
        // Exchange peers are rank XOR 2^k.
        let sends: Vec<GlobalPort> = t
            .schedule
            .steps
            .iter()
            .filter_map(|s| match s {
                ScheduleStep::SendTo { peers, .. } => Some(peers[0]),
                _ => None,
            })
            .collect();
        assert_eq!(
            sends,
            vec![
                GlobalPort::new(2, 1),
                GlobalPort::new(1, 1),
                GlobalPort::new(7, 1)
            ]
        );
    }

    #[test]
    fn gb_token_neighbourhood_only() {
        let g = BarrierGroup::one_per_node(7, 1);
        let peers_of = |t: &CollectiveToken| -> Vec<GlobalPort> {
            let mut peers = Vec::new();
            for s in &t.schedule.steps {
                match s {
                    ScheduleStep::SendTo { peers: p, .. }
                    | ScheduleStep::RecvFrom { peers: p, .. } => peers.extend(p.iter().copied()),
                    ScheduleStep::DeliverCompletion(_) => {}
                }
            }
            peers.sort_unstable();
            peers.dedup();
            peers
        };
        let root = g.token(Descriptor::gb(2), 0);
        assert_eq!(root.schedule.token_charge, TokenCharge::Tree);
        assert_eq!(
            peers_of(&root),
            vec![GlobalPort::new(1, 1), GlobalPort::new(2, 1)]
        );
        let mid = g.token(Descriptor::gb(2), 1);
        assert_eq!(
            peers_of(&mid),
            vec![
                GlobalPort::new(0, 1),
                GlobalPort::new(3, 1),
                GlobalPort::new(4, 1)
            ]
        );
        let leaf = g.token(Descriptor::gb(2), 5);
        assert_eq!(peers_of(&leaf), vec![GlobalPort::new(2, 1)]);
    }

    #[test]
    fn value_tokens_carry_operands() {
        let g = BarrierGroup::one_per_node(4, 1);
        assert_eq!(g.token(Descriptor::bcast(2), 0).with_value(42).value, 42);
        let r = g
            .token(Descriptor::reduce(ReduceOp::Min, 2), 3)
            .with_value(9);
        assert_eq!(r.value, 9);
        let a = g
            .token(Descriptor::allreduce(ReduceOp::Sum, 3), 1)
            .with_value(5);
        assert_eq!(a.value, 5);
        let s = g.token(Descriptor::scan(ReduceOp::Sum), 2).with_value(7);
        assert_eq!(s.value, 7);
        assert!(s
            .schedule
            .steps
            .iter()
            .any(|st| matches!(st, ScheduleStep::DeliverCompletion(CompletionKind::Scan))));
    }

    #[test]
    fn dissemination_token_runs_on_the_pe_path() {
        let g = BarrierGroup::one_per_node(6, 1);
        let t = g.token(Descriptor::dissemination(), 2);
        assert_eq!(
            t.schedule.token_charge,
            TokenCharge::Light,
            "dissemination runs on the PE firmware path"
        );
        // ceil(log2 6) = 3 rounds of send+recv, plus the completion.
        assert_eq!(t.schedule.steps.len(), 7);
        // Round 0: send to rank+1, recv from rank-1.
        assert_eq!(
            t.schedule.steps[0],
            ScheduleStep::SendTo {
                peers: vec![GlobalPort::new(3, 1)],
                kind: crate::schedule::pkt::PE,
                charge: gmsim_gm::Charge::ExchangeSend,
            }
        );
        match &t.schedule.steps[1] {
            ScheduleStep::RecvFrom { peers, .. } => {
                assert_eq!(peers, &vec![GlobalPort::new(1, 1)]);
            }
            other => panic!("expected RecvFrom, got {other:?}"),
        }
    }

    #[test]
    fn kary_dissemination_token_shrinks_rounds() {
        let g = BarrierGroup::one_per_node(9, 1);
        // radix 3 over 9 ranks: 2 rounds × 2 offsets × (send+recv) + done.
        let t = g.token(Descriptor::dissemination_radix(3), 0);
        assert_eq!(t.schedule.token_charge, TokenCharge::Light);
        assert_eq!(t.schedule.steps.len(), 9);
        // The radix-2 form of the same group needs 4 rounds (16 wire steps
        // minus skipped distances ≥ 9: dists 1,2,4,8 all < 9 → 8 + done).
        let t2 = g.token(Descriptor::dissemination(), 0);
        assert_eq!(t2.schedule.steps.len(), 9);
        // Same total here, but the radix-3 schedule has 2 dependent rounds
        // vs 4: check first-round fan-out instead.
        let first_sends: Vec<GlobalPort> = t
            .schedule
            .steps
            .iter()
            .take(4)
            .filter_map(|s| match s {
                ScheduleStep::SendTo { peers, .. } => Some(peers[0]),
                _ => None,
            })
            .collect();
        assert_eq!(
            first_sends,
            vec![GlobalPort::new(1, 1), GlobalPort::new(2, 1)]
        );
    }

    #[test]
    fn team_tokens_are_stamped_and_rank_translated() {
        let world = BarrierGroup::one_per_node(8, 1);
        // Sub-team of the odd nodes: team rank i ↔ world rank 2i+1.
        let team = Team::subset(TeamId(3), &world, &[1, 3, 5, 7]);
        assert_eq!(team.len(), 4);
        assert_eq!(team.member(2), GlobalPort::new(5, 1));
        assert_eq!(team.rank_of(GlobalPort::new(7, 1)), Some(3));
        assert_eq!(team.rank_of(GlobalPort::new(2, 1)), None);
        let t = team.token(Descriptor::Pe, 0);
        assert_eq!(t.team, TeamId(3));
        // Rank 0's first PE exchange partner is team rank 1 = node 3.
        let first_send = t
            .schedule
            .steps
            .iter()
            .find_map(|s| match s {
                ScheduleStep::SendTo { peers, .. } => Some(peers[0]),
                _ => None,
            })
            .unwrap();
        assert_eq!(first_send, GlobalPort::new(3, 1));
    }

    #[test]
    fn global_team_tokens_match_group_tokens() {
        let group = BarrierGroup::one_per_node(4, 1);
        let team = Team::global(group.clone());
        for rank in 0..4 {
            assert_eq!(
                team.token(Descriptor::Pe, rank),
                group.token(Descriptor::Pe, rank)
            );
        }
    }

    #[test]
    fn multi_port_groups_supported() {
        // Two processes on node 0, one on node 1 — §3.4's concurrency case.
        let g = BarrierGroup::new(vec![
            GlobalPort::new(0, 1),
            GlobalPort::new(0, 2),
            GlobalPort::new(1, 1),
        ]);
        assert_eq!(g.len(), 3);
        let prog = g.compile(Descriptor::Pe, 0);
        assert!(!prog.steps.is_empty());
    }
}
