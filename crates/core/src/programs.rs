//! Ready-made measurement programs for the NIC-based collectives.
//!
//! These are the host-side halves of the paper's benchmark: each program
//! initiates `rounds` consecutive NIC barriers ("we ran 100,000 barriers
//! consecutively and took the average latency", §6), marking every
//! completion with a timestamped note the testbed aggregates.

use crate::group::{BarrierGroup, Team};
use crate::schedule::Descriptor;
use gmsim_des::{SimTime, StateHasher};
use gmsim_gm::{CollectiveToken, GmEvent, HostCtx, HostProgram, SteadyProgram, TeamId};
use std::hash::Hash;

/// Note-tag marker for a completed barrier round (high 32 bits).
pub const NOTE_BARRIER_DONE: u64 = 0xBA51 << 32;

/// Encode a completed round as a note tag.
pub fn note_tag(round: u64) -> u64 {
    debug_assert!(round < u32::MAX as u64);
    NOTE_BARRIER_DONE | round
}

/// Decode a note tag back to its round, if it is a barrier-done note.
/// Team-stamped tags (bits 48+) decode the same way — the team bits sit
/// above the marker and the round sits below it.
pub fn decode_note(tag: u64) -> Option<u64> {
    (tag & NOTE_BARRIER_DONE == NOTE_BARRIER_DONE).then_some(tag & 0xFFFF_FFFF)
}

/// Encode a completed round of `team` as a note tag: team id in bits 48+,
/// marker in bits 32–47, round below. [`TeamId::GLOBAL`] encodes exactly
/// as [`note_tag`].
///
/// # Panics
/// Panics if `team` exceeds [`TeamId::MAX`]: its id would alias another's.
pub fn note_team_tag(team: TeamId, round: u64) -> u64 {
    assert!(
        team <= TeamId::MAX,
        "team id too large for the note encoding"
    );
    ((team.0 as u64) << 48) | note_tag(round)
}

/// Decode a note tag to `(team, round)`, if it is a barrier-done note.
pub fn decode_team_note(tag: u64) -> Option<(TeamId, u64)> {
    decode_note(tag).map(|round| (TeamId((tag >> 48) as u32), round))
}

/// A barrier-done note `rounds` rounds later; any other tag unchanged.
pub fn shift_team_note(tag: u64, rounds: u64) -> u64 {
    match decode_team_note(tag) {
        Some((team, round)) => note_team_tag(team, round + rounds),
        None => tag,
    }
}

/// Hash a posted token by content: the compiled schedule, operand, team.
fn digest_token(token: &CollectiveToken, h: &mut StateHasher) {
    (&*token.schedule, token.value, token.team).hash(h);
}

/// Runs `rounds` consecutive NIC-based collectives of any [`Descriptor`]:
/// the paper's benchmark loop, one per process.
///
/// One loop can drive several teams' jobs on *one* port — the host side
/// of a multi-tenant node ([`Self::push`]). Each job posts its own
/// team-stamped token; barrier completions carry the team id, so each job
/// restarts and notes independently of the others, every note tagged with
/// [`note_team_tag`].
///
/// With [`Self::compute`] it is §2.1's fuzzy barrier: "because the barrier
/// algorithm is performed at the NIC, the processor is free to perform
/// computation while polling for the barrier to complete". Overlapped, a
/// round initiates the collective and then computes while the NIC
/// synchronizes; blocking, it computes first and only then initiates.
/// Comparing the two periods shows the hidden time.
pub struct NicBarrierLoop {
    /// The first job, inline: a one-team loop is one allocation.
    first: Job,
    more: Vec<Job>,
    /// Host computation per round, and whether it overlaps the collective.
    compute: Option<(SimTime, bool)>,
}

/// One team's stream of collectives on the loop's port. The schedule is
/// identical every round, so it is compiled once and the token cloned per
/// round — an `Arc` bump, not a program copy.
struct Job {
    token: CollectiveToken,
    rounds: u64,
    round: u64,
}

impl Job {
    fn new(team: &Team, rank: usize, desc: Descriptor, rounds: u64) -> Self {
        Job {
            token: team.token(desc, rank),
            rounds,
            round: 0,
        }
    }
}

impl NicBarrierLoop {
    /// The loop for `rank` of `group`.
    pub fn new(group: BarrierGroup, rank: usize, desc: Descriptor, rounds: u64) -> Self {
        Self::for_team(&Team::global(group), rank, desc, rounds)
    }

    /// The loop for team rank `rank` of `team`: the posted token is
    /// team-stamped and completions are noted under the team id.
    pub fn for_team(team: &Team, rank: usize, desc: Descriptor, rounds: u64) -> Self {
        NicBarrierLoop {
            first: Job::new(team, rank, desc, rounds),
            more: Vec::new(),
            compute: None,
        }
    }

    /// Also run `rounds` consecutive `desc` collectives for team rank
    /// `rank` of `team`, next to the jobs already on this port. Only
    /// barriers complete with their team's id, so a loop of several jobs
    /// runs barriers only.
    pub fn push(&mut self, team: &Team, rank: usize, desc: Descriptor, rounds: u64) {
        self.more.push(Job::new(team, rank, desc, rounds));
    }

    /// Compute for `compute` every round, overlapped with the collective
    /// (`overlap`, the fuzzy barrier) or before initiating it.
    #[must_use]
    pub fn compute(mut self, compute: SimTime, overlap: bool) -> Self {
        self.compute = Some((compute, overlap));
        self
    }

    fn jobs(&self) -> impl Iterator<Item = &Job> {
        std::iter::once(&self.first).chain(&self.more)
    }

    fn jobs_mut(&mut self) -> impl Iterator<Item = &mut Job> {
        std::iter::once(&mut self.first).chain(&mut self.more)
    }
}

/// Initiate one round of `token`, with the loop's host computation.
fn begin_round(token: &CollectiveToken, compute: Option<(SimTime, bool)>, ctx: &mut HostCtx) {
    match compute {
        None => ctx.start_collective(token.clone()),
        Some((work, true)) => {
            ctx.start_collective(token.clone());
            ctx.compute(work);
        }
        Some((work, false)) => {
            ctx.compute(work);
            ctx.start_collective(token.clone());
        }
    }
}

impl HostProgram for NicBarrierLoop {
    fn on_start(&mut self, ctx: &mut HostCtx) {
        for job in self.jobs().filter(|j| j.rounds > 0) {
            begin_round(&job.token, self.compute, ctx);
        }
    }

    fn on_event(&mut self, ev: &GmEvent, ctx: &mut HostCtx) {
        let team = match ev {
            GmEvent::BarrierComplete { team } => *team,
            GmEvent::BroadcastComplete { .. }
            | GmEvent::ReduceComplete { .. }
            | GmEvent::ScanComplete { .. } => self.first.token.team,
            _ => return,
        };
        let compute = self.compute;
        let job = self
            .jobs_mut()
            .find(|j| j.token.team == team)
            .expect("completion for a team this port never posted");
        ctx.note(note_team_tag(team, job.round));
        job.round += 1;
        if job.round < job.rounds {
            begin_round(&job.token, compute, ctx);
        }
    }

    fn steady(&self) -> Option<&dyn SteadyProgram> {
        Some(self)
    }

    fn steady_mut(&mut self) -> Option<&mut dyn SteadyProgram> {
        Some(self)
    }
}

/// One collective in flight per job, the same token every round: the
/// round counters are all that move. The first job's round is the loop's
/// progress; every job's round hashes relative to the anchor's, so equal
/// digests mean every job moved by the same number of rounds.
impl SteadyProgram for NicBarrierLoop {
    /// The first job's round, and a total that leaves the rounds of the
    /// job closest to its end.
    fn progress(&self) -> (u64, u64) {
        let left = self.jobs().map(|j| j.rounds - j.round).min().unwrap_or(0);
        (self.first.round, self.first.round + left)
    }

    fn digest(&self, anchor: u64, h: &mut StateHasher) {
        (self.more.len(), self.compute).hash(h);
        for job in self.jobs() {
            h.signed(job.round.wrapping_sub(anchor) as i64);
            digest_token(&job.token, h);
        }
    }

    fn skip(&mut self, rounds: u64) {
        for job in self.jobs_mut() {
            job.rounds -= rounds;
        }
    }

    fn shift_note(&self, tag: u64, rounds: u64) -> u64 {
        shift_team_note(tag, rounds)
    }
}

/// Runs one NIC collective (broadcast / reduce / allreduce) and records the
/// completion value in a note: `value` for `ReduceComplete`/
/// `BroadcastComplete`. Used by tests and the collectives example.
pub struct OneShotCollective {
    token: Option<CollectiveToken>,
    /// The completion value, once received.
    pub result: Option<u64>,
}

impl OneShotCollective {
    /// A program that posts `token` at start.
    pub fn new(token: CollectiveToken) -> Self {
        OneShotCollective {
            token: Some(token),
            result: None,
        }
    }
}

/// Note marker for a collective completion value.
pub const NOTE_COLLECTIVE_VALUE: u64 = 0xC011 << 32;

impl HostProgram for OneShotCollective {
    fn on_start(&mut self, ctx: &mut HostCtx) {
        let token = self.token.take().expect("started twice");
        ctx.start_collective(token);
    }

    fn on_event(&mut self, ev: &GmEvent, ctx: &mut HostCtx) {
        let value = match ev {
            GmEvent::BarrierComplete { .. } => 0,
            GmEvent::BroadcastComplete { value }
            | GmEvent::ReduceComplete { value }
            | GmEvent::ScanComplete { value } => *value,
            _ => return,
        };
        self.result = Some(value);
        debug_assert!(value < (1 << 32), "note encoding truncates the value");
        ctx.note(NOTE_COLLECTIVE_VALUE | value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn note_tag_roundtrip() {
        for round in [0u64, 1, 99_999] {
            assert_eq!(decode_note(note_tag(round)), Some(round));
        }
        assert_eq!(decode_note(12345), None);
        assert_eq!(decode_note(NOTE_COLLECTIVE_VALUE | 7), None);
    }

    #[test]
    fn team_note_roundtrip() {
        assert_eq!(note_team_tag(TeamId::GLOBAL, 5), note_tag(5));
        for (team, round) in [(TeamId(1), 0u64), (TeamId(513), 42), (TeamId(65535), 7)] {
            let tag = note_team_tag(team, round);
            assert_eq!(decode_team_note(tag), Some((team, round)));
            assert_eq!(decode_note(tag), Some(round));
        }
        assert_eq!(decode_team_note(12345), None);
    }

    #[test]
    fn shifted_notes_keep_their_team_and_move_their_round() {
        let tag = note_team_tag(TeamId(9), 41);
        assert_eq!(shift_team_note(tag, 100), note_team_tag(TeamId(9), 141));
        assert_eq!(shift_team_note(12345, 100), 12345, "foreign tags stay");
    }

    #[test]
    #[should_panic(expected = "team id too large")]
    fn team_note_rejects_ids_past_16_bits() {
        // Team 65536 would encode as team 0 and alias the world's rounds.
        note_team_tag(TeamId(TeamId::MAX.0 + 1), 0);
    }
}
