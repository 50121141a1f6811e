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

/// Runs `rounds` consecutive NIC-based collectives of any [`Descriptor`].
pub struct NicBarrierLoop {
    /// The schedule is identical every round, so it is compiled once here
    /// and the token cloned per round — an `Arc` bump, not a program copy.
    token: CollectiveToken,
    rounds: u64,
    round: u64,
}

impl NicBarrierLoop {
    /// The loop for `rank` of `group`.
    pub fn new(group: BarrierGroup, rank: usize, desc: Descriptor, rounds: u64) -> Self {
        NicBarrierLoop {
            token: group.token(desc, rank),
            rounds,
            round: 0,
        }
    }

    /// The loop for team rank `rank` of `team`: the posted token is
    /// team-stamped and completions are noted under the team id.
    pub fn for_team(team: &Team, rank: usize, desc: Descriptor, rounds: u64) -> Self {
        NicBarrierLoop {
            token: team.token(desc, rank),
            rounds,
            round: 0,
        }
    }

    fn token(&self) -> CollectiveToken {
        self.token.clone()
    }
}

impl HostProgram for NicBarrierLoop {
    fn on_start(&mut self, ctx: &mut HostCtx) {
        if self.rounds > 0 {
            ctx.start_collective(self.token());
        }
    }

    fn on_event(&mut self, ev: &GmEvent, ctx: &mut HostCtx) {
        if matches!(
            ev,
            GmEvent::BarrierComplete { .. }
                | GmEvent::BroadcastComplete { .. }
                | GmEvent::ReduceComplete { .. }
                | GmEvent::ScanComplete { .. }
        ) {
            ctx.note(note_team_tag(self.token.team, self.round));
            self.round += 1;
            if self.round < self.rounds {
                ctx.start_collective(self.token());
            }
        }
    }

    fn steady(&self) -> Option<&dyn SteadyProgram> {
        Some(self)
    }

    fn steady_mut(&mut self) -> Option<&mut dyn SteadyProgram> {
        Some(self)
    }
}

/// One collective in flight at a time, the same token every round: the
/// round counter is all that moves.
impl SteadyProgram for NicBarrierLoop {
    fn progress(&self) -> (u64, u64) {
        (self.round, self.rounds)
    }

    fn digest(&self, anchor: u64, h: &mut StateHasher) {
        h.signed(self.round.wrapping_sub(anchor) as i64);
        digest_token(&self.token, h);
    }

    fn skip(&mut self, rounds: u64) {
        self.rounds -= rounds;
    }

    fn shift_note(&self, tag: u64, rounds: u64) -> u64 {
        shift_team_note(tag, rounds)
    }
}

/// A fuzzy-barrier loop (§2.1): "because the barrier algorithm is performed
/// at the NIC, the processor is free to perform computation while polling
/// for the barrier to complete".
///
/// With `overlap = true` the program initiates the barrier, then computes
/// for `compute` while the NIC synchronizes (the fuzzy barrier). With
/// `overlap = false` it computes first and only then initiates — the
/// blocking baseline. Comparing total runtimes shows the hidden time.
pub struct FuzzyBarrierLoop {
    /// Compiled once; cloned (cheaply) per round.
    token: CollectiveToken,
    rounds: u64,
    round: u64,
    compute: SimTime,
    overlap: bool,
}

impl FuzzyBarrierLoop {
    /// The loop for `rank` of `group`, with per-round `compute` work.
    pub fn new(
        group: BarrierGroup,
        rank: usize,
        rounds: u64,
        compute: SimTime,
        overlap: bool,
    ) -> Self {
        FuzzyBarrierLoop {
            token: group.pe_token(rank),
            rounds,
            round: 0,
            compute,
            overlap,
        }
    }

    fn begin_round(&self, ctx: &mut HostCtx) {
        if self.overlap {
            // Fuzzy: initiate, then compute while the NIC runs the barrier.
            ctx.start_collective(self.token.clone());
            ctx.compute(self.compute);
        } else {
            // Blocking: compute, then synchronize.
            ctx.compute(self.compute);
            ctx.start_collective(self.token.clone());
        }
    }
}

impl HostProgram for FuzzyBarrierLoop {
    fn on_start(&mut self, ctx: &mut HostCtx) {
        if self.rounds > 0 {
            self.begin_round(ctx);
        }
    }

    fn on_event(&mut self, ev: &GmEvent, ctx: &mut HostCtx) {
        if matches!(ev, GmEvent::BarrierComplete { .. }) {
            ctx.note(note_tag(self.round));
            self.round += 1;
            if self.round < self.rounds {
                self.begin_round(ctx);
            }
        }
    }

    fn steady(&self) -> Option<&dyn SteadyProgram> {
        Some(self)
    }

    fn steady_mut(&mut self) -> Option<&mut dyn SteadyProgram> {
        Some(self)
    }
}

impl SteadyProgram for FuzzyBarrierLoop {
    fn progress(&self) -> (u64, u64) {
        (self.round, self.rounds)
    }

    fn digest(&self, anchor: u64, h: &mut StateHasher) {
        h.signed(self.round.wrapping_sub(anchor) as i64);
        digest_token(&self.token, h);
        (self.compute, self.overlap).hash(h);
    }

    fn skip(&mut self, rounds: u64) {
        self.rounds -= rounds;
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

/// Drives several teams' barrier loops concurrently on *one* port — the
/// host side of a multi-tenant node. Each job posts its own team-stamped
/// token; completions carry the team id, so each job restarts and notes
/// independently of the others. Every note is tagged with
/// [`note_team_tag`] so the driver can attribute rounds to jobs.
#[derive(Default)]
pub struct MultiTeamBarrierLoop {
    jobs: Vec<TeamJob>,
}

struct TeamJob {
    team: TeamId,
    token: CollectiveToken,
    rounds: u64,
    round: u64,
}

impl MultiTeamBarrierLoop {
    /// An empty driver; add jobs with [`Self::push`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `rounds` consecutive `desc` collectives for team rank `rank`
    /// of `team`.
    pub fn push(&mut self, team: &Team, rank: usize, desc: Descriptor, rounds: u64) {
        self.jobs.push(TeamJob {
            team: team.id(),
            token: team.token(desc, rank),
            rounds,
            round: 0,
        });
    }

    /// Number of jobs registered.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True when no jobs are registered.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }
}

impl HostProgram for MultiTeamBarrierLoop {
    fn on_start(&mut self, ctx: &mut HostCtx) {
        for job in &self.jobs {
            if job.rounds > 0 {
                ctx.start_collective(job.token.clone());
            }
        }
    }

    fn on_event(&mut self, ev: &GmEvent, ctx: &mut HostCtx) {
        let GmEvent::BarrierComplete { team } = ev else {
            return;
        };
        let job = self
            .jobs
            .iter_mut()
            .find(|j| j.team == *team)
            .expect("completion for a team this port never posted");
        ctx.note(note_team_tag(job.team, job.round));
        job.round += 1;
        if job.round < job.rounds {
            ctx.start_collective(job.token.clone());
        }
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
