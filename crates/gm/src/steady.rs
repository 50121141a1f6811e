//! Steady-state fast-forward: prove a run periodic, then skip the repeats.
//!
//! A barrier benchmark runs the same collective back to back; after a short
//! transient the whole cluster usually repeats itself exactly, round after
//! round, shifted in time. The simulator is deterministic and invariant
//! under such shifts (firmware cycles convert to durations only, sequence
//! numbers compare with wrapping arithmetic), so once one instant's state
//! equals an earlier instant's — up to the shift — every later round
//! repeats too. The serial engine checks this and skips the repeats:
//!
//! 1. **Boundaries.** The first endpoint that records a note is the
//!    *anchor*; every event in which it records one is a round boundary.
//!    Each boundary after the first costs one constant-size signature
//!    (round gap, events, rounds and notes since the last boundary,
//!    pending events, the offset of the far timer band), and a period `p`
//!    of boundaries becomes a candidate once the last `p` signatures
//!    repeat the `p` before them.
//! 2. **Digest.** A period is proven by equal 128-bit [`StateHasher`]
//!    digests at two boundaries: the pending events by payload, then the
//!    cluster's state walk ([`walk`](mod@gmsim_des::walk)). Times hash
//!    relative to the boundary, go-back-N sequence numbers relative to
//!    their stream's next one, rounds relative to the anchor's (`Rebase`).
//!    The same walk snapshots every nonzero output counter, and the proof
//!    turns the base's snapshot into per-period deltas. The first signed
//!    boundary (the anchor's round 2) takes a *speculative* base, proved
//!    at the first later boundary with the same signature: most runs
//!    repeat from their first rounds, so a 2-round period proves at round
//!    4. A refuted speculative digest is the next speculative base. The
//!    candidate rule takes over wherever it would take a base of its own:
//!    it keeps the speculative base if its candidate's proof is still to
//!    come and hashes its own otherwise, `p` boundaries before its proof,
//!    so a base that never repeats cannot hold back a longer period. A
//!    kept base that fails leaves the rule resting until its own base's
//!    proof would have been due. The digests share one budget over the
//!    whole run: [`COST_RATIO`] times the records charged so far, plus
//!    those reserved for the next base and its proof, may not exceed the
//!    events fired so far plus those predicted for the rounds left (by the
//!    candidate, or by the last round before one forms). The speculative
//!    base is charged with the next digest, whose admission it does not
//!    count against, so one that never repeats leaves the candidate rule
//!    its first base. A base is taken only while a proof could still
//!    leave a period to
//!    skip. A candidate's proof is then taken with no second check; a
//!    speculative one, whose period was a guess, only if its period still
//!    leaves one.
//! 3. **Skip.** Equal digests prove a period of `rounds` rounds and `us`
//!    microseconds ([`Period`]), and the engine skips right there: each
//!    program runs `m` periods fewer ([`SteadyProgram::skip`]), each
//!    counter grows by `m` deltas, the scheduler counts the skipped events
//!    as fired, and the proving period's notes are appended `m` times,
//!    copy `j` shifted by `j` periods: one [`SteadyProgram::shift_note`]
//!    call per note gives its one-period step, and copy `j` adds `j`
//!    steps and `j` spans. Later notes are shifted by `m`
//!    periods; the clock is not, so the final `Simulation::now()` reads
//!    `m` periods early, which no collector reads.
//! 4. **Verify.** `m` leaves every program one period plus one round. The
//!    first of those periods must repeat the proven rounds and span, or
//!    the run panics.
//!
//! Fast-forward needs no switch. It is off under fault injection (the
//! fault stream never repeats), on the parallel engine (which never calls
//! it), and whenever an installed program or extension returns `None` from
//! its `steady` hook. With a tracer enabled the period is still detected
//! and reported but nothing is skipped, so the trace stays complete.

use crate::cluster::{Cluster, ClusterEvent, ClusterSched, ClusterSim, Node, NoteRecord};
use crate::events::GmEvent;
use crate::host::HostProgram;
use crate::ids::{GlobalPort, NodeId};
use crate::packet::{Packet, PacketKind, Seq};
use crate::parcels::Parcels;
use crate::token::SendToken;
use gmsim_des::{Counter, SimTime, StateHasher, Visit};
use std::hash::Hash;

/// The records every digest of a run hashes, times this, stay within the
/// run's events: hashing a record costs a small fraction of firing an
/// event, so this keeps detection to a few percent of a run that never
/// turns periodic.
pub const COST_RATIO: u64 = 8;

/// Longest candidate period, in round boundaries.
const MAX_PERIOD: usize = 128;

/// A host program's side of fast-forward.
///
/// The program's future may depend on its total round count only through
/// a `round < rounds` test: two instances whose digests match and that
/// have the same number of rounds left behave identically, up to the
/// round numbers in their tags and notes.
pub trait SteadyProgram {
    /// Rounds completed (or under way) and rounds in total.
    fn progress(&self) -> (u64, u64);

    /// Hash everything that steers this program's future, with round
    /// numbers relative to `anchor`, the anchor program's round.
    fn digest(&self, anchor: u64, h: &mut StateHasher);

    /// `tag`, a message tag this program sent, with any round number in it
    /// made relative to `anchor`.
    fn rebase_tag(&self, tag: u64, anchor: u64) -> u64 {
        let _ = anchor;
        tag
    }

    /// Run `rounds` fewer rounds than planned.
    fn skip(&mut self, rounds: u64);

    /// `tag`, a note this program recorded, as the same note `rounds`
    /// rounds later.
    ///
    /// Shifting must be additive in rounds: each round adds the same
    /// (wrapping) step to a tag, so shifting by `a` and then by `b` is
    /// shifting by `a + b`, and a tag that names no round stays as it is.
    /// A skip relies on it: it calls this once per note of the proving
    /// period and builds the note `j` periods later by adding `j` steps.
    fn shift_note(&self, tag: u64, rounds: u64) -> u64;
}

/// A proven steady state: from the round with index `from_round` on,
/// every round repeats the one `rounds` rounds earlier, `us` later.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Period {
    /// The anchor's first round inside the proven steady state.
    pub from_round: u64,
    /// Rounds per period.
    pub rounds: u64,
    /// Simulated microseconds per period.
    pub us: f64,
}

/// What a fast-forward skipped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FastForward {
    /// Whole periods skipped.
    pub periods: u64,
    /// Rounds skipped per program.
    pub rounds: u64,
    /// Events counted as fired without being simulated.
    pub events: u64,
}

/// One boundary's constant-size signature.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Sig {
    gap: u64,
    events: u64,
    rounds: u64,
    notes: u64,
    pending: u64,
    far: u64,
}

/// The run's position at one boundary.
#[derive(Debug, Clone, Copy)]
struct Mark {
    boundary: u64,
    round: u64,
    at: SimTime,
    fired: u64,
    notes: usize,
}

impl Mark {
    /// Boundaries, rounds and time since `base`.
    fn since(self, base: Mark) -> (u64, u64, SimTime) {
        (
            self.boundary - base.boundary,
            self.round - base.round,
            self.at - base.at,
        )
    }
}

/// When a base digest's proof is due.
#[derive(Clone, Copy)]
enum Due {
    /// `p` boundaries after the base: the candidate rule's period.
    After(u64),
    /// At the first later boundary with this signature, the base's own: a
    /// speculative base, taken before any candidate could be.
    Repeat(Sig),
}

#[derive(Clone, Copy, Default)]
enum Phase {
    /// No steady state can be proven (or nothing can be skipped).
    Off,
    /// Looking for a candidate period.
    #[default]
    Watch,
    /// Hashed and counters snapshotted at `base`; waiting for the boundary
    /// its proof is due at.
    Based { due: Due, base: Mark, digest: u128 },
    /// Skipped at `base`: the next `period` (boundaries, rounds, time) must
    /// repeat the proven one.
    Verify {
        base: Mark,
        period: (u64, u64, SimTime),
    },
    /// Verified, or nothing left to do.
    Done,
}

/// The serial engine's steady-state detector and fast-forward.
#[derive(Default)]
pub(crate) struct Detector {
    phase: Phase,
    /// Whether the one-time capability check has run.
    vetted: bool,
    /// Whether a proven period may be skipped (no tracer).
    may_skip: bool,
    anchor: Option<GlobalPort>,
    last: Option<Mark>,
    boundaries: u64,
    /// Records hashed by every digest so far, and by the last one charged
    /// to the budget.
    hashed: u64,
    last_hashed: u64,
    /// The speculative base's records, not charged until the next digest.
    unpaid: u64,
    /// The candidate rule takes no base before this boundary.
    rest: u64,
    buf: Buffers,
    /// Time and round offset of every note recorded from now on.
    shift: (SimTime, u64),
    period: Option<Period>,
    skipped: Option<FastForward>,
}

impl Detector {
    pub(crate) fn period(&self) -> Option<Period> {
        self.period
    }

    pub(crate) fn skipped(&self) -> Option<FastForward> {
        self.skipped
    }

    pub(crate) fn hashed(&self) -> u64 {
        self.hashed
    }

    /// Record `sig` as boundary `b`'s and update the repeat counters.
    fn push_sig(&mut self, b: u64, sig: Sig) {
        let Buffers { ring, matched, .. } = &mut self.buf;
        if ring.is_empty() {
            *ring = vec![Sig::default(); MAX_PERIOD + 1];
            *matched = vec![0; MAX_PERIOD + 1];
        }
        let len = ring.len() as u64;
        for p in 1..=(b as usize).min(MAX_PERIOD) {
            let repeats = ring[((b - p as u64) % len) as usize] == sig;
            matched[p] = if repeats { matched[p] + 1 } else { 0 };
        }
        ring[(b % len) as usize] = sig;
    }

    /// The candidate period with the longest run of repeats (the shortest
    /// on a tie), once it has repeated in full, with the rounds and events
    /// it spans. A true period keeps repeating while a false one (a stretch
    /// of identical rounds inside a longer period) breaks off, so a refuted
    /// short candidate cannot starve the real one.
    fn candidate(&self, b: u64) -> Option<(u64, u64, u64)> {
        let Buffers { ring, matched, .. } = &self.buf;
        let len = ring.len() as u64;
        (1..matched.len())
            .filter(|&p| matched[p] as usize >= p)
            .max_by_key(|&p| (matched[p], std::cmp::Reverse(p)))
            .map(|p| {
                let sigs = (0..p as u64).map(|i| ring[((b - i) % len) as usize]);
                let (rounds, events) = sigs.fold((0, 0), |(r, e), s| (r + s.rounds, e + s.events));
                (p as u64, rounds, events)
            })
    }
}

/// The steady-state hooks of the program on `at`, if it has any.
fn program(nodes: &[Node], at: GlobalPort) -> Option<&dyn SteadyProgram> {
    nodes[at.node.0].programs[at.port.idx()]
        .as_deref()?
        .steady()
}

/// Every installed program's steady-state hooks, mutably (vetted: all
/// have them).
fn programs_mut(nodes: &mut [Node]) -> impl Iterator<Item = &mut dyn SteadyProgram> {
    nodes
        .iter_mut()
        .flat_map(|n| n.programs.iter_mut().flatten())
        .map(|p| p.steady_mut().expect("vetted program"))
}

fn endpoint(n: &NoteRecord) -> GlobalPort {
    GlobalPort {
        node: n.node(),
        port: n.port,
    }
}

/// Shift a note recorded on `n`'s endpoint by `at` and `rounds`.
fn shifted(nodes: &[Node], n: &NoteRecord, at: SimTime, rounds: u64) -> NoteRecord {
    let prog = program(nodes, endpoint(n)).expect("a skipped run's program lost its hooks");
    NoteRecord::new(n.at + at, n.node(), n.port, prog.shift_note(n.tag, rounds))
}

/// Called by the serial engine after every event that recorded notes
/// (`cl.notes[first..]`): shifts them past a skip, and at a round boundary
/// advances the detector.
pub(crate) fn after_notes(cl: &mut Cluster, s: &mut ClusterSched, first: usize) {
    let det = &mut cl.steady;
    if det.shift != (SimTime::ZERO, 0) {
        let (at, rounds) = det.shift;
        for i in first..cl.notes.len() {
            cl.notes[i] = shifted(&cl.nodes, &cl.notes[i], at, rounds);
        }
    }
    if matches!(det.phase, Phase::Off | Phase::Done) {
        return;
    }
    let anchor = *det.anchor.get_or_insert_with(|| endpoint(&cl.notes[first]));
    if cl.notes[first..].iter().any(|n| endpoint(n) == anchor) {
        boundary(cl, s, anchor);
        let det = &mut cl.steady;
        if !matches!(det.phase, Phase::Watch | Phase::Based { .. }) {
            // Nothing more to detect: give the buffers back.
            det.buf = Buffers::default();
        }
    }
}

/// One round boundary of the anchor.
fn boundary(cl: &mut Cluster, s: &mut ClusterSched, anchor: GlobalPort) {
    let det = &mut cl.steady;
    if !det.vetted {
        det.vetted = true;
        det.may_skip = !cl.tracer.is_enabled();
        let capable = !cl.fabric.has_faults()
            && cl.nodes.iter().all(|n| {
                n.mcp.ext().steady().is_some()
                    && n.programs.iter().flatten().all(|p| p.steady().is_some())
            });
        if !capable {
            det.phase = Phase::Off;
            return;
        }
    }
    let Some((round, rounds)) = program(&cl.nodes, anchor).map(|p| p.progress()) else {
        det.phase = Phase::Off;
        return;
    };
    let now = s.now();
    let mark = Mark {
        boundary: det.boundaries,
        round,
        at: now,
        fired: s.fired(),
        notes: cl.notes.len(),
    };
    det.boundaries += 1;
    if let Phase::Verify { base, period } = det.phase {
        if mark.boundary - base.boundary == period.0 {
            let after = mark.since(base);
            assert_eq!(
                after, period,
                "the period after a fast-forward is not the proven one"
            );
            det.phase = Phase::Done;
        }
        return;
    }
    let Some(last) = det.last.replace(mark) else {
        return;
    };
    let sig = Sig {
        gap: (now - last.at).as_ns(),
        events: mark.fired - last.fired,
        rounds: round - last.round,
        notes: (mark.notes - last.notes) as u64,
        pending: s.pending() as u64,
        far: s.far_next_at().map_or(u64::MAX, |t| (t - now).as_ns()),
    };
    det.push_sig(mark.boundary, sig);
    let left = rounds.saturating_sub(round);
    match std::mem::take(&mut cl.steady.phase) {
        Phase::Watch => {
            // Before any candidate can form, the first signed boundary
            // takes a speculative base: most runs repeat from there.
            let due = match wants_base(cl, s, mark, left) {
                Some(p) => Due::After(p),
                None if mark.boundary == 1
                    && affords(
                        cl,
                        mark.fired,
                        left,
                        (sig.rounds, sig.events),
                        new_base(cl, s),
                    ) =>
                {
                    Due::Repeat(sig)
                }
                None => return,
            };
            based(cl, s, round, due, mark);
        }
        Phase::Based {
            due: Due::After(p),
            base,
            digest,
        } => {
            cl.steady.phase = Phase::Based {
                due: Due::After(p),
                base,
                digest,
            };
            if mark.boundary - base.boundary < p {
                return;
            }
            match take_digest(cl, s, round, true, false) {
                Some(d) if d == digest => proven(cl, s, base, mark),
                _ => cl.steady.phase = Phase::Watch,
            }
        }
        Phase::Based {
            due: Due::Repeat(want),
            base,
            digest,
        } => {
            let wanted = wants_base(cl, s, mark, left);
            let mut spec = Some((base, digest, want));
            if sig == want && left <= 2 * (round - base.round) {
                // A proof here could leave no period to skip.
                spec = None;
            } else if sig == want {
                match take_digest(cl, s, round, true, false) {
                    Some(d) if d == digest => return proven(cl, s, base, mark),
                    // Refuted: the fresh digest is the next base, if the
                    // candidate rule takes it or the budget pays its proof.
                    d => {
                        if d.is_some() {
                            snapshot(cl, round);
                        }
                        let proof = cl.steady.last_hashed;
                        let paid = affords(cl, mark.fired, left, (sig.rounds, sig.events), proof);
                        spec = d
                            .filter(|_| wanted.is_some() || paid)
                            .map(|d| (mark, d, sig));
                    }
                }
            }
            // The candidate rule takes over where it would take a base of
            // its own: it keeps this one if its period's proof is still to
            // come, and hashes its own otherwise. A kept base proves early,
            // but if it fails, the rule rests until its own base's proof
            // would have been due.
            cl.steady.phase = match (wanted, spec) {
                (Some(p), Some((base, digest, _))) if mark.boundary - base.boundary < p => {
                    cl.steady.rest = mark.boundary + p + 1;
                    Phase::Based {
                        due: Due::After(p),
                        base,
                        digest,
                    }
                }
                (Some(p), _) => return based(cl, s, round, Due::After(p), mark),
                (None, Some((base, digest, want))) => Phase::Based {
                    due: Due::Repeat(want),
                    base,
                    digest,
                },
                (None, None) => Phase::Watch,
            };
        }
        phase => cl.steady.phase = phase,
    }
}

/// The period of the candidate the rule would take a base digest for at
/// `mark`, with `left` rounds left: one whose proof the budget pays for.
fn wants_base(cl: &Cluster, s: &ClusterSched, mark: Mark, left: u64) -> Option<u64> {
    if mark.boundary < cl.steady.rest {
        return None;
    }
    let (p, span, events) = cl.steady.candidate(mark.boundary)?;
    affords(cl, mark.fired, left, (span, events), new_base(cl, s)).then_some(p)
}

/// Worth a digest only if the proof, the verify period, the margin and at
/// least one skipped period of `span` rounds still fit the `left` rounds,
/// and if the run's events, `fired` so far and `events` per `span` rounds
/// for the rest, pay for every digest charged so far plus `reserve` more
/// records.
fn affords(cl: &Cluster, fired: u64, left: u64, (span, events): (u64, u64), reserve: u64) -> bool {
    span > 0
        && left >= 4 * span
        && COST_RATIO * (cl.steady.hashed - cl.steady.unpaid + reserve)
            <= fired + events * left / span
}

/// The records a new base and its proof reserve: twice what the last
/// charged digest hashed, or a lower bound before the first.
fn new_base(cl: &Cluster, s: &ClusterSched) -> u64 {
    2 * cl.steady.last_hashed.max(records_at_least(cl, s))
}

/// Take a base digest at `mark`, its proof due as `due`; stays watching
/// if the state cannot be hashed. A speculative base is charged with the
/// next digest, whose admission it does not count against: one that never
/// repeats leaves the candidate rule its first base.
fn based(cl: &mut Cluster, s: &ClusterSched, anchor: u64, due: Due, mark: Mark) {
    let speculative = matches!(due, Due::Repeat(_));
    if let Some(digest) = take_digest(cl, s, anchor, false, speculative) {
        cl.steady.phase = Phase::Based {
            due,
            base: mark,
            digest,
        };
    }
}

/// Digests at `base` and `mark` matched and the counters hold their
/// deltas over the period between: record the period and skip as many
/// whole periods as the margin allows.
fn proven(cl: &mut Cluster, s: &mut ClusterSched, base: Mark, mark: Mark) {
    let period = mark.since(base);
    let (_, rounds, span) = period;
    let det = &mut cl.steady;
    if rounds == 0 {
        det.phase = Phase::Off;
        return;
    }
    det.period = Some(Period {
        from_round: base.round,
        rounds,
        us: span.as_us_f64(),
    });
    det.phase = Phase::Done;
    // Leave every program the verify period plus one round.
    let periods = (min_left(&cl.nodes).saturating_sub(1) / rounds).saturating_sub(1);
    if !det.may_skip || periods == 0 {
        return;
    }
    det.phase = Phase::Verify { base: mark, period };
    det.shift = (span * periods, rounds * periods);
    let events = periods * (mark.fired - base.fired);
    det.skipped = Some(FastForward {
        periods,
        rounds: rounds * periods,
        events,
    });
    // The buffers are freed here, before the notes grow.
    grow(&std::mem::take(&mut det.buf).counters, periods, |f| {
        cl.walk_mut(f)
    });
    s.add_fired(events);
    for p in programs_mut(&mut cl.nodes) {
        p.skip(periods * rounds);
    }
    // Copy `j` of a note of the proving period is that note `j` periods
    // later: `j` spans later, its tag `j` one-period steps on, since
    // shifting is additive in rounds ([`SteadyProgram::shift_note`]).
    let steps: Vec<u64> = cl.notes[base.notes..mark.notes]
        .iter()
        .map(|n| {
            shifted(&cl.nodes, n, SimTime::ZERO, rounds)
                .tag
                .wrapping_sub(n.tag)
        })
        .collect();
    // Pushed one by one, so the notes grow through the same capacities
    // as in a full run and the peak heap stays the same.
    for j in 1..=periods {
        for (i, step) in (base.notes..).zip(&steps) {
            let mut copy = cl.notes[i];
            copy.at += span * j;
            copy.tag = copy.tag.wrapping_add(j.wrapping_mul(*step));
            cl.notes.push(copy);
        }
    }
    debug_assert!(
        (base.notes..mark.notes)
            .zip(cl.notes.len() - steps.len()..)
            .all(|(i, last)| {
                let want = shifted(&cl.nodes, &cl.notes[i], span * periods, rounds * periods);
                cl.notes[last] == want
            }),
        "a program's shift_note is not additive in rounds"
    );
}

/// Grow every counter `walk_mut` hands over by `periods` times its delta
/// over the proven period. The skip comes at the proving digest's instant,
/// so a counter the base walk saw zero, and left out of `deltas`, holds
/// its own delta.
fn grow(deltas: &[(u32, u64)], periods: u64, walk_mut: impl FnOnce(&mut dyn FnMut(&mut u64))) {
    let (mut next, mut at) = (deltas.iter().peekable(), 0);
    walk_mut(&mut |c| {
        let delta = next.next_if(|e| e.0 == at).map_or(*c, |e| e.1);
        *c += periods * delta;
        at += 1;
    });
}

/// A lower bound on the records a digest of `cl` hashes: one per pending
/// event and connection, and at least two per node and one per program.
fn records_at_least(cl: &Cluster, s: &ClusterSched) -> u64 {
    let per_node =
        |n: &Node| 2 + n.programs.iter().flatten().count() + n.mcp.core.connections().count();
    (s.pending() + cl.nodes.iter().map(per_node).sum::<usize>()) as u64
}

/// Rounds left to the program closest to its end.
fn min_left(nodes: &[Node]) -> u64 {
    nodes
        .iter()
        .flat_map(|n| n.programs.iter().flatten())
        .filter_map(|p| p.steady().map(|p| p.progress()))
        .map(|(round, rounds)| rounds.saturating_sub(round))
        .min()
        .unwrap_or(0)
}

/// The detector's reusable buffers: the signature of boundary `b` at
/// `ring[b % len]`; `matched[p]`, the consecutive boundaries whose
/// signature equals the one `p` earlier; a digest's sorted far-band keys
/// and ranked past link horizons; every nonzero output counter at the
/// base digest as `(walk index, value)`, which the proving digest turns
/// into deltas in place; and the counters the base walk visited.
#[derive(Default)]
struct Buffers {
    ring: Vec<Sig>,
    matched: Vec<u32>,
    keys: Vec<(SimTime, u64, u32)>,
    ranks: Vec<SimTime>,
    counters: Vec<(u32, u64)>,
    walked: u32,
}

/// The detector's visitor: hashes future state, and either snapshots the
/// nonzero counters or turns the snapshot into their deltas since.
struct Snap<'a> {
    h: StateHasher,
    counters: &'a mut Vec<(u32, u64)>,
    delta: bool,
    /// Counters visited so far, and snapshot entries matched so far.
    at: u32,
    matched: usize,
}

impl Visit for Snap<'_> {
    fn hasher(&mut self) -> Option<&mut StateHasher> {
        Some(&mut self.h)
    }

    fn counter(&mut self, _: Option<Counter>, value: u64) {
        let at = self.at;
        self.at += 1;
        if !self.delta {
            if value != 0 {
                self.counters.push((at, value));
            }
        } else if let Some((_, c)) = self.counters.get_mut(self.matched).filter(|e| e.0 == at) {
            *c = value.wrapping_sub(*c);
            self.matched += 1;
        }
    }
}

/// Snapshot the counters afresh, without hashing: a refuted proof's
/// instant becomes the next base, and its walk turned the last snapshot
/// into deltas. One snapshot at a time keeps the heap peak of a digest.
fn snapshot(cl: &mut Cluster, anchor: u64) {
    let mut buf = std::mem::take(&mut cl.steady.buf);
    let (counters, mut at) = (&mut buf.counters, 0);
    counters.clear();
    let mut cx = Rebase::new(&cl.nodes, anchor, &mut buf.ranks);
    cl.walk(&mut cx, &mut |_: Option<Counter>, value| {
        if value != 0 {
            counters.push((at, value));
        }
        at += 1;
    });
    cl.steady.buf = buf;
}

/// Take a digest at the current boundary, with the counter snapshot (or,
/// with `delta`, the deltas since it), and count it: a `speculative` base
/// is left unpaid, any other digest charges itself and what is unpaid.
fn take_digest(
    cl: &mut Cluster,
    s: &ClusterSched,
    anchor: u64,
    delta: bool,
    speculative: bool,
) -> Option<u128> {
    let mut buf = std::mem::take(&mut cl.steady.buf);
    let (value, items) = digest(cl, s, anchor, &mut buf, delta);
    let det = &mut cl.steady;
    det.buf = buf;
    det.hashed += items;
    if speculative {
        det.unpaid = items;
    } else {
        det.unpaid = 0;
        det.last_hashed = items;
    }
    value
}

/// The digest of a simulation at its current instant, rounds relative to
/// the anchor's (the first endpoint that recorded a note), or `None` when
/// nothing has been noted yet or some program, extension or pending event
/// cannot be hashed. Meant to be taken right after a boundary event.
pub fn state_digest(sim: &ClusterSim) -> Option<u128> {
    let cl = sim.world();
    let (round, _) = program(&cl.nodes, cl.steady.anchor?)?.progress();
    digest(cl, sim.scheduler(), round, &mut Buffers::default(), false).0
}

/// Fold the pending events, then the cluster's walk, into one digest,
/// with the records it hashed. `None` when some part cannot be hashed (a
/// program or extension without hooks, a program still waiting to start)
/// or the deltas do not line up with the snapshot (a histogram grew a bin
/// since).
fn digest(
    cl: &Cluster,
    s: &ClusterSched,
    anchor: u64,
    buf: &mut Buffers,
    delta: bool,
) -> (Option<u128>, u64) {
    if !delta {
        buf.counters.clear();
    }
    let mut snap = Snap {
        h: StateHasher::new(s.now()),
        counters: &mut buf.counters,
        delta,
        at: 0,
        matched: 0,
    };
    let mut cx = Rebase::new(&cl.nodes, anchor, &mut buf.ranks);
    let h = &mut snap.h;
    // Every variable-length list is preceded by its length, so no two
    // states feed the hasher the same words.
    s.pending().hash(h);
    s.visit_pending(&mut buf.keys, |at, ev| {
        h.item();
        h.time(at);
        cx.event(&cl.parcels, ev, h);
    });
    cl.walk(&mut cx, &mut snap);
    let walked = std::mem::replace(&mut buf.walked, snap.at);
    let ok = cx.ok && (!delta || snap.at == walked);
    (ok.then(|| snap.h.finish128()), snap.h.items())
}

/// The cross-node side of a walk's rebasing: sequence numbers against
/// their stream's next one on the sending side, message tags by the
/// program that sent them, rounds against the anchor's. `ok` turns false
/// once some part cannot be hashed.
pub(crate) struct Rebase<'a> {
    nodes: &'a [Node],
    anchor: u64,
    /// Past link horizons, ranked by the fabric's walk.
    pub(crate) ranks: &'a mut Vec<SimTime>,
    ok: bool,
}

impl<'a> Rebase<'a> {
    pub(crate) fn new(nodes: &'a [Node], anchor: u64, ranks: &'a mut Vec<SimTime>) -> Self {
        Rebase {
            nodes,
            anchor,
            ranks,
            ok: true,
        }
    }

    /// Some part of the state cannot be hashed.
    pub(crate) fn fail(&mut self) {
        self.ok = false;
    }

    /// `tag`, sent by the program on `src`, rebased by that program.
    fn tag(&mut self, src: GlobalPort, tag: u64) -> u64 {
        let rebased = program(self.nodes, src).map(|p| p.rebase_tag(tag, self.anchor));
        self.ok &= rebased.is_some();
        rebased.unwrap_or(0)
    }

    /// A program's position, rounds relative to the anchor's.
    pub(crate) fn program(&mut self, p: &dyn HostProgram, h: &mut StateHasher) {
        match p.steady() {
            Some(p) => p.digest(self.anchor, h),
            None => self.fail(),
        }
    }

    /// The next sequence number the stream `from -> to` will assign: the
    /// base its sequence numbers hash against.
    pub(crate) fn next_tx(&self, from: NodeId, to: NodeId) -> Seq {
        self.nodes[from.0].mcp.core.conn(to).next_tx()
    }

    /// A reliable packet's kind, its sequence numbers relative to `base`
    /// and its tag rebased by the sending program on `src`.
    pub(crate) fn reliable_kind(
        &mut self,
        src: GlobalPort,
        kind: &PacketKind,
        base: Seq,
        h: &mut StateHasher,
    ) {
        std::mem::discriminant(kind).hash(h);
        let rebased = |s: Seq| s.wrapping_sub(base);
        match *kind {
            PacketKind::Data {
                seq,
                len,
                tag,
                notify,
            } => {
                (rebased(seq), len, notify).hash(h);
                h.word(self.tag(src, tag));
            }
            PacketKind::Ext { seq, body } => (seq.map(rebased), body).hash(h),
            // Acks and nacks name sequence numbers of the reverse stream.
            PacketKind::Ack { ack: seq } | PacketKind::Nack { expected: seq } => {
                rebased(seq).hash(h)
            }
        }
    }

    /// A packet anywhere between the SEND machine and the RECV machine.
    fn packet(&mut self, pkt: &Packet, h: &mut StateHasher) {
        let (src, dst) = (pkt.src, pkt.dst);
        (src, dst).hash(h);
        let (from, to) = match pkt.kind {
            PacketKind::Ack { .. } | PacketKind::Nack { .. } => (dst.node, src.node),
            _ => (src.node, dst.node),
        };
        self.reliable_kind(src, &pkt.kind, self.next_tx(from, to), h);
    }

    /// A host event delivered (or on its way) to `to`.
    pub(crate) fn gm_event(&mut self, to: GlobalPort, ev: &GmEvent, h: &mut StateHasher) {
        to.hash(h);
        std::mem::discriminant(ev).hash(h);
        match *ev {
            GmEvent::Recv { src, len, tag } => {
                (src, len).hash(h);
                h.word(self.tag(src, tag));
            }
            GmEvent::Sent { tag } => h.word(self.tag(to, tag)),
            other => other.hash(h),
        }
    }

    /// One pending event, by payload.
    fn event(&mut self, parcels: &Parcels, ev: &ClusterEvent, h: &mut StateHasher) {
        std::mem::discriminant(ev).hash(h);
        match *ev {
            ClusterEvent::Transmit(pkt) => self.packet(parcels.packets.get(pkt), h),
            ClusterEvent::WireDeliver { pkt, corrupted } => {
                corrupted.hash(h);
                self.packet(parcels.packets.get(pkt), h);
            }
            ClusterEvent::HostDeliver { node, port, ev } => {
                self.gm_event(GlobalPort { node, port }, parcels.events.get(ev), h)
            }
            ClusterEvent::HostProcess { node } => node.hash(h),
            ClusterEvent::McpTimer { node, kind } => (node, kind).hash(h),
            ClusterEvent::SendTokenReady { node, token } => match parcels.tokens.get(token) {
                SendToken::Data {
                    src_port,
                    dst,
                    len,
                    tag,
                    notify,
                } => {
                    (node, src_port, dst, len, notify).hash(h);
                    let src = GlobalPort::new(node.0, src_port.0);
                    h.word(self.tag(src, *tag));
                }
                SendToken::Collective { src_port, token } => {
                    (node, src_port, &*token.schedule, token.value, token.team).hash(h)
                }
            },
            ClusterEvent::ProvideRecv { node, port, n } => (node, port, n).hash(h),
            ClusterEvent::ClosePort { node, port } => (node, port).hash(h),
            ClusterEvent::StartProgram { .. } => self.fail(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_skip_grows_each_counter_by_its_delta_even_from_zero() {
        let mut counters = Vec::new();
        let mut walk = |values: &[u64], delta| {
            let mut snap = Snap {
                h: StateHasher::new(SimTime::ZERO),
                counters: &mut counters,
                delta,
                at: 0,
                matched: 0,
            };
            for &v in values {
                snap.counter(None, v);
            }
        };
        walk(&[0, 5, 0, 7], false);
        let mut values = [3, 9, 0, 7];
        walk(&values, true);
        assert_eq!(counters, [(1, 4), (3, 0)]);
        grow(&counters, 10, |f| values.iter_mut().for_each(f));
        assert_eq!(values, [33, 49, 0, 7]);
    }
}
