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
//!    Each boundary costs one constant-size signature (round gap, events,
//!    rounds and notes since the last boundary, pending events, the
//!    offset of the far timer band), and a period `p` of boundaries
//!    becomes a candidate once the last `p` signatures repeat the `p`
//!    before them.
//! 2. **Digest.** A candidate is confirmed by hashing every piece of state
//!    that can steer the future into a 128-bit [`StateHasher`] at two
//!    boundaries a multiple of `p` apart: the pending events in firing
//!    order (by payload), the fabric's link horizons, each NIC's hardware
//!    horizons, ports, connections and RTO state, host queues, the
//!    extension's state and each program's position. Times hash relative
//!    to the boundary; go-back-N sequence numbers relative to the sending
//!    side's next sequence of their stream; round numbers relative to the
//!    anchor program's round (programs rebase the round fields of their own
//!    message tags). Output-only counters stay out. A digest is taken only
//!    once the events fired since the previous one number at least
//!    [`COST_RATIO`] times the records that one visited.
//! 3. **Check.** Equal digests prove a period of `rounds` rounds and `us`
//!    microseconds ([`Period`]). The engine simulates one more period while
//!    it snapshots every output counter and keeps the notes recorded.
//! 4. **Skip.** Nothing in the world moves. Each program is told it has
//!    `m` periods fewer to run ([`SteadyProgram::skip`]), each counter
//!    grows by `m` times its per-period delta, the scheduler counts the
//!    skipped events as fired, and the period's notes are appended `m`
//!    times, copy `j` shifted by `j` periods in time and rounds. Notes
//!    recorded afterwards are shifted by `m` periods. `m` leaves every
//!    program at least one period plus one round, so the last rounds and
//!    the drain run for real. The clock itself is not shifted: the final
//!    `Simulation::now()` reads `m` periods early, which no collector
//!    reads.
//!
//! Fast-forward needs no switch. It is off under fault injection (the
//! fault stream never repeats), on the parallel engine (which never calls
//! it), and whenever an installed program or extension returns `None` from
//! its `steady` hook. With a tracer enabled the period is still detected
//! and reported but nothing is skipped, so the trace stays complete.

use crate::cluster::{Cluster, ClusterEvent, ClusterSched, ClusterSim, Node, NoteRecord};
use crate::events::GmEvent;
use crate::ids::{GlobalPort, NodeId, PortId, GM_NUM_PORTS};
use crate::mcp::TimerKind;
use crate::packet::{Packet, PacketKind, Seq};
use crate::parcels::Parcels;
use crate::token::SendToken;
use gmsim_des::{SimTime, StateHasher};
use gmsim_myrinet::Fabric;
use std::hash::Hash;

/// A digest is taken only once the events fired since the previous one
/// number at least this many times the records the previous one visited:
/// hashing a record costs a small fraction of firing an event, so this
/// keeps detection to a few percent of a run that never turns periodic.
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
    fn shift_note(&self, tag: u64, rounds: u64) -> u64;
}

/// A firmware extension's side of fast-forward.
pub trait SteadyExt {
    /// Hash everything that steers the extension's future; times relative
    /// to [`StateHasher::now`].
    fn digest(&self, h: &mut StateHasher);

    /// Visit every output counter mutably, in a fixed order.
    fn visit_counters(&mut self, f: &mut dyn FnMut(&mut u64));
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

enum Phase {
    /// No steady state can be proven (or nothing can be skipped).
    Off,
    /// Looking for a candidate period.
    Watch,
    /// Hashed at `base`; waiting for a boundary a multiple of `p` later.
    Based { p: u64, base: Mark, digest: u128 },
    /// Proven; simulating one more period from `base` to measure it.
    Check {
        base: Mark,
        boundaries: u64,
        rounds: u64,
        span: SimTime,
        counters: Vec<u64>,
    },
    /// Skipped, or nothing left to do.
    Done,
}

/// Reusable digest buffers: sorted pending keys and ranked link horizons.
#[derive(Default)]
struct Scratch {
    keys: Vec<(SimTime, u64, u32)>,
    times: Vec<SimTime>,
}

/// The serial engine's steady-state detector and fast-forward.
pub(crate) struct Detector {
    phase: Phase,
    /// Whether the one-time capability check has run.
    vetted: bool,
    /// Whether a proven period may be skipped (no tracer).
    may_skip: bool,
    anchor: Option<GlobalPort>,
    last: Option<Mark>,
    boundaries: u64,
    /// Signature of boundary `b` at `ring[b % len]`.
    ring: Vec<Sig>,
    /// `matched[p]`: consecutive boundaries whose signature equals the one
    /// `p` boundaries earlier.
    matched: Vec<u32>,
    /// Events fired at the last digest and the records it visited.
    digest_fired: u64,
    digest_items: u64,
    scratch: Scratch,
    /// Time and round offset of every note recorded from now on.
    shift: (SimTime, u64),
    period: Option<Period>,
    skipped: Option<FastForward>,
}

impl Default for Detector {
    fn default() -> Self {
        Detector {
            phase: Phase::Watch,
            vetted: false,
            may_skip: false,
            anchor: None,
            last: None,
            boundaries: 0,
            ring: Vec::new(),
            matched: Vec::new(),
            digest_fired: 0,
            digest_items: 0,
            scratch: Scratch::default(),
            shift: (SimTime::ZERO, 0),
            period: None,
            skipped: None,
        }
    }
}

impl Detector {
    pub(crate) fn period(&self) -> Option<Period> {
        self.period
    }

    pub(crate) fn skipped(&self) -> Option<FastForward> {
        self.skipped
    }

    /// Record `sig` as boundary `b`'s and update the repeat counters.
    fn push_sig(&mut self, b: u64, sig: Sig) {
        if self.ring.is_empty() {
            self.ring = vec![Sig::default(); MAX_PERIOD + 1];
            self.matched = vec![0; MAX_PERIOD + 1];
        }
        let len = self.ring.len() as u64;
        let seen = (b as usize).min(MAX_PERIOD);
        for p in 1..=seen {
            let earlier = self.ring[((b - p as u64) % len) as usize];
            self.matched[p] = if earlier == sig {
                self.matched[p] + 1
            } else {
                0
            };
        }
        self.ring[(b % len) as usize] = sig;
    }

    /// The candidate period with the longest run of repeats (the shortest
    /// on a tie), once it has repeated in full, and the rounds it spans.
    /// A true period keeps repeating while a false one (a stretch of
    /// identical rounds inside a longer period) breaks off, so a refuted
    /// short candidate cannot starve the real one.
    fn candidate(&self, b: u64) -> Option<(u64, u64)> {
        let len = self.ring.len() as u64;
        (1..self.matched.len())
            .filter(|&p| self.matched[p] as usize >= p)
            .max_by_key(|&p| (self.matched[p], std::cmp::Reverse(p)))
            .map(|p| {
                let rounds = (0..p as u64)
                    .map(|i| self.ring[((b - i) % len) as usize].rounds)
                    .sum();
                (p as u64, rounds)
            })
    }

    fn budget_allows(&self, fired: u64) -> bool {
        fired - self.digest_fired >= COST_RATIO * self.digest_items
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
        if matches!(det.phase, Phase::Off | Phase::Done) {
            // Nothing more to detect: give the buffers back.
            det.ring = Vec::new();
            det.matched = Vec::new();
            det.scratch = Scratch::default();
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
    let Some(last) = det.last.replace(mark) else {
        return;
    };
    det.push_sig(
        mark.boundary,
        Sig {
            gap: (now - last.at).as_ns(),
            events: mark.fired - last.fired,
            rounds: round - last.round,
            notes: (mark.notes - last.notes) as u64,
            pending: s.pending() as u64,
            far: s.far_next_at().map_or(u64::MAX, |t| (t - now).as_ns()),
        },
    );
    let left = rounds.saturating_sub(round);
    let det = &mut cl.steady;
    match std::mem::replace(&mut det.phase, Phase::Watch) {
        Phase::Watch => {
            // Worth a digest only if a verify, a check and at least one
            // skipped period still fit.
            if let Some((p, span)) = det.candidate(mark.boundary) {
                if span > 0 && left >= 4 * span && det.budget_allows(mark.fired) {
                    if let Some(digest) = take_digest(cl, s, round) {
                        cl.steady.phase = Phase::Based {
                            p,
                            base: mark,
                            digest,
                        };
                    }
                }
            }
        }
        Phase::Based { p, base, digest } => {
            let apart = mark.boundary - base.boundary;
            if apart > 4 * MAX_PERIOD as u64 {
                return;
            }
            det.phase = Phase::Based { p, base, digest };
            if !apart.is_multiple_of(p) || !det.budget_allows(mark.fired) {
                return;
            }
            match take_digest(cl, s, round) {
                Some(d) if d == digest => proven(cl, base, mark),
                _ => cl.steady.phase = Phase::Watch,
            }
        }
        Phase::Check {
            base,
            boundaries,
            rounds,
            span,
            counters,
        } => {
            if mark.boundary - base.boundary < boundaries {
                cl.steady.phase = Phase::Check {
                    base,
                    boundaries,
                    rounds,
                    span,
                    counters,
                };
                return;
            }
            cl.steady.phase = Phase::Done;
            if mark.round - base.round == rounds && mark.at - base.at == span {
                skip(cl, s, base, mark, counters);
            }
        }
        phase @ (Phase::Off | Phase::Done) => det.phase = phase,
    }
}

/// Digests at `base` and `mark` matched: record the period, and snapshot
/// the counters for the check period if a skip can follow it.
fn proven(cl: &mut Cluster, base: Mark, mark: Mark) {
    let rounds = mark.round - base.round;
    let span = mark.at - base.at;
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
    // A skip of at least one period must fit after the check period plus
    // the margin of one period and one round.
    if !det.may_skip || min_left(&cl.nodes) < 3 * rounds + 1 {
        return;
    }
    let mut counters = Vec::new();
    visit_counters(&mut cl.nodes, &mut cl.fabric, &mut |c| counters.push(*c));
    cl.steady.phase = Phase::Check {
        base: mark,
        boundaries: mark.boundary - base.boundary,
        rounds,
        span,
        counters,
    };
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

/// The check period from `base` to `mark` is measured: skip as many whole
/// periods as the margin allows.
fn skip(cl: &mut Cluster, s: &mut ClusterSched, base: Mark, mark: Mark, mut delta: Vec<u64>) {
    let rounds = mark.round - base.round;
    let span = mark.at - base.at;
    let mut i = 0;
    let mut same_shape = true;
    visit_counters(
        &mut cl.nodes,
        &mut cl.fabric,
        &mut |c| match delta.get_mut(i) {
            Some(d) => {
                *d = *c - *d;
                i += 1;
            }
            None => same_shape = false,
        },
    );
    let periods = (min_left(&cl.nodes).saturating_sub(1) / rounds).saturating_sub(1);
    if !same_shape || i != delta.len() || periods == 0 {
        return;
    }
    let mut i = 0;
    visit_counters(&mut cl.nodes, &mut cl.fabric, &mut |c| {
        *c += periods * delta[i];
        i += 1;
    });
    drop(delta);
    let events = periods * (mark.fired - base.fired);
    s.add_fired(events);
    for p in programs_mut(&mut cl.nodes) {
        p.skip(periods * rounds);
    }
    // Pushed one by one, so the notes grow through the same capacities
    // as in a full run and the peak heap stays the same.
    let period_notes = base.notes..mark.notes;
    for j in 1..=periods {
        for i in period_notes.clone() {
            let note = cl.notes[i];
            let copy = shifted(&cl.nodes, &note, span * j, rounds * j);
            cl.notes.push(copy);
        }
    }
    let det = &mut cl.steady;
    det.shift = (span * periods, rounds * periods);
    det.skipped = Some(FastForward {
        periods,
        rounds: rounds * periods,
        events,
    });
}

/// Take a digest at the current boundary and charge it to the budget.
fn take_digest(cl: &mut Cluster, s: &ClusterSched, anchor_round: u64) -> Option<u128> {
    let mut scratch = std::mem::take(&mut cl.steady.scratch);
    let (value, items) = digest(cl, s, anchor_round, &mut scratch);
    let det = &mut cl.steady;
    det.scratch = scratch;
    det.digest_fired = s.fired();
    det.digest_items = items;
    value
}

/// The digest of a simulation at its current instant, rounds relative to
/// the anchor's (the first endpoint that recorded a note), or `None` when
/// nothing has been noted yet or some program, extension or pending event
/// cannot be hashed. Meant to be taken right after a boundary event.
pub fn state_digest(sim: &ClusterSim) -> Option<u128> {
    let cl = sim.world();
    let (round, _) = program(&cl.nodes, cl.steady.anchor?)?.progress();
    digest(cl, sim.scheduler(), round, &mut Scratch::default()).0
}

/// Fold every piece of state that can steer the future into one digest,
/// with the records it visited. `None` when some part cannot be hashed (a
/// program or extension without hooks, a program still waiting to start).
fn digest(
    cl: &Cluster,
    s: &ClusterSched,
    anchor: u64,
    scratch: &mut Scratch,
) -> (Option<u128>, u64) {
    let nodes = &cl.nodes;
    let mut h = StateHasher::new(s.now());
    // Every variable-length list is preceded by its length, so no two
    // states feed the hasher the same words.
    s.pending().hash(&mut h);
    let mut ok = true;
    s.visit_pending(&mut scratch.keys, |at, ev| {
        if ok {
            h.item();
            h.time(at);
            ok = event(nodes, &cl.parcels, anchor, ev, &mut h).is_some();
        }
    });
    let ok = ok && {
        cl.fabric.digest(&mut h, &mut scratch.times);
        (0..nodes.len()).all(|i| node(nodes, NodeId(i), anchor, &mut h).is_some())
    };
    (ok.then(|| h.finish128()), h.items())
}

/// One pending event, by payload.
fn event(
    nodes: &[Node],
    parcels: &Parcels,
    anchor: u64,
    ev: &ClusterEvent,
    h: &mut StateHasher,
) -> Option<()> {
    match ev {
        ClusterEvent::Transmit(pkt) => {
            h.word(1);
            packet(nodes, parcels.packets.get(*pkt), anchor, h)
        }
        ClusterEvent::WireDeliver { pkt, corrupted } => {
            h.word(2);
            corrupted.hash(h);
            packet(nodes, parcels.packets.get(*pkt), anchor, h)
        }
        ClusterEvent::HostDeliver { node, port, ev } => {
            h.word(3);
            (node, port).hash(h);
            gm_event(nodes, *node, *port, parcels.events.get(*ev), anchor, h)
        }
        ClusterEvent::HostProcess { node } => {
            h.word(4);
            node.hash(h);
            Some(())
        }
        ClusterEvent::McpTimer {
            node,
            kind: TimerKind::Rto { peer },
        } => {
            h.word(5);
            (node, peer).hash(h);
            Some(())
        }
        ClusterEvent::SendTokenReady { node, token } => {
            h.word(6);
            node.hash(h);
            match parcels.tokens.get(*token) {
                SendToken::Data {
                    src_port,
                    dst,
                    len,
                    tag,
                    notify,
                } => {
                    let src = GlobalPort {
                        node: *node,
                        port: *src_port,
                    };
                    (src_port, dst, len, notify).hash(h);
                    h.word(program(nodes, src)?.rebase_tag(*tag, anchor));
                }
                SendToken::Collective { src_port, token } => {
                    (src_port, &*token.schedule, token.value, token.team).hash(h);
                }
            }
            Some(())
        }
        ClusterEvent::ProvideRecv { node, port, n } => {
            h.word(7);
            (node, port, n).hash(h);
            Some(())
        }
        ClusterEvent::ClosePort { node, port } => {
            h.word(8);
            (node, port).hash(h);
            Some(())
        }
        ClusterEvent::StartProgram { .. } => None,
    }
}

/// The next sequence number of the stream `from -> to`: every sequence
/// number of that stream hashes relative to it.
fn next_tx(nodes: &[Node], from: NodeId, to: NodeId) -> Seq {
    nodes[from.0].mcp.core.conn(to).next_tx()
}

fn seq(h: &mut StateHasher, seq: Seq, base: Seq) {
    h.signed(seq.wrapping_sub(base) as i64);
}

/// A reliable packet's kind, its sequence number relative to `base` and
/// its tag rebased by the sending program on `src`.
fn reliable_kind(
    nodes: &[Node],
    src: GlobalPort,
    kind: &PacketKind,
    base: Seq,
    anchor: u64,
    h: &mut StateHasher,
) -> Option<()> {
    match *kind {
        PacketKind::Data {
            seq: s,
            len,
            tag,
            notify,
        } => {
            h.word(1);
            seq(h, s, base);
            (len, notify).hash(h);
            h.word(program(nodes, src)?.rebase_tag(tag, anchor));
        }
        PacketKind::Ext { seq: s, body } => {
            h.word(4);
            match s {
                Some(s) => {
                    h.word(1);
                    seq(h, s, base);
                }
                None => h.word(0),
            }
            body.hash(h);
        }
        // Acks and nacks name sequence numbers of the reverse stream.
        PacketKind::Ack { ack } => {
            h.word(2);
            seq(h, ack, base);
        }
        PacketKind::Nack { expected } => {
            h.word(3);
            seq(h, expected, base);
        }
    }
    Some(())
}

/// A packet anywhere between the SEND machine and the RECV machine.
fn packet(nodes: &[Node], pkt: &Packet, anchor: u64, h: &mut StateHasher) -> Option<()> {
    let (src, dst) = (pkt.src, pkt.dst);
    (src, dst).hash(h);
    let base = match pkt.kind {
        PacketKind::Ack { .. } | PacketKind::Nack { .. } => next_tx(nodes, dst.node, src.node),
        _ => next_tx(nodes, src.node, dst.node),
    };
    reliable_kind(nodes, src, &pkt.kind, base, anchor, h)
}

/// A host event delivered (or on its way) to `node`'s `port`.
fn gm_event(
    nodes: &[Node],
    node: NodeId,
    port: PortId,
    ev: &GmEvent,
    anchor: u64,
    h: &mut StateHasher,
) -> Option<()> {
    match *ev {
        GmEvent::Recv { src, len, tag } => {
            h.word(1);
            (src, len).hash(h);
            h.word(program(nodes, src)?.rebase_tag(tag, anchor));
        }
        GmEvent::Sent { tag } => {
            h.word(2);
            h.word(program(nodes, GlobalPort { node, port })?.rebase_tag(tag, anchor));
        }
        other => {
            h.word(3);
            other.hash(h);
        }
    }
    Some(())
}

/// One node: host, NIC hardware, ports, connections, extension, programs.
fn node(nodes: &[Node], id: NodeId, anchor: u64, h: &mut StateHasher) -> Option<()> {
    let n = &nodes[id.0];
    h.item();
    h.horizon(n.host.busy_until());
    (n.host.is_processing(), n.host.queue_depth()).hash(h);
    for &(port, ev) in n.host.queued() {
        h.item();
        port.hash(h);
        gm_event(nodes, id, port, &ev, anchor, h)?;
    }
    let core = &n.mcp.core;
    core.hw.digest(h);
    for p in 0..GM_NUM_PORTS {
        core.port(PortId(p)).hash(h);
    }
    core.connections().count().hash(h);
    for conn in core.connections() {
        let peer = conn.peer();
        h.item();
        peer.hash(h);
        seq(h, conn.expect_rx(), next_tx(nodes, peer, id));
        (
            conn.timer_armed(),
            conn.backoff_level(),
            conn.attempts(),
            conn.is_dead(),
        )
            .hash(h);
        // The RTO deadline anchors on the later of the oldest unacked
        // transmission and the peer's last activity. Both only move
        // forward, so an activity before the oldest send never matters
        // again, and with nothing in flight no past activity does.
        match conn.oldest_unacked() {
            Some(oldest) => {
                h.word(1);
                h.time(conn.last_peer_activity().max(oldest.sent_at));
            }
            None => h.word(0),
        }
        conn.in_flight().hash(h);
        for e in conn.sent_entries() {
            h.item();
            h.time(e.sent_at);
            (e.packet.src_port, e.packet.dst_port).hash(h);
            let src = GlobalPort {
                node: id,
                port: e.packet.src_port,
            };
            reliable_kind(nodes, src, &e.packet.kind, conn.next_tx(), anchor, h)?;
        }
    }
    n.mcp.ext().steady()?.digest(h);
    for slot in &n.programs {
        match slot.as_deref() {
            None => h.word(0),
            Some(p) => {
                h.item();
                p.steady()?.digest(anchor, h);
            }
        }
    }
    Some(())
}

/// Visit every output counter of the cluster, in a fixed order.
fn visit_counters(nodes: &mut [Node], fabric: &mut Fabric, f: &mut dyn FnMut(&mut u64)) {
    fabric.visit_counters(f);
    for n in nodes {
        n.mcp.core.visit_counters(f);
        n.host.visit_counters(f);
        if let Some(ext) = n.mcp.ext_mut().steady_mut() {
            ext.visit_counters(f);
        }
    }
}
