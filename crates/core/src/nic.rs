//! The NIC-based barrier firmware extension (§4–5 of the paper).
//!
//! This is the paper's contribution: collective logic executing inside the
//! MCP. The host posts a single collective send token
//! ([`gmsim_gm::CollectiveToken`]) carrying a compiled
//! [`CollectiveSchedule`]; from then on "as soon as a NIC receives a
//! barrier message, the message to the next process can be sent directly"
//! (§2.1) — no host round trips until the final completion RDMA.
//!
//! The extension is a *schedule interpreter*: it walks the token's IR
//! program — send steps, receive steps, a completion delivery — charging
//! LANai cycles per step from the calibrated [`BarrierCosts`] table. Which
//! algorithm the program encodes (PE, GB, dissemination, a reduction, a
//! scan) is invisible here; the compiler in [`crate::schedule`] decided
//! that on the host, exactly as §5.1 argues.
//!
//! Design choices mapped to the paper:
//!
//! * **State in the send token, pointer in the port** (§4.2): each port
//!   slot holds at most one `Run` — the paper's "send token pointer in
//!   the port data structure", and what makes *multiple concurrent
//!   collectives* (one per port) work.
//! * **Unexpected messages** (§3.1/4.3): every arriving collective packet
//!   is first recorded in the per-(port, endpoint) bit array, then the
//!   addressed port's interpreter is *poked* and consumes the record if it
//!   is one it is waiting for. Recording-then-poking makes early, late and
//!   out-of-order arrivals all take the same code path.
//! * **Closed ports** (§3.2): packets for closed ports are recorded; when
//!   the port opens, every record is *rejected* back to its sender, which
//!   resends iff its own port epoch still matches ("but only if the
//!   endpoint that initiated the barrier has not closed since the message
//!   was sent").
//! * **Same-NIC optimization** (§3.4): when the peer endpoint lives on this
//!   NIC, "a barrier message need not actually be sent, but rather just
//!   have a flag set". Local deliveries go through a work queue drained at
//!   the end of each firmware entry point, so co-located endpoints chain
//!   without unbounded recursion.
//! * **Completion order** (§5.2): the compiler places the completion step
//!   *before* any trailing broadcast forwarding, so the completion is
//!   DMAed to the host first, exactly as the paper describes for both the
//!   root and interior GB nodes.

use crate::unexpected::{RecordMeta, UnexpectedRecord};
use gmsim_des::trace::{TracePayload, Unit};
use gmsim_des::{Counter, Histogram, SimTime, Walk};
use gmsim_gm::{
    Charge, CollectiveSchedule, CollectiveToken, CompletionKind, ExtPacket, GlobalPort, GmConfig,
    GmEvent, McpCore, McpExtension, McpOutput, NodeId, PortId, ScheduleStep, TeamId, TokenCharge,
    GM_NUM_PORTS,
};
use std::any::Any;
use std::collections::VecDeque;

pub use crate::schedule::pkt;

/// Firmware cycle costs of the barrier extension handlers, resolved
/// against the symbolic [`Charge`] annotations of compiled schedules.
///
/// PE costs are calibrated so the simulated latencies land on the paper's
/// published numbers; GB costs reflect the heavier per-hop tree bookkeeping
/// the paper blames for GB's worse two-node latency (§6: "because of the
/// overhead of processing the barrier algorithm at the NIC").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarrierCosts {
    /// PE-style (`TokenCharge::Light`) collective-token pickup.
    pub pe_token_cycles: u64,
    /// PE send half-step: prepare the packet for the current destination
    /// and queue the token (§5.2's SDMA-side work).
    pub pe_send_cycles: u64,
    /// PE match half-step: clear the bit, bump the node index, write the
    /// next destination, re-queue (§5.2's RDMA-side five-step update).
    pub pe_match_cycles: u64,
    /// Tree (`TokenCharge::Tree`) collective-token pickup.
    pub gb_token_cycles: u64,
    /// Consuming one gather message (tree walk + combine).
    pub gb_gather_cycles: u64,
    /// Re-queueing the token for one broadcast child.
    pub gb_child_cycles: u64,
    /// Recording an unexpected message (bit set).
    pub record_cycles: u64,
    /// Same-NIC optimization: setting the local flag instead of sending.
    pub local_flag_cycles: u64,
}

impl BarrierCosts {
    /// Calibrated against the paper's LANai 4.3 / 7.2 measurements
    /// (DESIGN.md §9 and EXPERIMENTS.md).
    pub const GM_1_2_3: BarrierCosts = BarrierCosts {
        pe_token_cycles: 40,
        pe_send_cycles: 215,
        pe_match_cycles: 205,
        // GB's token is far heavier than PE's: the firmware must parse the
        // parent/children neighbourhood and set up tree state, and the
        // LANai is slow — this is the §6 "overhead of processing the
        // barrier algorithm at the NIC" that makes NIC-GB lose to host-GB
        // at two nodes. Per-hop costs are PE-like.
        gb_token_cycles: 1420,
        gb_gather_cycles: 60,
        gb_child_cycles: 70,
        record_cycles: 30,
        local_flag_cycles: 60,
    };

    /// Cycles charged for a step with the given symbolic cost.
    pub fn step_cycles(&self, charge: Charge) -> u64 {
        match charge {
            Charge::ExchangeSend => self.pe_send_cycles,
            Charge::ExchangeMatch => self.pe_match_cycles,
            Charge::Gather => self.gb_gather_cycles,
            Charge::ChildSend => self.gb_child_cycles,
            Charge::Free => 0,
        }
    }

    /// Cycles charged for picking up a collective token.
    pub fn token_cycles(&self, charge: TokenCharge) -> u64 {
        match charge {
            TokenCharge::Light => self.pe_token_cycles,
            TokenCharge::Tree => self.gb_token_cycles,
        }
    }
}

/// Bin width, in microseconds, of the per-packet NIC turnaround histogram
/// kept by [`BarrierExtension`]. Shared with the testbed's aggregation so
/// per-node histograms merge without rebinning.
pub const TURNAROUND_BIN_US: f64 = 0.25;
/// Bin count of the per-packet NIC turnaround histogram (covers 0–64 µs).
pub const TURNAROUND_BINS: usize = 256;

/// Extension counters (per NIC).
#[derive(Debug, Clone, Copy, Default)]
pub struct BarrierStats {
    /// Collectives completed on this NIC (events delivered to hosts).
    pub completions: u64,
    /// PE packets handled (sent or locally flagged).
    pub pe_msgs: u64,
    /// Gather packets handled.
    pub gather_msgs: u64,
    /// Broadcast packets handled.
    pub bcast_msgs: u64,
    /// Scan packets handled.
    pub scan_msgs: u64,
    /// Same-NIC short-circuits taken (§3.4 optimization).
    pub local_flags: u64,
    /// §3.2 rejections sent on port open.
    pub rejects_sent: u64,
    /// §3.2 rejections received.
    pub rejects_received: u64,
    /// Messages resent in response to a rejection.
    pub resends: u64,
    /// Rejections ignored as stale (sender's port closed/reopened since).
    pub stale_rejects: u64,
    /// Collectives aborted by a port close.
    pub aborted: u64,
    /// Packets whose team had no active run on an open port while *other*
    /// teams' collectives were in flight there — each one is a
    /// cross-delivery the per-team state machine refused to consume.
    /// Always zero on single-team traffic.
    pub cross_team_rejects: u64,
    /// High-water mark of collectives simultaneously in flight on this
    /// NIC across all (port, team) slots.
    pub concurrent_peak: u64,
}

/// An in-flight interpreted collective on one (port, team) — the paper's
/// "send token pointer", generalized to one pointer per communicator. The
/// schedule is the program (shared with the token that posted it — no
/// copy); `pc` the current step; `outstanding` the peers of the current
/// receive step still owing a packet (meaningful only while `parked`);
/// `acc` the value accumulator (operand in, result out).
#[derive(Debug, Clone, Hash)]
struct Run {
    team: TeamId,
    schedule: std::sync::Arc<CollectiveSchedule>,
    pc: usize,
    outstanding: Vec<GlobalPort>,
    parked: bool,
    acc: u64,
    /// Per-segment accumulators for pipelined payloads (empty when the
    /// schedule has at most one segment — the barrier/eager fast path,
    /// which stays allocation-free). Each segment is an independent
    /// combine lane, so segmented reductions are combine-order-identical
    /// to the unsegmented oracle lane by lane.
    seg_accs: Vec<u64>,
    /// True once this rank's payload is staged in NIC SRAM — either
    /// fetched over SDMA for a first send, or landed from the wire — so
    /// tree forwarding and later scan rounds never re-fetch from host
    /// memory (the NIC-offload win: interior nodes forward from SRAM).
    payload_staged: bool,
}

/// The last collective message sent to a peer from a port. Kept (bounded:
/// one entry per (port, peer, kind)) *beyond* the collective's completion
/// so the §3.2 reject/resend protocol also works for messages whose sender
/// has no in-flight state left — a GB broadcast after the root exited, or
/// a reduce contribution after the leaf completed locally. Cleared when
/// the port closes, which is exactly the paper's "but only if the endpoint
/// that initiated the barrier has not closed since the message was sent".
/// The kind and segment live in the entry's [`sent_key`].
#[derive(Debug, Clone, Copy, Hash)]
struct SentRecord {
    epoch: u32,
    len: u32,
    value: u64,
}

/// Bit offset of the sending port in a [`sent_key`].
const SENT_KEY_PORT_SHIFT: u32 = 112;

/// The sent cache's key, packed high to low as sending port (8 bits), team
/// (32), destination node (32), destination port (8), packet kind (8) and
/// segment (32): one integer compare per binary-search probe instead of a
/// five-field tuple walk. Node ids fit 32 bits ([`McpCore::new`] asserts
/// the cluster does).
fn sent_key(port: PortId, team: TeamId, dst: GlobalPort, kind: u8, seg: u32) -> u128 {
    (port.0 as u128) << SENT_KEY_PORT_SHIFT
        | (team.0 as u128) << 80
        | (dst.node.0 as u32 as u128) << 48
        | (dst.port.0 as u128) << 40
        | (kind as u128) << 32
        | seg as u128
}

/// A locally-delivered packet awaiting processing (same-NIC optimization).
struct LocalDelivery {
    src: GlobalPort,
    dst: GlobalPort,
    ext_type: u8,
    team: TeamId,
    epoch: u32,
    value: u64,
    seg: u32,
    at: SimTime,
}

/// The barrier/collective firmware extension: the NIC-side interpreter of
/// compiled [`CollectiveSchedule`] programs.
pub struct BarrierExtension {
    costs: BarrierCosts,
    /// Per-port run lists: one [`Run`] per team concurrently active on the
    /// port. Single-team traffic keeps each list at length ≤ 1, which is
    /// exactly the paper's one-pointer-per-port layout, and a port's first
    /// collective reserves room for that one run only.
    slots: Vec<Vec<Run>>,
    /// The §3.1 unexpected-message record.
    pub record: UnexpectedRecord,
    /// Counters.
    pub stats: BarrierStats,
    local_queue: VecDeque<LocalDelivery>,
    /// Last message sent per (port, team, peer, packet kind, segment) —
    /// kind-keyed so a lost BCAST and a lost PE to the same peer are both
    /// resendable, team-keyed so overlapping teams never resend each
    /// other's flags, and segment-keyed so a rejected pipelined stream
    /// re-sends every rejected segment rather than `segs` copies of the
    /// last one (which would starve the other combine lanes of that
    /// peer's contribution). Sorted by [`sent_key`] and grown one entry at
    /// a time: a PE barrier touches about log2 N keys per port, and
    /// steady-state rounds only overwrite them.
    sent_cache: Vec<(u128, SentRecord)>,
    /// Every team that has posted a collective on this NIC, in first-seen
    /// order.
    teams_seen: Vec<TeamId>,
    /// Retired `Run::outstanding` buffers, recycled into the next
    /// collective so steady-state rounds never allocate fresh peer lists.
    spare_outstanding: Vec<Vec<GlobalPort>>,
    /// Retired `Run::seg_accs` buffers, recycled so steady-state pipelined
    /// collectives never allocate fresh lane vectors. Barriers and eager
    /// payloads never touch this (their `seg_accs` stays empty).
    spare_seg_accs: Vec<Vec<u64>>,
    /// Per-packet NIC turnaround: wire arrival of a collective packet to the
    /// firmware being done with it (the paper's per-round NIC cost). Bins
    /// are stored only up to the highest one recorded, so a NIC that never
    /// sees a collective packet holds none, and recording allocates only
    /// when a turnaround lands past every bin seen so far (a handful of
    /// times per NIC, never in steady state).
    turnaround: Histogram,
}

impl BarrierExtension {
    /// An extension for a cluster of `nodes` nodes with calibrated costs.
    pub fn new(nodes: usize) -> Self {
        Self::with_costs(nodes, BarrierCosts::GM_1_2_3)
    }

    /// An extension with explicit costs (for ablations).
    pub fn with_costs(nodes: usize, costs: BarrierCosts) -> Self {
        BarrierExtension {
            costs,
            slots: (0..GM_NUM_PORTS).map(|_| Vec::new()).collect(),
            record: UnexpectedRecord::new(nodes),
            stats: BarrierStats::default(),
            local_queue: VecDeque::new(),
            sent_cache: Vec::new(),
            teams_seen: Vec::new(),
            spare_outstanding: Vec::new(),
            spare_seg_accs: Vec::new(),
            turnaround: Histogram::new(TURNAROUND_BIN_US, TURNAROUND_BINS),
        }
    }

    /// Per-packet NIC turnaround histogram (µs).
    pub fn turnaround(&self) -> &Histogram {
        &self.turnaround
    }

    /// A factory for [`gmsim_gm::cluster::ClusterBuilder::extension`].
    pub fn factory() -> impl Fn(NodeId, usize, &GmConfig) -> Box<dyn McpExtension> {
        |_, size, _| Box::new(BarrierExtension::new(size))
    }

    /// A factory with explicit costs.
    pub fn factory_with_costs(
        costs: BarrierCosts,
    ) -> impl Fn(NodeId, usize, &GmConfig) -> Box<dyn McpExtension> {
        move |_, size, _| Box::new(BarrierExtension::with_costs(size, costs))
    }

    /// Is any collective currently active on `port`?
    pub fn is_active(&self, port: PortId) -> bool {
        !self.slots[port.idx()].is_empty()
    }

    /// Is `team`'s collective currently active on `port`?
    pub fn is_active_team(&self, port: PortId, team: TeamId) -> bool {
        self.slots[port.idx()].iter().any(|r| r.team == team)
    }

    /// Every team that has posted a collective on this NIC, in first-seen
    /// order.
    pub fn teams_seen(&self) -> &[TeamId] {
        &self.teams_seen
    }

    // ---- packet egress ---------------------------------------------------

    /// Send (or locally flag) one collective packet from `port` to `dst`
    /// on behalf of `team`. On the wire the team id rides the high half of
    /// the packet's `a` word, above the epoch — zero for [`TeamId::GLOBAL`],
    /// so single-team traffic is bit-identical to the pre-team encoding.
    /// Data-carrying collectives pass the segment index and its byte count;
    /// barriers pass `(0, 0)` and put exactly the classic 17 bytes on the
    /// wire.
    #[allow(clippy::too_many_arguments)] // firmware handler plumbing
    fn emit(
        &mut self,
        core: &mut McpCore,
        port: PortId,
        team: TeamId,
        dst: GlobalPort,
        ext_type: u8,
        value: u64,
        seg: u32,
        seg_len: u32,
        ready: SimTime,
        out: &mut Vec<McpOutput>,
    ) {
        match ext_type {
            pkt::PE => self.stats.pe_msgs += 1,
            pkt::GATHER => self.stats.gather_msgs += 1,
            pkt::BCAST => self.stats.bcast_msgs += 1,
            pkt::SCAN => self.stats.scan_msgs += 1,
            _ => {}
        }
        let epoch = core.port(port).epoch();
        let rec = SentRecord {
            epoch,
            len: seg_len,
            value,
        };
        let key = sent_key(port, team, dst, ext_type, seg);
        match self.sent_cache.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => self.sent_cache[i].1 = rec,
            Err(i) => {
                self.sent_cache.reserve_exact(1);
                self.sent_cache.insert(i, (key, rec));
            }
        }
        if dst.node == core.node() && core.config().same_nic_optimization {
            // §3.4: co-located peer — set the flag, skip the wire.
            let t = core.exec(self.costs.local_flag_cycles, ready);
            self.stats.local_flags += 1;
            core.trace(
                t,
                Unit::Ext,
                TracePayload::BarrierSend {
                    peer: dst.node.0 as u32,
                    kind: ext_type,
                    local: true,
                },
            );
            self.local_queue.push_back(LocalDelivery {
                src: GlobalPort {
                    node: core.node(),
                    port,
                },
                dst,
                ext_type,
                team,
                epoch,
                value,
                seg,
                at: t,
            });
        } else {
            core.trace(
                ready,
                Unit::Ext,
                TracePayload::BarrierSend {
                    peer: dst.node.0 as u32,
                    kind: ext_type,
                    local: false,
                },
            );
            core.send_ext(
                port,
                dst,
                ExtPacket::new(ext_type, Self::pack_a(team, epoch), value)
                    .with_segment(seg, seg_len),
                ready,
                out,
            );
        }
    }

    /// Pack the wire `a` word: team id in the high 32 bits, port epoch in
    /// the low 32. [`TeamId::GLOBAL`] packs to the bare epoch.
    fn pack_a(team: TeamId, epoch: u32) -> u64 {
        ((team.0 as u64) << 32) | epoch as u64
    }

    /// Drain locally-flagged deliveries (run at the end of every entry
    /// point; items may enqueue further items).
    fn drain_local(&mut self, core: &mut McpCore, out: &mut Vec<McpOutput>) {
        while let Some(d) = self.local_queue.pop_front() {
            self.accept(
                core, d.src, d.dst, d.ext_type, d.team, d.epoch, d.value, d.seg, d.at, out,
            );
        }
    }

    // ---- packet ingress --------------------------------------------------

    /// Shared ingress for wire and local packets: record, then poke the
    /// addressed port's interpreter. No collective-specific logic lives
    /// here — what the packet *means* is decided by the schedule step that
    /// eventually consumes its record.
    #[allow(clippy::too_many_arguments)]
    fn accept(
        &mut self,
        core: &mut McpCore,
        src: GlobalPort,
        dst: GlobalPort,
        ext_type: u8,
        team: TeamId,
        epoch: u32,
        value: u64,
        seg: u32,
        now: SimTime,
        out: &mut Vec<McpOutput>,
    ) {
        if ext_type == pkt::REJECT {
            // A REJECT's value word names the kind of the rejected message;
            // its segment word names the rejected segment.
            self.handle_reject(core, src, dst.port, team, epoch, value as u8, seg, now, out);
            return;
        }
        let t = core.exec(self.costs.record_cycles, now);
        core.trace(
            t,
            Unit::Ext,
            TracePayload::BarrierRecv {
                peer: src.node.0 as u32,
                kind: ext_type,
            },
        );
        self.record.set(
            dst.port,
            src,
            RecordMeta {
                team,
                kind: ext_type,
                epoch,
                value,
                seg,
            },
        );
        // A closed port keeps the record until it opens (§3.2).
        if core.port(dst.port).is_open() {
            self.interpret(core, dst.port, team, t, out);
        }
    }

    // ---- the schedule interpreter ----------------------------------------

    /// Advance `team`'s program on `port` as far as the unexpected record
    /// allows: emit send steps, consume available receive records, deliver
    /// completions, and park on a receive still owed packets. Other teams'
    /// runs on the same port are untouched — a poke for a team with no run
    /// while others are active is counted as a cross-team reject.
    ///
    /// The [`Run`] is taken out of the slot for the duration (nothing called
    /// from here re-reads the slot), so steps are matched by reference —
    /// no per-step clone of the schedule's peer lists.
    fn interpret(
        &mut self,
        core: &mut McpCore,
        port: PortId,
        team: TeamId,
        now: SimTime,
        out: &mut Vec<McpOutput>,
    ) {
        let mut t = now;
        let Some(pos) = self.slots[port.idx()].iter().position(|r| r.team == team) else {
            if !self.slots[port.idx()].is_empty() {
                // The packet's flag stays recorded for its own team; the
                // active teams on this port refused to consume it.
                self.stats.cross_team_rejects += 1;
            }
            return;
        };
        let mut run = self.slots[port.idx()].swap_remove(pos);
        loop {
            if run.pc == run.schedule.steps.len() {
                // Program exhausted: drop the token pointer (§4.2 "sets the
                // send token pointer in the port data structure to zero"),
                // keeping its outstanding buffer for the next collective.
                run.outstanding.clear();
                self.spare_outstanding
                    .push(std::mem::take(&mut run.outstanding));
                if !run.seg_accs.is_empty() {
                    run.seg_accs.clear();
                    self.spare_seg_accs.push(std::mem::take(&mut run.seg_accs));
                }
                return;
            }
            match &run.schedule.steps[run.pc] {
                ScheduleStep::SendTo {
                    peers,
                    kind,
                    charge,
                } => {
                    let (kind, charge) = (*kind, *charge);
                    let payload = run.schedule.payload;
                    let segs = payload.segments().get();
                    // Segment-major pipelining: segment 0 goes to every peer
                    // before segment 1 is touched, so a downstream node can
                    // start forwarding segment 0 while we still fetch later
                    // segments — the eager/pipelined crossover the payload
                    // study measures. Barriers and eager payloads take this
                    // loop with `segs == 1` and are step-identical to the
                    // classic path.
                    for seg in 0..segs {
                        let seg_len = payload.seg_len(seg).get() as u32;
                        if seg_len > 0 && !run.payload_staged {
                            // Payload not yet in NIC SRAM: fetch this
                            // segment from host memory over the SDMA engine
                            // before anything can go on the wire.
                            t = core.hw.sdma.begin(seg_len as usize, t);
                        }
                        let value = if run.seg_accs.is_empty() {
                            run.acc
                        } else {
                            run.seg_accs[seg as usize]
                        };
                        for &peer in peers.iter() {
                            let cycles = self.costs.step_cycles(charge);
                            if cycles > 0 {
                                t = core.exec(cycles, t);
                            }
                            self.emit(core, port, team, peer, kind, value, seg, seg_len, t, out);
                        }
                    }
                    if !payload.is_empty() {
                        run.payload_staged = true;
                    }
                    run.pc += 1;
                }
                ScheduleStep::RecvFrom {
                    peers,
                    kind,
                    combine,
                    charge,
                } => {
                    let (kind, combine, charge) = (*kind, *combine, *charge);
                    let payload = run.schedule.payload;
                    let segs = payload.segments().get();
                    // The peer list is copied into the run's reusable
                    // buffer on the step's first visit; parked state keeps
                    // whatever is still outstanding in place. A pipelined
                    // payload arrives as `segs` packets per peer, each
                    // consuming one entry — the wire is reliable and
                    // ordered, so per-peer segments drain FIFO.
                    if !run.parked {
                        run.outstanding.clear();
                        for _ in 0..segs {
                            run.outstanding.extend_from_slice(peers);
                        }
                    }
                    // Consume every peer whose packet is already recorded, in
                    // one pass. No record arrives while this call runs, so
                    // an entry that found none here would find none on a
                    // second pass either; each entry of a peer owed several
                    // segments consumes its own record.
                    let mut staged = false;
                    let record = &mut self.record;
                    let costs = &self.costs;
                    let acc = &mut run.acc;
                    let seg_accs = &mut run.seg_accs;
                    run.outstanding.retain(|peer| {
                        let Some(meta) = record.check_clear(port, team, *peer, kind) else {
                            return true;
                        };
                        let cycles = costs.step_cycles(charge);
                        if cycles > 0 {
                            t = core.exec(cycles, t);
                        }
                        // Each segment is an independent combine lane, so
                        // segmented reductions apply operands in the same
                        // per-lane order as the unsegmented oracle.
                        let lane = if seg_accs.is_empty() {
                            &mut *acc
                        } else {
                            &mut seg_accs[meta.seg as usize]
                        };
                        *lane = match combine {
                            Some(op) => op.combine(*lane, meta.value),
                            None => meta.value,
                        };
                        let seg_len = payload.seg_len(meta.seg).as_usize();
                        if seg_len > 0 {
                            // The landed segment crosses to host memory over
                            // RDMA. The engine's busy window serializes the
                            // completion DMA behind the data, but forwarding
                            // runs from NIC SRAM and need not wait — so `t`
                            // does not advance here.
                            let _ = core.hw.rdma.begin(seg_len, t);
                            staged = true;
                        }
                        false
                    });
                    if staged {
                        // Wire data is now resident in NIC SRAM: later
                        // SendTo steps (tree forwarding, scan rounds)
                        // re-send it without another host fetch.
                        run.payload_staged = true;
                    }
                    if run.outstanding.is_empty() {
                        run.parked = false;
                        run.pc += 1;
                    } else {
                        // Park until more packets arrive and poke us.
                        run.parked = true;
                        self.slots[port.idx()].push(run);
                        return;
                    }
                }
                ScheduleStep::DeliverCompletion(kind) => {
                    // Segmented runs report lane 0 — the oracle's value for
                    // the first segment, which the property tests check
                    // against the unsegmented run.
                    let acc = if run.seg_accs.is_empty() {
                        run.acc
                    } else {
                        run.seg_accs[0]
                    };
                    let ev = match kind {
                        CompletionKind::Barrier => GmEvent::BarrierComplete { team },
                        CompletionKind::Broadcast => GmEvent::BroadcastComplete { value: acc },
                        CompletionKind::Reduce => GmEvent::ReduceComplete { value: acc },
                        CompletionKind::Scan => GmEvent::ScanComplete { value: acc },
                    };
                    // §5.2 completion sequence: consume the barrier buffer
                    // the host provided (`gm_provide_barrier_buffer`),
                    // return the send token, DMA the completion event. Any
                    // trailing forwarding steps run after this.
                    core.port_mut(port).take_barrier_buffer();
                    core.port_mut(port).return_send_token();
                    self.stats.completions += 1;
                    core.complete_to_host(port, ev, t, out);
                    run.pc += 1;
                }
            }
        }
    }

    // ---- §3.2 rejection protocol ------------------------------------------

    /// A REJECT arrived: the endpoint `rejecter` had recorded our message
    /// while its port was closed, and has now flushed it. Resend iff we are
    /// still the same process (`epoch` matches) and the collective is still
    /// in flight.
    #[allow(clippy::too_many_arguments)]
    fn handle_reject(
        &mut self,
        core: &mut McpCore,
        rejecter: GlobalPort,
        port: PortId,
        team: TeamId,
        epoch: u32,
        kind: u8,
        seg: u32,
        now: SimTime,
        out: &mut Vec<McpOutput>,
    ) {
        self.stats.rejects_received += 1;
        let t = core.exec(self.costs.record_cycles, now);
        if !core.port(port).is_open() || core.port(port).epoch() != epoch {
            self.stats.stale_rejects += 1;
            return;
        }
        // The sent cache remembers the last message of each (kind, segment)
        // this (still-alive) process sent to the rejecter, whether or not
        // the collective that produced it is still in flight.
        let key = sent_key(port, team, rejecter, kind, seg);
        match self.sent_cache.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) if self.sent_cache[i].1.epoch == epoch => {
                let rec = self.sent_cache[i].1;
                self.stats.resends += 1;
                self.emit(
                    core, port, team, rejecter, kind, rec.value, seg, rec.len, t, out,
                );
            }
            _ => self.stats.stale_rejects += 1,
        }
    }
}

impl McpExtension for BarrierExtension {
    fn on_collective_token(
        &mut self,
        core: &mut McpCore,
        port: PortId,
        token: CollectiveToken,
        now: SimTime,
        out: &mut Vec<McpOutput>,
    ) {
        let team = token.team;
        assert!(
            !self.is_active_team(port, team),
            "port {port:?} already has an active collective for team {team:?}"
        );
        let t = core.exec(self.costs.token_cycles(token.schedule.token_charge), now);
        if !self.teams_seen.contains(&team) {
            self.teams_seen.push(team);
        }
        let segs = token.schedule.payload.segments().get();
        let seg_accs = if segs > 1 {
            // One combine lane per segment, each seeded with this rank's
            // operand — exactly what `acc` holds for the unsegmented case.
            let mut lanes = self.spare_seg_accs.pop().unwrap_or_default();
            lanes.clear();
            lanes.resize(segs as usize, token.value);
            lanes
        } else {
            Vec::new()
        };
        let runs = &mut self.slots[port.idx()];
        if runs.capacity() == 0 {
            // A port's first collective: room for exactly the one run the
            // paper's per-port pointer holds (std would reserve four).
            runs.reserve_exact(1);
        }
        runs.push(Run {
            team,
            schedule: token.schedule,
            pc: 0,
            outstanding: self.spare_outstanding.pop().unwrap_or_default(),
            parked: false,
            acc: token.value,
            seg_accs,
            payload_staged: false,
        });
        let active: usize = self.slots.iter().map(Vec::len).sum();
        self.stats.concurrent_peak = self.stats.concurrent_peak.max(active as u64);
        self.interpret(core, port, team, t, out);
        self.drain_local(core, out);
    }

    fn on_ext_packet(
        &mut self,
        core: &mut McpCore,
        src: GlobalPort,
        dst: GlobalPort,
        body: ExtPacket,
        now: SimTime,
        out: &mut Vec<McpOutput>,
    ) {
        self.accept(
            core,
            src,
            dst,
            body.ext_type,
            TeamId((body.a >> 32) as u32),
            body.a as u32,
            body.b,
            body.seg,
            now,
            out,
        );
        self.drain_local(core, out);
        // Per-round NIC turnaround: packet arrival to the firmware having
        // finished everything this packet triggered (record, interpreter
        // steps, forwarded sends). This is the paper's per-round NIC cost.
        let done = core.hw.cpu.busy_until();
        self.turnaround.record(done.saturating_sub(now).as_us_f64());
    }

    fn on_port_open(
        &mut self,
        core: &mut McpCore,
        port: PortId,
        now: SimTime,
        out: &mut Vec<McpOutput>,
    ) {
        // §3.2: flush every message recorded while the port was closed back
        // to its sender.
        let mut t = now;
        for (from, meta) in self.record.drain_port(port) {
            t = core.exec(self.costs.record_cycles, t);
            self.stats.rejects_sent += 1;
            core.send_ext(
                port,
                from,
                ExtPacket::new(
                    pkt::REJECT,
                    Self::pack_a(meta.team, meta.epoch),
                    meta.kind as u64,
                )
                .with_segment(meta.seg, 0),
                t,
                out,
            );
        }
        self.drain_local(core, out);
    }

    fn on_port_close(
        &mut self,
        _core: &mut McpCore,
        port: PortId,
        _now: SimTime,
        _out: &mut Vec<McpOutput>,
    ) {
        for mut run in self.slots[port.idx()].drain(..) {
            self.stats.aborted += 1;
            run.outstanding.clear();
            self.spare_outstanding
                .push(std::mem::take(&mut run.outstanding));
            if !run.seg_accs.is_empty() {
                run.seg_accs.clear();
                self.spare_seg_accs.push(std::mem::take(&mut run.seg_accs));
            }
        }
        self.sent_cache
            .retain(|&(key, _)| (key >> SENT_KEY_PORT_SHIFT) as u8 != port.0);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn steady(&self) -> Option<&dyn Walk> {
        Some(self)
    }

    fn steady_mut(&mut self) -> Option<&mut dyn Walk> {
        Some(self)
    }
}

// Barrier packets carry a per-peer flag and a port epoch, no round number,
// so nothing here needs rebasing.
gmsim_des::walk! {
    impl Walk for BarrierExtension {
        costs: scratch("fixed at build"),
        slots: state(h => for runs in slots {
            runs.len().hash(h);
            for run in runs {
                h.item();
                run.hash(h);
            }
        }),
        record, stats, turnaround: walk(),
        local_queue: scratch("drained before every firmware entry point returns"),
        sent_cache: state(h => {
            sent_cache.len().hash(h);
            for entry in sent_cache {
                h.item();
                entry.hash(h);
            }
        }),
        teams_seen: scratch("feeds TeamsCreated, which counts distinct ids"),
        spare_outstanding, spare_seg_accs: scratch("recycled buffers"),
    }
}

gmsim_des::walk! {
    impl Walk for BarrierStats {
        pe_msgs, gather_msgs, bcast_msgs, scan_msgs: counter,
        rejects_received, stale_rejects, aborted: counter,
        completions: counter(Counter::BarrierCompletions),
        local_flags: counter(Counter::LocalFlags),
        rejects_sent: counter(Counter::RejectsSent),
        resends: counter(Counter::BarrierResends),
        cross_team_rejects: counter(Counter::CrossTeamRejects),
        concurrent_peak: scratch("a high-water mark, which a repeated period leaves as it is"),
    }
}

/// Convenience: the unexpected-record stats on `node` of a cluster.
pub fn record_stats_of(cluster: &gmsim_gm::Cluster, node: usize) -> crate::unexpected::RecordStats {
    cluster.nodes[node]
        .mcp
        .ext()
        .as_any()
        .downcast_ref::<BarrierExtension>()
        .expect("BarrierExtension not installed")
        .record
        .stats
}

/// Convenience: the extension's stats on `node` of a cluster.
pub fn stats_of(cluster: &gmsim_gm::Cluster, node: usize) -> BarrierStats {
    cluster.nodes[node]
        .mcp
        .ext()
        .as_any()
        .downcast_ref::<BarrierExtension>()
        .expect("BarrierExtension not installed")
        .stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::BarrierGroup;
    use crate::Descriptor;
    use gmsim_gm::{GmConfig, Mcp, SendToken};

    /// Drive two MCPs by hand (no cluster): node 0 and node 1 both run a
    /// 2-party PE barrier; we shuttle packets between them manually.
    #[test]
    fn two_party_pe_by_hand() {
        let cfg = GmConfig::default();
        let group = BarrierGroup::one_per_node(2, 1);
        let mut mcps: Vec<Mcp> = (0..2)
            .map(|i| {
                let mut m = Mcp::new(
                    McpCore::new(NodeId(i), 2, cfg),
                    Box::new(BarrierExtension::new(2)),
                );
                m.open_port(PortId(1), SimTime::ZERO);
                for _ in 0..4 {
                    m.core.port_mut(PortId(1)).provide_barrier_buffer();
                }
                m
            })
            .collect();
        // Post the collective tokens on both nodes.
        let mut outs0 = mcps[0].handle_send_token(
            SendToken::Collective {
                src_port: PortId(1),
                token: group.token(Descriptor::Pe, 0),
            },
            SimTime::ZERO,
        );
        let outs1 = mcps[1].handle_send_token(
            SendToken::Collective {
                src_port: PortId(1),
                token: group.token(Descriptor::Pe, 1),
            },
            SimTime::ZERO,
        );
        // Each emitted exactly one PE transmit (plus its RTO timer).
        let take_pkt = |outs: &mut Vec<McpOutput>| -> gmsim_gm::Packet {
            let pos = outs
                .iter()
                .position(|o| matches!(o, McpOutput::Transmit { .. }))
                .expect("no transmit");
            match outs.remove(pos) {
                McpOutput::Transmit { pkt, .. } => pkt,
                _ => unreachable!(),
            }
        };
        let mut outs1 = outs1;
        let p0 = take_pkt(&mut outs0);
        let p1 = take_pkt(&mut outs1);
        // Cross-deliver.
        let done1 = mcps[1].handle_wire_packet(p0, false, SimTime::from_us(5));
        let done0 = mcps[0].handle_wire_packet(p1, false, SimTime::from_us(5));
        let completed = |outs: &[McpOutput]| {
            outs.iter().any(|o| {
                matches!(
                    o,
                    McpOutput::HostEvent {
                        ev: GmEvent::BarrierComplete { .. },
                        ..
                    }
                )
            })
        };
        assert!(completed(&done0), "node 0 completed");
        assert!(completed(&done1), "node 1 completed");
    }

    #[test]
    fn early_arrival_is_recorded_then_consumed() {
        let cfg = GmConfig::default();
        let group = BarrierGroup::one_per_node(2, 1);
        let mut m = Mcp::new(
            McpCore::new(NodeId(0), 2, cfg),
            Box::new(BarrierExtension::new(2)),
        );
        m.open_port(PortId(1), SimTime::ZERO);
        for _ in 0..4 {
            m.core.port_mut(PortId(1)).provide_barrier_buffer();
        }
        // Peer's barrier message arrives before our host even initiated.
        let early = gmsim_gm::Packet {
            src: GlobalPort::new(1, 1),
            dst: GlobalPort::new(0, 1),
            kind: gmsim_gm::PacketKind::Ext {
                seq: Some(0),
                body: ExtPacket::new(pkt::PE, 1, 0),
            },
        };
        let outs = m.handle_wire_packet(early, false, SimTime::ZERO);
        assert!(
            !outs
                .iter()
                .any(|o| matches!(o, McpOutput::HostEvent { .. })),
            "nothing completes yet"
        );
        // Now the host initiates: the recorded message satisfies the step
        // immediately and the barrier completes without waiting.
        let outs = m.handle_send_token(
            SendToken::Collective {
                src_port: PortId(1),
                token: group.token(Descriptor::Pe, 0),
            },
            SimTime::from_us(50),
        );
        assert!(outs.iter().any(|o| matches!(
            o,
            McpOutput::HostEvent {
                ev: GmEvent::BarrierComplete { .. },
                ..
            }
        )));
        let ext = m.ext().as_any().downcast_ref::<BarrierExtension>().unwrap();
        assert_eq!(ext.record.stats.recorded, 1);
        assert_eq!(ext.record.stats.consumed, 1);
    }

    #[test]
    fn closed_port_records_and_rejects_on_open() {
        let cfg = GmConfig::default();
        let mut m = Mcp::new(
            McpCore::new(NodeId(0), 2, cfg),
            Box::new(BarrierExtension::new(2)),
        );
        // Message arrives for port 1, which is closed.
        let early = gmsim_gm::Packet {
            src: GlobalPort::new(1, 1),
            dst: GlobalPort::new(0, 1),
            kind: gmsim_gm::PacketKind::Ext {
                seq: Some(0),
                body: ExtPacket::new(pkt::PE, 3, 0), // a = sender epoch
            },
        };
        m.handle_wire_packet(early, false, SimTime::ZERO);
        {
            let ext = m.ext().as_any().downcast_ref::<BarrierExtension>().unwrap();
            assert_eq!(ext.record.outstanding(), 1);
        }
        // Opening the port flushes a REJECT back to the sender carrying
        // the sender's original epoch.
        let outs = m.open_port(PortId(1), SimTime::from_us(10));
        let reject = outs
            .iter()
            .find_map(|o| match o {
                McpOutput::Transmit { pkt, .. } => match &pkt.kind {
                    gmsim_gm::PacketKind::Ext { body, .. } if body.ext_type == pkt::REJECT => {
                        Some((pkt.dst, body.a))
                    }
                    _ => None,
                },
                _ => None,
            })
            .expect("no REJECT sent");
        assert_eq!(reject.0, GlobalPort::new(1, 1));
        assert_eq!(reject.1, 3);
        let ext = m.ext().as_any().downcast_ref::<BarrierExtension>().unwrap();
        assert_eq!(ext.stats.rejects_sent, 1);
        assert_eq!(ext.record.outstanding(), 0);
    }

    #[test]
    fn reject_triggers_resend_when_same_epoch() {
        let cfg = GmConfig::default();
        let group = BarrierGroup::one_per_node(2, 1);
        let mut m = Mcp::new(
            McpCore::new(NodeId(0), 2, cfg),
            Box::new(BarrierExtension::new(2)),
        );
        m.open_port(PortId(1), SimTime::ZERO);
        for _ in 0..4 {
            m.core.port_mut(PortId(1)).provide_barrier_buffer();
        } // epoch 1
        m.handle_send_token(
            SendToken::Collective {
                src_port: PortId(1),
                token: group.token(Descriptor::Pe, 0),
            },
            SimTime::ZERO,
        );
        // The peer rejects our message (it was recorded against its closed
        // port). Our epoch is 1 and the barrier is still active → resend.
        let reject = gmsim_gm::Packet {
            src: GlobalPort::new(1, 1),
            dst: GlobalPort::new(0, 1),
            kind: gmsim_gm::PacketKind::Ext {
                seq: Some(0),
                body: ExtPacket::new(pkt::REJECT, 1, pkt::PE as u64),
            },
        };
        let outs = m.handle_wire_packet(reject, false, SimTime::from_us(100));
        let resent = outs.iter().any(|o| match o {
            McpOutput::Transmit { pkt, .. } => matches!(
                &pkt.kind,
                gmsim_gm::PacketKind::Ext { body, .. } if body.ext_type == pkt::PE
            ),
            _ => false,
        });
        assert!(resent, "PE message must be resent");
        let ext = m.ext().as_any().downcast_ref::<BarrierExtension>().unwrap();
        assert_eq!(ext.stats.resends, 1);
    }

    /// The sent cache keys every (kind, segment) a process sent a peer: a
    /// reject after the port reopened resends exactly the rejected segment
    /// of the rejected kind, with the new process's value, and rejects for
    /// the closed process or for a kind nobody sent since are stale.
    #[test]
    fn reject_after_reopen_resends_the_rejected_kind_and_segment() {
        use gmsim_gm::{Packet, PacketKind, Payload};
        let peer = GlobalPort::new(1, 1);
        let me = GlobalPort::new(0, 1);
        // Three segments: 4096, 4096 and 100 bytes.
        let payload = Payload::pipelined(2 * 4096 + 100, 4096);
        let program = |kinds: &[u8]| {
            let mut steps: Vec<ScheduleStep> = (kinds.iter())
                .map(|&kind| ScheduleStep::SendTo {
                    peers: vec![peer],
                    kind,
                    charge: Charge::Free,
                })
                .collect();
            steps.push(ScheduleStep::RecvFrom {
                peers: vec![peer],
                kind: pkt::PE,
                combine: None,
                charge: Charge::Free,
            });
            CollectiveSchedule::new(steps, TokenCharge::Light).with_payload(payload)
        };
        let mut m = Mcp::new(
            McpCore::new(NodeId(0), 2, GmConfig::default()),
            Box::new(BarrierExtension::new(2)),
        );
        let post = |m: &mut Mcp, kinds: &[u8], value: u64, at: SimTime| {
            m.core.port_mut(PortId(1)).provide_barrier_buffer();
            let token = CollectiveToken::new(program(kinds)).with_value(value);
            m.handle_send_token(
                SendToken::Collective {
                    src_port: PortId(1),
                    token,
                },
                at,
            );
        };
        m.open_port(PortId(1), SimTime::ZERO);
        let old_epoch = m.core.port(PortId(1)).epoch();
        post(
            &mut m,
            &[pkt::GATHER, pkt::BCAST, pkt::PE],
            11,
            SimTime::ZERO,
        );
        m.close_port(PortId(1), SimTime::from_us(100));
        m.open_port(PortId(1), SimTime::from_us(200));
        let epoch = m.core.port(PortId(1)).epoch();
        assert_ne!(epoch, old_epoch);
        post(&mut m, &[pkt::BCAST, pkt::PE], 22, SimTime::from_us(200));

        let mut seq = 0;
        let mut reject = |m: &mut Mcp, epoch: u32, kind: u8, seg: u32| {
            let body = ExtPacket::new(pkt::REJECT, epoch as u64, kind as u64).with_segment(seg, 0);
            let rej = Packet {
                src: peer,
                dst: me,
                kind: PacketKind::Ext {
                    seq: Some(seq),
                    body,
                },
            };
            seq += 1;
            let outs = m.handle_wire_packet(rej, false, SimTime::from_us(500 + seq));
            (outs.into_iter())
                .filter_map(|o| match o {
                    McpOutput::Transmit { pkt, .. } => match pkt.kind {
                        PacketKind::Ext { body, .. } => Some(body),
                        _ => None,
                    },
                    _ => None,
                })
                .collect::<Vec<_>>()
        };
        let resend = |kind: u8, seg: u32| {
            ExtPacket::new(kind, epoch as u64, 22)
                .with_segment(seg, payload.seg_len(seg).get() as u32)
        };
        assert_eq!(
            reject(&mut m, epoch, pkt::BCAST, 2),
            vec![resend(pkt::BCAST, 2)]
        );
        assert_eq!(reject(&mut m, epoch, pkt::PE, 1), vec![resend(pkt::PE, 1)]);
        assert_eq!(
            reject(&mut m, epoch, pkt::BCAST, 0),
            vec![resend(pkt::BCAST, 0)]
        );
        // The closed process's epoch, and a kind only it sent.
        assert!(reject(&mut m, old_epoch, pkt::PE, 1).is_empty());
        assert!(reject(&mut m, epoch, pkt::GATHER, 0).is_empty());
        let ext = m.ext().as_any().downcast_ref::<BarrierExtension>().unwrap();
        assert_eq!(ext.stats.resends, 3);
        assert_eq!(ext.stats.stale_rejects, 2);
    }

    #[test]
    fn reject_with_stale_epoch_is_ignored() {
        let cfg = GmConfig::default();
        let mut m = Mcp::new(
            McpCore::new(NodeId(0), 2, cfg),
            Box::new(BarrierExtension::new(2)),
        );
        m.open_port(PortId(1), SimTime::ZERO); // epoch 1
        let reject = gmsim_gm::Packet {
            src: GlobalPort::new(1, 1),
            dst: GlobalPort::new(0, 1),
            kind: gmsim_gm::PacketKind::Ext {
                seq: Some(0),
                body: ExtPacket::new(pkt::REJECT, 99, pkt::PE as u64), // a = long-gone epoch
            },
        };
        let outs = m.handle_wire_packet(reject, false, SimTime::from_us(1));
        let resent = outs.iter().any(|o| match o {
            McpOutput::Transmit { pkt, .. } => {
                matches!(&pkt.kind, gmsim_gm::PacketKind::Ext { body, .. } if body.ext_type != 0)
            }
            _ => false,
        });
        assert!(!resent);
        let ext = m.ext().as_any().downcast_ref::<BarrierExtension>().unwrap();
        assert_eq!(ext.stats.stale_rejects, 1);
    }

    #[test]
    fn port_close_aborts_active_collective() {
        let cfg = GmConfig::default();
        let group = BarrierGroup::one_per_node(2, 1);
        let mut m = Mcp::new(
            McpCore::new(NodeId(0), 2, cfg),
            Box::new(BarrierExtension::new(2)),
        );
        m.open_port(PortId(1), SimTime::ZERO);
        for _ in 0..4 {
            m.core.port_mut(PortId(1)).provide_barrier_buffer();
        }
        m.handle_send_token(
            SendToken::Collective {
                src_port: PortId(1),
                token: group.token(Descriptor::Pe, 0),
            },
            SimTime::ZERO,
        );
        {
            let ext = m.ext().as_any().downcast_ref::<BarrierExtension>().unwrap();
            assert!(ext.is_active(PortId(1)));
        }
        m.close_port(PortId(1), SimTime::from_us(1));
        let ext = m.ext().as_any().downcast_ref::<BarrierExtension>().unwrap();
        assert!(!ext.is_active(PortId(1)));
        assert_eq!(ext.stats.aborted, 1);
    }

    #[test]
    fn two_teams_share_one_port_concurrently() {
        use crate::group::Team;
        use gmsim_gm::TeamId;
        let cfg = GmConfig::default();
        let world = BarrierGroup::one_per_node(2, 1);
        let a = Team::new(TeamId(1), world.clone());
        let b = Team::new(TeamId(2), world);
        let mut m = Mcp::new(
            McpCore::new(NodeId(0), 2, cfg),
            Box::new(BarrierExtension::new(2)),
        );
        m.open_port(PortId(1), SimTime::ZERO);
        for _ in 0..4 {
            m.core.port_mut(PortId(1)).provide_barrier_buffer();
        }
        // Both teams post on the same port; neither can complete yet.
        m.handle_send_token(
            SendToken::Collective {
                src_port: PortId(1),
                token: a.token(Descriptor::Pe, 0),
            },
            SimTime::ZERO,
        );
        m.handle_send_token(
            SendToken::Collective {
                src_port: PortId(1),
                token: b.token(Descriptor::Pe, 0),
            },
            SimTime::ZERO,
        );
        {
            let ext = m.ext().as_any().downcast_ref::<BarrierExtension>().unwrap();
            assert!(ext.is_active_team(PortId(1), TeamId(1)));
            assert!(ext.is_active_team(PortId(1), TeamId(2)));
            assert_eq!(ext.stats.concurrent_peak, 2);
            assert_eq!(ext.teams_seen(), &[TeamId(1), TeamId(2)]);
        }
        // Team B's peer flag arrives first: only B may complete. (Seq
        // numbers are per-connection, so the second packet needs seq 1.)
        let pkt_for = |team: u32, seq: u64| gmsim_gm::Packet {
            src: GlobalPort::new(1, 1),
            dst: GlobalPort::new(0, 1),
            kind: gmsim_gm::PacketKind::Ext {
                seq: Some(seq),
                body: ExtPacket::new(pkt::PE, ((team as u64) << 32) | 1, 0),
            },
        };
        let outs = m.handle_wire_packet(pkt_for(2, 0), false, SimTime::from_us(5));
        let completions = |outs: &[McpOutput]| -> Vec<TeamId> {
            outs.iter()
                .filter_map(|o| match o {
                    McpOutput::HostEvent {
                        ev: GmEvent::BarrierComplete { team },
                        ..
                    } => Some(*team),
                    _ => None,
                })
                .collect()
        };
        assert_eq!(completions(&outs), vec![TeamId(2)]);
        {
            let ext = m.ext().as_any().downcast_ref::<BarrierExtension>().unwrap();
            assert!(ext.is_active_team(PortId(1), TeamId(1)), "A still parked");
            assert!(!ext.is_active_team(PortId(1), TeamId(2)));
        }
        let outs = m.handle_wire_packet(pkt_for(1, 1), false, SimTime::from_us(9));
        assert_eq!(completions(&outs), vec![TeamId(1)]);
        let ext = m.ext().as_any().downcast_ref::<BarrierExtension>().unwrap();
        assert!(!ext.is_active(PortId(1)));
        assert_eq!(ext.stats.completions, 2);
    }

    #[test]
    fn cross_team_packet_does_not_poke_other_teams_run() {
        use crate::group::Team;
        use gmsim_gm::TeamId;
        let cfg = GmConfig::default();
        let world = BarrierGroup::one_per_node(2, 1);
        let a = Team::new(TeamId(1), world);
        let mut m = Mcp::new(
            McpCore::new(NodeId(0), 2, cfg),
            Box::new(BarrierExtension::new(2)),
        );
        m.open_port(PortId(1), SimTime::ZERO);
        for _ in 0..4 {
            m.core.port_mut(PortId(1)).provide_barrier_buffer();
        }
        m.handle_send_token(
            SendToken::Collective {
                src_port: PortId(1),
                token: a.token(Descriptor::Pe, 0),
            },
            SimTime::ZERO,
        );
        // A packet for team 9 (no run here) arrives while team 1 is parked:
        // it must be recorded for team 9, not consumed by team 1.
        let stray = gmsim_gm::Packet {
            src: GlobalPort::new(1, 1),
            dst: GlobalPort::new(0, 1),
            kind: gmsim_gm::PacketKind::Ext {
                seq: Some(0),
                body: ExtPacket::new(pkt::PE, (9u64 << 32) | 1, 0),
            },
        };
        let outs = m.handle_wire_packet(stray, false, SimTime::from_us(5));
        assert!(
            !outs
                .iter()
                .any(|o| matches!(o, McpOutput::HostEvent { .. })),
            "team 1 must not complete off team 9's flag"
        );
        let ext = m.ext().as_any().downcast_ref::<BarrierExtension>().unwrap();
        assert!(ext.is_active_team(PortId(1), TeamId(1)));
        assert_eq!(ext.stats.cross_team_rejects, 1);
        assert_eq!(ext.record.outstanding(), 1, "team 9's flag stays recorded");
    }

    #[test]
    #[should_panic(expected = "already has an active collective")]
    fn concurrent_collective_on_same_port_panics() {
        let cfg = GmConfig::default();
        let group = BarrierGroup::one_per_node(2, 1);
        let mut m = Mcp::new(
            McpCore::new(NodeId(0), 2, cfg),
            Box::new(BarrierExtension::new(2)),
        );
        m.open_port(PortId(1), SimTime::ZERO);
        for _ in 0..4 {
            m.core.port_mut(PortId(1)).provide_barrier_buffer();
        }
        for _ in 0..2 {
            m.handle_send_token(
                SendToken::Collective {
                    src_port: PortId(1),
                    token: group.token(Descriptor::Pe, 0),
                },
                SimTime::ZERO,
            );
        }
    }
}
