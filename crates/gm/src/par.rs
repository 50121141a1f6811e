//! The conservative parallel execution engine.
//!
//! A [`ParSim`] runs the same world a [`ClusterSim`] does, partitioned into
//! logical processes (one per leaf switch; one per node when the switch
//! partition is not a contiguous node range) that execute windows of width
//! Δ in lockstep. Δ is the *global* minimum unstalled zero-payload delivery
//! latency of the fabric: every non-loopback transmit initiated at `t`
//! arrives at `t + Δ` or later (stalls, payload serialization and every
//! fault outcome only delay arrivals), so within a window `[start,
//! start + Δ)` no LP can affect another and the LPs are data-parallel.
//!
//! Everything that crosses LPs — the fabric walk itself, which mutates
//! shared link state and draws from the fault RNG — is deferred: during the
//! window each `Transmit` only *records* its packet, and at the barrier the
//! coordinator replays all recorded sends against the fabric in the global
//! serial order recovered by the [`Sequencer`]. Trace records and
//! measurement notes are captured per-LP and stitched in the same order.
//! The result is bit-identical to the serial engine: same measurements,
//! same counters, same trace fingerprint. See DESIGN.md §15.
//!
//! Degenerate configurations — one partition, one thread, or a topology
//! with no positive lookahead (a zero-latency link) — fall back to the
//! serial engine inside the same [`ParSim`] wrapper, which is trivially
//! bit-identical.

use crate::cluster::{
    fire_ev, Cluster, ClusterBuilder, ClusterEvent, ClusterSim, EventSink, Node, NodeCtx,
    NoteRecord,
};
use crate::host::HostAction;
use crate::mcp::McpOutput;
use crate::packet::Packet;
use crate::parcels::{Handle, Parcels};
use gmsim_des::pdes::{Cause, EvKey, FiredRec, LpQueue, Sequencer, SpinBarrier};
use gmsim_des::trace::TraceRecord;
use gmsim_des::{EventId, RunOutcome, SimTime, Simulation, Tracer};
use gmsim_myrinet::fault::Fate;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Per-event side channel recorded alongside the firing log: how many trace
/// records and notes the event emitted (for barrier stitching) and the
/// packet it put on the wire, if any (a `Transmit` event injects at most
/// one worm).
struct Extra {
    n_trace: u32,
    n_notes: u32,
    transmit: Option<Packet>,
}

/// One logical process: a contiguous slice of the cluster's nodes plus its
/// own event queue and capture channels.
struct Lp {
    /// Global [`NodeId`](crate::ids::NodeId) of `nodes[0]`.
    base: usize,
    nodes: Vec<Node>,
    queue: LpQueue<ClusterEvent>,
    /// Capture tracer shared with this LP's NIC cores (disabled when the
    /// final tracer is disabled, so untraced runs pay nothing).
    tracer: Tracer,
    notes: Vec<NoteRecord>,
    log: Vec<FiredRec>,
    extras: Vec<Extra>,
    /// Payloads of this LP's pending events. A packet leaves on its
    /// `Transmit` and the barrier commit re-parks it in the destination
    /// LP's store.
    parcels: Parcels,
    mcp_scratch: Vec<McpOutput>,
    action_scratch: Vec<HostAction>,
}

/// The LP-local event sink: follow-ups go into the LP's own queue under
/// `Local` keys; wire injections are deferred to the barrier.
struct LpSink<'a> {
    now: SimTime,
    /// Log position the firing event will occupy (its `Local` cause id).
    pos: u32,
    emission: u32,
    queue: &'a mut LpQueue<ClusterEvent>,
    transmit: &'a mut Option<Packet>,
    parcels: &'a mut Parcels,
}

impl EventSink for LpSink<'_> {
    fn now(&self) -> SimTime {
        self.now
    }

    fn schedule(&mut self, at: SimTime, ev: ClusterEvent) -> EventId {
        assert!(at >= self.now, "event scheduled in the past");
        let key = EvKey {
            at,
            cause: Cause::Local {
                pos: self.pos,
                emission: self.emission,
            },
        };
        self.emission += 1;
        self.queue.push(key, ev)
    }

    fn cancel(&mut self, id: EventId) {
        let live = self.queue.cancel(id);
        debug_assert!(live, "cancelled an event that is no longer pending");
    }

    fn transmit(&mut self, pkt: Handle<Packet>) {
        debug_assert!(
            self.transmit.is_none(),
            "one wire injection per Transmit event"
        );
        *self.transmit = Some(self.parcels.packets.take(pkt));
    }

    fn parcels(&mut self) -> &mut Parcels {
        self.parcels
    }
}

impl Lp {
    /// Fire every pending event strictly before `end`, or until `cap`
    /// events have been logged this window (the global budget backstop,
    /// which keeps a runaway same-time cascade from spinning forever).
    fn run_window(&mut self, end: SimTime, cap: u64) {
        let trace_on = self.tracer.is_enabled();
        while (self.log.len() as u64) < cap {
            let Some((key, ev)) = self.queue.pop_before(end) else {
                break;
            };
            let t0 = if trace_on { self.tracer.len() } else { 0 };
            let n0 = self.notes.len();
            let pos = self.log.len() as u32;
            let mut transmit = None;
            {
                let mut ctx = NodeCtx {
                    nodes: &mut self.nodes,
                    base: self.base,
                    tracer: &self.tracer,
                    notes: &mut self.notes,
                    mcp_scratch: &mut self.mcp_scratch,
                    action_scratch: &mut self.action_scratch,
                };
                let mut sink = LpSink {
                    now: key.at,
                    pos,
                    emission: 0,
                    queue: &mut self.queue,
                    transmit: &mut transmit,
                    parcels: &mut self.parcels,
                };
                fire_ev(ev, &mut ctx, &mut sink);
            }
            let t1 = if trace_on { self.tracer.len() } else { 0 };
            self.log.push(FiredRec {
                at: key.at,
                cause: key.cause,
            });
            self.extras.push(Extra {
                n_trace: (t1 - t0) as u32,
                n_notes: (self.notes.len() - n0) as u32,
                transmit,
            });
        }
    }
}

/// Coordinator/worker handshake state for one `run()`.
struct Shared<'a> {
    barrier: SpinBarrier,
    /// Current window end in raw nanoseconds; `u64::MAX` means "stop".
    end_ns: AtomicU64,
    /// Per-LP event cap for the current window (global budget remainder).
    cap: AtomicU64,
    /// Panics caught on worker threads, to be resumed on the coordinator.
    panics: Mutex<Vec<Box<dyn std::any::Any + Send>>>,
    lps: &'a [Mutex<Lp>],
}

/// Fire worker `w`'s share of the LPs (static `lp % n_workers` assignment)
/// for the current window, catching panics so a failing assertion inside an
/// event handler surfaces as a panic on the caller of [`ParSim::run`]
/// instead of deadlocking the barrier.
fn run_share(w: usize, n_workers: usize, end: SimTime, cap: u64, shared: &Shared) {
    let mut i = w;
    while i < shared.lps.len() {
        let mut lp = shared.lps[i].lock().unwrap();
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| lp.run_window(end, cap))) {
            drop(lp);
            shared.panics.lock().unwrap().push(payload);
            return;
        }
        i += n_workers;
    }
}

fn worker_loop(w: usize, n_workers: usize, shared: &Shared) {
    let mut sense = false;
    loop {
        // Phase A: the coordinator published the next window (or stop).
        shared.barrier.wait(&mut sense);
        let end_ns = shared.end_ns.load(Ordering::Acquire);
        if end_ns == u64::MAX {
            return;
        }
        let cap = shared.cap.load(Ordering::Acquire);
        run_share(w, n_workers, SimTime::from_ns(end_ns), cap, shared);
        // Phase B: this window is fully fired; the coordinator commits.
        shared.barrier.wait(&mut sense);
    }
}

/// Reusable per-window buffers for the barrier commit, swapped with each
/// LP's capture vectors so the steady state allocates nothing.
#[derive(Default)]
struct CommitScratch {
    logs: Vec<Vec<FiredRec>>,
    extras: Vec<Vec<Extra>>,
    notes: Vec<Vec<NoteRecord>>,
    traces: Vec<Vec<TraceRecord>>,
    trace_cursor: Vec<usize>,
    note_cursor: Vec<usize>,
    pos_rank: Vec<Vec<u64>>,
    order: Vec<(u32, u32)>,
}

impl CommitScratch {
    fn for_lps(n: usize) -> Self {
        CommitScratch {
            logs: (0..n).map(|_| Vec::new()).collect(),
            extras: (0..n).map(|_| Vec::new()).collect(),
            notes: (0..n).map(|_| Vec::new()).collect(),
            traces: (0..n).map(|_| Vec::new()).collect(),
            trace_cursor: vec![0; n],
            note_cursor: vec![0; n],
            pos_rank: Vec::new(),
            order: Vec::new(),
        }
    }
}

/// The barrier commit: merge the window's firing logs into global rank
/// order, re-key the events the window scheduled, then replay every
/// deferred wire injection against the shared fabric — and stitch trace
/// records and notes into the final channels — in exactly the order the
/// serial engine would have produced them. Returns the number of events
/// fired this window.
#[allow(clippy::too_many_arguments)]
fn commit_window(
    shell: &mut Cluster,
    lps: &[Mutex<Lp>],
    lp_of_node: &[u32],
    sequencer: &mut Sequencer,
    scratch: &mut CommitScratch,
    trace_on: bool,
    window_end: SimTime,
) -> u64 {
    let mut fired = 0u64;
    for (i, lpm) in lps.iter().enumerate() {
        let mut lp = lpm.lock().unwrap();
        std::mem::swap(&mut lp.log, &mut scratch.logs[i]);
        std::mem::swap(&mut lp.extras, &mut scratch.extras[i]);
        std::mem::swap(&mut lp.notes, &mut scratch.notes[i]);
        if trace_on {
            scratch.traces[i] = lp.tracer.take_records();
        }
        fired += scratch.logs[i].len() as u64;
    }

    {
        let log_refs: Vec<&[FiredRec]> = scratch.logs.iter().map(|v| v.as_slice()).collect();
        sequencer.sequence(&log_refs, &mut scratch.pos_rank, &mut scratch.order);
    }

    for (i, lpm) in lps.iter().enumerate() {
        let mut lp = lpm.lock().unwrap();
        if lp.queue.needs_seal() {
            lp.queue.seal_window(&scratch.pos_rank[i]);
        }
    }

    scratch.trace_cursor.iter_mut().for_each(|c| *c = 0);
    scratch.note_cursor.iter_mut().for_each(|c| *c = 0);
    for &(lp, pos) in &scratch.order {
        let (lp, pos) = (lp as usize, pos as usize);
        let ex = &mut scratch.extras[lp][pos];
        if let Some(pkt) = ex.transmit.take() {
            let at = scratch.logs[lp][pos].at;
            let rank = scratch.pos_rank[lp][pos];
            let (src, dst) = (pkt.src.node, pkt.dst.node);
            let delivery = shell
                .fabric
                .send(src.nic(), dst.nic(), pkt.payload_bytes(), at);
            let mut dlp = lps[lp_of_node[dst.0] as usize].lock().unwrap();
            match delivery.fate {
                Fate::Dropped => {}
                fate => {
                    debug_assert!(
                        delivery.arrival >= window_end,
                        "delivery inside the window that sent it: lookahead violated"
                    );
                    let pkt = dlp.parcels.packets.park(pkt);
                    dlp.queue.push(
                        EvKey {
                            at: delivery.arrival,
                            cause: Cause::Ranked { rank, emission: 0 },
                        },
                        ClusterEvent::WireDeliver {
                            pkt,
                            corrupted: fate == Fate::Corrupted,
                        },
                    );
                }
            }
            if let Some(dup_at) = delivery.dup_arrival {
                // Fault-injected duplicate, discarded by the receiver's
                // sequence check. The emission index only breaks ties among
                // children of the *same* cause, so using 1 here is correct
                // even when the primary copy was dropped.
                let pkt = dlp.parcels.packets.park(pkt);
                dlp.queue.push(
                    EvKey {
                        at: dup_at,
                        cause: Cause::Ranked { rank, emission: 1 },
                    },
                    ClusterEvent::WireDeliver {
                        pkt,
                        corrupted: false,
                    },
                );
            }
        }
        if trace_on {
            let c = scratch.trace_cursor[lp];
            let n = ex.n_trace as usize;
            for rec in &scratch.traces[lp][c..c + n] {
                shell.tracer.push(*rec);
            }
            scratch.trace_cursor[lp] = c + n;
        }
        if ex.n_notes > 0 {
            let c = scratch.note_cursor[lp];
            let n = ex.n_notes as usize;
            shell.notes.extend_from_slice(&scratch.notes[lp][c..c + n]);
            scratch.note_cursor[lp] = c + n;
        }
    }

    for i in 0..lps.len() {
        scratch.logs[i].clear();
        scratch.extras[i].clear();
        scratch.notes[i].clear();
        scratch.traces[i].clear();
    }
    fired
}

/// The partitioned engine state.
struct ParEngine {
    /// The cluster with its nodes drained into the LPs; holds the shared
    /// fabric, the final tracer, and the stitched notes.
    shell: Cluster,
    lps: Vec<Mutex<Lp>>,
    lp_of_node: Vec<u32>,
    delta: SimTime,
    threads: usize,
    sequencer: Sequencer,
    scratch: CommitScratch,
    fired: u64,
    budget: u64,
    trace_on: bool,
    outcome: Option<RunOutcome>,
}

impl ParEngine {
    fn run(&mut self) -> RunOutcome {
        if let Some(done) = self.outcome {
            return done;
        }
        let n_workers = self.threads.min(self.lps.len()).max(1);
        let shared = Shared {
            barrier: SpinBarrier::new(n_workers),
            end_ns: AtomicU64::new(0),
            cap: AtomicU64::new(0),
            panics: Mutex::new(Vec::new()),
            lps: &self.lps,
        };
        let shell = &mut self.shell;
        let lp_of_node = &self.lp_of_node;
        let sequencer = &mut self.sequencer;
        let scratch = &mut self.scratch;
        let fired = &mut self.fired;
        let (budget, delta, trace_on) = (self.budget, self.delta, self.trace_on);

        let outcome = std::thread::scope(|s| {
            for w in 1..n_workers {
                let shared = &shared;
                s.spawn(move || worker_loop(w, n_workers, shared));
            }
            let mut sense = false;
            let outcome = loop {
                // LBTS: the earliest pending event anywhere. Computed after
                // the previous commit, so barrier-pushed deliveries count.
                let mut start: Option<SimTime> = None;
                for lpm in shared.lps {
                    if let Some(at) = lpm.lock().unwrap().queue.next_at() {
                        start = Some(start.map_or(at, |s| s.min(at)));
                    }
                }
                let Some(start) = start else {
                    break RunOutcome::Quiescent;
                };
                if *fired >= budget {
                    break RunOutcome::BudgetExhausted;
                }
                let end = start + delta;
                shared.cap.store(budget - *fired, Ordering::Release);
                shared.end_ns.store(end.as_ns(), Ordering::Release);
                shared.barrier.wait(&mut sense); // A: window open
                run_share(0, n_workers, end, budget - *fired, &shared);
                shared.barrier.wait(&mut sense); // B: window fired
                if !shared.panics.lock().unwrap().is_empty() {
                    break RunOutcome::Quiescent; // placeholder; resumed below
                }
                match catch_unwind(AssertUnwindSafe(|| {
                    commit_window(
                        shell, shared.lps, lp_of_node, sequencer, scratch, trace_on, end,
                    )
                })) {
                    Ok(n) => *fired += n,
                    Err(payload) => {
                        shared.panics.lock().unwrap().push(payload);
                        break RunOutcome::Quiescent; // placeholder; resumed below
                    }
                }
            };
            // Release the workers.
            shared.end_ns.store(u64::MAX, Ordering::Release);
            shared.barrier.wait(&mut sense);
            outcome
        });

        if let Some(payload) = shared.panics.into_inner().unwrap().into_iter().next() {
            resume_unwind(payload);
        }
        self.outcome = Some(outcome);
        outcome
    }

    fn into_world(self) -> Cluster {
        let mut shell = self.shell;
        debug_assert!(shell.nodes.is_empty());
        for lpm in self.lps {
            let lp = lpm.into_inner().unwrap_or_else(|p| p.into_inner());
            debug_assert_eq!(lp.base, shell.nodes.len());
            shell.nodes.extend(lp.nodes);
        }
        shell
    }
}

enum Engine {
    Serial(Box<ClusterSim>),
    Par(Box<ParEngine>),
}

/// A cluster simulation that may run partitioned across threads. Produced
/// by [`ClusterBuilder::build_parallel`]; bit-identical to the serial
/// [`ClusterSim`] on every outcome the run can observe (measurement notes,
/// counters, trace fingerprint, events fired).
pub struct ParSim {
    engine: Engine,
}

impl ParSim {
    /// Replace the event budget (default
    /// [`Simulation::DEFAULT_BUDGET`]). The parallel engine checks the
    /// budget at window granularity, so the exact stopping point of an
    /// exhausted run differs from the serial engine; successful runs are
    /// unaffected.
    pub fn with_budget(self, budget: u64) -> Self {
        let engine = match self.engine {
            Engine::Serial(sim) => Engine::Serial(Box::new(sim.with_budget(budget))),
            Engine::Par(mut e) => {
                e.budget = budget;
                Engine::Par(e)
            }
        };
        ParSim { engine }
    }

    /// True when the run is actually partitioned (false when a degenerate
    /// configuration fell back to the serial engine).
    pub fn is_parallel(&self) -> bool {
        matches!(self.engine, Engine::Par(_))
    }

    /// Number of logical processes (1 when serial).
    pub fn partitions(&self) -> usize {
        match &self.engine {
            Engine::Serial(_) => 1,
            Engine::Par(e) => e.lps.len(),
        }
    }

    /// Run to quiescence (or budget exhaustion).
    pub fn run(&mut self) -> RunOutcome {
        match &mut self.engine {
            Engine::Serial(sim) => sim.run(),
            Engine::Par(e) => e.run(),
        }
    }

    /// Events fired so far.
    pub fn events_fired(&self) -> u64 {
        match &self.engine {
            Engine::Serial(sim) => sim.events_fired(),
            Engine::Par(e) => e.fired,
        }
    }

    /// Consume the simulation, reassembling and returning the world.
    pub fn into_world(self) -> Cluster {
        match self.engine {
            Engine::Serial(sim) => sim.into_world(),
            Engine::Par(e) => e.into_world(),
        }
    }
}

impl ClusterBuilder {
    /// Assemble the simulation for parallel execution on up to `threads`
    /// worker threads.
    ///
    /// The partition is one LP per leaf switch of the topology (falling
    /// back to one LP per node if a switch's NICs are not a contiguous node
    /// range). Degenerate cases — `threads <= 1`, a single partition, or a
    /// topology with no positive minimum delivery latency (zero lookahead)
    /// — run the serial engine instead, which is trivially bit-identical.
    pub fn build_parallel(self, threads: usize) -> ParSim {
        let (cluster, starts) = self.build_parts();
        let size = cluster.nodes.len();
        let topo = cluster.fabric.topology();
        let delta = topo.min_delivery_latency();
        let pm = topo.partition_map();

        // Group the populated nodes into contiguous LP ranges, renumbered
        // by first appearance; bail to per-node LPs on any interleaving.
        let mut ranges: Vec<(usize, usize)> = Vec::new();
        let mut lp_of_node = vec![0u32; size];
        let mut seen = vec![false; pm.count.max(1)];
        let mut contiguous = true;
        let mut last_raw = u32::MAX;
        for (node, slot) in lp_of_node.iter_mut().enumerate() {
            let raw = pm.lp_of[node];
            if raw == last_raw {
                ranges.last_mut().expect("range open").1 += 1;
            } else {
                if seen[raw as usize] {
                    contiguous = false;
                    break;
                }
                seen[raw as usize] = true;
                ranges.push((node, 1));
                last_raw = raw;
            }
            *slot = (ranges.len() - 1) as u32;
        }
        if !contiguous {
            ranges = (0..size).map(|i| (i, 1)).collect();
            for (i, slot) in lp_of_node.iter_mut().enumerate() {
                *slot = i as u32;
            }
        }

        let degenerate =
            threads <= 1 || ranges.len() <= 1 || !matches!(delta, Some(d) if d > SimTime::ZERO);
        if degenerate {
            let mut sim: ClusterSim = Simulation::new(cluster);
            for (at, program, start) in starts {
                sim.scheduler_mut().schedule(
                    start,
                    ClusterEvent::StartProgram {
                        node: at.node,
                        port: at.port,
                        program,
                    },
                );
            }
            return ParSim {
                engine: Engine::Serial(Box::new(sim)),
            };
        }
        let delta = delta.expect("checked above");

        let mut shell = cluster;
        let trace_on = shell.tracer.is_enabled();
        let mut nodes = std::mem::take(&mut shell.nodes);
        let mut lps: Vec<Mutex<Lp>> = Vec::with_capacity(ranges.len());
        for &(base, _len) in ranges.iter().rev() {
            let mut part = nodes.split_off(base);
            let tracer = if trace_on {
                Tracer::capture()
            } else {
                Tracer::disabled()
            };
            for node in &mut part {
                node.mcp.core.set_tracer(tracer.clone());
            }
            lps.push(Mutex::new(Lp {
                base,
                nodes: part,
                queue: LpQueue::new(),
                tracer,
                notes: Vec::new(),
                log: Vec::new(),
                extras: Vec::new(),
                parcels: Parcels::default(),
                mcp_scratch: Vec::new(),
                action_scratch: Vec::new(),
            }));
        }
        lps.reverse();

        // Seed program starts under Init keys, in the exact order the
        // serial engine schedules them.
        for (slot, (at, program, start)) in starts.into_iter().enumerate() {
            let lp = lp_of_node[at.node.0] as usize;
            lps[lp].get_mut().unwrap().queue.push(
                EvKey {
                    at: start,
                    cause: Cause::Init { slot: slot as u64 },
                },
                ClusterEvent::StartProgram {
                    node: at.node,
                    port: at.port,
                    program,
                },
            );
        }

        let n_lps = lps.len();
        ParSim {
            engine: Engine::Par(Box::new(ParEngine {
                shell,
                lps,
                lp_of_node,
                delta,
                threads,
                sequencer: Sequencer::new(),
                scratch: CommitScratch::for_lps(n_lps),
                fired: 0,
                budget: ClusterSim::DEFAULT_BUDGET,
                trace_on,
                outcome: None,
            })),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::GmEvent;
    use crate::host::{HostCtx, HostProgram};
    use crate::ids::GlobalPort;

    /// Sends `rounds` ping-pong messages with a peer.
    struct PingPong {
        peer: GlobalPort,
        initiator: bool,
    }

    impl HostProgram for PingPong {
        fn on_start(&mut self, ctx: &mut HostCtx) {
            if self.initiator {
                ctx.send(self.peer, 64, 1);
            }
        }
        fn on_event(&mut self, ev: &GmEvent, ctx: &mut HostCtx) {
            if let GmEvent::Recv { tag, .. } = ev {
                ctx.note(*tag);
                ctx.provide_recv(1);
                if *tag < 6 {
                    ctx.send(self.peer, 64, tag + 1);
                }
            }
        }
    }

    fn builder(n: usize) -> ClusterBuilder {
        let mut b = ClusterBuilder::new(n);
        for i in 0..n {
            let peer = GlobalPort::new((i + 1) % n, 1);
            b = b.program(
                GlobalPort::new(i, 1),
                Box::new(PingPong {
                    peer,
                    initiator: i % 2 == 0,
                }),
                SimTime::from_us(i as u64),
            );
        }
        b
    }

    #[test]
    fn single_thread_falls_back_to_serial() {
        let sim = builder(4).build_parallel(1);
        assert!(!sim.is_parallel());
        assert_eq!(sim.partitions(), 1);
    }

    #[test]
    fn single_switch_topology_partitions_per_node() {
        // 4 nodes on one crossbar: the partition map degrades to per-NIC
        // LPs so paper-sized clusters still parallelize.
        let sim = builder(4).build_parallel(4);
        assert!(sim.is_parallel());
        assert_eq!(sim.partitions(), 4);
    }

    #[test]
    fn one_node_cluster_falls_back_to_serial() {
        let sim = builder(1).build_parallel(4);
        assert!(!sim.is_parallel());
        assert_eq!(sim.partitions(), 1);
    }

    #[test]
    fn multi_switch_cluster_partitions() {
        // 40 nodes forces the two-level Clos (16-port leaves): >1 leaf.
        let sim = builder(40).build_parallel(4);
        assert!(sim.is_parallel());
        assert!(sim.partitions() > 1);
    }

    #[test]
    fn parallel_run_matches_serial_notes_and_events() {
        let mut serial = builder(40).build();
        assert_eq!(serial.run(), RunOutcome::Quiescent);
        assert!(!serial.world().notes.is_empty());
        let digest = serial
            .world()
            .output_digest(serial.events_fired(), |_, _| {});
        for threads in [2, 4, 8] {
            let mut par = builder(40).build_parallel(threads);
            assert!(par.is_parallel());
            assert_eq!(par.run(), RunOutcome::Quiescent, "threads={threads}");
            let events = par.events_fired();
            let world = par.into_world();
            assert_eq!(
                world.output_digest(events, |_, _| {}),
                digest,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn parallel_trace_fingerprint_matches_serial() {
        let serial_fp = {
            let tracer = Tracer::bounded(2048);
            let mut sim = builder(40).tracer(tracer.clone()).build();
            sim.run();
            assert!(!tracer.is_empty());
            tracer.fingerprint()
        };
        let par_fp = {
            let tracer = Tracer::bounded(2048);
            let mut sim = builder(40).tracer(tracer.clone()).build_parallel(4);
            assert!(sim.is_parallel());
            sim.run();
            assert!(!tracer.is_empty());
            tracer.fingerprint()
        };
        assert_eq!(serial_fp, par_fp);
    }

    /// Every worm arrives corrupted and is duplicated: each intact copy
    /// must land after its corrupted primary, in both engines. Per directed
    /// pair, the trace never shows more intact copies than primaries so
    /// far, and every primary's copy arrives.
    #[test]
    fn fault_duplicates_trail_their_primary_in_both_engines() {
        use gmsim_des::trace::TracePayload;
        use gmsim_myrinet::FaultPlan;
        use std::collections::HashMap;
        let plan = FaultPlan {
            corrupt_probability: 1.0,
            duplicate_probability: 1.0,
            ..FaultPlan::NONE
        };
        let run = |threads: usize| {
            let tracer = Tracer::bounded(1 << 16);
            let mut sim = builder(40)
                .faults(plan, 3)
                .tracer(tracer.clone())
                .build_parallel(threads);
            assert_eq!(sim.is_parallel(), threads > 1);
            assert_eq!(sim.run(), RunOutcome::Quiescent);
            (tracer.snapshot(), sim.into_world())
        };
        let (serial, serial_world) = run(1);
        let (par, par_world) = run(4);
        assert_eq!(serial, par);
        assert_eq!(serial_world.notes, par_world.notes);
        assert!(!serial_world.notes.is_empty());
        let fabric = serial_world.fabric.stats();
        assert!(fabric.sends > 0);
        assert_eq!(fabric.duplicates, fabric.sends);
        assert_eq!(fabric.corruptions, fabric.sends);
        let mut lead: HashMap<(u32, u32), i64> = HashMap::new();
        for r in &serial {
            if let TracePayload::WireDeliver { src, corrupted, .. } = r.payload {
                let ahead = lead.entry((src, r.component.node)).or_default();
                *ahead += if corrupted { 1 } else { -1 };
                assert!(*ahead >= 0, "an intact copy overtook its primary: {r:?}");
            }
        }
        assert!(lead.values().all(|&ahead| ahead == 0));
        // The receivers discarded every primary and delivered its copy.
        let crc: u64 = (serial_world.nodes.iter())
            .map(|n| n.mcp.core.stats.crc_drops)
            .sum();
        assert_eq!(crc, fabric.sends);
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let mut sim = builder(40).build_parallel(4).with_budget(10);
        assert_eq!(sim.run(), RunOutcome::BudgetExhausted);
    }
}
