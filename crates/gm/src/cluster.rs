//! Cluster assembly and event glue.
//!
//! A [`Cluster`] is N nodes (host + NIC firmware) over a Myrinet
//! [`Fabric`], simulated as the world of a [`gmsim_des::Simulation`]. The
//! glue in this module is the *only* place where MCP outputs, host actions
//! and fabric deliveries become scheduled events — every other module stays
//! a pure state machine.

use crate::config::GmConfig;
use crate::events::GmEvent;
use crate::ext::{McpExtension, NullExtension};
use crate::host::{Host, HostAction, HostCtx, HostProgram};
use crate::ids::{GlobalPort, NodeId, PortId};
use crate::mcp::{Mcp, McpCore, McpOutput, TimerKind};
use crate::packet::Packet;
use crate::parcels::{Handle, Parcels};
use crate::steady::{self, Detector, FastForward, Period, Rebase};
use crate::token::SendToken;
use gmsim_des::trace::{ComponentId, TracePayload, Tracer, Unit};
use gmsim_des::{Counter, Event, EventId, Scheduler, SimTime, Simulation, StateHasher};
use gmsim_myrinet::fault::Fate;
use gmsim_myrinet::{Fabric, FaultPlan, Topology, TopologyBuilder};

/// A timestamped measurement mark emitted by a program via
/// [`HostCtx::note`]. One is kept per rank per round, so the node is
/// stored as a `u32` (node ids fit one, see [`McpCore::new`]) to keep the
/// record at 24 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoteRecord {
    /// When the mark was recorded.
    pub at: SimTime,
    /// Program-defined tag.
    pub tag: u64,
    node: u32,
    /// Emitting port.
    pub port: PortId,
}

const _: () = assert!(std::mem::size_of::<NoteRecord>() == 24);

impl NoteRecord {
    /// A mark from `node`'s `port` at `at`.
    pub fn new(at: SimTime, node: NodeId, port: PortId, tag: u64) -> Self {
        NoteRecord {
            at,
            tag,
            node: node.0 as u32,
            port,
        }
    }

    /// Emitting node.
    pub fn node(&self) -> NodeId {
        NodeId(self.node as usize)
    }
}

/// One cluster node: host processor + NIC firmware + its processes.
pub struct Node {
    /// The host processor.
    pub host: Host,
    /// The NIC firmware (MCP + extension).
    pub mcp: Mcp,
    pub(crate) programs: Vec<Option<Box<dyn HostProgram>>>,
}

gmsim_des::walk! {
    pub(crate) fn walk(cx: &mut Rebase) for Node {
        host: walk(cx),
        mcp: walk(cx),
        programs: state(h => {
            h.item();
            for slot in programs {
                match slot {
                    None => h.word(0),
                    Some(p) => {
                        h.item();
                        cx.program(p.as_ref(), h);
                    }
                }
            }
        }),
    }
}

impl Node {
    /// The program owning `port`, for post-run inspection.
    pub fn program(&self, port: PortId) -> Option<&dyn HostProgram> {
        self.programs[port.idx()].as_deref()
    }
}

/// The simulated world: all nodes plus the fabric.
pub struct Cluster {
    /// The nodes, indexed by [`NodeId`].
    pub nodes: Vec<Node>,
    /// The Myrinet fabric.
    pub fabric: Fabric,
    /// Structured event trace handle (shared with every NIC's firmware).
    pub tracer: Tracer,
    /// Measurement marks recorded by programs.
    pub notes: Vec<NoteRecord>,
    config: GmConfig,
    /// Payloads of the serial engine's pending events.
    pub(crate) parcels: Parcels,
    /// Reusable [`McpOutput`] buffer for firmware handler calls. Taken at
    /// the top of each glue function and put back drained, so steady-state
    /// events allocate nothing. Handlers never re-enter the glue, so one
    /// buffer suffices.
    mcp_scratch: Vec<McpOutput>,
    /// Reusable [`HostAction`] buffer for program callbacks (same scheme).
    action_scratch: Vec<HostAction>,
    /// The serial engine's steady-state detector and fast-forward.
    pub(crate) steady: Detector,
}

// The pending events' payloads are hashed with the events, in
// `steady::digest`.
gmsim_des::walk! {
    pub(crate) fn walk(cx: &mut Rebase) for Cluster {
        nodes: with(
            v => nodes.iter().for_each(|n| n.walk(cx, v)),
            f => nodes.iter_mut().for_each(|n| n.walk_mut(f))
        ),
        fabric: walk(cx.ranks),
        tracer: scratch("records, never steers"),
        notes: scratch("outputs, which a skip extends itself"),
        config: scratch("fixed at build"),
        parcels: scratch("hashed with the pending events"),
        mcp_scratch, action_scratch: scratch("drained by every event"),
        steady: scratch("the detector itself"),
    }
}

impl Cluster {
    /// Every output counter of the fabric and the nodes, with the
    /// [`Counter`] it feeds if it feeds one.
    pub fn counters(&self, mut f: impl FnMut(Option<Counter>, u64)) {
        self.walk(&mut Rebase::new(&self.nodes, 0, &mut Vec::new()), &mut f);
    }

    /// A stable 64-bit digest of a run's outputs: the `events` fired, every
    /// counter in walk order with its id (per node, not summed) and every
    /// note in order. It hands each counter to `f` on the way, as
    /// [`Cluster::counters`] does. Trace records, the steady-state reports
    /// and the final clock, which a skip leaves early, stay out.
    pub fn output_digest(&self, events: u64, mut f: impl FnMut(Option<Counter>, u64)) -> u64 {
        let mut h = StateHasher::new(SimTime::ZERO);
        h.word(events);
        self.counters(|id, v| {
            h.word(id.map_or(0, |c| c as u64 + 1));
            h.word(v);
            f(id, v);
        });
        for n in &self.notes {
            h.item();
            for w in [n.at.as_ns(), u64::from(n.node), u64::from(n.port.0), n.tag] {
                h.word(w);
            }
        }
        h.finish128() as u64
    }

    /// Cluster configuration.
    pub fn config(&self) -> &GmConfig {
        &self.config
    }

    /// Number of nodes.
    pub fn size(&self) -> usize {
        self.nodes.len()
    }

    /// Notes with the given tag, in time order.
    pub fn notes_tagged(&self, tag: u64) -> impl Iterator<Item = &NoteRecord> {
        self.notes.iter().filter(move |n| n.tag == tag)
    }

    /// The steady state the serial engine proved, if any ([`crate::steady`]).
    pub fn steady(&self) -> Option<Period> {
        self.steady.period()
    }

    /// What the serial engine's fast-forward skipped, if it skipped.
    pub fn fast_forward(&self) -> Option<FastForward> {
        self.steady.skipped()
    }

    /// Records hashed by every steady-state digest of the run: detection's
    /// cost, which [`steady::COST_RATIO`] bounds by the run's events.
    pub fn digest_records(&self) -> u64 {
        self.steady.hashed()
    }
}

/// Where a firing event's effects go: the clock, future events, wire
/// injections, and the store of the pending events' payloads. The glue
/// handlers are generic over this seam so the same monomorphized code
/// drives both execution engines:
///
/// * the serial [`Scheduler`] (a `SerialSink`), where `transmit` walks the
///   fabric immediately and schedules the delivery, and
/// * a parallel logical process (the `par` module), where `schedule` feeds
///   the LP's own queue and `transmit` is *deferred* — recorded and replayed
///   against the fabric in globally serial order at the next window barrier.
pub trait EventSink {
    /// Current virtual time (the firing event's timestamp).
    fn now(&self) -> SimTime;
    /// Schedule a follow-up event at absolute time `at`, returning its name
    /// for [`EventSink::cancel`].
    fn schedule(&mut self, at: SimTime, ev: ClusterEvent) -> EventId;
    /// Take the pending event `id`, scheduled through this sink, out of the
    /// queue unfired.
    fn cancel(&mut self, id: EventId);
    /// Put a parked non-loopback packet on the wire at the current time.
    /// The sink owns the handle from here on.
    fn transmit(&mut self, pkt: Handle<Packet>);
    /// Payloads of the events this sink schedules.
    fn parcels(&mut self) -> &mut Parcels;
}

/// The serial engine's sink: fabric walks happen inline, follow-ups go to
/// the global scheduler. This reproduces the classic single-queue semantics
/// bit for bit.
struct SerialSink<'a> {
    fabric: &'a mut Fabric,
    sched: &'a mut ClusterSched,
    parcels: &'a mut Parcels,
}

impl EventSink for SerialSink<'_> {
    fn now(&self) -> SimTime {
        self.sched.now()
    }

    fn schedule(&mut self, at: SimTime, ev: ClusterEvent) -> EventId {
        self.sched.schedule(at, ev)
    }

    fn cancel(&mut self, id: EventId) {
        let live = self.sched.cancel(id);
        debug_assert!(live, "cancelled an event that is no longer pending");
    }

    fn transmit(&mut self, h: Handle<Packet>) {
        let pkt = *self.parcels.packets.get(h);
        let (src, dst) = (pkt.src.node, pkt.dst.node);
        let delivery =
            self.fabric
                .send(src.nic(), dst.nic(), pkt.payload_bytes(), self.sched.now());
        // Fault-injected duplicate: a second intact copy of the same worm,
        // scheduled after the primary. The receiver's sequence check
        // discards it as a dup.
        let dup = delivery
            .dup_arrival
            .map(|at| (at, self.parcels.packets.park(pkt)));
        match delivery.fate {
            Fate::Dropped => {
                self.parcels.packets.take(h);
            }
            fate => {
                let corrupted = fate == Fate::Corrupted;
                self.sched.schedule(
                    delivery.arrival,
                    ClusterEvent::WireDeliver { pkt: h, corrupted },
                );
            }
        }
        if let Some((at, copy)) = dup {
            self.sched.schedule(
                at,
                ClusterEvent::WireDeliver {
                    pkt: copy,
                    corrupted: false,
                },
            );
        }
    }

    fn parcels(&mut self) -> &mut Parcels {
        self.parcels
    }
}

/// The node-state side of a firing event: the slice of nodes the engine owns
/// (all of them serially; one partition's worth in a parallel LP), plus the
/// trace/note channels and reusable scratch buffers. `base` maps global
/// [`NodeId`]s onto the slice.
pub(crate) struct NodeCtx<'a> {
    pub nodes: &'a mut [Node],
    pub base: usize,
    pub tracer: &'a Tracer,
    pub notes: &'a mut Vec<NoteRecord>,
    pub mcp_scratch: &'a mut Vec<McpOutput>,
    pub action_scratch: &'a mut Vec<HostAction>,
}

impl NodeCtx<'_> {
    #[inline]
    fn node(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.0 - self.base]
    }

    fn take_outs(&mut self) -> Vec<McpOutput> {
        std::mem::take(&mut *self.mcp_scratch)
    }

    fn put_outs(&mut self, outs: Vec<McpOutput>) {
        debug_assert!(outs.is_empty(), "scratch returned undrained");
        *self.mcp_scratch = outs;
    }
}

/// Shorthand for a cluster simulation.
pub type ClusterSim = Simulation<Cluster, ClusterEvent>;
/// Shorthand for the cluster scheduler.
pub(crate) type ClusterSched = Scheduler<Cluster, ClusterEvent>;

/// A typed scheduler event on the cluster — the allocation-free encoding of
/// everything the cluster schedules, hot path and program installation
/// alike, so every event runs under both the serial and the parallel
/// engine. Packets, host events and send tokens wait in the sink's
/// [`Parcels`] and travel here as 4-byte handles, so an event is at most
/// 32 bytes.
pub enum ClusterEvent {
    /// The SEND machine's wire-injection instant arrived for this packet.
    Transmit(Handle<Packet>),
    /// A worm fully arrived at its destination NIC.
    WireDeliver {
        /// The packet.
        pkt: Handle<Packet>,
        /// CRC failure injected by the fabric.
        corrupted: bool,
    },
    /// An RDMA into a host buffer completed: enqueue for the poll loop.
    HostDeliver {
        /// Destination node.
        node: NodeId,
        /// Destination port.
        port: PortId,
        /// The delivered event.
        ev: Handle<GmEvent>,
    },
    /// The host finished processing one `HRecv`.
    HostProcess {
        /// The node whose host poll loop advances.
        node: NodeId,
    },
    /// A firmware timer expired.
    McpTimer {
        /// The node whose firmware set the timer.
        node: NodeId,
        /// What to do on expiry.
        kind: TimerKind,
    },
    /// The host finished initiating a send: the SDMA machine can detect the
    /// queued send token.
    SendTokenReady {
        /// The sending node.
        node: NodeId,
        /// The queued token.
        token: Handle<SendToken>,
    },
    /// The host finished queueing receive buffers: hand them to the port.
    ProvideRecv {
        /// The node providing buffers.
        node: NodeId,
        /// The port receiving them.
        port: PortId,
        /// How many buffers.
        n: u32,
    },
    /// The host reached the port close in program order.
    ClosePort {
        /// The node closing a port.
        node: NodeId,
        /// The port being closed.
        port: PortId,
    },
    /// A program's scheduled start time arrived: install it on its port
    /// (an endpoint may be owned by successive processes — the §3.2 A/A′
    /// case) and run `on_start`.
    StartProgram {
        /// The node the program runs on.
        node: NodeId,
        /// The port it owns.
        port: PortId,
        /// The program itself.
        program: Box<dyn HostProgram>,
    },
}

const _: () = assert!(std::mem::size_of::<ClusterEvent>() <= 32);

impl Event<Cluster> for ClusterEvent {
    fn fire(self, cl: &mut Cluster, s: &mut ClusterSched) {
        let Cluster {
            nodes,
            fabric,
            tracer,
            notes,
            mcp_scratch,
            action_scratch,
            parcels,
            ..
        } = cl;
        let mut ctx = NodeCtx {
            nodes,
            base: 0,
            tracer,
            notes,
            mcp_scratch,
            action_scratch,
        };
        let mut sink = SerialSink {
            fabric,
            sched: s,
            parcels,
        };
        let noted = ctx.notes.len();
        fire_ev(self, &mut ctx, &mut sink);
        if cl.notes.len() > noted {
            steady::after_notes(cl, s, noted);
        }
    }
}

/// Fire one typed event against the engine-agnostic world slice. This is
/// the single dispatch point both execution engines monomorphize.
pub(crate) fn fire_ev<S: EventSink>(ev: ClusterEvent, ctx: &mut NodeCtx, sink: &mut S) {
    match ev {
        ClusterEvent::Transmit(pkt) => transmit_now(pkt, ctx, sink),
        ClusterEvent::WireDeliver { pkt, corrupted } => wire_deliver(pkt, corrupted, ctx, sink),
        ClusterEvent::HostDeliver { node, port, ev } => host_deliver(node, port, ev, ctx, sink),
        ClusterEvent::HostProcess { node } => host_process(node, ctx, sink),
        ClusterEvent::McpTimer { node, kind } => {
            let mut outs = ctx.take_outs();
            let now = sink.now();
            ctx.node(node).mcp.handle_timer_into(kind, now, &mut outs);
            pump(&mut ctx.node(node).mcp.core, &mut outs, sink);
            ctx.put_outs(outs);
        }
        ClusterEvent::SendTokenReady { node, token } => {
            let token = sink.parcels().tokens.take(token);
            let mut outs = ctx.take_outs();
            let now = sink.now();
            ctx.node(node)
                .mcp
                .handle_send_token_into(token, now, &mut outs);
            pump(&mut ctx.node(node).mcp.core, &mut outs, sink);
            ctx.put_outs(outs);
        }
        ClusterEvent::ProvideRecv { node, port, n } => {
            for _ in 0..n {
                ctx.node(node).mcp.core.port_mut(port).provide_recv_token();
            }
        }
        ClusterEvent::ClosePort { node, port } => {
            let mut outs = ctx.take_outs();
            let now = sink.now();
            ctx.node(node).mcp.close_port_into(port, now, &mut outs);
            pump(&mut ctx.node(node).mcp.core, &mut outs, sink);
            ctx.put_outs(outs);
        }
        ClusterEvent::StartProgram {
            node,
            port,
            program,
        } => {
            let port_open = ctx.node(node).mcp.core.port(port).is_open();
            let slot = &mut ctx.node(node).programs[port.idx()];
            assert!(
                slot.is_none() || !port_open,
                "two live programs on {node:?}{port:?}"
            );
            *slot = Some(program);
            start_program(node, port, ctx, sink);
        }
    }
}

/// Factory producing the firmware extension for each node; receives the
/// node id, the cluster size, and the configuration.
pub type ExtFactory = Box<dyn Fn(NodeId, usize, &GmConfig) -> Box<dyn McpExtension>>;

/// A program start request: which port runs it, the program itself, and
/// the virtual time it begins.
pub type ProgramStart = (GlobalPort, Box<dyn HostProgram>, SimTime);

/// Builds a [`ClusterSim`] with programs scheduled to start.
pub struct ClusterBuilder {
    size: usize,
    config: GmConfig,
    topology: Option<Topology>,
    faults: Option<(FaultPlan, u64)>,
    ext_factory: ExtFactory,
    programs: Vec<ProgramStart>,
    tracer: Option<Tracer>,
}

impl ClusterBuilder {
    /// A builder for `size` nodes with default config, a single-crossbar
    /// topology, and no firmware extension.
    pub fn new(size: usize) -> Self {
        assert!(size >= 1);
        ClusterBuilder {
            size,
            config: GmConfig::default(),
            topology: None,
            faults: None,
            ext_factory: Box::new(|_, _, _| Box::new(NullExtension)),
            programs: Vec::new(),
            tracer: None,
        }
    }

    /// Replace the configuration.
    pub fn config(mut self, config: GmConfig) -> Self {
        self.config = config;
        self
    }

    /// Replace the default single-switch topology.
    ///
    /// # Panics
    /// Panics (at `build`) if the topology has fewer NICs than nodes.
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Enable fault injection.
    pub fn faults(mut self, plan: FaultPlan, seed: u64) -> Self {
        self.faults = Some((plan, seed));
        self
    }

    /// Install a firmware extension on every NIC.
    pub fn extension<F>(mut self, f: F) -> Self
    where
        F: Fn(NodeId, usize, &GmConfig) -> Box<dyn McpExtension> + 'static,
    {
        self.ext_factory = Box::new(f);
        self
    }

    /// Run `program` on endpoint `at`, starting (opening its port) at time
    /// `start`.
    pub fn program(
        mut self,
        at: GlobalPort,
        program: Box<dyn HostProgram>,
        start: SimTime,
    ) -> Self {
        assert!(at.node.0 < self.size, "program node out of range");
        assert!(at.port.is_user(), "programs must use user ports");
        self.programs.push((at, program, start));
        self
    }

    /// Keep a bounded structured event trace of up to `capacity` records.
    pub fn trace(mut self, capacity: usize) -> Self {
        self.tracer = Some(Tracer::bounded(capacity));
        self
    }

    /// Record into a caller-owned [`Tracer`] handle instead of an internal
    /// one (lets the caller keep reading after the simulation is dropped).
    pub fn tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Assemble the world plus the list of program-start events, without
    /// committing to an execution engine. The starts are returned in
    /// scheduling order — both engines must seed them in exactly this order
    /// for same-timestamp ties to resolve identically.
    pub fn build_parts(self) -> (Cluster, Vec<ProgramStart>) {
        // Default fabric follows the standard policy: one crossbar up to
        // 16 nodes (every paper-sized cluster is unaffected), a two-level
        // Clos to 1024 hosts, a three-level Clos beyond — a >16-port single
        // crossbar never existed.
        let topology = self
            .topology
            .unwrap_or_else(|| TopologyBuilder::for_cluster(self.size));
        assert!(
            topology.nic_count() >= self.size,
            "topology has {} NICs for {} nodes",
            topology.nic_count(),
            self.size
        );
        let fabric = match self.faults {
            Some((plan, seed)) => Fabric::new(topology).with_faults(plan, seed),
            None => Fabric::new(topology),
        };
        let tracer = self.tracer.unwrap_or_default();
        let nodes = (0..self.size)
            .map(|i| {
                let node = NodeId(i);
                let mut core = McpCore::new(node, self.size, self.config);
                core.set_tracer(tracer.clone());
                let ext = (self.ext_factory)(node, self.size, &self.config);
                Node {
                    host: Host::new(node, &self.config),
                    mcp: Mcp::new(core, ext),
                    programs: (0..8).map(|_| None).collect(),
                }
            })
            .collect();
        let cluster = Cluster {
            nodes,
            fabric,
            tracer,
            notes: Vec::new(),
            config: self.config,
            parcels: Parcels::default(),
            mcp_scratch: Vec::new(),
            action_scratch: Vec::new(),
            steady: Detector::default(),
        };
        (cluster, self.programs)
    }

    /// Assemble the (serial) simulation and schedule all program starts.
    pub fn build(self) -> ClusterSim {
        let (cluster, starts) = self.build_parts();
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
        sim
    }
}

/// Schedule the effects of MCP outputs produced by `core`'s firmware,
/// draining the buffer so it can be reused. Timers are named back to the
/// firmware, which hands the name over again to cancel one.
pub fn pump<S: EventSink>(core: &mut McpCore, outs: &mut Vec<McpOutput>, sink: &mut S) {
    let node = core.node();
    for o in outs.drain(..) {
        match o {
            McpOutput::Transmit { at, pkt } => {
                let pkt = sink.parcels().packets.park(pkt);
                sink.schedule(at, ClusterEvent::Transmit(pkt));
            }
            McpOutput::HostEvent { at, port, ev } => {
                let ev = sink.parcels().events.park(ev);
                sink.schedule(at, ClusterEvent::HostDeliver { node, port, ev });
            }
            McpOutput::Timer { at, kind } => {
                let id = sink.schedule(at, ClusterEvent::McpTimer { node, kind });
                core.bind_timer(kind, id);
            }
            McpOutput::CancelTimer { id } => sink.cancel(id),
        }
    }
}

/// The SEND machine's wire injection instant arrived: put the worm on the
/// fabric (or loop it back NIC-internally).
fn transmit_now<S: EventSink>(h: Handle<Packet>, ctx: &mut NodeCtx, sink: &mut S) {
    let pkt = sink.parcels().packets.get(h);
    let (src, dst, kind) = (pkt.src.node, pkt.dst.node, pkt.trace_code());
    let now = sink.now();
    ctx.tracer.record(
        now,
        ComponentId {
            node: src.0 as u32,
            unit: Unit::Wire,
        },
        TracePayload::WireInject {
            dst: dst.0 as u32,
            kind,
        },
    );
    if src == dst {
        // NIC-internal loopback: the packet never touches the wire (and
        // never leaves the partition, so both engines handle it inline).
        let pkt = sink.parcels().packets.take(h);
        let mut outs = ctx.take_outs();
        ctx.node(dst)
            .mcp
            .handle_wire_packet_into(pkt, false, now, &mut outs);
        pump(&mut ctx.node(dst).mcp.core, &mut outs, sink);
        ctx.put_outs(outs);
        return;
    }
    sink.transmit(h);
}

/// A worm fully arrived at its destination NIC: run the RECV machine.
fn wire_deliver<S: EventSink>(h: Handle<Packet>, corrupted: bool, ctx: &mut NodeCtx, sink: &mut S) {
    let pkt = sink.parcels().packets.take(h);
    let dst = pkt.dst.node;
    let now = sink.now();
    ctx.tracer.record(
        now,
        ComponentId {
            node: dst.0 as u32,
            unit: Unit::Wire,
        },
        TracePayload::WireDeliver {
            src: pkt.src.node.0 as u32,
            kind: pkt.trace_code(),
            corrupted,
        },
    );
    let mut outs = ctx.take_outs();
    ctx.node(dst)
        .mcp
        .handle_wire_packet_into(pkt, corrupted, now, &mut outs);
    pump(&mut ctx.node(dst).mcp.core, &mut outs, sink);
    ctx.put_outs(outs);
}

/// An RDMA to a host buffer completed: enter the host poll loop.
fn host_deliver<S: EventSink>(
    node: NodeId,
    port: PortId,
    ev: Handle<GmEvent>,
    ctx: &mut NodeCtx,
    sink: &mut S,
) {
    let ev = sink.parcels().events.take(ev);
    let now = sink.now();
    if let Some(at) = ctx.node(node).host.enqueue(port, ev, now) {
        sink.schedule(at, ClusterEvent::HostProcess { node });
    }
}

/// One HRecv completed: run the owning program's callback.
fn host_process<S: EventSink>(node: NodeId, ctx: &mut NodeCtx, sink: &mut S) {
    let now = sink.now();
    let (port, ev) = ctx.node(node).host.finish();
    let mut program = ctx.node(node).programs[port.idx()]
        .take()
        .unwrap_or_else(|| panic!("event {ev:?} for {node:?}{port:?} with no program"));
    let buf = std::mem::take(&mut *ctx.action_scratch);
    let mut hctx = HostCtx::with_buffer(now, node, port, buf, ctx.tracer.clone());
    program.on_event(&ev, &mut hctx);
    ctx.node(node).programs[port.idx()] = Some(program);
    let mut actions = hctx.into_actions();
    apply_actions(node, port, &mut actions, ctx, sink);
    *ctx.action_scratch = actions;
    if let Some(at) = ctx.node(node).host.next(now) {
        sink.schedule(at, ClusterEvent::HostProcess { node });
    }
}

/// A program's scheduled start time arrived: open its port and run
/// `on_start`.
fn start_program<S: EventSink>(node: NodeId, port: PortId, ctx: &mut NodeCtx, sink: &mut S) {
    let now = sink.now();
    let mut outs = ctx.take_outs();
    ctx.node(node).mcp.open_port_into(port, now, &mut outs);
    pump(&mut ctx.node(node).mcp.core, &mut outs, sink);
    ctx.put_outs(outs);
    let mut program = ctx.node(node).programs[port.idx()]
        .take()
        .expect("start for unregistered program");
    let buf = std::mem::take(&mut *ctx.action_scratch);
    let mut hctx = HostCtx::with_buffer(now, node, port, buf, ctx.tracer.clone());
    program.on_start(&mut hctx);
    ctx.node(node).programs[port.idx()] = Some(program);
    let mut actions = hctx.into_actions();
    apply_actions(node, port, &mut actions, ctx, sink);
    *ctx.action_scratch = actions;
}

/// Interpret the actions a program emitted during one callback, draining
/// the buffer so it can be reused.
fn apply_actions<S: EventSink>(
    node: NodeId,
    port: PortId,
    actions: &mut Vec<HostAction>,
    ctx: &mut NodeCtx,
    sink: &mut S,
) {
    let now = sink.now();
    for action in actions.drain(..) {
        match action {
            HostAction::Send {
                dst,
                len,
                tag,
                notify,
            } => {
                let ok = ctx.node(node).mcp.core.port_mut(port).take_send_token();
                assert!(ok, "send tokens exhausted on {node:?}{port:?}");
                let at = ctx.node(node).host.reserve_send(now);
                let token = sink.parcels().tokens.park(SendToken::Data {
                    src_port: port,
                    dst,
                    len,
                    tag,
                    notify,
                });
                sink.schedule(at, ClusterEvent::SendTokenReady { node, token });
            }
            HostAction::Collective(token) => {
                // Models the paper's two-call sequence (§5.2): the process
                // first calls gm_provide_barrier_buffer(), then
                // gm_barrier_send_with_callback() consumes a send token.
                ctx.node(node)
                    .mcp
                    .core
                    .port_mut(port)
                    .provide_barrier_buffer();
                let ok = ctx.node(node).mcp.core.port_mut(port).take_send_token();
                assert!(ok, "send tokens exhausted on {node:?}{port:?}");
                let at = ctx.node(node).host.reserve_send(now);
                let token = sink.parcels().tokens.park(SendToken::Collective {
                    src_port: port,
                    token,
                });
                sink.schedule(at, ClusterEvent::SendTokenReady { node, token });
            }
            HostAction::ProvideRecv(n) => {
                // Takes effect in program order (after any compute/send the
                // program queued before it in this callback).
                let at = ctx.node(node).host.reserve(SimTime::ZERO, now);
                sink.schedule(at, ClusterEvent::ProvideRecv { node, port, n });
            }
            HostAction::Compute(dur) => {
                ctx.node(node).host.reserve_compute(dur, now);
            }
            HostAction::Note(tag) => {
                ctx.notes.push(NoteRecord::new(now, node, port, tag));
            }
            HostAction::NoteAtBusy(tag) => {
                let at = ctx.node(node).host.busy_until().max(now);
                ctx.notes.push(NoteRecord::new(at, node, port, tag));
            }
            HostAction::ClosePort => {
                // Takes effect in program order: after the host work the
                // program queued before it (sends, compute) has elapsed.
                let at = ctx.node(node).host.reserve(SimTime::ZERO, now);
                sink.schedule(at, ClusterEvent::ClosePort { node, port });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmsim_des::RunOutcome;

    /// Sends one message to a peer; the peer echoes it back.
    struct PingPong {
        peer: GlobalPort,
        initiator: bool,
        log: Vec<(SimTime, u64)>,
    }

    impl HostProgram for PingPong {
        fn on_start(&mut self, ctx: &mut HostCtx) {
            if self.initiator {
                ctx.send(self.peer, 64, 1);
            }
        }
        fn on_event(&mut self, ev: &GmEvent, ctx: &mut HostCtx) {
            if let GmEvent::Recv { tag, .. } = ev {
                self.log.push((ctx.now, *tag));
                ctx.note(*tag);
                ctx.provide_recv(1);
                if *tag < 3 {
                    ctx.send(self.peer, 64, tag + 1);
                }
            }
        }
    }

    fn pingpong_sim() -> ClusterSim {
        ClusterBuilder::new(2)
            .program(
                GlobalPort::new(0, 1),
                Box::new(PingPong {
                    peer: GlobalPort::new(1, 1),
                    initiator: true,
                    log: vec![],
                }),
                SimTime::ZERO,
            )
            .program(
                GlobalPort::new(1, 1),
                Box::new(PingPong {
                    peer: GlobalPort::new(0, 1),
                    initiator: false,
                    log: vec![],
                }),
                SimTime::ZERO,
            )
            .build()
    }

    #[test]
    fn ping_pong_round_trip() {
        let mut sim = pingpong_sim();
        assert_eq!(sim.run(), RunOutcome::Quiescent);
        let cl = sim.world();
        // tags 1 and 3 land on node 1; tag 2 lands on node 0
        assert_eq!(cl.nodes[1].mcp.core.stats.data_delivered, 2);
        assert_eq!(cl.nodes[0].mcp.core.stats.data_delivered, 1);
        // all reliable packets were acked; nothing in flight
        assert_eq!(cl.nodes[0].mcp.core.conn(NodeId(1)).in_flight(), 0);
        assert_eq!(cl.nodes[1].mcp.core.conn(NodeId(0)).in_flight(), 0);
        // no retransmissions on a clean fabric
        assert_eq!(cl.nodes[0].mcp.core.stats.retx, 0);
        // The acks cancelled every RTO timer: none fired, and the run
        // ended with the last delivery, not one RTO after it.
        for (node, peer) in [(0, 1), (1, 0)] {
            let core = &cl.nodes[node].mcp.core;
            assert!(!core.conn(NodeId(peer)).timer_armed());
            assert_eq!(core.stats.timer_cancels, 0);
        }
        assert!(sim.now() < cl.config().retransmit_timeout);
    }

    /// A ping-pong run's output digest after `f` edits its world, and its
    /// `CompletionDmas` summed over the nodes, as a `MetricSet` keeps it.
    fn digest_after(f: impl FnOnce(&mut Cluster)) -> (u64, u64) {
        let mut sim = pingpong_sim();
        sim.run();
        f(sim.world_mut());
        let mut dmas = 0;
        let digest = sim.world().output_digest(sim.events_fired(), |id, v| {
            dmas += v * u64::from(id == Some(Counter::CompletionDmas));
        });
        (digest, dmas)
    }

    #[test]
    fn output_digest_sees_a_count_moved_between_nodes() {
        let (base, dmas) = digest_after(|_| {});
        assert_eq!(digest_after(|_| {}), (base, dmas));
        let (moved, moved_dmas) = digest_after(|cl| {
            cl.nodes[1].mcp.core.stats.host_events -= 1;
            cl.nodes[0].mcp.core.stats.host_events += 1;
        });
        assert_eq!(moved_dmas, dmas);
        assert_ne!(moved, base);
    }

    #[test]
    fn output_digest_sees_a_note_one_tick_late() {
        let late = digest_after(|cl| cl.notes[1].at += SimTime::from_ns(1));
        assert_ne!(late.0, digest_after(|_| {}).0);
    }

    #[test]
    fn output_digest_sees_the_order_of_notes() {
        let swapped = digest_after(|cl| cl.notes.swap(0, 1));
        assert_ne!(swapped.0, digest_after(|_| {}).0);
    }

    #[test]
    fn one_way_latency_matches_calibration() {
        // One message end to end should cost ≈ Send + SDMA + Network +
        // Recv + RDMA + HRecv ≈ 45.5 us on LANai 4.3 (DESIGN.md §9).
        struct OneShot {
            peer: GlobalPort,
        }
        impl HostProgram for OneShot {
            fn on_start(&mut self, ctx: &mut HostCtx) {
                ctx.send(self.peer, 8, 7);
            }
            fn on_event(&mut self, _: &GmEvent, _: &mut HostCtx) {}
        }
        struct Sink;
        impl HostProgram for Sink {
            fn on_start(&mut self, _: &mut HostCtx) {}
            fn on_event(&mut self, ev: &GmEvent, ctx: &mut HostCtx) {
                if matches!(ev, GmEvent::Recv { .. }) {
                    ctx.note(100);
                }
            }
        }
        let mut sim = ClusterBuilder::new(2)
            .program(
                GlobalPort::new(0, 1),
                Box::new(OneShot {
                    peer: GlobalPort::new(1, 1),
                }),
                SimTime::ZERO,
            )
            .program(GlobalPort::new(1, 1), Box::new(Sink), SimTime::ZERO)
            .build();
        sim.run();
        let t = sim.world().notes_tagged(100).next().unwrap().at;
        let us = t.as_us_f64();
        assert!(
            (40.0..52.0).contains(&us),
            "one-way latency {us:.2}us out of calibration band"
        );
    }

    #[test]
    fn dropped_packets_are_retransmitted() {
        struct OneShot {
            peer: GlobalPort,
        }
        impl HostProgram for OneShot {
            fn on_start(&mut self, ctx: &mut HostCtx) {
                ctx.send(self.peer, 8, 7);
            }
            fn on_event(&mut self, _: &GmEvent, _: &mut HostCtx) {}
        }
        struct Sink(u32);
        impl HostProgram for Sink {
            fn on_start(&mut self, _: &mut HostCtx) {}
            fn on_event(&mut self, ev: &GmEvent, _: &mut HostCtx) {
                if matches!(ev, GmEvent::Recv { .. }) {
                    self.0 += 1;
                }
            }
        }
        // 50% drop rate: delivery must still happen, via timeouts.
        let mut sim = ClusterBuilder::new(2)
            .faults(FaultPlan::drops(0.5), 1234)
            .program(
                GlobalPort::new(0, 1),
                Box::new(OneShot {
                    peer: GlobalPort::new(1, 1),
                }),
                SimTime::ZERO,
            )
            .program(GlobalPort::new(1, 1), Box::new(Sink(0)), SimTime::ZERO)
            .build();
        assert_eq!(sim.run(), RunOutcome::Quiescent);
        assert_eq!(sim.world().nodes[1].mcp.core.stats.data_delivered, 1);
    }

    #[test]
    fn same_seed_same_trace() {
        let fingerprint = || {
            let tracer = Tracer::bounded(4096);
            let mut sim = ClusterBuilder::new(2)
                .tracer(tracer.clone())
                .program(
                    GlobalPort::new(0, 1),
                    Box::new(PingPong {
                        peer: GlobalPort::new(1, 1),
                        initiator: true,
                        log: vec![],
                    }),
                    SimTime::ZERO,
                )
                .program(
                    GlobalPort::new(1, 1),
                    Box::new(PingPong {
                        peer: GlobalPort::new(0, 1),
                        initiator: false,
                        log: vec![],
                    }),
                    SimTime::ZERO,
                )
                .build();
            sim.run();
            assert!(!tracer.is_empty(), "structured trace captured nothing");
            tracer.fingerprint()
        };
        assert_eq!(fingerprint(), fingerprint());
    }

    #[test]
    fn notes_are_timestamped_in_order() {
        struct Noter;
        impl HostProgram for Noter {
            fn on_start(&mut self, ctx: &mut HostCtx) {
                ctx.note(1);
                ctx.compute(SimTime::from_us(10));
                ctx.note(2);
            }
            fn on_event(&mut self, _: &GmEvent, _: &mut HostCtx) {}
        }
        let mut sim = ClusterBuilder::new(1)
            .program(GlobalPort::new(0, 1), Box::new(Noter), SimTime::from_us(5))
            .build();
        sim.run();
        let notes = &sim.world().notes;
        assert_eq!(notes.len(), 2);
        // Notes record when the callback ran, not the compute time.
        assert_eq!(notes[0].at, SimTime::from_us(5));
        assert_eq!(notes[1].at, SimTime::from_us(5));
    }
}
