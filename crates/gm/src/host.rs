//! The host side: processor occupancy, the process model, and the GM host
//! API surface.
//!
//! GM processes communicate by filling send tokens and polling
//! `gm_receive()`. We model a process as a [`HostProgram`]: an event-driven
//! state machine that reacts to [`GmEvent`]s and emits [`HostAction`]s. The
//! host processor itself is a serial resource with a `busy_until` clock and
//! two calibrated overheads — the paper's *Send* (initiating a send until
//! the NIC can detect it) and *HRecv* (processing one returned event).
//!
//! Because the host is explicitly modelled as *busy* only while sending,
//! receiving or computing, the fuzzy-barrier behaviour of §2.1 falls out
//! naturally: between initiating a NIC-based barrier and its completion
//! event, [`HostAction::Compute`] time overlaps the in-flight barrier.

use crate::config::GmConfig;
use crate::events::GmEvent;
use crate::ids::{GlobalPort, NodeId, PortId};
use crate::steady::{Rebase, SteadyProgram};
use crate::token::CollectiveToken;
use gmsim_des::trace::{ComponentId, TracePayload, Tracer, Unit};
use gmsim_des::{Counter, SimTime, Walk};
use std::collections::VecDeque;

/// Host processor counters.
#[derive(Debug, Clone, Default)]
pub struct HostStats {
    /// Events processed through the poll loop.
    pub events: u64,
    /// Sends initiated.
    pub sends: u64,
    /// Total application compute time executed.
    pub compute: SimTime,
}

/// One node's host processor and its event queue.
#[derive(Debug)]
pub struct Host {
    node: NodeId,
    send_overhead: SimTime,
    recv_overhead: SimTime,
    busy_until: SimTime,
    pending: VecDeque<(PortId, GmEvent)>,
    processing: bool,
    /// Counters.
    pub stats: HostStats,
}

impl Host {
    /// A host for `node` with the configured overheads.
    pub fn new(node: NodeId, config: &GmConfig) -> Self {
        Host {
            node,
            send_overhead: config.host_send_overhead,
            recv_overhead: config.host_recv_overhead,
            busy_until: SimTime::ZERO,
            pending: VecDeque::new(),
            processing: false,
            stats: HostStats::default(),
        }
    }

    /// This host's node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// When the host processor is next free.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// An event's RDMA completed at `now`: queue it for the poll loop.
    /// Returns the processing-completion time to schedule, if the loop was
    /// idle (otherwise the in-flight processing will chain to it).
    pub fn enqueue(&mut self, port: PortId, ev: GmEvent, now: SimTime) -> Option<SimTime> {
        self.pending.push_back((port, ev));
        if self.processing {
            return None;
        }
        self.processing = true;
        Some(self.reserve(self.recv_overhead, now))
    }

    /// Processing of the head event finished: pop and return it.
    ///
    /// # Panics
    /// Panics if nothing was being processed (scheduling bug).
    pub fn finish(&mut self) -> (PortId, GmEvent) {
        assert!(self.processing, "finish without processing");
        self.stats.events += 1;
        self.pending.pop_front().expect("processing an empty queue")
    }

    /// After the program reacted (and possibly extended `busy_until`),
    /// chain to the next queued event, if any. Returns the next
    /// processing-completion time to schedule.
    pub fn next(&mut self, now: SimTime) -> Option<SimTime> {
        if self.pending.is_empty() {
            self.processing = false;
            return None;
        }
        Some(self.reserve(self.recv_overhead, now))
    }

    /// Occupy the host for `dur` starting no earlier than `now`; returns
    /// the end time.
    pub fn reserve(&mut self, dur: SimTime, now: SimTime) -> SimTime {
        let start = self.busy_until.max(now);
        self.busy_until = start + dur;
        self.busy_until
    }

    /// Occupy the host for one send initiation; returns when the NIC can
    /// detect the token (the paper's *Send* term ends).
    pub fn reserve_send(&mut self, now: SimTime) -> SimTime {
        self.stats.sends += 1;
        self.reserve(self.send_overhead, now)
    }

    /// Occupy the host with application compute.
    pub fn reserve_compute(&mut self, dur: SimTime, now: SimTime) -> SimTime {
        self.stats.compute += dur;
        self.reserve(dur, now)
    }

    /// Events waiting in the poll queue.
    pub fn queue_depth(&self) -> usize {
        self.pending.len()
    }
}

gmsim_des::walk! {
    pub(crate) fn walk(cx: &mut Rebase) for Host {
        node, send_overhead, recv_overhead: scratch("fixed at build"),
        busy_until: state(h => h.horizon(*busy_until)),
        pending: state(h => {
            pending.len().hash(h);
            for &(port, ev) in pending {
                h.item();
                cx.gm_event(GlobalPort { node: *node, port }, &ev, h);
            }
        }),
        processing: state,
        stats: walk(),
    }
}

gmsim_des::walk! {
    impl Walk for HostStats {
        events: counter(Counter::HostEvents),
        sends: counter(Counter::HostSends),
        compute: counter,
    }
}

/// What a process can ask the system to do.
#[derive(Debug, Clone)]
pub enum HostAction {
    /// `gm_send_with_callback`: send `len` bytes to `dst`.
    Send {
        /// Destination endpoint.
        dst: GlobalPort,
        /// Payload bytes.
        len: usize,
        /// Application tag.
        tag: u64,
        /// Request a `Sent` completion event.
        notify: bool,
    },
    /// `gm_provide_receive_buffer`, `n` times.
    ProvideRecv(u32),
    /// `gm_barrier_send_with_callback` and friends: start a NIC collective.
    Collective(CollectiveToken),
    /// Application computation occupying the host.
    Compute(SimTime),
    /// Record a timestamped measurement mark.
    Note(u64),
    /// Record a mark timestamped at the end of the host work queued so far
    /// in this callback (program-order completion time).
    NoteAtBusy(u64),
    /// Close this port (process exit).
    ClosePort,
}

/// The API handle a program uses during one callback.
#[derive(Debug)]
pub struct HostCtx {
    /// Current virtual time.
    pub now: SimTime,
    /// The node this program runs on.
    pub node: NodeId,
    /// The port this program owns.
    pub port: PortId,
    actions: Vec<HostAction>,
    tracer: Tracer,
}

impl HostCtx {
    /// A fresh context for one callback (tracing disabled; unit tests).
    pub fn new(now: SimTime, node: NodeId, port: PortId) -> Self {
        HostCtx::with_buffer(now, node, port, Vec::new(), Tracer::disabled())
    }

    /// A context reusing a caller-owned (empty) action buffer, so the
    /// cluster's host-event hot path allocates no per-callback `Vec`.
    pub fn with_buffer(
        now: SimTime,
        node: NodeId,
        port: PortId,
        actions: Vec<HostAction>,
        tracer: Tracer,
    ) -> Self {
        debug_assert!(actions.is_empty(), "recycled action buffer not drained");
        HostCtx {
            now,
            node,
            port,
            actions,
            tracer,
        }
    }

    /// Record a structured trace event attributed to this node's host
    /// processor (no-op when tracing is disabled).
    pub fn trace(&self, payload: TracePayload) {
        self.tracer.record(
            self.now,
            ComponentId {
                node: self.node.0 as u32,
                unit: Unit::Host,
            },
            payload,
        );
    }

    /// The endpoint this program owns.
    pub fn me(&self) -> GlobalPort {
        GlobalPort {
            node: self.node,
            port: self.port,
        }
    }

    /// Send without a completion callback.
    pub fn send(&mut self, dst: GlobalPort, len: usize, tag: u64) {
        self.actions.push(HostAction::Send {
            dst,
            len,
            tag,
            notify: false,
        });
    }

    /// Send with a `Sent` completion event.
    pub fn send_notify(&mut self, dst: GlobalPort, len: usize, tag: u64) {
        self.actions.push(HostAction::Send {
            dst,
            len,
            tag,
            notify: true,
        });
    }

    /// Provide `n` receive buffers.
    pub fn provide_recv(&mut self, n: u32) {
        self.actions.push(HostAction::ProvideRecv(n));
    }

    /// Start a NIC-based collective described by `token`.
    pub fn start_collective(&mut self, token: CollectiveToken) {
        self.actions.push(HostAction::Collective(token));
    }

    /// Perform `dur` of application computation.
    pub fn compute(&mut self, dur: SimTime) {
        self.actions.push(HostAction::Compute(dur));
    }

    /// Record measurement mark `tag` (timestamped by the cluster).
    pub fn note(&mut self, tag: u64) {
        self.actions.push(HostAction::Note(tag));
    }

    /// Record mark `tag`, timestamped when the host finishes the work this
    /// callback queued before it (compute, send initiations).
    pub fn note_after_work(&mut self, tag: u64) {
        self.actions.push(HostAction::NoteAtBusy(tag));
    }

    /// Close the port and exit.
    pub fn close_port(&mut self) {
        self.actions.push(HostAction::ClosePort);
    }

    /// Drain the collected actions (cluster glue only).
    pub fn into_actions(self) -> Vec<HostAction> {
        self.actions
    }
}

/// A modelled GM process.
///
/// `Send` because the parallel engine moves each partition's nodes — and
/// the programs installed on them — onto worker threads.
pub trait HostProgram: Send {
    /// The process started and its port is open.
    fn on_start(&mut self, ctx: &mut HostCtx);

    /// `gm_receive()` returned `ev`.
    fn on_event(&mut self, ev: &GmEvent, ctx: &mut HostCtx);

    /// This program's steady-state hooks ([`crate::steady`]), if it has
    /// them. The default `None` keeps every run this program takes part
    /// in a full simulation.
    fn steady(&self) -> Option<&dyn SteadyProgram> {
        None
    }

    /// [`HostProgram::steady`], mutably: `Some` exactly when `steady` is.
    fn steady_mut(&mut self) -> Option<&mut dyn SteadyProgram> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::TeamId;

    fn host() -> Host {
        Host::new(NodeId(0), &GmConfig::default())
    }

    #[test]
    fn enqueue_idle_schedules_processing() {
        let mut h = host();
        let at = h.enqueue(
            PortId(1),
            GmEvent::BarrierComplete {
                team: TeamId::GLOBAL,
            },
            SimTime::from_us(10),
        );
        // HRecv = 6.8us
        assert_eq!(at, Some(SimTime::from_us_f64(16.8)));
        assert_eq!(h.queue_depth(), 1);
    }

    #[test]
    fn enqueue_while_processing_chains() {
        let mut h = host();
        let first = h.enqueue(
            PortId(1),
            GmEvent::BarrierComplete {
                team: TeamId::GLOBAL,
            },
            SimTime::ZERO,
        );
        assert!(first.is_some());
        let second = h.enqueue(
            PortId(1),
            GmEvent::BarrierComplete {
                team: TeamId::GLOBAL,
            },
            SimTime::ZERO,
        );
        assert!(second.is_none(), "loop already running");
        let (_, _) = h.finish();
        let next = h.next(first.unwrap());
        assert_eq!(
            next,
            Some(SimTime::from_us_f64(13.6)),
            "second HRecv starts right after the first"
        );
        h.finish();
        assert_eq!(h.next(SimTime::from_us(20)), None);
    }

    #[test]
    fn busy_host_delays_event_processing() {
        let mut h = host();
        h.reserve_compute(SimTime::from_us(100), SimTime::ZERO);
        let at = h.enqueue(
            PortId(1),
            GmEvent::BarrierComplete {
                team: TeamId::GLOBAL,
            },
            SimTime::from_us(5),
        );
        assert_eq!(at, Some(SimTime::from_us_f64(106.8)));
        assert_eq!(h.stats.compute, SimTime::from_us(100));
    }

    #[test]
    fn reserve_send_accumulates() {
        let mut h = host();
        let a = h.reserve_send(SimTime::ZERO);
        let b = h.reserve_send(SimTime::ZERO);
        assert_eq!(a, SimTime::from_us(8));
        assert_eq!(b, SimTime::from_us(16), "back-to-back sends serialize");
        assert_eq!(h.stats.sends, 2);
    }

    #[test]
    #[should_panic(expected = "finish without processing")]
    fn finish_when_idle_panics() {
        host().finish();
    }

    #[test]
    fn ctx_collects_actions_in_order() {
        let mut ctx = HostCtx::new(SimTime::ZERO, NodeId(0), PortId(1));
        ctx.send(GlobalPort::new(1, 1), 8, 1);
        ctx.compute(SimTime::from_us(5));
        ctx.note(99);
        let acts = ctx.into_actions();
        assert_eq!(acts.len(), 3);
        assert!(matches!(acts[0], HostAction::Send { notify: false, .. }));
        assert!(matches!(acts[1], HostAction::Compute(_)));
        assert!(matches!(acts[2], HostAction::Note(99)));
    }

    #[test]
    fn ctx_me_is_this_endpoint() {
        let ctx = HostCtx::new(SimTime::ZERO, NodeId(3), PortId(2));
        assert_eq!(ctx.me(), GlobalPort::new(3, 2));
    }
}
