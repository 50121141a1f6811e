//! The firmware extension hook.
//!
//! The paper implements its barrier "as an addition to Myricom's GM message
//! passing subsystem": new packet types handled inside the MCP's state
//! machines and a new kind of send token. [`McpExtension`] is that seam as
//! a trait — the `nic-barrier` crate plugs its barrier (and the future-work
//! collectives) into the firmware without this crate knowing anything about
//! barrier semantics.
//!
//! Extension handlers run *on the NIC*: they charge cycles on the NIC
//! processor through [`McpCore`] and emit the same
//! [`McpOutput`]s the built-in state machines do.

use crate::ids::{GlobalPort, PortId};
use crate::mcp::{McpCore, McpOutput};
use crate::packet::ExtPacket;
use crate::token::CollectiveToken;
use gmsim_des::{SimTime, Walk};
use std::any::Any;

/// Firmware extension entry points.
///
/// `now` is the virtual time the triggering condition became visible to the
/// firmware; implementations charge their processing cost via
/// `core.hw.cpu` and use `core` helpers to transmit packets or complete
/// events to the host, pushing results into `out`.
/// `Send` because the parallel engine moves each partition's NICs — and
/// their installed extensions — onto worker threads.
pub trait McpExtension: Send {
    /// The SDMA state machine picked up a collective send token queued by
    /// the host on `port` (the paper's `gm_barrier_send_with_callback`).
    fn on_collective_token(
        &mut self,
        core: &mut McpCore,
        port: PortId,
        token: CollectiveToken,
        now: SimTime,
        out: &mut Vec<McpOutput>,
    );

    /// The RECV/RDMA machinery accepted an extension packet addressed to
    /// `dst` (a port on this NIC) from `src`.
    fn on_ext_packet(
        &mut self,
        core: &mut McpCore,
        src: GlobalPort,
        dst: GlobalPort,
        body: ExtPacket,
        now: SimTime,
        out: &mut Vec<McpOutput>,
    );

    /// A process opened `port` (allows §3.2 record-then-reject handling).
    fn on_port_open(
        &mut self,
        core: &mut McpCore,
        port: PortId,
        now: SimTime,
        out: &mut Vec<McpOutput>,
    ) {
        let _ = (core, port, now, out);
    }

    /// A process closed `port`.
    fn on_port_close(
        &mut self,
        core: &mut McpCore,
        port: PortId,
        now: SimTime,
        out: &mut Vec<McpOutput>,
    ) {
        let _ = (core, port, now, out);
    }

    /// Downcast support, so tests and benches can read extension-specific
    /// statistics after a run.
    fn as_any(&self) -> &dyn Any;

    /// This extension's state walk, for fast-forward ([`crate::steady`]),
    /// if it has one. The default `None` keeps every run on this firmware a
    /// full simulation.
    fn steady(&self) -> Option<&dyn Walk> {
        None
    }

    /// [`McpExtension::steady`], mutably: `Some` exactly when `steady` is.
    fn steady_mut(&mut self) -> Option<&mut dyn Walk> {
        None
    }
}

/// Stock GM: no collective support. Receiving a collective token or packet
/// with this extension installed is a configuration error and panics.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct NullExtension;

impl McpExtension for NullExtension {
    fn on_collective_token(
        &mut self,
        _core: &mut McpCore,
        port: PortId,
        _token: CollectiveToken,
        _now: SimTime,
        _out: &mut Vec<McpOutput>,
    ) {
        panic!("collective token on {port:?} but no firmware extension is installed");
    }

    fn on_ext_packet(
        &mut self,
        _core: &mut McpCore,
        src: GlobalPort,
        _dst: GlobalPort,
        _body: ExtPacket,
        _now: SimTime,
        _out: &mut Vec<McpOutput>,
    ) {
        panic!("extension packet from {src:?} but no firmware extension is installed");
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

// Stateless, counterless: nothing to hash or advance.
gmsim_des::walk! {
    impl Walk for NullExtension {}
}
