//! Source-routed wormhole Myrinet fabric model.
//!
//! Myrinet (the network the paper runs on) is a switched, source-routed,
//! wormhole (cut-through) network: the sending NIC prepends one route byte
//! per switch hop, each switch strips its byte and forwards the worm as soon
//! as the head arrives, and a blocked head stalls in place. Links in the
//! paper's generation run at 1.28 Gb/s full duplex.
//!
//! This crate models exactly what barrier latency depends on:
//!
//! * **per-hop latency** — switch fall-through time plus cable propagation,
//! * **serialization** — packet bytes over link bandwidth, paid once for a
//!   cut-through path (not per hop),
//! * **contention** — every directed link tracks `busy_until`; a worm whose
//!   head reaches a busy output waits for it,
//! * **topology** — single 8- or 16-port switches (the paper's two testbeds),
//!   two- and three-level Clos fabrics and fat trees, whose source routes
//!   are computed from their regular layout, and hand-built graphs, and
//! * **faults** — per-link drop/corrupt injection to exercise the GM
//!   reliability layer.
//!
//! The fabric is a *timing oracle*, not a packet store: callers ask "if this
//! many bytes leave NIC `a` for NIC `b` now, when do they fully arrive, and
//! do they arrive intact?" and schedule their own delivery events. That keeps
//! this crate free of any payload type and independently testable.

#![warn(missing_docs)]

pub mod fabric;
pub mod fault;
pub mod packet;
pub mod route;
pub mod topology;

pub use fabric::{Delivery, Fabric, FabricStats};
pub use fault::{Fate, FaultPlan, FaultState, Verdict};
pub use packet::{wire_size, WireFormat};
pub use route::{LinkId, NicId, SwitchId};
pub use topology::{
    FabricSpec, InvalidFabric, Layout, LinkSpec, RoutePolicy, Topology, TopologyBuilder,
    UnreachablePair,
};
