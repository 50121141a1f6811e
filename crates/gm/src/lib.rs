//! Model of Myricom's GM message-passing system (version 1.2.3).
//!
//! GM is the software the paper extends: a driver, a host library and the
//! *Myrinet Control Program* (MCP) firmware running on the LANai NIC. This
//! crate reproduces the pieces the NIC-based barrier interacts with:
//!
//! * **Ports** ([`port`]) — up to eight per NIC; a port is the OS-bypass
//!   communication endpoint a process opens.
//! * **Tokens** ([`token`]) — GM's flow-control currency: a *send token*
//!   describes a send event, a *receive token* describes a host buffer. The
//!   barrier extension stores its entire state inside a send token, exactly
//!   as §4.2 of the paper describes.
//! * **The schedule IR** ([`ir`]) — the compiled per-rank collective
//!   program a collective send token carries: explicit send/receive/
//!   complete steps with symbolic firmware charges, interpreted by the
//!   NIC extension and the host baselines alike.
//! * **Connections** ([`connection`]) — reliable NIC-to-NIC channels with
//!   sequence numbers, cumulative acks, nacks and go-back-N retransmission.
//! * **The MCP** ([`mcp`]) — the four firmware state machines of the paper's
//!   Figure 4 (SDMA, SEND, RECV, RDMA), charged in NIC cycles on the
//!   [`gmsim_lanai`] hardware model.
//! * **The extension hook** ([`ext`]) — the seam through which the
//!   `nic-barrier` crate adds collective packet types and send-token
//!   handling to the firmware, mirroring "an addition to GM".
//! * **The host side** ([`host`]) — host processor occupancy, the polling
//!   process model ([`host::HostProgram`]), and per-operation overheads
//!   (the paper's *Send* and *HRecv* terms).
//! * **The cluster** ([`cluster`]) — N nodes over a
//!   [`gmsim_myrinet::Fabric`], plus the event glue that turns MCP outputs
//!   into scheduled simulation events, whose packets, host events and send
//!   tokens wait in [`parcels`].
//! * **Steady-state fast-forward** ([`steady`]) — the serial engine proves
//!   a run periodic with a rebased state digest and skips the repeated
//!   rounds, leaving every output bit-identical.

#![warn(missing_docs)]

pub mod cluster;
pub mod config;
pub mod connection;
pub mod events;
pub mod ext;
pub mod host;
pub mod ids;
pub mod ir;
pub mod mcp;
pub mod packet;
pub mod par;
pub mod parcels;
pub mod port;
pub mod steady;
pub mod token;

pub use cluster::{Cluster, ClusterEvent, ClusterSim, Node};
pub use config::GmConfig;
pub use connection::Connection;
pub use events::GmEvent;
pub use ext::McpExtension;
pub use host::{Host, HostAction, HostCtx, HostProgram};
pub use ids::{GlobalPort, NodeId, PortId, TeamId, GM_FIRST_USER_PORT, GM_NUM_PORTS};
pub use ir::{
    Bytes, Charge, CollectiveSchedule, CompletionKind, Payload, ReduceOp, ScheduleStep, Segments,
    TokenCharge,
};
pub use mcp::{Mcp, McpCore, McpOutput, TimerKind};
pub use packet::{ExtPacket, Packet, PacketKind};
pub use par::ParSim;
pub use steady::{FastForward, Period, SteadyProgram};
pub use token::{CollectiveToken, SendToken};
