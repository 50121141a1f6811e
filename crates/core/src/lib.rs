//! **NIC-based barrier over Myrinet/GM** — the primary contribution of
//! Buntinas, Panda & Sadayappan (IPPS 2001), reproduced over the simulated
//! GM stack in [`gmsim_gm`].
//!
//! The idea (§2.1 of the paper): instead of every barrier message making the
//! full host→NIC→wire→NIC→host round trip, the host posts *one* collective
//! send token; the NIC firmware then runs the whole barrier — the reception
//! of one barrier packet directly triggers the transmission of the next —
//! and finally DMAs a single `GM_BARRIER_COMPLETED_EVENT` to the host.
//!
//! What this crate provides:
//!
//! * [`schedule`] — **the collective compiler**: algorithm
//!   [`Descriptor`]s (pairwise-exchange, gather-broadcast trees,
//!   dissemination, binomial broadcast/reduce/allreduce, prefix scan) are
//!   lowered to per-rank [`gmsim_gm::CollectiveSchedule`] programs of
//!   explicit send/receive/complete steps, computed **on the host**
//!   exactly as §5.1 argues.
//! * [`group`] — a barrier group (ordered endpoint list) that compiles the
//!   per-rank collective tokens.
//! * [`unexpected`] — the §3.1 unexpected-barrier-message record: a bit
//!   array per (local port, remote endpoint) with epoch/value side data.
//! * [`nic`] — **the firmware extension**: a NIC-side interpreter of
//!   compiled schedules, with multiple concurrent collectives (one per
//!   port), the §3.4 same-NIC optimization, and the §3.2
//!   record-then-reject-on-open handling of stale messages.
//! * [`host_baseline`] — the comparator: the *same* compiled schedules
//!   interpreted at host level over plain GM sends/receives.
//! * [`programs`] — ready-made [`gmsim_gm::HostProgram`]s that run streams
//!   of consecutive barriers for measurement, including the fuzzy-barrier
//!   variant (§2.1) that overlaps computation with synchronization.
//! * [`analytic`] — Equations (1)–(3): predicted latencies and the factor
//!   of improvement, derived from the same configuration the simulator
//!   uses.

#![warn(missing_docs)]

pub mod analytic;
pub mod group;
mod hash;
pub mod host_baseline;
pub mod nic;
pub mod programs;
pub mod schedule;
pub mod unexpected;

pub use analytic::{
    advisor, CostModel, FabricModel, Placement, ADVISOR_REGRET_TOLERANCE, FABRIC_MODEL_TOLERANCE,
    GB_MODEL_TOLERANCE, PAYLOAD_MODEL_TOLERANCE, PE_MODEL_TOLERANCE,
};
pub use gmsim_gm::{ReduceOp, TeamId};
pub use group::{BarrierGroup, Team};
pub use host_baseline::HostBarrierLoop;
pub use nic::{BarrierCosts, BarrierExtension, BarrierStats};
pub use programs::{NicBarrierLoop, NOTE_BARRIER_DONE};
pub use schedule::{compile, Descriptor, DescriptorError};
pub use unexpected::UnexpectedRecord;
