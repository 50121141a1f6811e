//! Measurement harness for the barrier reproduction.
//!
//! The paper's methodology (§6): "we ran 100,000 barriers consecutively and
//! took the average latency". This crate packages that methodology as one
//! declarative builder, [`BarrierExperiment`]: pick an algorithm, a cluster
//! size, a NIC model, and a round count; get back a [`Measurement`] with the
//! mean steady-state barrier latency in microseconds. The same builder runs
//! the §3.4 concurrent barriers of seeded random teams on shared NICs
//! ([`TeamSet::Random`], optionally under background traffic) and the §2.1
//! fuzzy barrier ([`BarrierExperiment::compute`]); every run reports one
//! row per team, the p99 round gap and the cluster's counters.
//!
//! Simulated time is noise-free, so hundreds of rounds reach the same
//! steady state the paper needed 100 000 wall-clock runs for — a dedicated
//! test (`experiment::tests::round_count_insensitive`) verifies the
//! insensitivity.
//!
//! [`sweep`] fans independent experiments out across OS threads through
//! the work-stealing [`SweepEngine`]; every simulation is self-contained,
//! so the parallelism is embarrassing and data-race-free by construction,
//! and results are bit-identical to a serial run regardless of worker
//! count.

#![warn(missing_docs)]

pub mod diagram;
pub mod engine;
pub mod experiment;
pub mod sweep;
pub mod table;

pub use diagram::Diagram;
pub use engine::{cell_seed, SweepEngine};
pub use experiment::{
    Algorithm, BarrierExperiment, ExperimentError, Measurement, ProcessLayout, TeamRow, TeamSet,
};
pub use gmsim_gm::{FastForward, Period};
pub use gmsim_myrinet::{FabricSpec, RoutePolicy};
pub use nic_barrier::{Descriptor, TeamId};
pub use sweep::{best_gb_dim, run_all, run_all_with};
pub use table::Table;

/// Everything a typical experiment script needs, in one import.
///
/// ```
/// use gmsim_testbed::prelude::*;
///
/// let m = BarrierExperiment::new(4, Algorithm::Nic(Descriptor::Pe))
///     .rounds(30, 5)
///     .run()
///     .unwrap();
/// assert!(m.mean_us > 0.0);
/// ```
pub mod prelude {
    pub use crate::engine::{cell_seed, SweepEngine};
    pub use crate::experiment::{
        Algorithm, BarrierExperiment, ExperimentError, Measurement, ProcessLayout, TeamRow, TeamSet,
    };
    pub use gmsim_des::{Counter, MetricSet, TraceRecord};
    pub use gmsim_lanai::NicModel;
    pub use gmsim_myrinet::{FabricSpec, FaultPlan, RoutePolicy};
    pub use nic_barrier::{BarrierCosts, Descriptor, TeamId};
}
