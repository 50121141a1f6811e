//! Declarative barrier experiments.
//!
//! [`BarrierExperiment`] is the one builder for every measured run. It
//! installs one barrier loop per endpoint: a [`NicBarrierLoop`] running
//! every team job of that endpoint, with §2.1's fuzzy compute if asked,
//! or a [`HostBarrierLoop`]. Validation, the cluster, the checks and the
//! aggregation into one [`Measurement`] are shared.

use gmsim_des::{Histogram, MetricSet, RunOutcome, SimRng, SimTime, Summary, TraceRecord, Tracer};
use gmsim_gm::cluster::{Cluster, ClusterBuilder};
use gmsim_gm::config::CollectiveWireMode;
use gmsim_gm::{FastForward, GlobalPort, GmConfig, GmEvent, HostCtx, HostProgram, Period};
use gmsim_lanai::NicModel;
use gmsim_myrinet::{FabricSpec, FaultPlan, InvalidFabric, RoutePolicy};
use nic_barrier::nic::{TURNAROUND_BINS, TURNAROUND_BIN_US};
use nic_barrier::programs::decode_team_note;
use nic_barrier::{
    BarrierCosts, BarrierExtension, BarrierGroup, Descriptor, DescriptorError, HostBarrierLoop,
    NicBarrierLoop, Team, TeamId,
};
use std::fmt;

use gmsim_des::Counter;

/// Which barrier implementation to measure: a collective algorithm
/// [`Descriptor`], interpreted either by the NIC firmware extension (the
/// paper's contribution) or at host level over plain sends (the baseline).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// NIC-interpreted: one collective token, the firmware runs the
    /// compiled schedule.
    Nic(Descriptor),
    /// Host-interpreted: the same compiled schedule over ordinary GM
    /// point-to-point messages.
    Host(Descriptor),
}

impl Algorithm {
    /// Short display name.
    pub fn name(&self) -> String {
        let (side, desc) = match self {
            Algorithm::Nic(d) => ("NIC", d),
            Algorithm::Host(d) => ("host", d),
        };
        let base = match desc {
            Descriptor::Pe => format!("{side}-PE"),
            Descriptor::Gb { dim, .. } => format!("{side}-GB(d={dim})"),
            Descriptor::Dissemination { radix: 2, .. } => format!("{side}-dissem"),
            Descriptor::Dissemination { radix, .. } => format!("{side}-dissem(r={radix})"),
            Descriptor::Bcast { dim, .. } => format!("{side}-bcast(d={dim})"),
            Descriptor::Reduce { dim, .. } => format!("{side}-reduce(d={dim})"),
            Descriptor::Allreduce { dim, .. } => format!("{side}-allreduce(d={dim})"),
            Descriptor::Scan { .. } => format!("{side}-scan"),
            _ => format!("{side}-collective"),
        };
        let payload = desc.payload();
        if payload.is_empty() {
            base
        } else {
            format!("{base}+{}B", payload.bytes.get())
        }
    }

    /// True for the NIC-based variants.
    pub fn is_nic(&self) -> bool {
        matches!(self, Algorithm::Nic(_))
    }

    /// The algorithm descriptor being run.
    pub fn descriptor(&self) -> Descriptor {
        match self {
            Algorithm::Nic(d) | Algorithm::Host(d) => *d,
        }
    }
}

/// How processes map onto nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcessLayout {
    /// One process per node (the paper's testbed).
    OnePerNode,
    /// `procs_per_node` processes packed per node on consecutive ports —
    /// exercises multiple concurrent endpoints and the §3.4 same-NIC path.
    Packed {
        /// Processes on each node.
        procs_per_node: usize,
    },
}

/// Which teams run the barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TeamSet {
    /// Every process in one team under this id. [`TeamId::GLOBAL`] is the
    /// classic whole-cluster barrier; any other id runs the identical
    /// schedule as that team, and in an otherwise idle cluster the
    /// latencies are bit-identical.
    Whole(TeamId),
    /// `count` teams with ids `1..=count`, each a seeded random subset of
    /// `min..=max` nodes (one process per node, port 1), all running their
    /// barriers concurrently: the §3.4 multi-tenant workload. Teams overlap
    /// freely, so one NIC typically serves several of them at once.
    Random {
        /// Number of teams.
        count: usize,
        /// Smallest team size (inclusive).
        min: usize,
        /// Largest team size (inclusive).
        max: usize,
    },
}

impl From<TeamId> for TeamSet {
    fn from(id: TeamId) -> Self {
        TeamSet::Whole(id)
    }
}

/// Why an experiment could not produce a [`Measurement`].
///
/// Configuration errors are caught by validation before the simulation is
/// built; [`ExperimentError::Hung`] and [`ExperimentError::IncompleteRound`]
/// are runtime failures of the barrier protocol itself (a genuine bug, or a
/// fault plan harsh enough to defeat GM's retransmission).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExperimentError {
    /// `procs == 0` or no random teams: an empty barrier group has no
    /// meaning.
    ZeroProcs,
    /// `rounds == 0`: nothing to measure.
    ZeroRounds,
    /// Warmup must leave at least one measured round.
    WarmupNotBelowRounds {
        /// Configured total rounds.
        rounds: u64,
        /// Configured warmup rounds (must be `< rounds`).
        warmup: u64,
    },
    /// A tree algorithm (`Gb`, `Bcast`, `Reduce`, `Allreduce`) with arity 0.
    ZeroDim,
    /// A dissemination barrier with radix below 2 (radix 0 and 1 schedules
    /// send nothing and can never synchronize).
    InvalidRadix {
        /// The offending radix.
        radix: usize,
    },
    /// A fault probability outside `[0, 1]` (or NaN).
    InvalidProbability {
        /// Which probability (`"drop"` or `"corrupt"`).
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A send-token pool override of zero: a port with no send tokens can
    /// never post a message, so the run would hang by construction.
    ZeroSendTokens,
    /// A host-layer overhead factor below 1.0, infinite or NaN: an extra
    /// software layer can only add host overhead.
    InvalidLayerFactor {
        /// The offending factor.
        factor: f64,
    },
    /// A whole-cluster team id above [`TeamId::MAX`]: the 16-bit team
    /// field of note and message tags cannot carry it.
    InvalidTeamId {
        /// The offending id.
        team: TeamId,
    },
    /// A packed layout with `procs_per_node` outside `1..=7` (GM exposes 8
    /// ports per NIC and port 0 is reserved).
    InvalidLayout {
        /// The offending processes-per-node count.
        procs_per_node: usize,
    },
    /// Options no host program runs together: random teams run only NIC
    /// barriers without fuzzy compute, one process per node; fuzzy compute
    /// runs only NIC collectives; background traffic needs port 2 free.
    Unsupported {
        /// The rejected combination.
        what: &'static str,
    },
    /// The simulation stopped without draining: the barrier hung.
    Hung {
        /// How the run loop stopped.
        outcome: RunOutcome,
    },
    /// A NIC exhausted its retransmit budget against an unresponsive peer
    /// and abandoned the connection (the fault plan severed the link for
    /// longer than GM's backoff schedule tolerates).
    PeerUnreachable {
        /// Node whose firmware gave up.
        node: u32,
        /// The peer it could not reach.
        peer: u32,
    },
    /// Random team sizes outside `2..=nodes`, or `min > max`.
    InvalidTeamSizes {
        /// Requested minimum team size.
        min: usize,
        /// Requested maximum team size.
        max: usize,
        /// Available nodes.
        nodes: usize,
    },
    /// More random teams than the 16-bit team field of note and message
    /// tags can tell apart (team ids run `1..=teams`, at most
    /// [`TeamId::MAX`]).
    TooManyTeams {
        /// Requested team count.
        teams: usize,
    },
    /// An explicit fabric [`FabricSpec::build`] cannot lay down: a fat
    /// tree with a zero or odd radix, or a Clos with no leaves, hosts per
    /// leaf or spines.
    InvalidFabric(InvalidFabric),
    /// [`crate::best_gb_dim`] on a base with no tree dimensions to sweep:
    /// an algorithm other than GB, or fewer than two processes.
    NoGbDims {
        /// The base experiment's algorithm.
        algorithm: Algorithm,
        /// The base experiment's process count.
        procs: usize,
    },
    /// An explicit fabric too small for the cluster: the spec attaches
    /// fewer hosts than the experiment needs nodes.
    FabricTooSmall {
        /// Hosts the fabric can attach.
        capacity: usize,
        /// Nodes the experiment needs.
        nodes: usize,
    },
    /// A process posted a send with none of its port's send tokens left.
    /// GM would block it until an ACK returned one; the simulator drops
    /// the send and ends the run here. A deeper pool
    /// ([`BarrierExperiment::send_token_pool`]) lets such a run through.
    SendTokensExhausted {
        /// The lowest-numbered node with a starved port.
        node: u32,
        /// That node's first starved port.
        port: u8,
    },
    /// A round completed on fewer processes than participate.
    IncompleteRound {
        /// The deficient round.
        round: u64,
        /// Completions observed.
        completed: u64,
        /// Completions expected (the team's size).
        expected: u64,
    },
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::ZeroProcs => write!(f, "experiment has zero processes"),
            ExperimentError::ZeroRounds => write!(f, "experiment has zero rounds"),
            ExperimentError::WarmupNotBelowRounds { rounds, warmup } => write!(
                f,
                "warmup ({warmup}) must be below rounds ({rounds}) to leave measured rounds"
            ),
            ExperimentError::ZeroDim => write!(f, "tree algorithm with arity 0"),
            ExperimentError::InvalidRadix { radix } => {
                write!(f, "dissemination barrier with radix {radix} (need >= 2)")
            }
            ExperimentError::InvalidProbability { what, value } => {
                write!(f, "{what} probability {value} outside [0, 1]")
            }
            ExperimentError::ZeroSendTokens => {
                write!(f, "send-token pool override of 0 (a port could never send)")
            }
            ExperimentError::InvalidLayerFactor { factor } => {
                write!(f, "host-layer factor {factor} (need a finite factor >= 1)")
            }
            ExperimentError::InvalidTeamId { team } => write!(
                f,
                "team id {} exceeds the largest id a 16-bit team field carries ({})",
                team.0,
                TeamId::MAX.0
            ),
            ExperimentError::InvalidLayout { procs_per_node } => write!(
                f,
                "packed layout with {procs_per_node} procs/node (GM supports 1..=7)"
            ),
            ExperimentError::Unsupported { what } => write!(f, "unsupported: {what}"),
            ExperimentError::Hung { outcome } => {
                write!(f, "simulation did not drain: {outcome:?}")
            }
            ExperimentError::PeerUnreachable { node, peer } => write!(
                f,
                "node {node} exhausted its retransmit budget against node {peer}"
            ),
            ExperimentError::InvalidTeamSizes { min, max, nodes } => write!(
                f,
                "team sizes {min}..={max} invalid for {nodes} nodes (need 2 <= min <= max <= nodes)"
            ),
            ExperimentError::TooManyTeams { teams } => write!(
                f,
                "{teams} teams exceed the {} team ids a 16-bit team field carries",
                TeamId::MAX.0
            ),
            ExperimentError::InvalidFabric(err) => write!(f, "{err}"),
            ExperimentError::NoGbDims { algorithm, procs } => write!(
                f,
                "no GB tree dimensions to sweep for {} over {procs} processes",
                algorithm.name()
            ),
            ExperimentError::FabricTooSmall { capacity, nodes } => write!(
                f,
                "fabric attaches {capacity} hosts but the cluster needs {nodes}"
            ),
            ExperimentError::SendTokensExhausted { node, port } => {
                write!(f, "node {node} port {port} ran out of send tokens")
            }
            ExperimentError::IncompleteRound {
                round,
                completed,
                expected,
            } => write!(
                f,
                "round {round} completed on {completed}/{expected} processes"
            ),
        }
    }
}

impl std::error::Error for ExperimentError {}

/// One barrier-latency experiment.
///
/// ```
/// use gmsim_testbed::prelude::*;
///
/// // The paper's headline cell: 16 nodes, NIC-based PE, LANai 4.3.
/// let m = BarrierExperiment::new(16, Algorithm::Nic(Descriptor::Pe))
///     .rounds(60, 10)
///     .run()
///     .unwrap();
/// assert!((m.mean_us - 102.14).abs() / 102.14 < 0.05);
///
/// // Six overlapping teams of 2–4 nodes on the same 8 NICs.
/// let m = BarrierExperiment::new(8, Algorithm::Nic(Descriptor::Pe))
///     .team(TeamSet::Random { count: 6, min: 2, max: 4 })
///     .rounds(30, 5)
///     .run()
///     .unwrap();
/// assert_eq!(m.teams.len(), 6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BarrierExperiment {
    /// Number of participating processes (with random teams: the nodes
    /// the teams are drawn from).
    pub procs: usize,
    /// Implementation under test.
    pub algorithm: Algorithm,
    /// NIC hardware model.
    pub nic: NicModel,
    /// How processes map onto nodes.
    pub layout: ProcessLayout,
    /// Consecutive barriers to run (per team).
    pub rounds: u64,
    /// Leading rounds excluded from the mean (start-up transient).
    pub warmup: u64,
    /// Host-overhead multiplier modelling an extra software layer (§2.2's
    /// MPI prediction); 1.0 = raw GM.
    pub layer_factor: f64,
    /// Random start skew bound in µs (0 = synchronized start).
    pub max_skew_us: u64,
    /// RNG seed for skew, random teams and fault injection.
    pub seed: u64,
    /// How barrier packets travel (reliable stream vs the paper's
    /// unreliable prototype — the reliability-overhead ablation).
    pub wire: CollectiveWireMode,
    /// §3.4 same-NIC optimization (ablation knob).
    pub same_nic_opt: bool,
    /// Firmware extension cost table (ablation knob).
    pub costs: BarrierCosts,
    /// Wire fault injection ([`FaultPlan::NONE`] = perfect links).
    pub fault_plan: FaultPlan,
    /// Send-token pool each port opens with (`None` = GM's default of 16).
    /// Tokens only return when the data packet is ACKed, so a deep host
    /// schedule under drop faults can legitimately hold more than 16
    /// unacked sends while a stuck packet waits out its retransmit
    /// timeout; a real application facing that opens its port with a
    /// deeper pool, which is what this knob models.
    pub send_tokens: Option<u32>,
    /// Structured-trace ring capacity (`None` = tracing disabled).
    pub trace_capacity: Option<usize>,
    /// The teams that run the barrier ([`TeamSet::Whole`] of
    /// [`TeamId::GLOBAL`] by default).
    pub teams: TeamSet,
    /// Worker threads for the conservative parallel engine; `<= 1` runs the
    /// classic serial scheduler. Any value produces bit-identical
    /// measurements (DESIGN.md §15) — this knob only trades wall-clock
    /// time, which is what makes 2048- and 4096-node runs practical.
    pub parallel: usize,
    /// The fabric the cluster is cabled into. [`FabricSpec::Auto`] (the
    /// default) scales with the node count exactly as before this knob
    /// existed: one crossbar ≤ 16 hosts, then a non-blocking Clos.
    pub fabric: FabricSpec,
    /// How worms are routed across the fabric's spines (DESIGN.md §18).
    pub routing: RoutePolicy,
    /// Background point-to-point load: every node streams 200 messages of
    /// 512 bytes to its ring neighbour from port 2.
    pub background: bool,
    /// `Some((us, overlap))` runs the §2.1 fuzzy-barrier loop: `us` µs of
    /// host computation per round, overlapped with the NIC barrier when
    /// `overlap` holds and before it otherwise.
    pub compute: Option<(u64, bool)>,
}

/// Messages each node sends to its ring neighbour under
/// [`BarrierExperiment::background`].
const BACKGROUND_MESSAGES: u64 = 200;

impl BarrierExperiment {
    /// A default experiment: `procs` processes, one per node, on LANai 4.3.
    pub fn new(procs: usize, algorithm: Algorithm) -> Self {
        BarrierExperiment {
            procs,
            algorithm,
            nic: NicModel::LANAI_4_3,
            layout: ProcessLayout::OnePerNode,
            rounds: 220,
            warmup: 20,
            layer_factor: 1.0,
            max_skew_us: 0,
            seed: 42,
            wire: CollectiveWireMode::Reliable,
            same_nic_opt: true,
            costs: BarrierCosts::GM_1_2_3,
            fault_plan: FaultPlan::NONE,
            send_tokens: None,
            trace_capacity: None,
            teams: TeamSet::Whole(TeamId::GLOBAL),
            parallel: 1,
            fabric: FabricSpec::Auto,
            routing: RoutePolicy::Dispersed,
            background: false,
            compute: None,
        }
    }

    /// Cable the cluster into an explicit fabric with a routing policy
    /// (the default is the auto-scaled fabric with dispersed routes).
    #[must_use]
    pub fn fabric(mut self, fabric: FabricSpec, routing: RoutePolicy) -> Self {
        self.fabric = fabric;
        self.routing = routing;
        self
    }

    /// Run the simulation on `threads` worker threads (the conservative
    /// parallel engine); `<= 1` keeps the serial scheduler. Results are
    /// bit-identical either way.
    #[must_use]
    pub fn parallel(mut self, threads: usize) -> Self {
        self.parallel = threads;
        self
    }

    /// Run the barrier under a team label other than the global one
    /// (a [`TeamId`]), or as seeded random teams ([`TeamSet::Random`]).
    #[must_use]
    pub fn team(mut self, teams: impl Into<TeamSet>) -> Self {
        self.teams = teams.into();
        self
    }

    /// Override the collective wire mode.
    #[must_use]
    pub fn wire(mut self, wire: CollectiveWireMode) -> Self {
        self.wire = wire;
        self
    }

    /// Enable/disable the §3.4 same-NIC optimization.
    #[must_use]
    pub fn same_nic_opt(mut self, on: bool) -> Self {
        self.same_nic_opt = on;
        self
    }

    /// Override the firmware extension cost table.
    #[must_use]
    pub fn costs(mut self, costs: BarrierCosts) -> Self {
        self.costs = costs;
        self
    }

    /// Override the NIC model.
    #[must_use]
    pub fn nic(mut self, nic: NicModel) -> Self {
        self.nic = nic;
        self
    }

    /// Override rounds/warmup.
    #[must_use]
    pub fn rounds(mut self, rounds: u64, warmup: u64) -> Self {
        self.rounds = rounds;
        self.warmup = warmup;
        self
    }

    /// Override the process layout.
    #[must_use]
    pub fn layout(mut self, layout: ProcessLayout) -> Self {
        self.layout = layout;
        self
    }

    /// Model an additional host software layer.
    #[must_use]
    pub fn layer(mut self, factor: f64) -> Self {
        self.layer_factor = factor;
        self
    }

    /// Add random start skew.
    #[must_use]
    pub fn skew(mut self, max_us: u64, seed: u64) -> Self {
        self.max_skew_us = max_us;
        self.seed = seed;
        self
    }

    /// Inject wire faults. GM's go-back-N reliability layer must absorb
    /// them; the seeded fault stream keeps runs reproducible.
    #[must_use]
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Open every port with `tokens` send tokens instead of GM's default.
    /// See the [`BarrierExperiment::send_tokens`] field for when a deeper
    /// pool is needed.
    #[must_use]
    pub fn send_token_pool(mut self, tokens: u32) -> Self {
        self.send_tokens = Some(tokens);
        self
    }

    /// Record a structured event trace, keeping the most recent `capacity`
    /// records. The trace rides back on [`Measurement::trace`].
    #[must_use]
    pub fn trace(mut self, capacity: usize) -> Self {
        self.trace_capacity = Some(capacity);
        self
    }

    /// Enable/disable background point-to-point traffic next to the
    /// barriers.
    #[must_use]
    pub fn background(mut self, on: bool) -> Self {
        self.background = on;
        self
    }

    /// Run the §2.1 fuzzy-barrier loop with `us` µs of computation per
    /// round, overlapped with the NIC barrier (`overlap`) or before it.
    #[must_use]
    pub fn compute(mut self, us: u64, overlap: bool) -> Self {
        self.compute = Some((us, overlap));
        self
    }

    /// Check the configuration without running anything.
    pub fn validate(&self) -> Result<(), ExperimentError> {
        if self.procs == 0 {
            return Err(ExperimentError::ZeroProcs);
        }
        if self.rounds == 0 {
            return Err(ExperimentError::ZeroRounds);
        }
        if self.warmup + 1 >= self.rounds {
            return Err(ExperimentError::WarmupNotBelowRounds {
                rounds: self.rounds,
                warmup: self.warmup,
            });
        }
        // Descriptors built through the named constructors are always
        // valid; re-checking here is defense in depth for descriptors
        // deserialized or constructed inside the core crate.
        let desc = self.algorithm.descriptor();
        match desc.validate() {
            Ok(()) => {}
            Err(DescriptorError::ZeroDim) => return Err(ExperimentError::ZeroDim),
            Err(DescriptorError::InvalidRadix { radix }) => {
                return Err(ExperimentError::InvalidRadix { radix })
            }
        }
        for (what, value) in [
            ("drop", self.fault_plan.drop_probability),
            ("corrupt", self.fault_plan.corrupt_probability),
            ("duplicate", self.fault_plan.duplicate_probability),
            ("reorder", self.fault_plan.reorder_probability),
        ] {
            if !(0.0..=1.0).contains(&value) {
                return Err(ExperimentError::InvalidProbability { what, value });
            }
        }
        let packed = match self.layout {
            ProcessLayout::OnePerNode => false,
            ProcessLayout::Packed { procs_per_node } if (1..=7).contains(&procs_per_node) => true,
            ProcessLayout::Packed { procs_per_node } => {
                return Err(ExperimentError::InvalidLayout { procs_per_node })
            }
        };
        if self.send_tokens == Some(0) {
            return Err(ExperimentError::ZeroSendTokens);
        }
        if !(self.layer_factor.is_finite() && self.layer_factor >= 1.0) {
            return Err(ExperimentError::InvalidLayerFactor {
                factor: self.layer_factor,
            });
        }
        if let TeamSet::Whole(team) = self.teams {
            if team > TeamId::MAX {
                return Err(ExperimentError::InvalidTeamId { team });
            }
        }
        if let TeamSet::Random { count, min, max } = self.teams {
            if count == 0 {
                return Err(ExperimentError::ZeroProcs);
            }
            if count > TeamId::MAX.0 as usize {
                return Err(ExperimentError::TooManyTeams { teams: count });
            }
            if min < 2 || min > max || max > self.procs {
                return Err(ExperimentError::InvalidTeamSizes {
                    min,
                    max,
                    nodes: self.procs,
                });
            }
        }
        let random = matches!(self.teams, TeamSet::Random { .. });
        // Only barrier completions name their team, so a loop of several
        // teams' jobs runs barriers only.
        let barrier = matches!(
            desc,
            Descriptor::Pe | Descriptor::Gb { .. } | Descriptor::Dissemination { .. }
        );
        for (rejected, what) in [
            (
                random && !self.algorithm.is_nic(),
                "random teams with a host algorithm",
            ),
            (
                random && !barrier,
                "random teams with a value-carrying collective",
            ),
            (random && packed, "random teams with packed processes"),
            (
                self.compute.is_some() && (random || !self.algorithm.is_nic()),
                "fuzzy compute with a host algorithm or random teams",
            ),
            (
                self.background && packed,
                "background traffic with packed processes",
            ),
        ] {
            if rejected {
                return Err(ExperimentError::Unsupported { what });
            }
        }
        self.fabric
            .validate()
            .map_err(ExperimentError::InvalidFabric)?;
        let nodes = self.node_count();
        if self.fabric.host_capacity(nodes) < nodes {
            return Err(ExperimentError::FabricTooSmall {
                capacity: self.fabric.host_capacity(nodes),
                nodes,
            });
        }
        Ok(())
    }

    fn node_count(&self) -> usize {
        match self.layout {
            ProcessLayout::OnePerNode => self.procs,
            ProcessLayout::Packed { procs_per_node } => self.procs.div_ceil(procs_per_node),
        }
    }

    /// The teams this experiment runs. A whole-cluster team holds every
    /// process in rank order, packed ones on consecutive ports. Random team
    /// `i` gets id `TeamId(1 + i)` and a uniform random subset of the nodes
    /// (partial Fisher–Yates), members in node order.
    fn team_list(&self) -> Vec<Team> {
        let (count, min, max) = match (self.teams, self.layout) {
            (TeamSet::Whole(id), ProcessLayout::OnePerNode) => {
                return vec![Team::new(id, BarrierGroup::one_per_node(self.procs, 1))]
            }
            (TeamSet::Whole(id), ProcessLayout::Packed { procs_per_node }) => {
                let members = (0..self.procs)
                    .map(|i| GlobalPort::new(i / procs_per_node, 1 + (i % procs_per_node) as u8))
                    .collect();
                return vec![Team::new(id, BarrierGroup::new(members))];
            }
            (TeamSet::Random { count, min, max }, _) => (count, min, max),
        };
        let mut rng = SimRng::new(self.seed ^ 0x7EA5);
        let mut scratch: Vec<usize> = (0..self.procs).collect();
        let span = (max - min + 1) as u64;
        (0..count)
            .map(|i| {
                let size = min + rng.below(span) as usize;
                for k in 0..size {
                    let j = k + rng.below((self.procs - k) as u64) as usize;
                    scratch.swap(k, j);
                }
                let mut members = scratch[..size].to_vec();
                members.sort_unstable();
                let ports = members.into_iter().map(|n| GlobalPort::new(n, 1));
                Team::new(TeamId(1 + i as u32), BarrierGroup::new(ports.collect()))
            })
            .collect()
    }

    /// Install the host programs: one barrier loop per endpoint, in
    /// `(node, port)` order, each drawing its start skew in turn. A NIC
    /// loop runs the endpoint's rank of every team it belongs to, in team
    /// order.
    fn install(&self, mut builder: ClusterBuilder, teams: &[Team]) -> ClusterBuilder {
        let mut rng = SimRng::new(self.seed);
        let mut start = || {
            if self.max_skew_us == 0 {
                SimTime::ZERO
            } else {
                SimTime::from_us(rng.below(self.max_skew_us + 1))
            }
        };
        let mut ranks: Vec<(GlobalPort, &Team, usize)> = teams
            .iter()
            .flat_map(|team| (0..team.len()).map(move |rank| (team.member(rank), team, rank)))
            .collect();
        ranks.sort_by_key(|&(port, ..)| port);
        for endpoint in ranks.chunk_by(|a, b| a.0 == b.0) {
            let (port, team, rank) = endpoint[0];
            let program: Box<dyn HostProgram> = match self.algorithm {
                Algorithm::Nic(desc) => {
                    let mut barrier_loop = NicBarrierLoop::for_team(team, rank, desc, self.rounds);
                    for &(_, team, rank) in &endpoint[1..] {
                        barrier_loop.push(team, rank, desc, self.rounds);
                    }
                    match self.compute {
                        Some((us, overlap)) => {
                            Box::new(barrier_loop.compute(SimTime::from_us(us), overlap))
                        }
                        None => Box::new(barrier_loop),
                    }
                }
                Algorithm::Host(desc) => {
                    Box::new(HostBarrierLoop::for_team(team, rank, desc, self.rounds))
                }
            };
            builder = builder.program(port, program, start());
        }
        let nodes = self.node_count();
        if self.background && nodes > 1 {
            for node in 0..nodes {
                let traffic = BackgroundTraffic {
                    peer: GlobalPort::new((node + 1) % nodes, 2),
                    remaining: BACKGROUND_MESSAGES,
                };
                builder =
                    builder.program(GlobalPort::new(node, 2), Box::new(traffic), SimTime::ZERO);
            }
        }
        builder
    }

    /// Run the experiment to completion and aggregate the measurement.
    ///
    /// # Errors
    /// Configuration errors ([`BarrierExperiment::validate`]) are returned
    /// before anything runs; [`ExperimentError::SendTokensExhausted`],
    /// [`ExperimentError::Hung`], [`ExperimentError::PeerUnreachable`] and
    /// [`ExperimentError::IncompleteRound`] report a simulation that
    /// failed to synchronize.
    pub fn run(&self) -> Result<Measurement, ExperimentError> {
        self.validate()?;
        let mut config = GmConfig::paper_host(self.nic).with_layer_overhead(self.layer_factor);
        config.collective_wire = self.wire;
        config.same_nic_optimization = self.same_nic_opt;
        if let Some(tokens) = self.send_tokens {
            config.send_tokens_per_port = tokens;
        }
        let nodes = self.node_count();
        // Auto: one crossbar for paper-sized clusters, a two-level Clos
        // beyond 16 hosts — shared with the analytic model's fabric
        // assumptions. Explicit specs cable exactly what they say.
        let topology = self.fabric.build(nodes, self.routing);
        let mut builder = ClusterBuilder::new(nodes)
            .config(config)
            .topology(topology)
            .extension(BarrierExtension::factory_with_costs(self.costs));
        if !self.fault_plan.is_none() {
            builder = builder.faults(self.fault_plan, self.seed);
        }
        if let Some(capacity) = self.trace_capacity {
            builder = builder.tracer(Tracer::bounded(capacity));
        }
        let teams = self.team_list();
        let builder = self.install(builder, &teams);
        let (outcome, events, cluster) = run_cluster(builder, self.parallel);
        // A dropped send explains whatever went wrong after it.
        let mut nodes = cluster.nodes.iter().enumerate();
        if let Some((node, port)) = nodes.find_map(|(i, n)| n.starved.map(|p| (i, p))) {
            return Err(ExperimentError::SendTokensExhausted {
                node: node as u32,
                port: port.0,
            });
        }
        if outcome != RunOutcome::Quiescent {
            return Err(ExperimentError::Hung { outcome });
        }

        // A dead connection is a stronger diagnosis than an incomplete
        // round: the firmware *reported* giving up, so surface that first.
        for (node, n) in cluster.nodes.iter().enumerate() {
            if let Some(conn) = n.mcp.core.connections().find(|c| c.is_dead()) {
                return Err(ExperimentError::PeerUnreachable {
                    node: node as u32,
                    peer: conn.peer().0 as u32,
                });
            }
        }

        // A team's round completes when its *last* member's completion note
        // lands; consecutive-barrier latency is the gap between rounds.
        let rounds = self.rounds as usize;
        let warmup = self.warmup as usize;
        let mut round_done = vec![SimTime::ZERO; teams.len() * rounds];
        let mut counts = vec![0u64; teams.len() * rounds];
        for note in &cluster.notes {
            if let Some((team, round)) = decode_team_note(note.tag) {
                // Random team ids run 1..=count; a whole-cluster team owns
                // every note.
                let t = match self.teams {
                    TeamSet::Whole(_) => 0,
                    TeamSet::Random { .. } => team.0 as usize - 1,
                };
                let i = t * rounds + round as usize;
                round_done[i] = round_done[i].max(note.at);
                counts[i] += 1;
            }
        }
        // Every team's round gaps, summed as exact ticks: for one team the
        // sum is the span from the warmup's last round to the final one.
        let measured = rounds - warmup - 1;
        let mut per_round = Summary::new();
        let mut gaps = Vec::with_capacity(teams.len() * measured);
        let mut total = SimTime::ZERO;
        let mut first_round = SimTime::ZERO;
        let mut rows = Vec::with_capacity(teams.len());
        let per_team = round_done.chunks(rounds).zip(counts.chunks(rounds));
        for (team, (done, counts)) in teams.iter().zip(per_team) {
            let expected = team.len() as u64;
            if let Some(r) = counts.iter().position(|&c| c != expected) {
                return Err(ExperimentError::IncompleteRound {
                    round: r as u64,
                    completed: counts[r],
                    expected,
                });
            }
            for r in warmup + 1..rounds {
                let gap = done[r] - done[r - 1];
                per_round.record(gap.as_us_f64());
                gaps.push(gap);
            }
            let span = done[rounds - 1] - done[warmup];
            total += span;
            first_round = first_round.max(done[0]);
            rows.push(TeamRow {
                id: team.id(),
                size: team.len(),
                mean_us: span.as_us_f64() / measured as f64,
            });
        }
        gaps.sort_unstable();
        let p99 = gaps[((gaps.len() - 1) as f64 * 0.99).ceil() as usize];
        let (metrics, nic_turnaround, digest) = collect_metrics(&cluster, events);
        Ok(Measurement {
            steady: cluster.steady(),
            fast_forward: cluster.fast_forward(),
            mean_us: total.as_us_f64() / gaps.len() as f64,
            p99_us: p99.as_us_f64(),
            first_round_us: first_round.as_us_f64(),
            per_round,
            teams: rows,
            events,
            metrics,
            nic_turnaround,
            trace: cluster.tracer.snapshot(),
            digest,
        })
    }
}

/// Build and run the assembled cluster on the requested engine: the serial
/// scheduler for `threads <= 1`, the conservative parallel engine
/// otherwise. Both return identical worlds — the choice is wall-clock only.
fn run_cluster(builder: ClusterBuilder, threads: usize) -> (RunOutcome, u64, Cluster) {
    if threads > 1 {
        let mut sim = builder.build_parallel(threads);
        let outcome = sim.run();
        (outcome, sim.events_fired(), sim.into_world())
    } else {
        let mut sim = builder.build();
        let outcome = sim.run();
        (outcome, sim.events_fired(), sim.into_world())
    }
}

/// Aggregate the cluster's per-component statistics into one [`MetricSet`]
/// plus the merged per-packet NIC-turnaround histogram, and digest the
/// outputs of a run that fired `events` in the same walk. Purely post-run:
/// nothing here touches the simulation hot path.
fn collect_metrics(cluster: &Cluster, events: u64) -> (MetricSet, Histogram, u64) {
    let mut m = MetricSet::new();
    let digest = cluster.output_digest(events, |id, v| id.into_iter().for_each(|id| m.add(id, v)));
    let mut turnaround = Histogram::new(TURNAROUND_BIN_US, TURNAROUND_BINS);
    // Team counters aggregate differently from plain sums: the peak is a
    // max across NICs and the team count is the number of *distinct* ids.
    let mut concurrent_peak = 0u64;
    let mut teams: Vec<TeamId> = Vec::new();
    for node in &cluster.nodes {
        if let Some(ext) = node.mcp.ext().as_any().downcast_ref::<BarrierExtension>() {
            concurrent_peak = concurrent_peak.max(ext.stats.concurrent_peak);
            teams.extend_from_slice(ext.teams_seen());
            turnaround.merge(ext.turnaround());
        }
    }
    teams.sort_unstable();
    teams.dedup();
    m.add(Counter::TeamsCreated, teams.len() as u64);
    m.add(Counter::ConcurrentPeak, concurrent_peak);
    (m, turnaround, digest)
}

/// Background point-to-point load: a fixed budget of messages to one peer,
/// paced by `Sent` completions so the NIC always has exactly one background
/// send in flight. Runs on its own port next to the barrier jobs.
struct BackgroundTraffic {
    peer: GlobalPort,
    remaining: u64,
}

/// Tag background messages so they never collide with anything meaningful.
const BACKGROUND_TAG: u64 = 0xB0 << 32;

/// Bytes per background message.
const BACKGROUND_LEN: usize = 512;

impl HostProgram for BackgroundTraffic {
    fn on_start(&mut self, ctx: &mut HostCtx) {
        ctx.provide_recv(BACKGROUND_MESSAGES as u32);
        self.send_next(ctx);
    }

    fn on_event(&mut self, ev: &GmEvent, ctx: &mut HostCtx) {
        if matches!(ev, GmEvent::Sent { .. }) {
            self.send_next(ctx);
        }
    }
}

impl BackgroundTraffic {
    fn send_next(&mut self, ctx: &mut HostCtx) {
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.send_notify(self.peer, BACKGROUND_LEN, BACKGROUND_TAG);
        }
    }
}

/// One team's share of a [`Measurement`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TeamRow {
    /// The team's cluster-unique id.
    pub id: TeamId,
    /// Members in the team.
    pub size: usize,
    /// The team's own mean round gap, µs.
    pub mean_us: f64,
}

/// The result of one experiment.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Mean steady-state barrier latency over every team's measured round
    /// gaps, µs (the paper's reported metric).
    pub mean_us: f64,
    /// 99th-percentile round gap over every team's measured rounds, µs.
    pub p99_us: f64,
    /// Completion time of the very first barrier (one-shot latency from a
    /// synchronized cold start; the latest team's, with several), µs.
    pub first_round_us: f64,
    /// Distribution of individual round gaps, every team's.
    pub per_round: Summary,
    /// One row per team, in team order.
    pub teams: Vec<TeamRow>,
    /// Simulation events fired while the experiment ran.
    pub events: u64,
    /// Aggregated counters across the fabric, every NIC and every host,
    /// including the team counters (`TeamsCreated`, `ConcurrentPeak`,
    /// `CrossTeamRejects`).
    pub metrics: MetricSet,
    /// Per-packet NIC turnaround (wire arrival → firmware idle), µs,
    /// merged across all NICs. Empty for host-interpreted runs.
    pub nic_turnaround: Histogram,
    /// Structured event trace (empty unless
    /// [`BarrierExperiment::trace`] enabled it).
    pub trace: Vec<TraceRecord>,
    /// The steady state the serial engine proved: from which round the
    /// run repeats, with what period (`None` when no period was proven:
    /// too few rounds, fault injection, a partitioned parallel run, or a
    /// program without steady-state hooks). A mean without a period is
    /// not known to be a steady-state mean.
    pub steady: Option<Period>,
    /// What the fast-forward skipped (`None` when it simulated every
    /// round, e.g. with tracing on).
    pub fast_forward: Option<FastForward>,
    digest: u64,
}

impl Measurement {
    /// The run's output digest ([`Cluster::output_digest`]): equal digests
    /// are the same run, whatever the engine, tracer or fast-forward.
    pub fn digest(&self) -> u64 {
        self.digest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(procs: usize, algorithm: Algorithm) -> BarrierExperiment {
        BarrierExperiment::new(procs, algorithm).rounds(60, 10)
    }

    #[test]
    fn nic_pe_two_nodes_runs() {
        let m = quick(2, Algorithm::Nic(Descriptor::Pe)).run().unwrap();
        assert!(m.mean_us > 10.0 && m.mean_us < 200.0, "{}", m.mean_us);
    }

    #[test]
    fn send_token_pool_override_is_validated_and_benign() {
        assert_eq!(
            quick(4, Algorithm::Host(Descriptor::Pe))
                .send_token_pool(0)
                .validate(),
            Err(ExperimentError::ZeroSendTokens)
        );
        // A deeper pool must not change a fault-free measurement: tokens
        // only bound *outstanding* sends, and a clean run never backs up.
        let base = quick(8, Algorithm::Host(Descriptor::Pe)).run().unwrap();
        let deep = quick(8, Algorithm::Host(Descriptor::Pe))
            .send_token_pool(64)
            .run()
            .unwrap();
        assert_eq!(base.mean_us.to_bits(), deep.mean_us.to_bits());
    }

    #[test]
    fn nic_pe_beats_host_pe_at_16() {
        let nic = quick(16, Algorithm::Nic(Descriptor::Pe)).run().unwrap();
        let host = quick(16, Algorithm::Host(Descriptor::Pe)).run().unwrap();
        assert!(
            nic.mean_us < host.mean_us,
            "nic={} host={}",
            nic.mean_us,
            host.mean_us
        );
    }

    #[test]
    fn round_count_insensitive() {
        let short = quick(4, Algorithm::Nic(Descriptor::Pe))
            .rounds(60, 10)
            .run()
            .unwrap();
        let long = quick(4, Algorithm::Nic(Descriptor::Pe))
            .rounds(400, 10)
            .run()
            .unwrap();
        let rel = (short.mean_us - long.mean_us).abs() / long.mean_us;
        assert!(rel < 0.02, "short={} long={}", short.mean_us, long.mean_us);
    }

    #[test]
    fn steady_state_is_stable() {
        let m = quick(8, Algorithm::Nic(Descriptor::Pe)).run().unwrap();
        // After warmup the gaps should be nearly constant.
        assert!(
            m.per_round.stddev() < 0.05 * m.per_round.mean(),
            "stddev {} vs mean {}",
            m.per_round.stddev(),
            m.per_round.mean()
        );
    }

    #[test]
    fn skewed_start_reaches_same_steady_state() {
        let sync = quick(4, Algorithm::Nic(Descriptor::Pe)).run().unwrap();
        let skew = quick(4, Algorithm::Nic(Descriptor::Pe))
            .skew(500, 7)
            .run()
            .unwrap();
        let rel = (sync.mean_us - skew.mean_us).abs() / sync.mean_us;
        assert!(rel < 0.05, "sync={} skew={}", sync.mean_us, skew.mean_us);
    }

    #[test]
    fn gb_runs_for_all_algorithms() {
        for alg in [
            Algorithm::Nic(Descriptor::gb(2)),
            Algorithm::Host(Descriptor::gb(2)),
        ] {
            let m = quick(5, alg).run().unwrap();
            assert!(m.mean_us > 10.0, "{alg:?}: {}", m.mean_us);
        }
    }

    #[test]
    fn packed_layout_synchronizes_across_ports() {
        let m = quick(8, Algorithm::Nic(Descriptor::Pe))
            .layout(ProcessLayout::Packed { procs_per_node: 2 })
            .run()
            .unwrap();
        assert!(m.mean_us > 5.0);
    }

    #[test]
    fn dissemination_equals_pe_at_powers_of_two() {
        for n in [4usize, 8] {
            let pe = quick(n, Algorithm::Nic(Descriptor::Pe))
                .run()
                .unwrap()
                .mean_us;
            let di = quick(n, Algorithm::Nic(Descriptor::dissemination()))
                .run()
                .unwrap()
                .mean_us;
            assert!((pe - di).abs() < 0.5, "n={n}: pe={pe:.2} dissem={di:.2}");
        }
    }

    #[test]
    fn dissemination_beats_pe_off_powers_of_two() {
        for n in [3usize, 6, 12] {
            let pe = quick(n, Algorithm::Nic(Descriptor::Pe))
                .run()
                .unwrap()
                .mean_us;
            let di = quick(n, Algorithm::Nic(Descriptor::dissemination()))
                .run()
                .unwrap()
                .mean_us;
            assert!(di < pe, "n={n}: pe={pe:.2} dissem={di:.2}");
        }
    }

    #[test]
    fn layer_factor_slows_host_more_than_nic() {
        let host = quick(8, Algorithm::Host(Descriptor::Pe)).run().unwrap();
        let host_mpi = quick(8, Algorithm::Host(Descriptor::Pe))
            .layer(2.0)
            .run()
            .unwrap();
        let nic = quick(8, Algorithm::Nic(Descriptor::Pe)).run().unwrap();
        let nic_mpi = quick(8, Algorithm::Nic(Descriptor::Pe))
            .layer(2.0)
            .run()
            .unwrap();
        let host_slowdown = host_mpi.mean_us / host.mean_us;
        let nic_slowdown = nic_mpi.mean_us / nic.mean_us;
        assert!(
            host_slowdown > nic_slowdown,
            "host {host_slowdown} nic {nic_slowdown}"
        );
    }

    #[test]
    fn fabrics_build_rejects_are_typed_errors() {
        // Both specs pass the capacity check; only the fabric check stops
        // them before `FabricSpec::build` would panic.
        let base = BarrierExperiment::new(4, Algorithm::Nic(Descriptor::Pe)).rounds(10, 2);
        for spec in [
            FabricSpec::FatTree { k: 3 },
            FabricSpec::Clos {
                leaves: 2,
                hosts_per_leaf: 4,
                spines: 0,
            },
        ] {
            let err = base.fabric(spec, RoutePolicy::Dispersed).run().unwrap_err();
            assert_eq!(err, ExperimentError::InvalidFabric(InvalidFabric(spec)));
        }
    }

    #[test]
    fn invalid_configs_are_rejected_before_running() {
        use ExperimentError as E;
        let base = |p| BarrierExperiment::new(p, Algorithm::Nic(Descriptor::Pe));
        assert_eq!(base(0).run().unwrap_err(), E::ZeroProcs);
        assert_eq!(base(4).rounds(0, 0).run().unwrap_err(), E::ZeroRounds);
        assert!(matches!(
            base(4).rounds(10, 10).run().unwrap_err(),
            E::WarmupNotBelowRounds { .. }
        ));
        assert_eq!(
            base(4)
                .rounds(10, 2)
                .layout(ProcessLayout::Packed { procs_per_node: 9 })
                .run()
                .unwrap_err(),
            E::InvalidLayout { procs_per_node: 9 }
        );
        // The fuzzy loop shares the checks: no index underflow, no panic.
        let fuzzy = base(8).compute(40, true);
        assert_eq!(fuzzy.rounds(0, 0).run().unwrap_err(), E::ZeroRounds);
        assert!(matches!(
            fuzzy.rounds(10, 10).run().unwrap_err(),
            E::WarmupNotBelowRounds { .. }
        ));
        assert!(matches!(
            fuzzy.rounds(10, 20).run().unwrap_err(),
            E::WarmupNotBelowRounds { .. }
        ));
        // gb(0) and dissemination radix < 2 can no longer reach run() at
        // all: the variants are #[non_exhaustive], so the named
        // constructors are the only way to build a descriptor here, and
        // they reject bad parameters at construction.
        assert_eq!(Descriptor::try_gb(0).unwrap_err(), DescriptorError::ZeroDim);
        assert_eq!(
            Descriptor::try_dissemination(0).unwrap_err(),
            DescriptorError::InvalidRadix { radix: 0 }
        );
        assert_eq!(
            Descriptor::try_dissemination(1).unwrap_err(),
            DescriptorError::InvalidRadix { radix: 1 }
        );
        assert!(std::panic::catch_unwind(|| Descriptor::gb(0)).is_err());
        assert!(std::panic::catch_unwind(|| Descriptor::dissemination_radix(1)).is_err());
        let bad = FaultPlan {
            drop_probability: 1.5,
            ..FaultPlan::NONE
        };
        assert!(matches!(
            base(4).faults(bad).run().unwrap_err(),
            E::InvalidProbability { what: "drop", .. }
        ));
    }

    #[test]
    fn degenerate_and_minimal_parameterizations_run() {
        // n = 1: every barrier degenerates to an immediate completion.
        // The NIC path still pays the token post + completion DMA each
        // round; the host path sends nothing and waits on nothing, so
        // its round-to-round gap is legitimately zero.
        for alg in [
            Algorithm::Nic(Descriptor::pe()),
            Algorithm::Nic(Descriptor::gb(1)),
            Algorithm::Nic(Descriptor::dissemination()),
            Algorithm::Nic(Descriptor::dissemination_radix(4)),
        ] {
            let m = quick(1, alg).run().unwrap();
            assert!(m.mean_us > 0.0, "{}", alg.name());
        }
        let m = quick(1, Algorithm::Host(Descriptor::pe())).run().unwrap();
        assert!(m.mean_us >= 0.0 && m.mean_us.is_finite());
        // dim = 1 (chain tree) is the smallest valid GB parameterization.
        quick(5, Algorithm::Nic(Descriptor::gb(1))).run().unwrap();
        // A k-ary radix runs on the same firmware path as radix 2.
        quick(9, Algorithm::Nic(Descriptor::dissemination_radix(3)))
            .run()
            .unwrap();
    }

    #[test]
    fn faulty_wire_still_synchronizes_and_counts_faults() {
        let m = quick(4, Algorithm::Nic(Descriptor::Pe))
            .faults(FaultPlan::drops(0.02))
            .run()
            .unwrap();
        assert!(m.metrics.get(Counter::PacketsDropped) > 0);
        assert!(m.metrics.get(Counter::PacketsRetransmitted) > 0);
        assert!(m.mean_us > 10.0);
    }

    #[test]
    fn metrics_and_turnaround_populated_for_nic_runs() {
        let m = quick(4, Algorithm::Nic(Descriptor::Pe)).run().unwrap();
        assert!(m.metrics.get(Counter::BarrierCompletions) >= 4 * 49);
        assert!(m.metrics.get(Counter::FirmwareCycles) > 0);
        assert!(m.metrics.get(Counter::PacketsSent) > 0);
        assert!(m.nic_turnaround.total() > 0);
        assert!(m.nic_turnaround.mean().unwrap() > 0.0);
        // Tracing was not requested: no trace rides back.
        assert!(m.trace.is_empty());
    }

    #[test]
    fn team_error_variants_display_their_context() {
        let e = ExperimentError::InvalidTeamSizes {
            min: 5,
            max: 3,
            nodes: 4,
        };
        assert!(e.to_string().contains("5..=3"), "{e}");
        let e = ExperimentError::Unsupported {
            what: "random teams with packed processes",
        };
        assert!(e.to_string().contains("packed processes"), "{e}");
        let e = ExperimentError::InvalidTeamId {
            team: TeamId(70_000),
        };
        assert!(e.to_string().contains("70000"), "{e}");
        let e = ExperimentError::InvalidLayerFactor { factor: 0.5 };
        assert!(e.to_string().contains("0.5"), "{e}");
    }

    #[test]
    fn layer_factors_below_one_or_nan_are_rejected() {
        let base = || quick(4, Algorithm::Nic(Descriptor::Pe));
        for factor in [0.5, 0.0, -1.0, f64::INFINITY] {
            assert_eq!(
                base().layer(factor).run().unwrap_err(),
                ExperimentError::InvalidLayerFactor { factor },
                "{factor}"
            );
        }
        // NaN never compares equal, so match the variant instead.
        assert!(matches!(
            base().layer(f64::NAN).run().unwrap_err(),
            ExperimentError::InvalidLayerFactor { factor } if factor.is_nan()
        ));
        assert!(base().layer(1.0).run().is_ok());
    }

    #[test]
    fn whole_team_ids_above_the_tag_field_are_rejected() {
        let base = || quick(4, Algorithm::Nic(Descriptor::Pe));
        assert_eq!(
            base().team(TeamId(70_000)).run().unwrap_err(),
            ExperimentError::InvalidTeamId {
                team: TeamId(70_000)
            }
        );
        let max = TeamId::MAX.0 + 1;
        assert_eq!(
            base().team(TeamId(max)).run().unwrap_err(),
            ExperimentError::InvalidTeamId { team: TeamId(max) }
        );
        assert!(base().team(TeamId::MAX).run().is_ok());
    }

    #[test]
    fn team_label_is_latency_invisible_in_idle_cluster() {
        // The refactor's safety property, in miniature: a team of size N in
        // an otherwise idle cluster behaves bit-identically to the global
        // barrier. (The exhaustive version lives in tests/team_equivalence.)
        for alg in [
            Algorithm::Nic(Descriptor::Pe),
            Algorithm::Host(Descriptor::Pe),
        ] {
            let global = quick(4, alg).run().unwrap();
            let team = quick(4, alg).team(TeamId(9)).run().unwrap();
            assert_eq!(global.mean_us, team.mean_us, "{alg:?}");
            assert_eq!(global.first_round_us, team.first_round_us, "{alg:?}");
            assert_eq!(global.events, team.events, "{alg:?}");
        }
    }

    fn random(nodes: usize, count: usize, min: usize, max: usize) -> BarrierExperiment {
        BarrierExperiment::new(nodes, Algorithm::Nic(Descriptor::Pe))
            .team(TeamSet::Random { count, min, max })
            .rounds(30, 5)
    }

    #[test]
    fn random_teams_are_deterministic_and_in_bounds() {
        let e = random(16, 20, 2, 5);
        let a = e.team_list();
        assert_eq!(a, e.team_list());
        assert_eq!(a.len(), 20);
        for (i, team) in a.iter().enumerate() {
            assert_eq!(team.id(), TeamId(1 + i as u32));
            assert!((2..=5).contains(&team.len()));
            let nodes: Vec<usize> = team.group().members().iter().map(|p| p.node.0).collect();
            assert!(nodes.windows(2).all(|w| w[0] < w[1]), "{nodes:?}");
            assert!(nodes.iter().all(|&n| n < 16));
        }
        // mixed sizes actually occur
        let sizes: Vec<usize> = a.iter().map(|t| t.len()).collect();
        assert!(sizes.iter().any(|&s| s != sizes[0]), "{sizes:?}");
    }

    #[test]
    fn random_teams_run_overlapping_barriers_concurrently() {
        let m = random(8, 6, 2, 4).background(true).run().unwrap();
        assert_eq!(m.teams.len(), 6);
        for (i, row) in m.teams.iter().enumerate() {
            assert_eq!(row.id, TeamId(1 + i as u32));
            assert!((2..=4).contains(&row.size) && row.mean_us > 0.0, "{row:?}");
        }
        assert!(m.mean_us > 0.0 && m.p99_us >= m.mean_us, "{m:?}");
        assert_eq!(m.per_round.count(), 6 * 24);
        assert!(m.events > 0);
        assert_eq!(m.metrics.get(Counter::TeamsCreated), 6);
        // 6 teams of ≥2 members on 8 nodes must overlap somewhere.
        assert!(m.metrics.get(Counter::ConcurrentPeak) >= 2);
    }

    #[test]
    fn one_random_team_of_every_node_is_the_classic_barrier() {
        // The multi-team loop under team 1 against the per-rank loop under
        // the global id: the same wire work, so the same exact ticks.
        for n in [4usize, 16] {
            let classic = quick(n, Algorithm::Nic(Descriptor::Pe)).run().unwrap();
            let isolated = quick(n, Algorithm::Nic(Descriptor::Pe))
                .team(TeamSet::Random {
                    count: 1,
                    min: n,
                    max: n,
                })
                .run()
                .unwrap();
            assert_eq!(
                classic.mean_us.to_bits(),
                isolated.mean_us.to_bits(),
                "n={n}"
            );
            assert_eq!(classic.p99_us.to_bits(), isolated.p99_us.to_bits(), "n={n}");
            assert_eq!(
                isolated.teams[0].mean_us.to_bits(),
                isolated.mean_us.to_bits()
            );
        }
    }

    #[test]
    fn random_teams_follow_the_fabric() {
        // A 4:1 oversubscribed Clos in place of the auto-scaled crossbar.
        let oversubscribed = FabricSpec::Clos {
            leaves: 4,
            hosts_per_leaf: 4,
            spines: 1,
        };
        let auto = random(16, 8, 4, 8).background(true);
        let clos = auto.fabric(oversubscribed, RoutePolicy::Dispersed);
        let (a, c) = (auto.run().unwrap(), clos.run().unwrap());
        assert_ne!(a.mean_us.to_bits(), c.mean_us.to_bits());
        assert_ne!(a.events, c.events);
    }

    #[test]
    fn random_team_invalid_configs_are_rejected() {
        use ExperimentError as E;
        assert_eq!(random(8, 0, 2, 4).run().unwrap_err(), E::ZeroProcs);
        assert_eq!(
            random(4, 2, 2, 9).run().unwrap_err(),
            E::InvalidTeamSizes {
                min: 2,
                max: 9,
                nodes: 4
            }
        );
        // Team ids run 1..=teams through a 16-bit field: 65535 teams fit,
        // one more would alias team 0's tags.
        assert_eq!(random(8, 65_535, 2, 4).validate(), Ok(()));
        let e = random(8, 65_536, 2, 4).validate().unwrap_err();
        assert_eq!(e, E::TooManyTeams { teams: 65_536 });
        assert!(e.to_string().contains("65535 team ids"), "{e}");
        // The multi-team loop runs NIC barriers, one process per node.
        let host = BarrierExperiment {
            algorithm: Algorithm::Host(Descriptor::Pe),
            ..random(8, 2, 2, 4)
        };
        let payload = BarrierExperiment {
            algorithm: Algorithm::Nic(
                Descriptor::bcast(2).with_payload(gmsim_gm::Payload::eager(64)),
            ),
            ..random(8, 2, 2, 4)
        };
        let packed = random(8, 2, 2, 4).layout(ProcessLayout::Packed { procs_per_node: 2 });
        for e in [host, payload, packed] {
            assert!(
                matches!(e.run().unwrap_err(), E::Unsupported { .. }),
                "{e:?}"
            );
        }
        let fuzzy = random(8, 2, 2, 4).compute(40, true);
        assert!(matches!(fuzzy.validate(), Err(E::Unsupported { .. })));
    }

    fn fuzzy(procs: usize, compute_us: u64, overlap: bool) -> f64 {
        BarrierExperiment::new(procs, Algorithm::Nic(Descriptor::Pe))
            .compute(compute_us, overlap)
            .rounds(120, 20)
            .run()
            .unwrap()
            .mean_us
    }

    #[test]
    fn overlap_hides_compute_inside_barrier() {
        // Compute smaller than the barrier latency: the fuzzy period should
        // stay close to the pure barrier latency, while blocking pays
        // compute + barrier.
        let barrier_only = fuzzy(8, 0, true);
        let overlapped = fuzzy(8, 40, true);
        let blocking = fuzzy(8, 40, false);
        assert!(
            overlapped < blocking,
            "fuzzy {overlapped:.1} must beat blocking {blocking:.1}"
        );
        // Hiding is substantial: at least half the compute disappears.
        assert!(
            blocking - overlapped > 20.0,
            "hidden time only {:.1}us",
            blocking - overlapped
        );
        assert!(overlapped >= barrier_only - 1.0);
    }

    #[test]
    fn big_compute_dominates_both_modes() {
        // Compute far larger than the barrier: both periods ≈ compute, and
        // overlap hides (almost) the whole barrier.
        let overlapped = fuzzy(4, 1_000, true);
        let blocking = fuzzy(4, 1_000, false);
        assert!(overlapped >= 1_000.0);
        assert!(blocking > overlapped);
        assert!(
            overlapped < 1_000.0 + 30.0,
            "fuzzy overhead too high: {overlapped:.1}"
        );
    }

    #[test]
    fn zero_compute_modes_agree() {
        assert!((fuzzy(4, 0, true) - fuzzy(4, 0, false)).abs() < 1e-6);
    }

    #[test]
    fn fuzzy_runs_report_their_events_and_reject_other_loops() {
        let base = BarrierExperiment::new(4, Algorithm::Nic(Descriptor::Pe)).rounds(30, 5);
        let m = base.compute(40, true).run().unwrap();
        assert!(m.events > 0);
        assert_eq!(m.teams.len(), 1);
        // Any whole team runs the fuzzy loop, under its own id.
        let team = base.compute(40, true).team(TeamId(3)).run().unwrap();
        assert_eq!(team.teams[0].id, TeamId(3));
        assert_eq!(team.mean_us.to_bits(), m.mean_us.to_bits());
        for e in [
            BarrierExperiment {
                algorithm: Algorithm::Host(Descriptor::Pe),
                ..base.compute(40, false)
            },
            base.compute(40, true).team(TeamSet::Random {
                count: 2,
                min: 2,
                max: 4,
            }),
        ] {
            assert!(
                matches!(e.validate(), Err(ExperimentError::Unsupported { .. })),
                "{e:?}"
            );
        }
    }

    #[test]
    fn zero_compute_is_the_plain_loop_for_any_descriptor_and_team() {
        let gb = BarrierExperiment::new(16, Algorithm::Nic(Descriptor::gb(4))).rounds(60, 10);
        let pe = BarrierExperiment::new(8, Algorithm::Nic(Descriptor::Pe))
            .rounds(60, 10)
            .team(TeamId(3));
        for plain in [gb, pe] {
            let fuzzy = plain.compute(0, true).run().unwrap();
            assert_eq!(fuzzy.digest(), plain.run().unwrap().digest(), "{plain:?}");
        }
    }

    #[test]
    fn overlap_hides_compute_inside_a_gb_barrier() {
        let gb = BarrierExperiment::new(16, Algorithm::Nic(Descriptor::gb(4))).rounds(60, 10);
        let overlapped = gb.compute(40, true).run().unwrap().mean_us;
        let blocking = gb.compute(40, false).run().unwrap().mean_us;
        assert!(
            overlapped < blocking,
            "fuzzy {overlapped:.1} must beat blocking {blocking:.1}"
        );
    }

    /// Host reduce and scan let leaves run rounds ahead of their parents,
    /// so unacked sends pile up past GM's 16 send tokens: a typed error on
    /// either engine, never a panic. A short run, or a deeper pool, stays
    /// within it.
    #[test]
    fn send_token_starvation_is_a_typed_error() {
        use nic_barrier::ReduceOp;
        let scan = BarrierExperiment::new(32, Algorithm::Host(Descriptor::scan(ReduceOp::Sum)));
        let reduce =
            BarrierExperiment::new(16, Algorithm::Host(Descriptor::reduce(ReduceOp::Sum, 2)))
                .layout(ProcessLayout::Packed { procs_per_node: 2 });
        for (e, node, port) in [(scan, 2, 1), (reduce, 0, 2)] {
            let e = e.rounds(200, 20);
            let want = ExperimentError::SendTokensExhausted { node, port };
            assert_eq!(e.run().unwrap_err(), want, "{e:?}");
            assert_eq!(e.parallel(2).run().unwrap_err(), want, "{e:?} parallel");
            assert!(e.send_token_pool(64).run().is_ok(), "{e:?} with 64 tokens");
        }
        let short = scan.rounds(20, 2).run().unwrap();
        assert!((short.mean_us - 151.751).abs() < 1e-6, "{}", short.mean_us);
    }

    #[test]
    fn trace_capacity_bounds_the_returned_trace() {
        let m = quick(2, Algorithm::Nic(Descriptor::Pe))
            .trace(64)
            .run()
            .unwrap();
        assert!(!m.trace.is_empty());
        assert!(m.trace.len() <= 64);
        // Every record names a component inside the 2-node cluster.
        assert!(m.trace.iter().all(|r| r.component.node < 2));
    }
}
