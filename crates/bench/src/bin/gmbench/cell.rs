//! One simulated cell: assembled from the layers' public APIs exactly as
//! `gmsim_testbed::BarrierExperiment::run` assembles it, with set-up, the
//! event loop and teardown timed separately from outside.
//!
//! The traced pass adds two transparent decorators — [`TimedExt`] around
//! the firmware extension and [`TimedProgram`] around the host programs —
//! plus a bounded structured trace. Neither changes what the simulation
//! does, which the traced-vs-untraced fingerprint check verifies on every
//! traced run.

use gmsim_des::{
    Counter, Histogram, MetricSet, RunOutcome, SimTime, TracePayload, TraceRecord, Tracer,
};
use gmsim_gm::cluster::{Cluster, ClusterBuilder};
use gmsim_gm::{
    CollectiveToken, ExtPacket, GlobalPort, GmConfig, GmEvent, HostCtx, HostProgram, McpCore,
    McpExtension, McpOutput, NodeId, PortId,
};
use gmsim_lanai::NicModel;
use gmsim_myrinet::{Fabric, FabricSpec, FaultPlan, NicId, RoutePolicy};
use nic_barrier::advisor::Placement;
use nic_barrier::nic::{TURNAROUND_BINS, TURNAROUND_BIN_US};
use nic_barrier::programs::decode_note;
use nic_barrier::{
    BarrierCosts, BarrierExtension, BarrierGroup, Descriptor, HostBarrierLoop, NicBarrierLoop,
    Team, TeamId,
};
use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Records the traced pass keeps for the fabric replay (32 B each, so
/// 32 MiB): a steady-state window of every workload's cells, from which
/// the replay measures the cost of one fabric walk.
const TRACE_CAPACITY: usize = 1 << 20;

/// One (N, algorithm, NIC, fabric, payload, faults) configuration.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    pub placement: Placement,
    pub descriptor: Descriptor,
    pub procs: usize,
    pub nic: NicModel,
    pub fabric: FabricSpec,
    pub routing: RoutePolicy,
    pub rounds: u64,
    pub warmup: u64,
    pub faults: FaultPlan,
    /// Fault-stream seed (unused on a perfect fabric).
    pub seed: u64,
    pub send_tokens: Option<u32>,
}

impl Cell {
    /// A one-process-per-node cell on LANai 4.3 over the auto-sized fabric.
    pub fn new(placement: Placement, descriptor: Descriptor, procs: usize, rounds: u64) -> Self {
        Cell {
            placement,
            descriptor,
            procs,
            nic: NicModel::LANAI_4_3,
            fabric: FabricSpec::Auto,
            routing: RoutePolicy::Dispersed,
            rounds,
            warmup: (rounds / 10).clamp(1, 20),
            faults: FaultPlan::NONE,
            seed: 0,
            send_tokens: None,
        }
    }

    pub fn label(&self) -> String {
        let side = match self.placement {
            Placement::Nic => "nic",
            Placement::Host => "host",
        };
        let alg = match self.descriptor {
            Descriptor::Pe => "pe".to_string(),
            Descriptor::Gb { dim, .. } => format!("gb{dim}"),
            Descriptor::Allreduce { dim, payload, .. } => {
                format!("allreduce{dim}+{}B", payload.bytes.get())
            }
            other => format!("{other:?}"),
        };
        let mut label = format!("{side}-{alg}@{} {}", self.procs, self.nic.name);
        if !matches!(self.fabric, FabricSpec::Auto) {
            label += &format!(" {:?}/{:?}", self.fabric, self.routing);
        }
        if self.faults.drop_probability > 0.0 {
            label += &format!(" drop={}", self.faults.drop_probability);
        }
        label
    }

    fn program(&self, team: &Team, rank: usize) -> Box<dyn HostProgram> {
        match self.placement {
            Placement::Nic => Box::new(NicBarrierLoop::for_team(
                team,
                rank,
                self.descriptor,
                self.rounds,
            )),
            Placement::Host => Box::new(HostBarrierLoop::for_team(
                team,
                rank,
                self.descriptor,
                self.rounds,
            )),
        }
    }

    /// Bytes a replayed worm of trace kind `kind` carries (the trace keeps
    /// the kind, not the length; acks and nacks are 4 bytes, everything
    /// else carries one segment of this cell's payload).
    fn replay_bytes(&self, kind: u8) -> usize {
        match kind {
            2 | 3 => 4,
            _ => ExtPacket::WIRE_BYTES + self.descriptor.payload().seg_bytes.get() as usize,
        }
    }
}

/// How a cell is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The serial engine, no instrumentation: the end-to-end timing run.
    Plain,
    /// The conservative parallel engine on this many threads.
    Parallel(usize),
    /// Serial, with the timing decorators and a bounded trace.
    Traced,
}

/// Host seconds spent in each phase of one cell.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timing {
    /// `FabricSpec::build`.
    pub topology_s: f64,
    /// `Team::new` plus one `*BarrierLoop::for_team` per rank.
    pub programs_s: f64,
    /// `ClusterBuilder::…build()`.
    pub cluster_s: f64,
    /// `sim.run()`.
    pub run_s: f64,
    /// Reading the results out of the world (notes, counters).
    pub collect_s: f64,
    /// Dropping the world.
    pub teardown_s: f64,
}

impl Timing {
    pub fn setup_s(&self) -> f64 {
        self.topology_s + self.programs_s + self.cluster_s
    }

    pub fn wall_s(&self) -> f64 {
        self.setup_s() + self.run_s + self.collect_s + self.teardown_s
    }
}

/// What a cell simulated.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Mean steady-state round latency, simulated µs.
    pub mean_us: f64,
    /// Every measured round-to-round gap, simulated µs.
    pub gaps_us: Vec<f64>,
    pub events: u64,
    pub metrics: MetricSet,
    pub nic_turnaround: Histogram,
    /// Barrier packets the NIC extensions handled.
    pub ext_msgs: u64,
    /// Simulated µs the SDMA engines were busy, summed over NICs.
    pub sdma_busy_us: f64,
}

/// Per-layer numbers only the traced pass produces.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceStats {
    pub nic_ext_s: f64,
    pub nic_ext_calls: u64,
    pub host_program_s: f64,
    pub host_program_calls: u64,
    /// Worms replayed through a fresh `Fabric::send`, and the seconds the
    /// replay took.
    pub replay_sends: u64,
    pub replay_s: f64,
}

pub struct CellRun {
    pub timing: Timing,
    pub outcome: Result<Outcome, String>,
    pub trace: Option<TraceStats>,
}

/// Host time and call count of one decorated layer, shared by every
/// decorator instance of a cell. Relaxed: the counts publish nothing else.
#[derive(Default)]
struct Probe {
    nanos: AtomicU64,
    calls: AtomicU64,
}

impl Probe {
    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.nanos
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        r
    }

    fn read(&self) -> (f64, u64) {
        (
            self.nanos.load(Ordering::Relaxed) as f64 * 1e-9,
            self.calls.load(Ordering::Relaxed),
        )
    }
}

/// Times every call into the NIC firmware extension. `as_any` delegates,
/// so post-run counter downcasts see the wrapped extension.
struct TimedExt {
    inner: Box<dyn McpExtension>,
    probe: Arc<Probe>,
}

impl McpExtension for TimedExt {
    fn on_collective_token(
        &mut self,
        core: &mut McpCore,
        port: PortId,
        token: CollectiveToken,
        now: SimTime,
        out: &mut Vec<McpOutput>,
    ) {
        self.probe
            .time(|| self.inner.on_collective_token(core, port, token, now, out));
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
        self.probe
            .time(|| self.inner.on_ext_packet(core, src, dst, body, now, out));
    }

    fn on_port_open(
        &mut self,
        core: &mut McpCore,
        port: PortId,
        now: SimTime,
        out: &mut Vec<McpOutput>,
    ) {
        self.probe
            .time(|| self.inner.on_port_open(core, port, now, out));
    }

    fn on_port_close(
        &mut self,
        core: &mut McpCore,
        port: PortId,
        now: SimTime,
        out: &mut Vec<McpOutput>,
    ) {
        self.probe
            .time(|| self.inner.on_port_close(core, port, now, out));
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }
}

/// Times every callback into a host program.
struct TimedProgram {
    inner: Box<dyn HostProgram>,
    probe: Arc<Probe>,
}

impl HostProgram for TimedProgram {
    fn on_start(&mut self, ctx: &mut HostCtx) {
        self.probe.time(|| self.inner.on_start(ctx));
    }

    fn on_event(&mut self, ev: &GmEvent, ctx: &mut HostCtx) {
        self.probe.time(|| self.inner.on_event(ev, ctx));
    }
}

fn lap(t: &mut Instant) -> f64 {
    let now = Instant::now();
    let s = now.duration_since(*t).as_secs_f64();
    *t = now;
    s
}

/// Build, run, read out and drop one cell.
pub fn run(cell: &Cell, mode: Mode) -> CellRun {
    let traced = mode == Mode::Traced;
    let ext_probe = Arc::new(Probe::default());
    let host_probe = Arc::new(Probe::default());
    let tracer = traced.then(|| Tracer::bounded(TRACE_CAPACITY));
    let mut timing = Timing::default();
    let mut t = Instant::now();

    let topology = cell.fabric.build(cell.procs, cell.routing);
    timing.topology_s = lap(&mut t);

    let group = BarrierGroup::one_per_node(cell.procs, 1);
    let team = Team::new(TeamId::GLOBAL, group.clone());
    let programs: Vec<Box<dyn HostProgram>> = (0..cell.procs)
        .map(|rank| {
            let program = cell.program(&team, rank);
            if traced {
                Box::new(TimedProgram {
                    inner: program,
                    probe: host_probe.clone(),
                })
            } else {
                program
            }
        })
        .collect();
    timing.programs_s = lap(&mut t);

    let mut config = GmConfig::paper_host(cell.nic);
    if let Some(tokens) = cell.send_tokens {
        config.send_tokens_per_port = tokens;
    }
    let factory = BarrierExtension::factory_with_costs(BarrierCosts::GM_1_2_3);
    let mut builder = ClusterBuilder::new(cell.procs)
        .config(config)
        .topology(topology);
    builder = if traced {
        let probe = ext_probe.clone();
        builder.extension(move |node: NodeId, size: usize, config: &GmConfig| {
            Box::new(TimedExt {
                inner: factory(node, size, config),
                probe: probe.clone(),
            }) as Box<dyn McpExtension>
        })
    } else {
        builder.extension(factory)
    };
    if !cell.faults.is_none() {
        builder = builder.faults(cell.faults, cell.seed);
    }
    if let Some(tracer) = &tracer {
        builder = builder.tracer(tracer.clone());
    }
    for (rank, program) in programs.into_iter().enumerate() {
        builder = builder.program(group.member(rank), program, SimTime::ZERO);
    }

    let (outcome, events, world) = match mode {
        Mode::Parallel(threads) => {
            let mut sim = builder.build_parallel(threads);
            timing.cluster_s = lap(&mut t);
            let outcome = sim.run();
            timing.run_s = lap(&mut t);
            (outcome, sim.events_fired(), sim.into_world())
        }
        Mode::Plain | Mode::Traced => {
            let mut sim = builder.build();
            timing.cluster_s = lap(&mut t);
            let outcome = sim.run();
            timing.run_s = lap(&mut t);
            (outcome, sim.events_fired(), sim.into_world())
        }
    };
    let result = collect(cell, outcome, events, &world);
    timing.collect_s = lap(&mut t);
    drop(world);
    timing.teardown_s = lap(&mut t);

    let trace = tracer.map(|tracer| {
        let (nic_ext_s, nic_ext_calls) = ext_probe.read();
        let (host_program_s, host_program_calls) = host_probe.read();
        let (replay_sends, replay_s) = replay_fabric(cell, &tracer.snapshot());
        TraceStats {
            nic_ext_s,
            nic_ext_calls,
            host_program_s,
            host_program_calls,
            replay_sends,
            replay_s,
        }
    });
    CellRun {
        timing,
        outcome: result,
        trace,
    }
}

/// Read the run's results out of the world, with the checks
/// `BarrierExperiment::run` applies: the loop drained, no connection gave
/// up, and every round completed on every process.
fn collect(
    cell: &Cell,
    outcome: RunOutcome,
    events: u64,
    cluster: &Cluster,
) -> Result<Outcome, String> {
    if outcome != RunOutcome::Quiescent {
        return Err(format!("simulation did not drain: {outcome:?}"));
    }
    for (node, n) in cluster.nodes.iter().enumerate() {
        if let Some(conn) = n.mcp.core.connections().find(|c| c.is_dead()) {
            return Err(format!("node {node} gave up on node {}", conn.peer().0));
        }
    }
    let rounds = cell.rounds as usize;
    let mut round_done = vec![SimTime::ZERO; rounds];
    let mut counts = vec![0u64; rounds];
    for note in &cluster.notes {
        if let Some(round) = decode_note(note.tag) {
            let r = round as usize;
            round_done[r] = round_done[r].max(note.at);
            counts[r] += 1;
        }
    }
    if let Some((r, &c)) = counts
        .iter()
        .enumerate()
        .find(|&(_, &c)| c != cell.procs as u64)
    {
        return Err(format!(
            "round {r} completed on {c}/{} processes",
            cell.procs
        ));
    }
    let warmup = cell.warmup as usize;
    let gaps_us = (warmup + 1..rounds)
        .map(|r| (round_done[r] - round_done[r - 1]).as_us_f64())
        .collect();
    let span = round_done[rounds - 1] - round_done[warmup];
    let (metrics, nic_turnaround, ext_msgs) = counters(cluster);
    // Each SDMA engine runs one transfer at a time, each costing a fixed
    // startup plus its bytes, so the busy time follows from the engine's
    // own counters. (The trace's SdmaStart/SdmaFinish pairs cover only
    // host-posted sends, not the NIC extension's payload fetches.)
    let sdma_busy_us = cluster
        .nodes
        .iter()
        .map(|n| {
            let sdma = &n.mcp.core.hw.sdma;
            let startup = sdma.transfer_cost(0);
            (startup * sdma.transfers() + (sdma.transfer_cost(sdma.bytes() as usize) - startup))
                .as_us_f64()
        })
        .sum();
    Ok(Outcome {
        mean_us: span.as_us_f64() / (rounds - warmup - 1) as f64,
        gaps_us,
        events,
        metrics,
        nic_turnaround,
        ext_msgs,
        sdma_busy_us,
    })
}

/// The testbed's post-run counter aggregation (same counters, same
/// order), plus the extensions' barrier-packet total.
fn counters(cluster: &Cluster) -> (MetricSet, Histogram, u64) {
    let mut m = MetricSet::new();
    let fabric = cluster.fabric.stats();
    m.add(Counter::PacketsSent, fabric.sends);
    m.add(Counter::PacketsDropped, fabric.drops);
    m.add(Counter::PacketsCorrupted, fabric.corruptions);
    m.add(Counter::DupRx, fabric.duplicates);
    m.add(Counter::ReorderRx, fabric.reorders);
    let mut turnaround = Histogram::new(TURNAROUND_BIN_US, TURNAROUND_BINS);
    let mut concurrent_peak = 0u64;
    let mut teams: Vec<TeamId> = Vec::new();
    let mut msgs = 0;
    for node in &cluster.nodes {
        let stats = &node.mcp.core.stats;
        m.add(Counter::PacketsRetransmitted, stats.retx);
        m.add(Counter::AcksSent, stats.ack_tx);
        m.add(Counter::NacksSent, stats.nack_tx);
        m.add(Counter::CrcDrops, stats.crc_drops);
        m.add(Counter::DupDrops, stats.dup_drops);
        m.add(Counter::RtoBackoffs, stats.rto_backoffs);
        m.add(Counter::TimerCancels, stats.timer_cancels);
        m.add(Counter::GaveUp, stats.gave_up);
        m.add(Counter::CompletionDmas, stats.host_events);
        let hw = &node.mcp.core.hw;
        m.add(Counter::FirmwareCycles, hw.cpu.executed_cycles());
        m.add(Counter::SdmaBytes, hw.sdma.bytes());
        m.add(Counter::RdmaBytes, hw.rdma.bytes());
        m.add(Counter::HostSends, node.host.stats.sends);
        m.add(Counter::HostEvents, node.host.stats.events);
        if let Some(ext) = node.mcp.ext().as_any().downcast_ref::<BarrierExtension>() {
            let b = &ext.stats;
            m.add(Counter::LocalFlags, b.local_flags);
            m.add(Counter::BarrierCompletions, b.completions);
            m.add(Counter::RejectsSent, b.rejects_sent);
            m.add(Counter::BarrierResends, b.resends);
            m.add(Counter::CrossTeamRejects, b.cross_team_rejects);
            concurrent_peak = concurrent_peak.max(b.concurrent_peak);
            teams.extend_from_slice(ext.teams_seen());
            turnaround.merge(ext.turnaround());
            msgs += b.pe_msgs + b.gather_msgs + b.bcast_msgs + b.scan_msgs;
        }
    }
    teams.sort_unstable();
    teams.dedup();
    m.add(Counter::TeamsCreated, teams.len() as u64);
    m.add(Counter::ConcurrentPeak, concurrent_peak);
    (m, turnaround, msgs)
}

/// Replay the trace's wire injections, in order and at their recorded
/// times, through a fresh fault-free fabric on the same topology: the
/// fabric walk alone, without the rest of the simulator around it.
fn replay_fabric(cell: &Cell, records: &[TraceRecord]) -> (u64, f64) {
    let sends: Vec<(usize, usize, usize, SimTime)> = records
        .iter()
        .filter_map(|r| match r.payload {
            TracePayload::WireInject { dst, kind } if dst != r.component.node => Some((
                r.component.node as usize,
                dst as usize,
                cell.replay_bytes(kind),
                r.at,
            )),
            _ => None,
        })
        .collect();
    let mut fabric = Fabric::new(cell.fabric.build(cell.procs, cell.routing));
    let t = Instant::now();
    for &(src, dst, bytes, at) in &sends {
        std::hint::black_box(fabric.send(NicId(src), NicId(dst), bytes, at));
    }
    (sends.len() as u64, t.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmsim_gm::{Payload, ReduceOp};
    use gmsim_testbed::{Algorithm, BarrierExperiment};

    fn experiment(cell: &Cell) -> BarrierExperiment {
        let alg = match cell.placement {
            Placement::Nic => Algorithm::Nic(cell.descriptor),
            Placement::Host => Algorithm::Host(cell.descriptor),
        };
        let mut e = BarrierExperiment::new(cell.procs, alg)
            .nic(cell.nic)
            .rounds(cell.rounds, cell.warmup)
            .fabric(cell.fabric, cell.routing)
            .faults(cell.faults)
            .skew(0, cell.seed);
        if let Some(tokens) = cell.send_tokens {
            e = e.send_token_pool(tokens);
        }
        e
    }

    fn small_cells() -> Vec<Cell> {
        let lossy = Cell {
            faults: FaultPlan::drops(0.02),
            seed: 7,
            send_tokens: Some(64),
            ..Cell::new(
                Placement::Nic,
                Descriptor::allreduce(ReduceOp::Sum, 2).with_payload(Payload::for_size(16384)),
                8,
                40,
            )
        };
        vec![
            Cell::new(Placement::Nic, Descriptor::Pe, 4, 60),
            Cell::new(Placement::Host, Descriptor::gb(2), 8, 60),
            lossy,
        ]
    }

    #[test]
    fn assembly_matches_barrier_experiment_bit_for_bit() {
        for cell in small_cells() {
            let want = experiment(&cell).run().expect("reference run");
            for mode in [Mode::Plain, Mode::Traced, Mode::Parallel(2)] {
                let got = run(&cell, mode).outcome.expect("bench run");
                let label = format!("{} {mode:?}", cell.label());
                assert_eq!(got.mean_us.to_bits(), want.mean_us.to_bits(), "{label}");
                assert_eq!(got.events, want.events, "{label}");
                assert_eq!(got.metrics, want.metrics, "{label}");
                assert_eq!(got.gaps_us.len() as u64, want.per_round.count(), "{label}");
                assert_eq!(
                    got.nic_turnaround.total(),
                    want.nic_turnaround.total(),
                    "{label}"
                );
            }
        }
    }

    #[test]
    fn traced_pass_measures_every_layer() {
        let cell = small_cells()[0];
        let stats = run(&cell, Mode::Traced).trace.expect("traced pass");
        assert!(stats.nic_ext_calls > 0 && stats.nic_ext_s > 0.0);
        assert!(stats.host_program_calls > 0);
        assert!(stats.replay_sends > 0 && stats.replay_s > 0.0);
        let host_cell = small_cells()[1];
        let host = run(&host_cell, Mode::Traced);
        assert_eq!(
            host.trace.unwrap().nic_ext_calls,
            host_cell.procs as u64,
            "host cells enter the extension only through each port-open hook"
        );
        assert!(
            host.outcome.unwrap().sdma_busy_us > 0.0,
            "host sends use SDMA"
        );
    }
}
