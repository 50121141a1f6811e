//! The gated studies. Each declares its full grid once; `--smoke` keeps
//! the subset of cells its predicate selects. A cell's experiment — and
//! its seed, derived from the cell's index in the *full* grid — is the
//! same in both modes, so a smoke cell re-runs exactly its full-grid twin
//! (pinned by the test at the bottom). A study's rows are both its printed
//! tables and its `BENCH_<id>.json`; its checks gate the exit code.

use gmsim_des::Counter;
use gmsim_gm::{GmConfig, Payload};
use gmsim_lanai::NicModel;
use gmsim_myrinet::FaultPlan;
use gmsim_testbed::{
    cell_seed, Algorithm, BarrierExperiment, Descriptor, FabricSpec, MultiTenantExperiment,
    RoutePolicy,
};
use nic_barrier::advisor::{self, Candidate};
use nic_barrier::{
    CostModel, ReduceOp, ADVISOR_REGRET_TOLERANCE, FABRIC_MODEL_TOLERANCE, GB_MODEL_TOLERANCE,
    PAYLOAD_MODEL_TOLERANCE, PE_MODEL_TOLERANCE,
};

use crate::{run, sweep, Ctx, Row, StudyError};

/// Base seeds of the per-cell seed streams: arbitrary but fixed, so each
/// study reproduces run to run and across worker counts.
const SCALE_SEED: u64 = 0x5ca1_ab1e_0000_0001;
const PAYLOAD_SEED: u64 = 0x5ca1_ab1e_0000_0002;
const ADVISOR_SEED: u64 = 0x5ca1_ab1e_0000_0003;
const FABRIC_SEED: u64 = 0x5ca1_ab1e_0000_0004;

/// The cells of a grid whose full form is `full`, in full-grid order:
/// all of them, or under `--smoke` the ones `keep` selects. `cell` builds
/// a key's experiment from the key's full-grid index.
fn grid<K, E>(
    smoke: bool,
    full: Vec<K>,
    keep: impl Fn(&K) -> bool,
    cell: impl Fn(u64, &K) -> E,
) -> Vec<(K, E)> {
    full.into_iter()
        .enumerate()
        .filter(|(_, k)| !smoke || keep(k))
        .map(|(i, k)| {
            let e = cell(i as u64, &k);
            (k, e)
        })
        .collect()
}

/// A scale cell: LANai model, nodes, algorithm and its row key.
type ScaleKey = (NicModel, usize, Algorithm, &'static str);

/// PE, GB (d = 8) and dissemination, NIC- and host-based, on both LANai
/// generations, from 32 to 4096 nodes (the two-level Clos through 1024,
/// the three-level Clos beyond). The 2048/4096-node cells, which only the
/// parallel DES engine (DESIGN.md §15) makes practical, run fewer rounds:
/// the steady state is reached within two. Smoke keeps N ≤ 256 plus the
/// 2048-node LANai 4.3 NIC-PE cell, so CI still drives the parallel engine.
fn scale_grid(smoke: bool) -> Vec<(ScaleKey, BarrierExperiment)> {
    let algs = [
        (Algorithm::Nic(Descriptor::Pe), "nic_pe"),
        (Algorithm::Host(Descriptor::Pe), "host_pe"),
        (Algorithm::Nic(Descriptor::gb(8)), "nic_gb8"),
        (Algorithm::Host(Descriptor::gb(8)), "host_gb8"),
        (Algorithm::Nic(Descriptor::dissemination()), "nic_dissem"),
        (Algorithm::Host(Descriptor::dissemination()), "host_dissem"),
    ];
    let mut full = Vec::new();
    for sizes in [&[32, 64, 128, 256, 512, 1024][..], &[2048, 4096]] {
        for nic in [NicModel::LANAI_4_3, NicModel::LANAI_7_2] {
            for &n in sizes {
                full.extend(algs.map(|(alg, key)| (nic, n, alg, key)));
            }
        }
    }
    // In-simulation workers, capped at 8; on one core `parallel` falls
    // back to the serial scheduler, bit-identically.
    let pdes_threads = std::thread::available_parallelism().map_or(1, |p| p.get().min(8));
    grid(
        smoke,
        full,
        |&(nic, n, _, key)| {
            n <= 256 || (n == 2048 && nic == NicModel::LANAI_4_3 && key == "nic_pe")
        },
        |i, &(nic, n, alg, _)| {
            let mut e = BarrierExperiment::new(n, alg).nic(nic).rounds(30, 5);
            if n > 1024 {
                e = e.rounds(12, 2).parallel(pdes_threads);
            }
            e.seed = cell_seed(SCALE_SEED, i);
            e
        },
    )
}

/// §2.2's scaling prediction taken far beyond the paper's testbed: every
/// point is checked against the analytic scaling forms in
/// `nic_barrier::analytic` ([`PE_MODEL_TOLERANCE`] for PE and
/// dissemination, [`GB_MODEL_TOLERANCE`] for GB). NIC-PE's lead over
/// host-PE keeps widening with log2 N, as §2.2 predicts.
pub fn scale(ctx: &mut Ctx) -> Result<(), StudyError> {
    let cells = scale_grid(ctx.smoke);
    let measured = sweep(&cells, |(_, e)| run(e).map(|m| m.mean_us))?;
    ctx.bounds = Row::default()
        .val("pe_model", PE_MODEL_TOLERANCE)
        .val("gb_model", GB_MODEL_TOLERANCE);
    for (&((nic, n, _, key), _), meas) in cells.iter().zip(measured) {
        let m = CostModel::from_config(&GmConfig::paper_host(nic));
        let (model, bound) = match key {
            "nic_pe" => (m.nic_pe_us(n), PE_MODEL_TOLERANCE),
            "host_pe" => (m.host_pe_us(n), PE_MODEL_TOLERANCE),
            "nic_gb8" => (m.nic_gb_us(n, 8), GB_MODEL_TOLERANCE),
            "host_gb8" => (m.host_gb_us(n, 8), GB_MODEL_TOLERANCE),
            "nic_dissem" => (m.nic_dissemination_us(n), PE_MODEL_TOLERANCE),
            "host_dissem" => (m.host_dissemination_us(n), PE_MODEL_TOLERANCE),
            other => unreachable!("unknown scale key {other}"),
        };
        let row = Row::default()
            .text("nic", nic.name)
            .val("clock_mhz", nic.clock.mhz())
            .val("nodes", n)
            .text("algorithm", key)
            .num("measured_us", meas, 3)
            .num("model_us", model, 3);
        ctx.gate("points", row, (model - meas) / meas, bound);
    }
    Ok(())
}

/// A payload cell: nodes, collective and its row key, eager?, payload.
type PayloadKey = (usize, Descriptor, &'static str, bool, Payload);

/// Segment size of the pipelined arm (also `Payload::for_size`'s default
/// granularity and eager threshold).
const SEG: u64 = 4096;

/// Broadcast, reduce, allreduce (all at dim = 2, the MPI layer's binding)
/// and scan at N ∈ {16, 64, 256, 1024}, 1 B – 1 MiB, each size forced
/// eager and forced pipelined. Smoke keeps N ≤ 64 and ≤ 64 KiB.
fn payload_grid(smoke: bool) -> Vec<(PayloadKey, BarrierExperiment)> {
    let colls = [
        (Descriptor::bcast(2), "bcast"),
        (Descriptor::reduce(ReduceOp::Sum, 2), "reduce"),
        (Descriptor::allreduce(ReduceOp::Sum, 2), "allreduce"),
        (Descriptor::scan(ReduceOp::Sum), "scan"),
    ];
    let mut full = Vec::new();
    for n in [16, 64, 256, 1024] {
        for (desc, key) in colls {
            for b in [1, 64, 1024, 4096, 16384, 65536, 262144, 1048576] {
                let arms = [
                    (true, Payload::eager(b)),
                    (false, Payload::pipelined(b, SEG)),
                ];
                full.extend(arms.map(|(eager, p)| (n, desc, key, eager, p)));
            }
        }
    }
    grid(
        smoke,
        full,
        |&(n, .., p)| n <= 64 && p.bytes.get() <= 65536,
        |i, &(n, desc, _, _, payload)| {
            // Segment counts grow with the message; fewer timing rounds
            // keep the big cells tractable without moving the steady-state
            // mean.
            let (rounds, warmup) = if n >= 1024 || payload.bytes.get() >= 262144 {
                (4, 1)
            } else {
                (8, 2)
            };
            let alg = Algorithm::Nic(desc.with_payload(payload));
            let mut e = BarrierExperiment::new(n, alg).rounds(rounds, warmup);
            e.seed = cell_seed(PAYLOAD_SEED, i);
            e
        },
    )
}

/// The data-carrying collectives' latency vs message size, eager vs
/// segment-pipelined, so the crossover is visible in the curves rather
/// than asserted. Every point is checked against the payload forms in
/// `nic_barrier::analytic` within [`PAYLOAD_MODEL_TOLERANCE`].
pub fn payload(ctx: &mut Ctx) -> Result<(), StudyError> {
    let cells = payload_grid(ctx.smoke);
    let measured = sweep(&cells, |(_, e)| run(e).map(|m| m.mean_us))?;
    ctx.bounds = Row::default().val("payload_model", PAYLOAD_MODEL_TOLERANCE);
    let m = CostModel::from_config(&GmConfig::paper_host(NicModel::LANAI_4_3));
    for (&((n, _, key, eager, payload), _), &meas) in cells.iter().zip(&measured) {
        let model = match key {
            "bcast" => m.nic_bcast_us(n, 2, payload),
            "reduce" => m.nic_reduce_us(n, 2, payload),
            "allreduce" => m.nic_allreduce_us(n, 2, payload),
            "scan" => m.nic_scan_us(n, payload),
            other => unreachable!("unknown payload key {other}"),
        };
        let mode = if eager { "eager" } else { "pipelined" };
        let row = Row::default()
            .val("nodes", n)
            .text("collective", key)
            .val("bytes", payload.bytes.get())
            .text("mode", mode)
            .val("segments", payload.segments().get())
            .num("measured_us", meas, 3)
            .num("model_us", model, 3);
        let err = (model - meas) / meas;
        ctx.gate("points", row, err, PAYLOAD_MODEL_TOLERANCE);
    }

    // The crossover: the smallest size at which segmenting beats the
    // single worm (null: eager wins every size). Below it the per-segment
    // overhead dominates; above it the pipeline hides the per-byte terms
    // behind the tree depth. Cells come in (eager, pipelined) pairs,
    // grouped by curve.
    let mut crossovers: Vec<(usize, &str, Option<u64>)> = Vec::new();
    for (pair, meas) in cells.chunks_exact(2).zip(measured.chunks_exact(2)) {
        let (n, _, key, _, payload) = pair[0].0;
        let wins = (meas[1] < meas[0]).then_some(payload.bytes.get());
        match crossovers.last_mut() {
            Some((cn, ck, cross)) if (*cn, *ck) == (n, key) => *cross = cross.or(wins),
            _ => crossovers.push((n, key, wins)),
        }
    }
    for (n, key, cross) in crossovers {
        let bytes = cross.map_or("null".to_string(), |b| b.to_string());
        let row = Row::default()
            .val("nodes", n)
            .text("collective", key)
            .val("crossover_bytes", bytes);
        ctx.push("crossover", row);
    }
    Ok(())
}

/// An advisor scenario: nodes, payload bytes, drop rate.
type Scenario = (usize, u64, f64);

/// The advisor's scenario space — group size × payload × drop rate — with
/// one experiment per candidate the advisor ranks, best first. Smoke keeps
/// N ≤ 64 and drop rates ≤ 10⁻³.
fn advisor_grid(smoke: bool) -> Vec<(Scenario, Vec<(Candidate, BarrierExperiment)>)> {
    let m = CostModel::from_config(&GmConfig::paper_host(NicModel::LANAI_4_3));
    let mut full = Vec::new();
    for n in [8, 64, 256, 1024, 4096] {
        for bytes in [0, 4096] {
            full.extend([0.0, 0.001, 0.01].map(|fault| (n, bytes, fault)));
        }
    }
    grid(
        smoke,
        full,
        |&(n, _, fault)| n <= 64 && fault <= 0.001,
        |i, &(n, bytes, fault)| {
            let mut sc = advisor::Scenario::barrier(n).with_faults(fault);
            if bytes > 0 {
                sc = sc.with_payload(Payload::for_size(bytes));
            }
            let experiment = |c: &Candidate| {
                let alg = match c.placement {
                    advisor::Placement::Nic => Algorithm::Nic(c.descriptor),
                    advisor::Placement::Host => Algorithm::Host(c.descriptor),
                };
                // The biggest clusters keep fewer timed rounds to stay
                // tractable; payload cells get enough rounds that one
                // lucky/unlucky drop placement cannot dominate a mean (a
                // single RTO is ~20× a fault-free payload round).
                let (rounds, warmup) = if n >= 2048 {
                    (12, 2)
                } else if bytes > 0 {
                    (24, 4)
                } else {
                    (40, 5)
                };
                let mut e = BarrierExperiment::new(n, alg).rounds(rounds, warmup);
                if fault > 0.0 {
                    // Deep host schedules at 4096 nodes post more sends
                    // per barrier than GM's default 16-token pool, and
                    // under drops a stuck send holds its token for a full
                    // RTO while the stream advances; open the ports with a
                    // deeper pool, as a real application running that
                    // schedule would.
                    e = e.faults(FaultPlan::drops(fault)).send_token_pool(64);
                }
                // Paired seeding: every candidate in a scenario sees the
                // same drop pattern, so algorithmically identical
                // schedules (PE vs radix-2 dissemination at powers of two)
                // measure identically instead of differing by
                // drop-placement luck.
                e.seed = cell_seed(ADVISOR_SEED, i);
                (*c, e)
            };
            let ranked = advisor::recommend(&m, &sc).ranked;
            ranked.iter().map(experiment).collect()
        },
    )
}

/// The advisor validation study: replay the advisor's scenario space in
/// simulation, measure every candidate it ranks, and gate the pick's
/// *regret* — how much slower the recommended candidate is than the
/// measured-best one — against [`ADVISOR_REGRET_TOLERANCE`].
pub fn advisor(ctx: &mut Ctx) -> Result<(), StudyError> {
    let scenarios = advisor_grid(ctx.smoke);
    let cells: Vec<&BarrierExperiment> = scenarios
        .iter()
        .flat_map(|(_, cands)| cands.iter().map(|(_, e)| e))
        .collect();
    let mut measured = sweep(&cells, |e| run(e).map(|m| m.mean_us))?.into_iter();
    ctx.bounds = Row::default().val("regret", ADVISOR_REGRET_TOLERANCE);
    for &((n, bytes, fault), ref cands) in &scenarios {
        // This scenario's candidates, still in the advisor's rank order.
        let results: Vec<(String, f64, f64)> = cands
            .iter()
            .zip(measured.by_ref())
            .map(|((c, _), meas)| (c.name(), c.predicted_us, meas))
            .collect();
        let (pick, pick_pred, pick_meas) = &results[0];
        let (best, _, best_meas) = results
            .iter()
            .min_by(|a, b| a.2.total_cmp(&b.2))
            .expect("the advisor ranks at least one candidate");
        let row = Row::default()
            .val("nodes", n)
            .val("payload_bytes", bytes)
            .val("fault_rate", fault)
            .text("pick", pick)
            .num("pick_predicted_us", *pick_pred, 3)
            .num("pick_measured_us", *pick_meas, 3)
            .text("best", best)
            .num("best_measured_us", *best_meas, 3);
        let err = (pick_meas - best_meas) / best_meas;
        ctx.gate("cells", row, err, ADVISOR_REGRET_TOLERANCE);
        for (name, pred, meas) in &results {
            let row = Row::default()
                .val("nodes", n)
                .val("payload_bytes", bytes)
                .val("fault_rate", fault)
                .text("candidate", name)
                .num("predicted_us", *pred, 3)
                .num("measured_us", *meas, 3);
            ctx.push("candidates", row);
        }
    }
    Ok(())
}

/// A fabric cell: (name, spec, nodes), (routing name, policy), (algorithm
/// name, descriptor).
type FabricKey = (
    (&'static str, FabricSpec, usize),
    (&'static str, RoutePolicy),
    (&'static str, Descriptor),
);

/// Algorithm × fabric × routing: the non-blocking, 2:1 and 4:1 Clos plus a
/// k=8 fat tree under static-BFS, dispersed and adaptive routing. Smoke
/// keeps the 1:1 and 4:1 Clos, the spreading policies, and PE and GB.
fn fabric_grid(smoke: bool) -> Vec<(FabricKey, BarrierExperiment)> {
    let clos = |spines| FabricSpec::Clos {
        leaves: 8,
        hosts_per_leaf: 8,
        spines,
    };
    let fabrics = [
        ("clos-1to1", clos(8), 64),
        ("clos-2to1", clos(4), 64),
        ("clos-4to1", clos(2), 64),
        ("fat-tree-k8", FabricSpec::FatTree { k: 8 }, 128),
    ];
    let policies = [
        ("static", RoutePolicy::StaticBfs),
        ("dispersed", RoutePolicy::Dispersed),
        ("adaptive", RoutePolicy::Adaptive),
    ];
    let algs = [
        ("nic-pe", Descriptor::pe()),
        ("nic-gb8", Descriptor::gb(8)),
        ("nic-dissem2", Descriptor::dissemination_radix(2)),
    ];
    let mut full = Vec::new();
    for f in fabrics {
        for p in policies {
            full.extend(algs.map(|a| (f, p, a)));
        }
    }
    grid(
        smoke,
        full,
        |&((fabric, ..), (policy, _), (alg, _))| {
            ["clos-1to1", "clos-4to1"].contains(&fabric)
                && policy != "static"
                && alg != "nic-dissem2"
        },
        |i, &((_, spec, n), (_, policy), (_, desc))| {
            let mut e = BarrierExperiment::new(n, Algorithm::Nic(desc))
                .rounds(40, 5)
                .fabric(spec, policy);
            e.seed = cell_seed(FABRIC_SEED, i);
            e
        },
    )
}

/// Every fabric cell's measured latency against the per-fabric analytic
/// prediction (DESIGN.md §18), gated by [`FABRIC_MODEL_TOLERANCE`].
pub fn fabric(ctx: &mut Ctx) -> Result<(), StudyError> {
    let cells = fabric_grid(ctx.smoke);
    let measured = sweep(&cells, |(_, e)| run(e).map(|m| m.mean_us))?;
    ctx.bounds = Row::default().val("fabric_model", FABRIC_MODEL_TOLERANCE);
    let m = CostModel::from_config(&GmConfig::paper_host(NicModel::LANAI_4_3));
    for (&(((fname, spec, n), (pname, policy), (aname, desc)), _), meas) in
        cells.iter().zip(measured)
    {
        let sc = advisor::Scenario::barrier(n).with_fabric(spec, policy);
        let predicted = advisor::predict(&m, &sc, advisor::Placement::Nic, &desc);
        let row = Row::default()
            .text("fabric", fname)
            .val("nodes", n)
            .val("oversub", spec.oversub_ratio(n))
            .text("routing", pname)
            .text("algorithm", aname)
            .num("model_us", predicted, 3)
            .num("measured_us", meas, 3);
        let err = (predicted - meas) / meas;
        ctx.gate("cells", row, err, FABRIC_MODEL_TOLERANCE);
    }
    Ok(())
}

/// Rounds and warmup of every multi-tenant cell.
const TEAM_ROUNDS: (u64, u64) = (40, 8);

/// Mixed-size teams (4–8 nodes) under background point-to-point traffic,
/// keyed by (nodes, concurrent teams). At 256 nodes the full grid packs
/// hundreds of teams onto the cluster, several per node. Smoke keeps
/// N ≤ 64 and ≤ 4 teams.
fn multitenant_grid(smoke: bool) -> Vec<((usize, usize), MultiTenantExperiment)> {
    let mut full = Vec::new();
    for n in [16, 64, 256] {
        let teams = if n == 256 {
            [1, 4, 16, 64, 256]
        } else {
            [1, 2, 4, 8, 16]
        };
        full.extend(teams.map(|t| (n, t)));
    }
    grid(
        smoke,
        full,
        |&(n, teams)| n <= 64 && teams <= 4,
        |_, &(n, teams)| {
            MultiTenantExperiment::new(n, teams)
                .team_sizes(4, 8.min(n))
                .rounds(TEAM_ROUNDS.0, TEAM_ROUNDS.1)
                .background(true)
        },
    )
}

/// Multi-tenant interference: per-team mean/p99 latency against the
/// number of concurrent teams; one NIC multiplexes every co-resident
/// team, and contention shows up in p99 first. The isolated baseline
/// anchors the chart *and* gates the team plumbing: one whole-cluster team
/// driven through the multi-tenant path must reproduce the classic global
/// barrier to within float summation noise.
pub fn multitenant(ctx: &mut Ctx) -> Result<(), StudyError> {
    /// The isolated whole-cluster team may differ from the global barrier
    /// only by float summation order in the aggregation.
    const BASELINE_TOLERANCE: f64 = 1e-6;

    let cells = multitenant_grid(ctx.smoke);
    let mut sizes: Vec<usize> = cells.iter().map(|&((n, _), _)| n).collect();
    sizes.dedup();
    let (rounds, warmup) = TEAM_ROUNDS;
    let baselines = sweep(&sizes, |&n| {
        let reference =
            BarrierExperiment::new(n, Algorithm::Nic(Descriptor::Pe)).rounds(rounds, warmup);
        let isolated = MultiTenantExperiment::new(n, 1)
            .team_sizes(n, n)
            .rounds(rounds, warmup)
            .run()
            .map_err(|err| StudyError(format!("cell n={n} isolated team: {err}")))?;
        Ok((run(&reference)?.mean_us, isolated.mean_us))
    })?;
    let measured = sweep(&cells, |&((n, teams), e)| {
        e.run()
            .map_err(|err| StudyError(format!("cell n={n} teams={teams}: {err}")))
    })?;
    ctx.bounds = Row::default().val("baseline", BASELINE_TOLERANCE);
    for (&n, (reference, isolated)) in sizes.iter().zip(baselines) {
        let row = Row::default()
            .val("nodes", n)
            .num("reference_us", reference, 4)
            .num("isolated_us", isolated, 4);
        let err = (isolated - reference) / reference;
        ctx.gate("baseline", row, err, BASELINE_TOLERANCE);
    }
    let mut one_team = 0.0;
    for (&((n, teams), _), m) in cells.iter().zip(measured) {
        if teams == 1 {
            one_team = m.mean_us;
        }
        let counter = |c| m.metrics.get(c);
        let row = Row::default()
            .val("nodes", n)
            .val("teams", teams)
            .num("mean_us", m.mean_us, 4)
            .num("p99_us", m.p99_us, 4)
            .num("vs_one_team", m.mean_us / one_team, 2)
            .val("concurrent_peak", counter(Counter::ConcurrentPeak))
            .val("cross_team_rejects", counter(Counter::CrossTeamRejects));
        ctx.push("points", row);
    }
    Ok(())
}

/// NIC-PE at 8 nodes, LANai 4.3, under injected drop rates up to 20%; each
/// cell keeps the experiment's default seed. Smoke keeps rates ≤ 5%.
fn faults_grid(smoke: bool) -> Vec<(f64, BarrierExperiment)> {
    grid(
        smoke,
        vec![0.0, 0.02, 0.05, 0.10, 0.20],
        |&rate| rate <= 0.05,
        |_, &rate| {
            BarrierExperiment::new(8, Algorithm::Nic(Descriptor::Pe))
                .rounds(120, 10)
                .faults(FaultPlan::drops(rate))
        },
    )
}

/// Beyond the paper: barrier completion latency vs injected drop rate on
/// the reliable stream — the cost of GM's go-back-N recovery with the
/// adaptive RTO. Recovery is timeout-driven, so the mean climbs with the
/// RTO, not the wire time. Ungated: the artifact archives the curve.
pub fn faults(ctx: &mut Ctx) -> Result<(), StudyError> {
    let cells = faults_grid(ctx.smoke);
    let measured = sweep(&cells, |(_, e)| run(e))?;
    for ((rate, _), m) in cells.iter().zip(measured) {
        let row = Row::default()
            .val("drop_rate", rate)
            .num("mean_us", m.mean_us, 3)
            .val("drops", m.metrics.get(Counter::PacketsDropped))
            .val("retx", m.metrics.get(Counter::PacketsRetransmitted))
            .val("rto_backoffs", m.metrics.get(Counter::RtoBackoffs))
            .val("timer_cancels", m.metrics.get(Counter::TimerCancels));
        ctx.push("points", row);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Debug;

    /// Every smoke cell must be the full-grid cell with the same key,
    /// experiment and seed included.
    fn assert_smoke_subset<K: PartialEq + Debug, E: PartialEq + Debug>(
        id: &str,
        grid: fn(bool) -> Vec<(K, E)>,
    ) {
        let full = grid(false);
        let smoke = grid(true);
        assert!(
            !smoke.is_empty() && smoke.len() < full.len(),
            "{id}: smoke must be a proper, non-empty subset of the full grid"
        );
        for (key, exp) in &smoke {
            let twin = full
                .iter()
                .find(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("{id}: smoke cell {key:?} is not in the full grid"));
            assert_eq!(&twin.1, exp, "{id}: smoke cell {key:?} differs from full");
        }
    }

    #[test]
    fn smoke_cells_are_their_full_grid_twins() {
        assert_smoke_subset("scale", scale_grid);
        assert_smoke_subset("payload", payload_grid);
        assert_smoke_subset("advisor", advisor_grid);
        assert_smoke_subset("fabric", fabric_grid);
        assert_smoke_subset("multitenant", multitenant_grid);
        assert_smoke_subset("faults", faults_grid);
    }
}
