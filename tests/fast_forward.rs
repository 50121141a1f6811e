//! Steady-state fast-forward must be invisible: a run that proves its
//! period and skips the repeated rounds reports exactly what a full
//! simulation of the same configuration reports.
//!
//! The reference for every comparison is the same run with a (one-record)
//! tracer: tracing keeps detection on but disables the skip, so it
//! simulates every round. The two must report the same output digest
//! (events, per-node counters and notes) and the same period.

use gmsim_des::{Counter, SimTime, Tracer};
use gmsim_gm::cluster::{ClusterBuilder, ClusterEvent, ClusterSim};
use gmsim_gm::steady::state_digest;
use gmsim_gm::{GlobalPort, GmConfig, HostProgram, NodeId, Payload, ReduceOp, TimerKind};
use gmsim_lanai::NicModel;
use gmsim_testbed::prelude::FaultPlan;
use gmsim_testbed::{
    Algorithm, BarrierExperiment, Descriptor, FabricSpec, Measurement, ProcessLayout, RoutePolicy,
    TeamSet,
};
use nic_barrier::{BarrierExtension, BarrierGroup, HostBarrierLoop, NicBarrierLoop, Team, TeamId};
use std::collections::BTreeSet;

/// One configuration of the equivalence matrix.
#[derive(Debug, Clone, Copy)]
struct Case {
    alg: Algorithm,
    procs: usize,
    per_node: usize,
    skew_us: u64,
    rounds: u64,
}

impl Case {
    fn new(alg: Algorithm, procs: usize) -> Self {
        Case {
            alg,
            procs,
            per_node: 1,
            skew_us: 0,
            rounds: 400,
        }
    }

    fn experiment(&self) -> BarrierExperiment {
        let layout = if self.per_node > 1 {
            ProcessLayout::Packed {
                procs_per_node: self.per_node,
            }
        } else {
            ProcessLayout::OnePerNode
        };
        BarrierExperiment::new(self.procs, self.alg)
            .rounds(self.rounds, 10)
            .layout(layout)
            .skew(self.skew_us, 11)
    }

    /// The same team and programs assembled from the layers' public APIs,
    /// so the notes themselves can be compared.
    fn cluster(&self, traced: bool) -> ClusterSim {
        let nodes = self.procs.div_ceil(self.per_node);
        let members = (0..self.procs)
            .map(|i| GlobalPort::new(i / self.per_node, 1 + (i % self.per_node) as u8))
            .collect();
        let team = Team::new(TeamId::GLOBAL, BarrierGroup::new(members));
        let mut b = ClusterBuilder::new(nodes)
            .config(GmConfig::paper_host(NicModel::LANAI_4_3))
            .extension(BarrierExtension::factory());
        if traced {
            b = b.tracer(Tracer::bounded(1));
        }
        for rank in 0..team.len() {
            let program: Box<dyn HostProgram> = match self.alg {
                Algorithm::Nic(d) => {
                    Box::new(NicBarrierLoop::for_team(&team, rank, d, self.rounds))
                }
                Algorithm::Host(d) => {
                    Box::new(HostBarrierLoop::for_team(&team, rank, d, self.rounds))
                }
            };
            let start = SimTime::from_us(self.skew_us * (rank as u64 % 3));
            b = b.program(team.member(rank), program, start);
        }
        b.build()
    }
}

/// A skip starts at the boundary that proves the period: after the proof
/// at round `from_round + rounds` only the verify period, the margin of
/// one period and one round, and less than one more period run for real.
fn assert_skip_starts_at_the_proof(m: &Measurement, rounds: u64, label: &str) {
    if let (Some(p), Some(ff)) = (m.steady, m.fast_forward) {
        assert!(
            ff.rounds + p.from_round + 3 * p.rounds + 1 >= rounds,
            "{label}: proved at round {}, skipped only {} of {rounds} rounds",
            p.from_round + p.rounds,
            ff.rounds
        );
    }
}

/// Run `case` fast-forwarded and in full, at both levels; the
/// fast-forwarded measurement.
fn check(case: Case) -> Measurement {
    let label = format!("{case:?}");
    let e = case.experiment();
    let got = e.run().unwrap_or_else(|err| panic!("{label}: {err}"));
    let want = e.trace(1).run().expect("reference run");
    assert!(want.fast_forward.is_none(), "{label}: traced run skipped");
    assert_eq!(got.digest(), want.digest(), "{label}");
    assert_eq!(got.steady, want.steady, "{label} reported period");
    assert_skip_starts_at_the_proof(&got, case.rounds, &label);

    let [fast, full] = [false, true].map(|traced| {
        let mut sim = case.cluster(traced);
        sim.run();
        sim
    });
    let digest = |sim: &ClusterSim| sim.world().output_digest(sim.events_fired(), |_, _| {});
    assert_eq!(digest(&fast), digest(&full), "{label} cluster");
    assert_eq!(
        fast.world().fast_forward().is_some(),
        got.fast_forward.is_some(),
        "{label}: the two assemblies disagree on skipping"
    );
    got
}

fn collectives() -> Vec<Descriptor> {
    vec![
        Descriptor::pe(),
        Descriptor::gb(2),
        Descriptor::gb(4),
        Descriptor::dissemination(),
        Descriptor::dissemination_radix(3),
        Descriptor::bcast(2),
        Descriptor::reduce(ReduceOp::Sum, 2),
        Descriptor::allreduce(ReduceOp::Max, 3),
        Descriptor::scan(ReduceOp::Sum),
    ]
}

#[test]
fn every_collective_and_placement_is_exact_under_fast_forward() {
    let mut skipped = 0;
    let mut cases = 0;
    for procs in [2, 3, 8, 16] {
        for desc in collectives() {
            for alg in [Algorithm::Nic(desc), Algorithm::Host(desc)] {
                cases += 1;
                skipped += check(Case::new(alg, procs)).fast_forward.is_some() as usize;
            }
        }
    }
    // Most cells settle into a period well within 400 rounds; a matrix
    // that never skipped would prove nothing.
    assert!(
        skipped * 2 > cases,
        "only {skipped} of {cases} cells fast-forwarded"
    );
}

#[test]
fn packed_skewed_and_pipelined_runs_are_exact_under_fast_forward() {
    let payload = Payload::pipelined(4096, 1024);
    let cases = [
        Case {
            per_node: 2,
            ..Case::new(Algorithm::Nic(Descriptor::pe()), 8)
        },
        Case {
            per_node: 4,
            ..Case::new(Algorithm::Host(Descriptor::gb(2)), 16)
        },
        Case {
            skew_us: 40,
            ..Case::new(Algorithm::Nic(Descriptor::pe()), 16)
        },
        Case {
            skew_us: 25,
            ..Case::new(Algorithm::Host(Descriptor::pe()), 8)
        },
        Case::new(
            Algorithm::Nic(Descriptor::allreduce(ReduceOp::Sum, 2).with_payload(payload)),
            8,
        ),
        Case::new(
            Algorithm::Host(Descriptor::bcast(2).with_payload(payload)),
            8,
        ),
    ];
    for case in cases {
        check(case);
    }
}

/// Cells whose round boundaries fall while a link and the host are still
/// busy (host-PE with skewed starts, a pipelined NIC allreduce) on an
/// oversubscribed Clos with adaptive routing, which ranks past link
/// horizons. At such a boundary the pending deliveries and host events
/// still imply every busy horizon, so it takes the direct test below to
/// fail a digest that drops them.
#[test]
fn boundaries_inside_busy_horizons_are_exact() {
    let clos = FabricSpec::Clos {
        leaves: 4,
        hosts_per_leaf: 4,
        spines: 1,
    };
    let payload = Payload::pipelined(4096, 1024);
    for alg in [
        Algorithm::Host(Descriptor::pe()),
        Algorithm::Nic(Descriptor::allreduce(ReduceOp::Sum, 2).with_payload(payload)),
    ] {
        let label = format!("{alg:?} on a 4:1 Clos");
        let e = BarrierExperiment::new(16, alg)
            .rounds(400, 10)
            .fabric(clos, RoutePolicy::Adaptive)
            .skew(25, 11);
        let got = e.run().unwrap_or_else(|err| panic!("{label}: {err}"));
        let want = e.trace(1).run().expect("reference run");
        assert_eq!(got.digest(), want.digest(), "{label}");
        assert_eq!(got.steady, want.steady, "{label} reported period");
        assert!(got.fast_forward.is_some(), "{label}: nothing skipped");
        assert_skip_starts_at_the_proof(&got, 400, &label);
    }
}

/// Two cells whose round gaps vary from round to round must stay exact
/// whether or not anything is skipped. Radix-3 dissemination at N = 100
/// repeats every 6 rounds: it proves that period from round 46 and skips.
/// Its round-2 speculative base never repeats, so the candidate rule takes
/// its own base there, as it would with no speculative base at all. The
/// 4 KiB d = 4 broadcast at 64 nodes proves none.
#[test]
fn known_non_periodic_cells_stay_exact() {
    let dissemination = Case {
        rounds: 120,
        ..Case::new(Algorithm::Nic(Descriptor::dissemination_radix(3)), 100)
    };
    let m = check(dissemination);
    assert!(m.fast_forward.is_some(), "radix-3 dissemination skips");
    let period = m.steady.expect("radix-3 dissemination is periodic");
    assert_eq!((period.from_round, period.rounds), (46, 6));
    let bcast = Case {
        rounds: 120,
        ..Case::new(
            Algorithm::Nic(Descriptor::bcast(4).with_payload(Payload::for_size(4096))),
            64,
        )
    };
    let m = check(bcast);
    assert!(
        m.fast_forward.is_none(),
        "the 4 KiB broadcast skips nothing"
    );
    assert_eq!(m.steady, None, "the 4 KiB broadcast proves no period");
}

/// NIC dissemination at N = 16 repeats every 16 rounds, but every round's
/// signature equals the one before, so refuted 1-round candidates spend
/// most of the digest budget before the 16-round one forms. The
/// speculative digests may not hold that proof back: from round 33, at
/// 240 rounds (where the budget is tight) as at 1000.
#[test]
fn a_long_period_proves_where_the_candidate_rule_proves_it() {
    for rounds in [240, 1000] {
        let case = Case {
            rounds,
            ..Case::new(Algorithm::Nic(Descriptor::dissemination()), 16)
        };
        let m = check(case);
        let period = m.steady.expect("NIC dissemination at 16 is periodic");
        assert_eq!(
            (period.from_round, period.rounds),
            (33, 16),
            "{rounds} rounds"
        );
        assert!(m.fast_forward.is_some(), "{rounds} rounds: nothing skipped");
    }
}

/// A short run at scale: the state repeats from round 2, so the
/// speculative base there proves the true 2-round period at round 4 and
/// 16 rounds of NIC-PE at 256 nodes on the benchmark's 4:1 Clos skip 8.
#[test]
fn short_nic_pe_run_at_256_nodes_skips_from_its_first_period() {
    let clos = FabricSpec::Clos {
        leaves: 16,
        hosts_per_leaf: 16,
        spines: 4,
    };
    let e = BarrierExperiment::new(256, Algorithm::Nic(Descriptor::pe()))
        .rounds(16, 1)
        .fabric(clos, RoutePolicy::Adaptive);
    let got = e.run().unwrap();
    let period = got.steady.expect("NIC-PE at 256 nodes is periodic");
    assert_eq!((period.from_round, period.rounds), (2, 2));
    let ff = got
        .fast_forward
        .expect("and 16 rounds leave repeats to skip");
    assert!(ff.rounds >= 8, "skipped only {} of 16 rounds", ff.rounds);
    let want = e.trace(1).run().unwrap();
    assert_eq!(got.digest(), want.digest());
    assert_eq!(got.steady, want.steady);
    assert_skip_starts_at_the_proof(&got, 16, "NIC-PE@256, 16 rounds");
}

/// The benchmark's 16-round NIC-PE at 1024 nodes: a digest hashes 28-39k
/// records against about 44k events a round, so the budget pays for
/// about two digests, and they must be the speculative base at round 2
/// and its proof at round 4.
#[test]
fn short_nic_pe_run_at_1024_nodes_proves_with_its_first_two_digests() {
    let e = BarrierExperiment::new(1024, Algorithm::Nic(Descriptor::pe())).rounds(16, 1);
    let got = e.run().unwrap();
    let period = got.steady.expect("NIC-PE at 1024 nodes is periodic");
    assert_eq!((period.from_round, period.rounds), (2, 2));
    let ff = got
        .fast_forward
        .expect("and 16 rounds leave repeats to skip");
    assert_eq!(ff.rounds, 8, "skipped rounds of 16");
    let want = e.trace(1).run().unwrap();
    assert_eq!(got.digest(), want.digest());
    assert_eq!(got.steady, want.steady);
}

/// Short runs whose state repeats only after round 2, where the digest
/// budget pays for a few digests: the speculative base may not cost them
/// the proof the candidate rule finds alone. Its digest is charged with
/// the next one, but that one's admission does not count it (10 rounds of
/// NIC-PE at 6 nodes with skewed starts; the payload study's 8-round
/// 64 KiB allreduce at 64 nodes). A kept base that fails leaves the rule
/// resting until its own base's proof would have been due (40 rounds of
/// NIC-PE at 28 nodes, whose signatures drift between rounds 8 and 15).
#[test]
fn a_speculative_base_never_costs_a_tight_budget_its_proof() {
    let nic = Algorithm::Nic;
    let allreduce = Descriptor::allreduce(ReduceOp::Sum, 2)
        .with_payload(Payload::pipelined(64 * 1024, Payload::DEFAULT_SEG_BYTES));
    for (label, e, want) in [
        (
            "NIC-PE@6, 10 rounds, skewed",
            BarrierExperiment::new(6, nic(Descriptor::pe()))
                .rounds(10, 2)
                .skew(5, 0),
            (4, 1),
        ),
        (
            "64 KiB allreduce@64, 8 rounds",
            BarrierExperiment::new(64, nic(allreduce)).rounds(8, 2),
            (4, 1),
        ),
        (
            "NIC-PE@28, 40 rounds",
            BarrierExperiment::new(28, nic(Descriptor::pe())).rounds(40, 5),
            (16, 2),
        ),
    ] {
        let got = e.run().unwrap();
        let period = got.steady.unwrap_or_else(|| panic!("{label}: no period"));
        assert_eq!((period.from_round, period.rounds), want, "{label}");
        assert!(got.fast_forward.is_some(), "{label}: nothing skipped");
        let full = e.trace(1).run().unwrap();
        assert_eq!(got.digest(), full.digest(), "{label}");
    }
}

/// Random teams run one NIC loop per node holding every team's job there.
/// Without background traffic such a run proves its period and skips like
/// a whole-cluster one: a proof means every job moved by the same rounds.
#[test]
fn random_team_runs_report_their_period_and_stay_exact() {
    for (label, count, min, max) in [
        ("one team of every node", 1, 16, 16),
        // Two teams of 10–12 of 16 nodes share at least 4 NICs.
        ("two overlapping teams", 2, 10, 12),
    ] {
        let e = BarrierExperiment::new(16, Algorithm::Nic(Descriptor::pe()))
            .team(TeamSet::Random { count, min, max })
            .rounds(400, 10);
        let got = e.run().unwrap();
        let want = e.trace(1).run().unwrap();
        assert!(got.steady.is_some(), "{label}: no period");
        assert!(got.fast_forward.is_some(), "{label}: nothing skipped");
        assert_eq!(got.digest(), want.digest(), "{label}");
        assert_eq!(got.steady, want.steady, "{label}");
        assert_skip_starts_at_the_proof(&got, 400, label);
    }
}

#[test]
fn nic_pe_at_16_reports_its_period_and_skips() {
    let m = BarrierExperiment::new(16, Algorithm::Nic(Descriptor::pe()))
        .rounds(1000, 20)
        .run()
        .unwrap();
    let period = m.steady.expect("NIC-PE at 16 nodes is periodic");
    assert!(period.rounds >= 1 && period.us > 0.0);
    let ff = m.fast_forward.expect("and its repeats are skipped");
    assert!(ff.rounds > 500, "skipped only {} of 1000 rounds", ff.rounds);
    assert_eq!(ff.rounds, ff.periods * period.rounds);
    // Every skipped round is one period's worth of exactly equal gaps.
    assert_eq!(m.per_round.min().to_bits(), m.per_round.max().to_bits());
    assert!((period.us / period.rounds as f64 - m.mean_us).abs() < 1e-9);
}

/// Every cell of the benchmark's `paper_testbed` grid skips, and from the
/// boundary that proves its period.
#[test]
fn paper_testbed_cells_skip_from_their_proof() {
    let (l43, l72) = (NicModel::LANAI_4_3, NicModel::LANAI_7_2);
    let (nic, host) = (Algorithm::Nic, Algorithm::Host);
    for (alg, procs, model) in [
        (nic(Descriptor::pe()), 16, l43),
        (host(Descriptor::pe()), 16, l43),
        (nic(Descriptor::gb(4)), 16, l43),
        (host(Descriptor::gb(4)), 16, l43),
        (nic(Descriptor::pe()), 8, l43),
        (host(Descriptor::pe()), 8, l43),
        (nic(Descriptor::pe()), 8, l72),
        (host(Descriptor::pe()), 8, l72),
    ] {
        let label = format!("{}@{procs} {}", alg.name(), model.name);
        let m = BarrierExperiment::new(procs, alg)
            .nic(model)
            .rounds(1000, 20)
            .run()
            .unwrap();
        assert!(m.fast_forward.is_some(), "{label} no longer skips");
        assert_skip_starts_at_the_proof(&m, 1000, &label);
    }
}

/// The walk exports every [`Counter`] but the two that aggregate other
/// than by sum: the distinct team count and the concurrency peak.
#[test]
fn the_walk_exports_every_summed_counter() {
    let mut sim = pe4(SimTime::ZERO);
    sim.run();
    let mut seen = BTreeSet::new();
    sim.world().counters(|id, _| {
        seen.extend(id);
    });
    let summed: BTreeSet<Counter> = Counter::ALL
        .into_iter()
        .filter(|c| !matches!(c, Counter::TeamsCreated | Counter::ConcurrentPeak))
        .collect();
    assert_eq!(seen, summed);
}

/// Fault injection never repeats, and the partitioned parallel engine
/// never fast-forwards: neither may claim a period. The parallel run is a
/// full simulation, so it also checks the serial skip once more.
#[test]
fn no_period_is_claimed_under_faults_or_on_the_parallel_engine() {
    let e = BarrierExperiment::new(32, Algorithm::Nic(Descriptor::pe())).rounds(400, 10);
    let lossy = e.faults(FaultPlan::drops(1e-3)).run().unwrap();
    assert!(lossy.steady.is_none() && lossy.fast_forward.is_none());
    let serial = e.run().unwrap();
    let parallel = e.parallel(2).run().unwrap();
    assert!(serial.fast_forward.is_some(), "the serial run skips");
    assert!(parallel.steady.is_none() && parallel.fast_forward.is_none());
    assert_eq!(serial.digest(), parallel.digest(), "serial vs parallel(2)");
}

/// The paper averages 100 000 consecutive barriers (§6). Fast-forward
/// makes that affordable: every gap must be equal and the mean must be
/// the 1000-round run's.
#[test]
fn paper_length_nic_pe_run_matches_the_short_run() {
    let run = |rounds| {
        BarrierExperiment::new(16, Algorithm::Nic(Descriptor::pe()))
            .nic(NicModel::LANAI_4_3)
            .rounds(rounds, 20)
            .run()
            .unwrap()
    };
    let long = run(100_000);
    let short = run(1000);
    assert_eq!(long.per_round.count(), 100_000 - 21);
    assert_eq!(
        long.per_round.min().to_bits(),
        long.per_round.max().to_bits(),
        "every gap of the 100 000-round run is equal"
    );
    assert!(
        (long.mean_us - short.mean_us).abs() < 1e-9 * short.mean_us,
        "100 000 rounds: {} us, 1000 rounds: {} us",
        long.mean_us,
        short.mean_us
    );
    assert!(long.fast_forward.expect("skipped").rounds > 99_000);
}

/// A 4-node NIC-PE cluster whose programs all start at `start`.
fn pe4(start: SimTime) -> ClusterSim {
    let group = BarrierGroup::one_per_node(4, 1);
    let mut b = ClusterBuilder::new(4)
        .config(GmConfig::paper_host(NicModel::LANAI_4_3))
        .extension(BarrierExtension::factory());
    for rank in 0..4 {
        let program = NicBarrierLoop::new(group.clone(), rank, Descriptor::pe(), 400);
        b = b.program(group.member(rank), Box::new(program), start);
    }
    b.build()
}

/// Run until node 0 (the first to note a round) has noted `round + 1`
/// rounds: the state right after that boundary.
fn to_round(sim: &mut ClusterSim, round: usize) {
    sim.run_while(|cl| cl.notes.iter().filter(|n| n.node() == NodeId(0)).count() <= round);
}

#[test]
fn digest_is_invariant_under_a_start_delay() {
    let mut early = pe4(SimTime::ZERO);
    let mut late = pe4(SimTime::from_ms(1));
    to_round(&mut early, 12);
    to_round(&mut late, 12);
    assert_eq!(early.now() + SimTime::from_ms(1), late.now());
    let d = state_digest(&early).expect("hashable");
    assert_eq!(Some(d), state_digest(&late));
    // One event later the state has moved on.
    let mut next = pe4(SimTime::ZERO);
    to_round(&mut next, 12);
    next.step();
    assert_ne!(Some(d), state_digest(&next));
    // One round later it is back: with the idle RTO timers cancelled, the
    // state at a boundary repeats every round.
    to_round(&mut early, 13);
    assert_eq!(Some(d), state_digest(&early));
}

#[test]
fn digest_sees_a_one_tick_change_to_a_pending_event() {
    let with_timer = |delay_ns: u64| {
        let mut sim = pe4(SimTime::ZERO);
        to_round(&mut sim, 12);
        let at = sim.now() + SimTime::from_ns(delay_ns);
        sim.scheduler_mut().schedule(
            at,
            ClusterEvent::McpTimer {
                node: NodeId(2),
                kind: TimerKind::Rto { peer: NodeId(3) },
            },
        );
        state_digest(&sim).expect("hashable")
    };
    assert_eq!(with_timer(5_000), with_timer(5_000));
    assert_ne!(with_timer(5_000), with_timer(5_001));
}

#[test]
fn digest_sees_a_busy_host_or_link() {
    // The host of node 2 busy `host_ns` more, and a worm of `bytes` from
    // node 1 to node 3 on the wire, both with no pending event for them.
    let busy = |host_ns: u64, bytes: usize| {
        let mut sim = pe4(SimTime::ZERO);
        to_round(&mut sim, 12);
        let now = sim.now();
        let cl = sim.world_mut();
        cl.nodes[2].host.reserve(SimTime::from_ns(host_ns), now);
        if bytes > 0 {
            cl.fabric.send(NodeId(1).nic(), NodeId(3).nic(), bytes, now);
        }
        state_digest(&sim).expect("hashable")
    };
    assert_eq!(busy(5_000, 0), busy(5_000, 0));
    assert_ne!(busy(5_000, 0), busy(5_001, 0), "host horizon");
    assert_ne!(busy(0, 4_096), busy(0, 4_097), "link horizons");
}
