//! The paper's figures and in-text numbers, and the ungated extension
//! tables: each prints its table and writes no artifact.

use gmsim_des::{Counter, SimTime};
use gmsim_gm::cluster::{ClusterBuilder, ClusterSim};
use gmsim_gm::config::CollectiveWireMode;
use gmsim_gm::{GmConfig, HostProgram};
use gmsim_lanai::NicModel;
use gmsim_testbed::table::{factor, us};
use gmsim_testbed::{
    best_gb_dim, run_all, Algorithm, BarrierExperiment, Descriptor, FuzzyExperiment, Placement,
    Table,
};
use nic_barrier::programs::NicBarrierLoop;
use nic_barrier::{
    BarrierCosts, BarrierExtension, BarrierGroup, CostModel, HostBarrierLoop, ReduceOp,
};

use crate::{measure, run, Ctx, StudyError};

/// One node count of Figure 5: NIC-PE and host-PE latency, then the best
/// NIC-GB and host-GB tree dimension with its latency; latencies in µs.
type Fig5Point = (f64, f64, (usize, f64), (usize, f64));

fn fig5_point(nic: NicModel, n: usize) -> Result<Fig5Point, StudyError> {
    let pe = |side: fn(Descriptor) -> Algorithm| {
        measure(BarrierExperiment::new(n, side(Descriptor::Pe)).nic(nic))
    };
    let gb = |side: fn(Descriptor) -> Algorithm| {
        let (d, m) = best_gb_dim(BarrierExperiment::new(n, side(Descriptor::gb(1))).nic(nic));
        (d, m.mean_us)
    };
    let (nic_pe, host_pe) = (pe(Algorithm::Nic)?, pe(Algorithm::Host)?);
    Ok((nic_pe, host_pe, gb(Algorithm::Nic), gb(Algorithm::Host)))
}

/// The four curves of Figure 5(a)/(c): barrier latency vs nodes.
pub fn fig5_latency(nic: NicModel, sizes: &[usize]) -> Result<(), StudyError> {
    let mut t = Table::new(vec![
        "nodes",
        "NIC-PE (us)",
        "NIC-GB best (us)",
        "host-PE (us)",
        "host-GB best (us)",
    ]);
    for &n in sizes {
        let (nic_pe, host_pe, (nd, ngb), (hd, hgb)) = fig5_point(nic, n)?;
        t.row(vec![
            n.to_string(),
            us(nic_pe),
            format!("{} (d={nd})", us(ngb)),
            us(host_pe),
            format!("{} (d={hd})", us(hgb)),
        ]);
    }
    print!("{}", t.render());
    Ok(())
}

/// Figure 5(b)/(d): factor of improvement vs nodes.
pub fn fig5_improvement(nic: NicModel, sizes: &[usize]) -> Result<(), StudyError> {
    let mut t = Table::new(vec!["nodes", "PE factor", "GB factor"]);
    for &n in sizes {
        let (nic_pe, host_pe, (_, ngb), (_, hgb)) = fig5_point(nic, n)?;
        t.row(vec![
            n.to_string(),
            factor(host_pe / nic_pe),
            factor(hgb / ngb),
        ]);
    }
    print!("{}", t.render());
    Ok(())
}

/// Figure 2 / Equations 1–3: analytic component model vs simulation.
pub fn fig2(_: &mut Ctx) -> Result<(), StudyError> {
    // The paper's Figure 2 timing diagrams (8-node example), from the model.
    let m = CostModel::from_config(&GmConfig::paper_host(NicModel::LANAI_4_3));
    print!("{}", gmsim_testbed::Diagram::host_barrier(&m, 8).render(96));
    print!("{}", gmsim_testbed::Diagram::nic_barrier(&m, 8).render(96));
    let mut t = Table::new(vec![
        "nic",
        "nodes",
        "Eq1 host (us)",
        "sim host (us)",
        "Eq2 nic (us)",
        "sim nic (us)",
        "Eq3 factor",
        "sim factor",
    ]);
    for nic in [NicModel::LANAI_4_3, NicModel::LANAI_7_2] {
        let m = CostModel::from_config(&GmConfig::paper_host(nic));
        println!(
            "{}: Send={} SDMA={} Network={} Recv={} RDMA={} HRecv={} (us)",
            nic.name,
            us(m.send_us),
            us(m.sdma_us),
            us(m.network_us),
            us(m.recv_us),
            us(m.rdma_us),
            us(m.hrecv_us)
        );
        for n in [2usize, 4, 8, 16] {
            if nic == NicModel::LANAI_7_2 && n == 16 {
                continue; // the paper has only eight 7.2 cards
            }
            let pe = |side: fn(Descriptor) -> Algorithm| {
                measure(BarrierExperiment::new(n, side(Descriptor::Pe)).nic(nic))
            };
            let (sim_host, sim_nic) = (pe(Algorithm::Host)?, pe(Algorithm::Nic)?);
            t.row(vec![
                nic.name.to_string(),
                n.to_string(),
                us(m.host_barrier_us(n)),
                us(sim_host),
                us(m.nic_barrier_us(n)),
                us(sim_nic),
                factor(m.improvement(n)),
                factor(sim_host / sim_nic),
            ]);
        }
    }
    print!("{}", t.render());
    Ok(())
}

/// §6 ¶2: the GB tree-dimension sweep behind "the latencies reported in the
/// graphs are the minimum latencies over all dimensions".
pub fn gbdim(_: &mut Ctx) -> Result<(), StudyError> {
    for n in [4usize, 8, 16] {
        let dims = |side: fn(Descriptor) -> Algorithm| {
            let exps: Vec<_> = (1..n)
                .map(|d| BarrierExperiment::new(n, side(Descriptor::gb(d))))
                .collect();
            run_all(&exps)
        };
        let (nic, host) = (dims(Algorithm::Nic), dims(Algorithm::Host));
        let mut t = Table::new(vec!["dim", "NIC-GB (us)", "host-GB (us)"]);
        for (d, (nic, host)) in (1..n).zip(nic.iter().zip(&host)) {
            t.row(vec![d.to_string(), us(nic.mean_us), us(host.mean_us)]);
        }
        println!("-- {n} nodes --");
        print!("{}", t.render());
    }
    Ok(())
}

/// The in-text headline numbers (§1/§6) against our measurements.
pub fn headline(_: &mut Ctx) -> Result<(), StudyError> {
    let (nic16, host16, (_, ngb16), (_, hgb16)) = fig5_point(NicModel::LANAI_4_3, 16)?;
    let (nic8, host8, ..) = fig5_point(NicModel::LANAI_4_3, 8)?;
    let (nic8_72, host8_72, ..) = fig5_point(NicModel::LANAI_7_2, 8)?;
    let mut t = Table::new(vec!["metric", "paper", "measured", "error"]);
    // (metric, paper, measured, is a factor of improvement)
    for (name, paper, got, is_factor) in [
        ("NIC-PE 16n LANai4.3 (us)", 102.14, nic16, false),
        ("NIC-GB 16n LANai4.3 (us)", 152.27, ngb16, false),
        ("PE improvement 16n L4.3", 1.78, host16 / nic16, true),
        ("GB improvement 16n L4.3", 1.46, hgb16 / ngb16, true),
        ("PE improvement 8n L4.3", 1.66, host8 / nic8, true),
        ("NIC-PE 8n LANai7.2 (us)", 49.25, nic8_72, false),
        ("host-PE 8n LANai7.2 (us)", 90.24, host8_72, false),
        ("PE improvement 8n L7.2", 1.83, host8_72 / nic8_72, true),
    ] {
        let fmt = if is_factor { factor } else { us };
        let err = (got - paper) / paper * 100.0;
        t.row(vec![
            name.to_string(),
            fmt(paper),
            fmt(got),
            format!("{err:+.1}%"),
        ]);
    }
    print!("{}", t.render());
    Ok(())
}

/// §2.2's layering prediction: "as the host send overhead increases, say
/// from the addition of another programming layer such as MPI, the factor
/// of improvement will increase".
pub fn layer(_: &mut Ctx) -> Result<(), StudyError> {
    let mut t = Table::new(vec![
        "layer factor",
        "host-PE (us)",
        "NIC-PE (us)",
        "improvement",
    ]);
    for mult in [1.0f64, 1.5, 2.0, 3.0, 4.0] {
        let host =
            measure(BarrierExperiment::new(16, Algorithm::Host(Descriptor::Pe)).layer(mult))?;
        let nic = measure(BarrierExperiment::new(16, Algorithm::Nic(Descriptor::Pe)).layer(mult))?;
        t.row(vec![
            format!("{mult:.1}x"),
            us(host),
            us(nic),
            factor(host / nic),
        ]);
    }
    print!("{}", t.render());
    Ok(())
}

/// §2.1's fuzzy barrier: computation hidden inside the NIC barrier.
pub fn fuzzy(_: &mut Ctx) -> Result<(), StudyError> {
    let mut t = Table::new(vec![
        "compute (us)",
        "blocking period (us)",
        "fuzzy period (us)",
        "hidden (us)",
    ]);
    for compute in [0u64, 20, 40, 60, 80, 120] {
        let blocking = FuzzyExperiment::new(8, compute, false).run().mean_us;
        let fuzzy = FuzzyExperiment::new(8, compute, true).run().mean_us;
        t.row(vec![
            compute.to_string(),
            us(blocking),
            us(fuzzy),
            us(blocking - fuzzy),
        ]);
    }
    print!("{}", t.render());
    Ok(())
}

/// Run `program(group, rank)` on every node of an `n`-node LANai 4.3
/// cluster with the barrier firmware loaded, until the cluster drains;
/// `trace` keeps that many wire-event records.
fn run_cluster(
    n: usize,
    trace: Option<usize>,
    program: impl Fn(&BarrierGroup, usize) -> Box<dyn HostProgram>,
) -> ClusterSim {
    let group = BarrierGroup::one_per_node(n, 1);
    let mut b = ClusterBuilder::new(n)
        .config(GmConfig::paper_host(NicModel::LANAI_4_3))
        .extension(BarrierExtension::factory());
    if let Some(capacity) = trace {
        b = b.trace(capacity);
    }
    for rank in 0..n {
        b = b.program(group.member(rank), program(&group, rank), SimTime::ZERO);
    }
    let mut sim = b.build();
    sim.run();
    sim
}

/// §8 / CAC'01 follow-up: MPI_Barrier bound to the NIC-based vs host-based
/// barrier under an MPI-like layer, raw barrier latency and a BSP app.
pub fn mpi(_: &mut Ctx) -> Result<(), StudyError> {
    use gmsim_mpi::{script, MpiConfig, MpiProcess, NOTE_MPI_DONE};

    let run = |n: usize, config: MpiConfig, barriers: u64| -> Result<f64, StudyError> {
        let sim = run_cluster(n, None, |group, rank| {
            let script = script().repeat(barriers, |s| s.barrier()).build();
            Box::new(MpiProcess::new(group.clone(), rank, config, script))
        });
        let notes = &sim.world().notes;
        let done = notes.iter().filter(|nt| nt.tag == NOTE_MPI_DONE);
        let last = done.map(|nt| nt.at).max().ok_or_else(|| {
            StudyError(format!(
                "cell n={n} MPI_Barrier: no rank finished its script"
            ))
        })?;
        Ok(last.as_us_f64() / barriers as f64)
    };
    let mut t = Table::new(vec![
        "nodes",
        "MPI host-based (us)",
        "MPI NIC-based (us)",
        "factor",
        "raw-GM factor",
    ]);
    for n in [2usize, 4, 8, 16] {
        let host = run(n, MpiConfig::host_based(), 60)?;
        let nic = run(n, MpiConfig::nic_based(), 60)?;
        let raw_host = measure(BarrierExperiment::new(n, Algorithm::Host(Descriptor::Pe)))?;
        let raw_nic = measure(BarrierExperiment::new(n, Algorithm::Nic(Descriptor::Pe)))?;
        t.row(vec![
            n.to_string(),
            us(host),
            us(nic),
            factor(host / nic),
            factor(raw_host / raw_nic),
        ]);
    }
    print!("{}", t.render());
    println!("(the MPI factor exceeding the raw-GM factor is the paper's §2.2/§8 prediction)");
    Ok(())
}

/// §1's host-utilization claim: "Because the barrier algorithm is
/// performed at the NIC, the processor is free to perform computation
/// while polling for the barrier to complete."
pub fn util(_: &mut Ctx) -> Result<(), StudyError> {
    const ROUNDS: u64 = 120;
    let mut t = Table::new(vec![
        "implementation",
        "host busy (us/barrier)",
        "period (us)",
        "host free",
    ]);
    // Run a barrier stream and report how much host time each barrier
    // costs (the rest is available to the application).
    for (name, nic_based) in [("NIC-based PE", true), ("host-based PE", false)] {
        let sim = run_cluster(16, None, |group, rank| -> Box<dyn HostProgram> {
            if nic_based {
                Box::new(NicBarrierLoop::new(
                    group.clone(),
                    rank,
                    Descriptor::Pe,
                    ROUNDS,
                ))
            } else {
                Box::new(HostBarrierLoop::new(group, rank, Descriptor::Pe, ROUNDS))
            }
        });
        let cl = sim.world();
        let end = cl
            .notes
            .iter()
            .map(|nt| nt.at)
            .max()
            .unwrap_or(SimTime::ZERO);
        // Host busy time on node 0: send initiations + event processing.
        let cfg = cl.config();
        let h = &cl.nodes[0].host.stats;
        let busy = (h.sends as f64 * cfg.host_send_overhead.as_us_f64()
            + h.events as f64 * cfg.host_recv_overhead.as_us_f64()
            + h.compute.as_us_f64())
            / ROUNDS as f64;
        let period = end.as_us_f64() / ROUNDS as f64;
        t.row(vec![
            name.to_string(),
            us(busy),
            us(period),
            format!("{:.0}%", (1.0 - busy / period) * 100.0),
        ]);
    }
    print!("{}", t.render());
    println!("(the freed host time is what the fuzzy barrier converts into computation)");
    Ok(())
}

/// Extension beyond the paper: dissemination barrier vs PE, NIC- and
/// host-based. Dissemination's send/receive peers differ per round, so it
/// pays one extra half-round of skew tolerance but no fold steps at
/// non-powers of two.
pub fn dissem(_: &mut Ctx) -> Result<(), StudyError> {
    let mut t = Table::new(vec![
        "procs",
        "NIC-PE (us)",
        "NIC-dissem (us)",
        "host-PE (us)",
        "host-dissem (us)",
    ]);
    for n in [2usize, 3, 4, 6, 8, 12, 16] {
        let mut cells = vec![n.to_string()];
        for alg in [
            Algorithm::Nic(Descriptor::Pe),
            Algorithm::Nic(Descriptor::dissemination()),
            Algorithm::Host(Descriptor::Pe),
            Algorithm::Host(Descriptor::dissemination()),
        ] {
            cells.push(us(measure(BarrierExperiment::new(n, alg))?));
        }
        t.row(cells);
    }
    print!("{}", t.render());
    println!("(at non-powers of two dissemination avoids PE's fold steps)");
    Ok(())
}

/// Extension beyond the paper: NIC-offloaded inclusive prefix scan
/// (Hillis–Steele) through the same compiled-schedule path, vs the
/// host-based interpretation of the identical IR and the plain barrier.
pub fn scan(_: &mut Ctx) -> Result<(), StudyError> {
    let mut t = Table::new(vec![
        "procs",
        "NIC-scan (us)",
        "host-scan (us)",
        "factor",
        "NIC-PE barrier (us)",
    ]);
    let op = ReduceOp::Sum;
    for n in [2usize, 3, 4, 6, 8, 12, 16] {
        let [nic, host, pe] = [
            Algorithm::Nic(Descriptor::scan(op)),
            Algorithm::Host(Descriptor::scan(op)),
            Algorithm::Nic(Descriptor::Pe),
        ]
        .map(|alg| measure(BarrierExperiment::new(n, alg)));
        let (nic, host) = (nic?, host?);
        t.row(vec![
            n.to_string(),
            us(nic),
            us(host),
            factor(host / nic),
            us(pe?),
        ]);
    }
    print!("{}", t.render());
    println!("(scan shares PE's exchange structure, so its latency tracks the barrier)");
    Ok(())
}

/// Ablations of the §3 design choices.
pub fn ablate(_: &mut Ctx) -> Result<(), StudyError> {
    use CollectiveWireMode::{Reliable, Unreliable};
    let pe16 = BarrierExperiment::new(16, Algorithm::Nic(Descriptor::Pe));
    let packed = pe16.placement(Placement::Packed { procs_per_node: 2 });
    let mut slow = BarrierCosts::GM_1_2_3;
    slow.record_cycles *= 4;
    let mut t = Table::new(vec!["config", "NIC-PE, 16 processes (us)"]);
    for (name, e) in [
        // Reliability: the paper's unreliable prototype vs the integrated
        // reliable stream (§3.3/4.4).
        (
            "reliable barrier packets (adopted design)",
            pe16.wire(Reliable),
        ),
        (
            "unreliable (paper's measured prototype)",
            pe16.wire(Unreliable),
        ),
        // §3.4 same-NIC optimization, processes packed 2 per node.
        (
            "8 nodes, same-NIC flag optimization ON",
            packed.same_nic_opt(true),
        ),
        (
            "8 nodes, OFF (loopback packets)",
            packed.same_nic_opt(false),
        ),
        // Unexpected-record cost sensitivity: a 4x more expensive record
        // (e.g. a hash probe instead of the paper's bit test).
        ("bit-array record (paper, O(1))", pe16),
        ("4x record cost", pe16.costs(slow)),
    ] {
        t.row(vec![name.to_string(), us(measure(e)?)]);
    }
    print!("{}", t.render());
    Ok(())
}

/// `breakdown`: the paper's host-vs-NIC cost decomposition (§2.2, Figure 2,
/// Equations 1–2) next to what the simulator measures, for PE and GB at
/// N ∈ {8, 16}. The per-phase terms show *where* the NIC-based barrier
/// wins: every intermediate round drops Send/SDMA/RDMA/HostRecv.
pub fn breakdown(_: &mut Ctx) -> Result<(), StudyError> {
    let cfg = GmConfig::paper_host(NicModel::LANAI_4_3);
    let m = CostModel::from_config(&cfg);
    let mut t = Table::new(vec!["phase", "host pays", "NIC pays", "cost (us)"]);
    for (phase, host, nic, cost) in [
        ("HostSend (gm_send)", "every round", "once", m.send_us),
        ("SDMA (token fetch)", "every round", "once", m.sdma_us),
        ("Wire", "every round", "every round", m.network_us),
        ("NIC recv", "every round", "every round", m.nic_recv_us),
        ("NIC fwd step", "-", "every round", m.nic_step_us),
        ("RDMA (event DMA)", "every round", "once", m.rdma_us),
        ("HostRecv (poll)", "every round", "once", m.hrecv_us),
    ] {
        t.row(vec![
            phase.to_string(),
            host.to_string(),
            nic.to_string(),
            us(cost),
        ]);
    }
    print!("{}", t.render());

    let mut t = Table::new(vec![
        "N",
        "algorithm",
        "model (us)",
        "measured (us)",
        "fw cycles/barrier",
        "turnaround mean (us)",
        "turnaround p95 (us)",
    ]);
    let turnaround = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.2}"));
    for n in [8usize, 16] {
        // (algorithm, model, firmware cycles per barrier, measurement)
        let mut rows = Vec::new();
        for (alg, model_us) in [
            (Algorithm::Host(Descriptor::Pe), m.host_barrier_us(n)),
            (Algorithm::Nic(Descriptor::Pe), m.nic_barrier_us(n)),
        ] {
            let meas = run(&BarrierExperiment::new(n, alg))?;
            // Firmware cycles per completed barrier, NIC-interpreted runs
            // only (host runs drive no extension, so the per-barrier share
            // would be the whole run's GM bookkeeping).
            let fw = if alg.is_nic() {
                let barriers = meas.metrics.get(Counter::BarrierCompletions).max(1);
                let cycles = meas.metrics.get(Counter::FirmwareCycles) as f64;
                format!("{:.0}", cycles / barriers as f64)
            } else {
                "-".to_string()
            };
            rows.push((alg.name(), us(model_us), fw, meas));
        }
        for (side, alg) in [
            ("host", Algorithm::Host(Descriptor::gb(1))),
            ("NIC", Algorithm::Nic(Descriptor::gb(1))),
        ] {
            let (dim, meas) = best_gb_dim(BarrierExperiment::new(n, alg));
            rows.push((
                format!("{side}-GB best d={dim}"),
                "-".into(),
                "-".into(),
                meas,
            ));
        }
        for (name, model, fw, meas) in rows {
            t.row(vec![
                n.to_string(),
                name,
                model,
                us(meas.mean_us),
                fw,
                turnaround(meas.nic_turnaround.mean()),
                turnaround(meas.nic_turnaround.quantile(0.95)),
            ]);
        }
    }
    print!("{}", t.render());
    println!(
        "(Eq.1 charges the host column's phases in all {{2,..}}ceil(log2 N) rounds; \
         Eq.2 pays host phases once and NIC recv+fwd per round)"
    );
    Ok(())
}

/// Diagnostic: the measured wire-event interleaving of one 4-node
/// NIC-based PE barrier (every packet send and reception, in virtual-time
/// order). Not a paper figure; it shows the §5.2 firmware chaining live.
pub fn trace(_: &mut Ctx) -> Result<(), StudyError> {
    let sim = run_cluster(4, Some(4096), |group, rank| {
        Box::new(NicBarrierLoop::new(group.clone(), rank, Descriptor::Pe, 1))
    });
    let cl = sim.world();
    for rec in cl.tracer.snapshot() {
        println!("  {rec}");
    }
    for note in &cl.notes {
        println!(
            "  [{:>12}] host{}: barrier complete",
            note.at.as_ns(),
            note.node.0
        );
    }
    Ok(())
}
