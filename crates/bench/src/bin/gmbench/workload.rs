//! The five fixed workloads. Each stresses a different set of layers; the
//! `why` strings are the ones `BENCHMARK.json` records.

use crate::cell::Cell;
use gmsim_gm::{GmConfig, Payload, ReduceOp};
use gmsim_lanai::NicModel;
use gmsim_myrinet::{FabricSpec, FaultPlan, RoutePolicy};
use nic_barrier::advisor::{recommend, Placement, Scenario};
use nic_barrier::{CostModel, Descriptor};

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "paper_testbed",
        why: "the paper's 8- and 16-node grid on one crossbar: per-event cost of the NIC extension, host programs and MCP; source of paper_err_pct",
    },
    Workload {
        name: "scale_clos",
        why: "1024 nodes on a two-level Clos and a three-level k=16 fat tree: set-up, memory and teardown dominate; the Clos NIC-PE cell is re-run under parallel(2)",
    },
    Workload {
        name: "allreduce_lossy",
        why: "64-node 64 KiB NIC allreduce with 1e-3 drops: real bytes through SDMA/RDMA, segment pipelining and go-back-N retransmission; --seed picks the drops",
    },
    Workload {
        name: "oversub_clos256",
        why: "256 nodes on a 4:1 oversubscribed Clos with adaptive routing: multi-hop fabric walk under contention, which the 1-hop crossbar bypasses",
    },
    Workload {
        name: "advisor_grid",
        why: "advisor::recommend over a 117-scenario grid: only the analytic layer works, which the simulation workloads barely touch",
    },
];

/// A 4:1 oversubscribed two-level Clos: 16 leaves of 16 hosts, 4 spines.
const CLOS_4TO1: FabricSpec = FabricSpec::Clos {
    leaves: 16,
    hosts_per_leaf: 16,
    spines: 4,
};

/// What one repetition of a workload runs.
pub struct Plan {
    /// Simulated serially, in order, every repetition.
    pub cells: Vec<Cell>,
    /// Scenarios `advisor::recommend` ranks, `passes` times per repetition
    /// (empty for the simulation workloads).
    pub grid: Vec<(NicModel, Scenario)>,
    pub passes: usize,
    /// The cell re-run under `parallel(2)` for the PDES check and speedup.
    pub par_cell: usize,
}

/// The cost model the advisor and the model-error column use for `nic`.
pub fn model(nic: NicModel) -> CostModel {
    CostModel::from_config(&GmConfig::paper_host(nic))
}

/// The plan for workload `name`, or `None` for an unknown name. `smoke`
/// cuts rounds and passes so all five workloads finish in seconds.
pub fn plan(name: &str, seed: u64, smoke: bool) -> Option<Plan> {
    let cut = |rounds: u64| if smoke { (rounds / 20).max(4) } else { rounds };
    let sim = |cells: Vec<Cell>, par_cell| Plan {
        cells,
        grid: Vec::new(),
        passes: 0,
        par_cell,
    };
    Some(match name {
        "paper_testbed" => {
            let rounds = cut(1000);
            let l72 = |c: Cell| Cell {
                nic: NicModel::LANAI_7_2,
                ..c
            };
            sim(
                vec![
                    Cell::new(Placement::Nic, Descriptor::pe(), 16, rounds),
                    Cell::new(Placement::Host, Descriptor::pe(), 16, rounds),
                    Cell::new(Placement::Nic, Descriptor::gb(4), 16, rounds),
                    Cell::new(Placement::Host, Descriptor::gb(4), 16, rounds),
                    Cell::new(Placement::Nic, Descriptor::pe(), 8, rounds),
                    Cell::new(Placement::Host, Descriptor::pe(), 8, rounds),
                    l72(Cell::new(Placement::Nic, Descriptor::pe(), 8, rounds)),
                    l72(Cell::new(Placement::Host, Descriptor::pe(), 8, rounds)),
                ],
                0,
            )
        }
        "scale_clos" => sim(
            vec![
                Cell::new(Placement::Nic, Descriptor::pe(), 1024, cut(16)),
                Cell::new(Placement::Host, Descriptor::pe(), 1024, cut(8)),
                Cell {
                    fabric: FabricSpec::FatTree { k: 16 },
                    ..Cell::new(Placement::Nic, Descriptor::pe(), 1024, cut(16))
                },
            ],
            0,
        ),
        "allreduce_lossy" => {
            let desc = Descriptor::allreduce(ReduceOp::Sum, 2)
                .with_payload(Payload::pipelined(64 * 1024, Payload::DEFAULT_SEG_BYTES));
            let cell = Cell {
                faults: FaultPlan::drops(1e-3),
                seed,
                send_tokens: Some(64),
                ..Cell::new(Placement::Nic, desc, 64, cut(150))
            };
            sim(vec![cell], 0)
        }
        "oversub_clos256" => {
            let on_clos = |c: Cell| Cell {
                fabric: CLOS_4TO1,
                routing: RoutePolicy::Adaptive,
                ..c
            };
            sim(
                vec![
                    on_clos(Cell::new(Placement::Nic, Descriptor::pe(), 256, cut(100))),
                    on_clos(Cell::new(Placement::Host, Descriptor::pe(), 256, cut(100))),
                    on_clos(Cell::new(Placement::Nic, Descriptor::gb(8), 256, cut(100))),
                ],
                0,
            )
        }
        "advisor_grid" => {
            let grid = advisor_grid();
            // Simulate the advisor's own picks at paper scale, so its
            // predictions are checked against the simulator every run.
            let cells = [8, 16]
                .map(|n| {
                    let best =
                        *recommend(&model(NicModel::LANAI_4_3), &Scenario::barrier(n)).best();
                    Cell::new(best.placement, best.descriptor, n, cut(1000))
                })
                .to_vec();
            Plan {
                cells,
                grid,
                passes: if smoke { 1 } else { 50 },
                par_cell: 1,
            }
        }
        _ => return None,
    })
}

/// N ∈ {8…4096} × payload {0, 4 KiB, 64 KiB} × drop rate {0, 1e-3, 1e-2} ×
/// {auto fabric, 4:1 Clos adaptive, fat tree k = 8}, skipping fabrics too
/// small for N.
fn advisor_grid() -> Vec<(NicModel, Scenario)> {
    let fabrics = [
        (FabricSpec::Auto, RoutePolicy::Dispersed),
        (CLOS_4TO1, RoutePolicy::Adaptive),
        (FabricSpec::FatTree { k: 8 }, RoutePolicy::Dispersed),
    ];
    let mut grid = Vec::new();
    for n in [8, 16, 64, 256, 1024, 4096] {
        for bytes in [0, 4096, 64 * 1024] {
            for drop in [0.0, 1e-3, 1e-2] {
                for (fabric, routing) in fabrics {
                    if fabric.host_capacity(n) < n {
                        continue;
                    }
                    let scenario = Scenario::barrier(n)
                        .with_payload(Payload::for_size(bytes))
                        .with_faults(drop)
                        .with_fabric(fabric, routing);
                    grid.push((NicModel::LANAI_4_3, scenario));
                }
            }
        }
    }
    grid
}

/// The scenario the advisor would describe `cell` with.
pub fn scenario(cell: &Cell) -> Scenario {
    Scenario::barrier(cell.procs)
        .with_payload(cell.descriptor.payload())
        .with_faults(cell.faults.drop_probability)
        .with_fabric(cell.fabric, cell.routing)
}

/// The paper's eight published numbers (PAPER.md) against this grid's
/// simulated means: mean |error| in percent, or `None` when the cells are
/// not all present.
pub fn paper_err_pct(cells: &[Cell], means: &[f64]) -> Option<f64> {
    let mean = |placement, desc: Descriptor, procs, nic: NicModel| {
        cells
            .iter()
            .position(|c| {
                c.placement == placement
                    && c.descriptor == desc
                    && c.procs == procs
                    && c.nic.name == nic.name
            })
            .map(|i| means[i])
    };
    let (l43, l72) = (NicModel::LANAI_4_3, NicModel::LANAI_7_2);
    let (nic, host) = (Placement::Nic, Placement::Host);
    let nic_pe16 = mean(nic, Descriptor::pe(), 16, l43)?;
    let host_pe16 = mean(host, Descriptor::pe(), 16, l43)?;
    let nic_gb16 = mean(nic, Descriptor::gb(4), 16, l43)?;
    let host_gb16 = mean(host, Descriptor::gb(4), 16, l43)?;
    let nic_pe8 = mean(nic, Descriptor::pe(), 8, l43)?;
    let host_pe8 = mean(host, Descriptor::pe(), 8, l43)?;
    let nic_pe8_72 = mean(nic, Descriptor::pe(), 8, l72)?;
    let host_pe8_72 = mean(host, Descriptor::pe(), 8, l72)?;
    let pairs = [
        (nic_pe16, 102.14),
        (nic_gb16, 152.27),
        (host_pe16 / nic_pe16, 1.78),
        (host_gb16 / nic_gb16, 1.46),
        (host_pe8 / nic_pe8, 1.66),
        (nic_pe8_72, 49.25),
        (host_pe8_72, 90.24),
        (host_pe8_72 / nic_pe8_72, 1.83),
    ];
    let total: f64 = pairs
        .iter()
        .map(|(got, paper)| ((got - paper) / paper).abs() * 100.0)
        .sum();
    Some(total / pairs.len() as f64)
}
