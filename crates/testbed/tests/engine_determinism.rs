//! Determinism gate for the parallel sweep engine: a sweep must produce
//! bit-identical measurements no matter how many workers execute it, for
//! every seed — the engine only partitions *which thread runs which
//! cell*, never what a cell computes. Also exercises the large-N
//! configurations the scaling study depends on.

use gmsim_des::check::forall;
use gmsim_gm::GmConfig;
use gmsim_testbed::prelude::*;
use nic_barrier::{CostModel, FabricModel};

#[test]
fn parallel_sweep_is_bit_identical_to_serial_for_every_seed() {
    forall(6, 0x5eed_5eed, |g| {
        let base = g.any_u64();
        let workers = g.usize_in(2, 8);
        let grid: Vec<BarrierExperiment> = [
            Algorithm::Nic(Descriptor::Pe),
            Algorithm::Host(Descriptor::Pe),
            Algorithm::Nic(Descriptor::gb(2)),
            Algorithm::Nic(Descriptor::dissemination()),
        ]
        .iter()
        .flat_map(|&alg| [3usize, 4, 6].map(|n| (n, alg)))
        .enumerate()
        .map(|(i, (n, alg))| {
            // Skew makes the per-cell seed observable in the latency.
            BarrierExperiment::new(n, alg)
                .rounds(10, 2)
                .skew(5, cell_seed(base, i as u64))
        })
        .collect();
        let serial = SweepEngine::new()
            .workers(1)
            .run(&grid, |_, e| e.run().expect("serial cell").digest());
        let parallel = SweepEngine::new()
            .workers(workers)
            .run(&grid, |_, e| e.run().expect("parallel cell").digest());
        assert_eq!(serial, parallel, "workers={workers} base={base:#x}");
    });
}

#[test]
fn cell_seeds_decorrelate_cells_with_identical_parameters() {
    // Two cells that differ only in sweep index must see different skew
    // streams — the whole point of the per-cell seed derivation. Skew
    // offsets the synchronized start, so it shows in the cold-start
    // latency (the steady-state mean is deliberately skew-invariant).
    let run = |idx: u64| {
        BarrierExperiment::new(4, Algorithm::Nic(Descriptor::Pe))
            .rounds(10, 2)
            .skew(5, cell_seed(7, idx))
            .run()
            .unwrap()
            .first_round_us
    };
    assert_ne!(run(0).to_bits(), run(1).to_bits());
    // And the same index must reproduce exactly.
    assert_eq!(run(3).to_bits(), run(3).to_bits());
}

#[test]
fn thousand_node_cluster_runs_and_matches_the_scaling_model() {
    let m = BarrierExperiment::new(1024, Algorithm::Nic(Descriptor::Pe))
        .rounds(3, 1)
        .run()
        .expect("1024-node run");
    let model = CostModel::from_config(&GmConfig::paper_host(NicModel::LANAI_4_3));
    let predicted = model
        .latency_us(
            nic_barrier::Placement::Nic,
            1024,
            &Descriptor::pe(),
            &FabricModel::auto(1024),
        )
        .expect("a barrier form");
    let rel = (m.mean_us - predicted).abs() / m.mean_us;
    assert!(
        rel < nic_barrier::PE_MODEL_TOLERANCE,
        "1024-node NIC-PE {:.2}us vs model {predicted:.2}us (err {:.1}%)",
        m.mean_us,
        rel * 100.0
    );
}

#[test]
fn latency_grows_monotonically_with_cluster_size() {
    let mean = |n: usize| {
        BarrierExperiment::new(n, Algorithm::Nic(Descriptor::Pe))
            .rounds(3, 1)
            .run()
            .unwrap()
            .mean_us
    };
    let curve: Vec<f64> = [64usize, 128, 256, 512].iter().map(|&n| mean(n)).collect();
    for pair in curve.windows(2) {
        assert!(pair[0] < pair[1], "latency must grow with N: {curve:?}");
    }
}
