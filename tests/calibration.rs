//! The reproduction gate: simulated results must stay on the paper's
//! published numbers (within the bands recorded in EXPERIMENTS.md). If a
//! refactor of the substrate or the firmware extension shifts the timing
//! model, these tests fail before the figures silently drift.
//!
//! Run in release for speed: `cargo test --release --test calibration`.

use nic_barrier_suite::lanai::NicModel;
use nic_barrier_suite::testbed::{best_gb_dim, Algorithm, BarrierExperiment, Descriptor};

fn within(value: f64, target: f64, tol_pct: f64) -> bool {
    (value - target).abs() / target * 100.0 <= tol_pct
}

fn run(n: usize, a: Algorithm, nic: NicModel) -> f64 {
    BarrierExperiment::new(n, a)
        .nic(nic)
        .rounds(120, 20)
        .run()
        .unwrap()
        .mean_us
}

#[test]
fn nic_pe_16_nodes_lanai43_is_102us() {
    let got = run(16, Algorithm::Nic(Descriptor::Pe), NicModel::LANAI_4_3);
    assert!(
        within(got, 102.14, 3.0),
        "measured {got:.2} vs paper 102.14"
    );
}

#[test]
fn pe_factor_16_nodes_lanai43_is_1_78() {
    let nic = run(16, Algorithm::Nic(Descriptor::Pe), NicModel::LANAI_4_3);
    let host = run(16, Algorithm::Host(Descriptor::Pe), NicModel::LANAI_4_3);
    let f = host / nic;
    assert!(within(f, 1.78, 4.0), "factor {f:.2} vs paper 1.78");
}

#[test]
fn pe_factor_8_nodes_lanai43_is_1_66() {
    let nic = run(8, Algorithm::Nic(Descriptor::Pe), NicModel::LANAI_4_3);
    let host = run(8, Algorithm::Host(Descriptor::Pe), NicModel::LANAI_4_3);
    let f = host / nic;
    assert!(within(f, 1.66, 4.0), "factor {f:.2} vs paper 1.66");
}

#[test]
fn nic_pe_8_nodes_lanai72_is_49us() {
    let got = run(8, Algorithm::Nic(Descriptor::Pe), NicModel::LANAI_7_2);
    assert!(within(got, 49.25, 3.0), "measured {got:.2} vs paper 49.25");
}

#[test]
fn host_pe_8_nodes_lanai72_is_90us() {
    let got = run(8, Algorithm::Host(Descriptor::Pe), NicModel::LANAI_7_2);
    assert!(within(got, 90.24, 3.0), "measured {got:.2} vs paper 90.24");
}

#[test]
fn pe_factor_8_nodes_lanai72_is_1_83() {
    let nic = run(8, Algorithm::Nic(Descriptor::Pe), NicModel::LANAI_7_2);
    let host = run(8, Algorithm::Host(Descriptor::Pe), NicModel::LANAI_7_2);
    let f = host / nic;
    assert!(within(f, 1.83, 4.0), "factor {f:.2} vs paper 1.83");
}

#[test]
fn nic_gb_16_nodes_lanai43_is_152us() {
    let (_, m) =
        best_gb_dim(BarrierExperiment::new(16, Algorithm::Nic(Descriptor::gb(1))).rounds(80, 10))
            .unwrap();
    assert!(
        within(m.mean_us, 152.27, 5.0),
        "measured {:.2} vs paper 152.27",
        m.mean_us
    );
}

#[test]
fn nic_gb_loses_to_host_gb_at_two_nodes() {
    // §6: "The NIC-based GB barrier performed worse for the two node
    // barrier than the host-based GB barrier because of the overhead of
    // processing the barrier algorithm at the NIC."
    let nic = run(2, Algorithm::Nic(Descriptor::gb(1)), NicModel::LANAI_4_3);
    let host = run(2, Algorithm::Host(Descriptor::gb(1)), NicModel::LANAI_4_3);
    assert!(
        nic > host,
        "NIC-GB(2)={nic:.2} must exceed host-GB(2)={host:.2}"
    );
}

#[test]
fn nic_pe_is_best_everywhere() {
    // §6: "the NIC-based PE barrier performed better than all other
    // barriers."
    for n in [2usize, 4, 8, 16] {
        let nic_pe = run(n, Algorithm::Nic(Descriptor::Pe), NicModel::LANAI_4_3);
        for other in [
            Algorithm::Host(Descriptor::Pe),
            Algorithm::Nic(Descriptor::gb(2)),
            Algorithm::Host(Descriptor::gb(2)),
        ] {
            let o = run(n, other, NicModel::LANAI_4_3);
            assert!(
                nic_pe < o,
                "n={n}: NIC-PE {nic_pe:.2} must beat {} {o:.2}",
                other.name()
            );
        }
    }
}

#[test]
fn host_pe_beats_host_gb() {
    // §6: "The host-based PE barrier performed better than the host-based
    // GB barrier."
    for n in [4usize, 8, 16] {
        let pe = run(n, Algorithm::Host(Descriptor::Pe), NicModel::LANAI_4_3);
        let (_, gb) = best_gb_dim(
            BarrierExperiment::new(n, Algorithm::Host(Descriptor::gb(1))).rounds(80, 10),
        )
        .unwrap();
        assert!(
            pe < gb.mean_us,
            "n={n}: host-PE {pe:.2} vs host-GB {:.2}",
            gb.mean_us
        );
    }
}

#[test]
fn faster_nic_helps_both_but_nic_based_more() {
    // §6: "the faster NIC processor improved the performance of all
    // implementations", and the 8-node factor grew 1.66 → 1.83.
    for alg in [
        Algorithm::Nic(Descriptor::Pe),
        Algorithm::Host(Descriptor::Pe),
    ] {
        let slow = run(8, alg, NicModel::LANAI_4_3);
        let fast = run(8, alg, NicModel::LANAI_7_2);
        assert!(fast < slow, "{}: {fast:.2} !< {slow:.2}", alg.name());
    }
    let f43 = run(8, Algorithm::Host(Descriptor::Pe), NicModel::LANAI_4_3)
        / run(8, Algorithm::Nic(Descriptor::Pe), NicModel::LANAI_4_3);
    let f72 = run(8, Algorithm::Host(Descriptor::Pe), NicModel::LANAI_7_2)
        / run(8, Algorithm::Nic(Descriptor::Pe), NicModel::LANAI_7_2);
    assert!(
        f72 > f43,
        "factor must grow with NIC speed: {f43:.2} -> {f72:.2}"
    );
}

#[test]
fn factor_grows_with_system_size() {
    // §2.2: "The factor of improvement will also increase as the number of
    // nodes increases."
    let mut prev = 0.0;
    for n in [2usize, 4, 8, 16] {
        let f = run(n, Algorithm::Host(Descriptor::Pe), NicModel::LANAI_4_3)
            / run(n, Algorithm::Nic(Descriptor::Pe), NicModel::LANAI_4_3);
        assert!(
            f > prev,
            "factor not monotone at n={n}: {f:.2} <= {prev:.2}"
        );
        prev = f;
    }
}
