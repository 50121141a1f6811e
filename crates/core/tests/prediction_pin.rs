//! Prediction pin: the analytic layer's outputs, bit for bit.
//!
//! Each literal is the `f64::to_bits` of one `advisor::predict` or
//! `CostModel::latency_us` value. A refactor of the analytic layer must
//! move none of them: any change to the arithmetic behind a prediction —
//! even a reordered sum — fails here, and a deliberate recalibration
//! re-records the literals. The points span the default fabric across every tier boundary,
//! the 8×8 Clos at 1:1, 2:1 and 4:1 under each routing policy, a k = 8 fat
//! tree, every advisor candidate kind, the payload collectives eager and
//! pipelined from 1 B to 1 MiB, and fault rates 0 and 0.01.

use gmsim_gm::{GmConfig, Payload};
use gmsim_lanai::NicModel;
use gmsim_myrinet::{FabricSpec, RoutePolicy};
use nic_barrier::advisor::{predict, Scenario};
use nic_barrier::{CostModel, Descriptor, FabricModel, Placement, ReduceOp};

const MIB: u64 = 1 << 20;

/// `predict` values on LANai 4.3, in [`predicted`] order.
const PREDICT_BITS: [u64; 46] = [
    0x4053e2e147ae147a, // nic pe, auto 8
    0x40664604189374bc, // host dissem3, auto 8
    0x40682ab780346dc7, // nic gb2, auto 16
    0x40666a6e978d4fdf, // host pe, auto 16
    0x4063593f7ced9169, // nic dissem4, auto 17
    0x407963353f7ced92, // host gb8, auto 17
    0x4070dee560418937, // nic dissem3, auto 1000
    0x4086e69d3996fa82, // host gb4, auto 1000
    0x407440ddc1e7967c, // nic gb4, auto 1024
    0x407c4dd70a3d70a2, // host dissem2, auto 1024
    0x406e0deb851eb851, // nic pe, auto 2048
    0x408daddf212d7731, // host gb2, auto 2048
    0x40776116872b020c, // nic gb8, auto 2048
    0x40704ca3d70a3d70, // nic dissem2, auto 4096
    0x40892ab645a1cac0, // host dissem4, auto 4096
    0x4061d34395810626, // nic pe, clos 2 spines static
    0x407684dd2f1a9fbe, // host dissem3, clos 2 spines dispersed
    0x406c442253111f0c, // nic gb4, clos 2 spines adaptive
    0x407e4b851eb851ec, // host gb8, clos 4 spines static
    0x406814624dd2f1ab, // nic dissem4, clos 4 spines dispersed
    0x4070ef0624dd2f1a, // host pe, clos 4 spines adaptive
    0x40704182a9930be1, // nic gb2, clos 8 spines static
    0x4070ef0624dd2f1a, // host pe, clos 4 spines adaptive
    0x4065bb020c49ba5f, // nic dissem3, clos 8 spines adaptive
    0x40641ee147ae147c, // nic pe, fat tree dispersed
    0x408170851eb851ea, // host gb8, fat tree static
    0x406a9883126e978e, // nic dissem4, fat tree adaptive
    0x40b18875dde23bea, // nic pe, auto 1024, 1% drops
    0x40b47666ab584f64, // nic gb2, auto 1024, 1% drops
    0x40ba11b2c83ad623, // host dissem2, auto 4096, 1% drops
    0x40989c48db47aa77, // nic gb8, clos 2 spines static, 1% drops
    0x40619235c28f5c29, // allreduce2 eager 1 B, auto 16
    0x409e2c90e5604189, // allreduce4 pipelined 4 KiB, auto 1024
    0x41491f272428f5c2, // allreduce8 pipelined 1 MiB, auto 4096
    0x411435edcf220aff, // allreduce2 eager 1 MiB, auto 256, 1% drops
    0x40514750e5604189, // bcast2 pipelined 1 B, auto 64
    0x40708b33db0cb22a, // bcast4 eager 4 KiB, auto 2048
    0x40e85df865dcd024, // bcast2 pipelined 1 MiB, auto 1024
    0x40514750e5604189, // bcast2 pipelined 1 B, auto 64
    0x40a6bb28f5c28f5c, // reduce8 pipelined 4 KiB, auto 256
    0x412a500f28f5c28f, // reduce4 eager 1 MiB, auto 4096
    0x4056b503126e978c, // scan pipelined 1 B, auto 8
    0x40a7162a8a1d214a, // scan eager 4 KiB, auto 1000
    0x4127419017649c0e, // scan pipelined 1 MiB, auto 1024
    0x41044fb3d297dee1, // scan eager 1 MiB, auto 64, 1% drops
    0x408a491fbe76c8b5, // allreduce2 pipelined 4 KiB, clos 2 spines static
];

/// `latency_us` values on LANai 7.2 and the default fabric, in
/// [`latencies`] order.
const LATENCY_BITS: [u64; 4] = [
    0x4069b774bc6a7efb, // LANai 7.2 nic gb8, auto 4096
    0x406a3eccccccccce, // LANai 7.2 host gb8, auto 32
    0x405e554fdf3b6458, // LANai 7.2 nic pe, auto 1024
    0x4075499ba5e353f7, // LANai 7.2 host dissem2, auto 2048
];

fn predicted() -> Vec<f64> {
    use Placement::{Host, Nic};
    let m = CostModel::from_config(&GmConfig::paper_host(NicModel::LANAI_4_3));
    let clos = |spines| FabricSpec::Clos {
        leaves: 8,
        hosts_per_leaf: 8,
        spines,
    };
    let (st, di, ad) = (
        RoutePolicy::StaticBfs,
        RoutePolicy::Dispersed,
        RoutePolicy::Adaptive,
    );
    let auto = Scenario::barrier;
    let on = |spec, policy| Scenario::barrier(64).with_fabric(spec, policy);
    let fat = |policy| Scenario::barrier(128).with_fabric(FabricSpec::FatTree { k: 8 }, policy);
    let (pe, gb, ds) = (
        Descriptor::pe(),
        Descriptor::gb,
        Descriptor::dissemination_radix,
    );
    let (eager, piped) = (Payload::eager, |b| Payload::pipelined(b, 4096));
    let allreduce = |d, p| Descriptor::allreduce(ReduceOp::Sum, d).with_payload(p);
    let bcast = |d, p| Descriptor::bcast(d).with_payload(p);
    let reduce = |d, p| Descriptor::reduce(ReduceOp::Sum, d).with_payload(p);
    let scan = |p| Descriptor::scan(ReduceOp::Sum).with_payload(p);
    let points: [(Scenario, Placement, Descriptor); 46] = [
        (auto(8), Nic, pe),
        (auto(8), Host, ds(3)),
        (auto(16), Nic, gb(2)),
        (auto(16), Host, pe),
        (auto(17), Nic, ds(4)),
        (auto(17), Host, gb(8)),
        (auto(1000), Nic, ds(3)),
        (auto(1000), Host, gb(4)),
        (auto(1024), Nic, gb(4)),
        (auto(1024), Host, ds(2)),
        (auto(2048), Nic, pe),
        (auto(2048), Host, gb(2)),
        (auto(2048), Nic, gb(8)),
        (auto(4096), Nic, ds(2)),
        (auto(4096), Host, ds(4)),
        (on(clos(2), st), Nic, pe),
        (on(clos(2), di), Host, ds(3)),
        (on(clos(2), ad), Nic, gb(4)),
        (on(clos(4), st), Host, gb(8)),
        (on(clos(4), di), Nic, ds(4)),
        (on(clos(4), ad), Host, pe),
        (on(clos(8), st), Nic, gb(2)),
        (on(clos(8), di), Host, ds(2)),
        (on(clos(8), ad), Nic, ds(3)),
        (fat(di), Nic, pe),
        (fat(st), Host, gb(8)),
        (fat(ad), Nic, ds(4)),
        (auto(1024).with_faults(0.01), Nic, pe),
        (auto(1024).with_faults(0.01), Nic, gb(2)),
        (auto(4096).with_faults(0.01), Host, ds(2)),
        (on(clos(2), st).with_faults(0.01), Nic, gb(8)),
        (auto(16), Nic, allreduce(2, eager(1))),
        (auto(1024), Nic, allreduce(4, piped(4096))),
        (auto(4096), Nic, allreduce(8, piped(MIB))),
        (auto(256).with_faults(0.01), Nic, allreduce(2, eager(MIB))),
        (auto(64), Nic, bcast(2, piped(1))),
        (auto(2048), Nic, bcast(4, eager(4096))),
        (auto(1024), Nic, bcast(2, piped(MIB))),
        (auto(17), Nic, reduce(2, eager(1))),
        (auto(256), Nic, reduce(8, piped(4096))),
        (auto(4096), Nic, reduce(4, eager(MIB))),
        (auto(8), Nic, scan(piped(1))),
        (auto(1000), Nic, scan(eager(4096))),
        (auto(1024), Nic, scan(piped(MIB))),
        (auto(64).with_faults(0.01), Nic, scan(eager(MIB))),
        (on(clos(2), st), Nic, allreduce(2, piped(4096))),
    ];
    points
        .iter()
        .map(|(sc, placement, d)| predict(&m, sc, *placement, d))
        .collect()
}

fn latencies() -> Vec<f64> {
    use Placement::{Host, Nic};
    let m = CostModel::from_config(&GmConfig::paper_host(NicModel::LANAI_7_2));
    let (pe, gb, ds) = (
        Descriptor::pe(),
        Descriptor::gb,
        Descriptor::dissemination_radix,
    );
    let points: [(usize, Placement, Descriptor); 4] = [
        (4096, Nic, gb(8)),
        (32, Host, gb(8)),
        (1024, Nic, pe),
        (2048, Host, ds(2)),
    ];
    points
        .iter()
        .map(|&(n, placement, d)| {
            m.latency_us(placement, n, &d, &FabricModel::auto(n))
                .expect("a barrier form")
        })
        .collect()
}

fn assert_pinned(got: Vec<f64>, pinned: &[u64]) {
    assert_eq!(got.len(), pinned.len());
    for (i, (v, &bits)) in got.iter().zip(pinned).enumerate() {
        assert_eq!(
            v.to_bits(),
            bits,
            "point {i}: {v} != pinned {}",
            f64::from_bits(bits)
        );
    }
}

#[test]
fn advisor_predictions_are_pinned_bit_for_bit() {
    assert_pinned(predicted(), &PREDICT_BITS);
}

#[test]
fn default_fabric_latencies_are_pinned_bit_for_bit() {
    assert_pinned(latencies(), &LATENCY_BITS);
}

#[test]
fn host_payload_collectives_have_no_form() {
    let m = CostModel::from_config(&GmConfig::paper_host(NicModel::LANAI_4_3));
    let d = Descriptor::allreduce(ReduceOp::Sum, 2).with_payload(Payload::eager(4096));
    assert_eq!(
        m.latency_us(Placement::Host, 64, &d, &FabricModel::auto(64)),
        None
    );
    assert!(m
        .latency_us(Placement::Nic, 64, &d, &FabricModel::auto(64))
        .is_some());
}
