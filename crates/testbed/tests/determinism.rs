//! Determinism gate for the observability layer: the same seed must
//! produce a bit-identical structured trace and the same output digest —
//! for both interpreters, with and without wire faults. Tracing itself
//! must not perturb the simulation either: a run with the tracer on
//! reports the same digest as a run with it off.

use gmsim_testbed::prelude::*;

fn base(alg: Algorithm, faults: FaultPlan) -> BarrierExperiment {
    BarrierExperiment::new(4, alg)
        .rounds(30, 5)
        .faults(faults)
        .trace(1 << 16)
}

#[test]
fn same_seed_is_bit_identical_across_interpreters_and_faults() {
    for alg in [
        Algorithm::Nic(Descriptor::Pe),
        Algorithm::Host(Descriptor::Pe),
    ] {
        for faults in [FaultPlan::NONE, FaultPlan::drops(0.02)] {
            let e = base(alg, faults);
            let a = e.run().unwrap();
            let b = e.run().unwrap();
            assert!(!a.trace.is_empty(), "{alg:?}: trace must be populated");
            assert_eq!(a.trace, b.trace, "{alg:?} faults={faults:?}: trace");
            assert_eq!(a.digest(), b.digest(), "{alg:?} faults={faults:?}");
        }
    }
}

#[test]
fn faults_change_the_trace_but_not_reproducibility() {
    let clean = base(Algorithm::Nic(Descriptor::Pe), FaultPlan::NONE)
        .run()
        .unwrap();
    let faulty = base(Algorithm::Nic(Descriptor::Pe), FaultPlan::drops(0.05))
        .run()
        .unwrap();
    assert_ne!(clean.trace, faulty.trace);
    assert_eq!(clean.metrics.get(Counter::PacketsDropped), 0);
    assert!(faulty.metrics.get(Counter::PacketsDropped) > 0);
    assert!(faulty.metrics.get(Counter::PacketsRetransmitted) > 0);
    assert!(faulty.mean_us > clean.mean_us);
}

#[test]
fn tracing_does_not_perturb_timing() {
    let traced = base(Algorithm::Nic(Descriptor::Pe), FaultPlan::NONE)
        .run()
        .unwrap();
    let silent = BarrierExperiment::new(4, Algorithm::Nic(Descriptor::Pe))
        .rounds(30, 5)
        .run()
        .unwrap();
    assert_eq!(traced.digest(), silent.digest());
    assert!(silent.trace.is_empty());
}

/// The digest of the golden NIC-PE@4 run (`nic-pe 4 0` in
/// `tests/data/golden_digests.txt`), pinned here so that a change to the
/// hasher or to the walk order fails a test rather than moving the
/// fixture silently when it is regenerated.
#[test]
fn nic_pe_at_4_digest_is_pinned() {
    let m = BarrierExperiment::new(4, Algorithm::Nic(Descriptor::Pe))
        .rounds(40, 5)
        .run()
        .unwrap();
    assert_eq!(m.digest(), 0x2837_63b1_044f_3d58, "{:#018x}", m.digest());
}
