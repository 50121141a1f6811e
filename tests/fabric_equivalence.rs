//! Bit-exactness gate for the parallel DES core on the PR-10 fabric zoo.
//!
//! Adaptive routing picks spines from the live per-link `busy` horizons,
//! so determinism rests on a sharper argument than the static tables did:
//! `Fabric::send` is invoked in the identical committed global order by
//! the serial scheduler and by the parallel engine's commit-window replay,
//! and the adaptive choice is a pure function of (src, dst, busy) with
//! ties broken to the lowest index (DESIGN.md §18). This suite pins that
//! argument end-to-end: serial ≡ parallel(2, 4) on an oversubscribed Clos
//! and a fat tree, with drop faults and adaptive routing enabled at once.
//! "Same run" is the same output digest and the same trace.

use nic_barrier_suite::testbed::prelude::*;

fn check_serial_vs_parallel(label: &str, base: &BarrierExperiment) {
    let serial = base.run().unwrap();
    for threads in [2usize, 4] {
        let par = base.parallel(threads).run().unwrap();
        assert_eq!(serial.digest(), par.digest(), "{label} t={threads}");
        assert_eq!(serial.trace, par.trace, "{label} t={threads}: trace");
    }
}

/// A 4:1 oversubscribed Clos under drop faults with every routing policy:
/// the adaptive case is the one whose route choice depends on dynamic
/// fabric state, but static and dispersed ride along as controls.
#[test]
fn oversubscribed_clos_replays_bit_identically() {
    let spec = FabricSpec::Clos {
        leaves: 8,
        hosts_per_leaf: 8,
        spines: 2,
    };
    for (pname, policy) in [
        ("static", RoutePolicy::StaticBfs),
        ("dispersed", RoutePolicy::Dispersed),
        ("adaptive", RoutePolicy::Adaptive),
    ] {
        let e = BarrierExperiment::new(64, Algorithm::Nic(Descriptor::Pe))
            .rounds(20, 3)
            .fabric(spec, policy)
            .faults(FaultPlan::drops(0.02));
        check_serial_vs_parallel(&format!("clos-4to1 {pname} nic-pe lossy"), &e);
    }
    // A tree schedule stresses different links (gather funnels, root
    // incast) than the exchange; one adaptive lossy case suffices.
    let e = BarrierExperiment::new(64, Algorithm::Nic(Descriptor::gb(4)))
        .rounds(20, 3)
        .fabric(spec, RoutePolicy::Adaptive)
        .faults(FaultPlan::drops(0.02));
    check_serial_vs_parallel("clos-4to1 adaptive nic-gb4 lossy", &e);
}

/// A k=4 fat tree (16 hosts over three switch levels, 8 two-host LPs)
/// with faults, adaptive routing, and a trace ring — the trace pins event
/// interleaving, not just aggregates.
#[test]
fn fat_tree_replays_bit_identically() {
    let spec = FabricSpec::FatTree { k: 4 };
    let e = BarrierExperiment::new(16, Algorithm::Nic(Descriptor::Pe))
        .rounds(25, 4)
        .fabric(spec, RoutePolicy::Adaptive)
        .faults(FaultPlan::drops(0.03))
        .trace(512);
    check_serial_vs_parallel("fat-tree-k4 adaptive nic-pe lossy traced", &e);

    let e = BarrierExperiment::new(16, Algorithm::Host(Descriptor::dissemination_radix(3)))
        .rounds(15, 2)
        .fabric(spec, RoutePolicy::Adaptive)
        .faults(FaultPlan::drops(0.02));
    check_serial_vs_parallel("fat-tree-k4 adaptive host-dissem3 lossy", &e);
}

/// The adaptive k=8 fat tree at 128 hosts: a deeper partition fan-out
/// (32 edge LPs) than anything the pdes suite covers, fault-free so the
/// only dynamic input to routing is the contention state itself.
#[test]
fn large_fat_tree_adaptive_replays_bit_identically() {
    let e = BarrierExperiment::new(128, Algorithm::Nic(Descriptor::gb(8)))
        .rounds(12, 2)
        .fabric(FabricSpec::FatTree { k: 8 }, RoutePolicy::Adaptive);
    check_serial_vs_parallel("fat-tree-k8 adaptive nic-gb8", &e);
}

/// The capacity check: a fabric that cannot attach the cluster is a typed
/// configuration error, not a panic deep in cabling.
#[test]
fn fabric_too_small_is_a_typed_error() {
    let e = BarrierExperiment::new(64, Algorithm::Nic(Descriptor::Pe)).fabric(
        FabricSpec::Clos {
            leaves: 4,
            hosts_per_leaf: 8,
            spines: 8,
        },
        RoutePolicy::Dispersed,
    );
    assert_eq!(
        e.run().unwrap_err(),
        ExperimentError::FabricTooSmall {
            capacity: 32,
            nodes: 64
        }
    );
}
