//! Golden-equivalence property test for the schedule-IR refactor.
//!
//! The latency fixture `tests/data/golden_barriers.txt` was captured from
//! the pre-IR implementation — the hand-inlined PE/GB state machines in the
//! firmware extension and the dedicated host-baseline programs. This test
//! re-runs every configuration (N ∈ 2..=32, GB tree dimension ∈ 1..=4,
//! both the NIC-side and the host-side interpreter) through the compiled
//! [`Descriptor`] → `CollectiveSchedule` path and demands the **exact**
//! same virtual-time mean latency: simulated time is deterministic, so the
//! IR interpreters must be cost-model-identical to the code they replaced,
//! not merely close. Any drift — an extra `exec` charge, a reordered send,
//! a changed completion point — shows up as a bit-level f64 mismatch.
//! The digest fixture `tests/data/golden_digests.txt` holds each run's
//! output digest, so the same runs also pin every event count, per-node
//! counter and note. Regenerate both (only when the cost model itself
//! intentionally changes) with the command in `tests/common/golden.rs`.
//!
//! [`Descriptor`]: nic_barrier_suite::barrier::Descriptor

#[path = "common/golden.rs"]
mod golden;

#[test]
fn ir_interpreters_reproduce_pre_refactor_latencies_exactly() {
    golden::assert_reproduced("serial", |e| e);
}

#[test]
fn fixture_covers_the_full_grid() {
    let rows = golden::rows();
    for n in 2usize..=32 {
        for family in ["nic-pe", "host-pe"] {
            assert!(
                rows.iter().any(|r| r.family == family && r.n == n),
                "missing {family} n={n}"
            );
        }
        for dim in 1usize..=4 {
            for family in ["nic-gb", "host-gb"] {
                assert!(
                    rows.iter()
                        .any(|r| r.family == family && r.n == n && r.dim == dim),
                    "missing {family} n={n} dim={dim}"
                );
            }
        }
    }
}
