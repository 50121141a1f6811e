//! The fuzzy-barrier and random-team runs, pinned. The golden fixture
//! covers the plain NIC and host barriers only; these cells cover the two
//! other ways the NIC barrier loop runs: with host compute posted beside
//! each round (§2.1), and as several teams' jobs sharing one port (§3.4).
//! Each cell's output digest and mean were recorded before the three NIC
//! round loops became one, and the one loop must reproduce them bit for
//! bit.

use gmsim_testbed::prelude::*;

/// `repro fuzzy`'s grid: 8 nodes, NIC-PE, `compute` µs per round, run
/// blocking (`false`) or overlapped with the barrier (`true`).
fn fuzzy(compute: u64, overlap: bool) -> BarrierExperiment {
    BarrierExperiment::new(8, Algorithm::Nic(Descriptor::Pe))
        .compute(compute, overlap)
        .rounds(120, 20)
}

/// NIC-PE over `n` nodes run by `teams`, as `repro multitenant` runs it.
fn team_pe(n: usize, teams: TeamSet) -> BarrierExperiment {
    BarrierExperiment::new(n, Algorithm::Nic(Descriptor::Pe))
        .team(teams)
        .rounds(40, 8)
}

/// `repro multitenant`'s smoke cells: `count` random teams of 4–8 nodes
/// next to background traffic.
fn multitenant(n: usize, count: usize) -> BarrierExperiment {
    team_pe(
        n,
        TeamSet::Random {
            count,
            min: 4,
            max: 8.min(n),
        },
    )
    .background(true)
}

/// The isolated baseline: one random team of every node, no background.
fn isolated(n: usize) -> BarrierExperiment {
    team_pe(
        n,
        TeamSet::Random {
            count: 1,
            min: n,
            max: n,
        },
    )
}

/// Every pinned cell with its recorded output digest and mean, µs.
fn pinned() -> Vec<(String, BarrierExperiment, u64, f64)> {
    const FUZZY: [(u64, bool, u64, f64); 12] = [
        (0, false, 0x082f_9b96_b826_104d, 82.225),
        (0, true, 0x082f_9b96_b826_104d, 82.225),
        (20, false, 0x2dfa_bdeb_4403_fbe7, 102.225),
        (20, true, 0xf888_618d_70f7_a7ce, 82.225),
        (40, false, 0x1f9b_b55f_e757_d4e9, 122.225),
        (40, true, 0xca1f_3b27_d32c_d7d2, 82.225),
        (60, false, 0x5046_64fa_d076_066b, 142.225),
        (60, true, 0x3007_36d7_d205_3eaf, 82.225),
        (80, false, 0x4cfb_339a_fe10_b861, 162.225),
        (80, true, 0xd152_ea8a_2182_63e4, 94.80000000000001),
        (120, false, 0x624e_c6d9_300b_e4fc, 202.22500000000002),
        (120, true, 0x78f5_0324_1508_c4eb, 134.8),
    ];
    const MULTITENANT: [(usize, usize, u64, f64); 6] = [
        (16, 1, 0x2e08_4663_e108_e1fa, 101.12245161290322),
        (16, 2, 0x2b38_0f57_7a63_7813, 162.38446774193548),
        (16, 4, 0xc1b4_bad3_ff2e_1ac8, 214.2273387096774),
        (64, 1, 0x8ef3_7fea_f44c_7555, 101.39703225806451),
        (64, 2, 0xd279_846a_5abc_f6aa, 151.99625806451613),
        (64, 4, 0x7d75_5a30_c072_073f, 208.80798387096772),
    ];
    const ISOLATED: [(usize, u64, f64); 2] = [
        (16, 0x6930_bf9c_931e_a7da, 101.76899999999999),
        (64, 0x081d_68bb_8834_2bad, 142.873),
    ];
    let mut cells = Vec::new();
    for (us, overlap, digest, mean) in FUZZY {
        let name = format!("fuzzy compute={us} overlap={overlap}");
        cells.push((name, fuzzy(us, overlap), digest, mean));
    }
    for (n, count, digest, mean) in MULTITENANT {
        let name = format!("multitenant n={n} teams={count}");
        cells.push((name, multitenant(n, count), digest, mean));
    }
    for (n, digest, mean) in ISOLATED {
        cells.push((format!("isolated n={n}"), isolated(n), digest, mean));
    }
    cells
}

#[test]
fn fuzzy_and_random_team_runs_match_their_pinned_outputs() {
    let mut wrong = Vec::new();
    for (name, experiment, digest, mean) in pinned() {
        let m = experiment.run().unwrap_or_else(|e| panic!("{name}: {e}"));
        if (m.digest(), m.mean_us) != (digest, mean) {
            wrong.push(format!(
                "{name}: digest {:#x} mean {:?}, pinned {digest:#x} {mean:?}",
                m.digest(),
                m.mean_us
            ));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}
