//! The steady state of every cell of the benchmark's `paper_testbed` and
//! `oversub_clos256` grids: the period the serial engine proves, the round
//! that proves it, the rounds it skips, and how many of the run's events
//! it actually simulated.
//!
//! Exits 1 if any cell stops fast-forwarding — a new piece of state that
//! breaks periodicity (or a digest that misses a rebasing rule) would
//! otherwise silently undo the gain — or skips later than at its proof:
//! the skip plus the proof round, the verify period and the margin of one
//! period and one round must cover the run. It also exits 1 if a cell
//! proves its period after the round its state allows. With idle
//! retransmission timers cancelled, the state at a round boundary repeats
//! from round 2 in every PE and GB@16 cell, and the speculative digest
//! taken there is proved at the first repeat: round 4 for a 2-round
//! period, round 3 for a 1-round one. NIC-GB(d=8)@256 repeats only from
//! round 4; its refuted round-4 digest is the next base, so it proves at
//! round 6. A later proof means some state (a timer left pending, say)
//! sets the period again, or the digests wait for a candidate once more;
//! with the skip starting at the proof, the rounds a cell simulates are
//! bounded by its proof round too. Each cell also runs its traced twin,
//! which skips nothing, and exits 1 if the two output digests differ: a
//! skip must leave the run as it was.
//!
//! ```text
//! cargo run --release --example steady_state
//! ```

use gmsim_lanai::NicModel;
use gmsim_testbed::{Algorithm, BarrierExperiment, Descriptor, FabricSpec, RoutePolicy};
use std::process::ExitCode;

fn main() -> ExitCode {
    let (l43, l72) = (NicModel::LANAI_4_3, NicModel::LANAI_7_2);
    let (nic, host) = (Algorithm::Nic, Algorithm::Host);
    // Rounds as the benchmark runs them: 1000 on the paper's crossbar, 100
    // on a 4:1 Clos of 16 leaves of 16 hosts and 4 spines, routed
    // adaptively. The last number is the round by which the cell must
    // have proven its period.
    let paper = |alg: Algorithm, procs, nic: NicModel, proof| {
        let label = format!("{}@{procs} {}", alg.name(), nic.name);
        (
            label,
            BarrierExperiment::new(procs, alg).nic(nic),
            1000,
            proof,
        )
    };
    let clos = FabricSpec::Clos {
        leaves: 16,
        hosts_per_leaf: 16,
        spines: 4,
    };
    let oversub = |alg: Algorithm, proof| {
        let e = BarrierExperiment::new(256, alg).fabric(clos, RoutePolicy::Adaptive);
        (format!("{}@256 4:1 Clos", alg.name()), e, 100, proof)
    };
    let cells = [
        paper(nic(Descriptor::pe()), 16, l43, 4),
        paper(host(Descriptor::pe()), 16, l43, 4),
        paper(nic(Descriptor::gb(4)), 16, l43, 3),
        paper(host(Descriptor::gb(4)), 16, l43, 3),
        paper(nic(Descriptor::pe()), 8, l43, 4),
        paper(host(Descriptor::pe()), 8, l43, 4),
        paper(nic(Descriptor::pe()), 8, l72, 4),
        paper(host(Descriptor::pe()), 8, l72, 4),
        oversub(nic(Descriptor::pe()), 4),
        oversub(host(Descriptor::pe()), 4),
        oversub(nic(Descriptor::gb(8)), 6),
    ];
    println!(
        "{:<24} {:>10} {:>8} {:>11} {:>7} {:>9} {:>13} {:>11}",
        "cell", "mean_us", "from", "period", "proof", "skipped", "simulated", "events"
    );
    let mut stalled = Vec::new();
    let mut late = Vec::new();
    let mut slow = Vec::new();
    let mut differ = Vec::new();
    for (label, e, rounds, max_proof) in cells {
        // Warm-up rounds as the benchmark's cells set them: 20 and 10.
        let e = e.rounds(rounds, (rounds / 10).clamp(1, 20));
        let m = e.run().unwrap_or_else(|e| panic!("{label}: {e}"));
        let full = e.trace(1).run().unwrap_or_else(|e| panic!("{label}: {e}"));
        if full.digest() != m.digest() {
            differ.push(label.clone());
        }
        let (from, period, proof) = match m.steady {
            Some(p) => (
                p.from_round.to_string(),
                format!("{}r/{:.0}us", p.rounds, p.us),
                (p.from_round + p.rounds).to_string(),
            ),
            None => ("-".into(), "none".into(), "-".into()),
        };
        let (skipped, skipped_events) = m.fast_forward.map_or((0, 0), |f| (f.rounds, f.events));
        println!(
            "{label:<24} {:>10.3} {from:>8} {period:>11} {proof:>7} {skipped:>9} {:>13} {:>11}",
            m.mean_us,
            m.events - skipped_events,
            m.events
        );
        match (m.steady, m.fast_forward) {
            (Some(p), Some(f)) if f.rounds + p.from_round + 3 * p.rounds + 1 < rounds => {
                late.push(label)
            }
            (Some(p), Some(_)) if p.from_round + p.rounds > max_proof => {
                slow.push(format!("{label} (round {})", p.from_round + p.rounds))
            }
            (_, None) => stalled.push(label),
            _ => {}
        }
    }
    if !stalled.is_empty() {
        eprintln!("no longer fast-forwarding: {}", stalled.join(", "));
    }
    if !late.is_empty() {
        eprintln!("skipping later than at the proof: {}", late.join(", "));
    }
    if !slow.is_empty() {
        eprintln!(
            "proving later than the cell's state allows: {}",
            slow.join(", ")
        );
    }
    if !differ.is_empty() {
        eprintln!(
            "output digest differs from the full run: {}",
            differ.join(", ")
        );
    }
    if stalled.is_empty() && late.is_empty() && slow.is_empty() && differ.is_empty() {
        println!("every cell fast-forwarded from its proof, with its full run's digest");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
