//! The steady state of every cell of the benchmark's `paper_testbed` grid:
//! the period the serial engine proves, the rounds it skips, and how many
//! of the run's events it actually simulated.
//!
//! Exits 1 if any cell stops fast-forwarding — a new piece of state that
//! breaks periodicity (or a digest that misses a rebasing rule) would
//! otherwise silently undo the gain.
//!
//! ```text
//! cargo run --release --example steady_state
//! ```

use gmsim_lanai::NicModel;
use gmsim_testbed::{Algorithm, BarrierExperiment, Descriptor};
use std::process::ExitCode;

/// Rounds per cell and warm-up rounds, as the benchmark runs them.
const ROUNDS: u64 = 1000;
const WARMUP: u64 = 20;

fn main() -> ExitCode {
    let (l43, l72) = (NicModel::LANAI_4_3, NicModel::LANAI_7_2);
    let cells = [
        (Algorithm::Nic(Descriptor::pe()), 16, l43),
        (Algorithm::Host(Descriptor::pe()), 16, l43),
        (Algorithm::Nic(Descriptor::gb(4)), 16, l43),
        (Algorithm::Host(Descriptor::gb(4)), 16, l43),
        (Algorithm::Nic(Descriptor::pe()), 8, l43),
        (Algorithm::Host(Descriptor::pe()), 8, l43),
        (Algorithm::Nic(Descriptor::pe()), 8, l72),
        (Algorithm::Host(Descriptor::pe()), 8, l72),
    ];
    println!(
        "{:<24} {:>10} {:>8} {:>11} {:>9} {:>13} {:>11}",
        "cell", "mean_us", "from", "period", "skipped", "simulated", "events"
    );
    let mut stalled = Vec::new();
    for (alg, procs, nic) in cells {
        let label = format!("{}@{procs} {}", alg.name(), nic.name);
        let m = BarrierExperiment::new(procs, alg)
            .nic(nic)
            .rounds(ROUNDS, WARMUP)
            .run()
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        let (from, period) = match m.steady {
            Some(p) => (
                p.from_round.to_string(),
                format!("{}r/{:.0}us", p.rounds, p.us),
            ),
            None => ("-".into(), "none".into()),
        };
        let (skipped, skipped_events) = m.fast_forward.map_or((0, 0), |f| (f.rounds, f.events));
        println!(
            "{label:<24} {:>10.3} {from:>8} {period:>11} {skipped:>9} {:>13} {:>11}",
            m.mean_us,
            m.events - skipped_events,
            m.events
        );
        if m.fast_forward.is_none() {
            stalled.push(label);
        }
    }
    if stalled.is_empty() {
        println!("every cell fast-forwarded");
        ExitCode::SUCCESS
    } else {
        eprintln!("no longer fast-forwarding: {}", stalled.join(", "));
        ExitCode::FAILURE
    }
}
