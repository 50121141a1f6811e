//! Parallel experiment sweeps.
//!
//! Simulations are independent worlds, so a parameter sweep is
//! embarrassingly parallel. The heavy lifting — guided self-scheduling
//! over scoped threads, input-order results, the determinism argument —
//! lives in [`crate::engine::SweepEngine`]; this module keeps the
//! experiment-shaped conveniences on top of it.

use crate::engine::SweepEngine;
use crate::experiment::{Algorithm, BarrierExperiment, ExperimentError, Measurement};
use nic_barrier::Descriptor;

/// Run every experiment, in parallel across available cores, preserving
/// input order in the result.
///
/// # Errors
/// The error of the first experiment, in input order, that failed.
pub fn run_all(experiments: &[BarrierExperiment]) -> Result<Vec<Measurement>, ExperimentError> {
    run_all_with(experiments, BarrierExperiment::run)
        .into_iter()
        .collect()
}

/// Generalized parallel map over experiments (lets benches substitute
/// instrumented runners).
pub fn run_all_with<R, F>(experiments: &[BarrierExperiment], f: F) -> Vec<R>
where
    R: Send + Sync,
    F: Fn(&BarrierExperiment) -> R + Sync,
{
    SweepEngine::new().run(experiments, |_, e| f(e))
}

/// Find the best GB tree dimension for `base` (a GB algorithm over at
/// least two processes), sweeping `d ∈ 1..procs` exactly as §6 describes:
/// "we ran the test for every dimension from 1 to N − 1 ... the latencies
/// reported are the minimum latencies over all dimensions." Returns
/// `(dim, measurement)`.
///
/// # Errors
/// [`ExperimentError::NoGbDims`] when `base` has no dimension to sweep,
/// else the first failed candidate's error (lowest dimension first).
pub fn best_gb_dim(base: BarrierExperiment) -> Result<(usize, Measurement), ExperimentError> {
    let procs = base.procs;
    let side: fn(Descriptor) -> Algorithm = match base.algorithm {
        Algorithm::Nic(Descriptor::Gb { .. }) if procs >= 2 => Algorithm::Nic,
        Algorithm::Host(Descriptor::Gb { .. }) if procs >= 2 => Algorithm::Host,
        algorithm => return Err(ExperimentError::NoGbDims { algorithm, procs }),
    };
    let candidates: Vec<BarrierExperiment> = (1..procs)
        .map(|dim| {
            let mut e = base;
            e.algorithm = side(Descriptor::gb(dim));
            e
        })
        .collect();
    let (best_idx, best) = run_all(&candidates)?
        .into_iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| a.mean_us.total_cmp(&b.mean_us))
        .expect("procs >= 2 leaves at least one dimension");
    Ok((best_idx + 1, best))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_results_match_serial() {
        let exps: Vec<BarrierExperiment> = [2usize, 4, 8]
            .iter()
            .map(|&n| BarrierExperiment::new(n, Algorithm::Nic(Descriptor::Pe)).rounds(40, 5))
            .collect();
        let parallel = run_all(&exps).unwrap();
        let serial: Vec<Measurement> = exps.iter().map(|e| e.run().unwrap()).collect();
        for (p, s) in parallel.iter().zip(&serial) {
            assert_eq!(p.mean_us, s.mean_us, "simulations are deterministic");
        }
    }

    #[test]
    fn empty_sweep() {
        assert!(run_all(&[]).unwrap().is_empty());
    }

    #[test]
    fn best_dim_is_found() {
        let base = BarrierExperiment::new(6, Algorithm::Nic(Descriptor::gb(1))).rounds(40, 5);
        let (dim, best) = best_gb_dim(base).unwrap();
        assert!((1..6).contains(&dim));
        // The best must not lose to any individual dimension.
        for d in 1..6 {
            let m = BarrierExperiment::new(6, Algorithm::Nic(Descriptor::gb(d)))
                .rounds(40, 5)
                .run()
                .unwrap();
            assert!(best.mean_us <= m.mean_us + 1e-9, "dim {d} beat the best");
        }
    }

    #[test]
    fn best_dim_rejects_pe() {
        let base = BarrierExperiment::new(4, Algorithm::Nic(Descriptor::Pe));
        assert_eq!(
            best_gb_dim(base).unwrap_err(),
            ExperimentError::NoGbDims {
                algorithm: base.algorithm,
                procs: 4
            }
        );
    }

    #[test]
    fn best_dim_rejects_a_single_process() {
        let base = BarrierExperiment::new(1, Algorithm::Host(Descriptor::gb(1)));
        assert!(matches!(
            best_gb_dim(base).unwrap_err(),
            ExperimentError::NoGbDims { procs: 1, .. }
        ));
    }

    #[test]
    fn run_all_returns_the_first_failure_in_input_order() {
        let ok = BarrierExperiment::new(2, Algorithm::Nic(Descriptor::Pe)).rounds(10, 2);
        let exps = [ok, ok.rounds(0, 0), BarrierExperiment::new(0, ok.algorithm)];
        assert_eq!(run_all(&exps).unwrap_err(), ExperimentError::ZeroRounds);
    }
}
