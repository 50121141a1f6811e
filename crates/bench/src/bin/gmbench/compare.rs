//! `gmbench --compare A B`: per (metric, workload), the median and quartiles
//! of each side's runs and a verdict, by the bounds `BENCHMARK.json` fixes
//! and a rule fit for noisy shared hosts. `A` and `B` are results files, or
//! comma-separated lists of them (one run each; `all.json` files hold every
//! workload). B is better only over at least ten runs a side, when it beats
//! A in nine tenths of all run pairs and the medians differ by more than
//! A's quartile spread; where that spread exceeds the bound the metric is
//! unresolved unless every B run beats every A run.

use crate::json::Json;
use crate::stats::quartiles;

/// Runs a side needs before a gain may be claimed.
const MIN_RUNS_FOR_GAIN: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unchanged,
    Unresolved,
}

/// `a` holds the baseline's runs, `b` the candidate's; `bound` is the share
/// of A's median by which B may be worse and still count as unchanged.
pub fn verdict(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let beats = |x: f64, y: f64| if higher_is_better { x > y } else { x < y };
    let (q1, med_a, q3) = quartiles(a);
    let (_, med_b, _) = quartiles(b);
    let spread = (q3 - q1) / med_a.abs();
    let worse_by = if higher_is_better {
        (med_a - med_b) / med_a.abs()
    } else {
        (med_b - med_a) / med_a.abs()
    };
    let pairs = (a.len() * b.len()) as f64;
    let wins = a
        .iter()
        .flat_map(|&x| b.iter().map(move |&y| (x, y)))
        .filter(|&(x, y)| beats(y, x))
        .count() as f64;
    let enough_runs = a.len().min(b.len()) >= MIN_RUNS_FOR_GAIN;
    if enough_runs && wins >= 0.9 * pairs && -worse_by > spread {
        Verdict::Better
    } else if spread > bound && wins < pairs {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Unchanged
    }
}

/// One side: every workload entry of every file, each with its file's seed.
fn load(paths: &str) -> Result<Vec<(f64, Json)>, String> {
    let mut entries = Vec::new();
    for path in paths.split(',') {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let file = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let seed = file.get("seed").and_then(Json::as_f64).unwrap_or(f64::NAN);
        for w in file.get("workloads").map(Json::as_arr).unwrap_or_default() {
            entries.push((seed, w.clone()));
        }
    }
    Ok(entries)
}

fn name(w: &Json) -> &str {
    w.get("name").and_then(Json::as_str).unwrap_or("?")
}

/// The value each run on `side` reported for `metric` in `section`.
fn values(side: &[&(f64, Json)], section: &str, metric: &str) -> Vec<f64> {
    side.iter()
        .filter_map(|(_, w)| w.get(section)?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Print the comparison; `Err` on unreadable input. Returns whether any
/// metric got worse or the simulated results changed.
pub fn run(spec: &Json, a_paths: &str, b_paths: &str) -> Result<bool, String> {
    let (a, b) = (load(a_paths)?, load(b_paths)?);
    let mut flagged = false;
    println!("A = {a_paths}\nB = {b_paths}");
    let mut workloads: Vec<&str> = Vec::new();
    for (_, w) in &a {
        if !workloads.contains(&name(w)) {
            workloads.push(name(w));
        }
    }
    for workload in workloads {
        let ra: Vec<_> = a.iter().filter(|(_, w)| name(w) == workload).collect();
        let rb: Vec<_> = b.iter().filter(|(_, w)| name(w) == workload).collect();
        println!("\n== {workload} ({} vs {} runs) ==", ra.len(), rb.len());
        if rb.is_empty() {
            println!("  missing from B");
            continue;
        }
        // Simulated outputs must match run for run at equal seeds.
        for (seed, wb) in &rb {
            for (_, wa) in ra.iter().filter(|(s, _)| s == seed) {
                for key in ["fingerprint", "paper_err_pct", "model_err_pct"] {
                    let sim = |w: &Json| w.get("sim").and_then(|s| s.get(key)).cloned();
                    if sim(wa) != sim(wb) {
                        flagged = true;
                        println!(
                            "  MODEL CHANGE at seed {seed}: sim.{key} {} -> {}",
                            sim(wa).unwrap_or(Json::Null),
                            sim(wb).unwrap_or(Json::Null)
                        );
                    }
                }
            }
        }
        println!(
            "  {:<14} {:>12} {:>25} {:>12} {:>25}  verdict",
            "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]"
        );
        for m in spec.get("end_to_end").map(Json::as_arr).unwrap_or_default() {
            let metric = m.get("name").and_then(Json::as_str).unwrap_or("?");
            let higher = m.get("better").and_then(Json::as_str) == Some("higher");
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let (xa, xb) = (
                values(&ra, "end_to_end", metric),
                values(&rb, "end_to_end", metric),
            );
            if xa.is_empty() || xb.is_empty() {
                println!("  {metric:<14} not in both sides");
                continue;
            }
            let v = verdict(&xa, &xb, higher, bound);
            flagged |= v == Verdict::Worse;
            let (a1, am, a3) = quartiles(&xa);
            let (b1, bm, b3) = quartiles(&xb);
            println!(
                "  {metric:<14} {am:>12.6} [{a1:>11.6}, {a3:>11.6}] {bm:>12.6} [{b1:>11.6}, {b3:>11.6}]  {v:?} (bound {bound})"
            );
        }
        // Per-layer metrics carry no bound: medians and their ratio only.
        if let Some(Json::Obj(layers)) = ra[0].1.get("per_layer") {
            for (metric, _) in layers {
                let (xa, xb) = (
                    values(&ra, "per_layer", metric),
                    values(&rb, "per_layer", metric),
                );
                if xa.is_empty() || xb.is_empty() {
                    continue;
                }
                let (x, y) = (quartiles(&xa).1, quartiles(&xb).1);
                let ratio = if x != 0.0 { y / x } else { f64::NAN };
                println!("  {metric:<34} {x:>14.6} {y:>14.6}  B/A {ratio:.3}");
            }
        }
    }
    Ok(flagged)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(x: f64) -> Vec<f64> {
        (0..10).map(|i| x * (1.0 + 0.002 * i as f64)).collect()
    }

    #[test]
    fn verdicts_follow_the_noisy_host_rule() {
        let a = around(1.0);
        // Clearly faster over ten runs a side.
        assert_eq!(verdict(&a, &around(0.8), false, 0.1), Verdict::Better);
        // The same gain over one run a side is not claimed.
        assert_eq!(verdict(&[1.0], &[0.8], false, 0.1), Verdict::Unchanged);
        // Same distribution.
        assert_eq!(verdict(&a, &a, false, 0.1), Verdict::Unchanged);
        // 20% slower with a 10% bound, whatever the run count.
        assert_eq!(verdict(&a, &around(1.2), false, 0.1), Verdict::Worse);
        assert_eq!(verdict(&[1.0], &[1.2], false, 0.1), Verdict::Worse);
        // 5% slower: within the bound.
        assert_eq!(verdict(&a, &around(1.05), false, 0.1), Verdict::Unchanged);
        // Higher-is-better flips the direction.
        assert_eq!(verdict(&a, &around(0.8), true, 0.1), Verdict::Worse);
        // A baseline spread wider than the bound cannot resolve a change.
        let noisy = [0.5, 1.0, 1.5, 0.7, 1.3];
        assert_eq!(
            verdict(&noisy, &[1.1, 0.9, 1.2], false, 0.1),
            Verdict::Unresolved
        );
    }
}
