//! `gmbench`: times the simulator end to end and layer by layer on five
//! fixed workloads, and checks its outputs while doing so.
//!
//! ```text
//! gmbench                         every workload, each in its own child process
//! gmbench --workload NAME         one workload, in this process
//!         [--seed S] [--seconds T] [--reps K] [--trace 0|1] [--smoke]
//! gmbench --compare A.json B.json
//! ```
//!
//! A single-workload run prints a report and, as its last line, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}` with the
//! end-to-end metrics (`--trace 0`), the per-layer metrics (`--trace 1`),
//! or both (no `--trace`). It also writes `target/gmbench/<workload>.json`
//! with every sample, the simulated outputs and the failed checks. The exit
//! code is non-zero when any cell or check failed. See README.md beside
//! this file for the metrics and workloads.

mod cell;
mod compare;
mod json;
mod measure;
mod stats;
mod workload;

use json::Json;
use measure::{Options, Report};
use stats::quartiles;
use std::path::Path;
use std::process::{Command, ExitCode};
use workload::WORKLOADS;

/// The declared metric names, units, directions and bounds.
const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

const OUT_DIR: &str = "target/gmbench";
const SCHEMA: u32 = 1;

struct Args {
    workload: Option<String>,
    opts: Options,
    /// `None`: both metric sets.
    trace: Option<bool>,
    compare: Option<(String, String)>,
}

fn usage() -> String {
    let mut s = "usage: gmbench [--workload NAME] [--seed S] [--seconds T] [--reps K] [--trace 0|1] [--smoke]\n\
                 \x20      gmbench --compare A.json B.json\n\nworkloads:\n"
        .to_string();
    for w in &WORKLOADS {
        s += &format!("  {:<16} {}\n", w.name, w.why);
    }
    s
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        opts: Options {
            seed: 42,
            seconds: 10.0,
            reps: None,
            smoke: false,
            per_layer: true,
        },
        trace: None,
        compare: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.iter().any(|w| w.name == name) {
                    return Err(format!("unknown workload '{name}'"));
                }
                args.workload = Some(name);
            }
            "--seed" => args.opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                args.opts.seconds = s;
            }
            "--reps" => {
                let k: usize = value()?.parse().map_err(|e| format!("--reps: {e}"))?;
                if k == 0 {
                    return Err("--reps must be at least 1".into());
                }
                args.opts.reps = Some(k);
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                })
            }
            "--smoke" => args.opts.smoke = true,
            "--compare" => args.compare = Some((value()?, value()?)),
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument '{other}'\n{}", usage())),
        }
    }
    args.opts.per_layer = args.trace != Some(false);
    Ok(args)
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The workload's entry in a results file.
fn report_json(r: &Report) -> Json {
    let num = Json::Num;
    let cells = r.cells.iter().map(|c| {
        Json::obj([
            ("label", Json::str(c.label.as_str())),
            ("rounds", num(c.rounds as f64)),
            ("mean_us", num(c.mean_us)),
            ("model_us", num(c.model_us)),
            ("events", num(c.events as f64)),
            ("round_us_p50", num(c.round_us_p50)),
            (
                "round_us_tail",
                c.round_us_tail.map_or(Json::Null, |(p, v)| {
                    Json::obj([("p", num(p)), ("value", num(v))])
                }),
            ),
            ("round_count", num(c.round_count as f64)),
        ])
    });
    let end_to_end = r.end_to_end.iter().map(|s| {
        let (q1, med, q3) = quartiles(&s.samples);
        let stats = Json::obj([
            ("unit", Json::str(s.unit)),
            ("value", num(s.value)),
            ("raw", num(s.raw)),
            ("median", num(med)),
            ("q1", num(q1)),
            ("q3", num(q3)),
            ("n", num(s.samples.len() as f64)),
            (
                "samples",
                Json::Arr(s.samples.iter().copied().map(num).collect()),
            ),
        ]);
        (s.name, stats)
    });
    let per_layer = r.per_layer.iter().map(|v| {
        (
            v.name,
            Json::obj([("unit", Json::str(v.unit)), ("value", num(v.value))]),
        )
    });
    Json::obj([
        ("name", Json::str(r.workload.as_str())),
        ("repetitions", num(r.reps as f64)),
        ("calibration_s", num(r.calibration_s)),
        ("cells", Json::Arr(cells.collect())),
        (
            "sim",
            Json::obj([
                ("fingerprint", Json::str(format!("{:#018x}", r.fingerprint))),
                ("paper_err_pct", r.paper_err_pct.map_or(Json::Null, num)),
                ("model_err_pct", num(r.model_err_pct)),
            ]),
        ),
        ("end_to_end", Json::obj(end_to_end)),
        ("per_layer", Json::obj(per_layer)),
        ("attempted", num(r.attempted as f64)),
        (
            "failed",
            Json::Arr(
                r.failed
                    .iter()
                    .map(|(what, why)| {
                        Json::obj([
                            ("what", Json::str(what.as_str())),
                            ("why", Json::str(why.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// A results file: run metadata plus one entry per workload.
fn results_file(seed: u64, smoke: bool, workloads: Vec<Json>) -> Json {
    Json::obj([
        ("schema", Json::Num(SCHEMA as f64)),
        ("host_cores", Json::Num(host_cores() as f64)),
        ("seed", Json::Num(seed as f64)),
        ("smoke", Json::Bool(smoke)),
        ("workloads", Json::Arr(workloads)),
    ])
}

fn write(path: &Path, value: &Json) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    std::fs::write(path, format!("{value}\n")).map_err(|e| format!("{}: {e}", path.display()))
}

fn print_report(r: &Report) {
    println!(
        "== {} (seed {}, {} repetitions, {} host cores) ==",
        r.workload,
        r.seed,
        r.reps,
        host_cores()
    );
    println!(
        "  {:<44} {:>6} {:>11} {:>11} {:>11} {:>18} {:>10}",
        "cell", "rounds", "sim µs", "model µs", "p50 µs", "tail µs", "events"
    );
    for c in &r.cells {
        let tail = c
            .round_us_tail
            .map_or("-".to_string(), |(p, v)| format!("p{} {v:.2}", p * 100.0));
        println!(
            "  {:<44} {:>6} {:>11.3} {:>11.3} {:>11.3} {:>18} {:>10}",
            c.label, c.rounds, c.mean_us, c.model_us, c.round_us_p50, tail, c.events
        );
    }
    println!("  sim.fingerprint {:#018x}", r.fingerprint);
    if let Some(e) = r.paper_err_pct {
        println!("  paper_err_pct {e:.3} %");
    }
    println!("  model_err_pct {:.3} %", r.model_err_pct);
    println!(
        "  calibration kernel {:.3} ms (reference {:.3} ms)",
        r.calibration_s * 1e3,
        measure::CALIBRATION_REF_S * 1e3
    );
    for s in &r.end_to_end {
        let (q1, med, q3) = quartiles(&s.samples);
        println!(
            "  {:<36} {:>14.6} {:<6} [unscaled {:.6}; samples median {med:.6}, q1 {q1:.6}, q3 {q3:.6}, n {}]",
            s.name,
            s.value,
            s.unit,
            s.raw,
            s.samples.len()
        );
    }
    for v in &r.per_layer {
        println!("  {:<36} {:>14.6} {}", v.name, v.value, v.unit);
    }
    for (what, why) in &r.failed {
        println!("  FAILED {what}: {why}");
    }
}

/// The machine-readable last line of a single-workload run.
fn result_line(r: &Report, trace: Option<bool>) -> Json {
    let mut metrics: Vec<(&str, Json)> = Vec::new();
    let entry = |value: f64, unit: &str| {
        Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
    };
    if trace != Some(true) {
        for s in &r.end_to_end {
            metrics.push((s.name, entry(s.value, s.unit)));
        }
    }
    if trace != Some(false) {
        for v in &r.per_layer {
            metrics.push((v.name, entry(v.value, v.unit)));
        }
    }
    Json::obj([
        ("correct", Json::Bool(r.failed.is_empty())),
        ("attempted", Json::Num(r.attempted as f64)),
        ("failed", Json::Num(r.failed.len() as f64)),
        ("metrics", Json::obj(metrics)),
    ])
}

fn run_one(name: &str, args: &Args) -> Result<bool, String> {
    let plan = workload::plan(name, args.opts.seed, args.opts.smoke)
        .ok_or_else(|| format!("unknown workload '{name}'"))?;
    let report = measure::run(name, &plan, &args.opts);
    print_report(&report);
    let path = Path::new(OUT_DIR).join(format!("{name}.json"));
    write(
        &path,
        &results_file(args.opts.seed, args.opts.smoke, vec![report_json(&report)]),
    )?;
    println!("{}", result_line(&report, args.trace));
    Ok(report.failed.is_empty())
}

/// Every workload, each in a child process of its own so that the heap
/// peak and allocator state belong to that workload alone.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating gmbench: {e}"))?;
    let mut ok = true;
    let mut entries = Vec::new();
    for w in &WORKLOADS {
        // A stale file must not stand in for a child that wrote none.
        let path = Path::new(OUT_DIR).join(format!("{}.json", w.name));
        let _ = std::fs::remove_file(&path);
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name])
            .args(["--seed", &args.opts.seed.to_string()])
            .args(["--seconds", &args.opts.seconds.to_string()]);
        if let Some(k) = args.opts.reps {
            cmd.args(["--reps", &k.to_string()]);
        }
        if args.opts.smoke {
            cmd.arg("--smoke");
        }
        if let Some(t) = args.trace {
            cmd.args(["--trace", if t { "1" } else { "0" }]);
        }
        let status = cmd
            .status()
            .map_err(|e| format!("running {}: {e}", w.name))?;
        ok &= status.success();
        let file = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| Json::parse(&text));
        match file {
            Ok(json) => entries.extend(
                json.get("workloads")
                    .map(Json::as_arr)
                    .unwrap_or_default()
                    .iter()
                    .cloned(),
            ),
            Err(e) => {
                ok = false;
                eprintln!("{}: no results ({e})", w.name);
            }
        }
    }
    let all = Path::new(OUT_DIR).join("all.json");
    write(
        &all,
        &results_file(args.opts.seed, args.opts.smoke, entries),
    )?;
    println!(
        "all workloads: {} ({})",
        if ok { "ok" } else { "FAILED" },
        all.display()
    );
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let result = if let Some((a, b)) = &args.compare {
        Json::parse(BENCHMARK_JSON)
            .map_err(|e| format!("BENCHMARK.json: {e}"))
            .and_then(|spec| compare::run(&spec, a, b))
            .map(|flagged| !flagged)
    } else if let Some(name) = &args.workload {
        run_one(name, &args)
    } else {
        run_all(&args)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("gmbench: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names and units `BENCHMARK.json` declares for `section`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let spec = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        spec.get(section)
            .map(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("name and unit")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn every_declared_metric_is_well_named_and_emitted() {
        let well_named = |s: &str| {
            !s.is_empty()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let opts = Options {
            seed: 1,
            seconds: 0.0,
            reps: Some(1),
            smoke: true,
            per_layer: true,
        };
        let plan = workload::plan("allreduce_lossy", opts.seed, true).expect("plan");
        let report = measure::run("allreduce_lossy", &plan, &opts);
        assert!(report.failed.is_empty(), "{:?}", report.failed);
        let emitted_e2e: Vec<(String, String)> = report
            .end_to_end
            .iter()
            .map(|s| (s.name.to_string(), s.unit.to_string()))
            .collect();
        let emitted_layers: Vec<(String, String)> = report
            .per_layer
            .iter()
            .map(|v| (v.name.to_string(), v.unit.to_string()))
            .collect();
        for (section, emitted) in [("end_to_end", emitted_e2e), ("per_layer", emitted_layers)] {
            let declared = declared(section);
            for (name, unit) in &declared {
                assert!(well_named(name), "{name}");
                assert!(
                    emitted.contains(&(name.clone(), unit.clone())),
                    "{name} [{unit}] not emitted"
                );
            }
            assert_eq!(
                declared.len(),
                emitted.len(),
                "{section}: undeclared metrics emitted"
            );
        }
    }

    #[test]
    fn workloads_match_the_declaration() {
        let spec = Json::parse(BENCHMARK_JSON).unwrap();
        let names: Vec<&str> = spec
            .get("workloads")
            .map(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, ours);
        let whys: Vec<&str> = spec
            .get("workloads")
            .map(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|w| w.get("why").and_then(Json::as_str))
            .collect();
        assert_eq!(whys, WORKLOADS.map(|w| w.why));
        for w in &WORKLOADS {
            assert!(workload::plan(w.name, 42, true).is_some(), "{}", w.name);
        }
    }

    #[test]
    fn decorated_and_traced_runs_keep_the_fingerprint() {
        // measure::run checks traced == untraced and serial == parallel(2)
        // on every per-layer run; here on a workload with host and NIC cells.
        let opts = Options {
            seed: 42,
            seconds: 0.0,
            reps: Some(2),
            smoke: true,
            per_layer: true,
        };
        let plan = workload::plan("paper_testbed", 42, true).unwrap();
        let report = measure::run("paper_testbed", &plan, &opts);
        assert!(report.failed.is_empty(), "{:?}", report.failed);
        assert!(report.attempted >= plan.cells.len() as u64 + 3);
    }

    #[test]
    fn bad_arguments_are_rejected() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        assert!(parse("--workload nope").is_err());
        assert!(parse("--reps 0").is_err());
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seconds -1").is_err());
        assert!(parse("--seed").is_err());
        let a = parse("--workload scale_clos --seed 7 --trace 0").unwrap();
        assert_eq!(a.workload.as_deref(), Some("scale_clos"));
        assert_eq!(
            (a.opts.seed, a.trace, a.opts.per_layer),
            (7, Some(false), false)
        );
    }
}
