//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p gmsim-bench --bin repro -- all
//! cargo run --release -p gmsim-bench --bin repro -- fig5a fig5b headline
//! cargo run --release -p gmsim-bench --bin repro -- --smoke all
//! cargo run --release -p gmsim-bench --bin repro -- --trace trace.json
//! ```
//!
//! Every study is one entry of [`STUDIES`]; `all`, the usage text and the
//! check for unknown ids all come from that list (DESIGN.md §5). The gated
//! studies declare their full grid once and `--smoke` keeps a subset of its
//! cells (see `gated.rs`); their [`Check`]s set the exit code and their rows
//! land in `BENCH_<id>.json` at the workspace root.
//!
//! `--trace <path>` runs a 16-node NIC-based PE barrier with structured
//! tracing on and writes a chrome://tracing (Perfetto-loadable) JSON file.
//!
//! Exit status: 0 when every study finishes and every check passes, 1 when
//! a check fails or a study cannot finish, 2 on a usage error.

mod gated;
mod studies;
mod trace;

use std::collections::BTreeMap;
use std::fmt;
use std::process::ExitCode;

use gmsim_testbed::{BarrierExperiment, Measurement, SweepEngine, Table};

/// One entry of the study registry.
struct Study {
    id: &'static str,
    title: &'static str,
    run: fn(&mut Ctx) -> Result<(), StudyError>,
}

/// Every study, in the order `all` runs them.
const STUDIES: &[Study] = &[
    Study {
        id: "fig5a",
        title: "Fig. 5(a): barrier latency vs nodes, LANai 4.3",
        run: |_| studies::fig5_latency(gmsim_lanai::NicModel::LANAI_4_3, &[2, 4, 8, 16]),
    },
    Study {
        id: "fig5b",
        title: "Fig. 5(b): factor of improvement (host / NIC), LANai 4.3",
        run: |_| studies::fig5_improvement(gmsim_lanai::NicModel::LANAI_4_3, &[2, 4, 8, 16]),
    },
    Study {
        id: "fig5c",
        title: "Fig. 5(c): barrier latency vs nodes, LANai 7.2",
        run: |_| studies::fig5_latency(gmsim_lanai::NicModel::LANAI_7_2, &[2, 4, 8]),
    },
    Study {
        id: "fig5d",
        title: "Fig. 5(d): factor of improvement (host / NIC), LANai 7.2",
        run: |_| studies::fig5_improvement(gmsim_lanai::NicModel::LANAI_7_2, &[2, 4, 8]),
    },
    Study {
        id: "fig2",
        title: "Fig. 2 / Eqs. 1-3: timing model components vs simulation",
        run: studies::fig2,
    },
    Study {
        id: "gbdim",
        title: "§6: GB latency vs tree dimension, LANai 4.3",
        run: studies::gbdim,
    },
    Study {
        id: "headline",
        title: "§1/§6: the paper's published numbers vs this reproduction",
        run: studies::headline,
    },
    Study {
        id: "scale",
        title: "§2.2: barrier latency vs nodes, 32..4096, vs the analytic model",
        run: gated::scale,
    },
    Study {
        id: "layer",
        title: "§2.2: factor of improvement vs host-layer overhead, 16n LANai 4.3",
        run: studies::layer,
    },
    Study {
        id: "fuzzy",
        title: "§2.1: compute overlapped with the NIC barrier, 8n LANai 4.3",
        run: studies::fuzzy,
    },
    Study {
        id: "ablate",
        title: "§3: design-choice ablations",
        run: studies::ablate,
    },
    Study {
        id: "mpi",
        title: "§8: MPI_Barrier over GM, NIC-bound vs host-bound (per-barrier us)",
        run: studies::mpi,
    },
    Study {
        id: "util",
        title: "§1: host processor cost per barrier, 16n LANai 4.3",
        run: studies::util,
    },
    Study {
        id: "dissem",
        title: "extension: dissemination barrier vs PE, LANai 4.3",
        run: studies::dissem,
    },
    Study {
        id: "scan",
        title: "extension: NIC-offloaded MPI_Scan vs host-based, LANai 4.3",
        run: studies::scan,
    },
    Study {
        id: "breakdown",
        title: "§2.2 / Eqs. 1-2: per-phase host-vs-NIC cost decomposition, LANai 4.3",
        run: studies::breakdown,
    },
    Study {
        id: "faults",
        title: "extension: NIC-PE barrier latency vs drop rate, 8n LANai 4.3",
        run: gated::faults,
    },
    Study {
        id: "multitenant",
        title: "extension: concurrent-team interference, LANai 4.3",
        run: gated::multitenant,
    },
    Study {
        id: "payload",
        title: "extension: collective latency vs message size, eager vs pipelined",
        run: gated::payload,
    },
    Study {
        id: "advisor",
        title: "extension: the advisor's pick vs the measured-best algorithm",
        run: gated::advisor,
    },
    Study {
        id: "fabric",
        title: "extension: algorithm x fabric x routing vs the per-fabric model",
        run: gated::fabric,
    },
    Study {
        id: "trace",
        title: "diagnostic: every wire event of one 4-node NIC-based PE barrier",
        run: studies::trace,
    },
];

/// Why a study could not finish: the cell (N and algorithm) or file it
/// failed on, and the error.
struct StudyError(String);

impl fmt::Display for StudyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// A gated value: it passes while `|value| <= bound`.
struct Check {
    label: String,
    value: f64,
    bound: f64,
}

impl Check {
    fn pass(&self) -> bool {
        self.value.abs() <= self.bound
    }
}

/// One object of an artifact's row array, fields in insertion order.
#[derive(Default)]
struct Row(Vec<(&'static str, String)>);

impl Row {
    /// A field whose `Display` form is already JSON (integers, bools,
    /// floats printed in full).
    fn val(mut self, key: &'static str, value: impl fmt::Display) -> Self {
        self.0.push((key, value.to_string()));
        self
    }

    /// A float with `prec` decimals.
    fn num(self, key: &'static str, value: f64, prec: usize) -> Self {
        self.val(key, format!("{value:.prec$}"))
    }

    fn text(self, key: &'static str, value: &str) -> Self {
        self.val(key, format!("{value:?}"))
    }

    /// The row as one JSON object.
    fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// A study's view of one run: the mode it runs in, and what it hands back
/// to the driver — its checks, and its bounds and row arrays for the
/// artifact.
#[derive(Default)]
struct Ctx {
    smoke: bool,
    checks: Vec<Check>,
    bounds: Row,
    rows: BTreeMap<&'static str, Vec<Row>>,
}

impl Ctx {
    /// Append `row` to the artifact's array named `array`.
    fn push(&mut self, array: &'static str, row: Row) {
        self.rows.entry(array).or_default().push(row);
    }

    /// Gate `value` against `bound`: record the check, labelled by `row`,
    /// and append `row` with the check's `err` (scientific where four
    /// decimals would round it to zero) and `pass` fields.
    fn gate(&mut self, array: &'static str, row: Row, value: f64, bound: f64) {
        let check = Check {
            label: row.json(),
            value,
            bound,
        };
        let err = if check.value == 0.0 || check.value.abs() >= 5e-5 {
            format!("{:.4}", check.value)
        } else {
            format!("{:.3e}", check.value)
        };
        self.push(array, row.val("err", err).val("pass", check.pass()));
        self.checks.push(check);
    }
}

/// Run one barrier experiment, naming the cell if it fails.
fn run(e: &BarrierExperiment) -> Result<Measurement, StudyError> {
    e.run()
        .map_err(|err| StudyError(format!("cell n={} {}: {err}", e.procs, e.algorithm.name())))
}

/// The mean barrier latency of one experiment, µs.
fn measure(e: BarrierExperiment) -> Result<f64, StudyError> {
    run(&e).map(|m| m.mean_us)
}

/// Run `cells` through the [`SweepEngine`]; results come back in cell
/// order, or the error of the first cell that failed.
fn sweep<C: Sync, R: Send + Sync>(
    cells: &[C],
    f: impl Fn(&C) -> Result<R, StudyError> + Sync,
) -> Result<Vec<R>, StudyError> {
    SweepEngine::new()
        .run(cells, |_, c| f(c))
        .into_iter()
        .collect()
}

/// Run one study, print its row arrays as tables, write its artifact,
/// report its failed checks, and return whether it finished with every
/// check passing.
fn run_study(study: &Study, smoke: bool) -> bool {
    let mode = if smoke { " (smoke)" } else { "" };
    println!("\n=== {}{mode}: {} ===", study.id, study.title);
    let mut ctx = Ctx {
        smoke,
        ..Ctx::default()
    };
    let finished = (study.run)(&mut ctx).and_then(|()| {
        if ctx.rows.is_empty() {
            return Ok(());
        }
        for (name, rows) in &ctx.rows {
            let mut t = Table::new(rows[0].0.iter().map(|(key, _)| *key).collect());
            for row in rows {
                t.row(row.0.iter().map(|(_, v)| v.trim_matches('"')).collect());
            }
            print!("-- {name} --\n{}", t.render());
        }
        write_artifact(study.id, &ctx)
    });
    if let Err(err) = finished {
        eprintln!("{}: {err}", study.id);
        return false;
    }
    for c in ctx.checks.iter().filter(|c| !c.pass()) {
        eprintln!(
            "{}: FAIL {}: err {:+.3e} exceeds the bound {}",
            study.id, c.label, c.value, c.bound
        );
    }
    ctx.checks.iter().all(Check::pass)
}

/// Write `BENCH_<id>.json` at the workspace root: the shared envelope, the
/// study's bounds, then its row arrays.
fn write_artifact(id: &str, ctx: &Ctx) -> Result<(), StudyError> {
    let host_cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut out = format!(
        "{{\n  \"schema\": \"gmsim-study/v3\",\n  \"study\": \"{id}\",\n  \"smoke\": {},\n  \
         \"host_cores\": {host_cores},\n  \"sweep_workers\": {},\n  \"pass\": {},\n  \
         \"bounds\": {}",
        ctx.smoke,
        SweepEngine::new().effective_workers(usize::MAX),
        ctx.checks.iter().all(Check::pass),
        ctx.bounds.json()
    );
    for (name, rows) in &ctx.rows {
        let rows: Vec<String> = rows.iter().map(|r| format!("    {}", r.json())).collect();
        out += &format!(",\n  \"{name}\": [\n{}\n  ]", rows.join(",\n"));
    }
    out += "\n}\n";
    let path = format!("{}/../../BENCH_{id}.json", env!("CARGO_MANIFEST_DIR"));
    std::fs::write(&path, out).map_err(|err| StudyError(format!("writing {path}: {err}")))?;
    println!("wrote {path}");
    Ok(())
}

/// A command line `repro` cannot run.
#[derive(Debug, PartialEq)]
enum ArgError {
    UnknownId(String),
    MissingTracePath,
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::UnknownId(id) => write!(f, "unknown study id: {id}"),
            ArgError::MissingTracePath => write!(f, "--trace needs an output path"),
        }
    }
}

/// A parsed command line.
struct Args {
    smoke: bool,
    trace: Option<String>,
    studies: Vec<&'static Study>,
}

/// Parse `[--smoke] [--trace <path>] [all | <id>...]`, in any order. No id
/// and no `--trace` means `all`.
fn parse(args: &[String]) -> Result<Args, ArgError> {
    let mut parsed = Args {
        smoke: false,
        trace: None,
        studies: Vec::new(),
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => parsed.smoke = true,
            "--trace" => {
                parsed.trace = Some(args.next().ok_or(ArgError::MissingTracePath)?.clone())
            }
            "all" => parsed.studies.extend(STUDIES),
            id => parsed.studies.push(
                STUDIES
                    .iter()
                    .find(|s| s.id == id)
                    .ok_or_else(|| ArgError::UnknownId(id.to_string()))?,
            ),
        }
    }
    if parsed.studies.is_empty() && parsed.trace.is_none() {
        parsed.studies.extend(STUDIES);
    }
    Ok(parsed)
}

fn usage() -> String {
    let mut out =
        "usage: repro [--smoke] [--trace <path>] [all | <id>...]\n\nstudies:\n".to_string();
    for s in STUDIES {
        out += &format!("  {:<12} {}\n", s.id, s.title);
    }
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&args) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("repro: {err}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    if let Some(path) = &args.trace {
        if let Err(err) = trace::export_chrome(path) {
            eprintln!("--trace: {err}");
            ok = false;
        }
    }
    for study in &args.studies {
        ok &= run_study(study, args.smoke);
    }
    ExitCode::from(u8::from(!ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ids(args: &[&str]) -> Result<Vec<&'static str>, ArgError> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse(&args).map(|a| a.studies.iter().map(|s| s.id).collect())
    }

    #[test]
    fn unknown_id_is_an_error() {
        assert_eq!(
            parse_ids(&["fig5a", "nosuchid"]),
            Err(ArgError::UnknownId("nosuchid".into()))
        );
        assert!(usage().contains("  fig5a "), "the usage text lists the ids");
    }

    #[test]
    fn trace_needs_a_path() {
        assert_eq!(parse_ids(&["--trace"]), Err(ArgError::MissingTracePath));
        let args = parse(&["--trace".into(), "t.json".into()]).expect("valid");
        assert_eq!(args.trace.as_deref(), Some("t.json"));
        assert!(args.studies.is_empty(), "--trace alone runs no study");
    }

    #[test]
    fn all_expands_to_the_registry_in_order() {
        let registry: Vec<&str> = STUDIES.iter().map(|s| s.id).collect();
        assert_eq!(parse_ids(&["all"]), Ok(registry.clone()));
        assert_eq!(parse_ids(&["--smoke"]), Ok(registry));
        assert_eq!(
            parse_ids(&["headline", "trace"]),
            Ok(vec!["headline", "trace"])
        );
    }
}
