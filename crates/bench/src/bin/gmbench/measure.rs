//! Running one workload: repeated untraced repetitions for the end-to-end
//! metrics, then (when asked) one traced pass plus the `parallel(2)` re-run
//! for the per-layer metrics, with every correctness check along the way.

use crate::cell::{self, Cell, CellRun, Mode, Outcome, Timing, TraceStats};
use crate::stats::{median, tail_percentile, Fnv};
use crate::workload::{self, Plan};
use gmsim_des::{Counter, Histogram, MetricSet};
use nic_barrier::advisor::{predict, recommend};
use nic_barrier::nic::{TURNAROUND_BINS, TURNAROUND_BIN_US};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Repetitions a timed run makes at least, however long they take.
const MIN_REPS: usize = 3;

/// Mean |paper − simulated| above which `paper_testbed` counts as failed.
const PAPER_ERR_LIMIT_PCT: f64 = 5.0;

/// Seconds [`calibration_s`] takes on the reference host: the 2-core
/// x86-64 VM the baselines in README.md were measured on, when quiet.
/// Shared hosts drift by 10–30% in speed over minutes as their neighbours
/// come and go; timing the kernel beside every repetition and scaling by
/// `CALIBRATION_REF_S / kernel time` reports host time at the reference
/// speed, which cancels most of that drift. The unscaled times are kept in
/// the results file.
pub const CALIBRATION_REF_S: f64 = 0.010;

/// Entries the calibration kernel's priority queue holds.
const CALIBRATION_QUEUE: usize = 1 << 14;

pub struct Options {
    pub seed: u64,
    /// Keep repeating until this much time has passed (after one
    /// untimed warm-up repetition)…
    pub seconds: f64,
    /// …unless an exact repetition count is given.
    pub reps: Option<usize>,
    /// The cut-down plan, no warm-up, one repetition unless `reps` says.
    pub smoke: bool,
    /// Run the traced pass and the `parallel(2)` re-run too.
    pub per_layer: bool,
}

/// An end-to-end metric: the value reported, the same estimate without the
/// calibration scaling, and one (scaled) sample per repetition.
pub struct Samples {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub raw: f64,
    pub samples: Vec<f64>,
}

/// A per-layer metric: one value per run.
pub struct Value {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// What one cell simulated, for the report.
pub struct CellSummary {
    pub label: String,
    pub rounds: u64,
    pub mean_us: f64,
    pub model_us: f64,
    pub events: u64,
    pub round_us_p50: f64,
    pub round_us_tail: Option<(f64, f64)>,
    pub round_count: usize,
}

pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub reps: usize,
    pub end_to_end: Vec<Samples>,
    pub per_layer: Vec<Value>,
    pub cells: Vec<CellSummary>,
    pub fingerprint: u64,
    pub paper_err_pct: Option<f64>,
    pub model_err_pct: f64,
    /// Median seconds of the calibration kernel over the repetitions.
    pub calibration_s: f64,
    /// Cell runs plus checks made.
    pub attempted: u64,
    /// `(what, why)` for every cell run or check that failed.
    pub failed: Vec<(String, String)>,
}

/// One repetition: every cell once, then the advisor grid.
#[derive(Default)]
struct Rep {
    /// One timing per cell, in plan order, then (when the plan has a grid)
    /// one for the grid, whose set-up is building the cost model and whose
    /// run is ranking every scenario `passes` times.
    parts: Vec<Timing>,
    outcomes: Vec<Result<Outcome, String>>,
    /// Fingerprint of the cells alone, and of cells plus grid.
    cells_fp: u64,
    fingerprint: u64,
    /// The calibration kernel's time just before this repetition.
    calibration_s: f64,
}

fn sum<'a>(timings: impl IntoIterator<Item = &'a Timing>) -> Timing {
    let mut s = Timing::default();
    for t in timings {
        s.topology_s += t.topology_s;
        s.programs_s += t.programs_s;
        s.cluster_s += t.cluster_s;
        s.run_s += t.run_s;
        s.collect_s += t.collect_s;
        s.teardown_s += t.teardown_s;
    }
    s
}

/// Fold a cell's simulated result into a fingerprint: the mean's bits, the
/// event count and every counter. A change that only makes the simulator
/// faster leaves all of them, and so the fingerprint, unchanged.
fn mix_outcome(h: &mut Fnv, outcome: &Result<Outcome, String>) {
    match outcome {
        Ok(o) => {
            h.mix(o.mean_us.to_bits());
            h.mix(o.events);
            o.metrics.iter().for_each(|(_, v)| h.mix(v));
        }
        Err(_) => h.mix(u64::MAX),
    }
}

fn run_cells(plan: &Plan, mode: Mode) -> (Vec<CellRun>, u64) {
    let runs: Vec<CellRun> = plan.cells.iter().map(|c| cell::run(c, mode)).collect();
    let mut h = Fnv::new();
    runs.iter().for_each(|r| mix_outcome(&mut h, &r.outcome));
    (runs, h.finish())
}

fn rep(plan: &Plan) -> Rep {
    let mut r = Rep::default();
    let (runs, cells_fp) = run_cells(plan, Mode::Plain);
    for run in runs {
        r.parts.push(run.timing);
        r.outcomes.push(run.outcome);
    }
    r.cells_fp = cells_fp;
    let mut h = Fnv::new();
    h.mix(cells_fp);
    if !plan.grid.is_empty() {
        let mut grid = Timing::default();
        let t = Instant::now();
        let model = workload::model(plan.grid[0].0);
        grid.cluster_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        for pass in 0..plan.passes {
            for (_, scenario) in &plan.grid {
                let rec = std::hint::black_box(recommend(&model, scenario));
                if pass == 0 {
                    rec.ranked
                        .iter()
                        .for_each(|c| h.mix(c.predicted_us.to_bits()));
                }
            }
        }
        grid.run_s = t.elapsed().as_secs_f64();
        r.parts.push(grid);
    }
    r.fingerprint = h.finish();
    r
}

/// The system allocator, counting live heap bytes so `peak_heap_mb` is
/// exact: the same allocations give the same peak on every run, where the
/// process's resident set also moves with page-cache and fault-around luck.
/// Relaxed: the counters publish no other data.
struct CountingAlloc;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

impl CountingAlloc {
    fn grew(by: usize) {
        let live = LIVE_BYTES.fetch_add(by, Ordering::Relaxed) + by;
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counting touches only
// two atomics and never the memory itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            Self::grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            Self::grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
            Self::grew(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Most heap this process has held at once so far, MiB.
fn peak_heap_mb() -> f64 {
    PEAK_BYTES.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

/// Sum over parts (each cell, the grid) of the fastest any repetition ran
/// that part. Interference on a shared host only ever adds time, so the
/// fastest run of each part is the steadiest estimate of its cost.
fn fastest(reps: &[Rep], parts: std::ops::Range<usize>, f: fn(&Timing) -> f64) -> f64 {
    parts
        .map(|i| {
            reps.iter()
                .map(|r| f(&r.parts[i]))
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

/// Time a fixed kernel that shares no code with the simulator but
/// resembles its hot loop: a priority queue of `CALIBRATION_QUEUE` entries
/// fed by an xorshift stream. `queue` is reused so the kernel never
/// allocates.
fn calibration_s(queue: &mut BinaryHeap<Reverse<u64>>) -> f64 {
    queue.clear();
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..200_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        queue.push(Reverse(x));
        if queue.len() > CALIBRATION_QUEUE {
            queue.pop();
        }
    }
    std::hint::black_box(queue.len());
    t.elapsed().as_secs_f64()
}

pub fn run(name: &str, plan: &Plan, opts: &Options) -> Report {
    let mut failed: Vec<(String, String)> = Vec::new();
    let mut attempted = 0u64;
    let mut check = |what: &str, result: Result<(), String>| {
        attempted += 1;
        if let Err(why) = result {
            failed.push((what.to_string(), why));
        }
    };

    // Timed repetitions, each after a calibration, following one untimed
    // warm-up that lets allocator pools and caches fill.
    let mut queue = BinaryHeap::with_capacity(CALIBRATION_QUEUE + 1);
    let mut timed = |plan: &Plan| {
        let calibration_s = calibration_s(&mut queue);
        Rep {
            calibration_s,
            ..rep(plan)
        }
    };
    if !opts.smoke {
        timed(plan);
    }
    let start = Instant::now();
    let mut reps = vec![timed(plan)];
    let peak_heap = peak_heap_mb();
    let enough = |n: usize| match opts.reps {
        Some(k) => n >= k,
        None => {
            opts.smoke
                || (n >= MIN_REPS && start.elapsed() >= Duration::from_secs_f64(opts.seconds))
        }
    };
    while !enough(reps.len()) {
        reps.push(timed(plan));
    }

    let first = &reps[0];
    for (cell, outcome) in plan.cells.iter().zip(&first.outcomes) {
        check(
            &format!("cell {}", cell.label()),
            outcome.as_ref().map(|_| ()).map_err(Clone::clone),
        );
    }
    check(
        "repetitions are bit-identical",
        match reps.iter().position(|r| r.fingerprint != first.fingerprint) {
            Some(i) => Err(format!(
                "repetition {i} fingerprint differs from repetition 0"
            )),
            None => Ok(()),
        },
    );
    // Cells that ran, with what they simulated (all of them unless a
    // check above failed).
    let ran: Vec<(&Cell, &Outcome)> = plan
        .cells
        .iter()
        .zip(&first.outcomes)
        .filter_map(|(cell, o)| o.as_ref().ok().map(|o| (cell, o)))
        .collect();
    let outcomes: Vec<&Outcome> = ran.iter().map(|&(_, o)| o).collect();
    let complete = ran.len() == plan.cells.len();
    let means: Vec<f64> = outcomes.iter().map(|o| o.mean_us).collect();
    let paper_err_pct = complete
        .then(|| workload::paper_err_pct(&plan.cells, &means))
        .flatten();
    if let Some(err) = paper_err_pct {
        check(
            "paper error within limit",
            if err <= PAPER_ERR_LIMIT_PCT {
                Ok(())
            } else {
                Err(format!("mean |error| {err:.2}% > {PAPER_ERR_LIMIT_PCT}%"))
            },
        );
    }

    let cells: Vec<CellSummary> = ran
        .iter()
        .map(|&(cell, o)| CellSummary {
            label: cell.label(),
            rounds: cell.rounds,
            mean_us: o.mean_us,
            model_us: predict(
                &workload::model(cell.nic),
                &workload::scenario(cell),
                cell.placement,
                &cell.descriptor,
            ),
            events: o.events,
            round_us_p50: median(&o.gaps_us),
            round_us_tail: tail_percentile(&o.gaps_us),
            round_count: o.gaps_us.len(),
        })
        .collect();
    let model_err_pct = cells
        .iter()
        .map(|c| ((c.model_us - c.mean_us) / c.mean_us).abs() * 100.0)
        .sum::<f64>()
        / cells.len().max(1) as f64;

    // Throughput counts collective rounds over the cells' event loops, or
    // advisor rankings over the grid's ranking loop when there is a grid.
    let cell_parts = 0..plan.cells.len();
    let (ops, op_parts) = if plan.grid.is_empty() {
        let rounds: u64 = plan.cells.iter().map(|c| c.rounds).sum();
        (rounds as f64, cell_parts.clone())
    } else {
        let recommends = plan.passes * plan.grid.len();
        (recommends as f64, cell_parts.end..cell_parts.end + 1)
    };
    let all_parts = 0..reps[0].parts.len();
    let calibration = median(&reps.iter().map(|r| r.calibration_s).collect::<Vec<_>>());
    let scale = CALIBRATION_REF_S / calibration;
    let per_rep = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let setup = per_rep(&|r| sum(&r.parts).setup_s());
    let wall = fastest(&reps, all_parts, Timing::wall_s);
    let ops_per_s = ops / fastest(&reps, op_parts.clone(), |t| t.run_s);
    let end_to_end = vec![
        Samples {
            name: "wall_ref_s",
            unit: "s",
            value: wall * scale,
            raw: wall,
            samples: per_rep(&|r| sum(&r.parts).wall_s() * CALIBRATION_REF_S / r.calibration_s),
        },
        Samples {
            name: "setup_s",
            unit: "s",
            value: median(&setup),
            raw: median(&setup),
            samples: setup,
        },
        Samples {
            name: "ops_per_ref_s",
            unit: "1/s",
            value: ops_per_s / scale,
            raw: ops_per_s,
            samples: per_rep(&|r| {
                ops / sum(&r.parts[op_parts.clone()]).run_s * r.calibration_s / CALIBRATION_REF_S
            }),
        },
        Samples {
            name: "peak_heap_mb",
            unit: "MiB",
            value: peak_heap,
            raw: peak_heap,
            samples: vec![peak_heap],
        },
    ];

    let per_layer = if opts.per_layer && complete {
        per_layer(plan, &reps, &outcomes, &mut check)
    } else {
        Vec::new()
    };

    Report {
        workload: name.to_string(),
        seed: opts.seed,
        reps: reps.len(),
        end_to_end,
        per_layer,
        cells,
        fingerprint: first.fingerprint,
        paper_err_pct,
        model_err_pct,
        calibration_s: calibration,
        attempted,
        failed,
    }
}

/// Host µs per `advisor::predict` call, over the questions this workload
/// asks the advisor: each cell's own scenario, and every candidate of every
/// grid scenario — all re-asked at group size `n_override` when given.
/// Timed for at least 20 ms so the clock's granularity does not matter.
fn predict_us(plan: &Plan, n_override: Option<usize>) -> f64 {
    let mut queries: Vec<_> = plan
        .cells
        .iter()
        .map(|c| {
            (
                workload::model(c.nic),
                workload::scenario(c),
                c.placement,
                c.descriptor,
            )
        })
        .collect();
    for (nic, scenario) in &plan.grid {
        let model = workload::model(*nic);
        for c in recommend(&model, scenario).ranked {
            queries.push((model, *scenario, c.placement, c.descriptor));
        }
    }
    if let Some(n) = n_override {
        for q in &mut queries {
            q.1.n = n;
            if q.1.fabric.host_capacity(n) < n {
                q.1 =
                    q.1.with_fabric(gmsim_myrinet::FabricSpec::Auto, q.1.routing);
            }
        }
    }
    let t = Instant::now();
    let mut calls = 0u64;
    while calls == 0 || t.elapsed() < Duration::from_millis(20) {
        for (model, scenario, placement, desc) in &queries {
            std::hint::black_box(predict(model, scenario, *placement, desc));
        }
        calls += queries.len() as u64;
    }
    t.elapsed().as_secs_f64() * 1e6 / calls as f64
}

fn per_layer(
    plan: &Plan,
    reps: &[Rep],
    outcomes: &[&Outcome],
    check: &mut dyn FnMut(&str, Result<(), String>),
) -> Vec<Value> {
    let cells = 0..plan.cells.len();
    let med = |f: &dyn Fn(&Timing) -> f64| {
        median(
            &reps
                .iter()
                .map(|r| f(&sum(&r.parts[cells.clone()])))
                .collect::<Vec<_>>(),
        )
    };
    let run_s = med(&|t| t.run_s);

    // Traced pass: same cells, decorators and trace on; must simulate
    // exactly what the untraced repetitions did.
    let (traced, traced_fp) = run_cells(plan, Mode::Traced);
    check(
        "traced fingerprint equals untraced",
        if traced_fp == reps[0].cells_fp {
            Ok(())
        } else {
            Err("decorators or tracing changed the simulation".into())
        },
    );
    let mut tr = TraceStats::default();
    let mut traced_run_s = 0.0;
    for run in &traced {
        let s = run.trace.unwrap_or_default();
        tr.nic_ext_s += s.nic_ext_s;
        tr.nic_ext_calls += s.nic_ext_calls;
        tr.host_program_s += s.host_program_s;
        tr.host_program_calls += s.host_program_calls;
        tr.replay_sends += s.replay_sends;
        tr.replay_s += s.replay_s;
        traced_run_s += run.timing.run_s;
    }

    // PDES: the chosen cell again on two threads, which must reproduce the
    // serial result bit for bit.
    let par_cell: &Cell = &plan.cells[plan.par_cell];
    let par = cell::run(par_cell, Mode::Parallel(2));
    let fingerprint = |o: &Result<Outcome, String>| {
        let mut h = Fnv::new();
        mix_outcome(&mut h, o);
        h.finish()
    };
    let diverged = fingerprint(&par.outcome) != fingerprint(&reps[0].outcomes[plan.par_cell]);
    check(
        "serial equals parallel(2)",
        match &par.outcome {
            Err(e) => Err(e.clone()),
            Ok(_) if diverged => Err(format!("{} diverged under parallel(2)", par_cell.label())),
            Ok(_) => Ok(()),
        },
    );
    let par_serial_s = median(
        &reps
            .iter()
            .map(|r| r.parts[plan.par_cell].run_s)
            .collect::<Vec<f64>>(),
    );

    let mut metrics = MetricSet::new();
    let mut turnaround = Histogram::new(TURNAROUND_BIN_US, TURNAROUND_BINS);
    let (mut ext_msgs, mut events, mut sdma_busy_us) = (0, 0, 0.0);
    for o in outcomes {
        metrics.merge(&o.metrics);
        turnaround.merge(&o.nic_turnaround);
        ext_msgs += o.ext_msgs;
        events += o.events;
        sdma_busy_us += o.sdma_busy_us;
    }
    // A quantile past the histogram's range reads as the range's end; no
    // NIC cells, no turnarounds, reads 0.
    let turnaround_us = |q| match turnaround.quantile(q) {
        Some(us) => us,
        None if turnaround.total() == 0 => 0.0,
        None => TURNAROUND_BINS as f64 * TURNAROUND_BIN_US,
    };
    let rounds: u64 = plan.cells.iter().map(|c| c.rounds).sum();
    let per_round = |c: Counter| metrics.get(c) as f64 / rounds.max(1) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let fabric_send_ns = ratio(tr.replay_s * 1e9, tr.replay_sends as f64);
    let residual_s = traced_run_s - tr.nic_ext_s - tr.host_program_s;
    let sent = metrics.get(Counter::PacketsSent) as f64;

    let v = |name, unit, value| Value { name, unit, value };
    vec![
        v("des.events", "count", events as f64),
        v("des.ns_per_event", "ns", ratio(run_s * 1e9, events as f64)),
        v("myrinet.topology_build_s", "s", med(&|t| t.topology_s)),
        v("myrinet.fabric_send_ns", "ns", fabric_send_ns),
        v(
            "myrinet.fabric_share",
            "ratio",
            ratio(fabric_send_ns * 1e-9 * sent, run_s),
        ),
        v(
            "myrinet.packets_per_round",
            "count",
            per_round(Counter::PacketsSent),
        ),
        v(
            "myrinet.drops",
            "count",
            metrics.get(Counter::PacketsDropped) as f64,
        ),
        v(
            "lanai.firmware_cycles_per_round",
            "cycles",
            per_round(Counter::FirmwareCycles),
        ),
        v(
            "lanai.sdma_bytes_per_round",
            "B",
            per_round(Counter::SdmaBytes),
        ),
        v(
            "lanai.rdma_bytes_per_round",
            "B",
            per_round(Counter::RdmaBytes),
        ),
        v(
            "lanai.sdma_busy_us_per_round",
            "us",
            sdma_busy_us / rounds.max(1) as f64,
        ),
        v("gm.cluster_build_s", "s", med(&|t| t.cluster_s)),
        v("gm.teardown_s", "s", med(&|t| t.teardown_s)),
        v("gm.loop_residual_s", "s", residual_s),
        v(
            "gm.loop_residual_ns_per_event",
            "ns",
            ratio(residual_s * 1e9, events as f64),
        ),
        v(
            "gm.retx_ratio",
            "ratio",
            ratio(
                sent - metrics.get(Counter::PacketsRetransmitted) as f64,
                sent,
            ),
        ),
        v("gm.acks_per_round", "count", per_round(Counter::AcksSent)),
        v(
            "gm.rto_backoffs",
            "count",
            metrics.get(Counter::RtoBackoffs) as f64,
        ),
        v(
            "gm.timer_cancels",
            "count",
            metrics.get(Counter::TimerCancels) as f64,
        ),
        v(
            "gm.par2_speedup",
            "x",
            ratio(par_serial_s, par.timing.run_s),
        ),
        v("core.program_build_s", "s", med(&|t| t.programs_s)),
        v("core.nic_ext_s", "s", tr.nic_ext_s),
        v("core.nic_ext_calls", "count", tr.nic_ext_calls as f64),
        v(
            "core.nic_ext_ns_per_call",
            "ns",
            ratio(tr.nic_ext_s * 1e9, tr.nic_ext_calls as f64),
        ),
        v("core.host_program_s", "s", tr.host_program_s),
        v(
            "core.host_program_calls",
            "count",
            tr.host_program_calls as f64,
        ),
        v(
            "core.host_program_ns_per_call",
            "ns",
            ratio(tr.host_program_s * 1e9, tr.host_program_calls as f64),
        ),
        v(
            "core.resend_ratio",
            "ratio",
            ratio(metrics.get(Counter::BarrierResends) as f64, ext_msgs as f64),
        ),
        v(
            "core.rejects_sent",
            "count",
            metrics.get(Counter::RejectsSent) as f64,
        ),
        v("core.nic_turnaround_us_p50", "us", turnaround_us(0.5)),
        v("core.nic_turnaround_us_p99", "us", turnaround_us(0.99)),
        v("core.advisor_predict_us", "us", predict_us(plan, None)),
        v(
            "core.advisor_predict_us_n4096",
            "us",
            predict_us(plan, Some(4096)),
        ),
        v(
            "bench.trace_overhead_pct",
            "%",
            ratio((traced_run_s - run_s) * 100.0, run_s),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmsim_myrinet::FaultPlan;
    use nic_barrier::advisor::Placement;
    use nic_barrier::Descriptor;

    #[test]
    fn a_failing_cell_is_reported_not_hidden() {
        // Every packet dropped: the firmware gives up on its peer.
        let dead = Cell {
            faults: FaultPlan::drops(1.0),
            ..Cell::new(Placement::Nic, Descriptor::pe(), 2, 4)
        };
        let plan = Plan {
            cells: vec![dead],
            grid: Vec::new(),
            passes: 0,
            par_cell: 0,
        };
        let opts = Options {
            seed: 1,
            seconds: 0.0,
            reps: Some(1),
            smoke: true,
            per_layer: true,
        };
        let report = run("dead", &plan, &opts);
        assert_eq!(report.failed.len(), 1, "{:?}", report.failed);
        assert!(
            report.failed[0].1.contains("gave up"),
            "{:?}",
            report.failed
        );
        assert!(report.cells.is_empty() && report.per_layer.is_empty());
    }
}
