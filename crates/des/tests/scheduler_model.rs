//! Model-based test of the scheduler: [`Simulation`] and a reference
//! `BTreeMap<(at, seq), id>` run the same random program, and after every
//! call they must agree on the fired `(at, id)` sequence, `fired()`, `now`,
//! `pending()`, `peek_next_at()`, `far_next_at()` and the events
//! `visit_pending` walks.
//!
//! The programs are built to reach every part of the two-band scheduler:
//! times span four wheel revolutions (`BUCKET_NS × WHEEL_SLOTS`), so events
//! land in the far heap and fire from it; equal timestamps come in bursts,
//! including ties between an event queued in the far heap and one queued
//! later in the wheel; events schedule further events from inside `fire`;
//! `run_until` horizons fall before, exactly at and between events; and
//! `cancel` takes out pending events in either band, or finds the named
//! event already fired or cancelled. A cancelled event never fires, and the
//! kids it would have scheduled never exist.

use gmsim_des::check::{forall, Gen};
use gmsim_des::scheduler::{BUCKET_NS, WHEEL_SLOTS};
use gmsim_des::{Event, EventId, RunOutcome, Scheduler, SimTime, Simulation};
use std::collections::BTreeMap;

/// One wheel revolution in nanoseconds (~2.1 ms).
const WINDOW: u64 = BUCKET_NS * WHEEL_SLOTS as u64;

/// How a nested event is scheduled from inside its parent's `fire`.
#[derive(Clone, Copy)]
enum Via {
    /// `schedule(now + delay, ..)`.
    At,
    /// `schedule_after(delay, ..)`.
    After,
}

/// The program both sides run: event `id` fires and schedules
/// `kids[id]` in order, each `delay` ns after its own time. `ids[id]` is
/// the name `schedule` returned for event `id`, once it was scheduled.
struct World {
    kids: Vec<Vec<(u64, Via, usize)>>,
    fired: Vec<(u64, usize)>,
    ids: Vec<Option<EventId>>,
}

struct Ev(usize);

impl Event<World> for Ev {
    fn fire(self, world: &mut World, sched: &mut Scheduler<World, Ev>) {
        let now = sched.now();
        world.fired.push((now.as_ns(), self.0));
        for i in 0..world.kids[self.0].len() {
            let (delay, via, kid) = world.kids[self.0][i];
            world.ids[kid] = Some(match via {
                Via::At => sched.schedule(now + SimTime::from_ns(delay), Ev(kid)),
                Via::After => sched.schedule_after(SimTime::from_ns(delay), Ev(kid)),
            });
        }
    }
}

/// The reference: one ordered map over `(at, seq)`, FIFO on ties, and
/// the key each event id was scheduled under.
#[derive(Default)]
struct Model {
    queue: BTreeMap<(u64, u64), usize>,
    keys: BTreeMap<usize, (u64, u64)>,
    seq: u64,
    now: u64,
    fired: Vec<(u64, usize)>,
}

impl Model {
    fn schedule(&mut self, at: u64, id: usize) {
        self.queue.insert((at, self.seq), id);
        self.keys.insert(id, (at, self.seq));
        self.seq += 1;
    }

    /// Take event `id` out if it is pending.
    fn cancel(&mut self, id: usize) -> bool {
        self.keys
            .get(&id)
            .is_some_and(|key| self.queue.remove(key).is_some())
    }

    fn next_at(&self) -> Option<u64> {
        self.queue.keys().next().map(|&(at, _)| at)
    }

    /// The earliest pending event beyond the wheel window of `now`: every
    /// such event sits in the far band (and nothing else does).
    fn far_next_at(&self) -> Option<u64> {
        let now_bucket = self.now / BUCKET_NS;
        self.queue
            .keys()
            .map(|&(at, _)| at)
            .find(|at| at / BUCKET_NS - now_bucket >= WHEEL_SLOTS as u64)
    }

    fn step(&mut self, kids: &[Vec<(u64, Via, usize)>]) -> bool {
        let Some(((at, _), id)) = self.queue.pop_first() else {
            return false;
        };
        self.now = at;
        self.fired.push((at, id));
        for &(delay, _, kid) in &kids[id] {
            self.schedule(at + delay, kid);
        }
        true
    }

    fn run_until(&mut self, horizon: u64, kids: &[Vec<(u64, Via, usize)>]) -> RunOutcome {
        loop {
            match self.next_at() {
                None => return RunOutcome::Quiescent,
                Some(at) if at > horizon => return RunOutcome::HorizonReached,
                Some(_) => {
                    self.step(kids);
                }
            }
        }
    }
}

/// A delay from `now`: zero (a same-time burst), short, within the wheel,
/// straddling the window edge, or up to four revolutions out.
fn delay(g: &mut Gen) -> u64 {
    match g.usize_in(0, 9) {
        0 | 1 => 0,
        2..=4 => g.u64_in(1, 2_000),
        5 | 6 => g.u64_in(2_000, WINDOW),
        7 => g.u64_in(WINDOW - 2 * BUCKET_NS, WINDOW + 2 * BUCKET_NS),
        _ => g.u64_in(WINDOW, 4 * WINDOW),
    }
}

/// Counts of what the generated programs exercised, over all cases.
#[derive(Default)]
struct Coverage {
    far: u64,
    ties: u64,
    nested: u64,
    horizon_stops: u64,
    wheel_cancels: u64,
    far_cancels: u64,
    stale_cancels: u64,
}

/// Compare every observable of the simulation with the model.
fn agree(sim: &mut Simulation<World, Ev>, model: &Model, what: &str) {
    assert_eq!(
        sim.world().fired,
        model.fired,
        "fired sequence after {what}"
    );
    assert_eq!(sim.now().as_ns(), model.now, "now after {what}");
    assert_eq!(
        sim.events_fired(),
        model.fired.len() as u64,
        "fired() after {what}"
    );
    let sched = sim.scheduler();
    assert_eq!(sched.pending(), model.queue.len(), "pending after {what}");
    assert_eq!(
        sched.peek_next_at().map(SimTime::as_ns),
        model.next_at(),
        "peek_next_at after {what}"
    );
    assert_eq!(
        sched.far_next_at().map(SimTime::as_ns),
        model.far_next_at(),
        "far_next_at after {what}"
    );
    let mut seen = Vec::new();
    sched.visit_pending(&mut Vec::new(), |at, ev| seen.push((at.as_ns(), ev.0)));
    let want: Vec<(u64, usize)> = model.queue.iter().map(|(&(at, _), &id)| (at, id)).collect();
    assert_eq!(seen, want, "visit_pending after {what}");
}

fn run_case(g: &mut Gen, cov: &mut Coverage) {
    // Events 0..n; each one is either a root, scheduled by the driver, or a
    // kid of one earlier event, scheduled from inside that event's fire.
    let n = g.usize_in(1, 160);
    let mut kids: Vec<Vec<(u64, Via, usize)>> = vec![Vec::new(); n];
    let mut roots = Vec::new();
    for id in 0..n {
        if id > 0 && g.chance(0.4) {
            let parent = g.usize_in(0, id - 1);
            let via = if g.chance(0.5) { Via::At } else { Via::After };
            kids[parent].push((delay(g), via, id));
            cov.nested += 1;
        } else {
            roots.push(id);
        }
    }
    let mut sim: Simulation<World, Ev> = Simulation::new(World {
        kids: kids.clone(),
        fired: Vec::new(),
        ids: vec![None; n],
    });
    let mut model = Model::default();
    // Absolute times already used, so later roots can tie with them even
    // after the clock has moved and the band they land in has changed.
    let mut anchors: Vec<u64> = Vec::new();
    let mut roots = roots.into_iter().peekable();
    loop {
        let op = g.usize_in(0, 21);
        if roots.peek().is_some() && op < 9 {
            let id = roots.next().unwrap();
            let live: Vec<u64> = anchors
                .iter()
                .copied()
                .filter(|&a| a >= model.now)
                .collect();
            let at = if !live.is_empty() && g.chance(0.3) {
                cov.ties += 1;
                live[g.usize_in(0, live.len() - 1)]
            } else {
                model.now + delay(g)
            };
            if at - model.now >= WINDOW {
                cov.far += 1;
            }
            anchors.push(at);
            let handle = sim.scheduler_mut().schedule(SimTime::from_ns(at), Ev(id));
            sim.world_mut().ids[id] = Some(handle);
            model.schedule(at, id);
            agree(&mut sim, &model, "schedule");
        } else if op < 11 {
            // Cancel any event scheduled so far: pending (in either band),
            // fired or already cancelled.
            let named: Vec<usize> = model.keys.keys().copied().collect();
            if named.is_empty() {
                continue;
            }
            let id = named[g.usize_in(0, named.len() - 1)];
            let (at, _) = model.keys[&id];
            let far = (at / BUCKET_NS).saturating_sub(model.now / BUCKET_NS) >= WHEEL_SLOTS as u64;
            let handle = sim.world().ids[id].expect("scheduled event has a name");
            let cancelled = model.cancel(id);
            assert_eq!(
                sim.scheduler_mut().cancel(handle),
                cancelled,
                "cancel result"
            );
            match (cancelled, far) {
                (false, _) => cov.stale_cancels += 1,
                (true, false) => cov.wheel_cancels += 1,
                (true, true) => cov.far_cancels += 1,
            }
            agree(&mut sim, &model, "cancel");
        } else if op < 15 {
            let stepped = sim.step();
            assert_eq!(stepped, model.step(&kids), "step result");
            agree(&mut sim, &model, "step");
        } else if op < 21 {
            let horizon = match (model.next_at(), g.usize_in(0, 3)) {
                // Before the next event (possibly before `now`).
                (Some(next), 0) => next.saturating_sub(g.u64_in(1, 3 * BUCKET_NS)),
                // Exactly at it.
                (Some(next), 1) => next,
                // Somewhere past it, among the events that follow.
                (Some(next), 2) => next + delay(g),
                _ => model.now + g.u64_in(0, 4 * WINDOW),
            };
            let now_before = sim.now();
            let outcome = sim.run_until(SimTime::from_ns(horizon));
            assert_eq!(
                outcome,
                model.run_until(horizon, &kids),
                "run_until outcome"
            );
            if outcome == RunOutcome::HorizonReached {
                cov.horizon_stops += 1;
                // The next event stays queued past the horizon, and the
                // clock stays at the last fired event (checked against the
                // model below), so it never passes the horizon.
                let next = sim
                    .scheduler_mut()
                    .peek_next_at()
                    .expect("next stays queued");
                assert!(
                    next.as_ns() > horizon,
                    "an event due by the horizon was left"
                );
                assert!(
                    sim.now() <= SimTime::from_ns(horizon).max(now_before),
                    "the clock passed the horizon"
                );
            }
            agree(&mut sim, &model, "run_until");
        } else if roots.peek().is_none() {
            break;
        }
    }
    assert_eq!(sim.run(), RunOutcome::Quiescent);
    while model.step(&kids) {}
    agree(&mut sim, &model, "run");
    // Every event fired at most once, and every one scheduled and not
    // cancelled fired.
    let mut fired: Vec<usize> = sim.world().fired.iter().map(|&(_, id)| id).collect();
    fired.sort_unstable();
    fired.dedup();
    assert_eq!(fired.len(), sim.world().fired.len(), "an event fired twice");
    assert_eq!(sim.scheduler().pending(), 0);
}

#[test]
fn scheduler_matches_a_binary_heap_model() {
    let mut cov = Coverage::default();
    forall(512, 0xDE5_0100, |g| run_case(g, &mut cov));
    // The generator really reached the far heap, cross-band ties, nested
    // scheduling and horizon stops.
    assert!(cov.far > 1_000, "far-heap schedules: {}", cov.far);
    assert!(cov.ties > 1_000, "tied schedules: {}", cov.ties);
    assert!(cov.nested > 1_000, "nested schedules: {}", cov.nested);
    assert!(
        cov.horizon_stops > 500,
        "horizon stops: {}",
        cov.horizon_stops
    );
    // And cancels hit both bands and names that no longer match.
    assert!(
        cov.wheel_cancels > 500,
        "wheel cancels: {}",
        cov.wheel_cancels
    );
    assert!(cov.far_cancels > 200, "far cancels: {}", cov.far_cancels);
    assert!(
        cov.stale_cancels > 500,
        "stale cancels: {}",
        cov.stale_cancels
    );
}
