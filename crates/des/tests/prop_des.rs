//! Randomized property tests for the DES engine: event ordering, statistics
//! merging, RNG determinism, and FIFO ties across slab slot reuse.

use gmsim_des::check::forall;
use gmsim_des::{Event, Scheduler, SimRng, SimTime, Simulation, Summary};

/// Trace of fired events: `(fire time in ns, item index)`.
type Trace = Vec<(u64, usize)>;

/// Index offset that marks a follow-up in a [`Trace`].
const FOLLOWUP: usize = 1_000_000;

/// Note the fire; optionally chain one follow-up `followup` ns later.
struct Note {
    idx: usize,
    followup: Option<u64>,
}

impl Event<Trace> for Note {
    fn fire(self, world: &mut Trace, sched: &mut Scheduler<Trace, Note>) {
        world.push((sched.now().as_ns(), self.idx));
        if let Some(delay) = self.followup {
            let next = Note {
                idx: self.idx + FOLLOWUP,
                followup: None,
            };
            sched.schedule_after(SimTime::from_ns(delay), next);
        }
    }
}

fn note(idx: usize) -> Note {
    Note {
        idx,
        followup: None,
    }
}

/// Events fire in nondecreasing time order, with FIFO order at equal
/// timestamps, for arbitrary schedules.
#[test]
fn fire_order_is_total() {
    forall(128, 0xDE5_0001, |g| {
        let times = g.vec_of(1, 200, |g| g.u64_in(0, 999));
        let mut sim: Simulation<Trace, Note> = Simulation::new(Vec::new());
        for (i, &t) in times.iter().enumerate() {
            sim.scheduler_mut().schedule(SimTime::from_ns(t), note(i));
        }
        sim.run();
        let fired = sim.world();
        assert_eq!(fired.len(), times.len());
        for w in fired.windows(2) {
            assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "FIFO tie-break violated");
            }
        }
    });
}

/// Nested scheduling preserves ordering too: every event schedules a
/// follow-up, which fires exactly its delay later; the clock never runs
/// backwards.
#[test]
fn nested_scheduling_never_goes_backwards() {
    forall(128, 0xDE5_0002, |g| {
        let seeds = g.vec_of(1, 50, |g| (g.u64_in(0, 499), g.u64_in(1, 99)));
        let mut sim: Simulation<Trace, Note> = Simulation::new(Vec::new());
        for (i, &(start, delay)) in seeds.iter().enumerate() {
            let first = Note {
                idx: i,
                followup: Some(delay),
            };
            sim.scheduler_mut().schedule(SimTime::from_ns(start), first);
        }
        sim.run();
        let fired = sim.world();
        assert_eq!(fired.len(), 2 * seeds.len());
        for w in fired.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
        for &(t, idx) in fired {
            if let Some(i) = idx.checked_sub(FOLLOWUP) {
                assert_eq!(t, seeds[i].0 + seeds[i].1, "follow-up {i} mistimed");
            }
        }
    });
}

/// `Summary::merge` is equivalent to a single-stream accumulation for
/// any split point, and merging is associative enough for sweeps.
#[test]
fn summary_merge_any_split() {
    forall(128, 0xDE5_0003, |g| {
        let data = g.vec_of(2, 300, |g| g.f64_in(-1e6, 1e6));
        let split = g.usize_in(0, 299) % data.len();
        let mut whole = Summary::new();
        data.iter().for_each(|&x| whole.record(x));
        let mut a = Summary::new();
        let mut b = Summary::new();
        data[..split].iter().for_each(|&x| a.record(x));
        data[split..].iter().for_each(|&x| b.record(x));
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() <= 1e-6 * whole.mean().abs().max(1.0));
        assert!((a.stddev() - whole.stddev()).abs() <= 1e-6 * whole.stddev().abs().max(1.0));
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    });
}

/// Split RNG streams are stable: splitting with the same label always
/// yields the same stream, and distinct labels diverge.
#[test]
fn rng_split_determinism() {
    forall(256, 0xDE5_0004, |g| {
        let seed = g.any_u64();
        let l1 = g.any_u64();
        let l2 = g.any_u64();
        let parent = SimRng::new(seed);
        let mut a1 = parent.split(l1);
        let mut a2 = parent.split(l1);
        for _ in 0..8 {
            assert_eq!(a1.next(), a2.next());
        }
        if l1 != l2 {
            let mut b = parent.split(l2);
            let mut a = parent.split(l1);
            let agree = (0..8).filter(|_| a.next() == b.next()).count();
            assert!(agree < 8, "distinct labels produced identical streams");
        }
    });
}

/// run_until never advances the clock past the horizon, and running the
/// remainder afterwards fires everything exactly once.
#[test]
fn horizon_is_respected() {
    forall(128, 0xDE5_0005, |g| {
        let times = g.vec_of(1, 100, |g| g.u64_in(0, 999));
        let horizon = g.u64_in(0, 999);
        let mut sim: Simulation<Trace, Note> = Simulation::new(Vec::new());
        for (i, &t) in times.iter().enumerate() {
            sim.scheduler_mut().schedule(SimTime::from_ns(t), note(i));
        }
        sim.run_until(SimTime::from_ns(horizon));
        let before = times.iter().filter(|&&t| t <= horizon).count();
        assert_eq!(sim.world().len(), before);
        assert!(sim.now() <= SimTime::from_ns(horizon));
        sim.run();
        assert_eq!(sim.world().len(), times.len());
    });
}

/// Deterministic replay: two identical simulations produce identical event
/// counts and final clocks even under a complex random workload.
#[test]
fn replay_is_bit_identical() {
    /// A random walk: each step may schedule another step and an idle event.
    enum Walk {
        Step,
        Idle,
    }
    impl Event<SimRng> for Walk {
        fn fire(self, w: &mut SimRng, s: &mut Scheduler<SimRng, Walk>) {
            if let Walk::Step = self {
                let jump = w.ns_between(1, 10_000);
                if w.chance(0.9) {
                    s.schedule_after(SimTime::from_ns(jump), Walk::Step);
                }
                if w.chance(0.3) {
                    s.schedule_after(SimTime::from_ns(jump * 2), Walk::Idle);
                }
            }
        }
    }
    fn run(seed: u64) -> (u64, SimTime, u64) {
        let mut sim: Simulation<SimRng, Walk> = Simulation::new(SimRng::new(seed));
        for _ in 0..10 {
            sim.scheduler_mut().schedule(SimTime::ZERO, Walk::Step);
        }
        sim.run();
        let events = sim.events_fired();
        let now = sim.now();
        let mut world = sim.into_world();
        (events, now, world.next())
    }
    assert_eq!(run(1234), run(1234));
    assert_ne!(run(1234), run(4321));
}

/// FIFO tie-break at equal timestamps survives slab slot reuse: events
/// scheduled after earlier events have fired (and freed slots back onto the
/// freelist) still fire strictly after same-time events scheduled earlier.
#[test]
fn fifo_ties_survive_slot_reuse() {
    forall(128, 0xDE5_0007, |g| {
        let wave1: Vec<u64> = g.vec_of(1, 60, |g| g.u64_in(0, 9));
        let wave2: Vec<u64> = g.vec_of(1, 60, |g| g.u64_in(5, 14));
        let steps = g.usize_in(1, wave1.len());

        let mut sim: Simulation<Trace, Note> = Simulation::new(Vec::new());
        for (i, &t) in wave1.iter().enumerate() {
            sim.scheduler_mut().schedule(SimTime::from_ns(t), note(i));
        }
        // Fire part of wave 1 so its slots return to the freelist, then
        // schedule wave 2 into the recycled slots (indices continue upward,
        // matching the global seq order).
        for _ in 0..steps {
            assert!(sim.step());
        }
        let now = sim.now().as_ns();
        for (j, &t) in wave2.iter().enumerate() {
            let at = now.max(t); // never schedule into the past
            sim.scheduler_mut()
                .schedule(SimTime::from_ns(at), note(wave1.len() + j));
        }
        sim.run();

        let fired = sim.world();
        assert_eq!(fired.len(), wave1.len() + wave2.len());
        for w in fired.windows(2) {
            assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                assert!(
                    w[0].1 < w[1].1,
                    "FIFO tie-break violated across slab reuse: {:?} then {:?}",
                    w[0],
                    w[1]
                );
            }
        }
        // Reuse actually happened: capacity never exceeds the high-water
        // mark of simultaneously pending events.
        assert!(sim.scheduler_mut().slab_capacity() <= wave1.len() + wave2.len());
    });
}
