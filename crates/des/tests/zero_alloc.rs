//! Steady-state allocation gate for the typed slab scheduler.
//!
//! A counting `#[global_allocator]` wraps the system allocator; after a
//! warm-up phase grows the slab and heap to their high-water mark, firing and
//! rescheduling typed events must perform **zero** heap allocations — and so
//! must cancelling them: every tick also re-arms its lane's timeout, which
//! cancels the previous one, alternately in the timer wheel and in the far
//! heap (the shape of the GM firmware's per-connection RTO timer), and so
//! must the steady-state digest's walk of the pending events, which reuses
//! one scratch buffer. This is the property the whole hot-path refactor
//! exists to provide, so it is pinned exactly, not approximately.
//!
//! This file deliberately contains a single check and runs with
//! `harness = false`: global allocator counts are process-wide, and any
//! concurrent allocation — a sibling test, or the libtest harness's own
//! bookkeeping threads — would make the exact-zero assertion flaky.

use gmsim_des::{Event, EventId, Scheduler, SimTime, Simulation};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: delegates every operation to `System`; only adds a relaxed counter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

/// Ticks fired so far and each lane's pending timeout.
struct World {
    ticks: u64,
    timeouts: Vec<Option<EventId>>,
}

/// A self-rescheduling tick: the same shape as the benchmark's hot loop and
/// the GM stack's steady-state event churn. A timeout never fires while
/// its lane keeps ticking.
enum Tick {
    Fire { lane: u64 },
    Timeout,
}

impl Event<World> for Tick {
    fn fire(self, world: &mut World, sched: &mut Scheduler<World, Tick>) {
        let Tick::Fire { lane } = self else {
            return;
        };
        world.ticks += 1;
        if world.ticks < TOTAL {
            sched.schedule_after(SimTime::from_ns(10 + lane), Tick::Fire { lane });
        }
        let slot = &mut world.timeouts[lane as usize];
        if let Some(old) = slot.take() {
            assert!(sched.cancel(old), "a live timeout was not cancelled");
        }
        // 500 ns stays in the wheel; 4 ms, past the wheel's window, lands
        // in the far heap.
        let delay = if world.ticks.is_multiple_of(2) {
            500
        } else {
            4_000_000
        };
        *slot = Some(sched.schedule_after(SimTime::from_ns(delay), Tick::Timeout));
    }
}

const LANES: u64 = 64;
const TOTAL: u64 = 200_000;

fn main() {
    steady_state_typed_scheduling_allocates_nothing();
    println!("zero_alloc: ok");
}

fn steady_state_typed_scheduling_allocates_nothing() {
    let mut sim: Simulation<World, Tick> = Simulation::new(World {
        ticks: 0,
        timeouts: vec![None; LANES as usize],
    });
    for lane in 0..LANES {
        sim.scheduler_mut()
            .schedule(SimTime::from_ns(lane), Tick::Fire { lane });
    }
    // Warm-up: let the slab, the far heap, its position map and the
    // visit's scratch buffer reach their high-water mark.
    let mut scratch = Vec::new();
    let mut visited = 0u64;
    let mut visit = |sched: &Scheduler<World, Tick>| {
        sched.visit_pending(&mut scratch, |_, _| visited += 1);
    };
    for _ in 0..10_000 {
        assert!(sim.step());
        visit(sim.scheduler());
    }
    let slab_before = sim.scheduler_mut().slab_capacity();

    let before = ALLOCS.load(Ordering::Relaxed);
    let mut steps = 0u64;
    while sim.step() {
        steps += 1;
        if steps.is_multiple_of(16) {
            visit(sim.scheduler());
        }
    }
    let after = ALLOCS.load(Ordering::Relaxed);
    assert!(visited > 0);

    // Every lane still in flight when the counter hits TOTAL drains without
    // rescheduling, so the queue fires LANES - 1 extra ticks, and then the
    // last timeout of every lane.
    assert_eq!(sim.events_fired(), TOTAL + LANES - 1 + LANES);
    assert_eq!(
        after - before,
        0,
        "typed hot path allocated {} times after warm-up",
        after - before
    );
    assert_eq!(
        sim.scheduler_mut().slab_capacity(),
        slab_before,
        "slab grew past its warm-up high-water mark"
    );
}
