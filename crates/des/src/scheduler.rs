//! The event scheduler and simulation driver.
//!
//! A [`Scheduler`] is a priority queue of `(time, seq, event)` entries. The
//! `seq` counter makes ordering total and deterministic: events at equal
//! timestamps fire in the order they were scheduled. A [`Simulation`] couples
//! a scheduler with the simulated world and drives the loop.
//!
//! # Hot path
//!
//! The scheduler is generic over the event type `E` (an enum such as the GM
//! stack's `ClusterEvent`). Each pending event holds one slot of a slab
//! with an internal freelist, kept as two parallel arrays: the ordering
//! layer reads only the 24-byte `(at, seq, next)` keys, and the payloads
//! sit apart in an array of their own. Scheduling writes one key and one
//! payload. Firing runs one min-search over the keys, which also checks
//! the run's horizon, then reads the payload once and frees the slot.
//! [`Scheduler::schedule`] returns the event's [`EventId`], and
//! [`Scheduler::cancel`] unlinks that event and frees its slot at once, so
//! a cancelled event is never fired, counted or seen again. Steady-state
//! scheduling and cancelling perform **zero heap allocations** once the
//! slab and queues have grown to the high-water mark.
//!
//! # Ordering layer: timer wheel + far heap
//!
//! Almost every event a cluster simulation schedules lands within a few
//! microseconds of `now` (firmware cycles, wire hops, host overheads); only
//! retransmission timers and horizon sentinels sit further out. The
//! ordering layer exploits that: a **bucketed timer wheel** of
//! [`WHEEL_SLOTS`] buckets, each [`BUCKET_NS`] wide (a ~2.1 ms window
//! sliding with `now`), absorbs the near-future band with O(1) insertion,
//! while a 4-ary `SlotHeap` holds the far-future remainder. Popping
//! compares the wheel's earliest entry with the heap's top and takes the
//! global `(time, seq)` minimum, so the fired order is **bit-identical**
//! to the plain-heap scheduler — ties still fire FIFO by sequence number,
//! which the golden 310-latency gate pins exactly. Not only horizon
//! sentinels and backed-off timers land in the heap: see [`WHEEL_SLOTS`]
//! for the base-RTO timers of a backed-up SEND queue. An occupancy bitmap
//! (one bit per bucket) makes the scan from `now`'s bucket to the next
//! non-empty one a word-wise skip. Far-heap entries move into the wheel
//! once their bucket enters the window; each fired event checks only the
//! heap top for that. Bucket chains are doubly linked, so a cancel unlinks
//! a wheel entry in O(1); the far heap keeps each slot's position, so a
//! cancel removes any of its entries in O(log n).

use crate::heap::SlotHeap;
use crate::time::SimTime;
use std::marker::PhantomData;

/// A schedulable event acting on world `W`.
///
/// `fire` consumes the event by value — events are moved out of the slab,
/// never boxed. Implement it on a small enum with one variant per kind of
/// event the world reacts to.
pub trait Event<W>: Sized {
    /// Consume the event, mutating the world and possibly scheduling more.
    fn fire(self, world: &mut W, sched: &mut Scheduler<W, Self>);
}

/// Freelist sentinel: no next slot.
const NIL: u32 = u32::MAX;

/// Width of one timer-wheel bucket, as a power-of-two shift of nanoseconds.
/// 128 ns is still below most modelled costs (the shortest firmware step is
/// ~30 ns at 33 MHz, most are hundreds), so a bucket holds a handful of
/// events, and it stretches the window past the paper's 2 ms
/// retransmission timeout (see [`WHEEL_SLOTS`]).
const BUCKET_SHIFT: u32 = 7;

/// Width of one timer-wheel bucket in nanoseconds.
pub const BUCKET_NS: u64 = 1 << BUCKET_SHIFT;

/// Number of wheel buckets (a power of two). With 128 ns buckets this spans
/// a 2.097 ms sliding window — orders of magnitude beyond any per-event
/// delay in the barrier models, and wide enough that a retransmission timer
/// armed one 2 ms RTO ahead of `now` lands in the wheel, where arming and
/// cancelling it is O(1). Backed-off or grace-extended timers and horizon
/// sentinels fall through to the far heap, and so does a base-RTO timer
/// armed for a send queued more than ~97 µs behind a backlog: the 16-round
/// NIC-PE at 1024 nodes arms 5 120 of those a round, 2.117–2.128 ms ahead:
/// 40 960 far-heap pushes, each popped or cancelled later, per
/// fast-forwarded run and 81 920 per full one. 256 ns buckets would double
/// the window and catch them, but `gmbench`'s `scale_clos` ran no faster
/// with them on a 2-core VM (1.3% slower in the median of 6 alternating
/// pairs, behind in 5), so the window stays.
pub const WHEEL_SLOTS: usize = 1 << 14;

const SLOT_MASK: u64 = WHEEL_SLOTS as u64 - 1;
const BITMAP_WORDS: usize = WHEEL_SLOTS / 64;

/// A pending event's name, returned by [`Scheduler::schedule`] and taken
/// by [`Scheduler::cancel`]: its slab slot plus a stamp that tells this
/// event apart from later occupants of the same slot, so a handle kept past
/// its event's firing or cancel is refused instead of cancelling another.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId {
    pub(crate) slot: u32,
    pub(crate) stamp: u32,
}

/// The scheduler's half of a slab slot: the ordering key and one link.
/// While the slot is pending in the wheel, `next` and `prev` are its
/// neighbours in its bucket chain ([`NIL`] past either end; unused while
/// the slot waits in the far heap), so a cancel unlinks it in O(1); while
/// the slot is free, `next` chains the freelist. The low 32 bits of `seq`
/// are the slot's [`EventId`] stamp. Keys live in an array of their own,
/// apart from the payloads, so chain walks and the min-search read 24-byte
/// records and never touch an event.
struct Key {
    at: SimTime,
    seq: u64,
    next: u32,
    prev: u32,
}

/// Where [`Scheduler::find_min`] found the earliest pending event.
enum Min {
    /// Head `slot` of the chain at wheel index `idx`.
    Wheel { idx: usize, slot: u32 },
    /// Top of the far heap.
    Far,
}

/// Priority queue of pending events plus the current virtual time.
///
/// Ordering is split into a near-future timer wheel and a far-future binary
/// heap (see the module docs); both are indexed by `(at, seq)` so the pop
/// order is identical to a single global priority queue.
pub struct Scheduler<W, E: Event<W>> {
    /// Near-future band: bucket `b` of an event at time `t` is
    /// `t >> BUCKET_SHIFT`; `wheel[b & SLOT_MASK]` is the head slot of an
    /// intrusive chain through `keys` (or [`NIL`]) kept **sorted ascending
    /// by `(at, seq)`**, so the bucket minimum is always the head. Window
    /// invariant: every resident entry has
    /// `bucket(now) <= b < bucket(now) + WHEEL_SLOTS`, so absolute buckets
    /// and wheel slots are in bijection and no epoch tag is needed.
    wheel: Vec<u32>,
    /// Tail slot of each bucket chain ([`NIL`] when empty). Barrier rounds
    /// schedule bursts of same-timestamp events in ascending `seq` order;
    /// comparing against the tail first makes those appends O(1) instead of
    /// an O(k) insertion scan.
    wheel_tail: Vec<u32>,
    /// One bit per wheel slot: set iff the bucket is non-empty. Lets the
    /// min-scan skip 64 empty buckets per word.
    occupancy: Vec<u64>,
    /// Number of entries resident in the wheel.
    wheel_len: usize,
    /// Far-future band: everything scheduled at or beyond the wheel window,
    /// by `(at, seq)`. Entries move to the wheel once their bucket enters
    /// the window; a cancel takes one out from anywhere in the heap.
    far: SlotHeap<(SimTime, u64)>,
    /// Ordering key and link of every slab slot, indexed like `events`.
    keys: Vec<Key>,
    /// Event payload of every slab slot: `Some` while pending, `None` while
    /// the slot is on the freelist. Written once by `schedule`, read once
    /// by the pop that fires it.
    events: Vec<Option<E>>,
    free_head: u32,
    now: SimTime,
    seq: u64,
    fired: u64,
    _world: PhantomData<fn(&mut W)>,
}

impl<W, E: Event<W>> Default for Scheduler<W, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W, E: Event<W>> Scheduler<W, E> {
    /// An empty scheduler at time zero.
    pub fn new() -> Self {
        Scheduler {
            wheel: vec![NIL; WHEEL_SLOTS],
            wheel_tail: vec![NIL; WHEEL_SLOTS],
            occupancy: vec![0; BITMAP_WORDS],
            wheel_len: 0,
            far: SlotHeap::new(),
            keys: Vec::new(),
            events: Vec::new(),
            free_head: NIL,
            now: SimTime::ZERO,
            seq: 0,
            fired: 0,
            _world: PhantomData,
        }
    }

    /// Absolute bucket index of a timestamp.
    #[inline]
    fn bucket_of(at: SimTime) -> u64 {
        at.as_ns() >> BUCKET_SHIFT
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events fired so far.
    #[inline]
    pub fn fired(&self) -> u64 {
        self.fired
    }

    /// Count `n` events as fired without firing them: a fast-forward that
    /// proved `n` events would have fired identically to ones it already
    /// simulated (see `gmsim_gm::steady`).
    pub fn add_fired(&mut self, n: u64) {
        self.fired += n;
    }

    /// Number of events still pending.
    #[inline]
    pub fn pending(&self) -> usize {
        self.wheel_len + self.far.len()
    }

    /// Timestamp of the earliest pending event, if any.
    #[inline]
    pub fn peek_next_at(&self) -> Option<SimTime> {
        self.find_min().map(|(at, _)| at)
    }

    /// Timestamp of the earliest pending event beyond the timer wheel's
    /// window (a retransmission timer or a horizon sentinel), if any. One
    /// peek: steady-state detection reads it as a cheap phase marker.
    #[inline]
    pub fn far_next_at(&self) -> Option<SimTime> {
        self.far.peek().map(|&((at, _), _)| at)
    }

    /// Visit every pending event in firing order, `(at, seq)` ascending,
    /// with its timestamp. The wheel comes first, its occupied buckets in
    /// absolute order from `bucket(now)` and each chain already sorted;
    /// every far entry lies past the window, so only the far band is
    /// sorted, in `scratch` (reused across calls, so a caller that keeps it
    /// allocates nothing in steady state).
    pub fn visit_pending(
        &self,
        scratch: &mut Vec<(SimTime, u64, u32)>,
        mut f: impl FnMut(SimTime, &E),
    ) {
        let mut visit = |slot: u32| {
            let ev = self.events[slot as usize]
                .as_ref()
                .expect("pending slot holds an event");
            f(self.keys[slot as usize].at, ev);
        };
        // Word by word from the one holding `bucket(now)`, round the wheel
        // and back to that word for the buckets below it.
        let idx0 = (Self::bucket_of(self.now) & SLOT_MASK) as usize;
        let (word0, below) = (idx0 / 64, !(!0u64 << (idx0 % 64)));
        for i in 0..=BITMAP_WORDS {
            let word_i = (word0 + i) % BITMAP_WORDS;
            let mut bits = self.occupancy[word_i];
            if i == 0 {
                bits &= !below;
            } else if i == BITMAP_WORDS {
                bits &= below;
            }
            while bits != 0 {
                let mut slot = self.wheel[word_i * 64 + bits.trailing_zeros() as usize];
                bits &= bits - 1;
                while slot != NIL {
                    visit(slot);
                    slot = self.keys[slot as usize].next;
                }
            }
        }
        scratch.clear();
        let far = self.far.entries().iter();
        scratch.extend(far.map(|&((at, seq), slot)| (at, seq, slot)));
        scratch.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
        for &(_, _, slot) in scratch.iter() {
            visit(slot);
        }
    }

    /// First occupied wheel bucket, as `(wheel_index, head_slot)` — the
    /// head is the bucket's earliest entry, since chains are sorted.
    /// Correctness of scanning in slot order from `bucket(now)`: nothing is
    /// scheduled in the past, so no resident bucket lies before it, and by
    /// the window invariant every resident bucket lies in
    /// `[bucket(now), bucket(now) + WHEEL_SLOTS)`, where slot order is
    /// absolute bucket order.
    fn wheel_min(&self) -> Option<(usize, u32)> {
        if self.wheel_len == 0 {
            return None;
        }
        let start = Self::bucket_of(self.now);
        let idx0 = (start & SLOT_MASK) as usize;
        let mut word_i = idx0 / 64;
        // Absolute bucket corresponding to bit 0 of the current word.
        let mut word_base = start - (idx0 % 64) as u64;
        let mut masked = self.occupancy[word_i] & (!0u64 << (idx0 % 64));
        for _ in 0..=BITMAP_WORDS {
            if masked != 0 {
                let idx = ((word_base + masked.trailing_zeros() as u64) & SLOT_MASK) as usize;
                let head = self.wheel[idx];
                debug_assert!(head != NIL, "occupancy bit set on empty bucket");
                return Some((idx, head));
            }
            word_base += 64;
            word_i = (word_i + 1) % BITMAP_WORDS;
            masked = self.occupancy[word_i];
        }
        unreachable!("wheel_len > 0 but no occupied bucket within the window")
    }

    /// Global earliest pending event by `(at, seq)` across wheel and far
    /// heap — the same total order a single priority queue would give.
    fn find_min(&self) -> Option<(SimTime, Min)> {
        let far = self.far.peek().map(|&(key, _)| key);
        if let Some((idx, slot)) = self.wheel_min() {
            let key = self.key_of(slot);
            if far.is_none_or(|f| key < f) {
                return Some((key.0, Min::Wheel { idx, slot }));
            }
        }
        far.map(|(at, _)| (at, Min::Far))
    }

    /// Unlink and return the slot of the earliest pending event, if it is
    /// due at or before `horizon`; otherwise leave the queue untouched. One
    /// search finds the minimum, and the pop acts on what it found.
    fn pop_due(&mut self, horizon: SimTime) -> Option<(SimTime, u32)> {
        let (at, min) = self.find_min()?;
        if at > horizon {
            return None;
        }
        let slot = match min {
            Min::Wheel { idx, slot } => {
                let next = self.keys[slot as usize].next;
                self.wheel[idx] = next;
                if next != NIL {
                    self.keys[next as usize].prev = NIL;
                } else {
                    self.wheel_tail[idx] = NIL;
                    self.occupancy[idx / 64] &= !(1u64 << (idx % 64));
                }
                self.wheel_len -= 1;
                slot
            }
            Min::Far => self.far.pop().expect("peeked entry vanished").1,
        };
        Some((at, slot))
    }

    /// The ordering key of `slot`.
    #[inline]
    fn key_of(&self, slot: u32) -> (SimTime, u64) {
        let k = &self.keys[slot as usize];
        (k.at, k.seq)
    }

    /// Link slot `slot`, keyed `(at, seq)`, into its wheel bucket, keeping
    /// the chain sorted ascending by `(at, seq)` and maintaining the
    /// occupancy bitmap and length. The tail comparison makes the dominant
    /// pattern — a burst of same-timestamp events arriving in ascending
    /// `seq` order — an O(1) append; only genuinely out-of-order keys (and
    /// far-heap entries moving in behind later-scheduled ties) pay an
    /// insertion scan.
    fn push_wheel(&mut self, slot: u32, at: SimTime, seq: u64) {
        let idx = (Self::bucket_of(at) & SLOT_MASK) as usize;
        let head = self.wheel[idx];
        let tail = self.wheel_tail[idx];
        // The neighbours the new slot goes between.
        let (prev, next) = if head == NIL {
            self.occupancy[idx / 64] |= 1 << (idx % 64);
            (NIL, NIL)
        } else if (at, seq) > self.key_of(tail) {
            (tail, NIL)
        } else if (at, seq) < self.key_of(head) {
            (NIL, head)
        } else {
            // Insert mid-chain: find the last node below the new key.
            // Terminates before the tail, whose key is above.
            let mut prev = head;
            loop {
                let next = self.keys[prev as usize].next;
                debug_assert!(next != NIL, "insertion scan ran off the chain");
                if self.key_of(next) > (at, seq) {
                    break (prev, next);
                }
                prev = next;
            }
        };
        match prev {
            NIL => self.wheel[idx] = slot,
            p => self.keys[p as usize].next = slot,
        }
        match next {
            NIL => self.wheel_tail[idx] = slot,
            n => self.keys[n as usize].prev = slot,
        }
        let key = &mut self.keys[slot as usize];
        key.prev = prev;
        key.next = next;
        self.wheel_len += 1;
    }

    /// Move far-heap entries whose bucket has entered the wheel window into
    /// the wheel, so the heap stays small. Costs one peek per fired event
    /// unless the heap top is due.
    fn migrate_due(&mut self) {
        let now_bucket = Self::bucket_of(self.now);
        while self
            .far
            .peek()
            .is_some_and(|&((at, _), _)| Self::bucket_of(at) - now_bucket < WHEEL_SLOTS as u64)
        {
            let ((at, seq), slot) = self.far.pop().expect("peeked entry vanished");
            self.push_wheel(slot, at, seq);
        }
    }

    /// Slab capacity (high-water mark of simultaneously pending events) —
    /// instrumentation for allocation tests.
    pub fn slab_capacity(&self) -> usize {
        self.keys.len()
    }

    /// Schedule `event` at absolute time `at`, returning its name for a
    /// later [`Scheduler::cancel`].
    ///
    /// # Panics
    /// Panics if `at` is in the past — scheduling backwards in time is always
    /// a model bug and must fail loudly.
    pub fn schedule(&mut self, at: SimTime, event: E) -> EventId {
        assert!(
            at >= self.now,
            "event scheduled in the past: at={at:?} now={:?}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        let key = Key {
            at,
            seq,
            next: NIL,
            prev: NIL,
        };
        let slot = if self.free_head == NIL {
            debug_assert!(self.keys.len() < NIL as usize, "slab full");
            self.keys.push(key);
            self.events.push(Some(event));
            (self.keys.len() - 1) as u32
        } else {
            let slot = self.free_head;
            self.free_head = self.keys[slot as usize].next;
            self.keys[slot as usize] = key;
            let payload = &mut self.events[slot as usize];
            debug_assert!(payload.is_none(), "freelist slot holds an event");
            *payload = Some(event);
            slot
        };
        // `at >= now` (asserted above), so the bucket difference cannot
        // underflow; within the window it goes to the wheel, else far.
        if Self::bucket_of(at) - Self::bucket_of(self.now) < WHEEL_SLOTS as u64 {
            self.push_wheel(slot, at, seq);
        } else {
            self.far.push((at, seq), slot);
        }
        EventId {
            slot,
            stamp: seq as u32,
        }
    }

    /// Schedule `event` `delay` after the current time.
    #[inline]
    pub fn schedule_after(&mut self, delay: SimTime, event: E) -> EventId {
        let at = self.now + delay;
        self.schedule(at, event)
    }

    /// Take the pending event `id` out of the queue unfired, dropping its
    /// payload and freeing its slot at once. It is never counted in
    /// [`Scheduler::fired`] and no longer seen by [`Scheduler::pending`],
    /// [`Scheduler::visit_pending`] or [`Scheduler::far_next_at`]; the
    /// other events keep their order. Returns `false`, changing nothing,
    /// if `id` already fired or was cancelled.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let slot = id.slot as usize;
        let live = self.events.get(slot).is_some_and(Option::is_some)
            && self.keys[slot].seq as u32 == id.stamp;
        if !live {
            return false;
        }
        // Where the slot waits follows from its time: the far heap holds
        // exactly the events a wheel revolution or more ahead.
        let ahead = Self::bucket_of(self.keys[slot].at) - Self::bucket_of(self.now);
        if ahead < WHEEL_SLOTS as u64 {
            self.unlink_wheel(id.slot);
        } else {
            self.far
                .remove(id.slot)
                .expect("far event missing from the far heap");
        }
        self.events[slot] = None;
        self.keys[slot].next = self.free_head;
        self.free_head = id.slot;
        true
    }

    /// Unlink the wheel-resident `slot` from its bucket chain, keeping the
    /// head, the tail, the occupancy bitmap and the length right.
    fn unlink_wheel(&mut self, slot: u32) {
        let Key { at, next, prev, .. } = self.keys[slot as usize];
        let idx = (Self::bucket_of(at) & SLOT_MASK) as usize;
        match prev {
            NIL => self.wheel[idx] = next,
            p => self.keys[p as usize].next = next,
        }
        match next {
            NIL => self.wheel_tail[idx] = prev,
            n => self.keys[n as usize].prev = prev,
        }
        if self.wheel[idx] == NIL {
            self.occupancy[idx / 64] &= !(1u64 << (idx % 64));
        }
        self.wheel_len -= 1;
    }

    /// Pop and fire the earliest event against `world`. Returns `false` when
    /// the queue is empty.
    pub fn step(&mut self, world: &mut W) -> bool {
        self.step_until(world, SimTime::MAX)
    }

    /// Pop and fire the earliest event against `world` if it is due at or
    /// before `horizon`. Returns `false`, with the queue and the clock
    /// untouched, when nothing is due.
    fn step_until(&mut self, world: &mut W, horizon: SimTime) -> bool {
        let Some((at, slot)) = self.pop_due(horizon) else {
            return false;
        };
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        self.fired += 1;
        self.migrate_due();
        let event = self.events[slot as usize]
            .take()
            .expect("queue entry pointed at a free slot");
        self.keys[slot as usize].next = self.free_head;
        self.free_head = slot;
        event.fire(world, self);
        true
    }
}

/// Why [`Simulation::run`] stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained — the normal way a simulation ends.
    Quiescent,
    /// The time horizon passed; events beyond it remain queued.
    HorizonReached,
    /// The event budget was exhausted — almost certainly a livelock bug.
    BudgetExhausted,
}

/// A world plus a scheduler, with guarded run loops.
pub struct Simulation<W, E: Event<W>> {
    world: W,
    sched: Scheduler<W, E>,
    /// Upper bound on the total number of fired events (livelock guard).
    budget: u64,
}

impl<W, E: Event<W>> Simulation<W, E> {
    /// Default budget: generous for real experiments, small enough that a
    /// livelocked unit test fails in well under a second.
    pub const DEFAULT_BUDGET: u64 = 500_000_000;

    /// Create a simulation around `world`.
    pub fn new(world: W) -> Self {
        Simulation {
            world,
            sched: Scheduler::new(),
            budget: Self::DEFAULT_BUDGET,
        }
    }

    /// Replace the event budget (livelock guard).
    pub fn with_budget(mut self, budget: u64) -> Self {
        self.budget = budget;
        self
    }

    /// Immutable world access.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Mutable world access (setup/teardown only — events mutate via firing).
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// The scheduler, read-only (pending-event inspection).
    pub fn scheduler(&self) -> &Scheduler<W, E> {
        &self.sched
    }

    /// The scheduler, for seeding initial events.
    pub fn scheduler_mut(&mut self) -> &mut Scheduler<W, E> {
        &mut self.sched
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// Total events fired.
    pub fn events_fired(&self) -> u64 {
        self.sched.fired()
    }

    /// Fire one event; `false` if the queue was empty.
    pub fn step(&mut self) -> bool {
        self.sched.step(&mut self.world)
    }

    /// Run until the queue drains or the budget is exhausted.
    pub fn run(&mut self) -> RunOutcome {
        self.run_until(SimTime::MAX)
    }

    /// Run until the queue drains, the next event lies beyond `horizon`, or
    /// the budget is exhausted. The clock never advances past `horizon`.
    pub fn run_until(&mut self, horizon: SimTime) -> RunOutcome {
        loop {
            if self.sched.fired() >= self.budget {
                return RunOutcome::BudgetExhausted;
            }
            if !self.sched.step_until(&mut self.world, horizon) {
                return if self.sched.pending() == 0 {
                    RunOutcome::Quiescent
                } else {
                    RunOutcome::HorizonReached
                };
            }
        }
    }

    /// Run while `pred(world)` holds (checked before each event).
    pub fn run_while<P: FnMut(&W) -> bool>(&mut self, mut pred: P) -> RunOutcome {
        loop {
            if !pred(&self.world) {
                return RunOutcome::HorizonReached;
            }
            if self.sched.fired() >= self.budget {
                return RunOutcome::BudgetExhausted;
            }
            if !self.sched.step(&mut self.world) {
                return RunOutcome::Quiescent;
            }
        }
    }

    /// Consume the simulation, returning the world.
    pub fn into_world(self) -> W {
        self.world
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test events over a log of values.
    enum Ev {
        /// Append a value.
        Push(u32),
        /// Append `left`, then reschedule with `left - 1` one `period`
        /// later, down to zero.
        Chain { left: u32, period: SimTime },
        /// Schedule `Push(v)` at absolute time `at`.
        PushAt { at: SimTime, v: u32 },
    }

    type Log = Vec<u32>;

    impl Event<Log> for Ev {
        fn fire(self, world: &mut Log, sched: &mut Scheduler<Log, Ev>) {
            match self {
                Ev::Push(v) => world.push(v),
                Ev::Chain { left, period } => {
                    world.push(left);
                    if left > 0 {
                        let next = Ev::Chain {
                            left: left - 1,
                            period,
                        };
                        sched.schedule_after(period, next);
                    }
                }
                Ev::PushAt { at, v } => {
                    sched.schedule(at, Ev::Push(v));
                }
            }
        }
    }

    fn sim() -> Simulation<Log, Ev> {
        Simulation::new(Vec::new())
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = sim();
        let s = sim.scheduler_mut();
        s.schedule(SimTime::from_us(30), Ev::Push(3));
        s.schedule(SimTime::from_us(10), Ev::Push(1));
        s.schedule(SimTime::from_us(20), Ev::Push(2));
        assert_eq!(sim.run(), RunOutcome::Quiescent);
        assert_eq!(sim.world(), &[1, 2, 3]);
        assert_eq!(sim.now(), SimTime::from_us(30));
    }

    #[test]
    fn ties_fire_fifo() {
        let mut sim = sim();
        let t = SimTime::from_us(5);
        for i in 0..100 {
            sim.scheduler_mut().schedule(t, Ev::Push(i));
        }
        sim.run();
        assert_eq!(*sim.world(), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_events() {
        let mut sim = sim();
        let period = SimTime::from_us(1);
        sim.scheduler_mut()
            .schedule(SimTime::ZERO, Ev::Chain { left: 9, period });
        assert_eq!(sim.run(), RunOutcome::Quiescent);
        assert_eq!(*sim.world(), (0..10).rev().collect::<Vec<_>>());
        assert_eq!(sim.now(), SimTime::from_us(9));
    }

    #[test]
    fn horizon_stops_clock() {
        let mut sim = sim();
        sim.scheduler_mut()
            .schedule(SimTime::from_us(10), Ev::Push(1));
        sim.scheduler_mut()
            .schedule(SimTime::from_us(100), Ev::Push(2));
        assert_eq!(
            sim.run_until(SimTime::from_us(50)),
            RunOutcome::HorizonReached
        );
        assert_eq!(*sim.world(), [1]);
        assert_eq!(sim.now(), SimTime::from_us(10));
        // The remaining event still fires on a later run.
        assert_eq!(sim.run(), RunOutcome::Quiescent);
        assert_eq!(*sim.world(), [1, 2]);
    }

    #[test]
    fn budget_catches_livelock() {
        let mut sim = sim().with_budget(1_000);
        let period = SimTime::from_ns(1);
        sim.scheduler_mut().schedule(
            SimTime::ZERO,
            Ev::Chain {
                left: u32::MAX,
                period,
            },
        );
        assert_eq!(sim.run(), RunOutcome::BudgetExhausted);
    }

    #[test]
    fn run_while_predicate() {
        let mut sim = sim();
        for i in 0..20 {
            sim.scheduler_mut()
                .schedule(SimTime::from_us(i as u64), Ev::Push(i));
        }
        sim.run_while(|w| w.len() < 5);
        assert_eq!(*sim.world(), [0, 1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut sim = sim();
        let at = SimTime::from_us(5);
        sim.scheduler_mut()
            .schedule(SimTime::from_us(10), Ev::PushAt { at, v: 0 });
        sim.run();
    }

    #[test]
    fn step_returns_false_when_empty() {
        let mut sim = sim();
        assert!(!sim.step());
        assert_eq!(sim.events_fired(), 0);
    }

    #[test]
    fn events_fire_in_order_and_reuse_slots() {
        let mut sim = sim();
        let s = sim.scheduler_mut();
        s.schedule(SimTime::from_us(2), Ev::Push(20));
        s.schedule(SimTime::from_us(1), Ev::Push(10));
        let period = SimTime::from_ns(5);
        s.schedule(SimTime::from_us(3), Ev::Chain { left: 3, period });
        assert_eq!(sim.run(), RunOutcome::Quiescent);
        assert_eq!(*sim.world(), [10, 20, 3, 2, 1, 0]);
        // The chain reuses freed slots: capacity stays at the high-water
        // mark of simultaneously pending events, not the event count.
        assert_eq!(sim.scheduler_mut().slab_capacity(), 3);
        assert_eq!(sim.events_fired(), 6);
    }

    #[test]
    fn far_future_events_fire_in_order() {
        // Events beyond the wheel window land in the far heap; they must
        // still interleave correctly with near-future events.
        let window = SimTime::from_ns(BUCKET_NS * WHEEL_SLOTS as u64);
        let mut sim = sim();
        let s = sim.scheduler_mut();
        s.schedule(window * 3, Ev::Push(4));
        s.schedule(SimTime::from_ns(50), Ev::Push(1));
        s.schedule(window * 2, Ev::Push(3));
        s.schedule(window - SimTime::from_ns(1), Ev::Push(2));
        assert_eq!(sim.run(), RunOutcome::Quiescent);
        assert_eq!(*sim.world(), [1, 2, 3, 4]);
    }

    #[test]
    fn ties_fire_fifo_across_wheel_and_far() {
        // First event scheduled while T is beyond the window (far heap),
        // second scheduled for the same T after the clock has advanced
        // enough that T is wheel-resident. FIFO by seq must still hold.
        let window = SimTime::from_ns(BUCKET_NS * WHEEL_SLOTS as u64);
        let t = window * 2;
        let mut sim = sim();
        let s = sim.scheduler_mut();
        s.schedule(t, Ev::Push(1));
        // Make sure draining continues past t.
        s.schedule(t + t / 2, Ev::Push(3));
        // Once `t` is within the window, its tie partner lands in the wheel
        // while the first sits in the far heap.
        s.schedule(window + window / 2, Ev::PushAt { at: t, v: 2 });
        assert_eq!(sim.run(), RunOutcome::Quiescent);
        assert_eq!(*sim.world(), [1, 2, 3]);
    }

    #[test]
    fn long_horizon_chain_wraps_the_wheel_many_times() {
        // A self-rescheduling chain whose period forces thousands of bucket
        // advances and several full wheel wraps: ~37 buckets per step, ~11
        // wraps over the whole run.
        let mut sim = sim();
        let period = SimTime::from_ns(2_401);
        sim.scheduler_mut().schedule(
            SimTime::ZERO,
            Ev::Chain {
                left: 4_999,
                period,
            },
        );
        assert_eq!(sim.run(), RunOutcome::Quiescent);
        assert_eq!(sim.world().len(), 5_000);
        assert_eq!(sim.now(), SimTime::from_ns(2_401 * 4_999));
    }

    #[test]
    fn visit_pending_walks_firing_order_across_both_bands() {
        let window = SimTime::from_ns(BUCKET_NS * WHEEL_SLOTS as u64);
        let mut sim = sim();
        let s = sim.scheduler_mut();
        s.schedule(window * 3, Ev::Push(4));
        s.schedule(SimTime::from_ns(50), Ev::Push(1));
        s.schedule(SimTime::from_ns(50), Ev::Push(2));
        s.schedule(window * 2, Ev::Push(3));
        assert_eq!(s.far_next_at(), Some(window * 2));
        let mut seen = Vec::new();
        let mut scratch = Vec::new();
        s.visit_pending(&mut scratch, |at, ev| {
            let Ev::Push(v) = ev else { unreachable!() };
            seen.push((at, *v));
        });
        assert_eq!(
            seen,
            [
                (SimTime::from_ns(50), 1),
                (SimTime::from_ns(50), 2),
                (window * 2, 3),
                (window * 3, 4)
            ]
        );
        s.add_fired(10);
        assert_eq!(sim.events_fired(), 10);
        sim.run();
        assert_eq!(sim.events_fired(), 14);
    }

    #[test]
    fn visit_pending_walks_from_mid_word_across_the_wrap_then_the_far_band() {
        let slots = WHEEL_SLOTS as u64;
        let bucket = |b: u64| SimTime::from_ns(b * BUCKET_NS);
        // One revolution in, `bucket(now)` is bit 37 of the bitmap's last
        // word: buckets 0..27 ahead sit before the wrap, 27.. after it,
        // and the window's last 37 back in that word, below now's bit.
        let start = 2 * slots - 64 + 37;
        let now = bucket(start) + SimTime::from_ns(5);
        let mut sim = sim();
        sim.scheduler_mut().schedule(now, Ev::Push(0));
        assert!(sim.step());
        let s = sim.scheduler_mut();
        let mut model = Vec::new();
        let mut ids = Vec::new();
        let ahead = [0, 1, 26, 27, 28, 90, slots - 37, slots - 2, slots - 1];
        let far = [slots, slots + 3, 3 * slots];
        for &b in ahead.iter().chain(&far) {
            // Latest first, so the chains link out of scheduling order;
            // the last two tie.
            for ns in [100, 7, 7] {
                let v = model.len() as u32 + 1;
                let at = bucket(start + b) + SimTime::from_ns(ns);
                ids.push(s.schedule(at, Ev::Push(v)));
                model.push((at, v));
            }
        }
        // One cancel in a chain and one in the far band.
        for v in [5, 32] {
            assert!(s.cancel(ids[v as usize - 1]));
            model.retain(|&(_, w)| w != v);
        }
        model.sort_unstable();
        let want = model;
        let mut seen = Vec::new();
        s.visit_pending(&mut Vec::new(), |at, ev| {
            let Ev::Push(v) = ev else { unreachable!() };
            seen.push((at, *v));
        });
        assert_eq!(seen, want);
        assert_eq!(
            s.far_next_at(),
            Some(bucket(start + slots) + SimTime::from_ns(7))
        );
        sim.run();
        let fired: Vec<u32> = want.iter().map(|&(_, v)| v).collect();
        assert_eq!(sim.world()[1..], fired, "the visit is the firing order");
    }

    #[test]
    fn pending_counts_both_bands() {
        let window = SimTime::from_ns(BUCKET_NS * WHEEL_SLOTS as u64);
        let mut sim = sim();
        let s = sim.scheduler_mut();
        s.schedule(SimTime::from_ns(10), Ev::Push(0));
        s.schedule(window * 5, Ev::Push(1));
        assert_eq!(s.pending(), 2);
        assert_eq!(s.peek_next_at(), Some(SimTime::from_ns(10)));
        sim.run();
        assert_eq!(sim.scheduler_mut().pending(), 0);
    }

    #[test]
    fn cancel_takes_events_out_of_both_bands_at_once() {
        let window = SimTime::from_ns(BUCKET_NS * WHEEL_SLOTS as u64);
        let mut sim = sim();
        let s = sim.scheduler_mut();
        let head = s.schedule(SimTime::from_ns(50), Ev::Push(1));
        s.schedule(SimTime::from_ns(50), Ev::Push(2));
        let tail = s.schedule(SimTime::from_ns(50), Ev::Push(3));
        let far = s.schedule(window * 2, Ev::Push(4));
        s.schedule(window * 3, Ev::Push(5));
        assert!(s.cancel(far));
        assert!(!s.cancel(far), "a cancelled event cancels once");
        assert_eq!(s.far_next_at(), Some(window * 3));
        assert!(s.cancel(head) && s.cancel(tail));
        assert_eq!(s.pending(), 2);
        // The freed slots are reused, and stale names never match them.
        let again = s.schedule(SimTime::from_ns(60), Ev::Push(6));
        assert!(!s.cancel(head) && !s.cancel(tail) && !s.cancel(far));
        assert_eq!(s.slab_capacity(), 5);
        sim.run();
        assert_eq!(*sim.world(), [2, 6, 5]);
        assert_eq!(sim.events_fired(), 3);
        assert!(!sim.scheduler_mut().cancel(again), "fired events are gone");
    }
}
