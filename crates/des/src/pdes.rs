//! Conservative parallel DES primitives.
//!
//! The serial [`Scheduler`](crate::scheduler::Scheduler) orders events by
//! `(time, seq)`, where `seq` is the global schedule-call counter. A parallel
//! run partitions the world into logical processes (LPs) that execute
//! windows of width Δ — the minimum cross-partition delivery latency — in
//! lockstep: within a window no LP can influence another (every cross-LP
//! effect is deferred to the window barrier and lands at least Δ later), so
//! LPs are data-parallel between barriers.
//!
//! Bit-identity with the serial run hinges on reproducing the serial
//! `(time, seq)` order without a global counter. The observation that makes
//! this possible: for events scheduled *during* the run, serial `seq` order
//! at equal timestamps is exactly lexicographic `(rank of the causing
//! event's firing, emission index within that firing)` — causes fire in seq
//! order and schedule their children in emission order. Events scheduled
//! *before* the run started compare among themselves by schedule order and
//! precede everything else. That yields a three-tier key ([`Cause`]):
//!
//! * **Init** — scheduled before the run; ordered by setup slot.
//! * **Ranked** — the cause already has a global firing rank (it fired in an
//!   earlier window, or was ranked at a barrier); ordered by
//!   `(rank, emission)`.
//! * **Local** — the cause fired earlier in the *current* window in the
//!   *same* LP (cross-LP causes are impossible mid-window); ordered by the
//!   cause's position in the LP's firing log, which restricted to one LP is
//!   rank order.
//!
//! At each barrier a [`Sequencer`] merges the per-LP firing logs into the
//! global rank order the serial scheduler would have produced, after which
//! every `Local` key can be patched to `Ranked` ([`LpQueue::seal_window`]).
//! The rank order also dictates the order of deferred cross-LP side effects
//! (fabric sends, trace records), which is what makes shared-resource
//! state — wormhole link contention, the fault RNG draw sequence, trace-ring
//! eviction — evolve exactly as in the serial run.

use crate::heap::SlotHeap;
use crate::scheduler::EventId;
use crate::time::SimTime;
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering as AtomicOrdering};

/// Why an event was scheduled — the parallel stand-in for the serial
/// scheduler's tie-breaking `seq`. See the module docs for the ordering
/// argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cause {
    /// Scheduled before the run started; `slot` is the setup-schedule index.
    Init {
        /// Position among pre-run schedules (serial `seq` equivalent).
        slot: u64,
    },
    /// Scheduled by an event whose global firing rank is known.
    Ranked {
        /// Global firing rank of the causing event.
        rank: u64,
        /// Schedule-call index within the cause's firing.
        emission: u32,
    },
    /// Scheduled by an event that fired earlier in the current window in
    /// the same LP and has not been globally ranked yet.
    Local {
        /// Position of the cause in this LP's current-window firing log.
        pos: u32,
        /// Schedule-call index within the cause's firing.
        emission: u32,
    },
}

/// Totally ordered comparison key of a [`Cause`]: `(tier, a, b)`.
type SerialKey = (u8, u64, u32);

impl Cause {
    /// Totally ordered comparison key: `(tier, a, b)`. Init sorts before
    /// Ranked before Local at equal times — matching serial `seq` order,
    /// because pre-run schedules hold the smallest seqs and every
    /// current-window cause fired (hence scheduled) after every
    /// already-ranked cause.
    fn key(self) -> SerialKey {
        match self {
            Cause::Init { slot } => (0, slot, 0),
            Cause::Ranked { rank, emission } => (1, rank, emission),
            Cause::Local { pos, emission } => (2, pos as u64, emission),
        }
    }
}

impl Ord for Cause {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}
impl PartialOrd for Cause {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Full ordering key of a pending event in an LP queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct EvKey {
    /// Absolute firing time.
    pub at: SimTime,
    /// Serial-order tie-break at equal times.
    pub cause: Cause,
}

/// Per-LP pending-event queue: the payloads in a slab, their slots in one
/// indexed heap by [`EvKey`], and the slots scheduled during the current
/// window (`Local` keys), which are re-keyed to `Ranked` at the barrier.
///
/// The fresh list means sealing a window only touches the events that
/// window created, not the (potentially large) backlog of timers and
/// deliveries; and since the re-key never changes an event's place among
/// the others, it renames heap entries in place.
pub struct LpQueue<E> {
    heap: SlotHeap<EvKey>,
    /// Payload of every slot: `Some` while pending.
    events: Vec<Option<E>>,
    /// Every slot's current [`EventId`] stamp, bumped when it is freed.
    stamps: Vec<u32>,
    free: Vec<u32>,
    /// Slots pushed under `Local` keys since the last seal (a slot that
    /// fired or was cancelled meanwhile is skipped by the seal).
    fresh: Vec<u32>,
}

impl<E> Default for LpQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> LpQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        LpQueue {
            heap: SlotHeap::new(),
            events: Vec::new(),
            stamps: Vec::new(),
            free: Vec::new(),
            fresh: Vec::new(),
        }
    }

    /// Insert an event under `key`, returning its name for a later
    /// [`LpQueue::cancel`]. Keys are unique within one LP (Init slots,
    /// (rank, emission) pairs and (pos, emission) pairs each identify one
    /// schedule call). `Local` keys MUST be sealed (via
    /// [`LpQueue::seal_window`]) before the window they were scheduled in
    /// ends.
    pub fn push(&mut self, key: EvKey, ev: E) -> EventId {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.events[slot as usize] = Some(ev);
                slot
            }
            None => {
                self.events.push(Some(ev));
                self.stamps.push(0);
                (self.events.len() - 1) as u32
            }
        };
        if let Cause::Local { .. } = key.cause {
            self.fresh.push(slot);
        }
        self.heap.push(key, slot);
        EventId {
            slot,
            stamp: self.stamps[slot as usize],
        }
    }

    /// Take the pending event `id` out unfired and free its slot. Returns
    /// `false`, changing nothing, if it already fired or was cancelled.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let live = self.stamps.get(id.slot as usize) == Some(&id.stamp)
            && self.heap.remove(id.slot).is_some();
        if live {
            self.release(id.slot);
        }
        live
    }

    /// Drop `slot`'s payload and put it on the freelist under a new stamp.
    fn release(&mut self, slot: u32) -> E {
        let s = slot as usize;
        self.stamps[s] = self.stamps[s].wrapping_add(1);
        self.free.push(slot);
        self.events[s].take().expect("pending slot holds an event")
    }

    /// Firing time of the earliest pending event.
    pub fn next_at(&self) -> Option<SimTime> {
        self.heap.peek().map(|(key, _)| key.at)
    }

    /// Pop the earliest event if it fires strictly before `end`.
    pub fn pop_before(&mut self, end: SimTime) -> Option<(EvKey, E)> {
        if self.heap.peek()?.0.at >= end {
            return None;
        }
        let (key, slot) = self.heap.pop().expect("peeked entry vanished");
        Some((key, self.release(slot)))
    }

    /// Pop the earliest event unconditionally (merged-LP mode, where the
    /// whole run is one window).
    pub fn pop(&mut self) -> Option<(EvKey, E)> {
        self.pop_before(SimTime::MAX)
    }

    /// End-of-window re-key: every `Local{pos, emission}` key becomes
    /// `Ranked{pos_rank[pos], emission}`. `pos_rank` is the per-LP slice
    /// filled by [`Sequencer::sequence`].
    ///
    /// Order preservation: a `Local` key sorts after every `Ranked` key at
    /// the same time, and the new ranks (assigned this barrier) are larger
    /// than every rank already in the queue, so the relative order of all
    /// pending events is unchanged — the patch only swaps in the name the
    /// serial scheduler would have used all along.
    pub fn seal_window(&mut self, pos_rank: &[u64]) {
        for slot in self.fresh.drain(..) {
            // A fresh slot that fired or was cancelled, then was reused
            // under a fresh key, is listed twice; the second visit finds
            // its key already ranked.
            let Some(EvKey {
                at,
                cause: Cause::Local { pos, emission },
            }) = self.heap.key(slot)
            else {
                continue;
            };
            let rank = pos_rank[pos as usize];
            debug_assert_ne!(rank, u64::MAX, "cause was never ranked");
            let cause = Cause::Ranked { rank, emission };
            self.heap.rekey(slot, EvKey { at, cause });
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.len() == 0
    }

    /// True when some event was pushed under a `Local` key since the last
    /// seal.
    pub fn needs_seal(&self) -> bool {
        !self.fresh.is_empty()
    }
}

/// One fired event, as recorded in an LP's window log: when it fired and
/// the key it fired under. Logs are in firing order, so `at` is
/// non-decreasing.
#[derive(Debug, Clone, Copy)]
pub struct FiredRec {
    /// Firing time.
    pub at: SimTime,
    /// The fired event's own cause key.
    pub cause: Cause,
}

/// Merges per-LP firing logs into the global firing order the serial
/// scheduler would have produced, assigning each fired event a global rank.
/// Ranks are monotone across windows (the counter never resets), which is
/// what lets `Ranked` keys from different windows compare correctly.
pub struct Sequencer {
    next_rank: u64,
    /// Children whose cause has not been ranked yet, keyed by the cause's
    /// (lp, log position); values are the children's (log position,
    /// emission) in emission order.
    waiting: HashMap<(u32, u32), Vec<(u32, u32)>>,
    /// Scratch min-heap of records whose serial key is resolved:
    /// `(key, lp, pos)`.
    ready: BinaryHeap<Reverse<(SerialKey, u32, u32)>>,
    /// Scratch cursor heap for the k-way merge by time: `(at, lp)`.
    fronts: BinaryHeap<Reverse<(SimTime, u32)>>,
}

impl Default for Sequencer {
    fn default() -> Self {
        Self::new()
    }
}

impl Sequencer {
    /// A sequencer with the rank counter at zero.
    pub fn new() -> Self {
        Sequencer {
            next_rank: 0,
            waiting: HashMap::new(),
            ready: BinaryHeap::new(),
            fronts: BinaryHeap::new(),
        }
    }

    /// The rank the next fired event will receive.
    pub fn next_rank(&self) -> u64 {
        self.next_rank
    }

    /// Merge one window's per-LP firing logs into global rank order.
    ///
    /// On return, `pos_rank[lp][pos]` holds the global rank of `logs[lp]
    /// [pos]` (the vectors are (re)sized as needed), and `order` lists
    /// `(lp, pos)` pairs in ascending rank order — the exact order the
    /// serial scheduler would have fired these events in. Deferred
    /// side-effect replay (fabric sends, trace stitching) walks `order`.
    pub fn sequence(
        &mut self,
        logs: &[&[FiredRec]],
        pos_rank: &mut Vec<Vec<u64>>,
        order: &mut Vec<(u32, u32)>,
    ) {
        order.clear();
        pos_rank.resize_with(logs.len(), Vec::new);
        let mut total = 0;
        for (lp, log) in logs.iter().enumerate() {
            let ranks = &mut pos_rank[lp];
            ranks.clear();
            ranks.resize(log.len(), u64::MAX);
            total += log.len();
            if let Some(first) = log.first() {
                self.fronts.push(Reverse((first.at, lp as u32)));
            }
        }
        order.reserve(total);

        // Per-LP cursor into the log.
        let mut cursor = vec![0usize; logs.len()];

        while let Some(&Reverse((group_at, _))) = self.fronts.peek() {
            // Gather every record at `group_at`, across all LPs, in log
            // order per LP. Within one LP a cause always precedes its
            // children in the log, so by the time a child needs its cause's
            // rank, the cause is already in `ready` or `waiting`.
            while let Some(&Reverse((at, lp))) = self.fronts.peek() {
                if at != group_at {
                    break;
                }
                self.fronts.pop();
                let log = logs[lp as usize];
                let mut c = cursor[lp as usize];
                while c < log.len() && log[c].at == group_at {
                    let rec = log[c];
                    let pos = c as u32;
                    match rec.cause {
                        Cause::Init { slot } => {
                            self.ready.push(Reverse(((0, slot, 0), lp, pos)));
                        }
                        Cause::Ranked { rank, emission } => {
                            self.ready.push(Reverse(((1, rank, emission), lp, pos)));
                        }
                        Cause::Local {
                            pos: cause_pos,
                            emission,
                        } => {
                            let r = pos_rank[lp as usize][cause_pos as usize];
                            if r != u64::MAX {
                                self.ready.push(Reverse(((1, r, emission), lp, pos)));
                            } else {
                                // Cause fires at this same timestamp and is
                                // not ranked yet: park until it is.
                                self.waiting
                                    .entry((lp, cause_pos))
                                    .or_default()
                                    .push((pos, emission));
                            }
                        }
                    }
                    c += 1;
                }
                cursor[lp as usize] = c;
                if c < log.len() {
                    self.fronts.push(Reverse((log[c].at, lp)));
                }
            }

            // Rank the group: repeatedly take the record with the smallest
            // serial key; ranking a record releases its parked children with
            // their now-resolved `(rank, emission)` keys. Releases insert
            // keys larger than everything ranked so far, so the pop order is
            // the serial firing order.
            while let Some(Reverse((_, lp, pos))) = self.ready.pop() {
                let rank = self.next_rank;
                self.next_rank += 1;
                pos_rank[lp as usize][pos as usize] = rank;
                order.push((lp, pos));
                if let Some(children) = self.waiting.remove(&(lp, pos)) {
                    for (child_pos, emission) in children {
                        self.ready
                            .push(Reverse(((1, rank, emission), lp, child_pos)));
                    }
                }
            }
            debug_assert!(
                self.waiting.is_empty(),
                "unresolved causality within a time group"
            );
        }
        debug_assert_eq!(order.len(), total);
    }
}

/// A sense-reversing spin barrier for the window loop's phase changes.
///
/// Windows are short (often a handful of events per LP), so the
/// worker/coordinator handoff happens hundreds of thousands of times per
/// run; a futex-based barrier would dominate the profile. Spinning with
/// [`std::hint::spin_loop`] keeps the handoff in the tens of nanoseconds
/// when all threads are running, degrading to `yield_now` if a thread is
/// descheduled. When the barrier has more participants than the host has
/// cores, a waiter can *only* make progress by letting another thread
/// run, so the spin budget drops to zero and every wait yields
/// immediately — spinning there just burns the peer's timeslice.
pub struct SpinBarrier {
    n: usize,
    arrived: AtomicUsize,
    sense: AtomicBool,
    spin_budget: u32,
}

impl SpinBarrier {
    /// A barrier for `n` participants.
    pub fn new(n: usize) -> Self {
        let cores = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        SpinBarrier {
            n,
            arrived: AtomicUsize::new(0),
            sense: AtomicBool::new(false),
            spin_budget: if n > cores { 0 } else { 1 << 14 },
        }
    }

    /// Block until all `n` participants have called `wait`. Each thread
    /// passes its own `local_sense`, initialised to `false`.
    pub fn wait(&self, local_sense: &mut bool) {
        let sense = !*local_sense;
        *local_sense = sense;
        if self.arrived.fetch_add(1, AtomicOrdering::AcqRel) + 1 == self.n {
            self.arrived.store(0, AtomicOrdering::Relaxed);
            self.sense.store(sense, AtomicOrdering::Release);
        } else {
            let mut spins = 0u32;
            while self.sense.load(AtomicOrdering::Acquire) != sense {
                if spins < self.spin_budget {
                    spins += 1;
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn t(ns: u64) -> SimTime {
        SimTime::from_ns(ns)
    }

    #[test]
    fn cause_tiers_order_like_serial_seq() {
        let init = Cause::Init { slot: 7 };
        let ranked = Cause::Ranked {
            rank: 100,
            emission: 3,
        };
        let local = Cause::Local {
            pos: 0,
            emission: 0,
        };
        assert!(init < ranked && ranked < local);
        assert!(
            Cause::Ranked {
                rank: 100,
                emission: 3
            } < Cause::Ranked {
                rank: 100,
                emission: 4
            }
        );
        assert!(
            Cause::Local {
                pos: 1,
                emission: 9
            } < Cause::Local {
                pos: 2,
                emission: 0
            }
        );
        // Time dominates the tier.
        let early_local = EvKey {
            at: t(5),
            cause: local,
        };
        let late_init = EvKey {
            at: t(6),
            cause: init,
        };
        assert!(early_local < late_init);
    }

    #[test]
    fn lp_queue_pops_across_bands_in_key_order() {
        let mut q: LpQueue<&'static str> = LpQueue::new();
        q.push(
            EvKey {
                at: t(10),
                cause: Cause::Local {
                    pos: 0,
                    emission: 0,
                },
            },
            "local",
        );
        q.push(
            EvKey {
                at: t(10),
                cause: Cause::Ranked {
                    rank: 4,
                    emission: 1,
                },
            },
            "ranked",
        );
        q.push(
            EvKey {
                at: t(10),
                cause: Cause::Init { slot: 0 },
            },
            "init",
        );
        q.push(
            EvKey {
                at: t(5),
                cause: Cause::Local {
                    pos: 3,
                    emission: 2,
                },
            },
            "earliest",
        );
        assert_eq!(q.next_at(), Some(t(5)));
        let mut got = Vec::new();
        while let Some((_, ev)) = q.pop() {
            got.push(ev);
        }
        assert_eq!(got, ["earliest", "init", "ranked", "local"]);
    }

    #[test]
    fn pop_before_respects_the_window_end() {
        let mut q: LpQueue<u32> = LpQueue::new();
        for (ns, v) in [(10, 1u32), (20, 2), (30, 3)] {
            q.push(
                EvKey {
                    at: t(ns),
                    cause: Cause::Init { slot: v as u64 },
                },
                v,
            );
        }
        assert_eq!(q.pop_before(t(20)).map(|(_, v)| v), Some(1));
        assert_eq!(q.pop_before(t(20)), None);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn seal_window_rekeys_without_reordering() {
        let mut q: LpQueue<&'static str> = LpQueue::new();
        // Two future events: one already Ranked (rank 2), one Local from
        // cause at log pos 1. Suppose the barrier ranks pos 1 as rank 7.
        q.push(
            EvKey {
                at: t(100),
                cause: Cause::Local {
                    pos: 1,
                    emission: 0,
                },
            },
            "was-local",
        );
        q.push(
            EvKey {
                at: t(100),
                cause: Cause::Ranked {
                    rank: 2,
                    emission: 0,
                },
            },
            "old-ranked",
        );
        assert!(q.needs_seal());
        let pos_rank = [u64::MAX, 7u64];
        q.seal_window(&pos_rank);
        assert!(!q.needs_seal());
        let mut got = Vec::new();
        while let Some((key, ev)) = q.pop() {
            if ev == "was-local" {
                assert_eq!(
                    key.cause,
                    Cause::Ranked {
                        rank: 7,
                        emission: 0
                    }
                );
            }
            got.push(ev);
        }
        // Rank 2 still precedes rank 7 at the same time.
        assert_eq!(got, ["old-ranked", "was-local"]);
    }

    #[test]
    fn cancel_removes_one_event_and_the_seal_skips_it() {
        let mut q: LpQueue<u32> = LpQueue::new();
        let local = |pos, at| EvKey {
            at: t(at),
            cause: Cause::Local { pos, emission: 0 },
        };
        let a = q.push(local(0, 50), 1);
        let b = q.push(local(1, 40), 2);
        q.push(local(2, 60), 3);
        assert!(q.cancel(b));
        assert!(!q.cancel(b), "a cancelled event cancels once");
        assert_eq!((q.len(), q.next_at()), (2, Some(t(50))));
        // The freed slot is reused under a new stamp; the old name fails.
        let c = q.push(local(3, 45), 4);
        assert!(!q.cancel(b));
        assert!(q.cancel(a));
        q.seal_window(&[10, 11, 12, 13]);
        assert!(!q.needs_seal());
        let got: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        let ranked = |rank, at| EvKey {
            at: t(at),
            cause: Cause::Ranked { rank, emission: 0 },
        };
        assert_eq!(got, [(ranked(13, 45), 4), (ranked(12, 60), 3)]);
        assert!(!q.cancel(c), "a popped event is gone");
    }

    #[test]
    fn sequencer_single_lp_ranks_in_log_order() {
        let log = vec![
            FiredRec {
                at: t(0),
                cause: Cause::Init { slot: 0 },
            },
            FiredRec {
                at: t(0),
                cause: Cause::Local {
                    pos: 0,
                    emission: 0,
                },
            },
            FiredRec {
                at: t(5),
                cause: Cause::Local {
                    pos: 1,
                    emission: 0,
                },
            },
        ];
        let mut seq = Sequencer::new();
        let mut ranks = Vec::new();
        let mut order = Vec::new();
        seq.sequence(&[&log], &mut ranks, &mut order);
        assert_eq!(order, [(0, 0), (0, 1), (0, 2)]);
        assert_eq!(ranks[0], [0, 1, 2]);
        assert_eq!(seq.next_rank(), 3);
    }

    #[test]
    fn sequencer_interleaves_lps_by_serial_key() {
        // Two LPs, all events at t=0. LP0: an Init(slot 0) firing that
        // locally caused a chain (child emission 0, grandchild). LP1: an
        // Init(slot 1) firing with one child. Serial order: init0 (seq 0),
        // init1 (seq 1), then the children in cause-rank order: child of
        // rank 0 before child of rank 1, then the grandchild (cause rank 2).
        let lp0 = vec![
            FiredRec {
                at: t(0),
                cause: Cause::Init { slot: 0 },
            },
            FiredRec {
                at: t(0),
                cause: Cause::Local {
                    pos: 0,
                    emission: 0,
                },
            },
            FiredRec {
                at: t(0),
                cause: Cause::Local {
                    pos: 1,
                    emission: 0,
                },
            },
        ];
        let lp1 = vec![
            FiredRec {
                at: t(0),
                cause: Cause::Init { slot: 1 },
            },
            FiredRec {
                at: t(0),
                cause: Cause::Local {
                    pos: 0,
                    emission: 0,
                },
            },
        ];
        let mut seq = Sequencer::new();
        let mut ranks = Vec::new();
        let mut order = Vec::new();
        seq.sequence(&[&lp0, &lp1], &mut ranks, &mut order);
        assert_eq!(order, [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2)]);
        assert_eq!(ranks[0], [0, 2, 4]);
        assert_eq!(ranks[1], [1, 3]);
    }

    #[test]
    fn sequencer_rank_counter_is_monotone_across_windows() {
        let mut seq = Sequencer::new();
        let mut ranks = Vec::new();
        let mut order = Vec::new();
        let w1 = vec![FiredRec {
            at: t(0),
            cause: Cause::Init { slot: 0 },
        }];
        seq.sequence(&[&w1], &mut ranks, &mut order);
        // Window 2: a delivery whose cause was ranked 0 in window 1.
        let w2 = vec![FiredRec {
            at: t(500),
            cause: Cause::Ranked {
                rank: 0,
                emission: 0,
            },
        }];
        seq.sequence(&[&w2], &mut ranks, &mut order);
        assert_eq!(ranks[0], [1]);
    }

    #[test]
    fn sequencer_handles_empty_and_single_record_logs() {
        let mut seq = Sequencer::new();
        let mut ranks = Vec::new();
        let mut order = Vec::new();
        let empty: Vec<FiredRec> = Vec::new();
        let one = vec![FiredRec {
            at: t(3),
            cause: Cause::Init { slot: 0 },
        }];
        seq.sequence(&[&empty, &one, &empty], &mut ranks, &mut order);
        assert_eq!(order, [(1, 0)]);
        assert_eq!(ranks[1], [0]);
        assert!(ranks[0].is_empty() && ranks[2].is_empty());
    }

    #[test]
    fn spin_barrier_synchronizes_rounds() {
        const THREADS: usize = 4;
        const ROUNDS: usize = 200;
        let barrier = SpinBarrier::new(THREADS);
        let counter = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    let mut sense = false;
                    for round in 0..ROUNDS {
                        counter.fetch_add(1, AtomicOrdering::Relaxed);
                        barrier.wait(&mut sense);
                        // Between barriers every thread must observe the
                        // full round's increments.
                        let seen = counter.load(AtomicOrdering::Relaxed);
                        assert!(seen >= ((round + 1) * THREADS) as u64);
                        barrier.wait(&mut sense);
                    }
                });
            }
        });
        assert_eq!(
            counter.load(AtomicOrdering::Relaxed),
            (THREADS * ROUNDS) as u64
        );
    }
}
