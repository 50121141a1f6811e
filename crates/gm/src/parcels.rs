//! Off-queue storage for the bulky payloads of scheduled cluster events.
//!
//! A [`Packet`] is 80 bytes, a [`GmEvent`] 40 and a [`SendToken`] 40, while
//! every other [`ClusterEvent`](crate::ClusterEvent) field is a node, a
//! port or a counter. Carrying them inline would size *every* scheduler
//! slot for the largest one, so they are parked here instead and the event
//! carries a 4-byte [`Handle`]. Each payload type has its own [`Slab`] with
//! a LIFO freelist: steady-state rounds reuse the slots the warm-up rounds
//! grew, so parking allocates nothing once the in-flight high-water mark
//! is reached.
//!
//! The store belongs to the engine's event sink — the [`Cluster`] in the
//! serial engine, each logical process in the parallel one — so a handle is
//! only ever resolved against the store that issued it.
//!
//! [`Cluster`]: crate::Cluster

use crate::events::GmEvent;
use crate::packet::Packet;
use crate::token::SendToken;
use std::fmt;
use std::marker::PhantomData;

/// A parked payload of type `T`: an index into the [`Slab<T>`] that issued
/// it. Valid until the event that carries it takes the payload back out.
pub struct Handle<T> {
    slot: u32,
    of: PhantomData<fn() -> T>,
}

impl<T> Clone for Handle<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for Handle<T> {}

impl<T> fmt::Debug for Handle<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Handle({})", self.slot)
    }
}

/// Slots of one payload type, `Some` while parked, plus the free slots in
/// LIFO order (the most recently freed slot, still warm in cache, is
/// reused first).
pub struct Slab<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> Slab<T> {
    /// Park `value`, returning the handle that retrieves it.
    pub(crate) fn park(&mut self, value: T) -> Handle<T> {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(value);
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("parcel slab full");
                self.slots.push(Some(value));
                slot
            }
        };
        Handle {
            slot,
            of: PhantomData,
        }
    }

    /// The parked value.
    ///
    /// # Panics
    /// If the handle's slot is free (its value was already taken).
    pub(crate) fn get(&self, h: Handle<T>) -> &T {
        self.slots[h.slot as usize]
            .as_ref()
            .unwrap_or_else(|| panic!("stale parcel {h:?}"))
    }

    /// Remove and return the parked value, freeing its slot.
    ///
    /// # Panics
    /// If the handle's slot is free (its value was already taken).
    pub(crate) fn take(&mut self, h: Handle<T>) -> T {
        let value = self.slots[h.slot as usize]
            .take()
            .unwrap_or_else(|| panic!("stale parcel {h:?}"));
        self.free.push(h.slot);
        value
    }
}

/// The three payload slabs of one event sink.
#[derive(Default)]
pub struct Parcels {
    /// Packets between their `Transmit` and their `WireDeliver`.
    pub(crate) packets: Slab<Packet>,
    /// Host events between the RDMA completion and the poll loop.
    pub(crate) events: Slab<GmEvent>,
    /// Send tokens between the host post and the SDMA pickup.
    pub(crate) tokens: Slab<SendToken>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::TeamId;

    fn ev(team: u32) -> GmEvent {
        GmEvent::BarrierComplete { team: TeamId(team) }
    }

    #[test]
    fn freed_slots_are_reused_last_in_first_out() {
        let mut slab = Slab::default();
        let a = slab.park(ev(1));
        let b = slab.park(ev(2));
        let c = slab.park(ev(3));
        assert_eq!(slab.take(a), ev(1));
        assert_eq!(slab.take(c), ev(3));
        // The most recently freed slot (c's) comes back first, then a's;
        // the slab never grows past its high-water mark.
        let d = slab.park(ev(4));
        let e = slab.park(ev(5));
        assert_eq!((d.slot, e.slot), (c.slot, a.slot));
        assert_eq!(slab.slots.len(), 3);
        assert_eq!(*slab.get(b), ev(2));
        assert_eq!(*slab.get(d), ev(4));
        assert_eq!(slab.take(e), ev(5));
        assert_eq!(slab.free, [e.slot]);
    }

    #[test]
    #[should_panic(expected = "stale parcel")]
    fn taking_a_handle_twice_panics() {
        let mut slab = Slab::default();
        let h = slab.park(ev(7));
        slab.take(h);
        slab.take(h);
    }

    #[test]
    #[should_panic(expected = "stale parcel")]
    fn reading_a_taken_handle_panics() {
        let mut slab = Slab::default();
        let h = slab.park(ev(7));
        slab.take(h);
        slab.get(h);
    }
}
