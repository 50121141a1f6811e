//! A min-heap of slab slots that can remove any slot.
//!
//! Both event queues keep their payloads in a slab and order slot numbers
//! by key. A plain heap cannot take out an entry it does not hold at the
//! top, which a cancel needs; this one also keeps each slot's position in
//! the heap, so [`SlotHeap::remove`] finds the entry at once and restores
//! the order in O(log n).

/// Position sentinel: the slot is not in the heap.
const ABSENT: u32 = u32::MAX;

/// Children per node: a 4-ary heap is half as deep as a binary one, and a
/// node's children share a cache line or two.
const ARITY: usize = 4;

/// `(key, slot)` entries in heap order, smallest key on top, plus the
/// position of every slot. Keys must be unique for a deterministic order.
pub(crate) struct SlotHeap<K> {
    heap: Vec<(K, u32)>,
    /// `pos[slot]`: index of `slot` in `heap`, or [`ABSENT`]. Grows to the
    /// largest slot ever pushed and is never shrunk, so a steady state
    /// allocates nothing.
    pos: Vec<u32>,
}

impl<K: Ord + Copy> SlotHeap<K> {
    pub(crate) fn new() -> Self {
        SlotHeap {
            heap: Vec::new(),
            pos: Vec::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// The smallest entry.
    pub(crate) fn peek(&self) -> Option<&(K, u32)> {
        self.heap.first()
    }

    /// Every entry, in heap order (smallest first, the rest unsorted).
    pub(crate) fn entries(&self) -> &[(K, u32)] {
        &self.heap
    }

    /// Insert `slot` under `key`. The slot must not be in the heap.
    pub(crate) fn push(&mut self, key: K, slot: u32) {
        let s = slot as usize;
        if self.pos.len() <= s {
            self.pos.resize(s + 1, ABSENT);
        }
        debug_assert_eq!(self.pos[s], ABSENT, "slot {slot} pushed twice");
        self.heap.push((key, slot));
        self.pos[s] = (self.heap.len() - 1) as u32;
        self.sift_up(self.heap.len() - 1);
    }

    /// Remove and return the smallest entry.
    pub(crate) fn pop(&mut self) -> Option<(K, u32)> {
        let slot = self.heap.first()?.1;
        self.remove(slot).map(|key| (key, slot))
    }

    /// Remove `slot`, returning its key, or `None` if it is not here.
    pub(crate) fn remove(&mut self, slot: u32) -> Option<K> {
        let i = *self.pos.get(slot as usize)?;
        if i == ABSENT {
            return None;
        }
        self.pos[slot as usize] = ABSENT;
        let key = self.heap[i as usize].0;
        // Move the hole down to a leaf along the smallest children, then
        // fill it with the last entry, which can only belong at or above
        // it.
        let mut hole = i as usize;
        let last = self.heap.len() - 1;
        while let Some(child) = self.min_child(hole, last) {
            self.place(hole, self.heap[child]);
            hole = child;
        }
        let tail = self.heap.pop().expect("removing from an empty heap");
        if hole < last {
            self.place(hole, tail);
            self.sift_up(hole);
        }
        Some(key)
    }

    /// Put `entry` at index `i`, recording its position.
    fn place(&mut self, i: usize, entry: (K, u32)) {
        self.pos[entry.1 as usize] = i as u32;
        self.heap[i] = entry;
    }

    /// Replace the key of `slot`, which must be here, with `key`, which
    /// must sort in the same place relative to every other entry (a
    /// rename, not a move).
    pub(crate) fn rekey(&mut self, slot: u32, key: K) {
        let i = self.pos[slot as usize] as usize;
        self.heap[i].0 = key;
    }

    /// Key of `slot`, if it is here.
    pub(crate) fn key(&self, slot: u32) -> Option<K> {
        match self.pos.get(slot as usize) {
            Some(&i) if i != ABSENT => Some(self.heap[i as usize].0),
            _ => None,
        }
    }

    /// The smallest of the children of `i` below index `end`, if any.
    fn min_child(&self, i: usize, end: usize) -> Option<usize> {
        let first = ARITY * i + 1;
        (first..(first + ARITY).min(end)).min_by_key(|&c| self.heap[c].0)
    }

    fn sift_up(&mut self, mut i: usize) {
        let entry = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if entry.0 >= self.heap[parent].0 {
                break;
            }
            self.place(i, self.heap[parent]);
            i = parent;
        }
        self.place(i, entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::forall;

    #[test]
    fn matches_a_sorted_model_under_push_pop_and_remove() {
        forall(256, 0x5107_4EA9, |g| {
            let mut heap = SlotHeap::new();
            let mut model: Vec<(u64, u32)> = Vec::new();
            let mut next_slot = 0u32;
            for _ in 0..g.usize_in(1, 200) {
                match g.usize_in(0, 5) {
                    0..=2 => {
                        // Keys unique: the slot breaks ties.
                        let key = (g.u64_in(0, 50) << 32) | next_slot as u64;
                        heap.push(key, next_slot);
                        model.push((key, next_slot));
                        next_slot += 1;
                    }
                    3 => {
                        model.sort_unstable();
                        let want = (!model.is_empty()).then(|| model.remove(0));
                        assert_eq!(heap.pop(), want);
                    }
                    _ => {
                        let slot = g.u64_in(0, next_slot as u64 + 1) as u32;
                        let want = model
                            .iter()
                            .position(|&(_, s)| s == slot)
                            .map(|i| model.remove(i).0);
                        assert_eq!(heap.remove(slot), want);
                        assert_eq!(heap.key(slot), None);
                    }
                }
                assert_eq!(heap.len(), model.len());
                assert_eq!(heap.peek().map(|e| e.0), model.iter().map(|e| e.0).min());
            }
        });
    }
}
