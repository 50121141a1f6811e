//! A 128-bit state digest for steady-state detection.
//!
//! A simulation whose world repeats itself — every piece of state that can
//! influence the future equal, up to a shift in time and in round numbers
//! — repeats its whole future too. [`StateHasher`] folds such state into a
//! 128-bit value: callers feed every field, with times rebased against the
//! instant the digest is taken ([`StateHasher::time`],
//! [`StateHasher::horizon`]), so two instants one period apart hash equal.
//!
//! The hasher also counts the *items* it visited (one per record a caller
//! announces with [`StateHasher::item`]), which is what a caller weighs the
//! digest's cost by.

use crate::time::SimTime;
use std::hash::Hasher;

/// Odd 128-bit multiplier (the 128-bit FNV prime's low bits mixed with a
/// golden-ratio word): one multiply per word diffuses it over all 128 bits.
const MUL: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013B ^ (0x9E37_79B9_7F4A_7C15 << 64);

/// Folds state words into a 128-bit digest, with times taken relative to
/// one instant. Implements [`Hasher`], so any `#[derive(Hash)]` type can
/// be fed with `value.hash(&mut hasher)`; [`Hasher::finish`] returns the
/// low 64 bits, [`StateHasher::finish128`] the whole digest.
#[derive(Debug, Clone)]
pub struct StateHasher {
    state: u128,
    now: SimTime,
    items: u64,
}

impl StateHasher {
    /// An empty digest whose times are rebased against `now`.
    pub fn new(now: SimTime) -> Self {
        StateHasher {
            state: 0x6C62_272E_07BB_0142_62B8_2175_6295_C58D,
            now,
            items: 0,
        }
    }

    /// The instant times are rebased against.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Fold one word.
    #[inline]
    pub fn word(&mut self, v: u64) {
        self.state = (self.state ^ u128::from(v)).wrapping_mul(MUL);
        self.state ^= self.state >> 67;
    }

    /// Fold a signed word.
    #[inline]
    pub fn signed(&mut self, v: i64) {
        self.word(v as u64);
    }

    /// Announce one more visited record (a pending event, a connection, a
    /// link, ...) and fold a separator, so adjacent records cannot run
    /// into each other.
    #[inline]
    pub fn item(&mut self) {
        self.items += 1;
        self.word(0x5EED_0000_0000_0001);
    }

    /// Fold a time as its signed offset from `now`: a time that keeps the
    /// same distance to the digest instant hashes equal one period later.
    #[inline]
    pub fn time(&mut self, t: SimTime) {
        self.signed(t.as_ns().wrapping_sub(self.now.as_ns()) as i64);
    }

    /// Fold a busy horizon: "idle" when it is not after `now`, its offset
    /// otherwise. Only exact where every use of the horizon is
    /// `max(horizon, t)` with `t >= now`, which cannot tell a past horizon
    /// from any other.
    #[inline]
    pub fn horizon(&mut self, t: SimTime) {
        if t <= self.now {
            self.word(u64::MAX);
        } else {
            self.word(t.as_ns() - self.now.as_ns());
        }
    }

    /// Records visited so far.
    pub fn items(&self) -> u64 {
        self.items
    }

    /// The 128-bit digest.
    pub fn finish128(&self) -> u128 {
        self.state
    }
}

impl Hasher for StateHasher {
    fn finish(&self) -> u64 {
        self.state as u64
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
        self.word(bytes.len() as u64);
    }

    fn write_u8(&mut self, v: u8) {
        self.word(u64::from(v));
    }

    fn write_u16(&mut self, v: u16) {
        self.word(u64::from(v));
    }

    fn write_u32(&mut self, v: u32) {
        self.word(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        self.word(v);
    }

    fn write_usize(&mut self, v: usize) {
        self.word(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn digest(now: u64, f: impl Fn(&mut StateHasher)) -> u128 {
        let mut h = StateHasher::new(SimTime::from_ns(now));
        f(&mut h);
        h.finish128()
    }

    #[test]
    fn times_hash_relative_to_now() {
        let a = digest(1_000, |h| h.time(SimTime::from_ns(1_500)));
        let b = digest(9_000, |h| h.time(SimTime::from_ns(9_500)));
        let c = digest(9_000, |h| h.time(SimTime::from_ns(9_501)));
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Past times keep their (negative) offset.
        let d = digest(1_000, |h| h.time(SimTime::from_ns(400)));
        let e = digest(2_000, |h| h.time(SimTime::from_ns(1_400)));
        assert_eq!(d, e);
    }

    #[test]
    fn past_horizons_are_idle() {
        let a = digest(1_000, |h| h.horizon(SimTime::from_ns(10)));
        let b = digest(1_000, |h| h.horizon(SimTime::from_ns(999)));
        let c = digest(1_000, |h| h.horizon(SimTime::from_ns(1_001)));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn order_and_separators_matter() {
        let ab = digest(0, |h| {
            h.word(1);
            h.word(2)
        });
        let ba = digest(0, |h| {
            h.word(2);
            h.word(1)
        });
        assert_ne!(ab, ba);
        let split = digest(0, |h| {
            h.item();
            h.word(1);
            h.item()
        });
        let moved = digest(0, |h| {
            h.item();
            h.item();
            h.word(1)
        });
        assert_ne!(split, moved);
    }

    #[test]
    fn derived_hashes_feed_the_digest_and_items_count() {
        let mut h = StateHasher::new(SimTime::ZERO);
        (3u8, 7u64, "x").hash(&mut h);
        h.item();
        h.item();
        assert_eq!(h.items(), 2);
        let mut g = StateHasher::new(SimTime::ZERO);
        (3u8, 7u64, "y").hash(&mut g);
        assert_ne!(h.finish(), g.finish());
    }
}
