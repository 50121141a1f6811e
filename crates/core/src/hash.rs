//! A deterministic multiplicative hasher (the Fx scheme) for the crate's
//! small integer-keyed table, the host baseline's unexpected set. It is
//! simulator-internal, so SipHash's flooding resistance buys nothing, while
//! its cost lands on every packet received.

use std::hash::{BuildHasherDefault, Hasher};

/// The hasher; see the module docs.
#[derive(Default)]
pub(crate) struct MulHasher(u64);

/// `HashMap`/`HashSet` state that builds a [`MulHasher`].
pub(crate) type MulBuildHasher = BuildHasherDefault<MulHasher>;

impl MulHasher {
    const K: u64 = 0x517c_c1b7_2722_0a95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for MulHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }
    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}
