//! DMA engine model.
//!
//! Each NIC has two independent DMA engines: SDMA moves send payloads from
//! pinned host memory into NIC transmit buffers, RDMA moves received data
//! (and host notifications) the other way. A transfer costs a fixed startup
//! (engine programming, bus arbitration — charged in NIC cycles so it scales
//! with the card) plus a per-byte term, and each engine performs one
//! transfer at a time.

use crate::clock::NicClock;
use gmsim_des::{Counter, SimTime};

/// One DMA engine (SDMA or RDMA direction).
#[derive(Debug, Clone)]
pub struct DmaEngine {
    clock: NicClock,
    startup_cycles: u64,
    /// Sustained copy bandwidth over the I/O bus, bytes per nanosecond.
    bytes_per_ns: f64,
    busy_until: SimTime,
    /// Total transfers performed.
    transfers: u64,
    /// Total bytes moved.
    bytes: u64,
}

impl DmaEngine {
    /// A new idle engine.
    pub fn new(clock: NicClock, startup_cycles: u64, bytes_per_ns: f64) -> Self {
        assert!(bytes_per_ns > 0.0);
        DmaEngine {
            clock,
            startup_cycles,
            bytes_per_ns,
            busy_until: SimTime::ZERO,
            transfers: 0,
            bytes: 0,
        }
    }

    /// Pure cost of one transfer of `bytes` (startup + copy), independent of
    /// queueing.
    pub fn transfer_cost(&self, bytes: usize) -> SimTime {
        self.clock.cycles(self.startup_cycles)
            + SimTime::from_ns((bytes as f64 / self.bytes_per_ns).ceil() as u64)
    }

    /// Begin a transfer of `bytes` no earlier than `earliest`; returns the
    /// completion time. The engine is busy until then.
    pub fn begin(&mut self, bytes: usize, earliest: SimTime) -> SimTime {
        let start = self.busy_until.max(earliest);
        let done = start + self.transfer_cost(bytes);
        self.busy_until = done;
        self.transfers += 1;
        self.bytes += bytes as u64;
        done
    }

    /// When the engine next becomes idle.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Transfers performed so far.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// Bytes moved so far.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

// The bytes feed the engine's direction's counter, passed in by the NIC.
gmsim_des::walk! {
    pub fn walk(bytes_id: Counter) for DmaEngine {
        clock, startup_cycles, bytes_per_ns: scratch("fixed at build"),
        busy_until: state(h => h.horizon(*busy_until)),
        transfers: counter,
        bytes: counter(bytes_id),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> DmaEngine {
        // 33 MHz, 330-cycle startup (10us), 0.128 B/ns (~128 MB/s PCI)
        DmaEngine::new(NicClock::new(33), 330, 0.128)
    }

    #[test]
    fn cost_is_startup_plus_per_byte() {
        let e = engine();
        let zero = e.transfer_cost(0);
        assert_eq!(zero, SimTime::from_ns(10_000));
        // 128 bytes at 0.128 B/ns = 1000 ns
        assert_eq!(e.transfer_cost(128), zero + SimTime::from_ns(1_000));
    }

    #[test]
    fn transfers_serialize() {
        let mut e = engine();
        let d1 = e.begin(128, SimTime::ZERO);
        let d2 = e.begin(128, SimTime::ZERO);
        assert_eq!(d2 - d1, d1 - SimTime::ZERO);
        assert_eq!(e.transfers(), 2);
        assert_eq!(e.bytes(), 256);
    }

    #[test]
    fn earliest_respected_when_idle() {
        let mut e = engine();
        let done = e.begin(0, SimTime::from_us(50));
        assert_eq!(done, SimTime::from_us(60));
        assert_eq!(e.busy_until(), done);
    }

    #[test]
    fn faster_clock_cuts_startup_only() {
        let slow = DmaEngine::new(NicClock::new(33), 330, 0.128);
        let fast = DmaEngine::new(NicClock::new(66), 330, 0.128);
        let diff = slow.transfer_cost(0) - fast.transfer_cost(0);
        assert_eq!(diff, SimTime::from_ns(5_000));
        // per-byte part identical
        assert_eq!(
            slow.transfer_cost(1000) - slow.transfer_cost(0),
            fast.transfer_cost(1000) - fast.transfer_cost(0)
        );
    }
}
