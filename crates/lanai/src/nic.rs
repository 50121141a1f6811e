//! The assembled NIC: processor + DMA engines.
//!
//! [`NicProcessor`] is the key serial resource: the LANai runs one MCP
//! handler at a time, so concurrent work (a send token arriving while a
//! packet is being received) queues up and the queueing delay appears in
//! measured latency. [`NicHardware`] wires a processor to its SDMA and RDMA
//! engines under a chosen [`NicModel`].

use crate::clock::NicClock;
use crate::dma::DmaEngine;
use crate::model::NicModel;
use gmsim_des::{Counter, SimTime, Walk};

/// The LANai firmware processor: a run-to-completion serial executor.
#[derive(Debug, Clone)]
pub struct NicProcessor {
    clock: NicClock,
    busy_until: SimTime,
    executed_cycles: u64,
}

impl NicProcessor {
    /// An idle processor on `clock`.
    pub fn new(clock: NicClock) -> Self {
        NicProcessor {
            clock,
            busy_until: SimTime::ZERO,
            executed_cycles: 0,
        }
    }

    /// The processor's clock.
    pub fn clock(&self) -> NicClock {
        self.clock
    }

    /// Execute a handler of `cycles` cycles, starting no earlier than
    /// `earliest` and no earlier than the end of the previous handler.
    /// Returns `(start, done)`.
    pub fn run(&mut self, cycles: u64, earliest: SimTime) -> (SimTime, SimTime) {
        let start = self.busy_until.max(earliest);
        let done = start + self.clock.cycles(cycles);
        self.busy_until = done;
        self.executed_cycles += cycles;
        (start, done)
    }

    /// When the processor next goes idle.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Total cycles executed (utilization accounting).
    pub fn executed_cycles(&self) -> u64 {
        self.executed_cycles
    }
}

/// One NIC's hardware resources.
#[derive(Debug, Clone)]
pub struct NicHardware {
    model: NicModel,
    /// The firmware processor.
    pub cpu: NicProcessor,
    /// Host→NIC DMA engine.
    pub sdma: DmaEngine,
    /// NIC→host DMA engine.
    pub rdma: DmaEngine,
}

impl NicHardware {
    /// Build the hardware for `model`. DMA startup is charged by the MCP
    /// handler cycles (the cost table), so the engines carry per-byte cost
    /// only.
    pub fn new(model: NicModel) -> Self {
        NicHardware {
            model,
            cpu: NicProcessor::new(model.clock),
            sdma: DmaEngine::new(model.clock, 0, model.dma_bytes_per_ns),
            rdma: DmaEngine::new(model.clock, 0, model.dma_bytes_per_ns),
        }
    }

    /// The model this NIC was built from.
    pub fn model(&self) -> &NicModel {
        &self.model
    }
}

// Every charge starts at `max(horizon, earliest)` with `earliest` no
// earlier than the firing event, so a past horizon hashes as idle.
gmsim_des::walk! {
    impl Walk for NicProcessor {
        clock: scratch("fixed at build"),
        busy_until: state(h => h.horizon(*busy_until)),
        executed_cycles: counter(Counter::FirmwareCycles),
    }
}

gmsim_des::walk! {
    impl Walk for NicHardware {
        model: scratch("fixed at build"),
        cpu: walk(),
        sdma: walk(Counter::SdmaBytes),
        rdma: walk(Counter::RdmaBytes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn processor_serializes_handlers() {
        let mut p = NicProcessor::new(NicClock::new(33));
        let (s1, d1) = p.run(33, SimTime::ZERO); // 1us
        let (s2, d2) = p.run(33, SimTime::ZERO);
        assert_eq!(s1, SimTime::ZERO);
        assert_eq!(d1, SimTime::from_us(1));
        assert_eq!(s2, d1, "second handler waits for the first");
        assert_eq!(d2, SimTime::from_us(2));
        assert_eq!(p.executed_cycles(), 66);
    }

    #[test]
    fn idle_gap_is_respected() {
        let mut p = NicProcessor::new(NicClock::new(33));
        let (_, d1) = p.run(33, SimTime::ZERO);
        let (s2, _) = p.run(33, d1 + SimTime::from_us(5));
        assert_eq!(s2, d1 + SimTime::from_us(5));
    }

    #[test]
    fn zero_cycle_handler_is_instant() {
        let mut p = NicProcessor::new(NicClock::new(66));
        let (s, d) = p.run(0, SimTime::from_us(3));
        assert_eq!(s, d);
    }

    #[test]
    fn hardware_engines_are_independent() {
        let mut h = NicHardware::new(NicModel::LANAI_4_3);
        let a = h.sdma.begin(1280, SimTime::ZERO); // 10us at 0.128B/ns
        let b = h.rdma.begin(1280, SimTime::ZERO);
        assert_eq!(a, b, "SDMA and RDMA do not contend");
        assert_eq!(a, SimTime::from_us(10));
    }

    #[test]
    fn model_accessible() {
        let h = NicHardware::new(NicModel::LANAI_7_2);
        assert_eq!(h.model().name, "LANai 7.2");
        assert_eq!(h.cpu.clock().mhz(), 66);
    }
}
