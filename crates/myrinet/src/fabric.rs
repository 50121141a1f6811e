//! The fabric: per-link occupancy, cut-through timing, fault judgement.
//!
//! [`Fabric::send`] answers, for a worm of `payload` bytes leaving NIC `src`
//! for NIC `dst` at time `now`:
//!
//! * when the source NIC's transmit interface is free again (`tx_done` —
//!   the sender serializes the worm onto its first link),
//! * when the worm has fully arrived at `dst` (`arrival`), and
//! * whether it arrives at all ([`Delivery::fate`]).
//!
//! Wormhole timing. Let `ser = bytes / bandwidth` (bytes include framing and
//! route bytes). The head advances hop by hop; at each directed link it may
//! stall until the link frees. Once the head reaches the destination, the
//! tail follows `ser` later. A link is occupied from the moment the head
//! enters it until the tail has left it; with cut-through and equal
//! bandwidths the occupancy of link *i* is `[head_i, head_i + ser]`.
//! A worm whose head reaches a busy link at `t` enters it at
//! `max(t, busy_until)` — and, as in real wormhole switching, stalls the
//! upstream portion of its path while it waits. We conservatively extend the
//! upstream links' occupancy to the stall end, which reproduces wormhole
//! tree saturation under contention.

use crate::fault::{Fate, FaultPlan, FaultState};
use crate::packet::WireFormat;
use crate::route::{LinkId, NicId, Vertex};
use crate::topology::{RoutePolicy, Topology};
use gmsim_des::{Counter, SimRng, SimTime, Walk};

/// The result of injecting one worm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// When the source NIC's transmit interface is free again.
    pub tx_done: SimTime,
    /// When the worm has fully arrived at the destination NIC (tail in).
    /// Meaningless when `fate == Fate::Dropped`.
    pub arrival: SimTime,
    /// Whether the worm survived fault judgement.
    pub fate: Fate,
    /// When fault injection duplicates the worm, the arrival time of the
    /// second (intact) copy; `None` for the overwhelmingly common case.
    pub dup_arrival: Option<SimTime>,
}

impl Delivery {
    /// True when the destination will actually see the worm intact.
    pub fn is_delivered(&self) -> bool {
        self.fate == Fate::Intact
    }
}

/// Aggregate fabric counters.
#[derive(Debug, Clone, Default)]
pub struct FabricStats {
    /// Worms injected.
    pub sends: u64,
    /// Worms dropped by fault injection.
    pub drops: u64,
    /// Worms delivered with a corrupted CRC.
    pub corruptions: u64,
    /// Worms delivered twice by fault injection.
    pub duplicates: u64,
    /// Worms delayed by fault injection (reordered past later traffic).
    pub reorders: u64,
    /// Total payload bytes injected (excluding framing).
    pub payload_bytes: u64,
    /// Total head-stall time across all sends (contention measure).
    pub stall_time: SimTime,
}

/// The network fabric: topology + per-directed-link occupancy + faults.
///
/// ```
/// use gmsim_des::SimTime;
/// use gmsim_myrinet::{Fabric, NicId, TopologyBuilder};
///
/// let mut fabric = Fabric::new(TopologyBuilder::single_switch(8));
/// let d = fabric.send(NicId(0), NicId(3), 64, SimTime::ZERO);
/// assert!(d.is_delivered());
/// assert!(d.arrival > SimTime::ZERO);
/// ```
pub struct Fabric {
    topology: Topology,
    format: WireFormat,
    /// `busy_until` per directed link.
    busy: Vec<SimTime>,
    faults: FaultPlan,
    fault_state: FaultState,
    rng: SimRng,
    stats: FabricStats,
    /// Reusable per-send scratch: links the head has entered, with entry
    /// times (kept across sends so the hot path never allocates).
    entered: Vec<(LinkId, SimTime)>,
    /// Reusable per-send scratch for the route's links.
    route_scratch: Vec<LinkId>,
}

// A worm enters a link at `max(horizon, head)` with the head never
// before the send instant, so a past horizon is idle, except under adaptive
// routing, whose uplink choice compares horizons with each other. Every
// horizon set from now on lies at or after the digest instant, above every
// past one, so there only the order of the past horizons matters: each
// hashes as its dense rank among them (`ranks` holds the sorted past
// horizons).
gmsim_des::walk! {
    pub fn walk(ranks: &mut Vec<SimTime>) for Fabric {
        topology, format: scratch("fixed at build"),
        busy: state(h => {
            let now = h.now();
            let ranked = topology.route_policy() == RoutePolicy::Adaptive;
            if ranked {
                ranks.clear();
                ranks.extend(busy.iter().copied().filter(|&t| t <= now));
                ranks.sort_unstable();
                ranks.dedup();
            }
            for &t in busy {
                h.item();
                if t > now || !ranked {
                    h.horizon(t);
                } else {
                    let rank = ranks.binary_search(&t).expect("past horizon ranked");
                    // Tagged, so no rank reads as a horizon offset.
                    h.word(u64::MAX - 1);
                    h.word(rank as u64);
                }
            }
        }),
        faults, fault_state, rng: scratch("fault injection turns fast-forward off"),
        stats: walk(),
        entered, route_scratch: scratch("per-send scratch"),
    }
}

gmsim_des::walk! {
    impl Walk for FabricStats {
        sends: counter(Counter::PacketsSent),
        drops: counter(Counter::PacketsDropped),
        corruptions: counter(Counter::PacketsCorrupted),
        duplicates: counter(Counter::DupRx),
        reorders: counter(Counter::ReorderRx),
        payload_bytes, stall_time: counter,
    }
}

impl Fabric {
    /// A fault-free fabric over `topology`.
    pub fn new(topology: Topology) -> Self {
        let links = topology.link_count();
        Fabric {
            topology,
            format: WireFormat::GM,
            busy: vec![SimTime::ZERO; links],
            faults: FaultPlan::NONE,
            fault_state: FaultState::default(),
            rng: SimRng::new(0),
            stats: FabricStats::default(),
            entered: Vec::new(),
            route_scratch: Vec::new(),
        }
    }

    /// Enable fault injection, seeded independently of workload RNG.
    pub fn with_faults(mut self, plan: FaultPlan, seed: u64) -> Self {
        self.faults = plan;
        self.rng = SimRng::new(seed);
        self
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Counters so far.
    pub fn stats(&self) -> &FabricStats {
        &self.stats
    }

    /// True when fault injection is on: the fault stream never repeats,
    /// so no steady state exists.
    pub fn has_faults(&self) -> bool {
        !self.faults.is_none()
    }

    /// Inject a worm. See module docs for the timing model.
    ///
    /// # Panics
    /// Panics on a self-send (`src == dst`) — GM never puts those on the
    /// wire — or an unreachable destination.
    pub fn send(&mut self, src: NicId, dst: NicId, payload: usize, now: SimTime) -> Delivery {
        assert_ne!(src, dst, "self-sends never touch the fabric");
        // Split borrows: the route stays borrowed from `topology` while the
        // occupancy/stat fields mutate, so the hot path never clones it.
        let Fabric {
            topology,
            format,
            busy,
            stats,
            entered,
            route_scratch,
            ..
        } = self;
        // Route selection happens here, under the committed send order:
        // adaptive policies read the per-link busy horizons, so identical
        // send sequences (serial or replayed by the parallel engine) pick
        // identical routes.
        topology.route_for_send_into(src, dst, busy, route_scratch);
        let route: &[LinkId] = route_scratch;
        assert!(!route.is_empty(), "no route {src:?} -> {dst:?}");

        let bytes = format.on_wire(payload, route.len() - 1);
        stats.sends += 1;
        stats.payload_bytes += payload as u64;

        // Walk the head along the route.
        let mut head = now;
        entered.clear();
        for &link_id in route {
            let link = *topology.link(link_id);
            // Fall-through delay of the switch the link leaves from.
            if let Vertex::Switch(s) = link.from {
                head += topology.switch_latency(s);
            }
            let free = busy[link_id.0];
            if free > head {
                // Head stalls: upstream links stay occupied until we move.
                stats.stall_time += free - head;
                for &(up, _) in entered.iter() {
                    busy[up.0] = busy[up.0].max(free);
                }
                head = free;
            }
            entered.push((link_id, head));
            head += link.spec.propagation;
        }

        // Tail: with uniform bandwidth the tail trails the head by one
        // serialization time on every link.
        let ser = topology.link(route[0]).spec.serialize(bytes);
        for &(link_id, entry) in entered.iter() {
            let occupied_until = entry + ser;
            busy[link_id.0] = busy[link_id.0].max(occupied_until);
        }

        let first_entry = entered[0].1;
        let tx_done = first_entry + ser;
        let mut arrival = head + ser;

        let verdict = self
            .faults
            .judge(src.0 as u32, &mut self.fault_state, &mut self.rng);
        match verdict.fate {
            Fate::Dropped => self.stats.drops += 1,
            Fate::Corrupted => self.stats.corruptions += 1,
            Fate::Intact => {}
        }
        if verdict.reorder {
            // Delayed arrival: later worms on the same path overtake this
            // one, which the receiver observes as out-of-order delivery.
            arrival += self.faults.reorder_delay;
            self.stats.reorders += 1;
        }
        let dup_arrival = if verdict.duplicate {
            // The spurious copy trails the original by one serialization
            // time, as if the sender's retransmit logic double-fired.
            self.stats.duplicates += 1;
            Some(arrival + ser)
        } else {
            None
        };

        Delivery {
            tx_done,
            arrival,
            fate: verdict.fate,
            dup_arrival,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{LinkSpec, TopologyBuilder};

    fn fabric(n: usize) -> Fabric {
        Fabric::new(TopologyBuilder::single_switch(n))
    }

    #[test]
    fn uncontended_latency_breakdown() {
        let mut f = fabric(4);
        let d = f.send(NicId(0), NicId(1), 8, SimTime::ZERO);
        assert!(d.is_delivered());
        // bytes = 1 route + 16 hdr + 8 payload + 1 crc = 26; ser = ceil(26/0.16)=163ns
        // head: link0 enter 0, prop 25; switch 300; link1 enter 325, prop 25 -> head=350
        // arrival = 350 + 163 = 513; tx_done = 0 + 163
        assert_eq!(d.tx_done, SimTime::from_ns(163));
        assert_eq!(d.arrival, SimTime::from_ns(513));
    }

    #[test]
    fn contention_serializes_on_shared_link() {
        let mut f = fabric(4);
        // Two worms to the same destination at the same instant: the second
        // must wait for the first on the switch->dst link.
        let d1 = f.send(NicId(0), NicId(2), 100, SimTime::ZERO);
        let d2 = f.send(NicId(1), NicId(2), 100, SimTime::ZERO);
        assert!(d2.arrival > d1.arrival);
        assert!(f.stats().stall_time > SimTime::ZERO);
    }

    #[test]
    fn distinct_destinations_do_not_contend() {
        let mut f = fabric(4);
        let d1 = f.send(NicId(0), NicId(2), 64, SimTime::ZERO);
        let d2 = f.send(NicId(1), NicId(3), 64, SimTime::ZERO);
        assert_eq!(d1.arrival, d2.arrival);
        assert_eq!(f.stats().stall_time, SimTime::ZERO);
    }

    #[test]
    fn full_duplex_no_self_contention() {
        let mut f = fabric(2);
        let d1 = f.send(NicId(0), NicId(1), 64, SimTime::ZERO);
        let d2 = f.send(NicId(1), NicId(0), 64, SimTime::ZERO);
        assert_eq!(
            d1.arrival, d2.arrival,
            "opposite directions are independent"
        );
    }

    #[test]
    fn pairwise_exchange_pattern_is_conflict_free() {
        // The PE algorithm's step: 0<->1, 2<->3 simultaneously. On a single
        // crossbar no two worms share a directed link.
        let mut f = fabric(4);
        let arr: Vec<_> = [(0, 1), (1, 0), (2, 3), (3, 2)]
            .iter()
            .map(|&(s, d)| f.send(NicId(s), NicId(d), 8, SimTime::ZERO).arrival)
            .collect();
        assert!(arr.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn adaptive_routing_dodges_a_busy_spine() {
        use crate::topology::RoutePolicy;
        // 2 leaves × 2 hosts over 2 spines. Both hosts of leaf 0 send
        // cross-leaf at the same instant to the same destination leaf.
        // Dispersal by (src + dst) sends both worms up the same spine
        // (parity: src+dst is 2 and 4), so the second stalls; the adaptive
        // policy moves the second worm to the idle spine.
        let run = |policy: RoutePolicy| {
            let mut f = Fabric::new(TopologyBuilder::clos_policy(2, 2, 2, policy));
            f.send(NicId(0), NicId(2), 64, SimTime::ZERO);
            f.send(NicId(1), NicId(3), 64, SimTime::ZERO);
            f.stats().stall_time
        };
        assert!(run(RoutePolicy::Dispersed) > SimTime::ZERO);
        assert!(run(RoutePolicy::StaticBfs) > SimTime::ZERO);
        assert_eq!(run(RoutePolicy::Adaptive), SimTime::ZERO);
    }

    #[test]
    fn adaptive_choice_is_a_pure_function_of_send_order() {
        use crate::topology::RoutePolicy;
        // Same committed send sequence twice -> bit-identical deliveries.
        let run = || {
            let mut f = Fabric::new(TopologyBuilder::clos_policy(4, 4, 2, RoutePolicy::Adaptive));
            let mut out = Vec::new();
            for s in 0..4usize {
                for d in 4..16usize {
                    let del = f.send(NicId(s), NicId(d), 32, SimTime::from_ns(10 * s as u64));
                    out.push((del.arrival, del.tx_done));
                }
            }
            out
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn later_send_sees_free_link() {
        let mut f = fabric(2);
        let d1 = f.send(NicId(0), NicId(1), 1000, SimTime::ZERO);
        // After the first worm fully drains, a second is uncontended.
        let d2 = f.send(NicId(0), NicId(1), 1000, d1.arrival);
        assert_eq!(d2.arrival - d1.arrival, d1.arrival - SimTime::ZERO);
    }

    #[test]
    fn drops_counted() {
        let t = TopologyBuilder::single_switch(2);
        let mut f = Fabric::new(t).with_faults(FaultPlan::drops(1.0), 7);
        let d = f.send(NicId(0), NicId(1), 8, SimTime::ZERO);
        assert_eq!(d.fate, Fate::Dropped);
        assert_eq!(f.stats().drops, 1);
    }

    #[test]
    fn duplicates_get_a_trailing_copy() {
        let t = TopologyBuilder::single_switch(2);
        let mut f = Fabric::new(t).with_faults(FaultPlan::duplicates(1.0), 7);
        let d = f.send(NicId(0), NicId(1), 8, SimTime::ZERO);
        assert!(d.is_delivered());
        let dup = d.dup_arrival.expect("certain duplication");
        assert!(dup > d.arrival);
        assert_eq!(f.stats().duplicates, 1);
    }

    #[test]
    fn reorder_delays_arrival() {
        let t = TopologyBuilder::single_switch(2);
        let delay = SimTime::from_us(5);
        let mut faulty = Fabric::new(t).with_faults(FaultPlan::reorders(1.0, delay), 7);
        let mut clean = fabric(2);
        let d = faulty.send(NicId(0), NicId(1), 8, SimTime::ZERO);
        let c = clean.send(NicId(0), NicId(1), 8, SimTime::ZERO);
        assert_eq!(d.arrival, c.arrival + delay);
        assert_eq!(faulty.stats().reorders, 1);
    }

    #[test]
    fn scoped_faults_spare_other_sources() {
        let t = TopologyBuilder::single_switch(4);
        let mut f = Fabric::new(t).with_faults(FaultPlan::drops(1.0).only_from(2), 7);
        assert!(f.send(NicId(0), NicId(1), 8, SimTime::ZERO).is_delivered());
        assert_eq!(
            f.send(NicId(2), NicId(3), 8, SimTime::ZERO).fate,
            Fate::Dropped
        );
        assert_eq!(f.stats().drops, 1);
    }

    #[test]
    fn bigger_payload_takes_longer() {
        let mut f1 = fabric(2);
        let mut f2 = fabric(2);
        let small = f1.send(NicId(0), NicId(1), 8, SimTime::ZERO);
        let big = f2.send(NicId(0), NicId(1), 4096, SimTime::ZERO);
        assert!(big.arrival > small.arrival);
        assert!(big.tx_done > small.tx_done);
    }

    #[test]
    fn multihop_adds_switch_latency() {
        let chain = TopologyBuilder::switch_chain(3, 1);
        let mut f = Fabric::new(chain);
        let near = Fabric::new(TopologyBuilder::switch_chain(1, 3)).send(
            NicId(0),
            NicId(1),
            8,
            SimTime::ZERO,
        );
        let far = f.send(NicId(0), NicId(2), 8, SimTime::ZERO);
        assert!(far.arrival > near.arrival);
    }

    #[test]
    #[should_panic(expected = "self-sends")]
    fn self_send_panics() {
        fabric(2).send(NicId(0), NicId(0), 8, SimTime::ZERO);
    }

    #[test]
    fn custom_link_speed_scales_serialization() {
        let mut b = TopologyBuilder::new();
        let sw = b.add_switch(SimTime::ZERO);
        let n0 = b.add_nic();
        let n1 = b.add_nic();
        let slow = LinkSpec {
            bytes_per_ns: 0.016, // 10x slower
            propagation: SimTime::ZERO,
        };
        b.connect(Vertex::Nic(n0), Vertex::Switch(sw), slow);
        b.connect(Vertex::Nic(n1), Vertex::Switch(sw), slow);
        let mut f = Fabric::new(b.build());
        let d = f.send(NicId(0), NicId(1), 8, SimTime::ZERO);
        // 26 bytes at 0.016 B/ns = 1625 ns serialization, paid once (head
        // reaches dst after 0 prop/switch) => arrival 1625*... head=0, +ser
        assert_eq!(d.arrival, SimTime::from_ns(1625));
    }
}
