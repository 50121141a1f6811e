//! Topology construction and route computation.
//!
//! A topology is a graph of NICs and switches joined by full-duplex cables.
//! Builders cover the paper's two physical testbeds — a single 16-port
//! switch for the LANai 4.3 cluster and a single 8-port switch for the
//! LANai 7.2 cluster — plus two- and three-level Clos fabrics with
//! configurable oversubscription ([`TopologyBuilder::clos_policy`]),
//! k-ary fat trees ([`TopologyBuilder::fat_tree_policy`]) and the
//! multi-switch chains of the scaling study.
//!
//! Myrinet is source-routed, and every fabric [`FabricSpec::build`] makes is
//! a regular layout (pods × leaves × hosts, with uplinks per leaf and cores
//! per plane), so its routes are computed from the layout when asked for:
//! no table, no search. The [`RoutePolicy`] picks the uplink at each stage —
//! the first one (static), `(src + dst)` dispersal, or the least-busy one
//! under the contention model's per-link busy horizons (adaptive). Only
//! hand-built graphs ([`TopologyBuilder::build`], switch chains) store
//! routes: all-pairs shortest paths, found once by breadth-first search
//! with deterministic tie-breaking by link order.

use crate::packet::wire_size;
use crate::route::{LinkId, NicId, Route, SwitchId, Vertex};
use gmsim_des::SimTime;
use std::collections::VecDeque;

/// Physical characteristics of one cable (applied to both directions).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Bandwidth in bytes per nanosecond (1.28 Gb/s = 0.16 B/ns).
    pub bytes_per_ns: f64,
    /// Propagation delay down the cable.
    pub propagation: SimTime,
}

impl LinkSpec {
    /// The paper's Myrinet generation: 1.28 Gb/s links, short machine-room
    /// cables (~25 ns).
    pub const MYRINET_1280: LinkSpec = LinkSpec {
        bytes_per_ns: 0.16,
        propagation: SimTime::from_ns(25),
    };

    /// Serialization time for `bytes` on this link.
    pub fn serialize(&self, bytes: usize) -> SimTime {
        SimTime::from_ns((bytes as f64 / self.bytes_per_ns).ceil() as u64)
    }
}

/// One directed link of the built topology.
#[derive(Debug, Clone, Copy)]
pub struct DirectedLink {
    /// Where the link starts.
    pub from: Vertex,
    /// Where the link ends.
    pub to: Vertex,
    /// Physical cable parameters.
    pub spec: LinkSpec,
}

/// How NIC-to-NIC routes are found.
#[derive(Debug, Clone)]
enum Routes {
    /// Computed from the regular layout a standard builder laid down.
    Layout(Layout),
    /// A hand-built graph's all-pairs BFS routes, `table[src * nics + dst]`
    /// (the self route is empty).
    Bfs(Vec<Route>),
}

/// The regular layout every standard builder lays down, from which any
/// route is computed instead of stored: `pods` pods of `leaves` leaf
/// switches with `hosts` NICs each, every leaf cabled to the `uplinks`
/// aggregation switches of its pod, and aggregation switch `a` of every pod
/// cabled to the `cores` core switches of plane `a`. A crossbar is one leaf
/// with no uplinks; a two-level Clos is one pod with no cores (its spines
/// are the pod's aggregation switches).
///
/// [`FabricSpec::layout`] is the one place a spec's shape is decided; the
/// analytic model reads the shape through the accessors below.
///
/// Building fixes the numbering the link formulas mirror. Switches:
/// leaves, then aggregation switches, then cores (plane-major). Cables:
/// leaf↔agg (pod-, leaf-, agg-major), then agg↔core (pod-, agg-,
/// core-major), then NIC↔leaf, leaf by leaf. Each cable is two directed
/// links, the upward one first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    pods: usize,
    /// Leaf switches per pod.
    leaves: usize,
    /// Hosts per leaf.
    hosts: usize,
    /// Aggregation switches per pod (= uplinks per leaf).
    uplinks: usize,
    /// Core switches per plane (= uplinks per aggregation switch).
    cores: usize,
}

impl Layout {
    /// Hosts on each leaf (edge) switch.
    pub fn hosts_per_leaf(&self) -> usize {
        self.hosts
    }

    /// Hosts per pod when the layout has a core level, else `None`.
    pub fn pod_hosts(&self) -> Option<usize> {
        (self.cores > 0).then_some(self.leaves * self.hosts)
    }

    /// Uplinks from each leaf to the aggregation (spine) stage; 0 on a
    /// crossbar.
    pub fn uplinks_per_leaf(&self) -> usize {
        self.uplinks
    }

    /// NICs the layout attaches.
    fn host_count(&self) -> usize {
        self.pods * self.leaves * self.hosts
    }

    /// `hosts` NICs on one crossbar.
    fn crossbar(hosts: usize) -> Layout {
        Layout {
            pods: 1,
            leaves: 1,
            hosts,
            uplinks: 0,
            cores: 0,
        }
    }

    /// A two-level Clos: every leaf cabled to every spine.
    fn clos(leaves: usize, hosts: usize, spines: usize) -> Layout {
        Layout {
            pods: 1,
            leaves,
            hosts,
            uplinks: spines,
            cores: 0,
        }
    }

    /// A three-level Clos of `k`-wide pods: `k` leaves × `k` hosts and `k`
    /// aggregation switches per pod, `k` cores per plane. `clos3` uses
    /// `k = 8` with a free pod count; a fat tree of radix `r` uses
    /// `k = r/2` with `pods = r`.
    fn three_level(pods: usize, k: usize) -> Layout {
        Layout {
            pods,
            leaves: k,
            hosts: k,
            uplinks: k,
            cores: k,
        }
    }

    /// Lay the switches and cables down in the documented order.
    fn build(self, policy: RoutePolicy) -> Topology {
        let leaves = self.pods * self.leaves;
        let aggs = self.pods * self.uplinks;
        let mut b = TopologyBuilder::new();
        b.switch_latency = vec![
            TopologyBuilder::DEFAULT_SWITCH_LATENCY;
            leaves + aggs + self.uplinks * self.cores
        ];
        // The link id one past the last NIC's is the link count.
        b.links.reserve(self.nic_up(leaves * self.hosts).0);
        let leaf = |p: usize, l: usize| Vertex::Switch(SwitchId(p * self.leaves + l));
        let agg = |p: usize, a: usize| Vertex::Switch(SwitchId(leaves + p * self.uplinks + a));
        let core =
            |a: usize, c: usize| Vertex::Switch(SwitchId(leaves + aggs + a * self.cores + c));
        let cable = LinkSpec::MYRINET_1280;
        for p in 0..self.pods {
            for l in 0..self.leaves {
                for a in 0..self.uplinks {
                    b.connect(leaf(p, l), agg(p, a), cable);
                }
            }
        }
        for p in 0..self.pods {
            for a in 0..self.uplinks {
                for c in 0..self.cores {
                    b.connect(agg(p, a), core(a, c), cable);
                }
            }
        }
        for p in 0..self.pods {
            for l in 0..self.leaves {
                for _ in 0..self.hosts {
                    let n = b.add_nic();
                    b.connect(Vertex::Nic(n), leaf(p, l), cable);
                }
            }
        }
        Topology {
            nics: b.nics,
            switch_latency: b.switch_latency,
            links: b.links,
            routes: Routes::Layout(self),
            policy,
        }
    }

    /// Leaf(p, l)→agg(p, a) link; agg→leaf is the next id.
    fn leaf_up(&self, p: usize, l: usize, a: usize) -> LinkId {
        LinkId(2 * ((p * self.leaves + l) * self.uplinks + a))
    }

    /// Agg(p, a)→core(a, c) link; core→agg is the next id.
    fn agg_up(&self, p: usize, a: usize, c: usize) -> LinkId {
        let leaf_cables = self.pods * self.leaves * self.uplinks;
        LinkId(2 * (leaf_cables + (p * self.uplinks + a) * self.cores + c))
    }

    /// NIC→leaf link of `nic`; leaf→NIC is the next id.
    fn nic_up(&self, nic: usize) -> LinkId {
        let switch_cables = self.pods * self.uplinks * (self.leaves + self.cores);
        LinkId(2 * (switch_cables + nic))
    }

    /// Append the `src → dst` route to `out`, choosing the uplink at each
    /// stage by `policy` (see [`RoutePolicy`]). Only `Adaptive` reads
    /// `busy`.
    fn route_into(
        &self,
        src: usize,
        dst: usize,
        policy: RoutePolicy,
        busy: &[SimTime],
        out: &mut Vec<LinkId>,
    ) {
        if src == dst {
            return;
        }
        let down = |up: LinkId| LinkId(up.0 + 1);
        out.push(self.nic_up(src));
        let (ls, ld) = (src / self.hosts, dst / self.hosts);
        if ls != ld {
            let (ps, pd) = (ls / self.leaves, ld / self.leaves);
            let (ls, ld) = (ls % self.leaves, ld % self.leaves);
            let a = pick(policy, self.uplinks, src + dst, busy, |a| {
                self.leaf_up(ps, ls, a)
            });
            out.push(self.leaf_up(ps, ls, a));
            if ps != pd {
                let c = pick(policy, self.cores, (src + dst) / self.uplinks, busy, |c| {
                    self.agg_up(ps, a, c)
                });
                out.push(self.agg_up(ps, a, c));
                out.push(down(self.agg_up(pd, a, c)));
            }
            out.push(down(self.leaf_up(pd, ld, a)));
        }
        out.push(down(self.nic_up(dst)));
    }
}

/// The uplink index among `n` candidates (`up(i)` is candidate `i`):
/// index 0 for `StaticBfs`, `spread % n` for `Dispersed`, and for
/// `Adaptive` the one with the smallest busy horizon, ties to the lowest
/// index, so selection is a pure function of `busy` and the pair.
fn pick(
    policy: RoutePolicy,
    n: usize,
    spread: usize,
    busy: &[SimTime],
    up: impl Fn(usize) -> LinkId,
) -> usize {
    match policy {
        RoutePolicy::StaticBfs => 0,
        RoutePolicy::Dispersed => spread % n,
        RoutePolicy::Adaptive => (1..n).fold(0, |best, i| {
            if busy[up(i).0] < busy[up(best).0] {
                i
            } else {
                best
            }
        }),
    }
}

/// How source routes are chosen on fabrics that offer several equal-cost
/// paths (two- and three-level Clos, fat trees). On fabrics with a single
/// path per pair (one crossbar, switch chains) the policy is irrelevant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutePolicy {
    /// The first uplink at every stage — exactly the paths breadth-first
    /// search with tie-breaking by link order finds: every pair sharing a
    /// (source leaf, destination leaf) funnels through the same
    /// first-listed spine — the worst-case hotspot baseline.
    StaticBfs,
    /// `(src + dst) % spines` dispersal, the way Myrinet's route dispersal
    /// spread pairwise traffic across the bisection. The default.
    #[default]
    Dispersed,
    /// Pick the uplink with the smallest busy horizon at send time, using
    /// the per-link in-flight counters the contention model already tracks.
    /// Deterministic — and therefore bit-identical between the serial and
    /// parallel engines — because both engines invoke `Fabric::send` in the
    /// same committed global order, and the choice is a pure function of
    /// the busy horizons at that point (ties break to the lowest index).
    Adaptive,
}

/// Typed error from [`TopologyBuilder::try_build`]: some ordered NIC pair
/// has no path. Previously `build` silently stored an *empty* route for
/// such pairs — indistinguishable from the self-route, so the breakage
/// surfaced only as a send-time panic deep in the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnreachablePair {
    /// Source NIC of the first unreachable pair found.
    pub src: NicId,
    /// Destination NIC it cannot reach.
    pub dst: NicId,
}

impl std::fmt::Display for UnreachablePair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "topology has no route from NIC {} to NIC {}",
            self.src.0, self.dst.0
        )
    }
}

impl std::error::Error for UnreachablePair {}

/// A compact, `Copy` description of a fabric family, resolved to a concrete
/// [`Topology`] (for a host count and [`RoutePolicy`]) by
/// [`FabricSpec::build`]. This is the knob experiments and studies sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricSpec {
    /// The tiered [`TopologyBuilder::for_cluster`] policy (crossbar ≤ 16
    /// hosts, non-blocking two-level Clos ≤ 1024, three-level beyond).
    Auto,
    /// A two-level Clos with an explicit spine count; oversubscribed when
    /// `spines < hosts_per_leaf` (oversubscription ratio
    /// `hosts_per_leaf / spines`).
    Clos {
        /// Leaf switches.
        leaves: usize,
        /// Hosts per leaf switch.
        hosts_per_leaf: usize,
        /// Spine switches every leaf is cabled to.
        spines: usize,
    },
    /// A k-ary fat tree (`k` even): `k` pods of `k/2` edge and `k/2`
    /// aggregation switches, `(k/2)²` cores, `k³/4` hosts, non-blocking.
    FatTree {
        /// Switch radix; must be even and ≥ 2.
        k: usize,
    },
}

impl FabricSpec {
    /// Number of hosts the built fabric attaches for a request of
    /// `requested`: fixed for explicit specs, `requested` rounded up to
    /// whole leaves (or pods) for `Auto`.
    pub fn host_capacity(&self, requested: usize) -> usize {
        self.layout(requested).host_count()
    }

    /// Whether [`FabricSpec::build`] accepts this spec: a fat tree needs an
    /// even, non-zero radix; a Clos needs at least one leaf, one host per
    /// leaf and one spine.
    ///
    /// # Errors
    /// [`InvalidFabric`] naming the rejected spec.
    pub fn validate(&self) -> Result<(), InvalidFabric> {
        let valid = match *self {
            FabricSpec::Auto => true,
            FabricSpec::Clos {
                leaves,
                hosts_per_leaf,
                spines,
            } => leaves > 0 && hosts_per_leaf > 0 && spines > 0,
            FabricSpec::FatTree { k } => k > 0 && k.is_multiple_of(2),
        };
        if valid {
            Ok(())
        } else {
            Err(InvalidFabric(*self))
        }
    }

    /// The layout [`FabricSpec::build`] lays down for `hosts` attached
    /// hosts: the one place a spec's shape is decided. Never panics, so a
    /// caller may ask for the shape of a spec `build` would reject
    /// ([`FabricSpec::validate`]).
    pub fn layout(&self, hosts: usize) -> Layout {
        let leaf = TopologyBuilder::CLOS_LEAF_HOSTS;
        match *self {
            FabricSpec::Auto if hosts <= TopologyBuilder::MAX_SINGLE_SWITCH_HOSTS => {
                Layout::crossbar(hosts)
            }
            FabricSpec::Auto if hosts <= TopologyBuilder::MAX_TWO_LEVEL_HOSTS => {
                Layout::clos(hosts.div_ceil(leaf), leaf, leaf)
            }
            FabricSpec::Auto => Layout::three_level(hosts.div_ceil(leaf * leaf), leaf),
            FabricSpec::Clos {
                leaves,
                hosts_per_leaf,
                spines,
            } => Layout::clos(leaves, hosts_per_leaf, spines),
            FabricSpec::FatTree { k } => Layout::three_level(k, k / 2),
        }
    }

    /// Resolve to a concrete topology for `hosts` attached hosts under
    /// `policy`. Routes are computed from the fabric's layout; nothing is
    /// searched or tabulated.
    ///
    /// # Panics
    /// Panics if the spec is invalid ([`FabricSpec::validate`]) or cannot
    /// attach `hosts` hosts ([`FabricSpec::host_capacity`]).
    pub fn build(&self, hosts: usize, policy: RoutePolicy) -> Topology {
        if let Err(err) = self.validate() {
            panic!("{err}");
        }
        let layout = self.layout(hosts);
        assert!(
            layout.host_count() >= hosts,
            "fabric {self:?} holds {} hosts, {hosts} requested",
            layout.host_count(),
        );
        layout.build(policy)
    }
}

/// Why [`FabricSpec::validate`] rejects a spec: a fat tree with a zero or
/// odd radix, or a Clos with no leaves, hosts per leaf or spines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidFabric(pub FabricSpec);

impl std::fmt::Display for InvalidFabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0 {
            FabricSpec::FatTree { k } => {
                write!(f, "fat tree radix must be even and non-zero, got {k}")
            }
            spec => write!(
                f,
                "fabric {spec:?} needs at least one leaf, host per leaf and spine"
            ),
        }
    }
}

impl std::error::Error for InvalidFabric {}

/// A finished topology: vertices, directed links, and NIC-to-NIC routes
/// (computed from a layout, or stored for hand-built graphs).
#[derive(Debug, Clone)]
pub struct Topology {
    nics: usize,
    switch_latency: Vec<SimTime>,
    links: Vec<DirectedLink>,
    routes: Routes,
    policy: RoutePolicy,
}

/// Which logical process each NIC belongs to, for the parallel DES engine.
/// Partitions follow the physical fabric: one LP per leaf switch, except on
/// a single crossbar where every NIC is its own LP (a lone partition would
/// serialise the run).
#[derive(Debug, Clone)]
pub struct PartitionMap {
    /// `lp_of[nic]` = logical-process index.
    pub lp_of: Vec<u32>,
    /// Number of logical processes.
    pub count: usize,
}

impl Topology {
    /// Number of attached NICs.
    pub fn nic_count(&self) -> usize {
        self.nics
    }

    /// Number of switches.
    pub fn switch_count(&self) -> usize {
        self.switch_latency.len()
    }

    /// Number of directed links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// The directed link table entry.
    pub fn link(&self, id: LinkId) -> &DirectedLink {
        &self.links[id.0]
    }

    /// Fall-through latency of a switch.
    pub fn switch_latency(&self, s: SwitchId) -> SimTime {
        self.switch_latency[s.0]
    }

    /// The route from `src` to `dst`, owned. Hot paths should use
    /// [`Topology::route_links_into`].
    ///
    /// # Panics
    /// Panics if either NIC is out of range.
    pub fn route(&self, src: NicId, dst: NicId) -> Route {
        let mut links = Vec::new();
        self.route_links_into(src, dst, &mut links);
        Route::new(links)
    }

    /// Append the links of the `src → dst` route to `out` (cleared first).
    /// Zero allocations once `out` has grown to the longest route. With no
    /// load to react to, an adaptive fabric reports its dispersed route.
    ///
    /// # Panics
    /// Panics if either NIC is out of range.
    pub fn route_links_into(&self, src: NicId, dst: NicId, out: &mut Vec<LinkId>) {
        let policy = match self.policy {
            RoutePolicy::Adaptive => RoutePolicy::Dispersed,
            p => p,
        };
        self.route_with(src, dst, policy, &[], out);
    }

    /// The route policy this topology was built with.
    pub fn route_policy(&self) -> RoutePolicy {
        self.policy
    }

    /// The route `Fabric::send` will inject for `src → dst` given the
    /// current per-link busy horizons: under [`RoutePolicy::Adaptive`] the
    /// least-loaded uplink, otherwise exactly
    /// [`Topology::route_links_into`]. Adaptive selection is a pure
    /// function of `(src, dst, busy)`, so two engines that invoke sends in
    /// the same committed order pick the same routes — the determinism
    /// argument the parallel engine's bit-identity rests on (DESIGN.md
    /// §18). Every policy picks among equal-length routes, so the
    /// conservative lookahead from [`Topology::min_delivery_latency`] is
    /// unaffected.
    ///
    /// # Panics
    /// Panics if either NIC is out of range.
    pub fn route_for_send_into(
        &self,
        src: NicId,
        dst: NicId,
        busy: &[SimTime],
        out: &mut Vec<LinkId>,
    ) {
        self.route_with(src, dst, self.policy, busy, out);
    }

    fn route_with(
        &self,
        src: NicId,
        dst: NicId,
        policy: RoutePolicy,
        busy: &[SimTime],
        out: &mut Vec<LinkId>,
    ) {
        assert!(src.0 < self.nics && dst.0 < self.nics, "NIC out of range");
        out.clear();
        match &self.routes {
            Routes::Layout(layout) => layout.route_into(src.0, dst.0, policy, busy, out),
            Routes::Bfs(table) => out.extend_from_slice(table[src.0 * self.nics + dst.0].links()),
        }
    }

    /// Sum of switch fall-through latencies along a route.
    pub fn switch_delay(&self, route: &Route) -> SimTime {
        let mut total = SimTime::ZERO;
        for l in route.links() {
            if let Vertex::Switch(s) = self.links[l.0].from {
                total += self.switch_latency[s.0];
            }
        }
        total
    }

    /// The switch a NIC's first outgoing cable lands on, or `None` for an
    /// unconnected NIC.
    pub fn attached_switch(&self, nic: NicId) -> Option<SwitchId> {
        self.links.iter().find_map(|l| match (l.from, l.to) {
            (Vertex::Nic(n), Vertex::Switch(s)) if n == nic => Some(s),
            _ => None,
        })
    }

    /// Partition the NICs into logical processes for parallel simulation:
    /// one LP per attached (leaf) switch, unless all NICs share one switch,
    /// in which case each NIC becomes its own LP. LP indices follow the
    /// order switches first appear in NIC order, so fabrics that attach
    /// NICs leaf-by-leaf (all the standard builders) yield contiguous
    /// NIC ranges per LP.
    pub fn partition_map(&self) -> PartitionMap {
        let mut switch_of: Vec<Option<SwitchId>> = Vec::with_capacity(self.nics);
        for n in 0..self.nics {
            switch_of.push(self.attached_switch(NicId(n)));
        }
        let mut distinct: Vec<Option<SwitchId>> = Vec::new();
        for &s in &switch_of {
            if !distinct.contains(&s) {
                distinct.push(s);
            }
        }
        if distinct.len() <= 1 {
            // Single crossbar (or degenerate): per-NIC partitions.
            return PartitionMap {
                lp_of: (0..self.nics as u32).collect(),
                count: self.nics,
            };
        }
        let lp_of = switch_of
            .iter()
            .map(|s| distinct.iter().position(|d| d == s).unwrap() as u32)
            .collect();
        PartitionMap {
            lp_of,
            count: distinct.len(),
        }
    }

    /// Unstalled wire latency from injection to delivery along `links`, for
    /// a `payload`-byte packet: the same walk `Fabric::send`
    /// (crate::Fabric) performs, minus busy-link stalls (which only ever
    /// push arrival later).
    pub fn delivery_latency(&self, links: &[LinkId], payload: usize) -> SimTime {
        let mut head = SimTime::ZERO;
        for (i, l) in links.iter().enumerate() {
            let link = &self.links[l.0];
            if i > 0 {
                if let Vertex::Switch(s) = link.from {
                    head += self.switch_latency[s.0];
                }
            }
            head += link.spec.propagation;
        }
        let hops = links.len().saturating_sub(1);
        let ser = self.links[links[0].0]
            .spec
            .serialize(wire_size(payload, hops));
        head + ser
    }

    /// The conservative lookahead for parallel simulation: the minimum
    /// unstalled delivery latency over all ordered NIC pairs, for the
    /// smallest (zero-payload) packet. Any packet injected at `t` arrives
    /// no earlier than `t + min_delivery_latency()`; stalls, faults and
    /// real payloads only push arrival later. `None` with fewer than two
    /// NICs, [`SimTime::ZERO`] when a zero-latency link makes conservative
    /// windows impossible (callers must fall back to a merged LP).
    pub fn min_delivery_latency(&self) -> Option<SimTime> {
        if self.nics < 2 {
            return None;
        }
        match &self.routes {
            // NICs 0 and 1 are a nearest pair: they share a leaf if any
            // leaf holds two hosts, else a pod if any pod holds two leaves.
            // Every cable and switch of a layout is alike, so no longer
            // route is faster.
            Routes::Layout(layout) => {
                let mut links = Vec::new();
                layout.route_into(0, 1, RoutePolicy::StaticBfs, &[], &mut links);
                Some(self.delivery_latency(&links, 0))
            }
            Routes::Bfs(table) => table
                .iter()
                .filter(|r| !r.is_empty())
                .map(|r| self.delivery_latency(r.links(), 0))
                .min(),
        }
    }
}

/// Incremental builder for hand-built graphs, whose routes are found by
/// breadth-first search; also the home of the standard fabric builders,
/// which lay down a regular layout and compute their routes instead.
pub struct TopologyBuilder {
    nics: usize,
    switch_latency: Vec<SimTime>,
    links: Vec<DirectedLink>,
}

impl Default for TopologyBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl TopologyBuilder {
    /// Fall-through latency of the modelled Myrinet crossbar switches.
    pub const DEFAULT_SWITCH_LATENCY: SimTime = SimTime::from_ns(300);

    /// An empty builder.
    pub fn new() -> Self {
        TopologyBuilder {
            nics: 0,
            switch_latency: Vec::new(),
            links: Vec::new(),
        }
    }

    /// Add a NIC vertex; returns its id.
    pub fn add_nic(&mut self) -> NicId {
        let id = NicId(self.nics);
        self.nics += 1;
        id
    }

    /// Add a switch with the given fall-through latency; returns its id.
    pub fn add_switch(&mut self, latency: SimTime) -> SwitchId {
        self.switch_latency.push(latency);
        SwitchId(self.switch_latency.len() - 1)
    }

    /// Join two vertices with a full-duplex cable (two directed links).
    pub fn connect(&mut self, a: Vertex, b: Vertex, spec: LinkSpec) {
        self.links.push(DirectedLink {
            from: a,
            to: b,
            spec,
        });
        self.links.push(DirectedLink {
            from: b,
            to: a,
            spec,
        });
    }

    /// Finish a hand-built graph: computes all-pairs NIC-to-NIC shortest
    /// routes by breadth-first search and stores them (policy
    /// [`RoutePolicy::StaticBfs`]).
    ///
    /// # Panics
    /// Panics when some ordered NIC pair has no path — use
    /// [`TopologyBuilder::try_build`] for a typed error instead.
    /// (Historically this case silently stored an empty route,
    /// indistinguishable from the self-route.)
    pub fn build(self) -> Topology {
        match self.try_build() {
            Ok(t) => t,
            Err(e) => panic!("TopologyBuilder::build: {e}"),
        }
    }

    /// Finish, reporting the first unreachable ordered NIC pair as a typed
    /// error instead of panicking.
    pub fn try_build(self) -> Result<Topology, UnreachablePair> {
        let nics = self.nics;
        let n_vertices = nics + self.switch_latency.len();
        let vidx = |v: Vertex| -> usize {
            match v {
                Vertex::Nic(n) => n.0,
                Vertex::Switch(s) => nics + s.0,
            }
        };
        // adjacency: outgoing (link, to) per vertex, in link order so BFS
        // tie-breaking is deterministic.
        let mut adj: Vec<Vec<(LinkId, usize)>> = vec![Vec::new(); n_vertices];
        for (i, l) in self.links.iter().enumerate() {
            adj[vidx(l.from)].push((LinkId(i), vidx(l.to)));
        }

        let mut routes = Vec::with_capacity(nics * nics);
        for src in 0..nics {
            // BFS from src over the whole graph.
            let mut prev: Vec<Option<(usize, LinkId)>> = vec![None; n_vertices];
            let mut seen = vec![false; n_vertices];
            let mut queue = VecDeque::new();
            seen[src] = true;
            queue.push_back(src);
            while let Some(v) = queue.pop_front() {
                for &(link, to) in &adj[v] {
                    // NICs are leaves: never route *through* another NIC.
                    if seen[to] {
                        continue;
                    }
                    if to < nics && to != v {
                        seen[to] = true;
                        prev[to] = Some((v, link));
                        continue; // do not expand past a NIC
                    }
                    seen[to] = true;
                    prev[to] = Some((v, link));
                    queue.push_back(to);
                }
            }
            for dst in 0..nics {
                if dst == src {
                    routes.push(Route::new(vec![]));
                    continue;
                }
                let mut rev = Vec::new();
                let mut v = dst;
                let mut ok = true;
                while v != src {
                    match prev[v] {
                        Some((p, link)) => {
                            rev.push(link);
                            v = p;
                        }
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                if ok {
                    rev.reverse();
                    routes.push(Route::new(rev));
                } else {
                    return Err(UnreachablePair {
                        src: NicId(src),
                        dst: NicId(dst),
                    });
                }
            }
        }
        Ok(Topology {
            nics,
            switch_latency: self.switch_latency,
            links: self.links,
            routes: Routes::Bfs(routes),
            policy: RoutePolicy::StaticBfs,
        })
    }

    /// Largest cluster [`TopologyBuilder::for_cluster`] puts on a single
    /// crossbar — the paper's 16-port switch.
    pub const MAX_SINGLE_SWITCH_HOSTS: usize = 16;

    /// Hosts per leaf switch in the [`TopologyBuilder::for_cluster`] Clos
    /// policy: 8 hosts + 8 spine uplinks fill a 16-port crossbar and keep
    /// the fabric non-blocking.
    pub const CLOS_LEAF_HOSTS: usize = 8;

    /// Largest cluster [`TopologyBuilder::for_cluster`] serves with a
    /// two-level Clos; beyond this it grows a third (core) level.
    pub const MAX_TWO_LEVEL_HOSTS: usize = 1024;

    /// The standard fabric for an `n`-host cluster ([`FabricSpec::Auto`]
    /// with dispersed routes), shared by the testbed and the analytic
    /// model: one crossbar up to [`Self::MAX_SINGLE_SWITCH_HOSTS`] hosts
    /// (the paper's testbed), a non-blocking two-level Clos of 16-port
    /// crossbars ([`Self::CLOS_LEAF_HOSTS`] hosts + as many uplinks per
    /// leaf) up to [`Self::MAX_TWO_LEVEL_HOSTS`] hosts — which is how real
    /// Myrinet installations scaled — and a three-level (pod + core) Clos
    /// beyond that, up to 4096 hosts and further.
    pub fn for_cluster(hosts: usize) -> Topology {
        FabricSpec::Auto.build(hosts, RoutePolicy::Dispersed)
    }

    /// The paper's testbed shape: `hosts` NICs on one crossbar switch
    /// (16-port for the LANai 4.3 cluster, 8-port for the 7.2 cluster).
    pub fn single_switch(hosts: usize) -> Topology {
        Layout::crossbar(hosts).build(RoutePolicy::StaticBfs)
    }

    /// A two-level Clos network, how real Myrinet installations scaled
    /// past one crossbar: `leaves` leaf switches with `hosts_per_leaf`
    /// NICs each, every leaf cabled to every one of `spines` spine
    /// switches, routed by `policy`. With `spines >= hosts_per_leaf` the
    /// fabric is non-blocking; fewer spines oversubscribe it by
    /// `hosts_per_leaf / spines` (8 hosts over 4 spines is 2:1).
    pub fn clos_policy(
        leaves: usize,
        hosts_per_leaf: usize,
        spines: usize,
        policy: RoutePolicy,
    ) -> Topology {
        FabricSpec::Clos {
            leaves,
            hosts_per_leaf,
            spines,
        }
        .build(leaves * hosts_per_leaf, policy)
    }

    /// A three-level Clos routed by `policy`: `pods` pods of 8 leaf
    /// switches × 8 hosts (64 hosts per pod), every leaf cabled to all 8
    /// aggregation switches of its pod, and aggregation switch `a` of
    /// every pod cabled to the 8 core switches of *plane* `a`. 64 pods =
    /// 4096 hosts.
    pub fn clos3_policy(pods: usize, policy: RoutePolicy) -> Topology {
        assert!(pods >= 1, "a three-level Clos needs at least one pod");
        Layout::three_level(pods, Self::CLOS_LEAF_HOSTS).build(policy)
    }

    /// A k-ary fat tree (`k` even, ≥ 2) routed by `policy`: `k` pods of
    /// `k/2` edge switches (`k/2` hosts each) and `k/2` aggregation
    /// switches, with `(k/2)²` core switches — `k³/4` hosts on `k`-port
    /// switches, non-blocking at every level. Structurally this is
    /// [`TopologyBuilder::clos3_policy`] with pod width `k/2` instead of 8.
    pub fn fat_tree_policy(k: usize, policy: RoutePolicy) -> Topology {
        FabricSpec::FatTree { k }.build(k * k * k / 4, policy)
    }

    /// A chain of switches with `hosts_per_switch` NICs each — used by the
    /// scaling study to grow beyond one crossbar. Switch i is cabled to
    /// switch i+1. Not a regular layout: routes come from
    /// [`TopologyBuilder::build`].
    pub fn switch_chain(switches: usize, hosts_per_switch: usize) -> Topology {
        assert!(switches >= 1);
        let mut b = TopologyBuilder::new();
        let sws: Vec<SwitchId> = (0..switches)
            .map(|_| b.add_switch(Self::DEFAULT_SWITCH_LATENCY))
            .collect();
        for w in sws.windows(2) {
            b.connect(
                Vertex::Switch(w[0]),
                Vertex::Switch(w[1]),
                LinkSpec::MYRINET_1280,
            );
        }
        for &sw in &sws {
            for _ in 0..hosts_per_switch {
                let n = b.add_nic();
                b.connect(Vertex::Nic(n), Vertex::Switch(sw), LinkSpec::MYRINET_1280);
            }
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_switch_routes_are_two_links() {
        let t = TopologyBuilder::single_switch(8);
        assert_eq!(t.nic_count(), 8);
        assert_eq!(t.switch_count(), 1);
        for s in 0..8 {
            for d in 0..8 {
                let r = t.route(NicId(s), NicId(d));
                if s == d {
                    assert!(r.is_empty());
                } else {
                    assert_eq!(r.len(), 2, "{s}->{d}");
                    assert_eq!(r.switch_hops(), 1);
                }
            }
        }
    }

    #[test]
    fn single_switch_16_matches_paper_testbed() {
        let t = TopologyBuilder::single_switch(16);
        assert_eq!(t.nic_count(), 16);
        // 16 cables, 2 directed links each
        assert_eq!(t.link_count(), 32);
    }

    #[test]
    fn chain_routes_cross_intermediate_switches() {
        let t = TopologyBuilder::switch_chain(3, 2); // nics 0,1 on sw0; 2,3 on sw1; 4,5 on sw2
        let same_switch = t.route(NicId(0), NicId(1));
        assert_eq!(same_switch.switch_hops(), 1);
        let far = t.route(NicId(0), NicId(5));
        assert_eq!(far.switch_hops(), 3);
        assert_eq!(far.len(), 4);
    }

    #[test]
    fn routes_are_symmetric_in_length() {
        let t = TopologyBuilder::switch_chain(4, 3);
        for s in 0..12 {
            for d in 0..12 {
                assert_eq!(
                    t.route(NicId(s), NicId(d)).len(),
                    t.route(NicId(d), NicId(s)).len()
                );
            }
        }
    }

    #[test]
    fn routes_never_pass_through_nics() {
        let t = TopologyBuilder::switch_chain(2, 4);
        for s in 0..8 {
            for d in 0..8 {
                let r = t.route(NicId(s), NicId(d));
                for (i, l) in r.links().iter().enumerate() {
                    let link = t.link(*l);
                    if i > 0 {
                        assert!(
                            matches!(link.from, Vertex::Switch(_)),
                            "interior vertex must be a switch"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn serialization_time() {
        let s = LinkSpec::MYRINET_1280;
        // 160 bytes at 0.16 B/ns = 1000 ns
        assert_eq!(s.serialize(160), SimTime::from_ns(1000));
        assert_eq!(s.serialize(0), SimTime::ZERO);
    }

    #[test]
    fn switch_delay_sums_fallthrough() {
        let t = TopologyBuilder::switch_chain(3, 1);
        let r = t.route(NicId(0), NicId(2)).clone();
        assert_eq!(
            t.switch_delay(&r),
            TopologyBuilder::DEFAULT_SWITCH_LATENCY * 3
        );
    }

    #[test]
    fn clos_routes_are_two_or_four_links() {
        let t = TopologyBuilder::clos_policy(4, 4, 4, RoutePolicy::Dispersed);
        assert_eq!(t.nic_count(), 16);
        for s in 0..16 {
            for d in 0..16 {
                if s == d {
                    continue;
                }
                let r = t.route(NicId(s), NicId(d));
                if s / 4 == d / 4 {
                    assert_eq!(r.len(), 2, "same leaf {s}->{d}");
                } else {
                    assert_eq!(r.len(), 4, "cross leaf {s}->{d}");
                    assert_eq!(r.switch_hops(), 3);
                }
            }
        }
    }

    #[test]
    fn clos_disperses_spine_choice() {
        let t = TopologyBuilder::clos_policy(2, 8, 8, RoutePolicy::Dispersed);
        // Fix a source on leaf 0; destinations on leaf 1 should use many
        // different spine uplinks, not all the same one.
        let mut uplinks = std::collections::HashSet::new();
        for d in 8..16 {
            let r = t.route(NicId(0), NicId(d));
            uplinks.insert(r.links()[1]);
        }
        assert!(
            uplinks.len() >= 4,
            "only {} distinct uplinks",
            uplinks.len()
        );
    }

    #[test]
    fn clos3_routes_chain_and_disperse() {
        // Small three-level Clos: 4 pods = 256 hosts. Computed routes must
        // be real paths through the link table (endpoints match, links
        // chain) with the expected lengths.
        let t = TopologyBuilder::clos3_policy(4, RoutePolicy::Dispersed);
        assert_eq!(t.nic_count(), 256);
        let pairs = [
            (0usize, 1usize, 2usize), // same leaf: nic-leaf-nic
            (0, 9, 4),                // same pod, different leaf
            (0, 63, 4),               // same pod boundary
            (0, 64, 6),               // adjacent pods
            (7, 200, 6),              // far cross-pod
            (255, 0, 6),              // reverse direction
            (64, 65, 2),              // same leaf in pod 1
        ];
        for (s, d, len) in pairs {
            let r = t.route(NicId(s), NicId(d));
            assert_eq!(r.len(), len, "{s}->{d}");
            let first = t.link(r.links()[0]);
            let last = t.link(*r.links().last().unwrap());
            assert_eq!(first.from, Vertex::Nic(NicId(s)));
            assert_eq!(last.to, Vertex::Nic(NicId(d)));
            for w in r.links().windows(2) {
                assert_eq!(t.link(w[0]).to, t.link(w[1]).from, "{s}->{d}");
            }
        }
        // Cross-pod routes from one source should spread over several
        // distinct uplinks (aggregation dispersal).
        let mut uplinks = std::collections::HashSet::new();
        for d in 64..128 {
            uplinks.insert(t.route(NicId(0), NicId(d)).links()[1]);
        }
        assert!(uplinks.len() >= 4, "only {} uplinks", uplinks.len());
    }

    #[test]
    fn for_cluster_policy_tiers() {
        assert_eq!(TopologyBuilder::for_cluster(16).switch_count(), 1);
        // 1024 = 128 leaves + 8 spines, two levels (unchanged from the
        // two-level policy — the golden scale study depends on it).
        assert_eq!(TopologyBuilder::for_cluster(1024).switch_count(), 136);
        // 4096 = 64 pods: 512 leaves + 512 aggs + 64 cores.
        let t = TopologyBuilder::for_cluster(4096);
        assert_eq!(t.nic_count(), 4096);
        assert_eq!(t.switch_count(), 512 + 512 + 64);
    }

    #[test]
    fn partition_map_single_switch_is_per_node() {
        let p = TopologyBuilder::single_switch(8).partition_map();
        assert_eq!(p.count, 8);
        assert_eq!(p.lp_of, (0..8u32).collect::<Vec<_>>());
    }

    #[test]
    fn partition_map_clos_groups_by_leaf() {
        let p = TopologyBuilder::clos_policy(4, 8, 8, RoutePolicy::Dispersed).partition_map();
        assert_eq!(p.count, 4);
        for nic in 0..32usize {
            assert_eq!(p.lp_of[nic], (nic / 8) as u32);
        }
        let p3 = TopologyBuilder::clos3_policy(2, RoutePolicy::Dispersed).partition_map();
        assert_eq!(p3.count, 16);
        assert_eq!(p3.lp_of[0], 0);
        assert_eq!(p3.lp_of[127], 15);
    }

    #[test]
    fn min_delivery_latency_matches_wire_math() {
        // Single switch, default params: 2×25ns propagation + 300ns
        // fall-through + ser(wire_size(0, 1) = 18B at 0.16 B/ns → 113ns).
        let expect = SimTime::from_ns(25 + 300 + 25 + 113);
        for t in [
            TopologyBuilder::single_switch(4),
            TopologyBuilder::clos_policy(4, 8, 8, RoutePolicy::Dispersed),
            TopologyBuilder::clos3_policy(2, RoutePolicy::Dispersed),
        ] {
            assert_eq!(t.min_delivery_latency(), Some(expect));
        }
    }

    #[test]
    fn min_delivery_latency_none_below_two_nics() {
        assert_eq!(
            TopologyBuilder::single_switch(0).min_delivery_latency(),
            None
        );
        assert_eq!(
            TopologyBuilder::single_switch(1).min_delivery_latency(),
            None
        );
        let mut b = TopologyBuilder::new();
        let sw = b.add_switch(TopologyBuilder::DEFAULT_SWITCH_LATENCY);
        let n = b.add_nic();
        b.connect(Vertex::Nic(n), Vertex::Switch(sw), LinkSpec::MYRINET_1280);
        assert_eq!(b.build().min_delivery_latency(), None);
    }

    #[test]
    fn try_build_reports_unreachable_pair() {
        let mut b = TopologyBuilder::new();
        let sw = b.add_switch(TopologyBuilder::DEFAULT_SWITCH_LATENCY);
        let a = b.add_nic();
        b.connect(Vertex::Nic(a), Vertex::Switch(sw), LinkSpec::MYRINET_1280);
        let _orphan = b.add_nic(); // never cabled
        let err = b.try_build().unwrap_err();
        assert_eq!(
            err,
            UnreachablePair {
                src: NicId(0),
                dst: NicId(1)
            }
        );
        assert!(err.to_string().contains("no route"));
    }

    #[test]
    #[should_panic(expected = "no route from NIC 0 to NIC 1")]
    fn build_panics_on_unreachable_pair() {
        let mut b = TopologyBuilder::new();
        let _ = b.add_nic();
        let _ = b.add_nic();
        let _ = b.build();
    }

    #[test]
    fn zero_latency_fabric_reports_zero_lookahead() {
        // Infinite bandwidth + zero propagation + zero fall-through is the
        // degenerate case the parallel engine must refuse to window.
        let mut b = TopologyBuilder::new();
        let sw = b.add_switch(SimTime::ZERO);
        let spec = LinkSpec {
            bytes_per_ns: f64::INFINITY,
            propagation: SimTime::ZERO,
        };
        for _ in 0..2 {
            let n = b.add_nic();
            b.connect(Vertex::Nic(n), Vertex::Switch(sw), spec);
        }
        assert_eq!(b.build().min_delivery_latency(), Some(SimTime::ZERO));
    }

    #[test]
    fn static_bfs_clos_funnels_through_one_spine() {
        let t = TopologyBuilder::clos_policy(2, 8, 8, RoutePolicy::StaticBfs);
        assert_eq!(t.route_policy(), RoutePolicy::StaticBfs);
        let mut uplinks = std::collections::HashSet::new();
        for d in 8..16 {
            let r = t.route(NicId(0), NicId(d));
            assert_eq!(r.len(), 4);
            uplinks.insert(r.links()[1]);
        }
        assert_eq!(uplinks.len(), 1, "BFS ties all break to the same spine");
    }

    #[test]
    fn clos_oversub_restricts_spines() {
        let t = TopologyBuilder::clos_policy(4, 8, 2, RoutePolicy::Dispersed);
        assert_eq!(t.nic_count(), 32);
        assert_eq!(t.switch_count(), 6);
        let mut uplinks = std::collections::HashSet::new();
        for d in 8..16 {
            uplinks.insert(t.route(NicId(0), NicId(d)).links()[1]);
        }
        assert_eq!(uplinks.len(), 2, "4:1 fabric disperses over its 2 spines");
    }

    #[test]
    fn adaptive_clos_picks_least_loaded_spine() {
        let t = TopologyBuilder::clos_policy(2, 4, 4, RoutePolicy::Adaptive);
        assert_eq!(t.route_policy(), RoutePolicy::Adaptive);
        let mut busy = vec![SimTime::ZERO; t.link_count()];
        let mut out = Vec::new();
        t.route_for_send_into(NicId(0), NicId(4), &busy, &mut out);
        assert_eq!(out.len(), 4);
        let first_choice = out[1];
        // Load the chosen uplink; the next send must move to another spine.
        busy[first_choice.0] = SimTime::from_ns(10_000);
        let mut out2 = Vec::new();
        t.route_for_send_into(NicId(0), NicId(4), &busy, &mut out2);
        assert_ne!(out2[1], first_choice);
        for o in [&out, &out2] {
            assert_eq!(t.link(o[0]).from, Vertex::Nic(NicId(0)));
            assert_eq!(t.link(*o.last().unwrap()).to, Vertex::Nic(NicId(4)));
            for w in o.windows(2) {
                assert_eq!(t.link(w[0]).to, t.link(w[1]).from);
            }
        }
        // Same-leaf pairs never touch a spine.
        t.route_for_send_into(NicId(0), NicId(1), &busy, &mut out);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn fat_tree_shapes_and_routes_chain() {
        let t = TopologyBuilder::fat_tree_policy(4, RoutePolicy::Dispersed);
        // k = 4: 4 pods × 2 edges × 2 hosts = 16 hosts; 8 edge + 8 agg +
        // 4 core switches.
        assert_eq!(t.nic_count(), 16);
        assert_eq!(t.switch_count(), 20);
        for (s, d, len) in [(0usize, 1usize, 2usize), (0, 2, 4), (0, 15, 6), (5, 4, 2)] {
            let r = t.route(NicId(s), NicId(d));
            assert_eq!(r.len(), len, "{s}->{d}");
            assert_eq!(t.link(r.links()[0]).from, Vertex::Nic(NicId(s)));
            assert_eq!(t.link(*r.links().last().unwrap()).to, Vertex::Nic(NicId(d)));
            for w in r.links().windows(2) {
                assert_eq!(t.link(w[0]).to, t.link(w[1]).from, "{s}->{d}");
            }
        }
        // One LP per edge switch, two hosts each.
        let p = t.partition_map();
        assert_eq!(p.count, 8);
        assert_eq!(p.lp_of[3], 1);
        assert_eq!(
            t.min_delivery_latency(),
            Some(SimTime::from_ns(25 + 300 + 25 + 113))
        );
    }

    #[test]
    fn adaptive_fat_tree_moves_off_loaded_links() {
        let t = TopologyBuilder::fat_tree_policy(4, RoutePolicy::Adaptive);
        let mut busy = vec![SimTime::ZERO; t.link_count()];
        let mut out = Vec::new();
        t.route_for_send_into(NicId(0), NicId(15), &busy, &mut out);
        assert_eq!(out.len(), 6);
        let up = out[1];
        busy[up.0] = SimTime::from_ns(5_000);
        let mut out2 = Vec::new();
        t.route_for_send_into(NicId(0), NicId(15), &busy, &mut out2);
        assert_ne!(out2[1], up);
        for o in [&out, &out2] {
            assert_eq!(t.link(o[0]).from, Vertex::Nic(NicId(0)));
            assert_eq!(t.link(*o.last().unwrap()).to, Vertex::Nic(NicId(15)));
            for w in o.windows(2) {
                assert_eq!(t.link(w[0]).to, t.link(w[1]).from);
            }
        }
    }

    #[test]
    fn fabric_spec_validity_and_capacity() {
        let clos = |leaves, hosts_per_leaf, spines| FabricSpec::Clos {
            leaves,
            hosts_per_leaf,
            spines,
        };
        assert_eq!(clos(8, 8, 4).host_capacity(64), 64);
        assert_eq!(FabricSpec::FatTree { k: 8 }.host_capacity(0), 128);
        // Auto pads the request to whole leaves, then whole pods.
        assert_eq!(FabricSpec::Auto.host_capacity(16), 16);
        assert_eq!(FabricSpec::Auto.host_capacity(17), 24);
        assert_eq!(FabricSpec::Auto.host_capacity(1025), 17 * 64);
        for good in [
            FabricSpec::Auto,
            clos(1, 1, 1),
            FabricSpec::FatTree { k: 2 },
        ] {
            assert_eq!(good.validate(), Ok(()));
        }
        for bad in [
            FabricSpec::FatTree { k: 0 },
            FabricSpec::FatTree { k: 3 },
            clos(0, 4, 2),
            clos(2, 0, 2),
            clos(2, 4, 0),
        ] {
            assert_eq!(bad.validate(), Err(InvalidFabric(bad)));
            // The resolver still answers; only `build` refuses.
            let _ = bad.layout(4);
            let built = std::panic::catch_unwind(|| bad.build(4, RoutePolicy::Dispersed));
            assert!(built.is_err(), "{bad:?} built");
        }
        let t = clos(8, 8, 4).build(64, RoutePolicy::Adaptive);
        assert_eq!(t.nic_count(), 64);
        assert_eq!(t.route_policy(), RoutePolicy::Adaptive);
    }

    #[test]
    fn for_cluster_partial_leaves_agree_with_partition_map() {
        // Non-multiple-of-8 host counts build whole leaves; NIC count,
        // partition map and route shapes must stay mutually consistent
        // (the analytic tier forms and the parallel engine both assume
        // aligned 8-host leaf blocks).
        for n in [17usize, 23, 100, 250, 777, 1000, 1023] {
            let t = TopologyBuilder::for_cluster(n);
            let leaves = n.div_ceil(TopologyBuilder::CLOS_LEAF_HOSTS);
            assert_eq!(
                t.nic_count(),
                leaves * TopologyBuilder::CLOS_LEAF_HOSTS,
                "n={n}"
            );
            assert!(t.nic_count() >= n);
            assert!(t.nic_count() < n + TopologyBuilder::CLOS_LEAF_HOSTS);
            let p = t.partition_map();
            assert_eq!(p.count, leaves, "n={n}");
            for nic in 0..t.nic_count() {
                assert_eq!(
                    p.lp_of[nic] as usize,
                    nic / TopologyBuilder::CLOS_LEAF_HOSTS,
                    "n={n} nic={nic}"
                );
            }
            // Rank distance ≥ 8 always crosses a leaf (4-link route);
            // same-leaf pairs stay 2 links — the premise of the analytic
            // cross-leaf surcharge tier.
            assert_eq!(
                t.route(NicId(0), NicId(TopologyBuilder::CLOS_LEAF_HOSTS))
                    .len(),
                4
            );
            assert_eq!(t.route(NicId(0), NicId(1)).len(), 2);
        }
        // Three-level tier builds whole 64-host pods.
        let t = TopologyBuilder::for_cluster(2500);
        assert_eq!(t.nic_count(), 2500usize.div_ceil(64) * 64);
        assert!(t.nic_count() >= 2500 && t.nic_count() < 2500 + 64);
    }

    /// The fabrics every route test sweeps, built under `policy`.
    fn layout_fabrics(policy: RoutePolicy) -> Vec<(&'static str, Topology)> {
        vec![
            ("single_switch(16)", TopologyBuilder::single_switch(16)),
            ("clos(4,4,2)", TopologyBuilder::clos_policy(4, 4, 2, policy)),
            ("clos(8,8,8)", TopologyBuilder::clos_policy(8, 8, 8, policy)),
            ("fat_tree(4)", TopologyBuilder::fat_tree_policy(4, policy)),
            ("fat_tree(8)", TopologyBuilder::fat_tree_policy(8, policy)),
            ("clos3(2)", TopologyBuilder::clos3_policy(2, policy)),
        ]
    }

    /// The reference: breadth-first search over the same switches and
    /// links.
    fn bfs_oracle(t: &Topology) -> Topology {
        TopologyBuilder {
            nics: t.nics,
            switch_latency: t.switch_latency.clone(),
            links: t.links.clone(),
        }
        .build()
    }

    /// The uplinks out of switch `s`, in index order: its links to
    /// higher-numbered switches (layouts number leaves, then aggregation
    /// switches, then cores).
    fn uplinks_of(t: &Topology, s: Vertex) -> Vec<LinkId> {
        (0..t.link_count())
            .map(LinkId)
            .filter(|&l| {
                let link = t.link(l);
                link.from == s
                    && matches!((link.from, link.to),
                        (Vertex::Switch(a), Vertex::Switch(b)) if b > a)
            })
            .collect()
    }

    /// Scrambled per-link busy horizons taking only four values, so
    /// candidate uplinks often tie.
    fn tied_busy(t: &Topology) -> Vec<SimTime> {
        (0..t.link_count())
            .map(|i| SimTime::from_ns((i * 7919 % 13 / 4) as u64))
            .collect()
    }

    /// Index of the least-busy uplink, ties to the lowest index.
    fn least_busy(ups: &[LinkId], busy: &[SimTime]) -> usize {
        let min = ups.iter().map(|l| busy[l.0]).min().unwrap();
        ups.iter().position(|l| busy[l.0] == min).unwrap()
    }

    fn assert_chain(t: &Topology, s: usize, d: usize, links: &[LinkId]) {
        assert_eq!(t.link(links[0]).from, Vertex::Nic(NicId(s)));
        assert_eq!(t.link(*links.last().unwrap()).to, Vertex::Nic(NicId(d)));
        for w in links.windows(2) {
            assert_eq!(t.link(w[0]).to, t.link(w[1]).from, "{s}->{d}");
        }
    }

    #[test]
    fn static_routes_and_lookahead_match_the_bfs_oracle() {
        for (name, t) in layout_fabrics(RoutePolicy::StaticBfs) {
            let oracle = bfs_oracle(&t);
            assert_eq!(t.route_policy(), RoutePolicy::StaticBfs, "{name}");
            let busy = tied_busy(&t);
            let mut out = Vec::new();
            for s in 0..t.nic_count() {
                for d in 0..t.nic_count() {
                    let want = oracle.route(NicId(s), NicId(d));
                    assert_eq!(t.route(NicId(s), NicId(d)), want, "{name} {s}->{d}");
                    t.route_for_send_into(NicId(s), NicId(d), &busy, &mut out);
                    assert_eq!(out, want.links(), "{name} {s}->{d} at send");
                }
            }
            assert_eq!(
                t.min_delivery_latency(),
                oracle.min_delivery_latency(),
                "{name}"
            );
        }
    }

    #[test]
    fn dispersed_and_adaptive_routes_chain_through_the_formula_uplink() {
        for policy in [RoutePolicy::Dispersed, RoutePolicy::Adaptive] {
            for (name, t) in layout_fabrics(policy) {
                let oracle = bfs_oracle(&t);
                let busy = tied_busy(&t);
                let mut out = Vec::new();
                for s in 0..t.nic_count() {
                    for d in 0..t.nic_count() {
                        t.route_for_send_into(NicId(s), NicId(d), &busy, &mut out);
                        let shortest = oracle.route(NicId(s), NicId(d)).len();
                        assert_eq!(out.len(), shortest, "{name} {policy:?} {s}->{d}");
                        if s == d {
                            continue;
                        }
                        assert_chain(&t, s, d, &out);
                        if out.len() == 2 {
                            continue;
                        }
                        // Leaf uplink, then (cross-pod) aggregation uplink.
                        let leaf_ups = uplinks_of(&t, t.link(out[0]).to);
                        let a = leaf_ups.iter().position(|&l| l == out[1]).unwrap();
                        let agg_ups = uplinks_of(&t, t.link(out[1]).to);
                        let c = (out.len() == 6)
                            .then(|| agg_ups.iter().position(|&l| l == out[2]).unwrap());
                        match policy {
                            RoutePolicy::Dispersed => {
                                assert_eq!(a, (s + d) % leaf_ups.len(), "{name} {s}->{d}");
                                if let Some(c) = c {
                                    let spread = (s + d) / leaf_ups.len();
                                    assert_eq!(c, spread % agg_ups.len(), "{name} {s}->{d}");
                                }
                            }
                            _ => {
                                assert_eq!(a, least_busy(&leaf_ups, &busy), "{name} {s}->{d}");
                                if let Some(c) = c {
                                    assert_eq!(c, least_busy(&agg_ups, &busy), "{name} {s}->{d}");
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn static_policy_holds_beyond_1024_hosts() {
        let t = TopologyBuilder::clos3_policy(17, RoutePolicy::StaticBfs);
        assert_eq!(t.nic_count(), 17 * 64);
        assert_eq!(t.route_policy(), RoutePolicy::StaticBfs);
        for (s, d) in [(0usize, 9usize), (0, 1087), (700, 3), (1000, 1015)] {
            let r = t.route(NicId(s), NicId(d));
            assert_chain(&t, s, d, r.links());
            // Every uplink the route climbs is the first of its switch.
            for (i, &l) in r.links().iter().enumerate().skip(1) {
                let ups = uplinks_of(&t, t.link(r.links()[i - 1]).to);
                if ups.contains(&l) {
                    assert_eq!(l, ups[0], "{s}->{d} hop {i}");
                }
            }
            assert_eq!(r.len(), if s / 64 == d / 64 { 4 } else { 6 }, "{s}->{d}");
        }
    }
}
