//! The paper's analytic timing model (§2.2, Equations 1–3).
//!
//! * Eq. 1: `T_host = log2 N × (Send + SDMA + Network + Recv + RDMA + HRecv)`
//! * Eq. 2: `T_nic  = Send + log2 N × (Network + Recv) + RDMA + HRecv`
//! * Eq. 3: factor of improvement = `T_host / T_nic`
//!
//! The component terms are *derived from the simulator's configuration* —
//! firmware cycle counts divided by the NIC clock, plus the host overheads —
//! so the analytic prediction and the simulation share one source of truth.
//! The paper folds all NIC-side per-step barrier processing into its *Recv*
//! term; we expose it separately as [`CostModel::nic_step_us`] and add it to
//! the per-step NIC cost, which is what the measured prototype actually
//! pays (§6 discusses exactly this overhead for the GB case).
//!
//! Beyond the paper's single crossbar, [`CostModel::latency_us`] predicts
//! any [`Descriptor`] on either [`Placement`] over the fabric a
//! [`FabricModel`] describes: one exchange form (PE and k-ary
//! dissemination), one GB form, and the payload forms.

use crate::nic::BarrierCosts;
use crate::schedule::Descriptor;
use gmsim_gm::{ExtPacket, GmConfig, Payload};
use gmsim_myrinet::{wire_size, FabricSpec, LinkSpec, RoutePolicy, TopologyBuilder};

/// Relative tolerance of the exchange form (PE and dissemination) against
/// simulation, across 32–1024 nodes and both NIC generations (worst
/// observed error ≈ 3.5%).
pub const PE_MODEL_TOLERANCE: f64 = 0.10;

/// Relative tolerance of the calibrated GB pipeline form against
/// simulation across the same grid at `dim = 8` (worst observed error
/// ≈ 11%; the form is a fit, not a first-principles derivation).
pub const GB_MODEL_TOLERANCE: f64 = 0.20;

/// Relative tolerance of the payload latency-vs-size forms (what
/// [`CostModel::latency_us`] predicts for a data-carrying [`Descriptor`])
/// against simulation across the BENCH_payload grid (1 B – 1 MiB,
/// 16–1024 nodes, eager and pipelined). The forms model the steady-state
/// bottleneck stage with calibrated wormhole-contention factors; they
/// approximate CPU/wire overlap inside a stage and the crossover
/// neighborhood (where two stages tie) is where the error peaks, so this
/// is a calibrated envelope rather than an exact derivation (worst
/// observed cell ≈ +45%, most within ±20%).
pub const PAYLOAD_MODEL_TOLERANCE: f64 = 0.50;

/// Relative tolerance of the barrier forms on explicit fabrics (evaluated
/// through [`advisor::predict`] with an explicit [`FabricSpec`]) against
/// simulation across the BENCH_fabric grid: algorithm × {non-blocking,
/// 2:1, 4:1 Clos, fat tree} × routing policy. The fabric surcharges are
/// small against the calibrated per-step costs (barrier packets serialize
/// in ~0.1 µs), so the bound is dominated by the weakest form the study
/// sweeps (the GB pipeline fit, ±20%) plus headroom for the queueing
/// excess, which models only first-order uplink sharing.
pub const FABRIC_MODEL_TOLERANCE: f64 = 0.25;

/// Where a collective's schedule interpreter runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// NIC-resident firmware extension (the paper's contribution).
    Nic,
    /// Host-level baseline over plain GM sends/receives.
    Host,
}

/// Component costs in microseconds, as in Figure 2.
///
/// ```
/// use gmsim_gm::GmConfig;
/// use gmsim_lanai::NicModel;
/// use nic_barrier::CostModel;
///
/// let m = CostModel::from_config(&GmConfig::paper_host(NicModel::LANAI_4_3));
/// // Eq. 3 predicts a factor near the paper's published 1.78x at 16 nodes.
/// assert!((m.improvement(16) - 1.78).abs() < 0.1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Host posts a token until the NIC can detect it.
    pub send_us: f64,
    /// SDMA pickup + payload staging on the NIC.
    pub sdma_us: f64,
    /// Wire time: switch fall-through + propagation + serialization.
    pub network_us: f64,
    /// NIC reception handling of one data packet (host path).
    pub recv_us: f64,
    /// NIC reception handling of one NIC-terminated barrier packet —
    /// cheaper than the data path (no receive-token lookup, no RDMA prep).
    pub nic_recv_us: f64,
    /// NIC→host delivery of one event.
    pub rdma_us: f64,
    /// Host processing of one returned event.
    pub hrecv_us: f64,
    /// Firmware cost of one NIC-resident barrier step (PE), folded into
    /// *Recv* by the paper's Eq. 2 but paid by the real firmware.
    pub nic_step_us: f64,
    /// Extra wire cost of climbing one more fabric tier (leaf → spine, or
    /// spine → core): two additional switch fall-throughs plus two
    /// additional link propagations (wormhole routing pays serialization
    /// only once).
    pub cross_extra_us: f64,
    /// Firmware cost of processing one GB tree collective token.
    pub gb_token_us: f64,
    /// Firmware cost of absorbing one gather arrival (GB up phase).
    pub gb_gather_us: f64,
    /// Firmware cost of one child broadcast send (GB down phase).
    pub gb_child_us: f64,
    /// Host-bus DMA time per payload byte (both SDMA and RDMA engines).
    pub dma_us_per_byte: f64,
    /// Link serialization time per payload byte (Myrinet 1.28 Gb/s).
    pub wire_us_per_byte: f64,
    /// Base retransmission timeout of the reliable connection layer — the
    /// latency a dropped packet costs before its timer fires (backoff
    /// level 0). Used by the [`advisor`] fault penalty.
    pub retransmit_us: f64,
    /// Wire serialization time of one zero-payload barrier packet — the
    /// unit a queued worm waits per competitor on a shared uplink. Used by
    /// the per-fabric contention terms.
    pub pkt_wire_us: f64,
}

impl CostModel {
    /// Derive the model from a cluster configuration (single-crossbar
    /// topology assumed, as in the paper's testbeds).
    pub fn from_config(cfg: &GmConfig) -> Self {
        let clock = cfg.nic.clock;
        let us = |cycles: u64| clock.cycles(cycles).as_us_f64();
        let costs = cfg.nic.costs;
        let bc = BarrierCosts::GM_1_2_3;
        // Wire: NIC→switch→NIC with GM framing on a small barrier packet.
        let link = LinkSpec::MYRINET_1280;
        let bytes = wire_size(ExtPacket::WIRE_BYTES, 1);
        let network = TopologyBuilder::DEFAULT_SWITCH_LATENCY.as_us_f64()
            + 2.0 * link.propagation.as_us_f64()
            + link.serialize(bytes).as_us_f64();
        // Small-message DMA byte time is sub-microsecond; fold it in.
        let dma_us = |b: usize| b as f64 / cfg.nic.dma_bytes_per_ns / 1_000.0;
        CostModel {
            send_us: cfg.host_send_overhead.as_us_f64(),
            sdma_us: us(costs.sdma_cycles + costs.send_cycles) + dma_us(8),
            network_us: network,
            recv_us: us(costs.recv_cycles + costs.ack_tx_cycles),
            nic_recv_us: us(costs.ext_recv_cycles + costs.ack_tx_cycles),
            rdma_us: us(costs.rdma_cycles) + dma_us(16),
            hrecv_us: cfg.host_recv_overhead.as_us_f64(),
            nic_step_us: us(bc.pe_send_cycles + bc.pe_match_cycles + bc.record_cycles),
            cross_extra_us: 2.0 * TopologyBuilder::DEFAULT_SWITCH_LATENCY.as_us_f64()
                + 2.0 * link.propagation.as_us_f64(),
            gb_token_us: us(bc.gb_token_cycles),
            gb_gather_us: us(bc.gb_gather_cycles),
            gb_child_us: us(bc.gb_child_cycles),
            dma_us_per_byte: 1.0 / cfg.nic.dma_bytes_per_ns / 1_000.0,
            wire_us_per_byte: 1.0 / link.bytes_per_ns / 1_000.0,
            retransmit_us: cfg.retransmit_timeout.as_us_f64(),
            pkt_wire_us: link.serialize(bytes).as_us_f64(),
        }
    }

    /// `ceil(log2 n)` rounds of the PE algorithm; 0 for groups of one or
    /// none.
    pub fn rounds(n: usize) -> u32 {
        usize::BITS - n.saturating_sub(1).leading_zeros()
    }

    /// Equation 1: predicted host-based PE barrier latency (µs).
    pub fn host_barrier_us(&self, n: usize) -> f64 {
        let step = self.send_us
            + self.sdma_us
            + self.network_us
            + self.recv_us
            + self.rdma_us
            + self.hrecv_us;
        Self::rounds(n) as f64 * step
    }

    /// Equation 2 (with the explicit firmware step term): predicted
    /// NIC-based PE barrier latency (µs).
    pub fn nic_barrier_us(&self, n: usize) -> f64 {
        self.send_us
            + Self::rounds(n) as f64 * (self.network_us + self.nic_recv_us + self.nic_step_us)
            + self.rdma_us
            + self.hrecv_us
    }

    /// Equation 3: predicted factor of improvement.
    pub fn improvement(&self, n: usize) -> f64 {
        self.host_barrier_us(n) / self.nic_barrier_us(n)
    }

    /// Depth of the `dim`-ary heap-shaped GB tree over `n` ranks: the
    /// level of the deepest rank, `n - 1`. Callers pass `n ≥ 1` (see
    /// [`CostModel::latency_us`]) and a validated arity.
    pub(crate) fn gb_depth(n: usize, dim: usize) -> u32 {
        assert!(n >= 1 && dim >= 1);
        let mut rank = n - 1;
        let mut level = 0;
        while rank > 0 {
            rank = (rank - 1) / dim;
            level += 1;
        }
        level
    }

    /// Predicted latency (µs) of `descriptor` over `n` ranks, interpreted
    /// on `placement`, on the fabric `fm` describes
    /// ([`FabricModel::auto`] for the default fabric). Barriers use the
    /// exchange form (PE is radix-2 dissemination) or the GB form; the
    /// data-carrying collectives use the payload forms, which are
    /// calibrated on — and always read — the default fabric.
    ///
    /// `None` for an empty group (`n = 0`), and for a data-carrying
    /// collective on the host: no host-side payload form exists.
    pub fn latency_us(
        &self,
        placement: Placement,
        n: usize,
        descriptor: &Descriptor,
        fm: &FabricModel,
    ) -> Option<f64> {
        if n == 0 {
            return None;
        }
        Some(match (placement, *descriptor) {
            (_, Descriptor::Pe) => self.exchange_us(placement, n, 2, fm),
            (_, Descriptor::Dissemination { radix }) => self.exchange_us(placement, n, radix, fm),
            (_, Descriptor::Gb { dim }) => self.gb_us(placement, n, dim, fm),
            (Placement::Host, _) => return None,
            (Placement::Nic, Descriptor::Bcast { dim, payload }) => self.bcast_us(n, dim, payload),
            (Placement::Nic, Descriptor::Reduce { dim, payload, .. }) => {
                self.reduce_us(n, dim, payload)
            }
            (Placement::Nic, Descriptor::Allreduce { dim, payload, .. }) => {
                self.allreduce_us(n, dim, payload)
            }
            (Placement::Nic, Descriptor::Scan { payload, .. }) => self.scan_us(n, payload),
        })
    }

    // ---- Barrier forms: Eqs. 1–2 over any fabric ----
    //
    // Both forms extend Eqs. 1–2 past one crossbar: a round whose partner
    // sits on another leaf pays `cross_extra_us` per tier climbed, plus the
    // fabric's uplink queueing excess (zero on the default fabric, which
    // the per-step costs are calibrated on). On one crossbar the exchange
    // form at radix 2 is Eqs. 1–2 exactly. The BENCH_scale and
    // BENCH_fabric studies gate every simulated point against them.

    /// Wire cost of one hop between endpoints `dist` ranks apart on the
    /// fabric `fm` describes: the single-crossbar term, plus one tier
    /// surcharge once the partner is on another leaf, plus a second once
    /// it is in another pod (leaf→spine→core→spine→leaf).
    fn tiered_hop_us(&self, fm: &FabricModel, dist: usize) -> f64 {
        if fm.pod_hosts.is_some_and(|p| dist >= p) {
            self.network_us + 2.0 * self.cross_extra_us
        } else if dist >= fm.leaf_hosts {
            self.network_us + self.cross_extra_us
        } else {
            self.network_us
        }
    }

    /// Per-round structure of the radix-`radix` dissemination schedule
    /// over `n` ranks: for each round, the worst hop distance and the
    /// number of arrivals `(j·radix^k < n)` the rank must absorb.
    fn kary_rounds(n: usize, radix: usize) -> impl Iterator<Item = (usize, usize)> {
        assert!(radix >= 2, "dissemination radix must be at least 2");
        std::iter::successors(Some(1usize), move |stride| stride.checked_mul(radix))
            .take_while(move |&stride| stride < n)
            .map(move |stride| {
                let arrivals = (radix - 1).min((n - 1) / stride);
                (arrivals * stride, arrivals)
            })
    }

    /// The exchange form: radix-`radix` dissemination, and PE at radix 2
    /// (round `k`'s partner is `2^k` ranks away in both). Per round the
    /// worst-distance hop overlaps the others' wire time, then each of the
    /// round's `radix − 1` arrivals is absorbed serially — by the NIC
    /// (Eq. 2: the host pays send and completion once), or by a full host
    /// round trip (Eq. 1).
    fn exchange_us(&self, placement: Placement, n: usize, radix: usize, fm: &FabricModel) -> f64 {
        let rounds = Self::kary_rounds(n, radix);
        match placement {
            Placement::Nic => {
                let step = self.nic_recv_us + self.nic_step_us;
                let per_round: f64 = rounds
                    .map(|(worst, arrivals)| {
                        self.tiered_hop_us(fm, worst)
                            + fm.queue_us(self, worst)
                            + self.nic_recv_us
                            + self.nic_step_us
                            + (arrivals - 1) as f64 * step
                    })
                    .sum();
                self.send_us + per_round + self.rdma_us + self.hrecv_us
            }
            Placement::Host => {
                let step =
                    self.send_us + self.sdma_us + self.recv_us + self.rdma_us + self.hrecv_us;
                rounds
                    .map(|(worst, arrivals)| {
                        self.send_us
                            + self.sdma_us
                            + self.tiered_hop_us(fm, worst)
                            + fm.queue_us(self, worst)
                            + self.recv_us
                            + self.rdma_us
                            + self.hrecv_us
                            + (arrivals - 1) as f64 * step
                    })
                    .sum()
            }
        }
    }

    /// The GB form. Unlike PE, measured GB latency is *linear in
    /// `log2 n`* rather than stepping with tree depth: consecutive rounds
    /// pipeline through the tree, and each doubling of the cluster adds
    /// `dim - 1` per-child absorptions to the critical cycle (matching
    /// §6's observation that the tree dimension's impact is muted by
    /// pipelining). On the NIC an absorption is a gather plus a child
    /// broadcast send and the fixed part is the costly tree token; on the
    /// host each absorption goes through the NIC's full data-path receive.
    /// Explicit fabrics add, per pipelined round, the uplink queueing
    /// excess and a root-incast surcharge. Calibrated for moderate arities
    /// (the scaling study's `dim = 8`); exact only to ~±10% (NIC) and
    /// ~±15% (host).
    fn gb_us(&self, placement: Placement, n: usize, dim: usize, fm: &FabricModel) -> f64 {
        let per_child = (dim.saturating_sub(1)).max(1) as f64;
        let rounds = Self::rounds(n) as f64;
        let pipeline = match placement {
            Placement::Nic => {
                self.send_us
                    + self.gb_token_us
                    + rounds * per_child * (self.gb_gather_us + self.gb_child_us)
                    + self.rdma_us
                    + self.hrecv_us
            }
            Placement::Host => {
                self.send_us
                    + self.sdma_us
                    + rounds * per_child * self.recv_us
                    + self.rdma_us
                    + self.hrecv_us
            }
        };
        pipeline + fm.gb_round_excess_us(self, n, dim) * rounds
    }

    // ---- Payload latency-vs-size forms (data-carrying collectives) ----
    //
    // A data-carrying collective moves `payload.bytes` through the
    // schedule in `payload.segments()` pipelined segments (eager = one
    // segment). The testbed measures *steady-state per-operation latency*:
    // operations stream back-to-back, so the measured mean converges to
    // the slowest pipeline stage's period, not the one-shot fill path.
    // These forms therefore model the bottleneck stage of each schedule:
    //
    //   bcast/reduce:  T ≈ max(sender SDMA loop, worst-link wire, combine)
    //   allreduce:     T ≈ small-payload period + serialized payload fill
    //                  (the per-node staging buffer single-buffers the
    //                  payload, so rounds cannot overlap once data rides
    //                  along — the fill path itself becomes the period)
    //   scan:          T ≈ base rounds + R × contended wire per round
    //
    // Contention factors are calibrated against the wormhole fabric:
    // a `dim`-ary tree ≤16 nodes fits one crossbar and only shares the
    // parent's egress link (factor `dim`); past that, inter-switch trunks
    // carry tree edges from multiple levels and the worst-link factor
    // grows logarithmically in the extra depth. Scan's shifted-ring
    // rounds saturate the bisection: the observed per-round wire cost is
    // `sqrt(n)/2 ×` the uncontended serialization across n = 4..256.
    // The forms are calibrated on the default fabric and read it
    // ([`FabricModel::auto`]) whatever fabric the caller names. The
    // BENCH_payload study gates every simulated point against them within
    // [`PAYLOAD_MODEL_TOLERANCE`].

    /// Host-bus DMA time for `bytes` (engine startup is charged in
    /// handler cycles, so engine time is pure per-byte).
    fn dma_bytes_us(&self, bytes: u64) -> f64 {
        bytes as f64 * self.dma_us_per_byte
    }

    /// Wire serialization of `bytes` of payload.
    fn wire_bytes_us(&self, bytes: u64) -> f64 {
        bytes as f64 * self.wire_us_per_byte
    }

    /// Child counts of each ancestor on the rank `n - 1` → root path of
    /// the `dim`-ary heap tree (deepest-first). The first entry is often
    /// below `dim` — the deepest parent may be only partially filled.
    fn tree_path_fanins(n: usize, dim: usize) -> Vec<usize> {
        let mut rank = n - 1;
        let mut fanins = Vec::new();
        while rank > 0 {
            let parent = (rank - 1) / dim;
            let children = (1..=dim).filter(|j| parent * dim + j < n).count();
            fanins.push(children);
            rank = parent;
        }
        fanins
    }

    /// Worst-link contention factor for a down-tree broadcast carrying
    /// `segs` segments. `dim` worms share the parent egress inside one
    /// crossbar; each extra tree level past the single-switch depth adds
    /// trunk sharing with logarithmic saturation, and segmentation lets
    /// worms from distinct subtree streams *interleave* on a trunk, which
    /// grows the factor as `sqrt(segs)`, saturating at 3× (measured: 2 at
    /// n = 16 for all sizes; 5.5 → 8 at n = 64 and 5 → 20 at n = 256 as
    /// eager worms split into 16 segments). Past 256 nodes the Clos
    /// fabric's bisection grows faster than the binary tree's trunk
    /// usage, so the interleaving ceiling *shrinks* as `sqrt(256 / n)`
    /// (measured 11.5 at n = 1024 vs 20 at n = 256); `n / 8` bounds the
    /// distinct streams a trunk can carry at all.
    fn bcast_link_factor(n: usize, dim: usize, segs: f64) -> f64 {
        let levels = Self::gb_depth(n, dim) as f64;
        let extra = (levels - 3.0).max(1.0);
        let base = (n - 1).min(dim) as f64 * (1.0 + extra.log2());
        // Interleaving is worst at moderate segment counts (~16-64):
        // a few long segments collide on the trunks, while very deep
        // pipelines smooth into steady streams and the factor decays
        // back toward the eager value (measured at n = 256: 20 at 16
        // segments, 21 at 64, then 11.7 at 256).
        let peak = (3.0 * (256.0 / n as f64).sqrt().min(1.0)).max(1.0);
        let interleave = (segs.sqrt().min(peak) * (64.0 / segs).sqrt().min(1.0)).max(1.0);
        let cap = (n as f64 / 8.0).max(dim as f64);
        (base * interleave).min(cap)
    }

    /// Steady-state sender-side stage: host send/completion loop, tree
    /// token, SDMA handler, and the payload's host-bus DMA.
    fn tree_sender_us(&self, bytes: u64) -> f64 {
        self.send_us + self.hrecv_us + self.gb_token_us + self.sdma_us + self.dma_bytes_us(bytes)
    }

    /// Predicted NIC-based broadcast per-operation latency (µs) for
    /// `payload` over a `dim`-ary tree: the slowest of the root's SDMA
    /// loop, the worst fabric link (carrying `bcast_link_factor` copies
    /// of every segment), and a forwarding node's receive + RDMA work.
    fn bcast_us(&self, n: usize, dim: usize, payload: Payload) -> f64 {
        let bytes = payload.bytes.get();
        let seg = payload.seg_bytes.get().min(bytes.max(1));
        let segs = payload.segments().get() as f64;
        let sender = self.tree_sender_us(bytes);
        let link = Self::bcast_link_factor(n, dim, segs) * segs * self.wire_bytes_us(seg);
        let receiver =
            segs * self.nic_recv_us + self.dma_bytes_us(bytes) + self.rdma_us + self.hrecv_us;
        sender.max(link).max(receiver)
    }

    /// Predicted NIC-based reduce per-operation latency (µs): gather
    /// traffic thins toward the root, so no trunk contention — the
    /// bottleneck is a parent absorbing `dim` children (its ingress wire,
    /// or the combine RDMA of `dim` full payloads).
    fn reduce_us(&self, n: usize, dim: usize, payload: Payload) -> f64 {
        let bytes = payload.bytes.get();
        let seg = payload.seg_bytes.get().min(bytes.max(1));
        let segs = payload.segments().get() as f64;
        let fan = (n - 1).min(dim) as f64;
        let sender = self.tree_sender_us(bytes);
        let ingress = fan * segs * self.wire_bytes_us(seg);
        let combine = fan
            * self
                .dma_bytes_us(bytes)
                .max(segs * (self.recv_us + self.gb_gather_us))
            + self.rdma_us;
        sender.max(ingress).max(combine)
    }

    /// Small-payload allreduce period: the gather-side critical cycle
    /// (per-level absorptions and down-broadcast child sends along the
    /// deepest path).
    fn allreduce_base_us(&self, n: usize, dim: usize) -> f64 {
        let fm = FabricModel::auto(n);
        let mut rank = n - 1;
        let mut per_level = 0.0;
        for fan in Self::tree_path_fanins(n, dim) {
            let parent = (rank - 1) / dim;
            per_level += self.tiered_hop_us(&fm, rank - parent)
                + fan as f64 * (self.nic_recv_us + self.gb_gather_us + self.gb_child_us);
            rank = parent;
        }
        self.send_us + self.hrecv_us + self.gb_token_us + self.sdma_us + per_level + self.rdma_us
    }

    /// Predicted NIC-based allreduce per-operation latency (µs). The
    /// per-node SRAM staging buffer single-buffers the payload, so
    /// consecutive operations cannot overlap their data movement: the
    /// serialized fill path — leaf SDMA, per-level combine RDMA
    /// overlapped with the up-wire, the down-broadcast wire, final RDMA —
    /// adds directly onto the small-payload period. Trees deeper than one
    /// crossbar pay trunk contention on the way up, modeled as a linear
    /// depth-growth factor on the fill (1× at 4 levels, saturating at 2×
    /// from 8 levels on — deeper Clos fabrics add matching bisection).
    fn allreduce_us(&self, n: usize, dim: usize, payload: Payload) -> f64 {
        let bytes = payload.bytes.get();
        let segs = payload.segments().get() as f64;
        let per_level: f64 = Self::tree_path_fanins(n, dim)
            .iter()
            .map(|&fan| {
                (fan as f64 * self.dma_bytes_us(bytes)).max(self.wire_bytes_us(bytes))
                    + (segs - 1.0) * self.nic_recv_us
            })
            .sum();
        let fill = self.dma_bytes_us(bytes)
            + per_level
            + self.wire_bytes_us(bytes)
            + self.dma_bytes_us(bytes);
        let depth_growth = (1.0 + (Self::gb_depth(n, dim) as f64 - 4.0) / 4.0).clamp(1.0, 2.0);
        self.allreduce_base_us(n, dim) + depth_growth * fill
    }

    /// Predicted NIC-based scan per-operation latency (µs). Scan runs
    /// `log2 n` dependent PE-shaped combining rounds per operation; in
    /// round `k` every rank ships its running value `2^k` ranks away, so
    /// the fabric carries `n - 2^k` simultaneous worms and the effective
    /// per-round wire cost is `sqrt(n)/2` serializations (bisection
    /// saturation, calibrated at n = 4..256), floored by the combine
    /// RDMA.
    fn scan_us(&self, n: usize, payload: Payload) -> f64 {
        let bytes = payload.bytes.get();
        let segs = payload.segments().get() as f64;
        let base = self.exchange_us(Placement::Nic, n, 2, &FabricModel::auto(n)) + self.sdma_us;
        // Per-round NIC work already charged in the base; short worms
        // hide their wire/DMA time entirely under it, and a worm only
        // builds bisection queueing once its serialization exceeds that
        // injection pacing — hence the min(1, wire/cpu) damping.
        let cpu = self.nic_recv_us + self.nic_step_us;
        let wire = self.wire_bytes_us(bytes);
        // Bisection saturation: `sqrt(n)/2` serializations per round
        // (measured at n = 4..256); past 256 nodes the Clos bisection
        // outgrows the schedule's demand and the factor damps as
        // `(256/n)^(1/4)` (measured ≈ 12 at n = 1024, not 16).
        let bisect = (n as f64).sqrt() / 2.0 * (256.0 / n as f64).powf(0.25).min(1.0);
        let contention = bisect * (wire / cpu).min(1.0);
        let per_round = (contention * wire).max(self.dma_bytes_us(bytes)).max(cpu) - cpu
            + (segs - 1.0) * self.nic_recv_us;
        base + self.dma_bytes_us(bytes) + Self::rounds(n) as f64 * per_round
    }
}

/// Contention-relevant shape of a fabric, read from the layout a
/// [`FabricSpec`] resolves to ([`FabricSpec::layout`]) and a
/// [`RoutePolicy`] for a given attached-host count. This is what the
/// barrier forms consume: the distance tiers plus the uplink queueing
/// excess over the default non-blocking dispersed fabric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FabricModel {
    /// Hosts sharing a leaf (edge) switch — the first distance tier.
    pub leaf_hosts: usize,
    /// Hosts per pod when a third (core) level exists — the second tier.
    pub pod_hosts: Option<usize>,
    /// Oversubscription ratio (leaf hosts per uplink); 1.0 = non-blocking.
    pub oversub: f64,
    /// Worst-case worms per used uplink, beyond the default fabric's
    /// dispersed baseline, when every host of a leaf sends cross-leaf in
    /// the same round. Zero on the default fabric by construction.
    pub excess_load: f64,
}

impl FabricModel {
    /// Worst-case worms sharing one uplink when all `leaf_hosts` hosts of
    /// a leaf send cross-leaf simultaneously under `policy`.
    ///
    /// * Static BFS routes tie-break identically for every pair, funneling
    ///   the whole leaf through one spine.
    /// * Dispersed `(src + dst) % spines` spreads by sum — but exchange
    ///   partners sit at a fixed offset `d`, so `src + dst = 2·src + d`
    ///   has fixed parity and an even spine count only ever sees half its
    ///   spines in any one round.
    /// * Adaptive picks the least-loaded uplink, achieving the ideal
    ///   spread.
    fn policy_load(leaf_hosts: usize, spines: usize, policy: RoutePolicy) -> f64 {
        let spines = spines.max(1);
        let reached = match policy {
            RoutePolicy::StaticBfs => 1,
            RoutePolicy::Dispersed => {
                if spines.is_multiple_of(2) {
                    spines / 2
                } else {
                    spines
                }
            }
            RoutePolicy::Adaptive => spines,
        };
        (leaf_hosts as f64 / reached.min(leaf_hosts).max(1) as f64).max(1.0)
    }

    /// Derive the model shape for `spec` routed by `policy` with `n`
    /// attached hosts. Never panics: a spec [`FabricSpec::build`] rejects
    /// still resolves to some layout.
    pub fn from_spec(spec: FabricSpec, policy: RoutePolicy, n: usize) -> Self {
        let layout = spec.layout(n);
        let leaf_hosts = layout.hosts_per_leaf();
        let uplinks = layout.uplinks_per_leaf();
        let excess_load = if n <= leaf_hosts {
            // Single switch: no uplinks, no cross-leaf rounds.
            0.0
        } else {
            let load = Self::policy_load(leaf_hosts, uplinks, policy);
            // The calibrated per-step costs already absorb the default
            // fabric's residual dispersed load; charge only the excess.
            let baseline = Self::policy_load(leaf_hosts, leaf_hosts, RoutePolicy::Dispersed);
            (load - baseline).max(0.0)
        };
        FabricModel {
            leaf_hosts,
            pod_hosts: layout.pod_hosts(),
            // A crossbar has no uplinks to oversubscribe.
            oversub: if uplinks == 0 {
                1.0
            } else {
                leaf_hosts as f64 / uplinks as f64
            },
            excess_load,
        }
    }

    /// The default fabric under default routing — the shape the barrier
    /// forms' per-step costs and the payload forms are calibrated on. Its
    /// queueing excess is zero.
    pub fn auto(n: usize) -> Self {
        Self::from_spec(FabricSpec::Auto, RoutePolicy::Dispersed, n)
    }

    /// Queueing wait (µs) a round at hop distance `dist` pays on the
    /// shared uplinks: `excess_load` packet serializations once the round
    /// leaves the leaf, nothing intra-leaf.
    fn queue_us(&self, model: &CostModel, dist: usize) -> f64 {
        if dist >= self.leaf_hosts {
            self.excess_load * model.pkt_wire_us
        } else {
            0.0
        }
    }

    /// Per-pipelined-round GB surcharge (µs): uplink queueing excess plus
    /// the fan-in-keyed root incast on oversubscribed downlinks. Damped to
    /// a quarter of the naive worm count: the pipelined GB schedule keeps
    /// so little instantaneous wire parallelism (one gather edge per tree
    /// level is in flight at a time, versus a whole leaf for exchange
    /// rounds) that the measured BENCH_fabric grid shows only a fraction
    /// of the queueing materializing even on the 4:1 static-routed Clos.
    fn gb_round_excess_us(&self, model: &CostModel, n: usize, dim: usize) -> f64 {
        if n <= self.leaf_hosts {
            return 0.0;
        }
        let fan_in = (n - 1).min(dim.max(1)) as f64;
        let incast = (fan_in - 1.0).max(0.0) * (self.oversub - 1.0).max(0.0);
        0.25 * (self.excess_load + incast) * model.pkt_wire_us
    }
}

/// Relative regret tolerance of the [`advisor`]: the advisor's pick must
/// measure within this fraction of the measured-best candidate across the
/// BENCH_advisor scenario sweep (N × payload × fault rate). The bound is
/// inherited from the weakest analytic form the advisor ranks with — the
/// calibrated GB pipeline fits ([`GB_MODEL_TOLERANCE`]) — plus headroom
/// for the fault penalty, a calibrated saturating fit rather than a
/// derivation. Recalibrating the penalty against the measured
/// BENCH_advisor grid (the linear form over-predicted at p = 0.01, where
/// concurrent recoveries overlap) brought the worst observed regret from
/// ~22% under the linear form to ~17%, allowing this bound to tighten
/// from its original 0.25.
pub const ADVISOR_REGRET_TOLERANCE: f64 = 0.20;

pub mod advisor {
    //! Algorithm advisor: given a scenario (group size, payload, fault
    //! rate, start skew, and optionally an explicit fabric + routing
    //! policy — [`Scenario::with_fabric`]; the default [`FabricSpec::Auto`]
    //! implies the topology tier from the group size), rank every
    //! (placement, algorithm, parameter) candidate by the analytic cost
    //! model and recommend the cheapest.
    //!
    //! The advisor is topology-aware: explicit fabrics re-shape the
    //! distance tiers and charge the oversubscription queueing excess
    //! through the [`FabricModel`] the barrier forms read, and GB trees pay
    //! a tier bias — every fabric tier the tree spans adds cross-tier wire
    //! on each of its serialized levels, so tiered fabrics bias the ranking
    //! toward shallow trees.
    //!
    //! The prediction is [`CostModel::latency_us`] for the candidate (GB
    //! trees use the calibrated pipeline form at its calibration arity
    //! with a measured arity correction, and payload-carrying trees add a
    //! calibrated incast surcharge — see [`predict`]), plus two
    //! scenario penalties:
    //!
    //! * **faults** — a dropped packet costs the collective a fraction of
    //!   one base retransmission timeout. The expected drop count is
    //!   `d = rate × total wire messages`, but the measured penalty
    //!   saturates sublinearly in `d`: once several drops land in one
    //!   operation their recovery stalls overlap (every timer runs
    //!   concurrently against the same wall clock), so the penalty is
    //!   `stall fraction × RTO × K·ln(1 + d/K)` — linear in `d` while
    //!   `d ≪ K`, logarithmic past the knee. The knee `K` and the stall
    //!   fraction are simulation-calibrated per schedule family: tree
    //!   schedules serialize through the dropped edge (full timeout,
    //!   early knee — and deeper trees overlap *less*, adding a small
    //!   per-level growth), while exchange schedules (PE, dissemination)
    //!   keep every other rank progressing — later-round packets arrive
    //!   early and are absorbed as unexpected records — so recovery
    //!   overlaps the rest of the round, the effective stall is ~5×
    //!   smaller and the knee ~6× later.
    //!   The penalty separates message-frugal trees (`2(n−1)`
    //!   messages) from message-rich dissemination (`n·(r−1)·log_r n`)
    //!   only on very large lossy fabrics, where the message-count gap
    //!   overwhelms the stall-fraction gap.
    //! * **skew** — barriers cannot complete before the last arrival, so
    //!   start skew adds on; it is the same additive term for every
    //!   candidate and never flips a ranking (kept for honest absolute
    //!   predictions).
    //!
    //! The `repro advisor` study replays the advisor's scenario space in
    //! simulation and gates the pick's measured regret against
    //! [`super::ADVISOR_REGRET_TOLERANCE`].

    pub use super::Placement;
    use super::{CostModel, FabricModel};
    use crate::schedule::{pe, Descriptor};
    use gmsim_gm::Payload;
    use gmsim_myrinet::{FabricSpec, RoutePolicy};

    /// The situation to recommend for. With the default
    /// [`FabricSpec::Auto`] fabric the topology tier is implied by `n`
    /// (single crossbar ≤ 16 hosts, two-level Clos ≤ 1024, then
    /// three-level), from the same layout [`FabricSpec::build`] lays down;
    /// [`Scenario::with_fabric`] pins an explicit fabric and routing
    /// policy instead.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct Scenario {
        /// Number of participating processes.
        pub n: usize,
        /// Data each rank contributes ([`Payload::EMPTY`] for a pure
        /// barrier; non-empty scenarios are allreduce-style synchronizing
        /// data exchanges).
        pub payload: Payload,
        /// Per-packet drop probability of the fabric.
        pub fault_rate: f64,
        /// Worst-case start skew between participants (µs).
        pub skew_us: f64,
        /// The fabric the group runs on.
        pub fabric: FabricSpec,
        /// How worms are routed across that fabric's spines.
        pub routing: RoutePolicy,
    }

    impl Scenario {
        /// A fault-free, skew-free pure barrier over `n` processes.
        pub fn barrier(n: usize) -> Self {
            Scenario {
                n,
                payload: Payload::EMPTY,
                fault_rate: 0.0,
                skew_us: 0.0,
                fabric: FabricSpec::Auto,
                routing: RoutePolicy::Dispersed,
            }
        }

        /// Pin an explicit fabric and routing policy (the default is the
        /// auto-scaled non-blocking fabric with dispersed routes).
        #[must_use]
        pub fn with_fabric(mut self, fabric: FabricSpec, routing: RoutePolicy) -> Self {
            self.fabric = fabric;
            self.routing = routing;
            self
        }

        /// Attach per-rank data (turns the scenario into an allreduce).
        #[must_use]
        pub fn with_payload(mut self, payload: Payload) -> Self {
            self.payload = payload;
            self
        }

        /// Set the fabric drop probability.
        #[must_use]
        pub fn with_faults(mut self, rate: f64) -> Self {
            self.fault_rate = rate;
            self
        }

        /// Set the worst-case start skew.
        #[must_use]
        pub fn with_skew(mut self, skew_us: f64) -> Self {
            self.skew_us = skew_us;
            self
        }
    }

    /// One scored (placement, algorithm) candidate.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct Candidate {
        /// NIC or host interpreter.
        pub placement: Placement,
        /// The algorithm and its parameter.
        pub descriptor: Descriptor,
        /// Predicted latency under the scenario (µs).
        pub predicted_us: f64,
    }

    impl Candidate {
        /// Stable display name, matching the BENCH_advisor row labels.
        pub fn name(&self) -> String {
            let side = match self.placement {
                Placement::Nic => "nic",
                Placement::Host => "host",
            };
            match self.descriptor {
                Descriptor::Pe => format!("{side}-pe"),
                Descriptor::Gb { dim } => format!("{side}-gb{dim}"),
                Descriptor::Dissemination { radix } => format!("{side}-dissem{radix}"),
                Descriptor::Allreduce { dim, .. } => format!("{side}-allreduce{dim}"),
                ref other => format!("{side}-{other:?}"),
            }
        }
    }

    /// The advisor's output: every candidate, cheapest first.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Recommendation {
        /// All scored candidates, sorted by ascending predicted latency.
        pub ranked: Vec<Candidate>,
    }

    impl Recommendation {
        /// The recommended candidate.
        pub fn best(&self) -> &Candidate {
            &self.ranked[0]
        }
    }

    /// Tree dimensions the advisor considers for GB (and allreduce).
    pub const GB_DIMS: [usize; 3] = [2, 4, 8];

    /// The arity the GB pipeline form is calibrated at (the scaling
    /// study's `dim = 8`). The advisor predicts every GB candidate from
    /// this form: measured GB latency is nearly *flat* in the tree
    /// dimension — deep binary trees serialize more levels while wide
    /// trees absorb more children per level, and under pipelining the two
    /// effects cancel — whereas the raw form's `dim − 1` per-round factor
    /// would wrongly reward low arities by 2–4×.
    pub const GB_PIPELINE_DIM: usize = 8;

    /// Simulation-calibrated arity correction on the saturated GB
    /// pipeline cycle (stable across 8–256 nodes to within a few
    /// percent): binary trees pay ~10% over the `dim = 8` cycle for the
    /// extra serialized depth, `dim = 4` undercuts it by ~6%.
    fn gb_arity_correction(dim: usize) -> f64 {
        match dim {
            0..=2 => 1.10,
            3..=5 => 0.94,
            _ => 1.0,
        }
    }

    /// Simulation-calibrated fraction of the base RTO one dropped packet
    /// stalls the collective. Tree schedules (GB, and the data-carrying
    /// tree collectives) serialize through the dropped edge: nothing
    /// downstream can proceed until the retransmission lands, so a drop
    /// costs essentially the full timeout. Exchange schedules (PE,
    /// dissemination, scan) leave every other rank free to run ahead —
    /// their later-round packets are absorbed as unexpected records — so
    /// only the tail of the stalled rank's chain waits and the measured
    /// effective stall is ~0.2 RTO.
    fn drop_stall_fraction(descriptor: &Descriptor) -> f64 {
        match descriptor {
            Descriptor::Pe | Descriptor::Dissemination { .. } | Descriptor::Scan { .. } => 0.2,
            _ => 1.0,
        }
    }

    /// Knee (in expected drops per operation) where a schedule family's
    /// measured fault penalty departs from linear. Past the knee,
    /// concurrent recoveries overlap — every retransmission timer runs
    /// against the same wall clock — and each additional expected drop
    /// buys less stall. Exchange schedules overlap heavily (many ranks
    /// recover inside one round's stall window: measured penalty at
    /// p = 0.01 sits ~3–4× below linear by 1024 nodes); tree schedules
    /// serialize recoveries level by level and saturate almost
    /// immediately. Calibrated against the measured BENCH_advisor grid.
    fn drop_saturation_knee(descriptor: &Descriptor) -> f64 {
        match descriptor {
            Descriptor::Pe | Descriptor::Dissemination { .. } | Descriptor::Scan { .. } => 3.0,
            _ => 0.5,
        }
    }

    /// Expected fault penalty (µs) for one operation: the saturating
    /// recalibration of the old linear `rate × messages × RTO × fraction`
    /// form, to which it reduces exactly as the expected drop count
    /// `d → 0`. Pure GB trees additionally grow ~3% per tree level: a
    /// deeper tree has more serialized edges whose recoveries *cannot*
    /// overlap, which the flat knee under-charges (measured: an 8-ary
    /// tree rides out p = 0.01 better than the quad tree at 1024 nodes).
    fn fault_penalty_us(model: &CostModel, scenario: &Scenario, descriptor: &Descriptor) -> f64 {
        let expected_drops = scenario.fault_rate * total_messages(descriptor, scenario.n) as f64;
        let knee = drop_saturation_knee(descriptor);
        let depth_growth = match *descriptor {
            Descriptor::Gb { dim } => 1.0 + 0.03 * CostModel::gb_depth(scenario.n, dim) as f64,
            _ => 1.0,
        };
        drop_stall_fraction(descriptor)
            * model.retransmit_us
            * knee
            * (1.0 + expected_drops / knee).ln()
            * depth_growth
    }

    /// Topology-aware tier bias (µs) on GB trees: every fabric tier the
    /// tree spans adds cross-tier wire that the pipelined GB form (which
    /// carries no hop term at all) never charges, and it recurs on each
    /// of the tree's serialized levels — so on tiered fabrics the bias
    /// grows with depth and shallow trees win ties. Keyed to the *actual*
    /// candidate arity, unlike the pipeline base form, which is evaluated
    /// at its calibration arity.
    fn gb_tier_bias_us(model: &CostModel, fm: &FabricModel, n: usize, dim: usize) -> f64 {
        let mut tiers = 0.0;
        if n > fm.leaf_hosts {
            tiers += 1.0;
        }
        if fm.pod_hosts.is_some_and(|p| n > p) {
            tiers += 1.0;
        }
        tiers * CostModel::gb_depth(n, dim) as f64 * model.cross_extra_us
    }

    /// Simulation-calibrated incast surcharge (µs) for payload-carrying
    /// trees. A `dim`-ary gather parent absorbs `dim` payload worms that
    /// serialize on its ingress path, and on the shared Clos uplinks the
    /// contention compounds — none of which the latency-vs-size forms
    /// model, so they increasingly *under*-charge high arity as `n`
    /// grows: at 4096 nodes the uncorrected form ranks the 8-ary
    /// allreduce cheapest where measurement has it 6× slower than
    /// binary. The measured fault-free gap fits `(dim−1)² × levels`,
    /// linear in payload bytes, with a per-tier scale: lost in the noise
    /// through 64 nodes, ≈18 µs per unit (at 4 KiB) on the two-level
    /// Clos (calibrated to the measured arity crossover — 4-ary still
    /// ahead at 256 nodes, binary by 1024), ≈60 µs once worms cross the
    /// third tier.
    fn payload_incast_us(n: usize, dim: usize, bytes: u64) -> f64 {
        let scale = match n {
            0..=127 => return 0.0,
            128..=2047 => 18.0,
            _ => 60.0,
        };
        let levels = if dim >= 2 {
            CostModel::kary_rounds(n, dim).count()
        } else {
            // Degenerate chain "tree": one level per non-root rank.
            n.saturating_sub(1)
        };
        let fan_in = dim.saturating_sub(1) as f64;
        fan_in * fan_in * levels as f64 * scale * (bytes as f64 / 4096.0)
    }

    /// Dissemination radixes the advisor considers.
    pub const DISSEMINATION_RADIXES: [usize; 3] = [2, 3, 4];

    /// The candidate space for `scenario`. Pure barriers rank PE, GB and
    /// dissemination on both placements; payload-carrying scenarios rank
    /// NIC allreduce trees (the payload forms model the NIC data path —
    /// there is no host-side payload form to rank against).
    pub fn candidates(scenario: &Scenario) -> Vec<(Placement, Descriptor)> {
        let mut out = Vec::new();
        if scenario.payload.bytes.get() > 0 {
            for dim in GB_DIMS {
                out.push((
                    Placement::Nic,
                    Descriptor::allreduce(gmsim_gm::ReduceOp::Sum, dim)
                        .with_payload(scenario.payload),
                ));
            }
            return out;
        }
        for placement in [Placement::Nic, Placement::Host] {
            out.push((placement, Descriptor::pe()));
            for dim in GB_DIMS {
                out.push((placement, Descriptor::gb(dim)));
            }
            for radix in DISSEMINATION_RADIXES {
                out.push((placement, Descriptor::dissemination_radix(radix)));
            }
        }
        out
    }

    /// Total wire messages one collective moves across all ranks — the
    /// fault-exposure surface. Co-located ranks still count: the advisor
    /// assumes the one-process-per-node placement its study measures.
    pub fn total_messages(descriptor: &Descriptor, n: usize) -> usize {
        if n == 0 {
            return 0;
        }
        match *descriptor {
            // `p·log2 p` exchange sends among the power-of-two core, plus
            // one fold and one release send per extra rank.
            Descriptor::Pe => {
                let p = pe::pow2_floor(n);
                p * p.trailing_zeros() as usize + 2 * (n - p)
            }
            // Every rank sends once per arrival of every round.
            Descriptor::Dissemination { radix } => {
                n * CostModel::kary_rounds(n, radix)
                    .map(|(_, arrivals)| arrivals)
                    .sum::<usize>()
            }
            // One gather up and one broadcast down per non-root rank.
            Descriptor::Gb { .. } => 2 * (n - 1),
            Descriptor::Allreduce { payload, .. } => {
                2 * (n - 1) * payload.segments().get() as usize
            }
            Descriptor::Bcast { payload, .. } | Descriptor::Reduce { payload, .. } => {
                (n - 1) * payload.segments().get() as usize
            }
            // At distance `d = 2^k` the `n − d` ranks with a downstream
            // partner send.
            Descriptor::Scan { payload, .. } => {
                std::iter::successors(Some(1usize), |d| d.checked_mul(2))
                    .take_while(|&d| d < n)
                    .map(|d| n - d)
                    .sum::<usize>()
                    * payload.segments().get() as usize
            }
        }
    }

    /// Predicted latency of one candidate under `scenario` (µs):
    /// [`CostModel::latency_us`] on the scenario's fabric plus the fault
    /// and skew penalties. GB candidates are predicted from the pipeline
    /// form at its calibration arity ([`GB_PIPELINE_DIM`]) with the
    /// measured arity correction — evaluating the raw form at `dim = 2` or
    /// `4` leaves its calibrated domain and under-predicts the simulation
    /// by 2–4× — plus the arity-keyed topology tier bias; reduce and
    /// allreduce trees add the payload incast surcharge.
    ///
    /// # Panics
    /// On host-placement payload collectives (no host-side payload form
    /// exists); [`candidates`] never produces those pairings.
    pub fn predict(
        model: &CostModel,
        scenario: &Scenario,
        placement: Placement,
        descriptor: &Descriptor,
    ) -> f64 {
        let n = scenario.n;
        let fm = FabricModel::from_spec(scenario.fabric, scenario.routing, n);
        let latency = |d: &Descriptor| {
            model
                .latency_us(placement, n, d, &fm)
                .unwrap_or_else(|| panic!("no host-side analytic form for {d:?}"))
        };
        let base = match *descriptor {
            Descriptor::Gb { dim } => {
                gb_arity_correction(dim) * latency(&Descriptor::gb(GB_PIPELINE_DIM))
                    + gb_tier_bias_us(model, &fm, n, dim)
            }
            Descriptor::Allreduce { dim, payload, .. }
            | Descriptor::Reduce { dim, payload, .. } => {
                latency(descriptor) + payload_incast_us(n, dim, payload.bytes.get())
            }
            _ => latency(descriptor),
        };
        base + fault_penalty_us(model, scenario, descriptor) + scenario.skew_us
    }

    /// Rank the whole candidate space for `scenario`, cheapest first.
    pub fn recommend(model: &CostModel, scenario: &Scenario) -> Recommendation {
        let mut ranked: Vec<Candidate> = candidates(scenario)
            .into_iter()
            .map(|(placement, descriptor)| Candidate {
                placement,
                descriptor,
                predicted_us: predict(model, scenario, placement, &descriptor),
            })
            .collect();
        ranked.sort_by(|a, b| a.predicted_us.total_cmp(&b.predicted_us));
        Recommendation { ranked }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmsim_gm::Segments;
    use gmsim_lanai::NicModel;
    use gmsim_myrinet::NicId;

    fn model_43() -> CostModel {
        CostModel::from_config(&GmConfig::paper_host(NicModel::LANAI_4_3))
    }

    /// [`CostModel::latency_us`] on the default fabric.
    fn auto(m: &CostModel, placement: Placement, n: usize, d: Descriptor) -> f64 {
        m.latency_us(placement, n, &d, &FabricModel::auto(n))
            .expect("a barrier form")
    }

    #[test]
    fn rounds_is_ceil_log2() {
        assert_eq!(CostModel::rounds(0), 0);
        assert_eq!(CostModel::rounds(1), 0);
        assert_eq!(CostModel::rounds(2), 1);
        assert_eq!(CostModel::rounds(3), 2);
        assert_eq!(CostModel::rounds(16), 4);
        assert_eq!(CostModel::rounds(17), 5);
        for n in 1..=1 << 16 {
            assert_eq!(
                CostModel::rounds(n),
                (n as f64).log2().ceil() as u32,
                "n={n}"
            );
        }
    }

    #[test]
    fn an_empty_group_has_no_prediction_and_no_panic() {
        use gmsim_gm::ReduceOp;
        let m = model_43();
        let payload = Payload::pipelined(12 * 1024, 4096);
        let families = [
            Descriptor::pe(),
            Descriptor::gb(4),
            Descriptor::dissemination(),
            Descriptor::bcast(2).with_payload(payload),
            Descriptor::reduce(ReduceOp::Sum, 2).with_payload(payload),
            Descriptor::allreduce(ReduceOp::Sum, 2).with_payload(payload),
            Descriptor::scan(ReduceOp::Sum).with_payload(payload),
        ];
        for fm in [FabricModel::auto(0), FabricModel::auto(16)] {
            for placement in [Placement::Nic, Placement::Host] {
                for d in &families {
                    assert_eq!(
                        m.latency_us(placement, 0, d, &fm),
                        None,
                        "{placement:?} {d:?}"
                    );
                }
            }
        }
        // Eqs. 1–3 take no round for an empty group.
        assert_eq!(m.host_barrier_us(0), 0.0);
        assert_eq!(m.nic_barrier_us(0), m.nic_barrier_us(1));
    }

    #[test]
    fn derived_terms_near_design_calibration() {
        let m = model_43();
        assert!((7.5..8.5).contains(&m.send_us), "send={}", m.send_us);
        assert!((10.5..12.5).contains(&m.sdma_us), "sdma={}", m.sdma_us);
        assert!(
            (0.3..1.0).contains(&m.network_us),
            "network={}",
            m.network_us
        );
        assert!((10.0..11.5).contains(&m.recv_us), "recv={}", m.recv_us);
        assert!((7.0..8.5).contains(&m.rdma_us), "rdma={}", m.rdma_us);
        assert!((6.5..7.1).contains(&m.hrecv_us), "hrecv={}", m.hrecv_us);
    }

    #[test]
    fn sixteen_node_predictions_match_paper_band() {
        let m = model_43();
        let host = m.host_barrier_us(16);
        let nic = m.nic_barrier_us(16);
        // Paper: host-PE(16) ≈ 1.78 × 102.14 ≈ 182 µs; NIC-PE(16) = 102.14.
        assert!((170.0..195.0).contains(&host), "host={host}");
        assert!((94.0..112.0).contains(&nic), "nic={nic}");
        let f = m.improvement(16);
        assert!((1.6..2.0).contains(&f), "improvement={f}");
    }

    #[test]
    fn improvement_grows_with_n() {
        let m = model_43();
        let f4 = m.improvement(4);
        let f16 = m.improvement(16);
        let f256 = m.improvement(256);
        assert!(f4 < f16 && f16 < f256, "{f4} {f16} {f256}");
    }

    #[test]
    fn improvement_grows_with_host_overhead() {
        // §2.2: an MPI-like layer increases Send/HRecv and the factor.
        let base = model_43();
        let mpi = CostModel::from_config(
            &GmConfig::paper_host(NicModel::LANAI_4_3).with_layer_overhead(2.0),
        );
        assert!(mpi.improvement(16) > base.improvement(16));
    }

    #[test]
    fn faster_nic_lowers_both_latencies() {
        let m43 = model_43();
        let m72 = CostModel::from_config(&GmConfig::paper_host(NicModel::LANAI_7_2));
        assert!(m72.host_barrier_us(8) < m43.host_barrier_us(8));
        assert!(m72.nic_barrier_us(8) < m43.nic_barrier_us(8));
        // Paper: 8-node LANai 7.2 factor 1.83 > LANai 4.3 factor 1.66.
        assert!(m72.improvement(8) > m43.improvement(8));
    }

    #[test]
    fn scaled_forms_collapse_to_paper_forms_on_one_crossbar() {
        // Up to 16 nodes there is no Clos and no cross-leaf surcharge:
        // the exchange form at radix 2 must equal Eqs. 1–2 exactly.
        let m = model_43();
        for n in [2usize, 4, 8, 16] {
            let pe = |p| auto(&m, p, n, Descriptor::pe());
            assert_eq!(pe(Placement::Nic), m.nic_barrier_us(n));
            assert_eq!(pe(Placement::Host), m.host_barrier_us(n));
        }
    }

    #[test]
    fn cross_leaf_surcharge_kicks_in_past_sixteen() {
        let m = model_43();
        // n=32 has 5 PE rounds, distances 1,2,4 intra-leaf and 8,16
        // cross-leaf: exactly two surcharges over the flat Eq. 2.
        let flat = m.nic_barrier_us(32);
        let scaled = auto(&m, Placement::Nic, 32, Descriptor::pe());
        assert!(
            (scaled - flat - 2.0 * m.cross_extra_us).abs() < 1e-9,
            "scaled={scaled} flat={flat} extra={}",
            m.cross_extra_us
        );
    }

    #[test]
    fn cross_pod_surcharge_kicks_in_past_one_thousand_twenty_four() {
        let m = model_43();
        // n=2048 has 11 PE rounds: distances 1..=4 intra-leaf, 8..=32
        // cross-leaf (3 surcharges), 64..=1024 cross-pod (5 double
        // surcharges).
        let flat = m.nic_barrier_us(2048);
        let scaled = auto(&m, Placement::Nic, 2048, Descriptor::pe());
        let expect = 3.0 * m.cross_extra_us + 5.0 * 2.0 * m.cross_extra_us;
        assert!(
            (scaled - flat - expect).abs() < 1e-9,
            "scaled={scaled} flat={flat} expect={expect}"
        );
        // At the two-level boundary the pod surcharge must NOT apply.
        let b1024 = auto(&m, Placement::Nic, 1024, Descriptor::pe()) - m.nic_barrier_us(1024);
        assert!(
            (b1024 - 7.0 * m.cross_extra_us).abs() < 1e-9,
            "1024 nodes stay two-level: {b1024}"
        );
    }

    #[test]
    fn higher_radix_trades_rounds_for_arrivals() {
        let m = model_43();
        for n in [64usize, 256, 1024] {
            // Radix 4 halves the dependent rounds of radix 2 at powers of
            // four, paying 3 arrivals per round instead of 1: strictly
            // fewer wire hops on the critical path, more NIC work.
            let dissem = |p, r| auto(&m, p, n, Descriptor::dissemination_radix(r));
            let r2 = dissem(Placement::Nic, 2);
            let r4 = dissem(Placement::Nic, 4);
            assert!(r2.is_finite() && r4.is_finite());
            assert!(r4 > 0.0 && r2 > 0.0);
            // On the host the per-arrival round trip dominates, so higher
            // radix must never win there.
            assert!(
                dissem(Placement::Host, 4) > dissem(Placement::Host, 2),
                "n={n}"
            );
        }
    }

    #[test]
    fn advisor_prefers_nic_over_host_everywhere() {
        let m = model_43();
        for n in [8usize, 64, 1024] {
            let rec = advisor::recommend(&m, &advisor::Scenario::barrier(n));
            assert_eq!(rec.best().placement, Placement::Nic, "n={n}");
            // The ranking is sorted ascending.
            for w in rec.ranked.windows(2) {
                assert!(w[0].predicted_us <= w[1].predicted_us);
            }
        }
    }

    #[test]
    fn advisor_fault_penalty_favors_message_frugal_trees_at_scale() {
        let m = model_43();
        // Exchange schedules ride out drops ~5× cheaper per message than
        // trees, so the tree's 2(n−1)-vs-0.2·n·log2 n exposure advantage
        // only materializes past n = 1024 (log2 n > 10). At 4096 nodes a
        // lossy fabric must flip the recommendation to a GB tree...
        let lossy = advisor::Scenario::barrier(4096).with_faults(0.01);
        let rec = advisor::recommend(&m, &lossy);
        assert!(
            matches!(rec.best().descriptor, Descriptor::Gb { .. }),
            "lossy best = {}",
            rec.best().name()
        );
        // ...while at 256 nodes the same drop rate keeps PE/dissemination
        // ahead (measured: nic-pe and nic-dissem2 stay the cheapest under
        // faults there).
        let mid = advisor::recommend(&m, &advisor::Scenario::barrier(256).with_faults(0.01));
        assert!(
            matches!(
                mid.best().descriptor,
                Descriptor::Pe | Descriptor::Dissemination { .. }
            ),
            "256-node lossy best = {}",
            mid.best().name()
        );
        // And the penalty is monotone: the lossy winner predicts no better
        // than the fault-free winner.
        let clean = advisor::recommend(&m, &advisor::Scenario::barrier(4096));
        assert!(rec.best().predicted_us >= clean.best().predicted_us);
    }

    #[test]
    fn advisor_payload_scenarios_rank_allreduce_trees() {
        let m = model_43();
        let sc = advisor::Scenario::barrier(64).with_payload(Payload::for_size(4096));
        let rec = advisor::recommend(&m, &sc);
        assert_eq!(rec.ranked.len(), advisor::GB_DIMS.len());
        for c in &rec.ranked {
            assert_eq!(c.placement, Placement::Nic);
            assert!(matches!(c.descriptor, Descriptor::Allreduce { .. }));
        }
    }

    #[test]
    fn advisor_payload_trees_pay_for_incast_at_scale() {
        let m = model_43();
        // At 64 nodes pipelining still favors the wider tree...
        let small = advisor::Scenario::barrier(64).with_payload(Payload::for_size(4096));
        let rec = advisor::recommend(&m, &small);
        assert!(
            matches!(rec.best().descriptor, Descriptor::Allreduce { dim: 4, .. }),
            "{rec:?}"
        );
        // ...but on the three-tier fabric the 8-ary gather's incast is
        // ruinous (measured 6× binary) and the binary tree must win.
        let big = advisor::Scenario::barrier(4096).with_payload(Payload::for_size(4096));
        let rec = advisor::recommend(&m, &big);
        assert!(
            matches!(rec.best().descriptor, Descriptor::Allreduce { dim: 2, .. }),
            "{rec:?}"
        );
    }

    #[test]
    fn advisor_total_messages_match_the_schedules() {
        use crate::schedule::{dissemination, pe, pe::Step, scan};
        use advisor::total_messages;
        let sends = |steps: Vec<Step>| {
            steps
                .iter()
                .filter(|s| !matches!(s, Step::RecvFrom(_)))
                .count()
        };
        let segs = Payload::pipelined(12 * 1024, 4096);
        assert_eq!(segs.segments().get(), 3);
        for n in 1..=1100 {
            let pe_sends: usize = (0..n).map(|r| sends(pe::schedule(r, n))).sum();
            assert_eq!(total_messages(&Descriptor::pe(), n), pe_sends, "pe n={n}");
            let scan_sends: usize = (0..n).map(|r| sends(scan::schedule(r, n))).sum();
            assert_eq!(
                total_messages(
                    &Descriptor::scan(gmsim_gm::ReduceOp::Sum).with_payload(segs),
                    n
                ),
                3 * scan_sends,
                "scan n={n}"
            );
            for radix in 2..=8 {
                // Every rank sends the same (round, offset) distance set.
                let dis_sends = n * sends(dissemination::schedule(0, n, radix));
                assert_eq!(
                    total_messages(&Descriptor::dissemination_radix(radix), n),
                    dis_sends,
                    "dissemination n={n} radix={radix}"
                );
            }
        }
        assert_eq!(total_messages(&Descriptor::pe(), 0), 0);
    }

    #[test]
    fn advisor_total_messages_counts() {
        use advisor::total_messages;
        // GB: one gather up + one broadcast down per non-root rank.
        assert_eq!(total_messages(&Descriptor::gb(4), 16), 30);
        // Radix-2 dissemination: n sends per round, ceil(log2 n) rounds.
        assert_eq!(total_messages(&Descriptor::dissemination(), 16), 64);
        // Radix-4 over 16 ranks: 2 rounds × 3 offsets × 16 ranks.
        assert_eq!(total_messages(&Descriptor::dissemination_radix(4), 16), 96);
        // PE at a power of two: n·log2 n exchange sends.
        assert_eq!(total_messages(&Descriptor::pe(), 16), 64);
        // Skew is additive and identical across candidates.
        let model = model_43();
        let base = advisor::predict(
            &model,
            &advisor::Scenario::barrier(32),
            Placement::Nic,
            &Descriptor::pe(),
        );
        let skewed = advisor::predict(
            &model,
            &advisor::Scenario::barrier(32).with_skew(50.0),
            Placement::Nic,
            &Descriptor::pe(),
        );
        assert!((skewed - base - 50.0).abs() < 1e-12);
    }

    #[test]
    fn oversubscription_and_static_routing_raise_predictions() {
        let m = model_43();
        let n = 64usize;
        let clos = |spines| FabricSpec::Clos {
            leaves: 8,
            hosts_per_leaf: 8,
            spines,
        };
        let on = |spec, policy, d: Descriptor| {
            let fm = FabricModel::from_spec(spec, policy, n);
            m.latency_us(Placement::Nic, n, &d, &fm).unwrap()
        };
        let pe = |spec, policy| on(spec, policy, Descriptor::pe());
        // Dispersed routing: halving the spines raises the PE prediction.
        let full = pe(clos(8), RoutePolicy::Dispersed);
        let half = pe(clos(4), RoutePolicy::Dispersed);
        let quarter = pe(clos(2), RoutePolicy::Dispersed);
        assert!(full < half && half < quarter, "{full} {half} {quarter}");
        // Policy ordering on an oversubscribed fabric: adaptive spreads
        // best, static funnels worst.
        let adaptive = pe(clos(2), RoutePolicy::Adaptive);
        let dispersed = pe(clos(2), RoutePolicy::Dispersed);
        let static_bfs = pe(clos(2), RoutePolicy::StaticBfs);
        assert!(adaptive < dispersed, "{adaptive} {dispersed}");
        assert!(dispersed <= static_bfs, "{dispersed} {static_bfs}");
        // The non-blocking dispersed Clos is the calibration shape.
        assert_eq!(full, auto(&m, Placement::Nic, n, Descriptor::pe()));
        // GB pays a fan-in-keyed incast surcharge once oversubscribed.
        let gb = |spines| on(clos(spines), RoutePolicy::Dispersed, Descriptor::gb(8));
        assert!(gb(2) > gb(8));
    }

    #[test]
    fn fat_tree_shape_reaches_the_analytic_tiers() {
        // A k=8 fat tree podizes 128 hosts into 16 pods of 4-host leaves:
        // the leaf tier starts at distance 4 and the core tier at 16,
        // unlike Auto's 8/None at the same n.
        let m = model_43();
        let fm = FabricModel::from_spec(FabricSpec::FatTree { k: 8 }, RoutePolicy::Dispersed, 128);
        assert_eq!(fm.leaf_hosts, 4);
        assert_eq!(fm.pod_hosts, Some(16));
        assert_eq!(fm.oversub, 1.0);
        assert_eq!(m.tiered_hop_us(&fm, 2), m.network_us);
        assert_eq!(m.tiered_hop_us(&fm, 4), m.network_us + m.cross_extra_us);
        assert_eq!(
            m.tiered_hop_us(&fm, 16),
            m.network_us + 2.0 * m.cross_extra_us
        );
    }

    #[test]
    fn resolved_shape_matches_the_built_topology() {
        // The analytic tiers come from the layout `build` lays down, so
        // they must agree with the built routes: the leaf tier is the NICs
        // on NIC 0's switch, the pod tier the first rank more than 4 links
        // from rank 0, and a hop pays one surcharge per tier it climbs
        // (two links each).
        let m = model_43();
        let clos = |spines| FabricSpec::Clos {
            leaves: 8,
            hosts_per_leaf: 8,
            spines,
        };
        let mut cases: Vec<(FabricSpec, usize)> = [2, 16, 17, 100, 1000, 1024, 1025, 2048]
            .map(|n| (FabricSpec::Auto, n))
            .to_vec();
        cases.extend([
            (clos(8), 64),
            (clos(4), 64),
            (clos(2), 64),
            (FabricSpec::FatTree { k: 4 }, 16),
            (FabricSpec::FatTree { k: 8 }, 128),
        ]);
        let mut route = Vec::new();
        for (spec, n) in cases {
            let topo = spec.build(n, RoutePolicy::Dispersed);
            let fm = FabricModel::from_spec(spec, RoutePolicy::Dispersed, n);
            let mut links = |dst: usize| {
                topo.route_links_into(NicId(0), NicId(dst), &mut route);
                route.len()
            };
            let leaf0 = topo.attached_switch(NicId(0));
            let on_leaf0 = (0..topo.nic_count())
                .filter(|&r| topo.attached_switch(NicId(r)) == leaf0)
                .count();
            assert_eq!(fm.leaf_hosts, on_leaf0, "{spec:?} n={n}");
            let off_pod = (1..topo.nic_count()).find(|&r| links(r) > 4);
            assert_eq!(fm.pod_hosts, off_pod, "{spec:?} n={n}");
            let leaf = fm.leaf_hosts;
            let pod = fm.pod_hosts.unwrap_or(n);
            for dist in [1, leaf - 1, leaf, pod - 1, pod, n - 1] {
                if !(1..n).contains(&dist) {
                    continue;
                }
                let tiers = (links(dist) / 2 - 1) as f64;
                assert_eq!(
                    m.tiered_hop_us(&fm, dist),
                    m.network_us + tiers * m.cross_extra_us,
                    "{spec:?} n={n} dist={dist}"
                );
            }
            if spec == FabricSpec::Auto {
                assert_eq!((fm.oversub, fm.excess_load), (1.0, 0.0), "n={n}");
            }
        }
    }

    #[test]
    fn advisor_answers_for_fabrics_build_rejects() {
        // The resolver never panics, so neither does ranking a scenario
        // whose fabric `FabricSpec::build` would refuse.
        let m = model_43();
        for spec in [
            FabricSpec::FatTree { k: 0 },
            FabricSpec::FatTree { k: 3 },
            FabricSpec::Clos {
                leaves: 0,
                hosts_per_leaf: 0,
                spines: 0,
            },
        ] {
            let sc = advisor::Scenario::barrier(64).with_fabric(spec, RoutePolicy::Adaptive);
            let rec = advisor::recommend(&m, &sc);
            assert!(
                rec.ranked.iter().all(|c| c.predicted_us.is_finite()),
                "{spec:?}"
            );
        }
    }

    #[test]
    fn saturating_fault_penalty_reduces_to_linear_at_low_rates() {
        // K·ln(1 + d/K) → d as d → 0: at one expected drop per thousand
        // operations the saturating form must sit within 0.1% of the old
        // linear penalty, while at p = 0.01 on a big exchange it must sit
        // well below it (that over-prediction was the bug).
        let m = model_43();
        let pe = Descriptor::pe();
        let linear = |n: usize, rate: f64| {
            rate * advisor::total_messages(&pe, n) as f64 * m.retransmit_us * 0.2
        };
        let predicted = |n: usize, rate: f64| {
            advisor::predict(
                &m,
                &advisor::Scenario::barrier(n).with_faults(rate),
                Placement::Nic,
                &pe,
            ) - auto(&m, Placement::Nic, n, pe)
        };
        let low = predicted(64, 1e-6);
        assert!((low - linear(64, 1e-6)).abs() / linear(64, 1e-6) < 1e-3);
        let high = predicted(1024, 0.01);
        assert!(
            high < 0.5 * linear(1024, 0.01),
            "saturation must undercut linear: {high} vs {}",
            linear(1024, 0.01)
        );
        // Monotone in rate regardless.
        assert!(predicted(1024, 0.02) > high);
    }

    #[test]
    fn advisor_tier_bias_prefers_shallow_trees_on_tiered_fabrics() {
        let m = model_43();
        // Same pipeline base, different depths: the tier bias must spread
        // GB arities apart on a tiered fabric, deep binary paying most.
        let sc = advisor::Scenario::barrier(1024);
        let gb = |dim| advisor::predict(&m, &sc, Placement::Nic, &Descriptor::gb(dim));
        let pipeline = |n| {
            auto(
                &m,
                Placement::Nic,
                n,
                Descriptor::gb(advisor::GB_PIPELINE_DIM),
            )
        };
        let bias_gap = gb(2) - 1.10 * pipeline(1024);
        let depth2 = CostModel::gb_depth(1024, 2) as f64;
        assert!(
            (bias_gap - depth2 * m.cross_extra_us).abs() < 1e-9,
            "binary tree pays one tier over {depth2} levels: {bias_gap}"
        );
        // On one crossbar there is no bias at all.
        let sc16 = advisor::Scenario::barrier(16);
        let gb16 = advisor::predict(&m, &sc16, Placement::Nic, &Descriptor::gb(2));
        assert_eq!(gb16, 1.10 * pipeline(16));
        // An explicitly oversubscribed static-routed fabric predicts
        // strictly worse than the default for the same scenario.
        let over = advisor::Scenario::barrier(64).with_fabric(
            FabricSpec::Clos {
                leaves: 8,
                hosts_per_leaf: 8,
                spines: 2,
            },
            RoutePolicy::StaticBfs,
        );
        let auto = advisor::Scenario::barrier(64);
        let d = Descriptor::pe();
        assert!(
            advisor::predict(&m, &over, Placement::Nic, &d)
                > advisor::predict(&m, &auto, Placement::Nic, &d)
        );
    }

    #[test]
    fn gb_depth_of_heap_trees() {
        assert_eq!(CostModel::gb_depth(1, 8), 0);
        assert_eq!(CostModel::gb_depth(2, 8), 1);
        assert_eq!(CostModel::gb_depth(9, 8), 1);
        assert_eq!(CostModel::gb_depth(10, 8), 2);
        assert_eq!(CostModel::gb_depth(32, 8), 2);
        assert_eq!(CostModel::gb_depth(128, 8), 3);
        assert_eq!(CostModel::gb_depth(1024, 8), 4);
        // Chain when dim = 1.
        assert_eq!(CostModel::gb_depth(5, 1), 4);
    }

    #[test]
    fn nic_beats_host_at_scale_for_all_models() {
        let m = model_43();
        for n in [32usize, 128, 1024] {
            for d in [
                Descriptor::pe(),
                Descriptor::gb(8),
                Descriptor::dissemination(),
            ] {
                assert!(auto(&m, Placement::Nic, n, d) < auto(&m, Placement::Host, n, d));
            }
        }
    }

    fn payload_quad(m: &CostModel, n: usize, p: Payload) -> [f64; 4] {
        [
            m.bcast_us(n, 2, p),
            m.reduce_us(n, 2, p),
            m.allreduce_us(n, 2, p),
            m.scan_us(n, p),
        ]
    }

    #[test]
    fn payload_forms_monotone_in_bytes() {
        let m = model_43();
        for n in [4usize, 16, 64, 256, 1024] {
            let mut prev = [0.0f64; 4];
            for bytes in [0u64, 1, 1024, 4096, 16384, 65536, 1 << 20] {
                let cur = payload_quad(&m, n, Payload::for_size(bytes));
                for (which, (c, p)) in cur.iter().zip(prev.iter()).enumerate() {
                    assert!(
                        c >= p,
                        "form {which} shrank at n={n} bytes={bytes}: {c} < {p}"
                    );
                }
                prev = cur;
            }
        }
    }

    #[test]
    fn one_segment_payloads_ignore_segmentation_granularity() {
        // At or below one segment the pipelined constructor is the same
        // single worm as the eager one, and the model must agree.
        let m = model_43();
        for bytes in [1u64, 512, 4096] {
            let eager = Payload::eager(bytes);
            let piped = Payload::pipelined(bytes, 4096);
            assert_eq!(piped.segments(), Segments::ONE);
            assert_eq!(payload_quad(&m, 64, eager), payload_quad(&m, 64, piped));
        }
    }

    #[test]
    fn zero_payload_matches_for_size_of_zero() {
        // The plain barrier is the zero-byte payload, however spelled.
        let m = model_43();
        assert_eq!(
            payload_quad(&m, 256, Payload::EMPTY),
            payload_quad(&m, 256, Payload::for_size(0))
        );
    }

    #[test]
    fn bcast_link_contention_saturates() {
        // One crossbar (≤16 nodes at dim=2): only the parent egress is
        // shared, factor = dim regardless of segmentation (the n/8 cap).
        assert_eq!(CostModel::bcast_link_factor(2, 2, 1.0), 1.0);
        assert_eq!(CostModel::bcast_link_factor(16, 2, 1.0), 2.0);
        assert_eq!(CostModel::bcast_link_factor(16, 2, 16.0), 2.0);
        // Deeper trees add trunk sharing, and segmentation interleaves
        // streams on the trunks — but never past the stream-count cap.
        let eager = CostModel::bcast_link_factor(256, 2, 1.0);
        let piped = CostModel::bcast_link_factor(256, 2, 16.0);
        assert!(eager > 2.0 && piped > eager);
        assert!(CostModel::bcast_link_factor(256, 2, 4096.0) <= 32.0);
    }

    #[test]
    fn large_payloads_dwarf_the_zero_byte_period() {
        // At 64 KiB the data movement dominates every schedule.
        let m = model_43();
        let small = payload_quad(&m, 256, Payload::EMPTY);
        let large = payload_quad(&m, 256, Payload::for_size(65536));
        for (s, l) in small.iter().zip(large.iter()) {
            assert!(*l > 3.0 * s, "payload should dominate: {l} vs {s}");
        }
    }
}
