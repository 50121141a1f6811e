//! Schedule construction and the collective compiler.
//!
//! All schedules are computed **on the host**: "the tree construction is a
//! relatively computationally intensive task which can easily be computed
//! at the host. The host at a particular node needs to inform the NIC only
//! of the children and parent of the node" (§5.1) — likewise the PE pairing
//! list. The pure rank-level schedules live in the [`pe`], [`gb`],
//! [`dissemination`] and [`scan`] modules; [`compile`] lowers an algorithm
//! [`Descriptor`] into the endpoint-level [`CollectiveSchedule`] IR that
//! both the NIC firmware extension and the host-based baselines interpret,
//! so the NIC and host runs of an algorithm execute *the same program*, as
//! in the paper's evaluation.

use gmsim_gm::{
    Charge, CollectiveSchedule, CompletionKind, GlobalPort, Payload, ReduceOp, ScheduleStep,
    TokenCharge,
};

pub mod gb {
    //! Gather-and-broadcast trees of fixed dimension (arity) `d` ≥ 1.
    //!
    //! Ranks form a d-ary heap-shaped tree: rank 0 is the root, the
    //! children of rank `i` are `i*d + 1 ..= i*d + d` (those `< n`). "We
    //! would expect that the dimension of the tree would impact the
    //! performance of the barrier" (§5.1); the evaluation sweeps `d` from 1
    //! to N−1 and reports the best.

    /// Parent rank of `rank` in a `dim`-ary tree, `None` at the root.
    pub fn parent(rank: usize, dim: usize) -> Option<usize> {
        assert!(dim >= 1, "tree dimension must be at least 1");
        if rank == 0 {
            None
        } else {
            Some((rank - 1) / dim)
        }
    }

    /// Children of `rank` in a `dim`-ary tree over `n` ranks.
    pub fn children(rank: usize, dim: usize, n: usize) -> Vec<usize> {
        assert!(dim >= 1, "tree dimension must be at least 1");
        let first = rank
            .checked_mul(dim)
            .and_then(|x| x.checked_add(1))
            .unwrap_or(n);
        (first..n.min(first.saturating_add(dim))).collect()
    }

    /// Depth of the deepest rank (root = 0).
    pub fn depth(n: usize, dim: usize) -> usize {
        assert!(n >= 1);
        let mut deepest = 0;
        let mut rank = n - 1;
        while let Some(p) = parent(rank, dim) {
            deepest += 1;
            rank = p;
        }
        deepest
    }
}

pub mod pe {
    //! Pairwise exchange, "a pairwise exchange algorithm (PE) that is used
    //! in MPICH" (§5): recursively pair nodes, then pair groups. Each rank
    //! performs `log2 N` send/receive exchanges, with peer `rank XOR 2^k`
    //! at step `k`.
    //!
    //! For group sizes that are not powers of two we use the standard
    //! MPICH-style fold: with `p` the largest power of two ≤ N and
    //! `r = N − p` extras, rank `p+i` first *folds into* rank `i`
    //! (send-only), the low `p` ranks run the power-of-two exchange, and
    //! rank `i` finally *releases* rank `p+i` (send-only again). The paper
    //! evaluates powers of two only; the fold steps generalize it without
    //! changing the power-of-two schedules.

    /// One step of a PE schedule, as (peer rank, step kind).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Step {
        /// Exchange: send to the peer, then wait for its message.
        Exchange(usize),
        /// Fold/release transmission: send and advance.
        SendTo(usize),
        /// Fold/release reception: wait without sending.
        RecvFrom(usize),
    }

    /// Largest power of two ≤ `n`.
    pub fn pow2_floor(n: usize) -> usize {
        assert!(n >= 1);
        1usize << (usize::BITS - 1 - n.leading_zeros())
    }

    /// The PE schedule for `rank` out of `n` ranks.
    pub fn schedule(rank: usize, n: usize) -> Vec<Step> {
        assert!(n >= 1 && rank < n, "rank {rank} out of range for n={n}");
        let p = pow2_floor(n);
        let r = n - p;
        let mut steps = Vec::new();
        if rank >= p {
            // Extra rank: fold into the low group, then await release.
            steps.push(Step::SendTo(rank - p));
            steps.push(Step::RecvFrom(rank - p));
            return steps;
        }
        if rank < r {
            // Absorb the extra rank before exchanging.
            steps.push(Step::RecvFrom(p + rank));
        }
        let mut dist = 1;
        while dist < p {
            steps.push(Step::Exchange(rank ^ dist));
            dist <<= 1;
        }
        if rank < r {
            // Release the extra rank.
            steps.push(Step::SendTo(p + rank));
        }
        steps
    }
}

pub mod dissemination {
    //! Dissemination barrier (Hensgen/Finkel/Manber), generalized to radix
    //! `r` ≥ 2 — **an extension beyond the paper**, included because it
    //! expresses naturally in the same step machinery: at round `k`, rank
    //! `i` *sends* to `(i + j·r^k) mod n` and *waits for*
    //! `(i − j·r^k) mod n` for each `j ∈ 1..r`, over `ceil(log_r n)`
    //! rounds. Radix 2 is the classic dissemination barrier; higher radixes
    //! trade more messages per round for fewer rounds, which pays off when
    //! per-round latency (hops, NIC turnaround) dominates per-message cost.
    //! Unlike PE it needs no power-of-two fold and the send/receive of a
    //! round involve different peers.

    use super::pe::Step;

    /// The radix-`radix` dissemination schedule for `rank` of `n`, as the
    /// same step kind the PE machinery executes (send-only then
    /// receive-only per (round, offset) pair). Distances `j·radix^k ≥ n`
    /// are skipped: every distance `d < n` has a unique base-`radix`
    /// expansion with a single nonzero digit among the `(k, j)` pairs, so
    /// information from all `n` ranks still reaches every rank.
    ///
    /// At `radix == 2` this emits exactly one `SendTo`/`RecvFrom` pair per
    /// round with distances 1, 2, 4, …, byte-identical to the historical
    /// fixed-radix schedule.
    pub fn schedule(rank: usize, n: usize, radix: usize) -> Vec<Step> {
        assert!(n >= 1 && rank < n, "rank {rank} out of range for n={n}");
        assert!(radix >= 2, "dissemination radix must be at least 2");
        let mut steps = Vec::new();
        let mut stride = 1usize; // radix^k for the current round
        while stride < n {
            for j in 1..radix {
                let dist = match j.checked_mul(stride) {
                    Some(d) if d < n => d,
                    _ => break, // larger j only grows the distance
                };
                steps.push(Step::SendTo((rank + dist) % n));
                steps.push(Step::RecvFrom((rank + n - dist) % n));
            }
            stride = match stride.checked_mul(radix) {
                Some(s) => s,
                None => break, // next stride exceeds usize::MAX ≥ n
            };
        }
        steps
    }

    /// Number of rounds: `ceil(log_radix n)`, computed by integer
    /// arithmetic (no floating-point log).
    pub fn rounds(n: usize, radix: usize) -> usize {
        assert!(n >= 1);
        assert!(radix >= 2, "dissemination radix must be at least 2");
        let mut r = 0;
        let mut span = 1usize;
        while span < n {
            span = span.saturating_mul(radix);
            r += 1;
        }
        r
    }
}

pub mod scan {
    //! Inclusive prefix scan (Hillis–Steele) — **an extension beyond the
    //! paper**, in the spirit of its §8 future work on other collectives.
    //! At round `k`, rank `i` sends its running prefix to `i + 2^k` (if it
    //! exists) and folds in the prefix arriving from `i − 2^k` (if it
    //! exists); after `ceil(log2 n)` rounds rank `i` holds the inclusive
    //! prefix over ranks `0..=i`. Like dissemination it is asymmetric
    //! (different send and receive peers per round) and needs no
    //! power-of-two fold, so it expresses naturally in the same step
    //! machinery.

    use super::pe::Step;

    /// The scan schedule for `rank` of `n`: per round, a send (if the
    /// upstream partner exists) then a combining receive (if the
    /// downstream partner exists).
    pub fn schedule(rank: usize, n: usize) -> Vec<Step> {
        assert!(n >= 1 && rank < n, "rank {rank} out of range for n={n}");
        let mut steps = Vec::new();
        let mut dist = 1;
        while dist < n {
            if rank + dist < n {
                steps.push(Step::SendTo(rank + dist));
            }
            if rank >= dist {
                steps.push(Step::RecvFrom(rank - dist));
            }
            dist <<= 1;
        }
        steps
    }
}

/// A rejected [`Descriptor`] parameterization, reported at construction
/// time by the `try_*` constructors (and re-checkable via
/// [`Descriptor::validate`]) so that no misparameterized collective can
/// reach a mid-compile `assert!`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DescriptorError {
    /// A tree collective was given dimension 0; `dim`-ary trees need
    /// `dim` ≥ 1.
    ZeroDim,
    /// A dissemination barrier was given a radix below 2; at each round
    /// every rank sends to `radix − 1` peers, so radix 0 and 1 make no
    /// progress.
    InvalidRadix {
        /// The rejected radix.
        radix: usize,
    },
}

impl std::fmt::Display for DescriptorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DescriptorError::ZeroDim => write!(f, "tree dimension must be at least 1"),
            DescriptorError::InvalidRadix { radix } => {
                write!(f, "dissemination radix must be at least 2, got {radix}")
            }
        }
    }
}

impl std::error::Error for DescriptorError {}

/// Which collective algorithm a rank participates in. A descriptor plus a
/// rank and a member list is everything [`compile`] needs to produce the
/// rank's [`CollectiveSchedule`].
///
/// Construct descriptors through the named constructors ([`Descriptor::pe`],
/// [`Descriptor::bcast`], ...) and attach message data with
/// [`Descriptor::with_payload`]; the enum and its data-carrying variants are
/// `#[non_exhaustive]`, so bare-field construction does not compile outside
/// this crate and there is exactly one way to issue each collective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Descriptor {
    /// Pairwise-exchange barrier (§5, PE; MPICH-style fold for
    /// non-power-of-two groups).
    Pe,
    /// Gather-and-broadcast barrier over a `dim`-ary tree (§5, GB).
    #[non_exhaustive]
    Gb {
        /// Tree arity.
        dim: usize,
    },
    /// Dissemination barrier of radix `radix` ≥ 2 (extension beyond the
    /// paper; runs on the same firmware path as PE).
    #[non_exhaustive]
    Dissemination {
        /// Send fan-out per round (classic dissemination is radix 2).
        radix: usize,
    },
    /// Binomial-tree broadcast of the root's value (§8 future work).
    #[non_exhaustive]
    Bcast {
        /// Tree arity.
        dim: usize,
        /// Message data each tree edge carries.
        payload: Payload,
    },
    /// Reduction to rank 0 (§8 future work); only the root sees the
    /// global value.
    #[non_exhaustive]
    Reduce {
        /// Combining operator.
        op: ReduceOp,
        /// Tree arity.
        dim: usize,
        /// Message data each contribution carries.
        payload: Payload,
    },
    /// Allreduce: reduce up the tree, broadcast the result back down.
    #[non_exhaustive]
    Allreduce {
        /// Combining operator.
        op: ReduceOp,
        /// Tree arity.
        dim: usize,
        /// Message data each contribution (and the hand-down) carries.
        payload: Payload,
    },
    /// Inclusive prefix scan (Hillis–Steele; extension beyond the paper).
    #[non_exhaustive]
    Scan {
        /// Combining operator.
        op: ReduceOp,
        /// Message data each running prefix carries.
        payload: Payload,
    },
}

impl Descriptor {
    /// Pairwise-exchange barrier.
    pub fn pe() -> Self {
        Descriptor::Pe
    }

    /// Gather-and-broadcast barrier over a `dim`-ary tree.
    ///
    /// # Panics
    /// If `dim == 0`; use [`Descriptor::try_gb`] to handle that as a value.
    pub fn gb(dim: usize) -> Self {
        Self::try_gb(dim).unwrap()
    }

    /// Gather-and-broadcast barrier over a `dim`-ary tree, rejecting
    /// `dim == 0` at construction.
    pub fn try_gb(dim: usize) -> Result<Self, DescriptorError> {
        if dim == 0 {
            return Err(DescriptorError::ZeroDim);
        }
        Ok(Descriptor::Gb { dim })
    }

    /// Classic radix-2 dissemination barrier.
    pub fn dissemination() -> Self {
        Descriptor::Dissemination { radix: 2 }
    }

    /// Radix-`radix` dissemination barrier.
    ///
    /// # Panics
    /// If `radix < 2`; use [`Descriptor::try_dissemination`] to handle
    /// that as a value.
    pub fn dissemination_radix(radix: usize) -> Self {
        Self::try_dissemination(radix).unwrap()
    }

    /// Radix-`radix` dissemination barrier, rejecting `radix < 2` at
    /// construction.
    pub fn try_dissemination(radix: usize) -> Result<Self, DescriptorError> {
        if radix < 2 {
            return Err(DescriptorError::InvalidRadix { radix });
        }
        Ok(Descriptor::Dissemination { radix })
    }

    /// Tree broadcast (zero payload until [`Descriptor::with_payload`]).
    ///
    /// # Panics
    /// If `dim == 0`; use [`Descriptor::try_bcast`] to handle that as a
    /// value.
    pub fn bcast(dim: usize) -> Self {
        Self::try_bcast(dim).unwrap()
    }

    /// Tree broadcast, rejecting `dim == 0` at construction.
    pub fn try_bcast(dim: usize) -> Result<Self, DescriptorError> {
        if dim == 0 {
            return Err(DescriptorError::ZeroDim);
        }
        Ok(Descriptor::Bcast {
            dim,
            payload: Payload::EMPTY,
        })
    }

    /// Tree reduction to rank 0.
    ///
    /// # Panics
    /// If `dim == 0`; use [`Descriptor::try_reduce`] to handle that as a
    /// value.
    pub fn reduce(op: ReduceOp, dim: usize) -> Self {
        Self::try_reduce(op, dim).unwrap()
    }

    /// Tree reduction to rank 0, rejecting `dim == 0` at construction.
    pub fn try_reduce(op: ReduceOp, dim: usize) -> Result<Self, DescriptorError> {
        if dim == 0 {
            return Err(DescriptorError::ZeroDim);
        }
        Ok(Descriptor::Reduce {
            op,
            dim,
            payload: Payload::EMPTY,
        })
    }

    /// Allreduce over a `dim`-ary tree.
    ///
    /// # Panics
    /// If `dim == 0`; use [`Descriptor::try_allreduce`] to handle that as
    /// a value.
    pub fn allreduce(op: ReduceOp, dim: usize) -> Self {
        Self::try_allreduce(op, dim).unwrap()
    }

    /// Allreduce over a `dim`-ary tree, rejecting `dim == 0` at
    /// construction.
    pub fn try_allreduce(op: ReduceOp, dim: usize) -> Result<Self, DescriptorError> {
        if dim == 0 {
            return Err(DescriptorError::ZeroDim);
        }
        Ok(Descriptor::Allreduce {
            op,
            dim,
            payload: Payload::EMPTY,
        })
    }

    /// Inclusive prefix scan.
    pub fn scan(op: ReduceOp) -> Self {
        Descriptor::Scan {
            op,
            payload: Payload::EMPTY,
        }
    }

    /// Re-check this descriptor's parameterization. Descriptors built
    /// through the named constructors are always valid (the enum is
    /// `#[non_exhaustive]`, so those constructors are the only way to get
    /// one outside this crate); experiment and configuration layers call
    /// this to surface their own typed errors instead of trusting the
    /// caller.
    pub fn validate(&self) -> Result<(), DescriptorError> {
        match *self {
            Descriptor::Pe | Descriptor::Scan { .. } => Ok(()),
            Descriptor::Dissemination { radix } => {
                if radix < 2 {
                    Err(DescriptorError::InvalidRadix { radix })
                } else {
                    Ok(())
                }
            }
            Descriptor::Gb { dim }
            | Descriptor::Bcast { dim, .. }
            | Descriptor::Reduce { dim, .. }
            | Descriptor::Allreduce { dim, .. } => {
                if dim == 0 {
                    Err(DescriptorError::ZeroDim)
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Attach message data (builder style).
    ///
    /// # Panics
    /// On the barrier descriptors (`Pe`, `Gb`, `Dissemination`), which by
    /// definition carry no data.
    #[must_use]
    pub fn with_payload(mut self, p: Payload) -> Self {
        match &mut self {
            Descriptor::Bcast { payload, .. }
            | Descriptor::Reduce { payload, .. }
            | Descriptor::Allreduce { payload, .. }
            | Descriptor::Scan { payload, .. } => *payload = p,
            Descriptor::Pe | Descriptor::Gb { .. } | Descriptor::Dissemination { .. } => {
                panic!("barriers carry no payload")
            }
        }
        self
    }

    /// The message data this collective carries ([`Payload::EMPTY`] for
    /// barriers).
    pub fn payload(&self) -> Payload {
        match self {
            Descriptor::Bcast { payload, .. }
            | Descriptor::Reduce { payload, .. }
            | Descriptor::Allreduce { payload, .. }
            | Descriptor::Scan { payload, .. } => *payload,
            Descriptor::Pe | Descriptor::Gb { .. } | Descriptor::Dissemination { .. } => {
                Payload::EMPTY
            }
        }
    }
}

/// Wire packet kinds for the compiled programs (§5.2: "There is a separate
/// packet type for each phase"). `REJECT` is reserved by the firmware's
/// §3.2 rejection protocol and never appears in a compiled schedule.
pub mod pkt {
    /// Pairwise-exchange-style message (PE, dissemination).
    pub const PE: u8 = 1;
    /// Tree gather-phase message (child → parent, may carry a value).
    pub const GATHER: u8 = 2;
    /// Tree broadcast-phase message (parent → child).
    pub const BCAST: u8 = 3;
    /// §3.2 rejection of a message that arrived for a closed port.
    pub const REJECT: u8 = 4;
    /// Prefix-scan message (carries a running prefix).
    pub const SCAN: u8 = 5;
}

/// Map a list of rank-level steps onto endpoint-level IR steps for an
/// exchange-style program (PE / dissemination / scan).
fn lower_steps(
    members: &[GlobalPort],
    steps: Vec<pe::Step>,
    kind: u8,
    combine: Option<ReduceOp>,
) -> Vec<ScheduleStep> {
    let mut out = Vec::new();
    for s in steps {
        match s {
            pe::Step::Exchange(p) => {
                out.push(ScheduleStep::SendTo {
                    peers: vec![members[p]],
                    kind,
                    charge: Charge::ExchangeSend,
                });
                out.push(ScheduleStep::RecvFrom {
                    peers: vec![members[p]],
                    kind,
                    combine,
                    charge: Charge::ExchangeMatch,
                });
            }
            pe::Step::SendTo(p) => out.push(ScheduleStep::SendTo {
                peers: vec![members[p]],
                kind,
                charge: Charge::ExchangeSend,
            }),
            pe::Step::RecvFrom(p) => out.push(ScheduleStep::RecvFrom {
                peers: vec![members[p]],
                kind,
                combine,
                charge: Charge::ExchangeMatch,
            }),
        }
    }
    out
}

/// Compile `desc` for `rank` of `members` into the IR program both
/// interpreters execute. Steps with no peers are omitted, so leaves carry
/// no empty receives and the root no empty upward send.
pub fn compile(desc: Descriptor, rank: usize, members: &[GlobalPort]) -> CollectiveSchedule {
    let n = members.len();
    assert!(rank < n, "rank {rank} out of range for n={n}");
    let tree = |dim: usize| -> (Option<GlobalPort>, Vec<GlobalPort>) {
        (
            gb::parent(rank, dim).map(|p| members[p]),
            gb::children(rank, dim, n)
                .into_iter()
                .map(|c| members[c])
                .collect(),
        )
    };
    let mut steps = Vec::new();
    let token_charge = match desc {
        Descriptor::Pe => {
            steps = lower_steps(members, pe::schedule(rank, n), pkt::PE, None);
            steps.push(ScheduleStep::DeliverCompletion(CompletionKind::Barrier));
            TokenCharge::Light
        }
        Descriptor::Dissemination { radix } => {
            steps = lower_steps(
                members,
                dissemination::schedule(rank, n, radix),
                pkt::PE,
                None,
            );
            steps.push(ScheduleStep::DeliverCompletion(CompletionKind::Barrier));
            TokenCharge::Light
        }
        Descriptor::Scan { op, .. } => {
            steps = lower_steps(members, scan::schedule(rank, n), pkt::SCAN, Some(op));
            steps.push(ScheduleStep::DeliverCompletion(CompletionKind::Scan));
            TokenCharge::Light
        }
        Descriptor::Gb { dim } | Descriptor::Allreduce { dim, .. } => {
            let (combine, completion) = match desc {
                Descriptor::Allreduce { op, .. } => (Some(op), CompletionKind::Reduce),
                _ => (None, CompletionKind::Barrier),
            };
            let (parent, children) = tree(dim);
            if !children.is_empty() {
                steps.push(ScheduleStep::RecvFrom {
                    peers: children.clone(),
                    kind: pkt::GATHER,
                    combine,
                    charge: Charge::Gather,
                });
            }
            if let Some(parent) = parent {
                // The gather-up send piggybacks on the state update that
                // absorbed the last child, hence no separate charge.
                steps.push(ScheduleStep::SendTo {
                    peers: vec![parent],
                    kind: pkt::GATHER,
                    charge: Charge::Free,
                });
                steps.push(ScheduleStep::RecvFrom {
                    peers: vec![parent],
                    kind: pkt::BCAST,
                    combine: None,
                    charge: Charge::Gather,
                });
            }
            // §5.2 order: completion is DMAed to the host *before* the
            // broadcast is forwarded, at the root and interior nodes alike.
            steps.push(ScheduleStep::DeliverCompletion(completion));
            if !children.is_empty() {
                steps.push(ScheduleStep::SendTo {
                    peers: children,
                    kind: pkt::BCAST,
                    charge: Charge::ChildSend,
                });
            }
            TokenCharge::Tree
        }
        Descriptor::Reduce { op, dim, .. } => {
            let (parent, children) = tree(dim);
            if !children.is_empty() {
                steps.push(ScheduleStep::RecvFrom {
                    peers: children,
                    kind: pkt::GATHER,
                    combine: Some(op),
                    charge: Charge::Gather,
                });
            }
            if let Some(parent) = parent {
                steps.push(ScheduleStep::SendTo {
                    peers: vec![parent],
                    kind: pkt::GATHER,
                    charge: Charge::Free,
                });
            }
            // No broadcast phase: the global value exists only at the root;
            // a non-root's completion carries its subtree value.
            steps.push(ScheduleStep::DeliverCompletion(CompletionKind::Reduce));
            TokenCharge::Tree
        }
        Descriptor::Bcast { dim, .. } => {
            let (parent, children) = tree(dim);
            if let Some(parent) = parent {
                steps.push(ScheduleStep::RecvFrom {
                    peers: vec![parent],
                    kind: pkt::BCAST,
                    combine: None,
                    charge: Charge::Gather,
                });
            }
            steps.push(ScheduleStep::DeliverCompletion(CompletionKind::Broadcast));
            if !children.is_empty() {
                steps.push(ScheduleStep::SendTo {
                    peers: children,
                    kind: pkt::BCAST,
                    charge: Charge::ChildSend,
                });
            }
            TokenCharge::Tree
        }
    };
    // Every rank keeps its schedule for the collective's whole life; drop
    // the spare step slots the pushes above left behind.
    steps.shrink_to_fit();
    CollectiveSchedule::new(steps, token_charge).with_payload(desc.payload())
}

#[cfg(test)]
mod tests {
    use super::dissemination;
    use super::gb;
    use super::pe::{self, Step};
    use super::{compile, pkt, scan, Descriptor, DescriptorError};
    use gmsim_gm::{Charge, CompletionKind, GlobalPort, ReduceOp, ScheduleStep, TokenCharge};

    #[test]
    fn pow2_floor_values() {
        assert_eq!(pe::pow2_floor(1), 1);
        assert_eq!(pe::pow2_floor(2), 2);
        assert_eq!(pe::pow2_floor(3), 2);
        assert_eq!(pe::pow2_floor(16), 16);
        assert_eq!(pe::pow2_floor(17), 16);
    }

    #[test]
    fn pe_power_of_two_is_pure_exchange() {
        for n in [2usize, 4, 8, 16] {
            for rank in 0..n {
                let steps = pe::schedule(rank, n);
                assert_eq!(steps.len(), n.trailing_zeros() as usize);
                for (k, s) in steps.iter().enumerate() {
                    assert_eq!(*s, Step::Exchange(rank ^ (1 << k)));
                }
            }
        }
    }

    #[test]
    fn pe_exchange_relation_is_symmetric() {
        for n in [2usize, 4, 8, 16, 32] {
            for rank in 0..n {
                for (k, s) in pe::schedule(rank, n).iter().enumerate() {
                    if let Step::Exchange(peer) = s {
                        assert_eq!(pe::schedule(*peer, n)[k], Step::Exchange(rank));
                    }
                }
            }
        }
    }

    #[test]
    fn pe_non_power_of_two_folds() {
        // n=3: p=2, r=1
        assert_eq!(pe::schedule(2, 3), vec![Step::SendTo(0), Step::RecvFrom(0)]);
        assert_eq!(
            pe::schedule(0, 3),
            vec![Step::RecvFrom(2), Step::Exchange(1), Step::SendTo(2)]
        );
        assert_eq!(pe::schedule(1, 3), vec![Step::Exchange(0)]);
    }

    #[test]
    fn pe_sends_match_recvs_globally() {
        // Every send in some rank's schedule must have exactly one matching
        // receive in the peer's schedule, and vice versa.
        for n in 2..=17usize {
            let mut sends = Vec::new();
            let mut recvs = Vec::new();
            for rank in 0..n {
                for s in pe::schedule(rank, n) {
                    match s {
                        Step::Exchange(p) => {
                            sends.push((rank, p));
                            recvs.push((p, rank));
                        }
                        Step::SendTo(p) => sends.push((rank, p)),
                        Step::RecvFrom(p) => recvs.push((p, rank)),
                    }
                }
            }
            sends.sort_unstable();
            recvs.sort_unstable();
            assert_eq!(sends, recvs, "n={n}");
        }
    }

    #[test]
    fn pe_single_rank_is_empty() {
        assert!(pe::schedule(0, 1).is_empty());
    }

    #[test]
    fn gb_parent_child_inverse() {
        for n in [1usize, 2, 5, 16, 33] {
            for dim in 1..=4usize {
                for rank in 0..n {
                    for c in gb::children(rank, dim, n) {
                        assert_eq!(gb::parent(c, dim), Some(rank));
                    }
                    if let Some(p) = gb::parent(rank, dim) {
                        assert!(gb::children(p, dim, n).contains(&rank));
                    }
                }
            }
        }
    }

    #[test]
    fn gb_is_spanning_tree() {
        for n in [2usize, 7, 16] {
            for dim in 1..n {
                // every rank reaches the root
                for rank in 0..n {
                    let mut r = rank;
                    let mut hops = 0;
                    while let Some(p) = gb::parent(r, dim) {
                        r = p;
                        hops += 1;
                        assert!(hops <= n, "cycle detected");
                    }
                    assert_eq!(r, 0);
                }
                // child counts sum to n-1
                let total: usize = (0..n).map(|r| gb::children(r, dim, n).len()).sum();
                assert_eq!(total, n - 1);
            }
        }
    }

    #[test]
    fn gb_dimension_one_is_a_chain() {
        let n = 5;
        for rank in 0..n {
            let kids = gb::children(rank, 1, n);
            if rank + 1 < n {
                assert_eq!(kids, vec![rank + 1]);
            } else {
                assert!(kids.is_empty());
            }
        }
        assert_eq!(gb::depth(n, 1), n - 1);
    }

    #[test]
    fn gb_wide_tree_is_flat() {
        let n = 8;
        assert_eq!(gb::children(0, n - 1, n), (1..n).collect::<Vec<_>>());
        assert_eq!(gb::depth(n, n - 1), 1);
    }

    #[test]
    fn gb_depth_binary() {
        assert_eq!(gb::depth(1, 2), 0);
        assert_eq!(gb::depth(2, 2), 1);
        assert_eq!(gb::depth(7, 2), 2);
        assert_eq!(gb::depth(8, 2), 3);
    }

    #[test]
    fn gb_children_no_overflow_at_huge_rank() {
        assert!(gb::children(usize::MAX / 2, 3, 10).is_empty());
    }

    #[test]
    fn dissemination_rounds_count() {
        assert_eq!(dissemination::rounds(1, 2), 0);
        assert_eq!(dissemination::rounds(2, 2), 1);
        assert_eq!(dissemination::rounds(5, 2), 3);
        assert_eq!(dissemination::rounds(8, 2), 3);
        assert_eq!(dissemination::rounds(9, 2), 4);
        // k-ary: ceil(log_3 9) = 2, ceil(log_3 10) = 3, ceil(log_4 64) = 3
        assert_eq!(dissemination::rounds(9, 3), 2);
        assert_eq!(dissemination::rounds(10, 3), 3);
        assert_eq!(dissemination::rounds(64, 4), 3);
        assert_eq!(dissemination::rounds(1, 7), 0);
    }

    #[test]
    fn dissemination_sends_match_recvs() {
        for radix in 2..=5usize {
            for n in 1..=20usize {
                let mut sends = Vec::new();
                let mut recvs = Vec::new();
                for rank in 0..n {
                    for s in dissemination::schedule(rank, n, radix) {
                        match s {
                            Step::SendTo(p) => sends.push((rank, p)),
                            Step::RecvFrom(p) => recvs.push((p, rank)),
                            Step::Exchange(_) => panic!("dissemination has no exchanges"),
                        }
                    }
                }
                sends.sort_unstable();
                recvs.sort_unstable();
                assert_eq!(sends, recvs, "n={n} radix={radix}");
            }
        }
    }

    #[test]
    fn dissemination_peers_distinct_per_rank() {
        // Within one barrier, a rank never receives twice from the same
        // endpoint (the record would have to queue otherwise). Holds for
        // every radix: each distance j·radix^k < n has a single nonzero
        // base-radix digit, so all distances — hence all peers — differ.
        for radix in 2..=5usize {
            for n in 2..=33usize {
                for rank in 0..n {
                    let mut recv_peers: Vec<usize> = dissemination::schedule(rank, n, radix)
                        .into_iter()
                        .filter_map(|s| match s {
                            Step::RecvFrom(p) => Some(p),
                            _ => None,
                        })
                        .collect();
                    let before = recv_peers.len();
                    recv_peers.sort_unstable();
                    recv_peers.dedup();
                    assert_eq!(recv_peers.len(), before, "n={n} rank={rank} radix={radix}");
                }
            }
        }
    }

    #[test]
    fn dissemination_schedule_alternates_send_recv() {
        let steps = dissemination::schedule(0, 8, 2);
        assert_eq!(steps.len(), 6);
        for (i, s) in steps.iter().enumerate() {
            if i % 2 == 0 {
                assert!(matches!(s, Step::SendTo(_)));
            } else {
                assert!(matches!(s, Step::RecvFrom(_)));
            }
        }
        // round peers: send +1,+2,+4; recv -1,-2,-4
        assert_eq!(steps[0], Step::SendTo(1));
        assert_eq!(steps[1], Step::RecvFrom(7));
        assert_eq!(steps[4], Step::SendTo(4));
        assert_eq!(steps[5], Step::RecvFrom(4));
    }

    /// Reference replica of the pre-generalization fixed-radix loop, kept
    /// verbatim so the radix-2 path of the k-ary generator is pinned
    /// byte-identical to the historical schedules.
    fn legacy_radix2_schedule(rank: usize, n: usize) -> Vec<Step> {
        let mut steps = Vec::new();
        let mut dist = 1;
        while dist < n {
            steps.push(Step::SendTo((rank + dist) % n));
            steps.push(Step::RecvFrom((rank + n - dist) % n));
            dist <<= 1;
        }
        steps
    }

    #[test]
    fn dissemination_radix2_is_byte_identical_to_legacy() {
        for n in 1..=33usize {
            for rank in 0..n {
                assert_eq!(
                    dissemination::schedule(rank, n, 2),
                    legacy_radix2_schedule(rank, n),
                    "n={n} rank={rank}"
                );
            }
        }
    }

    #[test]
    fn dissemination_kary_distances_cover_every_rank() {
        // The union of received distances must let information from all
        // n−1 other ranks reach each rank: the distances per rank are
        // exactly the single-digit base-radix values below n, whose
        // partial sums (greedy base-radix decomposition) reach every
        // 1..n offset transitively. Spot-check the direct guarantee:
        // distance multiset = all j·radix^k < n, each exactly once.
        for radix in 2..=4usize {
            for n in 2..=40usize {
                let mut dists: Vec<usize> = dissemination::schedule(0, n, radix)
                    .into_iter()
                    .filter_map(|s| match s {
                        Step::SendTo(p) => Some(p),
                        _ => None,
                    })
                    .collect();
                dists.sort_unstable();
                let mut expect = Vec::new();
                let mut stride = 1usize;
                while stride < n {
                    for j in 1..radix {
                        if j * stride < n {
                            expect.push(j * stride);
                        }
                    }
                    stride *= radix;
                }
                expect.sort_unstable();
                assert_eq!(dists, expect, "n={n} radix={radix}");
            }
        }
    }

    #[test]
    fn dissemination_single_rank_is_empty() {
        for radix in 2..=5usize {
            assert!(dissemination::schedule(0, 1, radix).is_empty());
        }
    }

    #[test]
    fn scan_sends_match_recvs() {
        for n in 1..=20usize {
            let mut sends = Vec::new();
            let mut recvs = Vec::new();
            for rank in 0..n {
                for s in scan::schedule(rank, n) {
                    match s {
                        Step::SendTo(p) => sends.push((rank, p)),
                        Step::RecvFrom(p) => recvs.push((p, rank)),
                        Step::Exchange(_) => panic!("scan has no exchanges"),
                    }
                }
            }
            sends.sort_unstable();
            recvs.sort_unstable();
            assert_eq!(sends, recvs, "n={n}");
        }
    }

    #[test]
    fn scan_recv_peers_distinct_per_rank() {
        // Within one scan a rank receives from 2^k-shifted peers, all
        // distinct — required by the FIFO unexpected record.
        for n in 2..=33usize {
            for rank in 0..n {
                let mut peers: Vec<usize> = scan::schedule(rank, n)
                    .into_iter()
                    .filter_map(|s| match s {
                        Step::RecvFrom(p) => Some(p),
                        _ => None,
                    })
                    .collect();
                let before = peers.len();
                peers.sort_unstable();
                peers.dedup();
                assert_eq!(peers.len(), before, "n={n} rank={rank}");
            }
        }
    }

    #[test]
    fn scan_simulated_computes_prefix_sums() {
        // Execute the schedules in lock-step rounds against a value array.
        for n in 1..=17usize {
            let mut vals: Vec<u64> = (0..n as u64).map(|i| i * i + 1).collect();
            let expect: Vec<u64> = (0..n).map(|i| vals[..=i].iter().sum::<u64>()).collect();
            let mut dist = 1;
            while dist < n {
                let snapshot = vals.clone();
                for (i, v) in vals.iter_mut().enumerate() {
                    if i >= dist {
                        *v += snapshot[i - dist];
                    }
                }
                dist <<= 1;
            }
            assert_eq!(vals, expect, "n={n}");
        }
    }

    fn gp(ranks: usize) -> Vec<GlobalPort> {
        (0..ranks).map(|i| GlobalPort::new(i, 1)).collect()
    }

    #[test]
    fn compile_pe_is_exchange_pairs_plus_completion() {
        let m = gp(8);
        let prog = compile(Descriptor::Pe, 3, &m);
        assert_eq!(prog.token_charge, TokenCharge::Light);
        assert_eq!(prog.steps.len(), 7, "3 exchanges = 6 steps + completion");
        for ex in 0..3 {
            let peer = m[3 ^ (1 << ex)];
            assert_eq!(
                prog.steps[2 * ex],
                ScheduleStep::SendTo {
                    peers: vec![peer],
                    kind: pkt::PE,
                    charge: Charge::ExchangeSend,
                }
            );
            assert_eq!(
                prog.steps[2 * ex + 1],
                ScheduleStep::RecvFrom {
                    peers: vec![peer],
                    kind: pkt::PE,
                    combine: None,
                    charge: Charge::ExchangeMatch,
                }
            );
        }
        assert_eq!(
            prog.steps[6],
            ScheduleStep::DeliverCompletion(CompletionKind::Barrier)
        );
    }

    #[test]
    fn compile_gb_interior_orders_completion_before_forward() {
        let m = gp(7);
        let prog = compile(Descriptor::Gb { dim: 2 }, 1, &m);
        assert_eq!(prog.token_charge, TokenCharge::Tree);
        let shape: Vec<&ScheduleStep> = prog.steps.iter().collect();
        match shape.as_slice() {
            [ScheduleStep::RecvFrom {
                peers: kids,
                kind: pkt::GATHER,
                combine: None,
                charge: Charge::Gather,
            }, ScheduleStep::SendTo {
                peers: up,
                kind: pkt::GATHER,
                charge: Charge::Free,
            }, ScheduleStep::RecvFrom {
                peers: down,
                kind: pkt::BCAST,
                ..
            }, ScheduleStep::DeliverCompletion(CompletionKind::Barrier), ScheduleStep::SendTo {
                kind: pkt::BCAST,
                charge: Charge::ChildSend,
                ..
            }] => {
                assert_eq!(kids, &vec![m[3], m[4]]);
                assert_eq!(up, &vec![m[0]]);
                assert_eq!(down, &vec![m[0]]);
            }
            other => panic!("unexpected interior GB shape: {other:?}"),
        }
    }

    #[test]
    fn compile_gb_root_and_leaf_omit_empty_steps() {
        let m = gp(7);
        let root = compile(Descriptor::Gb { dim: 2 }, 0, &m);
        assert!(matches!(
            root.steps.as_slice(),
            [
                ScheduleStep::RecvFrom { .. },
                ScheduleStep::DeliverCompletion(CompletionKind::Barrier),
                ScheduleStep::SendTo { .. },
            ]
        ));
        let leaf = compile(Descriptor::Gb { dim: 2 }, 6, &m);
        assert!(matches!(
            leaf.steps.as_slice(),
            [
                ScheduleStep::SendTo { .. },
                ScheduleStep::RecvFrom { .. },
                ScheduleStep::DeliverCompletion(CompletionKind::Barrier),
            ]
        ));
    }

    #[test]
    fn compile_reduce_has_no_broadcast_phase() {
        let m = gp(5);
        for rank in 0..5 {
            let prog = compile(Descriptor::reduce(ReduceOp::Sum, 2), rank, &m);
            assert!(
                prog.steps.iter().all(|s| !matches!(
                    s,
                    ScheduleStep::RecvFrom {
                        kind: pkt::BCAST,
                        ..
                    }
                )),
                "rank {rank} waits for a broadcast"
            );
            assert_eq!(
                prog.steps.last(),
                Some(&ScheduleStep::DeliverCompletion(CompletionKind::Reduce)),
                "rank {rank}"
            );
        }
    }

    #[test]
    fn compile_allreduce_combines_on_gather_only() {
        let m = gp(4);
        let prog = compile(Descriptor::allreduce(ReduceOp::Max, 2), 1, &m);
        for s in &prog.steps {
            if let ScheduleStep::RecvFrom { kind, combine, .. } = s {
                match *kind {
                    pkt::GATHER => assert_eq!(*combine, Some(ReduceOp::Max)),
                    pkt::BCAST => assert_eq!(*combine, None, "hand-down overwrites"),
                    k => panic!("unexpected kind {k}"),
                }
            }
        }
    }

    #[test]
    fn compile_scan_rank0_has_no_receives() {
        let m = gp(8);
        let prog = compile(Descriptor::scan(ReduceOp::Sum), 0, &m);
        assert!(prog
            .steps
            .iter()
            .all(|s| !matches!(s, ScheduleStep::RecvFrom { .. })));
        assert_eq!(
            prog.steps.last(),
            Some(&ScheduleStep::DeliverCompletion(CompletionKind::Scan))
        );
    }

    #[test]
    fn compile_non_power_of_two_pe_folds() {
        let m = gp(3);
        // Rank 2 folds into rank 0 and awaits release: send, recv, done.
        let prog = compile(Descriptor::Pe, 2, &m);
        assert!(matches!(
            prog.steps.as_slice(),
            [
                ScheduleStep::SendTo { .. },
                ScheduleStep::RecvFrom { .. },
                ScheduleStep::DeliverCompletion(CompletionKind::Barrier),
            ]
        ));
        // Rank 0 absorbs, exchanges with rank 1, releases.
        let prog = compile(Descriptor::Pe, 0, &m);
        let peers: Vec<&GlobalPort> = prog
            .steps
            .iter()
            .filter_map(|s| match s {
                ScheduleStep::SendTo { peers, .. } | ScheduleStep::RecvFrom { peers, .. } => {
                    Some(&peers[0])
                }
                _ => None,
            })
            .collect();
        assert_eq!(peers, vec![&m[2], &m[1], &m[1], &m[2]]);
    }

    #[test]
    fn compile_kary_dissemination_runs_on_pe_path() {
        let m = gp(9);
        let prog = compile(Descriptor::dissemination_radix(3), 0, &m);
        assert_eq!(prog.token_charge, TokenCharge::Light);
        // ceil(log_3 9) = 2 rounds × 2 offsets × (send + recv) + completion
        assert_eq!(prog.steps.len(), 9);
        match &prog.steps[0] {
            ScheduleStep::SendTo { peers, kind, .. } => {
                assert_eq!(peers, &vec![m[1]]);
                assert_eq!(*kind, pkt::PE);
            }
            other => panic!("unexpected first step {other:?}"),
        }
        assert_eq!(
            prog.steps.last(),
            Some(&ScheduleStep::DeliverCompletion(CompletionKind::Barrier))
        );
    }

    // ---- construction-boundary validation (regression: gb(0) used to
    // panic deep inside gb::parent mid-compile) ----

    #[test]
    fn try_constructors_reject_bad_parameters_as_values() {
        assert_eq!(Descriptor::try_gb(0), Err(DescriptorError::ZeroDim));
        assert_eq!(Descriptor::try_bcast(0), Err(DescriptorError::ZeroDim));
        assert_eq!(
            Descriptor::try_reduce(ReduceOp::Sum, 0),
            Err(DescriptorError::ZeroDim)
        );
        assert_eq!(
            Descriptor::try_allreduce(ReduceOp::Max, 0),
            Err(DescriptorError::ZeroDim)
        );
        assert_eq!(
            Descriptor::try_dissemination(0),
            Err(DescriptorError::InvalidRadix { radix: 0 })
        );
        assert_eq!(
            Descriptor::try_dissemination(1),
            Err(DescriptorError::InvalidRadix { radix: 1 })
        );
    }

    #[test]
    fn try_constructors_accept_minimal_valid_parameters() {
        // dim=1 (chain tree) and radix=2 are the smallest valid settings.
        assert!(Descriptor::try_gb(1).is_ok());
        assert!(Descriptor::try_bcast(1).is_ok());
        assert!(Descriptor::try_reduce(ReduceOp::Sum, 1).is_ok());
        assert!(Descriptor::try_allreduce(ReduceOp::Min, 1).is_ok());
        assert!(Descriptor::try_dissemination(2).is_ok());
        for d in [
            Descriptor::gb(1),
            Descriptor::dissemination(),
            Descriptor::dissemination_radix(4),
            Descriptor::pe(),
            Descriptor::scan(ReduceOp::Sum),
        ] {
            assert_eq!(d.validate(), Ok(()));
        }
    }

    #[test]
    #[should_panic(expected = "ZeroDim")]
    fn gb_zero_dim_panics_at_construction_not_in_compile() {
        let _ = Descriptor::gb(0);
    }

    #[test]
    #[should_panic(expected = "InvalidRadix")]
    fn dissemination_radix_one_panics_at_construction() {
        let _ = Descriptor::dissemination_radix(1);
    }

    #[test]
    fn degenerate_single_rank_groups_compile_to_bare_completion() {
        let m = gp(1);
        for d in [
            Descriptor::pe(),
            Descriptor::gb(1),
            Descriptor::gb(3),
            Descriptor::dissemination(),
            Descriptor::dissemination_radix(4),
        ] {
            let prog = compile(d, 0, &m);
            assert_eq!(
                prog.steps,
                vec![ScheduleStep::DeliverCompletion(CompletionKind::Barrier)],
                "{d:?}"
            );
        }
    }
}
