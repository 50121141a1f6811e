//! Identifiers and source routes.
//!
//! Myrinet is source-routed: the sender knows the whole path and encodes it
//! as one byte per switch hop. We mirror that: a route is the ordered list
//! of directed links a worm traverses. The standard fabrics compute it from
//! their regular layout at send time; a hand-built graph stores one
//! [`Route`] per NIC pair, found by breadth-first search when it is built
//! (see `topology`).

use std::fmt;

/// Identifies a NIC attached to the fabric. NICs are numbered densely from
/// zero in attachment order; the GM layer maps them 1:1 to cluster nodes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NicId(pub usize);

/// Identifies a switch in the topology.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SwitchId(pub usize);

/// Identifies a *directed* link. A physical cable is two directed links, one
/// per direction, so full-duplex traffic never self-contends.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub usize);

impl fmt::Debug for NicId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "nic{}", self.0)
    }
}
impl fmt::Debug for SwitchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sw{}", self.0)
    }
}
impl fmt::Debug for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "link{}", self.0)
    }
}

/// A vertex of the fabric graph: either an attached NIC or a switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Vertex {
    /// A host NIC (leaf).
    Nic(NicId),
    /// A switch (internal).
    Switch(SwitchId),
}

/// A source route: the directed links from source NIC to destination NIC,
/// in traversal order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    links: Box<[LinkId]>,
}

impl Route {
    /// Build from an ordered link list.
    pub fn new(links: Vec<LinkId>) -> Self {
        Route {
            links: links.into_boxed_slice(),
        }
    }

    /// The links in traversal order.
    pub fn links(&self) -> &[LinkId] {
        &self.links
    }

    /// Number of links traversed (= switch hops + 1 for NIC→switch entry,
    /// or 0 for a self-send, which never touches the wire).
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// True for the degenerate self-route.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Number of switches crossed: every internal vertex between the two
    /// NIC endpoints is a switch, so it is `links - 1` (0 links ⇒ 0).
    pub fn switch_hops(&self) -> usize {
        self.links.len().saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_hop_accounting() {
        let r = Route::new(vec![LinkId(0), LinkId(5)]);
        assert_eq!(r.len(), 2);
        assert_eq!(r.switch_hops(), 1);
        assert!(!r.is_empty());
        assert_eq!(r.links(), &[LinkId(0), LinkId(5)]);
    }

    #[test]
    fn self_route_is_empty() {
        let r = Route::new(vec![]);
        assert!(r.is_empty());
        assert_eq!(r.switch_hops(), 0);
    }

    #[test]
    fn id_debug_formats() {
        assert_eq!(format!("{:?}", NicId(3)), "nic3");
        assert_eq!(format!("{:?}", SwitchId(1)), "sw1");
        assert_eq!(format!("{:?}", LinkId(9)), "link9");
    }
}
