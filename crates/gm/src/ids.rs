//! Node, port and endpoint identifiers.

use gmsim_myrinet::NicId;
use std::fmt;

/// Number of ports per NIC in GM 1.2.3 ("each NIC can support a maximum of
/// eight ports, some of which are reserved").
pub const GM_NUM_PORTS: u8 = 8;

/// Port 0 is reserved for the driver/mapper, as in real GM; user processes
/// open ports `1..GM_NUM_PORTS`.
pub const GM_FIRST_USER_PORT: u8 = 1;

/// A cluster node. Each node has one host processor complex and one NIC;
/// `NodeId(i)` is attached to fabric `NicId(i)`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

/// A port index on some NIC, `0..GM_NUM_PORTS`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortId(pub u8);

/// A communication endpoint: a (node, port) pair. Barrier participants are
/// endpoints, not nodes — two processes on one node can both take part.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GlobalPort {
    /// The node whose NIC hosts the port.
    pub node: NodeId,
    /// The port index on that NIC.
    pub port: PortId,
}

/// A communicator identity: every collective belongs to a team, and the
/// NIC keeps barrier state per `(port, team)` so overlapping teams that
/// share a NIC progress independently. The id travels in the high half of
/// the extension packet's `a` word, so two teams' flags can never be
/// confused on the wire. [`TeamId::GLOBAL`] (id 0) is the implicit
/// whole-cluster communicator every pre-team API uses; its wire encoding
/// is all-zero high bits, which keeps the single-team path bit-exact.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TeamId(pub u32);

impl TeamId {
    /// The default whole-cluster communicator (id 0).
    pub const GLOBAL: TeamId = TeamId(0);

    /// The largest id the 16-bit team field of note and message tags
    /// carries; larger ids would alias.
    pub const MAX: TeamId = TeamId(u16::MAX as u32);
}

impl NodeId {
    /// The fabric NIC this node's messages travel through.
    pub fn nic(self) -> NicId {
        NicId(self.0)
    }
}

impl PortId {
    /// True for indices a user process may open.
    pub fn is_user(self) -> bool {
        (GM_FIRST_USER_PORT..GM_NUM_PORTS).contains(&self.0)
    }

    /// Index as usize, for table lookups.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl GlobalPort {
    /// Construct from raw indices.
    pub fn new(node: usize, port: u8) -> Self {
        GlobalPort {
            node: NodeId(node),
            port: PortId(port),
        }
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}
impl fmt::Debug for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}
impl fmt::Debug for GlobalPort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}p{}", self.node.0, self.port.0)
    }
}
impl fmt::Debug for TeamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_maps_to_nic() {
        assert_eq!(NodeId(3).nic(), NicId(3));
    }

    #[test]
    fn user_port_range() {
        assert!(!PortId(0).is_user());
        assert!(PortId(1).is_user());
        assert!(PortId(7).is_user());
        assert!(!PortId(8).is_user());
    }

    #[test]
    fn global_port_construction() {
        let gp = GlobalPort::new(2, 5);
        assert_eq!(gp.node, NodeId(2));
        assert_eq!(gp.port, PortId(5));
        assert_eq!(format!("{gp:?}"), "n2p5");
    }

    #[test]
    fn team_id_basics() {
        assert_eq!(TeamId::GLOBAL, TeamId(0));
        assert_eq!(format!("{:?}", TeamId(7)), "t7");
        assert!(TeamId(1) < TeamId(2));
    }
}
