//! Per-port NIC state.
//!
//! A port is the OS-bypass endpoint a process opens (§4.1). The NIC keeps a
//! small structure per port; the paper's barrier adds "a pointer in the port
//! data structure to this send token" — that pointer lives in the firmware
//! *extension's* per-port state, while this module models what stock GM
//! tracks: open/closed lifecycle, an epoch to tell one owner from the next
//! (the §3.2 process A / process A′ problem), and token counts.

use crate::ids::GM_NUM_PORTS;

/// NIC-side state of one port.
#[derive(Debug, Clone, Hash)]
pub struct PortState {
    open: bool,
    /// Bumped on every open; lets the firmware reject stale traffic that
    /// was addressed to a previous owner of the same port index.
    epoch: u32,
    send_tokens: u32,
    recv_tokens: u32,
    /// Buffers provided via the paper's `gm_provide_barrier_buffer()`:
    /// each collective completion event DMAs into one.
    barrier_buffers: u32,
}

impl PortState {
    /// A closed port that has never been opened.
    pub fn closed() -> Self {
        PortState {
            open: false,
            epoch: 0,
            send_tokens: 0,
            recv_tokens: 0,
            barrier_buffers: 0,
        }
    }

    /// Open the port for a new owner with fresh token allowances.
    pub fn open(&mut self, send_tokens: u32, recv_tokens: u32) {
        assert!(!self.open, "double open");
        self.open = true;
        self.epoch += 1;
        self.send_tokens = send_tokens;
        self.recv_tokens = recv_tokens;
    }

    /// Close the port (owner exited).
    pub fn close(&mut self) {
        assert!(self.open, "closing a closed port");
        self.open = false;
        self.send_tokens = 0;
        self.recv_tokens = 0;
        self.barrier_buffers = 0;
    }

    /// Whether a process currently owns the port.
    pub fn is_open(&self) -> bool {
        self.open
    }

    /// Current owner generation (0 = never opened).
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Try to consume a send token; `false` when none remain (the process
    /// must wait for sends to complete).
    pub fn take_send_token(&mut self) -> bool {
        if self.send_tokens == 0 {
            return false;
        }
        self.send_tokens -= 1;
        true
    }

    /// Return a send token after the send event completes.
    pub fn return_send_token(&mut self) {
        self.send_tokens += 1;
    }

    /// Try to consume a receive token (a host buffer); `false` when the
    /// process has provided none.
    pub fn take_recv_token(&mut self) -> bool {
        if self.recv_tokens == 0 {
            return false;
        }
        self.recv_tokens -= 1;
        true
    }

    /// The process provided one more receive buffer.
    pub fn provide_recv_token(&mut self) {
        self.recv_tokens += 1;
    }

    /// `gm_provide_barrier_buffer()`: the process supplies a buffer for
    /// one collective completion event.
    pub fn provide_barrier_buffer(&mut self) {
        self.barrier_buffers += 1;
    }

    /// Consume a barrier buffer for a completion DMA.
    ///
    /// # Panics
    /// Panics if none was provided — the paper's API contract requires
    /// `gm_provide_barrier_buffer()` before each barrier initiation.
    pub fn take_barrier_buffer(&mut self) {
        assert!(
            self.barrier_buffers > 0,
            "collective completed with no barrier buffer provided"
        );
        self.barrier_buffers -= 1;
    }

    /// Barrier buffers currently provided.
    pub fn barrier_buffers(&self) -> u32 {
        self.barrier_buffers
    }

    /// Remaining send tokens.
    pub fn send_tokens(&self) -> u32 {
        self.send_tokens
    }

    /// Remaining receive tokens.
    pub fn recv_tokens(&self) -> u32 {
        self.recv_tokens
    }
}

/// The full port table of one NIC.
pub fn new_port_table() -> Vec<PortState> {
    (0..GM_NUM_PORTS).map(|_| PortState::closed()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_and_epochs() {
        let mut p = PortState::closed();
        assert!(!p.is_open());
        assert_eq!(p.epoch(), 0);
        p.open(4, 4);
        assert!(p.is_open());
        assert_eq!(p.epoch(), 1);
        p.close();
        p.open(4, 4);
        assert_eq!(p.epoch(), 2, "reopening bumps the epoch");
    }

    #[test]
    #[should_panic(expected = "double open")]
    fn double_open_panics() {
        let mut p = PortState::closed();
        p.open(1, 1);
        p.open(1, 1);
    }

    #[test]
    fn send_tokens_are_finite() {
        let mut p = PortState::closed();
        p.open(2, 0);
        assert!(p.take_send_token());
        assert!(p.take_send_token());
        assert!(!p.take_send_token());
        p.return_send_token();
        assert!(p.take_send_token());
    }

    #[test]
    fn recv_tokens_gate_delivery() {
        let mut p = PortState::closed();
        p.open(0, 1);
        assert!(p.take_recv_token());
        assert!(!p.take_recv_token());
        p.provide_recv_token();
        assert_eq!(p.recv_tokens(), 1);
    }

    #[test]
    fn closing_forfeits_tokens() {
        let mut p = PortState::closed();
        p.open(3, 3);
        p.provide_barrier_buffer();
        p.close();
        assert_eq!(p.send_tokens(), 0);
        assert_eq!(p.recv_tokens(), 0);
        assert_eq!(p.barrier_buffers(), 0);
    }

    #[test]
    fn barrier_buffers_count() {
        let mut p = PortState::closed();
        p.open(1, 1);
        p.provide_barrier_buffer();
        p.provide_barrier_buffer();
        assert_eq!(p.barrier_buffers(), 2);
        p.take_barrier_buffer();
        assert_eq!(p.barrier_buffers(), 1);
    }

    #[test]
    #[should_panic(expected = "no barrier buffer")]
    fn completion_without_buffer_panics() {
        let mut p = PortState::closed();
        p.open(1, 1);
        p.take_barrier_buffer();
    }

    #[test]
    fn table_has_eight_ports() {
        assert_eq!(new_port_table().len(), 8);
    }
}
