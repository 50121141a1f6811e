//! Deterministic discrete-event simulation (DES) engine.
//!
//! This crate is the foundation of the Myrinet/GM NIC-barrier reproduction.
//! Everything above it — the wormhole fabric, the LANai NIC model, the GM
//! message-passing stack and the barrier algorithms themselves — is expressed
//! as state machines whose transitions are scheduled on a single virtual
//! clock provided by this engine.
//!
//! Design goals:
//!
//! * **Determinism.** Two runs with the same seed and the same configuration
//!   produce byte-identical event traces. Events scheduled for the same
//!   timestamp fire in FIFO order of scheduling (a monotone sequence number
//!   breaks ties), so no behaviour ever depends on hash iteration order or
//!   heap internals.
//! * **Genericity.** The engine is generic over the *world* type `W` and the
//!   *event* type `E`, usually a small enum implementing [`Event`] with one
//!   variant per kind of event. The GM stack instantiates it with its cluster state and
//!   its `ClusterEvent` enum. Events live in an allocation-free slab (see
//!   [`scheduler`]).
//! * **Guard rails.** [`Simulation::run`] enforces an event budget so a bug
//!   that produces an event livelock fails a test instead of hanging it.
//!
//! ```
//! use gmsim_des::{Event, Scheduler, SimTime, Simulation};
//!
//! /// The one kind of event this world knows: add to the counter.
//! struct Add(u64);
//!
//! impl Event<u64> for Add {
//!     fn fire(self, world: &mut u64, _sched: &mut Scheduler<u64, Add>) {
//!         *world += self.0;
//!     }
//! }
//!
//! let mut sim: Simulation<u64, Add> = Simulation::new(0);
//! sim.scheduler_mut().schedule(SimTime::from_us(5), Add(1));
//! sim.run();
//! assert_eq!(*sim.world(), 1);
//! assert_eq!(sim.now(), SimTime::from_us(5));
//! ```

#![warn(missing_docs)]

pub mod check;
pub mod digest;
mod heap;
pub mod metrics;
pub mod pdes;
pub mod rng;
pub mod scheduler;
pub mod stats;
pub mod time;
pub mod trace;
pub mod walk;

pub use digest::StateHasher;
pub use metrics::{Counter, MetricSet};
pub use rng::SimRng;
pub use scheduler::{Event, EventId, RunOutcome, Scheduler, Simulation};
pub use stats::{Histogram, Summary};
pub use time::SimTime;
pub use trace::{ComponentId, TracePayload, TraceRecord, Tracer, Unit};
pub use walk::{Visit, Walk};
