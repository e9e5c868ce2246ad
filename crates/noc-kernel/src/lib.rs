//! Deterministic time-keeping primitives for NoC modelling.
//!
//! This crate is the substrate under the cycle-stepped simulators in the
//! rest of the workspace. It holds no event engine of its own: the
//! systems step themselves and use these pieces to decide *when*, and
//! one to hold what they buffer:
//!
//! - [`Engine`], the stepping contract (`step` / `next_activity` /
//!   `skip_to`) every interconnect model implements, with the one
//!   advance loop provided on top of it;
//! - [`ClockDomain`], a divisor-based clock domain (each endpoint holds
//!   its own) so that mixed-clock systems stay on one deterministic base
//!   timeline;
//! - [`Wake`], a component's answer to "when can you next act?" — a
//!   count of its own clock edges or an absolute cycle — and the one
//!   mapping of that answer onto the base timeline;
//! - [`Arrivals`], a timing wheel for events that never move once posted
//!   (a flit's arrival, a credit's return): each id is filed once for the
//!   cycle it falls due and drained exactly once, O(1) within 64 cycles;
//! - [`Calendar`], the wakeup queue that inverts horizon polling:
//!   components schedule their next-activity cycle and the advance loop
//!   pops the earliest instead of rescanning every component (a pending
//!   cycle per component over one [`Arrivals`] wheel);
//! - [`SplitMix64`], a tiny deterministic RNG used to seed all stochastic
//!   behaviour in the workspace;
//! - [`Slab`], one node store for many FIFO [`Queue`]s, so a model with
//!   thousands of mostly empty buffers holds them in one allocation.
//!
//! Reproducibility matters more than wall-clock speed for architecture
//! studies: every experiment in the workspace must be replayable
//! bit-for-bit from a seed, so everything here is sequential and free of
//! host-dependent state.
//!
//! # Examples
//!
//! ```
//! use noc_kernel::{Calendar, ClockDomain, Wake};
//!
//! // A component on a /4 clock, settled through cycle 5, waits for a
//! // response stamped ready at base cycle 9: its next edge after that is
//! // cycle 12. A countdown of two of its edges lands on 8 + 2 * 4 = 16.
//! let slow = ClockDomain::new(4);
//! assert_eq!(Wake::At(9).base_cycle(slow, 5), Some(12));
//! assert_eq!(Wake::Ticks(2).base_cycle(slow, 5), Some(16));
//! assert_eq!(Wake::Ticks(u64::MAX).base_cycle(slow, 5), None);
//!
//! let mut cal = Calendar::new();
//! let id = cal.register();
//! cal.set(id, Wake::At(9).base_cycle(slow, 5));
//! assert_eq!(cal.peek(), Some(12));
//! ```

pub mod arrivals;
pub mod calendar;
pub mod clock;
pub mod engine;
pub mod rng;
pub mod slab;
pub mod wake;

pub use arrivals::Arrivals;
pub use calendar::{Calendar, WakeId};
pub use clock::ClockDomain;
pub use engine::Engine;
pub use rng::SplitMix64;
pub use slab::{Queue, Slab};
pub use wake::Wake;
