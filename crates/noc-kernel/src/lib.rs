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
//! - [`ClockDomain`] / [`ClockSet`], divisor-based clock domains so that
//!   mixed-clock systems stay on one deterministic base timeline;
//! - [`Horizon`], the min-combining accumulator for per-component event
//!   horizons used by quiescence-aware stepping;
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
//! use noc_kernel::{Calendar, ClockDomain, Horizon};
//!
//! // A component on a /4 clock wants to wake at base cycle 9; its next
//! // active edge is cycle 12.
//! let slow = ClockDomain::new(4);
//! let mut cal = Calendar::new();
//! let id = cal.register();
//! cal.set(id, Some(slow.next_active(9)));
//!
//! let mut h = Horizon::new();
//! h.merge(cal.peek());
//! h.merge_at(40);
//! assert_eq!(h.earliest(), Some(12));
//! ```

pub mod arrivals;
pub mod calendar;
pub mod clock;
pub mod engine;
pub mod horizon;
pub mod rng;
pub mod slab;

pub use arrivals::Arrivals;
pub use calendar::{Calendar, WakeId};
pub use clock::{ClockDomain, ClockId, ClockSet};
pub use engine::Engine;
pub use horizon::Horizon;
pub use rng::SplitMix64;
pub use slab::{Queue, Slab};
