//! The NoC **physical layer**: how flits actually move on wires.
//!
//! Paper §1: *"The physical layer defines how packets are physically
//! transmitted — much like the Ethernet defines the MII, 10Mb/s, 1Gb/s
//! physical interfaces. Again, the physical layer is independent from
//! transaction and transport layers."*
//!
//! This crate models three physical concerns, all invisible above:
//!
//! - **width adaptation** ([`LinkConfig::phits_per_flit`]): a flit can be
//!   serialised over a narrower link as several *phits*, trading bandwidth
//!   for wires;
//! - **pipelining** ([`LinkConfig::pipeline`]): register stages inserted to
//!   close timing on long wires, adding latency cycles;
//! - **clock-domain crossing** ([`LinkConfig`] divisor pair +
//!   [`LinkConfig::cdc_latency`]): bi-synchronous FIFO behaviour between
//!   domains derived from a common base clock (same divisor convention as
//!   `noc_kernel::ClockDomain`).
//!
//! The model is *occupancy + latency*: delivery times are computed
//! analytically at send time (deterministic, exact for FIFO links), and
//! in-flight capacity is bounded so back-pressure is physical too.
//!
//! A link's state is a plain record, [`LinkState`], whose in-flight items
//! sit in a [`noc_kernel::Slab`] its owner keeps: a standalone [`Link`]
//! owns one, and a fabric keeps every link's items (and every buffered
//! flit) in one.
//!
//! # Examples
//!
//! ```
//! use noc_physical::{Link, LinkConfig};
//!
//! // A half-width link (2 phits per flit), 1 pipeline stage, same clock.
//! let cfg = LinkConfig::new().with_phits_per_flit(2).with_pipeline(1);
//! let mut link: Link<u32> = Link::new(cfg);
//! assert!(link.can_send(0));
//! link.send(42, 0)?;
//! // Serialisation takes 2 cycles, pipeline 1: delivered at cycle 3.
//! assert_eq!(link.deliver(2), None);
//! assert_eq!(link.deliver(3), Some(42));
//! # Ok::<(), noc_physical::LinkFull>(())
//! ```

pub mod link;

pub use link::{Link, LinkConfig, LinkFull, LinkState};
