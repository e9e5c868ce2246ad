//! Measurement utilities for NoC experiments: latency histograms with
//! percentiles and ASCII table rendering.
//!
//! The `scn` runner reports through these types so its tables come out
//! in one consistent format.
//!
//! # Examples
//!
//! ```
//! use noc_stats::Histogram;
//! let mut h = Histogram::new();
//! for v in [10, 12, 11, 40, 13] {
//!     h.record(v);
//! }
//! assert_eq!(h.count(), 5);
//! assert_eq!(h.max(), Some(40));
//! assert!(h.mean() > 17.0 && h.mean() < 18.0);
//! assert_eq!(h.percentile(0.5), Some(12));
//! ```

pub mod histogram;
pub mod table;

pub use histogram::Histogram;
pub use table::Table;
