//! Workloads: synthetic traffic programs, IP-block models and the
//! mixed-protocol "set-top SoC" scenario used throughout the experiments.
//!
//! The scenario instantiates the system of the paper's Fig 1: a CPU on
//! **AHB**, a two-thread video decoder on **OCP**, a multi-ID DMA engine
//! on **AXI**, a display controller on the proprietary **STRM** socket,
//! and control masters on **PVCI**/**BVCI**/**AVCI** — all sharing a DRAM,
//! an SRAM and a register slave. [`scenario::SetTop`] declares it *once*
//! as a [`noc_scenario::ScenarioSpec`] ([`SetTop::spec`]), from which the
//! same programs compile to the NoC (Fig 1), the bridged reference-socket
//! interconnect (Fig 2) and a shared bus.

mod patterns;
pub mod scenario;

pub use scenario::{SetTop, SetTopConfig};
