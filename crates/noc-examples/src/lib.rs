//! Host crate for everything that runs the library from the outside:
//! the `scn` runner, the `gen_scenarios` corpus generator, the
//! repository-level `examples/` and the integration suites in `tests/`.
//!
//! The paper's experiments are corpus files, not code: [`scenarios`]
//! holds the builders `gen_scenarios` serializes into `tests/scenarios/`,
//! `scn FILE` prints each file's tables, and [`golden`] pins every
//! host-independent number of those runs in `tests/scenarios/GOLDEN.txt`.
//! [`area`] prices the NIUs, switches, bridges and buses those runs
//! compare in gates.

pub mod area;
pub mod golden;
pub mod scenarios;

#[cfg(test)]
mod tests;
