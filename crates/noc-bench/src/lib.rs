//! Host crate for the experiment binaries (`src/bin/exp_*`) that
//! regenerate every paper figure/claim table.
//!
//! The binaries drive scenarios through [`noc_scenario`]. The scenario
//! and sweep builders each binary uses by default live in [`scenarios`]
//! (also reused by `gen_scenarios` to produce the `tests/scenarios/`
//! corpus, whose run numbers [`golden`] pins), and every spec-driven
//! binary accepts `--scenario FILE` to swap the built-in for a parsed
//! scenario text file.

use noc_scenario::{ScenarioSpec, Sweep};
use std::path::{Path, PathBuf};

pub mod golden;
pub mod scenarios;

/// The `--scenario FILE` argument, if present on the command line.
///
/// # Errors
///
/// Returns an error when `--scenario` is given without a following path.
pub fn scenario_path_arg() -> Result<Option<PathBuf>, Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--scenario" {
            return match args.next() {
                Some(path) => Ok(Some(PathBuf::from(path))),
                None => Err("--scenario needs a file path".into()),
            };
        }
    }
    Ok(None)
}

/// Loads a single-scenario text file, with the file name woven into any
/// error.
///
/// # Errors
///
/// Returns I/O failures and [`noc_scenario::ScenarioError`]s as boxed
/// errors ready for `?` in `main`.
pub fn load_scenario(path: &Path) -> Result<ScenarioSpec, Box<dyn std::error::Error>> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    ScenarioSpec::from_text(&text).map_err(|e| format!("{}: {e}", path.display()).into())
}

/// Loads a sweep text file, with the file name woven into any error.
///
/// # Errors
///
/// Returns I/O failures and [`noc_scenario::ScenarioError`]s as boxed
/// errors ready for `?` in `main`.
pub fn load_sweep(path: &Path) -> Result<Sweep, Box<dyn std::error::Error>> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Sweep::from_text(&text).map_err(|e| format!("{}: {e}", path.display()).into())
}
