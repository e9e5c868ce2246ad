//! Seeded mutants of the scenario corpus: what `mutated_corpus_files_never_panic`
//! (`tests/properties.rs`) drives through the whole stack, and what the
//! line scanner's oracle test (`noc-scenario`'s `text.rs`) reads with both
//! the scanner and the line reader it replaced. One definition, so both
//! draw the same mutants.

use noc_kernel::SplitMix64;
use std::path::{Path, PathBuf};

/// Mutants drawn per corpus file.
pub const CASES_PER_FILE: usize = 120;

/// The stream every mutant is drawn from, file after file.
pub fn rng() -> SplitMix64 {
    SplitMix64::new(0x5CE9_A210)
}

/// The corpus's `.scn` files, in name order.
pub fn corpus_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("tests/scenarios exists")
        .map(|entry| entry.expect("readable dir entry").path())
        .filter(|path| path.extension().is_some_and(|e| e == "scn"))
        .collect();
    files.sort();
    files
}

/// `original` after one to three random edits.
pub fn mutant(rng: &mut SplitMix64, original: &[u8]) -> Vec<u8> {
    let mut bytes = original.to_vec();
    for _ in 0..rng.next_range(1, 3) {
        mutate(rng, &mut bytes);
    }
    bytes
}

/// One random edit of `bytes`: a byte or a line deleted, duplicated, or
/// overwritten by one picked elsewhere in the file.
fn mutate(rng: &mut SplitMix64, bytes: &mut Vec<u8>) {
    if bytes.is_empty() {
        return;
    }
    let line_at = |bytes: &[u8], at: usize| {
        let start = bytes[..at]
            .iter()
            .rposition(|b| *b == b'\n')
            .map_or(0, |i| i + 1);
        let end = bytes[at..]
            .iter()
            .position(|b| *b == b'\n')
            .map_or(bytes.len(), |i| at + i + 1);
        start..end
    };
    let at = rng.next_below(bytes.len() as u64) as usize;
    let from = rng.next_below(bytes.len() as u64) as usize;
    match rng.next_below(6) {
        0 => drop(bytes.remove(at)),
        1 => bytes.insert(at, bytes[at]),
        2 => bytes[at] = bytes[from],
        3 => drop(bytes.drain(line_at(bytes, at))),
        4 => {
            let line = bytes[line_at(bytes, at)].to_vec();
            bytes.splice(at..at, line);
        }
        _ => {
            let line = bytes[line_at(bytes, from)].to_vec();
            bytes.splice(line_at(bytes, at), line);
        }
    }
}
