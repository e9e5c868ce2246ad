//! Name tables: each enumeration's grammar spellings, stated once.
//!
//! A table pairs every spelling with the value it names. Parsing
//! ([`std::str::FromStr`], the scenario text driver, the `scn` command
//! line), printing ([`std::fmt::Display`], the emitter) and the
//! `(a|b|c)` lists in error texts and the grammar reference all read
//! the same table, so adding a variant is a one-row edit.

/// The spellings of an enumeration, in the order error texts and the
/// grammar reference list them.
pub type Names<V> = &'static [(&'static str, V)];

/// The value `s` names.
///
/// # Errors
///
/// Returns the error text for a spelling the table lacks:
/// ``unknown <noun> "s" (a|b|c)``.
pub fn named<V: Clone>(noun: &str, names: Names<V>, s: &str) -> Result<V, String> {
    let entry = names.iter().find(|(name, _)| *name == s);
    let unknown = || format!("unknown {noun} {s:?} ({})", alternatives(names));
    entry.map(|(_, v)| v.clone()).ok_or_else(unknown)
}

/// The spelling of the first table value `is` accepts.
///
/// # Panics
///
/// Panics if no entry matches: every table lists all variants of its
/// enumeration.
pub fn name_of<V>(names: Names<V>, is: impl Fn(&V) -> bool) -> &'static str {
    let entry = names.iter().find(|(_, v)| is(v));
    entry.expect("name tables list every variant").0
}

/// The table's spellings as `a|b|c`.
pub fn alternatives<V>(names: Names<V>) -> String {
    let spellings: Vec<&str> = names.iter().map(|(n, _)| *n).collect();
    spellings.join("|")
}
