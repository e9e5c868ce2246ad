//! Minimal JSON record emission.
//!
//! The serve protocol streams one JSON object per line. The objects are
//! flat (strings, integers, floats, nulls), so a tiny escape-and-
//! concatenate builder covers the whole need without pulling in a
//! serialization dependency.

use std::fmt::Write as _;

/// Escapes `s` for inclusion inside a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Builds one flat JSON object, field by field, in insertion order.
///
/// ```
/// let line = noc_serve::json::JsonObject::new()
///     .string("status", "ok")
///     .number("points", 3)
///     .finish();
/// assert_eq!(line, r#"{"status":"ok","points":3}"#);
/// ```
#[derive(Debug, Clone)]
pub struct JsonObject {
    buf: String,
    first: bool,
}

impl JsonObject {
    /// An empty object.
    pub fn new() -> Self {
        JsonObject {
            buf: String::from("{"),
            first: true,
        }
    }

    fn raw(mut self, key: &str, value: &str) -> Self {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        let _ = write!(self.buf, "\"{}\":{}", escape(key), value);
        self
    }

    /// Adds a string field (escaped).
    #[must_use]
    pub fn string(self, key: &str, value: &str) -> Self {
        let quoted = format!("\"{}\"", escape(value));
        self.raw(key, &quoted)
    }

    /// Adds an integer field.
    #[must_use]
    pub fn number(self, key: &str, value: u64) -> Self {
        self.raw(key, &value.to_string())
    }

    /// Adds a float field; non-finite values become `null` (JSON has no
    /// NaN/Infinity literals).
    #[must_use]
    pub fn float(self, key: &str, value: f64) -> Self {
        if value.is_finite() {
            let text = format!("{value}");
            self.raw(key, &text)
        } else {
            self.null(key)
        }
    }

    /// Adds a `null` field.
    #[must_use]
    pub fn null(self, key: &str) -> Self {
        self.raw(key, "null")
    }

    /// Closes the object and returns the JSON text (no trailing newline).
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

impl Default for JsonObject {
    fn default() -> Self {
        JsonObject::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn builds_flat_objects() {
        let line = JsonObject::new()
            .string("id", "q\"1")
            .number("n", 7)
            .float("t", 0.5)
            .float("bad", f64::NAN)
            .null("none")
            .finish();
        assert_eq!(
            line,
            r#"{"id":"q\"1","n":7,"t":0.5,"bad":null,"none":null}"#
        );
    }

    #[test]
    fn empty_object() {
        assert_eq!(JsonObject::new().finish(), "{}");
    }
}
