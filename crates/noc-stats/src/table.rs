//! ASCII table rendering for `scn` output.

use std::fmt;

/// Column alignment within a [`Table`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Align {
    /// Left-aligned (default, used for labels).
    #[default]
    Left,
    /// Right-aligned (used for numbers).
    Right,
}

/// A simple ASCII table builder used by `scn`, so all reproduced tables
/// share one format.
///
/// # Examples
///
/// ```
/// use noc_stats::Table;
/// let mut t = Table::new(&["config", "latency", "throughput"]);
/// t.row(&["NoC", "12.4", "0.81"]);
/// t.row(&["bridged", "19.0", "0.55"]);
/// let text = t.to_string();
/// assert!(text.contains("config"));
/// assert!(text.contains("bridged"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    aligns: Vec<Align>,
}

impl Table {
    /// Creates a table with the given column headers. Numeric-looking
    /// columns can be right-aligned later via [`Table::align`].
    pub fn new<S: AsRef<str>>(headers: &[S]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.as_ref().to_owned()).collect(),
            rows: Vec::new(),
            aligns: vec![Align::Left; headers.len()],
        }
    }

    /// Sets the alignment of column `col`.
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of range.
    pub fn align(&mut self, col: usize, align: Align) -> &mut Self {
        self.aligns[col] = align;
        self
    }

    /// Right-aligns every column except the first (the common layout for
    /// label + numbers tables).
    pub fn numeric(&mut self) -> &mut Self {
        for a in self.aligns.iter_mut().skip(1) {
            *a = Align::Right;
        }
        self
    }

    /// Appends a row of pre-formatted cells.
    ///
    /// # Panics
    ///
    /// Panics if the number of cells differs from the number of headers.
    pub fn row<S: AsRef<str>>(&mut self, cells: &[S]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match header width"
        );
        self.rows
            .push(cells.iter().map(|s| s.as_ref().to_owned()).collect());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                w[i] = w[i].max(cell.len());
            }
        }
        w
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let widths = self.widths();
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (i, cell) in cells.iter().enumerate() {
                match self.aligns[i] {
                    Align::Left => write!(f, " {:<width$} |", cell, width = widths[i])?,
                    Align::Right => write!(f, " {:>width$} |", cell, width = widths[i])?,
                }
            }
            writeln!(f)
        };
        let rule = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            write!(f, "+")?;
            for w in &widths {
                write!(f, "{}+", "-".repeat(w + 2))?;
            }
            writeln!(f)
        };
        rule(f)?;
        write_row(f, &self.headers)?;
        rule(f)?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        rule(f)
    }
}

/// Formats a float with 2 decimals, or "-" for NaN — convenient for table
/// cells.
///
/// # Examples
///
/// ```
/// use noc_stats::table::fmt_f64;
/// assert_eq!(fmt_f64(1.5), "1.50");
/// assert_eq!(fmt_f64(f64::NAN), "-");
/// ```
pub fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "-".to_owned()
    } else {
        format!("{v:.2}")
    }
}

/// Formats a ratio `a / b` as `x.xx×`, or "-" when `b` is zero.
///
/// # Examples
///
/// ```
/// use noc_stats::table::fmt_ratio;
/// assert_eq!(fmt_ratio(30.0, 10.0), "3.00x");
/// assert_eq!(fmt_ratio(1.0, 0.0), "-");
/// ```
pub fn fmt_ratio(a: f64, b: f64) -> String {
    if b == 0.0 {
        "-".to_owned()
    } else {
        format!("{:.2}x", a / b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_headers_and_rows() {
        let mut t = Table::new(&["a", "bb"]);
        t.row(&["1", "2"]);
        let text = t.to_string();
        assert!(text.contains("| a | bb |"));
        assert!(text.contains("| 1 | 2  |"));
        assert!(text.starts_with('+'));
    }

    #[test]
    fn pads_to_widest_cell() {
        let mut t = Table::new(&["col"]);
        t.row(&["wide-cell-value"]);
        let text = t.to_string();
        assert!(text.contains("| col             |"));
    }

    #[test]
    fn right_alignment() {
        let mut t = Table::new(&["name", "num"]);
        t.numeric();
        t.row(&["x", "5"]);
        let text = t.to_string();
        assert!(text.contains("|   5 |"), "got: {text}");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one"]);
    }

    #[test]
    fn len_and_is_empty() {
        let mut t = Table::new(&["a"]);
        assert!(t.is_empty());
        t.row(&["x"]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn helpers_format() {
        assert_eq!(fmt_f64(2.345), "2.35"); // banker's-free default rounding
        assert_eq!(fmt_ratio(10.0, 4.0), "2.50x");
    }
}
