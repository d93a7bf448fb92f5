//! Report helpers: overheads, geometric means, and aligned text tables
//! (the reproduction's equivalent of the paper's Fex-generated plots).

/// Ratio `x / base`, or `NaN` when the base is zero.
pub fn ratio(x: u64, base: u64) -> f64 {
    if base == 0 {
        f64::NAN
    } else {
        x as f64 / base as f64
    }
}

/// Geometric mean over finite positive values; `None` if none qualify.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> Option<f64> {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        if v.is_finite() && v > 0.0 {
            log_sum += v.ln();
            n += 1;
        }
    }
    (n > 0).then(|| (log_sum / n as f64).exp())
}

/// Formats a ratio as the paper does: `1.17x`, or `crash`/`n/a` markers.
pub fn fmt_ratio(r: Option<f64>) -> String {
    match r {
        Some(v) if v.is_finite() => format!("{v:.2}x"),
        _ => "crash".to_owned(),
    }
}

/// A table row: `label`, then each ratio as [`fmt_ratio`] prints it.
pub(crate) fn ratio_row(label: &str, ratios: Vec<Option<f64>>) -> Vec<String> {
    let cells = ratios.into_iter().map(fmt_ratio);
    std::iter::once(label.to_owned()).chain(cells).collect()
}

/// Formats bytes human-readably.
pub fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{:.2} GB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.1} MB", b as f64 / (1u64 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1} KB", b as f64 / (1u64 << 10) as f64)
    } else {
        format!("{b} B")
    }
}

/// A simple aligned text table.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[impl AsRef<str>]) -> Self {
        Table {
            header: header.iter().map(|s| s.as_ref().to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (padded/truncated to the header width).
    pub fn row(&mut self, cells: Vec<String>) {
        let mut cells = cells;
        cells.resize(self.header.len(), String::new());
        self.rows.push(cells);
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for c in 0..ncols {
                widths[c] = widths[c].max(r[c].len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                if i == 0 {
                    line.push_str(&format!("{:<w$}", c, w = widths[i]));
                } else {
                    line.push_str(&format!("{:>w$}", c, w = widths[i]));
                }
            }
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r, &widths));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_identity_is_one() {
        let g = geomean([1.0, 1.0, 1.0]).unwrap();
        assert!((g - 1.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_matches_hand_computation() {
        let g = geomean([2.0, 8.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-9);
    }

    #[test]
    fn geomean_skips_nan_and_empty() {
        assert!(geomean([f64::NAN]).is_none());
        let g = geomean([f64::NAN, 3.0]).unwrap();
        assert!((g - 3.0).abs() < 1e-12);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "perf"]);
        t.row(vec!["kmeans".into(), "1.17x".into()]);
        t.row(vec!["x".into(), "10.00x".into()]);
        let s = t.render();
        assert!(s.contains("kmeans"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn fmt_helpers() {
        assert_eq!(fmt_ratio(Some(1.234)), "1.23x");
        assert_eq!(fmt_ratio(None), "crash");
        assert_eq!(fmt_bytes(512), "512 B");
        assert!(fmt_bytes(3 << 20).contains("MB"));
    }
}
