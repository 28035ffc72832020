//! Shared reporting helpers for the figure-reproduction binaries and Criterion benches.
//!
//! Each `fig*` / `exa*` binary in `src/bin/` regenerates one figure or worked example
//! of the paper's evaluation section; the helpers here render the series as
//! plain-text tables. The Criterion benches in `benches/` time single layers
//! interactively. End-to-end performance is measured by the stand-alone `perfbench`
//! package, not by this crate (see `docs/BENCHMARKS.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// A labelled series of (x, y) points, printed as one column block.
#[derive(Debug, Clone)]
pub struct Series {
    /// Name shown in the table header.
    pub label: String,
    /// The data points.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates a series from a label and points.
    pub fn new(label: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Self {
            label: label.into(),
            points,
        }
    }
}

/// Prints a figure header in a consistent format.
pub fn print_header(figure: &str, title: &str, parameters: &str) {
    println!("=====================================================================");
    println!("{figure}: {title}");
    println!("  parameters: {parameters}");
    println!("=====================================================================");
}

/// Prints one or more series sharing the same x axis as an aligned table.
///
/// All series must have the same x values in the same order; this is asserted.
pub fn print_table(x_label: &str, series: &[Series]) {
    assert!(!series.is_empty(), "need at least one series");
    for s in series.iter().skip(1) {
        assert_eq!(
            s.points.len(),
            series[0].points.len(),
            "all series must share the same x axis"
        );
    }
    let mut header = format!("{x_label:>14}");
    for s in series {
        header.push_str(&format!(" {:>18}", s.label));
    }
    println!("{header}");
    for (i, (x, _)) in series[0].points.iter().enumerate() {
        let mut row = format!("{x:>14.4}");
        for s in series {
            row.push_str(&format!(" {:>18.6}", s.points[i].1));
        }
        println!("{row}");
    }
}

/// Prints a free-form key/value result line (used for scalar results like "iterations
/// to convergence").
pub fn print_kv(key: &str, value: impl std::fmt::Display) {
    println!("  {key:<40} {value}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_construction() {
        let s = Series::new("posterior", vec![(1.0, 0.5), (2.0, 0.6)]);
        assert_eq!(s.label, "posterior");
        assert_eq!(s.points.len(), 2);
    }

    #[test]
    #[should_panic(expected = "same x axis")]
    fn mismatched_series_lengths_panic() {
        print_table(
            "x",
            &[
                Series::new("a", vec![(1.0, 1.0)]),
                Series::new("b", vec![(1.0, 1.0), (2.0, 2.0)]),
            ],
        );
    }

    #[test]
    fn print_table_runs_on_consistent_input() {
        print_table(
            "iteration",
            &[
                Series::new("a", vec![(1.0, 0.1), (2.0, 0.2)]),
                Series::new("b", vec![(1.0, 0.3), (2.0, 0.4)]),
            ],
        );
    }
}
