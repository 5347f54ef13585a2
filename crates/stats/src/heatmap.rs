//! Binned predicted-vs-measured heat maps (paper Figure 7).

use std::fmt;

/// A square heat map of (measured, predicted) throughput pairs.
///
/// The value range `[0, limit]` is split into `bins × bins` equally sized
/// cells (the paper uses 35×35); each cell counts the experiments falling
/// into it. Points beyond `limit` clamp to the outermost bin, mirroring
/// the cropped axes of the paper's plots.
///
/// # Example
///
/// ```
/// use pmevo_stats::Heatmap;
///
/// let mut h = Heatmap::new(35, 35.0);
/// h.record(1.0, 1.1);
/// h.record(10.0, 9.5);
/// assert_eq!(h.total(), 2);
/// assert!(h.diagonal_fraction(1) >= 0.5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Heatmap {
    bins: usize,
    limit_milli: u64, // fixed-point to keep Eq; limit in 1/1000ths
    counts: Vec<u64>,
}

impl Heatmap {
    /// Creates an empty `bins × bins` heat map covering `[0, limit]` on
    /// both axes.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `limit <= 0`.
    pub fn new(bins: usize, limit: f64) -> Self {
        assert!(bins > 0, "need at least one bin");
        assert!(limit > 0.0, "limit must be positive");
        Heatmap {
            bins,
            limit_milli: (limit * 1000.0).round() as u64,
            counts: vec![0; bins * bins],
        }
    }

    /// The number of bins per axis.
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// The upper bound of both axes.
    pub fn limit(&self) -> f64 {
        self.limit_milli as f64 / 1000.0
    }

    fn bin_of(&self, v: f64) -> usize {
        let frac = (v / self.limit()).clamp(0.0, 1.0);
        ((frac * self.bins as f64) as usize).min(self.bins - 1)
    }

    /// Records one experiment with measured and predicted throughput.
    pub fn record(&mut self, measured: f64, predicted: f64) {
        let x = self.bin_of(measured);
        let y = self.bin_of(predicted);
        self.counts[y * self.bins + x] += 1;
    }

    /// The count in cell (`measured_bin`, `predicted_bin`).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn count(&self, measured_bin: usize, predicted_bin: usize) -> u64 {
        assert!(measured_bin < self.bins && predicted_bin < self.bins);
        self.counts[predicted_bin * self.bins + measured_bin]
    }

    /// Total number of recorded experiments.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fraction of experiments within `tolerance` bins of the diagonal —
    /// a scalar summary of "how tight around the ideal line" the cloud
    /// is in the paper's plots.
    pub fn diagonal_fraction(&self, tolerance: usize) -> f64 {
        let total = self.total();
        if total == 0 {
            return 1.0;
        }
        let mut near = 0u64;
        for y in 0..self.bins {
            for x in 0..self.bins {
                if x.abs_diff(y) <= tolerance {
                    near += self.counts[y * self.bins + x];
                }
            }
        }
        near as f64 / total as f64
    }

    /// Fraction of experiments strictly above the diagonal
    /// (over-estimated) minus those strictly below (under-estimated);
    /// positive means systematic over-estimation (the llvm-mca-on-ZEN
    /// pattern of Figure 7).
    pub fn over_estimation_bias(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let mut over = 0i64;
        for y in 0..self.bins {
            for x in 0..self.bins {
                let c = self.counts[y * self.bins + x] as i64;
                if y > x {
                    over += c;
                } else if y < x {
                    over -= c;
                }
            }
        }
        over as f64 / total as f64
    }

    /// Renders the map as CSV (`measured_bin,predicted_bin,count` rows,
    /// zero cells omitted).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("measured_bin,predicted_bin,count\n");
        for y in 0..self.bins {
            for x in 0..self.bins {
                let c = self.counts[y * self.bins + x];
                if c > 0 {
                    out.push_str(&format!("{x},{y},{c}\n"));
                }
            }
        }
        out
    }
}

impl fmt::Display for Heatmap {
    /// ASCII rendering: predicted on the vertical axis (top = high),
    /// measured on the horizontal; density in log-scale shades.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const SHADES: [char; 6] = [' ', '.', ':', '+', '#', '@'];
        for y in (0..self.bins).rev() {
            write!(f, "|")?;
            for x in 0..self.bins {
                let c = self.counts[y * self.bins + x];
                let shade = if c == 0 {
                    0
                } else {
                    (((c as f64).log10().floor() as usize) + 1).min(SHADES.len() - 1)
                };
                write!(f, "{}", SHADES[shade])?;
            }
            writeln!(f, "|")?;
        }
        write!(
            f,
            "+{}+ 0..{:.0} cycles",
            "-".repeat(self.bins),
            self.limit()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_land_in_the_right_bins() {
        let mut h = Heatmap::new(10, 10.0);
        h.record(0.5, 9.5); // measured bin 0, predicted bin 9
        assert_eq!(h.count(0, 9), 1);
        assert_eq!(h.total(), 1);
    }

    #[test]
    fn out_of_range_values_clamp() {
        let mut h = Heatmap::new(10, 10.0);
        h.record(100.0, -1.0);
        assert_eq!(h.count(9, 0), 1);
    }

    #[test]
    fn diagonal_fraction_of_perfect_predictions_is_one() {
        let mut h = Heatmap::new(35, 35.0);
        for i in 0..35 {
            h.record(i as f64, i as f64);
        }
        assert_eq!(h.diagonal_fraction(0), 1.0);
    }

    #[test]
    fn bias_sign_tracks_over_and_under_estimation() {
        let mut over = Heatmap::new(10, 10.0);
        over.record(1.0, 9.0);
        assert!(over.over_estimation_bias() > 0.0);
        let mut under = Heatmap::new(10, 10.0);
        under.record(9.0, 1.0);
        assert!(under.over_estimation_bias() < 0.0);
    }

    #[test]
    fn csv_lists_nonzero_cells_only() {
        let mut h = Heatmap::new(4, 4.0);
        h.record(1.5, 2.5);
        let csv = h.to_csv();
        assert!(csv.contains("1,2,1"));
        assert_eq!(csv.lines().count(), 2); // header + one cell
    }

    #[test]
    fn ascii_rendering_has_expected_dimensions() {
        let h = Heatmap::new(5, 5.0);
        let s = h.to_string();
        assert_eq!(s.lines().count(), 6); // 5 rows + axis line
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_panics() {
        Heatmap::new(0, 1.0);
    }
}
