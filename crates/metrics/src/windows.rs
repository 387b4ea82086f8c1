//! Attack-effort windowing for Fig. 8.
//!
//! The paper bins the Fig. 5/7 scatter points along the attack-effort axis
//! with width 0.2 from 0.0 to 0.8+, and reports the attack success rate per
//! bin and agent.

use crate::episode::ScatterPoint;

/// One effort window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EffortWindow {
    /// Inclusive lower edge.
    pub lo: f64,
    /// Exclusive upper edge (`f64::INFINITY` for the final `0.8+` bin).
    pub hi: f64,
    /// Attack success rate within the window (`NaN`-free: 0 when empty).
    pub success_rate: f64,
    /// Points that fell in the window.
    pub count: usize,
}

impl EffortWindow {
    /// Label in the paper's style: `"0.0-0.2"` or `"0.8+"`.
    pub fn label(&self) -> String {
        if self.hi.is_infinite() {
            format!("{:.1}+", self.lo)
        } else {
            format!("{:.1}-{:.1}", self.lo, self.hi)
        }
    }
}

/// Bins points into windows of `width` from 0 up to `open_end`, with a
/// final open `open_end+` window, and computes per-window success rates.
///
/// # Panics
///
/// Panics if `width <= 0` or `open_end <= 0`.
pub fn effort_windows(points: &[ScatterPoint], width: f64, open_end: f64) -> Vec<EffortWindow> {
    assert!(
        width > 0.0 && open_end > 0.0,
        "window parameters must be positive"
    );
    let bins = (open_end / width).round() as usize;
    let mut windows: Vec<EffortWindow> = (0..bins)
        .map(|i| EffortWindow {
            lo: i as f64 * width,
            hi: (i + 1) as f64 * width,
            success_rate: 0.0,
            count: 0,
        })
        .chain(std::iter::once(EffortWindow {
            lo: open_end,
            hi: f64::INFINITY,
            success_rate: 0.0,
            count: 0,
        }))
        .collect();
    let mut successes = vec![0usize; windows.len()];
    for p in points {
        let idx = if p.effort >= open_end {
            windows.len() - 1
        } else {
            ((p.effort / width).floor() as usize).min(windows.len() - 2)
        };
        windows[idx].count += 1;
        if p.success {
            successes[idx] += 1;
        }
    }
    for (w, s) in windows.iter_mut().zip(successes) {
        if w.count > 0 {
            w.success_rate = s as f64 / w.count as f64;
        }
    }
    windows
}

/// The paper's exact Fig. 8 binning: width 0.2, bins to 0.8, then `0.8+`.
pub fn fig8_windows(points: &[ScatterPoint]) -> Vec<EffortWindow> {
    effort_windows(points, 0.2, 0.8)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(effort: f64, success: bool) -> ScatterPoint {
        ScatterPoint {
            effort,
            deviation_rmse: 0.0,
            success,
        }
    }

    #[test]
    fn fig8_binning_layout() {
        let ws = fig8_windows(&[]);
        assert_eq!(ws.len(), 5);
        assert_eq!(ws[0].label(), "0.0-0.2");
        assert_eq!(ws[3].label(), "0.6-0.8");
        assert_eq!(ws[4].label(), "0.8+");
    }

    #[test]
    fn points_land_in_right_bins() {
        let ws = fig8_windows(&[
            pt(0.05, false),
            pt(0.25, true),
            pt(0.25, false),
            pt(0.9, true),
            pt(3.0, true),
        ]);
        assert_eq!(ws[0].count, 1);
        assert_eq!(ws[0].success_rate, 0.0);
        assert_eq!(ws[1].count, 2);
        assert_eq!(ws[1].success_rate, 0.5);
        assert_eq!(ws[4].count, 2);
        assert_eq!(ws[4].success_rate, 1.0);
    }

    #[test]
    fn boundary_goes_to_upper_bin() {
        let ws = fig8_windows(&[pt(0.2, true), pt(0.8, true)]);
        assert_eq!(ws[1].count, 1, "0.2 belongs to [0.2, 0.4)");
        assert_eq!(ws[4].count, 1, "0.8 belongs to 0.8+");
    }

    #[test]
    fn empty_bins_report_zero_rate() {
        let ws = fig8_windows(&[pt(0.1, true)]);
        assert_eq!(ws[2].count, 0);
        assert_eq!(ws[2].success_rate, 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_width_rejected() {
        let _ = effort_windows(&[], 0.0, 0.8);
    }
}
