//! Aggregation over sets of [`EpisodeRecord`]s — the quantities each figure
//! of the paper reports.

use crate::agg::{mean, BoxStats};
use drive_sim::record::EpisodeRecord;

/// Summary of a batch of episodes under one (agent, attacker, budget) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSummary {
    /// Box statistics of the nominal driving reward (Fig. 4a / Fig. 6).
    pub nominal: BoxStats,
    /// Box statistics of the cumulative adversarial reward (Fig. 4b).
    pub adversarial: BoxStats,
    /// Side-collision success rate (Section V / Fig. 8).
    pub success_rate: f64,
    /// Rate of any collision.
    pub collision_rate: f64,
    /// Mean NPC vehicles passed.
    pub mean_passed: f64,
    /// Mean trajectory-deviation RMSE.
    pub mean_deviation_rmse: f64,
    /// Mean attack effort.
    pub mean_effort: f64,
    /// Episode count.
    pub episodes: usize,
}

impl CellSummary {
    /// Aggregates a non-empty batch of records.
    ///
    /// # Panics
    ///
    /// Panics if `records` is empty.
    pub fn from_records(records: &[EpisodeRecord]) -> Self {
        assert!(!records.is_empty(), "cell summary needs records");
        let nominal: Vec<f64> = records.iter().map(|r| r.nominal_return).collect();
        let adversarial: Vec<f64> = records.iter().map(|r| r.adv_return).collect();
        let n = records.len() as f64;
        CellSummary {
            nominal: BoxStats::from_samples(&nominal),
            adversarial: BoxStats::from_samples(&adversarial),
            success_rate: records.iter().filter(|r| r.attack_success()).count() as f64 / n,
            collision_rate: records.iter().filter(|r| r.collision.is_some()).count() as f64 / n,
            mean_passed: mean(&records.iter().map(|r| r.passed as f64).collect::<Vec<_>>()),
            mean_deviation_rmse: mean(
                &records
                    .iter()
                    .map(|r| r.deviation_rmse())
                    .collect::<Vec<_>>(),
            ),
            mean_effort: mean(
                &records
                    .iter()
                    .map(|r| r.attack_effort())
                    .collect::<Vec<_>>(),
            ),
            episodes: records.len(),
        }
    }
}

/// One scatter point of Fig. 5 / Fig. 7: an episode's mean attack effort
/// against its trajectory-deviation RMSE, marked by attack success.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScatterPoint {
    /// Mean attack effort (x-axis).
    pub effort: f64,
    /// Deviation RMSE (y-axis).
    pub deviation_rmse: f64,
    /// Whether the episode ended in the attacker's side collision
    /// (red triangle vs black dot in the paper).
    pub success: bool,
}

/// Extracts the Fig. 5 / Fig. 7 scatter from records.
pub fn scatter_points(records: &[EpisodeRecord]) -> Vec<ScatterPoint> {
    records
        .iter()
        .map(|r| ScatterPoint {
            effort: r.attack_effort(),
            deviation_rmse: r.deviation_rmse(),
            success: r.attack_success(),
        })
        .collect()
}

/// The §V-B timing statistic: mean and minimum attack-to-collision time
/// over successful attacks, seconds. `None` when no attack succeeded.
pub fn time_to_collision_stats(records: &[EpisodeRecord]) -> Option<(f64, f64)> {
    let times: Vec<f64> = records
        .iter()
        .filter(|r| r.attack_success())
        .filter_map(|r| r.time_to_collision())
        .collect();
    if times.is_empty() {
        return None;
    }
    let min = times.iter().copied().fold(f64::INFINITY, f64::min);
    Some((mean(&times), min))
}

/// The effort level above which successful attacks dominate, in the
/// paper's windowed sense: points are binned into effort windows of width
/// 0.1, and the dominance threshold is the lower edge of the first window
/// from which every non-empty window has a success rate of at least
/// `threshold`. `None` when success never dominates.
pub fn dominance_threshold(points: &[ScatterPoint], threshold: f64) -> Option<f64> {
    if points.is_empty() {
        return None;
    }
    let width = 0.1;
    let max_effort = points.iter().map(|p| p.effort).fold(0.0f64, f64::max);
    let bins = ((max_effort / width).floor() as usize) + 1;
    let mut total = vec![0usize; bins];
    let mut wins = vec![0usize; bins];
    for p in points {
        let i = ((p.effort / width).floor() as usize).min(bins - 1);
        total[i] += 1;
        if p.success {
            wins[i] += 1;
        }
    }
    // Scan from the top down, keeping the longest suffix of windows that
    // all dominate (empty windows are neutral).
    let mut candidate = None;
    for i in (0..bins).rev() {
        if total[i] == 0 {
            continue;
        }
        let rate = wins[i] as f64 / total[i] as f64;
        if rate >= threshold {
            candidate = Some(i as f64 * width);
        } else {
            break;
        }
    }
    candidate
}

#[cfg(test)]
mod tests {
    use super::*;
    use drive_sim::world::{CollisionEvent, CollisionKind};

    fn rec(nominal: f64, adv: f64, side: bool) -> EpisodeRecord {
        EpisodeRecord {
            steps: 10,
            dt: 0.1,
            nominal_return: nominal,
            adv_return: adv,
            collision: side.then_some(CollisionEvent {
                kind: CollisionKind::Side,
                npc_index: Some(0),
                step: 5,
            }),
            attack_start: Some(2),
            deviation: vec![0.1; 10],
            perturbation: vec![0.5; 10],
            passed: 3,
            termination: None,
            nonfinite_actions: 0,
        }
    }

    #[test]
    fn cell_summary_aggregates() {
        let records = vec![rec(100.0, -1.0, false), rec(50.0, 20.0, true)];
        let c = CellSummary::from_records(&records);
        assert_eq!(c.episodes, 2);
        assert_eq!(c.success_rate, 0.5);
        assert_eq!(c.collision_rate, 0.5);
        assert_eq!(c.mean_passed, 3.0);
        assert!((c.nominal.mean - 75.0).abs() < 1e-12);
        assert!((c.mean_effort - 0.5).abs() < 1e-12);
    }

    #[test]
    fn scatter_marks_success() {
        let pts = scatter_points(&[rec(0.0, 0.0, true), rec(0.0, 0.0, false)]);
        assert!(pts[0].success);
        assert!(!pts[1].success);
        assert!((pts[0].deviation_rmse - 0.1).abs() < 1e-12);
    }

    #[test]
    fn ttc_stats_only_over_successes() {
        let records = vec![rec(0.0, 0.0, true), rec(0.0, 0.0, false)];
        let (mean_t, min_t) = time_to_collision_stats(&records).unwrap();
        // Collision at step 5, attack start 2, dt 0.1 → 0.3 s.
        assert!((mean_t - 0.3).abs() < 1e-12);
        assert!((min_t - 0.3).abs() < 1e-12);
        assert_eq!(time_to_collision_stats(&[rec(0.0, 0.0, false)]), None);
    }

    #[test]
    fn dominance_threshold_finds_crossover() {
        let pts = vec![
            ScatterPoint {
                effort: 0.11,
                deviation_rmse: 0.0,
                success: false,
            },
            ScatterPoint {
                effort: 0.31,
                deviation_rmse: 0.0,
                success: false,
            },
            ScatterPoint {
                effort: 0.51,
                deviation_rmse: 0.0,
                success: true,
            },
            ScatterPoint {
                effort: 0.71,
                deviation_rmse: 0.0,
                success: true,
            },
        ];
        let t = dominance_threshold(&pts, 0.5).unwrap();
        assert!((t - 0.5).abs() < 1e-9, "threshold {t}");
        assert_eq!(
            dominance_threshold(
                &[ScatterPoint {
                    effort: 0.2,
                    deviation_rmse: 0.0,
                    success: false
                }],
                0.5
            ),
            None
        );
        assert_eq!(dominance_threshold(&[], 0.5), None);
    }

    #[test]
    fn dominance_ignores_low_effort_successes_below_break() {
        // A lone early success does not extend the dominated suffix past a
        // failing window.
        let pts = vec![
            ScatterPoint {
                effort: 0.05,
                deviation_rmse: 0.0,
                success: true,
            },
            ScatterPoint {
                effort: 0.25,
                deviation_rmse: 0.0,
                success: false,
            },
            ScatterPoint {
                effort: 0.45,
                deviation_rmse: 0.0,
                success: true,
            },
        ];
        let t = dominance_threshold(&pts, 0.5).unwrap();
        assert!((t - 0.4).abs() < 1e-9, "threshold {t}");
    }
}
