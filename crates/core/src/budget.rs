//! The attack budget `epsilon` (Section IV-C).
//!
//! The attacker's raw policy output lies in `[-1, 1]`; the budget scales it
//! to the injected perturbation `delta in [-epsilon, epsilon]`. The paper
//! sweeps budgets from 0 (no attack) up to 1.2 (beyond the mechanical
//! variation limit — excess is absorbed by the simulator's clamp).

/// A non-negative attack budget.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct AttackBudget(f64);

impl AttackBudget {
    /// Zero budget: the nominal, unattacked case.
    pub const ZERO: AttackBudget = AttackBudget(0.0);

    /// Creates a budget.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is negative or not finite.
    pub fn new(epsilon: f64) -> Self {
        assert!(
            epsilon >= 0.0 && epsilon.is_finite(),
            "attack budget must be a non-negative finite number, got {epsilon}"
        );
        AttackBudget(epsilon)
    }

    /// The raw `epsilon` value.
    pub fn epsilon(self) -> f64 {
        self.0
    }

    /// Whether this is the nominal (no-attack) case.
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }

    /// Scales a raw policy output in `[-1, 1]` to a perturbation
    /// `delta in [-epsilon, epsilon]`.
    pub fn scale(self, raw: f64) -> f64 {
        self.0 * raw.clamp(-1.0, 1.0)
    }

    /// The paper's Fig. 4 budget grid: `{0, 0.25, 0.5, 0.75, 1.0}`.
    pub fn fig4_grid() -> Vec<AttackBudget> {
        [0.0, 0.25, 0.5, 0.75, 1.0]
            .into_iter()
            .map(AttackBudget::new)
            .collect()
    }

    /// The paper's Fig. 5 budget sweep: `0.0..=1.2` in steps of `0.1`.
    pub fn fig5_grid() -> Vec<AttackBudget> {
        (0..=12)
            .map(|i| AttackBudget::new(i as f64 * 0.1))
            .collect()
    }

    /// The adversarial-training grid of Section VI-A: `0.0..=1.0` in steps
    /// of `0.1`.
    pub fn training_grid() -> Vec<AttackBudget> {
        (0..=10)
            .map(|i| AttackBudget::new(i as f64 * 0.1))
            .collect()
    }
}

impl std::fmt::Display for AttackBudget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.2}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_clamps_and_scales() {
        let b = AttackBudget::new(0.5);
        assert_eq!(b.scale(1.0), 0.5);
        assert_eq!(b.scale(2.0), 0.5);
        assert_eq!(b.scale(-0.5), -0.25);
        assert_eq!(AttackBudget::ZERO.scale(1.0), 0.0);
    }

    #[test]
    fn grids_match_paper() {
        assert_eq!(AttackBudget::fig4_grid().len(), 5);
        assert_eq!(AttackBudget::fig5_grid().len(), 13);
        assert!((AttackBudget::fig5_grid()[12].epsilon() - 1.2).abs() < 1e-12);
        assert_eq!(AttackBudget::training_grid().len(), 11);
    }

    #[test]
    fn zero_detection() {
        assert!(AttackBudget::ZERO.is_zero());
        assert!(!AttackBudget::new(0.1).is_zero());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_budget_rejected() {
        let _ = AttackBudget::new(-0.1);
    }
}
