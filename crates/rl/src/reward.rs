//! Reward shaping (Section 5.3.2): an immediate step reward equal to the
//! relative cost improvement, plus a terminal reward proportional to the
//! total end-to-end improvement.

/// Configuration of the reward signal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RewardConfig {
    /// Whether the step (immediate) reward is emitted.
    pub use_step_reward: bool,
    /// Whether the terminal reward is emitted at the end of the episode.
    pub use_terminal_reward: bool,
    /// Scale of the terminal reward (the paper multiplies the relative
    /// improvement by 100).
    pub terminal_scale: f64,
    /// Penalty for selecting an action that does not apply.
    pub invalid_penalty: f64,
}

impl Default for RewardConfig {
    fn default() -> Self {
        RewardConfig {
            use_step_reward: true,
            use_terminal_reward: true,
            terminal_scale: 100.0,
            invalid_penalty: -0.05,
        }
    }
}

impl RewardConfig {
    /// The step-only ablation configuration (Figure 9).
    pub fn step_only() -> Self {
        RewardConfig {
            use_terminal_reward: false,
            ..RewardConfig::default()
        }
    }

    /// `R_step = (C_t - C_{t+1}) / C_t`.
    pub fn step(&self, cost_before: f64, cost_after: f64) -> f64 {
        if !self.use_step_reward || cost_before <= 0.0 {
            return 0.0;
        }
        (cost_before - cost_after) / cost_before
    }

    /// `R_final = (C_initial - C_final) / C_initial × terminal_scale`.
    pub fn terminal(&self, initial_cost: f64, final_cost: f64) -> f64 {
        if !self.use_terminal_reward || initial_cost <= 0.0 {
            return 0.0;
        }
        (initial_cost - final_cost) / initial_cost * self.terminal_scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_reward_is_the_relative_improvement() {
        let r = RewardConfig::default();
        assert!((r.step(200.0, 150.0) - 0.25).abs() < 1e-12);
        assert!(
            r.step(100.0, 120.0) < 0.0,
            "cost increases give negative reward"
        );
        assert_eq!(
            r.step(0.0, 10.0),
            0.0,
            "degenerate zero-cost programs give no signal"
        );
    }

    #[test]
    fn terminal_reward_scales_the_total_improvement() {
        let r = RewardConfig::default();
        assert!((r.terminal(400.0, 100.0) - 75.0).abs() < 1e-12);
    }

    #[test]
    fn step_only_configuration_disables_the_terminal_reward() {
        let r = RewardConfig::step_only();
        assert_eq!(r.terminal(400.0, 100.0), 0.0);
        assert!(r.step(400.0, 100.0) > 0.0);
    }

    #[test]
    fn invalid_penalty_is_negative() {
        assert!(RewardConfig::default().invalid_penalty < 0.0);
    }
}
