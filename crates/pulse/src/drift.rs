//! Windowed mean/MAD change-point detection on telemetry series.
//!
//! The detector splits a signal's recent history into a **reference**
//! window (everything but the newest observations) and a **recent**
//! window (the newest `recent` observations). A least-squares line is
//! fitted over the reference window and extrapolated across the recent
//! positions; the change-point statistic is the recent mean's
//! deviation from that prediction in robust scale units:
//!
//! ```text
//! deviation = (mean(recent) − mean(predicted)) / scale
//! scale     = max(MAD(reference residuals),
//!                 |mean(predicted)| · rel_floor, abs_floor)
//! ```
//!
//! Fitting a trend rather than comparing levels matters for exactly
//! the signals this layer watches: a cumulative p99 climbs steadily as
//! the latency distribution fills in, and a level-shift rule would
//! page on every warm-up ramp. A trend continuing is not a change
//! point; a trend *breaking* — a throughput cliff, a latency knee —
//! is. MAD (median absolute deviation of the fit residuals) rather
//! than stddev so one earlier outlier cannot inflate the scale and
//! mask a real cliff, and the scale floors keep perfectly-flat
//! reference windows (MAD = 0 — common in a deterministic simulator)
//! from turning a 0.1% wiggle into an alert.
//!
//! Every input is a deterministic function of the virtual-cycle run
//! and the arithmetic is pure, so the alert sequence is replayable:
//! the same trace produces the same alerts at the same cycles, every
//! run — which is what lets a drift alert be a CI-checkable fact.

use std::collections::VecDeque;

/// Direction of a detected shift.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftDirection {
    /// Recent mean above the reference median.
    Up,
    /// Recent mean below the reference median.
    Down,
}

impl DriftDirection {
    /// Stable lower-case label.
    pub fn name(self) -> &'static str {
        match self {
            DriftDirection::Up => "up",
            DriftDirection::Down => "down",
        }
    }
}

/// One detected change point.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftAlert {
    /// Virtual cycle of the observation that tripped the rule.
    pub cycle: u64,
    /// Which way the signal moved.
    pub direction: DriftDirection,
    /// Deviation in scale units (always >= the threshold).
    pub deviation: f64,
    /// Recent-window mean that tripped the rule.
    pub measured: f64,
    /// What the reference-window trend predicted for the recent
    /// window.
    pub baseline: f64,
}

impl DriftAlert {
    /// `|deviation|` scaled by 1000 and saturated to u64 — the compact
    /// integer form journaled into the flight recorder.
    pub fn deviation_x1000(&self) -> u64 {
        let d = (self.deviation.abs() * 1000.0).round();
        if d >= u64::MAX as f64 {
            u64::MAX
        } else {
            d as u64
        }
    }
}

/// Window sizing and sensitivity for one detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftConfig {
    /// Observations in the reference window.
    pub reference: usize,
    /// Observations in the recent window.
    pub recent: usize,
    /// Deviation (in scale units) at which an alert fires.
    pub threshold: f64,
    /// Relative scale floor: scale is never below
    /// `|predicted| · rel_floor`.
    pub rel_floor: f64,
    /// Absolute scale floor.
    pub abs_floor: f64,
    /// Observations to suppress further alerts after one fires, so a
    /// sustained shift raises one alert, not one per observation.
    pub cooldown: usize,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            reference: 6,
            recent: 2,
            threshold: 4.0,
            rel_floor: 0.05,
            abs_floor: 1e-9,
            cooldown: 4,
        }
    }
}

/// Change-point detector for one signal.
#[derive(Debug, Clone)]
pub struct DriftDetector {
    signal: &'static str,
    config: DriftConfig,
    history: VecDeque<f64>,
    observations: u64,
    cooldown_left: usize,
    alerts: Vec<DriftAlert>,
}

impl DriftDetector {
    /// A detector for `signal` (a stable label like `throughput`).
    pub fn new(signal: &'static str, config: DriftConfig) -> Self {
        let config = DriftConfig {
            reference: config.reference.max(2),
            recent: config.recent.max(1),
            ..config
        };
        DriftDetector {
            signal,
            config,
            history: VecDeque::new(),
            observations: 0,
            cooldown_left: 0,
            alerts: Vec::new(),
        }
    }

    /// The signal label.
    pub fn signal(&self) -> &'static str {
        self.signal
    }

    /// Observations folded in so far.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Alerts raised so far, oldest first.
    pub fn alerts(&self) -> &[DriftAlert] {
        &self.alerts
    }

    /// Folds in one observation at `cycle`; returns the alert if this
    /// observation trips the rule.
    pub fn observe(&mut self, cycle: u64, value: f64) -> Option<DriftAlert> {
        self.observations += 1;
        self.history.push_back(value);
        let window = self.config.reference + self.config.recent;
        while self.history.len() > window {
            self.history.pop_front();
        }
        if self.cooldown_left > 0 {
            self.cooldown_left -= 1;
            return None;
        }
        if self.history.len() < window {
            return None;
        }
        let split = self.history.len() - self.config.recent;
        let reference: Vec<f64> = self.history.iter().take(split).copied().collect();
        let recent: Vec<f64> = self.history.iter().skip(split).copied().collect();
        // Fit y = a + b·x over the reference window (x = position),
        // then extrapolate across the recent positions: continuing a
        // trend is not a change point, breaking one is.
        let (a, b) = fit_line(&reference);
        let residuals: Vec<f64> = reference
            .iter()
            .enumerate()
            .map(|(x, v)| (v - (a + b * x as f64)).abs())
            .collect();
        let mad = median(&residuals);
        let baseline = recent
            .iter()
            .enumerate()
            .map(|(i, _)| a + b * (split + i) as f64)
            .sum::<f64>()
            / recent.len() as f64;
        let scale = mad
            .max(baseline.abs() * self.config.rel_floor)
            .max(self.config.abs_floor);
        let measured = recent.iter().sum::<f64>() / recent.len() as f64;
        let deviation = (measured - baseline) / scale;
        if deviation.abs() < self.config.threshold {
            return None;
        }
        let alert = DriftAlert {
            cycle,
            direction: if deviation >= 0.0 {
                DriftDirection::Up
            } else {
                DriftDirection::Down
            },
            deviation,
            measured,
            baseline,
        };
        self.cooldown_left = self.config.cooldown;
        self.alerts.push(alert.clone());
        Some(alert)
    }
}

/// Least-squares `(intercept, slope)` over `values` at positions
/// `0..n`. A single point fits a flat line through itself.
fn fit_line(values: &[f64]) -> (f64, f64) {
    let n = values.len() as f64;
    if values.len() < 2 {
        return (values.first().copied().unwrap_or(0.0), 0.0);
    }
    let mean_x = (n - 1.0) / 2.0;
    let mean_y = values.iter().sum::<f64>() / n;
    let (mut sxy, mut sxx) = (0.0, 0.0);
    for (x, v) in values.iter().enumerate() {
        let dx = x as f64 - mean_x;
        sxy += dx * (v - mean_y);
        sxx += dx * dx;
    }
    let slope = if sxx > 0.0 { sxy / sxx } else { 0.0 };
    (mean_y - slope * mean_x, slope)
}

/// Lower median (element at rank `ceil(n/2)`), deterministic for any
/// finite input. Returns 0 for an empty slice.
fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("drift signals are finite"));
    sorted[(sorted.len() - 1) / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> DriftConfig {
        DriftConfig {
            reference: 4,
            recent: 2,
            threshold: 4.0,
            cooldown: 3,
            ..DriftConfig::default()
        }
    }

    #[test]
    fn steady_signal_never_alerts() {
        let mut d = DriftDetector::new("throughput", config());
        for i in 0..50u64 {
            // Small deterministic wiggle around 100.
            let v = 100.0 + (i % 3) as f64;
            assert!(d.observe(i * 10, v).is_none(), "no alert at i={i}");
        }
        assert!(d.alerts().is_empty());
        assert_eq!(d.observations(), 50);
    }

    #[test]
    fn cliff_is_flagged_once_with_direction() {
        let mut d = DriftDetector::new("throughput", config());
        for i in 0..10u64 {
            d.observe(i * 10, 100.0);
        }
        let mut fired = Vec::new();
        for i in 10..16u64 {
            if let Some(a) = d.observe(i * 10, 10.0) {
                fired.push(a);
            }
        }
        assert_eq!(fired.len(), 1, "cooldown suppresses repeats: {fired:?}");
        let a = &fired[0];
        assert_eq!(a.direction, DriftDirection::Down);
        assert!(a.deviation < -4.0);
        assert_eq!(a.baseline, 100.0);
        assert!(a.deviation_x1000() >= 4000);
        assert_eq!(d.alerts().len(), 1);
    }

    #[test]
    fn steady_ramp_is_trend_not_drift() {
        // Cumulative-p99-style warm-up: a clean linear climb. The
        // trend fit predicts the continuation, so no alert — but a
        // cliff off the ramp still fires.
        let mut d = DriftDetector::new("p99_latency", config());
        for i in 0..30u64 {
            let v = 1_000.0 + 200.0 * i as f64;
            assert!(d.observe(i, v).is_none(), "ramp must not alert at i={i}");
        }
        let alert = (30..36u64)
            .find_map(|i| d.observe(i, 500.0))
            .expect("cliff fires");
        assert_eq!(alert.direction, DriftDirection::Down);
        assert!(alert.baseline > 6_000.0, "prediction follows the ramp");
    }

    #[test]
    fn upward_shift_flags_up() {
        let mut d = DriftDetector::new("p99_latency", config());
        for i in 0..8u64 {
            d.observe(i, 50.0);
        }
        let alert = (8..12u64).find_map(|i| d.observe(i, 500.0)).expect("alert");
        assert_eq!(alert.direction, DriftDirection::Up);
        assert_eq!(alert.direction.name(), "up");
    }

    #[test]
    fn flat_zero_reference_needs_absolute_move() {
        // MAD = 0 and median = 0: the absolute floor keeps tiny noise
        // quiet but a real move still fires.
        let mut d = DriftDetector::new("shed_ratio", config());
        for i in 0..8u64 {
            d.observe(i, 0.0);
        }
        assert!(
            d.observe(8, 0.5).is_some(),
            "real shift over zero baseline fires"
        );
    }

    #[test]
    fn alert_sequence_is_deterministic() {
        let run = || {
            let mut d = DriftDetector::new("throughput", config());
            let mut out = Vec::new();
            for i in 0..40u64 {
                let v = if i < 20 { 200.0 } else { 20.0 };
                if let Some(a) = d.observe(i * 7, v) {
                    out.push((a.cycle, a.direction.name(), a.deviation_x1000()));
                }
            }
            out
        };
        let a = run();
        assert_eq!(a, run());
        assert!(!a.is_empty());
    }
}
