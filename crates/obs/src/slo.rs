//! Declarative SLO rules and the multi-window burn-rate engine.
//!
//! Rules are parsed from one-line declarations:
//!
//! ```text
//! tenant0.p99_latency_cycles <= 40000000
//! tenant1.shed_ratio <= 0.35
//! fleet.correctness
//! ```
//!
//! The engine is fed periodic [`cim_metrics::Snapshot`]s (plus
//! [`SloInputs`] for signals that live outside the metrics registry,
//! like the load generator's gold-model verification count). Each
//! observation computes the rule's **burn rate** — measured value
//! divided by threshold, so `1.0` means "exactly at the objective" —
//! and folds it into a short and a long rolling window. States:
//!
//! - `page` when the short window burns at ≥ the page multiplier *and*
//!   the long window is at or above the objective (the classic
//!   fast+slow burn-rate pair, which ignores one-observation blips but
//!   catches sustained fast burns), or when the rule is hard-violated
//!   (any incorrect result);
//! - `warn` when the short window is at or above the warn multiplier;
//! - `ok` otherwise.
//!
//! Because the snapshots are deterministic, so is every verdict: the
//! same request trace produces the same `ok`/`warn`/`page` sequence on
//! every run, which is what lets the load generator turn a `page`
//! state into a deterministic nonzero exit code.

use std::collections::VecDeque;
use std::fmt;

use cim_metrics::{Labels, MetricValue, Snapshot};
use cim_trace::json::JsonWriter;

use crate::journal::{FlightRecorder, ObsEventKind};

/// Serve-layer metric families the engine reads. Kept as constants
/// here so `cim-obs` does not depend on `cim-serve` (the dependency
/// points the other way).
pub const LATENCY_FAMILY: &str = "cim_serve_latency_cycles";
/// Requests-by-outcome counter family.
pub const REQUESTS_FAMILY: &str = "cim_serve_requests_total";
/// Sheds-by-reason counter family.
pub const SHED_FAMILY: &str = "cim_serve_shed_total";
/// Pulse-layer drift-alert counter family (published by `cim-pulse`;
/// a constant here for the same reason as the serve families — the
/// dependency points from pulse to obs, not the reverse).
pub const DRIFT_ALERTS_FAMILY: &str = "cim_pulse_drift_alerts_total";

/// Burn rates are capped here so hard violations (correctness) stay
/// finite and JSON-serializable while still exceeding any sane page
/// multiplier.
pub const BURN_CAP: f64 = 1e9;

/// What a rule measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SloKind {
    /// Tenant p99 end-to-end latency must stay at or below the given
    /// virtual-cycle budget.
    P99LatencyCycles(u64),
    /// Tenant shed ratio (`shed / submitted`) must stay at or below
    /// the given fraction.
    ShedRatio(f64),
    /// No incorrect results, ever. Hard-violates on the first one.
    Correctness,
    /// Pulse drift alerts (summed across signals) must stay at or
    /// below the given count. A bound of 0 hard-violates on the first
    /// alert.
    DriftAlerts(u64),
}

/// One declarative SLO rule: a subject (tenant name, or any label the
/// operator chooses for fleet-wide rules) and a [`SloKind`].
#[derive(Debug, Clone, PartialEq)]
pub struct SloRule {
    /// Tenant the rule applies to (`fleet` by convention for
    /// tenant-agnostic rules like correctness).
    pub tenant: String,
    /// Measured quantity and threshold.
    pub kind: SloKind,
}

impl SloRule {
    /// Parses a one-line rule declaration; see the module docs for the
    /// grammar.
    pub fn parse(s: &str) -> Result<SloRule, String> {
        let s = s.trim();
        let (subject, rest) = s
            .split_once('.')
            .ok_or_else(|| format!("rule `{s}`: expected `<tenant>.<objective>`"))?;
        if subject.is_empty() {
            return Err(format!("rule `{s}`: empty tenant"));
        }
        let rest = rest.trim();
        if rest == "correctness" {
            return Ok(SloRule {
                tenant: subject.to_string(),
                kind: SloKind::Correctness,
            });
        }
        let (objective, bound) = rest
            .split_once("<=")
            .ok_or_else(|| format!("rule `{s}`: expected `<objective> <= <bound>`"))?;
        let bound = bound.trim();
        match objective.trim() {
            "p99_latency_cycles" => bound
                .parse::<u64>()
                .map(|b| SloRule {
                    tenant: subject.to_string(),
                    kind: SloKind::P99LatencyCycles(b),
                })
                .map_err(|e| format!("rule `{s}`: bad cycle bound: {e}")),
            "drift_alerts" => bound
                .parse::<u64>()
                .map(|b| SloRule {
                    tenant: subject.to_string(),
                    kind: SloKind::DriftAlerts(b),
                })
                .map_err(|e| format!("rule `{s}`: bad alert bound: {e}")),
            "shed_ratio" => bound
                .parse::<f64>()
                .map_err(|e| format!("rule `{s}`: bad ratio bound: {e}"))
                .and_then(|b| {
                    if (0.0..=1.0).contains(&b) {
                        Ok(SloRule {
                            tenant: subject.to_string(),
                            kind: SloKind::ShedRatio(b),
                        })
                    } else {
                        Err(format!("rule `{s}`: ratio bound must be in [0,1]"))
                    }
                }),
            other => Err(format!("rule `{s}`: unknown objective `{other}`")),
        }
    }

    /// Short machine-friendly objective label.
    pub fn objective(&self) -> &'static str {
        match self.kind {
            SloKind::P99LatencyCycles(_) => "p99_latency_cycles",
            SloKind::ShedRatio(_) => "shed_ratio",
            SloKind::Correctness => "correctness",
            SloKind::DriftAlerts(_) => "drift_alerts",
        }
    }
}

impl fmt::Display for SloRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            SloKind::P99LatencyCycles(b) => {
                write!(f, "{}.p99_latency_cycles <= {b}", self.tenant)
            }
            SloKind::ShedRatio(b) => write!(f, "{}.shed_ratio <= {b}", self.tenant),
            SloKind::Correctness => write!(f, "{}.correctness", self.tenant),
            SloKind::DriftAlerts(b) => write!(f, "{}.drift_alerts <= {b}", self.tenant),
        }
    }
}

/// Burn-rate state of one rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SloState {
    /// Burning at or below the objective.
    Ok,
    /// Short-window burn at or above the warn multiplier.
    Warn,
    /// Sustained fast burn (short ≥ page multiplier, long ≥ 1) or a
    /// hard violation.
    Page,
}

impl SloState {
    /// Stable lower-case label.
    pub fn name(self) -> &'static str {
        match self {
            SloState::Ok => "ok",
            SloState::Warn => "warn",
            SloState::Page => "page",
        }
    }

    /// Numeric encoding for gauges: 0 / 1 / 2.
    pub fn code(self) -> u8 {
        match self {
            SloState::Ok => 0,
            SloState::Warn => 1,
            SloState::Page => 2,
        }
    }
}

/// Signals the metrics registry does not carry.
#[derive(Debug, Clone, Copy, Default)]
pub struct SloInputs {
    /// Results the gold-model verifier rejected so far.
    pub incorrect: u64,
}

/// Window sizing and multipliers for the burn-rate evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurnWindows {
    /// Observations in the short (fast-burn) window.
    pub short_obs: usize,
    /// Observations in the long (sustain) window.
    pub long_obs: usize,
    /// Short-window burn multiple that raises `warn`.
    pub warn: f64,
    /// Short-window burn multiple that (with long ≥ 1) raises `page`.
    pub page: f64,
}

impl Default for BurnWindows {
    fn default() -> Self {
        BurnWindows {
            short_obs: 6,
            long_obs: 30,
            warn: 1.0,
            page: 2.0,
        }
    }
}

/// One rule's current verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct SloVerdict {
    /// The rule, rendered back to its declaration form.
    pub rule: String,
    /// Tenant the rule applies to.
    pub tenant: String,
    /// Objective label.
    pub objective: &'static str,
    /// Latest measured value (cycles, ratio, or incorrect count).
    pub measured: f64,
    /// The rule's threshold (0 for correctness).
    pub threshold: f64,
    /// Mean burn over the short window.
    pub short_burn: f64,
    /// Mean burn over the long window.
    pub long_burn: f64,
    /// Resulting state.
    pub state: SloState,
}

/// Evaluates a rule set over successive metric snapshots.
#[derive(Debug)]
pub struct SloEngine {
    rules: Vec<SloRule>,
    windows: BurnWindows,
    history: Vec<VecDeque<f64>>,
    verdicts: Vec<SloVerdict>,
    observations: u64,
}

impl SloEngine {
    /// An engine over `rules` with default [`BurnWindows`].
    pub fn new(rules: Vec<SloRule>) -> Self {
        SloEngine::with_windows(rules, BurnWindows::default())
    }

    /// An engine with explicit window sizing.
    pub fn with_windows(rules: Vec<SloRule>, windows: BurnWindows) -> Self {
        let windows = BurnWindows {
            short_obs: windows.short_obs.max(1),
            long_obs: windows.long_obs.max(windows.short_obs.max(1)),
            ..windows
        };
        let history = rules.iter().map(|_| VecDeque::new()).collect();
        let verdicts = rules
            .iter()
            .map(|r| SloVerdict {
                rule: r.to_string(),
                tenant: r.tenant.clone(),
                objective: r.objective(),
                measured: 0.0,
                threshold: match r.kind {
                    SloKind::P99LatencyCycles(b) => b as f64,
                    SloKind::ShedRatio(b) => b,
                    SloKind::Correctness => 0.0,
                    SloKind::DriftAlerts(b) => b as f64,
                },
                short_burn: 0.0,
                long_burn: 0.0,
                state: SloState::Ok,
            })
            .collect();
        SloEngine {
            rules,
            windows,
            history,
            verdicts,
            observations: 0,
        }
    }

    /// The rule set.
    pub fn rules(&self) -> &[SloRule] {
        &self.rules
    }

    /// Latest verdicts, one per rule (all `ok` before the first
    /// observation).
    pub fn verdicts(&self) -> &[SloVerdict] {
        &self.verdicts
    }

    /// Observations folded in so far.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Whether any rule currently pages.
    pub fn any_page(&self) -> bool {
        self.verdicts.iter().any(|v| v.state == SloState::Page)
    }

    fn measure(rule: &SloRule, snapshot: &Snapshot, inputs: &SloInputs) -> (f64, f64) {
        match rule.kind {
            SloKind::P99LatencyCycles(bound) => {
                let labels = Labels::new().with("tenant", &rule.tenant);
                let p99 = snapshot
                    .histogram_with(LATENCY_FAMILY, &labels)
                    .map_or(0.0, |h| h.p99() as f64);
                (p99, ratio_burn(p99, bound as f64))
            }
            SloKind::ShedRatio(bound) => {
                let shed = sum_for_tenant(snapshot, SHED_FAMILY, &rule.tenant);
                let total = sum_for_tenant(snapshot, REQUESTS_FAMILY, &rule.tenant);
                let ratio = if total > 0.0 { shed / total } else { 0.0 };
                (ratio, ratio_burn(ratio, bound))
            }
            SloKind::Correctness => {
                let incorrect = inputs.incorrect as f64;
                (incorrect, if inputs.incorrect > 0 { BURN_CAP } else { 0.0 })
            }
            SloKind::DriftAlerts(bound) => {
                // Sum across every signal series the pulse layer
                // publishes; drift alerts are fleet-wide, so the
                // rule's subject is a naming convention, not a label
                // filter.
                let alerts = snapshot.family(DRIFT_ALERTS_FAMILY).map_or(0.0, |f| {
                    f.samples
                        .iter()
                        .map(|s| match &s.value {
                            MetricValue::Number(v) => *v,
                            MetricValue::Histogram(_) => 0.0,
                        })
                        .sum()
                });
                (alerts, ratio_burn(alerts, bound as f64))
            }
        }
    }

    /// Folds one snapshot into every rule's windows, updates verdicts,
    /// and journals state transitions into `recorder` (pass
    /// [`FlightRecorder::disabled`] to skip).
    pub fn observe(
        &mut self,
        cycle: u64,
        snapshot: &Snapshot,
        inputs: &SloInputs,
        recorder: &FlightRecorder,
    ) -> &[SloVerdict] {
        self.observations += 1;
        for (i, rule) in self.rules.iter().enumerate() {
            let (measured, burn) = SloEngine::measure(rule, snapshot, inputs);
            let window = &mut self.history[i];
            window.push_back(burn);
            while window.len() > self.windows.long_obs {
                window.pop_front();
            }
            let short_n = self.windows.short_obs.min(window.len());
            let short_burn = window.iter().rev().take(short_n).sum::<f64>() / short_n as f64;
            let long_burn = window.iter().sum::<f64>() / window.len() as f64;
            let state = if burn >= BURN_CAP || (short_burn >= self.windows.page && long_burn >= 1.0)
            {
                SloState::Page
            } else if short_burn >= self.windows.warn {
                SloState::Warn
            } else {
                SloState::Ok
            };
            let v = &mut self.verdicts[i];
            if state != v.state {
                recorder.record(
                    cycle,
                    ObsEventKind::SloTransition {
                        rule: i as u16,
                        state: state.code(),
                    },
                );
            }
            v.measured = measured;
            v.short_burn = short_burn.min(BURN_CAP);
            v.long_burn = long_burn.min(BURN_CAP);
            v.state = state;
        }
        &self.verdicts
    }

    /// Publishes every rule's state and burn rates as `cim_obs_*`
    /// gauges.
    pub fn publish_metrics(&self, hub: &cim_metrics::MetricsHub) {
        crate::metrics::publish_slo(hub, &self.verdicts);
    }

    /// Serializes the verdicts into `w` as an array of objects.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.open_array();
        for v in &self.verdicts {
            w.open_object()
                .field_str("rule", &v.rule)
                .field_str("tenant", &v.tenant)
                .field_str("objective", v.objective)
                .field_float("measured", v.measured)
                .field_float("threshold", v.threshold)
                .field_float("short_burn", v.short_burn)
                .field_float("long_burn", v.long_burn)
                .field_str("state", v.state.name());
            w.close_object();
        }
        w.close_array();
    }
}

fn ratio_burn(measured: f64, bound: f64) -> f64 {
    if bound > 0.0 {
        (measured / bound).min(BURN_CAP)
    } else if measured > 0.0 {
        BURN_CAP
    } else {
        0.0
    }
}

/// Sums every series of counter family `family` whose `tenant` label
/// equals `tenant`, across all other labels (outcome, reason, op).
fn sum_for_tenant(snapshot: &Snapshot, family: &str, tenant: &str) -> f64 {
    snapshot.family(family).map_or(0.0, |f| {
        f.samples
            .iter()
            .filter(|s| s.labels.get("tenant") == Some(tenant))
            .map(|s| match &s.value {
                MetricValue::Number(v) => *v,
                MetricValue::Histogram(_) => 0.0,
            })
            .sum()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_metrics::MetricsHub;

    fn hub_with(tenant: &str, requests: u64, sheds: u64, latencies: &[u64]) -> MetricsHub {
        let hub = MetricsHub::recording();
        hub.add_counter(
            REQUESTS_FAMILY,
            "",
            &Labels::new()
                .with("tenant", tenant)
                .with("op", "mul")
                .with("outcome", "ok"),
            requests as f64,
        );
        if sheds > 0 {
            hub.add_counter(
                SHED_FAMILY,
                "",
                &Labels::new()
                    .with("tenant", tenant)
                    .with("reason", "rate_limited"),
                sheds as f64,
            );
        }
        for &l in latencies {
            hub.observe(LATENCY_FAMILY, "", &Labels::new().with("tenant", tenant), l);
        }
        hub
    }

    #[test]
    fn parse_round_trips() {
        for decl in [
            "tenant0.p99_latency_cycles <= 40000000",
            "tenant1.shed_ratio <= 0.35",
            "fleet.correctness",
            "fleet.drift_alerts <= 0",
            "fleet.drift_alerts <= 3",
        ] {
            let rule = SloRule::parse(decl).unwrap();
            assert_eq!(rule.to_string(), decl);
        }
        assert!(SloRule::parse("nodot").is_err());
        assert!(SloRule::parse("t.p99_latency_cycles <= nan").is_err());
        assert!(SloRule::parse("t.shed_ratio <= 1.5").is_err());
        assert!(SloRule::parse("t.made_up <= 1").is_err());
        assert!(SloRule::parse(".correctness").is_err());
    }

    #[test]
    fn healthy_tenant_stays_ok() {
        let hub = hub_with("t0", 100, 0, &[1_000, 2_000, 3_000]);
        let mut engine = SloEngine::new(vec![
            SloRule::parse("t0.p99_latency_cycles <= 1000000").unwrap(),
            SloRule::parse("t0.shed_ratio <= 0.5").unwrap(),
            SloRule::parse("fleet.correctness").unwrap(),
        ]);
        let snap = hub.snapshot();
        let verdicts = engine
            .observe(0, &snap, &SloInputs::default(), &FlightRecorder::disabled())
            .to_vec();
        assert!(verdicts.iter().all(|v| v.state == SloState::Ok));
        assert!(!engine.any_page());
    }

    #[test]
    fn sustained_fast_burn_pages_blip_does_not() {
        let windows = BurnWindows {
            short_obs: 3,
            long_obs: 6,
            warn: 1.0,
            page: 2.0,
        };
        let slow = hub_with("t0", 10, 0, &[5_000_000]).snapshot();
        let fast = hub_with("t0", 10, 0, &[100]).snapshot();
        let rule = SloRule::parse("t0.p99_latency_cycles <= 1000000").unwrap();
        let rec = FlightRecorder::disabled();

        // One slow observation among fast ones: warn at worst, no page.
        let mut blip = SloEngine::with_windows(vec![rule.clone()], windows);
        blip.observe(0, &fast, &SloInputs::default(), &rec);
        blip.observe(1, &slow, &SloInputs::default(), &rec);
        blip.observe(2, &fast, &SloInputs::default(), &rec);
        assert_ne!(blip.verdicts()[0].state, SloState::Page);

        // Sustained 5x burn: short and long windows both exceed, page.
        let mut sustained = SloEngine::with_windows(vec![rule], windows);
        for i in 0..4 {
            sustained.observe(i, &slow, &SloInputs::default(), &rec);
        }
        assert_eq!(sustained.verdicts()[0].state, SloState::Page);
        assert!(sustained.any_page());
    }

    #[test]
    fn correctness_hard_violates_immediately() {
        let snap = Snapshot::default();
        let mut engine = SloEngine::new(vec![SloRule::parse("fleet.correctness").unwrap()]);
        let rec = FlightRecorder::new(crate::journal::RecorderConfig::default());
        engine.observe(0, &snap, &SloInputs { incorrect: 0 }, &rec);
        assert_eq!(engine.verdicts()[0].state, SloState::Ok);
        engine.observe(1, &snap, &SloInputs { incorrect: 1 }, &rec);
        assert_eq!(engine.verdicts()[0].state, SloState::Page);
        // The transition was journaled.
        let events = rec.events();
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, ObsEventKind::SloTransition { state: 2, .. })));
    }

    #[test]
    fn shed_ratio_sums_across_reasons_and_outcomes() {
        let hub = hub_with("t0", 60, 0, &[]);
        // Second outcome series for the same tenant plus two shed reasons.
        hub.add_counter(
            REQUESTS_FAMILY,
            "",
            &Labels::new()
                .with("tenant", "t0")
                .with("op", "mul")
                .with("outcome", "shed"),
            40.0,
        );
        hub.add_counter(
            SHED_FAMILY,
            "",
            &Labels::new()
                .with("tenant", "t0")
                .with("reason", "rate_limited"),
            30.0,
        );
        hub.add_counter(
            SHED_FAMILY,
            "",
            &Labels::new()
                .with("tenant", "t0")
                .with("reason", "queue_full"),
            10.0,
        );
        // Another tenant's sheds must not leak in.
        hub.add_counter(
            SHED_FAMILY,
            "",
            &Labels::new()
                .with("tenant", "t1")
                .with("reason", "rate_limited"),
            99.0,
        );
        let mut engine = SloEngine::new(vec![SloRule::parse("t0.shed_ratio <= 0.5").unwrap()]);
        engine.observe(
            0,
            &hub.snapshot(),
            &SloInputs::default(),
            &FlightRecorder::disabled(),
        );
        let v = &engine.verdicts()[0];
        assert!((v.measured - 0.4).abs() < 1e-12, "40 sheds / 100 requests");
        assert_eq!(v.state, SloState::Ok);
    }

    #[test]
    fn drift_alert_rule_sums_the_pulse_family() {
        let hub = MetricsHub::recording();
        hub.set_gauge(
            DRIFT_ALERTS_FAMILY,
            "",
            &Labels::new().with("signal", "throughput"),
            2.0,
        );
        hub.set_gauge(
            DRIFT_ALERTS_FAMILY,
            "",
            &Labels::new().with("signal", "p99_latency"),
            1.0,
        );
        let mut engine = SloEngine::new(vec![
            SloRule::parse("fleet.drift_alerts <= 4").unwrap(),
            SloRule::parse("fleet.drift_alerts <= 0").unwrap(),
        ]);
        engine.observe(
            0,
            &hub.snapshot(),
            &SloInputs::default(),
            &FlightRecorder::disabled(),
        );
        let v = engine.verdicts();
        assert_eq!(v[0].measured, 3.0, "sums across signal series");
        assert_eq!(v[0].state, SloState::Ok);
        assert_eq!(v[1].state, SloState::Page, "zero bound hard-violates");
    }

    #[test]
    fn verdicts_serialize_to_valid_json() {
        let mut engine = SloEngine::new(vec![
            SloRule::parse("t0.shed_ratio <= 0.5").unwrap(),
            SloRule::parse("fleet.correctness").unwrap(),
        ]);
        engine.observe(
            0,
            &Snapshot::default(),
            &SloInputs { incorrect: 2 },
            &FlightRecorder::disabled(),
        );
        let mut w = JsonWriter::new();
        engine.write_json(&mut w);
        let s = w.finish();
        cim_trace::json::check(&s).unwrap();
        assert!(s.contains("\"state\":\"page\""));
        assert!(s.contains("\"objective\":\"shed_ratio\""));
    }
}
