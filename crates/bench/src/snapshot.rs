//! Benchmark snapshots and the regression gate.
//!
//! A [`BenchSnapshot`] is a deterministic record of a fixed workload
//! matrix — simulated multiplications at 512/1024/2048 bits, the
//! bit-sliced batch, the Fig. 5 pipeline at 2048×8 jobs, a 4-tile
//! wear-leveling farm and the serving fleet with and without its
//! observers — with one flat `name → value` metric map per workload
//! (cycles, writes, energy in picojoules, utilization, decisions,
//! served counts). Every metric is bit-deterministic: regenerating
//! the snapshot on any machine reproduces the committed numbers
//! exactly, so the gate demands *exact* equality. Host time is not
//! recorded here; the `perfbench` benchmark measures it over repeated
//! warm runs.
//!
//! [`diff`] compares two snapshots under [`DiffOptions`]:
//!
//! * every metric — exact (`f64` equality; the JSON round-trip is
//!   lossless);
//! * [`RETIRED_METRICS`] that older baselines still carry are listed
//!   as retired and not gated;
//! * workloads missing from the current snapshot regress unless
//!   `allow_subset` is set (used to gate a `--quick` run against the
//!   committed full snapshot); `subset_patterns` keeps selected
//!   workload families required even then;
//! * with `allow_improvement` (the `bench_check --improved`
//!   cross-snapshot mode), exact *cost* metrics — cycles, writes,
//!   energy, latency percentiles — may move *down* (labeled
//!   `improved`) but still regress when they move up; all other exact
//!   metrics keep demanding equality in both directions.
//!
//! The `bench_snapshot` binary writes the snapshot (and optionally the
//! Prometheus exposition of the run's metrics hub); `bench_check`
//! diffs two snapshot files and exits nonzero on regression.

use cim_bigint::rng::UintRng;
use cim_crossbar::EnergyParams;
use cim_metrics::MetricsHub;
use cim_mir::OptLevel;
use cim_obs::journal::{FlightRecorder, RecorderConfig};
use cim_obs::slo::{SloEngine, SloRule};
use cim_pulse::{PulseConfig, PulseHub};
use cim_sched::{FarmConfig, JobMix, JobProfile, Policy, Scheduler};
use cim_serve::loadgen::{run, LoadgenConfig, Observers};
use cim_serve::FleetConfig as ServeFleetConfig;
use cim_trace::json::JsonWriter;
use cim_trace::json::{self, JsonValue};
use karatsuba_cim::cost::HANDOFF_CYCLES;
use karatsuba_cim::multiplier::KaratsubaCimMultiplier;
use karatsuba_cim::multiply::MultiplyStage;
use karatsuba_cim::pipeline::PipelineSchedule;
use karatsuba_cim::postcompute::PostcomputeStage;
use karatsuba_cim::precompute::PrecomputeStage;
use std::collections::BTreeMap;

/// Schema marker embedded in every snapshot file.
pub const SNAPSHOT_SCHEMA: &str = "cim-bench-snapshot/1";

/// Metrics that older snapshots carry but the gate no longer checks:
/// the host wall times of every workload and the ratios derived from
/// them (the batch-vs-solo speedup and its `> 10` bit, the obs/pulse
/// overhead ratios). Each came from one cold sample per run, which
/// cannot carry a speed claim; host speed is measured by the
/// `perfbench` benchmark over repeated warm runs instead. Lineage
/// checks and trajectory deltas skip them too.
pub const RETIRED_METRICS: [&str; 11] = [
    "wall_ms",
    "single_wall_ms",
    "batch_wall_ms",
    "obs_off_wall_ms",
    "obs_on_wall_ms",
    "obs_overhead_speedup_x",
    "pulse_off_wall_ms",
    "pulse_on_wall_ms",
    "pulse_overhead_speedup_x",
    "wall_speedup_x",
    "meets_10x",
];

/// Operand widths of the full multiplication matrix.
pub const FULL_WIDTHS: [usize; 3] = [512, 1024, 2048];

/// Operand widths of the `--quick` matrix (a strict subset of
/// [`FULL_WIDTHS`]; shared workloads produce identical values).
pub const QUICK_WIDTHS: [usize; 1] = [512];

/// One workload's flat metric map.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    /// Workload name (`multiply_512`, `pipeline_2048x8`, …).
    pub name: String,
    /// `metric → value`, sorted by name.
    pub metrics: BTreeMap<String, f64>,
}

/// A deterministic benchmark snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSnapshot {
    /// Free-form tag (`--tag`, e.g. a commit id); empty by default.
    pub tag: String,
    /// Whether this is the reduced `--quick` matrix.
    pub quick: bool,
    /// Workload results in execution order.
    pub workloads: Vec<WorkloadResult>,
}

/// The paper-exact `O0` end-to-end latency for an `n`-bit multiply,
/// from the measured-exact stage latency models plus the three
/// inter-stage handoffs. Equal to the cycle count a
/// `KaratsubaCimMultiplier::new(n)` run reports, without running one.
fn baseline_o0_cycles(n: usize) -> u64 {
    let pre = PrecomputeStage::new(n).expect("paper widths are multiples of 4");
    let mult = MultiplyStage::new(n).expect("paper widths are multiples of 4");
    let post = PostcomputeStage::new(n).expect("paper widths are multiples of 4");
    pre.latency() + mult.latency() + post.latency() + 3 * HANDOFF_CYCLES
}

fn multiply_workload(n: usize, hub: &MetricsHub) -> WorkloadResult {
    // Since PR 10 the multiply matrix runs at the maximum cim-mir
    // optimization level; the analytic `baseline_cycles` pins the
    // paper-exact O0 latency, and `meets_10pct` exact-gates the PR's
    // headline acceptance criterion (≥10% virtual-cycle reduction).
    let mut mult = KaratsubaCimMultiplier::with_opt_level(n, OptLevel::MAX)
        .expect("paper widths are multiples of 4");
    mult.attach_metrics(hub, EnergyParams::default());
    let mut rng = UintRng::seeded(0x42 + n as u64);
    let a = rng.uniform(n);
    let b = rng.uniform(n);
    let out = mult
        .multiply(&a, &b)
        .expect("simulated product is verified");
    let r = &out.report;
    let baseline = baseline_o0_cycles(n);
    let mut metrics = BTreeMap::new();
    metrics.insert("cycles".into(), r.total_latency as f64);
    metrics.insert("opt_level".into(), OptLevel::MAX.index() as f64);
    metrics.insert("baseline_cycles".into(), baseline as f64);
    // Exact (cycle-domain, deterministic) acceptance flag: optimized
    // latency must be at least 10% below the paper-exact baseline.
    metrics.insert(
        "meets_10pct".into(),
        f64::from(10 * r.total_latency <= 9 * baseline),
    );
    for (stage, cycles) in ["precompute_cycles", "multiply_cycles", "postcompute_cycles"]
        .iter()
        .zip(r.stage_cycles)
    {
        metrics.insert((*stage).into(), cycles as f64);
    }
    let writes: u64 = r.endurance.iter().map(|e| e.total_writes).sum();
    metrics.insert("writes".into(), writes as f64);
    metrics.insert(
        "max_cell_writes".into(),
        r.endurance.iter().map(|e| e.max_writes).max().unwrap_or(0) as f64,
    );
    metrics.insert(
        "energy_pj".into(),
        r.energy(n, &EnergyParams::default()).total_pj(),
    );
    metrics.insert("area_cells".into(), r.area_cells as f64);
    metrics.insert(
        "utilization".into(),
        r.stage_cycles.iter().sum::<u64>() as f64 / (3 * r.total_latency) as f64,
    );
    WorkloadResult {
        name: format!("multiply_{n}"),
        metrics,
    }
}

fn batch_workload(n: usize, lanes: usize) -> WorkloadResult {
    // One solo multiply and one `lanes`-lane batch; operands are
    // seeded per width.
    let mult = KaratsubaCimMultiplier::new(n).expect("paper widths are multiples of 4");
    let mut rng = UintRng::seeded(0x6b + n as u64);
    let pairs: Vec<_> = (0..lanes)
        .map(|_| (rng.uniform(n), rng.uniform(n)))
        .collect();

    let solo = mult
        .multiply(&pairs[0].0, &pairs[0].1)
        .expect("simulated product is verified");
    let out = mult
        .multiply_batch(&pairs)
        .expect("every batch lane is verified");

    let mut metrics = BTreeMap::new();
    metrics.insert("cycles".into(), out.total_latency as f64);
    metrics.insert("lanes".into(), out.lanes() as f64);
    metrics.insert("products_ok".into(), out.lanes() as f64);
    metrics.insert("products_per_kcc".into(), out.products_per_kcc());
    // Cycle-domain amortization: batch latency equals solo latency, so
    // this is exactly `lanes` — gated exactly to pin the semantics.
    metrics.insert(
        "cycle_throughput_x".into(),
        out.lanes() as f64 * solo.report.total_latency as f64 / out.total_latency as f64,
    );
    let per_lane = out.lane_endurance.iter().flatten();
    metrics.insert(
        "writes".into(),
        per_lane.clone().map(|e| e.total_writes).sum::<u64>() as f64,
    );
    metrics.insert(
        "max_cell_writes".into(),
        per_lane.map(|e| e.max_writes).max().unwrap_or(0) as f64,
    );
    metrics.insert("area_cells".into(), out.area_cells as f64);
    WorkloadResult {
        name: format!("batch64_{n}"),
        metrics,
    }
}

fn pipeline_workload() -> WorkloadResult {
    const N: usize = 2048;
    const JOBS: u64 = 8;
    let schedule = PipelineSchedule::for_design(N, JOBS as usize);
    let profile = JobProfile::karatsuba_analytic(N);
    let makespan = schedule
        .jobs
        .last()
        .expect("nonempty schedule")
        .completed_at();
    let mut metrics = BTreeMap::new();
    metrics.insert("cycles".into(), makespan as f64);
    metrics.insert(
        "initiation_interval".into(),
        schedule.initiation_interval() as f64,
    );
    metrics.insert("throughput_per_mcc".into(), schedule.throughput_per_mcc());
    // Hot-row wear and first-order energy scale linearly in jobs on
    // the single (pinned) pipeline.
    metrics.insert("writes".into(), (JOBS * profile.max_writes()) as f64);
    metrics.insert(
        "energy_pj".into(),
        JOBS as f64 * profile.energy(&EnergyParams::default()).total_pj(),
    );
    WorkloadResult {
        name: format!("pipeline_{N}x{JOBS}"),
        metrics,
    }
}

/// The two-tenant, 4-farm serving run shared by the serve, obs and
/// pulse workloads: the mixed zkEVM-style trace, admission, batching
/// and dispatch all run on virtual cycle stamps, so every number the
/// workloads record (incl. the throughput) gates exactly.
fn serve_config() -> LoadgenConfig {
    LoadgenConfig {
        requests: 1_500,
        tenants: 2,
        rate: 300,
        mean_gap: 1_500,
        exp_bits: 6,
        scalar_bits: 6,
        fleet: ServeFleetConfig {
            farms: 4,
            tiles_per_farm: 4,
            ..ServeFleetConfig::default()
        },
        ..LoadgenConfig::default()
    }
}

fn serve_workload(hub: &MetricsHub) -> WorkloadResult {
    let report = run(&serve_config(), hub, None);
    let mut metrics = BTreeMap::new();
    metrics.insert("served".into(), report.served as f64);
    metrics.insert("shed".into(), report.shed as f64);
    metrics.insert("errors".into(), report.errors as f64);
    metrics.insert("incorrect".into(), report.incorrect as f64);
    metrics.insert("batches".into(), report.stats.batches as f64);
    metrics.insert("farm_jobs".into(), report.stats.jobs as f64);
    metrics.insert("drained_cycles".into(), report.stats.drained_at as f64);
    metrics.insert("throughput_per_mcc".into(), report.stats.throughput_per_mcc);
    for t in &report.stats.tenants {
        metrics.insert(
            format!("{}_p99_latency", t.name),
            t.p99_latency_cycles as f64,
        );
        metrics.insert(
            format!("{}_shed", t.name),
            (t.shed_rate_limited + t.shed_queue_full) as f64,
        );
    }
    WorkloadResult {
        name: "serve_2tenant_4farm".into(),
        metrics,
    }
}

fn obs_workload() -> WorkloadResult {
    // The serving run once plain and once with the full cim-obs stack
    // attached (flight recorder, SLO engine, journal/SLO gauges). The
    // serving decisions must be identical — observation never moves a
    // cycle.
    let config = serve_config();
    let plain = run(&config, &MetricsHub::recording(), None);

    let on_hub = MetricsHub::recording();
    let recorder = FlightRecorder::new(RecorderConfig::default());
    let mut rules = Vec::new();
    for tenant in ["tenant0", "tenant1"] {
        for spec in [
            format!("{tenant}.correctness"),
            format!("{tenant}.p99_latency_cycles <= 1000000000"),
            format!("{tenant}.shed_ratio <= 0.95"),
        ] {
            rules.push(SloRule::parse(&spec).expect("builtin rule parses"));
        }
    }
    let mut slo = SloEngine::new(rules);
    let observers = Observers {
        recorder: &recorder,
        slo: &mut slo,
        pulse: None,
    };
    let observed = run(&config, &on_hub, Some(observers));

    let decisions_identical = plain.served == observed.served
        && plain.shed == observed.shed
        && plain.errors == observed.errors
        && plain.stats.drained_at == observed.stats.drained_at;
    let pages = slo
        .verdicts()
        .iter()
        .filter(|v| v.state.name() == "page")
        .count();

    let mut metrics = BTreeMap::new();
    metrics.insert("served".into(), observed.served as f64);
    metrics.insert("shed".into(), observed.shed as f64);
    metrics.insert("incorrect".into(), observed.incorrect as f64);
    metrics.insert("drained_cycles".into(), observed.stats.drained_at as f64);
    metrics.insert("decisions_identical".into(), f64::from(decisions_identical));
    metrics.insert("journal_events".into(), recorder.recorded() as f64);
    metrics.insert("journal_dropped".into(), recorder.dropped() as f64);
    metrics.insert("slo_rules".into(), slo.verdicts().len() as f64);
    metrics.insert("slo_pages".into(), pages as f64);
    WorkloadResult {
        name: "obs_2tenant_4farm".into(),
        metrics,
    }
}

fn pulse_workload() -> WorkloadResult {
    // The serving run once plain and once with the full pulse stack
    // scraping it (timeline, endurance forecaster, drift detectors) on
    // top of the cim-obs recorder and SLO engine. Serving decisions
    // must be identical — a scrape never moves a cycle — the steady
    // trace must raise zero drift alerts, and the wear forecaster's
    // totals must reproduce the engine's tile-wear counters exactly.
    let config = serve_config();
    let plain = run(&config, &MetricsHub::recording(), None);

    let on_hub = MetricsHub::recording();
    let recorder = FlightRecorder::new(RecorderConfig::default());
    let mut slo = SloEngine::new(vec![
        SloRule::parse("fleet.correctness").expect("builtin rule parses"),
        SloRule::parse("fleet.drift_alerts <= 0").expect("builtin rule parses"),
    ]);
    let mut pulse = PulseHub::new(PulseConfig::default());
    let observers = Observers {
        recorder: &recorder,
        slo: &mut slo,
        pulse: Some(&mut pulse),
    };
    let pulsed = run(&config, &on_hub, Some(observers));

    let decisions_identical = plain.served == pulsed.served
        && plain.shed == pulsed.shed
        && plain.errors == pulsed.errors
        && plain.stats == pulsed.stats;
    let pages = slo
        .verdicts()
        .iter()
        .filter(|v| v.state.name() == "page")
        .count();
    let forecast_exact = pulsed.stats.tile_wear.iter().all(|t| {
        pulse.forecaster().current_totals().get(&(t.farm, t.tile)) == Some(&t.max_cell_writes)
    }) && pulse.forecaster().tile_count() == pulsed.stats.tile_wear.len();

    let mut metrics = BTreeMap::new();
    metrics.insert("served".into(), pulsed.served as f64);
    metrics.insert("shed".into(), pulsed.shed as f64);
    metrics.insert("incorrect".into(), pulsed.incorrect as f64);
    metrics.insert("drained_cycles".into(), pulsed.stats.drained_at as f64);
    metrics.insert("decisions_identical".into(), f64::from(decisions_identical));
    metrics.insert("scrapes".into(), pulse.timeline().scrapes() as f64);
    metrics.insert(
        "timeline_series".into(),
        pulse.timeline().series_count() as f64,
    );
    metrics.insert(
        "timeline_points".into(),
        pulse.timeline().point_count() as f64,
    );
    metrics.insert("drift_alerts".into(), pulse.alerts_total() as f64);
    metrics.insert("forecast_exact".into(), f64::from(forecast_exact));
    metrics.insert(
        "wear_total_writes".into(),
        pulse.forecaster().total_writes() as f64,
    );
    metrics.insert("slo_pages".into(), pages as f64);
    WorkloadResult {
        name: "pulse_2tenant_4farm".into(),
        metrics,
    }
}

fn farm_workload(hub: &MetricsHub) -> WorkloadResult {
    let jobs = JobMix::crypto_default(300).generate(64, 7);
    let mut sched = Scheduler::new(FarmConfig::new(4, Policy::WearLeveling));
    sched.attach_metrics(hub);
    let report = sched.run(&jobs).expect("analytic profiles cannot fail");
    let mut metrics = BTreeMap::new();
    metrics.insert("cycles".into(), report.makespan_cycles as f64);
    metrics.insert("total_cycles".into(), report.total_stats.cycles as f64);
    metrics.insert("jobs_done".into(), report.jobs_done() as f64);
    metrics.insert("queue_peak".into(), report.queue_peak as f64);
    metrics.insert("writes".into(), report.max_cell_writes() as f64);
    metrics.insert("energy_pj".into(), report.total_energy.total_pj());
    metrics.insert("utilization".into(), report.mean_utilization());
    metrics.insert("p50_latency".into(), report.p50_latency() as f64);
    metrics.insert("p99_latency".into(), report.p99_latency() as f64);
    WorkloadResult {
        name: "farm_4tile_wear".into(),
        metrics,
    }
}

impl BenchSnapshot {
    /// Runs the workload matrix (`quick` restricts the multiplication
    /// widths to [`QUICK_WIDTHS`]), publishing every layer's metrics
    /// into `hub`.
    pub fn collect(quick: bool, tag: &str, hub: &MetricsHub) -> Self {
        let widths: &[usize] = if quick { &QUICK_WIDTHS } else { &FULL_WIDTHS };
        Self::collect_widths(widths, quick, tag, hub)
    }

    /// [`BenchSnapshot::collect`] with an explicit width list (tests
    /// use small widths to stay fast in debug builds).
    pub fn collect_widths(widths: &[usize], quick: bool, tag: &str, hub: &MetricsHub) -> Self {
        let mut workloads: Vec<WorkloadResult> =
            widths.iter().map(|&n| multiply_workload(n, hub)).collect();
        // The bit-sliced batch runs at the largest width of the matrix
        // (2048 in the full run), 64 lanes per compiled program.
        let batch_n = widths.iter().copied().max().unwrap_or(2048);
        workloads.extend([
            batch_workload(batch_n, 64),
            pipeline_workload(),
            farm_workload(hub),
            serve_workload(hub),
            obs_workload(),
            pulse_workload(),
        ]);
        BenchSnapshot {
            tag: tag.into(),
            quick,
            workloads,
        }
    }

    /// Serializes the snapshot as deterministic JSON (fixed field
    /// order, metrics sorted by name).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.open_object()
            .field_str("schema", SNAPSHOT_SCHEMA)
            .field_str("tag", &self.tag);
        w.key("quick").bool(self.quick);
        w.key("workloads").open_array();
        for wl in &self.workloads {
            w.open_object().field_str("name", &wl.name);
            w.key("metrics").open_object();
            for (k, v) in &wl.metrics {
                w.field_float(k, *v);
            }
            w.close_object().close_object();
        }
        w.close_array().close_object();
        w.finish()
    }

    /// Parses a snapshot previously written by [`to_json`]
    /// (round-trip lossless: `f64` values print in shortest
    /// round-trip form).
    ///
    /// [`to_json`]: BenchSnapshot::to_json
    ///
    /// # Errors
    ///
    /// Malformed JSON or a wrong/missing schema marker.
    pub fn parse(text: &str) -> Result<Self, String> {
        let root = json::parse(text)?;
        let schema = root
            .get("schema")
            .and_then(JsonValue::as_str)
            .ok_or("missing schema field")?;
        if schema != SNAPSHOT_SCHEMA {
            return Err(format!("unknown snapshot schema {schema:?}"));
        }
        let tag = root
            .get("tag")
            .and_then(JsonValue::as_str)
            .unwrap_or_default()
            .to_string();
        let quick = root
            .get("quick")
            .and_then(JsonValue::as_bool)
            .unwrap_or(false);
        let mut workloads = Vec::new();
        for wl in root
            .get("workloads")
            .and_then(JsonValue::as_array)
            .ok_or("missing workloads array")?
        {
            let name = wl
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or("workload without name")?
                .to_string();
            let mut metrics = BTreeMap::new();
            for (k, v) in wl
                .get("metrics")
                .and_then(JsonValue::as_object)
                .ok_or("workload without metrics")?
            {
                metrics.insert(
                    k.clone(),
                    v.as_f64()
                        .ok_or_else(|| format!("metric {k} not a number"))?,
                );
            }
            workloads.push(WorkloadResult { name, metrics });
        }
        Ok(BenchSnapshot {
            tag,
            quick,
            workloads,
        })
    }
}

/// Gating modes for [`diff`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiffOptions {
    /// Allow the current snapshot to cover a subset of the baseline's
    /// workloads (gating a `--quick` run against the full snapshot).
    pub allow_subset: bool,
    /// Workload-name patterns that must still gate in subset mode:
    /// exact names or trailing-`*` prefix globs (`mul_*`). A baseline
    /// workload matching any pattern regresses when missing from the
    /// current snapshot even under `allow_subset` — so CI can demand a
    /// family of workloads (`batch64_*`) without enumerating it.
    /// Empty means every workload is skippable in subset mode.
    pub subset_patterns: Vec<String>,
    /// Accept *decreases* of cost-like exact metrics (see
    /// [`is_improvable_metric`]) instead of demanding equality: fewer
    /// cycles/writes/picojoules passes (labeled `improved`), more
    /// still regresses. Off by default — same-commit comparisons stay
    /// byte-exact; `bench_check --improved` turns it on for
    /// cross-snapshot gates (e.g. PR N−1 baseline vs PR N), where an
    /// optimization is supposed to move the numbers down but must
    /// never move them up.
    pub allow_improvement: bool,
}

/// Whether `name` is an exact *cost* metric with a known good
/// direction: virtual cycles, cell writes, and energy may legitimately
/// *decrease* when an optimization lands, but must never increase.
/// Under [`DiffOptions::allow_improvement`] a decrease of one of these
/// passes the gate (labeled `improved`); everything else — counts,
/// ratios, areas, flags — still demands exact equality, because a
/// change in either direction means the workload semantics moved.
pub fn is_improvable_metric(name: &str) -> bool {
    matches!(
        name,
        "cycles"
            | "total_cycles"
            | "precompute_cycles"
            | "multiply_cycles"
            | "postcompute_cycles"
            | "writes"
            | "max_cell_writes"
            | "energy_pj"
            | "p50_latency"
            | "p99_latency"
    ) || name.ends_with("_p99_latency")
        || name.ends_with("_latency_cycles")
}

/// Whether `name` is a ratio *derived from* cost metrics (stage
/// utilization, products-per-kilocycle, throughput-per-megacycle).
/// These have no improvement direction of their own — when a latency
/// optimization lands they recompute and may move either way — so
/// under [`DiffOptions::allow_improvement`] they are reported but not
/// gated; any genuine cycle regression is caught by the underlying
/// cost metrics themselves. In byte-exact mode they gate exactly as
/// before.
pub fn is_cost_derived_metric(name: &str) -> bool {
    matches!(
        name,
        "utilization" | "products_per_kcc" | "throughput_per_mcc"
    )
}

/// Whether `name` matches `pattern`: exact string equality, or a
/// trailing-`*` prefix glob (`multiply_*` matches `multiply_2048`). A
/// bare `*` matches everything.
pub fn name_matches(pattern: &str, name: &str) -> bool {
    match pattern.strip_suffix('*') {
        Some(prefix) => name.starts_with(prefix),
        None => name == pattern,
    }
}

/// Outcome of a snapshot comparison.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Diff {
    /// Human-readable report lines, one per checked item.
    pub lines: Vec<String>,
    /// Subset of `lines` that are regressions.
    pub regressions: Vec<String>,
}

impl Diff {
    /// Whether the current snapshot is no worse than the baseline.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }

    fn fail(&mut self, line: String) {
        self.lines.push(format!("FAIL {line}"));
        self.regressions.push(line);
    }

    fn ok(&mut self, line: String) {
        self.lines.push(format!("  ok {line}"));
    }
}

/// Relative delta of `got` vs `want` as a display string (`n/a` when
/// the baseline is zero).
fn rel_delta(want: f64, got: f64) -> String {
    if want == 0.0 {
        "n/a vs zero baseline".to_string()
    } else {
        format!("{:+.4}%", 100.0 * (got - want) / want)
    }
}

/// Compares `current` against `baseline`: exact equality for every
/// metric the baseline carries, except the [`RETIRED_METRICS`]. See
/// [`DiffOptions`].
pub fn diff(baseline: &BenchSnapshot, current: &BenchSnapshot, opts: &DiffOptions) -> Diff {
    let mut d = Diff::default();
    let cur: BTreeMap<&str, &WorkloadResult> = current
        .workloads
        .iter()
        .map(|w| (w.name.as_str(), w))
        .collect();
    for base in &baseline.workloads {
        let Some(cur_wl) = cur.get(base.name.as_str()) else {
            let required = !opts.allow_subset
                || opts
                    .subset_patterns
                    .iter()
                    .any(|p| name_matches(p, &base.name));
            if required {
                d.fail(format!(
                    "{}: workload missing from current snapshot",
                    base.name
                ));
            } else {
                d.ok(format!("{}: skipped (subset run)", base.name));
            }
            continue;
        };
        for (metric, &want) in &base.metrics {
            let name = format!("{}/{metric}", base.name);
            if RETIRED_METRICS.contains(&metric.as_str()) {
                d.ok(format!("{name}: retired (not gated)"));
                continue;
            }
            let Some(&got) = cur_wl.metrics.get(metric) else {
                d.fail(format!("{name}: metric missing from current snapshot"));
                continue;
            };
            if got == want {
                d.ok(format!("{name}: {want}"));
            } else if opts.allow_improvement && is_improvable_metric(metric) && got < want {
                d.ok(format!(
                    "{name}: improved {want} -> {got} ({})",
                    rel_delta(want, got)
                ));
            } else if opts.allow_improvement && is_cost_derived_metric(metric) {
                d.ok(format!(
                    "{name}: {want} -> {got} (derived ratio, recomputed under --improved)"
                ));
            } else {
                d.fail(format!(
                    "{name}: expected {want}, actual {got}, delta {:+} ({})",
                    got - want,
                    rel_delta(want, got)
                ));
            }
        }
        for metric in cur_wl.metrics.keys() {
            if !base.metrics.contains_key(metric) {
                d.ok(format!("{}/{metric}: new metric (not gated)", base.name));
            }
        }
    }
    for w in &current.workloads {
        if !baseline.workloads.iter().any(|b| b.name == w.name) {
            d.ok(format!("{}: new workload (not gated)", w.name));
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(entries: &[(&str, &[(&str, f64)])]) -> BenchSnapshot {
        BenchSnapshot {
            tag: "test".into(),
            quick: false,
            workloads: entries
                .iter()
                .map(|(name, ms)| WorkloadResult {
                    name: (*name).to_string(),
                    metrics: ms.iter().map(|(k, v)| ((*k).to_string(), *v)).collect(),
                })
                .collect(),
        }
    }

    #[test]
    fn json_round_trips_exactly() {
        let s = snap(&[
            (
                "multiply_64",
                &[("cycles", 123.0), ("energy_pj", 0.1 + 0.2)],
            ),
            ("farm", &[("utilization", 0.75)]),
        ]);
        let parsed = BenchSnapshot::parse(&s.to_json()).unwrap();
        assert_eq!(s, parsed);
        assert_eq!(s.to_json(), parsed.to_json());
    }

    #[test]
    fn parse_rejects_foreign_documents() {
        assert!(BenchSnapshot::parse("{}").is_err());
        assert!(BenchSnapshot::parse("{\"schema\":\"other/9\"}").is_err());
        assert!(BenchSnapshot::parse("not json").is_err());
    }

    #[test]
    fn self_diff_passes_and_perturbation_fails() {
        let a = snap(&[("w", &[("cycles", 10.0), ("writes", 4.0)])]);
        assert!(diff(&a, &a, &DiffOptions::default()).passed());

        let mut b = a.clone();
        b.workloads[0].metrics.insert("cycles".into(), 11.0);
        let d = diff(&a, &b, &DiffOptions::default());
        assert!(!d.passed());
        assert!(d.regressions[0].contains("w/cycles"));
    }

    #[test]
    fn failure_lines_spell_out_expected_actual_and_delta() {
        let base = snap(&[("w", &[("cycles", 10.0), ("writes", 0.0)])]);
        let cur = snap(&[("w", &[("cycles", 12.5), ("writes", 3.0)])]);
        let d = diff(&base, &cur, &DiffOptions::default());
        assert_eq!(d.regressions.len(), 2);
        let cycles = d
            .regressions
            .iter()
            .find(|l| l.contains("w/cycles"))
            .expect("cycles regression reported");
        assert!(cycles.contains("expected 10"), "{cycles}");
        assert!(cycles.contains("actual 12.5"), "{cycles}");
        assert!(cycles.contains("delta +2.5"), "{cycles}");
        assert!(cycles.contains("+25.0000%"), "{cycles}");
        let writes = d
            .regressions
            .iter()
            .find(|l| l.contains("w/writes"))
            .expect("writes regression reported");
        assert!(writes.contains("n/a vs zero baseline"), "{writes}");
    }

    #[test]
    fn subset_gating_matches_quick_mode() {
        let full = snap(&[("a", &[("cycles", 1.0)]), ("b", &[("cycles", 2.0)])]);
        let quick = snap(&[("a", &[("cycles", 1.0)])]);
        assert!(!diff(&full, &quick, &DiffOptions::default()).passed());
        let opts = DiffOptions {
            allow_subset: true,
            ..DiffOptions::default()
        };
        assert!(diff(&full, &quick, &opts).passed());
        // A shared workload still gates exactly in subset mode.
        let wrong = snap(&[("a", &[("cycles", 9.0)])]);
        assert!(!diff(&full, &wrong, &opts).passed());
    }

    /// Baselines written before the host timings were retired still
    /// hold them; a current snapshot without them passes, whatever
    /// values the baseline recorded, the other metrics still gate, and
    /// a trajectory into such a snapshot keeps its lineage.
    #[test]
    fn retired_metrics_are_not_gated() {
        let mut old: Vec<(&str, f64)> = RETIRED_METRICS.iter().map(|&m| (m, 16.0)).collect();
        old.push(("cycles", 5.0));
        let base = snap(&[("batch64_2048", &old)]);
        let cur = snap(&[("batch64_2048", &[("cycles", 5.0)])]);
        let d = diff(&base, &cur, &DiffOptions::default());
        assert!(d.passed(), "{:?}", d.regressions);
        for metric in RETIRED_METRICS {
            assert!(
                d.lines
                    .iter()
                    .any(|l| l.contains(&format!("/{metric}: retired"))),
                "{metric}: {:?}",
                d.lines
            );
        }
        let slower = snap(&[("batch64_2048", &[("cycles", 6.0)])]);
        assert!(!diff(&base, &slower, &DiffOptions::default()).passed());

        let t = crate::trajectory::build(&[("OLD".into(), base), ("NEW".into(), cur)]);
        assert!(t.lineage_ok(), "{:?}", t.violations);
        assert!(t.steps[0].changed.is_empty(), "{:?}", t.steps[0].changed);
    }

    #[test]
    fn improvable_metrics_are_cost_shaped() {
        for name in [
            "cycles",
            "total_cycles",
            "precompute_cycles",
            "multiply_cycles",
            "postcompute_cycles",
            "writes",
            "max_cell_writes",
            "energy_pj",
            "p50_latency",
            "p99_latency",
            "tenant0_p99_latency",
        ] {
            assert!(is_improvable_metric(name), "{name} should be improvable");
        }
        for name in [
            "area_cells",
            "utilization",
            "lanes",
            "served",
            "meets_10pct",
            "baseline_cycles",
            "opt_level",
            "cycle_throughput_x",
        ] {
            assert!(!is_improvable_metric(name), "{name} must gate exactly");
        }
    }

    #[test]
    fn improved_direction_accepts_decreases_only_when_enabled() {
        let base = snap(&[(
            "multiply_512",
            &[("cycles", 100.0), ("writes", 50.0), ("area_cells", 5.0)],
        )]);
        let better = snap(&[(
            "multiply_512",
            &[("cycles", 80.0), ("writes", 50.0), ("area_cells", 5.0)],
        )]);
        // Byte-exact mode still refuses any value change …
        assert!(!diff(&base, &better, &DiffOptions::default()).passed());
        // … while improvement mode accepts the decrease and labels it.
        let opts = DiffOptions {
            allow_improvement: true,
            ..DiffOptions::default()
        };
        let d = diff(&base, &better, &opts);
        assert!(d.passed(), "{:?}", d.regressions);
        assert!(
            d.lines.iter().any(|l| l.contains("improved 100 -> 80")),
            "{:?}",
            d.lines
        );
        // An *increase* of a cost metric regresses even in improvement
        // mode — the direction is one-way.
        let worse = snap(&[(
            "multiply_512",
            &[("cycles", 120.0), ("writes", 50.0), ("area_cells", 5.0)],
        )]);
        assert!(!diff(&base, &worse, &opts).passed());
        // A decrease of a non-cost metric (area) still regresses: only
        // cost-shaped metrics have a known good direction.
        let shrunk = snap(&[(
            "multiply_512",
            &[("cycles", 100.0), ("writes", 50.0), ("area_cells", 4.0)],
        )]);
        assert!(!diff(&base, &shrunk, &opts).passed());
    }

    #[test]
    fn cost_derived_ratios_recompute_under_improved_mode() {
        assert!(is_cost_derived_metric("utilization"));
        assert!(is_cost_derived_metric("products_per_kcc"));
        assert!(is_cost_derived_metric("throughput_per_mcc"));
        assert!(!is_cost_derived_metric("cycles"));
        assert!(!is_cost_derived_metric("area_cells"));
        let base = snap(&[("multiply_512", &[("cycles", 100.0), ("utilization", 0.33)])]);
        let moved = snap(&[("multiply_512", &[("cycles", 80.0), ("utilization", 0.32)])]);
        // Exact mode refuses the ratio shift; improved mode accepts it
        // in either direction because the underlying cycles gate.
        assert!(!diff(&base, &moved, &DiffOptions::default()).passed());
        let opts = DiffOptions {
            allow_improvement: true,
            ..DiffOptions::default()
        };
        assert!(diff(&base, &moved, &opts).passed());
        let up = snap(&[("multiply_512", &[("cycles", 80.0), ("utilization", 0.35)])]);
        assert!(diff(&base, &up, &opts).passed());
    }

    #[test]
    fn multiply_workload_beats_the_o0_baseline_by_10pct() {
        let hub = MetricsHub::disabled();
        let w = multiply_workload(64, &hub);
        assert_eq!(w.name, "multiply_64");
        assert_eq!(w.metrics["opt_level"], OptLevel::MAX.index() as f64);
        assert_eq!(w.metrics["baseline_cycles"], baseline_o0_cycles(64) as f64);
        assert!(w.metrics["cycles"] < w.metrics["baseline_cycles"]);
        assert_eq!(w.metrics["meets_10pct"], 1.0);
    }

    #[test]
    fn batch_workload_amortizes_solo_cycles_over_64_lanes() {
        let w = batch_workload(64, 64);
        assert_eq!(w.name, "batch64_64");
        assert_eq!(w.metrics["lanes"], 64.0);
        assert_eq!(w.metrics["products_ok"], 64.0);
        // Batch latency equals solo latency, so the cycle-domain
        // throughput gain is exactly the lane count.
        assert_eq!(w.metrics["cycle_throughput_x"], 64.0);
        assert!(w.metrics["products_per_kcc"] > 0.0);
        assert!(w.metrics["writes"] > 0.0);
    }

    #[test]
    fn subset_patterns_accept_prefix_globs() {
        assert!(name_matches("multiply_2048", "multiply_2048"));
        assert!(!name_matches("multiply_2048", "multiply_204"));
        assert!(
            !name_matches("multiply_204", "multiply_2048"),
            "exact is not a prefix"
        );
        assert!(name_matches("mul*", "multiply_2048"));
        assert!(name_matches("multiply_*", "multiply_2048"));
        assert!(name_matches("mul_*", "mul_2048"));
        assert!(!name_matches("mul*", "batch64_2048"));
        assert!(name_matches("*", "anything"));
    }

    #[test]
    fn subset_patterns_keep_matching_workloads_required() {
        let full = snap(&[
            ("multiply_512", &[("cycles", 1.0)]),
            ("batch64_2048", &[("cycles", 2.0)]),
            ("farm_4tile_wear", &[("cycles", 3.0)]),
        ]);
        // Current run covers only the batch family.
        let batch_only = snap(&[("batch64_2048", &[("cycles", 2.0)])]);
        let opts = DiffOptions {
            allow_subset: true,
            subset_patterns: vec!["batch64_*".into()],
            ..DiffOptions::default()
        };
        // Non-matching workloads are skippable, matching ones gate.
        assert!(diff(&full, &batch_only, &opts).passed());
        // Dropping a workload the pattern demands regresses even in
        // subset mode.
        let none = snap(&[("multiply_512", &[("cycles", 1.0)])]);
        let d = diff(&full, &none, &opts);
        assert!(!d.passed());
        assert!(
            d.regressions[0].contains("batch64_2048"),
            "{:?}",
            d.regressions
        );
        // Patterns never weaken value gating on present workloads.
        let wrong = snap(&[("batch64_2048", &[("cycles", 9.0)])]);
        assert!(!diff(&full, &wrong, &opts).passed());
    }

    #[test]
    fn missing_metric_regresses() {
        let base = snap(&[("w", &[("cycles", 1.0), ("writes", 2.0)])]);
        let cur = snap(&[("w", &[("cycles", 1.0)])]);
        assert!(!diff(&base, &cur, &DiffOptions::default()).passed());
    }

    #[test]
    fn collect_is_deterministic() {
        let hub_a = MetricsHub::recording();
        let hub_b = MetricsHub::recording();
        let a = BenchSnapshot::collect_widths(&[64], true, "a", &hub_a);
        let b = BenchSnapshot::collect_widths(&[64], true, "a", &hub_b);
        assert_eq!(a, b);
        // Every layer published into the hub.
        let names: Vec<String> = hub_a
            .snapshot()
            .families
            .iter()
            .map(|f| f.name.clone())
            .collect();
        for family in [
            "cim_xbar_cycles_total",
            "cim_core_total_latency_cycles",
            "cim_sched_job_latency_cycles",
            "cim_serve_requests_total",
        ] {
            assert!(names.iter().any(|n| n == family), "missing {family}");
        }
        // The serving workload is part of the matrix and gated.
        let serve = a
            .workloads
            .iter()
            .find(|w| w.name == "serve_2tenant_4farm")
            .expect("serve workload in snapshot");
        assert_eq!(serve.metrics["incorrect"], 0.0);
        assert!(serve.metrics["served"] > 0.0);
        assert!(serve.metrics["throughput_per_mcc"] > 0.0);
        // The observability workload proves observation is free: same
        // decisions with the recorder and SLO engine attached, no
        // pages on the healthy run, and a populated journal.
        let obs = a
            .workloads
            .iter()
            .find(|w| w.name == "obs_2tenant_4farm")
            .expect("obs workload in snapshot");
        assert_eq!(obs.metrics["decisions_identical"], 1.0);
        assert_eq!(obs.metrics["slo_pages"], 0.0);
        assert_eq!(obs.metrics["incorrect"], 0.0);
        assert!(obs.metrics["journal_events"] > 0.0);
        // The pulse workload proves telemetry history is free and
        // exact: same decisions with scraping on, zero drift alerts on
        // the steady trace, and the wear forecast reproduces the
        // engine's counters.
        let pulse = a
            .workloads
            .iter()
            .find(|w| w.name == "pulse_2tenant_4farm")
            .expect("pulse workload in snapshot");
        assert_eq!(pulse.metrics["decisions_identical"], 1.0);
        assert_eq!(pulse.metrics["drift_alerts"], 0.0);
        assert_eq!(pulse.metrics["forecast_exact"], 1.0);
        assert_eq!(pulse.metrics["slo_pages"], 0.0);
        assert!(pulse.metrics["scrapes"] >= 9.0);
        assert!(pulse.metrics["timeline_series"] > 0.0);
        assert!(pulse.metrics["wear_total_writes"] > 0.0);
        // The gate passes against itself.
        assert!(diff(&a, &b, &DiffOptions::default()).passed());
    }
}
