//! Host timing at a reference speed.
//!
//! On a shared VM the same op runs at two speeds about 1.6× apart as
//! other tenants come and go on the same physical core, and the mix
//! changes from second to second: raw host times of two runs of the
//! same code differ by up to 1.9×. So every timed region also samples a
//! fixed reference kernel — wide, independent bitwise ops on L1-resident
//! words, the kind of work the packed crossbar does — every
//! [`SAMPLE_PERIOD`], and host times are reported at the reference
//! speed: in each [`BLOCK_MS`] block of the region, the median op time
//! is scaled by `NOMINAL_KERNEL_MS` over the kernel's median time, and
//! the run reports the median over blocks (see [`Scale::percentiles`]).
//! The reference speed is the one at which the kernel takes
//! `NOMINAL_KERNEL_MS`: about its time on the machine the bounds were
//! set on (a 2.1 GHz Xeon VM with 2 vCPUs) with the core lightly
//! shared; on an idle core it runs some 20% faster. The kernel belongs to the benchmark and never changes with the code
//! under test, so a slower simulator still reads slower. The scaling
//! assumes the ops slow down as much as the kernel does, which holds
//! only roughly: it narrows the run-to-run spread, it does not remove
//! it.

use crate::{host, quantile, Outcome};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The kernel's time at the reference speed.
const NOMINAL_KERNEL_MS: f64 = 0.24;

/// How often a timed region samples the kernel, between ops.
const SAMPLE_PERIOD: Duration = Duration::from_millis(50);

/// Length of the blocks host times are scaled in, in raw ms.
const BLOCK_MS: f64 = 2000.0;

/// Fewest ops and kernel samples a block needs to count.
const MIN_BLOCK_OPS: usize = 20;
const MIN_BLOCK_SAMPLES: usize = 5;

/// Largest share of a traced op its layers may leave unattributed.
const MAX_UNATTRIBUTED: f64 = 0.05;

/// The reference kernel: rounds of NOR-and-mix over three rows of
/// 512 words (4 KiB each).
struct Kernel {
    rows: [Vec<u64>; 3],
}

impl Kernel {
    fn new() -> Self {
        let row = |seed: u64| (0..512u64).map(|i| i.wrapping_mul(seed)).collect();
        Kernel {
            rows: [
                row(0x9E37_79B9_7F4A_7C15),
                row(0xC2B2_AE3D_27D4_EB4F),
                vec![0; 512],
            ],
        }
    }

    /// The fastest of three runs, in ms: an interrupt can only slow a
    /// run down.
    fn sample(&mut self) -> f64 {
        (0..3).map(|_| self.run()).fold(f64::INFINITY, f64::min)
    }

    fn run(&mut self) -> f64 {
        let start = Instant::now();
        let [a, b, out] = &mut self.rows;
        for r in 0..800u32 {
            for ((o, x), y) in out.iter_mut().zip(a.iter()).zip(b.iter()) {
                *o = !(x | y) ^ o.rotate_left(r & 63);
            }
            black_box(&mut *out);
        }
        start.elapsed().as_secs_f64() * 1e3
    }
}

/// Runs `setup` and returns its value and its time in seconds at the
/// reference speed, sampled just before.
pub fn timed_setup<T>(setup: impl FnOnce() -> T) -> (T, f64) {
    let scale = NOMINAL_KERNEL_MS / Kernel::new().sample();
    let start = Instant::now();
    let value = setup();
    (value, start.elapsed().as_secs_f64() * scale)
}

/// The timed region of a run: a wall-time deadline, a clock that
/// leaves out kernel sampling, the thread's on-CPU time, and the
/// kernel samples.
pub struct Region {
    start: Instant,
    deadline: Instant,
    oncpu_ns: u64,
    kernel: Kernel,
    /// `(clock reading, kernel ms)` of every sample.
    samples: Vec<(f64, f64)>,
    sampled_at: Instant,
    /// Wall time spent sampling.
    sampling: Duration,
}

impl Region {
    /// Starts a region that lasts `seconds` of wall time.
    pub fn start(seconds: f64) -> Self {
        let oncpu_ns = host::oncpu_ns();
        let start = Instant::now();
        let mut region = Region {
            start,
            deadline: start + Duration::from_secs_f64(seconds),
            oncpu_ns,
            kernel: Kernel::new(),
            samples: Vec::new(),
            sampled_at: start,
            sampling: Duration::ZERO,
        };
        region.sample();
        region
    }

    fn sample(&mut self) {
        let at = self.now();
        let begin = Instant::now();
        let ms = self.kernel.sample();
        self.samples.push((at, ms));
        self.sampled_at = Instant::now();
        self.sampling += self.sampled_at - begin;
    }

    /// Samples the kernel if the last sample is older than
    /// [`SAMPLE_PERIOD`]. Call between ops only.
    pub fn tick(&mut self) {
        if self.sampled_at.elapsed() >= SAMPLE_PERIOD {
            self.sample();
        }
    }

    /// Whether the deadline has passed.
    pub fn expired(&self) -> bool {
        Instant::now() >= self.deadline
    }

    /// Raw wall milliseconds since the region started, sampling left
    /// out.
    pub fn now(&self) -> f64 {
        (self.start.elapsed() - self.sampling).as_secs_f64() * 1e3
    }

    /// Ends the region: records `host.offcpu_pct`, the share of its
    /// wall time the thread was off a CPU, and `host.speed_factor`,
    /// the median scale from raw to reference-speed time; returns
    /// the scale.
    pub fn finish(&self, out: &mut Outcome) -> Scale {
        let wall = self.start.elapsed().as_secs_f64();
        let oncpu = (host::oncpu_ns() - self.oncpu_ns) as f64 / 1e9;
        out.set("host.offcpu_pct", 100.0 * (wall - oncpu).max(0.0) / wall);
        let end = self.now();
        let mut blocks: Vec<Vec<f64>> = vec![Vec::new(); (end / BLOCK_MS) as usize + 1];
        for &(at, ms) in &self.samples {
            blocks[(at / BLOCK_MS) as usize].push(ms);
        }
        // Reference-speed length: each block's raw length over its
        // mean kernel time; a block without samples takes the last
        // one's.
        let mut seconds = 0.0;
        let mut last_mean = self.samples[0].1;
        for (i, kernel) in blocks.iter_mut().enumerate() {
            kernel.sort_by(f64::total_cmp);
            if !kernel.is_empty() {
                last_mean = kernel.iter().sum::<f64>() / kernel.len() as f64;
            }
            let len = (end - i as f64 * BLOCK_MS).min(BLOCK_MS);
            seconds += len / 1e3 * NOMINAL_KERNEL_MS / last_mean;
        }
        let mut all: Vec<f64> = self.samples.iter().map(|s| s.1).collect();
        all.sort_by(f64::total_cmp);
        let median = NOMINAL_KERNEL_MS / quantile(&all, 0.5);
        out.set("host.speed_factor", median);
        Scale {
            blocks,
            all,
            seconds,
            mean: seconds * 1e3 / end,
        }
    }
}

/// What turns a run's raw host times into times at the reference
/// speed.
pub struct Scale {
    /// Sorted kernel times per block.
    blocks: Vec<Vec<f64>>,
    /// Every kernel time, sorted.
    all: Vec<f64>,
    /// Length of the region at the reference speed, sampling left out.
    pub seconds: f64,
    /// The region's reference-speed length over its raw length: the
    /// factor for a raw mean or total.
    pub mean: f64,
}

impl Scale {
    /// The median and 90th percentile of `ops` at the reference
    /// speed. Per block, the ops' median over the kernel's median,
    /// times `NOMINAL_KERNEL_MS`; the median is the median of that over
    /// blocks. The 90th percentile is the median times the ops' own
    /// p90/p50 ratio in the steadier blocks: the lower quartile of that
    /// ratio over blocks, since a block that mixes a fast and a slow
    /// period stretches it. Blocks with too few ops or kernel samples
    /// are left out while any other is left.
    pub fn percentiles(&self, ops: &mut OpTimes) -> (f64, f64) {
        ops.close_block();
        let kernel_median = |index: usize| {
            let k = &self.blocks[index.min(self.blocks.len() - 1)];
            (k.len() >= MIN_BLOCK_SAMPLES).then(|| quantile(k, 0.5))
        };
        let mut blocks: Vec<(f64, f64)> = ops
            .blocks
            .iter()
            .filter(|b| b.ops >= MIN_BLOCK_OPS)
            .filter_map(|b| kernel_median(b.index).map(|k| (b.median / k, b.tail)))
            .collect();
        if blocks.is_empty() {
            let k = quantile(&self.all, 0.5);
            blocks = ops.blocks.iter().map(|b| (b.median / k, b.tail)).collect();
        }
        let (mut medians, mut tails): (Vec<f64>, Vec<f64>) = blocks.into_iter().unzip();
        medians.sort_by(f64::total_cmp);
        tails.sort_by(f64::total_cmp);
        let median = quantile(&medians, 0.5) * NOMINAL_KERNEL_MS;
        (median, median * quantile(&tails, 0.25))
    }
}

/// Raw op times (ms) of a run, kept as a summary per block so that
/// the benchmark's own memory does not grow with the run.
#[derive(Debug, Default)]
pub struct OpTimes {
    blocks: Vec<BlockSummary>,
    /// Index of the block `pending` belongs to.
    current: usize,
    pending: Vec<f64>,
    count: usize,
    /// Sum of every recorded time.
    total: f64,
}

#[derive(Debug)]
struct BlockSummary {
    index: usize,
    ops: usize,
    median: f64,
    /// p90 over median.
    tail: f64,
}

impl OpTimes {
    /// Records an op that took `ms` and ended at clock reading `at`;
    /// ops arrive in clock order.
    pub fn push(&mut self, at: f64, ms: f64) {
        let block = (at / BLOCK_MS) as usize;
        if block != self.current {
            self.close_block();
            self.current = block;
        }
        self.pending.push(ms);
        self.count += 1;
        self.total += ms;
    }

    /// Ops recorded.
    pub fn len(&self) -> usize {
        self.count
    }

    fn close_block(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        self.pending.sort_by(f64::total_cmp);
        let median = quantile(&self.pending, 0.5);
        self.blocks.push(BlockSummary {
            index: self.current,
            ops: self.pending.len(),
            median,
            tail: quantile(&self.pending, 0.9) / median,
        });
        self.pending.clear();
    }
}

/// Sums of raw per-layer time (ms) over the traced ops of a run.
#[derive(Debug, Default)]
pub struct LayerTimes {
    /// Traced ops.
    pub ops: u64,
    /// Summed outer time of the traced ops.
    pub op: f64,
    /// Summed time per layer metric.
    pub layers: BTreeMap<&'static str, f64>,
}

impl LayerTimes {
    /// Adds `ms` to the layer metric `name`.
    pub fn add(&mut self, name: &'static str, ms: f64) {
        *self.layers.entry(name).or_default() += ms;
    }

    /// Records each layer's mean ms per traced op at the reference
    /// speed and `trace.attributed_pct`, and fails the run if the
    /// layers leave more than [`MAX_UNATTRIBUTED`] of the traced op
    /// time unaccounted for. A layer named in `residual` is the rest
    /// of the op outside every other layer, so it is reported but not
    /// counted as attributed.
    pub fn record(&self, out: &mut Outcome, residual: Option<&'static str>, scale: &Scale) {
        let per_op = |ms: f64| ms * scale.mean / self.ops.max(1) as f64;
        let mut attributed = 0.0;
        for (&name, &ms) in &self.layers {
            out.set(name, per_op(ms));
            if Some(name) != residual {
                attributed += ms;
            }
        }
        if let Some(name) = residual {
            out.set(name, per_op((self.op - attributed).max(0.0)));
        }
        let share = attributed / self.op;
        out.set("trace.attributed_pct", 100.0 * share);
        out.check((1.0 - share).abs() <= MAX_UNATTRIBUTED, || {
            format!(
                "traced layers cover {:.2}% of the traced op time",
                100.0 * share
            )
        });
    }
}

/// Records `trace_overhead_pct`: the mean raw traced op over the
/// mean raw untraced op. The two alternate on the same inputs in the
/// traced run, so their means compare like with like.
pub fn set_trace_overhead(out: &mut Outcome, untraced: &OpTimes, traced: &OpTimes) {
    let mean = |ops: &OpTimes| ops.total / ops.count as f64;
    out.set(
        "trace_overhead_pct",
        100.0 * (mean(traced) / mean(untraced) - 1.0),
    );
}
