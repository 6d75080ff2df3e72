//! Compiled-program cache: memoized MAGIC micro-op programs.
//!
//! The micro-op programs the stages execute are functions of *widths
//! and layouts only* — the Kogge–Stone adder program for a given
//! `(width, op, layout, opt)` quadruple, and therefore the whole
//! operand-independent addition suffix of the precompute stage, are
//! identical across multiplications. Regenerating them per multiply
//! costs allocation, network construction and (at `O1`+) a full
//! optimizer pipeline run on every call; this module caches them
//! process-wide as [`CompiledProgram`]s — the ops behind an `Arc`,
//! their bundles checked and their cycle statistics accumulated once —
//! the same way `cim-sched`'s profile table caches one `JobProfile`
//! per job class. The stages replay them with
//! [`cim_crossbar::Executor::run_compiled`].
//!
//! Only operand-*independent* program parts are cached (adder bodies,
//! the precompute addition tree). Operand writes are always rebuilt —
//! they embed data bits.
//!
//! Keys include the [`OptLevel`] the program was lowered at, so
//! paper-exact (`O0`) and optimized programs coexist without
//! invalidation. Hit/miss/entry counters are exposed via [`stats`] and
//! [`entries`], and published to a metrics hub as
//! `cim_core_progcache_*` counters by
//! [`publish_metrics`].

use cim_crossbar::{CompiledProgram, MicroOp};
use cim_logic::kogge_stone::{AddOp, AdderLayout, KoggeStoneAdder};
use cim_mir::OptLevel;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Key of one cached adder program.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct AdderKey {
    width: usize,
    op: AddOp,
    layout: AdderLayout,
    opt: OptLevel,
}

/// Key of one cached precompute addition suffix: the stage's adder
/// width, how many tree additions run (10 for a general multiply, 5
/// for a square), and the optimization level the suffix was lowered
/// at.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct SuffixKey {
    adder_width: usize,
    additions: usize,
    opt: OptLevel,
}

/// A cached, possibly optimized addition suffix: one compiled program
/// per addition, in execution order, so callers can attribute trace
/// spans per addition even when optimization leaves the additions with
/// different lengths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SuffixProgram {
    /// The per-addition programs, pieces of one op buffer.
    pub additions: Arc<[CompiledProgram]>,
}

impl SuffixProgram {
    /// Compiles the concatenated per-addition programs `ops`, where
    /// `ends[i]` is one past the last op of addition `i`.
    ///
    /// # Panics
    ///
    /// Panics if `ops` holds an illegal bundle: the stage caches only
    /// verified programs, whose bundles are legal.
    pub fn new(ops: Vec<MicroOp>, ends: &[usize]) -> Self {
        let additions = CompiledProgram::split(ops, ends).expect(LEGAL_BUNDLES);
        SuffixProgram {
            additions: additions.into(),
        }
    }

    /// The additions' ops, concatenated.
    pub fn ops(&self) -> impl Iterator<Item = &MicroOp> {
        self.additions.iter().flat_map(|p| p.ops().iter())
    }

    /// Cycles of the whole suffix.
    pub fn cycles(&self) -> u64 {
        self.additions.iter().map(|p| p.stats().cycles).sum()
    }
}

/// Why compiling a cached program cannot fail.
const LEGAL_BUNDLES: &str = "verified programs hold only legal bundles";

/// One cache entry: a per-key [`OnceLock`] so construction runs
/// *exactly once* per key process-wide. Racing first callers block on
/// the slot (not the whole map) until the winner's compile finishes —
/// distinct keys still compile in parallel, and a duplicate compile
/// can never race into the cache.
type Slot<T> = Arc<OnceLock<T>>;

#[derive(Default)]
struct Caches {
    adders: HashMap<AdderKey, Slot<CompiledProgram>>,
    suffixes: HashMap<SuffixKey, Slot<SuffixProgram>>,
}

static CACHES: OnceLock<Mutex<Caches>> = OnceLock::new();
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

fn caches() -> &'static Mutex<Caches> {
    CACHES.get_or_init(Mutex::default)
}

/// `(hits, misses)` of the process-wide program cache. A *miss* is a
/// call that ran the compile itself; every other call — including
/// those that blocked on a racing compile — is a hit, so
/// `misses` equals the number of distinct keys ever constructed and
/// `hits + misses` equals the number of lookups.
pub fn stats() -> (u64, u64) {
    (HITS.load(Ordering::Relaxed), MISSES.load(Ordering::Relaxed))
}

/// Number of distinct programs resident in the cache.
pub fn entries() -> u64 {
    let guard = caches().lock().expect("progcache poisoned");
    (guard.adders.len() + guard.suffixes.len()) as u64
}

/// Publishes the cache counters to a metrics hub:
/// `cim_core_progcache_hits`, `cim_core_progcache_misses` and
/// `cim_core_progcache_entries`. Values are absolute process-wide
/// totals (published as gauges so repeated publication is idempotent
/// per scrape, not additive).
pub fn publish_metrics(hub: &cim_metrics::MetricsHub) {
    if !hub.is_enabled() {
        return;
    }
    let labels = cim_metrics::Labels::new();
    let (hits, misses) = stats();
    hub.set_gauge(
        "cim_core_progcache_hits",
        "compiled-program cache hits (process-wide total)",
        &labels,
        hits as f64,
    );
    hub.set_gauge(
        "cim_core_progcache_misses",
        "compiled-program cache misses, i.e. distinct programs compiled",
        &labels,
        misses as f64,
    );
    hub.set_gauge(
        "cim_core_progcache_entries",
        "programs resident in the compiled-program cache",
        &labels,
        entries() as f64,
    );
}

/// Resolves a slot: at most one caller ever runs `compile` (the
/// `OnceLock` serializes same-key racers), everyone shares the single
/// stored value.
fn resolve<T: Clone>(slot: &Slot<T>, compile: impl FnOnce() -> T) -> T {
    let mut compiled = false;
    let prog = slot.get_or_init(|| {
        compiled = true;
        compile()
    });
    if compiled {
        MISSES.fetch_add(1, Ordering::Relaxed);
    } else {
        HITS.fetch_add(1, Ordering::Relaxed);
    }
    prog.clone()
}

/// The adder's paper-exact (`O0`) program for `op`, compiled once per
/// key and shared afterwards. Identical, op for op, to what
/// [`KoggeStoneAdder::program`] returns.
pub fn adder_program(adder: &KoggeStoneAdder, op: AddOp) -> Arc<[MicroOp]> {
    adder_program_opt(adder, op, OptLevel::O0)
}

/// The adder's program lowered at `opt`, compiled (and, above `O0`,
/// optimized and verified) once per `(width, op, layout, opt)` and
/// shared afterwards.
pub fn adder_program_opt(adder: &KoggeStoneAdder, op: AddOp, opt: OptLevel) -> Arc<[MicroOp]> {
    adder_compiled(adder, op, opt).buffer().clone()
}

/// The adder's program lowered at `opt`, as the [`CompiledProgram`]
/// the stages execute; cached under the same key as
/// [`adder_program_opt`].
pub fn adder_compiled(adder: &KoggeStoneAdder, op: AddOp, opt: OptLevel) -> CompiledProgram {
    let key = AdderKey {
        width: adder.width(),
        op,
        layout: adder.layout().clone(),
        opt,
    };
    // The map lock only guards slot lookup; compiles run outside it.
    let slot = {
        let mut guard = caches().lock().expect("progcache poisoned");
        Arc::clone(guard.adders.entry(key).or_default())
    };
    resolve(&slot, || {
        CompiledProgram::new(adder.program_opt(op, opt)).expect(LEGAL_BUNDLES)
    })
}

/// An operand-independent addition suffix (one compiled program per
/// addition), compiled once per key via `build` and shared afterwards.
/// The caller keys by everything the suffix depends on; `cim-core`
/// uses `(adder_width, additions, opt)` for the precompute tree.
pub(crate) fn precompute_suffix(
    adder_width: usize,
    additions: usize,
    opt: OptLevel,
    build: impl FnOnce() -> SuffixProgram,
) -> SuffixProgram {
    let key = SuffixKey {
        adder_width,
        additions,
        opt,
    };
    let slot = {
        let mut guard = caches().lock().expect("progcache poisoned");
        Arc::clone(guard.suffixes.entry(key).or_default())
    };
    resolve(&slot, build)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_logic::kogge_stone::SCRATCH_ROWS;

    fn layout(sum_row: usize) -> AdderLayout {
        AdderLayout {
            x_row: 0,
            y_row: 1,
            sum_row,
            scratch: std::array::from_fn(|i| 8 + i),
            col_base: 0,
        }
    }

    fn one_op_suffix(cols: usize) -> SuffixProgram {
        SuffixProgram::new(vec![MicroOp::reset_region(0..1, 0..cols)], &[1])
    }

    #[test]
    fn cached_program_is_identical_to_fresh_compile() {
        let adder = KoggeStoneAdder::with_layout(16, layout(2));
        for op in [AddOp::Add, AddOp::Sub] {
            let cached = adder_program(&adder, op);
            assert_eq!(cached.as_ref(), adder.program(op).as_slice());
        }
    }

    #[test]
    fn same_key_shares_one_allocation() {
        let adder = KoggeStoneAdder::with_layout(24, layout(2));
        let a = adder_program(&adder, AddOp::Add);
        let b = adder_program(&adder, AddOp::Add);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must be a cache hit");
        let (hits, _) = stats();
        assert!(hits >= 1);
        assert!(entries() >= 1);
    }

    #[test]
    fn distinct_layouts_do_not_collide() {
        let a = adder_program(&KoggeStoneAdder::with_layout(16, layout(2)), AddOp::Add);
        let b = adder_program(&KoggeStoneAdder::with_layout(16, layout(3)), AddOp::Add);
        assert!(!Arc::ptr_eq(&a, &b));
        // Programs for different sum rows must differ somewhere.
        assert_ne!(a.as_ref(), b.as_ref());
        let _ = SCRATCH_ROWS; // layout() above must match the real count
    }

    #[test]
    fn distinct_opt_levels_do_not_collide() {
        let adder = KoggeStoneAdder::with_layout(48, layout(2));
        let o0 = adder_program_opt(&adder, AddOp::Add, OptLevel::O0);
        let o2 = adder_program_opt(&adder, AddOp::Add, OptLevel::O2);
        assert!(!Arc::ptr_eq(&o0, &o2));
        assert_eq!(o0.as_ref(), adder.program(AddOp::Add).as_slice());
        let o0_cycles: u64 = o0.iter().map(MicroOp::cycles).sum();
        let o2_cycles: u64 = o2.iter().map(MicroOp::cycles).sum();
        assert!(o2_cycles < o0_cycles, "optimized program must be shorter");
        // Same keys hit.
        let again = adder_program_opt(&adder, AddOp::Add, OptLevel::O2);
        assert!(Arc::ptr_eq(&o2, &again));
    }

    #[test]
    fn publish_metrics_exports_counters() {
        let adder = KoggeStoneAdder::with_layout(52, layout(2));
        let _ = adder_program(&adder, AddOp::Add);
        let _ = adder_program(&adder, AddOp::Add);
        let hub = cim_metrics::MetricsHub::recording();
        publish_metrics(&hub);
        let snap = hub.snapshot();
        assert!(snap.number("cim_core_progcache_hits").is_some_and(|v| v >= 1.0));
        assert!(snap.number("cim_core_progcache_misses").is_some_and(|v| v >= 1.0));
        assert!(snap.number("cim_core_progcache_entries").is_some_and(|v| v >= 1.0));
    }

    #[test]
    fn concurrent_compilation_constructs_each_key_exactly_once() {
        use std::sync::atomic::AtomicUsize;

        // Keys unique to this test (other tests share the process-wide
        // cache, so reuse would turn first calls into hits).
        const THREADS: usize = 16;
        const ROUNDS: usize = 8;
        const SHARED_WIDTH: usize = 131; // all threads race this key
        const SUFFIX_KEYS: std::ops::Range<usize> = 7001..7005;

        let builds = SUFFIX_KEYS.map(|_| AtomicUsize::new(0)).collect::<Vec<_>>();
        let (hits_before, misses_before) = stats();

        let canonical: Arc<[MicroOp]> = KoggeStoneAdder::with_layout(SHARED_WIDTH, layout(2))
            .program(AddOp::Add)
            .into();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let builds = &builds;
                let canonical = &canonical;
                scope.spawn(move || {
                    for round in 0..ROUNDS {
                        // Everyone hammers the same adder key…
                        let adder = KoggeStoneAdder::with_layout(SHARED_WIDTH, layout(2));
                        let prog = adder_program(&adder, AddOp::Add);
                        assert_eq!(prog.as_ref(), canonical.as_ref());
                        // …and a distinct-per-thread key, so distinct
                        // compiles overlap same-key races.
                        let own = KoggeStoneAdder::with_layout(140 + t, layout(2));
                        let own_prog = adder_program(&own, AddOp::Add);
                        assert_eq!(own_prog.as_ref(), own.program(AddOp::Add).as_slice());
                        // Suffix keys are contended by all threads; the
                        // per-key counter proves the builder can never
                        // run twice, even mid-race.
                        let k = (t + round) % builds.len();
                        let _ = precompute_suffix(SUFFIX_KEYS.start + k, 10, OptLevel::O0, || {
                            builds[k].fetch_add(1, Ordering::Relaxed);
                            one_op_suffix(4)
                        });
                    }
                });
            }
        });

        for (k, b) in builds.iter().enumerate() {
            assert_eq!(
                b.load(Ordering::Relaxed),
                1,
                "suffix key {k} must be constructed exactly once"
            );
        }
        // All racers on the shared key resolved to one allocation.
        let shared = adder_program(
            &KoggeStoneAdder::with_layout(SHARED_WIDTH, layout(2)),
            AddOp::Add,
        );
        let again = adder_program(
            &KoggeStoneAdder::with_layout(SHARED_WIDTH, layout(2)),
            AddOp::Add,
        );
        assert!(Arc::ptr_eq(&shared, &again));
        // Stats stay consistent under the race: every lookup counted
        // exactly once (other tests run concurrently in this process,
        // so the delta is a lower bound, not an equality).
        let (hits_after, misses_after) = stats();
        let calls = (THREADS * ROUNDS * 3 + 2) as u64;
        assert!(
            hits_after + misses_after - hits_before - misses_before >= calls,
            "every lookup must be counted as hit or miss"
        );
        assert!(hits_after > hits_before, "contended keys must produce hits");
    }

    #[test]
    fn suffix_builder_runs_once_per_key() {
        use std::sync::atomic::AtomicUsize;
        static BUILDS: AtomicUsize = AtomicUsize::new(0);
        let build = || {
            BUILDS.fetch_add(1, Ordering::Relaxed);
            one_op_suffix(909)
        };
        let a = precompute_suffix(909, 10, OptLevel::O0, build);
        let b = precompute_suffix(909, 10, OptLevel::O0, build);
        assert!(Arc::ptr_eq(&a.additions, &b.additions));
        assert_eq!(BUILDS.load(Ordering::Relaxed), 1);
        // A different opt level is a different key.
        let c = precompute_suffix(909, 10, OptLevel::O3, build);
        assert_eq!(BUILDS.load(Ordering::Relaxed), 2);
        assert!(!Arc::ptr_eq(&a.additions, &c.additions));
    }
}
