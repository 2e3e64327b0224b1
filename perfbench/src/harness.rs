//! What every workload shares: the run context, the timed window, the
//! correctness gates and the outcome a workload hands back.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use cps_map::TierStats;

use crate::trace::Tracer;

/// How one run was asked to measure.
#[derive(Debug)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: u64,
    /// The traced run records spans around every other op; the ops between
    /// them run untraced, so the run measures its own tracing overhead.
    pub traced: bool,
    /// Worker-pool width every engine runs on: the CPUs this process may use.
    pub pool_width: usize,
    pub tracer: Tracer,
    pub gates: Gates,
}

impl Ctx {
    pub fn pool(&self) -> cps_par::Pool {
        cps_par::Pool::with_threads(self.pool_width)
    }

    /// Arms the tracer for op `op` (every even op of a traced run).
    pub fn trace_op(&mut self, op: u64) -> bool {
        let on = self.traced && op.is_multiple_of(2);
        self.tracer.set_enabled(on);
        on
    }
}

/// Correctness gates: every miss is a defect of the program, printed when
/// found; the run then reports `correct: false` and exits non-zero.
#[derive(Debug, Default)]
pub struct Gates {
    defects: Vec<String>,
}

impl Gates {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let defect = what();
            eprintln!("DEFECT: {defect}");
            self.defects.push(defect);
        }
    }

    pub fn passed(&self) -> bool {
        self.defects.is_empty()
    }
}

/// The timed window: wall time from its start, minus the pauses taken for
/// correctness checkpoints and trace bookkeeping between ops.
#[derive(Debug)]
pub struct Window {
    start: Instant,
    paused: Duration,
    limit: Duration,
}

impl Window {
    pub fn open(seconds: u64) -> Self {
        Window {
            start: Instant::now(),
            paused: Duration::ZERO,
            limit: Duration::from_secs(seconds),
        }
    }

    pub fn pause<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let value = f();
        self.paused += start.elapsed();
        value
    }

    pub fn timed(&self) -> Duration {
        self.start.elapsed() - self.paused
    }

    /// Whether to start another op: until the window is full and at least
    /// `min_ops` ops have run.
    pub fn more(&self, ops: usize, min_ops: usize) -> bool {
        ops < min_ops || self.timed() < self.limit
    }
}

/// `VmHWM` (peak resident set) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("reads /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM is reported");
    kb / 1024.0
}

/// Times `f` in microseconds.
pub fn time_us<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64() * 1e6)
}

/// One timed op: its latency, whether it was traced, and the window's
/// timed seconds when it completed.
#[derive(Debug, Clone, Copy)]
pub struct OpSample {
    pub us: f64,
    pub traced: bool,
    pub at_s: f64,
}

/// A metric only the record carries (not one of the declared metrics of
/// the final line), with its sample count.
#[derive(Debug, Clone)]
pub struct Extra {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: Option<f64>,
    pub samples: usize,
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Duration of each repeated set-up, in seconds.
    pub setup_s: Vec<f64>,
    pub ops: Vec<OpSample>,
    pub timed_s: f64,
    /// Peak resident set when the window closed, before post-window gates.
    pub peak_rss_mb: f64,
    pub attempted: usize,
    pub failed: usize,
    /// Workload-specific end-to-end metrics (recorded, not declared).
    pub extra: Vec<Extra>,
    /// Per-layer values the workload measures itself (counters, service
    /// round trips); span self times are added by `main`.
    pub layer: BTreeMap<&'static str, f64>,
    /// Counters that must repeat exactly for one seed, traced or not.
    pub det_counters: Vec<(&'static str, u64)>,
    /// Counters that legitimately vary between runs (parallel search).
    pub nondet_counters: Vec<(&'static str, u64)>,
}

/// The deterministic cascade and verifier counters of a `TierStats` delta:
/// the `map.*` and `verify.*` counters of the record.
pub fn tier_counters(t: &TierStats) -> Vec<(&'static str, u64)> {
    let n = |v: usize| v as u64;
    vec![
        ("map.queries", n(t.queries)),
        ("map.memo_hits", n(t.memo_hits)),
        ("map.quick_rejects", n(t.quick_rejects)),
        ("map.anti_monotone_rejects", n(t.anti_monotone_rejects)),
        ("map.baseline_accepts", n(t.baseline_accepts)),
        ("map.exact_verifies", n(t.exact_verifies)),
        ("map.decided_cheaply", n(t.decided_cheaply())),
        ("map.tt_evictions", n(t.tt_evictions)),
        ("map.degraded_accepts", n(t.degraded_accepts)),
        ("map.deferred", n(t.deferred)),
        ("verify.calls", n(t.exact_verifies)),
        ("verify.intern_probes", n(t.verify.intern_probes)),
        ("verify.hash_hits", n(t.verify.hash_hits)),
        ("verify.hash_slot_updates", n(t.verify.hash_slot_updates)),
        ("verify.rehashes", n(t.verify.rehashes)),
    ]
}

/// Verifier cost per probe and per call over a window's `TierStats` total.
pub fn verifier_rates(total: &TierStats, layer: &mut BTreeMap<&'static str, f64>) {
    let secs = total.exact_verify_time.as_secs_f64();
    let per = |count: usize, scale: f64| {
        if count == 0 {
            0.0
        } else {
            secs * scale / count as f64
        }
    };
    layer.insert("verify.ns_per_probe", per(total.verify.intern_probes, 1e9));
    layer.insert("verify.us_per_call", per(total.exact_verifies, 1e6));
}
