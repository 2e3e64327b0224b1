//! `admission_churn`: one closed-loop client sending a seeded arrive/depart
//! trace to a warm admission service, waiting for each verdict before it
//! sends the next request (an integrator commits only what was admitted).
//!
//! The median request is a memo hit, a first-fit suffix repair and a queue
//! round trip, so the service and cascade layers dominate and the verifier
//! shows only in the tail. A deadline admit that comes back `Deferred` is
//! retried at once without a budget, as the protocol advises, so every
//! arrival ends admitted; the deferral is counted, not failed.

use std::time::Instant;

use cps_admit::{AdmissionClient, AdmissionService, AdmitOutcome, AdmitVerdict, ServiceStats};
use cps_core::AppTimingProfile;
use cps_map::{MapExplorerEngine, TierStats};

use crate::gen::{ChurnTrace, Step};
use crate::harness::{
    peak_rss_mb, tier_counters, time_us, verifier_rates, Ctx, Extra, OpSample, Outcome, Window,
};
use crate::stats::{median, percentile};
use crate::trace::SpanId;

/// Requests the cold service serves before its snapshot is taken.
const WARMUP_OPS: usize = 20_000;
/// Seed of the warm-up trace, shared by every run.
const WARMUP_SEED: u64 = 0;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Every this many timed requests, a checkpoint records the service's
/// partition; each is checked against a from-scratch first-fit after the
/// window.
const CHECK_EVERY: usize = 2048;
/// The deterministic counters cover this many timed requests.
const DET_OPS: usize = 4096;

/// The client side of the churn: the service handle, the trace, and the
/// mirror of the resident fleet the checkpoints rebuild from scratch.
struct Client {
    service: AdmissionService,
    client: AdmissionClient,
    trace: ChurnTrace,
    mirror: Vec<AppTimingProfile>,
    arrivals: usize,
    /// The span of the latest call into the service (traced ops only).
    call: SpanId,
}

/// What one request did, for the latency split and the gates.
enum Done {
    Admit {
        degraded: bool,
        deferred: bool,
        deadline: bool,
    },
    Evict,
    Stats,
    Snapshot,
}

impl Client {
    fn stats(&self) -> ServiceStats {
        self.client.stats().expect("stats answered")
    }

    /// Sends the trace's next request and waits for the answer.
    fn step(&mut self, ctx: &mut Ctx, op: u64) -> Result<Done, String> {
        let step = self.trace.next().expect("the churn trace is unbounded");
        let t = &mut ctx.tracer;
        let root = t.open("op", SpanId::NONE, op);
        let done = match step {
            Step::Arrive { pool, budget } => {
                let p = &self.trace.pool()[pool];
                let profile = AppTimingProfile::new(
                    format!("T{}", self.arrivals),
                    p.jt(),
                    p.je(),
                    p.jstar(),
                    p.min_inter_arrival(),
                    p.dwell_table().clone(),
                )
                .expect("renamed profile stays consistent");
                self.call = t.open("admit.request", root, op);
                let answer = self.admit(profile.clone(), budget);
                t.close(self.call);
                let (outcome, degraded, deferred) = answer?;
                let expected = self.mirror.len();
                if outcome.index != expected || count(&outcome.slots) != expected + 1 {
                    return Err(format!(
                        "arrival answered at index {} over {} apps, expected index {expected} \
                         (a deferred admit must leave the fleet unchanged)",
                        outcome.index,
                        count(&outcome.slots)
                    ));
                }
                self.arrivals += 1;
                self.mirror.push(profile);
                Done::Admit {
                    degraded,
                    deferred,
                    deadline: budget.is_some(),
                }
            }
            Step::Depart(index) => {
                self.call = t.open("admit.request", root, op);
                let answer = self.client.evict(index);
                t.close(self.call);
                let outcome = answer.map_err(|e| format!("evict {index}: {e}"))?;
                let gone = self.mirror.remove(index);
                if outcome.name != gone.name() {
                    return Err(format!(
                        "evicted {} instead of {}",
                        outcome.name,
                        gone.name()
                    ));
                }
                Done::Evict
            }
            Step::Stats => {
                self.call = t.open("admit.request", root, op);
                let stats = self.client.stats();
                t.close(self.call);
                let stats = stats.map_err(|e| format!("stats: {e}"))?;
                if stats.fleet_len != self.mirror.len() {
                    return Err(format!(
                        "service holds {} apps, mirror {}",
                        stats.fleet_len,
                        self.mirror.len()
                    ));
                }
                Done::Stats
            }
            Step::Snapshot => {
                self.call = t.open("admit.request", root, op);
                let snapshot = self.client.snapshot();
                t.close(self.call);
                snapshot.map_err(|e| format!("snapshot: {e}"))?;
                Done::Snapshot
            }
        };
        t.close(root);
        Ok(done)
    }

    /// A plain admit, or a deadline admit retried without a budget when it
    /// is deferred. Returns the outcome and whether the verdict was degraded
    /// or deferred.
    fn admit(
        &self,
        profile: AppTimingProfile,
        budget: Option<usize>,
    ) -> Result<(AdmitOutcome, bool, bool), String> {
        let Some(budget) = budget else {
            let outcome = self
                .client
                .admit(profile)
                .map_err(|e| format!("admit: {e}"))?;
            return Ok((outcome, false, false));
        };
        match self.client.admit_within(profile.clone(), budget) {
            Ok(AdmitVerdict::Admitted(o)) => Ok((o, false, false)),
            Ok(AdmitVerdict::AdmittedDegraded(o)) => Ok((o, true, false)),
            Ok(AdmitVerdict::Deferred) => {
                let o = self
                    .client
                    .admit(profile)
                    .map_err(|e| format!("retry: {e}"))?;
                Ok((o, false, true))
            }
            Err(e) => Err(format!("admit_within: {e}")),
        }
    }

    /// Records a checkpoint: the service's partition and the mirror it must
    /// equal a from-scratch first-fit of. The check itself runs after the
    /// window, so its own exact verifications stay out of the window and
    /// out of the peak memory the service is measured by.
    fn checkpoint(&self, at: String) -> Checkpoint {
        Checkpoint {
            at,
            stats: self.stats(),
            mirror: self.mirror.clone(),
        }
    }
}

/// A recorded checkpoint, checked by [`verify_checkpoints`].
struct Checkpoint {
    at: String,
    stats: ServiceStats,
    mirror: Vec<AppTimingProfile>,
}

/// The gates of the checkpoints: each service partition is bit-identical to
/// a from-scratch first-fit over the mirror, and nothing was lost.
fn verify_checkpoints(ctx: &mut Ctx, checkpoints: &[Checkpoint]) {
    for Checkpoint { at, stats, mirror } in checkpoints {
        let mut batch = MapExplorerEngine::new().with_pool(ctx.pool());
        let expected = batch.first_fit(mirror).expect("batch first-fit runs");
        ctx.gates.check(stats.slots == expected.slots(), || {
            format!(
                "{at}: service partition {:?} differs from first-fit {:?}",
                stats.slots,
                expected.slots()
            )
        });
        ctx.gates
            .check(stats.recovery_losses == 0 && stats.restarts == 0, || {
                format!(
                    "{at}: {} restarts, {} recovery losses",
                    stats.restarts, stats.recovery_losses
                )
            });
    }
}

fn count(slots: &[Vec<usize>]) -> usize {
    slots.iter().map(Vec::len).sum()
}

/// Set-up: a cold service serves a fixed warm-up trace and is drained,
/// snapshotted and shut down; a warm service restarts from the snapshot
/// with an empty fleet, the restart a deployed service performs. The
/// warm-up trace is the same for every seed, so the cold exploration — and
/// with it set-up time and peak memory — does not depend on the seed.
fn setup(ctx: &mut Ctx) -> (Client, Vec<u8>, f64, Checkpoint) {
    let cold = AdmissionService::spawn();
    let mut c = Client {
        client: cold.client(),
        service: cold,
        trace: ChurnTrace::new(WARMUP_SEED),
        mirror: Vec::new(),
        arrivals: 0,
        call: SpanId::NONE,
    };
    for op in 0..WARMUP_OPS {
        if let Err(defect) = c.step(ctx, op as u64) {
            ctx.gates
                .check(false, || format!("warm-up request {op}: {defect}"));
        }
    }
    let warmed = c.checkpoint("end of warm-up".into());
    while let Some(last) = c.mirror.len().checked_sub(1) {
        c.client.evict(last).expect("drain eviction succeeds");
        c.mirror.pop();
    }
    let snapshot = c.client.snapshot().expect("snapshot answered");
    drop(c.client);
    c.service.shutdown().expect("cold service drains");
    let (warm, spawn_us) =
        time_us(|| AdmissionService::spawn_warm(&snapshot).expect("snapshot restores"));
    let c = Client {
        client: warm.client(),
        service: warm,
        trace: ChurnTrace::new(ctx.seed),
        mirror: Vec::new(),
        arrivals: 0,
        call: SpanId::NONE,
    };
    (c, snapshot, spawn_us, warmed)
}

pub fn run(ctx: &mut Ctx, started: Instant) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_start = started;
    let mut spawn_us = Vec::new();
    let mut kept: Option<(Client, Vec<u8>)> = None;
    let mut checkpoints = Vec::new();
    for _ in 0..SETUPS {
        let (c, snapshot, us, warmed) = setup(ctx);
        out.setup_s.push(setup_start.elapsed().as_secs_f64());
        spawn_us.push(us);
        checkpoints.push(warmed);
        if let Some((old, first)) = kept.take() {
            ctx.gates.check(snapshot == first, || {
                "repeated set-ups took different snapshots".into()
            });
            drop(old.client);
            old.service.shutdown().expect("service drains");
        }
        kept = Some((c, snapshot));
        setup_start = Instant::now();
    }
    let (mut c, snapshot) = kept.expect("at least one set-up");

    let mut admit_us = Vec::new();
    let mut evict_us = Vec::new();
    let mut stats_us = Vec::new();
    let mut snapshot_us = Vec::new();
    let (mut deadline, mut degraded, mut deferred) = (0usize, 0usize, 0usize);
    let window_base = c.stats().tier;
    let mut det: Option<TierStats> = None;
    let mut window = Window::open(ctx.seconds);
    while window.more(out.ops.len(), DET_OPS) {
        let op = out.ops.len() as u64;
        let traced = ctx.trace_op(op);
        // A traced op is bracketed by two `Stats` requests (outside the op)
        // that attribute the service's verifier time to it.
        let before = traced.then(|| {
            window.pause(|| {
                let (s, us) = time_us(|| c.stats());
                stats_us.push(us);
                s.tier.exact_verify_time
            })
        });
        let start = Instant::now();
        let result = c.step(ctx, op);
        let us = start.elapsed().as_secs_f64() * 1e6;
        out.ops.push(OpSample {
            us,
            traced,
            at_s: window.timed().as_secs_f64(),
        });
        window.pause(|| {
            if let Some(before) = before {
                let (s, stat) = time_us(|| c.stats());
                stats_us.push(stat);
                ctx.tracer
                    .synthetic("verify", c.call, s.tier.exact_verify_time - before);
            }
            match result {
                Ok(Done::Admit {
                    degraded: g,
                    deferred: d,
                    deadline: b,
                }) => {
                    admit_us.push(us);
                    deadline += usize::from(b);
                    degraded += usize::from(g);
                    deferred += usize::from(d);
                }
                Ok(Done::Evict) => evict_us.push(us),
                Ok(Done::Stats) => stats_us.push(us),
                Ok(Done::Snapshot) => snapshot_us.push(us),
                Err(defect) => {
                    out.failed += 1;
                    ctx.gates.check(false, || format!("request {op}: {defect}"));
                }
            }
            let done = out.ops.len();
            if done.is_multiple_of(CHECK_EVERY) {
                checkpoints.push(c.checkpoint(format!("request {done}")));
            }
            if done == DET_OPS {
                det = Some(c.stats().tier.since(&window_base));
            }
        });
        if out.failed > 0 {
            break;
        }
    }
    ctx.tracer.set_enabled(false);
    out.timed_s = window.timed().as_secs_f64();
    out.attempted = out.ops.len();
    checkpoints.push(c.checkpoint("end of run".into()));
    let end = c.stats();
    let Client {
        service, client, ..
    } = c;
    drop(client);
    service.shutdown().expect("service drains at the end");
    out.peak_rss_mb = peak_rss_mb();
    verify_checkpoints(ctx, &checkpoints);

    let total = end.tier.since(&window_base);
    verifier_rates(&total, &mut out.layer);
    let l = &mut out.layer;
    let mid = |s: &[f64]| if s.is_empty() { 0.0 } else { median(s) };
    l.insert("admit.stats_us", mid(&stats_us));
    l.insert("admit.snapshot_us", mid(&snapshot_us));
    l.insert("admit.snapshot_bytes", snapshot.len() as f64);
    l.insert("admit.spawn_warm_us", median(&spawn_us));
    l.insert("admit.restarts", end.restarts as f64);
    l.insert("admit.recovery_losses", end.recovery_losses as f64);
    out.det_counters = det.map(|t| tier_counters(&t)).unwrap_or_default();

    let share = |n: usize, of: usize| (of > 0).then(|| n as f64 / of as f64);
    let lat = |name, samples: &[f64], p| Extra {
        name,
        unit: "us",
        value: percentile(samples, p),
        samples: samples.len(),
    };
    out.extra = vec![
        lat("admit_p50_us", &admit_us, 50.0),
        lat("admit_p99_us", &admit_us, 99.0),
        lat("evict_p50_us", &evict_us, 50.0),
        lat("evict_p99_us", &evict_us, 99.0),
        Extra {
            name: "degraded_share",
            unit: "ratio",
            value: share(degraded, deadline),
            samples: deadline,
        },
        Extra {
            name: "deferred_share",
            unit: "ratio",
            value: share(deferred, deadline),
            samples: deadline,
        },
    ];
    out
}
