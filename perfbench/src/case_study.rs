//! `case_study_dimensioning`: the paper's whole flow from scratch, one op
//! at a time — the six case-study plants, their recomputed timing profiles,
//! a fresh mapping engine running `first_fit` then `minimize_slots`, and the
//! batch co-simulation of every chosen slot under four disturbance families.
//!
//! One large heterogeneous exact model (`{C1,C5,C4,C3}`) takes nearly all of
//! an op, so this workload shows the verifier's per-state cost and little
//! else. Engines are fresh per op because a designer pays the cold cost on
//! every dimensioning run.

use std::time::Instant;

use cps_apps::case_study::{self, CaseStudyApp};
use cps_core::AppTimingProfile;
use cps_map::{MapExplorerEngine, TierStats};
use cps_sched::cosim::CosimApp;
use cps_sched::{scenarios, BatchCosimEngine, CosimResult};

use crate::harness::{peak_rss_mb, tier_counters, verifier_rates, Ctx, OpSample, Outcome, Window};
use crate::trace::SpanId;

/// The published mapping `{C1,C5,C4,C3}{C6,C2}` as indices in paper order.
const PUBLISHED: [&[usize]; 2] = [&[0, 4, 3, 2], &[5, 1]];
/// Co-simulation horizon of the single-disturbance families, in samples.
const HORIZON: usize = 420;
/// Co-simulation horizon of the recurrent storm.
const STORM_HORIZON: usize = 800;
/// The storm stops this many samples before its horizon, so its last
/// response is not cut off by the horizon (the slowest `J_E` of the case
/// study is 50 samples).
const STORM_TAIL: usize = 100;
/// Untimed set-ups per run (each one a cold op); `setup_s` is their median.
const SETUPS: usize = 3;
/// Timed ops a run always completes, so the median has ten samples beyond it.
const MIN_OPS: usize = 21;

/// Disturbance patterns, one per scenario: per application, its sorted
/// disturbance samples.
type Family = Vec<Vec<Vec<usize>>>;

/// Everything one op produced that the gates and counters look at.
struct OpResult {
    first_fit: Vec<Vec<usize>>,
    first_fit_tiers: TierStats,
    minimize_slots: usize,
    minimize_tiers: TierStats,
    nodes_explored: usize,
    scenarios: usize,
    cosim_failures: usize,
}

/// The disturbance families of one slot: all applications disturbed
/// together, a contention sweep of the last member and a staggered fleet
/// (over [`HORIZON`]), then a recurrent storm at every member's fastest
/// admissible rate (over [`STORM_HORIZON`]).
fn families(profiles: &[AppTimingProfile]) -> ([Family; 3], Family) {
    let n = profiles.len();
    (
        [
            vec![vec![vec![0]; n]],
            scenarios::contention_sweep(&vec![0; n], n - 1, 0..48),
            scenarios::staggered_fleet(n, 6, 0..60),
        ],
        scenarios::recurrent_storm(profiles, STORM_HORIZON - STORM_TAIL, 0..47),
    )
}

fn run_op(ctx: &mut Ctx, op: u64) -> OpResult {
    let pool = ctx.pool();
    let t = &mut ctx.tracer;
    let root = t.open("op", SpanId::NONE, op);

    let span = t.open("core.profile", root, op);
    let apps = case_study::all_applications().expect("published plants build");
    let profiles: Vec<AppTimingProfile> = apps
        .iter()
        .map(|a| {
            a.profile_with(CaseStudyApp::fast_search_options())
                .expect("dwell search runs")
        })
        .collect();
    t.close(span);

    let mut engine = MapExplorerEngine::new().with_pool(pool);
    let span = t.open("map.first_fit", root, op);
    let first_fit = engine.first_fit(&profiles).expect("first-fit runs");
    t.close(span);
    let first_fit_tiers = *first_fit.tier_stats().expect("cascade reports tiers");
    t.synthetic("verify", span, first_fit_tiers.exact_verify_time);

    let span = t.open("map.minimize", root, op);
    let minimized = engine.minimize_slots(&profiles).expect("minimizer runs");
    t.close(span);
    t.synthetic("verify", span, minimized.tier_stats().exact_verify_time);

    let span = t.open("sched.cosim", root, op);
    let mut results: Vec<CosimResult> = Vec::new();
    for slot in minimized.slots() {
        let members: Vec<AppTimingProfile> = slot.iter().map(|&i| profiles[i].clone()).collect();
        let cosim_apps: Vec<CosimApp> = slot
            .iter()
            .map(|&i| CosimApp {
                application: apps[i].application().clone(),
                profile: profiles[i].clone(),
                disturbance_sample: 0,
            })
            .collect();
        let (single, storm) = families(&members);
        let mut cosim = BatchCosimEngine::new(cosim_apps.clone(), HORIZON)
            .expect("valid co-simulation")
            .with_pool(pool);
        for family in &single {
            results.extend(cosim.run_batch(family).expect("co-simulation runs"));
        }
        let mut cosim = BatchCosimEngine::new(cosim_apps, STORM_HORIZON)
            .expect("valid co-simulation")
            .with_pool(pool);
        results.extend(cosim.run_batch(&storm).expect("co-simulation runs"));
    }
    t.close(span);
    t.close(root);

    OpResult {
        first_fit: first_fit.slots().to_vec(),
        first_fit_tiers,
        minimize_slots: minimized.slot_count(),
        minimize_tiers: *minimized.tier_stats(),
        nodes_explored: minimized.nodes_explored(),
        scenarios: results.len(),
        cosim_failures: results
            .iter()
            .filter(|r| !r.all_meet_requirements())
            .count(),
    }
}

fn check(ctx: &mut Ctx, op: u64, r: &OpResult, first: &[(&'static str, u64)]) {
    let g = &mut ctx.gates;
    g.check(r.first_fit == PUBLISHED, || {
        format!(
            "op {op}: first-fit partition {:?} is not {PUBLISHED:?}",
            r.first_fit
        )
    });
    g.check(r.minimize_slots == 2, || {
        format!(
            "op {op}: minimize_slots returned {} slots, not 2",
            r.minimize_slots
        )
    });
    g.check(r.cosim_failures == 0 && r.scenarios > 0, || {
        format!(
            "op {op}: {} of {} co-simulated scenarios miss J*",
            r.cosim_failures, r.scenarios
        )
    });
    let counters = tier_counters(&r.first_fit_tiers);
    g.check(counters == first, || {
        format!("op {op}: first-fit counters {counters:?} differ from the first op's {first:?}")
    });
}

pub fn run(ctx: &mut Ctx, started: Instant) -> Outcome {
    let mut out = Outcome::default();
    // Set-up is a cold op: the process's first dimensioning run, untimed.
    let mut setup_start = started;
    let mut det = Vec::new();
    for _ in 0..SETUPS {
        let r = run_op(ctx, u64::MAX);
        if det.is_empty() {
            det = tier_counters(&r.first_fit_tiers);
        }
        check(ctx, u64::MAX, &r, &det);
        out.setup_s.push(setup_start.elapsed().as_secs_f64());
        setup_start = Instant::now();
    }

    let mut total = TierStats::default();
    let mut nodes = 0u64;
    let mut scenarios = 0usize;
    let mut window = Window::open(ctx.seconds);
    while window.more(out.ops.len(), MIN_OPS) {
        let op = out.ops.len() as u64;
        let traced = ctx.trace_op(op);
        let start = Instant::now();
        let r = run_op(ctx, op);
        let us = start.elapsed().as_secs_f64() * 1e6;
        out.ops.push(OpSample {
            us,
            traced,
            at_s: window.timed().as_secs_f64(),
        });
        window.pause(|| {
            check(ctx, op, &r, &det);
            total.accumulate(&r.first_fit_tiers);
            total.accumulate(&r.minimize_tiers);
            nodes += r.nodes_explored as u64;
            scenarios = r.scenarios;
        });
    }
    ctx.tracer.set_enabled(false);
    out.timed_s = window.timed().as_secs_f64();
    out.peak_rss_mb = peak_rss_mb();
    out.attempted = out.ops.len();
    verifier_rates(&total, &mut out.layer);
    out.layer.insert("sched.scenarios", scenarios as f64);
    out.layer
        .insert("map.nodes_explored", nodes as f64 / out.ops.len() as f64);
    out.det_counters = det;
    out.nondet_counters = vec![("map.nodes_explored", nodes)];
    out
}
