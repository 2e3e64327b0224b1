//! `fleet_sweep`: one op is one fleet of a seeded design-space sweep, mapped
//! by `first_fit` then `minimize_slots` on one persistent engine.
//!
//! The work is thousands of small exact verifies plus branch-and-bound
//! nodes, so per-call verifier set-up, the bounded memo (which evicts at
//! this size) and the search of `minimize_slots` carry it — the opposite
//! shape to `case_study_dimensioning`.

use std::cell::RefCell;
use std::time::Instant;

use cps_core::AppTimingProfile;
use cps_map::{reference, MapExplorerEngine, MinimizeReport, SlotOracle, TierStats};
use cps_verify::VerifyError;

use crate::gen::FleetSweep;
use crate::harness::{peak_rss_mb, tier_counters, verifier_rates, Ctx, OpSample, Outcome, Window};
use crate::trace::SpanId;

/// Fleets the persistent engine maps, untimed, before the window opens.
const WARMUP_FLEETS: usize = 300;
/// Seed of the warm-up sweep, shared by every run, so the window opens on
/// the same warm memo whatever the seed.
const WARMUP_SEED: u64 = 0;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// The deterministic counters cover this many timed fleets.
const DET_OPS: usize = 1000;
/// Fleets this small, among the first [`REFERENCE_FLEETS`] timed ones, are
/// also solved by the exhaustive reference minimizer after the window.
const REFERENCE_MAX_APPS: usize = 8;
const REFERENCE_FLEETS: u64 = 2000;

/// Slots of fleet indices.
type Partition = Vec<Vec<usize>>;

/// Everything one op produced that the gates and counters look at.
struct Mapped {
    first_fit_slots: usize,
    first_fit_tiers: TierStats,
    minimized: MinimizeReport,
}

fn map_fleet(
    ctx: &mut Ctx,
    engine: &mut MapExplorerEngine,
    fleet: &[AppTimingProfile],
    op: u64,
) -> Mapped {
    let t = &mut ctx.tracer;
    let root = t.open("op", SpanId::NONE, op);
    let span = t.open("map.first_fit", root, op);
    let mapped = engine.first_fit(fleet).expect("first-fit runs");
    t.close(span);
    let first_fit_tiers = *mapped.tier_stats().expect("cascade reports tiers");
    t.synthetic("verify", span, first_fit_tiers.exact_verify_time);
    let span = t.open("map.minimize", root, op);
    let minimized = engine.minimize_slots(fleet).expect("minimizer runs");
    t.close(span);
    t.synthetic("verify", span, minimized.tier_stats().exact_verify_time);
    t.close(root);
    Mapped {
        first_fit_slots: mapped.slot_count(),
        first_fit_tiers,
        minimized,
    }
}

/// Set-up: a fresh engine maps the warm-up sweep, so the window starts on a
/// warm memo. Returns the engine and the warm-up's partitions.
fn setup(ctx: &mut Ctx) -> (MapExplorerEngine, Vec<Partition>) {
    let mut engine = MapExplorerEngine::new().with_pool(ctx.pool());
    let partitions = FleetSweep::new(WARMUP_SEED)
        .take(WARMUP_FLEETS)
        .map(|fleet| {
            map_fleet(ctx, &mut engine, &fleet, u64::MAX)
                .minimized
                .slots()
                .to_vec()
        })
        .collect();
    (engine, partitions)
}

pub fn run(ctx: &mut Ctx, started: Instant) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_start = started;
    let mut kept: Option<(MapExplorerEngine, Vec<Partition>)> = None;
    for _ in 0..SETUPS {
        let (engine, partitions) = setup(ctx);
        out.setup_s.push(setup_start.elapsed().as_secs_f64());
        if let Some((_, first)) = &kept {
            ctx.gates.check(partitions == *first, || {
                "repeated warm-ups mapped one sweep to different partitions".into()
            });
        }
        kept = Some((engine, partitions));
        setup_start = Instant::now();
    }
    let (mut engine, _) = kept.expect("at least one set-up");

    let mut first_fit_total = TierStats::default();
    let mut total = TierStats::default();
    let mut nodes = 0u64;
    let mut det = None;
    let mut small = Vec::new();
    let mut window = Window::open(ctx.seconds);
    for fleet in FleetSweep::new(ctx.seed) {
        if !window.more(out.ops.len(), DET_OPS) {
            break;
        }
        let op = out.ops.len() as u64;
        let traced = ctx.trace_op(op);
        let start = Instant::now();
        let m = map_fleet(ctx, &mut engine, &fleet, op);
        let us = start.elapsed().as_secs_f64() * 1e6;
        out.ops.push(OpSample {
            us,
            traced,
            at_s: window.timed().as_secs_f64(),
        });
        let slots = m.minimized.slot_count();
        window.pause(|| {
            check(ctx, op, &fleet, &m);
            first_fit_total.accumulate(&m.first_fit_tiers);
            total.accumulate(&m.first_fit_tiers);
            total.accumulate(m.minimized.tier_stats());
            nodes += m.minimized.nodes_explored() as u64;
            if out.ops.len() == DET_OPS {
                det = Some(first_fit_total);
            }
        });
        if fleet.len() <= REFERENCE_MAX_APPS && op < REFERENCE_FLEETS {
            small.push((op, fleet, slots));
        }
    }
    ctx.tracer.set_enabled(false);
    out.timed_s = window.timed().as_secs_f64();
    out.peak_rss_mb = peak_rss_mb();
    for (op, fleet, slots) in &small {
        check_reference(ctx, *op, fleet, *slots);
    }
    out.attempted = out.ops.len();
    verifier_rates(&total, &mut out.layer);
    out.layer
        .insert("map.nodes_explored", nodes as f64 / out.ops.len() as f64);
    out.det_counters = det.map(|t| tier_counters(&t)).unwrap_or_default();
    out.nondet_counters = vec![("map.nodes_explored", nodes)];
    out
}

fn check(ctx: &mut Ctx, op: u64, fleet: &[AppTimingProfile], m: &Mapped) {
    let g = &mut ctx.gates;
    let (slots, first_fit) = (m.minimized.slot_count(), m.first_fit_slots);
    g.check(
        slots <= first_fit && m.minimized.first_fit_slots() == first_fit,
        || format!("fleet {op}: minimize_slots gave {slots} slots, first-fit {first_fit}"),
    );
    let covered = m.minimized.slots().iter().map(Vec::len).sum::<usize>();
    g.check(covered == fleet.len(), || {
        format!(
            "fleet {op}: the minimal partition covers {covered} of {} apps",
            fleet.len()
        )
    });
}

/// The optimality gate, run after the window so the reference search's own
/// verifications stay out of the measured throughput and peak memory.
fn check_reference(ctx: &mut Ctx, op: u64, fleet: &[AppTimingProfile], slots: usize) {
    let oracle = CascadeOracle(RefCell::new(
        MapExplorerEngine::new().with_pool(cps_par::Pool::serial()),
    ));
    let exhaustive = reference::minimize_slots(fleet, &oracle).expect("reference search runs");
    ctx.gates.check(exhaustive.len() == slots, || {
        format!(
            "fleet {op}: minimize_slots gave {slots} slots, the reference {}",
            exhaustive.len()
        )
    });
}

/// A fresh cascade engine as the reference search's oracle: its verdicts
/// equal the exact model-checking oracle's (pinned by the mapping crate's
/// tests), and its screens keep the exhaustive search off the large
/// inadmissible blocks a plain model checker would explore state by state.
struct CascadeOracle(RefCell<MapExplorerEngine>);

impl SlotOracle for CascadeOracle {
    fn admits_indices(
        &self,
        profiles: &[AppTimingProfile],
        members: &[usize],
        _scratch: &mut Vec<AppTimingProfile>,
    ) -> Result<bool, VerifyError> {
        self.0.borrow_mut().admits(profiles, members)
    }

    fn name(&self) -> &str {
        "cascade"
    }
}
