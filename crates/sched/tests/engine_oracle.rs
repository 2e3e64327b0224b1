//! Engine-vs-oracle equivalence: [`BatchCosimEngine`] must produce results
//! **bitwise identical** to the retained [`CosimScenario::run`] oracle on
//! single-disturbance scenarios, and to the naive windowed reference
//! ([`engine::reference_pattern`]) on recurrent patterns — under every
//! linalg backend choice, on small demo plants and on the paper's published
//! slots.
//!
//! Scenarios are drawn pseudo-randomly (via the offline proptest stub's
//! deterministic RNG) so every run covers the same structurally diverse
//! cases; each random case drives one engine through a whole family of
//! scenarios so checkpoint sharing across differing prefixes is exercised,
//! not just cold runs.

use cps_apps::case_study::{self, SLOT1_MEMBERS, SLOT2_MEMBERS};
use cps_control::{StateFeedback, StateSpace};
use cps_core::{AppTimingProfile, BackendChoice, DwellTimeTable, SwitchedApplication};
use cps_sched::cosim::{CosimApp, CosimScenario};
use cps_sched::{engine, scenarios, BatchCosimEngine, CosimResult};
use proptest::prelude::*;
use proptest::TestRng;

/// Builds a small stable scalar application with an explicit timing profile
/// (no dwell search — the profiles only steer the scheduler, so equivalence
/// holds for any consistent table).
#[allow(clippy::too_many_arguments)]
fn make_app(
    name: &str,
    pole: f64,
    fast_gain: f64,
    period: f64,
    max_wait: usize,
    dwell_min: usize,
    dwell_plus: usize,
    jstar: usize,
    r: usize,
) -> CosimApp {
    let plant = StateSpace::from_slices(&[&[pole]], &[0.1], &[1.0]).unwrap();
    let application = SwitchedApplication::builder(name)
        .plant(plant)
        .fast_gain(StateFeedback::from_slice(&[fast_gain]))
        .slow_gain(cps_linalg::Vector::from_slice(&[1.0, 0.2]))
        .sampling_period(period)
        .settling_threshold(0.02)
        .disturbance_state(cps_linalg::Vector::from_slice(&[1.0]))
        .build()
        .unwrap();
    let table = DwellTimeTable::from_arrays(
        jstar,
        vec![dwell_min; max_wait + 1],
        vec![dwell_plus; max_wait + 1],
    )
    .unwrap();
    let profile = AppTimingProfile::new(name, 1, jstar + 10, jstar, r, table).unwrap();
    CosimApp {
        application,
        profile,
        disturbance_sample: 0,
    }
}

fn demo_apps() -> Vec<CosimApp> {
    vec![
        make_app("A", 0.95, 8.0, 0.02, 6, 3, 5, 12, 25),
        make_app("B", 0.90, 7.0, 0.05, 4, 2, 4, 10, 20),
        make_app("C", 0.85, 6.5, 0.02, 8, 2, 6, 14, 30),
    ]
}

/// The applications of one published slot with their published Table 1
/// profiles, in the slot's member order.
fn case_study_slot(members: &[&str]) -> Vec<CosimApp> {
    let apps = case_study::all_applications().unwrap();
    members
        .iter()
        .map(|name| {
            let app = apps
                .iter()
                .find(|a| a.application().name() == *name)
                .unwrap();
            CosimApp {
                application: app.application().clone(),
                profile: app.paper_row().to_profile(name).unwrap(),
                disturbance_sample: 0,
            }
        })
        .collect()
}

use cps_sched::engine::assert_bitwise_equal;

/// Runs the oracle for a staggered scenario (one disturbance per app).
fn oracle_staggered(apps: &[CosimApp], horizon: usize, t0s: &[usize]) -> CosimResult {
    let scenario_apps: Vec<CosimApp> = apps
        .iter()
        .zip(t0s.iter())
        .map(|(app, &t0)| CosimApp {
            disturbance_sample: t0,
            ..app.clone()
        })
        .collect();
    CosimScenario::new(scenario_apps, horizon)
        .unwrap()
        .run()
        .unwrap()
}

#[test]
fn engine_matches_oracle_on_unit_scenarios() {
    let apps = demo_apps();
    let horizon = 90;
    let mut engine = BatchCosimEngine::new(apps.clone(), horizon).unwrap();
    for t0s in [[0, 0, 0], [0, 10, 25], [5, 5, 40], [0, 0, 1], [30, 20, 10]] {
        let fast = engine.run_staggered(&t0s).unwrap();
        let oracle = oracle_staggered(&apps, horizon, &t0s);
        assert_bitwise_equal(&format!("{t0s:?}"), &fast, &oracle);
        // Deterministic on the warm cache too.
        let warm = engine.run_staggered(&t0s).unwrap();
        assert_bitwise_equal(&format!("{t0s:?} warm"), &warm, &oracle);
    }
}

/// Every backend choice: under default features `Auto` is the static path
/// wherever it fits, so the heap path is reached only when forced.
const BACKENDS: [BackendChoice; 3] = [
    BackendChoice::Auto,
    BackendChoice::ForceDyn,
    BackendChoice::ForceStatic,
];

#[test]
fn engine_matches_oracle_on_generated_families() {
    let demo = demo_apps();
    let mut demo_family = scenarios::contention_sweep(&[0, 0, 12], 2, 0..10);
    demo_family.extend(scenarios::staggered_fleet(3, 7, 0..8));
    // The paper's slot S1 under the contention sweep and the staggered
    // fleet: C3's arrival swept across the opening burst, and the whole
    // arrival pattern slid along the horizon.
    let slot1 = case_study_slot(&SLOT1_MEMBERS);
    let mut slot1_family = scenarios::contention_sweep(&[0, 0, 0, 0], 3, 0..48);
    slot1_family.extend(scenarios::staggered_fleet(slot1.len(), 6, 0..60));
    for (apps, horizon, families) in [(&demo, 100, demo_family), (&slot1, 420, slot1_family)] {
        let oracles: Vec<CosimResult> = families
            .iter()
            .map(|pattern| {
                let t0s: Vec<usize> = pattern.iter().map(|times| times[0]).collect();
                oracle_staggered(apps, horizon, &t0s)
            })
            .collect();
        for backend in BACKENDS {
            let mut engine =
                BatchCosimEngine::with_backend(apps.clone(), horizon, backend).unwrap();
            let results = engine.run_batch(&families).unwrap();
            for (index, (fast, oracle)) in results.iter().zip(&oracles).enumerate() {
                assert_bitwise_equal(&format!("[{index}] {backend:?}"), fast, oracle);
            }
        }
    }
}

#[test]
fn engine_matches_windowed_reference_on_recurrent_patterns() {
    // The demo family, and the paper's slot S2 with C2 and C6 re-disturbed
    // at their fastest admissible rate.
    let slot2 = case_study_slot(&SLOT2_MEMBERS);
    for (apps, horizon, phases) in [(demo_apps(), 140, 0..6), (slot2, 800, 0..48)] {
        let profiles: Vec<AppTimingProfile> = apps.iter().map(|a| a.profile.clone()).collect();
        let storm = scenarios::recurrent_storm(&profiles, horizon, phases);
        let oracles: Vec<CosimResult> = storm
            .iter()
            .map(|pattern| engine::reference_pattern(&apps, horizon, pattern).unwrap())
            .collect();
        for backend in BACKENDS {
            let mut engine =
                BatchCosimEngine::with_backend(apps.clone(), horizon, backend).unwrap();
            for (pattern, oracle) in storm.iter().zip(&oracles) {
                let fast = engine.run(pattern).unwrap();
                assert_bitwise_equal(&format!("{pattern:?} {backend:?}"), &fast, oracle);
            }
        }
    }
}

#[test]
fn windowed_reference_coincides_with_the_scenario_oracle_when_single_shot() {
    let apps = demo_apps();
    let horizon = 90;
    for t0s in [[0, 0, 0], [3, 17, 28]] {
        let pattern: Vec<Vec<usize>> = t0s.iter().map(|&t| vec![t]).collect();
        let windowed = engine::reference_pattern(&apps, horizon, &pattern).unwrap();
        let oracle = oracle_staggered(&apps, horizon, &t0s);
        assert_bitwise_equal(&format!("{t0s:?}"), &windowed, &oracle);
    }
}

#[test]
fn undisturbed_applications_stay_at_steady_state() {
    let apps = demo_apps();
    let horizon = 60;
    let mut engine = BatchCosimEngine::new(apps.clone(), horizon).unwrap();
    let pattern = vec![vec![0], vec![], vec![20]];
    let fast = engine.run(&pattern).unwrap();
    let oracle = engine::reference_pattern(&apps, horizon, &pattern).unwrap();
    assert_bitwise_equal("undisturbed", &fast, &oracle);
    assert!(fast.outputs()[1].iter().all(|y| *y == 0.0));
    assert_eq!(fast.settling_samples()[1], Some(0));
}

/// Draws a random application family plus a family of staggered scenarios
/// from a seed and checks the engine against the oracle on every member.
fn random_case(seed: u64) {
    let mut rng = TestRng::new(seed.wrapping_add(17));
    let horizon = 50 + rng.next_below(60) as usize;
    let app_count = 1 + rng.next_below(3) as usize;
    let apps: Vec<CosimApp> = (0..app_count)
        .map(|i| {
            let pole = 0.6 + 0.35 * rng.next_f64();
            let fast_gain = 4.0 + 5.0 * rng.next_f64();
            let period = if rng.next_below(2) == 0 { 0.02 } else { 0.05 };
            let max_wait = rng.next_below(8) as usize;
            let dwell_min = 1 + rng.next_below(4) as usize;
            let dwell_plus = dwell_min + rng.next_below(4) as usize;
            let jstar = 5 + rng.next_below(12) as usize;
            let r = jstar + 1 + rng.next_below(20) as usize;
            make_app(
                &format!("r{i}"),
                pole,
                fast_gain,
                period,
                max_wait,
                dwell_min,
                dwell_plus,
                jstar,
                r,
            )
        })
        .collect();
    let mut engine = BatchCosimEngine::new(apps.clone(), horizon).unwrap();
    // A family of 4 scenarios through one engine: caches carry over between
    // differing grant prefixes.
    for scenario in 0..4 {
        let t0s: Vec<usize> = (0..app_count)
            .map(|_| rng.next_below(horizon as u64) as usize)
            .collect();
        let fast = engine.run_staggered(&t0s).unwrap();
        let oracle = oracle_staggered(&apps, horizon, &t0s);
        assert_bitwise_equal(
            &format!("seed {seed} scenario {scenario} {t0s:?}"),
            &fast,
            &oracle,
        );
    }
}

proptest! {
    #[test]
    fn engine_matches_oracle_on_random_scenario_families(seed in 0u64..1_000_000) {
        random_case(seed);
    }
}
