//! Engine-vs-oracle equivalence on randomized slot-sharing models and on
//! the paper's case-study slot models.
//!
//! The interned-state [`SlotVerifyEngine`] must agree with the retained
//! naive checker ([`cps_verify::reference`]) on verdicts and budget
//! semantics, every witness either side produces must replay through the
//! scheduler semantics ([`cps_verify::validate_witness`]), and the paper's
//! instance-bounded acceleration ([`cps_verify::bounded`]) must never change
//! a verdict. Models are drawn pseudo-randomly (via the offline proptest
//! stub's deterministic RNG) so every run covers the same structurally
//! diverse cases, with duplicated profiles appearing in every adjacency
//! pattern to exercise the symmetry reduction.

use cps_apps::case_study;
use cps_core::{AppTimingProfile, DwellTimeTable};
use cps_verify::bounded::{sufficient_instance_bound, verify_accelerated};
use cps_verify::{
    has_interchangeable_neighbors, reference, validate_witness, SlotSharingModel, SlotVerifyEngine,
    VerificationConfig,
};
use proptest::prelude::*;
use proptest::TestRng;

fn profile(
    name: &str,
    max_wait: usize,
    dwell_min: usize,
    dwell_plus: usize,
    r: usize,
) -> AppTimingProfile {
    let len = max_wait + 1;
    let jstar = max_wait + dwell_plus + 1;
    let table =
        DwellTimeTable::from_arrays(jstar, vec![dwell_min; len], vec![dwell_plus; len]).unwrap();
    AppTimingProfile::new(name, 1, jstar + 10, jstar, r.max(jstar + 1), table).unwrap()
}

/// A random-but-deterministic profile with a small state footprint: waits up
/// to 4 samples, dwells up to 5, inter-arrival up to ~20. Small constants
/// keep the exhaustive oracle fast enough for 64 cases per property.
fn random_profile(rng: &mut TestRng, tag: usize) -> AppTimingProfile {
    let max_wait = rng.next_below(5) as usize;
    let dwell_min = 1 + rng.next_below(3) as usize;
    let dwell_plus = dwell_min + rng.next_below(3) as usize;
    let jstar = max_wait + dwell_plus + 1;
    let r = jstar + 1 + rng.next_below(10) as usize;
    profile(&format!("P{tag}"), max_wait, dwell_min, dwell_plus, r)
}

/// Draws 1–3 applications from a pool of 1–2 distinct profiles, so the
/// models cover duplicates, adjacent and interleaved, as well as fully
/// asymmetric line-ups.
fn random_model(seed: u64) -> SlotSharingModel {
    let mut rng = TestRng::new(seed.wrapping_add(11));
    let distinct = 1 + rng.next_below(2) as usize;
    let pool: Vec<AppTimingProfile> = (0..distinct).map(|i| random_profile(&mut rng, i)).collect();
    let n = 1 + rng.next_below(3) as usize;
    let profiles: Vec<AppTimingProfile> = (0..n)
        .map(|_| pool[rng.next_below(distinct as u64) as usize].clone())
        .collect();
    SlotSharingModel::new(profiles).unwrap()
}

/// The engine/oracle contract on one model and configuration: equal
/// verdicts, never more popped states (exactly as many without
/// interchangeable neighbours), and replayable witnesses on both sides.
fn assert_equivalent(
    engine: &mut SlotVerifyEngine,
    model: &SlotSharingModel,
    config: &VerificationConfig,
) {
    let oracle = reference::verify(model, config).unwrap();
    let fast = engine.verify(model, config).unwrap();
    assert_eq!(fast.schedulable(), oracle.schedulable());
    assert!(fast.states_explored() <= oracle.states_explored());
    if !has_interchangeable_neighbors(model) {
        // Without interchangeable neighbours the engine explores the
        // oracle's graph in the oracle's order: identical popped counts pin
        // the shared budget semantics.
        assert_eq!(fast.states_explored(), oracle.states_explored());
    }
    assert_eq!(fast.witness().is_some(), oracle.witness().is_some());
    for witness in [fast.witness(), oracle.witness()].into_iter().flatten() {
        validate_witness(model, witness).unwrap();
    }
}

proptest! {
    #[test]
    fn engine_matches_oracle_on_random_models(seed in 0u64..1_000_000) {
        let model = random_model(seed);
        let mut engine = SlotVerifyEngine::new();
        for config in [VerificationConfig::unbounded(), VerificationConfig::bounded(2)] {
            assert_equivalent(&mut engine, &model, &config);
        }
    }

    #[test]
    fn bounded_and_unbounded_verdicts_agree_on_random_models(seed in 0u64..1_000_000) {
        let model = random_model(seed.wrapping_mul(3));
        let bound = sufficient_instance_bound(&model);
        prop_assert!(bound >= 2);
        let exact_oracle = reference::verify(&model, &VerificationConfig::unbounded()).unwrap();
        let accelerated_oracle = verify_accelerated(&model).unwrap();
        let mut engine = SlotVerifyEngine::new();
        let exact_engine = engine.verify(&model, &VerificationConfig::unbounded()).unwrap();
        let accelerated_engine = engine
            .verify(&model, &VerificationConfig::bounded(bound))
            .unwrap();
        prop_assert_eq!(exact_oracle.schedulable(), accelerated_oracle.schedulable());
        prop_assert_eq!(exact_oracle.schedulable(), exact_engine.schedulable());
        prop_assert_eq!(exact_oracle.schedulable(), accelerated_engine.schedulable());
        for witness in [accelerated_oracle.witness(), accelerated_engine.witness()]
            .into_iter()
            .flatten()
        {
            validate_witness(&model, witness).unwrap();
        }
    }

    #[test]
    fn shuffling_identical_profiles_preserves_the_verdict(seed in 0u64..1_000_000) {
        // A duplicated class {P, P} plus one distinct profile Q, in every
        // arrangement of the multiset. Two claims are pinned:
        //
        // * engine and oracle agree on *every* arrangement — interchangeable
        //   applications adjacent (full symmetry reduction) or interleaved
        //   (only the adjacent pair reduces);
        // * arrangements with the same profile sequence — i.e. shuffles that
        //   only permute the identical profiles among themselves — give the
        //   same verdict and explored-state count.
        //
        // Arrangements that move Q relative to the Ps are deliberately NOT
        // asserted equal to each other: the scheduler breaks laxity ties by
        // application index, so the verdict is only invariant under
        // permutations of interchangeable applications.
        let mut rng = TestRng::new(seed.wrapping_add(29));
        let p = random_profile(&mut rng, 0);
        let q = random_profile(&mut rng, 1);
        let arrangements = [
            vec![p.clone(), p.clone(), q.clone()],
            vec![p.clone(), q.clone(), p.clone()],
            vec![q.clone(), p.clone(), p.clone()],
            // The same sequences again with the interchangeable Ps swapped —
            // literally equal models, listed to make the shuffle claim
            // explicit.
            vec![p.clone(), p.clone(), q.clone()],
            vec![q, p.clone(), p],
        ];
        let mut engine = SlotVerifyEngine::new();
        let mut by_sequence: Vec<(Vec<AppTimingProfile>, bool, usize)> = Vec::new();
        for profiles in arrangements {
            let key = profiles.clone();
            let model = SlotSharingModel::new(profiles).unwrap();
            let oracle = reference::verify(&model, &VerificationConfig::unbounded()).unwrap();
            let fast = engine.verify(&model, &VerificationConfig::unbounded()).unwrap();
            prop_assert_eq!(fast.schedulable(), oracle.schedulable());
            if let Some(witness) = fast.witness() {
                validate_witness(&model, witness).unwrap();
            }
            if let Some((_, verdict, states)) =
                by_sequence.iter().find(|(k, _, _)| *k == key)
            {
                prop_assert_eq!(*verdict, fast.schedulable());
                prop_assert_eq!(*states, fast.states_explored());
            } else {
                by_sequence.push((key, fast.schedulable(), fast.states_explored()));
            }
        }
    }
}

#[test]
fn engine_matches_oracle_on_the_case_study_slot_models() {
    // The paper's second slot and the first three members of its first,
    // exact and under the sufficient instance bound, on published Table 1
    // profiles.
    let apps = case_study::all_applications().unwrap();
    let mut engine = SlotVerifyEngine::new();
    for names in [["C6", "C2"].as_slice(), &["C1", "C5", "C4"]] {
        let profiles = names
            .iter()
            .map(|name| {
                let app = apps.iter().find(|a| a.application().name() == *name);
                app.unwrap().paper_row().to_profile(name).unwrap()
            })
            .collect();
        let model = SlotSharingModel::new(profiles).unwrap();
        let bound = sufficient_instance_bound(&model);
        for config in [
            VerificationConfig::unbounded(),
            VerificationConfig::bounded(bound),
        ] {
            assert_equivalent(&mut engine, &model, &config);
        }
    }
}

#[test]
fn sufficient_bound_is_exact_on_the_hand_picked_models() {
    // The three original hand-picked cases, kept as a fast regression net
    // alongside the randomized property above.
    for (a_wait, b_wait, expect) in [(10usize, 10usize, true), (0, 0, false), (4, 2, true)] {
        let model = SlotSharingModel::new(vec![
            profile("A", a_wait, 3, 4, 20),
            profile("B", b_wait, 3, 4, 20),
        ])
        .unwrap();
        let accelerated = verify_accelerated(&model).unwrap();
        let exact = reference::verify(&model, &VerificationConfig::unbounded()).unwrap();
        assert_eq!(accelerated.schedulable(), expect);
        assert_eq!(accelerated.schedulable(), exact.schedulable());
        let mut engine = SlotVerifyEngine::new();
        let engine_exact = engine
            .verify(&model, &VerificationConfig::unbounded())
            .unwrap();
        assert_eq!(engine_exact.schedulable(), expect);
    }
}
