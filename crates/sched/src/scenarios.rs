//! Disturbance-scenario family generators for the batch co-simulation
//! engine.
//!
//! Each generator produces a family of disturbance patterns (one
//! `Vec<Vec<usize>>` per scenario: per application, its sorted disturbance
//! samples) ordered so that **neighbouring scenarios agree on a prefix of
//! arbiter grants** — exactly what [`crate::BatchCosimEngine`]'s checkpoint
//! sharing exploits. The same families drive the scheduler-invariant
//! property tests, the engine-vs-oracle tests and `perfbench`'s
//! `case_study_dimensioning` workload.

use cps_core::AppTimingProfile;

/// A contention sweep: every application is disturbed once at its base
/// sample, while application `focus` sweeps its disturbance over
/// `base + offset` for each offset in `offsets`.
///
/// Sweeping one application's arrival against an otherwise fixed background
/// varies the slot contention seen by the arbiter; consecutive offsets
/// usually change only the tail of the grant sequence.
///
/// # Panics
///
/// Panics when `focus` is out of range.
pub fn contention_sweep(
    bases: &[usize],
    focus: usize,
    offsets: std::ops::Range<usize>,
) -> Vec<Vec<Vec<usize>>> {
    assert!(focus < bases.len(), "focus application out of range");
    offsets
        .map(|offset| {
            bases
                .iter()
                .enumerate()
                .map(|(i, &base)| {
                    if i == focus {
                        vec![base + offset]
                    } else {
                        vec![base]
                    }
                })
                .collect()
        })
        .collect()
}

/// A staggered fleet: application `i` is disturbed once at
/// `shift + i * stride`, and the whole fleet slides over `shifts`.
///
/// The scheduler is time-invariant, so every scenario of this family
/// produces the *same* per-application response windows (just translated in
/// absolute time) — the engine serves every scenario after the first from
/// its checkpoints.
pub fn staggered_fleet(
    app_count: usize,
    stride: usize,
    shifts: std::ops::Range<usize>,
) -> Vec<Vec<Vec<usize>>> {
    shifts
        .map(|shift| (0..app_count).map(|i| vec![shift + i * stride]).collect())
        .collect()
}

/// A recurrent-disturbance storm: application `i` is re-disturbed every
/// `min_inter_arrival` samples (its fastest admissible rate), starting at
/// `phase`, until the horizon; the family varies the common phase.
///
/// Every generated pattern respects each profile's minimum inter-arrival
/// time by construction, so it always passes scheduler validation.
pub fn recurrent_storm(
    profiles: &[AppTimingProfile],
    horizon: usize,
    phases: std::ops::Range<usize>,
) -> Vec<Vec<Vec<usize>>> {
    phases
        .map(|phase| {
            profiles
                .iter()
                .map(|profile| {
                    (phase..horizon)
                        .step_by(profile.min_inter_arrival().max(1))
                        .collect()
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_core::DwellTimeTable;

    fn profile(r: usize) -> AppTimingProfile {
        let table = DwellTimeTable::from_arrays(r - 1, vec![3; 5], vec![5; 5]).unwrap();
        AppTimingProfile::new("p", 1, r + 5, r - 1, r, table).unwrap()
    }

    #[test]
    fn contention_sweep_moves_only_the_focus_app() {
        let family = contention_sweep(&[0, 0, 5], 2, 0..4);
        assert_eq!(family.len(), 4);
        for (offset, scenario) in family.iter().enumerate() {
            assert_eq!(scenario[0], vec![0]);
            assert_eq!(scenario[1], vec![0]);
            assert_eq!(scenario[2], vec![5 + offset]);
        }
    }

    #[test]
    fn staggered_fleet_translates_the_whole_fleet() {
        let family = staggered_fleet(3, 4, 2..5);
        assert_eq!(family.len(), 3);
        assert_eq!(family[0], vec![vec![2], vec![6], vec![10]]);
        assert_eq!(family[2], vec![vec![4], vec![8], vec![12]]);
    }

    #[test]
    fn recurrent_storm_respects_inter_arrival_times() {
        let profiles = vec![profile(20), profile(35)];
        let family = recurrent_storm(&profiles, 100, 0..3);
        assert_eq!(family.len(), 3);
        for (phase, scenario) in family.iter().enumerate() {
            for (app, times) in scenario.iter().enumerate() {
                assert_eq!(times[0], phase);
                assert!(times.iter().all(|&t| t < 100));
                for pair in times.windows(2) {
                    assert!(pair[1] - pair[0] >= profiles[app].min_inter_arrival());
                }
            }
        }
    }
}
