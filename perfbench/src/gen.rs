//! Seeded input generators. Everything a workload feeds the program comes
//! from here, built on `cps_bench::fleet`, so one seed always yields the
//! same requests and fleets.

use cps_bench::fleet::{fleet_profile, next_below, random_profile};
use cps_core::AppTimingProfile;

/// The xorshift state for a seed (splitmix64 finaliser, never zero), so
/// neighbouring seeds give unrelated streams.
pub fn seed_state(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) | 1
}

/// Distinct timing contents the churn trace draws arrivals from.
pub const CHURN_POOL: usize = 6;
/// The catalogues of contents are drawn once from this fixed seed: the
/// programs always see the same application types, and `--seed` drives
/// which of them arrive, depart or share a fleet. A catalogue per seed
/// would make the largest exact model, and with it set-up time and peak
/// memory, a property of the seed rather than of the program.
const CATALOGUE_SEED: u64 = 0xA076_1D64_78BD_642F;
/// Resident-fleet cap of the churn trace.
pub const CHURN_CAP: usize = 14;
/// Exact-verification state budget of a deadline admit.
pub const DEADLINE_BUDGET: usize = 200;
/// Every this many requests, one is a `Stats` request.
pub const STATS_EVERY: u64 = 64;
/// Every this many requests, one is a `Snapshot` request.
pub const SNAPSHOT_EVERY: u64 = 1024;

/// One request of the admission churn trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Admit a renamed copy of this pool profile, under a state budget for
    /// a deadline admit.
    Arrive {
        pool: usize,
        budget: Option<usize>,
    },
    /// Evict this resident fleet index.
    Depart(usize),
    Stats,
    Snapshot,
}

/// The seeded, unbounded arrive/depart trace of `admission_churn`:
/// arrivals dominate until the resident cap, departures pick a uniformly
/// random resident, about one arrival in four is a deadline admit, and
/// `Stats`/`Snapshot` requests are interleaved at fixed periods.
#[derive(Debug, Clone)]
pub struct ChurnTrace {
    state: u64,
    resident: usize,
    step: u64,
    pool: Vec<AppTimingProfile>,
}

impl ChurnTrace {
    pub fn new(seed: u64) -> Self {
        let mut catalogue = seed_state(CATALOGUE_SEED);
        let pool = (0..CHURN_POOL)
            .map(|i| random_profile(&mut catalogue, i))
            .collect();
        ChurnTrace {
            state: seed_state(seed),
            resident: 0,
            step: 0,
            pool,
        }
    }

    pub fn pool(&self) -> &[AppTimingProfile] {
        &self.pool
    }
}

impl Iterator for ChurnTrace {
    type Item = Step;

    fn next(&mut self) -> Option<Step> {
        self.step += 1;
        if self.step.is_multiple_of(SNAPSHOT_EVERY) {
            return Some(Step::Snapshot);
        }
        if self.step.is_multiple_of(STATS_EVERY) {
            return Some(Step::Stats);
        }
        let state = &mut self.state;
        let arrive = self.resident == 0 || (self.resident < CHURN_CAP && next_below(state, 4) != 0);
        Some(if arrive {
            self.resident += 1;
            let pool = next_below(state, CHURN_POOL as u64) as usize;
            let budget = (next_below(state, 4) == 0).then_some(DEADLINE_BUDGET);
            Step::Arrive { pool, budget }
        } else {
            let victim = next_below(state, self.resident as u64) as usize;
            self.resident -= 1;
            Step::Depart(victim)
        })
    }
}

/// Contents in the sweep's catalogue.
const SWEEP_CATALOGUE: usize = 48;

/// The seeded, unbounded design-space sweep of `fleet_sweep`: fleet `k`
/// holds 8–12 applications of 2–4 contents, so how often contents repeat
/// varies from fleet to fleet. The contents come from one fixed catalogue
/// of constant-dwell profiles (`fleet_profile`), and `--seed` drives which
/// of them each fleet combines; like the churn's catalogue, this keeps the
/// largest exact model a property of the program, not of the seed. A
/// content of dwell `d` (1–4) waits at most `d` or `2d`, so every slot the
/// cascade verifies exactly holds few applications and its model stays
/// small; inter-arrival times vary over 24 values, so fleets keep asking
/// the engine new questions.
#[derive(Debug, Clone)]
pub struct FleetSweep {
    state: u64,
    fleet: usize,
    catalogue: Vec<(usize, usize, usize)>,
}

impl FleetSweep {
    pub fn new(seed: u64) -> Self {
        let mut catalogue = seed_state(CATALOGUE_SEED);
        let mut draw = |bound: usize| next_below(&mut catalogue, bound as u64) as usize;
        let catalogue = (0..SWEEP_CATALOGUE)
            .map(|_| {
                let dwell = 1 + draw(4);
                let max_wait = dwell * (1 + draw(2));
                (max_wait, dwell, max_wait + dwell + 2 + draw(24))
            })
            .collect();
        FleetSweep {
            state: seed_state(seed),
            fleet: 0,
            catalogue,
        }
    }
}

impl Iterator for FleetSweep {
    type Item = Vec<AppTimingProfile>;

    fn next(&mut self) -> Option<Vec<AppTimingProfile>> {
        let mut draw = |bound: usize| next_below(&mut self.state, bound as u64) as usize;
        let size = 8 + draw(5);
        let kinds: Vec<usize> = (0..2 + draw(3)).map(|_| draw(SWEEP_CATALOGUE)).collect();
        let fleet = (0..size)
            .map(|i| {
                let (max_wait, dwell, r) = self.catalogue[kinds[draw(kinds.len())]];
                fleet_profile(&format!("F{}_{i}", self.fleet), max_wait, dwell, r)
            })
            .collect();
        self.fleet += 1;
        Some(fleet)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_yields_one_trace_and_another_seed_does_not() {
        let steps = |seed| -> (Vec<AppTimingProfile>, Vec<Step>) {
            let trace = ChurnTrace::new(seed);
            (trace.pool().to_vec(), trace.take(5000).collect())
        };
        let (pool, trace) = steps(11);
        assert_eq!((pool.clone(), trace.clone()), steps(11));
        let (other_pool, other_trace) = steps(12);
        assert_eq!(pool, other_pool, "the catalogue is fixed");
        assert_ne!(trace, other_trace);
        assert!(trace.iter().any(|s| matches!(
            s,
            Step::Arrive {
                budget: Some(_),
                ..
            }
        )));
        assert!(trace
            .iter()
            .any(|s| matches!(s, Step::Arrive { budget: None, .. })));
        assert!(trace.iter().any(|s| matches!(s, Step::Depart(_))));
        assert!(trace.contains(&Step::Snapshot));
    }

    #[test]
    fn one_seed_yields_one_sweep_and_another_seed_does_not() {
        let sweep = |seed| FleetSweep::new(seed).take(30).collect::<Vec<_>>();
        let fleets = sweep(11);
        assert_eq!(fleets, sweep(11));
        assert_ne!(fleets, sweep(12));
        assert!(fleets.iter().all(|f| (8..=12).contains(&f.len())));
        assert!(fleets.iter().any(|f| f.len() == 8));
    }
}
