//! Deterministic synthetic-fleet generators shared by the harnesses and the
//! `perfbench` workloads.
//!
//! The generators mirror the state footprint of the property-test models:
//! small waits and dwells keep every exact model cheap, duplicated contents
//! exercise the memo and symmetry machinery, and everything is driven by an
//! explicit xorshift64* state so runs are reproducible.

use cps_core::{AppTimingProfile, DwellTimeTable};

/// A constant-dwell synthetic profile whose hold time `J_T` equals the dwell
/// (so the baseline gate can open) — the symmetric-fleet building block.
///
/// # Panics
///
/// Panics if the derived table/profile constants are inconsistent, which
/// cannot happen for the arguments the benches pass.
pub fn fleet_profile(name: &str, max_wait: usize, dwell: usize, r: usize) -> AppTimingProfile {
    let jstar = max_wait + dwell + 1;
    let table =
        DwellTimeTable::from_arrays(jstar, vec![dwell; max_wait + 1], vec![dwell; max_wait + 1])
            .expect("consistent dwell table");
    AppTimingProfile::new(name, dwell, jstar + 10, jstar, r.max(jstar + 1), table)
        .expect("consistent profile")
}

/// Deterministic xorshift64* draw in `[0, bound)`.
pub fn next_below(state: &mut u64, bound: u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D) % bound
}

/// A deterministic pseudo-random small profile, mirroring the
/// state-footprint of the property-test models: waits comfortably above the
/// dwells so pairs and triples often share a slot (exercising the accept
/// tiers, not only the screen), inter-arrival small enough to keep the exact
/// models cheap.
///
/// # Panics
///
/// Panics if the derived constants are inconsistent, which cannot happen for
/// the generated values.
pub fn random_profile(state: &mut u64, tag: usize) -> AppTimingProfile {
    let mut next = |bound: u64| next_below(state, bound);
    let max_wait = 3 + next(4) as usize;
    let len = max_wait + 1;
    let base = 1 + next(2) as usize;
    let t_dw_min: Vec<usize> = (0..len).map(|_| base + next(2) as usize).collect();
    let t_dw_plus: Vec<usize> = t_dw_min.iter().map(|&m| m + next(2) as usize).collect();
    let max_plus = t_dw_plus.iter().copied().max().unwrap();
    let jstar = max_wait + max_plus + 1;
    let jt = if next(2) == 0 { max_plus } else { 1 };
    let r = jstar + 1 + next(8) as usize;
    let table = DwellTimeTable::from_arrays(jstar, t_dw_min, t_dw_plus).expect("consistent table");
    AppTimingProfile::new(format!("R{tag}"), jt, jstar + 10, jstar, r, table)
        .expect("consistent profile")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_profile_is_consistent() {
        let p = fleet_profile("S0", 6, 3, 60);
        assert_eq!(p.jstar(), 10);
        assert_eq!(p.min_inter_arrival(), 60);
    }
}
