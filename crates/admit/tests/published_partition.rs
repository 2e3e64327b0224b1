//! The paper's case-study partition through the service path.
//!
//! The published result — `{C1, C5, C4, C3}` and `{C6, C2}`, two TT slots —
//! must fall out of the online service exactly as it does from the batch
//! engine: admit the six applications one at a time, read the partition
//! back through the protocol, snapshot, and reproduce it warm. A seeded
//! trace that also evicts must replay warm the same way.

use cps_admit::AdmissionService;
use cps_apps::case_study;
use cps_core::{AppTimingProfile, DwellTimeTable};
use cps_map::MapExplorerEngine;

/// Table 1 timing profiles, in the paper's order C1..C6.
fn paper_profiles() -> Vec<AppTimingProfile> {
    case_study::all_applications()
        .expect("published case-study data is valid")
        .iter()
        .map(|app| {
            app.paper_row()
                .to_profile(app.application().name())
                .expect("published rows are consistent")
        })
        .collect()
}

/// The published two-slot partition as fleet indices (C1 is index 0).
fn published_slots() -> Vec<Vec<usize>> {
    vec![vec![0, 4, 3, 2], vec![5, 1]]
}

#[test]
fn service_reproduces_the_published_partition() {
    let service = AdmissionService::spawn();
    let client = service.client();
    for (i, p) in paper_profiles().into_iter().enumerate() {
        let outcome = client.admit(p).unwrap();
        assert_eq!(outcome.index, i);
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.slots, published_slots());
    assert_eq!(stats.fleet_len, 6);
    assert!(stats.tier.exact_verifies > 0, "a cold run does real work");
    drop(client);
    let state = service.shutdown().unwrap();
    assert_eq!(state.report().slots(), published_slots().as_slice());
}

#[test]
fn snapshot_roundtrip_reproduces_the_partition_warm() {
    // Cold service: admit the fleet, save the caches.
    let service = AdmissionService::spawn();
    let client = service.client();
    for p in paper_profiles() {
        client.admit(p).unwrap();
    }
    let bytes = client.snapshot().unwrap();
    drop(client);
    service.shutdown().unwrap();

    // Warm restart: the fleet is gone (snapshots carry caches, not request
    // state), re-admission reproduces the published partition with every
    // verdict answered from the restored memo — zero exact verifications.
    let warm = AdmissionService::spawn_warm(&bytes).unwrap();
    let client = warm.client();
    assert_eq!(client.stats().unwrap().fleet_len, 0);
    for p in paper_profiles() {
        client.admit(p).unwrap();
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.slots, published_slots());
    assert_eq!(
        stats.tier.exact_verifies, 0,
        "warm-start verdicts must all come from the restored caches"
    );
    assert!(stats.tier.memo_hits > 0);
    drop(client);
    warm.shutdown().unwrap();
}

#[test]
fn corrupt_snapshots_are_rejected_at_spawn() {
    let service = AdmissionService::spawn();
    let client = service.client();
    let mut bytes = client.snapshot().unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    assert!(AdmissionService::spawn_warm(&bytes).is_err());
    drop(client);
    service.shutdown().unwrap();
}

/// Deterministic xorshift64* draw in `[0, bound)`.
fn next_below(state: &mut u64, bound: u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D) % bound
}

/// A small pseudo-random profile: waits above the dwells so pairs and
/// triples often share a slot, inter-arrival small enough to keep every
/// exact model cheap.
fn random_profile(state: &mut u64, tag: usize) -> AppTimingProfile {
    let mut next = |bound: u64| next_below(state, bound);
    let max_wait = 3 + next(4) as usize;
    let base = 1 + next(2) as usize;
    let t_dw_min: Vec<usize> = (0..=max_wait).map(|_| base + next(2) as usize).collect();
    let t_dw_plus: Vec<usize> = t_dw_min.iter().map(|&m| m + next(2) as usize).collect();
    let max_plus = t_dw_plus.iter().copied().max().unwrap();
    let jstar = max_wait + max_plus + 1;
    let jt = if next(2) == 0 { max_plus } else { 1 };
    let r = jstar + 1 + next(8) as usize;
    let table = DwellTimeTable::from_arrays(jstar, t_dw_min, t_dw_plus).unwrap();
    AppTimingProfile::new(format!("R{tag}"), jt, jstar + 10, jstar, r, table).unwrap()
}

/// One step of an arrive/depart trace.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Admit a renamed copy of this pool profile.
    Arrive(usize),
    /// Evict this resident fleet index.
    Depart(usize),
}

/// A seeded trace: arrivals dominate until the resident cap, and every
/// departure picks a uniformly random resident.
fn trace(state: &mut u64, ops: usize, pool_len: usize, max_resident: usize) -> Vec<Step> {
    let mut resident = 0usize;
    (0..ops)
        .map(|_| {
            if resident == 0 || (resident < max_resident && next_below(state, 4) != 0) {
                resident += 1;
                Step::Arrive(next_below(state, pool_len as u64) as usize)
            } else {
                let victim = next_below(state, resident as u64) as usize;
                resident -= 1;
                Step::Depart(victim)
            }
        })
        .collect()
}

/// What one replay of a trace leaves behind.
struct Replay {
    checkpoints: Vec<Vec<Vec<usize>>>,
    memo_hits: usize,
    exact_verifies: usize,
    snapshot: Vec<u8>,
}

/// Replays `steps` through a cold service, or a warm one restored from
/// `snapshot`. Every 8 steps and at the end, the service's partition must
/// equal a from-scratch batch first-fit of the resident fleet.
fn replay(snapshot: Option<&[u8]>, pool: &[AppTimingProfile], steps: &[Step]) -> Replay {
    let service = match snapshot {
        Some(bytes) => AdmissionService::spawn_warm(bytes).unwrap(),
        None => AdmissionService::spawn(),
    };
    let client = service.client();
    let mut mirror: Vec<AppTimingProfile> = Vec::new();
    let mut checkpoints = Vec::new();
    for (done, step) in steps.iter().enumerate() {
        match *step {
            Step::Arrive(k) => {
                // Renamed per arrival: fingerprints ignore names.
                let p = &pool[k];
                let profile = AppTimingProfile::new(
                    format!("T{done}"),
                    p.jt(),
                    p.je(),
                    p.jstar(),
                    p.min_inter_arrival(),
                    p.dwell_table().clone(),
                )
                .unwrap();
                mirror.push(profile.clone());
                client.admit(profile).unwrap();
            }
            Step::Depart(index) => {
                mirror.remove(index);
                client.evict(index).unwrap();
            }
        }
        if (done + 1) % 8 == 0 || done + 1 == steps.len() {
            let slots = client.stats().unwrap().slots;
            let batch = MapExplorerEngine::new().first_fit(&mirror).unwrap();
            assert_eq!(slots, batch.slots(), "after step {}", done + 1);
            checkpoints.push(slots);
        }
    }
    let tier = client.stats().unwrap().tier;
    let snapshot = client.snapshot().unwrap();
    drop(client);
    service.shutdown().unwrap();
    Replay {
        checkpoints,
        memo_hits: tier.memo_hits,
        exact_verifies: tier.exact_verifies,
        snapshot,
    }
}

#[test]
fn warm_replay_of_an_arrive_depart_trace_is_answered_from_the_caches() {
    let mut state = 0xA076_1D64_78BD_642F_u64;
    let pool: Vec<AppTimingProfile> = (0..4).map(|i| random_profile(&mut state, i)).collect();
    let steps = trace(&mut state, 120, pool.len(), 10);
    assert!(steps.iter().any(|s| matches!(s, Step::Depart(_))));

    let cold = replay(None, &pool, &steps);
    assert!(cold.exact_verifies > 0, "a cold run does real work");
    let warm = replay(Some(&cold.snapshot), &pool, &steps);
    assert_eq!(
        warm.checkpoints, cold.checkpoints,
        "a warm replay must reproduce the cold partitions bit for bit"
    );
    assert_eq!(
        warm.exact_verifies, 0,
        "a warm replay of the same trace must be answered from the caches"
    );
    assert!(
        warm.memo_hits > cold.memo_hits,
        "warm memo hits {} must exceed cold {}",
        warm.memo_hits,
        cold.memo_hits
    );
}
