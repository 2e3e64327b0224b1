//! Incremental online admission: a long-lived fleet, repaired in place.
//!
//! The batch engine ([`crate::MapExplorerEngine`]) answers "map this fleet"
//! by replaying first-fit over all applications. A long-running admission
//! service faces a different shape of traffic: applications *arrive* and
//! *depart* one at a time, and the partition must stay current after every
//! change without re-running the whole heuristic. [`AdmissionState`] is that
//! incremental front end over the same persistent `CascadeCore`: it owns
//! the resident fleet, the current [`MappingReport`], and repairs the
//! partition after each [`AdmissionState::add_app`] /
//! [`AdmissionState::remove_app`] by re-placing only the *suffix* of the
//! first-fit order the change can affect.
//!
//! # Why suffix repair is exact
//!
//! First-fit is an online algorithm over the sorted order: the placement of
//! the application at rank `k` depends only on the placements of ranks
//! `0..k`. An arriving application enters the order at some rank `cut`
//! (after all ties — its dense index is the largest); every placement at a
//! rank below `cut` is therefore *unchanged*, and pruning the current
//! partition to those members reconstructs the exact mid-algorithm state
//! from which a from-scratch run would proceed. Re-placing `order[cut..]`
//! from that state yields the partition a full
//! [`MapExplorerEngine::first_fit`](crate::MapExplorerEngine::first_fit)
//! over the updated fleet would produce — *bit-identical*, which the
//! property tests pin by comparing against a from-scratch rebuild after
//! arbitrary add/remove sequences. Departures work the same way: the removed
//! application held some rank `cut`; lower ranks keep their placements
//! (their relative order and profiles are untouched — removal renumbers
//! dense indices but preserves their relative order, so every sort
//! tie-break agrees with a rebuild), and the suffix is re-placed.
//!
//! Most re-placed probes hit the cascade's memo (the suffix was placed
//! before, and verdicts are keyed canonically), so repair cost is dominated
//! by the genuinely new queries — the incremental win `perfbench`'s
//! `admission_churn` workload measures.
//!
//! # Warm starts
//!
//! [`AdmissionState::snapshot`] persists the cascade caches (configuration,
//! interned fingerprints, verdict memo, anti-monotone index) in the
//! versioned `cps-intern` snapshot format; [`AdmissionState::from_snapshot`]
//! restores them layout-identically. The resident fleet is deliberately
//! *not* part of the snapshot — it is the service's request state, not a
//! cache; on restart the service re-admits its fleet and the warm caches
//! answer those queries without touching the exact verifier.

use std::error::Error;
use std::fmt;

use cps_core::AppTimingProfile;
use cps_intern::SnapshotError;
use cps_verify::{VerificationConfig, VerifyError};

use crate::cascade::{CascadeCore, TierVerdict};
use crate::first_fit::{place_suffix, sort_for_first_fit};
use crate::report::{MappingReport, TierStats};

/// Name under which the service's reports identify their oracle.
const ORACLE_NAME: &str = "online-admission-cascade";

/// Errors of the incremental admission front end.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmissionError {
    /// A fleet index was out of bounds for the resident fleet.
    OutOfRange {
        /// The offending index.
        index: usize,
        /// The resident fleet's size at the time of the call.
        fleet_len: usize,
    },
    /// The underlying verification failed.
    Verify(VerifyError),
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::OutOfRange { index, fleet_len } => {
                write!(
                    f,
                    "fleet index {index} is out of range for a fleet of {fleet_len}"
                )
            }
            AdmissionError::Verify(e) => write!(f, "admission verification failed: {e}"),
        }
    }
}

impl Error for AdmissionError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AdmissionError::Verify(e) => Some(e),
            AdmissionError::OutOfRange { .. } => None,
        }
    }
}

impl From<VerifyError> for AdmissionError {
    fn from(e: VerifyError) -> Self {
        AdmissionError::Verify(e)
    }
}

/// How a deadline-bounded placement was decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitQuality {
    /// Every probe was decided with exact-tier fidelity.
    Exact,
    /// At least one probe fell back to the sound conservative screen after
    /// the exact tier ran out of its squeezed budget. The placement is still
    /// bit-identical to the exact first-fit partition (a conservative accept
    /// implies an exact accept).
    Degraded,
}

/// The verdict of a deadline-bounded arrival
/// ([`AdmissionState::add_app_within`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadlineAdmit {
    /// The application was admitted at fleet index `index`.
    Placed {
        /// The new application's fleet index.
        index: usize,
        /// Whether the degraded ladder was needed anywhere in the repair.
        quality: AdmitQuality,
    },
    /// No sound verdict was reachable within the budget for some probe; the
    /// fleet and partition are unchanged. The caller may retry with a larger
    /// budget (or no budget) at leisure.
    Deferred,
}

/// A long-lived incremental admission state: resident fleet, current
/// partition, and the persistent cascade caches behind both. See the module
/// docs for the repair invariant and the snapshot contract.
///
/// # Example
///
/// ```
/// use cps_core::{AppTimingProfile, DwellTimeTable};
/// use cps_map::AdmissionState;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let profile = |name: &str| -> AppTimingProfile {
///     let table = DwellTimeTable::from_arrays(18, vec![3; 12], vec![5; 12]).unwrap();
///     AppTimingProfile::new(name, 9, 35, 18, 25, table).unwrap()
/// };
/// let mut state = AdmissionState::new();
/// let a = state.add_app(profile("A"))?;
/// let _b = state.add_app(profile("B"))?;
/// assert_eq!(state.fleet().len(), 2);
/// state.remove_app(a)?;
/// assert_eq!(state.fleet().len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct AdmissionState {
    core: CascadeCore,
    fleet: Vec<AppTimingProfile>,
    /// Interned fingerprint id per fleet index, parallel to `fleet`.
    fleet_ids: Vec<u32>,
    report: MappingReport,
}

impl Default for AdmissionState {
    fn default() -> Self {
        Self::with_core(CascadeCore::default())
    }
}

impl AdmissionState {
    fn with_core(core: CascadeCore) -> Self {
        AdmissionState {
            core,
            fleet: Vec::new(),
            fleet_ids: Vec::new(),
            report: MappingReport::with_tier_stats(
                ORACLE_NAME.to_string(),
                Vec::new(),
                0,
                TierStats::default(),
            ),
        }
    }

    /// Creates an empty state with the default (exact, unbounded)
    /// verification configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty state with an explicit verification configuration
    /// for the cascade's exact tier.
    pub fn with_config(config: VerificationConfig) -> Self {
        Self::with_core(CascadeCore::with_config(config))
    }

    /// Switches the verdict memo to the unbounded hash map (see
    /// [`crate::MapExplorerEngine::with_unbounded_memo`]).
    pub fn with_unbounded_memo(mut self) -> Self {
        self.core.set_unbounded_memo();
        self
    }

    /// Bounds the verdict memo to `buckets` two-way buckets (see
    /// [`crate::MapExplorerEngine::with_memo_capacity`]).
    pub fn with_memo_capacity(mut self, buckets: usize) -> Self {
        self.core.set_memo_capacity(buckets);
        self
    }

    /// The verification configuration of the cascade's exact tier.
    pub fn config(&self) -> &VerificationConfig {
        self.core.config()
    }

    /// The resident fleet, in arrival order (indices are the ids returned by
    /// [`AdmissionState::add_app`], renumbered downwards on removals).
    pub fn fleet(&self) -> &[AppTimingProfile] {
        &self.fleet
    }

    /// The current mapping of the resident fleet. Slots list fleet indices;
    /// the accumulated tier statistics cover every repair since the state
    /// was created.
    pub fn report(&self) -> &MappingReport {
        &self.report
    }

    /// Cumulative cascade statistics over the state's whole lifetime
    /// (including ad-hoc [`AdmissionState::admits`] queries, which the
    /// report's per-repair accounting excludes).
    pub fn stats(&self) -> &TierStats {
        self.core.stats()
    }

    /// Admits an arriving application into the resident fleet, repairing the
    /// partition incrementally, and returns its fleet index. The resulting
    /// partition is bit-identical to a from-scratch first-fit over the
    /// updated fleet.
    ///
    /// # Errors
    ///
    /// Propagates exact-verifier failures; the fleet and partition are left
    /// unchanged on error.
    pub fn add_app(&mut self, profile: AppTimingProfile) -> Result<usize, VerifyError> {
        let app = self.fleet.len();
        let id = self.core.intern_profile(&profile);
        self.fleet.push(profile);
        self.fleet_ids.push(id);
        // The arrival's rank in the updated order: ties sort before it, since
        // its dense index is the largest.
        let order = sort_for_first_fit(&self.fleet);
        let cut = Self::rank_of(&order, app);
        // Placements below `cut` are invariant (see the module docs); prune
        // the current partition to them and re-place the suffix.
        let pruned = Self::prune_to_prefix(self.report.slots(), &order, cut, |m| m);
        match self.repair(pruned, &order[cut..]) {
            Ok(()) => Ok(app),
            Err(e) => {
                self.fleet.pop();
                self.fleet_ids.pop();
                Err(e)
            }
        }
    }

    /// Admits an arriving application like [`AdmissionState::add_app`], but
    /// caps every exact verification at `state_budget` explored states — the
    /// cooperative deadline of the admission service. Probes the exact tier
    /// cannot decide in budget fall back to the sound conservative screen
    /// (a [`AdmitQuality::Degraded`] accept); if even that cannot accept,
    /// the *whole* placement is abandoned, the fleet rolls back, and the
    /// verdict is [`DeadlineAdmit::Deferred`] — never an unsound reject.
    ///
    /// Every successful placement (exact or degraded) is bit-identical to
    /// the unbounded first-fit partition over the updated fleet, because the
    /// degraded ladder only ever *accepts* where the exact tier would.
    ///
    /// # Errors
    ///
    /// Propagates verification failures other than budget exhaustion and
    /// cancellation; the fleet and partition are left unchanged on error.
    pub fn add_app_within(
        &mut self,
        profile: AppTimingProfile,
        state_budget: usize,
    ) -> Result<DeadlineAdmit, AdmissionError> {
        let app = self.fleet.len();
        let id = self.core.intern_profile(&profile);
        self.fleet.push(profile);
        self.fleet_ids.push(id);
        let order = sort_for_first_fit(&self.fleet);
        let cut = Self::rank_of(&order, app);
        let pruned = Self::prune_to_prefix(self.report.slots(), &order, cut, |m| m);
        match self.repair_within(pruned, &order[cut..], state_budget) {
            Ok(Some(quality)) => Ok(DeadlineAdmit::Placed {
                index: app,
                quality,
            }),
            Ok(None) => {
                self.fleet.pop();
                self.fleet_ids.pop();
                Ok(DeadlineAdmit::Deferred)
            }
            Err(e) => {
                self.fleet.pop();
                self.fleet_ids.pop();
                Err(AdmissionError::Verify(e))
            }
        }
    }

    /// The rank of fleet index `app` in the first-fit `order`.
    /// `sort_for_first_fit` returns a permutation of the fleet indices, so
    /// the rank always exists; if that invariant were ever violated, fall
    /// back to rank 0 — a full re-placement, slower but still exact — rather
    /// than panicking inside the service.
    fn rank_of(order: &[usize], app: usize) -> usize {
        order.iter().position(|&i| i == app).unwrap_or(0)
    }

    /// Evicts the application at `index` from the resident fleet, repairing
    /// the partition incrementally, and returns its profile. Applications
    /// after `index` are renumbered down by one (arrival order is
    /// preserved, which keeps every first-fit tie-break identical to a
    /// from-scratch rebuild).
    ///
    /// # Errors
    ///
    /// [`AdmissionError::OutOfRange`] when `index` is out of bounds for the
    /// resident fleet; otherwise propagates exact-verifier failures. The
    /// fleet and partition are left unchanged on error.
    pub fn remove_app(&mut self, index: usize) -> Result<AppTimingProfile, AdmissionError> {
        if index >= self.fleet.len() {
            return Err(AdmissionError::OutOfRange {
                index,
                fleet_len: self.fleet.len(),
            });
        }
        // The departing application's rank in the *current* order: lower
        // ranks keep their placements, everything after it is re-placed.
        let order_before = sort_for_first_fit(&self.fleet);
        let cut = Self::rank_of(&order_before, index);
        // Prune to the invariant prefix, renumbering surviving indices past
        // the departure down by one.
        let pruned = Self::prune_to_prefix(self.report.slots(), &order_before, cut, |m| {
            m - usize::from(m > index)
        });
        let profile = self.fleet.remove(index);
        let id = self.fleet_ids.remove(index);
        // The remaining applications keep their relative order, so the new
        // order is the old one minus the departure, renumbered — its first
        // `cut` entries are exactly the pruned prefix.
        let order = sort_for_first_fit(&self.fleet);
        match self.repair(pruned, &order[cut..]) {
            Ok(()) => Ok(profile),
            Err(e) => {
                self.fleet.insert(index, profile);
                self.fleet_ids.insert(index, id);
                Err(AdmissionError::Verify(e))
            }
        }
    }

    /// Ad-hoc admission query against the resident fleet: may the
    /// applications selected by `members` (fleet indices, in that order)
    /// share one TT slot? Runs the cascade without touching the partition.
    ///
    /// # Errors
    ///
    /// Propagates exact-verifier failures.
    ///
    /// # Panics
    ///
    /// Panics if a member index is out of bounds for the resident fleet.
    pub fn admits(&mut self, members: &[usize]) -> Result<bool, VerifyError> {
        self.core.admit_query(&self.fleet, &self.fleet_ids, members)
    }

    /// Serializes the cascade caches (configuration, interned fingerprints,
    /// verdict memo, anti-monotone index) as a versioned binary snapshot.
    /// The resident fleet is not included — see the module docs.
    pub fn snapshot(&self) -> Vec<u8> {
        self.core.to_snapshot_bytes()
    }

    /// Restores a warm, *empty* state from [`AdmissionState::snapshot`]
    /// output: the caches (and the verification configuration they were
    /// built under) are layout-identical to the saved ones, the fleet starts
    /// empty. Re-admitting the saved fleet reproduces its partition with
    /// every verdict answered from the warm caches.
    ///
    /// # Errors
    ///
    /// Propagates framing and payload violations as [`SnapshotError`].
    pub fn from_snapshot(bytes: &[u8]) -> Result<Self, SnapshotError> {
        Ok(Self::with_core(CascadeCore::from_snapshot_bytes(bytes)?))
    }

    /// Prunes `slots` to the members whose rank in `order` is below `cut`,
    /// applying `remap` to every surviving index. Slots opened by suffix
    /// members become empty and are dropped; they always form a tail of the
    /// slot list (slots are opened in rank order of their first member), so
    /// dropping them reconstructs the exact mid-algorithm slot list.
    fn prune_to_prefix(
        slots: &[Vec<usize>],
        order: &[usize],
        cut: usize,
        remap: impl Fn(usize) -> usize,
    ) -> Vec<Vec<usize>> {
        let mut rank = vec![usize::MAX; order.len()];
        for (r, &i) in order.iter().enumerate() {
            rank[i] = r;
        }
        let pruned: Vec<Vec<usize>> = slots
            .iter()
            .map(|slot| {
                slot.iter()
                    .filter(|&&m| rank[m] < cut)
                    .map(|&m| remap(m))
                    .collect()
            })
            .filter(|slot: &Vec<usize>| !slot.is_empty())
            .collect();
        debug_assert!(
            slots
                .iter()
                .map(|slot| slot.iter().filter(|&&m| rank[m] < cut).count())
                .skip_while(|&kept| kept > 0)
                .all(|kept| kept == 0),
            "emptied slots must form a tail of the slot list"
        );
        pruned
    }

    /// Re-places `suffix` (first-fit order indices into the current fleet)
    /// onto the pruned mid-algorithm `slots`, committing the repaired
    /// partition and its work delta into the report on success. On error the
    /// report is untouched (the caller reverts the fleet).
    fn repair(&mut self, mut slots: Vec<Vec<usize>>, suffix: &[usize]) -> Result<(), VerifyError> {
        let before = *self.core.stats();
        let core = &mut self.core;
        let fleet = &self.fleet;
        let fleet_ids = &self.fleet_ids;
        place_suffix(&mut slots, suffix, |members| {
            core.admit_query(fleet, fleet_ids, members)
        })?;
        let delta = self.core.stats().since(&before);
        self.report.apply_repair(slots, &delta);
        Ok(())
    }

    /// Deadline-bounded variant of [`AdmissionState::repair`]: every probe
    /// runs through the cascade with a squeezed exact-tier budget.
    /// `Ok(Some(quality))` commits the repaired partition; `Ok(None)` means
    /// some probe was undecided — the placement is abandoned, the deferral
    /// is counted, and the report stays untouched (the caller reverts the
    /// fleet).
    fn repair_within(
        &mut self,
        mut slots: Vec<Vec<usize>>,
        suffix: &[usize],
        state_budget: usize,
    ) -> Result<Option<AdmitQuality>, VerifyError> {
        let before = *self.core.stats();
        let core = &mut self.core;
        let fleet = &self.fleet;
        let fleet_ids = &self.fleet_ids;
        let mut degraded = false;
        let mut undecided = false;
        let placed = place_suffix(&mut slots, suffix, |members| {
            match core.admit_query_bounded(fleet, fleet_ids, members, Some(state_budget))? {
                TierVerdict::Exact(verdict) => Ok(verdict),
                TierVerdict::DegradedAccept => {
                    degraded = true;
                    Ok(true)
                }
                TierVerdict::Undecided => {
                    // Answering `false` here could diverge from the exact
                    // first-fit partition; abort the whole placement instead.
                    // The error value is a private abort signal, replaced by
                    // the deferred verdict below.
                    undecided = true;
                    Err(VerifyError::Canceled)
                }
            }
        });
        match placed {
            Ok(()) => {
                let delta = self.core.stats().since(&before);
                self.report.apply_repair(slots, &delta);
                Ok(Some(if degraded {
                    AdmitQuality::Degraded
                } else {
                    AdmitQuality::Exact
                }))
            }
            Err(_) if undecided => {
                self.core.record_deferred();
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MapExplorerEngine;
    use cps_core::DwellTimeTable;

    fn profile(
        name: &str,
        max_wait: usize,
        dwell_min: usize,
        dwell_plus: usize,
        r: usize,
    ) -> AppTimingProfile {
        let len = max_wait + 1;
        let jstar = max_wait + dwell_plus + 1;
        let table = DwellTimeTable::from_arrays(jstar, vec![dwell_min; len], vec![dwell_plus; len])
            .unwrap();
        AppTimingProfile::new(name, 1, jstar + 10, jstar, r.max(jstar + 1), table).unwrap()
    }

    /// The incremental partition after each operation must equal a
    /// from-scratch batch run over the same fleet.
    fn assert_matches_batch(state: &AdmissionState) {
        let mut batch = MapExplorerEngine::new();
        let expected = batch.first_fit(state.fleet()).unwrap();
        assert_eq!(
            state.report().slots(),
            expected.slots(),
            "incremental partition diverged from the batch rebuild on fleet {:?}",
            state.fleet().iter().map(|p| p.name()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn arrivals_repair_incrementally_and_match_batch() {
        let mut state = AdmissionState::new();
        assert_eq!(state.report().slot_count(), 0);
        let fleet = [
            profile("A", 10, 3, 5, 30),
            profile("B", 10, 3, 5, 30),
            profile("C", 0, 5, 5, 30),
            profile("D", 4, 2, 3, 20),
            profile("E", 10, 3, 5, 30),
        ];
        for (i, p) in fleet.iter().enumerate() {
            let id = state.add_app(p.clone()).unwrap();
            assert_eq!(id, i);
            assert_matches_batch(&state);
        }
        assert_eq!(state.fleet().len(), 5);
        assert_eq!(state.report().oracle(), "online-admission-cascade");
        assert!(state.report().oracle_calls() > 0);
    }

    #[test]
    fn departures_renumber_and_match_batch() {
        let mut state = AdmissionState::new();
        let names = ["A", "B", "C", "D", "E"];
        let specs = [
            (10, 3, 5, 30),
            (10, 3, 5, 30),
            (0, 5, 5, 30),
            (4, 2, 3, 20),
            (10, 3, 5, 30),
        ];
        for (name, &(w, dm, dp, r)) in names.iter().zip(&specs) {
            state.add_app(profile(name, w, dm, dp, r)).unwrap();
        }
        // Evict from the middle, the front, and the back.
        let removed = state.remove_app(2).unwrap();
        assert_eq!(removed.name(), "C");
        assert_eq!(state.fleet().len(), 4);
        assert_eq!(state.fleet()[2].name(), "D", "indices renumber down");
        assert_matches_batch(&state);
        state.remove_app(0).unwrap();
        assert_matches_batch(&state);
        state.remove_app(state.fleet().len() - 1).unwrap();
        assert_matches_batch(&state);
        state.remove_app(0).unwrap();
        state.remove_app(0).unwrap();
        assert_eq!(state.fleet().len(), 0);
        assert_eq!(state.report().slot_count(), 0);
    }

    #[test]
    fn repair_reuses_the_memo_across_operations() {
        let mut state = AdmissionState::new();
        for name in ["A", "B", "C", "D"] {
            state.add_app(profile(name, 10, 3, 5, 30)).unwrap();
        }
        let verifies_after_adds = state.stats().exact_verifies;
        // Departure + identical re-arrival: every repair probe was answered
        // before, so the exact verifier must stay cold.
        state.remove_app(1).unwrap();
        state.add_app(profile("B2", 10, 3, 5, 30)).unwrap();
        assert_matches_batch(&state);
        assert_eq!(
            state.stats().exact_verifies,
            verifies_after_adds,
            "churn over known profiles must be answered from the caches"
        );
        assert!(state.stats().memo_hits > 0);
    }

    #[test]
    fn ad_hoc_queries_agree_with_the_batch_engine() {
        let mut state = AdmissionState::new();
        for (name, w) in [("A", 10), ("B", 10), ("C", 0)] {
            state.add_app(profile(name, w, 3, 5, 30)).unwrap();
        }
        let mut batch = MapExplorerEngine::new();
        let fleet = state.fleet().to_vec();
        for members in [&[0usize, 1][..], &[0, 2], &[1, 2], &[0, 1, 2]] {
            assert_eq!(
                state.admits(members).unwrap(),
                batch.admits(&fleet, members).unwrap(),
                "members {members:?}"
            );
        }
    }

    #[test]
    fn snapshot_warm_start_replays_without_exact_verification() {
        let mut state = AdmissionState::new();
        let fleet = [
            profile("A", 10, 3, 5, 30),
            profile("B", 10, 3, 5, 30),
            profile("C", 0, 5, 5, 30),
            profile("D", 4, 2, 3, 20),
        ];
        for p in &fleet {
            state.add_app(p.clone()).unwrap();
        }
        assert!(state.stats().exact_verifies > 0, "cold run does real work");
        let bytes = state.snapshot();

        let mut warm = AdmissionState::from_snapshot(&bytes).unwrap();
        assert_eq!(warm.config(), state.config());
        assert!(
            warm.fleet().is_empty(),
            "the fleet is not part of a snapshot"
        );
        for p in &fleet {
            warm.add_app(p.clone()).unwrap();
        }
        assert_eq!(warm.report().slots(), state.report().slots());
        assert_eq!(
            warm.stats().exact_verifies,
            0,
            "every warm-start verdict must come from the restored caches"
        );
        assert!(warm.stats().memo_hits > 0);
    }

    #[test]
    fn snapshot_rejects_corrupt_bytes() {
        let state = AdmissionState::new();
        let mut bytes = state.snapshot();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        assert!(AdmissionState::from_snapshot(&bytes).is_err());
        assert!(AdmissionState::from_snapshot(&[]).is_err());
    }

    #[test]
    fn out_of_range_removal_is_a_typed_error() {
        let mut state = AdmissionState::new();
        state.add_app(profile("A", 10, 3, 5, 30)).unwrap();
        let err = state.remove_app(3).unwrap_err();
        assert_eq!(
            err,
            AdmissionError::OutOfRange {
                index: 3,
                fleet_len: 1
            }
        );
        assert!(err.to_string().contains("out of range"));
        assert_eq!(state.fleet().len(), 1, "the fleet must be untouched");
    }

    #[test]
    fn bounded_arrivals_place_exactly_or_defer_cleanly() {
        // A generous budget behaves exactly like the unbounded path.
        let mut state = AdmissionState::new();
        let verdict = state
            .add_app_within(profile("A", 10, 3, 5, 30), 1_000_000)
            .unwrap();
        assert_eq!(
            verdict,
            DeadlineAdmit::Placed {
                index: 0,
                quality: AdmitQuality::Exact
            }
        );
        let verdict = state
            .add_app_within(profile("B", 10, 3, 5, 30), 1_000_000)
            .unwrap();
        assert!(matches!(verdict, DeadlineAdmit::Placed { index: 1, .. }));
        assert_matches_batch(&state);
    }

    #[test]
    fn starved_arrivals_defer_and_roll_back() {
        // Budget 1: the exact tier cannot decide any pair probe. "C" has a
        // zero-wait deadline with a long dwell next to it, so the
        // conservative screen cannot accept a shared slot either — the
        // arrival must come back deferred with the fleet untouched.
        let mut state = AdmissionState::new();
        state.add_app(profile("A", 10, 3, 5, 30)).unwrap();
        let slots_before = state.report().slots().to_vec();
        let deferred_before = state.stats().deferred;
        let verdict = state.add_app_within(profile("C", 0, 5, 5, 30), 1).unwrap();
        assert_eq!(verdict, DeadlineAdmit::Deferred);
        assert_eq!(state.fleet().len(), 1, "deferred arrival must roll back");
        assert_eq!(state.report().slots(), slots_before.as_slice());
        assert_eq!(state.stats().deferred, deferred_before + 1);
        // Retried without a deadline, the same arrival lands.
        state.add_app(profile("C", 0, 5, 5, 30)).unwrap();
        assert_matches_batch(&state);
    }

    #[test]
    fn degraded_accepts_stay_bit_identical_to_batch() {
        // Budget 1 starves the exact tier, but A and B are far apart enough
        // for the conservative worst-case-blocking screen to accept — the
        // arrival lands as a degraded placement on the same slot the exact
        // engine would pick.
        let mut state = AdmissionState::new();
        state.add_app_within(profile("A", 10, 3, 5, 30), 1).unwrap();
        let verdict = state.add_app_within(profile("B", 10, 3, 5, 30), 1).unwrap();
        assert_eq!(
            verdict,
            DeadlineAdmit::Placed {
                index: 1,
                quality: AdmitQuality::Degraded
            }
        );
        assert!(state.stats().degraded_accepts > 0);
        assert_matches_batch(&state);
    }

    #[test]
    fn errors_leave_the_state_unchanged() {
        use cps_verify::VerificationConfig;
        // A tiny state budget: singleton placements succeed (tier 1 decides
        // them without the verifier), but a pair probe must error out.
        let mut state = AdmissionState::with_config(VerificationConfig {
            state_budget: 1,
            ..VerificationConfig::default()
        });
        state.add_app(profile("A", 10, 3, 5, 30)).unwrap();
        let slots_before = state.report().slots().to_vec();
        let err = state.add_app(profile("B", 10, 3, 5, 30)).unwrap_err();
        assert!(matches!(err, VerifyError::StateBudgetExhausted { .. }));
        assert_eq!(state.fleet().len(), 1, "failed arrival must roll back");
        assert_eq!(state.report().slots(), slots_before.as_slice());
        // The state keeps working after the failure.
        assert_eq!(state.fleet()[0].name(), "A");
    }
}
