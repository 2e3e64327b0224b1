//! Laxity-based slot arbitration and scheduler/plant co-simulation.
//!
//! The verification layer (`cps-verify`) explores *all* disturbance scenarios
//! symbolically; this crate executes *one concrete scenario* at a time:
//!
//! * [`arbiter`] — the paper's EDF-like policy: among the waiting
//!   applications, the one with the smallest remaining laxity
//!   `D = T_w^* − T_w` gets the slot.
//! * [`slot_scheduler`] — the discrete-time scheduler that applies the
//!   switching strategy (grant, minimum-dwell preemption, maximum-dwell
//!   release) to a given pattern of disturbance arrivals and records who owns
//!   the slot at every sample.
//! * [`cosim`] — closes the loop: the scheduler's slot ownership is turned
//!   into per-application mode schedules and the switched closed loops are
//!   simulated, producing the response curves of the paper's Figs. 8 and 9
//!   and checking every settling requirement. [`CosimScenario::run`] is the
//!   retained, naive oracle.
//! * [`engine`] — the prefix-sharing batch engine for whole *families* of
//!   disturbance scenarios: closed-loop trajectories are advanced with
//!   allocation-free kernels from checkpointed states, and scenarios that
//!   agree on a prefix of arbiter grants only re-simulate their diverging
//!   suffix. Bitwise identical to the oracle (asserted in
//!   `tests/engine_oracle.rs`, on the case-study slot families too).
//! * [`scenarios`] — generators for such families (contention sweeps,
//!   staggered fleets, recurrent-disturbance storms).
//!
//! # Example
//!
//! ```
//! use cps_sched::arbiter::select_by_laxity;
//!
//! // (application index, waited samples, maximum wait T_w^*)
//! let waiting = [(0, 3, 11), (1, 5, 12), (2, 1, 25)];
//! // App 1 has laxity 7, app 0 has 8, app 2 has 24 → app 1 wins.
//! assert_eq!(select_by_laxity(waiting.iter().copied()), Some(1));
//! ```

pub mod arbiter;
pub mod cosim;
pub mod engine;
mod error;
pub mod scenarios;
pub mod slot_scheduler;
pub mod trace;

pub use arbiter::select_by_laxity;
pub use cosim::{CosimApp, CosimResult, CosimScenario};
pub use engine::BatchCosimEngine;
pub use error::SchedError;
pub use slot_scheduler::{ScheduleOutcome, SlotScheduler};
pub use trace::{AppScheduleTrace, GrantRecord};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SchedError>();
        assert_send_sync::<SlotScheduler>();
        assert_send_sync::<ScheduleOutcome>();
        assert_send_sync::<CosimScenario>();
        assert_send_sync::<CosimResult>();
        assert_send_sync::<BatchCosimEngine>();
    }
}
