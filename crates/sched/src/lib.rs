//! # rbr-sched
//!
//! Single-cluster batch schedulers, the substrate of Section 3 of the
//! paper:
//!
//! * [`FcfsScheduler`] — First-Come-First-Serve, the baseline comparator;
//! * [`EasyScheduler`] — EASY aggressive backfilling (Lifka, JSSPP'95),
//!   "representative of algorithms running in deployed systems today";
//! * [`CbfScheduler`] — Conservative Backfilling (Mu'alem & Feitelson,
//!   TPDS'01) with reservation compression; its reservations double as the
//!   queue-waiting-time predictor of Section 5.
//!
//! Each scheduler manages one queue of [`Request`]s over an anonymous pool
//! of identical nodes (the paper models a single queue and no priorities).
//! Schedulers are passive state machines driven by the event loop of
//! `rbr-grid`: every resource-changing call reports, through an output
//! vector, the requests that begin execution *now*.
//!
//! ```
//! use rbr_sched::{Algorithm, Request, RequestId, Scheduler};
//! use rbr_simcore::{Duration, SimTime};
//!
//! let mut sched = Algorithm::Easy.build(128);
//! let mut starts = Vec::new();
//! let req = Request::new(RequestId(1), 64, Duration::from_secs(3600.0), SimTime::ZERO);
//! sched.submit(SimTime::ZERO, req, &mut starts);
//! assert_eq!(starts, vec![RequestId(1)]); // empty machine: starts at once
//! ```

pub mod cbf;
pub mod core;
pub mod easy;
pub mod facade;
pub mod fcfs;
pub mod multi_queue;
pub mod observe;
pub mod profile;
mod queue;
pub mod scheduler;
pub mod types;

pub use cbf::CbfScheduler;
pub use easy::EasyScheduler;
pub use facade::{ClusterSet, MultiQueueSet, SchedulerSet};
pub use fcfs::FcfsScheduler;
pub use multi_queue::MultiQueueScheduler;
pub use observe::{ObserverSlot, SchedObserver, SharedObserver, StartKind};
pub use profile::Profile;
pub use scheduler::{Algorithm, Scheduler};
pub use types::{Request, RequestId};
