//! # rbr-audit
//!
//! The simulator's sanitizer: a runtime invariant auditor plus a
//! brute-force differential oracle for the batch schedulers.
//!
//! The paper's conclusions rest on the simulated schedulers honoring the
//! contracts real batch systems honor — FCFS order, the EASY head
//! guarantee, conservative reservations that never slip, and exact node
//! accounting. This crate checks those contracts two ways:
//!
//! * **Auditing** ([`Auditor`], [`mod@sink`]): an observer attached to the
//!   scheduler/driver hook points (see `rbr_sched::observe` and
//!   `rbr_grid::observe`) that mirrors externally visible state and
//!   reports every [`Violation`] with the event trace leading up to it.
//!   `rbr audit <experiment>` runs any registry experiment under it.
//! * **Differential testing** ([`mod@oracle`]): deliberately naive
//!   reference implementations of FCFS and EASY, driven through the
//!   engine's exact event order, asserting start-for-start agreement with
//!   the production schedulers — with a shrinker that reduces any
//!   disagreement to a minimal counterexample workload.

pub mod auditor;
pub mod oracle;
pub mod sink;

pub use auditor::{Auditor, Violation};
pub use oracle::{differential, shrink, Mismatch, OracleJob, Schedule};
