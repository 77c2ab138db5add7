//! `rbr-obs` — the deterministic observability subsystem.
//!
//! Every layer of the stack (simcore, sched, grid, exec, serve) can tell
//! you *what it computed*; until this crate none of them could tell you
//! *where the time, queue mass, or waste went* while it ran. `rbr-obs`
//! adds that visibility under one hard constraint inherited from the
//! campaign engine: **observation must never perturb results**. Goldens,
//! audits, and the `--jobs 1` vs `--jobs 2` byte gate all hold with
//! observability enabled, because nothing in this crate touches an RNG,
//! an event queue, or an experiment's data path — instrumentation only
//! *reads* program state and writes to side channels (an in-process
//! metrics registry, an append-only trace file).
//!
//! Three pillars:
//!
//! * [`metrics`] — a process-wide registry of named counters, gauges,
//!   and fixed-bucket log₂ histograms. Handles are cheap clones of
//!   atomics: updating one is a relaxed atomic op and **allocates
//!   nothing**, and while the registry is disabled (the default) every
//!   update is a single relaxed load and branch. Snapshots render to
//!   text, CSV, or JSON ([`metrics::Snapshot`]).
//! * [`trace`] — a structured JSONL trace: one self-contained record
//!   per line (`event`, `span`, or `phase`), stamped on the simulators'
//!   virtual clock or the wall clock of exec/serve. The sink follows
//!   the `ObserverSlot` precedent from `rbr-audit`: detached, the hot
//!   path sees one relaxed load; attached, records are serialized
//!   through a buffered writer without touching simulation state.
//! * [`report`] — the consumer side: fold a trace file into a per-phase
//!   time breakdown, or re-render a metrics snapshot — what `rbr obs`
//!   serves on the command line.
//!
//! Underneath all three sits [`json`], the workspace's one JSON codec:
//! the report, journal and wire formats of the other crates read and
//! write through it too.
//!
//! The crate is dependency-free (std only) so every other crate in the
//! workspace can instrument itself without a cycle.

pub mod json;
pub mod metrics;
pub mod report;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, Snapshot};
pub use trace::Clock;
