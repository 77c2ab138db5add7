//! Scheduler-conversation capture and replay.
//!
//! During a traced pass every grid driver gets a [`Recorder`] through
//! `rbr_grid::install_observer_factory`. It logs each scheduler's
//! submit, cancel and finish calls, and the starts they produced, from
//! the public observer hooks. [`replay`] then feeds that conversation
//! to fresh schedulers built with `Algorithm::build_with_cycle`, through
//! the public `Scheduler` trait, timing every call. The replay counts
//! only if it reproduces every recorded start: the `sched.*` numbers are
//! then the scheduler's own cost, measured without the driver around it.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Instant;

use rbr_grid::RunObserver;
use rbr_sched::{Algorithm, Request, RequestId, SchedObserver, StartKind};
use rbr_simcore::{Duration, SimTime};

use crate::ns_since;

/// One observed scheduler transition.
#[derive(Clone, Debug, PartialEq)]
pub enum Ev {
    /// Scheduler `sched` was (re)built with `nodes` nodes.
    Attach { sched: usize, nodes: u32 },
    /// A request entered the queue.
    Submit {
        sched: usize,
        now: SimTime,
        req: Request,
    },
    /// A queued request was removed.
    Cancel {
        sched: usize,
        now: SimTime,
        id: RequestId,
    },
    /// A running request released its nodes; `abort` when it was
    /// revoked at the instant it started.
    Finish {
        sched: usize,
        now: SimTime,
        id: RequestId,
        abort: bool,
    },
    /// A request started.
    Start {
        sched: usize,
        now: SimTime,
        id: RequestId,
        backfill: bool,
    },
}

/// Observer that logs one driver's scheduler conversation.
#[derive(Default)]
pub struct Recorder {
    /// The conversation, in hook order.
    pub log: Vec<Ev>,
    started_at: HashMap<(usize, RequestId), SimTime>,
}

impl SchedObserver for Recorder {
    fn on_attach(&mut self, sched: usize, total_nodes: u32, _name: &str) {
        self.log.push(Ev::Attach {
            sched,
            nodes: total_nodes,
        });
    }
    fn on_submit(&mut self, sched: usize, now: SimTime, _queue: usize, req: &Request) {
        self.log.push(Ev::Submit {
            sched,
            now,
            req: *req,
        });
    }
    fn on_start(&mut self, sched: usize, now: SimTime, req: &Request, kind: StartKind) {
        self.started_at.insert((sched, req.id), now);
        self.log.push(Ev::Start {
            sched,
            now,
            id: req.id,
            backfill: kind == StartKind::Backfill,
        });
    }
    fn on_finish(&mut self, sched: usize, now: SimTime, id: RequestId, _nodes: u32) {
        // Runtimes are positive, so a release at the start instant is the
        // driver revoking a same-instant start (`Scheduler::abort`).
        let abort = self.started_at.remove(&(sched, id)) == Some(now);
        self.log.push(Ev::Finish {
            sched,
            now,
            id,
            abort,
        });
    }
    fn on_cancel(&mut self, sched: usize, now: SimTime, id: RequestId) {
        self.log.push(Ev::Cancel { sched, now, id });
    }
}

impl RunObserver for Recorder {}

thread_local! {
    static CURRENT: RefCell<Option<Rc<RefCell<Recorder>>>> = const { RefCell::new(None) };
}

/// Installs the recording factory: every driver built afterwards (on any
/// thread) records into a fresh [`Recorder`], retrievable on its thread
/// with [`take_recording`].
pub fn install() {
    rbr_grid::install_observer_factory(Box::new(|| {
        let rec = Rc::new(RefCell::new(Recorder::default()));
        CURRENT.with(|c| *c.borrow_mut() = Some(rec.clone()));
        rec
    }));
}

/// Removes the recording factory.
pub fn uninstall() {
    rbr_grid::clear_observer_factory();
}

/// The conversation recorded by the last driver built on this thread.
pub fn take_recording() -> Option<Vec<Ev>> {
    let rec = CURRENT.with(|c| c.borrow_mut().take())?;
    let log = std::mem::take(&mut rec.borrow_mut().log);
    Some(log)
}

/// Queue-depth buckets for per-call latency: below 10, 100, 1000,
/// 10000 queued requests, and above.
pub const DEPTH_BUCKETS: [&str; 5] = ["d1e1", "d1e2", "d1e3", "d1e4", "d1e4plus"];

fn depth_bucket(depth: usize) -> usize {
    match depth {
        0..=9 => 0,
        10..=99 => 1,
        100..=999 => 2,
        1000..=9999 => 3,
        _ => 4,
    }
}

/// Per-call timings of one replay, in nanoseconds.
#[derive(Clone, Debug, Default)]
pub struct Timings {
    /// `(ns, depth bucket)` of each submit call.
    pub submit: Vec<(u32, u8)>,
    /// `(ns, depth bucket)` of each cancel call.
    pub cancel: Vec<(u32, u8)>,
    /// ns of each complete or abort call.
    pub finish: Vec<u32>,
    /// Starts reproduced.
    pub starts: u64,
    /// Backfill starts among them (as recorded).
    pub backfills: u64,
    /// Sum of every timed call.
    pub total_ns: u64,
}

impl Timings {
    /// Appends another replay's timings.
    pub fn merge(&mut self, other: Timings) {
        self.submit.extend(other.submit);
        self.cancel.extend(other.cancel);
        self.finish.extend(other.finish);
        self.starts += other.starts;
        self.backfills += other.backfills;
        self.total_ns += other.total_ns;
    }
}

/// Replays a recorded conversation twice, each time into fresh `alg`
/// schedulers, and keeps the faster reading of every call, so a call
/// that an interrupt or a busy neighbour slowed is not charged to the
/// scheduler. Returns the timings if both replays reproduced every
/// recorded start, in order, on every scheduler; otherwise a description
/// of the first divergence.
pub fn replay(log: &[Ev], alg: Algorithm, cbf_cycle: Duration) -> Result<Timings, String> {
    let mut t = replay_once(log, alg, cbf_cycle)?;
    let again = replay_once(log, alg, cbf_cycle)?;
    let faster = |a: &mut u32, b: u32| *a = (*a).min(b);
    for (a, b) in t.submit.iter_mut().zip(&again.submit) {
        faster(&mut a.0, b.0);
    }
    for (a, b) in t.cancel.iter_mut().zip(&again.cancel) {
        faster(&mut a.0, b.0);
    }
    for (a, b) in t.finish.iter_mut().zip(&again.finish) {
        faster(a, *b);
    }
    t.total_ns = [&t.submit, &t.cancel]
        .iter()
        .flat_map(|calls| calls.iter().map(|c| u64::from(c.0)))
        .chain(t.finish.iter().map(|&ns| u64::from(ns)))
        .sum();
    Ok(t)
}

fn replay_once(log: &[Ev], alg: Algorithm, cbf_cycle: Duration) -> Result<Timings, String> {
    let mut scheds: Vec<Option<Box<dyn rbr_sched::Scheduler>>> = Vec::new();
    let mut expected: Vec<Vec<(SimTime, RequestId)>> = Vec::new();
    let mut produced: Vec<Vec<(SimTime, RequestId)>> = Vec::new();
    let mut t = Timings::default();
    let mut starts = Vec::new();
    let slot = |v: &mut Vec<Vec<(SimTime, RequestId)>>, s: usize| {
        if v.len() <= s {
            v.resize(s + 1, Vec::new());
        }
    };
    for ev in log {
        starts.clear();
        let (sched, now) = match *ev {
            Ev::Attach { sched, nodes } => {
                if scheds.len() <= sched {
                    scheds.resize_with(sched + 1, || None);
                }
                scheds[sched] = Some(alg.build_with_cycle(nodes, cbf_cycle));
                slot(&mut expected, sched);
                slot(&mut produced, sched);
                continue;
            }
            Ev::Start {
                sched,
                now,
                id,
                backfill,
            } => {
                slot(&mut expected, sched);
                expected[sched].push((now, id));
                t.backfills += u64::from(backfill);
                continue;
            }
            Ev::Submit { sched, now, .. }
            | Ev::Cancel { sched, now, .. }
            | Ev::Finish { sched, now, .. } => (sched, now),
        };
        let s = scheds
            .get_mut(sched)
            .and_then(|s| s.as_mut())
            .ok_or_else(|| format!("call to scheduler {sched} before it was attached"))?;
        let bucket = depth_bucket(s.queue_len()) as u8;
        let ns = match *ev {
            Ev::Submit { req, .. } => {
                let t0 = Instant::now();
                s.submit(now, req, &mut starts);
                let ns = ns_since(t0);
                t.submit.push((ns, bucket));
                ns
            }
            Ev::Cancel { id, .. } => {
                let t0 = Instant::now();
                let removed = s.cancel(now, id, &mut starts);
                let ns = ns_since(t0);
                if !removed {
                    return Err(format!("replayed cancel of {id} on {sched} found nothing"));
                }
                t.cancel.push((ns, bucket));
                ns
            }
            Ev::Finish { id, abort, .. } => {
                let t0 = Instant::now();
                if abort {
                    s.abort(now, id, &mut starts);
                } else {
                    s.complete(now, id, &mut starts);
                }
                let ns = ns_since(t0);
                t.finish.push(ns);
                ns
            }
            Ev::Attach { .. } | Ev::Start { .. } => unreachable!("handled above"),
        };
        t.total_ns += u64::from(ns);
        slot(&mut produced, sched);
        produced[sched].extend(starts.iter().map(|&id| (now, id)));
    }
    for (sched, (want, got)) in expected.iter().zip(&produced).enumerate() {
        if want != got {
            let at = want.iter().zip(got).position(|(a, b)| a != b);
            return Err(format!(
                "scheduler {sched}: replay started {} request(s) against {} recorded, first \
                 difference at start #{}",
                got.len(),
                want.len(),
                at.unwrap_or(want.len().min(got.len()))
            ));
        }
        t.starts += want.len() as u64;
    }
    Ok(t)
}
