//! Differential property tests: random workloads through the production
//! FCFS/EASY schedulers and the brute-force reference oracle must yield
//! identical start times and start order. On disagreement the workload
//! is greedily shrunk to a minimal counterexample schedule before
//! failing.

use proptest::prelude::*;
use rbr_audit::oracle::{differential, reference_starts, shrink, OracleJob};
use rbr_sched::Algorithm;
use rbr_simcore::{Duration, SimTime};

/// Machine size under test: small enough that queues form, big enough
/// for multi-job backfill interplay.
const NODES: u32 = 16;

/// One raw generated job: `(arrival_us, nodes, a_us, b_us)`; estimate is
/// the larger of the two duration draws and runtime the smaller, so
/// `runtime <= estimate` holds by construction (as in the production
/// driver, where jobs never outlive their request).
type RawJob = (u64, u32, u64, u64);

fn to_jobs(raw: &[RawJob]) -> Vec<OracleJob> {
    raw.iter()
        .map(|&(arrival, nodes, a, b)| OracleJob {
            arrival: SimTime::from_micros(arrival),
            nodes,
            estimate: Duration::from_micros(a.max(b)),
            runtime: Duration::from_micros(a.min(b)),
            cancel: None,
        })
        .collect()
}

fn check(alg: Algorithm, raw: &[RawJob]) -> Result<(), TestCaseError> {
    check_jobs(alg, to_jobs(raw))
}

fn check_jobs(alg: Algorithm, jobs: Vec<OracleJob>) -> Result<(), TestCaseError> {
    if differential(alg, NODES, &jobs).is_err() {
        let (minimal, mismatch) = shrink(alg, NODES, &jobs);
        return Err(TestCaseError::new(format!(
            "production {alg} disagrees with the brute-force oracle: \
             {mismatch}\nminimal counterexample schedule ({} of {} jobs):\n{:#?}",
            minimal.len(),
            jobs.len(),
            minimal
        )));
    }
    Ok(())
}

/// Arrivals within a 2-hour window, 1–16 nodes, durations up to ~10
/// simulated minutes — enough contention that FIFO blocking, backfill
/// holes, and early completions all occur.
fn raw_job_strategy() -> impl Strategy<Value = Vec<RawJob>> {
    prop::collection::vec(
        (
            0u64..7_200_000_000,
            1u32..=NODES,
            1u64..=600_000_000,
            1u64..=600_000_000,
        ),
        0..40,
    )
}

/// One raw deep-queue job: `(burst, nodes, a_us, b_us, cancel_roll,
/// cancel_lag)`. Arrivals fall on one of 24 burst instants a minute
/// apart, so many jobs share an instant; a `cancel_roll` below 30 (of
/// 100) cancels the job `cancel_lag` bursts after it arrives (0: the
/// same instant, right behind the burst).
type DeepJob = (u64, u32, u64, u64, u32, u64);

/// Time between bursts of the deep-queue workloads.
const BURST_US: u64 = 60_000_000;

/// Hundreds of jobs of up to an hour against 16 nodes arriving within
/// 24 minutes: queues hundreds deep, so sweeps cross many blocks of the
/// indexed queue, cancels leave tombstones anywhere, and compaction runs
/// mid-schedule.
fn deep_queue_strategy() -> impl Strategy<Value = Vec<DeepJob>> {
    prop::collection::vec(
        (
            0u64..24,
            1u32..=NODES,
            1u64..=3_600_000_000,
            1u64..=3_600_000_000,
            0u32..100,
            0u64..4,
        ),
        200..400,
    )
}

/// Checks a deep-queue workload, after making sure it is one: at least
/// 100 jobs still wait after the last burst and some cancel hits a
/// queued request.
fn check_deep(alg: Algorithm, raw: &[DeepJob]) -> Result<(), TestCaseError> {
    let jobs = deep_jobs(raw);
    let schedule = reference_starts(alg, NODES, &jobs);
    let last_burst = SimTime::from_micros(23 * BURST_US);
    let waiting = schedule
        .starts
        .iter()
        .filter(|s| s.is_some_and(|t| t > last_burst));
    prop_assert!(waiting.count() >= 100, "queue never got deep");
    prop_assert!(schedule.starts.contains(&None), "no cancel hit the queue");
    check_jobs(alg, jobs)
}

fn deep_jobs(raw: &[DeepJob]) -> Vec<OracleJob> {
    raw.iter()
        .map(|&(burst, nodes, a, b, roll, lag)| {
            let arrival = SimTime::from_micros(burst * BURST_US);
            OracleJob {
                arrival,
                nodes,
                estimate: Duration::from_micros(a.max(b)),
                runtime: Duration::from_micros(a.min(b)),
                cancel: (roll < 30).then(|| arrival + Duration::from_micros(lag * BURST_US)),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn production_fcfs_matches_the_oracle(raw in raw_job_strategy()) {
        check(Algorithm::Fcfs, &raw)?;
    }

    #[test]
    fn production_easy_matches_the_oracle(raw in raw_job_strategy()) {
        check(Algorithm::Easy, &raw)?;
    }

    /// Heavy contention: mostly-wide jobs arriving in a burst, where a
    /// single misplaced backfill decision would reorder everything.
    #[test]
    fn easy_matches_the_oracle_under_burst_arrivals(raw in prop::collection::vec(
        (0u64..60_000_000, 8u32..=NODES, 1u64..=600_000_000, 1u64..=600_000_000),
        1..25,
    )) {
        check(Algorithm::Easy, &raw)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn deep_fcfs_queue_with_cancels_matches_the_oracle(raw in deep_queue_strategy()) {
        check_deep(Algorithm::Fcfs, &raw)?;
    }

    #[test]
    fn deep_easy_queue_with_cancels_matches_the_oracle(raw in deep_queue_strategy()) {
        check_deep(Algorithm::Easy, &raw)?;
    }
}
