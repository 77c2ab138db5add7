//! The service acceptance gate: a 10k-job Lublin replay at roughly 2×
//! the admission budget, run twice with the same seed, must produce
//! bit-identical admission decisions and drain without losing a single
//! ack, and those decisions must hash to a pinned digest, so a change to
//! the wire, admission or batching code cannot alter them unnoticed.

use std::net::TcpListener;

use rbr_serve::loadgen::{self, LoadgenConfig};
use rbr_serve::{serve, AdmissionConfig, ClockMode, ServerConfig, ServerStats};

const JOBS: usize = 10_000;
/// The calibrated Lublin peak-hour interarrival is ~5 s and the batch-8
/// admission budget is ~1.58 copies/s, so a 16× replay offers ~2× the
/// budget — deep enough into overload to exercise the rate limiter.
const RATE: f64 = 16.0;

/// FNV-1a (64-bit) of the seed-2006 admission log as `rbr serve --log`
/// writes it (lines joined by `\n`, plus a final `\n`). Run-to-run
/// determinism alone cannot catch a change that alters every run the
/// same way; this digest pins the bytes themselves.
const SEED_2006_LOG_FNV1A: u64 = 0x5ac3_3a8a_ca6c_cef7;

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn one_run(seed: u64) -> (ServerStats, loadgen::LoadgenStats) {
    let config = ServerConfig {
        batch: rbr_faults::BatchSpec::of(8, rbr_simcore::Duration::from_secs(30.0)),
        admission: AdmissionConfig {
            batch: 8,
            ..AdmissionConfig::default()
        },
        clock: ClockMode::Virtual,
    };
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("local addr");
    let server = std::thread::spawn(move || serve(listener, &config));
    let client = loadgen::run(&LoadgenConfig {
        addr: addr.to_string(),
        jobs: JOBS,
        rate: RATE,
        seed,
    })
    .expect("loadgen must complete cleanly");
    let stats = server
        .join()
        .expect("server thread")
        .expect("server must drain cleanly (non-zero exit on leak)");
    (stats, client)
}

#[test]
fn ten_thousand_jobs_replay_deterministically_and_drain_clean() {
    let (first, client_a) = one_run(2006);
    let (second, client_b) = one_run(2006);

    // Bit-identical admission decisions across two same-seed runs.
    assert_eq!(first.admission_log.len(), JOBS);
    assert_eq!(
        first.admission_log, second.admission_log,
        "same seed must reproduce every admission decision byte-for-byte"
    );

    let log = first.admission_log.join("\n") + "\n";
    assert_eq!(
        fnv1a64(log.as_bytes()),
        SEED_2006_LOG_FNV1A,
        "the seed-2006 admission log changed: digest {:#018x}",
        fnv1a64(log.as_bytes())
    );

    // No lost acks: every submit acked, client and server agree.
    assert_eq!(first.submits, JOBS as u64);
    assert_eq!(first.acks, JOBS as u64);
    assert_eq!(client_a.acks, JOBS as u64);
    assert!(client_a.clean() && client_b.clean());

    // 2× the budget must actually engage the limiter, and batching must
    // actually coalesce (fewer transactions than admitted ops).
    assert!(first.shed > 0, "overload replay never shed a job");
    assert!(
        first.transactions < first.submits - first.shed,
        "transactions ({}) should be far fewer than admitted submits ({})",
        first.transactions,
        first.submits - first.shed
    );
    assert_eq!(client_a.shed, first.shed);
}

#[test]
fn different_seeds_diverge() {
    // The determinism above must come from the seed, not from the
    // controller ignoring its inputs.
    let (a, _) = one_run(1);
    let (b, _) = one_run(2);
    assert_ne!(a.admission_log, b.admission_log);
}
