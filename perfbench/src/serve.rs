//! The `serve` workload: `rbr_serve::serve` (virtual clock, batch 8) on
//! a loopback listener, fed by one client connection that replays a
//! Lublin stream open-loop in three phases: paced at 2,000 requests/s,
//! paced at 10,000 requests/s, then as fast as backpressure allows.
//!
//! One client thread drives the connection: it sends each frame when it
//! is due and stamps acks as they arrive, waiting in `ppoll` between, so
//! a slow server delays acks but never the schedule. Latency is timed
//! from each request's due time, so sender lateness counts against the
//! service.
//!
//! Outputs are checked by replaying the exact request bytes through
//! `FrameReader`, `Request::from_json`, `AdmissionController::decide`,
//! `Batcher::push` and `Response::to_json`: the replay's decision log
//! must equal the server's `admission_log` line for line, and every ack
//! must carry the replay's (verdict, redundancy, txn).

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration as StdDuration, Instant};

use rbr_grid::BatchSpec;
use rbr_serve::batcher::{OpKind, PendingOp, Transaction};
use rbr_serve::wire::encode_frame;
use rbr_serve::{
    AdmissionConfig, AdmissionController, Batcher, Clock, ClockMode, Request, Response,
    ServerConfig, ServerStats, Verdict,
};
use rbr_simcore::{Duration, SeedSequence};
use rbr_workload::{EstimateModel, LublinConfig, LublinModel};

use crate::host::{self, Sched, Usage};
use crate::{median, ns_since, quantile, Metrics, Report};

/// Setup is repeated at least this many times per run; `setup_s` is the
/// median.
const SETUP_ROUNDS: usize = 9;

/// Ops per transaction, as `rbr serve` defaults.
const BATCH: u32 = 8;

/// One phase of the request stream.
#[derive(Clone, Copy, Debug)]
pub struct Phase {
    /// Metric suffix (`r2k`, `r10k`, `unpaced`).
    pub name: &'static str,
    /// Requests in the phase.
    pub requests: usize,
    /// Paced rate in requests/s; `None` sends as fast as possible.
    pub rate: Option<f64>,
}

/// The workload: a seed and its phases, in order.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Seed of the Lublin stream.
    pub seed: u64,
    /// Phases, replayed back to back on one connection.
    pub phases: Vec<Phase>,
}

impl Plan {
    /// The benchmark's three phases with the given request counts.
    pub fn new(seed: u64, r2k: usize, r10k: usize, unpaced: usize) -> Plan {
        Plan {
            seed,
            phases: vec![
                Phase {
                    name: "r2k",
                    requests: r2k,
                    rate: Some(2_000.0),
                },
                Phase {
                    name: "r10k",
                    requests: r10k,
                    rate: Some(10_000.0),
                },
                Phase {
                    name: "unpaced",
                    requests: unpaced,
                    rate: None,
                },
            ],
        }
    }

    fn total(&self) -> usize {
        self.phases.iter().map(|p| p.requests).sum()
    }

    /// Phase index of each request, and its due offset in seconds from
    /// the pass start (`None` for unpaced requests).
    fn schedule(&self) -> Vec<(usize, Option<f64>)> {
        let mut out = Vec::with_capacity(self.total());
        let mut t = 0.0;
        for (pi, phase) in self.phases.iter().enumerate() {
            for _ in 0..phase.requests {
                match phase.rate {
                    Some(rate) => {
                        out.push((pi, Some(t)));
                        t += 1.0 / rate;
                    }
                    None => out.push((pi, None)),
                }
            }
        }
        out
    }
}

/// The service configuration under test.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        batch: BatchSpec::of(BATCH, Duration::from_secs(30.0)),
        admission: AdmissionConfig {
            batch: BATCH,
            ..AdmissionConfig::default()
        },
        clock: ClockMode::Virtual,
    }
}

/// The request frames of a pass, generated from the seed exactly as
/// `rbr loadgen` does at rate multiple 1, then a drain.
pub fn request_frames(plan: &Plan) -> Vec<Vec<u8>> {
    let model = LublinModel::new(LublinConfig::paper_2006());
    let estimates = EstimateModel::paper_real();
    let mut rng = SeedSequence::new(plan.seed).rng();
    let mut frames: Vec<Vec<u8>> = model
        .stream(&mut rng, Duration::MAX, &estimates)
        .take(plan.total())
        .enumerate()
        .map(|(id, job)| {
            let req = Request::Submit {
                id: id as u64,
                arrival_secs: job.arrival.as_secs(),
                nodes: job.nodes,
                runtime_secs: job.runtime.as_secs(),
            };
            encode_frame(&req.to_json())
        })
        .collect();
    frames.push(encode_frame(&Request::Drain.to_json()));
    frames
}

/// What one ack said.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ack {
    /// Admission verdict.
    pub verdict: Verdict,
    /// Copies admitted.
    pub redundancy: u32,
    /// Transaction serial (0 when shed).
    pub txn: u64,
}

/// The replay of a request stream through the service's layers.
#[derive(Clone, Debug, Default)]
pub struct Replay {
    /// One admission log line per submission.
    pub log: Vec<String>,
    /// The ack each request must receive.
    pub acks: Vec<Option<Ack>>,
    /// Index of the request whose arrival flushed each request's
    /// transaction (the drain's index for the final flush).
    pub closed_by: Vec<usize>,
    /// Per-frame framing and parsing, ns.
    pub decode_ns: Vec<u32>,
    /// Per-submission admission decision, ns.
    pub admit_ns: Vec<u32>,
    /// Per-op batcher push, ns.
    pub batch_ns: Vec<u32>,
    /// Per-ack response encoding, ns.
    pub encode_ns: Vec<u32>,
    /// Transactions flushed.
    pub txns: u64,
    /// Submissions shed.
    pub shed: u64,
}

/// Replays request bytes through the serve layers in the order the poll
/// loop calls them, timing each call.
pub fn replay(bytes: &[u8], config: &ServerConfig) -> Result<Replay, String> {
    let mut reader = rbr_serve::wire::FrameReader::new();
    let mut clock = Clock::new(config.clock);
    let mut batcher = Batcher::new(config.batch);
    let mut admission = AdmissionController::new(config.admission.clone());
    let mut out = Replay::default();
    let mut index = 0usize;
    let deliver = |txn: Transaction, closer: usize, out: &mut Replay| {
        out.txns += 1;
        for op in &txn.ops {
            let ack = Ack {
                verdict: op.verdict,
                redundancy: op.redundancy,
                txn: txn.txn,
            };
            let t = Instant::now();
            let json = Response::Ack {
                id: op.id,
                redundancy: ack.redundancy,
                verdict: ack.verdict,
                txn: ack.txn,
            }
            .to_json();
            out.encode_ns.push(ns_since(t));
            std::hint::black_box(json);
            let i = op.id as usize;
            out.acks[i] = Some(ack);
            out.closed_by[i] = closer;
        }
    };
    // Read in the same 16 KiB chunks the poll loop reads.
    for chunk in bytes.chunks(16 * 1024) {
        reader.extend(chunk);
        loop {
            let t = Instant::now();
            let Some(payload) = reader.next_frame()? else {
                break;
            };
            let req = Request::from_json(&payload)?;
            out.decode_ns.push(ns_since(t));
            match req {
                Request::Submit {
                    id,
                    arrival_secs,
                    nodes,
                    runtime_secs,
                } => {
                    let i = id as usize;
                    if i != index {
                        return Err(format!("request {index} carries id {id}"));
                    }
                    out.acks.push(None);
                    out.closed_by.push(i);
                    clock.advance_to(arrival_secs);
                    if let Some(txn) = batcher.poll_deadline(clock.now_secs()) {
                        deliver(txn, i, &mut out);
                    }
                    let t = Instant::now();
                    let decision = admission.decide(id, clock.now_secs(), nodes, runtime_secs);
                    out.admit_ns.push(ns_since(t));
                    out.log.push(decision.log_line());
                    if decision.verdict == Verdict::Shed {
                        out.shed += 1;
                        out.acks[i] = Some(Ack {
                            verdict: Verdict::Shed,
                            redundancy: 0,
                            txn: 0,
                        });
                        let t = Instant::now();
                        let json = Response::Ack {
                            id,
                            redundancy: 0,
                            verdict: Verdict::Shed,
                            txn: 0,
                        }
                        .to_json();
                        out.encode_ns.push(ns_since(t));
                        std::hint::black_box(json);
                    } else {
                        let op = PendingOp {
                            conn: 0,
                            id,
                            kind: OpKind::Submit,
                            redundancy: decision.redundancy,
                            verdict: decision.verdict,
                        };
                        let t = Instant::now();
                        let flushed = batcher.push(op, clock.now_secs());
                        out.batch_ns.push(ns_since(t));
                        if let Some(txn) = flushed {
                            deliver(txn, i, &mut out);
                        }
                    }
                    index += 1;
                }
                Request::Cancel { .. } => return Err("the stream holds no cancels".into()),
                Request::Drain => {
                    if let Some(txn) = batcher.flush() {
                        deliver(txn, index, &mut out);
                    }
                }
            }
        }
    }
    Ok(out)
}

/// Compares what the service did with the replay: the decision log line
/// by line, and each received ack. Returns one problem per mismatched
/// request (a request whose log line or ack differs, or that was not
/// acked exactly once).
pub fn check_acks(
    replay: &Replay,
    admission_log: &[String],
    received: &[Vec<Ack>],
) -> Vec<Result<(), String>> {
    (0..replay.acks.len().max(received.len()))
        .map(|i| {
            let want_line = replay.log.get(i);
            if admission_log.get(i) != want_line {
                return Err(format!(
                    "request {i}: admission log {:?}, replay {:?}",
                    admission_log.get(i),
                    want_line
                ));
            }
            match received.get(i).map(Vec::as_slice) {
                Some([ack]) if Some(ack) == replay.acks.get(i).and_then(Option::as_ref) => Ok(()),
                Some([ack]) => Err(format!(
                    "request {i}: ack {ack:?}, replay {:?}",
                    replay.acks.get(i)
                )),
                other => Err(format!(
                    "request {i}: acked {} time(s)",
                    other.map_or(0, |a| a.len())
                )),
            }
        })
        .collect()
}

/// A running service and a connected client socket.
struct Service {
    stream: TcpStream,
    server: std::thread::JoinHandle<(Result<ServerStats, String>, Sched)>,
}

fn start_service(config: &ServerConfig) -> Result<Service, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| format!("addr: {e}"))?;
    let config = config.clone();
    let server = std::thread::Builder::new()
        .name("serve".into())
        .spawn(move || {
            let result = rbr_serve::serve(listener, &config);
            (result, Sched::this_thread())
        })
        .map_err(|e| format!("spawn server: {e}"))?;
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    Ok(Service { stream, server })
}

/// Waits until the socket is readable (or writable, when `write`), or
/// until `timeout` passes. `ppoll` takes its timeout in nanoseconds,
/// fine enough to pace requests 100 µs apart.
fn wait_ready(stream: &TcpStream, write: bool, timeout: StdDuration) -> Result<(), String> {
    use std::os::fd::AsRawFd;

    #[repr(C)]
    struct PollFd {
        fd: std::ffi::c_int,
        events: std::ffi::c_short,
        revents: std::ffi::c_short,
    }
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: std::ffi::c_long,
    }
    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: std::ffi::c_ulong,
            timeout: *const Timespec,
            sigmask: *const std::ffi::c_void,
        ) -> std::ffi::c_int;
    }
    const POLLIN: std::ffi::c_short = 0x1;
    const POLLOUT: std::ffi::c_short = 0x4;
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: if write { POLLIN | POLLOUT } else { POLLIN },
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: i64::try_from(timeout.as_secs()).unwrap_or(i64::MAX),
        tv_nsec: std::ffi::c_long::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are live for the whole call and laid out as
    // Linux's `struct pollfd` and 64-bit `struct timespec`; `nfds` is 1,
    // the one entry passed; a null signal mask leaves the mask unchanged.
    let r = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    if r < 0 {
        let e = std::io::Error::last_os_error();
        if e.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("ppoll: {e}"));
        }
    }
    Ok(())
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the serve client's ppoll call is written for 64-bit Linux");

/// What the client saw in one pass.
struct Client {
    /// Per request: offset (s) from the pass start of its first byte sent.
    sent: Vec<f64>,
    /// Per request: offsets (s) of every ack received.
    recv: Vec<Vec<f64>>,
    /// Per request: every ack received.
    acks: Vec<Vec<Ack>>,
    /// The drain report.
    drained: Option<(u64, u64, u64, u64)>,
}

impl Client {
    /// Records one response; true once it is the drain report.
    fn take(&mut self, frame: &str, at: f64) -> Result<bool, String> {
        match Response::from_json(frame)? {
            Response::Ack {
                id,
                redundancy,
                verdict,
                txn,
            } => {
                let i = usize::try_from(id)
                    .ok()
                    .filter(|&i| i < self.recv.len())
                    .ok_or_else(|| format!("ack for unknown request {id}"))?;
                self.recv[i].push(at);
                self.acks[i].push(Ack {
                    verdict,
                    redundancy,
                    txn,
                });
                Ok(false)
            }
            Response::CancelAck { id, .. } => {
                Err(format!("cancel ack for {id}, but no cancel was sent"))
            }
            Response::Drained {
                submits,
                acks,
                transactions,
                shed,
            } => {
                self.drained = Some((submits, acks, transactions, shed));
                Ok(true)
            }
        }
    }
}

/// Drives the connection from one thread until the drain report: sends
/// each frame when it is due (unpaced frames, and the closing drain, as
/// soon as the socket takes them) and stamps acks as they arrive.
fn drive(
    stream: &mut TcpStream,
    frames: &[Vec<u8>],
    dues: &[Option<f64>],
    start: Instant,
) -> Result<Client, String> {
    use std::io::ErrorKind::{Interrupted, WouldBlock};

    stream
        .set_nonblocking(true)
        .map_err(|e| format!("nonblocking: {e}"))?;
    let n = dues.len();
    let mut client = Client {
        sent: Vec::with_capacity(n),
        recv: vec![Vec::new(); n],
        acks: vec![Vec::new(); n],
        drained: None,
    };
    let mut reader = rbr_serve::wire::FrameReader::new();
    let mut buf = vec![0u8; 64 * 1024];
    let (mut next, mut offset) = (0usize, 0usize);
    loop {
        // Send what is due, until the socket pushes back.
        let mut blocked = false;
        let mut wait_for = None;
        while next < frames.len() {
            if offset == 0 {
                let now = start.elapsed().as_secs_f64();
                if let Some(Some(due)) = dues.get(next) {
                    if now < *due {
                        wait_for = Some(StdDuration::from_secs_f64(due - now));
                        break;
                    }
                }
                if next < n {
                    client.sent.push(now);
                }
            }
            match stream.write(&frames[next][offset..]) {
                Ok(k) => {
                    offset += k;
                    if offset == frames[next].len() {
                        next += 1;
                        offset = 0;
                    }
                }
                Err(e) if e.kind() == WouldBlock => {
                    blocked = true;
                    break;
                }
                Err(e) if e.kind() == Interrupted => {}
                Err(e) => return Err(format!("write: {e}")),
            }
        }
        // Take every ack that has arrived.
        loop {
            match stream.read(&mut buf) {
                Ok(0) => return Err("server hung up before the drain report".to_string()),
                Ok(k) => {
                    let at = start.elapsed().as_secs_f64();
                    reader.extend(&buf[..k]);
                    while let Some(frame) = reader.next_frame()? {
                        if client.take(&frame, at)? {
                            return Ok(client);
                        }
                    }
                }
                Err(e) if e.kind() == WouldBlock => break,
                Err(e) if e.kind() == Interrupted => {}
                Err(e) => return Err(format!("read: {e}")),
            }
        }
        // Sleep until the next due time, room to write, or an ack.
        let cap = StdDuration::from_millis(10);
        wait_ready(stream, blocked, wait_for.unwrap_or(cap).min(cap))?;
    }
}

/// What one pass measured.
#[derive(Debug)]
pub struct Pass {
    /// Set-up seconds: stream generation, bind, server start, connect.
    pub setup_s: f64,
    /// Stream generation alone (the `workload` layer).
    pub gen_s: f64,
    /// First due time to the drain report.
    pub wall_s: f64,
    /// Per-thread CPU over the pass.
    pub usage: Usage,
    /// On-CPU seconds of the server thread.
    pub server_cpu_s: f64,
    /// Per request: due offset (s), send offset (s), phase.
    pub sent: Vec<(Option<f64>, f64, usize)>,
    /// Per request: offsets (s) of every ack received.
    pub recv: Vec<Vec<f64>>,
    /// Per request: every ack received.
    pub acks: Vec<Vec<Ack>>,
    /// Server totals (on a clean drain).
    pub stats: Result<ServerStats, String>,
    /// The drain report the client received.
    pub drained: Option<(u64, u64, u64, u64)>,
    /// The exact bytes sent.
    pub bytes: Vec<u8>,
}

/// Runs one pass: fresh stream, fresh service, paced replay, drain.
pub fn run_pass(plan: &Plan, config: &ServerConfig) -> Result<Pass, String> {
    let setup = Instant::now();
    let frames = request_frames(plan);
    let gen_s = setup.elapsed().as_secs_f64();
    let service = start_service(config)?;
    let setup_s = setup.elapsed().as_secs_f64();

    let schedule = plan.schedule();
    let dues: Vec<Option<f64>> = schedule.iter().map(|s| s.1).collect();
    let bytes: Vec<u8> = frames.concat();
    let mut stream = service.stream;
    let threads_before = host::threads();
    let start = Instant::now();
    let client = match drive(&mut stream, &frames, &dues, start) {
        Ok(c) => c,
        Err(e) => {
            // The server, never drained, is left to end with the process.
            let _ = stream.shutdown(std::net::Shutdown::Both);
            return Err(e);
        }
    };
    let wall_s = start.elapsed().as_secs_f64();
    let (stats, server_sched) = service
        .server
        .join()
        .map_err(|_| "server thread panicked".to_string())?;
    let usage = Usage::between(
        &threads_before,
        &host::threads(),
        &[("serve".to_string(), server_sched)],
    );
    let Client {
        sent,
        recv,
        acks,
        drained,
    } = client;
    Ok(Pass {
        setup_s,
        gen_s,
        wall_s,
        usage,
        server_cpu_s: server_sched.on_cpu_ns as f64 * 1e-9,
        sent: schedule
            .iter()
            .zip(&sent)
            .map(|(&(phase, due), &s)| (due, s, phase))
            .collect(),
        recv,
        acks,
        stats,
        drained,
        bytes,
    })
}

/// Set-up alone: generate, start, connect, then drain the idle service.
fn setup_round(plan: &Plan, config: &ServerConfig) -> Result<f64, String> {
    let t = Instant::now();
    std::hint::black_box(request_frames(plan));
    let mut service = start_service(config)?;
    let setup_s = t.elapsed().as_secs_f64();
    service
        .stream
        .write_all(&encode_frame(&Request::Drain.to_json()))
        .map_err(|e| format!("write: {e}"))?;
    let mut sink = Vec::new();
    service
        .stream
        .read_to_end(&mut sink)
        .map_err(|e| format!("read: {e}"))?;
    let (result, _) = service
        .server
        .join()
        .map_err(|_| "server thread panicked".to_string())?;
    result?;
    Ok(setup_s)
}

/// Latency of each acked paced request from its due time, in ms, by
/// phase; and per-request batch wait (ms) from the replay.
struct Latency {
    by_phase: Vec<Vec<f64>>,
    batch_wait: Vec<f64>,
    loop_ms: Vec<f64>,
    late_ms: Vec<f64>,
}

fn latency(plan: &Plan, pass: &Pass, replay: Option<&Replay>) -> Latency {
    let mut l = Latency {
        by_phase: vec![Vec::new(); plan.phases.len()],
        batch_wait: Vec::new(),
        loop_ms: Vec::new(),
        late_ms: Vec::new(),
    };
    for (i, &(due, sent, phase)) in pass.sent.iter().enumerate() {
        let Some(due) = due else { continue };
        l.late_ms.push((sent - due) * 1e3);
        let Some(&at) = pass.recv[i].first() else {
            continue;
        };
        let lat = (at - due) * 1e3;
        l.by_phase[phase].push(lat);
        if let Some(r) = replay {
            let closer = r.closed_by[i];
            let closer_due = pass
                .sent
                .get(closer)
                .map(|&(d, s, _)| d.unwrap_or(s))
                .unwrap_or(pass.wall_s);
            let wait = ((closer_due - due) * 1e3).max(0.0);
            l.batch_wait.push(wait);
            l.loop_ms.push(lat - wait);
        }
    }
    l
}

/// Unpaced throughput: acked requests of the last phase over the span
/// from its first send to its last ack.
fn sustained_rps(plan: &Plan, pass: &Pass) -> Option<f64> {
    let last = plan.phases.len() - 1;
    let idx: Vec<usize> = (0..pass.sent.len())
        .filter(|&i| pass.sent[i].2 == last)
        .collect();
    let first = pass.sent[*idx.first()?].1;
    let end = idx
        .iter()
        .filter_map(|&i| pass.recv[i].first())
        .fold(f64::NAN, |a, &b| a.max(b));
    Some(idx.len() as f64 / (end - first))
}

/// Most requests sent but not yet acked at any instant.
fn backlog_max(pass: &Pass) -> usize {
    let mut sends: Vec<f64> = pass.sent.iter().map(|s| s.1).collect();
    let mut acks: Vec<f64> = pass
        .recv
        .iter()
        .filter_map(|r| r.first().copied())
        .collect();
    sends.sort_by(f64::total_cmp);
    acks.sort_by(f64::total_cmp);
    let (mut j, mut best) = (0, 0);
    for (i, s) in sends.iter().enumerate() {
        while j < acks.len() && acks[j] <= *s {
            j += 1;
        }
        best = best.max(i + 1 - j.min(i + 1));
    }
    best
}

/// Checks a pass against its replay: a clean drain, agreeing drain
/// counts, and per request the admission line and exactly one matching
/// ack.
pub fn check_pass(report: &mut Report, pass: &Pass, replay: &Result<Replay, String>) {
    let n = pass.sent.len();
    let whole = |report: &mut Report, problem: String| {
        report.attempted += n as u64;
        report.failed += n as u64;
        report.problems.push(problem);
    };
    let stats = match (&pass.stats, replay) {
        (Err(e), _) => return whole(report, format!("serve did not drain cleanly: {e}")),
        (_, Err(e)) => return whole(report, format!("replay failed: {e}")),
        (Ok(stats), Ok(_)) => stats,
    };
    let replay = replay.as_ref().expect("checked above");
    // One ack per submission; duplicates and losses show per request.
    let want = Some((n as u64, n as u64, replay.txns, replay.shed));
    if pass.drained != want || stats.acks != n as u64 || stats.submits != n as u64 {
        report.check(Err(format!(
            "drain report {:?}, expected {want:?} (server acks {})",
            pass.drained, stats.acks
        )));
    }
    for outcome in check_acks(replay, &stats.admission_log, &pass.acks) {
        report.check(outcome);
    }
}

fn ns_p50(v: &[u32]) -> Option<f64> {
    median(&v.iter().map(|&x| f64::from(x)).collect::<Vec<_>>())
}

fn secs(v: &[u32]) -> f64 {
    v.iter().map(|&x| f64::from(x)).sum::<f64>() * 1e-9
}

/// Runs the workload: passes for `seconds` (at least one), or for a
/// traced run one untraced and one traced pass. Each pass starts a fresh
/// service. Checks every request.
pub fn run(plan: &Plan, seconds: f64, traced: bool) -> Report {
    let config = server_config();
    let mut report = Report::default();
    let measure_start = Instant::now();
    let steal_before = host::steal_s();
    let mut passes = Vec::new();
    let mut replays = Vec::new();
    // Memory is read after the first pass, so it does not depend on how
    // many passes the host's speed allowed.
    let mut peak_rss_mb = None;
    loop {
        let pass = match run_pass(plan, &config) {
            Ok(p) => p,
            Err(e) => {
                report.attempted += plan.total() as u64;
                report.failed += plan.total() as u64;
                report.problems.push(e);
                break;
            }
        };
        let last = pass.wall_s + pass.setup_s;
        let r = replay(&pass.bytes, &config);
        check_pass(&mut report, &pass, &r);
        passes.push(pass);
        replays.push(r);
        peak_rss_mb.get_or_insert_with(host::peak_rss_mb);
        let used = measure_start.elapsed().as_secs_f64();
        if traced || used + last > seconds {
            break;
        }
    }
    let untraced = passes.len();
    if traced && untraced > 0 {
        rbr_obs::metrics::set_enabled(true);
        rbr_obs::metrics::reset();
        let pass = run_pass(plan, &config);
        rbr_obs::metrics::set_enabled(false);
        match pass {
            Ok(pass) => {
                let r = replay(&pass.bytes, &config);
                check_pass(&mut report, &pass, &r);
                passes.push(pass);
                replays.push(r);
            }
            Err(e) => {
                report.attempted += plan.total() as u64;
                report.failed += plan.total() as u64;
                report.problems.push(e);
            }
        }
    }
    if passes.is_empty() {
        return report;
    }
    let mut setups: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
    while setups.len() < SETUP_ROUNDS {
        match setup_round(plan, &config) {
            Ok(s) => setups.push(s),
            Err(e) => {
                report.check(Err(format!("set-up round: {e}")));
                break;
            }
        }
    }

    let measured = &passes[..untraced];
    let per_pass = |f: &dyn Fn(&Pass) -> Option<f64>| -> Option<f64> {
        median(&measured.iter().filter_map(f).collect::<Vec<_>>())
    };
    let paced_q = |p: &Pass, q: f64| {
        let l = latency(plan, p, None);
        let paced: Vec<f64> = l.by_phase[..plan.phases.len() - 1].concat();
        quantile(&paced, q)
    };
    let fail_frac = report.fail_frac();
    let e = &mut report.end_to_end;
    e.set("setup_s", median(&setups).unwrap_or(f64::NAN), "s");
    e.set_or("wall_s", per_pass(&|p| Some(p.wall_s)), "s", "no pass");
    e.set_or(
        "cpu_s",
        per_pass(&|p| Some(p.usage.total().on_cpu_ns as f64 * 1e-9)),
        "s",
        "no pass",
    );
    e.set_or(
        "jobs_per_s",
        per_pass(&|p| sustained_rps(plan, p)),
        "1/s",
        "no unpaced acks",
    );
    e.set_or(
        "p50_ms",
        per_pass(&|p| paced_q(p, 0.5)),
        "ms",
        "no paced acks",
    );
    e.set_or(
        "p90_ms",
        per_pass(&|p| paced_q(p, 0.9)),
        "ms",
        "no paced acks",
    );
    e.set_or("peak_rss_mb", peak_rss_mb, "MB", "no pass");
    e.set("fail_frac", fail_frac, "ratio");
    for (pi, phase) in plan.phases.iter().enumerate() {
        if phase.rate.is_none() {
            continue;
        }
        for (q, tag) in [(0.5, "p50"), (0.9, "p90")] {
            let v = per_pass(&|p| quantile(&latency(plan, p, None).by_phase[pi], q));
            e.set_or(format!("ack_{tag}_ms.{}", phase.name), v, "ms", "no acks");
        }
    }

    let last_measured = &measured[measured.len() - 1];
    report.host.set("host.cpus", host::cpus() as f64, "count");
    report.host.set("host.loadavg_1m", host::loadavg(), "count");
    report
        .host
        .set("host.steal_s", host::steal_s() - steal_before, "s");
    report.host.set("passes", measured.len() as f64, "count");
    for (i, p) in measured.iter().enumerate() {
        report.host.set(format!("pass.{i}.wall_s"), p.wall_s, "s");
    }
    let late = latency(plan, last_measured, None).late_ms;
    report.host.set_or(
        "client.late_ms_p50",
        quantile(&late, 0.5),
        "ms",
        "no paced requests",
    );
    report.host.set_or(
        "client.late_ms_p99",
        quantile(&late, 0.99),
        "ms",
        "no paced requests",
    );
    report.host_usage("measured", &last_measured.usage);

    if traced && passes.len() > untraced {
        let tp = &passes[untraced];
        match &replays[untraced] {
            Ok(r) => layer_metrics(&mut report.layers, plan, tp, r, last_measured.wall_s),
            // Without a replay there are no serve figures: say so rather
            // than let them read as zero.
            Err(e) => {
                for (name, _) in crate::PER_LAYER
                    .iter()
                    .filter(|(n, _)| n.starts_with("serve."))
                {
                    report
                        .layers
                        .unavailable(*name, format!("replay failed: {e}"));
                }
            }
        }
        report.host_usage("traced", &tp.usage);
    }
    report
}

fn layer_metrics(m: &mut Metrics, plan: &Plan, pass: &Pass, r: &Replay, untraced_wall: f64) {
    let l = latency(plan, pass, Some(r));
    let acks = r.acks.len() as f64;
    m.set("workload.gen_s", pass.gen_s, "s");
    m.set("workload.jobs", acks, "count");
    m.set("serve.decode_s", secs(&r.decode_ns), "s");
    m.set("serve.admit_s", secs(&r.admit_ns), "s");
    m.set("serve.batch_s", secs(&r.batch_ns), "s");
    m.set("serve.encode_s", secs(&r.encode_ns), "s");
    let none = "no such call";
    m.set_or("serve.decode_ns_p50", ns_p50(&r.decode_ns), "ns", none);
    m.set_or("serve.admit_ns_p50", ns_p50(&r.admit_ns), "ns", none);
    m.set_or("serve.batch_ns_p50", ns_p50(&r.batch_ns), "ns", none);
    m.set_or("serve.encode_ns_p50", ns_p50(&r.encode_ns), "ns", none);
    m.set_or(
        "serve.batch_wait_ms_p50",
        median(&l.batch_wait),
        "ms",
        "no paced acks",
    );
    m.set_or(
        "serve.loop_ms_p50",
        median(&l.loop_ms),
        "ms",
        "no paced acks",
    );
    m.set("serve.txns", r.txns as f64, "count");
    m.set(
        "serve.batch_fill_mean",
        (acks - r.shed as f64) / r.txns as f64,
        "ratio",
    );
    m.set("serve.shed_frac", r.shed as f64 / acks, "ratio");
    for (pi, phase) in plan.phases.iter().enumerate() {
        if phase.rate.is_none() {
            continue;
        }
        for (q, tag) in [(0.5, "p50"), (0.9, "p90"), (0.99, "p99"), (0.999, "p999")] {
            let v = quantile(&l.by_phase[pi], q);
            m.set_or(
                format!("serve.ack_{tag}_ms.{}", phase.name),
                v,
                "ms",
                "no acks",
            );
        }
    }
    m.set_or(
        "serve.client_late_ms_p99",
        quantile(&l.late_ms, 0.99),
        "ms",
        "no paced requests",
    );
    m.set("serve.backlog_max", backlog_max(pass) as f64, "count");
    m.set("serve.server_cpu_s", pass.server_cpu_s, "s");
    m.set(
        "obs.trace_overhead",
        pass.wall_s / untraced_wall - 1.0,
        "ratio",
    );
}
