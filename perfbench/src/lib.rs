//! The repository benchmark: three workloads (`saturated`, `paper`,
//! `serve`) driven through the public entry points of each layer, with
//! every output checked. See `README.md` in this directory for why each
//! workload exists and which layer metric should move which end-to-end
//! metric.
//!
//! Nothing here instruments the program: layer times are taken by
//! timing the calls this crate makes into each layer, and the scheduler
//! and serve numbers come from replaying recorded conversations into
//! fresh instances of those layers.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

/// End-to-end metrics printed on the last line of an untraced run;
/// `BENCHMARK.json` at the repository root lists the same names.
pub const END_TO_END: [&str; 7] = [
    "setup_s",
    "wall_s",
    "cpu_s",
    "peak_rss_mb",
    "jobs_per_s",
    "p50_ms",
    "p90_ms",
];

/// Per-layer metrics printed on the last line of a traced run, with
/// units; `BENCHMARK.json` at the repository root lists the same names.
/// Each is a count, a time or a share that is truly zero when the
/// workload does not reach the layer, so every workload reports all of
/// them.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("sched.self_s", "s"),
    ("sched.share", "ratio"),
    ("sched.submit.calls", "count"),
    ("sched.cancel.calls", "count"),
    ("sched.finish.calls", "count"),
    ("sched.starts", "count"),
    ("sched.backfills", "count"),
    ("grid.run_s", "s"),
    ("grid.events", "count"),
    ("grid.submits", "count"),
    ("grid.cancels", "count"),
    ("grid.aborts", "count"),
    ("grid.queue_hwm", "count"),
    ("simcore.pushes", "count"),
    ("simcore.pops", "count"),
    ("simcore.resizes", "count"),
    ("workload.gen_s", "s"),
    ("workload.jobs", "count"),
    ("faults.lost_cancels", "count"),
    ("faults.zombie_starts", "count"),
    ("exec.lane_busy_s.0", "s"),
    ("exec.lane_busy_s.1", "s"),
    ("exec.lane_idle_s", "s"),
    ("exec.steals", "count"),
    ("exec.runq_wait_s", "s"),
    ("core.fold_s", "s"),
    ("core.render_s", "s"),
    ("core.report_bytes", "bytes"),
    ("serve.decode_s", "s"),
    ("serve.admit_s", "s"),
    ("serve.batch_s", "s"),
    ("serve.encode_s", "s"),
    ("serve.txns", "count"),
    ("serve.backlog_max", "count"),
    ("serve.server_cpu_s", "s"),
    ("obs.trace_overhead", "ratio"),
];

/// The rest of the per-layer metrics, printed on the `layers` line: per
/// call and per request figures, which a workload that makes no such
/// call cannot have.
pub const LAYER_DETAIL: [&str; 37] = [
    "sched.replay_ok",
    "sched.submit.ns_p50",
    "sched.submit.ns_p99",
    "sched.cancel.ns_p50",
    "sched.cancel.ns_p99",
    "sched.finish.ns_p50",
    "sched.finish.ns_p99",
    "sched.submit.ns_p50.d1e1",
    "sched.submit.ns_p50.d1e2",
    "sched.submit.ns_p50.d1e3",
    "sched.submit.ns_p50.d1e4",
    "sched.submit.ns_p50.d1e4plus",
    "sched.cancel.ns_p50.d1e1",
    "sched.cancel.ns_p50.d1e2",
    "sched.cancel.ns_p50.d1e3",
    "sched.cancel.ns_p50.d1e4",
    "sched.cancel.ns_p50.d1e4plus",
    "grid.ns_per_event",
    "grid.copies_per_job",
    "grid.useful_frac",
    "serve.decode_ns_p50",
    "serve.admit_ns_p50",
    "serve.batch_ns_p50",
    "serve.encode_ns_p50",
    "serve.batch_wait_ms_p50",
    "serve.loop_ms_p50",
    "serve.batch_fill_mean",
    "serve.shed_frac",
    "serve.ack_p50_ms.r2k",
    "serve.ack_p90_ms.r2k",
    "serve.ack_p99_ms.r2k",
    "serve.ack_p999_ms.r2k",
    "serve.ack_p50_ms.r10k",
    "serve.ack_p90_ms.r10k",
    "serve.ack_p99_ms.r10k",
    "serve.ack_p999_ms.r10k",
    "serve.client_late_ms_p99",
];

/// Every per-layer metric of a traced run: what the workload measured,
/// zero for the [`PER_LAYER`] counts and times of layers it never
/// reaches, and the [`LAYER_DETAIL`] figures it cannot have marked
/// unavailable.
pub fn complete_layers(layers: &Metrics) -> Metrics {
    let mut m = layers.clone();
    for (name, unit) in PER_LAYER {
        m.0.entry(name.to_string()).or_insert(Value::Num(0.0, unit));
    }
    for name in LAYER_DETAIL {
        m.0.entry(name.to_string())
            .or_insert_with(|| Value::Unavailable("this workload makes no such call".into()));
    }
    m
}

pub mod host;
pub mod replay;
pub mod serve;
pub mod sim;

/// Nanoseconds since `t`, less the median cost of reading the clock
/// around an empty region, so per-call timings count the call rather
/// than the clock.
pub fn ns_since(t: Instant) -> u32 {
    static FLOOR: OnceLock<u32> = OnceLock::new();
    let floor = *FLOOR.get_or_init(|| {
        let mut v: Vec<u128> = (0..2001)
            .map(|_| {
                let t = Instant::now();
                t.elapsed().as_nanos()
            })
            .collect();
        v.sort_unstable();
        u32::try_from(v[v.len() / 2]).unwrap_or(0)
    });
    u32::try_from(t.elapsed().as_nanos())
        .unwrap_or(u32::MAX)
        .saturating_sub(floor)
}

/// Linearly interpolated quantile (`q` in `[0, 1]`) of unsorted values;
/// `None` when empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// Median of unsorted values; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// One reported metric: a measured value with its unit, or the reason
/// it could not be measured on this run.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A measured value.
    Num(f64, &'static str),
    /// Not measurable here, with the reason.
    Unavailable(String),
}

/// A named set of metrics, rendered in name order.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub BTreeMap<String, Value>);

impl Metrics {
    /// Records a value; a non-finite one is recorded as unavailable.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let v = if value.is_finite() {
            Value::Num(value, unit)
        } else {
            Value::Unavailable(format!("not finite ({value})"))
        };
        self.0.insert(name.into(), v);
    }

    /// Records a value if there is one, else the reason there is none.
    pub fn set_or(
        &mut self,
        name: impl Into<String>,
        value: Option<f64>,
        unit: &'static str,
        why: &str,
    ) {
        match value {
            Some(v) => self.set(name, v, unit),
            None => self.unavailable(name, why),
        }
    }

    /// Marks a metric unavailable.
    pub fn unavailable(&mut self, name: impl Into<String>, why: impl Into<String>) {
        self.0.insert(name.into(), Value::Unavailable(why.into()));
    }

    /// The measured value of a metric, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        match self.0.get(name) {
            Some(Value::Num(v, _)) => Some(*v),
            _ => None,
        }
    }

    /// `{"name": {"value": v, "unit": u}, ...}` for the named metrics
    /// that were measured; unavailable ones render as
    /// `{"value": null, "unavailable": reason}` when `with_reasons`.
    pub fn to_json(&self, only: Option<&[&str]>, with_reasons: bool) -> String {
        let mut out = String::from("{");
        let mut first = true;
        for (name, value) in &self.0 {
            if only.is_some_and(|names| !names.contains(&name.as_str())) {
                continue;
            }
            let body = match value {
                Value::Num(v, unit) => format!("{{\"value\": {v}, \"unit\": {}}}", json_str(unit)),
                Value::Unavailable(why) if with_reasons => {
                    format!("{{\"value\": null, \"unavailable\": {}}}", json_str(why))
                }
                Value::Unavailable(_) => continue,
            };
            if !first {
                out.push_str(", ");
            }
            first = false;
            let _ = write!(out, "{}: {body}", json_str(name));
        }
        out.push('}');
        out
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Everything one benchmark run produced.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Cells or requests attempted, plus whole-run checks.
    pub attempted: u64,
    /// Attempted items whose outputs failed a check.
    pub failed: u64,
    /// One line per failed check (the first few are printed).
    pub problems: Vec<String>,
    /// End-to-end metrics (untraced passes).
    pub end_to_end: Metrics,
    /// Per-layer metrics (traced pass); empty for untraced runs.
    pub layers: Metrics,
    /// Host-noise accounting: CPUs, per-thread on-CPU and run-queue
    /// time, generator lateness.
    pub host: Metrics,
}

impl Report {
    /// Counts one checked item, recording its problem if it failed.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(problem) = outcome {
            self.failed += 1;
            self.problems.push(problem);
        }
    }

    /// Failed over attempted.
    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Records per-thread usage of a measured phase under `prefix`.
    pub fn host_usage(&mut self, prefix: &str, usage: &host::Usage) {
        let mut by_name: BTreeMap<String, host::Sched> = BTreeMap::new();
        for (name, s) in &usage.threads {
            by_name.entry(name.clone()).or_default().add(*s);
        }
        for (name, s) in by_name {
            self.host.set(
                format!("{prefix}.{name}.cpu_s"),
                s.on_cpu_ns as f64 * 1e-9,
                "s",
            );
            self.host.set(
                format!("{prefix}.{name}.runq_s"),
                s.runq_ns as f64 * 1e-9,
                "s",
            );
        }
        let total = usage.total();
        self.host.set(
            format!("{prefix}.cpu_s"),
            total.on_cpu_ns as f64 * 1e-9,
            "s",
        );
        self.host
            .set(format!("{prefix}.runq_s"), total.runq_ns as f64 * 1e-9, "s");
    }
}
