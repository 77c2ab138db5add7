//! The metrics registry: named counters, gauges, and log₂ histograms.
//!
//! Metrics are registered by name ([`counter`], [`gauge`],
//! [`histogram`]); registration returns a handle that is a cheap clone
//! of the underlying atomics. The intended pattern for hot paths is to
//! register once (e.g. in a `OnceLock`) and update through the handle:
//! an update is one relaxed load (the enable gate) plus one relaxed
//! atomic op, and **never allocates** — the disabled path is the load
//! and a predictable branch, nothing else. The registry itself is only
//! locked at registration and snapshot time.
//!
//! Determinism: metrics are pure side-channel output. Updating a
//! counter cannot reorder events, advance a clock, or draw randomness,
//! so every byte-identity gate in the workspace holds with metrics
//! enabled. Counter *values* aggregated across a parallel campaign are
//! still deterministic (each cell contributes a fixed amount); gauges
//! that track "latest" values are last-writer-wins and are only
//! deterministic on one thread.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json;

/// Histogram bucket count: bucket 0 holds zero values, bucket `i ≥ 1`
/// holds values in `[2^(i-1), 2^i)` — 64 value buckets cover all of
/// `u64`.
pub const HISTOGRAM_BUCKETS: usize = 65;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns metric recording on or off process-wide. Off (the default),
/// every handle update is a relaxed load and an untaken branch.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// True when metric updates are being recorded.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

struct HistogramInner {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

enum Slot {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistogramInner>),
}

impl Slot {
    fn kind(&self) -> &'static str {
        match self {
            Slot::Counter(_) => "counter",
            Slot::Gauge(_) => "gauge",
            Slot::Histogram(_) => "histogram",
        }
    }
}

struct Entry {
    name: String,
    slot: Slot,
}

static REGISTRY: Mutex<Vec<Entry>> = Mutex::new(Vec::new());

/// A monotonically increasing event count.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n` when metrics are enabled. Lock-free, allocation-free.
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one when metrics are enabled.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current count.
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A floating-point level: set, accumulated, or max-tracked.
#[derive(Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge (last writer wins) when metrics are enabled.
    #[inline]
    pub fn set(&self, v: f64) {
        if enabled() {
            self.0.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Accumulates `v` into the gauge when metrics are enabled.
    #[inline]
    pub fn add(&self, v: f64) {
        if !enabled() {
            return;
        }
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Raises the gauge to `v` if larger, when metrics are enabled.
    #[inline]
    pub fn max(&self, v: f64) {
        if !enabled() {
            return;
        }
        let mut cur = self.0.load(Ordering::Relaxed);
        while v > f64::from_bits(cur) {
            match self.0.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// The current level.
    pub fn value(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket log₂ histogram of `u64` samples.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    /// Records one sample when metrics are enabled. Lock-free,
    /// allocation-free: the bucket index is a leading-zeros count.
    #[inline]
    pub fn observe(&self, v: u64) {
        if !enabled() {
            return;
        }
        self.0.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }
}

/// The bucket index of sample `v`: 0 for zero, else `i` such that
/// `2^(i-1) <= v < 2^i`.
#[inline]
fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Lower bound of bucket `i` (its label in snapshots).
fn bucket_floor(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

fn register(name: &str, make: impl FnOnce() -> Slot, want: &'static str) -> Slot {
    let mut reg = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(entry) = reg.iter().find(|e| e.name == name) {
        assert_eq!(
            entry.slot.kind(),
            want,
            "metric {name:?} already registered as a {}",
            entry.slot.kind()
        );
        return match &entry.slot {
            Slot::Counter(a) => Slot::Counter(Arc::clone(a)),
            Slot::Gauge(a) => Slot::Gauge(Arc::clone(a)),
            Slot::Histogram(h) => Slot::Histogram(Arc::clone(h)),
        };
    }
    let slot = make();
    let clone = match &slot {
        Slot::Counter(a) => Slot::Counter(Arc::clone(a)),
        Slot::Gauge(a) => Slot::Gauge(Arc::clone(a)),
        Slot::Histogram(h) => Slot::Histogram(Arc::clone(h)),
    };
    reg.push(Entry {
        name: name.to_string(),
        slot,
    });
    clone
}

/// Registers (or finds) the counter `name` and returns a handle.
///
/// # Panics
/// Panics if `name` is already registered as a different kind.
pub fn counter(name: &str) -> Counter {
    match register(
        name,
        || Slot::Counter(Arc::new(AtomicU64::new(0))),
        "counter",
    ) {
        Slot::Counter(a) => Counter(a),
        _ => unreachable!(),
    }
}

/// Registers (or finds) the gauge `name` and returns a handle.
///
/// # Panics
/// Panics if `name` is already registered as a different kind.
pub fn gauge(name: &str) -> Gauge {
    match register(
        name,
        || Slot::Gauge(Arc::new(AtomicU64::new(0f64.to_bits()))),
        "gauge",
    ) {
        Slot::Gauge(a) => Gauge(a),
        _ => unreachable!(),
    }
}

/// Registers (or finds) the histogram `name` and returns a handle.
///
/// # Panics
/// Panics if `name` is already registered as a different kind.
pub fn histogram(name: &str) -> Histogram {
    match register(
        name,
        || {
            Slot::Histogram(Arc::new(HistogramInner {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            }))
        },
        "histogram",
    ) {
        Slot::Histogram(h) => Histogram(h),
        _ => unreachable!(),
    }
}

/// Zeroes every registered metric (the registrations themselves stay).
/// Benches use this to meter one phase; tests use it for isolation.
pub fn reset() {
    let reg = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    for entry in reg.iter() {
        match &entry.slot {
            Slot::Counter(a) => a.store(0, Ordering::Relaxed),
            Slot::Gauge(a) => a.store(0f64.to_bits(), Ordering::Relaxed),
            Slot::Histogram(h) => {
                for b in &h.buckets {
                    b.store(0, Ordering::Relaxed);
                }
                h.count.store(0, Ordering::Relaxed);
                h.sum.store(0, Ordering::Relaxed);
            }
        }
    }
}

/// One metric's value in a [`Snapshot`].
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A counter's count.
    Counter(u64),
    /// A gauge's level.
    Gauge(f64),
    /// A histogram: total count, total sum, and the non-empty buckets
    /// as `(bucket floor, count)` pairs in ascending floor order.
    Histogram {
        /// Total samples.
        count: u64,
        /// Sum of all samples.
        sum: u64,
        /// Non-empty `(floor, count)` buckets.
        buckets: Vec<(u64, u64)>,
    },
}

/// A point-in-time copy of every registered metric, sorted by name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// `(name, value)` pairs in ascending name order.
    pub entries: Vec<(String, Value)>,
}

/// Snapshots the registry (sorted by name, so renders are stable).
pub fn snapshot() -> Snapshot {
    let reg = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let mut entries: Vec<(String, Value)> = reg
        .iter()
        .map(|e| {
            let value = match &e.slot {
                Slot::Counter(a) => Value::Counter(a.load(Ordering::Relaxed)),
                Slot::Gauge(a) => Value::Gauge(f64::from_bits(a.load(Ordering::Relaxed))),
                Slot::Histogram(h) => Value::Histogram {
                    count: h.count.load(Ordering::Relaxed),
                    sum: h.sum.load(Ordering::Relaxed),
                    buckets: h
                        .buckets
                        .iter()
                        .enumerate()
                        .filter_map(|(i, b)| {
                            let n = b.load(Ordering::Relaxed);
                            (n > 0).then(|| (bucket_floor(i), n))
                        })
                        .collect(),
                },
            };
            (e.name.clone(), value)
        })
        .collect();
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    Snapshot { entries }
}

impl Snapshot {
    /// Renders as an aligned text table.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let width = self.entries.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        for (name, value) in &self.entries {
            match value {
                Value::Counter(n) => out.push_str(&format!("{name:width$}  {n}\n")),
                Value::Gauge(v) => {
                    out.push_str(&format!("{name:width$}  "));
                    json::write_f64(&mut out, *v, "0");
                    out.push('\n');
                }
                Value::Histogram {
                    count,
                    sum,
                    buckets,
                } => {
                    let mean = if *count > 0 {
                        *sum as f64 / *count as f64
                    } else {
                        0.0
                    };
                    out.push_str(&format!(
                        "{name:width$}  count={count} sum={sum} mean={mean:.2}\n"
                    ));
                    for (floor, n) in buckets {
                        out.push_str(&format!("{:width$}    >= {floor}: {n}\n", ""));
                    }
                }
            }
        }
        out
    }

    /// Renders as CSV (`name,kind,value` rows; histograms add one row
    /// per non-empty bucket).
    pub fn render_csv(&self) -> String {
        let mut out = String::from("name,kind,value\n");
        for (name, value) in &self.entries {
            match value {
                Value::Counter(n) => out.push_str(&format!("{name},counter,{n}\n")),
                Value::Gauge(v) => {
                    out.push_str(&format!("{name},gauge,"));
                    json::write_f64(&mut out, *v, "0");
                    out.push('\n');
                }
                Value::Histogram {
                    count,
                    sum,
                    buckets,
                } => {
                    out.push_str(&format!("{name},histogram_count,{count}\n"));
                    out.push_str(&format!("{name},histogram_sum,{sum}\n"));
                    for (floor, n) in buckets {
                        out.push_str(&format!("{name},histogram_bucket_{floor},{n}\n"));
                    }
                }
            }
        }
        out
    }

    /// Renders as a single JSON object — the canonical on-disk snapshot
    /// format, parsed back by [`crate::report::parse_snapshot`].
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"metrics\":[");
        for (i, (name, value)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            json::write_str(&mut out, name);
            match value {
                Value::Counter(n) => {
                    out.push_str(&format!(",\"kind\":\"counter\",\"value\":{n}}}"));
                }
                Value::Gauge(v) => {
                    out.push_str(",\"kind\":\"gauge\",\"value\":");
                    json::write_f64(&mut out, *v, "0");
                    out.push('}');
                }
                Value::Histogram {
                    count,
                    sum,
                    buckets,
                } => {
                    out.push_str(&format!(
                        ",\"kind\":\"histogram\",\"count\":{count},\"sum\":{sum},\"buckets\":["
                    ));
                    for (j, (floor, n)) in buckets.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        out.push_str(&format!("[{floor},{n}]"));
                    }
                    out.push_str("]}");
                }
            }
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every test touching the global enable flag runs under this lock
    /// so parallel tests cannot observe each other's toggles.
    fn with_metrics_on(f: impl FnOnce()) {
        static GATE: Mutex<()> = Mutex::new(());
        let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        f();
        set_enabled(false);
    }

    #[test]
    fn counters_count_only_while_enabled() {
        let c = counter("test.metrics.counter");
        let before = c.value();
        set_enabled(false);
        c.add(5);
        assert_eq!(c.value(), before, "disabled counter must not move");
        with_metrics_on(|| {
            c.inc();
            c.add(4);
            assert_eq!(c.value(), before + 5);
        });
    }

    #[test]
    fn gauges_set_add_and_max() {
        let g = gauge("test.metrics.gauge");
        with_metrics_on(|| {
            g.set(1.5);
            assert_eq!(g.value(), 1.5);
            g.add(2.5);
            assert_eq!(g.value(), 4.0);
            g.max(3.0);
            assert_eq!(g.value(), 4.0, "max below current must not lower");
            g.max(9.0);
            assert_eq!(g.value(), 9.0);
        });
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
        for i in 1..HISTOGRAM_BUCKETS {
            let floor = bucket_floor(i);
            assert_eq!(bucket_of(floor), i, "floor of bucket {i} maps back");
        }
    }

    #[test]
    fn histogram_observe_and_snapshot() {
        let h = histogram("test.metrics.hist");
        with_metrics_on(|| {
            let base_count = h.count();
            for v in [0u64, 1, 2, 3, 1000] {
                h.observe(v);
            }
            assert_eq!(h.count(), base_count + 5);
            let snap = snapshot();
            let (_, value) = snap
                .entries
                .iter()
                .find(|(n, _)| n == "test.metrics.hist")
                .expect("registered histogram in snapshot");
            match value {
                Value::Histogram { count, sum, .. } => {
                    assert!(*count >= 5);
                    assert!(*sum >= 1006);
                }
                other => panic!("wrong kind {other:?}"),
            }
        });
    }

    #[test]
    fn same_name_returns_the_same_metric() {
        let a = counter("test.metrics.same");
        let b = counter("test.metrics.same");
        with_metrics_on(|| {
            let before = a.value();
            b.add(3);
            assert_eq!(a.value(), before + 3);
        });
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let _ = counter("test.metrics.mismatch");
        let _ = gauge("test.metrics.mismatch");
    }

    #[test]
    fn snapshot_renders_all_formats() {
        let c = counter("test.render.a");
        let g = gauge("test.render.b");
        with_metrics_on(|| {
            c.add(7);
            g.set(2.25);
        });
        let snap = snapshot();
        let text = snap.render_text();
        assert!(text.contains("test.render.a"));
        let csv = snap.render_csv();
        assert!(csv.starts_with("name,kind,value\n"));
        assert!(csv.contains("test.render.b,gauge,"));
        let json = snap.render_json();
        assert!(json.contains("\"name\":\"test.render.a\",\"kind\":\"counter\""));
        // Sorted by name: a before b.
        assert!(json.find("test.render.a").unwrap() < json.find("test.render.b").unwrap());
    }
}
