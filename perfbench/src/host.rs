//! What the host did while the benchmark ran: on-CPU time and run-queue
//! wait per thread (from the kernel's schedstat), peak resident memory,
//! and the CPU count. A contended run shows up here as run-queue wait;
//! it is reported, never dropped.

use std::collections::BTreeMap;

/// On-CPU and run-queue-wait nanoseconds of one thread.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Sched {
    /// Nanoseconds spent running on a CPU.
    pub on_cpu_ns: u64,
    /// Nanoseconds spent runnable but waiting for a CPU.
    pub runq_ns: u64,
}

impl Sched {
    fn parse(text: &str) -> Option<Sched> {
        let mut it = text.split_whitespace();
        let on_cpu_ns = it.next()?.parse().ok()?;
        let runq_ns = it.next()?.parse().ok()?;
        Some(Sched { on_cpu_ns, runq_ns })
    }

    /// The calling thread's counters (`/proc/thread-self/schedstat`).
    pub fn this_thread() -> Sched {
        std::fs::read_to_string("/proc/thread-self/schedstat")
            .ok()
            .and_then(|t| Sched::parse(&t))
            .unwrap_or_default()
    }

    /// `self - earlier`, saturating at zero.
    pub fn since(self, earlier: Sched) -> Sched {
        Sched {
            on_cpu_ns: self.on_cpu_ns.saturating_sub(earlier.on_cpu_ns),
            runq_ns: self.runq_ns.saturating_sub(earlier.runq_ns),
        }
    }

    /// Adds another reading.
    pub fn add(&mut self, other: Sched) {
        self.on_cpu_ns += other.on_cpu_ns;
        self.runq_ns += other.runq_ns;
    }
}

/// Counters of every live thread of this process, keyed by thread id,
/// with each thread's name.
pub fn threads() -> BTreeMap<u64, (String, Sched)> {
    let mut out = BTreeMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let path = entry.path();
        let Some(sched) = std::fs::read_to_string(path.join("schedstat"))
            .ok()
            .and_then(|t| Sched::parse(&t))
        else {
            continue;
        };
        let name = std::fs::read_to_string(path.join("comm"))
            .map(|s| s.trim().to_string())
            .unwrap_or_default();
        out.insert(tid, (name, sched));
    }
    out
}

/// Per-thread usage over a measured phase: every thread alive at its end
/// (minus what it had used at the start), plus the final readings that
/// threads which exited during the phase handed over themselves.
#[derive(Clone, Debug, Default)]
pub struct Usage {
    /// `(thread name, usage)` in thread-id order.
    pub threads: Vec<(String, Sched)>,
}

impl Usage {
    /// Usage between two [`threads`] snapshots plus `exited` readings.
    pub fn between(
        start: &BTreeMap<u64, (String, Sched)>,
        end: &BTreeMap<u64, (String, Sched)>,
        exited: &[(String, Sched)],
    ) -> Usage {
        let mut threads: Vec<(String, Sched)> = end
            .iter()
            .map(|(tid, (name, s))| {
                let before = start.get(tid).map(|(_, b)| *b).unwrap_or_default();
                (name.clone(), s.since(before))
            })
            .collect();
        threads.extend(exited.iter().cloned());
        Usage { threads }
    }

    /// Total over all threads.
    pub fn total(&self) -> Sched {
        let mut t = Sched::default();
        for (_, s) in &self.threads {
            t.add(*s);
        }
        t
    }
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kib("VmHWM:") / 1024.0
}

fn status_kib(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with(key)).and_then(|l| {
                l[key.len()..]
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse()
                    .ok()
            })
        })
        .unwrap_or(0.0)
}

/// CPUs this process may run on.
pub fn cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Seconds of CPU time the hypervisor gave to other guests, summed over
/// the machine's CPUs since boot (`steal` in `/proc/stat`, in the
/// kernel's 100 Hz ticks); 0 when unreadable. Subtract two readings to
/// see how much a phase lost.
pub fn steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let line = s.lines().next()?;
            let ticks: f64 = line.split_whitespace().nth(8)?.parse().ok()?;
            Some(ticks / 100.0)
        })
        .unwrap_or(0.0)
}

/// The 1-minute load average, or 0 when unreadable.
pub fn loadavg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0.0)
}
