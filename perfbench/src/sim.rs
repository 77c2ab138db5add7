//! The simulation workloads, `saturated` and `paper`.
//!
//! Each is a fixed list of grid cells derived from the seed, run on a
//! 2-lane `rbr_exec::Pool`, each cell as `GridSim::new` then `.run()`.
//! Every cell's `RunResult` is checked (one record per generated job,
//! sane start and completion instants, and the copy partition under
//! perfect middleware), every pass must reproduce the first pass bit
//! for bit, and the `paper` fold must reproduce `fig1::run`.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;

use rbr::experiments::{fig1, Comparison, RunMetrics};
use rbr_exec::Pool;
use rbr_grid::{Delay, GridConfig, GridSim, RunResult, Scheme};
use rbr_sched::Algorithm;
use rbr_simcore::{Duration, SeedSequence};

use crate::host::{self, Usage};
use crate::replay::{self, Ev, Timings, DEPTH_BUCKETS};
use crate::{median, quantile, Report};

/// Execution lanes of the pool the cells run on.
const LANES: usize = 2;

/// Setup is repeated this many times per run; `setup_s` is the median.
const SETUP_ROUNDS: usize = 9;

/// One grid simulation of the workload.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Human-readable identity, used in problem reports.
    pub label: String,
    /// Platform, scheme, algorithm and fault model.
    pub config: GridConfig,
    /// The cell's seed.
    pub seed: SeedSequence,
    /// Cluster count (the `paper` fold groups by it).
    pub n: usize,
}

impl Cell {
    fn perfect(&self) -> bool {
        self.config.faults.is_disabled()
    }
}

/// A workload: its cells and, for `paper`, the sweep they fold into.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The timed cells, in submission order.
    pub cells: Vec<Cell>,
    /// Cells run once per run after the timed passes: checked, and
    /// replayed in a traced run, but outside the end-to-end figures.
    pub checked: Vec<Cell>,
    /// `paper` only: the sweep folded into Figure 1/2 rows.
    pub sweep: Option<fig1::Config>,
}

/// The `faults` registry experiment's hottest cell: 10 clusters, ALL,
/// EASY, cancel loss 0.5, 30 s cancel delay.
fn faults_config(window: Duration) -> GridConfig {
    let mut c = GridConfig::homogeneous(10, Scheme::All);
    c.window = window;
    c.faults.cancel_loss = 0.5;
    c.faults.cancel_delay = Delay::Fixed(Duration::from_secs(30.0));
    c
}

/// The `table1` registry experiment's hottest cell: CBF, HALF, 10
/// clusters, exact estimates.
fn table1_cbf_config(window: Duration) -> GridConfig {
    let mut c = GridConfig::homogeneous(10, Scheme::Half);
    c.window = window;
    c.algorithm = Algorithm::Cbf;
    c
}

impl Plan {
    /// `saturated`: `faults` cells, timed; then `table1` CBF cells,
    /// checked and replayed but not timed end to end, because one CBF
    /// cell's cost varies about tenfold between seeds.
    pub fn saturated(seed: u64, faults_cells: usize, cbf_cells: usize, window: Duration) -> Plan {
        let root = SeedSequence::new(seed);
        let cell = |label: &str, config: &GridConfig, stream: u64, rep: usize| Cell {
            label: format!("{label} rep {rep}"),
            config: config.clone(),
            seed: root.child(stream).child(rep as u64),
            n: 10,
        };
        let faults = faults_config(window);
        let cbf = table1_cbf_config(window);
        Plan {
            cells: (0..faults_cells)
                .map(|r| cell("faults", &faults, 0, r))
                .collect(),
            checked: (0..cbf_cells)
                .map(|r| cell("table1-cbf", &cbf, 1, r))
                .collect(),
            sweep: None,
        }
    }

    /// `paper`: the Figure 1/2 sweep, N × {NONE, R2, R3, R4, HALF, ALL} ×
    /// `reps`, EASY, perfect middleware, seeded exactly as `fig1::run`
    /// (`child(n)`, then `child(rep)`), in `fig1::run`'s order.
    pub fn paper(seed: u64, ns: &[usize], reps: usize, window: Duration) -> Plan {
        let sweep = fig1::Config {
            ns: ns.to_vec(),
            schemes: Scheme::paper_schemes().to_vec(),
            reps,
            window,
            seed,
        };
        let mut cells = Vec::new();
        for &n in ns {
            let seed_n = SeedSequence::new(seed).child(n as u64);
            for scheme in std::iter::once(Scheme::None).chain(sweep.schemes.iter().copied()) {
                for rep in 0..reps {
                    let mut config = GridConfig::homogeneous(n, scheme);
                    config.window = window;
                    cells.push(Cell {
                        label: format!("N={n} {scheme} rep {rep}"),
                        config,
                        seed: seed_n.child(rep as u64),
                        n,
                    });
                }
            }
        }
        Plan {
            cells,
            checked: Vec::new(),
            sweep: Some(sweep),
        }
    }
}

/// Checks one cell's result: one record per generated job in job order,
/// start ≥ arrival, completion = start + runtime; under perfect
/// middleware also submits = records + cancels + aborts with no waste
/// and no zombies.
pub fn check_run(run: &RunResult, generated_jobs: usize, perfect: bool) -> Result<(), String> {
    if run.records.len() != generated_jobs {
        return Err(format!(
            "{} record(s) for {generated_jobs} generated job(s)",
            run.records.len()
        ));
    }
    for (i, r) in run.records.iter().enumerate() {
        if r.job != i {
            return Err(format!("record {i} names job {}", r.job));
        }
        if r.start < r.arrival {
            return Err(format!("job {i} started before it arrived"));
        }
        if r.completion != r.start + r.runtime {
            return Err(format!("job {i}: completion is not start + runtime"));
        }
    }
    if perfect {
        if run.zombie_starts != 0 || run.wasted_node_secs != 0.0 {
            return Err(format!(
                "perfect middleware wasted {} node-s in {} zombie start(s)",
                run.wasted_node_secs, run.zombie_starts
            ));
        }
        let accounted = run.records.len() as u64 + run.cancels + run.aborts;
        if run.submits != accounted {
            return Err(format!(
                "{} submit(s) but {} records + {} cancels + {} aborts",
                run.submits,
                run.records.len(),
                run.cancels,
                run.aborts
            ));
        }
    }
    Ok(())
}

/// A hash of every field of a run, floats by their bits: equal
/// fingerprints mean bit-equal results. Cheap enough to take inside the
/// timed pass (a few milliseconds for the largest cell).
fn fingerprint(run: &RunResult) -> u64 {
    let mut h = DefaultHasher::new();
    for r in &run.records {
        (r.job, r.home, r.ran_on, r.nodes, r.redundant, r.copies).hash(&mut h);
        (
            r.arrival,
            r.start,
            r.completion,
            r.runtime,
            r.predicted_wait,
        )
            .hash(&mut h);
    }
    (&run.max_queue_len, &run.pool_nodes, run.makespan).hash(&mut h);
    (
        run.submits,
        run.cancels,
        run.aborts,
        run.events,
        run.backfills,
    )
        .hash(&mut h);
    (run.zombie_starts, run.lost_submits, run.lost_cancels).hash(&mut h);
    (run.dropped_copies, run.outage_kills, run.cancel_batches).hash(&mut h);
    run.wasted_node_secs.to_bits().hash(&mut h);
    h.finish()
}

/// Counts a cell's run contributes to the per-layer metrics.
#[derive(Clone, Copy, Debug, Default)]
struct Tally {
    events: u64,
    submits: u64,
    cancels: u64,
    aborts: u64,
    queue_hwm: u64,
    backfills: u64,
    lost_cancels: u64,
    zombie_starts: u64,
    useful_node_secs: f64,
    wasted_node_secs: f64,
}

impl Tally {
    fn of(run: &RunResult) -> Tally {
        Tally {
            events: run.events,
            submits: run.submits,
            cancels: run.cancels,
            aborts: run.aborts,
            queue_hwm: run.max_queue_len.iter().copied().max().unwrap_or(0) as u64,
            backfills: run.backfills,
            lost_cancels: run.lost_cancels,
            zombie_starts: run.zombie_starts,
            useful_node_secs: run.total_work(),
            wasted_node_secs: run.wasted_node_secs,
        }
    }

    fn add(&mut self, o: &Tally) {
        self.events += o.events;
        self.submits += o.submits;
        self.cancels += o.cancels;
        self.aborts += o.aborts;
        self.queue_hwm = self.queue_hwm.max(o.queue_hwm);
        self.backfills += o.backfills;
        self.lost_cancels += o.lost_cancels;
        self.zombie_starts += o.zombie_starts;
        self.useful_node_secs += o.useful_node_secs;
        self.wasted_node_secs += o.wasted_node_secs;
    }
}

/// What one cell produced in one pass.
#[derive(Debug)]
struct CellOut {
    /// Pool lane that ran the cell (0 = the submitting thread).
    pub lane: usize,
    /// Seconds from the pass start until a lane picked the cell up.
    pub queued_s: f64,
    /// `GridSim::new`: Lublin generation and driver construction.
    pub gen_s: f64,
    /// `GridSim::run`.
    pub run_s: f64,
    /// Both, timed as one span.
    pub span_s: f64,
    /// `RunMetrics::from_run` (`paper` only).
    pub fold_s: f64,
    /// Jobs simulated.
    pub jobs: usize,
    /// Fingerprint of the `RunResult`.
    pub fingerprint: u64,
    /// Why the output check failed, if it did.
    pub problem: Option<String>,
    /// The cell panicked: no result, and no timings beyond `span_s`.
    pub panicked: bool,
    /// The reduced run (`paper` only).
    pub metrics: Option<RunMetrics>,
    /// Per-layer counts.
    pub tally: Tally,
    /// The scheduler conversation (traced passes only).
    pub recording: Option<Vec<Ev>>,
}

/// One pass over the plan.
#[derive(Debug)]
struct Pass {
    /// Wall seconds: every cell, then the fold and render.
    pub wall_s: f64,
    /// Per-cell outputs, in plan order.
    pub cells: Vec<CellOut>,
    /// Per-thread CPU use over the pass.
    pub usage: Usage,
    /// Cells the pool's workers stole from a sibling.
    pub steals: u64,
    /// Comparison fold after the cells (`paper` only).
    pub fold_s: f64,
    /// Rendering the Figure 1/2 tables (`paper` only).
    pub render_s: f64,
    /// Bytes of rendered report (`paper` only).
    pub report_bytes: usize,
    /// The folded rows (`paper` only).
    pub rows: Vec<fig1::Row>,
}

fn lane_of_current_thread() -> usize {
    std::thread::current()
        .name()
        .and_then(|n| n.strip_prefix("rbr-exec-"))
        .and_then(|w| w.parse::<usize>().ok())
        .map_or(0, |w| w + 1)
}

fn run_cell(cell: &Cell, pass_start: Instant, fold: bool, traced: bool) -> CellOut {
    let queued_s = pass_start.elapsed().as_secs_f64();
    let t0 = Instant::now();
    // A cell that panics is a failed cell, not a failed benchmark.
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let sim = GridSim::new(cell.config.clone(), cell.seed);
        let generated = sim.n_jobs();
        let t1 = Instant::now();
        (generated, t1, sim.run())
    }));
    let t2 = Instant::now();
    let recording = if traced {
        replay::take_recording()
    } else {
        None
    };
    let mut out = CellOut {
        lane: lane_of_current_thread(),
        queued_s,
        gen_s: 0.0,
        run_s: 0.0,
        span_s: (t2 - t0).as_secs_f64(),
        fold_s: 0.0,
        jobs: 0,
        fingerprint: 0,
        problem: None,
        panicked: false,
        metrics: None,
        tally: Tally::default(),
        recording,
    };
    let (generated, t1, run) = match outcome {
        Ok(done) => done,
        Err(payload) => {
            let why = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic");
            out.problem = Some(format!("{}: panicked: {why}", cell.label));
            out.panicked = true;
            out.recording = None;
            return out;
        }
    };
    out.gen_s = (t1 - t0).as_secs_f64();
    out.run_s = (t2 - t1).as_secs_f64();
    if fold {
        let t = Instant::now();
        out.metrics = Some(RunMetrics::from_run(&run));
        out.fold_s = t.elapsed().as_secs_f64();
    }
    out.jobs = run.records.len();
    out.fingerprint = fingerprint(&run);
    out.problem = check_run(&run, generated, cell.perfect())
        .err()
        .map(|e| format!("{}: {e}", cell.label));
    out.tally = Tally::of(&run);
    out
}

/// Folds `paper` cells into Figure 1/2 rows exactly as `fig1::run`
/// does: per N, the NONE replications are the baseline of every scheme.
fn fold_rows(plan: &[Cell], sweep: Option<&fig1::Config>, cells: &[CellOut]) -> Vec<fig1::Row> {
    let Some(sweep) = sweep else {
        return Vec::new();
    };
    // A cell without a result leaves its group short; there is no row
    // to compare then, and the fig1 check reports the gap.
    if cells.iter().any(|c| c.metrics.is_none()) {
        return Vec::new();
    }
    let group = |n: usize, scheme: Scheme| -> Vec<RunMetrics> {
        plan.iter()
            .zip(cells)
            .filter(|(c, _)| c.n == n && c.config.scheme == scheme)
            .filter_map(|(_, o)| o.metrics)
            .collect()
    };
    let mut rows = Vec::new();
    for &n in &sweep.ns {
        let baseline = group(n, Scheme::None);
        for &scheme in &sweep.schemes {
            let cmp = Comparison::new(baseline.clone(), group(n, scheme));
            let series = cmp.stretch_series();
            rows.push(fig1::Row {
                n,
                scheme,
                rel_stretch: series.summary().mean(),
                rel_cv: cmp.rel_cv(),
                rel_max_stretch: cmp.rel_max_stretch(),
                rel_turnaround: cmp.rel_turnaround(),
                win_fraction: series.win_fraction(),
                worst: series.worst(),
                baseline_stretch: cmp.baseline_stretch(),
            });
        }
    }
    rows
}

/// Runs every cell once on `pool`, then (given a sweep) folds and
/// renders. A traced pass records each driver's scheduler conversation
/// and enables the `rbr-obs` metrics registry.
fn run_pass(pool: &Pool, plan: &[Cell], sweep: Option<&fig1::Config>, traced: bool) -> Pass {
    let fold = sweep.is_some();
    if traced {
        rbr_obs::metrics::set_enabled(true);
        replay::install();
    }
    let threads_before = host::threads();
    let steals_before: u64 = pool.metrics().cells_stolen.iter().sum();
    let start = Instant::now();
    let cells = pool.map(plan.iter().collect(), |_, cell: &Cell| {
        run_cell(cell, start, fold, traced)
    });
    let t_fold = Instant::now();
    let rows = fold_rows(plan, sweep, &cells);
    let t_render = Instant::now();
    let report_bytes = if fold {
        let mut text = String::new();
        for table in [fig1::table(&rows), fig1::cv_table(&rows)] {
            text.push_str(&table.to_text());
            text.push_str(&table.to_csv());
        }
        std::hint::black_box(text).len()
    } else {
        0
    };
    let end = Instant::now();
    let usage = Usage::between(&threads_before, &host::threads(), &[]);
    if traced {
        replay::uninstall();
        rbr_obs::metrics::set_enabled(false);
    }
    Pass {
        wall_s: (end - start).as_secs_f64(),
        steals: pool.metrics().cells_stolen.iter().sum::<u64>() - steals_before,
        cells,
        usage,
        fold_s: if fold {
            (t_render - t_fold).as_secs_f64()
        } else {
            0.0
        },
        render_s: if fold {
            (end - t_render).as_secs_f64()
        } else {
            0.0
        },
        report_bytes,
        rows,
    }
}

/// Builds the pool and warms it: one small cell of each kind per lane,
/// so first-use costs land in set-up rather than in the first cell.
fn set_up() -> Pool {
    let pool = Pool::new(LANES);
    let window = Duration::from_secs(1_800.0);
    let warm = vec![faults_config(window), table1_cbf_config(window)];
    let jobs: Vec<usize> = pool.map(warm, |i, config| {
        GridSim::new(config, SeedSequence::new(i as u64))
            .run()
            .records
            .len()
    });
    std::hint::black_box(jobs);
    pool
}

/// End-to-end numbers of one pass, with the simulated job as the unit of
/// work (a `serve` request is one job too): CPU seconds; simulated jobs
/// per second of cell time, over all cells (a median over cells would
/// be a 40 ms `paper` cell, whose rate swings with cache contention far
/// more than the sweep's); and the latency quantiles of a job's result,
/// timed like a request's from when it was due (every cell is submitted
/// at the pass start) to when its cell's result was reduced.
fn pass_end_to_end(pass: &Pass) -> [f64; 4] {
    let mut ready: Vec<(f64, usize)> = pass
        .cells
        .iter()
        .filter(|c| !c.panicked)
        .map(|c| ((c.queued_s + c.span_s + c.fold_s) * 1e3, c.jobs))
        .collect();
    ready.sort_by(|a, b| a.0.total_cmp(&b.0));
    let jobs: usize = ready.iter().map(|r| r.1).sum();
    let cell_s: f64 = pass
        .cells
        .iter()
        .filter(|c| !c.panicked)
        .map(|c| c.span_s)
        .sum();
    // The instant by which a share `q` of the jobs had results, on the
    // curve of results over time drawn straight between cell results
    // (from the pass start). A step curve would jump from one cell to
    // the next as a seed moves a few jobs between two similar cells.
    let by_share = |q: f64| {
        let target = q * jobs as f64;
        let (mut t0, mut seen) = (0.0, 0.0);
        for &(t, n) in &ready {
            let next = seen + n as f64;
            if next >= target && n > 0 {
                return t0 + (t - t0) * (target - seen) / n as f64;
            }
            (t0, seen) = (t, next);
        }
        f64::NAN
    };
    [
        pass.usage.total().on_cpu_ns as f64 * 1e-9,
        jobs as f64 / cell_s,
        by_share(0.5),
        by_share(0.9),
    ]
}

/// Runs a simulation workload: set-up, then untraced passes for
/// `seconds` (at least one), or for a traced run one untraced and one
/// traced pass plus the scheduler replays. Checks every output.
pub fn run(plan: &Plan, seconds: f64, traced: bool) -> Report {
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut pool = None;
    for _ in 0..SETUP_ROUNDS {
        let t = Instant::now();
        pool = Some(set_up());
        setups.push(t.elapsed().as_secs_f64());
    }
    let pool = pool.expect("at least one set-up round");

    let measure_start = Instant::now();
    let steal_before = host::steal_s();
    let mut passes: Vec<Pass> = Vec::new();
    // Memory is read after the first pass, so it does not depend on how
    // many passes the host's speed allowed.
    let mut peak_rss_mb = None;
    loop {
        let pass = run_pass(&pool, &plan.cells, plan.sweep.as_ref(), false);
        let last = pass.wall_s;
        passes.push(pass);
        peak_rss_mb.get_or_insert_with(host::peak_rss_mb);
        let used = measure_start.elapsed().as_secs_f64();
        if traced || used + last > seconds {
            break;
        }
    }
    rbr_obs::metrics::reset();
    let traced_pass = traced.then(|| run_pass(&pool, &plan.cells, plan.sweep.as_ref(), true));
    let checked_pass = run_pass(&pool, &plan.checked, None, traced);

    // Output checks: every cell of every pass, and every pass (traced
    // included) bit-equal to the first.
    let reference: Vec<u64> = passes[0].cells.iter().map(|c| c.fingerprint).collect();
    for pass in passes.iter().chain(traced_pass.iter()) {
        for ((cell, out), want) in plan.cells.iter().zip(&pass.cells).zip(&reference) {
            report.check(match &out.problem {
                Some(p) => Err(p.clone()),
                None if out.fingerprint != *want => Err(format!(
                    "{}: result differs from the first pass",
                    cell.label
                )),
                None => Ok(()),
            });
        }
    }
    for out in &checked_pass.cells {
        report.check(out.problem.clone().map_or(Ok(()), Err));
    }
    if let Some(sweep) = &plan.sweep {
        report.check(check_against_fig1(&pool, sweep, &passes[0].rows));
    }

    let per_pass: Vec<[f64; 4]> = passes.iter().map(pass_end_to_end).collect();
    let col = |i: usize| median(&per_pass.iter().map(|p| p[i]).collect::<Vec<_>>());
    let fail_frac = report.fail_frac();
    let e = &mut report.end_to_end;
    e.set("setup_s", median(&setups).unwrap_or(f64::NAN), "s");
    e.set(
        "wall_s",
        median(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>()).unwrap_or(f64::NAN),
        "s",
    );
    e.set_or("cpu_s", col(0), "s", "no pass");
    e.set_or("jobs_per_s", col(1), "1/s", "no cell");
    e.set_or("p50_ms", col(2), "ms", "no cell");
    e.set_or("p90_ms", col(3), "ms", "no cell");
    e.set_or("peak_rss_mb", peak_rss_mb, "MB", "no pass");
    e.set("fail_frac", fail_frac, "ratio");

    report.host.set("host.cpus", host::cpus() as f64, "count");
    report.host.set("host.loadavg_1m", host::loadavg(), "count");
    report
        .host
        .set("host.steal_s", host::steal_s() - steal_before, "s");
    report.host.set("passes", passes.len() as f64, "count");
    for (i, p) in passes.iter().enumerate() {
        report.host.set(format!("pass.{i}.wall_s"), p.wall_s, "s");
    }
    report.host_usage("measured", &passes[passes.len() - 1].usage);

    if let Some(tp) = traced_pass {
        report.layers.set(
            "obs.trace_overhead",
            tp.wall_s / passes[0].wall_s - 1.0,
            "ratio",
        );
        report.host_usage("traced", &tp.usage);
        layer_metrics(
            &mut report,
            &pool,
            &[(&plan.cells, &tp), (&plan.checked, &checked_pass)],
        );
    }
    report
}

/// Compares the folded N = 2 rows with `fig1::run` on the same seed and
/// replication count (outside the timed passes).
fn check_against_fig1(pool: &Pool, sweep: &fig1::Config, rows: &[fig1::Row]) -> Result<(), String> {
    if !sweep.ns.contains(&2) {
        return Ok(());
    }
    let config = fig1::Config {
        ns: vec![2],
        ..sweep.clone()
    };
    let want = rbr_exec::with_pool(pool, || fig1::run(&config));
    let got: Vec<&fig1::Row> = rows.iter().filter(|r| r.n == 2).collect();
    let want_s: Vec<String> = want.iter().map(|r| format!("{r:?}")).collect();
    let got_s: Vec<String> = got.iter().map(|r| format!("{r:?}")).collect();
    if want_s == got_s {
        Ok(())
    } else {
        Err(format!(
            "N=2 rows differ from fig1::run: {} vs {} row(s), first {:?} vs {:?}",
            got_s.len(),
            want_s.len(),
            got_s.first(),
            want_s.first()
        ))
    }
}

fn ns_quantile(values: impl Iterator<Item = u32>, q: f64) -> Option<f64> {
    let v: Vec<f64> = values.map(f64::from).collect();
    quantile(&v, q)
}

/// The per-layer metrics of the traced passes: each part is a pass and
/// the cells it ran.
fn layer_metrics(report: &mut Report, pool: &Pool, parts: &[(&[Cell], &Pass)]) {
    let m = &mut report.layers;
    let mut tally = Tally::default();
    let (mut gen_s, mut run_s, mut jobs, mut cell_s) = (0.0, 0.0, 0usize, 0.0);
    let (mut cells_wall, mut cpu_s, mut steals) = (0.0, 0.0, 0);
    let (mut fold_s, mut render_s, mut report_bytes) = (0.0, 0.0, 0);
    let mut lane_busy = [0.0f64; LANES];
    let mut runq_wait = 0.0;
    let mut unsummed = 0;
    for (_, pass) in parts {
        for c in &pass.cells {
            tally.add(&c.tally);
            gen_s += c.gen_s;
            run_s += c.run_s;
            jobs += c.jobs;
            cell_s += c.span_s + c.fold_s;
            lane_busy[c.lane.min(LANES - 1)] += c.span_s + c.fold_s;
            runq_wait += c.queued_s;
            fold_s += c.fold_s;
            // Each cell's span must be exactly generation plus simulation.
            if !c.panicked && (c.span_s - (c.gen_s + c.run_s)).abs() > 1e-6 {
                unsummed += 1;
            }
        }
        cells_wall += pass.wall_s - pass.fold_s - pass.render_s;
        cpu_s += pass.usage.total().on_cpu_ns as f64 * 1e-9;
        steals += pass.steals;
        fold_s += pass.fold_s;
        render_s += pass.render_s;
        report_bytes += pass.report_bytes;
    }

    // workload, grid, simcore, faults.
    m.set("workload.gen_s", gen_s, "s");
    m.set("workload.jobs", jobs as f64, "count");
    m.set("grid.run_s", run_s, "s");
    m.set("grid.events", tally.events as f64, "count");
    m.set("grid.submits", tally.submits as f64, "count");
    m.set("grid.cancels", tally.cancels as f64, "count");
    m.set("grid.aborts", tally.aborts as f64, "count");
    m.set("grid.queue_hwm", tally.queue_hwm as f64, "count");
    m.set(
        "grid.copies_per_job",
        tally.submits as f64 / jobs as f64,
        "ratio",
    );
    m.set(
        "grid.useful_frac",
        tally.useful_node_secs / (tally.useful_node_secs + tally.wasted_node_secs),
        "ratio",
    );
    for name in ["pushes", "pops", "resizes"] {
        let v = rbr_obs::metrics::counter(&format!("sim.queue.{name}")).value();
        m.set(format!("simcore.{name}"), v as f64, "count");
    }
    m.set("faults.lost_cancels", tally.lost_cancels as f64, "count");
    m.set("faults.zombie_starts", tally.zombie_starts as f64, "count");
    m.set("check.span_ne_gen_plus_run", unsummed as f64, "count");

    // exec: lane time from the cells' own spans, so idle = lanes × wall −
    // busy.
    for (lane, busy) in lane_busy.iter().enumerate() {
        m.set(format!("exec.lane_busy_s.{lane}"), *busy, "s");
    }
    m.set("exec.lane_idle_s", LANES as f64 * cells_wall - cell_s, "s");
    m.set("exec.steals", steals as f64, "count");
    m.set("exec.runq_wait_s", runq_wait, "s");

    // core.
    m.set("core.fold_s", fold_s, "s");
    m.set("core.render_s", render_s, "s");
    m.set("core.report_bytes", report_bytes as f64, "bytes");

    // sched: replay each cell's conversation on the pool.
    let all: Vec<(&Cell, &CellOut)> = parts
        .iter()
        .flat_map(|(cells, pass)| cells.iter().zip(&pass.cells))
        .collect();
    let work: Vec<(&Cell, &CellOut, &Vec<Ev>)> = all
        .iter()
        .filter_map(|&(cell, out)| out.recording.as_ref().map(|r| (cell, out, r)))
        .collect();
    let recorded = work.len();
    let results = pool.map(work, |_, (cell, out, log)| {
        let r = replay::replay(log, cell.config.algorithm, cell.config.cbf_cycle);
        (cell, out, r)
    });
    let mut timings = Timings::default();
    let mut failures = Vec::new();
    let mut over_grid = 0;
    for (cell, out, r) in results {
        match r {
            Ok(t) => {
                if t.total_ns as f64 * 1e-9 > out.run_s {
                    over_grid += 1;
                }
                timings.merge(t);
            }
            Err(e) => failures.push(format!("{}: {e}", cell.label)),
        }
    }
    m.set("check.sched_gt_grid_cells", over_grid as f64, "count");
    let replay_ok = failures.is_empty() && recorded == all.len();
    m.set("sched.replay_ok", if replay_ok { 1.0 } else { 0.0 }, "bool");
    if !replay_ok {
        let why = if recorded < all.len() {
            format!("{} cell(s) recorded no conversation", all.len() - recorded)
        } else {
            format!("replay diverged: {}", failures.join("; "))
        };
        for name in sched_metric_names() {
            m.unavailable(name, why.clone());
        }
        m.unavailable("grid.ns_per_event", why);
        return;
    }
    let self_s = timings.total_ns as f64 * 1e-9;
    m.set("sched.self_s", self_s, "s");
    m.set("sched.share", self_s / cpu_s, "ratio");
    m.set("sched.starts", timings.starts as f64, "count");
    m.set("sched.backfills", timings.backfills as f64, "count");
    m.set(
        "grid.ns_per_event",
        (run_s - self_s) * 1e9 / tally.events as f64,
        "ns",
    );
    let none = "no such call in this workload";
    for (kind, calls) in [("submit", &timings.submit), ("cancel", &timings.cancel)] {
        m.set(format!("sched.{kind}.calls"), calls.len() as f64, "count");
        for (q, tag) in [(0.5, "ns_p50"), (0.99, "ns_p99")] {
            let v = ns_quantile(calls.iter().map(|c| c.0), q);
            m.set_or(format!("sched.{kind}.{tag}"), v, "ns", none);
        }
        for (b, bucket) in DEPTH_BUCKETS.iter().enumerate() {
            let v = ns_quantile(calls.iter().filter(|c| c.1 as usize == b).map(|c| c.0), 0.5);
            m.set_or(
                format!("sched.{kind}.ns_p50.{bucket}"),
                v,
                "ns",
                "no call at this queue depth",
            );
        }
    }
    m.set("sched.finish.calls", timings.finish.len() as f64, "count");
    for (q, tag) in [(0.5, "ns_p50"), (0.99, "ns_p99")] {
        let v = ns_quantile(timings.finish.iter().copied(), q);
        m.set_or(format!("sched.finish.{tag}"), v, "ns", none);
    }
}

/// Every `sched.*` metric name, for marking the family unavailable.
fn sched_metric_names() -> impl Iterator<Item = &'static str> {
    crate::PER_LAYER
        .iter()
        .map(|(name, _)| *name)
        .chain(crate::LAYER_DETAIL)
        .filter(|name| name.starts_with("sched.") && *name != "sched.replay_ok")
}
