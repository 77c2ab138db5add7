//! Tiny versions of every workload through every check and both
//! replays, plus negative tests: a corrupted `JobRecord` and a forged
//! ack must each count as a failure.

use std::sync::{Mutex, MutexGuard};

use rbr_grid::{GridConfig, GridSim, Scheme};
use rbr_perfbench::{
    complete_layers, serve, sim, Report, Value, END_TO_END, LAYER_DETAIL, PER_LAYER,
};
use rbr_simcore::{Duration, SeedSequence};

/// A traced run installs a process-wide observer factory and enables
/// the process-wide metrics registry, so traced runs take turns.
static TRACED: Mutex<()> = Mutex::new(());

fn traced_turn() -> MutexGuard<'static, ()> {
    TRACED.lock().unwrap_or_else(|e| e.into_inner())
}

fn half_hour() -> Duration {
    Duration::from_secs(1_800.0)
}

fn layer(report: &Report, name: &str) -> f64 {
    match report.layers.0.get(name) {
        Some(Value::Num(v, _)) => *v,
        other => panic!("{name}: {other:?}"),
    }
}

fn assert_clean(report: &Report) {
    assert!(report.attempted > 0);
    assert_eq!(report.failed, 0, "problems: {:?}", report.problems);
    for name in [
        "setup_s",
        "wall_s",
        "cpu_s",
        "peak_rss_mb",
        "jobs_per_s",
        "p50_ms",
        "p90_ms",
    ] {
        let v = report
            .end_to_end
            .get(name)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert!(v > 0.0, "{name} = {v}");
    }
}

#[test]
fn tiny_saturated_passes_every_check_and_replays_the_scheduler() {
    let _turn = traced_turn();
    let plan = sim::Plan::saturated(7, 1, 1, half_hour());
    let report = sim::run(&plan, 0.0, true);
    assert_clean(&report);
    // The faults cell in the untraced and the traced pass, and the CBF
    // cell once.
    assert_eq!(report.attempted, 3);
    assert_eq!(layer(&report, "sched.replay_ok"), 1.0);
    assert!(layer(&report, "sched.self_s") > 0.0);
    assert!(layer(&report, "sched.submit.calls") >= layer(&report, "workload.jobs"));
    assert_eq!(
        layer(&report, "grid.submits"),
        layer(&report, "sched.submit.calls")
    );
    assert_eq!(
        layer(&report, "sched.starts"),
        layer(&report, "sched.finish.calls")
    );
    assert!(layer(&report, "faults.lost_cancels") > 0.0);
    assert!(layer(&report, "grid.useful_frac") < 1.0);
    assert_eq!(layer(&report, "check.span_ne_gen_plus_run"), 0.0);
    assert!(layer(&report, "simcore.pops") > 0.0);
    assert!(report.layers.0.contains_key("obs.trace_overhead"));
}

#[test]
fn tiny_paper_matches_fig1_and_replays_the_scheduler() {
    let _turn = traced_turn();
    let plan = sim::Plan::paper(3, &[2, 3], 2, half_hour());
    let report = sim::run(&plan, 0.0, true);
    assert_clean(&report);
    // 2 N × 6 schemes × 2 reps, in two passes, plus the fig1::run check.
    assert_eq!(report.attempted, 2 * 24 + 1);
    assert_eq!(layer(&report, "sched.replay_ok"), 1.0);
    assert_eq!(layer(&report, "grid.useful_frac"), 1.0);
    assert!(layer(&report, "core.report_bytes") > 0.0);
    assert!(layer(&report, "core.fold_s") > 0.0);
}

#[test]
fn tiny_serve_passes_every_check_and_replays_the_service() {
    let _turn = traced_turn();
    let plan = serve::Plan::new(5, 100, 200, 500);
    let report = serve::run(&plan, 0.0, true);
    assert_clean(&report);
    // 800 requests, in an untraced and a traced pass.
    assert_eq!(report.attempted, 1_600);
    assert!(layer(&report, "serve.txns") > 0.0);
    assert!(layer(&report, "serve.admit_ns_p50") > 0.0);
    assert!(layer(&report, "serve.batch_wait_ms_p50") >= 0.0);
    assert!(report.end_to_end.get("ack_p50_ms.r2k").is_some());
    assert!(report.host.get("client.late_ms_p99").is_some());
    // Every per-layer figure is there: measured, zero for layers serve
    // never reaches, or unavailable with a reason.
    let all = complete_layers(&report.layers);
    assert_eq!(all.get("sched.self_s"), Some(0.0));
    assert_eq!(
        all.0.get("sched.submit.ns_p50"),
        Some(&Value::Unavailable(
            "this workload makes no such call".into()
        ))
    );
    for name in PER_LAYER.iter().map(|(n, _)| *n).chain(LAYER_DETAIL) {
        assert!(all.0.contains_key(name), "{name}");
    }
}

#[test]
fn corrupted_job_record_counts_as_a_failure() {
    let _turn = traced_turn();
    let config = GridConfig {
        window: half_hour(),
        ..GridConfig::homogeneous(3, Scheme::All)
    };
    let sim_ = GridSim::new(config, SeedSequence::new(11));
    let generated = sim_.n_jobs();
    let mut run = sim_.run();
    assert_eq!(sim::check_run(&run, generated, true), Ok(()));

    let mut report = Report::default();
    let mut late = run.clone();
    late.records[3].completion += Duration::from_secs(1.0);
    report.check(sim::check_run(&late, generated, true));
    run.records.pop();
    report.check(sim::check_run(&run, generated, true));
    assert_eq!(report.failed, 2);
    assert!(report.fail_frac() > 0.0);
}

#[test]
fn forged_ack_counts_as_a_failure() {
    let plan = serve::Plan::new(9, 50, 50, 200);
    let config = serve::server_config();
    let mut pass = serve::run_pass(&plan, &config).expect("pass runs");
    let replay = serve::replay(&pass.bytes, &config);

    let mut clean = Report::default();
    serve::check_pass(&mut clean, &pass, &replay);
    assert_eq!(clean.failed, 0, "{:?}", clean.problems);

    let forged = pass.acks[17][0];
    pass.acks[17][0] = serve::Ack {
        txn: forged.txn + 1,
        ..forged
    };
    let duplicate = pass.acks[40][0];
    pass.acks[40].push(duplicate);
    let mut report = Report::default();
    serve::check_pass(&mut report, &pass, &replay);
    assert_eq!(report.failed, 2, "{:?}", report.problems);
    assert!(report.fail_frac() > 0.0);
}

#[test]
fn benchmark_manifest_names_exactly_the_printed_metrics() {
    let manifest =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    let names = manifest.matches("\"name\":").count();
    assert_eq!(names, 3 + END_TO_END.len() + PER_LAYER.len());
    for name in END_TO_END.iter().chain(PER_LAYER.iter().map(|(n, _)| n)) {
        assert!(
            manifest.contains(&format!("\"name\": \"{name}\"")),
            "{name}"
        );
    }
    for (name, unit) in PER_LAYER {
        assert!(
            manifest.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name} [{unit}]"
        );
    }
}
