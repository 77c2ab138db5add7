//! `rbr-perfbench --workload <saturated|paper|serve> --seed N --seconds S
//! --trace <0|1>`
//!
//! Runs one workload and prints, as its last line, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end set, from untraced passes; with
//! `--trace 1` they are the per-layer set, from a traced pass. Earlier
//! lines carry the host-noise accounting, every end-to-end figure, and
//! (traced) every per-layer figure with the reason any is unavailable.

use rbr_perfbench::{complete_layers, json_str, serve, sim, Report, END_TO_END, PER_LAYER};
use rbr_simcore::Duration;

/// The paper's submission window.
const WINDOW_HOURS: u64 = 6;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let pos = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(pos + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        let v = value(flag)?;
        v.parse().map_err(|e| format!("{flag} {v:?}: {e}"))
    };
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: value("--workload")?.to_string(),
        seed: number("--seed")?,
        seconds: seconds as f64,
        trace,
    })
}

fn run(args: &Args) -> Result<Report, String> {
    let window = Duration::from_hours(WINDOW_HOURS);
    Ok(match args.workload.as_str() {
        // One faults cell per lane; the CBF cell runs after them.
        "saturated" => sim::run(
            &sim::Plan::saturated(args.seed, 2, 1, window),
            args.seconds,
            args.trace,
        ),
        "paper" => sim::run(
            &sim::Plan::paper(args.seed, &[2, 3, 4, 5, 10, 20], 4, window),
            args.seconds,
            args.trace,
        ),
        "serve" => serve::run(
            &serve::Plan::new(args.seed, 4_000, 10_000, 40_000),
            args.seconds,
            args.trace,
        ),
        other => {
            return Err(format!(
                "unknown workload {other:?} (saturated, paper, serve)"
            ))
        }
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rbr-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("rbr-perfbench: {e}");
            std::process::exit(2);
        }
    };
    if report.attempted == 0 {
        eprintln!("rbr-perfbench: nothing was attempted");
        for p in &report.problems {
            eprintln!("  {p}");
        }
        std::process::exit(1);
    }
    for p in report.problems.iter().take(20) {
        eprintln!("check failed: {p}");
    }
    println!(
        "{{\"workload\": {}, \"seed\": {}, \"host\": {}}}",
        json_str(&args.workload),
        args.seed,
        report.host.to_json(None, true)
    );
    println!(
        "{{\"end_to_end\": {}}}",
        report.end_to_end.to_json(None, true)
    );
    let layers = complete_layers(&report.layers);
    if args.trace {
        println!("{{\"layers\": {}}}", layers.to_json(None, true));
    }
    let names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
    let metrics = if args.trace {
        layers.to_json(Some(&names), false)
    } else {
        report.end_to_end.to_json(Some(&END_TO_END), false)
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics
    );
}
