//! perfbench: end-to-end and per-layer benchmark of Cross-Insight Trader
//! serving and training at paper scale.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-paper|serve-churn|train-paper --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. See `perfbench/README.md`.

mod alloc;
mod data;
mod report;
mod serve;
mod trace;
mod train;

use report::{quantile, Report};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const WORKLOADS: [&str; 3] = ["serve-paper", "serve-churn", "train-paper"];
/// Set-ups per run; `setup_s` is their median. All but the last run in
/// child processes, so each pays for kernel tuning afresh.
const SETUP_SAMPLES: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        setup_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            args.setup_only = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad)?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// The workload's state after set-up, ready for its timed phase.
enum Ready {
    Paper(serve::Paper),
    Churn(serve::Churn),
    Train(Box<train::Train>),
}

fn setup(args: &Args, report: &mut Report) -> Ready {
    match args.workload.as_str() {
        "serve-paper" => Ready::Paper(serve::paper_setup(args.seed, args.seconds, report)),
        "serve-churn" => Ready::Churn(serve::churn_setup(args.seed, report)),
        _ => Ready::Train(Box::new(train::train_setup(args.seed, report))),
    }
}

fn teardown(ready: Ready) {
    match ready {
        Ready::Paper(p) => serve::paper_finish(p),
        Ready::Churn(c) => serve::churn_finish(c),
        Ready::Train(_) => {}
    }
}

/// Set-up times of `SETUP_SAMPLES - 1` fresh child processes.
fn child_setups(args: &Args, report: &mut Report) -> Vec<f64> {
    let exe = std::env::current_exe().expect("own executable path");
    let mut times = Vec::new();
    for _ in 1..SETUP_SAMPLES {
        let out = Command::new(&exe)
            .args([
                "--workload",
                &args.workload,
                "--seed",
                &args.seed.to_string(),
            ])
            .args(["--seconds", &args.seconds.to_string(), "--setup-only"])
            .output();
        let secs = out.ok().filter(|o| o.status.success()).and_then(|o| {
            String::from_utf8_lossy(&o.stdout).lines().find_map(|l| {
                l.strip_prefix("setup_s ")
                    .and_then(|v| v.parse::<f64>().ok())
            })
        });
        match secs {
            Some(s) => times.push(s),
            None => report.problem("a set-up child process failed".into()),
        }
    }
    times
}

fn untraced(args: &Args, dir: &Path, report: &mut Report) {
    let mut setups = child_setups(args, report);
    let t = Instant::now();
    let mut ready = setup(args, report);
    setups.push(t.elapsed().as_secs_f64());

    // `tail_q` is the highest percentile with at least ten samples beyond
    // it at the op counts a 30 s phase yields here: about 2,600 decides
    // (serve-paper), 18,000 decides (serve-churn) and 50 updates
    // (train-paper). The tail is printed but not a metric: it spread too
    // far between runs to carry a bound.
    let (phase, ops_per_completion, tail_q) = match &mut ready {
        Ready::Paper(p) => (serve::paper_run(p, args.seconds, report), 1.0, 0.99),
        Ready::Churn(c) => (
            serve::churn_run(c, args.seed, args.seconds, report),
            1.0,
            0.999,
        ),
        Ready::Train(tr) => {
            let mut phase = serve::Phase::default();
            let start = Instant::now();
            while start.elapsed().as_secs_f64() < args.seconds {
                phase.latency_ms.extend(train::train_call(tr, report));
            }
            phase.secs = start.elapsed().as_secs_f64();
            train::checkpoint_parity(tr, dir, report);
            (phase, tr.cfg.rollout as f64, 0.75)
        }
    };
    teardown(ready);

    let lat = &phase.latency_ms;
    report.note(format!(
        "{} timed ops in {:.2} s; latency p10 {:.4} ms, mean {:.4} ms, tail (p{}) {:.4} ms",
        lat.len(),
        phase.secs,
        quantile(lat, 0.10),
        lat.iter().sum::<f64>() / lat.len().max(1) as f64,
        tail_q * 100.0,
        quantile(lat, tail_q),
    ));
    report.note(format!("set-up samples (s): {setups:?}"));
    report.metric("setup_s", report::median(&setups), "s");
    report.metric("peak_rss_mb", report::peak_rss_mb(), "MB");
    report.metric("op_p50_ms", quantile(lat, 0.5), "ms");
    report.metric(
        "ops_per_s",
        ops_per_completion * lat.len() as f64 / phase.secs,
        "1/s",
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload {} --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    // A scratch directory of this process's own inside the checkout: a
    // fresh kernel-tuning cache (so no run inherits another's tiling
    // choice) and the train checkpoint.
    let dir: PathBuf = std::env::current_dir()
        .expect("working directory")
        .join(".perfbench")
        .join(std::process::id().to_string());
    std::fs::create_dir_all(&dir).expect("create the scratch directory");
    std::env::set_var("CIT_AUTOTUNE_CACHE", dir.join("autotune_cache.json"));

    let mut report = Report::default();
    let ok = if args.setup_only {
        let t = Instant::now();
        let ready = setup(&args, &mut report);
        let secs = t.elapsed().as_secs_f64();
        teardown(ready);
        println!("setup_s {secs}");
        report.correct()
    } else {
        if args.trace {
            trace::run(args.seed, &dir, &mut report);
        } else {
            untraced(&args, &dir, &mut report);
        }
        report.print()
    };
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(dir.parent().expect("scratch dir has a parent"));
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
