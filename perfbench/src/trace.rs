//! The traced run: per-layer numbers for all three workloads from the
//! program's public calls, timed from the outside.
//!
//! * `serve-paper`: replays session 0's request stream through
//!   `Session::decide`, `DecisionModel::decide` and
//!   `HorizonWindowCache::windows` on identical state, with allocations
//!   counted.
//! * `train-paper`: attaches an in-memory telemetry handle to the trainer
//!   and reads its span histograms, with allocations counted.
//! * `serve-churn`: runs a fixed number of rounds against a live server,
//!   reads its `stats` op, then replays the same streams through
//!   `Request::parse`, the router, `Session::open`, `Session::decide` and
//!   `Response::render`.
//!
//! Times are medians over calls, like the untraced run's latencies;
//! allocation figures are means of exact counts.

use crate::alloc;
use crate::data::{self, Rng};
use crate::report::{self, median, Report, Served};
use crate::serve::{self, PaperSession, HISTORY_DAYS, SLOTS};
use crate::train::{self, Train};
use cit_core::{regime_features, DecisionModel};
use cit_market::AssetPanel;
use cit_serve::{RegimeRouter, Request, Response, RouterPolicy, ServeConfig, Session};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Test days of session 0 replayed in `serve-paper`.
const PAPER_REPLAY_DAYS: usize = 200;
/// Rounds per client run live and replayed in `serve-churn`.
const CHURN_ROUNDS: usize = 6;
/// Alternating untraced/traced `try_train` calls in `train-paper`.
const TRAIN_PAIRS: usize = 2;

/// `f`'s result and its wall time in microseconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e6)
}

fn decision_of(resp: &Response) -> Option<(&[f64], &[Vec<f64>])> {
    match resp {
        Response::Decision {
            final_action,
            pre_actions,
            ..
        } => Some((final_action, pre_actions)),
        _ => None,
    }
}

/// `serve-paper` layers. Returns the seconds the process's first decide
/// took beyond a steady one (kernel tuning and other lazy set-up).
fn paper(panel: &AssetPanel, seed: u64, report: &mut Report) -> f64 {
    let m = panel.num_assets();
    let cfg = serve::paper_config(seed);
    let model = DecisionModel::untrained(cfg, m).expect("paper-scale model builds");
    let mut rng = Rng::new(seed, 3);
    let s = PaperSession::new(0, &mut rng, m);
    let history = s.history(panel);
    let appended: Vec<Vec<f64>> = (0..PAPER_REPLAY_DAYS)
        .map(|d| s.test_row(panel, d))
        .collect();
    let replica = data::panel_of(&[history.clone(), appended.clone()].concat());

    let (_, first_us) = timed(|| {
        model.decide(
            &replica,
            HISTORY_DAYS - 1,
            &model.uniform_prev_actions(),
            &mut model.new_cache(),
        )
    });

    let mut session = Session::open(
        &model,
        &s.name,
        "",
        &history,
        ServeConfig::default().max_history,
    )
    .unwrap_or_else(|e| panic!("replay session opens: {}", e.render()));
    // Replicas of the session's state: `a` decides with allocation
    // counting on, `b` with it off, `w` runs only the window transform.
    let (mut cache_a, mut cache_b, mut cache_w) =
        (model.new_cache(), model.new_cache(), model.new_cache());
    let (mut prev_a, mut prev_b) = (model.uniform_prev_actions(), model.uniform_prev_actions());
    let (mut t_sess, mut t_a, mut t_b, mut t_w) = (vec![], vec![], vec![], vec![]);
    let (mut sess_bytes, mut a_calls, mut a_bytes) = (0u64, 0u64, 0u64);
    for (d, row) in appended.iter().enumerate() {
        let t = HISTORY_DAYS + d;
        let ((resp, dt), _, bytes) =
            alloc::counted(|| timed(|| session.decide(&model, std::slice::from_ref(row))));
        t_sess.push(dt);
        sess_bytes += bytes;
        let mut run_a = || {
            let ((out, dt), calls, bytes) =
                alloc::counted(|| timed(|| model.decide(&replica, t, &prev_a, &mut cache_a)));
            (out, dt, calls, bytes)
        };
        let mut run_b = || timed(|| model.decide(&replica, t, &prev_b, &mut cache_b));
        // Alternate which replica runs first, so neither always finds the
        // caches warmer.
        let ((out_a, dt_a, calls, bytes), (out_b, dt_b)) = if d % 2 == 0 {
            let a = run_a();
            (a, run_b())
        } else {
            let b = run_b();
            (run_a(), b)
        };
        t_a.push(dt_a);
        t_b.push(dt_b);
        a_calls += calls;
        a_bytes += bytes;
        t_w.push(timed(|| black_box(cache_w.windows(&replica, t))).1);

        let ok = match resp.as_ref().map(decision_of) {
            Ok(Some((f, pre))) => {
                let sv = Served {
                    final_action: f.to_vec(),
                    pre_actions: pre.to_vec(),
                };
                report::bitwise_equal(&sv, &out_a.final_action, &out_a.pre_actions)
                    && report::bitwise_equal(&sv, &out_b.final_action, &out_b.pre_actions)
            }
            _ => false,
        };
        report.answered("decide");
        if !ok {
            report.wrong(
                "decide",
                format!("replay day {d}: Session::decide and DecisionModel::decide disagree"),
            );
            break;
        }
        prev_a = out_a.pre_actions;
        prev_b = out_b.pre_actions;
    }
    let n = t_sess.len().max(1) as f64;
    let p_sess = median(&t_sess);
    let p_a = median(&t_a);
    report.metric("session.decide_us", p_sess, "us");
    report.metric("session.overhead_us", p_sess - p_a, "us");
    report.metric(
        "session.alloc_bytes_per_decide",
        (sess_bytes - a_bytes) as f64 / n,
        "B",
    );
    report.metric("model.decide_us", p_a, "us");
    report.metric("model.allocs_per_decide", a_calls as f64 / n, "count");
    report.metric("model.alloc_bytes_per_decide", a_bytes as f64 / n, "B");
    report.metric("dwt.windows_us", median(&t_w), "us");
    let p_b = median(&t_b);
    report.metric("trace.decide_overhead_pct", (p_a / p_b - 1.0) * 100.0, "%");
    (first_us - p_b) / 1e6
}

/// `train-paper` layers. Returns the seconds the warm-up call took beyond
/// two steady updates.
fn training(panel: AssetPanel, seed: u64, report: &mut Report) -> f64 {
    let mut t = Train::new(panel, seed);
    let (_, first_us) = timed(|| train::train_call(&mut t, report));
    let plain = t.trader.telemetry().clone();
    // A handle of its own, so its span histograms hold only the traced
    // calls.
    let traced = t.clock_telemetry();
    let (mut plain_ms, mut traced_ms) = (vec![], vec![]);
    let (mut calls, mut bytes) = (0, 0);
    for _ in 0..TRAIN_PAIRS {
        plain_ms.extend(train::train_call(&mut t, report));
        t.trader.set_telemetry(traced.clone());
        let (ms, c, b) = alloc::counted(|| train::train_call(&mut t, report));
        t.trader.set_telemetry(plain.clone());
        traced_ms.extend(ms);
        calls += c;
        bytes += b;
    }
    let updates = traced_ms.len().max(1) as f64;
    for (metric, span) in [
        ("train.rollout_ms", "train.rollout"),
        ("train.graph_build_ms", "train.graph_build"),
        ("nn.backward_ms", "nn.backward"),
        ("train.targets_ms", "train.targets"),
        ("train.advantages_ms", "train.advantages"),
        ("train.opt_step_ms", "train.opt_step"),
        ("nn.tcn_forward_ms", "nn.tcn_forward"),
        ("nn.attention_forward_ms", "nn.attention_forward"),
        ("dwt.horizon_windows_ms", "dwt.horizon_windows"),
    ] {
        report.metric(
            metric,
            traced.span_histogram(span).sum() * 1e3 / updates,
            "ms",
        );
    }
    report.metric("train.allocs_per_update", calls as f64 / updates, "count");
    report.metric("train.alloc_bytes_per_update", bytes as f64 / updates, "B");
    report.metric(
        "trace.update_overhead_pct",
        (median(&traced_ms) / median(&plain_ms) - 1.0) * 100.0,
        "%",
    );
    (first_us / 1e3 - 2.0 * median(&plain_ms)) / 1e3
}

/// `serve-churn` layers.
fn churn(seed: u64, report: &mut Report) {
    let mut ch = serve::churn_setup(seed, report);
    let (per_client, _) = serve::churn_rounds(&mut ch, seed, 0.0, Some(CHURN_ROUNDS), report);
    serve::churn_recompute(&ch, &per_client, report);
    let stats = serve::server_stats(ch.addr());
    let (cfgs, router_seed) = (ch.cfgs, ch.router_seed);
    let panel = ch.panel.clone();
    serve::churn_finish(ch);

    match stats {
        Some(st) => {
            report.metric("serve.batch_mean", st.batch_mean, "count");
            let decide_p50 = st
                .ops
                .iter()
                .find(|o| o.op == "decide")
                .map_or(f64::NAN, |o| o.p50_us);
            report.metric("serve.stats_p50_us", decide_p50, "us");
        }
        None => report.problem("the stats op did not answer".into()),
    }

    let models: Vec<DecisionModel> = cfgs
        .iter()
        .map(|&c| DecisionModel::untrained(c, panel.num_assets()).expect("smoke model builds"))
        .collect();
    let m = panel.num_assets();
    let (mut rt_decide, mut rt_open) = (vec![], vec![]);
    let (mut parse_open, mut parse_decide, mut render, mut route, mut open, mut decide) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    for round in per_client.iter().flatten() {
        rt_open.push(round.open_ms * 1e3);
        rt_decide.extend(round.decide_ms.iter().map(|ms| ms * 1e3));
        let history = round.history(&panel);
        let line = data::open_line(&round.name, &history, round.model);
        parse_open.push(timed(|| black_box(Request::parse(&line))).1);
        if round.model.is_some() {
            let (slot, dt) = timed(|| {
                let f = regime_features(&history, m, cfgs[0].window, cfgs[0].num_policies);
                RegimeRouter::new(router_seed).route(&f, SLOTS.len())
            });
            route.push(dt);
            black_box(slot);
        }
        let Some(model) = models.get(round.slot) else {
            continue;
        };
        let pin = if round.model.is_some() {
            SLOTS[round.slot]
        } else {
            ""
        };
        let (opened, dt) = timed(|| {
            Session::open(
                model,
                &round.name,
                pin,
                &history,
                ServeConfig::default().max_history,
            )
        });
        open.push(dt);
        let Ok(mut session) = opened else {
            report.problem(format!("{}: replayed open failed", round.name));
            continue;
        };
        for (row, served) in round.appended(&panel).iter().zip(&round.served) {
            let line = data::decide_line(&round.name, row);
            parse_decide.push(timed(|| black_box(Request::parse(&line))).1);
            let (resp, dt) = timed(|| session.decide(model, std::slice::from_ref(row)));
            decide.push(dt);
            report.answered("decide");
            let same = resp
                .as_ref()
                .ok()
                .and_then(decision_of)
                .is_some_and(|(f, pre)| report::bitwise_equal(served, f, pre));
            if !same {
                report.wrong(
                    "decide",
                    format!(
                        "{}: replayed decide differs from the served one",
                        round.name
                    ),
                );
                break;
            }
            if let Ok(resp) = &resp {
                render.push(timed(|| black_box(resp.render())).1);
            }
        }
    }
    report.metric("serve.wire_us", median(&rt_decide) - median(&decide), "us");
    report.metric("client.open_us", median(&rt_open), "us");
    report.metric("protocol.parse_decide_us", median(&parse_decide), "us");
    report.metric("protocol.parse_open_us", median(&parse_open), "us");
    report.metric("protocol.render_decision_us", median(&render), "us");
    report.metric("session.open_us", median(&open), "us");
    report.metric("router.features_us", median(&route), "us");
}

/// Runs every workload's traced part and reports the per-layer metrics.
pub fn run(seed: u64, dir: &Path, report: &mut Report) {
    let (panel, gen_us) = timed(|| data::us_panel(seed));
    let warm_paper = paper(&panel, seed, report);
    let warm_train = training(panel, seed, report);
    churn(seed, report);
    report.metric("market.generate_s", gen_us / 1e6, "s");
    report.metric("autotune.warmup_s", warm_paper + warm_train, "s");
    let cache = std::fs::read_to_string(dir.join("autotune_cache.json")).unwrap_or_default();
    for line in cache.lines().filter(|l| l.contains('|')) {
        report.note(format!(
            "autotune scheme {}",
            line.trim().trim_end_matches(',')
        ));
    }
}
