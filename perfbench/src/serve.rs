//! The two serving workloads: `serve-paper` (one client walking the
//! U.S. test period against an in-process paper-scale server) and
//! `serve-churn` (two clients cycling short sessions over two smoke-model
//! slots). Both are closed loops over loopback TCP.

use crate::data::{self, Rng};
use crate::report::{self, quantile, Report, Served};
use cit_core::{regime_features, CitConfig, DecisionModel};
use cit_market::AssetPanel;
use cit_serve::{Client, NamedModel, RegimeRouter, RouterPolicy, ServeConfig, Server};
use cit_telemetry::Telemetry;
use std::time::Instant;

/// Days of training-period history each `serve-paper` session opens with.
pub const HISTORY_DAYS: usize = 2000;
/// Days of the U.S. test period, one `decide` each.
pub const TEST_DAYS: usize = 630;
/// Days of history each `serve-churn` session opens with.
pub const OPEN_DAYS: usize = 64;
/// Decides per `serve-churn` session.
pub const ROUND_DECIDES: usize = 50;
/// `serve-churn` model slots; the first is the default slot.
pub const SLOTS: [&str; 2] = ["default", "alt"];
/// Concurrent `serve-churn` clients.
pub const CHURN_CLIENTS: usize = 2;
/// Sessions per churn client whose decisions check (b) recomputes.
const CHECKED_ROUNDS: usize = 2;

pub fn paper_config(seed: u64) -> CitConfig {
    CitConfig {
        seed: Rng::new(seed, 2).next_u64(),
        ..CitConfig::default()
    }
}

pub fn churn_configs(seed: u64) -> [CitConfig; 2] {
    [10, 11].map(|s| CitConfig::smoke(Rng::new(seed, s).next_u64()))
}

pub fn router_seed(seed: u64) -> u64 {
    Rng::new(seed, 12).next_u64()
}

fn start_server(models: Vec<(&str, CitConfig)>, cfg: ServeConfig, m: usize) -> Server {
    let models = models
        .into_iter()
        .map(|(name, c)| NamedModel {
            name: name.to_string(),
            model: DecisionModel::untrained(c, m).expect("benchmark model config is valid"),
            checkpoint_label: name.to_string(),
        })
        .collect();
    Server::start_multi(models, cfg, Telemetry::disabled()).expect("loopback server starts")
}

/// One `serve-paper` session: its name and the asset order its rows use,
/// so that every session sees different inputs of the same shape.
pub struct PaperSession {
    pub name: String,
    pub order: Vec<usize>,
}

impl PaperSession {
    pub fn new(i: usize, rng: &mut Rng, m: usize) -> PaperSession {
        PaperSession {
            name: format!("paper-{i}"),
            order: rng.permutation(m),
        }
    }

    /// The open history: the last [`HISTORY_DAYS`] training days.
    pub fn history(&self, panel: &AssetPanel) -> Vec<Vec<f64>> {
        let t0 = panel.test_start();
        data::rows(panel, t0 - HISTORY_DAYS..t0, &self.order)
    }

    /// The row the `d`-th decide appends: test day `d`.
    pub fn test_row(&self, panel: &AssetPanel, d: usize) -> Vec<f64> {
        data::row(panel, panel.test_start() + d, &self.order)
    }
}

pub struct Paper {
    pub panel: AssetPanel,
    cfg: CitConfig,
    server: Server,
    client: Client,
    sessions: Vec<PaperSession>,
}

/// Sessions to open for a phase of `seconds`: enough to keep deciding at
/// 150 decides/s, faster than this model has been seen to run here.
fn paper_sessions(seconds: f64) -> usize {
    (seconds * 150.0 / TEST_DAYS as f64).ceil() as usize + 1
}

/// Opens `session` with `rows` (default slot unless `model`) and checks
/// the reply. Returns the round-trip in milliseconds and the reply's model
/// echo.
fn open(
    client: &mut Client,
    session: &str,
    rows: &[Vec<f64>],
    model: Option<&str>,
    report: &mut Report,
) -> (f64, Option<String>) {
    let line = data::open_line(session, rows, model);
    let t = Instant::now();
    let reply = client.call_line(&line);
    let rt = t.elapsed().as_secs_f64() * 1e3;
    let Some(r) = report.wire("open", reply) else {
        return (rt, None);
    };
    if r.number("days") != Some(rows.len() as f64) {
        report.wrong(
            "open",
            format!(
                "open {session}: days {:?}, sent {}",
                r.number("days"),
                rows.len()
            ),
        );
    }
    (rt, r.model().map(str::to_string))
}

fn close(client: &mut Client, session: &str, report: &mut Report) -> f64 {
    let t = Instant::now();
    let reply = client.call_line(&data::close_line(session));
    let rt = t.elapsed().as_secs_f64() * 1e3;
    report.wire("close", reply);
    rt
}

/// Sends one `decide` appending `row`, checks the reply (check (a)) and
/// returns the round-trip in milliseconds and the decision.
fn decide(
    client: &mut Client,
    session: &str,
    row: &[f64],
    expect_day: usize,
    policies: usize,
    report: &mut Report,
) -> (f64, Option<Served>) {
    let line = data::decide_line(session, row);
    let t = Instant::now();
    let reply = client.call_line(&line);
    let rt = t.elapsed().as_secs_f64() * 1e3;
    let served = report.wire("decide", reply).and_then(|r| {
        report::check_decision(&r, row.len() / 4, policies, expect_day)
            .map_err(|e| report.wrong("decide", format!("{session}: {e}")))
            .ok()
    });
    (rt, served)
}

/// Check (b): recomputes `served` (consecutive decisions from the first
/// decide after the open) with a fresh [`DecisionModel`] of `cfg` and a
/// fresh window cache per day, which runs the full Haar transform instead
/// of the server's sliding one, and requires bitwise equality.
pub fn recompute(
    cfg: CitConfig,
    history: Vec<Vec<f64>>,
    appended: &[Vec<f64>],
    served: &[Served],
    report: &mut Report,
    label: &str,
) {
    if served.is_empty() {
        return;
    }
    let open_days = history.len();
    let mut rows = history;
    rows.extend_from_slice(&appended[..served.len()]);
    let panel = data::panel_of(&rows);
    let model =
        DecisionModel::untrained(cfg, panel.num_assets()).expect("benchmark model config is valid");
    let mut prev = model.uniform_prev_actions();
    for (j, s) in served.iter().enumerate() {
        let out = model.decide(&panel, open_days + j, &prev, &mut model.new_cache());
        if !report::bitwise_equal(s, &out.final_action, &out.pre_actions) {
            report.wrong(
                "decide",
                format!("{label}: served decision {j} differs from the recomputation"),
            );
            return;
        }
        prev = out.pre_actions;
    }
}

pub fn paper_setup(seed: u64, seconds: f64, report: &mut Report) -> Paper {
    let panel = data::us_panel(seed);
    let cfg = paper_config(seed);
    let m = panel.num_assets();
    let server_cfg = ServeConfig {
        threads: 1,
        ..ServeConfig::default()
    };
    let server = start_server(vec![(SLOTS[0], cfg)], server_cfg, m);
    let mut client = Client::connect(server.addr()).expect("loopback connect");
    let mut rng = Rng::new(seed, 3);
    let sessions: Vec<PaperSession> = (0..paper_sessions(seconds))
        .map(|i| PaperSession::new(i, &mut rng, m))
        .collect();
    for s in &sessions {
        open(&mut client, &s.name, &s.history(&panel), None, report);
    }
    // Warm-up of the decide and close paths on a session of its own, so
    // the timed sessions start untouched.
    let mut warm = PaperSession::new(0, &mut rng, m);
    warm.name = "paper-warm".into();
    let t0 = panel.test_start();
    open(
        &mut client,
        &warm.name,
        &data::rows(&panel, t0 - OPEN_DAYS..t0, &warm.order),
        None,
        report,
    );
    decide(
        &mut client,
        &warm.name,
        &warm.test_row(&panel, 0),
        OPEN_DAYS,
        cfg.num_policies,
        report,
    );
    close(&mut client, &warm.name, report);
    Paper {
        panel,
        cfg,
        server,
        client,
        sessions,
    }
}

/// Latencies (ms) of the timed operations and the phase length (s).
#[derive(Default)]
pub struct Phase {
    pub latency_ms: Vec<f64>,
    pub secs: f64,
}

/// The timed `serve-paper` phase: walks the test period session after
/// session until `seconds` have passed, then checks the first session.
pub fn paper_run(p: &mut Paper, seconds: f64, report: &mut Report) -> Phase {
    let mut phase = Phase::default();
    let mut first: Vec<Served> = Vec::new();
    let policies = p.cfg.num_policies;
    let start = Instant::now();
    'walk: for (si, s) in p.sessions.iter().enumerate() {
        for d in 0..TEST_DAYS {
            if start.elapsed().as_secs_f64() >= seconds {
                break 'walk;
            }
            let row = s.test_row(&p.panel, d);
            let (rt, served) = decide(
                &mut p.client,
                &s.name,
                &row,
                HISTORY_DAYS + d,
                policies,
                report,
            );
            phase.latency_ms.push(rt);
            if let (0, Some(sv)) = (si, served) {
                first.push(sv);
            }
        }
    }
    phase.secs = start.elapsed().as_secs_f64();
    let s = &p.sessions[0];
    let appended: Vec<Vec<f64>> = (0..first.len()).map(|d| s.test_row(&p.panel, d)).collect();
    recompute(
        p.cfg,
        s.history(&p.panel),
        &appended,
        &first,
        report,
        &s.name,
    );
    phase
}

pub fn paper_finish(p: Paper) {
    drop(p.client);
    p.server.shutdown();
}

pub struct Churn {
    pub panel: AssetPanel,
    pub cfgs: [CitConfig; 2],
    pub router_seed: u64,
    server: Server,
    clients: Vec<Client>,
}

/// One churn session as sent and as answered.
pub struct Round {
    pub name: String,
    pub model: Option<&'static str>,
    pub start_day: usize,
    /// The slot index the session was pinned to (from the open's echo).
    pub slot: usize,
    pub open_ms: f64,
    pub close_ms: f64,
    pub decide_ms: Vec<f64>,
    /// The served decisions, kept for the rounds check (b) recomputes.
    pub served: Vec<Served>,
}

impl Round {
    /// The `r`-th session of client `c`: alternates the default slot and
    /// `"auto"`, over [`OPEN_DAYS`] + [`ROUND_DECIDES`] days from a seeded
    /// start day.
    pub fn plan(c: usize, r: usize, rng: &mut Rng, panel: &AssetPanel) -> Round {
        Round {
            name: format!("churn-{c}-{r}"),
            model: (r % 2 == 1).then_some("auto"),
            start_day: rng.below(panel.num_days() - OPEN_DAYS - ROUND_DECIDES),
            slot: 0,
            open_ms: 0.0,
            close_ms: 0.0,
            decide_ms: Vec::new(),
            served: Vec::new(),
        }
    }

    pub fn history(&self, panel: &AssetPanel) -> Vec<Vec<f64>> {
        let order: Vec<usize> = (0..panel.num_assets()).collect();
        data::rows(panel, self.start_day..self.start_day + OPEN_DAYS, &order)
    }

    pub fn appended(&self, panel: &AssetPanel) -> Vec<Vec<f64>> {
        let order: Vec<usize> = (0..panel.num_assets()).collect();
        let s = self.start_day + OPEN_DAYS;
        data::rows(panel, s..s + ROUND_DECIDES, &order)
    }
}

/// The slot the router must pick for `history`: an independent
/// evaluation of the documented routing rule.
pub fn expected_slot(router_seed: u64, history: &[Vec<f64>], m: usize, cfg: &CitConfig) -> usize {
    let features = regime_features(history, m, cfg.window, cfg.num_policies);
    RegimeRouter::new(router_seed).route(&features, SLOTS.len())
}

/// Runs one churn round (open, `decides` decides, close) on `client`.
#[allow(clippy::too_many_arguments)]
fn run_round(
    client: &mut Client,
    mut round: Round,
    decides: usize,
    panel: &AssetPanel,
    cfgs: &[CitConfig; 2],
    router_seed: u64,
    keep_served: bool,
    report: &mut Report,
) -> Round {
    let m = panel.num_assets();
    let history = round.history(panel);
    let (open_ms, echo) = open(client, &round.name, &history, round.model, report);
    round.open_ms = open_ms;
    // A failed open is already counted; a routed one must land where the
    // router rule says.
    if let (Some(_), Some(echo)) = (round.model, echo) {
        let want = expected_slot(router_seed, &history, m, &cfgs[0]);
        round.slot = SLOTS.iter().position(|s| *s == echo).unwrap_or(usize::MAX);
        if round.slot != want {
            report.wrong(
                "open",
                format!(
                    "{}: routed to {echo}, the router rule gives {}",
                    round.name, SLOTS[want]
                ),
            );
        }
    }
    let policies = cfgs[0].num_policies;
    for (d, row) in round.appended(panel).iter().take(decides).enumerate() {
        let (rt, served) = decide(client, &round.name, row, OPEN_DAYS + d, policies, report);
        round.decide_ms.push(rt);
        if keep_served {
            round.served.extend(served);
        }
    }
    round.close_ms = close(client, &round.name, report);
    round
}

pub fn churn_setup(seed: u64, report: &mut Report) -> Churn {
    let panel = data::us_panel(seed);
    let cfgs = churn_configs(seed);
    let router_seed = router_seed(seed);
    let server_cfg = ServeConfig {
        threads: 1,
        router_seed,
        ..ServeConfig::default()
    };
    let server = start_server(
        vec![(SLOTS[0], cfgs[0]), (SLOTS[1], cfgs[1])],
        server_cfg,
        panel.num_assets(),
    );
    let mut clients: Vec<Client> = (0..CHURN_CLIENTS)
        .map(|_| Client::connect(server.addr()).expect("loopback connect"))
        .collect();
    // Warm-up: one default-slot and one routed round with one decide each.
    let mut rng = Rng::new(seed, 99);
    for r in 0..2 {
        let mut round = Round::plan(usize::MAX, r, &mut rng, &panel);
        round.name = format!("warm-{r}");
        run_round(
            &mut clients[0],
            round,
            1,
            &panel,
            &cfgs,
            router_seed,
            false,
            report,
        );
    }
    Churn {
        panel,
        cfgs,
        router_seed,
        server,
        clients,
    }
}

/// Runs whole rounds on every client until `seconds` have passed (or,
/// when `rounds` is set, exactly that many per client). Returns each
/// client's rounds and the phase length.
pub fn churn_rounds(
    ch: &mut Churn,
    seed: u64,
    seconds: f64,
    rounds: Option<usize>,
    report: &mut Report,
) -> (Vec<Vec<Round>>, f64) {
    let start = Instant::now();
    let (panel, cfgs, router_seed) = (&ch.panel, &ch.cfgs, ch.router_seed);
    let results: Vec<(Vec<Round>, Report)> = std::thread::scope(|sc| {
        let handles: Vec<_> = ch
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                sc.spawn(move || {
                    let mut rng = Rng::new(seed, 100 + c as u64);
                    let mut rep = Report::default();
                    let mut done = Vec::new();
                    while rounds.map_or(start.elapsed().as_secs_f64() < seconds, |n| done.len() < n)
                    {
                        let r = done.len();
                        let round = Round::plan(c, r, &mut rng, panel);
                        // A fixed-count run keeps every decision for replay.
                        let keep = rounds.is_some() || r < CHECKED_ROUNDS;
                        done.push(run_round(
                            client,
                            round,
                            ROUND_DECIDES,
                            panel,
                            cfgs,
                            router_seed,
                            keep,
                            &mut rep,
                        ));
                    }
                    (done, rep)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("churn client thread panicked"))
            .collect()
    });
    let secs = start.elapsed().as_secs_f64();
    let mut per_client = Vec::new();
    for (rounds, rep) in results {
        report.merge(rep);
        per_client.push(rounds);
    }
    (per_client, secs)
}

/// Check (b) for churn: the first [`CHECKED_ROUNDS`] sessions of every
/// client, one on the default slot and one routed.
pub fn churn_recompute(ch: &Churn, per_client: &[Vec<Round>], report: &mut Report) {
    for round in per_client
        .iter()
        .flat_map(|rs| rs.iter().take(CHECKED_ROUNDS))
    {
        let Some(&cfg) = ch.cfgs.get(round.slot) else {
            continue;
        };
        recompute(
            cfg,
            round.history(&ch.panel),
            &round.appended(&ch.panel),
            &round.served,
            report,
            &round.name,
        );
    }
}

/// The timed `serve-churn` phase.
pub fn churn_run(ch: &mut Churn, seed: u64, seconds: f64, report: &mut Report) -> Phase {
    let (per_client, secs) = churn_rounds(ch, seed, seconds, None, report);
    churn_recompute(ch, &per_client, report);
    let rounds: Vec<&Round> = per_client.iter().flatten().collect();
    let opens: Vec<f64> = rounds.iter().map(|r| r.open_ms).collect();
    let closes: Vec<f64> = rounds.iter().map(|r| r.close_ms).collect();
    report.note(format!(
        "{} sessions: open p50 {:.3} ms, close p50 {:.3} ms",
        rounds.len(),
        quantile(&opens, 0.5),
        quantile(&closes, 0.5)
    ));
    Phase {
        latency_ms: rounds
            .iter()
            .flat_map(|r| r.decide_ms.iter().copied())
            .collect(),
        secs,
    }
}

pub fn churn_finish(ch: Churn) {
    drop(ch.clients);
    ch.server.shutdown();
}

/// A `stats` op on a fresh connection.
pub fn server_stats(server_addr: std::net::SocketAddr) -> Option<cit_serve::ServerStats> {
    let mut c = Client::connect(server_addr).ok()?;
    c.call_line(r#"{"op":"stats"}"#).ok()?.stats()
}

impl Churn {
    pub fn addr(&self) -> std::net::SocketAddr {
        self.server.addr()
    }
}
