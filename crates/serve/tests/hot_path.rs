//! The decide hot path: the batcher never waits out `max_wait_us` (not
//! for a lone request, nor after taking several queued ones), requests
//! queued behind a busy batcher still form batches, and the length of a
//! session's history never changes its decisions.

use cit_core::{CitConfig, DecisionModel};
use cit_market::{AssetPanel, Feature, SynthConfig};
use cit_serve::{Client, Request, Response, ServeConfig, Server, Session};
use std::time::{Duration, Instant};

fn synth(num_assets: usize, num_days: usize, seed: u64) -> AssetPanel {
    SynthConfig {
        num_assets,
        num_days,
        test_start: num_days - 1,
        seed,
        ..Default::default()
    }
    .generate()
}

/// The `[m·4]` OHLC wire rows for panel days `[from, to)`.
fn rows(panel: &AssetPanel, from: usize, to: usize) -> Vec<Vec<f64>> {
    (from..to)
        .map(|t| {
            (0..panel.num_assets())
                .flat_map(|i| {
                    [Feature::Open, Feature::High, Feature::Low, Feature::Close]
                        .into_iter()
                        .map(move |f| panel.price(t, i, f))
                })
                .collect()
        })
        .collect()
}

/// With nothing else queued, a request is dispatched at once: a client
/// alone on the server never waits out a long `max_wait_us`.
#[test]
fn lone_client_does_not_wait_out_max_wait() {
    let panel = synth(2, 80, 5);
    let model = DecisionModel::untrained(CitConfig::smoke(5), 2).unwrap();
    let cfg = ServeConfig {
        max_wait_us: 200_000,
        ..Default::default()
    };
    let server = Server::start(model, cfg).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let opened = client
        .call(&Request::Open {
            session: "lone".into(),
            prices: rows(&panel, 0, 40),
        })
        .unwrap();
    assert!(opened.ok(), "{:?}", opened.error_message());
    for t in 40..45 {
        let started = Instant::now();
        let reply = client
            .call(&Request::Decide {
                session: "lone".into(),
                prices: rows(&panel, t, t + 1),
            })
            .unwrap();
        let took = started.elapsed();
        assert!(reply.ok(), "{:?}", reply.error_message());
        assert!(
            took < Duration::from_millis(100),
            "a lone decide took {took:?} against a 200 ms max_wait_us"
        );
    }
    server.shutdown();
}

/// Requests that pile up while the batcher is busy (here: stalled by the
/// `sleep` debug op) are still taken as one batch when it frees up.
#[test]
fn burst_behind_a_stalled_batcher_still_batches() {
    const BURST: usize = 8;
    let panel = synth(2, 80, 6);
    let model = DecisionModel::untrained(CitConfig::smoke(6), 2).unwrap();
    let cfg = ServeConfig {
        debug_ops: true,
        ..Default::default()
    };
    let server = Server::start(model, cfg).unwrap();
    let addr = server.addr();
    let mut setup = Client::connect(addr).unwrap();
    assert!(setup
        .call(&Request::Open {
            session: "burst".into(),
            prices: rows(&panel, 0, 40),
        })
        .unwrap()
        .ok());

    let stall = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.call(&Request::Sleep { ms: 400 }).unwrap()
    });
    std::thread::sleep(Duration::from_millis(100));
    let burst: Vec<_> = (0..BURST)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                c.call(&Request::Decide {
                    session: "burst".into(),
                    prices: vec![],
                })
                .unwrap()
            })
        })
        .collect();
    assert!(stall.join().unwrap().ok());
    for b in burst {
        let reply = b.join().unwrap();
        assert!(reply.ok(), "{:?}", reply.error_message());
    }

    let stats = setup.call(&Request::Stats).unwrap();
    let stats = stats.stats().expect("stats reply");
    // Batches: the open, the sleep, then the burst. Dispatching every job
    // alone would give a mean of exactly 1.
    assert!(
        stats.batch_mean > 1.0,
        "the queued burst was not batched: batch_mean {}",
        stats.batch_mean
    );
    server.shutdown();
}

/// Closed-loop clients whose decides were queued together are answered
/// as soon as their batch runs: once every client is waiting on its
/// reply, no further request can arrive, so holding the batch for more
/// work would only add `max_wait_us` to each of them.
#[test]
fn queued_decides_are_not_held_for_more_work() {
    let panel = synth(2, 80, 7);
    let model = DecisionModel::untrained(CitConfig::smoke(7), 2).unwrap();
    let cfg = ServeConfig {
        max_wait_us: 200_000,
        debug_ops: true,
        ..Default::default()
    };
    let server = Server::start(model, cfg).unwrap();
    let addr = server.addr();
    let mut setup = Client::connect(addr).unwrap();
    for name in ["a", "b"] {
        let opened = setup
            .call(&Request::Open {
                session: name.into(),
                prices: rows(&panel, 0, 40),
            })
            .unwrap();
        assert!(opened.ok(), "{:?}", opened.error_message());
    }

    let stall = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.call(&Request::Sleep { ms: 100 }).unwrap()
    });
    std::thread::sleep(Duration::from_millis(30));
    let clients: Vec<_> = ["a", "b"]
        .into_iter()
        .map(|name| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let started = Instant::now();
                let reply = c
                    .call(&Request::Decide {
                        session: name.into(),
                        prices: vec![],
                    })
                    .unwrap();
                (reply, started.elapsed())
            })
        })
        .collect();
    assert!(stall.join().unwrap().ok());
    for c in clients {
        let (reply, took) = c.join().unwrap();
        assert!(reply.ok(), "{:?}", reply.error_message());
        // About 70 ms of the stall are left when the decides are sent;
        // holding their batch for more work would add up to 200 ms.
        assert!(
            took < Duration::from_millis(200),
            "a queued decide took {took:?}: its batch was held for more work"
        );
    }
    server.shutdown();
}

fn decision(resp: Response) -> (Vec<u64>, Vec<Vec<u64>>) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    match resp {
        Response::Decision {
            final_action,
            pre_actions,
            ..
        } => (
            bits(&final_action),
            pre_actions.iter().map(|a| bits(a)).collect(),
        ),
        other => panic!("expected a decision, got {}", other.render()),
    }
}

/// A session holding 40 days and one holding 3,000 days, fed the same
/// days, decide bit for bit alike: decisions read only the trailing window
/// of the history. Five horizons over a 32-day window, as in the paper, so
/// the sliding DWT ring has 16 slots.
#[test]
fn decisions_do_not_depend_on_history_length() {
    let cfg = CitConfig {
        window: 32,
        num_policies: 5,
        ..CitConfig::smoke(8)
    };
    let panel = synth(3, 3_100, 8);
    let model = DecisionModel::untrained(cfg, 3).unwrap();
    let max_history = ServeConfig::default().max_history;
    let mut short = Session::open(
        &model,
        "short",
        "",
        &rows(&panel, 2_960, 3_000),
        max_history,
    )
    .expect("40 days open");
    let mut long = Session::open(&model, "long", "", &rows(&panel, 0, 3_000), max_history)
        .expect("3,000 days open");
    assert_eq!((short.days(), long.days()), (40, 3_000));
    for t in 3_000..3_080 {
        let day = rows(&panel, t, t + 1);
        let a = decision(short.decide(&model, &day).unwrap());
        let b = decision(long.decide(&model, &day).unwrap());
        assert_eq!(a, b, "40-day and 3,000-day sessions diverged at day {t}");
    }
}
