//! The `train-paper` workload: `CrossInsightTrader::try_train` on the
//! U.S. market at paper scale with two worker threads.

use crate::data::{self, Rng};
use crate::report::{self, Report, Served};
use cit_core::{CitConfig, CrossInsightTrader, DecisionModel};
use cit_market::AssetPanel;
use cit_telemetry::{Record, Sink, Telemetry};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Optimiser updates per `try_train` call.
pub const UPDATES_PER_CALL: usize = 2;
/// Worker threads of the trainer.
pub const TRAIN_THREADS: usize = 2;
/// Test days on which the reloaded checkpoint must decide like the trader.
const PARITY_DAYS: usize = 32;

pub fn train_config(seed: u64) -> CitConfig {
    let base = CitConfig::default();
    CitConfig {
        seed: Rng::new(seed, 4).next_u64(),
        threads: TRAIN_THREADS,
        total_steps: UPDATES_PER_CALL * base.rollout,
        ..base
    }
}

/// A telemetry sink that notes when each update ends and counts
/// supervisor rollbacks: the trainer's own records, no added probes.
#[derive(Default)]
pub struct UpdateClock {
    ends: Mutex<Vec<Instant>>,
    rollbacks: AtomicU64,
}

impl Sink for UpdateClock {
    fn emit(&self, record: &Record) {
        match record.kind.as_str() {
            "train.update" => self
                .ends
                .lock()
                .expect("update clock poisoned")
                .push(Instant::now()),
            "supervisor.rollback" => {
                self.rollbacks.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
    }
}

impl UpdateClock {
    fn take(&self) -> Vec<Instant> {
        std::mem::take(&mut *self.ends.lock().expect("update clock poisoned"))
    }
    fn rollbacks(&self) -> u64 {
        self.rollbacks.load(Ordering::Relaxed)
    }
}

pub struct Train {
    pub panel: AssetPanel,
    pub cfg: CitConfig,
    pub trader: CrossInsightTrader,
    clock: Arc<UpdateClock>,
}

/// One `try_train` call: returns each update's duration in ms (the first
/// measured from the call's start), after checking check (c)'s training
/// half: one finite reward per update and no rollback.
pub fn train_call(t: &mut Train, report: &mut Report) -> Vec<f64> {
    t.clock.take();
    let before = t.clock.rollbacks();
    let start = Instant::now();
    let result = t.trader.try_train(&t.panel);
    let ends = t.clock.take();
    match result {
        Err(e) => {
            let kind = match e {
                cit_core::CitError::Diverged { .. } => "diverged",
                _ => "train_error",
            };
            for _ in 0..UPDATES_PER_CALL {
                report.failed("update", kind);
            }
            return Vec::new();
        }
        Ok(r) => {
            for (i, reward) in r.update_rewards.iter().enumerate() {
                report.answered("update");
                if !reward.is_finite() {
                    report.wrong(
                        "update",
                        format!("update {i} reward {reward} is not finite"),
                    );
                }
            }
            if r.update_rewards.len() != UPDATES_PER_CALL || ends.len() != UPDATES_PER_CALL {
                report.problem(format!(
                    "try_train ran {} updates ({} timed), expected {UPDATES_PER_CALL}",
                    r.update_rewards.len(),
                    ends.len()
                ));
            }
        }
    }
    // A rolled-back update is an attempt that failed (and was retried).
    let rollbacks = t.clock.rollbacks() - before;
    if rollbacks > 0 {
        for _ in 0..rollbacks {
            report.failed("update", "rollback");
        }
        report.problem(format!(
            "the training supervisor rolled back {rollbacks} updates"
        ));
    }
    let mut prev = start;
    ends.into_iter()
        .map(|e| {
            let ms = (e - prev).as_secs_f64() * 1e3;
            prev = e;
            ms
        })
        .collect()
}

impl Train {
    /// A paper-scale trader on `panel`, reporting to an [`UpdateClock`].
    pub fn new(panel: AssetPanel, seed: u64) -> Train {
        let cfg = train_config(seed);
        let clock = Arc::new(UpdateClock::default());
        let trader = CrossInsightTrader::try_new(&panel, cfg)
            .expect("paper-scale trader builds")
            .with_telemetry(Telemetry::new(clock.clone()));
        Train {
            panel,
            cfg,
            trader,
            clock,
        }
    }

    /// A fresh telemetry handle reporting to the same update clock.
    pub fn clock_telemetry(&self) -> Telemetry {
        Telemetry::new(self.clock.clone())
    }
}

pub fn train_setup(seed: u64, report: &mut Report) -> Train {
    let mut t = Train::new(data::us_panel(seed), seed);
    // Warm-up: one call, which also tunes every kernel size class training
    // uses.
    train_call(&mut t, report);
    t
}

/// Check (c)'s serving half, counted as one `checkpoint` op: the trained
/// trader, saved and reloaded as a [`DecisionModel`], decides the first
/// test days bitwise like `CrossInsightTrader::decide(.., stochastic =
/// false)`.
pub fn checkpoint_parity(t: &mut Train, dir: &Path, report: &mut Report) {
    match parity(t, dir) {
        Ok(()) => report.answered("checkpoint"),
        Err((kind, what)) => {
            report.failed("checkpoint", kind);
            report.problem(what);
        }
    }
}

fn parity(t: &mut Train, dir: &Path) -> Result<(), (&'static str, String)> {
    let path = dir.join("trained.cit");
    t.trader
        .save(&path)
        .map_err(|e| ("save", format!("saving the trained trader failed: {e}")))?;
    let model = DecisionModel::from_checkpoint(&path, t.cfg, t.panel.num_assets())
        .map_err(|e| ("load", format!("reloading the checkpoint failed: {e}")))?;
    let mut cache = model.new_cache();
    let mut prev = model.uniform_prev_actions();
    let t0 = t.panel.test_start();
    for day in t0..t0 + PARITY_DAYS {
        let want = t.trader.decide(&t.panel, day, &prev, false);
        let got = model.decide(&t.panel, day, &prev, &mut cache);
        let served = Served {
            final_action: got.final_action,
            pre_actions: got.pre_actions,
        };
        if !report::bitwise_equal(&served, &want.final_action, &want.pre_actions) {
            let what = format!("reloaded checkpoint decides day {day} differently from the trader");
            return Err(("check", what));
        }
        if let Some(p) = report::portfolio_problem(&want.final_action, t.panel.num_assets()) {
            return Err(("check", format!("trader decision on day {day}: {p}")));
        }
        prev = want.pre_actions;
    }
    Ok(())
}
