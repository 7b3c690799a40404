//! Quantiles, per-op failure accounting, decision checks and the result
//! line.

use cit_serve::Reply;
use std::collections::BTreeMap;
use std::fmt::Write;

/// The `q`-quantile (0..=1) of `xs`, linearly interpolated between the
/// two nearest order statistics. `NaN` for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Attempted, answered and failed counts of one operation, with the typed
/// error kind of each failure.
#[derive(Default)]
pub struct OpCount {
    pub attempted: u64,
    pub answered: u64,
    pub failed: u64,
    pub kinds: BTreeMap<String, u64>,
}

/// Everything a run reports: metrics in print order, per-op accounting and
/// the correctness verdict.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    ops: BTreeMap<&'static str, OpCount>,
    problems: Vec<String>,
    notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// A human-readable line printed before the result (not a metric).
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records a failed correctness check (the run is then not correct).
    pub fn problem(&mut self, what: String) {
        if self.problems.len() < 20 {
            eprintln!("perfbench: check failed: {what}");
        }
        self.problems.push(what);
    }

    /// Counts one attempt of `op` that the program answered.
    pub fn answered(&mut self, op: &'static str) {
        let c = self.ops.entry(op).or_default();
        c.attempted += 1;
        c.answered += 1;
    }

    /// Counts one attempt of `op` that failed with error `kind`.
    pub fn failed(&mut self, op: &'static str, kind: &str) {
        let c = self.ops.entry(op).or_default();
        c.attempted += 1;
        c.failed += 1;
        *c.kinds.entry(kind.to_string()).or_default() += 1;
    }

    /// Accounts one wire reply to `op`: an `ok` reply counts as answered,
    /// an error reply or a transport error as failed under its kind.
    /// Returns the reply only when it is `ok`.
    pub fn wire(&mut self, op: &'static str, reply: std::io::Result<Reply>) -> Option<Reply> {
        match reply {
            Ok(r) if r.ok() => {
                self.answered(op);
                Some(r)
            }
            Ok(r) => {
                let kind = r.error_kind().map_or("unknown", |k| k.tag());
                self.failed(op, kind);
                None
            }
            Err(e) => {
                self.failed(op, &format!("io_{:?}", e.kind()));
                None
            }
        }
    }

    /// Turns a failed decision check into a failure of `op`: the attempt
    /// was answered, but with a wrong result.
    pub fn wrong(&mut self, op: &'static str, what: String) {
        let c = self.ops.entry(op).or_default();
        c.answered -= 1;
        c.failed += 1;
        *c.kinds.entry("check".to_string()).or_default() += 1;
        self.problem(what);
    }

    /// Folds another thread's accounting and problems into this report.
    pub fn merge(&mut self, other: Report) {
        for (op, c) in other.ops {
            let mine = self.ops.entry(op).or_default();
            mine.attempted += c.attempted;
            mine.answered += c.answered;
            mine.failed += c.failed;
            for (k, n) in c.kinds {
                *mine.kinds.entry(k).or_default() += n;
            }
        }
        self.problems.extend(other.problems);
        self.notes.extend(other.notes);
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Prints the notes, the per-op table and, last, the one-line JSON
    /// result. Returns whether the run was correct.
    pub fn print(&self) -> bool {
        for n in &self.notes {
            println!("# {n}");
        }
        for (op, c) in &self.ops {
            let kinds: Vec<String> = c.kinds.iter().map(|(k, n)| format!("{k}={n}")).collect();
            println!(
                "# op {op}: attempted {} answered {} failed {} {}",
                c.attempted,
                c.answered,
                c.failed,
                kinds.join(" ")
            );
        }
        for (name, value, unit) in &self.metrics {
            println!("# {name} = {value} {unit}");
        }
        let attempted: u64 = self.ops.values().map(|c| c.attempted).sum();
        let failed: u64 = self.ops.values().map(|c| c.failed).sum();
        let mut json = format!(
            r#"{{"correct": {}, "attempted": {attempted}, "failed": {failed}, "metrics": {{"#,
            self.correct()
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            // JSON has no NaN or infinity; a non-finite value is a bug
            // in the measurement and fails the run below.
            let v = if value.is_finite() {
                format!("{value}")
            } else {
                "null".into()
            };
            write!(json, r#"{sep}"{name}": {{"value": {v}, "unit": "{unit}"}}"#)
                .expect("writing to a String cannot fail");
        }
        json.push_str("}}");
        println!("{json}");
        self.correct() && self.metrics.iter().all(|m| m.1.is_finite()) && attempted > 0
    }
}

/// Check (a): a portfolio is finite, non-negative and sums to 1 within
/// f32 rounding.
pub fn portfolio_problem(w: &[f64], m: usize) -> Option<String> {
    if w.len() != m {
        return Some(format!("portfolio has {} weights, expected {m}", w.len()));
    }
    if let Some(bad) = w.iter().find(|v| !(v.is_finite() && **v >= 0.0)) {
        return Some(format!("portfolio weight {bad} is negative or not finite"));
    }
    let sum: f64 = w.iter().sum();
    ((sum - 1.0).abs() > 1e-5).then(|| format!("portfolio sums to {sum}, not 1"))
}

/// One served decision as the client read it.
#[derive(Clone)]
pub struct Served {
    pub final_action: Vec<f64>,
    pub pre_actions: Vec<Vec<f64>>,
}

/// Check (a) on a `decide` reply: both the final portfolio and every
/// pre-decision are portfolios, there is one pre-decision per policy, and
/// the day is `expect_day`.
pub fn check_decision(
    reply: &Reply,
    m: usize,
    policies: usize,
    expect_day: usize,
) -> Result<Served, String> {
    let day = reply.number("day").ok_or("decision without a day")? as usize;
    let final_action = reply
        .final_action()
        .ok_or("decision without final_action")?;
    let pre_actions = reply.pre_actions().ok_or("decision without pre_actions")?;
    if day != expect_day {
        return Err(format!("decision for day {day}, expected day {expect_day}"));
    }
    if pre_actions.len() != policies {
        return Err(format!(
            "{} pre_actions, expected {policies}",
            pre_actions.len()
        ));
    }
    for w in std::iter::once(&final_action).chain(&pre_actions) {
        if let Some(p) = portfolio_problem(w, m) {
            return Err(format!("day {day}: {p}"));
        }
    }
    Ok(Served {
        final_action,
        pre_actions,
    })
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Whether a recomputed decision equals a served one bit for bit.
pub fn bitwise_equal(served: &Served, final_action: &[f64], pre_actions: &[Vec<f64>]) -> bool {
    same_bits(&served.final_action, final_action)
        && served.pre_actions.len() == pre_actions.len()
        && served
            .pre_actions
            .iter()
            .zip(pre_actions)
            .all(|(a, b)| same_bits(a, b))
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
