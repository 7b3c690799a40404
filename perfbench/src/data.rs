//! Seeded inputs: the market panel, per-session asset orders and start
//! days, and the request lines a client sends.

use cit_market::{AssetPanel, Feature, MarketPreset, NUM_FEATURES};
use std::fmt::Write;

const FEATURES: [Feature; NUM_FEATURES] =
    [Feature::Open, Feature::High, Feature::Low, Feature::Close];

/// A splitmix64 stream: the benchmark's only source of randomness, so the
/// same `--seed` gives the same inputs on every host.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniformly random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// The paper's U.S. market (80 assets, 2,895 training and 630 test days),
/// generated from `seed`.
pub fn us_panel(seed: u64) -> AssetPanel {
    let mut cfg = MarketPreset::Us.config();
    cfg.seed = Rng::new(seed, 1).next_u64();
    cfg.generate()
}

/// Day `t` of `panel` as one wire row (`[m·4]` OHLC), assets in `order`.
pub fn row(panel: &AssetPanel, t: usize, order: &[usize]) -> Vec<f64> {
    order
        .iter()
        .flat_map(|&i| FEATURES.iter().map(move |&f| panel.price(t, i, f)))
        .collect()
}

/// Days `days` of `panel` as wire rows, assets in `order`.
pub fn rows(panel: &AssetPanel, days: std::ops::Range<usize>, order: &[usize]) -> Vec<Vec<f64>> {
    days.map(|t| row(panel, t, order)).collect()
}

/// Rows as one day-major panel (`test_start` 0: the split is unused).
pub fn panel_of(rows: &[Vec<f64>]) -> AssetPanel {
    let m = rows[0].len() / NUM_FEATURES;
    let data = rows.concat();
    AssetPanel::try_new("replay", rows.len(), m, data, 0)
        .expect("benchmark rows form a valid panel")
}

fn push_row(out: &mut String, row: &[f64]) {
    out.push('[');
    for (j, v) in row.iter().enumerate() {
        if j > 0 {
            out.push(',');
        }
        // `{}` on f64 prints the shortest string that parses back to the
        // same bits, as the protocol requires.
        write!(out, "{v}").expect("writing to a String cannot fail");
    }
    out.push(']');
}

fn push_rows(out: &mut String, rows: &[Vec<f64>]) {
    out.push('[');
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_row(out, r);
    }
    out.push(']');
}

/// An `open` request line; `model` is omitted for the default slot.
pub fn open_line(session: &str, rows: &[Vec<f64>], model: Option<&str>) -> String {
    let mut s = format!(r#"{{"op":"open","session":"{session}","prices":"#);
    push_rows(&mut s, rows);
    if let Some(m) = model {
        write!(s, r#","model":"{m}""#).expect("writing to a String cannot fail");
    }
    s.push('}');
    s
}

/// A `decide` request line appending one day.
pub fn decide_line(session: &str, row: &[f64]) -> String {
    let mut s = format!(r#"{{"op":"decide","session":"{session}","prices":"#);
    s.push('[');
    push_row(&mut s, row);
    s.push_str("]}");
    s
}

/// A `close` request line.
pub fn close_line(session: &str) -> String {
    format!(r#"{{"op":"close","session":"{session}"}}"#)
}
