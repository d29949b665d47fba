//! Terminal dashboard over the live metrics exposition: sparkline
//! panels for the science gauges [`crate::metrics::science_gauges_text`]
//! writes, accumulated across polls, plus the watchdog firing state.
//! Pure text in, text out — `yycore watch` does the polling and the
//! printing.

use crate::metrics::{label_value, parse_exposition};

/// Render a numeric series as a one-line Unicode sparkline, newest
/// sample last, truncated to the newest `width` samples. Non-finite
/// samples render as `·`; a flat series renders at the bottom level.
pub fn sparkline(vals: &[f64], width: usize) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let tail = if vals.len() > width { &vals[vals.len() - width..] } else { vals };
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &v in tail.iter().filter(|v| v.is_finite()) {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    if !lo.is_finite() {
        return "·".repeat(tail.len().max(1));
    }
    let span = (hi - lo).max(f64::MIN_POSITIVE);
    tail.iter()
        .map(|&v| {
            if !v.is_finite() {
                return '·';
            }
            let level = ((v - lo) / span * 7.0).round().clamp(0.0, 7.0) as usize;
            BARS[level]
        })
        .collect()
}

/// One labelled sparkline row: `name`, the series, its latest value.
pub fn panel_line(name: &str, vals: &[f64], width: usize) -> String {
    let latest = vals.last().copied().unwrap_or(f64::NAN);
    format!("{name:<12} {:<w$} {latest:.4e}\n", sparkline(vals, width), w = width)
}

/// Sparkline history for the dashboard panels, keyed by display name.
/// Kept across polls so a live endpoint accumulates a time axis.
#[derive(Debug, Default)]
pub struct WatchHistory {
    /// `(panel name, samples oldest first)` in first-seen order.
    pub panels: Vec<(String, Vec<f64>)>,
}

impl WatchHistory {
    fn push(&mut self, key: &str, value: f64, cap: usize) {
        let i = self.panels.iter().position(|(k, _)| k == key).unwrap_or_else(|| {
            self.panels.push((key.to_string(), Vec::new()));
            self.panels.len() - 1
        });
        let vals = &mut self.panels[i].1;
        vals.push(value);
        if vals.len() > cap {
            vals.remove(0);
        }
    }
}

/// One dashboard frame from a live metrics exposition: sparkline panels
/// over the science gauges (fed through `history` across polls) plus
/// the watchdog firing state.
pub fn metrics_frame(body: &str, history: &mut WatchHistory, width: usize) -> String {
    let samples = parse_exposition(body);
    if samples.is_empty() {
        return "endpoint has published nothing yet".to_string();
    }
    for (name, value) in &samples {
        let key = if name.starts_with("yy_energy{") {
            label_value(name).map(|c| format!("energy {c}"))
        } else {
            match name.as_str() {
                "yy_dt" => Some("dt".to_string()),
                "yy_max_speed" => Some("max speed".to_string()),
                "yy_max_b" => Some("max |B|".to_string()),
                "yy_dominant_m" => Some("dominant m".to_string()),
                _ => None,
            }
        };
        if let Some(key) = key {
            history.push(&key, *value, width);
        }
    }
    let mut out = String::new();
    let value_of = |want: &str| samples.iter().find(|(n, _)| n == want).map(|&(_, v)| v);
    if let Some(step) = value_of("yy_step") {
        out.push_str(&format!("step {step:.0}\n"));
    }
    for (key, vals) in &history.panels {
        out.push_str(&panel_line(key, vals, width));
    }
    for (name, value) in &samples {
        if !name.starts_with("yy_alert_active{") {
            continue;
        }
        let rule = label_value(name).unwrap_or("?");
        let fired = value_of(&format!("yy_alert_fired_total{{rule=\"{rule}\"}}")).unwrap_or(0.0);
        out.push_str(&format!(
            "alert {rule:<16} {} (fired {fired:.0}x)\n",
            if *value != 0.0 { "FIRING" } else { "quiet" }
        ));
    }
    if !out.contains("alert ") && !history.panels.is_empty() {
        out.push_str("alerts: none armed on this endpoint\n");
    }
    out
}
