//! Science time-series store.
//!
//! The solver's physics diagnostics (energies, peak speeds, dt, step
//! wall, dominant azimuthal mode) are sampled at a fixed cadence. The
//! [`SeriesStore`] keeps, per named channel, a **raw tail** — the most
//! recent `raw_capacity` samples verbatim, ring-buffered — so memory is
//! bounded at construction time no matter how long the run is. It is
//! what the watchdog's windowed rules and the dashboard's sparklines
//! read.
//!
//! The store is plain data, no locks: the drivers feed it from the
//! sampling path (one owner), and exporters read it after the run (or
//! render snapshots of it into Prometheus gauge text).

use crate::json::num;
use crate::ring::Ring;

/// One named channel: a ring of the newest samples.
#[derive(Debug, Clone)]
pub struct Channel {
    /// Channel name (stable identifier, e.g. `kinetic`, `dt`).
    pub name: String,
    raw: Ring<f64>,
}

impl Channel {
    /// Total samples ever pushed into this channel.
    pub fn pushed(&self) -> u64 {
        self.raw.pushed()
    }

    /// The raw tail in chronological order, as `(sample index, value)`.
    pub fn raw_tail(&self) -> Vec<(u64, f64)> {
        let oldest = self.raw.pushed() - self.raw.iter().len() as u64;
        (oldest..).zip(self.raw.iter().copied()).collect()
    }

    /// The most recent value, if any sample was pushed.
    pub fn latest(&self) -> Option<f64> {
        self.raw.iter().next_back().copied()
    }

    /// The last `n` raw values in chronological order (fewer if the
    /// channel holds fewer).
    pub fn tail_values(&self, n: usize) -> Vec<f64> {
        let tail = self.raw.iter();
        tail.clone().skip(tail.len().saturating_sub(n)).copied().collect()
    }
}

/// Fixed-memory store over a set of named channels, all fed in
/// lock-step: one [`SeriesStore::push_row`] per sample cadence.
#[derive(Debug, Clone)]
pub struct SeriesStore {
    raw_capacity: usize,
    channels: Vec<Channel>,
}

impl SeriesStore {
    /// A store with one channel per name, each keeping its newest
    /// `raw_capacity` samples.
    pub fn new(names: &[&str], raw_capacity: usize) -> SeriesStore {
        assert!(raw_capacity > 0, "raw tail must hold at least one sample");
        let channel = |n: &&str| Channel { name: n.to_string(), raw: Ring::new(raw_capacity) };
        let channels = names.iter().map(channel).collect();
        SeriesStore { raw_capacity, channels }
    }

    /// All channels, in declaration order.
    pub fn channels(&self) -> &[Channel] {
        &self.channels
    }

    /// Look up a channel by name.
    pub fn channel(&self, name: &str) -> Option<&Channel> {
        self.channels.iter().find(|c| c.name == name)
    }

    /// Rows pushed so far (every channel advances together).
    pub fn rows(&self) -> u64 {
        self.channels.first().map_or(0, Channel::pushed)
    }

    /// Push one sample row, `values` aligned with the channel order the
    /// store was constructed with.
    pub fn push_row(&mut self, values: &[f64]) {
        assert_eq!(values.len(), self.channels.len(), "row width must match channel count");
        for (c, &v) in self.channels.iter_mut().zip(values) {
            c.raw.push(v);
        }
    }

    /// Render the store as a JSON object (the report's `telemetry`
    /// section): per channel, the sample count and the raw tail.
    pub fn to_json(&self) -> String {
        let mut chans = Vec::with_capacity(self.channels.len());
        for c in &self.channels {
            let raw: Vec<String> = c
                .raw_tail()
                .iter()
                .map(|&(i, v)| format!("[{},{}]", i, num(v)))
                .collect();
            chans.push(format!(
                "{{\"name\":\"{}\",\"pushed\":{},\"raw\":[{}]}}",
                crate::json::escape(&c.name),
                c.pushed(),
                raw.join(",")
            ));
        }
        format!(
            "{{\"rows\":{},\"raw_capacity\":{},\"channels\":[{}]}}",
            self.rows(),
            self.raw_capacity,
            chans.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_tail_keeps_the_newest_samples_in_order() {
        let mut s = SeriesStore::new(&["a"], 8);
        for i in 0..12 {
            s.push_row(&[i as f64]);
        }
        let tail = s.channel("a").unwrap().raw_tail();
        assert_eq!(tail.len(), 8);
        assert_eq!(tail.first(), Some(&(4, 4.0)));
        assert_eq!(tail.last(), Some(&(11, 11.0)));
        for w in tail.windows(2) {
            assert_eq!(w[1].0, w[0].0 + 1, "tail indices must be consecutive");
        }
        assert_eq!(s.channel("a").unwrap().latest(), Some(11.0));
        assert_eq!(s.channel("a").unwrap().tail_values(3), vec![9.0, 10.0, 11.0]);
        // Under any amount of wraparound the tail is the literal newest
        // samples.
        for (cap, n) in [(1usize, 5usize), (3, 3), (5, 4), (7, 400)] {
            let mut s = SeriesStore::new(&["x"], cap);
            (0..n).for_each(|i| s.push_row(&[i as f64 * 0.5]));
            let c = s.channel("x").unwrap();
            assert_eq!(c.pushed(), n as u64);
            let newest: Vec<_> = (n.saturating_sub(cap)..n).map(|i| (i as u64, i as f64 * 0.5)).collect();
            assert_eq!(c.raw_tail(), newest, "cap {cap}, {n} samples");
        }
    }

    #[test]
    fn json_snapshot_parses_and_carries_every_channel() {
        let mut s = SeriesStore::new(&["kinetic", "dt"], 8);
        for i in 0..20 {
            s.push_row(&[i as f64, 1.0 / (i + 1) as f64]);
        }
        let doc = crate::json::Json::parse(&s.to_json()).expect("telemetry JSON parses");
        let chans = doc.get("channels").unwrap().as_arr().unwrap();
        assert_eq!(chans.len(), 2);
        assert_eq!(chans[0].get("name").unwrap().as_str(), Some("kinetic"));
        assert_eq!(doc.get("rows").unwrap().as_f64(), Some(20.0));
        assert_eq!(doc.get("raw_capacity").unwrap().as_f64(), Some(8.0));
        assert_eq!(chans[1].get("pushed").unwrap().as_f64(), Some(20.0));
        assert_eq!(chans[1].get("raw").unwrap().as_arr().unwrap().len(), 8);
    }
}
