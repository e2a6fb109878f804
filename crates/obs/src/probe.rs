//! On-change time-series probes.
//!
//! A probe samples one scalar protocol signal — congestion window,
//! smoothed RTT, the Vegas `diff`, interface-queue depth — every time the
//! event loop touches it. The buffer stores a sample only when the value
//! actually changed, so a cwnd that sits at 4.0 for a thousand ACKs costs
//! one record, and Figs. 3–4-style cwnd-vs-time series come out exactly
//! as step functions.

use mwn_sim::SimTime;

use crate::json::Obj;
use crate::ring::Ring;

/// Which signal a sample belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProbeKind {
    /// Congestion window, packets (per flow).
    Cwnd,
    /// Coarse smoothed RTT, seconds (per flow).
    Srtt,
    /// Vegas `diff = W·(1 − baseRTT/RTT)`, packets (per flow).
    VegasDiff,
    /// Interface-queue depth, packets (per node).
    IfqDepth,
}

/// Number of [`ProbeKind`] variants (the change-detection array size).
const KIND_COUNT: usize = 4;

impl ProbeKind {
    /// Stable machine-readable name (the JSONL `kind` field).
    pub fn name(&self) -> &'static str {
        match self {
            ProbeKind::Cwnd => "cwnd",
            ProbeKind::Srtt => "srtt",
            ProbeKind::VegasDiff => "vegas_diff",
            ProbeKind::IfqDepth => "ifq_depth",
        }
    }

    fn index(self) -> usize {
        match self {
            ProbeKind::Cwnd => 0,
            ProbeKind::Srtt => 1,
            ProbeKind::VegasDiff => 2,
            ProbeKind::IfqDepth => 3,
        }
    }
}

/// One probe sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeSample {
    /// When the signal changed to this value.
    pub time: SimTime,
    /// Which signal.
    pub kind: ProbeKind,
    /// Flow id for per-flow signals, node id for per-node signals.
    pub id: u32,
    /// The new value.
    pub value: f64,
}

impl ProbeSample {
    /// Serializes the sample as a compact JSON object.
    pub fn to_json(&self) -> String {
        Obj::new()
            .f64("t", self.time.as_secs_f64())
            .str("kind", self.kind.name())
            .u64("id", u64::from(self.id))
            .f64("v", self.value)
            .finish()
    }
}

/// Bounded ring buffer of probe samples with on-change deduplication.
#[derive(Debug)]
pub struct ProbeBuffer {
    samples: Ring<ProbeSample>,
    /// Last stored value per series, for change detection — flat: one
    /// dense id-indexed `Vec` per kind (`NaN` = never recorded, which a
    /// `==` change check treats as always-changed, exactly what we
    /// want). Replaces a `(kind, id)`-keyed hash map whose bucket
    /// overhead dominated the probe footprint at city scale.
    last: [Vec<f64>; KIND_COUNT],
}

impl ProbeBuffer {
    /// Creates a buffer holding at most `capacity` samples (oldest
    /// evicted first).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        ProbeBuffer {
            samples: Ring::new(capacity),
            last: Default::default(),
        }
    }

    /// Records `value` for the `(kind, id)` series at `time`, unless it
    /// equals the series' previous value.
    pub fn record(&mut self, time: SimTime, kind: ProbeKind, id: u32, value: f64) {
        let series = &mut self.last[kind.index()];
        let idx = id as usize;
        if series.len() <= idx {
            series.resize(idx + 1, f64::NAN);
        }
        if series[idx] == value {
            return;
        }
        series[idx] = value;
        self.samples.push(ProbeSample {
            time,
            kind,
            id,
            value,
        });
    }

    /// The retained samples, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = &ProbeSample> {
        self.samples.iter()
    }

    /// Retained samples of one series, oldest first.
    pub fn series(&self, kind: ProbeKind, id: u32) -> impl Iterator<Item = &ProbeSample> {
        self.samples
            .iter()
            .filter(move |s| s.kind == kind && s.id == id)
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` if nothing was recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Samples evicted due to the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.samples.dropped()
    }

    /// Heap bytes held by the buffer (ring plus change-detection state),
    /// for the engine's `bytes_per_node` accounting.
    pub fn memory_bytes(&self) -> usize {
        self.samples.memory_bytes()
            + self
                .last
                .iter()
                .map(|v| v.capacity() * std::mem::size_of::<f64>())
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn unchanged_values_are_not_stored() {
        let mut b = ProbeBuffer::new(16);
        b.record(t(1), ProbeKind::Cwnd, 0, 1.0);
        b.record(t(2), ProbeKind::Cwnd, 0, 1.0);
        b.record(t(3), ProbeKind::Cwnd, 0, 2.0);
        b.record(t(4), ProbeKind::Cwnd, 0, 2.0);
        let vals: Vec<f64> = b.samples().map(|s| s.value).collect();
        assert_eq!(vals, vec![1.0, 2.0]);
    }

    #[test]
    fn series_are_independent() {
        let mut b = ProbeBuffer::new(16);
        b.record(t(1), ProbeKind::Cwnd, 0, 1.0);
        b.record(t(2), ProbeKind::Cwnd, 1, 1.0); // other flow: stored
        b.record(t(3), ProbeKind::IfqDepth, 0, 1.0); // other kind: stored
        assert_eq!(b.len(), 3);
        assert_eq!(b.series(ProbeKind::Cwnd, 0).count(), 1);
        assert_eq!(b.series(ProbeKind::Cwnd, 1).count(), 1);
    }

    #[test]
    fn overflow_evicts_oldest_and_counts_drops() {
        let mut b = ProbeBuffer::new(2);
        b.record(t(1), ProbeKind::Cwnd, 0, 1.0);
        b.record(t(2), ProbeKind::Cwnd, 0, 2.0);
        b.record(t(3), ProbeKind::Cwnd, 0, 3.0);
        assert_eq!(b.len(), 2);
        assert_eq!(b.dropped(), 1);
        let vals: Vec<f64> = b.samples().map(|s| s.value).collect();
        assert_eq!(vals, vec![2.0, 3.0]);
    }

    #[test]
    fn json_is_compact_and_stable() {
        let s = ProbeSample {
            time: t(1_500_000_000),
            kind: ProbeKind::Cwnd,
            id: 0,
            value: 3.5,
        };
        assert_eq!(s.to_json(), r#"{"t":1.5,"kind":"cwnd","id":0,"v":3.5}"#);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        ProbeBuffer::new(0);
    }
}
