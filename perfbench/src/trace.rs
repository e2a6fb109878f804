//! The traced step loop: drives `Network::step()` from outside, times a
//! sample of steps and attributes each to the layer of its root event.
//!
//! A step's time is *rooted-at* time, not self time: a `signal_end` that
//! completes a DATA frame runs MAC, AODV and TCP inside it, and all of
//! that is charged to `phy`. Self time needs spans inside the program.

use std::time::Instant;

use mwn::{Network, SimTime};

/// Layers as the workspace crates name them.
pub const LAYERS: [&str; 6] = ["phy", "mac", "aodv", "tcp", "traffic", "core"];

/// Every root event kind the engine profile reports, with its layer.
pub const KIND_LAYER: [(&str, &str); 10] = [
    ("signal_start", "phy"),
    ("signal_end", "phy"),
    ("mac_timer", "mac"),
    ("tx_end", "mac"),
    ("aodv_send", "aodv"),
    ("aodv_discovery", "aodv"),
    ("transport_timer", "tcp"),
    ("flow_start", "tcp"),
    ("traffic_arrival", "traffic"),
    ("mobility_tick", "core"),
];

/// The layer an event kind belongs to, `None` for a kind the table lacks.
pub fn layer_of(kind: &str) -> Option<&'static str> {
    KIND_LAYER.iter().find(|(k, _)| *k == kind).map(|&(_, l)| l)
}

/// One in `SAMPLE_EVERY` steps is timed, chosen by a fixed-seed RNG so
/// the choice cannot lock onto a periodic event pattern.
const SAMPLE_EVERY: u64 = 4;

/// Step spans kept for the trace file; the statistics use every sample.
const SPAN_CAP: usize = 1_024;

/// Median cost of a back-to-back `Instant::now()` pair in nanoseconds,
/// subtracted from every timed step.
pub fn instant_overhead_ns() -> u64 {
    let mut pairs: Vec<u64> = (0..2_001)
        .map(|_| {
            let a = Instant::now();
            let b = Instant::now();
            (b - a).as_nanos() as u64
        })
        .collect();
    pairs.sort_unstable();
    pairs[pairs.len() / 2]
}

/// One sampled step: root kind, start (ns since the loop began), duration.
pub struct StepSpan {
    pub kind: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Per-kind sample statistics of one traced loop.
#[derive(Default)]
pub struct StepStats {
    /// `(kind, samples, calibrated ns summed over the samples)`.
    pub kinds: Vec<(&'static str, u64, u64)>,
    pub spans: Vec<StepSpan>,
    /// Wall seconds of the loop, bookkeeping included.
    pub loop_s: f64,
    pub reached: bool,
}

impl StepStats {
    fn add(&mut self, kind: &'static str, ns: u64) {
        match self.kinds.iter_mut().find(|(k, ..)| *k == kind) {
            Some((_, n, sum)) => {
                *n += 1;
                *sum += ns;
            }
            None => self.kinds.push((kind, 1, ns)),
        }
    }
}

/// The kind whose count grew between two `by_kind()` snapshots.
fn grown(before: &[(&'static str, u64)], after: &[(&'static str, u64)]) -> Option<&'static str> {
    after
        .iter()
        .find(|&&(k, n)| before.iter().find(|(b, _)| *b == k).map_or(0, |&(_, m)| m) < n)
        .map(|&(k, _)| k)
}

/// Steps `net` (profiling enabled) until it has delivered `target`
/// packets, passed `deadline`, or run out of events. Fails on an event
/// kind that [`layer_of`] does not know.
pub fn traced_loop(
    net: &mut Network,
    target: u64,
    deadline: SimTime,
    overhead_ns: u64,
    rng_seed: u64,
) -> Result<StepStats, String> {
    let mut stats = StepStats {
        spans: Vec::with_capacity(SPAN_CAP),
        ..StepStats::default()
    };
    let mut rng = rng_seed | 1;
    let events = |net: &Network| net.profile().expect("profiling enabled").events_processed();
    let started = Instant::now();
    loop {
        if net.total_delivered() >= target {
            stats.reached = true;
            break;
        }
        if net.now() > deadline {
            break;
        }
        let before_events = events(net);
        // xorshift64
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        if rng.is_multiple_of(SAMPLE_EVERY) {
            let before = net.profile().expect("profiling enabled").by_kind();
            let t0 = Instant::now();
            net.step();
            let dur = t0.elapsed();
            let after = net.profile().expect("profiling enabled").by_kind();
            let Some(kind) = grown(&before, &after) else {
                break; // the queue drained
            };
            if layer_of(kind).is_none() {
                return Err(format!(
                    "event kind `{kind}` is missing from the kind→layer table"
                ));
            }
            let ns = (dur.as_nanos() as u64).saturating_sub(overhead_ns);
            stats.add(kind, ns);
            if stats.spans.len() < SPAN_CAP {
                stats.spans.push(StepSpan {
                    kind,
                    start_ns: (t0 - started).as_nanos() as u64,
                    dur_ns: ns,
                });
            }
        } else {
            net.step();
            if events(net) == before_events {
                break; // the queue drained
            }
        }
    }
    stats.loop_s = started.elapsed().as_secs_f64();
    if stats.reached {
        // Returns at once (the target is met) and drains the lazy
        // medium's accrued rebuild time into the profile.
        net.run_until_delivered(target, deadline);
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwn::mobility::RandomWaypoint;
    use mwn::{DataRate, Scenario, SimDuration, TrafficModel, Transport};

    fn kinds_of(mut s: Scenario, target: u64) -> Vec<&'static str> {
        if s.mobility.is_none() {
            s.mobility = Some(RandomWaypoint {
                width: 1500.0,
                height: 300.0,
                min_speed: 1.0,
                max_speed: 10.0,
                pause: SimDuration::from_secs(1),
                tick: SimDuration::from_millis(100),
            });
        }
        let mut net = s.build();
        net.enable_profiling();
        let deadline = SimTime::ZERO + SimDuration::from_secs(600);
        let stats = traced_loop(&mut net, target, deadline, 0, 7).expect("every kind is mapped");
        assert!(stats.reached);
        net.profile()
            .unwrap()
            .by_kind()
            .into_iter()
            .map(|(k, _)| k)
            .collect()
    }

    /// Fails when the engine reports an event kind the layer table lacks:
    /// traffic, TCP, AODV, MAC, PHY and mobility events all occur here.
    #[test]
    fn every_reported_event_kind_has_a_layer() {
        let web = Scenario::open_loop(
            8,
            TrafficModel::web(200).with_load(0.5),
            Transport::newreno(),
            DataRate::MBPS_11,
            3,
        );
        let chain = Scenario::chain(
            4,
            DataRate::MBPS_2,
            Transport::paced_udp(SimDuration::from_millis(5)),
            3,
        );
        let mut seen = kinds_of(web, 300);
        seen.extend(kinds_of(chain, 300));
        for kind in &seen {
            assert!(layer_of(kind).is_some(), "event kind `{kind}` has no layer");
        }
        for (kind, layer) in KIND_LAYER {
            assert!(
                LAYERS.contains(&layer),
                "{kind} maps to unknown layer {layer}"
            );
        }
        assert!(seen.contains(&"traffic_arrival") && seen.contains(&"mobility_tick"));
    }

    #[test]
    fn traced_and_plain_runs_reach_the_same_state() {
        let s = Scenario::chain(5, DataRate::MBPS_2, Transport::newreno(), 11);
        let deadline = SimTime::ZERO + SimDuration::from_secs(600);
        let mut plain = s.build();
        plain.run_until_delivered(500, deadline);
        let mut traced = s.build();
        traced.enable_profiling();
        traced.enable_audit();
        let stats = traced_loop(&mut traced, 500, deadline, 0, 3).unwrap();
        assert!(stats.reached);
        assert_eq!(plain.now(), traced.now());
        assert_eq!(plain.totals(), traced.totals());
        assert!(traced.conservation_report().unwrap().is_balanced());
        let sampled: u64 = stats.kinds.iter().map(|&(_, n, _)| n).sum();
        let events = traced.profile().unwrap().events_processed();
        assert!(sampled * SAMPLE_EVERY > events / 2 && sampled * SAMPLE_EVERY < events * 2);
    }

    #[test]
    fn grown_finds_new_and_incremented_kinds() {
        assert_eq!(grown(&[("a", 1)], &[("a", 2)]), Some("a"));
        assert_eq!(grown(&[("a", 1)], &[("a", 1), ("b", 1)]), Some("b"));
        assert_eq!(grown(&[("a", 1)], &[("a", 1)]), None);
    }
}
