//! Correctness checks across repetitions and the metrics the benchmark
//! reports, aggregated over rounds (median) and instances (sum).

use std::collections::BTreeMap;

use crate::rep::Rep;
use crate::trace;

/// `(name, unit, value)` of one reported metric.
pub type Metric = (&'static str, &'static str, f64);

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `a / b`, 0 when `b` is 0 (a layer that did no work).
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Failures found by comparing repetitions with each other.
#[derive(Default)]
pub struct Checks {
    pub errors: Vec<String>,
}

impl Checks {
    /// Checks one round of instance `k`: its untraced and traced
    /// repetitions (if both ran) must share one fingerprint, and every
    /// repetition must repeat the exact counts of the first round.
    pub fn round(&mut self, k: usize, round: usize, reps: &[Rep], first: Option<&Vec<Rep>>) {
        for rep in reps.iter().filter(|r| r.failed > 0) {
            self.errors
                .push(format!("instance {k} round {round}: {}", rep.error));
        }
        if reps.iter().any(|r| r.failed > 0) {
            return;
        }
        if let [untraced, traced] = reps {
            if untraced.fingerprint != traced.fingerprint {
                self.errors.push(format!(
                    "instance {k} round {round}: traced fingerprint differs from untraced\n  untraced {}\n  traced   {}",
                    untraced.fingerprint, traced.fingerprint
                ));
            }
        }
        for (mode, (now, then)) in reps.iter().zip(first.into_iter().flatten()).enumerate() {
            if then.failed == 0 && now.exact != then.exact {
                self.errors.push(format!(
                    "instance {k} round {round}: exact counts of mode {mode} did not repeat\n  first {}\n  now   {}",
                    then.exact, now.exact
                ));
            }
        }
    }

    /// `(attempted, failed)`: every run or job the repetitions attempted,
    /// and those that failed or broke a check.
    pub fn totals(&self, reps: &[Vec<Vec<Rep>>]) -> (u64, u64) {
        let all = || reps.iter().flatten().flatten();
        let attempted: u64 = all().map(|r| r.attempted).sum();
        let failed: u64 = all().map(|r| r.failed).sum();
        let broken = self.errors.len() as u64 - all().filter(|r| r.failed > 0).count() as u64;
        (attempted.max(1), (failed + broken).min(attempted.max(1)))
    }
}

/// The end-to-end metrics of untraced repetitions `reps[instance][round][0]`.
pub fn end_to_end(reps: &[Vec<Vec<Rep>>]) -> Vec<Metric> {
    let per = |f: fn(&Rep) -> f64| -> Vec<f64> {
        reps.iter()
            .map(|rounds| median(rounds.iter().map(|r| f(&r[0])).collect()))
            .collect()
    };
    let delivered: f64 = reps
        .iter()
        .map(|rounds| rounds[0][0].delivered as f64)
        .sum();
    let run_s: f64 = per(|r| r.run_s).iter().sum();
    vec![
        ("delivered_per_s", "1/s", ratio(delivered, run_s)),
        ("wall_s", "s", per(|r| r.wall_s).iter().sum()),
        ("setup_s", "s", per(|r| r.setup_s).iter().sum()),
        (
            "peak_rss_mib",
            "MiB",
            per(|r| r.peak_rss_kib as f64)
                .into_iter()
                .fold(0.0, f64::max)
                / 1024.0,
        ),
    ]
}

/// The per-layer metrics of paired untraced and traced repetitions
/// `reps[instance][round][mode]`, and a line per event kind with its
/// layer, event count, timed-sample count and mean step time.
pub fn per_layer(reps: &[Vec<Vec<Rep>>]) -> (Vec<Metric>, Vec<String>) {
    // Median over rounds per instance, then summed over instances.
    let mut raw: BTreeMap<String, f64> = BTreeMap::new();
    for rounds in reps {
        let mut by_key: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for (k, v) in rounds.iter().flatten().flat_map(|r| &r.raw) {
            by_key.entry(k).or_default().push(*v);
        }
        for (k, v) in by_key {
            let m = median(v);
            let slot = raw.entry(k.to_string()).or_insert(0.0);
            *slot = if k.starts_with("max.") {
                slot.max(m)
            } else {
                *slot + m
            };
        }
    }
    let get = |k: &str| raw.get(k).copied().unwrap_or(0.0);
    let kinds = |layer: &str| -> Vec<&'static str> {
        trace::KIND_LAYER
            .iter()
            .filter(|(_, l)| *l == layer)
            .map(|&(k, _)| k)
            .collect()
    };
    // Mean calibrated ns per sampled step rooted in `layer`.
    let step_ns = |layer: &str| {
        let ks = kinds(layer);
        let ns: f64 = ks.iter().map(|k| get(&format!("ns.{k}"))).sum();
        let n: f64 = ks.iter().map(|k| get(&format!("samples.{k}"))).sum();
        ratio(ns, n)
    };
    // Estimated seconds of steps rooted in `layer`: per-kind sample mean
    // times the kind's exact event count.
    let attributed = |layer: &str| -> f64 {
        kinds(layer)
            .iter()
            .map(|k| {
                let mean = ratio(get(&format!("ns.{k}")), get(&format!("samples.{k}")));
                mean * get(&format!("count.{k}")) / 1e9
            })
            .sum()
    };
    let kind_lines = trace::KIND_LAYER
        .iter()
        .map(|&(k, layer)| {
            let (ns, n) = (get(&format!("ns.{k}")), get(&format!("samples.{k}")));
            format!(
                "kind {k:<16} {layer:<8} events {:>10} samples {n:>9} mean {:>9.1} ns",
                get(&format!("count.{k}")),
                ratio(ns, n)
            )
        })
        .collect();
    let total: f64 = trace::LAYERS.iter().map(|l| attributed(l)).sum();
    let share = |layer: &str| ratio(attributed(layer), total);
    let count = |k: &str| get(&format!("count.{k}"));
    let events = get("events");
    let delivered = get("delivered");
    let work_s = get("work_s");
    let forwarded = get("rreqs_forwarded");
    let metrics = vec![
        ("sim.events", "count", events),
        (
            "sim.events_per_delivered",
            "1/packet",
            ratio(events, delivered),
        ),
        ("sim.events_per_s", "1/s", ratio(events, work_s)),
        ("sim.peak_queue_depth", "count", get("max.queue_depth")),
        (
            "sim.allocs_per_event",
            "1/event",
            ratio(get("allocs"), events),
        ),
        (
            "sim.alloc_bytes_per_event",
            "B/event",
            ratio(get("alloc_bytes"), events),
        ),
        ("sim.unattributed_frac", "frac", 1.0 - ratio(total, work_s)),
        (
            "phy.signal_events_per_tx",
            "1/tx",
            ratio(count("signal_start") + count("signal_end"), count("tx_end")),
        ),
        ("phy.signal_step_ns", "ns", step_ns("phy")),
        ("phy.signal_share", "frac", share("phy")),
        ("phy.medium_queries", "count", get("medium_queries")),
        ("phy.medium_rebuilds", "count", get("medium_rebuilds")),
        (
            "phy.medium_rebuild_ratio",
            "frac",
            ratio(get("medium_rebuilds"), get("medium_queries")),
        ),
        ("phy.medium_tick_s", "s", get("medium_tick_s")),
        ("phy.medium_lazy_s", "s", get("medium_lazy_s")),
        ("phy.collisions", "count", get("collisions")),
        ("mac.step_ns", "ns", step_ns("mac")),
        ("mac.share", "frac", share("mac")),
        (
            "mac.timer_events_per_delivered",
            "1/packet",
            ratio(count("mac_timer"), delivered),
        ),
        (
            "mac.retry_ratio",
            "frac",
            ratio(get("mac_timeouts"), get("rts_sent") + get("data_sent")),
        ),
        ("mac.queue_drops", "count", get("queue_drops")),
        ("aodv.step_ns", "ns", step_ns("aodv")),
        ("aodv.share", "frac", share("aodv")),
        ("aodv.rreqs_forwarded", "count", forwarded),
        (
            "aodv.rreq_suppression_ratio",
            "frac",
            ratio(get("rreqs_suppressed"), forwarded + get("rreqs_suppressed")),
        ),
        (
            "aodv.false_route_failures",
            "count",
            get("false_route_failures"),
        ),
        ("tcp.step_ns", "ns", step_ns("tcp")),
        ("tcp.retransmissions", "count", get("retransmissions")),
        ("tcp.timeouts", "count", get("timeouts")),
        (
            "tcp.acks_per_delivered",
            "1/packet",
            ratio(get("acks_sent"), delivered),
        ),
        ("traffic.step_ns", "ns", step_ns("traffic")),
        ("traffic.arrivals", "count", get("arrivals")),
        ("traffic.flows_completed", "count", get("flows_completed")),
        ("core.setup_topology_s", "s", get("topology_s")),
        ("core.setup_build_s", "s", get("build_s")),
        (
            "core.bytes_per_node",
            "B",
            ratio(get("node_bytes"), get("nodes")),
        ),
        ("core.mobility_tick_ms", "ms", step_ns("core") / 1e6),
        ("runner.job_s_p50", "s", get("runner.job_s_p50")),
        ("runner.job_s_max", "s", get("max.runner.job_s_max")),
        (
            "runner.worker_busy_frac",
            "frac",
            get("runner.worker_busy_frac"),
        ),
        ("runner.tail_s", "s", get("runner.tail_s")),
        (
            "obs.trace_overhead_frac",
            "frac",
            ratio(get("traced_s"), work_s) - 1.0,
        ),
        (
            "obs.instrumented_overhead_frac",
            "frac",
            if raw.contains_key("instrumented_s") {
                ratio(get("instrumented_s"), work_s) - 1.0
            } else {
                0.0
            },
        ),
    ];
    (metrics, kind_lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(vec![]), 0.0);
    }

    #[test]
    fn failed_checks_count_once_per_failure() {
        let ok = Rep {
            attempted: 1,
            fingerprint: "a".into(),
            exact: "a".into(),
            ..Rep::default()
        };
        let other = Rep {
            fingerprint: "b".into(),
            exact: "b".into(),
            ..ok.clone()
        };
        let mut checks = Checks::default();
        let first = vec![ok.clone(), ok.clone()];
        checks.round(0, 0, &first, None);
        let second = vec![ok.clone(), other];
        checks.round(0, 1, &second, Some(&first));
        // The traced fingerprint and its exact counts both broke.
        assert_eq!(checks.errors.len(), 2);
        let reps = vec![vec![first, second]];
        assert_eq!(checks.totals(&reps), (4, 2));
    }
}
