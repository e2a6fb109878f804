//! End-to-end proof that the conservation audit catches custody bugs:
//! run the full stack with a planted packet leak (MAC swallows a data
//! packet) or double-free (AODV hands one buffered packet to the MAC
//! twice) and assert the `conservation` rule fires — and that the same
//! scenario is clean with the fault off. Companion to `faults.rs`, which
//! does the same for the trace-level invariant rules. The `observe` rule
//! (the trace, ledger and audit agree) is proved the same way, by
//! tampering with a clean run's trace.

use mwn::trace::TraceEvent;
use mwn::{AodvConfig, DataRate, MacParams, Scenario, SimDuration, TrafficModel, Transport};
use mwn_check::{check_scenario, conservation_violations, run_case};

fn rules(violations: &[mwn_check::Violation]) -> Vec<&'static str> {
    violations.iter().map(|v| v.rule).collect()
}

/// A MAC that silently discards a data packet (no `Dropped` action, no
/// `TxConfirm`) plants a custody leak: some node created a copy that is
/// never destroyed and never shows up in the end-of-run residual. The
/// per-node and per-flow ledgers must both go positive.
#[test]
fn leaked_packet_is_caught_and_baseline_is_clean() {
    let mut faulty = Scenario::chain(2, DataRate::MBPS_2, Transport::newreno(), 1);
    faulty.mac_override = Some(MacParams {
        fault_leak_packet: true,
        ..MacParams::ieee80211b(DataRate::MBPS_2)
    });
    let v = check_scenario(&faulty, 30, SimDuration::from_secs(30));
    assert!(
        rules(&v).contains(&"conservation"),
        "planted packet leak went undetected: {v:?}"
    );
    let leak = v.iter().find(|x| x.rule == "conservation").unwrap();
    assert!(
        leak.message.contains("custody imbalance"),
        "unexpected message: {}",
        leak.message
    );
    // Leaks are positive deltas (created > destroyed + residual).
    assert!(leak.message.contains("leaked"), "{}", leak.message);

    let clean = Scenario::chain(2, DataRate::MBPS_2, Transport::newreno(), 1);
    let v = check_scenario(&clean, 30, SimDuration::from_secs(30));
    assert!(v.is_empty(), "baseline chain(2) is not clean: {v:?}");
}

/// An AODV router that flushes the same buffered packet twice after
/// route discovery plants a custody double-free: the source destroys
/// (hands off) more copies than it ever created. The delta goes
/// negative, which the audit reports as a double-free.
#[test]
fn double_flushed_packet_is_caught() {
    let mut faulty = Scenario::chain(2, DataRate::MBPS_2, Transport::newreno(), 1);
    faulty.aodv = AodvConfig {
        fault_double_flush: true,
        ..AodvConfig::default()
    };
    let v = check_scenario(&faulty, 30, SimDuration::from_secs(30));
    assert!(
        rules(&v).contains(&"conservation"),
        "planted double-flush went undetected: {v:?}"
    );
    let dup = v.iter().find(|x| x.rule == "conservation").unwrap();
    assert!(
        dup.message.contains("double-freed"),
        "double-flush should report a negative (double-free) delta: {}",
        dup.message
    );
}

/// A router that mishandles the expanding-ring TTL — data originated
/// with the first-ring TTL and forwarders swallowing the TTL-expired
/// packet without emitting a drop — plants the classic TTL bug: the
/// intermediate node destroys a copy it never accounts for. The chain's
/// two hops exceed the ring-1 TTL, so every data packet trips it, and
/// the custody leak must be caught by the existing `conservation` rule.
#[test]
fn mishandled_ring_ttl_is_caught() {
    let mut faulty = Scenario::chain(2, DataRate::MBPS_2, Transport::newreno(), 1);
    faulty.aodv = AodvConfig {
        fault_ttl_mishandle: true,
        ..AodvConfig::city()
    };
    let v = check_scenario(&faulty, 5, SimDuration::from_secs(30));
    assert!(
        rules(&v).contains(&"conservation"),
        "planted TTL mishandling went undetected: {v:?}"
    );
    let leak = v.iter().find(|x| x.rule == "conservation").unwrap();
    assert!(
        leak.message.contains("custody imbalance") && leak.message.contains("leaked"),
        "TTL swallowing is a positive-delta leak: {}",
        leak.message
    );

    // The same city configuration with the fault off is clean.
    let mut clean = Scenario::chain(2, DataRate::MBPS_2, Transport::newreno(), 1);
    clean.aodv = AodvConfig::city();
    let v = check_scenario(&clean, 30, SimDuration::from_secs(30));
    assert!(v.is_empty(), "expanding-ring chain(2) is not clean: {v:?}");
}

/// When the conservation rule trips, the flight recorder's ring is
/// dumped into the violation window, so the last packet-lifecycle
/// events before the imbalance are visible. An open-loop traffic run
/// guarantees the ring is non-empty (flow opens/closes are recorded).
#[test]
fn conservation_violation_carries_flight_recorder_dump() {
    let mut faulty = Scenario::open_loop(
        10,
        TrafficModel::web(100),
        Transport::newreno(),
        DataRate::MBPS_11,
        7,
    );
    faulty.mac_override = Some(MacParams {
        fault_leak_packet: true,
        ..MacParams::ieee80211b(DataRate::MBPS_11)
    });
    let v = check_scenario(&faulty, 200, SimDuration::from_secs(30));
    let cons = v
        .iter()
        .find(|x| x.rule == "conservation")
        .expect("leak in open-loop run must trip conservation");
    assert!(
        cons.window
            .first()
            .is_some_and(|l| l.starts_with("flight recorder:")),
        "violation window should start with the flight-recorder header: {:?}",
        cons.window.first()
    );
    assert!(
        cons.window.len() > 1 && cons.window.iter().any(|l| l.contains("flow_open")),
        "flight dump should contain recorded flow events: {:?}",
        &cons.window[..cons.window.len().min(5)]
    );
}

/// The trace, the drop ledger and the custody audit are fed by one
/// observation point, so on a clean run they agree; the `observe` rule
/// must notice the moment they do not. Removing a single `TcpData`
/// record from a clean trace leaves the audit with one origination the
/// trace no longer shows.
#[test]
fn observe_rule_fires_on_a_missing_origination_record() {
    let clean = Scenario::chain(2, DataRate::MBPS_2, Transport::newreno(), 1);
    let (mut records, net) = run_case(&clean, 30, SimDuration::from_secs(30));
    let v = conservation_violations(&records, &net);
    assert!(
        v.is_empty(),
        "clean chain(2) trips the accounting rules: {v:?}"
    );

    let first = records
        .iter()
        .position(|r| matches!(r.event, TraceEvent::TcpData { .. }))
        .expect("a TCP run originates data");
    records.remove(first);
    let v = conservation_violations(&records, &net);
    assert_eq!(rules(&v), vec!["observe"], "{v:?}");
    assert!(
        v[0].message.contains("originated") && v[0].message.contains("TcpData"),
        "unexpected message: {}",
        v[0].message
    );
}
