//! `mwn-check` — cross-layer correctness checking for the simulator.
//!
//! Three complementary instruments, all consuming the typed
//! [`TraceEvent`] stream that every layer of the
//! stack emits:
//!
//! * **[`checker`]** — runtime invariants spanning PHY, MAC, routing and
//!   transport: monotonic event time, half-duplex radios, EIFS deference
//!   after corrupted receptions, carrier-sense and NAV discipline (checked
//!   geometrically against the same [`Medium`](mwn_phy::Medium) the
//!   simulation uses), AODV destination-sequence monotonicity and
//!   loop-freedom, TCP congestion-window bounds, cumulative-ACK
//!   monotonicity, send-window containment and Vegas `diff` sanity. Every
//!   violation carries the offending trace window for diagnosis. After
//!   the run, [`conservation_violations`] adds the `conservation` rule
//!   (packet custody balances) and the `observe` rule (the trace, the
//!   drop ledger and the custody audit agree).
//! * **[`golden`]** — golden-trace conformance: compact digests (record
//!   count + FNV-1a 64 hash of the JSONL export) of canonical scenarios,
//!   committed under `golden/digests.txt` and regenerated with
//!   `mwn check --bless`. Any behavioral change to any layer shows up as
//!   a digest mismatch.
//! * **[`mod@fuzz`]** — scenario fuzzing: random topologies, rates and
//!   transport mixes drawn through the vendored `proptest` strategies and
//!   run under the invariant checker, with a greedy shrinker that reduces
//!   failing scenarios to minimal reproductions.
//!
//! Everything here is deterministic: a run is a pure function of the
//! scenario and seed, so digests are stable across machines and across
//! `--jobs` parallelism, and every fuzz case can be replayed by index.

pub mod checker;
pub mod fuzz;
pub mod golden;

pub use checker::{check, CheckContext, Violation};
pub use fuzz::{fuzz, FuzzFailure, ScenarioSpec};
pub use golden::{canonical_cases, fast_cases, CanonicalCase, CaseReport};

use mwn::trace::{TraceEvent, TraceRecord};
use mwn::{Network, Scenario, SimDuration, SimTime};
use mwn_pkt::NodeId;

/// Trace-buffer capacity for checked runs. Sized so no canonical or
/// fuzzed scenario ever evicts a record — [`run_traced`] asserts that.
pub const TRACE_CAPACITY: usize = 1 << 22;

/// Runs `scenario` until `target` packets are delivered (or `deadline`
/// simulated time passes) with tracing and the packet-custody audit on;
/// returns the full trace plus the finished network, so post-run
/// invariants (conservation, counter totals) can inspect final state.
///
/// # Panics
///
/// Panics if the trace buffer overflowed — a truncated trace would make
/// both digests and invariant checks meaningless.
pub fn run_case(
    scenario: &Scenario,
    target: u64,
    deadline: SimDuration,
) -> (Vec<TraceRecord>, Network) {
    let mut net = scenario.build();
    net.enable_trace(TRACE_CAPACITY);
    net.enable_audit();
    let _ = net.run_until_delivered(target, SimTime::ZERO + deadline);
    assert_eq!(
        net.trace_dropped(),
        0,
        "trace buffer overflowed; raise TRACE_CAPACITY"
    );
    let records = net.trace().into_iter().cloned().collect();
    (records, net)
}

/// Runs `scenario` until `target` packets are delivered (or `deadline`
/// simulated time passes) with tracing on, and returns the full trace.
///
/// # Panics
///
/// Panics if the trace buffer overflowed — a truncated trace would make
/// both digests and invariant checks meaningless.
pub fn run_traced(scenario: &Scenario, target: u64, deadline: SimDuration) -> Vec<TraceRecord> {
    run_case(scenario, target, deadline).0
}

/// The post-run accounting rules over a finished network and its full
/// trace (none when the audit was off). `conservation` fires per node or
/// flow whose custody equation fails (a leak or a double-free). `observe`
/// fires when the side-bands disagree: audit originations must equal the
/// trace's `TcpData` + `TcpAck` + `UdpData` records, and audit terminal
/// drops the drop ledger's terminal total. Every violation window holds
/// the flight recorder's dump: the last lifecycle events before the fault.
pub fn conservation_violations(records: &[TraceRecord], net: &Network) -> Vec<Violation> {
    let Some(report) = net.conservation_report() else {
        return Vec::new();
    };
    let mut found = Vec::new();
    for imb in &report.node_imbalances {
        let message = format!("node custody imbalance: {imb}");
        found.push(("conservation", imb.id as u32, message));
    }
    for imb in &report.flow_imbalances {
        found.push(("conservation", 0, format!("flow custody imbalance: {imb}")));
    }
    let (totals, terminal) = (report.totals, net.drop_report().terminal_total());
    let traced = records.iter().filter(|r| {
        use TraceEvent::{TcpAck, TcpData, UdpData};
        matches!(r.event, TcpData { .. } | TcpAck { .. } | UdpData { .. })
    });
    let traced = traced.count() as u64;
    if totals.originated != traced {
        let n = totals.originated;
        let message = format!("audit originated {n}, trace has {traced} TcpData/TcpAck/UdpData");
        found.push(("observe", 0, message));
    }
    if totals.dropped != terminal {
        let n = totals.dropped;
        let message = format!("audit dropped {n}, drop ledger has {terminal} terminal drops");
        found.push(("observe", 0, message));
    }
    if found.is_empty() {
        return Vec::new();
    }
    let window = net.flight_dump();
    found
        .into_iter()
        .enumerate()
        .map(|(index, (rule, node, message))| Violation {
            rule,
            index,
            time: net.now(),
            node: NodeId(node),
            message,
            window: window.clone(),
        })
        .collect()
}

/// Runs `scenario` under the invariant checker (trace rules plus the
/// post-run `conservation` and `observe` rules) and returns the
/// violations (empty for a conforming run).
pub fn check_scenario(scenario: &Scenario, target: u64, deadline: SimDuration) -> Vec<Violation> {
    let ctx = CheckContext::for_scenario(scenario);
    let (records, net) = run_case(scenario, target, deadline);
    let mut violations = check(&records, &ctx);
    violations.extend(conservation_violations(&records, &net));
    violations
}
