//! Packet-loss taxonomy, the per-run drop ledger, and the custody
//! conservation audit.
//!
//! The paper's argument rests on *where* packets die — hidden-terminal
//! collisions two hops upstream, interface-queue overflow at the window
//! optimum, false route failures after MAC retry exhaustion. Aggregate
//! counters cannot show that, so every layer reports losses through one
//! [`DropReason`] taxonomy into a [`DropLedger`] (per node and per traffic
//! class), and an opt-in [`ConservationAudit`] tracks packet custody so a
//! checker can prove `created = destroyed + residual` for every node and
//! every flow.
//!
//! # Custody model
//!
//! The simulator copies packets at layer boundaries, so conservation is
//! stated per *node* over custody events of transport-bodied packets
//! (AODV control traffic is excluded):
//!
//! * **created** — transport originations ([`ConservationAudit::originate`])
//!   plus MAC deliver-ups ([`ConservationAudit::deliver_up`]): each gives
//!   the node a fresh copy it is now responsible for;
//! * **destroyed** — successful MAC handoffs to the next hop
//!   ([`ConservationAudit::handoff`]), transport consumptions
//!   ([`ConservationAudit::consume`]), and terminal drops
//!   ([`ConservationAudit::terminal_drop`]);
//! * **residual** — copies still buffered when the audit is verified
//!   (interface queue, in-service MAC slot, AODV discovery buffers),
//!   enumerated by the caller of [`ConservationAudit::verify`].
//!
//! Frame-level losses ([`DropReason::is_terminal`]` == false`) are tallied
//! in the ledger but deliberately *not* counted as custody events: a
//! collision or retry exhaustion is always followed by either a retransmit
//! or a terminal routing drop, which is where custody actually ends.

use std::collections::HashMap;
use std::fmt;

use crate::json::{arr, Obj};

/// Why a packet (or frame) was lost, across every layer of the stack.
///
/// Variants are ordered by layer: PHY, MAC, routing, transport glue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum DropReason {
    /// Frame overlapped a stronger or earlier transmission and no capture
    /// was possible (frame level; the MAC will retry).
    PhyCollision = 0,
    /// Frame lost to a capture decision that favored another transmission.
    PhyCaptureLoss = 1,
    /// Frame energy was detected but could not be decoded.
    PhyUndecodable = 2,
    /// Unicast frame abandoned after the MAC retry limit (the packet goes
    /// back to routing, which decides its terminal fate).
    MacRetryExhausted = 3,
    /// Interface queue was full on enqueue.
    IfqOverflow = 4,
    /// Link-RED early drop on queue admission.
    MacEarlyDrop = 5,
    /// Route discovery exhausted its retries with no route.
    NoRoute = 6,
    /// An active route failed (RERR / link failure) with the packet in
    /// custody.
    RouteError = 7,
    /// TTL reached zero while forwarding.
    TtlExpired = 8,
    /// The route-discovery packet buffer was full.
    RouteBufferFull = 9,
    /// Delivered to a node or agent that is not the packet's endpoint.
    SinkDiscard = 10,
    /// Arrived for a flow that has already been torn down (stale
    /// generation after open-loop slot reuse).
    FlowTeardown = 11,
}

impl DropReason {
    /// Number of reasons; array-table dimension.
    pub const COUNT: usize = 12;

    /// Every reason, in taxonomy (layer) order.
    pub const ALL: [DropReason; DropReason::COUNT] = [
        DropReason::PhyCollision,
        DropReason::PhyCaptureLoss,
        DropReason::PhyUndecodable,
        DropReason::MacRetryExhausted,
        DropReason::IfqOverflow,
        DropReason::MacEarlyDrop,
        DropReason::NoRoute,
        DropReason::RouteError,
        DropReason::TtlExpired,
        DropReason::RouteBufferFull,
        DropReason::SinkDiscard,
        DropReason::FlowTeardown,
    ];

    /// Dense index for counter tables.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Reconstructs a reason from [`DropReason::index`].
    pub fn from_index(index: usize) -> Option<DropReason> {
        DropReason::ALL.get(index).copied()
    }

    /// Stable snake_case slug used in JSON and tables.
    pub fn label(self) -> &'static str {
        match self {
            DropReason::PhyCollision => "phy_collision",
            DropReason::PhyCaptureLoss => "phy_capture_loss",
            DropReason::PhyUndecodable => "phy_undecodable",
            DropReason::MacRetryExhausted => "mac_retry_exhausted",
            DropReason::IfqOverflow => "ifq_overflow",
            DropReason::MacEarlyDrop => "mac_early_drop",
            DropReason::NoRoute => "no_route",
            DropReason::RouteError => "route_error",
            DropReason::TtlExpired => "ttl_expired",
            DropReason::RouteBufferFull => "route_buffer_full",
            DropReason::SinkDiscard => "sink_discard",
            DropReason::FlowTeardown => "flow_teardown",
        }
    }

    /// The layer that reported the loss (same 3-letter tags as the trace).
    pub fn layer(self) -> &'static str {
        match self {
            DropReason::PhyCollision | DropReason::PhyCaptureLoss | DropReason::PhyUndecodable => {
                "PHY"
            }
            DropReason::MacRetryExhausted | DropReason::IfqOverflow | DropReason::MacEarlyDrop => {
                "MAC"
            }
            DropReason::NoRoute
            | DropReason::RouteError
            | DropReason::TtlExpired
            | DropReason::RouteBufferFull => "RTR",
            DropReason::SinkDiscard | DropReason::FlowTeardown => "TRN",
        }
    }

    /// `true` if the loss *ends custody* of a packet. Frame-level losses
    /// (collision, capture, undecodable, retry exhaustion) do not: the
    /// packet is still held by its sender, which retries or escalates to a
    /// routing drop.
    pub fn is_terminal(self) -> bool {
        !matches!(
            self,
            DropReason::PhyCollision
                | DropReason::PhyCaptureLoss
                | DropReason::PhyUndecodable
                | DropReason::MacRetryExhausted
        )
    }
}

impl fmt::Display for DropReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

type ReasonCounts = [u64; DropReason::COUNT];

fn counts_to_json(counts: &ReasonCounts) -> String {
    let mut obj = Obj::new();
    for reason in DropReason::ALL {
        let n = counts[reason.index()];
        if n > 0 {
            obj = obj.u64(reason.label(), n);
        }
    }
    obj.finish()
}

/// Always-on loss ledger: drop counts per reason, per node, and per
/// traffic class.
///
/// Cost model: one array increment per *drop event*, so the ledger is free
/// on the packet fast path and safe to leave enabled in 100k-flow runs.
#[derive(Debug, Clone)]
pub struct DropLedger {
    per_node: Vec<ReasonCounts>,
    per_class: Vec<ReasonCounts>,
    class_names: Vec<String>,
}

impl DropLedger {
    /// A ledger for `nodes` nodes and the given traffic classes. Class
    /// names are fixed at construction; drops recorded with a class index
    /// out of range land in the last ("unattributed") class.
    pub fn new(nodes: usize, class_names: Vec<String>) -> Self {
        assert!(!class_names.is_empty(), "ledger needs at least one class");
        DropLedger {
            per_node: vec![[0; DropReason::COUNT]; nodes],
            per_class: vec![[0; DropReason::COUNT]; class_names.len()],
            class_names,
        }
    }

    /// Records `n` drops of `reason` at `node` attributed to `class`.
    pub fn add(&mut self, node: usize, class: usize, reason: DropReason, n: u64) {
        if n == 0 {
            return;
        }
        let r = reason.index();
        if let Some(row) = self.per_node.get_mut(node) {
            row[r] += n;
        }
        let c = class.min(self.per_class.len() - 1);
        self.per_class[c][r] += n;
    }

    /// Records one drop (the common case).
    pub fn record(&mut self, node: usize, class: usize, reason: DropReason) {
        self.add(node, class, reason, 1);
    }

    /// Class names, in class-index order.
    pub fn class_names(&self) -> &[String] {
        &self.class_names
    }

    /// Number of nodes the ledger was sized for.
    pub fn nodes(&self) -> usize {
        self.per_node.len()
    }

    /// Per-reason counts for one node.
    pub fn node_counts(&self, node: usize) -> &ReasonCounts {
        &self.per_node[node]
    }

    /// Per-reason counts for one class.
    pub fn class_counts(&self, class: usize) -> &ReasonCounts {
        &self.per_class[class]
    }

    /// Per-reason totals over all nodes.
    pub fn totals(&self) -> ReasonCounts {
        let mut out = [0; DropReason::COUNT];
        for row in &self.per_node {
            for (acc, n) in out.iter_mut().zip(row) {
                *acc += n;
            }
        }
        out
    }

    /// Total drops of one reason across all nodes.
    pub fn total(&self, reason: DropReason) -> u64 {
        self.per_node.iter().map(|row| row[reason.index()]).sum()
    }

    /// Total custody-ending drops (the Σ in the conservation equation).
    pub fn terminal_total(&self) -> u64 {
        DropReason::ALL
            .iter()
            .filter(|r| r.is_terminal())
            .map(|&r| self.total(r))
            .sum()
    }

    /// Grand total across every reason, terminal or not.
    pub fn grand_total(&self) -> u64 {
        self.totals().iter().sum()
    }

    /// `true` if nothing was dropped anywhere.
    pub fn is_empty(&self) -> bool {
        self.grand_total() == 0
    }

    /// Deterministic JSON: totals per reason (zeros omitted), then
    /// per-class and per-node breakdowns (all classes; only nodes with at
    /// least one drop).
    pub fn to_json(&self) -> String {
        let totals = self.totals();
        let classes = arr(self
            .class_names
            .iter()
            .zip(&self.per_class)
            .map(|(name, counts)| {
                Obj::new()
                    .str("class", name)
                    .raw("drops", &counts_to_json(counts))
                    .finish()
            }));
        let nodes = arr(self
            .per_node
            .iter()
            .enumerate()
            .filter(|(_, counts)| counts.iter().any(|&n| n > 0))
            .map(|(i, counts)| {
                Obj::new()
                    .usize("node", i)
                    .raw("drops", &counts_to_json(counts))
                    .finish()
            }));
        Obj::new()
            .u64("total", self.grand_total())
            .u64("terminal", self.terminal_total())
            .raw("reasons", &counts_to_json(&totals))
            .raw("per_class", &classes)
            .raw("per_node", &nodes)
            .finish()
    }
}

/// Custody event counters for one node or one flow.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Custody {
    /// Transport-layer originations (data segments, ACKs, retransmits).
    pub originated: u64,
    /// Fresh copies created by MAC deliver-up from a neighbor.
    pub delivered_up: u64,
    /// Copies destroyed by a successful MAC handoff to the next hop.
    pub handed_off: u64,
    /// Copies consumed by the transport endpoint (data and ACK receipt,
    /// duplicates included).
    pub consumed: u64,
    /// Copies destroyed by a terminal drop.
    pub dropped: u64,
}

impl Custody {
    /// Copies this party became responsible for.
    pub fn created(&self) -> u64 {
        self.originated + self.delivered_up
    }

    /// Copies whose custody provably ended.
    pub fn destroyed(&self) -> u64 {
        self.handed_off + self.consumed + self.dropped
    }

    /// The conservation equation, given the copies still buffered.
    pub fn balanced(&self, residual: u64) -> bool {
        self.created() == self.destroyed() + residual
    }
}

/// One conservation imbalance found by [`ConservationAudit::verify`].
#[derive(Debug, Clone)]
pub struct Imbalance {
    /// Node id, or `FlowId::raw` for flow rows.
    pub id: u64,
    /// The custody counters in question.
    pub custody: Custody,
    /// Copies still buffered at verification time.
    pub residual: u64,
}

impl Imbalance {
    /// Signed difference `created − (destroyed + residual)`: positive means
    /// packets vanished (a leak); negative means packets were destroyed
    /// twice (a double free / duplication).
    pub fn delta(&self) -> i64 {
        self.custody.created() as i64 - (self.custody.destroyed() + self.residual) as i64
    }
}

impl fmt::Display for Imbalance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "created={} (orig={} up={}) destroyed={} (handoff={} consumed={} dropped={}) residual={} delta={:+}",
            self.custody.created(),
            self.custody.originated,
            self.custody.delivered_up,
            self.custody.destroyed(),
            self.custody.handed_off,
            self.custody.consumed,
            self.custody.dropped,
            self.residual,
            self.delta(),
        )?;
        // Positive: copies created but never destroyed or found in a
        // queue. Negative: more destructions than creations.
        if self.delta() > 0 {
            write!(f, " (leaked)")
        } else {
            write!(f, " (double-freed)")
        }
    }
}

/// Result of a conservation audit: the per-node and per-flow equations
/// that failed, if any.
#[derive(Debug, Clone, Default)]
pub struct ConservationReport {
    /// Nodes whose equation failed.
    pub node_imbalances: Vec<Imbalance>,
    /// Flows whose equation failed.
    pub flow_imbalances: Vec<Imbalance>,
    /// Nodes checked.
    pub nodes_checked: usize,
    /// Flows checked.
    pub flows_checked: usize,
    /// Custody counters summed over every node.
    pub totals: Custody,
}

impl ConservationReport {
    /// `true` if every checked equation balanced.
    pub fn is_balanced(&self) -> bool {
        self.node_imbalances.is_empty() && self.flow_imbalances.is_empty()
    }
}

impl fmt::Display for ConservationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_balanced() {
            return write!(
                f,
                "conservation holds ({} nodes, {} flows)",
                self.nodes_checked, self.flows_checked
            );
        }
        writeln!(
            f,
            "conservation FAILED ({}/{} nodes, {}/{} flows imbalanced)",
            self.node_imbalances.len(),
            self.nodes_checked,
            self.flow_imbalances.len(),
            self.flows_checked,
        )?;
        for row in &self.node_imbalances {
            writeln!(f, "  node {}: {}", row.id, row)?;
        }
        for row in &self.flow_imbalances {
            writeln!(f, "  flow {}: {}", row.id, row)?;
        }
        Ok(())
    }
}

/// Opt-in custody tracking for the conservation audit.
///
/// Unlike the [`DropLedger`], this counts every custody event — one or two
/// increments per packet per hop plus a hash-map update for the flow row —
/// so it is off by default and enabled for checker runs, `mwn stats`, and
/// instrumented sweeps.
#[derive(Debug, Clone)]
pub struct ConservationAudit {
    per_node: Vec<Custody>,
    per_flow: HashMap<u32, Custody>,
}

impl ConservationAudit {
    /// An audit for `nodes` nodes; flow rows appear on first touch.
    pub fn new(nodes: usize) -> Self {
        ConservationAudit {
            per_node: vec![Custody::default(); nodes],
            per_flow: HashMap::new(),
        }
    }

    fn node_mut(&mut self, node: usize) -> &mut Custody {
        &mut self.per_node[node]
    }

    fn flow_mut(&mut self, flow: u32) -> &mut Custody {
        self.per_flow.entry(flow).or_default()
    }

    /// A transport layer at `node` originated a packet of `flow`.
    pub fn originate(&mut self, node: usize, flow: u32) {
        self.node_mut(node).originated += 1;
        self.flow_mut(flow).originated += 1;
    }

    /// The MAC at `node` delivered a received packet of `flow` up to
    /// routing: this node now holds a fresh copy.
    pub fn deliver_up(&mut self, node: usize, flow: u32) {
        self.node_mut(node).delivered_up += 1;
        self.flow_mut(flow).delivered_up += 1;
    }

    /// The MAC at `node` confirmed a successful unicast handoff: this
    /// node's copy is destroyed (the receiver created its own).
    pub fn handoff(&mut self, node: usize, flow: u32) {
        self.node_mut(node).handed_off += 1;
        self.flow_mut(flow).handed_off += 1;
    }

    /// A transport endpoint at `node` consumed a packet of `flow`.
    pub fn consume(&mut self, node: usize, flow: u32) {
        self.node_mut(node).consumed += 1;
        self.flow_mut(flow).consumed += 1;
    }

    /// A terminal drop destroyed `node`'s copy of a `flow` packet.
    pub fn terminal_drop(&mut self, node: usize, flow: u32) {
        self.node_mut(node).dropped += 1;
        self.flow_mut(flow).dropped += 1;
    }

    /// Custody counters for one node.
    pub fn node(&self, node: usize) -> Custody {
        self.per_node[node]
    }

    /// Custody counters for one flow, if any packet of it was seen.
    pub fn flow(&self, flow: u32) -> Option<Custody> {
        self.per_flow.get(&flow).copied()
    }

    /// Number of distinct flows observed.
    pub fn flows_seen(&self) -> usize {
        self.per_flow.len()
    }

    /// Checks every node and flow equation against the residual buffered
    /// copies the caller enumerated (missing map entries mean zero).
    pub fn verify(
        &self,
        node_residual: &[u64],
        flow_residual: &HashMap<u32, u64>,
    ) -> ConservationReport {
        let mut report = ConservationReport {
            nodes_checked: self.per_node.len(),
            flows_checked: self.per_flow.len(),
            ..ConservationReport::default()
        };
        for (i, custody) in self.per_node.iter().enumerate() {
            let t = &mut report.totals;
            t.originated += custody.originated;
            t.delivered_up += custody.delivered_up;
            t.handed_off += custody.handed_off;
            t.consumed += custody.consumed;
            t.dropped += custody.dropped;
            let residual = node_residual.get(i).copied().unwrap_or(0);
            if !custody.balanced(residual) {
                report.node_imbalances.push(Imbalance {
                    id: i as u64,
                    custody: *custody,
                    residual,
                });
            }
        }
        let mut flows: Vec<u32> = self.per_flow.keys().copied().collect();
        flows.sort_unstable();
        for flow in flows {
            let custody = self.per_flow[&flow];
            let residual = flow_residual.get(&flow).copied().unwrap_or(0);
            if !custody.balanced(residual) {
                report.flow_imbalances.push(Imbalance {
                    id: u64::from(flow),
                    custody,
                    residual,
                });
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taxonomy_indices_roundtrip_and_split_by_custody() {
        for (i, reason) in DropReason::ALL.iter().enumerate() {
            assert_eq!(reason.index(), i);
            assert_eq!(DropReason::from_index(i), Some(*reason));
        }
        assert_eq!(DropReason::from_index(DropReason::COUNT), None);
        let terminal: Vec<_> = DropReason::ALL.iter().filter(|r| r.is_terminal()).collect();
        assert_eq!(terminal.len(), 8);
        assert!(!DropReason::PhyCollision.is_terminal());
        assert!(!DropReason::MacRetryExhausted.is_terminal());
        assert!(DropReason::IfqOverflow.is_terminal());
        assert!(DropReason::FlowTeardown.is_terminal());
    }

    #[test]
    fn ledger_tallies_per_node_and_class() {
        let mut ledger = DropLedger::new(3, vec!["web".into(), "other".into()]);
        ledger.record(0, 0, DropReason::IfqOverflow);
        ledger.record(0, 0, DropReason::IfqOverflow);
        ledger.record(2, 1, DropReason::NoRoute);
        ledger.add(1, 0, DropReason::PhyCollision, 5);
        assert_eq!(ledger.total(DropReason::IfqOverflow), 2);
        assert_eq!(ledger.grand_total(), 8);
        // Collisions are frame-level, not custody-ending.
        assert_eq!(ledger.terminal_total(), 3);
        assert_eq!(ledger.node_counts(0)[DropReason::IfqOverflow.index()], 2);
        assert_eq!(ledger.class_counts(1)[DropReason::NoRoute.index()], 1);
        // Out-of-range class indices land in the last class.
        ledger.record(1, 99, DropReason::TtlExpired);
        assert_eq!(ledger.class_counts(1)[DropReason::TtlExpired.index()], 1);
    }

    #[test]
    fn ledger_json_is_deterministic_and_omits_idle_nodes() {
        let mut ledger = DropLedger::new(3, vec!["all".into()]);
        ledger.record(1, 0, DropReason::RouteError);
        let json = ledger.to_json();
        assert_eq!(
            json,
            r#"{"total":1,"terminal":1,"reasons":{"route_error":1},"per_class":[{"class":"all","drops":{"route_error":1}}],"per_node":[{"node":1,"drops":{"route_error":1}}]}"#
        );
        assert_eq!(json, ledger.clone().to_json());
    }

    #[test]
    fn audit_balances_a_two_hop_relay() {
        // src(0) -> relay(1) -> dst(2), one data packet of flow 7.
        let mut audit = ConservationAudit::new(3);
        audit.originate(0, 7);
        audit.handoff(0, 7);
        audit.deliver_up(1, 7);
        audit.handoff(1, 7);
        audit.deliver_up(2, 7);
        audit.consume(2, 7);
        let report = audit.verify(&[0, 0, 0], &HashMap::new());
        assert!(report.is_balanced(), "{report}");
        assert_eq!(report.nodes_checked, 3);
        assert_eq!(report.flows_checked, 1);
        assert_eq!(
            report.totals,
            Custody {
                originated: 1,
                delivered_up: 2,
                handed_off: 2,
                consumed: 1,
                dropped: 0,
            }
        );
    }

    #[test]
    fn audit_flags_leak_and_double_free() {
        let mut audit = ConservationAudit::new(2);
        // Leak: node 0 originated but never destroyed, nothing buffered.
        audit.originate(0, 1);
        // Double free: node 1 destroyed a copy it never created.
        audit.terminal_drop(1, 2);
        let report = audit.verify(&[0, 0], &HashMap::new());
        assert_eq!(report.node_imbalances.len(), 2);
        assert_eq!(report.node_imbalances[0].delta(), 1);
        assert_eq!(report.node_imbalances[1].delta(), -1);
        assert_eq!(report.flow_imbalances.len(), 2);
        let shown = report.to_string();
        assert!(shown.contains("FAILED"));
        assert!(shown.contains("delta=+1"));
        assert!(shown.contains("delta=-1"));
    }

    #[test]
    fn audit_accepts_residual_buffered_copies() {
        let mut audit = ConservationAudit::new(1);
        audit.originate(0, 3);
        audit.originate(0, 3);
        audit.handoff(0, 3);
        // One copy still queued at verification time.
        let mut flow_residual = HashMap::new();
        flow_residual.insert(3u32, 1u64);
        let report = audit.verify(&[1], &flow_residual);
        assert!(report.is_balanced(), "{report}");
        // …and without the residual the same counters fail.
        let report = audit.verify(&[0], &HashMap::new());
        assert!(!report.is_balanced());
    }

    #[test]
    fn duplicate_consumption_still_balances() {
        // A retransmitted segment is consumed twice at the sink: both the
        // origination and the consumption are counted per copy.
        let mut audit = ConservationAudit::new(2);
        for _ in 0..2 {
            audit.originate(0, 9);
            audit.handoff(0, 9);
            audit.deliver_up(1, 9);
            audit.consume(1, 9);
        }
        assert!(audit.verify(&[0, 0], &HashMap::new()).is_balanced());
        assert_eq!(audit.flow(9).unwrap().consumed, 2);
        assert_eq!(audit.flows_seen(), 1);
    }
}
