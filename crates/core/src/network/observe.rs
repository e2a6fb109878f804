//! The observation point: the one place the side-bands are fed.
//!
//! Each packet-lifecycle event in the cascade is reported once, as one
//! [`Observe`] record, to [`Network::observe`]. Its match is the fan-out
//! table: each arm names the side-bands (trace, drop ledger, custody
//! audit, flight recorder) that see its event, so they agree by
//! construction. A drop arrives with its layer's own reason ([`Cause`]);
//! this is where it becomes a ledger [`DropReason`] and a trace record.
//! Trace-only protocol events go through [`Network::trace_event`].

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use mwn_aodv::AodvDropReason;
use mwn_mac80211::MacDropReason;
use mwn_obs::flight::{self, FlightKind, FlightRecord, FlightRecorder};
use mwn_obs::{
    ConservationAudit, ConservationReport, DropLedger, DropReason, ProbeBuffer, ProbeKind,
};
use mwn_pkt::{Body, FlowId, NodeId, Packet};

use crate::trace::{TraceBuffer, TraceEvent, TraceRecord};

use super::{Network, PERSISTENT};

/// One packet-lifecycle event at a node.
#[derive(Debug)]
pub(super) enum Observe<'a> {
    /// The transport agent of a flow sent a fresh packet down to routing.
    Originate(FlowId, &'a Packet),
    /// The MAC delivered a packet, received from a neighbor, up to routing.
    DeliverUp(&'a Packet, NodeId),
    /// The MAC confirmed a unicast handoff to the next hop.
    Handoff(&'a Packet),
    /// A transport endpoint consumed a packet (duplicates included).
    Consume(&'a Packet),
    /// The MAC gave up on a unicast frame to the next hop after its retry
    /// limit; routing still holds the packet.
    TxFail(&'a Packet, NodeId),
    /// A layer dropped a packet.
    Drop(&'a Packet, Cause),
    /// An open-loop flow opened at this node: `(flow, dst, packets)`.
    FlowOpen(FlowId, NodeId, u64),
    /// An open-loop transaction completed: `(flow, packets, fct_nanos)`.
    FlowClose(FlowId, u64, u64),
    /// Routing declared its route to this destination lost.
    RouteFail(NodeId),
}

/// Why a packet was dropped, in the words of the layer that dropped it.
#[derive(Debug)]
pub(super) enum Cause {
    Mac(MacDropReason),
    Route(AodvDropReason),
    Transport(DropReason),
}

/// A custody-audit counter update: `(audit, node, flow)`.
type CustodyOp = fn(&mut ConservationAudit, usize, u32);

/// The flow a transport-bodied packet belongs to (`FlowId::raw`); `None`
/// for AODV control traffic, which the ledger and the audit exclude.
fn transport_flow(packet: &Packet) -> Option<u32> {
    match &packet.body {
        Body::Tcp(seg) => Some(seg.flow.raw()),
        Body::Udp(d) => Some(d.flow.raw()),
        Body::Aodv(_) => None,
    }
}

/// The side-bands a network feeds. Only this module touches them.
pub(super) struct SideBands {
    trace: Option<TraceBuffer>,
    probes: Option<ProbeBuffer>,
    /// Always-on loss ledger: one array increment per drop event.
    ledger: DropLedger,
    /// Opt-in custody tracking for the conservation audit.
    audit: Option<ConservationAudit>,
    /// Always-on ring of the rare events. The panic hook reaches it
    /// through a thread-local weak reference ([`flight::register`]), and
    /// a network must stay `Send`: hence `Arc<Mutex<_>>`.
    flight: Arc<Mutex<FlightRecorder>>,
}

impl SideBands {
    /// The always-on side-bands for `nodes` nodes and the ledger's
    /// `class_names`; the trace, probes and audit start off.
    pub(super) fn new(nodes: usize, class_names: Vec<String>) -> Self {
        let flight = Arc::new(Mutex::new(FlightRecorder::new(flight::DEFAULT_CAPACITY)));
        flight::register(&flight);
        SideBands {
            trace: None,
            probes: None,
            ledger: DropLedger::new(nodes, class_names),
            audit: None,
            flight,
        }
    }
}

impl Network {
    /// Fans one lifecycle event at `node` out to the side-bands; each arm
    /// is one row of the fan-out table.
    pub(super) fn observe(&mut self, node: NodeId, event: Observe<'_>) {
        match event {
            Observe::Originate(flow, packet) => {
                self.trace_event(node, || match &packet.body {
                    Body::Tcp(seg) if seg.is_data() => TraceEvent::TcpData { flow, seq: seg.seq },
                    Body::Tcp(seg) => TraceEvent::TcpAck { flow, ack: seg.ack },
                    Body::Udp(d) => TraceEvent::UdpData { flow, seq: d.seq },
                    Body::Aodv(_) => unreachable!("transport never sends AODV"),
                });
                self.custody(node, packet, ConservationAudit::originate);
            }
            Observe::DeliverUp(packet, from) => {
                let uid = packet.uid;
                self.trace_event(node, || TraceEvent::MacRx { uid, from });
                self.custody(node, packet, ConservationAudit::deliver_up);
            }
            Observe::Handoff(packet) => self.custody(node, packet, ConservationAudit::handoff),
            Observe::Consume(packet) => self.custody(node, packet, ConservationAudit::consume),
            Observe::TxFail(packet, next_hop) => {
                let uid = packet.uid;
                self.trace_event(node, || TraceEvent::MacRetryExhausted { uid, next_hop });
                self.tally(node, packet, DropReason::MacRetryExhausted);
                self.flight(node, FlightKind::TxFail, uid, None);
            }
            Observe::Drop(packet, cause) => {
                let uid = packet.uid;
                let reason = match cause {
                    Cause::Mac(reason) => {
                        self.trace_event(node, || TraceEvent::MacQueueDrop { uid });
                        match reason {
                            MacDropReason::QueueFull => DropReason::IfqOverflow,
                            MacDropReason::EarlyDrop => DropReason::MacEarlyDrop,
                        }
                    }
                    Cause::Route(reason) => {
                        self.trace_event(node, || TraceEvent::RouteDrop { uid, reason });
                        match reason {
                            AodvDropReason::NoRoute => DropReason::NoRoute,
                            AodvDropReason::LinkFailure => DropReason::RouteError,
                            AodvDropReason::TtlExpired => DropReason::TtlExpired,
                            AodvDropReason::BufferFull => DropReason::RouteBufferFull,
                        }
                    }
                    Cause::Transport(reason) => reason,
                };
                self.tally(node, packet, reason);
                if reason.is_terminal() {
                    self.custody(node, packet, ConservationAudit::terminal_drop);
                }
                self.flight(node, FlightKind::Drop, uid, Some(reason));
            }
            Observe::FlowOpen(flow, dst, packets) => {
                let src = node;
                self.trace_event(node, || TraceEvent::FlowOpen {
                    flow,
                    src,
                    dst,
                    packets,
                });
                self.flight(node, FlightKind::FlowOpen, flow.raw().into(), None);
            }
            Observe::FlowClose(flow, packets, fct_nanos) => {
                self.trace_event(node, || TraceEvent::FlowClose {
                    flow,
                    packets,
                    fct_nanos,
                });
                self.flight(node, FlightKind::FlowClose, flow.raw().into(), None);
            }
            Observe::RouteFail(dst) => {
                self.trace_event(node, || TraceEvent::RouteFailure { dst });
                self.flight(node, FlightKind::RouteFail, dst.raw().into(), None);
            }
        }
    }

    /// Applies one custody update at `node` when the audit is on and the
    /// packet is transport traffic.
    fn custody(&mut self, node: NodeId, packet: &Packet, op: CustodyOp) {
        if let (Some(audit), Some(flow)) = (&mut self.obs.audit, transport_flow(packet)) {
            op(audit, node.index(), flow);
        }
    }

    /// Tallies a transport packet's loss under its flow's traffic class,
    /// `persistent` for scenario flows, or `unattributed` when no live
    /// flow matches. The ledger is a data-plane account: AODV is skipped.
    fn tally(&mut self, node: NodeId, packet: &Packet, reason: DropReason) {
        let id = match &packet.body {
            Body::Tcp(seg) => seg.flow,
            Body::Udp(d) => d.flow,
            Body::Aodv(_) => return,
        };
        let unattributed = self.obs.ledger.class_names().len() - 1;
        let class = match self.flows.get(id) {
            Some(f) if f.class == PERSISTENT => unattributed - 1,
            Some(f) => f.class as usize,
            None => unattributed,
        };
        self.obs.ledger.record(node.index(), class, reason);
    }

    /// Appends a record to the flight recorder.
    fn flight(&self, node: NodeId, kind: FlightKind, id: u64, reason: Option<DropReason>) {
        let mut flight = self
            .obs
            .flight
            .lock()
            .expect("flight recorder lock poisoned");
        flight.push(FlightRecord {
            t_nanos: self.now.as_nanos(),
            id,
            node: node.raw(),
            kind,
            reason,
        });
    }

    /// Records a trace event at `node`; the closure runs only when
    /// tracing is on.
    pub(super) fn trace_event(&mut self, node: NodeId, event: impl FnOnce() -> TraceEvent) {
        if let Some(buf) = &mut self.obs.trace {
            buf.push(TraceRecord {
                time: self.now,
                node,
                event: event(),
            });
        }
    }

    /// Records a probe sample when probes are on.
    pub(super) fn probe(&mut self, kind: ProbeKind, id: u32, value: f64) {
        if let Some(p) = &mut self.obs.probes {
            p.record(self.now, kind, id, value);
        }
    }

    /// Enables structured event tracing into a ring buffer of `capacity`
    /// records. See [`crate::trace`].
    pub fn enable_trace(&mut self, capacity: usize) {
        self.obs.trace = Some(TraceBuffer::new(capacity));
    }

    /// The retained trace records (empty unless tracing was enabled).
    pub fn trace(&self) -> Vec<&TraceRecord> {
        self.obs
            .trace
            .as_ref()
            .map(|t| t.iter().collect())
            .unwrap_or_default()
    }

    /// Trace records evicted because the ring buffer was full (zero means
    /// the retained trace is complete).
    pub fn trace_dropped(&self) -> u64 {
        self.obs.trace.as_ref().map_or(0, TraceBuffer::dropped)
    }

    /// Enables on-change time-series probes (cwnd, srtt, Vegas diff,
    /// interface-queue depth) into a ring buffer of `capacity` samples.
    pub fn enable_probes(&mut self, capacity: usize) {
        self.obs.probes = Some(ProbeBuffer::new(capacity));
    }

    /// The probe buffer, if probes were enabled.
    pub fn probes(&self) -> Option<&ProbeBuffer> {
        self.obs.probes.as_ref()
    }

    /// Enables custody tracking so [`Network::conservation_report`] can
    /// verify `created = destroyed + residual` per node and per flow.
    /// Call before running; the equations only balance when every custody
    /// event since time zero was seen.
    pub fn enable_audit(&mut self) {
        self.obs.audit = Some(ConservationAudit::new(self.macs.len()));
    }

    /// The loss ledger with PHY frame-level tallies synthesized from the
    /// transceiver counters (collision, capture loss, undecodable). PHY
    /// losses are per frame, not per packet, so they land in the
    /// `unattributed` class.
    pub fn drop_report(&self) -> DropLedger {
        let mut ledger = self.obs.ledger.clone();
        let unattributed = ledger.class_names().len() - 1;
        for (i, t) in self.transceivers.iter().enumerate() {
            let c = t.counters();
            ledger.add(i, unattributed, DropReason::PhyCollision, c.collisions);
            ledger.add(i, unattributed, DropReason::PhyCaptureLoss, c.captures);
            ledger.add(i, unattributed, DropReason::PhyUndecodable, c.undecoded);
        }
        ledger
    }

    /// Verifies packet conservation: for every node and every flow,
    /// packets created (originated + delivered up) must equal packets
    /// destroyed (handed off + consumed + terminally dropped) plus the
    /// copies still buffered in interface queues, in-service MAC slots
    /// and AODV discovery buffers. `None` unless
    /// [`Network::enable_audit`] was called before the run.
    pub fn conservation_report(&self) -> Option<ConservationReport> {
        let audit = self.obs.audit.as_ref()?;
        let mut node_residual = vec![0u64; self.macs.len()];
        let mut flow_residual: HashMap<u32, u64> = HashMap::new();
        let held = self.macs.iter().zip(&self.routers).enumerate();
        for (i, (mac, router)) in held {
            let buffered = mac.queued_packets().chain(mac.current_packet());
            for flow in buffered
                .chain(router.buffered_packets())
                .filter_map(transport_flow)
            {
                node_residual[i] += 1;
                *flow_residual.entry(flow).or_insert(0) += 1;
            }
        }
        Some(audit.verify(&node_residual, &flow_residual))
    }

    /// The flight recorder's ring rendered as display lines (header plus
    /// the retained events, oldest first).
    pub fn flight_dump(&self) -> Vec<String> {
        self.obs.flight.lock().unwrap().dump_lines()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwn_obs::Custody;
    use mwn_phy::DataRate;
    use mwn_pkt::{AodvMessage, TcpSegment};

    use crate::scenario::{Scenario, Transport};

    /// What one `observe` call must change in each side-band.
    struct Row<'a> {
        event: Observe<'a>,
        /// `TraceEvent::kind` of the one record emitted, if any.
        trace: Option<&'static str>,
        /// The one reason the ledger's persistent class gains, if any.
        ledger: Option<DropReason>,
        /// The audit's custody delta at the observing node.
        custody: Custody,
        /// The flight record appended, if any: kind and drop reason.
        flight: Option<(FlightKind, Option<DropReason>)>,
    }

    fn custody(field: fn(&mut Custody) -> &mut u64) -> Custody {
        let mut c = Custody::default();
        *field(&mut c) = 1;
        c
    }

    fn minus(a: Custody, b: Custody) -> Custody {
        Custody {
            originated: a.originated - b.originated,
            delivered_up: a.delivered_up - b.delivered_up,
            handed_off: a.handed_off - b.handed_off,
            consumed: a.consumed - b.consumed,
            dropped: a.dropped - b.dropped,
        }
    }

    /// The rows that can carry either body: with a transport body the
    /// ledger and audit columns fill in; with an AODV body they stay
    /// empty while the trace and flight columns are unchanged.
    fn packet_rows(packet: &Packet) -> Vec<Row<'_>> {
        let transport = transport_flow(packet).is_some();
        let ledger = |r| transport.then_some(r);
        let audit = |c| if transport { c } else { Custody::default() };
        let drop = |cause, trace, reason| Row {
            event: Observe::Drop(packet, cause),
            trace,
            ledger: ledger(reason),
            custody: audit(custody(|c| &mut c.dropped)),
            flight: Some((FlightKind::Drop, Some(reason))),
        };
        let none = Custody::default();
        vec![
            Row {
                event: Observe::DeliverUp(packet, NodeId(1)),
                trace: Some("mac_rx"),
                ledger: None,
                custody: audit(custody(|c| &mut c.delivered_up)),
                flight: None,
            },
            Row {
                event: Observe::Handoff(packet),
                trace: None,
                ledger: None,
                custody: audit(custody(|c| &mut c.handed_off)),
                flight: None,
            },
            Row {
                event: Observe::Consume(packet),
                trace: None,
                ledger: None,
                custody: audit(custody(|c| &mut c.consumed)),
                flight: None,
            },
            Row {
                event: Observe::TxFail(packet, NodeId(1)),
                trace: Some("mac_retry_drop"),
                ledger: ledger(DropReason::MacRetryExhausted),
                custody: none,
                flight: Some((FlightKind::TxFail, None)),
            },
            drop(
                Cause::Mac(MacDropReason::QueueFull),
                Some("mac_queue_drop"),
                DropReason::IfqOverflow,
            ),
            drop(
                Cause::Mac(MacDropReason::EarlyDrop),
                Some("mac_queue_drop"),
                DropReason::MacEarlyDrop,
            ),
            drop(
                Cause::Route(AodvDropReason::NoRoute),
                Some("route_drop"),
                DropReason::NoRoute,
            ),
            drop(
                Cause::Route(AodvDropReason::LinkFailure),
                Some("route_drop"),
                DropReason::RouteError,
            ),
            drop(
                Cause::Route(AodvDropReason::TtlExpired),
                Some("route_drop"),
                DropReason::TtlExpired,
            ),
            drop(
                Cause::Route(AodvDropReason::BufferFull),
                Some("route_drop"),
                DropReason::RouteBufferFull,
            ),
            drop(
                Cause::Transport(DropReason::SinkDiscard),
                None,
                DropReason::SinkDiscard,
            ),
            drop(
                Cause::Transport(DropReason::FlowTeardown),
                None,
                DropReason::FlowTeardown,
            ),
        ]
    }

    #[test]
    fn each_event_reaches_exactly_its_side_bands() {
        let mut net = Scenario::chain(1, DataRate::MBPS_2, Transport::newreno(), 1).build();
        net.enable_trace(1 << 10);
        net.enable_audit();
        let node = NodeId(0);
        let data = Packet::new(
            7,
            node,
            NodeId(1),
            Body::Tcp(TcpSegment::data(FlowId(0), 3)),
        );
        let rerr = Packet::new(
            9,
            node,
            NodeId::BROADCAST,
            Body::Aodv(AodvMessage::Rerr {
                unreachable: Vec::new(),
            }),
        );
        let mut rows = packet_rows(&data);
        rows.extend(packet_rows(&rerr));
        // Rows without an AODV twin: transport agents never originate
        // AODV, and the rest carry no packet.
        rows.extend([
            Row {
                event: Observe::Originate(FlowId(0), &data),
                trace: Some("tcp_data"),
                ledger: None,
                custody: custody(|c| &mut c.originated),
                flight: None,
            },
            Row {
                event: Observe::FlowOpen(FlowId(0), NodeId(1), 4),
                trace: Some("flow_open"),
                ledger: None,
                custody: Custody::default(),
                flight: Some((FlightKind::FlowOpen, None)),
            },
            Row {
                event: Observe::FlowClose(FlowId(0), 4, 5),
                trace: Some("flow_close"),
                ledger: None,
                custody: Custody::default(),
                flight: Some((FlightKind::FlowClose, None)),
            },
            Row {
                event: Observe::RouteFail(NodeId(1)),
                trace: Some("route_failure"),
                ledger: None,
                custody: Custody::default(),
                flight: Some((FlightKind::RouteFail, None)),
            },
        ]);

        // Scenario flows are persistent: their losses land in that class.
        let persistent = net.obs.ledger.class_names().len() - 2;
        let ledger = |net: &Network| {
            let l = &net.obs.ledger;
            (l.totals(), *l.class_counts(persistent))
        };
        let node_custody = |net: &Network| net.obs.audit.as_ref().unwrap().node(0);
        let flight = |net: &Network| -> Vec<(FlightKind, Option<DropReason>)> {
            let f = net.obs.flight.lock().unwrap();
            f.iter().map(|r| (r.kind, r.reason)).collect()
        };
        for row in rows {
            let what = format!("{:?}", row.event);
            let trace_before = net.trace().len();
            let (mut totals, mut class) = ledger(&net);
            let custody_before = node_custody(&net);
            let flight_before = flight(&net).len();

            net.observe(node, row.event);

            let emitted: Vec<&str> = net.trace()[trace_before..]
                .iter()
                .map(|r| r.event.kind())
                .collect();
            assert_eq!(emitted, Vec::from_iter(row.trace), "trace of {what}");
            if let Some(reason) = row.ledger {
                totals[reason.index()] += 1;
                class[reason.index()] += 1;
            }
            assert_eq!(ledger(&net), (totals, class), "ledger of {what}");
            let delta = minus(node_custody(&net), custody_before);
            assert_eq!(delta, row.custody, "custody of {what}");
            let appended = flight(&net).split_off(flight_before);
            assert_eq!(appended, Vec::from_iter(row.flight), "flight of {what}");
        }
    }
}
