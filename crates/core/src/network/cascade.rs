//! Event dispatch: one event's fan-out through the layers.
//!
//! Handling one event (a signal edge, a timer, a delivered packet) fans
//! out through the layers: PHY → MAC → AODV → transport → back down to
//! the MAC. Each layer reports what it wants done as a list of actions;
//! the `apply_*` methods decompose each list in order and apply every
//! action — scheduling and timer tables — recursing when an action hands
//! a packet to another layer. Each packet-lifecycle event is reported
//! once, as an [`Observe`] record, to the observation point in
//! [`super::observe`]. The state lives on [`Network`] (the parent
//! module); this module is its dispatch.

use mwn_aodv::AodvAction;
use mwn_mac80211::{MacAction, MacTimer};
use mwn_obs::{DropReason, ProbeKind};
use mwn_phy::RadioEvent;
use mwn_pkt::{Body, FlowId, MacFrame, NodeId, Packet};
use mwn_sim::stats::TimeWeightedAverage;
use mwn_sim::{EventId, EventQueue, SimTime};
use mwn_tcp::{TcpSender, TcpSink, TransportAction, TransportTimer};

use crate::scenario::Transport;
use crate::trace::TraceEvent;

use super::flows::Flow;
use super::observe::{Cause, Observe};
use super::{
    fnv_mix, Event, Network, Role, SinkAgent, SourceAgent, JOURNAL_ARRIVAL, JOURNAL_COMPLETION,
    PERSISTENT,
};

/// Recycled action/event buffers. Dispatch re-enters (a delivered frame
/// can trigger a new send), so each taker pops its own buffer and the
/// apply path returns it once drained — the steady state allocates
/// nothing.
#[derive(Debug, Default)]
pub(super) struct Pools {
    pub mac: Vec<Vec<MacAction>>,
    pub aodv: Vec<Vec<AodvAction>>,
    pub transport: Vec<Vec<TransportAction>>,
    pub radio: Vec<Vec<RadioEvent>>,
    /// Scratch for the ELFN route-failure fanout.
    pub flow_scratch: Vec<FlowId>,
}

/// Cancels the pending timer event a table slot names, if any.
fn cancel_timer(queue: &mut EventQueue<Event>, slot: &mut Option<EventId>) {
    if let Some(old) = slot.take() {
        queue.cancel(old);
    }
}

impl Network {
    /// Dispatches one event popped from the queue at `self.now`.
    pub(super) fn handle(&mut self, event: Event) {
        match event {
            Event::SignalStart { node, tx, class } => {
                let mut evs = self.pools.radio.pop().unwrap_or_default();
                self.transceivers[node.index()].signal_start(tx, class, &mut evs);
                self.process_radio_events(node, evs);
            }
            Event::SignalEnd { node, tx } => {
                let mut evs = self.pools.radio.pop().unwrap_or_default();
                self.transceivers[node.index()].signal_end(tx, &mut evs);
                self.process_radio_events(node, evs);
                self.frames.release(tx);
            }
            Event::TxEnd { node } => {
                let mut evs = self.pools.radio.pop().unwrap_or_default();
                self.transceivers[node.index()].tx_end(&mut evs);
                let mut actions = self.pools.mac.pop().unwrap_or_default();
                self.macs[node.index()].on_tx_done(self.now, &mut actions);
                self.apply_mac_actions(node, actions);
                self.process_radio_events(node, evs);
            }
            Event::Mac { node, timer } => {
                // The timer fired: forget its id without cancelling.
                self.mac_timers[node.index()][timer.index()] = None;
                let mut actions = self.pools.mac.pop().unwrap_or_default();
                self.macs[node.index()].on_timer(self.now, timer, &mut actions);
                self.apply_mac_actions(node, actions);
            }
            Event::AodvSend {
                node,
                next_hop,
                packet,
            } => {
                let mut actions = self.pools.mac.pop().unwrap_or_default();
                self.macs[node.index()].enqueue(self.now, next_hop, packet, &mut actions);
                self.apply_mac_actions(node, actions);
            }
            Event::AodvDiscovery { node, dst } => {
                self.discovery_timers[node.index()].remove(dst);
                let mut actions = self.pools.aodv.pop().unwrap_or_default();
                self.routers[node.index()].on_discovery_timeout(self.now, dst, &mut actions);
                self.apply_aodv_actions(node, actions);
            }
            Event::Transport { flow, role, timer } => {
                // A completed traffic flow cancels its timers, so a stale
                // generation firing here should be impossible — but if one
                // ever slipped through, clearing the slot would wipe the
                // next tenant's timer id, so guard anyway.
                if self.flows.get(flow).is_some() {
                    self.transport_timers[flow.slot() as usize][role.index()][timer.index()] = None;
                    self.dispatch_transport_timer(flow, role, timer);
                }
            }
            Event::FlowStart { flow } => self.flow_start(flow),
            Event::TrafficArrival { class } => self.handle_traffic_arrival(class),
            Event::MobilityTick => self.mobility_tick(),
        }
    }

    /// One open-loop arrival: draw the flow, reschedule the class's next
    /// arrival, and spawn the request leg.
    fn handle_traffic_arrival(&mut self, class: usize) {
        let now = self.now;
        let Some(t) = self.traffic.as_mut() else {
            return;
        };
        if t.engine.exhausted() {
            return;
        }
        let draw = t.engine.draw(class);
        let response = t.engine.response_packets(class);
        let next = (!t.engine.exhausted()).then(|| t.engine.next_gap(class, now.as_secs_f64()));
        t.fct.class_mut(class).record_arrival();
        if let Some(gap) = next {
            self.queue
                .schedule(now + gap, Event::TrafficArrival { class });
        }
        self.spawn_traffic_flow(
            class as u32,
            NodeId(draw.src),
            NodeId(draw.dst),
            draw.packets,
            response,
            now,
            0,
        );
    }

    /// Admits one traffic leg into the slab: reuses a vacated slot (or
    /// grows the slab and its timer table once, at the high-water mark),
    /// builds the TCP pair with an app-limited budget, journals the
    /// spawn and starts the sender immediately.
    #[allow(clippy::too_many_arguments)]
    fn spawn_traffic_flow(
        &mut self,
        class: u32,
        src: NodeId,
        dst: NodeId,
        packets: u64,
        response: Option<u64>,
        started: SimTime,
        carried: u64,
    ) {
        let (slot, generation) = self.flows.spawn_slot();
        if self.transport_timers.len() <= slot as usize {
            self.transport_timers
                .resize(slot as usize + 1, [[None; TransportTimer::COUNT]; 2]);
        }
        let flow_id = FlowId::from_parts(slot, generation);

        let now = self.now;
        let t = self
            .traffic
            .as_mut()
            .expect("traffic flows need a traffic state");
        let k = t.spawn_counter;
        assert!(
            k < 1 << 21,
            "traffic spawn counter exhausted its uid namespace"
        );
        t.spawn_counter += 1;
        t.live += 1;
        let transport = t.transport;
        let t_ns = started.as_nanos();
        fnv_mix(&mut t.journal_hash, JOURNAL_ARRIVAL);
        fnv_mix(&mut t.journal_hash, k);
        fnv_mix(&mut t.journal_hash, u64::from(class));
        fnv_mix(&mut t.journal_hash, u64::from(src.raw()));
        fnv_mix(&mut t.journal_hash, u64::from(dst.raw()));
        fnv_mix(&mut t.journal_hash, packets);
        fnv_mix(&mut t.journal_hash, t_ns);
        t.journal_count += 1;
        if carried == 0 {
            // First legs only: response legs spawn at completion times,
            // which depend on how the network is coping.
            fnv_mix(&mut t.arrival_hash, u64::from(class));
            fnv_mix(&mut t.arrival_hash, u64::from(src.raw()));
            fnv_mix(&mut t.arrival_hash, u64::from(dst.raw()));
            fnv_mix(&mut t.arrival_hash, packets);
            fnv_mix(&mut t.arrival_hash, t_ns);
            t.arrival_count += 1;
        }

        let uid_base = (3 << 61) | (k << 40);
        let Transport::Tcp {
            flavor,
            config,
            ack_policy,
        } = transport
        else {
            unreachable!("build() rejects non-TCP traffic transports");
        };
        let mut sender = TcpSender::new(config, flavor, flow_id, src, dst, uid_base);
        sender.set_budget(packets);
        let mut actions = self.pools.transport.pop().unwrap_or_default();
        sender.start(now, &mut actions);
        let sink = TcpSink::new(ack_policy, flow_id, dst, src, uid_base | (1 << 39));
        self.flows.fill_slot(
            slot,
            Flow {
                src,
                dst,
                source: SourceAgent::Tcp(sender),
                sink: SinkAgent::Tcp(sink),
                delivered: 0,
                last_delivery: None,
                cwnd_twa: TimeWeightedAverage::new(now, 1.0),
                class,
                started,
                carried,
                response,
            },
        );
        self.observe(src, Observe::FlowOpen(flow_id, dst, packets));
        self.note_window(flow_id);
        self.apply_transport_actions(flow_id, Role::Source, src, actions);
    }

    /// Retires a completed traffic leg: cancels its remaining timers,
    /// vacates and generation-bumps the slot, then either spawns the
    /// response leg or journals the finished transaction.
    fn complete_traffic_flow(&mut self, id: FlowId) {
        for role in &mut self.transport_timers[id.slot() as usize] {
            for slot in role {
                cancel_timer(&mut self.queue, slot);
            }
        }
        let flow = self.flows.vacate(id);

        let budget = match &flow.source {
            SourceAgent::Tcp(s) => s.budget().expect("traffic sender has a budget"),
            SourceAgent::Udp(_) => unreachable!("traffic flows are TCP"),
        };
        let total = flow.carried + budget;
        let now = self.now;
        let t = self.traffic.as_mut().expect("traffic flow without state");
        t.live -= 1;
        if let Some(resp) = flow.response {
            // Response leg runs the other way; the transaction's clock
            // and packet tally keep running.
            self.spawn_traffic_flow(
                flow.class,
                flow.dst,
                flow.src,
                resp,
                None,
                flow.started,
                total,
            );
            return;
        }
        let fct = now.saturating_duration_since(flow.started);
        fnv_mix(&mut t.journal_hash, JOURNAL_COMPLETION);
        fnv_mix(&mut t.journal_hash, u64::from(id.raw()));
        fnv_mix(&mut t.journal_hash, u64::from(flow.class));
        fnv_mix(&mut t.journal_hash, total);
        fnv_mix(&mut t.journal_hash, now.as_nanos());
        t.journal_count += 1;
        t.fct
            .class_mut(flow.class as usize)
            .record_completion(fct, total);
        self.observe(flow.src, Observe::FlowClose(id, total, fct.as_nanos()));
    }

    fn flow_start(&mut self, id: FlowId) {
        let now = self.now;
        let Some(flow) = self.flows.get_mut(id) else {
            return;
        };
        let mut actions = self.pools.transport.pop().unwrap_or_default();
        match &mut flow.source {
            SourceAgent::Tcp(s) => s.start(now, &mut actions),
            SourceAgent::Udp(s) => s.start(now, &mut actions),
        }
        let node = flow.src;
        self.note_window(id);
        self.apply_transport_actions(id, Role::Source, node, actions);
    }

    fn dispatch_transport_timer(&mut self, id: FlowId, role: Role, timer: TransportTimer) {
        let now = self.now;
        let Some(flow) = self.flows.get_mut(id) else {
            return;
        };
        let mut actions = self.pools.transport.pop().unwrap_or_default();
        let (node, note) = match (role, timer, &mut flow.source, &mut flow.sink) {
            (Role::Source, TransportTimer::Rtx, SourceAgent::Tcp(s), _) => {
                s.on_rtx_timeout(now, &mut actions);
                (flow.src, true)
            }
            (Role::Source, TransportTimer::Probe, SourceAgent::Tcp(s), _) => {
                s.on_probe_timer(now, &mut actions);
                (flow.src, false)
            }
            (Role::Source, TransportTimer::Pace, SourceAgent::Udp(s), _) => {
                s.on_pace_timer(now, &mut actions);
                (flow.src, false)
            }
            (Role::Sink, TransportTimer::DelayedAck, _, SinkAgent::Tcp(s)) => {
                s.on_delayed_ack_timer(now, &mut actions);
                (flow.dst, false)
            }
            _ => {
                self.pools.transport.push(actions);
                return;
            }
        };
        if note {
            self.note_window(id);
        }
        self.apply_transport_actions(id, role, node, actions);
    }

    // ---- PHY plumbing ----------------------------------------------------

    fn process_radio_events(&mut self, node: NodeId, mut events: Vec<RadioEvent>) {
        let now = self.now;
        for ev in events.drain(..) {
            let mut actions = self.pools.mac.pop().unwrap_or_default();
            let i = node.index();
            match ev {
                RadioEvent::CarrierBusy => self.macs[i].on_carrier_busy(now, &mut actions),
                RadioEvent::CarrierIdle => self.macs[i].on_carrier_idle(now, &mut actions),
                RadioEvent::RxStart(_) => {}
                RadioEvent::RxEnd { tx, ok: true } => {
                    self.trace_event(node, || TraceEvent::PhyRxOk);
                    let frame = self.frames.get(tx).expect("RxEnd for unknown transmission");
                    self.macs[i].on_rx_frame(now, frame, &mut actions);
                }
                RadioEvent::UndecodedEnd | RadioEvent::RxEnd { ok: false, .. } => {
                    self.trace_event(node, || TraceEvent::PhyCorrupt);
                    self.macs[i].on_rx_corrupt(now);
                }
            }
            self.apply_mac_actions(node, actions);
        }
        self.pools.radio.push(events);
    }

    /// Puts `frame` on the air from `node`: schedules the signal edges at
    /// every receiver, meters energy, and starts the local transceiver
    /// (whose radio events land in `evs` for the caller to process).
    fn start_tx(&mut self, node: NodeId, frame: MacFrame, evs: &mut Vec<RadioEvent>) {
        let now = self.now;
        let duration = self.params.airtime(&frame);
        let (kind, dst, bytes, nav) = (frame.kind(), frame.dst(), frame.size_bytes(), frame.nav());
        self.trace_event(node, || TraceEvent::MacTx {
            kind,
            dst,
            bytes,
            airtime: duration,
            nav,
        });
        self.energy[node.index()].add_tx(duration);
        // Transmission time is where lazy medium staleness resolves:
        // `refresh` rebuilds the effect list only if this node's 3×3
        // neighborhood changed since the list was built. The returned
        // borrow lives in place; the loop only touches disjoint fields
        // (queue, frames, energy), so no copy of the list is made.
        let effects = self.medium.refresh(node);
        if !effects.is_empty() {
            let tx = self.frames.insert(frame, effects.len());
            for e in effects {
                self.queue.schedule(
                    now + e.delay,
                    Event::SignalStart {
                        node: e.node,
                        tx,
                        class: e.class,
                    },
                );
                self.queue.schedule(
                    now + e.delay + duration,
                    Event::SignalEnd { node: e.node, tx },
                );
                if e.class.decodable {
                    self.energy[e.node.index()].add_rx(duration);
                }
            }
        }
        self.queue.schedule(now + duration, Event::TxEnd { node });
        self.transceivers[node.index()].tx_start(evs);
    }

    // ---- action application ----------------------------------------------

    fn apply_mac_actions(&mut self, node: NodeId, mut actions: Vec<MacAction>) {
        let now = self.now;
        for action in actions.drain(..) {
            match action {
                MacAction::StartTx(frame) => {
                    let mut evs = self.pools.radio.pop().unwrap_or_default();
                    self.start_tx(node, frame, &mut evs);
                    self.process_radio_events(node, evs);
                }
                MacAction::SetTimer { timer, delay } => {
                    if timer == MacTimer::Defer {
                        self.trace_event(node, || TraceEvent::MacDefer {
                            nanos: delay.as_nanos(),
                        });
                    }
                    let slot = &mut self.mac_timers[node.index()][timer.index()];
                    cancel_timer(&mut self.queue, slot);
                    *slot = Some(self.queue.schedule(now + delay, Event::Mac { node, timer }));
                }
                MacAction::CancelTimer(timer) => {
                    let slot = &mut self.mac_timers[node.index()][timer.index()];
                    cancel_timer(&mut self.queue, slot);
                }
                MacAction::Deliver { from, packet } => {
                    self.observe(node, Observe::DeliverUp(&packet, from));
                    let mut aodv = self.pools.aodv.pop().unwrap_or_default();
                    self.routers[node.index()].on_received(now, from, packet, &mut aodv);
                    self.apply_aodv_actions(node, aodv);
                }
                MacAction::TxConfirm {
                    next_hop,
                    packet,
                    success,
                } => {
                    if success {
                        self.observe(node, Observe::Handoff(&packet));
                    } else {
                        self.observe(node, Observe::TxFail(&packet, next_hop));
                    }
                    let mut aodv = self.pools.aodv.pop().unwrap_or_default();
                    self.routers[node.index()]
                        .on_tx_confirm(now, next_hop, packet, success, &mut aodv);
                    self.apply_aodv_actions(node, aodv);
                }
                MacAction::Dropped { ref packet, reason } => {
                    self.observe(node, Observe::Drop(packet, Cause::Mac(reason)));
                }
            }
        }
        let depth = self.macs[node.index()].queue_len();
        self.probe(ProbeKind::IfqDepth, node.raw(), depth as f64);
        self.pools.mac.push(actions);
    }

    fn apply_aodv_actions(&mut self, node: NodeId, mut actions: Vec<AodvAction>) {
        let now = self.now;
        for action in actions.drain(..) {
            match action {
                AodvAction::Send {
                    packet,
                    next_hop,
                    delay,
                } => {
                    if delay.is_zero() {
                        let mut mac = self.pools.mac.pop().unwrap_or_default();
                        self.macs[node.index()].enqueue(now, next_hop, packet, &mut mac);
                        self.apply_mac_actions(node, mac);
                    } else {
                        self.queue.schedule(
                            now + delay,
                            Event::AodvSend {
                                node,
                                next_hop,
                                packet,
                            },
                        );
                    }
                }
                AodvAction::Deliver(packet) => {
                    self.trace_event(node, || TraceEvent::RouteDeliver { uid: packet.uid });
                    self.deliver_to_transport(node, packet)
                }
                AodvAction::SetDiscoveryTimer { dst, delay } => {
                    let timers = &mut self.discovery_timers[node.index()];
                    if let Some(old) = timers.remove(dst) {
                        self.queue.cancel(old);
                    }
                    let id = self
                        .queue
                        .schedule(now + delay, Event::AodvDiscovery { node, dst });
                    timers.insert(dst, id);
                }
                AodvAction::CancelDiscoveryTimer { dst } => {
                    if let Some(old) = self.discovery_timers[node.index()].remove(dst) {
                        self.queue.cancel(old);
                    }
                }
                AodvAction::NotifyRouteFailure { dst } => {
                    self.observe(node, Observe::RouteFail(dst));
                    self.notify_route_failure(node, dst);
                }
                AodvAction::RouteInstalled {
                    dst,
                    next_hop,
                    hop_count,
                    dst_seq,
                } => {
                    self.trace_event(node, || TraceEvent::RouteUpdate {
                        dst,
                        next_hop,
                        hop_count,
                        dst_seq,
                    });
                }
                AodvAction::RouteLost { dst, dst_seq } => {
                    self.trace_event(node, || TraceEvent::RouteInvalidate { dst, dst_seq });
                }
                AodvAction::Drop { ref packet, reason } => {
                    self.observe(node, Observe::Drop(packet, Cause::Route(reason)));
                }
            }
        }
        self.pools.aodv.push(actions);
    }

    fn deliver_to_transport(&mut self, node: NodeId, packet: Packet) {
        let now = self.now;
        // A packet no live endpoint takes is dropped by the transport glue.
        let discard = |reason| Observe::Drop(&packet, Cause::Transport(reason));
        match &packet.body {
            Body::Tcp(seg) => {
                let id = seg.flow;
                let (seq, ack, is_data) = (seg.seq, seg.ack, seg.is_data());
                let Some(flow) = self.flows.get_mut(id) else {
                    // Stale generation: a straggler from a finished flow.
                    self.observe(node, discard(DropReason::FlowTeardown));
                    return;
                };
                if is_data && node == flow.dst {
                    let SinkAgent::Tcp(sink) = &mut flow.sink else {
                        return;
                    };
                    let mut actions = self.pools.transport.pop().unwrap_or_default();
                    let before = sink.stats().delivered;
                    sink.on_data(now, seq, &mut actions);
                    let advanced = sink.stats().delivered - before;
                    if advanced > 0 {
                        flow.last_delivery = Some(now);
                    }
                    flow.delivered += advanced;
                    self.total_delivered += advanced;
                    self.observe(node, Observe::Consume(&packet));
                    self.apply_transport_actions(id, Role::Sink, node, actions);
                } else if !is_data && node == flow.src {
                    let SourceAgent::Tcp(sender) = &mut flow.source else {
                        return;
                    };
                    let persistent = flow.class == PERSISTENT;
                    let mut actions = self.pools.transport.pop().unwrap_or_default();
                    sender.on_ack(now, ack, &mut actions);
                    self.observe(node, Observe::Consume(&packet));
                    self.note_window(id);
                    self.apply_transport_actions(id, Role::Source, node, actions);
                    // The ACK may have been the flow's last: an app-limited
                    // sender with its whole budget acknowledged retires.
                    let done = !persistent
                        && self.flows.get(id).is_some_and(
                            |f| matches!(&f.source, SourceAgent::Tcp(s) if s.is_complete()),
                        );
                    if done {
                        self.complete_traffic_flow(id);
                    }
                } else {
                    // Wrong node or wrong direction: nothing consumes it.
                    self.observe(node, discard(DropReason::SinkDiscard));
                }
            }
            Body::Udp(d) => {
                let Some(flow) = self.flows.get_mut(d.flow) else {
                    self.observe(node, discard(DropReason::FlowTeardown));
                    return;
                };
                if node == flow.dst {
                    let SinkAgent::Udp(sink) = &mut flow.sink else {
                        return;
                    };
                    sink.on_data(d.seq);
                    flow.delivered += 1;
                    flow.last_delivery = Some(now);
                    self.total_delivered += 1;
                    self.observe(node, Observe::Consume(&packet));
                } else {
                    self.observe(node, discard(DropReason::SinkDiscard));
                }
            }
            Body::Aodv(_) => {
                // Routing messages never reach the transport layer.
            }
        }
    }

    /// ELFN: tells every local TCP sender whose flow targets `dst` that
    /// its route just failed. Only flows sourced at `node` are touched.
    fn notify_route_failure(&mut self, node: NodeId, dst: NodeId) {
        let now = self.now;
        let mut ids = std::mem::take(&mut self.pools.flow_scratch);
        ids.clear();
        self.flows.collect_tcp_src_flows(node, &mut ids);
        for id in ids.drain(..) {
            let Some(flow) = self.flows.get_mut(id) else {
                continue;
            };
            if flow.dst != dst {
                continue;
            }
            let SourceAgent::Tcp(sender) = &mut flow.source else {
                unreachable!("collected flows are TCP and sourced here");
            };
            let mut actions = self.pools.transport.pop().unwrap_or_default();
            sender.on_route_failure(now, &mut actions);
            self.apply_transport_actions(id, Role::Source, node, actions);
        }
        self.pools.flow_scratch = ids;
    }

    fn note_window(&mut self, id: FlowId) {
        let now = self.now;
        let Some(flow) = self.flows.get_mut(id) else {
            return;
        };
        let SourceAgent::Tcp(s) = &flow.source else {
            return;
        };
        let (cwnd, srtt, diff) = (s.cwnd(), s.srtt(), s.vegas_diff());
        flow.cwnd_twa.record(now, cwnd);
        let node = flow.src;
        // Fixed-point milli-packets keep the trace event `Eq`/hashable.
        self.trace_event(node, || TraceEvent::TcpCwnd {
            flow: id,
            cwnd_milli: (cwnd * 1000.0).round() as u64,
        });
        if let Some(diff) = diff {
            self.trace_event(node, || TraceEvent::TcpVegasDiff {
                flow: id,
                diff_milli: (diff * 1000.0).round() as i64,
            });
        }
        self.probe(ProbeKind::Cwnd, id.raw(), cwnd);
        if let Some(srtt) = srtt {
            self.probe(ProbeKind::Srtt, id.raw(), srtt.as_secs_f64());
        }
        if let Some(diff) = diff {
            self.probe(ProbeKind::VegasDiff, id.raw(), diff);
        }
    }

    fn apply_transport_actions(
        &mut self,
        flow: FlowId,
        role: Role,
        node: NodeId,
        mut actions: Vec<TransportAction>,
    ) {
        let now = self.now;
        for action in actions.drain(..) {
            match action {
                TransportAction::SendPacket(packet) => {
                    self.observe(node, Observe::Originate(flow, &packet));
                    let mut aodv = self.pools.aodv.pop().unwrap_or_default();
                    self.routers[node.index()].send(now, packet, &mut aodv);
                    self.apply_aodv_actions(node, aodv);
                }
                TransportAction::SetTimer { timer, delay } => {
                    let slot = &mut self.transport_timers[flow.slot() as usize][role.index()]
                        [timer.index()];
                    cancel_timer(&mut self.queue, slot);
                    *slot = Some(
                        self.queue
                            .schedule(now + delay, Event::Transport { flow, role, timer }),
                    );
                }
                TransportAction::CancelTimer(timer) => {
                    let slot = &mut self.transport_timers[flow.slot() as usize][role.index()]
                        [timer.index()];
                    cancel_timer(&mut self.queue, slot);
                }
            }
        }
        self.pools.transport.push(actions);
    }
}
