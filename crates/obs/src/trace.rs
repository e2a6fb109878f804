//! Structured event tracing.
//!
//! The event loop records one [`TraceRecord`] per interesting protocol
//! event — frame transmissions, receptions, MAC outcomes, routing
//! decisions, transport milestones — into a bounded [`Ring`]. Each
//! record carries a typed [`TraceEvent`] instead of a pre-formatted
//! string, so traces can be machine-read (JSONL export, assertions on
//! variants) without parsing, and a disabled trace performs no formatting
//! or allocation at all.

use std::fmt;

use mwn_aodv::AodvDropReason;
use mwn_pkt::{FlowId, MacFrameKind, NodeId};
use mwn_sim::{SimDuration, SimTime};

use crate::json::Obj;
use crate::ring::Ring;

/// Which protocol layer produced a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceLayer {
    /// Radio / medium events.
    Phy,
    /// 802.11 DCF events.
    Mac,
    /// AODV events.
    Route,
    /// TCP / UDP events.
    Transport,
}

impl fmt::Display for TraceLayer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TraceLayer::Phy => "PHY",
            TraceLayer::Mac => "MAC",
            TraceLayer::Route => "RTR",
            TraceLayer::Transport => "TRN",
        };
        f.write_str(s)
    }
}

/// One traced protocol event, as typed data.
///
/// `Display` renders the same human-readable lines the simulator always
/// printed; [`TraceEvent::kind`] and [`TraceRecord::to_jsonl`] expose the
/// machine-readable form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// The radio finished decoding a frame intact (before any MAC-level
    /// address filtering — overheard frames count too).
    PhyRxOk,
    /// A reception ended undecodable: a collision, or a signal below the
    /// capture threshold. The MAC must use EIFS for its next deference.
    PhyCorrupt,
    /// The MAC put a frame on the air.
    MacTx {
        /// Frame type (RTS/CTS/ACK/DATA).
        kind: MacFrameKind,
        /// Link-layer destination.
        dst: NodeId,
        /// Frame size on the air.
        bytes: u32,
        /// Airtime including preamble.
        airtime: SimDuration,
        /// Duration/NAV value carried by the frame (zero for ACKs).
        nav: SimDuration,
    },
    /// The MAC armed its interframe deference timer (DIFS, or EIFS after
    /// a corrupted reception).
    MacDefer {
        /// The deference duration in nanoseconds.
        nanos: u64,
    },
    /// The MAC delivered a received packet up to the routing layer.
    MacRx {
        /// Packet uid.
        uid: u64,
        /// Link-layer sender.
        from: NodeId,
    },
    /// The MAC exhausted its retry limit and gave up on a packet.
    MacRetryExhausted {
        /// Packet uid.
        uid: u64,
        /// The unreachable next hop.
        next_hop: NodeId,
    },
    /// The interface queue was full; the packet was dropped.
    MacQueueDrop {
        /// Packet uid.
        uid: u64,
    },
    /// AODV delivered a packet to the local transport.
    RouteDeliver {
        /// Packet uid.
        uid: u64,
    },
    /// AODV installed or refreshed a sequence-numbered route (learned
    /// from an RREQ's reverse path or an RREP's forward path).
    RouteUpdate {
        /// Route destination.
        dst: NodeId,
        /// Neighbor the route forwards through.
        next_hop: NodeId,
        /// Hops to the destination.
        hop_count: u8,
        /// Destination sequence number the route was learned with.
        dst_seq: u32,
    },
    /// AODV invalidated a route (link failure or received RERR), bumping
    /// its destination sequence number.
    RouteInvalidate {
        /// Route destination.
        dst: NodeId,
        /// The sequence number after the invalidation bump.
        dst_seq: u32,
    },
    /// AODV reported a route failure to the transport (ELFN).
    RouteFailure {
        /// The destination whose route broke.
        dst: NodeId,
    },
    /// AODV dropped a packet.
    RouteDrop {
        /// Packet uid.
        uid: u64,
        /// Why it was dropped.
        reason: AodvDropReason,
    },
    /// A TCP sender emitted a data segment.
    TcpData {
        /// The flow.
        flow: FlowId,
        /// Sequence number (packet granularity).
        seq: u64,
    },
    /// A TCP sink emitted an acknowledgement.
    TcpAck {
        /// The flow.
        flow: FlowId,
        /// Cumulative ACK number (`u64::MAX` = nothing received yet,
        /// rendered as `-1`).
        ack: u64,
    },
    /// A paced-UDP source emitted a CBR packet.
    UdpData {
        /// The flow.
        flow: FlowId,
        /// Sequence number.
        seq: u64,
    },
    /// A TCP sender's congestion window changed (sampled on every window
    /// update). Fixed-point milli-packets so the event stays `Eq`.
    TcpCwnd {
        /// The flow.
        flow: FlowId,
        /// `cwnd` in units of 1/1000 packet.
        cwnd_milli: u64,
    },
    /// A Vegas sender's `diff = cwnd · (1 − baseRTT/RTT)` signal.
    /// Fixed-point milli-packets, signed so negative excursions (which
    /// the checker flags) are representable.
    TcpVegasDiff {
        /// The flow.
        flow: FlowId,
        /// `diff` in units of 1/1000 packet.
        diff_milli: i64,
    },
    /// An open-loop traffic flow was admitted to the flow table (recorded
    /// at the source node).
    FlowOpen {
        /// The slot+generation flow id.
        flow: FlowId,
        /// Source node.
        src: NodeId,
        /// Destination node.
        dst: NodeId,
        /// Request size, data packets.
        packets: u64,
    },
    /// An open-loop traffic transaction completed: the last leg's final
    /// ACK arrived (recorded at the node that initiated the transaction).
    FlowClose {
        /// The slot+generation flow id of the finishing leg.
        flow: FlowId,
        /// Total packets moved across all legs of the transaction.
        packets: u64,
        /// Flow completion time (arrival to last ACK), nanoseconds.
        fct_nanos: u64,
    },
}

impl TraceEvent {
    /// The layer that produces this event.
    pub fn layer(&self) -> TraceLayer {
        match self {
            TraceEvent::PhyRxOk | TraceEvent::PhyCorrupt => TraceLayer::Phy,
            TraceEvent::MacTx { .. }
            | TraceEvent::MacDefer { .. }
            | TraceEvent::MacRx { .. }
            | TraceEvent::MacRetryExhausted { .. }
            | TraceEvent::MacQueueDrop { .. } => TraceLayer::Mac,
            TraceEvent::RouteDeliver { .. }
            | TraceEvent::RouteUpdate { .. }
            | TraceEvent::RouteInvalidate { .. }
            | TraceEvent::RouteFailure { .. }
            | TraceEvent::RouteDrop { .. } => TraceLayer::Route,
            TraceEvent::TcpData { .. }
            | TraceEvent::TcpAck { .. }
            | TraceEvent::UdpData { .. }
            | TraceEvent::TcpCwnd { .. }
            | TraceEvent::TcpVegasDiff { .. }
            | TraceEvent::FlowOpen { .. }
            | TraceEvent::FlowClose { .. } => TraceLayer::Transport,
        }
    }

    /// Stable machine-readable discriminant, used as the JSONL `event`
    /// field.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::PhyRxOk => "phy_rx_ok",
            TraceEvent::PhyCorrupt => "phy_corrupt",
            TraceEvent::MacTx { .. } => "mac_tx",
            TraceEvent::MacDefer { .. } => "mac_defer",
            TraceEvent::MacRx { .. } => "mac_rx",
            TraceEvent::MacRetryExhausted { .. } => "mac_retry_drop",
            TraceEvent::MacQueueDrop { .. } => "mac_queue_drop",
            TraceEvent::RouteDeliver { .. } => "route_deliver",
            TraceEvent::RouteUpdate { .. } => "route_update",
            TraceEvent::RouteInvalidate { .. } => "route_invalidate",
            TraceEvent::RouteFailure { .. } => "route_failure",
            TraceEvent::RouteDrop { .. } => "route_drop",
            TraceEvent::TcpData { .. } => "tcp_data",
            TraceEvent::TcpAck { .. } => "tcp_ack",
            TraceEvent::UdpData { .. } => "udp_data",
            TraceEvent::TcpCwnd { .. } => "tcp_cwnd",
            TraceEvent::TcpVegasDiff { .. } => "tcp_vegas_diff",
            TraceEvent::FlowOpen { .. } => "flow_open",
            TraceEvent::FlowClose { .. } => "flow_close",
        }
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::PhyRxOk => write!(f, "decoded a frame intact"),
            TraceEvent::PhyCorrupt => write!(f, "reception corrupted (EIFS next)"),
            TraceEvent::MacTx {
                kind,
                dst,
                bytes,
                airtime,
                ..
            } => write!(f, "TX {kind:?} -> {dst} ({bytes} B, {airtime})"),
            TraceEvent::MacDefer { nanos } => {
                write!(f, "defer {}", SimDuration::from_nanos(*nanos))
            }
            TraceEvent::MacRx { uid, from } => write!(f, "RX packet uid={uid} from {from}"),
            TraceEvent::MacRetryExhausted { uid, next_hop } => {
                write!(f, "retry limit: giving up uid={uid} -> {next_hop}")
            }
            TraceEvent::MacQueueDrop { uid } => write!(f, "queue full: dropped uid={uid}"),
            TraceEvent::RouteDeliver { uid } => write!(f, "deliver uid={uid} to transport"),
            TraceEvent::RouteUpdate {
                dst,
                next_hop,
                hop_count,
                dst_seq,
            } => write!(
                f,
                "route {dst} via {next_hop} hops={hop_count} seq={dst_seq}"
            ),
            TraceEvent::RouteInvalidate { dst, dst_seq } => {
                write!(f, "route {dst} invalidated seq={dst_seq}")
            }
            TraceEvent::RouteFailure { dst } => write!(f, "ELFN: route to {dst} failed"),
            TraceEvent::RouteDrop { uid, reason } => write!(f, "drop uid={uid}: {reason:?}"),
            TraceEvent::TcpData { flow, seq } => write!(f, "{flow} send seq={seq}"),
            TraceEvent::TcpAck { flow, ack } => write!(f, "{flow} send ack={}", *ack as i64),
            TraceEvent::TcpCwnd { flow, cwnd_milli } => {
                write!(
                    f,
                    "{flow} cwnd={}.{:03}",
                    cwnd_milli / 1000,
                    cwnd_milli % 1000
                )
            }
            TraceEvent::TcpVegasDiff { flow, diff_milli } => {
                let sign = if *diff_milli < 0 { "-" } else { "" };
                let mag = diff_milli.unsigned_abs();
                write!(
                    f,
                    "{flow} vegas diff={sign}{}.{:03}",
                    mag / 1000,
                    mag % 1000
                )
            }
            TraceEvent::UdpData { flow, seq } => write!(f, "{flow} send cbr seq={seq}"),
            TraceEvent::FlowOpen {
                flow,
                src,
                dst,
                packets,
            } => write!(f, "{flow} open {src} -> {dst} ({packets} pkts)"),
            TraceEvent::FlowClose {
                flow,
                packets,
                fct_nanos,
            } => write!(
                f,
                "{flow} close ({packets} pkts, fct {})",
                SimDuration::from_nanos(*fct_nanos)
            ),
        }
    }
}

/// One traced protocol event with its time and place.
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// When it happened.
    pub time: SimTime,
    /// The node it happened at.
    pub node: NodeId,
    /// What happened.
    pub event: TraceEvent,
}

impl TraceRecord {
    /// The layer that produced this record.
    pub fn layer(&self) -> TraceLayer {
        self.event.layer()
    }

    /// Serializes the record as one JSON line (fixed field order: `t`,
    /// `node`, `layer`, `event`, then the event's own fields).
    pub fn to_jsonl(&self) -> String {
        let head = Obj::new()
            .f64("t", self.time.as_secs_f64())
            .u64("node", u64::from(self.node.raw()))
            .str("layer", &self.layer().to_string())
            .str("event", self.event.kind());
        match self.event {
            TraceEvent::PhyRxOk => head,
            TraceEvent::PhyCorrupt => head,
            TraceEvent::MacTx {
                kind,
                dst,
                bytes,
                airtime,
                nav,
            } => head
                .str("kind", &format!("{kind:?}"))
                .u64("dst", u64::from(dst.raw()))
                .u64("bytes", u64::from(bytes))
                .f64("airtime_s", airtime.as_secs_f64())
                .f64("nav_s", nav.as_secs_f64()),
            TraceEvent::MacDefer { nanos } => head.u64("nanos", nanos),
            TraceEvent::MacRx { uid, from } => {
                head.u64("uid", uid).u64("from", u64::from(from.raw()))
            }
            TraceEvent::MacRetryExhausted { uid, next_hop } => head
                .u64("uid", uid)
                .u64("next_hop", u64::from(next_hop.raw())),
            TraceEvent::MacQueueDrop { uid } => head.u64("uid", uid),
            TraceEvent::RouteDeliver { uid } => head.u64("uid", uid),
            TraceEvent::RouteUpdate {
                dst,
                next_hop,
                hop_count,
                dst_seq,
            } => head
                .u64("dst", u64::from(dst.raw()))
                .u64("next_hop", u64::from(next_hop.raw()))
                .u64("hops", u64::from(hop_count))
                .u64("seq", u64::from(dst_seq)),
            TraceEvent::RouteInvalidate { dst, dst_seq } => head
                .u64("dst", u64::from(dst.raw()))
                .u64("seq", u64::from(dst_seq)),
            TraceEvent::RouteFailure { dst } => head.u64("dst", u64::from(dst.raw())),
            TraceEvent::RouteDrop { uid, reason } => {
                head.u64("uid", uid).str("reason", &format!("{reason:?}"))
            }
            TraceEvent::TcpData { flow, seq } => {
                head.u64("flow", u64::from(flow.raw())).u64("seq", seq)
            }
            TraceEvent::TcpAck { flow, ack } => head
                .u64("flow", u64::from(flow.raw()))
                .raw("ack", &(ack as i64).to_string()),
            TraceEvent::TcpCwnd { flow, cwnd_milli } => head
                .u64("flow", u64::from(flow.raw()))
                .u64("cwnd_milli", cwnd_milli),
            TraceEvent::TcpVegasDiff { flow, diff_milli } => head
                .u64("flow", u64::from(flow.raw()))
                .raw("diff_milli", &diff_milli.to_string()),
            TraceEvent::UdpData { flow, seq } => {
                head.u64("flow", u64::from(flow.raw())).u64("seq", seq)
            }
            TraceEvent::FlowOpen {
                flow,
                src,
                dst,
                packets,
            } => head
                .u64("flow", u64::from(flow.raw()))
                .u64("src", u64::from(src.raw()))
                .u64("dst", u64::from(dst.raw()))
                .u64("packets", packets),
            TraceEvent::FlowClose {
                flow,
                packets,
                fct_nanos,
            } => head
                .u64("flow", u64::from(flow.raw()))
                .u64("packets", packets)
                .u64("fct_nanos", fct_nanos),
        }
        .finish()
    }
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:>12.6}s {:>5} {} {}",
            self.time.as_secs_f64(),
            self.node.to_string(),
            self.layer(),
            self.event
        )
    }
}

/// Bounded ring buffer of trace records.
pub type TraceBuffer = Ring<TraceRecord>;

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(ns: u64, uid: u64) -> TraceRecord {
        TraceRecord {
            time: SimTime::from_nanos(ns),
            node: NodeId(1),
            event: TraceEvent::MacRx {
                uid,
                from: NodeId(0),
            },
        }
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let mut b = TraceBuffer::new(2);
        b.push(rec(1, 10));
        b.push(rec(2, 11));
        b.push(rec(3, 12));
        let uids: Vec<u64> = b
            .iter()
            .map(|r| match r.event {
                TraceEvent::MacRx { uid, .. } => uid,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(uids, vec![11, 12]);
        assert_eq!(b.dropped(), 1);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn ring_buffer_never_exceeds_capacity() {
        let mut b = TraceBuffer::new(3);
        for i in 0..100 {
            b.push(rec(i, i));
            assert!(b.len() <= 3, "len {} exceeded capacity", b.len());
        }
        assert_eq!(b.len(), 3);
        assert_eq!(b.dropped(), 97);
        // The survivors are the newest three, in order.
        let times: Vec<u64> = b.iter().map(|r| r.time.as_nanos()).collect();
        assert_eq!(times, vec![97, 98, 99]);
    }

    #[test]
    fn dropped_accounting_across_wrap_boundary() {
        let mut b = TraceBuffer::new(4);
        // Fill exactly to capacity: nothing dropped yet.
        for i in 0..4 {
            b.push(rec(i, i));
        }
        assert_eq!(b.dropped(), 0);
        assert_eq!(b.len(), 4);
        // Each push past capacity evicts exactly one record, so after k
        // wraps len + dropped equals the total ever pushed.
        for i in 4..23 {
            b.push(rec(i, i));
            assert_eq!(b.dropped() + b.len() as u64, i + 1);
        }
        assert_eq!(b.dropped(), 19);
        let times: Vec<u64> = b.iter().map(|r| r.time.as_nanos()).collect();
        assert_eq!(times, vec![19, 20, 21, 22]);
    }

    #[test]
    fn display_formats_layers() {
        let r = TraceRecord {
            time: SimTime::from_nanos(1_500_000),
            node: NodeId(1),
            event: TraceEvent::MacRetryExhausted {
                uid: 9,
                next_hop: NodeId(2),
            },
        };
        let s = r.to_string();
        assert!(s.contains("MAC"));
        assert!(s.contains("giving up uid=9 -> n2"));
        assert!(s.contains("0.001500s"));
    }

    #[test]
    fn events_map_to_layers() {
        let ev = TraceEvent::RouteFailure { dst: NodeId(3) };
        assert_eq!(ev.layer(), TraceLayer::Route);
        assert_eq!(ev.kind(), "route_failure");
        let ev = TraceEvent::TcpData {
            flow: FlowId(0),
            seq: 4,
        };
        assert_eq!(ev.layer(), TraceLayer::Transport);
    }

    #[test]
    fn jsonl_is_machine_readable() {
        let r = TraceRecord {
            time: SimTime::from_nanos(2_000_000_000),
            node: NodeId(4),
            event: TraceEvent::TcpAck {
                flow: FlowId(1),
                ack: u64::MAX,
            },
        };
        let line = r.to_jsonl();
        assert_eq!(
            line,
            r#"{"t":2,"node":4,"layer":"TRN","event":"tcp_ack","flow":1,"ack":-1}"#
        );
    }

    #[test]
    fn no_ack_sentinel_displays_as_minus_one() {
        let ev = TraceEvent::TcpAck {
            flow: FlowId(0),
            ack: u64::MAX,
        };
        assert_eq!(ev.to_string(), "f0 send ack=-1");
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        TraceBuffer::new(0);
    }

    #[test]
    fn phy_events_map_and_serialize() {
        assert_eq!(TraceEvent::PhyRxOk.layer(), TraceLayer::Phy);
        assert_eq!(TraceEvent::PhyCorrupt.layer(), TraceLayer::Phy);
        let r = TraceRecord {
            time: SimTime::from_nanos(500),
            node: NodeId(2),
            event: TraceEvent::PhyCorrupt,
        };
        assert_eq!(
            r.to_jsonl(),
            r#"{"t":0.0000005,"node":2,"layer":"PHY","event":"phy_corrupt"}"#
        );
    }

    #[test]
    fn route_update_serializes_all_fields() {
        let r = TraceRecord {
            time: SimTime::from_nanos(1_000_000_000),
            node: NodeId(1),
            event: TraceEvent::RouteUpdate {
                dst: NodeId(4),
                next_hop: NodeId(2),
                hop_count: 3,
                dst_seq: 7,
            },
        };
        assert_eq!(
            r.to_jsonl(),
            r#"{"t":1,"node":1,"layer":"RTR","event":"route_update","dst":4,"next_hop":2,"hops":3,"seq":7}"#
        );
        assert_eq!(r.event.to_string(), "route n4 via n2 hops=3 seq=7");
    }

    #[test]
    fn milli_fixed_point_events_display_and_serialize() {
        let cwnd = TraceEvent::TcpCwnd {
            flow: FlowId(0),
            cwnd_milli: 2500,
        };
        assert_eq!(cwnd.to_string(), "f0 cwnd=2.500");
        let diff = TraceEvent::TcpVegasDiff {
            flow: FlowId(0),
            diff_milli: -250,
        };
        assert_eq!(diff.to_string(), "f0 vegas diff=-0.250");
        let r = TraceRecord {
            time: SimTime::from_nanos(0),
            node: NodeId(0),
            event: diff,
        };
        assert_eq!(
            r.to_jsonl(),
            r#"{"t":0,"node":0,"layer":"TRN","event":"tcp_vegas_diff","flow":0,"diff_milli":-250}"#
        );
    }

    #[test]
    fn flow_lifecycle_events_display_and_serialize() {
        let open = TraceEvent::FlowOpen {
            flow: FlowId::from_parts(3, 2),
            src: NodeId(1),
            dst: NodeId(4),
            packets: 8,
        };
        assert_eq!(open.layer(), TraceLayer::Transport);
        assert_eq!(open.kind(), "flow_open");
        let r = TraceRecord {
            time: SimTime::from_nanos(1_000_000_000),
            node: NodeId(1),
            event: open,
        };
        assert_eq!(
            r.to_jsonl(),
            format!(
                r#"{{"t":1,"node":1,"layer":"TRN","event":"flow_open","flow":{},"src":1,"dst":4,"packets":8}}"#,
                FlowId::from_parts(3, 2).raw()
            )
        );
        let close = TraceEvent::FlowClose {
            flow: FlowId::from_parts(3, 2),
            packets: 9,
            fct_nanos: 2_500_000,
        };
        assert_eq!(close.kind(), "flow_close");
        assert!(close.to_string().contains("close (9 pkts"));
    }

    #[test]
    fn mac_defer_roundtrips_duration() {
        let ev = TraceEvent::MacDefer { nanos: 364_000 };
        assert_eq!(ev.kind(), "mac_defer");
        assert_eq!(ev.layer(), TraceLayer::Mac);
        let r = TraceRecord {
            time: SimTime::from_nanos(10),
            node: NodeId(3),
            event: ev,
        };
        assert!(r.to_jsonl().contains(r#""nanos":364000"#));
    }
}
