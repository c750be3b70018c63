//! The QUIC-like receiving endpoint: reassembly over two number spaces
//! and per-packet ACK-frame generation.
//!
//! The receiver tracks *packet numbers* (what it acknowledges) and
//! *stream bytes* (what it reassembles) separately — the defining
//! split of a message-oriented transport. Every data arrival triggers an
//! immediate ACK carrying the newest packet-number ranges, matching the
//! quickack regime the SUSS measurements assume on the TCP side.

use crate::frames::{QuicAckPkt, QuicDataPkt, MAX_ACK_RANGES};
use netsim::{Agent, Ctx, FlowId, LinkId, NodeId, Packet, SimTime};
use simtrace::{names, Counter, Registry};
use std::any::Any;
use suss_core::ranges::{ByteRange, RangeSet};
use suss_core::Nanos;

/// A QUIC-like receiving endpoint for one flow.
pub struct QuicReceiver {
    flow: FlowId,
    peer: Option<NodeId>,
    out: Option<LinkId>,
    /// Packet numbers seen (the acknowledgment state).
    received_pkts: RangeSet,
    /// Stream bytes reassembled.
    stream: RangeSet,
    /// Learned from the FIN-marked packet: total stream length.
    flow_bytes: Option<u64>,
    /// Time the full stream was reassembled (FCT at the receiver).
    complete_at: Option<SimTime>,
    /// Total data packets received (including spurious retransmissions).
    pub pkts_received: u64,
    /// Total ACK frames sent.
    pub acks_sent: u64,
    acks_ctr: Option<Counter>,
}

impl QuicReceiver {
    /// Create a receiver for `flow`. Call [`set_peer`](Self::set_peer) and
    /// [`set_egress`](Self::set_egress) once the topology is wired.
    pub fn new(flow: FlowId) -> Self {
        QuicReceiver {
            flow,
            peer: None,
            out: None,
            received_pkts: RangeSet::new(),
            stream: RangeSet::new(),
            flow_bytes: None,
            complete_at: None,
            pkts_received: 0,
            acks_sent: 0,
            acks_ctr: None,
        }
    }

    /// Register this receiver's counters on the simulation-wide registry.
    pub fn bind_metrics(&mut self, registry: &Registry) {
        self.acks_ctr = Some(registry.counter(names::QUIC_ACKS_SENT));
    }

    /// Wire the egress half-link ACKs travel on.
    pub fn set_egress(&mut self, link: LinkId) {
        self.out = Some(link);
    }

    /// Set the sending peer's node id.
    pub fn set_peer(&mut self, peer: NodeId) {
        self.peer = Some(peer);
    }

    /// Stream bytes received in order from offset 0.
    pub fn in_order_bytes(&self) -> u64 {
        self.stream.contiguous_end(0)
    }

    /// Time the stream finished reassembling, if it has.
    pub fn completed_at(&self) -> Option<SimTime> {
        self.complete_at
    }

    /// The newest (highest) packet-number ranges, ascending, at most
    /// [`MAX_ACK_RANGES`]. Older ranges age out of the frame exactly like
    /// TCP's 3-block SACK budget; the sender's packet threshold tolerates
    /// the resulting re-acknowledgment gaps.
    fn ack_ranges(&self) -> Vec<(u64, u64)> {
        let total = self.received_pkts.num_ranges();
        self.received_pkts
            .iter()
            .skip(total.saturating_sub(MAX_ACK_RANGES))
            .map(|r| (r.start, r.end))
            .collect()
    }

    fn send_ack(&mut self, echo_pkt: u64, echo_ts: Nanos, ctx: &mut Ctx<'_>) {
        let Some(out) = self.out else { return };
        let ranges = self.ack_ranges();
        let Some(&(_, largest_end)) = ranges.last() else {
            return;
        };
        let ack = QuicAckPkt {
            flow: self.flow,
            largest: largest_end - 1,
            ranges,
            echo_pkt,
            echo_ts,
        };
        let wire = ack.wire_bytes();
        let me = ctx.self_id();
        let peer = self.peer.expect("receiver peer not wired (call set_peer)");
        let boxed = ctx.alloc_payload(ack);
        ctx.send(
            out,
            Packet::with_boxed_payload(self.flow, me, peer, wire, boxed),
        );
        self.acks_sent += 1;
        if let Some(c) = &self.acks_ctr {
            c.inc();
        }
    }

    fn handle_data(&mut self, pkt: QuicDataPkt, ctx: &mut Ctx<'_>) {
        self.pkts_received += 1;
        let now = ctx.now();
        self.received_pkts
            .insert(ByteRange::new(pkt.pkt_num, pkt.pkt_num + 1));
        self.stream.insert(pkt.range());
        if pkt.fin {
            self.flow_bytes = Some(pkt.range().end);
        }
        if self.complete_at.is_none() {
            if let Some(total) = self.flow_bytes {
                if self.stream.contiguous_end(0) >= total {
                    self.complete_at = Some(now);
                }
            }
        }
        // Per-packet ACKing: every arrival is acknowledged immediately.
        self.send_ack(pkt.pkt_num, pkt.sent_at, ctx);
    }
}

impl Agent for QuicReceiver {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        if pkt.flow != self.flow {
            return;
        }
        if let Ok((data, _meta)) = ctx.take_payload::<QuicDataPkt>(pkt) {
            self.handle_data(data, ctx);
        }
    }

    fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx<'_>) {}

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
