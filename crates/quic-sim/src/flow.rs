//! Convenience wiring: install a QUIC sender/receiver pair into a
//! simulation (the message-oriented twin of `tcp-sim`'s `flow` module).

use crate::receiver::QuicReceiver;
use crate::sender::{QuicConfig, QuicSender};
use cc_algos::QuicAdapter;
use netsim::{FlowId, LinkId, NodeId, Sim};

/// Handles to an installed QUIC flow's endpoints.
#[derive(Debug, Clone, Copy)]
pub struct QuicFlowEnds {
    /// The flow id.
    pub flow: FlowId,
    /// Node id of the sending endpoint (`QuicSender`).
    pub sender: NodeId,
    /// Node id of the receiving endpoint (`QuicReceiver`).
    pub receiver: NodeId,
}

/// Register a QUIC sender/receiver pair for one flow and cross-wire their
/// peer ids. Egress links must still be wired after topology construction
/// with [`wire_quic_flow`].
pub fn install_quic_flow(
    sim: &mut Sim,
    flow: FlowId,
    cfg: QuicConfig,
    cc: QuicAdapter,
) -> QuicFlowEnds {
    let sender = sim.add_agent(Box::new(QuicSender::new(cfg, flow, cc)));
    let receiver = sim.add_agent(Box::new(QuicReceiver::new(flow)));
    let registry = sim.metrics().clone();
    sim.agent_mut::<QuicSender>(sender).bind_metrics(&registry);
    sim.agent_mut::<QuicReceiver>(receiver)
        .bind_metrics(&registry);
    sim.agent_mut::<QuicSender>(sender).set_peer(receiver);
    sim.agent_mut::<QuicReceiver>(receiver).set_peer(sender);
    QuicFlowEnds {
        flow,
        sender,
        receiver,
    }
}

/// Wire each endpoint's egress half-link (sender→network, receiver→network).
pub fn wire_quic_flow(
    sim: &mut Sim,
    ends: QuicFlowEnds,
    sender_egress: LinkId,
    receiver_egress: LinkId,
) {
    sim.agent_mut::<QuicSender>(ends.sender)
        .set_egress(sender_egress);
    sim.agent_mut::<QuicReceiver>(ends.receiver)
        .set_egress(receiver_egress);
}

/// Whether the flow has completed (receiver holds the full stream).
pub fn quic_flow_complete(sim: &Sim, ends: QuicFlowEnds) -> bool {
    sim.agent::<QuicReceiver>(ends.receiver)
        .completed_at()
        .is_some()
}

/// Tear a QUIC flow down: retire both endpoint agents and return the
/// receiver's completion instant (`None` if the flow never finished).
pub fn teardown_quic_flow(sim: &mut Sim, ends: QuicFlowEnds) -> Option<netsim::SimTime> {
    let completed_at = sim.agent::<QuicReceiver>(ends.receiver).completed_at();
    drop(sim.retire_agent(ends.sender));
    drop(sim.retire_agent(ends.receiver));
    completed_at
}
