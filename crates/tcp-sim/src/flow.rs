//! Convenience wiring: install a sender/receiver pair into a simulation.

use crate::receiver::{AckPolicy, ReceiverEndpoint};
use crate::sender::{SenderConfig, SenderEndpoint};
use netsim::{FlowId, LinkId, NodeId, Sim};
use suss_core::cc::CongestionControl;

/// Handles to an installed flow's endpoints.
#[derive(Debug, Clone, Copy)]
pub struct FlowEnds {
    /// The flow id.
    pub flow: FlowId,
    /// Node id of the sending endpoint (`SenderEndpoint`).
    pub sender: NodeId,
    /// Node id of the receiving endpoint (`ReceiverEndpoint`).
    pub receiver: NodeId,
}

/// Register a sender/receiver pair for one flow and cross-wire their peer
/// ids. Egress links must still be wired after topology construction with
/// [`wire_flow`].
pub fn install_flow(
    sim: &mut Sim,
    flow: FlowId,
    cfg: SenderConfig,
    cc: Box<dyn CongestionControl>,
    policy: AckPolicy,
) -> FlowEnds {
    let sender = sim.add_agent(Box::new(SenderEndpoint::new(cfg, flow, cc)));
    let receiver = sim.add_agent(Box::new(ReceiverEndpoint::new(flow, policy)));
    let registry = sim.metrics().clone();
    sim.agent_mut::<SenderEndpoint>(sender)
        .bind_metrics(&registry);
    sim.agent_mut::<SenderEndpoint>(sender).set_peer(receiver);
    sim.agent_mut::<ReceiverEndpoint>(receiver).set_peer(sender);
    FlowEnds {
        flow,
        sender,
        receiver,
    }
}

/// Wire each endpoint's egress half-link (sender→network, receiver→network).
pub fn wire_flow(sim: &mut Sim, ends: FlowEnds, sender_egress: LinkId, receiver_egress: LinkId) {
    sim.agent_mut::<SenderEndpoint>(ends.sender)
        .set_egress(sender_egress);
    sim.agent_mut::<ReceiverEndpoint>(ends.receiver)
        .set_egress(receiver_egress);
}

/// Install a new flow into the *retired* endpoint slots of an earlier one
/// (the spawn half of dynamic flow lifecycle): node ids, attached links,
/// and routes are reused, so per-flow memory stays O(concurrent flows)
/// however many flows a workload generates. Both slots must have been
/// emptied with [`Sim::retire_agent`] first; in-flight events addressed
/// to the old occupants die as orphans, and stale packets are further
/// filtered by the (strictly increasing) flow id.
pub fn respawn_flow(
    sim: &mut Sim,
    slots: FlowEnds,
    flow: FlowId,
    cfg: SenderConfig,
    cc: Box<dyn CongestionControl>,
    policy: AckPolicy,
) -> FlowEnds {
    let ends = FlowEnds {
        flow,
        sender: slots.sender,
        receiver: slots.receiver,
    };
    sim.install_agent_at(ends.sender, Box::new(SenderEndpoint::new(cfg, flow, cc)));
    sim.install_agent_at(ends.receiver, Box::new(ReceiverEndpoint::new(flow, policy)));
    let registry = sim.metrics().clone();
    sim.agent_mut::<SenderEndpoint>(ends.sender)
        .bind_metrics(&registry);
    sim.agent_mut::<SenderEndpoint>(ends.sender)
        .set_peer(ends.receiver);
    sim.agent_mut::<ReceiverEndpoint>(ends.receiver)
        .set_peer(ends.sender);
    ends
}

/// Tear a flow down: retire both endpoint agents, freeing their state and
/// invalidating their pending timers, and return the receiver's completion
/// instant (`None` if the flow never finished). Read any per-flow stats
/// you need via [`Sim::agent`] *before* calling this; aggregate stats
/// survive in the simulation's metric registry.
pub fn teardown_flow(sim: &mut Sim, ends: FlowEnds) -> Option<netsim::SimTime> {
    let completed_at = sim.agent::<ReceiverEndpoint>(ends.receiver).completed_at();
    drop(sim.retire_agent(ends.sender));
    drop(sim.retire_agent(ends.receiver));
    completed_at
}

/// Whether the flow has completed (receiver has the full byte stream).
pub fn flow_complete(sim: &Sim, ends: FlowEnds) -> bool {
    sim.agent::<ReceiverEndpoint>(ends.receiver)
        .completed_at()
        .is_some()
}
