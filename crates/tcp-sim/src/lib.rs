//! # tcp-sim — a userspace TCP-like transport on the netsim simulator
//!
//! A byte-accurate, deterministic transport model implementing the sender
//! machinery SUSS lives in: cwnd-driven transmission with pluggable
//! congestion control, ACK clocking, token-bucket pacing, RFC 6298 RTT/RTO,
//! fast retransmit with a SACK scoreboard, and NewReno-style recovery.
//!
//! The congestion-control interface ([`suss_core::cc::CongestionControl`])
//! mirrors the controller traits of userspace QUIC stacks (e.g. quinn),
//! which is the reproduction target suggested for this paper. It lives in
//! `suss-core` with the other transport-neutral pieces this crate uses
//! (RTT estimator, range sets, pacer, connection trace), so the QUIC-like
//! `quic-sim` transport shares them without depending on this crate.
//!
//! ## Example
//!
//! ```
//! use netsim::{Sim, Bandwidth, LinkSpec, FlowId, SimTime};
//! use tcp_sim::flow::{install_flow, wire_flow};
//! use tcp_sim::sender::{SenderConfig, SenderEndpoint};
//! use tcp_sim::receiver::AckPolicy;
//! use tcp_sim::cc::BasicSlowStart;
//! use std::time::Duration;
//!
//! let mut sim = Sim::new(7);
//! let ends = install_flow(
//!     &mut sim,
//!     FlowId(1),
//!     SenderConfig::bulk(100_000),
//!     Box::new(BasicSlowStart::new(14_480, 1_448)),
//!     AckPolicy::default(),
//! );
//! // Direct back-to-back links (no router) for a smoke test.
//! let spec = LinkSpec::clean(Bandwidth::from_mbps(10), Duration::from_millis(10));
//! let (s2r, r2s) = sim.add_link(ends.sender, ends.receiver, spec.clone(), spec);
//! wire_flow(&mut sim, ends, s2r, r2s);
//! sim.run_until(SimTime::from_secs(10));
//! assert!(sim.agent::<SenderEndpoint>(ends.sender).is_done());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cc;
pub mod flow;
pub mod receiver;
pub mod segment;
pub mod sender;

/// Kept at this path because the frozen `perfbench` harness imports
/// `tcp_sim::ranges::{ByteRange, RangeSet}`.
pub mod ranges {
    pub use suss_core::ranges::{ByteRange, RangeSet};
}

pub use flow::{flow_complete, install_flow, wire_flow, FlowEnds};
pub use receiver::{AckPolicy, ReceiverEndpoint};
pub use segment::{AckSeg, DataSeg};
pub use sender::{FlowStats, SenderConfig, SenderEndpoint};
