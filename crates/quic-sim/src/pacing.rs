//! Pluggable pacing strategies over the shared token-bucket pacer.
//!
//! "QUIC Steps" (PAPERS.md) shows that *how* a QUIC stack spaces its
//! departures — not just the rate — materially changes slow-start
//! behavior: implementations variously pace every packet, release short
//! bursts, or wake on a coarse timer and emit a whole chunk. This module
//! reifies those three shapes behind one interface so the `ext_quic_pacing`
//! campaign can hold everything else fixed and vary only the strategy:
//!
//! * [`PacingStrategy::PerPacket`] — a token bucket with a single-packet
//!   burst: departures are spread at the pacing rate, one by one.
//! * [`PacingStrategy::Burst`] — the same bucket with an N-packet burst
//!   allowance (GSO/quantum-style): short trains go out back to back,
//!   longer ones are spread.
//! * [`PacingStrategy::Chunked`] — interval-timer pacing: each interval
//!   opens a budget of `rate × interval` bytes that is spent as fast as
//!   the link accepts it, then the sender sleeps until the next boundary.
//!   Unused budget is discarded (that is what makes it bursty); overdraft
//!   carries forward so a budget smaller than one packet still makes
//!   progress without exceeding the long-run rate.
//!
//! Per-packet and burst-N are literally the transport-neutral
//! [`suss_core::Pacer`] with different burst allowances; chunked
//! quantizes release times onto an interval grid. A rate of `None` always
//! means unlimited (pure ACK clocking).

use std::time::Duration;
use suss_core::{Nanos, Pacer};

/// How departures are spaced once a pacing rate is known.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacingStrategy {
    /// Token bucket, one-packet burst: every packet individually spaced.
    PerPacket,
    /// Token bucket with an `n`-packet burst allowance.
    Burst(u32),
    /// Interval-timer pacing: release `rate × interval` bytes per tick.
    Chunked(Duration),
}

impl PacingStrategy {
    /// Stable label for cell names and tables (`per-packet`, `burst8`,
    /// `chunk5ms`).
    pub fn label(&self) -> String {
        match self {
            PacingStrategy::PerPacket => "per-packet".into(),
            PacingStrategy::Burst(n) => format!("burst{n}"),
            PacingStrategy::Chunked(d) => format!("chunk{}ms", d.as_millis()),
        }
    }

    /// The three shapes the QUIC-Steps comparison exercises, with the
    /// defaults used by the `ext_quic_pacing` campaign.
    pub fn matrix() -> [PacingStrategy; 3] {
        [
            PacingStrategy::PerPacket,
            PacingStrategy::Burst(8),
            PacingStrategy::Chunked(Duration::from_millis(5)),
        ]
    }
}

/// A strategy-shaped pacer: the sender's single gate for departures.
#[derive(Debug, Clone)]
pub struct QuicPacer {
    strategy: PacingStrategy,
    /// Full-size packet wire bytes: the burst quantum.
    mtu: u64,
    /// Token bucket backing `PerPacket`/`Burst` (unused for `Chunked`).
    bucket: Pacer,
    // Chunked state.
    rate: Option<f64>,
    interval_ns: u64,
    /// Bytes remaining in the open chunk (may overdraft below zero).
    credit: f64,
    /// When the next chunk opens.
    chunk_next: Nanos,
}

impl QuicPacer {
    /// A pacer for the given strategy and full-packet wire size. Starts
    /// unlimited (no rate).
    pub fn new(strategy: PacingStrategy, mtu: u64) -> Self {
        let burst = match strategy {
            PacingStrategy::PerPacket => mtu,
            PacingStrategy::Burst(n) => u64::from(n.max(1)) * mtu,
            PacingStrategy::Chunked(_) => mtu,
        };
        let interval_ns = match strategy {
            PacingStrategy::Chunked(d) => (d.as_nanos() as u64).max(1),
            _ => 0,
        };
        QuicPacer {
            strategy,
            mtu,
            bucket: Pacer::unlimited(burst),
            rate: None,
            interval_ns,
            credit: 0.0,
            chunk_next: 0,
        }
    }

    /// The configured strategy.
    pub fn strategy(&self) -> PacingStrategy {
        self.strategy
    }

    /// Current rate in bytes per second, if limited.
    pub fn rate(&self) -> Option<f64> {
        match self.strategy {
            PacingStrategy::Chunked(_) => self.rate,
            _ => self.bucket.rate(),
        }
    }

    /// Set or change the pacing rate (`None` = unlimited).
    pub fn set_rate(&mut self, now: Nanos, rate: Option<f64>) {
        match self.strategy {
            PacingStrategy::Chunked(_) => {
                if self.rate.is_none() && rate.is_some() {
                    // First chunk opens immediately with one interval's
                    // budget; the grid anchors here.
                    self.credit = 0.0;
                    self.chunk_next = now;
                }
                self.rate = rate;
            }
            _ => self.bucket.set_rate(now, rate),
        }
    }

    fn chunk_reopen(&mut self, now: Nanos) {
        if now >= self.chunk_next {
            if let Some(rate) = self.rate {
                let budget = rate * self.interval_ns as f64 / 1e9;
                // Surplus is discarded (chunked pacing does not bank
                // idle credit); overdraft carries so the long-run rate
                // stays bounded even when budget < one packet.
                self.credit = budget + self.credit.min(0.0);
                self.chunk_next = now + self.interval_ns;
            }
        }
    }

    /// Whether `bytes` may depart at `now`.
    pub fn can_send(&mut self, now: Nanos, bytes: u64) -> bool {
        match self.strategy {
            PacingStrategy::Chunked(_) => {
                if self.rate.is_none() {
                    return true;
                }
                self.chunk_reopen(now);
                self.credit > 0.0 || bytes == 0
            }
            _ => self.bucket.can_send(now, bytes),
        }
    }

    /// Account for a departure of `bytes` at `now`.
    pub fn on_sent(&mut self, now: Nanos, bytes: u64) {
        match self.strategy {
            PacingStrategy::Chunked(_) => {
                if self.rate.is_some() {
                    self.chunk_reopen(now);
                    self.credit -= bytes as f64;
                }
            }
            _ => self.bucket.on_sent(now, bytes),
        }
    }

    /// The earliest time `bytes` could depart. Returns `now` when sending
    /// is already allowed.
    pub fn next_send_time(&mut self, now: Nanos, bytes: u64) -> Nanos {
        match self.strategy {
            PacingStrategy::Chunked(_) => {
                if self.can_send(now, bytes) {
                    now
                } else {
                    self.chunk_next.max(now + 1)
                }
            }
            _ => self.bucket.next_send_time(now, bytes),
        }
    }

    /// Full-size packet wire bytes (the burst quantum).
    pub fn mtu(&self) -> u64 {
        self.mtu
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MTU: u64 = 1_500;

    fn drain(p: &mut QuicPacer, horizon: Nanos) -> u64 {
        let mut t: Nanos = 0;
        let mut sent = 0;
        while t < horizon {
            if p.can_send(t, MTU) {
                p.on_sent(t, MTU);
                sent += MTU;
            }
            t = p.next_send_time(t, MTU).max(t + 1);
        }
        sent
    }

    #[test]
    fn all_strategies_unlimited_by_default() {
        for s in PacingStrategy::matrix() {
            let mut p = QuicPacer::new(s, MTU);
            assert!(p.can_send(0, u64::MAX), "{s:?}");
            assert_eq!(p.next_send_time(5, MTU), 5, "{s:?}");
        }
    }

    #[test]
    fn per_packet_spreads_departures() {
        let mut p = QuicPacer::new(PacingStrategy::PerPacket, MTU);
        p.set_rate(0, Some(1_500_000.0)); // one MTU per ms
        assert!(p.can_send(0, MTU));
        p.on_sent(0, MTU);
        assert!(!p.can_send(0, MTU), "second packet must wait");
        assert_eq!(p.next_send_time(0, MTU), 1_000_000);
    }

    #[test]
    fn burst_allows_n_back_to_back() {
        let mut p = QuicPacer::new(PacingStrategy::Burst(4), MTU);
        p.set_rate(0, Some(1_500_000.0));
        for i in 0..4 {
            assert!(p.can_send(0, MTU), "packet {i} fits the burst");
            p.on_sent(0, MTU);
        }
        assert!(!p.can_send(0, MTU), "fifth packet must wait");
    }

    #[test]
    fn chunked_releases_budget_per_interval() {
        let mut p = QuicPacer::new(PacingStrategy::Chunked(Duration::from_millis(5)), MTU);
        p.set_rate(0, Some(1_500_000.0)); // 5 ms chunk = 7_500 B = 5 MTU
        let mut burst = 0;
        while p.can_send(0, MTU) {
            p.on_sent(0, MTU);
            burst += 1;
        }
        assert_eq!(burst, 5, "one interval's budget departs at once");
        assert_eq!(p.next_send_time(0, MTU), 5_000_000, "sleep to the grid");
        assert!(p.can_send(5_000_000, MTU));
    }

    #[test]
    fn chunked_discards_idle_surplus() {
        let mut p = QuicPacer::new(PacingStrategy::Chunked(Duration::from_millis(5)), MTU);
        p.set_rate(0, Some(1_500_000.0));
        // Idle across many intervals: the next chunk still holds one
        // interval's budget, not the banked sum.
        let mut burst = 0;
        while p.can_send(50_000_000, MTU) {
            p.on_sent(50_000_000, MTU);
            burst += 1;
        }
        assert_eq!(burst, 5);
    }

    #[test]
    fn all_strategies_converge_to_rate() {
        // 1.5 MB/s for 100 ms ≈ 150 kB, whatever the shape.
        for s in PacingStrategy::matrix() {
            let mut p = QuicPacer::new(s, MTU);
            p.set_rate(0, Some(1_500_000.0));
            let sent = drain(&mut p, 100_000_000);
            assert!(
                (135_000..=165_500).contains(&sent),
                "{s:?} sent {sent} in 100 ms"
            );
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(PacingStrategy::PerPacket.label(), "per-packet");
        assert_eq!(PacingStrategy::Burst(8).label(), "burst8");
        assert_eq!(
            PacingStrategy::Chunked(Duration::from_millis(5)).label(),
            "chunk5ms"
        );
    }
}
