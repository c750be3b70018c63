//! RTT estimation and retransmission-timeout computation (RFC 6298).

use std::time::Duration;

/// Smoothed RTT estimator with RFC 6298 RTO computation and exponential
/// backoff.
///
/// Linux-style bounds are used by default (`min_rto = 200 ms`, the kernel's
/// `TCP_RTO_MIN`) rather than the RFC's 1 s floor, matching the stacks the
/// paper measures against.
#[derive(Debug, Clone)]
pub struct RttEstimator {
    srtt: Option<Duration>,
    rttvar: Duration,
    latest: Option<Duration>,
    min_rtt: Option<Duration>,
    min_rto: Duration,
    max_rto: Duration,
    backoff: u32,
}

impl RttEstimator {
    /// Create an estimator with Linux-like RTO bounds.
    pub fn new() -> Self {
        Self::with_bounds(Duration::from_millis(200), Duration::from_secs(120))
    }

    /// Create an estimator with explicit RTO bounds.
    pub fn with_bounds(min_rto: Duration, max_rto: Duration) -> Self {
        RttEstimator {
            srtt: None,
            rttvar: Duration::ZERO,
            latest: None,
            min_rtt: None,
            min_rto,
            max_rto,
            backoff: 0,
        }
    }

    /// Feed a fresh RTT sample (must come from a non-retransmitted
    /// segment, per Karn's algorithm — the transport enforces this).
    #[inline]
    pub fn on_sample(&mut self, rtt: Duration) {
        self.latest = Some(rtt);
        self.min_rtt = Some(self.min_rtt.map_or(rtt, |m| m.min(rtt)));
        match self.srtt {
            None => {
                // First measurement: SRTT = R, RTTVAR = R/2.
                self.srtt = Some(rtt);
                self.rttvar = rtt / 2;
            }
            Some(srtt) => {
                // RTTVAR = 3/4 RTTVAR + 1/4 |SRTT - R|
                let err = srtt.abs_diff(rtt);
                self.rttvar = self.rttvar.mul_f64(0.75) + err.mul_f64(0.25);
                // SRTT = 7/8 SRTT + 1/8 R
                self.srtt = Some(srtt.mul_f64(0.875) + rtt.mul_f64(0.125));
            }
        }
        // A successful sample ends any backoff.
        self.backoff = 0;
    }

    /// Smoothed RTT, if a sample has been taken.
    pub fn srtt(&self) -> Option<Duration> {
        self.srtt
    }

    /// Most recent raw sample.
    pub fn latest(&self) -> Option<Duration> {
        self.latest
    }

    /// Lifetime minimum RTT.
    pub fn min_rtt(&self) -> Option<Duration> {
        self.min_rtt
    }

    /// RTT variance estimate.
    pub fn rttvar(&self) -> Duration {
        self.rttvar
    }

    /// The current retransmission timeout, including backoff.
    ///
    /// `RTO = max(min_rto, SRTT + 4·RTTVAR) · 2^backoff`, capped at
    /// `max_rto`. Before the first sample, `RTO = 1 s` (RFC 6298 §2.1).
    #[inline]
    pub fn rto(&self) -> Duration {
        let base = match self.srtt {
            None => Duration::from_secs(1),
            Some(srtt) => (srtt + 4 * self.rttvar).max(self.min_rto),
        };
        let backed_off = base.saturating_mul(1u32 << self.backoff.min(16));
        backed_off.min(self.max_rto)
    }

    /// Double the RTO after a retransmission timeout fires.
    pub fn back_off(&mut self) {
        self.backoff = self.backoff.saturating_add(1);
    }

    /// Current backoff exponent.
    pub fn backoff(&self) -> u32 {
        self.backoff
    }
}

impl Default for RttEstimator {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> Duration {
        Duration::from_millis(x)
    }

    #[test]
    fn initial_rto_is_one_second() {
        assert_eq!(RttEstimator::new().rto(), Duration::from_secs(1));
    }

    #[test]
    fn first_sample_initializes() {
        let mut e = RttEstimator::new();
        e.on_sample(ms(100));
        assert_eq!(e.srtt(), Some(ms(100)));
        assert_eq!(e.rttvar(), ms(50));
        // RTO = 100 + 4*50 = 300 ms.
        assert_eq!(e.rto(), ms(300));
    }

    #[test]
    fn converges_to_stable_rtt() {
        let mut e = RttEstimator::new();
        for _ in 0..100 {
            e.on_sample(ms(80));
        }
        let srtt = e.srtt().unwrap();
        assert!((srtt.as_millis() as i64 - 80).abs() <= 1, "srtt {srtt:?}");
        assert!(e.rttvar() < ms(2));
        // Stable path: RTO collapses to the floor.
        assert_eq!(e.rto(), ms(200));
    }

    #[test]
    fn variance_reacts_to_jitter() {
        let mut e = RttEstimator::new();
        for i in 0..50 {
            e.on_sample(ms(if i % 2 == 0 { 50 } else { 150 }));
        }
        assert!(e.rttvar() > ms(30), "rttvar {:?}", e.rttvar());
        assert!(e.rto() > ms(200));
    }

    #[test]
    fn min_rtt_tracks_floor() {
        let mut e = RttEstimator::new();
        e.on_sample(ms(100));
        e.on_sample(ms(70));
        e.on_sample(ms(130));
        assert_eq!(e.min_rtt(), Some(ms(70)));
    }

    #[test]
    fn backoff_doubles_and_sample_resets() {
        let mut e = RttEstimator::new();
        e.on_sample(ms(100)); // RTO 300 ms
        e.back_off();
        assert_eq!(e.rto(), ms(600));
        e.back_off();
        assert_eq!(e.rto(), ms(1200));
        e.on_sample(ms(100));
        assert_eq!(e.backoff(), 0);
        // RTTVAR decayed toward zero on the repeat sample: 0.75*50 = 37.5,
        // so RTO = 100 + 4*37.5 = 250 ms.
        assert_eq!(e.rto(), ms(250));
    }

    #[test]
    fn rto_capped_at_max() {
        let mut e = RttEstimator::with_bounds(ms(200), Duration::from_secs(2));
        e.on_sample(ms(500));
        for _ in 0..10 {
            e.back_off();
        }
        assert_eq!(e.rto(), Duration::from_secs(2));
    }
}
