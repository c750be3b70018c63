//! Isolated timings of single-layer public functions, in ns per call.
//!
//! Each timing runs a fixed, recorded input several times and reports
//! the median. Multiplied by a workload's exact call count it gives that
//! layer's cost without the span profiler's distortion.

use crate::stats::median;
use cc_algos::{make_controller, CcKind};
use std::hint::black_box;
use std::time::{Duration, Instant};
use suss_core::{AckEvent, Suss, SussConfig};
use tcp_sim::cc::AckView;
use tcp_sim::ranges::{ByteRange, RangeSet};

const MSS: u64 = 1448;
const REPEATS: usize = 5;

/// The inputs every timing runs, printed with the results.
pub const INPUTS: &str = "timer_churn: wheel engine, 4096 pending timers, 1M events; \
rangeset: 200k segments of 1448 B, every 8th a hole filled 8 segments later, \
sack_blocks(cum, 3) per segment; on_ack: 100 connections x 2000 ACKs of 1 MSS, \
100 ms RTT, IW 10";

/// One layer timing: median ns per call over [`REPEATS`] runs.
#[derive(Debug, Clone, Copy)]
pub struct LayerTiming {
    pub name: &'static str,
    pub ns_per_call: f64,
}

fn time_per_call(calls: u64, mut f: impl FnMut() -> u64) -> f64 {
    let runs: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64() * 1e9 / calls as f64
        })
        .collect();
    median(&runs)
}

/// Every layer timing, in a fixed order.
pub fn run_all() -> Vec<LayerTiming> {
    let mut out = vec![
        LayerTiming {
            name: "netsim.timer_churn_ns",
            ns_per_call: timer_churn_ns(),
        },
        LayerTiming {
            name: "tcp.rangeset_ns",
            ns_per_call: rangeset_ns(),
        },
    ];
    for (kind, name) in [
        (CcKind::Cubic, "cc.on_ack_ns.cubic"),
        (CcKind::CubicSuss, "cc.on_ack_ns.cubic_suss"),
        (CcKind::Bbr, "cc.on_ack_ns.bbr"),
    ] {
        out.push(LayerTiming {
            name,
            ns_per_call: on_ack_ns(kind),
        });
    }
    out.push(LayerTiming {
        name: "suss.on_ack_ns",
        ns_per_call: suss_on_ack_ns(),
    });
    out
}

/// Scheduler cost per dispatched event under pure timer churn.
fn timer_churn_ns() -> f64 {
    const EVENTS: u64 = 1_000_000;
    time_per_call(EVENTS, || {
        suss_bench::timer_churn(netsim::EngineConfig::default(), 4096, black_box(EVENTS))
    })
}

/// Receiver-side SACK bookkeeping: insert each arriving segment, report
/// the newest three SACK blocks, and advance the cumulative point when a
/// hole fills. One call = one segment.
fn rangeset_ns() -> f64 {
    const SEGS: u64 = 200_000;
    time_per_call(SEGS, || {
        let mut set = RangeSet::new();
        let mut cum = 0u64;
        let mut blocks = 0u64;
        for i in 0..SEGS {
            // Segment i arrives now unless it is a hole; holes arrive 8
            // segments late.
            let arriving = if i % 8 == 3 { None } else { Some(i) };
            let late = (i >= 8 && (i - 8) % 8 == 3).then(|| i - 8);
            for seg in arriving.into_iter().chain(late) {
                set.insert(ByteRange::new(seg * MSS, (seg + 1) * MSS));
            }
            let end = set.contiguous_end(cum);
            if end > cum {
                cum = end;
                set.remove_below(cum);
            }
            blocks += set.sack_blocks(cum, 3).len() as u64;
        }
        black_box(blocks + cum)
    })
}

/// A steady ACK clock into one congestion controller: one call = one
/// `on_ack` plus the sender's `on_sent`/timer bookkeeping around it.
fn on_ack_ns(kind: CcKind) -> f64 {
    const CONNS: u64 = 100;
    const ACKS: u64 = 2_000;
    time_per_call(CONNS * ACKS, || {
        let mut sum = 0u64;
        for _ in 0..CONNS {
            let mut cc = make_controller(kind, 10 * MSS, MSS);
            let (mut acked, mut snd_nxt) = (0u64, 10 * MSS);
            for k in 0..ACKS {
                let now = 100_000_000 + k * 100_000;
                acked += MSS;
                cc.on_ack(black_box(&AckView {
                    now,
                    ack_seq: acked,
                    newly_acked: MSS,
                    rtt_sample: Some(Duration::from_millis(100)),
                    srtt: Some(Duration::from_millis(100)),
                    min_rtt: Some(Duration::from_millis(100)),
                    inflight: snd_nxt.saturating_sub(acked),
                    snd_nxt,
                    delivered: acked,
                    app_limited: false,
                }));
                let w = cc.cwnd();
                if acked + w > snd_nxt {
                    let grant = acked + w - snd_nxt;
                    snd_nxt += grant;
                    cc.on_sent(now, grant, snd_nxt);
                }
                if cc.next_timer().is_some_and(|t| t <= now) {
                    cc.on_timer(now);
                }
            }
            sum += cc.cwnd();
        }
        sum
    })
}

/// SUSS round logic alone, fed the same slow-start ACK clock (cwnd
/// grows one MSS per ACK).
fn suss_on_ack_ns() -> f64 {
    const CONNS: u64 = 100;
    const ACKS: u64 = 2_000;
    time_per_call(CONNS * ACKS, || {
        let mut sum = 0u64;
        for _ in 0..CONNS {
            let mut suss = Suss::new(SussConfig::default(), 100_000_000, 0, 10 * MSS);
            let (mut acked, mut cwnd) = (0u64, 10 * MSS);
            for k in 0..ACKS {
                acked += MSS;
                let out = suss.on_ack(black_box(AckEvent {
                    now: 100_000_000 + k * 100_000,
                    ack_seq: acked,
                    rtt: Some(Duration::from_millis(100)),
                    cwnd,
                    snd_nxt: acked + cwnd,
                }));
                sum += u64::from(out.exit_slow_start);
                cwnd += MSS;
            }
            sum += suss.round();
        }
        sum
    })
}
