//! SUSS as a userspace QUIC congestion controller.
//!
//! The reproduction target for this paper is "port into userspace QUIC
//! (quinn/quiche) congestion control". This example drives CUBIC+SUSS
//! purely through the quinn-shaped `QuicAdapter` — byte counts, timestamps
//! and RTT estimates only, no TCP sequence numbers — emulating what a QUIC
//! loss detector would feed it, and shows the same G=4 accelerated rounds
//! emerging in the controller's decision events.
//!
//! Run with: `cargo run --release --example quic_controller`

use std::time::Duration;
use suss_repro::cc::{make_quic_controller, QuicRtt};
use suss_repro::prelude::*;
use suss_repro::suss::CcEvent;

const RTT: Duration = Duration::from_millis(120);

fn main() {
    let mut ctl = make_quic_controller(CcKind::CubicSuss, IW, MSS);
    let mut pacings = 0;
    println!("driving CUBIC+SUSS through the quinn-shaped controller API\n");
    println!("round  window(segs)  growth-factor  pacing");

    // Emulate a clean large-BDP path at QUIC-event granularity: each round,
    // the acknowledged bytes return after one RTT as closely spaced ACK
    // events; the controller's window decides what we "send" next.
    let rtt_ns = RTT.as_nanos() as u64;
    let mut now: u64 = 0;
    let mut sent: u64 = 0;
    let mut acked: u64 = 0;

    // Initial window departs at t=0.
    ctl.on_sent(now, IW);
    sent += IW;

    for round in 1..=6u32 {
        now = round as u64 * rtt_ns;
        let outstanding = sent - acked;
        let n_acks = outstanding / MSS;
        for k in 0..n_acks {
            let t = now + k * 150_000; // 150 µs ACK spacing
            acked += MSS;
            ctl.on_ack(
                t,
                t.saturating_sub(rtt_ns),
                MSS,
                false,
                &QuicRtt {
                    latest: RTT,
                    smoothed: RTT,
                    min: RTT,
                },
            );
            // Send whatever the window now allows (ACK clocking).
            let w = ctl.inner().cwnd();
            let inflight = sent - acked;
            if w > inflight {
                let grant = w - inflight;
                ctl.on_sent(t, grant);
                sent += grant;
            }
        }
        // Run the controller's timers (SUSS guard + pacing window).
        while let Some(t) = ctl.inner().next_timer() {
            if t > (round as u64 + 1) * rtt_ns {
                break;
            }
            ctl.inner_mut().on_timer(t);
            let w = ctl.inner().cwnd();
            let inflight = sent - acked;
            if w > inflight {
                let grant = w - inflight;
                ctl.on_sent(t, grant);
                sent += grant;
            }
        }
        // A SUSS pacing start carries the round's growth factor; a round
        // without one grew by plain doubling.
        let mut growth = 2;
        for ev in ctl.inner_mut().take_events() {
            if let CcEvent::SussPacingStarted { g } = ev {
                growth = g;
                pacings += 1;
            }
        }
        println!(
            "{:>5}  {:>12}  {:>13}  {}",
            round,
            ctl.inner().cwnd() / MSS,
            growth,
            match ctl.inner().pacing_rate() {
                Some(r) => format!("{:.1} Mbps", r * 8.0 / 1e6),
                None => "ack-clocked".to_string(),
            }
        );
    }

    println!("\npacing periods started: {pacings}  (each is one G=4 accelerated round)");
    println!(
        "window after 6 rounds: {} segments — vs {} for traditional doubling",
        ctl.inner().cwnd() / MSS,
        (IW / MSS) << 6
    );
}
