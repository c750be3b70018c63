//! Property-based tests over the core data structures and the SUSS
//! invariants (proptest).

use proptest::prelude::*;
use std::collections::BTreeSet;
use std::time::Duration;
use suss_repro::suss::{
    growth_factor, plan_pacing, AckEvent, ByteRange, GrowthInputs, Pacer, PacingPlan, RangeSet,
    RttEstimator, Suss, SussConfig,
};

// ---------------------------------------------------------------------------
// RangeSet vs a naive per-byte model
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum RangeOp {
    Insert(u64, u64),
    Remove(u64, u64),
    RemoveBelow(u64),
}

fn range_ops() -> impl Strategy<Value = Vec<RangeOp>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..200, 0u64..40).prop_map(|(a, l)| RangeOp::Insert(a, a + l)),
            (0u64..200, 0u64..40).prop_map(|(a, l)| RangeOp::Remove(a, a + l)),
            (0u64..220).prop_map(RangeOp::RemoveBelow),
        ],
        1..40,
    )
}

proptest! {
    #[test]
    fn rangeset_matches_naive_model(ops in range_ops()) {
        let mut set = RangeSet::new();
        let mut model: BTreeSet<u64> = BTreeSet::new();
        for op in &ops {
            match *op {
                RangeOp::Insert(a, b) => {
                    let added = set.insert(ByteRange::new(a, b));
                    let mut model_added = 0;
                    for x in a..b {
                        if model.insert(x) {
                            model_added += 1;
                        }
                    }
                    prop_assert_eq!(added, model_added);
                }
                RangeOp::Remove(a, b) => {
                    let removed = set.remove(ByteRange::new(a, b));
                    let mut model_removed = 0;
                    for x in a..b {
                        if model.remove(&x) {
                            model_removed += 1;
                        }
                    }
                    prop_assert_eq!(removed, model_removed);
                }
                RangeOp::RemoveBelow(o) => {
                    set.remove_below(o);
                    model.retain(|&x| x >= o);
                }
            }
            // Invariants after every op.
            prop_assert_eq!(set.total_bytes(), model.len() as u64);
            // Ranges are disjoint, sorted, non-empty.
            let rs: Vec<ByteRange> = set.iter().collect();
            for w in rs.windows(2) {
                prop_assert!(w[0].end < w[1].start, "ranges must not touch: {:?}", rs);
            }
            for r in &rs {
                prop_assert!(r.start < r.end);
            }
        }
        // Point queries agree everywhere.
        for x in 0..240u64 {
            prop_assert_eq!(set.contains(x), model.contains(&x), "offset {}", x);
        }
        // contiguous_end agrees with the model.
        for x in 0..240u64 {
            let mut end = x;
            while model.contains(&end) {
                end += 1;
            }
            prop_assert_eq!(set.contiguous_end(x), end, "contiguous from {}", x);
        }
        // first_gap agrees with the model.
        for x in (0..240u64).step_by(7) {
            let limit = x + 31;
            let mut gap_start = None;
            for y in x..limit {
                if !model.contains(&y) {
                    gap_start = Some(y);
                    break;
                }
            }
            let expect = gap_start.map(|g| {
                let mut e = g;
                while e < limit && !model.contains(&e) {
                    e += 1;
                }
                ByteRange::new(g, e)
            });
            prop_assert_eq!(set.first_gap(x, limit), expect);
        }
    }
}

// ---------------------------------------------------------------------------
// Growth factor (Algorithm 1) invariants
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn growth_factor_bounds_and_monotonicity(
        ack_train_us in 1u64..400_000,
        min_rtt_ms in 1u64..500,
        extra_delay_us in 0u64..100_000,
        r in 0u64..10,
        k_max in 1u32..4,
    ) {
        let cfg = SussConfig::default().with_k_max(k_max);
        let min_rtt = Duration::from_millis(min_rtt_ms);
        let inputs = GrowthInputs {
            ack_train: Duration::from_micros(ack_train_us),
            min_rtt,
            mo_rtt: min_rtt + Duration::from_micros(extra_delay_us),
            rounds_since_min_rtt: r,
        };
        let g = growth_factor(&cfg, &inputs);
        // Bounds: a power of two in [2, 2^(k_max+1)].
        prop_assert!(g >= 2);
        prop_assert!(g <= 1 << (k_max + 1));
        prop_assert!(g.is_power_of_two());

        // Monotonicity: longer trains and higher delay can only reduce G.
        let worse_train = GrowthInputs {
            ack_train: inputs.ack_train * 2,
            ..inputs
        };
        prop_assert!(growth_factor(&cfg, &worse_train) <= g);
        let worse_delay = GrowthInputs {
            mo_rtt: inputs.mo_rtt + Duration::from_millis(min_rtt_ms),
            ..inputs
        };
        prop_assert!(growth_factor(&cfg, &worse_delay) <= g);

        // Deeper lookahead can only increase G (conditions are nested).
        let deeper = SussConfig::default().with_k_max(k_max + 1);
        prop_assert!(growth_factor(&deeper, &inputs) >= g);

        // Disabled => always 2.
        prop_assert_eq!(growth_factor(&SussConfig::disabled(), &inputs), 2);
    }
}

// ---------------------------------------------------------------------------
// Pacing plan (Eqs. 10–12, Lemma 1) invariants
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn pacing_plan_invariants(
        g_exp in 1u32..4,
        cwnd_base in 1_448u64..2_000_000,
        blue_frac in 0.05f64..1.0,
        dt_bat_frac in 0.0f64..1.0,
        min_rtt_ms in 5u64..500,
    ) {
        let g = 2u32 << g_exp; // 4, 8, 16
        let min_rtt = Duration::from_millis(min_rtt_ms);
        let blue = ((cwnd_base as f64) * blue_frac) as u64 + 1;
        // Lemma 1 precondition: Δt_Bat ≤ (blue / (g·cwnd_base)) · minRTT / 2.
        let dt_max = min_rtt.mul_f64(blue as f64 / (g as f64 * cwnd_base as f64) / 2.0);
        let dt_bat = dt_max.mul_f64(dt_bat_frac);

        let plan = plan_pacing(g, cwnd_base, blue, dt_bat, min_rtt).unwrap();
        // Structure.
        prop_assert_eq!(plan.cwnd_target, g as u64 * cwnd_base);
        prop_assert_eq!(plan.extra_bytes, (g as u64 - 2) * cwnd_base);
        // Eq. 11: rate = target / minRTT.
        let expect_rate = plan.cwnd_target as f64 / min_rtt.as_secs_f64();
        prop_assert!((plan.rate_bytes_per_sec - expect_rate).abs() / expect_rate < 1e-9);
        // duration · rate == extra bytes.
        let paced = plan.duration.as_secs_f64() * plan.rate_bytes_per_sec;
        prop_assert!((paced - plan.extra_bytes as f64).abs() < 1.0);
        // Lemma 1: guard ≥ blue/(4·target) · minRTT under the precondition.
        let bound = PacingPlan::lemma1_bound(blue, plan.cwnd_target, min_rtt);
        prop_assert!(
            plan.guard + Duration::from_nanos(2) >= bound,
            "guard {:?} < bound {:?}", plan.guard, bound
        );
        // The whole schedule fits in one round.
        let total = dt_bat + plan.guard + plan.duration;
        prop_assert!(total <= min_rtt + Duration::from_nanos(10));
    }

    #[test]
    fn no_plan_without_acceleration(
        cwnd_base in 1u64..1_000_000,
        blue in 1u64..1_000_000,
        dt_ms in 0u64..100,
        rtt_ms in 1u64..500,
    ) {
        prop_assert!(plan_pacing(
            2,
            cwnd_base,
            blue,
            Duration::from_millis(dt_ms),
            Duration::from_millis(rtt_ms)
        )
        .is_none());
    }
}

// ---------------------------------------------------------------------------
// Suss state machine: arbitrary monotone ACK streams never panic and
// produce sane outputs.
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn suss_state_machine_is_total(
        steps in prop::collection::vec((1u64..20, 1u64..1_000_000, 50u64..300), 1..120),
        seed in 0u64..1000,
    ) {
        let iw = 14_480u64;
        let mut suss = Suss::new(SussConfig::default(), 0, 0, iw);
        let mut now = 0u64;
        let mut acked = 0u64;
        let mut snd_nxt = iw;
        let mut cwnd = iw;
        let mut paced = false;
        for (i, (segs, gap_ns, rtt_ms)) in steps.iter().enumerate() {
            now += gap_ns;
            acked += segs * 1_448;
            if acked > snd_nxt {
                snd_nxt = acked + (seed % 5) * 1_448;
            }
            let out = suss.on_ack(AckEvent {
                now,
                ack_seq: acked,
                rtt: Some(Duration::from_millis(*rtt_ms)),
                cwnd,
                snd_nxt,
            });
            if let Some(plan) = out.start_pacing {
                prop_assert!(plan.growth_factor > 2);
                prop_assert!(plan.extra_bytes > 0);
                prop_assert!(plan.rate_bytes_per_sec > 0.0);
                if !paced {
                    suss.mark_pacing_started(snd_nxt);
                    paced = true;
                }
            }
            if out.exit_slow_start {
                prop_assert!(!suss.exp_growth());
            }
            // Mimic slow-start growth and clocked sending.
            cwnd += segs * 1_448;
            snd_nxt = snd_nxt.max(acked) + cwnd.min(2 * segs * 1_448);
            if i % 7 == 6 {
                paced = false;
            }
        }
        // Round counter is monotone and bounded by the number of ACKs.
        prop_assert!(suss.round() as usize <= steps.len() + 1);
    }
}

// ---------------------------------------------------------------------------
// RTT estimator and pacer
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn rtt_estimator_sane(samples in prop::collection::vec(1u64..10_000, 1..100)) {
        let mut e = RttEstimator::new();
        for &ms in &samples {
            e.on_sample(Duration::from_millis(ms));
        }
        let srtt = e.srtt().unwrap();
        let min = *samples.iter().min().unwrap();
        let max = *samples.iter().max().unwrap();
        prop_assert!(srtt >= Duration::from_millis(min));
        prop_assert!(srtt <= Duration::from_millis(max));
        prop_assert_eq!(e.min_rtt(), Some(Duration::from_millis(min)));
        prop_assert!(e.rto() >= Duration::from_millis(200), "rto floor");
        prop_assert!(e.rto() >= srtt, "rto at least srtt");
    }

    #[test]
    fn pacer_never_exceeds_rate_plus_burst(
        rate in 10_000.0f64..10_000_000.0,
        burst in 1_500u64..20_000,
        tries in 50usize..300,
    ) {
        let mut p = Pacer::unlimited(burst);
        p.set_rate(0, Some(rate));
        let pkt = 1_500u64;
        let mut sent = 0u64;
        let mut t: u64 = 0;
        let horizon: u64 = 100_000_000; // 100 ms
        for _ in 0..tries {
            if p.can_send(t, pkt) {
                p.on_sent(t, pkt);
                sent += pkt;
            } else {
                t = p.next_send_time(t, pkt);
            }
            if t >= horizon {
                break;
            }
            t += 17_000; // drift forward
        }
        let elapsed = (t.max(1)) as f64 / 1e9;
        let allowance = rate * elapsed + burst as f64 + pkt as f64;
        prop_assert!(
            (sent as f64) <= allowance,
            "sent {} > allowance {:.0} at t {}", sent, allowance, t
        );
    }
}
