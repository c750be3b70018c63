//! Per-connection instrumentation.
//!
//! The paper instruments the kernel to log cwnd, RTT, inflight and
//! delivered bytes per ACK; this module is the simulator's equivalent.
//! Traces are the raw material for Figures 1, 9, 10, 13 and 16. Both
//! transports record into the same [`ConnTrace`], so `suss-trace` tooling,
//! the CC decision trace and the flight recorder read either without
//! translation.

use crate::cc::CcEvent;
use netsim::SimTime;
use simtrace::{kind, EventSink, TraceRecord};
use std::time::Duration;

/// One per-ACK sample of sender state.
#[derive(Debug, Clone, Copy)]
pub struct TraceSample {
    /// Sample time.
    pub t: SimTime,
    /// Congestion window, bytes.
    pub cwnd: u64,
    /// Bytes in flight.
    pub inflight: u64,
    /// Cumulatively delivered bytes (snd_una).
    pub delivered: u64,
    /// Latest raw RTT sample, if any.
    pub rtt: Option<Duration>,
    /// Smoothed RTT, if any.
    pub srtt: Option<Duration>,
}

/// Notable connection events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// The flow's first byte was transmitted.
    FlowStart,
    /// Slow-start ended (HyStart/SUSS exit or first loss), with the cwnd
    /// at exit.
    SlowStartExit {
        /// cwnd at the moment exponential growth stopped.
        cwnd: u64,
    },
    /// A fast-retransmit recovery episode began.
    FastRetransmit,
    /// A retransmission timeout fired.
    Rto,
    /// All flow bytes were acknowledged.
    FlowComplete,
    /// A congestion-control decision, as the controller reported it.
    Cc(CcEvent),
}

/// Accumulated trace of one connection.
#[derive(Debug, Clone, Default)]
pub struct ConnTrace {
    /// Per-ACK state samples (in arrival order).
    pub samples: Vec<TraceSample>,
    /// Timestamped events.
    pub events: Vec<(SimTime, TraceEvent)>,
    /// Whether sampling is enabled (disable for big batch runs).
    pub sampling: bool,
    /// Keep every Nth sample (1 = every ACK). Decimation keeps long-flow
    /// traces affordable while preserving the step shape.
    pub decimation: u32,
    /// Samples offered since the last one kept.
    skipped: u32,
    /// The most recently *skipped* sample, so the flow's final state can
    /// be recovered by [`ConnTrace::flush_last`] even when decimation
    /// would have dropped it.
    pending: Option<TraceSample>,
}

impl ConnTrace {
    /// A trace with per-ACK sampling enabled.
    pub fn enabled() -> Self {
        ConnTrace {
            sampling: true,
            decimation: 1,
            ..Default::default()
        }
    }

    /// A trace keeping every `n`-th sample (n ≥ 1).
    pub fn decimated(n: u32) -> Self {
        ConnTrace {
            sampling: true,
            decimation: n.max(1),
            ..Default::default()
        }
    }

    /// A trace recording only events (cheap; for 50-iteration batches).
    pub fn events_only() -> Self {
        ConnTrace::default()
    }

    /// Record a sample if sampling is on (honouring decimation).
    #[inline]
    pub fn sample(&mut self, s: TraceSample) {
        if !self.sampling {
            return;
        }
        self.skipped += 1;
        if self.skipped >= self.decimation.max(1) {
            self.skipped = 0;
            self.pending = None;
            self.samples.push(s);
        } else {
            self.pending = Some(s);
        }
    }

    /// Promote the most recently skipped sample, if any. The transport
    /// calls this at flow completion (and harnesses may call it at a run
    /// horizon) so the final sample — the one that pins FCT-adjacent
    /// plots — survives any `decimation > 1`.
    pub fn flush_last(&mut self) {
        if let Some(s) = self.pending.take() {
            self.skipped = 0;
            self.samples.push(s);
        }
    }

    /// Record an event of `flow` (always kept), mirroring it into the
    /// thread's flight recorder (a no-op unless one is installed — see
    /// [`simtrace::flightrec`]). The mirror is the record
    /// [`ConnTrace::export`] writes, so a post-mortem dump reads like a
    /// live slice of the exported trace.
    pub fn event(&mut self, flow: u64, t: SimTime, e: TraceEvent) {
        simtrace::flightrec::record_with(|| Self::event_record(flow, t, &e));
        self.events.push((t, e));
    }

    /// Time of the first occurrence of an event matching `pred`.
    pub fn find_event(&self, mut pred: impl FnMut(&TraceEvent) -> bool) -> Option<SimTime> {
        self.events.iter().find(|(_, e)| pred(e)).map(|(t, _)| *t)
    }

    /// Delivered bytes at or before time `t` (interpolated step-wise).
    pub fn delivered_at(&self, t: SimTime) -> u64 {
        match self.samples.partition_point(|s| s.t <= t) {
            0 => 0,
            i => self.samples[i - 1].delivered,
        }
    }

    /// Count of events equal to `e`.
    pub fn count_events(&self, e: TraceEvent) -> usize {
        self.events.iter().filter(|(_, x)| *x == e).count()
    }

    /// The record an event exports as: its [`kind`] constant plus the
    /// `cwnd`/`value`/`reason` payload.
    fn event_record(flow: u64, t: SimTime, e: &TraceEvent) -> TraceRecord {
        let (kind, cwnd, value, reason) = match *e {
            TraceEvent::FlowStart => (kind::FLOW_START, None, None, None),
            TraceEvent::SlowStartExit { cwnd } => (kind::SLOW_START_EXIT, Some(cwnd), None, None),
            TraceEvent::FastRetransmit => (kind::FAST_RETRANSMIT, None, None, None),
            TraceEvent::Rto => (kind::RTO, None, None, None),
            TraceEvent::FlowComplete => (kind::FLOW_COMPLETE, None, None, None),
            TraceEvent::Cc(CcEvent::SussPacingStarted { g }) => {
                (kind::SUSS_PACING, None, Some(f64::from(g)), None)
            }
            TraceEvent::Cc(CcEvent::CwndChanged { cwnd, reason }) => {
                (kind::CC_CWND, Some(cwnd), None, Some(reason.to_string()))
            }
            TraceEvent::Cc(CcEvent::SsthreshChanged { ssthresh, reason }) => (
                kind::CC_SSTHRESH,
                None,
                Some(ssthresh as f64),
                Some(reason.to_string()),
            ),
            TraceEvent::Cc(CcEvent::PacingRateChanged { rate_bps, reason }) => (
                kind::CC_PACING,
                None,
                Some(rate_bps as f64),
                Some(reason.to_string()),
            ),
            TraceEvent::Cc(CcEvent::SussRound { round, k }) => (
                kind::SUSS_ROUND,
                None,
                Some(f64::from(k)),
                Some(format!("round={round},k={k}")),
            ),
            TraceEvent::Cc(CcEvent::HystartPhase { phase, reason }) => {
                (kind::HYSTART, None, None, Some(format!("{phase}:{reason}")))
            }
        };
        let mut rec = TraceRecord::event(t.as_nanos(), flow, kind);
        rec.cwnd = cwnd;
        rec.value = value;
        rec.reason = reason;
        rec
    }

    /// Export the whole trace (samples, then events) to a structured
    /// [`EventSink`] using the common record schema, tagged with the flow
    /// id and an optional run label.
    pub fn export(&self, flow: u64, run: Option<&str>, sink: &mut dyn EventSink) {
        for s in &self.samples {
            let mut rec = TraceRecord::event(s.t.as_nanos(), flow, kind::SAMPLE);
            rec.cwnd = Some(s.cwnd);
            rec.inflight = Some(s.inflight);
            rec.delivered = Some(s.delivered);
            rec.rtt_ns = s.rtt.map(|d| d.as_nanos() as u64);
            rec.srtt_ns = s.srtt.map(|d| d.as_nanos() as u64);
            rec.run = run.map(str::to_string);
            sink.record(&rec);
        }
        for (t, e) in &self.events {
            let mut rec = Self::event_record(flow, *t, e);
            rec.run = run.map(str::to_string);
            sink.record(&rec);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decimation_keeps_every_nth() {
        let mut t = ConnTrace::decimated(3);
        for ms in 0..9u64 {
            t.sample(TraceSample {
                t: SimTime::from_millis(ms),
                cwnd: 0,
                inflight: 0,
                delivered: ms,
                rtt: None,
                srtt: None,
            });
        }
        assert_eq!(t.samples.len(), 3);
        assert_eq!(t.samples[0].delivered, 2);
        assert_eq!(t.samples[2].delivered, 8);
    }

    #[test]
    fn flush_last_retains_final_decimated_sample() {
        // Regression: with keep_every > 1 the final sample used to be
        // silently dropped whenever the flow length was not a multiple of
        // the decimation factor, skewing FCT-adjacent plots.
        let mut t = ConnTrace::decimated(3);
        for ms in 0..10u64 {
            t.sample(TraceSample {
                t: SimTime::from_millis(ms),
                cwnd: ms,
                inflight: 0,
                delivered: ms,
                rtt: None,
                srtt: None,
            });
        }
        // 10 offers at n=3 keep samples 2, 5, 8; sample 9 is pending.
        assert_eq!(t.samples.len(), 3);
        t.flush_last();
        assert_eq!(t.samples.len(), 4);
        assert_eq!(t.samples.last().unwrap().delivered, 9);
        // Idempotent: nothing pending after a flush.
        t.flush_last();
        assert_eq!(t.samples.len(), 4);
    }

    #[test]
    fn flush_last_no_duplicate_when_final_sample_was_kept() {
        let mut t = ConnTrace::decimated(3);
        for ms in 0..9u64 {
            t.sample(TraceSample {
                t: SimTime::from_millis(ms),
                cwnd: 0,
                inflight: 0,
                delivered: ms,
                rtt: None,
                srtt: None,
            });
        }
        // Sample 8 was kept by decimation; flush must not re-add it.
        assert_eq!(t.samples.len(), 3);
        t.flush_last();
        assert_eq!(t.samples.len(), 3);
    }

    #[test]
    fn export_emits_samples_and_events() {
        let mut t = ConnTrace::enabled();
        t.event(1, SimTime::from_millis(0), TraceEvent::FlowStart);
        t.sample(TraceSample {
            t: SimTime::from_millis(1),
            cwnd: 1000,
            inflight: 500,
            delivered: 100,
            rtt: Some(Duration::from_millis(10)),
            srtt: None,
        });
        t.event(
            1,
            SimTime::from_millis(2),
            TraceEvent::Cc(CcEvent::SussPacingStarted { g: 4 }),
        );
        t.event(
            1,
            SimTime::from_millis(3),
            TraceEvent::SlowStartExit { cwnd: 9000 },
        );
        let mut sink = simtrace::VecSink::new();
        t.export(7, Some("arm"), &mut sink);
        assert_eq!(sink.records.len(), 4);
        let sample = &sink.records[0];
        assert_eq!(sample.kind, kind::SAMPLE);
        assert_eq!(sample.flow, Some(7));
        assert_eq!(sample.cwnd, Some(1000));
        assert_eq!(sample.inflight, Some(500));
        assert_eq!(sample.delivered, Some(100));
        assert_eq!(sample.rtt_ns, Some(10_000_000));
        assert_eq!(sample.srtt_ns, None);
        assert_eq!(sample.run.as_deref(), Some("arm"));
        let pacing = sink
            .records
            .iter()
            .find(|r| r.kind == kind::SUSS_PACING)
            .unwrap();
        assert_eq!(pacing.value, Some(4.0));
        let exit = sink
            .records
            .iter()
            .find(|r| r.kind == kind::SLOW_START_EXIT)
            .unwrap();
        assert_eq!(exit.cwnd, Some(9000));
    }

    #[test]
    fn cc_decision_events_export_with_reasons() {
        // Every decision a controller can report, with the record it must
        // export as: (event, kind, cwnd, value, reason). The expectations
        // are the record schema the two transports have always written.
        let cases = [
            (
                CcEvent::SussPacingStarted { g: 4 },
                kind::SUSS_PACING,
                None,
                Some(4.0),
                None,
            ),
            (
                CcEvent::CwndChanged {
                    cwnd: 14_480,
                    reason: "timeout",
                },
                kind::CC_CWND,
                Some(14_480),
                None,
                Some("timeout"),
            ),
            (
                CcEvent::SsthreshChanged {
                    ssthresh: 28_960,
                    reason: "loss",
                },
                kind::CC_SSTHRESH,
                None,
                Some(28_960.0),
                Some("loss"),
            ),
            (
                CcEvent::PacingRateChanged {
                    rate_bps: 50_000_000,
                    reason: "suss_pacing",
                },
                kind::CC_PACING,
                None,
                Some(50_000_000.0),
                Some("suss_pacing"),
            ),
            (
                CcEvent::SussRound { round: 3, k: 4 },
                kind::SUSS_ROUND,
                None,
                Some(4.0),
                Some("round=3,k=4"),
            ),
            (
                CcEvent::HystartPhase {
                    phase: "css",
                    reason: "rtt_rise",
                },
                kind::HYSTART,
                None,
                None,
                Some("css:rtt_rise"),
            ),
        ];
        let recorder = simtrace::flightrec::FlightRecorder::new(cases.len());
        simtrace::flightrec::install(Some(recorder.clone()));
        let mut t = ConnTrace::events_only();
        for (i, (ev, ..)) in cases.iter().enumerate() {
            t.event(1, SimTime::from_millis(i as u64 + 1), TraceEvent::Cc(*ev));
        }
        simtrace::flightrec::install(None);
        let mut sink = simtrace::VecSink::new();
        t.export(1, None, &mut sink);
        assert_eq!(sink.records.len(), cases.len());
        for (rec, (ev, kind, cwnd, value, reason)) in sink.records.iter().zip(cases) {
            assert_eq!(rec.kind, kind, "{ev:?}");
            assert_eq!(rec.cwnd, cwnd, "{ev:?}");
            assert_eq!(rec.value, value, "{ev:?}");
            assert_eq!(rec.reason.as_deref(), reason, "{ev:?}");
        }
        // The live flight-recorder mirror writes the exported records.
        assert_eq!(recorder.snapshot(), sink.records);
    }

    #[test]
    fn events_only_skips_samples() {
        let mut t = ConnTrace::events_only();
        t.sample(TraceSample {
            t: SimTime::ZERO,
            cwnd: 1,
            inflight: 0,
            delivered: 0,
            rtt: None,
            srtt: None,
        });
        assert!(t.samples.is_empty());
        t.event(1, SimTime::ZERO, TraceEvent::FlowStart);
        assert_eq!(t.events.len(), 1);
    }

    #[test]
    fn delivered_at_interpolates_stepwise() {
        let mut t = ConnTrace::enabled();
        for (ms, d) in [(10u64, 100u64), (20, 250), (30, 400)] {
            t.sample(TraceSample {
                t: SimTime::from_millis(ms),
                cwnd: 0,
                inflight: 0,
                delivered: d,
                rtt: None,
                srtt: None,
            });
        }
        assert_eq!(t.delivered_at(SimTime::from_millis(5)), 0);
        assert_eq!(t.delivered_at(SimTime::from_millis(10)), 100);
        assert_eq!(t.delivered_at(SimTime::from_millis(25)), 250);
        assert_eq!(t.delivered_at(SimTime::from_millis(99)), 400);
    }

    #[test]
    fn find_and_count_events() {
        let mut t = ConnTrace::events_only();
        t.event(1, SimTime::from_millis(1), TraceEvent::FlowStart);
        t.event(1, SimTime::from_millis(5), TraceEvent::Rto);
        t.event(1, SimTime::from_millis(9), TraceEvent::Rto);
        assert_eq!(
            t.find_event(|e| matches!(e, TraceEvent::Rto)),
            Some(SimTime::from_millis(5))
        );
        assert_eq!(t.count_events(TraceEvent::Rto), 2);
    }
}
