//! The common timestamped trace record.
//!
//! Every producer (per-ACK connection traces, CC decisions, counter
//! dumps) flattens into one record shape so a single JSONL file can hold
//! a whole run and one query layer can answer questions about it.
//! Serialization is hand-written rather than derived so `None` fields are
//! *omitted* (compact JSONL) and unknown/missing fields deserialize
//! tolerantly — old readers accept new traces and vice versa.

use serde::{Deserialize, Json, Serialize};

/// Record kind strings. Producers and queries share these constants;
/// the field is a plain string in the JSON so readers stay forward
/// compatible with kinds they don't know.
pub mod kind {
    /// Per-ACK connection state sample (`cwnd`/`inflight`/`delivered`/RTT).
    pub const SAMPLE: &str = "sample";
    /// First transmission of a flow.
    pub const FLOW_START: &str = "flow_start";
    /// Slow-start exit; `cwnd` carries the exit window in bytes.
    pub const SLOW_START_EXIT: &str = "slow_start_exit";
    /// Fast retransmit entered.
    pub const FAST_RETRANSMIT: &str = "fast_retransmit";
    /// Retransmission timeout fired.
    pub const RTO: &str = "rto";
    /// SUSS pacing round started; `value` carries the growth factor.
    pub const SUSS_PACING: &str = "suss_pacing";
    /// Flow finished delivering its payload.
    pub const FLOW_COMPLETE: &str = "flow_complete";
    /// Counter total at export time; `name`/`value` carry the metric.
    pub const COUNTER: &str = "counter";
    /// Gauge high-water mark at export time; `name`/`value` carry it.
    pub const GAUGE: &str = "gauge";
    /// CC decision: congestion window changed. `cwnd` carries the new
    /// window in bytes, `reason` the decision code.
    pub const CC_CWND: &str = "cc_cwnd";
    /// CC decision: slow-start threshold changed. `value` carries the new
    /// threshold in bytes, `reason` the decision code.
    pub const CC_SSTHRESH: &str = "cc_ssthresh";
    /// CC decision: pacing rate changed. `value` carries the new rate in
    /// bits/s (0 = pacing stopped), `reason` the decision code.
    pub const CC_PACING: &str = "cc_pacing";
    /// SUSS per-round estimate. `value` carries the growth estimate `k`,
    /// `reason` the round context (e.g. `round=3,k=4`).
    pub const SUSS_ROUND: &str = "suss_round";
    /// HyStart / HyStart++ state transition. `reason` carries
    /// `<phase>:<trigger>` (e.g. `css:rtt_rise`, `exit:css_confirmed`).
    pub const HYSTART: &str = "hystart";
}

/// One timestamped telemetry record.
///
/// `t_ns` and `kind` are always present; everything else is optional and
/// omitted from the JSON when absent. Which fields are meaningful depends
/// on [`kind`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceRecord {
    /// Simulation time in nanoseconds.
    pub t_ns: u64,
    /// Record kind (see [`kind`]).
    pub kind: String,
    /// Flow id, for per-flow records.
    pub flow: Option<u64>,
    /// Run label when one file holds several runs (e.g. `cubic` vs `bbr`).
    pub run: Option<String>,
    /// Congestion window in bytes.
    pub cwnd: Option<u64>,
    /// Bytes in flight.
    pub inflight: Option<u64>,
    /// Cumulative bytes delivered.
    pub delivered: Option<u64>,
    /// Last RTT sample in nanoseconds.
    pub rtt_ns: Option<u64>,
    /// Smoothed RTT in nanoseconds.
    pub srtt_ns: Option<u64>,
    /// Metric name, for counter/gauge records.
    pub name: Option<String>,
    /// Generic numeric payload (growth factor, metric value, …).
    pub value: Option<f64>,
    /// Decision reason code, for CC decision records (`cc_*`, `hystart`,
    /// `suss_round`). Free-form short text; may contain commas.
    pub reason: Option<String>,
}

impl TraceRecord {
    /// A record with just timestamp and kind; set optional fields on the
    /// returned value.
    pub fn new(t_ns: u64, kind: &str) -> Self {
        TraceRecord {
            t_ns,
            kind: kind.to_string(),
            ..TraceRecord::default()
        }
    }

    /// A per-flow event record.
    pub fn event(t_ns: u64, flow: u64, kind: &str) -> Self {
        TraceRecord {
            flow: Some(flow),
            ..TraceRecord::new(t_ns, kind)
        }
    }

    /// A per-ACK connection sample.
    #[allow(clippy::too_many_arguments)]
    pub fn sample(
        t_ns: u64,
        flow: u64,
        cwnd: u64,
        inflight: u64,
        delivered: u64,
        rtt_ns: u64,
        srtt_ns: u64,
    ) -> Self {
        TraceRecord {
            cwnd: Some(cwnd),
            inflight: Some(inflight),
            delivered: Some(delivered),
            rtt_ns: Some(rtt_ns),
            srtt_ns: Some(srtt_ns),
            ..TraceRecord::event(t_ns, flow, kind::SAMPLE)
        }
    }

    /// A counter or gauge total (`kind` is [`kind::COUNTER`] or
    /// [`kind::GAUGE`]).
    pub fn metric(t_ns: u64, kind: &str, name: &str, value: u64) -> Self {
        TraceRecord {
            name: Some(name.to_string()),
            value: Some(value as f64),
            ..TraceRecord::new(t_ns, kind)
        }
    }

    /// Timestamp in seconds.
    pub fn t_secs(&self) -> f64 {
        self.t_ns as f64 / 1e9
    }

    /// True for per-ACK samples.
    pub fn is_sample(&self) -> bool {
        self.kind == kind::SAMPLE
    }

    /// True for counter/gauge totals.
    pub fn is_metric(&self) -> bool {
        self.kind == kind::COUNTER || self.kind == kind::GAUGE
    }
}

impl Serialize for TraceRecord {
    fn to_json(&self) -> Json {
        let mut fields: Vec<(String, Json)> = Vec::with_capacity(6);
        fields.push(("t_ns".into(), Json::Num(self.t_ns as f64)));
        fields.push(("kind".into(), Json::Str(self.kind.clone())));
        let mut num = |name: &str, v: &Option<u64>| {
            if let Some(x) = v {
                fields.push((name.into(), Json::Num(*x as f64)));
            }
        };
        num("flow", &self.flow);
        num("cwnd", &self.cwnd);
        num("inflight", &self.inflight);
        num("delivered", &self.delivered);
        num("rtt_ns", &self.rtt_ns);
        num("srtt_ns", &self.srtt_ns);
        if let Some(s) = &self.run {
            fields.push(("run".into(), Json::Str(s.clone())));
        }
        if let Some(s) = &self.name {
            fields.push(("name".into(), Json::Str(s.clone())));
        }
        if let Some(x) = self.value {
            fields.push(("value".into(), Json::Num(x)));
        }
        if let Some(s) = &self.reason {
            fields.push(("reason".into(), Json::Str(s.clone())));
        }
        Json::Obj(fields)
    }
}

impl Deserialize for TraceRecord {
    fn from_json(v: &Json) -> Option<Self> {
        let o = v.as_obj()?;
        let num = |name: &str| Json::field(o, name).and_then(u64::from_json);
        let txt = |name: &str| Json::field(o, name).and_then(|j| j.as_str().map(str::to_string));
        Some(TraceRecord {
            t_ns: num("t_ns")?,
            kind: txt("kind")?,
            flow: num("flow"),
            run: txt("run"),
            cwnd: num("cwnd"),
            inflight: num("inflight"),
            delivered: num("delivered"),
            rtt_ns: num("rtt_ns"),
            srtt_ns: num("srtt_ns"),
            name: txt("name"),
            value: Json::field(o, "value").and_then(Json::as_f64),
            reason: txt("reason"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_fields_are_omitted() {
        let r = TraceRecord::event(1_500_000, 3, kind::RTO);
        let s = serde::to_string(&r);
        assert_eq!(s, r#"{"t_ns":1500000,"kind":"rto","flow":3}"#);
    }

    #[test]
    fn sample_roundtrips() {
        let r = TraceRecord::sample(
            2_000_000_000,
            1,
            14480,
            7240,
            100_000,
            52_000_000,
            51_000_000,
        );
        let s = serde::to_string(&r);
        assert_eq!(serde::from_str::<TraceRecord>(&s), Some(r));
    }

    #[test]
    fn missing_optional_fields_tolerated() {
        let r: TraceRecord = serde::from_str(r#"{"t_ns":5,"kind":"sample"}"#).unwrap();
        assert_eq!(r.t_ns, 5);
        assert!(r.cwnd.is_none() && r.flow.is_none());
    }

    #[test]
    fn unknown_fields_tolerated() {
        // `mystery` was never a field; `link`/`size`/`packet_id` are the
        // retired per-packet fields older traces may still carry.
        for text in [
            r#"{"t_ns":5,"kind":"x","mystery":true}"#,
            r#"{"t_ns":5,"kind":"x","link":2,"size":1500,"packet_id":77}"#,
        ] {
            let r: TraceRecord = serde::from_str(text).unwrap();
            assert_eq!(r.kind, "x");
            assert_eq!(serde::to_string(&r), r#"{"t_ns":5,"kind":"x"}"#);
        }
    }

    #[test]
    fn decision_record_roundtrips_with_reason() {
        let r = TraceRecord {
            value: Some(14480.0),
            reason: Some("loss, fast retransmit".to_string()),
            ..TraceRecord::event(42, 7, kind::CC_SSTHRESH)
        };
        let s = serde::to_string(&r);
        let back: TraceRecord = serde::from_str(&s).expect("parse");
        assert_eq!(back, r);
        assert_eq!(back.reason.as_deref(), Some("loss, fast retransmit"));
    }

    #[test]
    fn metric_record_carries_name_and_value() {
        let r = TraceRecord::metric(9, kind::COUNTER, "tcp.rtos", 4);
        let s = serde::to_string(&r);
        let back: TraceRecord = serde::from_str(&s).unwrap();
        assert_eq!(back.name.as_deref(), Some("tcp.rtos"));
        assert_eq!(back.value, Some(4.0));
        assert!(back.is_metric());
    }
}
