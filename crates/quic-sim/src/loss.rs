//! Loss detection over the packet-number space.
//!
//! RFC 9002-style: a packet is declared lost once it is *both* unacked
//! and either
//!
//! * **packet threshold** — at least [`PACKET_THRESHOLD`] packets with
//!   higher numbers have been acknowledged (the reordering analogue of
//!   TCP's dupthresh), or
//! * **time threshold** — a higher-numbered packet is acked and the
//!   packet has been outstanding longer than `9/8 · max(srtt, latest)`
//!   (see [`loss_delay`]).
//!
//! Stream bytes of lost packets land on a NAK-style *loss list* — a
//! sorted deque of byte ranges awaiting retransmission, the idiom of
//! srt-rs's sender — which the transport drains ahead of new data. The
//! packets themselves are forgotten: a retransmission mints a fresh
//! packet number, so the detector never tracks the same number twice.
//!
//! An ACK costs O(k + log n) for k newly acked or lost packets out of n in
//! flight. Two invariants make that possible:
//!
//! * in-flight packets ascend by packet number *and* by `sent_at` (the
//!   sender never sends into the past), so every packet that meets a loss
//!   threshold precedes every packet that does not: losses pop off the
//!   front, and the front alone decides the loss-timer deadline;
//! * an ACK frame's ranges ascend and are disjoint, so each one is a
//!   contiguous span of the in-flight deque, found by binary search.
//!
//! The in-flight byte count is a maintained sum, not a scan.

use crate::frames::PktRange;
use std::collections::VecDeque;
use suss_core::ranges::ByteRange;
use suss_core::Nanos;

/// Packets-reordered threshold (RFC 9002 `kPacketThreshold`).
pub const PACKET_THRESHOLD: u64 = 3;
/// Time-threshold granularity floor (RFC 9002 `kGranularity`): 1 ms.
pub const GRANULARITY_NS: u64 = 1_000_000;

/// The reordering time window: `9/8 · max(srtt, latest)` (RFC 9002
/// `kTimeThreshold`), floored at [`GRANULARITY_NS`].
pub fn loss_delay(srtt_ns: u64, latest_ns: u64) -> Nanos {
    (srtt_ns.max(latest_ns) * 9 / 8).max(GRANULARITY_NS)
}

/// Bookkeeping for one in-flight transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SentPacket {
    /// Packet number (unique per transmission).
    pub pkt_num: u64,
    /// Stream bytes carried.
    pub range: ByteRange,
    /// Whether the packet carried the stream's final byte.
    pub fin: bool,
    /// Departure time.
    pub sent_at: Nanos,
    /// Carried previously-transmitted stream bytes.
    pub is_rtx: bool,
}

/// What one ACK frame did to the in-flight set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AckOutcome {
    /// Stream bytes newly acknowledged.
    pub newly_acked: u64,
    /// The newly acked stream ranges (for the send buffer / completion).
    pub acked_ranges: Vec<ByteRange>,
    /// The largest-numbered packet among the newly acked, if any — the
    /// RTT/congestion reference packet.
    pub largest_newly: Option<SentPacket>,
    /// Packets this ACK's arrival newly declared lost.
    pub lost: Vec<SentPacket>,
}

/// The sender's loss detector: in-flight packet records, threshold
/// detection, and the NAK loss list.
#[derive(Debug, Clone, Default)]
pub struct LossDetector {
    /// Unacked transmissions, ascending packet number and `sent_at`.
    sent: VecDeque<SentPacket>,
    /// Stream bytes over `sent` (a duplicated range counts twice).
    in_flight: u64,
    /// Largest packet number acknowledged so far.
    largest_acked: Option<u64>,
    /// Stream ranges awaiting retransmission: sorted, disjoint (the
    /// NAK list). Popped from the front by the transport.
    loss_list: VecDeque<ByteRange>,
}

impl LossDetector {
    /// An empty detector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a departure. Packet numbers must be handed in ascending,
    /// and departure times never decrease.
    pub fn on_packet_sent(&mut self, pkt: SentPacket) {
        debug_assert!(self.sent.back().is_none_or(|p| p.pkt_num < pkt.pkt_num));
        debug_assert!(
            self.sent.back().is_none_or(|p| p.sent_at <= pkt.sent_at),
            "sent_at must be monotone"
        );
        self.in_flight += pkt.range.len();
        self.sent.push_back(pkt);
    }

    /// Largest acknowledged packet number, if any.
    pub fn largest_acked(&self) -> Option<u64> {
        self.largest_acked
    }

    /// Unacked stream bytes currently tracked (in-flight).
    pub fn bytes_in_flight(&self) -> u64 {
        self.in_flight
    }

    /// Number of unacked transmissions tracked.
    pub fn packets_in_flight(&self) -> usize {
        self.sent.len()
    }

    /// The oldest unacked transmission (the PTO probe candidate).
    pub fn earliest_unacked(&self) -> Option<&SentPacket> {
        self.sent.front()
    }

    /// Apply an ACK frame's packet-number ranges (ascending, disjoint),
    /// then run both loss thresholds. `delay` is the current
    /// [`loss_delay`].
    pub fn on_ack(&mut self, ranges: &[PktRange], now: Nanos, delay: Nanos) -> AckOutcome {
        debug_assert!(
            ranges.iter().all(|&(s, e)| s <= e) && ranges.windows(2).all(|w| w[0].1 <= w[1].0),
            "ACK ranges must ascend and be disjoint: {ranges:?}"
        );
        let mut out = AckOutcome::default();
        for &(start, end) in ranges {
            let lo = self.sent.partition_point(|p| p.pkt_num < start);
            let hi = self.sent.partition_point(|p| p.pkt_num < end);
            for p in self.sent.drain(lo..hi) {
                out.newly_acked += p.range.len();
                out.acked_ranges.push(p.range);
                out.largest_newly = Some(p);
            }
        }
        self.in_flight -= out.newly_acked;
        if let Some(l) = out.largest_newly {
            self.largest_acked = Some(self.largest_acked.map_or(l.pkt_num, |a| a.max(l.pkt_num)));
        }
        out.lost = self.detect_lost(now, delay);
        out
    }

    /// Run both loss thresholds against the current in-flight set (the
    /// loss-timer path re-enters here without an ACK).
    pub fn detect_lost(&mut self, now: Nanos, delay: Nanos) -> Vec<SentPacket> {
        let Some(largest) = self.largest_acked else {
            return Vec::new();
        };
        // A packet at or above `largest` cannot be judged (nothing newer
        // is acked). Both thresholds only loosen towards older packets,
        // so the lost packets are a prefix of `sent`.
        let is_lost = |p: &SentPacket| {
            p.pkt_num < largest
                && (p.pkt_num + PACKET_THRESHOLD <= largest
                    || p.sent_at.saturating_add(delay) <= now)
        };
        let mut lost = Vec::new();
        while let Some(p) = self.sent.pop_front_if(|p| is_lost(p)) {
            self.in_flight -= p.range.len();
            self.nak(p.range);
            lost.push(p);
        }
        lost
    }

    /// Earliest instant a still-unjudged packet will cross the time
    /// threshold (the loss-timer deadline), if any. The oldest packet
    /// crosses first, so only the front is consulted.
    pub fn next_loss_time(&self, delay: Nanos) -> Option<Nanos> {
        let largest = self.largest_acked?;
        self.sent
            .front()
            .filter(|p| p.pkt_num < largest)
            .map(|p| p.sent_at.saturating_add(delay))
    }

    /// Insert a stream range into the NAK list, keeping it sorted and
    /// disjoint (overlapping/adjacent entries merge).
    fn nak(&mut self, r: ByteRange) {
        if r.is_empty() {
            return;
        }
        let lo = self.loss_list.partition_point(|x| x.end < r.start);
        let mut merged = r;
        let mut hi = lo;
        while hi < self.loss_list.len() && self.loss_list[hi].start <= merged.end {
            merged = ByteRange::new(
                merged.start.min(self.loss_list[hi].start),
                merged.end.max(self.loss_list[hi].end),
            );
            hi += 1;
        }
        // Splice [lo, hi) with the merged range.
        self.loss_list.drain(lo..hi);
        self.loss_list.insert(lo, merged);
    }

    /// Whether stream bytes await retransmission.
    pub fn has_nak(&self) -> bool {
        !self.loss_list.is_empty()
    }

    /// Put a popped range back (the window or pacer refused it). Merges
    /// like any NAK, so ordering is preserved.
    pub fn requeue_nak(&mut self, r: ByteRange) {
        self.nak(r);
    }

    /// Pop the first NAKed range, clipped to `max_len` bytes; the
    /// remainder (if any) stays at the front of the list.
    pub fn pop_nak(&mut self, max_len: u64) -> Option<ByteRange> {
        let first = self.loss_list.front_mut()?;
        if first.len() <= max_len {
            return self.loss_list.pop_front();
        }
        let head = ByteRange::new(first.start, first.start + max_len);
        first.start += max_len;
        Some(head)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frames::MAX_ACK_RANGES;
    use suss_core::ranges::RangeSet;

    /// The straightforward detector the production one must match: every
    /// ACK and loss check rescans the whole in-flight set. It keeps its
    /// NAK list in an inner [`LossDetector`] whose in-flight set stays
    /// empty.
    #[derive(Default)]
    struct ReferenceDetector {
        sent: VecDeque<SentPacket>,
        largest_acked: Option<u64>,
        naks: LossDetector,
    }

    impl ReferenceDetector {
        fn bytes_in_flight(&self) -> u64 {
            self.sent.iter().map(|p| p.range.len()).sum()
        }

        fn on_ack(&mut self, ranges: &[PktRange], now: Nanos, delay: Nanos) -> AckOutcome {
            let mut out = AckOutcome::default();
            let covered = |pkt: u64| ranges.iter().any(|&(s, e)| s <= pkt && pkt < e);
            self.sent.retain(|p| {
                if covered(p.pkt_num) {
                    out.newly_acked += p.range.len();
                    out.acked_ranges.push(p.range);
                    if out.largest_newly.is_none_or(|l| l.pkt_num < p.pkt_num) {
                        out.largest_newly = Some(*p);
                    }
                    false
                } else {
                    true
                }
            });
            if let Some(l) = out.largest_newly {
                self.largest_acked =
                    Some(self.largest_acked.map_or(l.pkt_num, |a| a.max(l.pkt_num)));
            }
            out.lost = self.detect_lost(now, delay);
            out
        }

        fn detect_lost(&mut self, now: Nanos, delay: Nanos) -> Vec<SentPacket> {
            let Some(largest) = self.largest_acked else {
                return Vec::new();
            };
            let mut lost = Vec::new();
            self.sent.retain(|p| {
                if p.pkt_num >= largest {
                    return true;
                }
                let by_count = p.pkt_num + PACKET_THRESHOLD <= largest;
                let by_time = p.sent_at.saturating_add(delay) <= now;
                if by_count || by_time {
                    lost.push(*p);
                    false
                } else {
                    true
                }
            });
            for p in &lost {
                self.naks.nak(p.range);
            }
            lost
        }

        fn next_loss_time(&self, delay: Nanos) -> Option<Nanos> {
            let largest = self.largest_acked?;
            self.sent
                .iter()
                .filter(|p| p.pkt_num < largest)
                .map(|p| p.sent_at.saturating_add(delay))
                .min()
        }
    }

    /// Deterministic xorshift64 stream for the randomized tests.
    fn xorshift(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    #[test]
    fn random_operations_match_reference_detector() {
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        let mut fast = LossDetector::new();
        let mut slow = ReferenceDetector::default();
        // The modelled receiver: packet numbers that arrived, and those
        // still on the wire (delivered into `received` by the next ACK).
        let mut received = RangeSet::new();
        let mut wire: Vec<u64> = Vec::new();
        let (mut now, mut next_pkt, mut stream_end) = (0u64, 0u64, 0u64);
        let (mut acked_total, mut lost_total, mut naks_popped) = (0usize, 0usize, 0usize);
        for op in 0..60_000u32 {
            let r = xorshift(&mut x);
            now += match r % 8 {
                0..=3 => 0,
                4..=6 => r >> 8 & 0xf_ffff,
                _ => r >> 8 & 0xff_ffff,
            };
            let delay = GRANULARITY_NS + (r >> 32) % (20 * GRANULARITY_NS);
            let mut send = |fast: &mut LossDetector,
                            slow: &mut ReferenceDetector,
                            range: ByteRange,
                            is_rtx: bool,
                            x: &mut u64| {
                let pkt = SentPacket {
                    pkt_num: next_pkt,
                    range,
                    fin: false,
                    sent_at: now,
                    is_rtx,
                };
                next_pkt += 1;
                fast.on_packet_sent(pkt);
                slow.sent.push_back(pkt);
                if !xorshift(x).is_multiple_of(10) {
                    wire.push(pkt.pkt_num); // else dropped on the wire
                }
            };
            match (r >> 4) % 16 {
                // New data (or a NAKed repair), while the window allows.
                0..=5 if fast.packets_in_flight() < 256 => {
                    let len = 1 + (r >> 40) % 1_500;
                    match fast.pop_nak(len) {
                        Some(rtx) => {
                            assert_eq!(slow.naks.pop_nak(len), Some(rtx), "op {op}");
                            naks_popped += 1;
                            send(&mut fast, &mut slow, rtx, true, &mut x);
                        }
                        None => {
                            assert_eq!(slow.naks.pop_nak(len), None, "op {op}");
                            let range = ByteRange::new(stream_end, stream_end + len);
                            stream_end = range.end;
                            send(&mut fast, &mut slow, range, false, &mut x);
                        }
                    }
                }
                // An ACK: deliver some of the wire (possibly reordered),
                // then report the newest ≤ MAX_ACK_RANGES ranges, or a
                // random ascending subset of them.
                0..=11 => {
                    let n = (r >> 24) as usize % (wire.len() + 1);
                    if r >> 50 & 1 == 1 && n > 1 {
                        wire.swap(0, n - 1);
                    }
                    for pkt in wire.drain(..n) {
                        received.insert(ByteRange::new(pkt, pkt + 1));
                    }
                    let skip = received.num_ranges().saturating_sub(MAX_ACK_RANGES);
                    let ranges: Vec<PktRange> = received
                        .iter()
                        .skip(skip)
                        .enumerate()
                        .filter(|&(i, _)| r >> (56 + i) & 1 == 0 || r >> 60 & 1 == 0)
                        .map(|(_, b)| (b.start, b.end))
                        .collect();
                    let want = slow.on_ack(&ranges, now, delay);
                    let got = fast.on_ack(&ranges, now, delay);
                    assert_eq!(got, want, "op {op}: ack {ranges:?}");
                    acked_total += got.acked_ranges.len();
                    lost_total += got.lost.len();
                }
                // The loss timer fires, often exactly at its deadline.
                12 | 13 => {
                    if r >> 50 & 1 == 1 {
                        now = now.max(slow.next_loss_time(delay).unwrap_or(0));
                    }
                    let want = slow.detect_lost(now, delay);
                    let got = fast.detect_lost(now, delay);
                    assert_eq!(got, want, "op {op}: loss timer");
                    lost_total += got.len();
                }
                // A PTO probe re-sends the oldest unacked chunk, which
                // then sits in flight twice.
                14 => {
                    if let Some(p) = fast.earliest_unacked().copied() {
                        send(&mut fast, &mut slow, p.range, true, &mut x);
                    }
                }
                // The window or pacer refuses a popped repair.
                _ => {
                    let max = 1 + (r >> 40) % 3_000;
                    let got = fast.pop_nak(max);
                    assert_eq!(got, slow.naks.pop_nak(max), "op {op}");
                    if let Some(range) = got {
                        fast.requeue_nak(range);
                        slow.naks.requeue_nak(range);
                    }
                }
            }
            assert_eq!(fast.bytes_in_flight(), slow.bytes_in_flight(), "op {op}");
            assert_eq!(fast.packets_in_flight(), slow.sent.len(), "op {op}");
            assert_eq!(fast.earliest_unacked(), slow.sent.front(), "op {op}");
            assert_eq!(fast.largest_acked(), slow.largest_acked, "op {op}");
            assert_eq!(fast.has_nak(), slow.naks.has_nak(), "op {op}");
            assert_eq!(
                fast.next_loss_time(delay),
                slow.next_loss_time(delay),
                "op {op}"
            );
        }
        // The stream must have exercised every path, not idled in one.
        assert!(acked_total > 10_000, "acked {acked_total}");
        assert!(lost_total > 1_000, "lost {lost_total}");
        assert!(naks_popped > 1_000, "repairs {naks_popped}");
    }

    fn pkt(num: u64, start: u64, len: u64, at: Nanos) -> SentPacket {
        SentPacket {
            pkt_num: num,
            range: ByteRange::new(start, start + len),
            fin: false,
            sent_at: at,
            is_rtx: false,
        }
    }

    const D: Nanos = 10_000_000; // 10 ms loss delay

    #[test]
    fn ack_ranges_remove_and_measure() {
        let mut d = LossDetector::new();
        for i in 0..5 {
            d.on_packet_sent(pkt(i, i * 1_000, 1_000, i));
        }
        let out = d.on_ack(&[(0, 2), (3, 4)], 100, D);
        assert_eq!(out.newly_acked, 3_000);
        assert_eq!(out.largest_newly.unwrap().pkt_num, 3);
        assert_eq!(d.packets_in_flight(), 2);
        assert_eq!(d.largest_acked(), Some(3));
        // Re-acking the same ranges is a no-op.
        let dup = d.on_ack(&[(0, 2)], 101, D);
        assert_eq!(dup.newly_acked, 0);
        assert!(dup.largest_newly.is_none());
    }

    #[test]
    fn packet_threshold_declares_loss() {
        let mut d = LossDetector::new();
        for i in 0..6 {
            d.on_packet_sent(pkt(i, i * 1_000, 1_000, 0));
        }
        // Packet 0 missing; acks for 1..=3 leave it within threshold.
        let out = d.on_ack(&[(1, 3)], 10, D);
        assert!(out.lost.is_empty(), "0 survives: only 2 above it acked");
        // Acking packet 3 puts three higher packets past it.
        let out = d.on_ack(&[(3, 4)], 20, D);
        assert_eq!(out.lost.len(), 1);
        assert_eq!(out.lost[0].pkt_num, 0);
        assert!(d.has_nak());
        assert_eq!(d.pop_nak(400), Some(ByteRange::new(0, 400)));
        assert_eq!(d.pop_nak(10_000), Some(ByteRange::new(400, 1_000)));
        assert_eq!(d.pop_nak(10_000), None);
    }

    #[test]
    fn time_threshold_declares_loss() {
        let mut d = LossDetector::new();
        d.on_packet_sent(pkt(0, 0, 1_000, 0));
        d.on_packet_sent(pkt(1, 1_000, 1_000, 0));
        // Only one higher packet acked: count threshold not met.
        let out = d.on_ack(&[(1, 2)], 5, D);
        assert!(out.lost.is_empty());
        assert_eq!(d.next_loss_time(D), Some(D));
        // The loss timer fires past sent_at + delay.
        let lost = d.detect_lost(D, D);
        assert_eq!(lost.len(), 1);
        assert_eq!(lost[0].pkt_num, 0);
        assert_eq!(d.next_loss_time(D), None);
    }

    #[test]
    fn nak_list_merges_and_stays_sorted() {
        let mut d = LossDetector::new();
        d.nak(ByteRange::new(5_000, 6_000));
        d.nak(ByteRange::new(1_000, 2_000));
        d.nak(ByteRange::new(1_500, 5_200));
        assert_eq!(d.pop_nak(u64::MAX), Some(ByteRange::new(1_000, 6_000)));
        assert!(!d.has_nak());
    }

    #[test]
    fn unjudged_tail_is_never_lost() {
        let mut d = LossDetector::new();
        for i in 0..4 {
            d.on_packet_sent(pkt(i, i * 1_000, 1_000, 0));
        }
        // Ack only packet 1: packets 2 and 3 are above largest_acked and
        // must survive any amount of elapsed time.
        let out = d.on_ack(&[(1, 2)], 1_000_000_000, D);
        assert_eq!(out.lost.len(), 1, "only packet 0 is judged: {out:?}");
        assert_eq!(out.lost[0].pkt_num, 0);
        assert_eq!(d.packets_in_flight(), 2);
    }
}
