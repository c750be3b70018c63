//! Calendar-queue timer wheel for the event scheduler.
//!
//! The simulator dispatches events in `(time, insertion-seq)` order. A
//! binary heap gives that order at `O(log n)` per operation with poor cache
//! locality; this wheel gives amortized `O(1)` pushes and pops for the
//! near-future events that dominate a packet simulation (serialization
//! completions, propagation arrivals, pacing timers), while far timers
//! (RTOs, experiment horizons) wait in a small overflow heap and *cascade*
//! into the wheel as time approaches them.
//!
//! Layout: one ring of [`NUM_BUCKETS`] buckets at [`TICK_NANOS`]-nanosecond
//! granularity (a window of ~268 ms — wider than any modeled RTT, so the
//! common path never touches the overflow heap). A bucket collects every
//! event whose tick lands on it; when the wheel advances to that tick the
//! bucket is sorted by `(at, seq)` into a FIFO dispatch buffer. Because
//! `seq` values are unique and monotone, this reproduces the heap's global
//! dispatch order *exactly* — same-tick FIFO included — which is what
//! keeps `FlowStats`, counter totals, and cache keys byte-identical across
//! the two schedulers (see `tests/wheel_equivalence.rs`).
//!
//! Storage: payloads live in one free-listed slab, written once on push
//! and moved out once on pop. The dispatch buffer and the overflow heap
//! sort and shift only 24-byte `(at, seq, slot)` keys, and each ring
//! bucket is a chain threaded through the slab from one `u32` head, so a
//! fresh wheel allocates nothing per bucket.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Nanoseconds per wheel tick (2^16 ≈ 65.5 µs).
#[cfg(test)]
pub(crate) const TICK_NANOS: u64 = 1 << TICK_SHIFT;
const TICK_SHIFT: u32 = 16;
/// Buckets in the ring; window = `NUM_BUCKETS * TICK_NANOS` ≈ 268 ms.
pub(crate) const NUM_BUCKETS: u64 = 4096;
const MASK: u64 = NUM_BUCKETS - 1;
const WORDS: usize = (NUM_BUCKETS / 64) as usize;
/// End of a bucket chain or of the free list.
const NIL: u32 = u32::MAX;

/// What the dispatch buffer and the overflow heap order: an event's
/// `(at, seq)` and the slab slot holding its payload.
#[derive(Clone, Copy)]
struct Key {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl Key {
    fn cmp_order(&self, other: &Key) -> Ordering {
        self.at.cmp(&other.at).then(self.seq.cmp(&other.seq))
    }
}

/// Overflow-heap wrapper: reversed `(at, seq)` order so the `BinaryHeap`
/// max-heap pops the earliest key first.
struct Overflow(Key);

impl PartialEq for Overflow {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Overflow {}
impl PartialOrd for Overflow {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Overflow {
    fn cmp(&self, other: &Self) -> Ordering {
        other.0.cmp_order(&self.0)
    }
}

/// One slab slot. `at` and `seq` rebuild the key when a ring bucket
/// drains; `next` links the slot into its bucket's chain, or into the
/// free list once `item` has been moved out.
struct Slot<T> {
    at: SimTime,
    seq: u64,
    next: u32,
    item: Option<T>,
}

/// The wheel. Generic over the event payload so the ordering contract can
/// be unit-tested without dragging in packets and agents.
pub(crate) struct TimerWheel<T> {
    /// Tick whose events are currently being dispatched from `current`.
    current_tick: u64,
    /// Keys of the events at or before `current_tick`, sorted by
    /// `(at, seq)`; popped from the front.
    current: VecDeque<Key>,
    /// Head slot of each ring bucket's chain (`NIL` when empty); bucket
    /// `b` holds the events of the unique tick `t ≡ b (mod NUM_BUCKETS)`
    /// inside the window `(current_tick, current_tick + NUM_BUCKETS)`.
    heads: [u32; NUM_BUCKETS as usize],
    /// One bit per bucket: set iff the bucket is non-empty.
    occupied: [u64; WORDS],
    /// Keys of the events beyond the wheel window, waiting to cascade in.
    overflow: BinaryHeap<Overflow>,
    /// Payload storage for every pending event, plus free slots.
    slab: Vec<Slot<T>>,
    /// Head of the free-slot list through `Slot::next`.
    free: u32,
    /// Entries currently chained in ring buckets.
    wheel_len: usize,
    /// Total entries (current + buckets + overflow).
    len: usize,
    /// Times an overflow entry was moved into the ring.
    cascades: u64,
}

impl<T> TimerWheel<T> {
    pub(crate) fn new() -> Self {
        TimerWheel {
            current_tick: 0,
            current: VecDeque::new(),
            heads: [NIL; NUM_BUCKETS as usize],
            occupied: [0; WORDS],
            overflow: BinaryHeap::new(),
            slab: Vec::new(),
            free: NIL,
            wheel_len: 0,
            len: 0,
            cascades: 0,
        }
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Times a far timer cascaded from the overflow heap into the ring.
    pub(crate) fn cascades(&self) -> u64 {
        self.cascades
    }

    /// Schedule an event. `seq` must be strictly greater than every
    /// previously pushed `seq` (the engine's global insertion counter).
    pub(crate) fn push(&mut self, at: SimTime, seq: u64, item: T) {
        let slot = self.alloc(at, seq, item);
        let tick = at.as_nanos() >> TICK_SHIFT;
        if tick <= self.current_tick {
            // Lands on the tick being dispatched (or behind it, when
            // `next_at` moved the cursor past the engine's `now`): insert
            // in sorted position. `seq` is larger than every queued seq,
            // so it goes after all keys with an earlier-or-equal time.
            let idx = self.current.partition_point(|k| k.at <= at);
            self.current.insert(idx, Key { at, seq, slot });
        } else if tick - self.current_tick < NUM_BUCKETS {
            self.link(tick, slot);
        } else {
            self.overflow.push(Overflow(Key { at, seq, slot }));
        }
        self.len += 1;
    }

    /// Earliest pending event time, advancing the wheel if needed to find
    /// it (advancing never changes dispatch order).
    pub(crate) fn next_at(&mut self) -> Option<SimTime> {
        loop {
            if let Some(k) = self.current.front() {
                return Some(k.at);
            }
            if self.len == 0 {
                return None;
            }
            self.advance();
        }
    }

    /// Remove and return the earliest event's time and payload (ties in
    /// insertion order).
    pub(crate) fn pop(&mut self) -> Option<(SimTime, T)> {
        loop {
            if let Some(k) = self.current.pop_front() {
                self.len -= 1;
                let slot = &mut self.slab[k.slot as usize];
                let item = slot.item.take().expect("queued slot holds its event");
                slot.next = self.free;
                self.free = k.slot;
                return Some((k.at, item));
            }
            if self.len == 0 {
                return None;
            }
            self.advance();
        }
    }

    /// Store a payload in a free slot (or a new one) and return its index.
    fn alloc(&mut self, at: SimTime, seq: u64, item: T) -> u32 {
        let slot = Slot {
            at,
            seq,
            next: NIL,
            item: Some(item),
        };
        if self.free == NIL {
            // `NIL` marks chain ends, so it can never name a slot.
            assert!(self.slab.len() < NIL as usize, "timer wheel slab full");
            self.slab.push(slot);
            (self.slab.len() - 1) as u32
        } else {
            let idx = self.free;
            let free = &mut self.slab[idx as usize];
            self.free = free.next;
            *free = slot;
            idx
        }
    }

    /// Chain `slot` into the ring bucket of `tick`.
    fn link(&mut self, tick: u64, slot: u32) {
        let b = (tick & MASK) as usize;
        self.slab[slot as usize].next = self.heads[b];
        self.heads[b] = slot;
        self.occupied[b >> 6] |= 1 << (b & 63);
        self.wheel_len += 1;
    }

    /// Jump `current_tick` to the next tick holding events, cascade any
    /// overflow entries that the move brought inside the window, and move
    /// that tick's bucket (sorted) into the dispatch buffer.
    fn advance(&mut self) {
        debug_assert!(self.current.is_empty());
        let wheel_next = (self.wheel_len > 0).then(|| self.scan_next());
        let over_next = self
            .overflow
            .peek()
            .map(|k| k.0.at.as_nanos() >> TICK_SHIFT);
        self.current_tick = match (wheel_next, over_next) {
            (Some(w), Some(o)) => w.min(o),
            (Some(w), None) => w,
            (None, Some(o)) => o,
            (None, None) => return,
        };
        while let Some(top) = self.overflow.peek() {
            let tick = top.0.at.as_nanos() >> TICK_SHIFT;
            if tick - self.current_tick >= NUM_BUCKETS {
                break;
            }
            let key = self.overflow.pop().expect("peeked entry").0;
            self.link(tick, key.slot);
            self.cascades += 1;
        }
        let b = (self.current_tick & MASK) as usize;
        // Chains are newest-first; pushing each key to the front leaves
        // the buffer in insertion order, which is usually sorted already.
        // Rewinding the empty buffer first usually leaves the keys in one
        // run, so `make_contiguous` has nothing to move.
        self.current.clear();
        let mut idx = std::mem::replace(&mut self.heads[b], NIL);
        while idx != NIL {
            let slot = &self.slab[idx as usize];
            self.current.push_front(Key {
                at: slot.at,
                seq: slot.seq,
                slot: idx,
            });
            idx = slot.next;
        }
        self.wheel_len -= self.current.len();
        self.current
            .make_contiguous()
            .sort_unstable_by(Key::cmp_order);
        self.occupied[b >> 6] &= !(1 << (b & 63));
    }

    /// Smallest tick strictly after `current_tick` with a non-empty bucket.
    /// Caller guarantees the ring holds at least one entry.
    fn scan_next(&self) -> u64 {
        let start = ((self.current_tick + 1) & MASK) as usize;
        for step in 0..=WORDS {
            let w = (start / 64 + step) % WORDS;
            let mut word = self.occupied[w];
            if step == 0 {
                word &= !0u64 << (start & 63);
            } else if step == WORDS {
                word &= (1u64 << (start & 63)) - 1;
            }
            if word != 0 {
                let b = (w * 64 + word.trailing_zeros() as usize) as u64;
                let dist = b.wrapping_sub(self.current_tick + 1) & MASK;
                return self.current_tick + 1 + dist;
            }
        }
        unreachable!("scan_next on an empty ring")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Cascades of `cursor_ahead_pushes_keep_order_and_cascade_counts`.
    /// They enter every results digest, so these are the counts of the
    /// original `Vec`-bucket wheel, which any storage change must keep.
    const CURSOR_AHEAD_CASCADES: u64 = 4;
    /// Cascades of `random_interleaving_matches_heap_reference`, recorded
    /// the same way.
    const RANDOM_CASCADES: u64 = 4968;

    fn drain(w: &mut TimerWheel<u64>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some((at, item)) = w.pop() {
            out.push((at.as_nanos(), item));
        }
        out
    }

    #[test]
    fn same_tick_fifo_order() {
        // Many events at the same instant must pop in insertion order.
        let mut w = TimerWheel::new();
        let at = SimTime::from_micros(10);
        for seq in 1..=50u64 {
            w.push(at, seq, seq);
        }
        let got: Vec<u64> = drain(&mut w).into_iter().map(|(_, i)| i).collect();
        assert_eq!(got, (1..=50).collect::<Vec<_>>());
    }

    #[test]
    fn matches_global_time_seq_order() {
        // A scrambled schedule pops in exactly (at, seq) order, including
        // distinct times that share one wheel tick.
        let mut w = TimerWheel::new();
        let mut expect = Vec::new();
        let mut seq = 0u64;
        let mut x = 0x2545_F491u64;
        for _ in 0..2000 {
            // Covers same-tick and cross-bucket cases.
            let at = SimTime::from_nanos(xorshift(&mut x) % (50 * TICK_NANOS));
            seq += 1;
            w.push(at, seq, seq);
            expect.push((at.as_nanos(), seq));
        }
        expect.sort();
        assert_eq!(drain(&mut w), expect);
    }

    #[test]
    fn overflow_cascades_in_order() {
        // Events far beyond the window must cascade in and still dispatch
        // in global order.
        let mut w = TimerWheel::new();
        let far = NUM_BUCKETS * TICK_NANOS;
        w.push(SimTime::from_nanos(3 * far), 1, 1);
        w.push(SimTime::from_nanos(100), 2, 2);
        w.push(SimTime::from_nanos(2 * far), 3, 3);
        w.push(SimTime::from_nanos(3 * far), 4, 4);
        let got: Vec<u64> = drain(&mut w).into_iter().map(|(_, i)| i).collect();
        assert_eq!(got, vec![2, 3, 1, 4]);
        assert!(w.cascades() > 0, "far timers must cascade, not teleport");
    }

    #[test]
    fn push_onto_current_tick_keeps_order() {
        // While dispatching tick T, a new event at the same tick but a
        // later timestamp must slot after pending earlier timestamps.
        let mut w = TimerWheel::new();
        w.push(SimTime::from_nanos(10), 1, 1);
        w.push(SimTime::from_nanos(30), 2, 2);
        assert_eq!(w.pop().unwrap().1, 1);
        // Same instant as the pending event: FIFO ⇒ after it.
        w.push(SimTime::from_nanos(30), 3, 3);
        // Earlier instant than the pending event: before it.
        w.push(SimTime::from_nanos(20), 4, 4);
        let got: Vec<u64> = drain(&mut w).into_iter().map(|(_, i)| i).collect();
        assert_eq!(got, vec![4, 2, 3]);
    }

    #[test]
    fn next_at_peeks_without_reordering() {
        let mut w = TimerWheel::new();
        w.push(SimTime::from_millis(500), 1, 1); // overflow territory
        w.push(SimTime::from_nanos(5), 2, 2);
        assert_eq!(w.next_at(), Some(SimTime::from_nanos(5)));
        assert_eq!(w.pop().unwrap().1, 2);
        assert_eq!(w.next_at(), Some(SimTime::from_millis(500)));
        assert_eq!(w.pop().unwrap().1, 1);
        assert_eq!(w.next_at(), None);
        assert_eq!(w.len(), 0);
    }

    /// Deterministic xorshift64 stream for the randomized tests.
    fn xorshift(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    #[test]
    fn cursor_ahead_pushes_keep_order_and_cascade_counts() {
        // `next_at` past a deadline moves the cursor beyond the engine's
        // `now`; the engine may then push at earlier ticks (a host
        // driver spawning a flow between `run_until` calls). Those pushes
        // land on the current tick's queue, and the cascade count — part
        // of every results digest — must stay exactly as recorded.
        let mut w = TimerWheel::new();
        let far = NUM_BUCKETS * TICK_NANOS;
        let mut seq = 0u64;
        let mut expect = Vec::new();
        let mut push = |w: &mut TimerWheel<u64>, at: u64| {
            seq += 1;
            w.push(SimTime::from_nanos(at), seq, seq);
            expect.push((at, seq));
        };
        push(&mut w, 40 * TICK_NANOS + 7);
        push(&mut w, 2 * far + 3);
        push(&mut w, 5 * far);
        // Peek past a deadline at tick 10: the cursor jumps to tick 40.
        assert_eq!(w.next_at(), Some(SimTime::from_nanos(40 * TICK_NANOS + 7)));
        // Now push behind the cursor, at it, and into the far future.
        push(&mut w, 10 * TICK_NANOS);
        push(&mut w, 3);
        push(&mut w, 40 * TICK_NANOS + 7);
        push(&mut w, 39 * TICK_NANOS + 1);
        push(&mut w, 3 * far);
        push(&mut w, 41 * TICK_NANOS);
        // Pop the near events, peek into overflow territory (the cursor
        // jumps there), then push earlier again.
        let mut got = Vec::new();
        for _ in 0..6 {
            let (at, item) = w.pop().unwrap();
            got.push((at.as_nanos(), item));
        }
        assert_eq!(w.next_at(), Some(SimTime::from_nanos(2 * far + 3)));
        push(&mut w, 2 * far + 1);
        push(&mut w, 50 * TICK_NANOS);
        push(&mut w, 6 * far);
        got.extend(drain(&mut w));
        expect.sort();
        assert_eq!(got, expect);
        assert_eq!(w.cascades(), CURSOR_AHEAD_CASCADES);
    }

    #[test]
    fn random_interleaving_matches_heap_reference() {
        // 60k seeded push / next_at / pop operations, with offsets from
        // same-tick to several windows out, against a `BinaryHeap` of
        // reversed `(at, seq)` keys. Pushes never precede the last popped
        // time, as in the engine.
        use std::cmp::Reverse;
        let mut w = TimerWheel::new();
        let mut reference = BinaryHeap::new();
        let window = NUM_BUCKETS * TICK_NANOS;
        let (mut x, mut seq, mut now) = (0x9E37_79B9_7F4A_7C15u64, 0u64, 0u64);
        for _ in 0..60_000 {
            let r = xorshift(&mut x);
            match r % 8 {
                0..=3 => {
                    let offset = match (r >> 3) % 4 {
                        0 => (r >> 5) % TICK_NANOS,
                        1 => (r >> 5) % (64 * TICK_NANOS),
                        2 => (r >> 5) % window,
                        _ => (r >> 5) % (3 * window),
                    };
                    seq += 1;
                    w.push(SimTime::from_nanos(now + offset), seq, seq);
                    reference.push(Reverse((now + offset, seq)));
                }
                4 => {
                    let want = reference.peek().map(|Reverse((at, _))| *at);
                    assert_eq!(w.next_at().map(SimTime::as_nanos), want);
                }
                _ => {
                    let got = w.pop().map(|(at, item)| (at.as_nanos(), item));
                    let want = reference.pop().map(|Reverse(k)| k);
                    assert_eq!(got, want);
                    if let Some((at, _)) = got {
                        now = at;
                    }
                }
            }
        }
        while let Some(Reverse(want)) = reference.pop() {
            let (at, item) = w.pop().expect("wheel drained early");
            assert_eq!((at.as_nanos(), item), want);
        }
        assert!(w.pop().is_none());
        assert_eq!(w.cascades(), RANDOM_CASCADES);
    }

    #[test]
    fn drained_slab_holds_no_more_than_peak_pending() {
        // Waves of pushes (near and far) and partial drains: popped slots
        // go back on the free list, so the slab never outgrows the peak
        // number of pending events, and after a full drain every slot is
        // free.
        let mut w = TimerWheel::new();
        let window = NUM_BUCKETS * TICK_NANOS;
        let (mut x, mut seq, mut now, mut peak) = (0x2545_F491u64, 0u64, 0u64, 0usize);
        for _ in 0..200 {
            for _ in 0..xorshift(&mut x) % 300 {
                seq += 1;
                let at = now + xorshift(&mut x) % (2 * window);
                w.push(SimTime::from_nanos(at), seq, seq);
            }
            peak = peak.max(w.len());
            for _ in 0..xorshift(&mut x) % 300 {
                match w.pop() {
                    Some((at, _)) => now = at.as_nanos(),
                    None => break,
                }
            }
        }
        drain(&mut w);
        assert!(w.slab.len() <= peak, "slab {} > peak {peak}", w.slab.len());
        let mut free = 0;
        let mut idx = w.free;
        while idx != NIL {
            assert!(w.slab[idx as usize].item.is_none());
            free += 1;
            idx = w.slab[idx as usize].next;
        }
        assert_eq!(free, w.slab.len(), "a drained slot left the free list");
    }

    #[test]
    fn empty_wheel_behaves() {
        let mut w: TimerWheel<u64> = TimerWheel::new();
        assert!(w.pop().is_none());
        assert_eq!(w.next_at(), None);
        assert_eq!(w.len(), 0);
    }
}
