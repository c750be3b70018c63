//! Ordered, non-overlapping byte-range sets.
//!
//! Used by the receiver's reassembly buffer and the sender's SACK
//! scoreboard. Ranges are half-open `[start, end)` over absolute stream
//! offsets.

use std::fmt;

/// A half-open byte range `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ByteRange {
    /// Inclusive start offset.
    pub start: u64,
    /// Exclusive end offset.
    pub end: u64,
}

impl ByteRange {
    /// Create a range. `start == end` yields an empty range.
    ///
    /// # Panics
    /// Panics if `start > end`.
    #[inline]
    pub fn new(start: u64, end: u64) -> Self {
        assert!(start <= end, "inverted range [{start}, {end})");
        ByteRange { start, end }
    }

    /// Number of bytes covered.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// Whether the range covers no bytes.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Whether `offset` lies inside the range.
    pub fn contains(&self, offset: u64) -> bool {
        self.start <= offset && offset < self.end
    }

    /// Whether the two ranges overlap or touch (can be merged).
    pub fn mergeable(&self, other: &ByteRange) -> bool {
        self.start <= other.end && other.start <= self.end
    }

    /// The intersection, if non-empty.
    pub fn intersect(&self, other: &ByteRange) -> Option<ByteRange> {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        (start < end).then(|| ByteRange::new(start, end))
    }
}

impl fmt::Display for ByteRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

/// A set of disjoint, sorted byte ranges with merge-on-insert.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RangeSet {
    ranges: Vec<ByteRange>,
    /// Bytes covered by `ranges`, kept current by every mutation.
    total: u64,
}

impl RangeSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of disjoint ranges.
    pub fn num_ranges(&self) -> usize {
        self.ranges.len()
    }

    /// Total bytes covered, in O(1).
    #[inline]
    pub fn total_bytes(&self) -> u64 {
        debug_assert_eq!(self.total, self.ranges.iter().map(ByteRange::len).sum());
        self.total
    }

    /// Whether the set covers no bytes.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Iterate the disjoint ranges in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = ByteRange> + '_ {
        self.ranges.iter().copied()
    }

    /// Iterate ranges that end after `offset` (ascending), skipping the
    /// fully-consumed prefix in O(log n).
    #[inline]
    pub fn iter_from(&self, offset: u64) -> impl Iterator<Item = ByteRange> + '_ {
        let i = self.ranges.partition_point(|x| x.end <= offset);
        self.ranges[i..].iter().copied()
    }

    /// Insert a range, merging with any overlapping/adjacent ranges.
    /// Returns the number of *new* bytes added (0 if fully duplicate).
    #[inline]
    pub fn insert(&mut self, r: ByteRange) -> u64 {
        if r.is_empty() {
            return 0;
        }
        // Find insertion window: all ranges mergeable with r.
        let lo = self.ranges.partition_point(|x| x.end < r.start);
        let hi = self.ranges.partition_point(|x| x.start <= r.end);
        if lo == hi {
            self.ranges.insert(lo, r);
            self.total += r.len();
            return r.len();
        }
        // The window and r union to exactly `merged`, so the new bytes are
        // its length less the window's.
        let merged = ByteRange::new(
            self.ranges[lo].start.min(r.start),
            self.ranges[hi - 1].end.max(r.end),
        );
        let absorbed: u64 = self.ranges[lo..hi].iter().map(ByteRange::len).sum();
        self.ranges[lo] = merged;
        self.ranges.drain(lo + 1..hi);
        let added = merged.len() - absorbed;
        self.total += added;
        added
    }

    /// Remove a range from the set (set difference), splitting any range
    /// that straddles it. Returns the number of bytes removed.
    #[inline]
    pub fn remove(&mut self, r: ByteRange) -> u64 {
        if r.is_empty() {
            return 0;
        }
        // The window of ranges that intersect r.
        let lo = self.ranges.partition_point(|x| x.end <= r.start);
        let hi = self.ranges.partition_point(|x| x.start < r.end);
        if lo >= hi {
            return 0;
        }
        let removed: u64 = self.ranges[lo..hi]
            .iter()
            .map(|x| x.intersect(&r).map_or(0, |i| i.len()))
            .sum();
        // Only the window's ends can straddle r; keep their outer parts.
        let (first, last) = (self.ranges[lo], self.ranges[hi - 1]);
        let head = (first.start < r.start).then(|| ByteRange::new(first.start, r.start));
        let tail = (r.end < last.end).then(|| ByteRange::new(r.end, last.end));
        self.ranges.splice(lo..hi, head.into_iter().chain(tail));
        self.total -= removed;
        removed
    }

    /// Remove every byte below `offset` (they have been consumed).
    #[inline]
    pub fn remove_below(&mut self, offset: u64) {
        let i = self.ranges.partition_point(|x| x.end <= offset);
        let dropped: u64 = self.ranges.drain(..i).map(|x| x.len()).sum();
        self.total -= dropped;
        // Only the new first range can straddle `offset`.
        if let Some(first) = self.ranges.first_mut().filter(|x| x.start < offset) {
            self.total -= offset - first.start;
            first.start = offset;
        }
    }

    /// Whether `offset` is covered by the set.
    pub fn contains(&self, offset: u64) -> bool {
        let i = self.ranges.partition_point(|x| x.end <= offset);
        self.ranges.get(i).is_some_and(|r| r.contains(offset))
    }

    /// Bytes of the set that fall within `[start, end)`.
    pub fn covered_within(&self, within: ByteRange) -> u64 {
        self.ranges
            .iter()
            .filter_map(|r| r.intersect(&within))
            .map(|r| r.len())
            .sum()
    }

    /// The end of the contiguous run starting at `offset` (== `offset` if
    /// `offset` itself is not covered). This is the receiver's cumulative
    /// ACK computation.
    #[inline]
    pub fn contiguous_end(&self, offset: u64) -> u64 {
        let i = self.ranges.partition_point(|x| x.end < offset);
        match self.ranges.get(i) {
            Some(r) if r.start <= offset => r.end.max(offset),
            _ => offset,
        }
    }

    /// The first gap (uncovered range) at or after `offset`, bounded by
    /// `limit`. Returns `None` if everything in `[offset, limit)` is
    /// covered. This is the sender's "next hole to retransmit" query.
    #[inline]
    pub fn first_gap(&self, offset: u64, limit: u64) -> Option<ByteRange> {
        if offset >= limit {
            return None;
        }
        let mut cursor = offset;
        let start_idx = self.ranges.partition_point(|x| x.end <= offset);
        for r in &self.ranges[start_idx..] {
            if r.start > cursor {
                return Some(ByteRange::new(cursor, r.start.min(limit)));
            }
            cursor = cursor.max(r.end);
            if cursor >= limit {
                return None;
            }
        }
        (cursor < limit).then(|| ByteRange::new(cursor, limit))
    }

    /// The most recently useful SACK blocks: the `max_blocks` ranges with
    /// the highest offsets (receivers report newest information first).
    pub fn sack_blocks(&self, above: u64, max_blocks: usize) -> Vec<ByteRange> {
        self.ranges
            .iter()
            .rev()
            .filter(|r| r.end > above)
            .take(max_blocks)
            .map(|r| ByteRange::new(r.start.max(above), r.end))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(a: u64, b: u64) -> ByteRange {
        ByteRange::new(a, b)
    }

    #[test]
    fn basic_range_ops() {
        let x = r(10, 20);
        assert_eq!(x.len(), 10);
        assert!(x.contains(10) && x.contains(19) && !x.contains(20));
        assert_eq!(x.intersect(&r(15, 30)), Some(r(15, 20)));
        assert_eq!(x.intersect(&r(20, 30)), None);
        assert!(x.mergeable(&r(20, 30)), "touching ranges merge");
        assert!(!x.mergeable(&r(21, 30)));
    }

    #[test]
    #[should_panic]
    fn inverted_range_panics() {
        r(5, 4);
    }

    #[test]
    fn insert_disjoint_sorted() {
        let mut s = RangeSet::new();
        assert_eq!(s.insert(r(30, 40)), 10);
        assert_eq!(s.insert(r(10, 20)), 10);
        assert_eq!(s.insert(r(50, 60)), 10);
        let v: Vec<_> = s.iter().collect();
        assert_eq!(v, vec![r(10, 20), r(30, 40), r(50, 60)]);
        assert_eq!(s.total_bytes(), 30);
    }

    #[test]
    fn insert_merges_overlaps() {
        let mut s = RangeSet::new();
        s.insert(r(10, 20));
        s.insert(r(30, 40));
        // Bridges both, overlapping each.
        assert_eq!(s.insert(r(15, 35)), 10);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![r(10, 40)]);
    }

    #[test]
    fn insert_merges_adjacent() {
        let mut s = RangeSet::new();
        s.insert(r(10, 20));
        s.insert(r(20, 30));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![r(10, 30)]);
    }

    #[test]
    fn duplicate_insert_adds_nothing() {
        let mut s = RangeSet::new();
        s.insert(r(10, 20));
        assert_eq!(s.insert(r(12, 18)), 0);
        assert_eq!(s.total_bytes(), 10);
    }

    #[test]
    fn empty_insert_ignored() {
        let mut s = RangeSet::new();
        assert_eq!(s.insert(r(5, 5)), 0);
        assert!(s.is_empty());
    }

    #[test]
    fn contiguous_end_cumulative_ack() {
        let mut s = RangeSet::new();
        s.insert(r(0, 10));
        s.insert(r(20, 30));
        assert_eq!(s.contiguous_end(0), 10);
        assert_eq!(s.contiguous_end(10), 10, "offset at gap stays put");
        assert_eq!(s.contiguous_end(20), 30);
        assert_eq!(s.contiguous_end(5), 10);
        assert_eq!(s.contiguous_end(40), 40);
    }

    #[test]
    fn first_gap_queries() {
        let mut s = RangeSet::new();
        s.insert(r(10, 20));
        s.insert(r(30, 40));
        assert_eq!(s.first_gap(0, 50), Some(r(0, 10)));
        assert_eq!(s.first_gap(10, 50), Some(r(20, 30)));
        assert_eq!(s.first_gap(35, 50), Some(r(40, 50)));
        assert_eq!(s.first_gap(10, 20), None, "fully covered window");
        assert_eq!(s.first_gap(50, 50), None, "empty window");
        // Gap clipped by limit.
        assert_eq!(s.first_gap(20, 25), Some(r(20, 25)));
    }

    #[test]
    fn remove_splits_straddled_range() {
        let mut s = RangeSet::new();
        s.insert(r(10, 40));
        assert_eq!(s.remove(r(20, 30)), 10);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![r(10, 20), r(30, 40)]);
        // Removing uncovered bytes is a no-op.
        assert_eq!(s.remove(r(20, 30)), 0);
        // Removal spanning multiple ranges.
        assert_eq!(s.remove(r(15, 35)), 10);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![r(10, 15), r(35, 40)]);
    }

    #[test]
    fn remove_below_trims_and_drops() {
        let mut s = RangeSet::new();
        s.insert(r(10, 20));
        s.insert(r(30, 40));
        s.remove_below(15);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![r(15, 20), r(30, 40)]);
        s.remove_below(25);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![r(30, 40)]);
        s.remove_below(100);
        assert!(s.is_empty());
    }

    #[test]
    fn contains_offset() {
        let mut s = RangeSet::new();
        s.insert(r(10, 20));
        assert!(s.contains(10) && s.contains(19));
        assert!(!s.contains(9) && !s.contains(20));
    }

    #[test]
    fn covered_within_window() {
        let mut s = RangeSet::new();
        s.insert(r(10, 20));
        s.insert(r(30, 40));
        assert_eq!(s.covered_within(r(0, 50)), 20);
        assert_eq!(s.covered_within(r(15, 35)), 10);
        assert_eq!(s.covered_within(r(20, 30)), 0);
    }

    /// Deterministic xorshift64 stream for the randomized tests.
    fn xorshift(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    /// The maximal runs of a bitmap, ascending: what the set must hold.
    fn runs(bits: &[bool]) -> Vec<ByteRange> {
        let mut out = Vec::new();
        let mut start = None;
        for (i, &b) in bits.iter().chain([&false]).enumerate() {
            match (b, start) {
                (true, None) => start = Some(i as u64),
                (false, Some(s)) => {
                    out.push(r(s, i as u64));
                    start = None;
                }
                _ => {}
            }
        }
        out
    }

    #[test]
    fn random_operations_match_bitmap_model() {
        const U: u64 = 96;
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        let mut s = RangeSet::new();
        let mut bits = [false; U as usize];
        for op in 0..20_000 {
            let a = xorshift(&mut x) % (U + 1);
            let b = a + xorshift(&mut x) % (U + 1 - a).min(24);
            let span = a as usize..b as usize;
            match xorshift(&mut x) % 8 {
                0..=3 => {
                    let new = bits[span.clone()].iter().filter(|&&b| !b).count();
                    assert_eq!(s.insert(r(a, b)), new as u64, "op {op}: insert");
                    bits[span.clone()].fill(true);
                }
                4..=6 => {
                    let old = bits[span.clone()].iter().filter(|&&b| b).count();
                    assert_eq!(s.remove(r(a, b)), old as u64, "op {op}: remove");
                    bits[span.clone()].fill(false);
                }
                _ => {
                    s.remove_below(a);
                    bits[..a as usize].fill(false);
                }
            }
            let want = runs(&bits);
            assert_eq!(s.iter().collect::<Vec<_>>(), want, "op {op}");
            let covered = bits.iter().filter(|&&b| b).count() as u64;
            assert_eq!(s.total_bytes(), covered, "op {op}");
            assert_eq!(s.num_ranges(), want.len());
            assert_eq!(s.is_empty(), covered == 0);
            let inside = bits[span].iter().filter(|&&b| b).count() as u64;
            assert_eq!(s.covered_within(r(a, b)), inside, "op {op}");
            assert_eq!(s.contains(a), bits.get(a as usize) == Some(&true));
        }
    }

    #[test]
    fn sack_blocks_newest_first() {
        let mut s = RangeSet::new();
        s.insert(r(10, 20));
        s.insert(r(30, 40));
        s.insert(r(50, 60));
        s.insert(r(70, 80));
        let blocks = s.sack_blocks(0, 3);
        assert_eq!(blocks, vec![r(70, 80), r(50, 60), r(30, 40)]);
        // `above` trims and filters.
        let blocks = s.sack_blocks(55, 3);
        assert_eq!(blocks, vec![r(70, 80), r(55, 60)]);
    }
}
