//! The sender's retransmission queue: outstanding segments in stream
//! offset order.
//!
//! Segments are appended at `snd_nxt`, which only grows between
//! go-back-N clears, so the queue is sorted by construction and a
//! cumulative ACK retires a prefix of it. [`RetxQueue`] stores them in a
//! `VecDeque` that retires from the front and finds SACK ranges by
//! binary search. It reallocates only to grow, or to shrink once the
//! window falls to a quarter of its capacity, so nothing is allocated
//! per segment. It keeps the exact semantics of an offset-keyed ordered
//! map in the rare cases the fast paths do not cover: an insert that is
//! not past the back is placed (or, at an existing offset, replaces) by
//! binary search, and a front segment left straddling the cumulative
//! ACK does not hide covered segments behind it.

use csig_netsim::SimTime;
use std::collections::VecDeque;

/// Capacity (in segments) below which the queue never shrinks, so short
/// request/response exchanges do not reallocate on every ACK.
const SHRINK_ABOVE: usize = 64;

/// Metadata for one outstanding (sent, unacked) segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SegMeta {
    /// Stream offset of the first byte.
    pub offset: u64,
    /// Payload bytes.
    pub payload: u32,
    /// FIN flag on this segment.
    pub fin: bool,
    /// Last transmission time.
    pub sent_at: SimTime,
    /// Has this segment ever been retransmitted (Karn)?
    pub retx: bool,
    /// Selectively acknowledged by the peer.
    pub sacked: bool,
}

impl SegMeta {
    /// Sequence space consumed: the payload, plus one for a FIN.
    pub fn seq_len(&self) -> u64 {
        self.payload as u64 + u64::from(self.fin)
    }

    /// Exclusive end of the sequence space this segment consumes.
    pub fn end(&self) -> u64 {
        self.offset + self.seq_len()
    }
}

/// Outstanding segments sorted by offset, with RFC 6675 SACK
/// accounting.
#[derive(Debug, Clone, Default)]
pub(crate) struct RetxQueue {
    segs: VecDeque<SegMeta>,
    /// Bytes of queued segments selectively acknowledged.
    sacked_bytes: u64,
}

impl RetxQueue {
    /// Queue a transmitted segment. A segment at an offset already
    /// queued replaces it.
    pub fn insert(&mut self, seg: SegMeta) {
        match self.segs.back() {
            Some(back) if back.offset >= seg.offset => {
                let i = self.segs.partition_point(|s| s.offset < seg.offset);
                match self.segs.get_mut(i) {
                    Some(old) if old.offset == seg.offset => {
                        if old.sacked {
                            self.sacked_bytes -= old.seq_len();
                        }
                        *old = seg;
                    }
                    _ => self.segs.insert(i, seg),
                }
            }
            _ => self.segs.push_back(seg),
        }
    }

    /// Mark every unsacked segment lying wholly inside `[start, end)` as
    /// selectively acknowledged; returns the sequence space newly marked.
    pub fn mark_sacked(&mut self, start: u64, end: u64) -> u64 {
        let first = self.segs.partition_point(|s| s.offset < start);
        let mut newly = 0u64;
        for seg in self.segs.range_mut(first..) {
            if seg.offset >= end {
                break;
            }
            if seg.end() <= end && !seg.sacked {
                seg.sacked = true;
                newly += seg.seq_len();
            }
        }
        self.sacked_bytes += newly;
        newly
    }

    /// Remove every segment wholly covered by the cumulative ACK
    /// `ack_off`, in offset order. Returns the send time of the last
    /// covered segment that was never retransmitted: the Karn-valid RTT
    /// sample, if any.
    pub fn retire(&mut self, ack_off: u64) -> Option<SimTime> {
        let mut sample = None;
        while let Some(seg) = self.segs.front() {
            if seg.end() > ack_off {
                break;
            }
            self.retire_one(0, &mut sample);
        }
        // A front segment straddling `ack_off` (a resend after go-back-N
        // whose boundaries differ from the acknowledged ones, or a data
        // segment whose FIN is not yet acknowledged) stops the pop. Any
        // covered segment behind it starts below `ack_off`, so scanning
        // stops at the first one that does not; with disjoint segments
        // that is the next one.
        if self.segs.front().is_some_and(|s| s.offset < ack_off) {
            let mut i = 1;
            while let Some(seg) = self.segs.get(i) {
                if seg.offset >= ack_off {
                    break;
                }
                if seg.end() <= ack_off {
                    self.retire_one(i, &mut sample);
                } else {
                    i += 1;
                }
            }
        }
        // Hand back capacity once the window has shrunk well below it
        // (after a loss, or as a connection's next fetch restarts slow
        // start); otherwise every connection would hold its peak
        // window's worth for life. Halving, at most once per ACK, when a
        // quarter full keeps this amortised O(1) per segment.
        if self.segs.capacity() > SHRINK_ABOVE && self.segs.len() < self.segs.capacity() / 4 {
            self.segs.shrink_to(self.segs.capacity() / 2);
        }
        sample
    }

    fn retire_one(&mut self, i: usize, sample: &mut Option<SimTime>) {
        let Some(seg) = self.segs.remove(i) else {
            unreachable!("index was just read from this queue")
        };
        if seg.sacked {
            self.sacked_bytes -= seg.seq_len();
        }
        if !seg.retx {
            *sample = Some(seg.sent_at);
        }
    }

    /// Drop every segment (go-back-N restart).
    pub fn clear(&mut self) {
        self.segs.clear();
        self.sacked_bytes = 0;
    }

    /// Number of outstanding segments.
    pub fn len(&self) -> usize {
        self.segs.len()
    }

    /// No segment outstanding.
    pub fn is_empty(&self) -> bool {
        self.segs.is_empty()
    }

    /// Bytes of outstanding segments selectively acknowledged.
    pub fn sacked_bytes(&self) -> u64 {
        self.sacked_bytes
    }

    /// Segments in offset order.
    pub fn iter(&self) -> impl Iterator<Item = &SegMeta> {
        self.segs.iter()
    }

    /// Segments in offset order, mutably.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut SegMeta> {
        self.segs.iter_mut()
    }
}

#[cfg(test)]
mod tests {
    //! Differential test: [`RetxQueue`] against the offset-keyed
    //! `BTreeMap` bookkeeping it replaced.

    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The reference model: the map-based code the queue replaced,
    /// operation for operation.
    #[derive(Default)]
    struct MapModel {
        segs: BTreeMap<u64, SegMeta>,
        sacked_bytes: u64,
    }

    impl MapModel {
        fn insert(&mut self, seg: SegMeta) {
            if let Some(old) = self.segs.insert(seg.offset, seg) {
                if old.sacked {
                    self.sacked_bytes -= old.seq_len();
                }
            }
        }

        fn mark_sacked(&mut self, start: u64, end: u64) -> u64 {
            let mut newly = 0u64;
            for (_, meta) in self
                .segs
                .range_mut(start..end)
                .filter(|(&s, m)| s + m.seq_len() <= end && !m.sacked)
            {
                meta.sacked = true;
                newly += meta.seq_len();
            }
            self.sacked_bytes += newly;
            newly
        }

        /// Returns the retired segments in order, and the Karn sample.
        fn retire(&mut self, ack_off: u64) -> (Vec<SegMeta>, Option<SimTime>) {
            let covered: Vec<u64> = self
                .segs
                .range(..ack_off.saturating_add(1))
                .filter(|(&s, m)| s + m.seq_len() <= ack_off)
                .map(|(&s, _)| s)
                .collect();
            let mut retired = Vec::new();
            let mut sample = None;
            for s in covered {
                let meta = self.segs.remove(&s).expect("listed key");
                if meta.sacked {
                    self.sacked_bytes -= meta.seq_len();
                }
                if !meta.retx {
                    sample = Some(meta.sent_at);
                }
                retired.push(meta);
            }
            (retired, sample)
        }

        fn clear(&mut self) {
            self.segs.clear();
            self.sacked_bytes = 0;
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// Append a segment of this length at the send point.
        Send { len: u32, fin: bool, retx: bool },
        /// Re-insert at the offset of the i-th queued segment (mod len).
        Reinsert { pick: usize, len: u32 },
        /// Insert below the back at an arbitrary offset (overlapping).
        InsertBelow { back: u64, len: u32 },
        /// SACK `[snd_una + lo, snd_una + lo + len)`.
        Sack { lo: u64, len: u64 },
        /// Cumulative ACK `delta` bytes past the front's offset.
        Ack { delta: u64 },
        /// Retransmit (mark) the first unsacked segment.
        Retransmit,
        /// Go-back-N: clear, roll the send point back.
        Clear,
    }

    /// Decode one raw draw `(kind, a, b, flag)` into an operation, with
    /// sends, ACKs and SACKs the common cases.
    fn op((kind, a, b, flag): (u8, u64, u64, bool)) -> Op {
        let len = (b % 3000 + 1) as u32;
        match kind {
            0..=5 => Op::Send {
                len,
                fin: flag && a % 7 == 0,
                retx: flag && a % 3 == 0,
            },
            6 => Op::Reinsert {
                pick: a as usize,
                len,
            },
            7 => Op::InsertBelow {
                back: a % 6000 + 1,
                len,
            },
            8..=10 => Op::Sack {
                lo: a % 20_000,
                len: b % 8000 + 1,
            },
            11..=14 => Op::Ack { delta: a % 12_000 },
            15 => Op::Retransmit,
            _ => Op::Clear,
        }
    }

    fn seg(offset: u64, len: u32, fin: bool, retx: bool, t: u64) -> SegMeta {
        SegMeta {
            offset,
            payload: len,
            fin,
            sent_at: SimTime::from_micros(t),
            retx,
            sacked: false,
        }
    }

    fn assert_same(q: &RetxQueue, m: &MapModel) {
        let got: Vec<SegMeta> = q.iter().copied().collect();
        let want: Vec<SegMeta> = m.segs.values().copied().collect();
        assert_eq!(got, want);
        assert_eq!(q.sacked_bytes(), m.sacked_bytes);
        assert_eq!(q.len(), m.segs.len());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn queue_matches_map_model(
            raw in proptest::collection::vec((0u8..17, any::<u64>(), any::<u64>(), any::<bool>()), 1..120)
        ) {
            let mut q = RetxQueue::default();
            let mut m = MapModel::default();
            let mut snd_nxt = 0u64;
            let mut snd_una = 0u64;
            for (t, draw) in raw.into_iter().enumerate() {
                let t = t as u64;
                match op(draw) {
                    Op::Send { len, fin, retx } => {
                        let s = seg(snd_nxt, len, fin, retx, t);
                        q.insert(s);
                        m.insert(s);
                        snd_nxt += len as u64;
                    }
                    Op::Reinsert { pick, len } => {
                        let Some(&old) = m.segs.values().nth(pick % m.segs.len().max(1)) else {
                            continue;
                        };
                        let s = seg(old.offset, len, false, true, t);
                        q.insert(s);
                        m.insert(s);
                    }
                    Op::InsertBelow { back, len } => {
                        let s = seg(snd_nxt.saturating_sub(back), len, false, false, t);
                        q.insert(s);
                        m.insert(s);
                    }
                    Op::Sack { lo, len } => {
                        let start = snd_una + lo;
                        prop_assert_eq!(
                            q.mark_sacked(start, start + len),
                            m.mark_sacked(start, start + len)
                        );
                    }
                    Op::Ack { delta } => {
                        // Acks land on, between and past segment edges,
                        // so fronts straddle the ACK regularly.
                        let base = m.segs.values().next().map_or(snd_una, |s| s.offset);
                        let ack_off = base + delta;
                        let (retired, want) = m.retire(ack_off);
                        let before: Vec<SegMeta> = q.iter().copied().collect();
                        let got = q.retire(ack_off);
                        prop_assert_eq!(got, want);
                        let after: Vec<SegMeta> = q.iter().copied().collect();
                        let gone: Vec<SegMeta> =
                            before.into_iter().filter(|s| !after.contains(s)).collect();
                        prop_assert_eq!(gone, retired);
                        snd_una = snd_una.max(ack_off);
                        snd_nxt = snd_nxt.max(snd_una);
                    }
                    Op::Retransmit => {
                        if let Some(s) = q.iter_mut().find(|s| !s.sacked) {
                            s.retx = true;
                        }
                        if let Some(s) = m.segs.values_mut().find(|s| !s.sacked) {
                            s.retx = true;
                        }
                    }
                    Op::Clear => {
                        q.clear();
                        m.clear();
                        snd_nxt = snd_una;
                    }
                }
                assert_same(&q, &m);
            }
        }
    }

    #[test]
    fn straddling_front_does_not_hide_covered_segments() {
        let mut q = RetxQueue::default();
        q.insert(seg(0, 3000, false, true, 0)); // straddles ack 2000
        q.insert(seg(1000, 500, false, false, 1)); // covered, behind it
        q.insert(seg(1500, 1000, false, false, 2)); // straddles too
        assert_eq!(q.retire(2000), Some(SimTime::from_micros(1)));
        let left: Vec<u64> = q.iter().map(|s| s.offset).collect();
        assert_eq!(left, vec![0, 1500]);
    }

    #[test]
    fn capacity_is_handed_back_as_the_window_shrinks() {
        let mut q = RetxQueue::default();
        for i in 0..1024 {
            q.insert(seg(i * 1000, 1000, false, false, i));
        }
        let peak = q.segs.capacity();
        for i in 1..=1024 {
            q.retire(i * 1000);
        }
        assert!(q.is_empty());
        assert!(
            q.segs.capacity() < peak / 4,
            "{} of {peak}",
            q.segs.capacity()
        );
    }

    #[test]
    fn reinsert_at_existing_offset_replaces_and_unsacks() {
        let mut q = RetxQueue::default();
        q.insert(seg(0, 1000, false, false, 0));
        q.insert(seg(1000, 1000, false, false, 1));
        assert_eq!(q.mark_sacked(1000, 2000), 1000);
        q.insert(seg(1000, 400, false, true, 2));
        assert_eq!(q.len(), 2);
        assert_eq!(q.sacked_bytes(), 0);
    }
}
