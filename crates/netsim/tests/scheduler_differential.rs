//! Differential property test: the calendar-queue scheduler must pop the
//! exact `(time, seq, kind)` stream a reference binary heap produces,
//! under arbitrary interleaved push/pop workloads — including same-tick
//! ties (FIFO by seq), bursts of dozens of events at one instant,
//! sub-bucket offsets pushed while the near run is non-empty, far-future
//! times that route through the overflow tier, and horizon-bounded pops.

use csig_netsim::{
    EventEntry, EventKind, EventQueue, LinkId, NodeId, SimDuration, SimTime, TimerToken,
};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::mem::discriminant;

/// Cycle through the hot-path event kinds so discriminants vary.
fn kind_for(i: usize) -> EventKind {
    match i % 3 {
        0 => EventKind::Start(NodeId(i as u32)),
        1 => EventKind::Timer(NodeId(i as u32), i as TimerToken),
        _ => EventKind::LinkService(LinkId(i as u32)),
    }
}

/// Map an op's class byte and raw entropy to a push offset that lands in
/// a specific scheduler tier.
fn offset_nanos(class: u8, raw: u32) -> u64 {
    match class {
        // Same-tick tie: must pop FIFO among equal times.
        0 => 0,
        // Sub-bucket: collides inside one calendar slot.
        1 | 2 => (raw % 1000) as u64,
        // Within one bucket width (2^16 ns) of now: the current bucket,
        // i.e. a sorted-run insert when near holds later events, or the
        // next one.
        3 | 4 => (raw % 65_536) as u64,
        // Service/delivery horizon: the dominant regime.
        5..=9 => (raw % 2_000_000) as u64,
        // Beyond the wheel window: exercises the overflow heap and its
        // drain-back-into-the-wheel path.
        10 | 11 => 300_000_000 + (raw as u64 % 2_000_000_000),
        // Anywhere within 20 simulated seconds.
        _ => (raw as u64) % 20_000_000_000,
    }
}

/// The scheduler under test and the reference heap, fed the same ops.
struct Pair {
    q: EventQueue,
    reference: BinaryHeap<Reverse<EventEntry>>,
    seq: u64,
    now: SimTime,
}

impl Pair {
    fn push(&mut self, t: SimTime) {
        let i = self.seq as usize;
        self.q.push(t, kind_for(i));
        self.reference.push(Reverse(EventEntry {
            time: t,
            seq: self.seq,
            kind: kind_for(i),
        }));
        self.seq += 1;
    }

    /// Pop from both and compare; `false` once both are empty.
    fn pop(&mut self) -> bool {
        let got = self.q.pop();
        let want = self.reference.pop().map(|r| r.0);
        match (got, want) {
            (None, None) => false,
            (Some(g), Some(w)) => {
                self.check_same(&g, &w);
                true
            }
            (g, w) => panic!("pop mismatch: {g:?} vs {w:?}"),
        }
    }

    /// `pop_due(horizon)` must pop exactly when the reference minimum is
    /// due, and otherwise report the reference's next time (or empty).
    fn pop_due(&mut self, horizon: SimTime) {
        let next = self.reference.peek().map(|r| r.0.time);
        match (self.q.pop_due(horizon), next) {
            (Ok(g), Some(t)) if t <= horizon => {
                let Some(Reverse(w)) = self.reference.pop() else {
                    unreachable!("peeked above")
                };
                self.check_same(&g, &w)
            }
            (Err(got), next) => {
                assert!(next.is_none_or(|t| t > horizon), "due event refused");
                assert_eq!(got, next);
            }
            (Ok(g), next) => panic!("popped {g:?} past horizon {horizon} (next {next:?})"),
        }
    }

    fn check_same(&mut self, g: &EventEntry, w: &EventEntry) {
        assert_eq!(g.time, w.time);
        assert_eq!(g.seq, w.seq);
        assert!(
            discriminant(&g.kind) == discriminant(&w.kind),
            "kind mismatch at seq {}: {:?} vs {:?}",
            g.seq,
            g.kind,
            w.kind
        );
        self.now = g.time;
    }
}

proptest! {
    #[test]
    fn calendar_queue_matches_reference_heap(
        ops in proptest::collection::vec((0u8..6, 0u8..14, any::<u32>()), 1..600),
    ) {
        let mut p = Pair {
            q: EventQueue::new(),
            reference: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
        };
        for (op, class, raw) in ops {
            let at = p.now + SimDuration::from_nanos(offset_nanos(class, raw));
            match op {
                0 => {
                    p.pop();
                }
                1 => p.pop_due(at),
                // A burst of 12–60 events at one instant.
                2 => {
                    for _ in 0..12 + raw % 49 {
                        p.push(at);
                    }
                }
                _ => p.push(at),
            }
            prop_assert_eq!(p.q.len(), p.reference.len());
        }
        // Drain both to the end: tails must agree too.
        while p.pop() {}
        prop_assert!(p.q.is_empty());
    }
}
