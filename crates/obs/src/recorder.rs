//! The flight recorder: a bounded, deterministic event log.

use crate::event::{EventKind, ObsEvent};
use crate::ring::RingBuffer;
use dgf_simgrid::SimTime;

/// Default ring capacity — roomy enough to hold every event of the
/// repository's example scenarios; see `docs/OBSERVABILITY.md` for
/// sizing guidance on larger workloads.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// A bounded log of [`ObsEvent`]s stamped with the simulation clock.
///
/// Sequence numbers are global and gap-free: when the ring wraps, old
/// events are dropped but `seq` keeps counting, so an operator reading
/// `events()` can tell exactly how much history was clipped
/// ([`FlightRecorder::dropped`]).
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    ring: RingBuffer<ObsEvent>,
}

impl FlightRecorder {
    /// A recorder retaining at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        FlightRecorder { ring: RingBuffer::new(capacity) }
    }

    /// Record one event at simulation time `time`.
    pub fn record(&mut self, time: SimTime, kind: EventKind) -> &ObsEvent {
        let seq = self.ring.total();
        self.ring.push(ObsEvent { seq, time, kind });
        self.ring.iter().last().expect("just pushed")
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> Vec<ObsEvent> {
        self.ring.iter().cloned().collect()
    }

    /// Count of events ever recorded.
    pub fn total(&self) -> u64 {
        self.ring.total()
    }

    /// Count of events evicted by the bounded ring.
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// The ring's fixed capacity.
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Read from `cursor` (a sequence number; `0` means "from the
    /// beginning"), returning at most `limit` events.
    ///
    /// The cursor protocol gives an at-most-once, no-gap guarantee per
    /// event: resuming from [`EventTail::next_cursor`] never re-delivers
    /// an event already returned, and any history the bounded ring
    /// evicted before the reader caught up is reported explicitly as
    /// [`EventTail::dropped`] rather than silently skipped.
    pub fn tail(&self, cursor: u64, limit: usize) -> EventTail {
        let oldest_retained = self.ring.total() - self.ring.len() as u64;
        let dropped = oldest_retained.saturating_sub(cursor);
        let start = cursor.max(oldest_retained);
        let events: Vec<ObsEvent> =
            self.ring.iter().filter(|e| e.seq >= start).take(limit).cloned().collect();
        let next_cursor = events.last().map(|e| e.seq + 1).unwrap_or(start);
        EventTail { events, next_cursor, dropped }
    }
}

/// One page of a cursor-based read of the flight recorder
/// ([`FlightRecorder::tail`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventTail {
    /// Events with `seq >= cursor`, oldest first, at most `limit`.
    pub events: Vec<ObsEvent>,
    /// Pass this as the next call's cursor to resume without gaps or
    /// duplicates. Unchanged (modulo eviction) when nothing new exists.
    pub next_cursor: u64,
    /// Events in `[cursor, oldest retained)` that the ring evicted
    /// before this read — lost history, reported, never silently
    /// skipped.
    pub dropped: u64,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new(DEFAULT_RING_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fired(n: u32) -> EventKind {
        EventKind::TriggerFired { trigger: format!("t{n}"), action: "notify".into() }
    }

    #[test]
    fn sequence_numbers_survive_wraparound() {
        let mut r = FlightRecorder::new(2);
        for i in 0..5 {
            r.record(SimTime(i), fired(i as u32));
        }
        let events = r.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 3);
        assert_eq!(events[1].seq, 4);
        assert_eq!(r.total(), 5);
        assert_eq!(r.dropped(), 3);
    }

    #[test]
    fn exactly_at_capacity_drops_nothing() {
        let mut r = FlightRecorder::new(3);
        for i in 0..3 {
            r.record(SimTime(i), fired(i as u32));
        }
        let events = r.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(r.total(), 3);
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn past_capacity_overwrites_oldest_first_and_stays_ordered() {
        let mut r = FlightRecorder::new(3);
        for i in 0..4 {
            r.record(SimTime(i), fired(i as u32));
        }
        // One past capacity: the single oldest event (seq 0) is gone and
        // events() is still oldest-first with gap-free seqs.
        let events = r.events();
        assert_eq!(events.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(events.iter().map(|e| e.time.0).collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(r.dropped(), 1);
        // events() is stable: reading does not consume or reorder.
        assert_eq!(r.events(), events);
        // Keep wrapping a second full lap; order still holds.
        for i in 4..9 {
            r.record(SimTime(i), fired(i as u32));
        }
        assert_eq!(r.events().iter().map(|e| e.seq).collect::<Vec<_>>(), vec![6, 7, 8]);
        assert_eq!(r.total(), 9);
        assert_eq!(r.dropped(), 6);
    }

    #[test]
    fn tail_pages_without_gaps_or_duplicates() {
        let mut r = FlightRecorder::new(16);
        for i in 0..10 {
            r.record(SimTime(i), fired(i as u32));
        }
        let mut cursor = 0;
        let mut seen = Vec::new();
        loop {
            let page = r.tail(cursor, 3);
            assert_eq!(page.dropped, 0);
            if page.events.is_empty() {
                break;
            }
            seen.extend(page.events.iter().map(|e| e.seq));
            cursor = page.next_cursor;
        }
        assert_eq!(seen, (0..10).collect::<Vec<u64>>());
        // Idle tail: cursor stays put, nothing is re-delivered.
        assert_eq!(r.tail(cursor, 3).next_cursor, cursor);
    }

    #[test]
    fn slow_reader_sees_an_explicit_dropped_count_after_wraparound() {
        let mut r = FlightRecorder::new(4);
        for i in 0..10 {
            r.record(SimTime(i), fired(i as u32));
        }
        // Reader last stopped at seq 2; seqs 2..6 were evicted (ring
        // retains 6..10).
        let page = r.tail(2, 100);
        assert_eq!(page.dropped, 4);
        assert_eq!(page.events.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![6, 7, 8, 9]);
        assert_eq!(page.next_cursor, 10);
        // Resuming is clean: no duplicates, no phantom drops.
        let next = r.tail(page.next_cursor, 100);
        assert!(next.events.is_empty());
        assert_eq!(next.dropped, 0);
        assert_eq!(next.next_cursor, 10);
    }

    #[test]
    fn tail_interleaved_with_writes_never_duplicates_across_wraps() {
        let mut r = FlightRecorder::new(3);
        let mut cursor = 0;
        let mut delivered = Vec::new();
        let mut dropped_total = 0;
        for i in 0..20u64 {
            r.record(SimTime(i), fired(i as u32));
            if i % 5 == 4 {
                // Reader polls only every 5 writes with a 3-slot ring,
                // so it must lose events — but knowably.
                let page = r.tail(cursor, 100);
                dropped_total += page.dropped;
                delivered.extend(page.events.iter().map(|e| e.seq));
                cursor = page.next_cursor;
            }
        }
        let mut unique = delivered.clone();
        unique.dedup();
        assert_eq!(delivered, unique, "no duplicates across wraps");
        assert!(delivered.windows(2).all(|w| w[1] > w[0]), "strictly increasing");
        assert_eq!(delivered.len() as u64 + dropped_total, cursor, "every seq accounted for");
        assert!(dropped_total > 0, "the scenario must actually wrap");
    }

    #[test]
    fn tail_cursor_past_the_head_returns_nothing() {
        let mut r = FlightRecorder::new(4);
        r.record(SimTime(0), fired(0));
        let page = r.tail(99, 10);
        assert!(page.events.is_empty());
        assert_eq!(page.dropped, 0);
        assert_eq!(page.next_cursor, 99, "a future cursor is preserved, not rewound");
    }
}
