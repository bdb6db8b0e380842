//! The bounded fleet event bus, with its metrics folded in at publish.
//!
//! [`TelemetryBus`] is the single pipe every instrumented hot path
//! publishes into. One critical section does all the work of a publish:
//! it stamps each event's sequence number, folds the event into the
//! bus's [`MetricsRegistry`] and keeps it in one bounded ring. Counting
//! at the publish site makes the registry **exact by construction**: a
//! counter read after [`TelemetryBus::publish`] returns already includes
//! that event.
//!
//! Publishing never waits for a consumer. A full ring **drops its oldest
//! event** (counted in [`TelemetryBus::dropped_events`]); a slow or absent
//! reader costs stream history, never throughput and never a count,
//! because the dropped event was folded into the registry when it was
//! published.
//!
//! Consumers of the event history are cursor-based:
//! [`TelemetryBus::drain_since`] copies every retained event with
//! `seq >= cursor`, in sequence order. Stamping and retaining happen
//! under the same lock, so the ring always holds a contiguous run of
//! sequence numbers and a drain can never step past a stamped event that
//! is not yet retained. A consumer that falls behind retention simply
//! observes a gap in sequence numbers — the drop-oldest policy made
//! visible. [`TelemetryBus::wait_for_events`] parks a consumer until
//! something newer than its cursor arrives; publishers only ring the
//! wake-up bell while a waiter is registered, keeping the no-consumer
//! publish path free of condvar traffic.

use crate::event::TelemetryEvent;
use crate::metrics::MetricsRegistry;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Default retention of stream history, in events.
const DEFAULT_CAPACITY: usize = 32_768;

/// Everything a publish touches, behind the bus's one lock.
#[derive(Debug, Default)]
struct Ring {
    /// Retained events, oldest first, stamped with contiguous sequence
    /// numbers ending at `next_seq - 1`.
    events: VecDeque<TelemetryEvent>,
    /// The next event's sequence number — also the count of events
    /// published over the bus's lifetime.
    next_seq: u64,
    dropped: u64,
    /// Consumers parked in [`TelemetryBus::wait_for_events`]. Publishers
    /// skip the bell entirely while this is zero.
    waiters: usize,
}

/// The fleet event bus (see the [module docs](self)).
#[derive(Debug)]
pub struct TelemetryBus {
    ring: Mutex<Ring>,
    /// Retention bound; overflow drops the oldest event.
    capacity: usize,
    registry: MetricsRegistry,
    bell: Condvar,
}

impl Default for TelemetryBus {
    fn default() -> Self {
        TelemetryBus::new()
    }
}

impl TelemetryBus {
    /// A bus with default retention (32 768 events).
    pub fn new() -> TelemetryBus {
        TelemetryBus::with_capacity(DEFAULT_CAPACITY)
    }

    /// A bus retaining at most `capacity` events (clamped to at least 1 —
    /// tests size retention down to exercise drop-oldest).
    pub fn with_capacity(capacity: usize) -> TelemetryBus {
        TelemetryBus {
            ring: Mutex::new(Ring::default()),
            capacity: capacity.max(1),
            registry: MetricsRegistry::new(),
            bell: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Ring> {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The aggregates every published event has been folded into.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Publishes one event: stamps it, counts it and retains it. A full
    /// ring sheds its oldest event instead of waiting.
    pub fn publish(&self, event: TelemetryEvent) {
        self.publish_batch(std::iter::once(event));
    }

    /// Publishes a group of related events under **one lock acquisition**
    /// and one bell ring. Hot paths that emit several events per
    /// operation (an install report plus its per-pair threats) use this so
    /// each operation locks once, a parked stream reader is woken once,
    /// and the group occupies a contiguous sequence range. `events` is
    /// consumed under the bus lock, so it must not use this bus itself.
    pub fn publish_batch<I>(&self, events: I)
    where
        I: IntoIterator<Item = TelemetryEvent>,
    {
        let mut ring = self.lock();
        {
            let mut registry = self.registry.folder();
            for event in events {
                registry.ingest(&event);
                if ring.events.len() >= self.capacity {
                    ring.events.pop_front();
                    ring.dropped += 1;
                }
                ring.events.push_back(event);
                ring.next_seq += 1;
            }
        }
        let ring_bell = ring.waiters > 0;
        // Released before the bell, so a woken consumer does not
        // immediately block on the lock the publisher still holds.
        drop(ring);
        if ring_bell {
            self.bell.notify_all();
        }
    }

    /// Events published over the bus's lifetime.
    pub fn published(&self) -> u64 {
        self.lock().next_seq
    }

    /// Events shed by the drop-oldest overflow policy. They were counted
    /// when published; this measures lost stream history only.
    pub fn dropped_events(&self) -> u64 {
        self.lock().dropped
    }

    /// Copies every retained event with `seq >= cursor`, in sequence
    /// order, and returns the cursor to resume from (one past the newest
    /// event — `cursor` itself when nothing was newer). A consumer that
    /// fell behind retention sees a sequence gap, not an error.
    pub fn drain_since(&self, cursor: u64, out: &mut Vec<(u64, TelemetryEvent)>) -> u64 {
        let ring = self.lock();
        if cursor >= ring.next_seq {
            return cursor;
        }
        let oldest = ring.next_seq - ring.events.len() as u64;
        let skip = cursor.saturating_sub(oldest) as usize;
        out.extend(
            ring.events
                .iter()
                .skip(skip)
                .zip(oldest + skip as u64..)
                .map(|(event, seq)| (seq, event.clone())),
        );
        ring.next_seq
    }

    /// Parks the caller until an event at or past `cursor` is published or
    /// `timeout` elapses; returns whether something newer is available.
    /// Spurious-wakeup safe; publishers pay for the bell only while a
    /// consumer is parked here.
    pub fn wait_for_events(&self, cursor: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut ring = self.lock();
        // Checked under the ring lock, which publishers hold while they
        // read `waiters`: a publish cannot slip between check and wait.
        while ring.next_seq <= cursor {
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            ring.waiters += 1;
            ring = self
                .bell
                .wait_timeout(ring, remaining)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
            ring.waiters -= 1;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    fn probe(n: u64) -> TelemetryEvent {
        TelemetryEvent::CacheProbe {
            hit: false,
            tier: "solver",
            micros: n,
            weight: 1,
        }
    }

    #[test]
    fn drain_returns_events_in_sequence_order() {
        let bus = TelemetryBus::with_capacity(64);
        for n in 0..20 {
            bus.publish(probe(n));
        }
        let mut out = Vec::new();
        let cursor = bus.drain_since(0, &mut out);
        assert_eq!(cursor, 20);
        assert_eq!(out.len(), 20);
        let seqs: Vec<u64> = out.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, (0..20).collect::<Vec<_>>());
        // Resuming from the returned cursor sees only what came after.
        bus.publish(probe(99));
        let mut next = Vec::new();
        let cursor = bus.drain_since(cursor, &mut next);
        assert_eq!(cursor, 21);
        assert_eq!(next, vec![(20, probe(99))]);
        // Nothing newer: the cursor holds still.
        assert_eq!(bus.drain_since(cursor, &mut Vec::new()), cursor);
    }

    #[test]
    fn overflow_drops_oldest_and_counts() {
        // Retention of 4: publishing 10 retains the newest 4.
        let bus = TelemetryBus::with_capacity(4);
        for n in 0..10 {
            bus.publish(probe(n));
        }
        assert_eq!(bus.dropped_events(), 6);
        assert_eq!(bus.published(), 10);
        let mut out = Vec::new();
        bus.drain_since(0, &mut out);
        let seqs: Vec<u64> = out.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "drop-oldest keeps the tail");
        // The shed events were counted when they were published.
        assert_eq!(bus.registry().counter("cache_probes_total"), 10);
        assert_eq!(bus.registry().counter("events_consumed_total"), 10);
    }

    #[test]
    fn batch_publish_stamps_a_contiguous_range_and_mixes_with_singles() {
        let bus = TelemetryBus::with_capacity(64);
        bus.publish(probe(0));
        bus.publish_batch((1..=5).map(probe).collect::<Vec<_>>());
        bus.publish_batch(Vec::<TelemetryEvent>::new());
        bus.publish(probe(6));
        let mut out = Vec::new();
        let cursor = bus.drain_since(0, &mut out);
        assert_eq!(cursor, 7, "an empty batch reserves no sequence numbers");
        let seqs: Vec<u64> = out.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, (0..7).collect::<Vec<_>>());
        assert_eq!(
            out[3],
            (3, probe(3)),
            "the batch occupies a contiguous range"
        );
    }

    #[test]
    fn wait_for_events_wakes_on_publish_and_times_out_idle() {
        let bus = Arc::new(TelemetryBus::new());
        // Idle bus: the wait times out empty-handed.
        assert!(!bus.wait_for_events(0, Duration::from_millis(10)));

        let publisher = bus.clone();
        let waiter = std::thread::spawn(move || {
            // Generous timeout: the publish below must cut it short.
            publisher.wait_for_events(0, Duration::from_secs(30))
        });
        // Give the waiter a moment to park, then publish.
        std::thread::sleep(Duration::from_millis(20));
        bus.publish(probe(1));
        assert!(waiter.join().unwrap(), "publish must wake the waiter");
        // A cursor already satisfied returns immediately.
        assert!(bus.wait_for_events(0, Duration::from_secs(30)));
    }

    #[test]
    fn concurrent_publishers_never_lose_sequence_numbers() {
        let bus = Arc::new(TelemetryBus::with_capacity(10_000));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let bus = bus.clone();
            handles.push(std::thread::spawn(move || {
                for n in 0..500 {
                    bus.publish(probe(n));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut out = Vec::new();
        let cursor = bus.drain_since(0, &mut out);
        assert_eq!(cursor, 2000);
        assert_eq!(out.len(), 2000);
        assert_eq!(bus.dropped_events(), 0);
        // Every sequence number exactly once.
        let seqs: Vec<u64> = out.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, (0..2000).collect::<Vec<_>>());
    }

    #[test]
    fn publish_folds_events_into_the_registry() {
        let bus = TelemetryBus::new();
        for home in 0..10 {
            bus.publish(TelemetryEvent::HomeCreated { home });
        }
        assert_eq!(bus.registry().counter("homes_created_total"), 10);
        assert_eq!(bus.registry().counter("events_consumed_total"), 10);
    }

    #[test]
    fn every_published_event_is_counted() {
        let bus = TelemetryBus::new();
        for home in 0..100 {
            bus.publish(TelemetryEvent::HomeCreated { home });
        }
        assert_eq!(bus.registry().counter("homes_created_total"), 100);
    }

    /// The stress mix: per publisher, `ROUNDS` single `HomeCreated`
    /// publishes and `ROUNDS` batches of one install plus one threat.
    const PUBLISHERS: u64 = 4;
    const ROUNDS: u64 = 1_500;

    fn publish_mix(bus: &TelemetryBus, publisher: u64) {
        for round in 0..ROUNDS {
            let home = publisher * ROUNDS + round;
            bus.publish(TelemetryEvent::HomeCreated { home });
            bus.publish_batch([
                TelemetryEvent::InstallCompleted {
                    home,
                    app: format!("app{publisher}"),
                    installed: round % 3 != 0,
                    upgrade: false,
                    threats: u64::from(round % 3 == 0),
                    pairs: 2,
                    solves: 1,
                    cache_hits: 1,
                    cache_misses: 1,
                    lowered_hits: 1,
                    solver_fallbacks: 0,
                    micros: round,
                },
                TelemetryEvent::ThreatDetected {
                    home,
                    kind: "AR",
                    source_app: format!("app{publisher}"),
                    target_app: "victim".into(),
                },
            ]);
        }
    }

    /// Runs `PUBLISHERS` publisher threads against a tailing reader on a
    /// bus of `capacity`; the reader starts draining once `head_start`
    /// events are out. Returns the bus and the seqs the tail saw.
    fn stress(capacity: usize, head_start: u64) -> (Arc<TelemetryBus>, Vec<u64>) {
        let bus = Arc::new(TelemetryBus::with_capacity(capacity));
        let total = PUBLISHERS * ROUNDS * 3;
        let reader = {
            let bus = bus.clone();
            std::thread::spawn(move || {
                while !bus.wait_for_events(head_start, Duration::from_secs(30)) {}
                let (mut cursor, mut seen, mut batch) = (0, Vec::new(), Vec::new());
                while cursor < total {
                    batch.clear();
                    cursor = bus.drain_since(cursor, &mut batch);
                    seen.extend(batch.iter().map(|(seq, _)| *seq));
                    // Counters read mid-flight never run behind the
                    // events already visible to the tail.
                    let counted = bus.registry().counter("events_consumed_total");
                    assert!(counted >= cursor, "{counted} counted, {cursor} visible");
                    bus.wait_for_events(cursor, Duration::from_millis(50));
                }
                seen
            })
        };
        let publishers: Vec<_> = (0..PUBLISHERS)
            .map(|publisher| {
                let bus = bus.clone();
                std::thread::spawn(move || publish_mix(&bus, publisher))
            })
            .collect();
        for publisher in publishers {
            publisher.join().unwrap();
        }
        let seen = reader.join().unwrap();
        assert_eq!(bus.published(), total);
        (bus, seen)
    }

    /// Every counter the stress mix touches equals its exact count.
    fn assert_exact_counts(bus: &TelemetryBus) {
        let registry = bus.registry();
        let installs = PUBLISHERS * ROUNDS;
        let dirty = PUBLISHERS * ROUNDS.div_ceil(3);
        assert_eq!(registry.counter("events_consumed_total"), bus.published());
        assert_eq!(registry.counter("homes_created_total"), installs);
        assert_eq!(registry.counter("installs_total"), installs);
        assert_eq!(registry.counter("installs_dirty_total"), dirty);
        assert_eq!(registry.counter("installs_clean_total"), installs - dirty);
        assert_eq!(registry.counter("pairs_checked_total"), 2 * installs);
        assert_eq!(registry.counter("cache_hits_total"), installs);
        assert_eq!(registry.counter("lowered_hits_total"), installs);
        assert_eq!(registry.counter("threats_total"), installs);
        assert_eq!(
            registry.histogram("install_micros").map(|h| h.count),
            Some(installs)
        );
        let table: BTreeMap<String, _> = registry.interference_table().into_iter().collect();
        for publisher in 0..PUBLISHERS {
            let row = table[&format!("app{publisher}")];
            assert_eq!(row.installs, ROUNDS);
            assert_eq!(row.dirty, ROUNDS.div_ceil(3));
            assert_eq!(row.threats, ROUNDS);
        }
        assert_eq!(table["victim"].threats, installs);
    }

    #[test]
    fn concurrent_publishers_and_a_tailing_reader_reconcile_exactly() {
        let (bus, seen) = stress(1 << 16, 0);
        assert_eq!(bus.dropped_events(), 0);
        let total = bus.published();
        assert_eq!(
            seen,
            (0..total).collect::<Vec<_>>(),
            "the tail sees every seq exactly once, in order"
        );
        assert_exact_counts(&bus);
    }

    #[test]
    fn counters_stay_exact_when_retention_sheds_events() {
        // The reader holds off until twice the retention is out, so the
        // ring has shed history before the first drain.
        let (bus, seen) = stress(256, 512);
        assert!(bus.dropped_events() > 0, "retention must shed under load");
        assert!(
            seen.windows(2).all(|w| w[0] < w[1]),
            "the tail sees gaps, never repeats or reordering"
        );
        assert_exact_counts(&bus);
    }
}
