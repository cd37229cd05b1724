//! Bounded store-and-forward retry queues.
//!
//! The paper's pipeline forwards fire-and-forget: a message dropped by
//! a link or addressed to a crashed daemon vanishes. [`RetryQueue`]
//! replaces that with per-upstream-link store-and-forward: a failed
//! send parks the message and retries it in virtual time with
//! exponential backoff plus seeded jitter. The queue is *bounded* —
//! capacity and overflow policy are explicit — so a long outage
//! degrades into quantified loss instead of unbounded memory growth.
//!
//! The network's one `WakeSchedule` also lives here: the heap of
//! `(instant, daemon)` entries that says which queues (and scripted
//! crashes) have come due, so a publish visits those daemons only.
//!
//! The default configuration ([`QueueConfig::best_effort`]) disables
//! queueing entirely (one attempt, zero capacity), preserving the
//! paper's semantics byte for byte; [`QueueConfig::reliable`] is the
//! store-and-forward preset.

use crate::fault::AtomicRng;
use crate::ledger::LossCause;
use crate::stream::StreamMessage;
use iosim_time::{Epoch, SimDuration};
use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};

/// What to do when a message arrives at a full queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OverflowPolicy {
    /// Evict the oldest parked message to admit the new one.
    DropOldest,
    /// Reject the new message.
    DropNewest,
    /// Admit beyond capacity, but bound each parked message's sojourn
    /// time: a message still parked this long after it was first
    /// queued is dropped ([`LossCause::DeadlineExceeded`]). This is
    /// the non-blocking analogue of "block the sender with a
    /// deadline" — the simulation cannot stall the publishing rank,
    /// so the bound moves from the sender's wait to the queue's
    /// holding time.
    BlockWithDeadline(SimDuration),
}

/// Multiplier applied to the backoff per retry.
const BACKOFF_FACTOR: f64 = 2.0;

/// Retry/queue configuration for one upstream hop. Backoff doubles
/// per attempt (`BACKOFF_FACTOR`).
#[derive(Debug, Clone)]
pub struct QueueConfig {
    /// Maximum parked messages (`DropOldest`/`DropNewest`; the
    /// deadline policy bounds time instead of space).
    pub capacity: usize,
    /// Overflow policy.
    pub policy: OverflowPolicy,
    /// Total send attempts per message (1 = fire-and-forget).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff: SimDuration,
    /// Backoff ceiling.
    pub max_backoff: SimDuration,
    /// Jitter half-width as a fraction of the backoff (0 = none).
    pub jitter: f64,
    /// Seed for the jitter RNG (reproducible schedules).
    pub seed: u64,
}

impl QueueConfig {
    /// The paper's semantics: one attempt, nothing parked. This is
    /// `Default`, so existing topologies behave exactly as before.
    pub fn best_effort() -> Self {
        Self {
            capacity: 0,
            policy: OverflowPolicy::DropNewest,
            max_attempts: 1,
            base_backoff: SimDuration::from_millis(1),
            max_backoff: SimDuration::from_secs(1),
            jitter: 0.0,
            seed: 0,
        }
    }

    /// Store-and-forward preset: a bounded queue with exponential
    /// backoff and 10 % jitter.
    pub fn reliable() -> Self {
        Self {
            capacity: 1024,
            policy: OverflowPolicy::DropOldest,
            max_attempts: 8,
            base_backoff: SimDuration::from_millis(1),
            max_backoff: SimDuration::from_secs(1),
            jitter: 0.1,
            seed: 0x5EED,
        }
    }

    /// Sets the capacity.
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Sets the overflow policy.
    pub fn with_policy(mut self, policy: OverflowPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the jitter seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// True when a failed send may park the message for retry.
    pub fn retries_enabled(&self) -> bool {
        self.max_attempts > 1
    }

    /// Virtual time the retry schedule spans with zero jitter: the sum
    /// of every backoff interval a message consumes before exhausting
    /// its attempt budget, each clamped to `max_backoff`. Static
    /// analysis scales this by `1 ± jitter/2` to bracket the seeded
    /// schedules the queue actually draws.
    pub fn backoff_coverage(&self) -> SimDuration {
        let mut total = 0.0f64;
        for attempt in 1..self.max_attempts {
            let exp = attempt.saturating_sub(1).min(32);
            let base = self.base_backoff.as_secs_f64() * BACKOFF_FACTOR.powi(exp as i32);
            total += base.min(self.max_backoff.as_secs_f64());
        }
        SimDuration::from_secs_f64(total)
    }
}

/// A builder only the unit tests and the sweep oracle call.
#[cfg(test)]
impl QueueConfig {
    /// Sets the attempt budget.
    pub(crate) fn with_max_attempts(mut self, max_attempts: u32) -> Self {
        self.max_attempts = max_attempts.max(1);
        self
    }
}

impl Default for QueueConfig {
    fn default() -> Self {
        Self::best_effort()
    }
}

/// One parked message awaiting retry.
#[derive(Debug, Clone)]
pub(crate) struct QueueEntry {
    /// The message, as it stood *before* the failed hop (transport
    /// delay and hop count are re-applied on the successful attempt).
    pub msg: StreamMessage,
    /// Send attempts consumed so far.
    pub attempts: u32,
    /// Earliest virtual instant of the next attempt.
    pub next_attempt: Epoch,
    /// Sojourn deadline (`BlockWithDeadline` only).
    pub expire: Option<Epoch>,
    /// Why the last attempt failed (loss attribution if abandoned).
    pub cause: LossCause,
    /// LSN of the durable WAL record backing this entry, when the
    /// hop's write-ahead log accepted it (`None` = volatile-only).
    pub lsn: Option<u64>,
}

impl QueueEntry {
    /// Earliest instant at which the entry is actionable: its retry
    /// coming due or its deadline expiring.
    pub(crate) fn first_event(&self) -> Epoch {
        match self.expire {
            Some(deadline) => self.next_attempt.min(deadline),
            None => self.next_attempt,
        }
    }
}

/// The network's one wake schedule: `(instant, daemon)` entries, the
/// daemon named by its position in the network's pump order. Every
/// site that leaves a daemon something to do at a later virtual
/// instant — a parked or spilled message, a scripted crash or restart,
/// a health report only a visit would make — adds an entry, so a
/// publish visits the daemons with an entry due and no other.
///
/// An entry is a reason to look, not a promise of work: the queue entry
/// behind it may have been evicted or drained since. Visiting a daemon
/// with nothing to do changes nothing, so stale entries are harmless
/// and are never searched for.
#[derive(Debug)]
pub(crate) struct WakeSchedule {
    heap: Mutex<BinaryHeap<Reverse<(Epoch, usize)>>>,
    /// Instant of the earliest entry in nanoseconds, `u64::MAX` when
    /// there is none; written under the heap's lock. It lets a publish
    /// with nothing due return after one load. It is a hint and
    /// publishes no data (the heap is only ever read under its lock),
    /// hence `Relaxed`: a reader racing a [`WakeSchedule::add`] may
    /// miss the new entry, which then waits in the heap for the next
    /// publish — as if the add had come just after this publish's
    /// check.
    earliest: AtomicU64,
}

impl WakeSchedule {
    pub(crate) fn new() -> Self {
        Self {
            heap: Mutex::new(BinaryHeap::new()),
            earliest: AtomicU64::new(u64::MAX),
        }
    }

    fn note_earliest(&self, heap: &BinaryHeap<Reverse<(Epoch, usize)>>) {
        let earliest = heap
            .peek()
            .map_or(u64::MAX, |Reverse((at, _))| at.as_nanos());
        self.earliest.store(earliest, Ordering::Relaxed);
    }

    /// Adds entries.
    pub(crate) fn add(&self, entries: impl IntoIterator<Item = (Epoch, usize)>) {
        let mut heap = self.heap.lock();
        heap.extend(entries.into_iter().map(Reverse));
        self.note_earliest(&heap);
    }

    /// True when some entry's instant is `now` or earlier.
    pub(crate) fn any_due(&self, now: Epoch) -> bool {
        self.earliest.load(Ordering::Relaxed) <= now.as_nanos()
    }

    /// Removes and returns the earliest entry if its instant is `by`
    /// or earlier; entries of one instant leave in daemon order.
    pub(crate) fn pop_due(&self, by: Epoch) -> Option<(Epoch, usize)> {
        let mut heap = self.heap.lock();
        let &Reverse(entry) = heap.peek()?;
        if entry.0 > by {
            return None;
        }
        heap.pop();
        self.note_earliest(&heap);
        Some(entry)
    }
}

/// A bounded retry queue for one upstream hop.
#[derive(Debug)]
pub struct RetryQueue {
    config: QueueConfig,
    entries: Mutex<VecDeque<QueueEntry>>,
    rng: AtomicRng,
    overflowed: AtomicU64,
    high_water: AtomicU64,
}

impl RetryQueue {
    /// Creates a queue with the given configuration.
    pub(crate) fn new(config: QueueConfig) -> Self {
        let rng = AtomicRng::new(config.seed);
        Self {
            config,
            entries: Mutex::new(VecDeque::new()),
            rng,
            overflowed: AtomicU64::new(0),
            high_water: AtomicU64::new(0),
        }
    }

    /// The configuration in force.
    pub(crate) fn config(&self) -> &QueueConfig {
        &self.config
    }

    /// Currently parked messages.
    pub(crate) fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// True when nothing is parked.
    pub(crate) fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }

    /// Messages evicted by the overflow policy.
    #[cfg(test)]
    pub(crate) fn overflowed(&self) -> u64 {
        self.overflowed.load(Ordering::Relaxed)
    }

    /// Deepest the queue has ever been (entries, frames counting as
    /// one — this measures buffer pressure, not logical messages).
    pub(crate) fn high_water(&self) -> u64 {
        self.high_water.load(Ordering::Relaxed)
    }

    fn note_depth(&self, depth: usize) {
        self.high_water.fetch_max(depth as u64, Ordering::Relaxed);
    }

    /// Computes the instant of the next attempt after a failure at
    /// `now`, given the attempts consumed so far: exponential backoff
    /// with jitter, clamped to the ceiling, always strictly after
    /// `now` so retry draining makes progress.
    pub(crate) fn backoff_after(&self, attempts: u32, now: Epoch) -> Epoch {
        let exp = attempts.saturating_sub(1).min(32);
        let base = self.config.base_backoff.as_secs_f64() * BACKOFF_FACTOR.powi(exp as i32);
        let capped = base.min(self.config.max_backoff.as_secs_f64());
        let jittered = if self.config.jitter > 0.0 {
            capped * (1.0 + self.config.jitter * (self.rng.next_f64() - 0.5))
        } else {
            capped
        };
        now + SimDuration::from_nanos(((jittered * 1e9) as u64).max(1))
    }

    /// Stamps the sojourn deadline a `BlockWithDeadline` queue gives
    /// an entry first parked at `now` (one already stamped keeps its
    /// deadline across re-parks).
    pub(crate) fn stamp_deadline(&self, entry: &mut QueueEntry, now: Epoch) {
        if let OverflowPolicy::BlockWithDeadline(d) = self.config.policy {
            entry.expire.get_or_insert(now + d);
        }
    }

    /// Parks an entry, applying the overflow policy. Returns the
    /// entries evicted to admit it (each to be attributed by the
    /// caller), with the incoming entry itself returned if rejected.
    pub(crate) fn push(&self, mut entry: QueueEntry, now: Epoch) -> Vec<QueueEntry> {
        self.stamp_deadline(&mut entry, now);
        let mut entries = self.entries.lock();
        if let OverflowPolicy::BlockWithDeadline(_) = self.config.policy {
            entries.push_back(entry);
            self.note_depth(entries.len());
            return Vec::new();
        }
        if entries.len() < self.config.capacity {
            entries.push_back(entry);
            self.note_depth(entries.len());
            return Vec::new();
        }
        match self.config.policy {
            OverflowPolicy::DropOldest => {
                let mut evicted = Vec::new();
                while entries.len() + 1 > self.config.capacity {
                    match entries.pop_front() {
                        Some(mut old) => {
                            old.cause = LossCause::QueueOverflow;
                            evicted.push(old);
                        }
                        None => break, // capacity 0: nothing to evict
                    }
                }
                // Overflow is counted in logical-message weight, so a
                // dropped frame of N members shows up as N, matching
                // the ledger's loss column.
                self.overflowed.fetch_add(
                    evicted.iter().map(|e| e.msg.weight()).sum::<u64>(),
                    Ordering::Relaxed,
                );
                if self.config.capacity > 0 {
                    entries.push_back(entry);
                    self.note_depth(entries.len());
                    debug_assert!(
                        entries.len() <= self.config.capacity,
                        "drop-oldest queue grew past capacity: {} > {}",
                        entries.len(),
                        self.config.capacity
                    );
                    evicted
                } else {
                    entry.cause = LossCause::QueueOverflow;
                    self.overflowed
                        .fetch_add(entry.msg.weight(), Ordering::Relaxed);
                    evicted.push(entry);
                    evicted
                }
            }
            OverflowPolicy::DropNewest => {
                entry.cause = LossCause::QueueOverflow;
                self.overflowed
                    .fetch_add(entry.msg.weight(), Ordering::Relaxed);
                debug_assert!(
                    entries.len() <= self.config.capacity,
                    "drop-newest queue grew past capacity: {} > {}",
                    entries.len(),
                    self.config.capacity
                );
                vec![entry]
            }
            OverflowPolicy::BlockWithDeadline(_) => unreachable!("handled above"),
        }
    }

    /// Removes and returns entries whose sojourn deadline has passed.
    pub(crate) fn take_expired(&self, now: Epoch) -> Vec<QueueEntry> {
        let mut entries = self.entries.lock();
        let mut expired = Vec::new();
        entries.retain(|e| match e.expire {
            Some(deadline) if deadline <= now => {
                expired.push(QueueEntry {
                    cause: LossCause::DeadlineExceeded,
                    ..e.clone()
                });
                false
            }
            _ => true,
        });
        expired
    }

    /// Pops the first entry (FIFO) whose retry time has come.
    pub(crate) fn pop_due(&self, now: Epoch) -> Option<QueueEntry> {
        let mut entries = self.entries.lock();
        let idx = entries.iter().position(|e| e.next_attempt <= now)?;
        entries.remove(idx)
    }

    /// Earliest instant at which anything parked becomes actionable
    /// (a retry coming due or a deadline expiring).
    pub(crate) fn next_event(&self) -> Option<Epoch> {
        self.entries
            .lock()
            .iter()
            .map(QueueEntry::first_event)
            .min()
    }

    /// Drains every parked entry (used when settling a campaign: what
    /// remains is attributed as lost).
    pub(crate) fn drain_all(&self) -> Vec<QueueEntry> {
        self.entries.lock().drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{MsgClass, MsgFormat};

    fn entry(tag: &str, at: u64) -> QueueEntry {
        QueueEntry {
            msg: StreamMessage::new(
                tag,
                MsgFormat::Json,
                "{}".to_string(),
                "nid0",
                Epoch::from_secs(at),
            ),
            attempts: 1,
            next_attempt: Epoch::from_secs(at),
            expire: None,
            cause: LossCause::LinkLoss,
            lsn: None,
        }
    }

    #[test]
    fn default_is_best_effort() {
        let q = RetryQueue::new(QueueConfig::default());
        assert!(!q.config().retries_enabled());
        assert_eq!(q.config().capacity, 0);
    }

    #[test]
    fn drop_oldest_evicts_front() {
        let q = RetryQueue::new(QueueConfig::reliable().with_capacity(2));
        assert!(q.push(entry("a", 1), Epoch::from_secs(1)).is_empty());
        assert!(q.push(entry("b", 2), Epoch::from_secs(2)).is_empty());
        let evicted = q.push(entry("c", 3), Epoch::from_secs(3));
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].msg.tag.as_ref(), "a");
        assert_eq!(evicted[0].cause, LossCause::QueueOverflow);
        assert_eq!(q.len(), 2);
        assert_eq!(q.overflowed(), 1);
    }

    #[test]
    fn drop_newest_rejects_incoming() {
        let q = RetryQueue::new(
            QueueConfig::reliable()
                .with_capacity(1)
                .with_policy(OverflowPolicy::DropNewest),
        );
        assert!(q.push(entry("a", 1), Epoch::from_secs(1)).is_empty());
        let evicted = q.push(entry("b", 2), Epoch::from_secs(2));
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].msg.tag.as_ref(), "b");
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn deadline_policy_bounds_sojourn_not_space() {
        let q = RetryQueue::new(
            QueueConfig::reliable()
                .with_capacity(1)
                .with_policy(OverflowPolicy::BlockWithDeadline(SimDuration::from_secs(5))),
        );
        for i in 0..4 {
            assert!(q.push(entry("m", i), Epoch::from_secs(i)).is_empty());
        }
        assert_eq!(q.len(), 4); // over nominal capacity by design
        let expired = q.take_expired(Epoch::from_secs(6));
        // Entries parked at t=0 and t=1 have deadlines 5 and 6.
        assert_eq!(expired.len(), 2);
        assert!(expired
            .iter()
            .all(|e| e.cause == LossCause::DeadlineExceeded));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn pop_due_is_fifo_among_due() {
        let q = RetryQueue::new(QueueConfig::reliable());
        q.push(entry("later", 50), Epoch::from_secs(1));
        q.push(entry("soon", 2), Epoch::from_secs(1));
        let got = q.pop_due(Epoch::from_secs(10)).unwrap();
        assert_eq!(got.msg.tag.as_ref(), "soon");
        assert!(q.pop_due(Epoch::from_secs(10)).is_none());
        assert_eq!(q.next_event(), Some(Epoch::from_secs(50)));
    }

    #[test]
    fn without_priority_shed_eviction_stays_fifo() {
        let q = RetryQueue::new(QueueConfig::reliable().with_capacity(2));
        let mut meta = entry("meta", 1);
        meta.msg.class = MsgClass::Meta;
        q.push(meta, Epoch::from_secs(1));
        q.push(entry("bulk", 2), Epoch::from_secs(2));
        let evicted = q.push(entry("c", 3), Epoch::from_secs(3));
        assert_eq!(evicted[0].msg.tag.as_ref(), "meta");
    }

    #[test]
    fn overflow_counter_is_logical_message_weight() {
        let q = RetryQueue::new(QueueConfig::reliable().with_capacity(1));
        let mut frame = entry("frame", 1);
        frame.msg.batch = 16;
        q.push(frame, Epoch::from_secs(1));
        q.push(entry("b", 2), Epoch::from_secs(2));
        assert_eq!(q.overflowed(), 16, "evicted frame counts its members");
        // Capacity-0 rejection also counts weight, not frames.
        let q0 = RetryQueue::new(QueueConfig::reliable().with_capacity(0));
        let mut frame = entry("frame", 3);
        frame.msg.batch = 4;
        let evicted = q0.push(frame, Epoch::from_secs(3));
        assert_eq!(evicted.len(), 1);
        assert_eq!(q0.overflowed(), 4);
        // DropNewest likewise.
        let qn = RetryQueue::new(
            QueueConfig::reliable()
                .with_capacity(1)
                .with_policy(OverflowPolicy::DropNewest),
        );
        qn.push(entry("a", 4), Epoch::from_secs(4));
        let mut frame = entry("frame", 5);
        frame.msg.batch = 8;
        qn.push(frame, Epoch::from_secs(5));
        assert_eq!(qn.overflowed(), 8);
    }

    #[test]
    fn backoff_grows_and_is_capped() {
        let q = RetryQueue::new(QueueConfig {
            jitter: 0.0,
            ..QueueConfig::reliable()
        });
        let now = Epoch::from_secs(100);
        let b1 = q.backoff_after(1, now).since(now).as_secs_f64();
        let b3 = q.backoff_after(3, now).since(now).as_secs_f64();
        let b20 = q.backoff_after(20, now).since(now).as_secs_f64();
        assert!((b1 - 1e-3).abs() < 1e-9);
        assert!((b3 - 4e-3).abs() < 1e-9);
        assert!((b20 - 1.0).abs() < 1e-9, "capped at max_backoff, got {b20}");
    }

    #[test]
    fn backoff_jitter_is_seeded_and_bounded() {
        let mk = |seed| RetryQueue::new(QueueConfig::reliable().with_seed(seed));
        let now = Epoch::from_secs(0);
        let a: Vec<u64> = (0..4)
            .map(|_| mk(9).backoff_after(2, now).as_nanos())
            .collect();
        let b: Vec<u64> = (0..4)
            .map(|_| mk(9).backoff_after(2, now).as_nanos())
            .collect();
        assert_eq!(a, b, "same seed, same jitter");
        for &ns in &a {
            let s = ns as f64 / 1e9;
            assert!(s > 2e-3 * 0.94 && s < 2e-3 * 1.06, "jitter within ±5%: {s}");
        }
    }
}
