//! Durable write-ahead logging for retry queues.
//!
//! A [`crate::RetryQueue`] is volatile: a crash-stop fault
//! ([`crate::FaultSpec::Crash`]) destroys everything parked in it. The
//! [`WriteAheadLog`] gives a hop durability in the style of `simfs`'s
//! journal: every parked message is *appended* to the log, records
//! become durable when the log is *fsynced* (every
//! [`WalConfig::fsync_every`] appends), successful sends mark their
//! record *completed* — a volatile, in-memory mark — and every
//! [`WalConfig::checkpoint_every`] completions a *checkpoint* durably
//! truncates the completed prefix.
//!
//! The crash semantics follow from that write path exactly:
//!
//! * records appended since the last fsync are **lost** in a crash
//!   (the entries they covered are attributed `lost-crash`);
//! * completion marks made since the last checkpoint are **reverted**
//!   in a crash, so restart replays some *already delivered* messages
//!   — real duplicates, which the idempotent delivery path must (and
//!   does) suppress;
//! * everything else is replayed on restart.
//!
//! One invariant keeps the delivery ledger exact: when a queue entry
//! backed by a WAL record is *attributed as lost* (evicted, expired,
//! abandoned), its record is completed durably and synchronously
//! ([`WriteAheadLog::complete_durable`]) — an attributed-lost message
//! is never replayed, so no loss bucket ever needs to be decremented.

use crate::stream::StreamMessage;
use parking_lot::Mutex;
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};

/// Write-ahead log configuration for one hop.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Maximum live (pending) records; an append against a full log
    /// fails and the entry stays volatile-only.
    pub capacity: usize,
    /// Fsync after every `n` appends (1 = every append is durable
    /// immediately; larger values trade a crash-loss window for fewer
    /// syncs).
    pub fsync_every: u32,
    /// Durably truncate the completed prefix after every `n`
    /// completions. Completions in between are volatile marks that a
    /// crash reverts (causing duplicate replay).
    pub checkpoint_every: u32,
}

impl WalConfig {
    /// Fsync-per-append durability: nothing parked is ever lost to a
    /// crash, at maximal (virtual) write cost.
    pub fn durable() -> Self {
        Self {
            capacity: 4096,
            fsync_every: 1,
            checkpoint_every: 64,
        }
    }

    /// Sets the fsync cadence (clamped to at least 1).
    pub fn with_fsync_every(mut self, n: u32) -> Self {
        self.fsync_every = n.max(1);
        self
    }
}

/// Policies and overrides only the unit tests and the sweep oracle
/// configure.
#[cfg(test)]
impl WalConfig {
    /// Group-committed variant: appends become durable in batches of
    /// eight, so a crash can lose up to seven parked messages.
    pub(crate) fn group_commit() -> Self {
        Self {
            fsync_every: 8,
            ..Self::durable()
        }
    }

    /// Sets the record capacity.
    pub(crate) fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Sets the checkpoint cadence (clamped to at least 1).
    pub(crate) fn with_checkpoint_every(mut self, n: u32) -> Self {
        self.checkpoint_every = n.max(1);
        self
    }
}

impl Default for WalConfig {
    fn default() -> Self {
        Self::durable()
    }
}

/// One replayable log record.
#[derive(Debug, Clone)]
pub struct WalRecord {
    /// Log sequence number (ties the record to its queue entry).
    pub lsn: u64,
    /// The parked message as appended.
    pub msg: StreamMessage,
    /// Send attempts the message had consumed when appended.
    pub attempts: u32,
}

#[derive(Debug)]
struct Slot {
    lsn: u64,
    msg: StreamMessage,
    attempts: u32,
    /// Covered by an fsync (or checkpoint rewrite); survives a crash.
    durable: bool,
    /// Volatile completion mark; reverted by a crash unless a
    /// checkpoint has truncated the slot away.
    completed: bool,
}

#[derive(Debug, Default)]
struct WalInner {
    slots: VecDeque<Slot>,
    next_lsn: u64,
    appends_since_fsync: u32,
    completions_since_checkpoint: u32,
}

/// Counter snapshot of one log's lifetime activity.
#[derive(Debug, Clone, Copy, Default)]
pub struct WalStats {
    /// Records appended.
    pub appended: u64,
    /// Appends rejected because the log was at capacity.
    pub rejected_full: u64,
    /// Fsync batches written.
    pub fsyncs: u64,
    /// Checkpoint truncations performed.
    pub checkpoints: u64,
    /// Records returned by restart replay.
    pub replayed: u64,
    /// Unsynced records destroyed by crashes.
    pub dropped_unsynced: u64,
    /// Volatile completion marks reverted by crashes (each becomes a
    /// duplicate send the delivery path suppresses).
    pub reverted_completions: u64,
    /// Most live (pending) records ever held at once — the log's
    /// high-water mark, for sizing `capacity` against worst-case
    /// static bounds.
    pub high_water: u64,
}

/// A bounded, crash-consistent write-ahead log for one hop's retry
/// queue. All instants are virtual; "durable" means "survives a
/// scripted [`crate::FaultSpec::Crash`]".
#[derive(Debug)]
pub struct WriteAheadLog {
    config: WalConfig,
    inner: Mutex<WalInner>,
    appended: AtomicU64,
    rejected_full: AtomicU64,
    fsyncs: AtomicU64,
    checkpoints: AtomicU64,
    replayed: AtomicU64,
    dropped_unsynced: AtomicU64,
    reverted_completions: AtomicU64,
    high_water: AtomicU64,
}

impl WriteAheadLog {
    /// Creates an empty log.
    pub fn new(config: WalConfig) -> Self {
        Self {
            config,
            inner: Mutex::new(WalInner::default()),
            appended: AtomicU64::new(0),
            rejected_full: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            replayed: AtomicU64::new(0),
            dropped_unsynced: AtomicU64::new(0),
            reverted_completions: AtomicU64::new(0),
            high_water: AtomicU64::new(0),
        }
    }

    /// The configuration in force.
    pub(crate) fn config(&self) -> &WalConfig {
        &self.config
    }

    /// Live (uncompleted or un-truncated) records.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().slots.len()
    }

    /// Appends a record for a parked message. Returns its LSN, or
    /// `None` when the log is at capacity (the entry then rides the
    /// queue volatile-only and dies with a crash).
    pub fn append(&self, msg: &StreamMessage, attempts: u32) -> Option<u64> {
        let mut inner = self.inner.lock();
        if inner.slots.len() >= self.config.capacity {
            self.rejected_full.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let lsn = inner.next_lsn;
        inner.next_lsn += 1;
        inner.slots.push_back(Slot {
            lsn,
            msg: msg.clone(),
            attempts,
            durable: false,
            completed: false,
        });
        self.appended.fetch_add(1, Ordering::Relaxed);
        self.high_water
            .fetch_max(inner.slots.len() as u64, Ordering::Relaxed);
        inner.appends_since_fsync += 1;
        if inner.appends_since_fsync >= self.config.fsync_every.max(1) {
            Self::fsync_locked(&mut inner, &self.fsyncs);
        }
        Some(lsn)
    }

    fn fsync_locked(inner: &mut WalInner, fsyncs: &AtomicU64) {
        if inner.appends_since_fsync > 0 {
            fsyncs.fetch_add(1, Ordering::Relaxed);
        }
        inner.appends_since_fsync = 0;
        for s in inner.slots.iter_mut() {
            s.durable = true;
        }
    }

    /// Marks a record completed (its message was handed to the link
    /// successfully). The mark is *volatile* until the next
    /// checkpoint: a crash in between reverts it and the message is
    /// replayed — a duplicate the idempotent delivery path suppresses.
    pub fn complete(&self, lsn: u64) {
        let mut inner = self.inner.lock();
        if let Some(s) = inner.slots.iter_mut().find(|s| s.lsn == lsn) {
            if !s.completed {
                s.completed = true;
                inner.completions_since_checkpoint += 1;
                if inner.completions_since_checkpoint >= self.config.checkpoint_every.max(1) {
                    Self::checkpoint_locked(&mut inner, &self.checkpoints, &self.fsyncs);
                }
            }
        }
    }

    /// Durably and synchronously removes a record: used when its queue
    /// entry is *attributed as lost* (evicted, expired, abandoned), so
    /// an accounted-for message can never be replayed and double
    /// counted.
    pub(crate) fn complete_durable(&self, lsn: u64) {
        let mut inner = self.inner.lock();
        inner.slots.retain(|s| s.lsn != lsn);
    }

    fn checkpoint_locked(inner: &mut WalInner, checkpoints: &AtomicU64, fsyncs: &AtomicU64) {
        inner.slots.retain(|s| !s.completed);
        inner.completions_since_checkpoint = 0;
        checkpoints.fetch_add(1, Ordering::Relaxed);
        // A checkpoint rewrites the log, making the survivors durable.
        Self::fsync_locked(inner, fsyncs);
    }

    /// Applies crash semantics: unsynced records are destroyed and
    /// volatile completion marks are reverted. Returns the LSNs that
    /// survived (the caller attributes queue entries whose LSN did
    /// *not* survive — or that never had one — as `lost-crash`).
    pub(crate) fn crash(&self) -> HashSet<u64> {
        let mut inner = self.inner.lock();
        let before = inner.slots.len();
        inner.slots.retain(|s| s.durable);
        let dropped = (before - inner.slots.len()) as u64;
        self.dropped_unsynced.fetch_add(dropped, Ordering::Relaxed);
        let mut reverted = 0;
        for s in inner.slots.iter_mut() {
            if s.completed {
                s.completed = false;
                reverted += 1;
            }
        }
        self.reverted_completions
            .fetch_add(reverted, Ordering::Relaxed);
        inner.appends_since_fsync = 0;
        inner.completions_since_checkpoint = 0;
        inner.slots.iter().map(|s| s.lsn).collect()
    }

    /// Restart recovery: returns every durable, uncompleted record for
    /// the daemon to re-park. Records stay in the log (keyed by their
    /// LSN) until completed, so a second crash replays them again.
    pub(crate) fn replay(&self) -> Vec<WalRecord> {
        let inner = self.inner.lock();
        let records: Vec<WalRecord> = inner
            .slots
            .iter()
            .filter(|s| !s.completed)
            .map(|s| WalRecord {
                lsn: s.lsn,
                msg: s.msg.clone(),
                attempts: s.attempts,
            })
            .collect();
        self.replayed
            .fetch_add(records.len() as u64, Ordering::Relaxed);
        records
    }

    /// Lifetime counters.
    pub fn stats(&self) -> WalStats {
        WalStats {
            appended: self.appended.load(Ordering::Relaxed),
            rejected_full: self.rejected_full.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
            replayed: self.replayed.load(Ordering::Relaxed),
            dropped_unsynced: self.dropped_unsynced.load(Ordering::Relaxed),
            reverted_completions: self.reverted_completions.load(Ordering::Relaxed),
            high_water: self.high_water.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::MsgFormat;
    use iosim_time::Epoch;

    fn msg(data: &str) -> StreamMessage {
        StreamMessage::new(
            "t",
            MsgFormat::Json,
            data.to_string(),
            "nid0",
            Epoch::from_secs(1),
        )
    }

    #[test]
    fn durable_appends_survive_crash_and_replay() {
        let wal = WriteAheadLog::new(WalConfig::durable());
        let a = wal.append(&msg("a"), 1).unwrap();
        let b = wal.append(&msg("b"), 2).unwrap();
        let surviving = wal.crash();
        assert!(surviving.contains(&a) && surviving.contains(&b));
        let replayed = wal.replay();
        assert_eq!(replayed.len(), 2);
        assert_eq!(replayed[1].attempts, 2);
        assert_eq!(wal.stats().dropped_unsynced, 0);
    }

    #[test]
    fn unsynced_appends_die_in_crash() {
        let wal = WriteAheadLog::new(WalConfig::durable().with_fsync_every(4));
        let a = wal.append(&msg("a"), 1).unwrap();
        let _b = wal.append(&msg("b"), 1).unwrap();
        let surviving = wal.crash();
        assert!(surviving.is_empty(), "nothing fsynced yet: {surviving:?}");
        assert_eq!(wal.stats().dropped_unsynced, 2);
        // The fourth append would have triggered the group fsync.
        let wal = WriteAheadLog::new(WalConfig::durable().with_fsync_every(2));
        wal.append(&msg("a"), 1).unwrap();
        wal.append(&msg("b"), 1).unwrap();
        assert_eq!(wal.crash().len(), 2);
        let _ = a;
    }

    #[test]
    fn completion_marks_are_volatile_until_checkpoint() {
        let wal = WriteAheadLog::new(WalConfig::durable().with_checkpoint_every(10));
        let a = wal.append(&msg("a"), 1).unwrap();
        wal.complete(a);
        assert!(wal.replay().is_empty(), "completed records do not replay");
        wal.crash();
        let replayed = wal.replay();
        assert_eq!(replayed.len(), 1, "crash reverted the volatile mark");
        assert_eq!(replayed[0].lsn, a);
        assert_eq!(wal.stats().reverted_completions, 1);
    }

    #[test]
    fn checkpoint_truncates_completed_prefix_durably() {
        let wal = WriteAheadLog::new(WalConfig::durable().with_checkpoint_every(2));
        let a = wal.append(&msg("a"), 1).unwrap();
        let b = wal.append(&msg("b"), 1).unwrap();
        let _c = wal.append(&msg("c"), 1).unwrap();
        wal.complete(a);
        wal.complete(b); // second completion triggers the checkpoint
        assert_eq!(wal.len(), 1);
        wal.crash();
        assert_eq!(wal.replay().len(), 1, "a and b are durably gone");
        assert!(wal.stats().checkpoints >= 1);
    }

    #[test]
    fn complete_durable_is_crash_proof() {
        let wal = WriteAheadLog::new(WalConfig::durable().with_checkpoint_every(100));
        let a = wal.append(&msg("a"), 1).unwrap();
        wal.complete_durable(a);
        wal.crash();
        assert!(wal.replay().is_empty());
    }

    #[test]
    fn capacity_bounds_live_records() {
        let wal = WriteAheadLog::new(WalConfig::durable().with_capacity(2));
        assert!(wal.append(&msg("a"), 1).is_some());
        assert!(wal.append(&msg("b"), 1).is_some());
        assert!(wal.append(&msg("c"), 1).is_none(), "log full");
        assert_eq!(wal.stats().rejected_full, 1);
        wal.complete_durable(0);
        assert!(wal.append(&msg("c"), 1).is_some(), "space reclaimed");
        assert_eq!(wal.stats().high_water, 2, "peak live records, not total");
    }
}
