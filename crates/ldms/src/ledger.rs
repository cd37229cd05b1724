//! End-to-end delivery accounting.
//!
//! The paper's pipeline is explicitly best-effort: a message dropped in
//! transit, or published with no subscriber listening, simply vanishes.
//! That is acceptable only if the losses are *quantified* — run-time
//! monitoring data is untrustworthy when the observer cannot say how
//! much of it is missing. The [`DeliveryLedger`] closes that gap: every
//! message entering the pipeline through [`crate::LdmsNetwork::publish`]
//! is eventually counted exactly once, either as delivered at the
//! terminal daemon or as lost with a single `(hop, cause)` attribution.
//!
//! The ledger invariant (checked by the integration and property tests):
//!
//! ```text
//! published == delivered + Σ losses(hop, cause) + summarized
//! ```
//!
//! The `summarized` column is the overload controller's mass: events
//! that were folded into a per-(job, rank, window) summary sketch
//! instead of being delivered individually. A delivered sketch moves
//! its folded-event count into `summarized`; a *lost* sketch attributes
//! the same mass to a loss bucket — either way every published event is
//! still counted exactly once.
//!
//! The invariant holds once in-flight retry queues have drained — after
//! [`crate::LdmsNetwork::settle`] — and at any quiescent instant in
//! between.

use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Idempotency key of one keyed message:
/// `(producer, job_id, rank, seq)`. Messages without a sequence number
/// have no key and are never deduplicated.
pub type DeliveryKey = (Arc<str>, u64, u64, u64);

/// Why a message failed to reach the end of the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LossCause {
    /// The terminal daemon had no subscriber for the message's tag
    /// (LDMS Streams does not cache).
    NoSubscriber,
    /// A transport link dropped the message (loss injection or flap),
    /// and retries — if configured — were exhausted.
    LinkLoss,
    /// The receiving daemon was down, and retries — if configured —
    /// were exhausted.
    DaemonDown,
    /// A bounded store-and-forward queue evicted the message.
    QueueOverflow,
    /// The message exceeded its block-with-deadline sojourn budget
    /// while parked in a retry queue.
    DeadlineExceeded,
    /// Forwarding detected a topology cycle (or an absurdly deep
    /// chain) and dropped the message instead of looping.
    CycleDropped,
    /// A crash-stop fault destroyed the message while it sat in a
    /// volatile retry queue with no durable WAL record covering it.
    Crash,
    /// The overload controller spilled the message to the hop's queue
    /// under backpressure and the run ended before it drained.
    Backpressure,
}

impl LossCause {
    /// Stable human-readable label.
    pub fn as_str(self) -> &'static str {
        match self {
            LossCause::NoSubscriber => "no-subscriber",
            LossCause::LinkLoss => "link-loss",
            LossCause::DaemonDown => "daemon-down",
            LossCause::QueueOverflow => "queue-overflow",
            LossCause::DeadlineExceeded => "deadline-exceeded",
            LossCause::CycleDropped => "cycle-dropped",
            LossCause::Crash => "lost-crash",
            LossCause::Backpressure => "backpressure",
        }
    }
}

impl std::fmt::Display for LossCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One attributed loss bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LossRecord {
    /// Where the loss happened (a link, queue, or daemon label).
    pub hop: String,
    /// Why the message was lost.
    pub cause: LossCause,
    /// Messages lost at this hop for this cause.
    pub count: u64,
}

/// Network-wide delivery accounting, shared by every daemon of one
/// [`crate::LdmsNetwork`].
#[derive(Debug, Default)]
pub struct DeliveryLedger {
    published: AtomicU64,
    delivered: AtomicU64,
    losses: Mutex<HashMap<(String, LossCause), u64>>,
    /// Keys of messages already delivered at a terminal daemon; a WAL
    /// replay re-delivering one is a duplicate and is suppressed.
    delivered_keys: Mutex<HashSet<DeliveryKey>>,
    duplicates: AtomicU64,
    recovered: AtomicU64,
    summarized: AtomicU64,
    /// Rows the terminal DSOS store acknowledged at its write quorum —
    /// the storage tier's extension of the conservation law: only
    /// quorum-acked rows are covered by the replication loss guarantee.
    store_acked: AtomicU64,
}

impl DeliveryLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts one message entering the pipeline.
    #[cfg(test)]
    pub(crate) fn record_published(&self) {
        self.record_published_n(1);
    }

    /// Counts `n` messages entering the pipeline. A batch frame enters
    /// as one [`crate::StreamMessage`] but accounts for every message
    /// coalesced into it, so the ledger always counts logical messages
    /// regardless of framing.
    pub(crate) fn record_published_n(&self, n: u64) {
        self.published.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts one message reaching a subscriber at the terminal daemon.
    pub(crate) fn record_delivered(&self) {
        self.record_delivered_n(1);
    }

    /// Counts `n` messages reaching a subscriber at the terminal.
    pub(crate) fn record_delivered_n(&self, n: u64) {
        self.delivered.fetch_add(n, Ordering::Relaxed);
        self.debug_check_attribution();
    }

    /// Atomically claims the delivery of a keyed message. Returns
    /// `false` when the key was already delivered — the caller must
    /// then suppress the duplicate (neither `delivered` nor any loss
    /// bucket moves, keeping the conservation invariant exact: each
    /// published message is still counted exactly once).
    pub(crate) fn try_claim_delivery(&self, key: DeliveryKey) -> bool {
        if self.delivered_keys.lock().insert(key) {
            true
        } else {
            self.duplicates.fetch_add(1, Ordering::Relaxed);
            false
        }
    }

    /// Counts one delivered message that reached the terminal via WAL
    /// replay after a crash — the "demonstrably recovered" counter.
    pub(crate) fn record_recovered(&self) {
        self.record_recovered_n(1);
    }

    /// Counts `n` recovered messages (a replayed frame recovers every
    /// message inside it).
    pub(crate) fn record_recovered_n(&self, n: u64) {
        self.recovered.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts `n` published events whose individual delivery was
    /// replaced by a summary sketch reaching the terminal daemon. The
    /// events were counted in `published` when they entered the
    /// pipeline; the sketch carries their mass here instead of into
    /// `delivered`.
    pub(crate) fn record_summarized_n(&self, n: u64) {
        self.summarized.fetch_add(n, Ordering::Relaxed);
        self.debug_check_attribution();
    }

    /// Attributes `n` lost messages to `(hop, cause)`. Dropping a batch
    /// frame loses every message coalesced into it, so loss accounting
    /// is weighted by frame size.
    pub(crate) fn record_loss_n(&self, hop: &str, cause: LossCause, n: u64) {
        *self
            .losses
            .lock()
            .entry((hop.to_string(), cause))
            .or_insert(0) += n;
        self.debug_check_attribution();
    }

    /// Debug invariant, checked after every attribution: no ledger may
    /// ever account for more outcomes than messages published. Only
    /// binds once publishes are recorded — daemons wired up manually
    /// (private ledgers, direct `receive` calls) never publish, so
    /// their ledgers are exempt. Counters are read attribution-first so
    /// a concurrent publish can only widen the inequality.
    fn debug_check_attribution(&self) {
        if cfg!(debug_assertions) {
            let accounted = self.delivered() + self.total_lost() + self.summarized();
            let published = self.published();
            debug_assert!(
                published == 0 || accounted <= published,
                "ledger over-attributed: delivered+lost = {accounted} > published = {published}"
            );
        }
    }

    /// Messages published into the network.
    pub fn published(&self) -> u64 {
        self.published.load(Ordering::Relaxed)
    }

    /// Messages delivered to at least one subscriber at the terminal
    /// daemon of their path.
    pub fn delivered(&self) -> u64 {
        self.delivered.load(Ordering::Relaxed)
    }

    /// Total messages lost, over all hops and causes.
    pub fn total_lost(&self) -> u64 {
        self.losses.lock().values().sum()
    }

    /// Messages lost for a specific cause, over all hops.
    pub fn lost_with_cause(&self, cause: LossCause) -> u64 {
        self.losses
            .lock()
            .iter()
            .filter(|((_, c), _)| *c == cause)
            .map(|(_, n)| n)
            .sum()
    }

    /// Messages lost at a specific hop, over all causes.
    pub fn lost_at(&self, hop: &str) -> u64 {
        self.losses
            .lock()
            .iter()
            .filter(|((h, _), _)| h == hop)
            .map(|(_, n)| n)
            .sum()
    }

    /// Duplicate deliveries suppressed (a WAL replay re-sent a message
    /// whose completion mark a crash had reverted).
    pub fn duplicates(&self) -> u64 {
        self.duplicates.load(Ordering::Relaxed)
    }

    /// Messages delivered via WAL replay after a crash (each counted
    /// inside `delivered` as well — recovery *prevents* a loss, it
    /// never reclassifies one).
    pub fn recovered(&self) -> u64 {
        self.recovered.load(Ordering::Relaxed)
    }

    /// Published events accounted for by a delivered summary sketch
    /// instead of an individual row.
    pub fn summarized(&self) -> u64 {
        self.summarized.load(Ordering::Relaxed)
    }

    /// Counts `n` rows acknowledged at the DSOS write quorum (called
    /// by the terminal store after replicated ingest).
    pub fn record_store_acked_n(&self, n: u64) {
        self.store_acked.fetch_add(n, Ordering::Relaxed);
    }

    /// Rows the terminal DSOS store acknowledged at its write quorum.
    /// Orthogonal to `balances()`: a delivered message whose row missed
    /// the quorum is still delivered — it is just not covered by the
    /// replication guarantee, and a degraded query's `Completeness`
    /// report balances against this figure.
    pub fn store_acked(&self) -> u64 {
        self.store_acked.load(Ordering::Relaxed)
    }

    /// True when every published message is accounted for — holds at
    /// any quiescent instant (no messages parked in retry queues).
    pub fn balances(&self) -> bool {
        self.published() == self.delivered() + self.total_lost() + self.summarized()
    }

    /// Fraction of accounted events delivered individually rather than
    /// summarized: `delivered / (delivered + summarized)`. `1.0` when
    /// nothing has flowed — a calm pipeline is fully accurate.
    pub fn accuracy(&self) -> f64 {
        let d = self.delivered();
        let s = self.summarized();
        if d + s == 0 {
            return 1.0;
        }
        d as f64 / (d + s) as f64
    }

    /// All loss buckets, sorted by hop then cause.
    pub fn report(&self) -> Vec<LossRecord> {
        let mut out: Vec<LossRecord> = self
            .losses
            .lock()
            .iter()
            .map(|((hop, cause), &count)| LossRecord {
                hop: hop.clone(),
                cause: *cause,
                count,
            })
            .collect();
        out.sort_by(|a, b| (&a.hop, a.cause).cmp(&(&b.hop, b.cause)));
        out
    }

    /// One-line summary for experiment logs.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "published={} delivered={} lost={}",
            self.published(),
            self.delivered(),
            self.total_lost()
        );
        for r in self.report() {
            s.push_str(&format!(" [{}@{}={}]", r.cause, r.hop, r.count));
        }
        let sm = self.summarized();
        if sm > 0 {
            s.push_str(&format!(" summarized={sm}"));
        }
        let (dup, rec) = (self.duplicates(), self.recovered());
        if rec > 0 {
            s.push_str(&format!(" recovered={rec}"));
        }
        if dup > 0 {
            s.push_str(&format!(" duplicates={dup}"));
        }
        let acked = self.store_acked();
        if acked > 0 {
            s.push_str(&format!(" store_acked={acked}"));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_buckets_by_hop_and_cause() {
        let l = DeliveryLedger::new();
        l.record_published();
        l.record_published();
        l.record_published();
        l.record_delivered();
        l.record_loss_n("ugni", LossCause::LinkLoss, 1);
        l.record_loss_n("ugni", LossCause::LinkLoss, 1);
        assert_eq!(l.published(), 3);
        assert_eq!(l.delivered(), 1);
        assert_eq!(l.total_lost(), 2);
        assert_eq!(l.lost_with_cause(LossCause::LinkLoss), 2);
        assert_eq!(l.lost_with_cause(LossCause::DaemonDown), 0);
        assert_eq!(l.lost_at("ugni"), 2);
        assert!(l.balances());
        let report = l.report();
        assert_eq!(report.len(), 1);
        assert_eq!(report[0].count, 2);
        assert!(l.summary().contains("link-loss@ugni=2"));
    }

    #[test]
    fn duplicate_claims_are_counted_not_delivered() {
        let l = DeliveryLedger::new();
        let key: DeliveryKey = (Arc::from("nid0"), 7, 0, 1);
        assert!(l.try_claim_delivery(key.clone()));
        assert!(!l.try_claim_delivery(key));
        assert_eq!(l.duplicates(), 1);
        assert!(l.try_claim_delivery((Arc::from("nid0"), 7, 0, 2)));
        l.record_recovered();
        assert_eq!(l.recovered(), 1);
    }

    #[test]
    fn summarized_mass_balances_the_ledger() {
        let l = DeliveryLedger::new();
        l.record_published_n(10);
        l.record_delivered_n(6);
        assert!(!l.balances());
        l.record_summarized_n(3);
        l.record_loss_n("q", LossCause::Backpressure, 1);
        assert!(l.balances());
        assert_eq!(l.summarized(), 3);
        assert!((l.accuracy() - 6.0 / 9.0).abs() < 1e-12);
        assert!(l.summary().contains("summarized=3"));
        assert!(l.summary().contains("backpressure@q=1"));
        let calm = DeliveryLedger::new();
        assert!((calm.accuracy() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn unbalanced_while_messages_are_in_flight() {
        let l = DeliveryLedger::new();
        l.record_published();
        assert!(!l.balances()); // parked in a queue somewhere
        l.record_loss_n("q", LossCause::QueueOverflow, 1);
        assert!(l.balances());
    }
}
