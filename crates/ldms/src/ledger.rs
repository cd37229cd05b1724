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

use iosim_util::hash::FnvBuildHasher;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Idempotency key of one keyed message, borrowed from it:
/// `(producer, job_id, rank, seq)`. Messages without a sequence number
/// have no key and are never deduplicated.
pub type DeliveryKey<'a> = (&'a Arc<str>, u64, u64, u64);

/// The sequence numbers seen on one `(producer, job_id, rank)` stream.
#[derive(Debug)]
struct SeqStream {
    producer: Arc<str>,
    /// Disjoint, non-adjacent inclusive `[lo, hi]` runs, ascending.
    runs: Vec<(u64, u64)>,
}

impl SeqStream {
    /// Adds `seq` to the runs; `false` when a run already holds it.
    fn insert(&mut self, seq: u64) -> bool {
        let runs = &mut self.runs;
        // In-order arrival extends the last run.
        if let Some(last) = runs.last_mut() {
            if last.1.checked_add(1) == Some(seq) {
                last.1 = seq;
                return true;
            }
        }
        // `at` is the first run starting above `seq`; the one before
        // it is the only run that can hold or end just below `seq`.
        let at = runs.partition_point(|&(lo, _)| lo <= seq);
        if at > 0 && seq <= runs[at - 1].1 {
            return false;
        }
        let joins_prev = at > 0 && runs[at - 1].1 + 1 == seq;
        let joins_next = at < runs.len() && seq.checked_add(1) == Some(runs[at].0);
        match (joins_prev, joins_next) {
            (true, true) => {
                runs[at - 1].1 = runs[at].1;
                runs.remove(at);
            }
            (true, false) => runs[at - 1].1 = seq,
            (false, true) => runs[at].0 = seq,
            (false, false) => runs.insert(at, (seq, seq)),
        }
        true
    }
}

/// What a [`SeqRanges`] holds of one stream, for gap accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamSeqs {
    /// Producer (compute-node) name.
    pub producer: Arc<str>,
    /// Job the publisher belonged to.
    pub job_id: u64,
    /// Publishing rank.
    pub rank: u64,
    /// Distinct sequence numbers seen.
    pub received: u64,
    /// Highest sequence number seen.
    pub max_seq: u64,
}

impl StreamSeqs {
    /// Sequence numbers missing below `max_seq` on a stream numbered
    /// from 1.
    pub fn missing(&self) -> u64 {
        self.max_seq.saturating_sub(self.received)
    }
}

/// The set of `(producer, job_id, rank, seq)` keys seen so far, kept
/// per stream as runs of consecutive sequence numbers: a publisher
/// numbers its messages in order, so a stream delivered without loss
/// is one `[lo, hi]` pair however long it runs, and each permanent gap
/// adds one more. Exact on gaps, late fills and replays.
#[derive(Debug, Default)]
pub struct SeqRanges {
    /// Streams by `(job_id, rank)`. A rank lives on one node, so the
    /// inner list almost always has one entry; the producer name is
    /// compared, never hashed.
    streams: HashMap<(u64, u64), Vec<SeqStream>, FnvBuildHasher>,
}

impl SeqRanges {
    /// Adds a key. Returns `false` when it was already held.
    pub fn claim(&mut self, (producer, job_id, rank, seq): DeliveryKey<'_>) -> bool {
        let streams = self.streams.entry((job_id, rank)).or_default();
        let stream = match streams
            .iter()
            .position(|s| Arc::ptr_eq(&s.producer, producer) || s.producer == *producer)
        {
            Some(i) => &mut streams[i],
            None => {
                streams.push(SeqStream {
                    producer: producer.clone(),
                    runs: Vec::with_capacity(1),
                });
                streams.last_mut().expect("just pushed")
            }
        };
        stream.insert(seq)
    }

    /// Runs held over all streams — what the set costs in memory.
    pub fn intervals(&self) -> usize {
        self.streams.values().flatten().map(|s| s.runs.len()).sum()
    }

    /// Every stream's totals, in no particular order.
    pub fn streams(&self) -> impl Iterator<Item = StreamSeqs> + '_ {
        self.streams.iter().flat_map(|(&(job_id, rank), streams)| {
            streams.iter().map(move |s| StreamSeqs {
                producer: s.producer.clone(),
                job_id,
                rank,
                received: s
                    .runs
                    .iter()
                    .map(|&(lo, hi)| (hi - lo).saturating_add(1))
                    .fold(0, u64::saturating_add),
                max_seq: s.runs.last().map_or(0, |&(_, hi)| hi),
            })
        })
    }
}

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
    /// A crash-stop fault destroyed the message while it sat in a
    /// volatile retry queue with no durable WAL record covering it.
    Crash,
    /// The overload controller spilled the message to the hop's queue
    /// under backpressure and the run ended before it drained.
    Backpressure,
}

impl LossCause {
    /// Stable human-readable label.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            LossCause::NoSubscriber => "no-subscriber",
            LossCause::LinkLoss => "link-loss",
            LossCause::DaemonDown => "daemon-down",
            LossCause::QueueOverflow => "queue-overflow",
            LossCause::DeadlineExceeded => "deadline-exceeded",
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
    /// Loss buckets by hop, then cause.
    losses: Mutex<HashMap<String, Vec<(LossCause, u64)>>>,
    /// Keys of messages whose one outcome is on the books: delivered
    /// at a terminal daemon, folded into a sketch, or lost. A WAL
    /// replay bringing a copy of one to any of those ends is a
    /// duplicate and books nothing.
    settled_keys: Mutex<SeqRanges>,
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
    pub(crate) fn new() -> Self {
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
    /// `false` when the key already has its outcome — the caller must
    /// then suppress the duplicate (neither `delivered` nor any loss
    /// bucket moves, keeping the conservation invariant exact: each
    /// published message is still counted exactly once).
    pub(crate) fn try_claim_delivery(&self, key: DeliveryKey<'_>) -> bool {
        self.claim_outcomes(std::iter::once(key)) == 0
    }

    /// Claims the keys of messages about to be booked lost or folded
    /// into a sketch, and returns how many of them already had their
    /// one outcome — a WAL replay resurrects copies of messages that
    /// had left the hop and were delivered, folded or lost further on.
    /// Those count as duplicates here; the caller books only the rest.
    pub(crate) fn claim_outcomes<'a>(&self, keys: impl Iterator<Item = DeliveryKey<'a>>) -> u64 {
        let dups = {
            let mut settled = self.settled_keys.lock();
            keys.filter(|&key| !settled.claim(key)).count() as u64
        };
        if dups > 0 {
            self.duplicates.fetch_add(dups, Ordering::Relaxed);
        }
        dups
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
        let add = |buckets: &mut Vec<(LossCause, u64)>| match buckets
            .iter_mut()
            .find(|(c, _)| *c == cause)
        {
            Some((_, count)) => *count += n,
            None => buckets.push((cause, n)),
        };
        {
            let mut losses = self.losses.lock();
            // The hop label is copied for a hop's first loss only.
            match losses.get_mut(hop) {
                Some(buckets) => add(buckets),
                None => add(losses.entry(hop.to_string()).or_default()),
            }
        }
        self.debug_check_attribution();
    }

    /// Runs the settled-key set holds (see [`SeqRanges::intervals`]).
    #[cfg(test)]
    pub(crate) fn settled_key_intervals(&self) -> usize {
        self.settled_keys.lock().intervals()
    }

    /// Sum of the loss buckets `keep` selects.
    fn lost_where(&self, keep: impl Fn(&str, LossCause) -> bool) -> u64 {
        self.losses
            .lock()
            .iter()
            .flat_map(|(hop, buckets)| buckets.iter().map(move |&(c, n)| (hop, c, n)))
            .filter(|&(hop, c, _)| keep(hop, c))
            .map(|(_, _, n)| n)
            .sum()
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
        self.lost_where(|_, _| true)
    }

    /// Messages lost for a specific cause, over all hops.
    pub fn lost_with_cause(&self, cause: LossCause) -> u64 {
        self.lost_where(|_, c| c == cause)
    }

    /// Messages lost at a specific hop, over all causes.
    pub fn lost_at(&self, hop: &str) -> u64 {
        self.losses
            .lock()
            .get(hop)
            .map_or(0, |buckets| buckets.iter().map(|&(_, n)| n).sum())
    }

    /// Duplicate deliveries suppressed (a WAL replay re-sent a message
    /// whose completion mark a crash had reverted).
    pub fn duplicates(&self) -> u64 {
        self.duplicates.load(Ordering::Relaxed)
    }

    /// Messages delivered via WAL replay after a crash (each counted
    /// inside `delivered` as well — recovery *prevents* a loss, it
    /// never reclassifies one).
    pub(crate) fn recovered(&self) -> u64 {
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
            .flat_map(|(hop, buckets)| {
                buckets.iter().map(move |&(cause, count)| LossRecord {
                    hop: hop.clone(),
                    cause,
                    count,
                })
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
    use proptest::prelude::*;
    use std::collections::{BTreeMap, HashSet};

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
        let nid0: Arc<str> = Arc::from("nid0");
        assert!(l.try_claim_delivery((&nid0, 7, 0, 1)));
        assert!(!l.try_claim_delivery((&nid0, 7, 0, 1)));
        assert_eq!(l.duplicates(), 1);
        // A second allocation of the same name is the same producer.
        assert!(l.try_claim_delivery((&Arc::from("nid0"), 7, 0, 2)));
        assert!(!l.try_claim_delivery((&Arc::from("nid0"), 7, 0, 2)));
        assert_eq!(l.settled_key_intervals(), 1);
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

    #[test]
    fn in_order_streams_cost_one_run_each_and_a_gap_one_more() {
        let mut set = SeqRanges::default();
        let nodes: Vec<Arc<str>> = (0..4).map(|n| Arc::from(format!("nid{n}"))).collect();
        for seq in 1..=1_000 {
            for (rank, node) in nodes.iter().enumerate() {
                // Rank 2 never sees 400 and 700..=709.
                if rank == 2 && (seq == 400 || (700..710).contains(&seq)) {
                    continue;
                }
                assert!(set.claim((node, 7, rank as u64, seq)));
            }
        }
        assert_eq!(set.intervals(), 4 + 2);
        let gappy = set.streams().find(|s| s.rank == 2).unwrap();
        assert_eq!(
            (gappy.received, gappy.max_seq, gappy.missing()),
            (989, 1_000, 11)
        );
        // A late fill closes its gap; a replay changes nothing.
        assert!(set.claim((&nodes[2], 7, 2, 400)));
        assert!(!set.claim((&nodes[2], 7, 2, 400)));
        assert!(!set.claim((&nodes[0], 7, 0, 1)));
        assert_eq!(set.intervals(), 4 + 1);
    }

    /// Sequence numbers that collide, neighbour and wrap: a dense low
    /// range, both ends of `u64`, and both sides of the bit that tags
    /// an overload sketch's synthetic numbering.
    fn tricky_seq() -> impl Strategy<Value = u64> {
        let tag = crate::overload::SUMMARY_SEQ_BIT;
        prop_oneof![
            0u64..24,
            0u64..24,
            (0u64..4).prop_map(|d| u64::MAX - d),
            (0u64..6).prop_map(move |d| tag - 3 + d),
            (0u64..4).prop_map(move |d| tag | (2 << 48) | d),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn seq_ranges_equal_a_key_set(
            keys in prop::collection::vec((0usize..3, 0u64..2, 0u64..3, tricky_seq()), 0..250),
        ) {
            // Producers by name, each claim through an allocation of
            // its own: identity is the text, not the pointer.
            let mut ranges = SeqRanges::default();
            let mut oracle: HashSet<(String, u64, u64, u64)> = HashSet::new();
            let mut duplicates = (0, 0);
            for &(node, job, rank, seq) in &keys {
                let name = format!("nid{node}");
                let fresh = oracle.insert((name.clone(), job, rank, seq));
                duplicates.1 += u64::from(!fresh);
                let claimed = ranges.claim((&Arc::from(name), job, rank, seq));
                duplicates.0 += u64::from(!claimed);
                prop_assert_eq!(claimed, fresh, "{:?} after {:?}", (node, job, rank, seq), keys);
            }
            prop_assert_eq!(duplicates.0, duplicates.1);
            // Per stream: how many, how high, how many missing below.
            let mut streams: BTreeMap<(String, u64, u64), Vec<u64>> = BTreeMap::new();
            for (name, job, rank, seq) in oracle {
                streams.entry((name, job, rank)).or_default().push(seq);
            }
            let mut got: Vec<StreamSeqs> = ranges.streams().collect();
            got.sort_by(|a, b| (&a.producer, a.job_id, a.rank).cmp(&(&b.producer, b.job_id, b.rank)));
            let mut runs = 0;
            let want: Vec<StreamSeqs> = streams
                .into_iter()
                .map(|((name, job_id, rank), mut seqs)| {
                    seqs.sort_unstable();
                    runs += 1 + seqs.windows(2).filter(|w| w[1] - w[0] > 1).count();
                    StreamSeqs {
                        producer: Arc::from(name),
                        job_id,
                        rank,
                        received: seqs.len() as u64,
                        max_seq: *seqs.last().unwrap(),
                    }
                })
                .collect();
            prop_assert_eq!(&got, &want);
            // (Wrapping: several streams here reach the top of `u64`.)
            let missing = |s: &[StreamSeqs]| {
                s.iter().map(StreamSeqs::missing).fold(0u64, u64::wrapping_add)
            };
            prop_assert_eq!(missing(&got), missing(&want));
            // No run is split or left touching its neighbour.
            prop_assert_eq!(ranges.intervals(), runs);
        }
    }
}
