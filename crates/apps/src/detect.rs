//! Wiring the online anomaly detector into the live pipeline.
//!
//! [`LiveDetectorTap`] implements the store's off-path
//! [`IngestObserver`](darshan_ldms_connector::IngestObserver) hook: it
//! sees every parsed `darshan_data` row batch at ingest time, decodes
//! the fields the detector reads, and streams them through the engine
//! behind a per-rank watermark frontier. Because ranks publish from
//! OS threads, *real-time* arrival order is nondeterministic even
//! though every virtual timestamp is deterministic — so the canonical
//! detection set is always the settle-replay oracle's: that of one
//! single-pass engine fed every buffered event in [`event_cmp`] order,
//! giving bit-identical detections for bit-identical runs. At job
//! settle, [`LiveDetectorTap::finalize`] completes the streaming engine
//! when it was fed in that order, and replays the sorted events through
//! a fresh engine only when arrivals broke it. The storage
//! path itself is untouched (the observer is read-only), so
//! detector-on runs store byte-identical rows, ledgers, and recovery
//! counters to detector-off runs.

use darshan_ldms_connector::IngestObserver;
use dsos_sim::Value;
use hpcws_sim::online::{
    report_order, DetectionConfig, DiagnosticEvent, OnlineDetector, OnlineEvent,
};
use iosim_telemetry::{DetectionRecord, DiagHub, HubEventKind};
use iosim_time::Epoch;
use parking_lot::Mutex;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::Arc;

/// Decodes one `darshan_data` row of owned cells (in `COLUMNS` order):
/// [`OnlineEvent::decode`]. Rows missing a numeric essential (N/A
/// placeholders from malformed messages) are skipped — the trace
/// lints, not the detector, own impossible-row reporting.
pub fn row_to_event(row: &[Value]) -> Option<OnlineEvent> {
    OnlineEvent::decode(row)
}

/// The canonical event order the settle-replay oracle uses: virtual
/// end time first, then the full field tuple as a tie-break, so the
/// order is total and independent of arrival interleaving.
pub fn event_cmp(a: &OnlineEvent, b: &OnlineEvent) -> Ordering {
    a.end
        .total_cmp(&b.end)
        .then_with(|| a.job_id.cmp(&b.job_id))
        .then_with(|| a.rank.cmp(&b.rank))
        .then_with(|| a.op.cmp(&b.op))
        .then_with(|| a.file.cmp(&b.file))
        .then_with(|| a.len.cmp(&b.len))
        .then_with(|| a.off.cmp(&b.off))
}

/// The settle replay, the one definition of a run's canonical
/// detection set: stable-sorts `events` by [`event_cmp`] (so exact ties
/// keep their given order), feeds them through a fresh engine, and
/// finishes it. Returns the finished engine, for phase queries, and
/// its detections.
pub fn settle_replay(
    mut events: Vec<OnlineEvent>,
    cfg: DetectionConfig,
) -> (OnlineDetector, Vec<DiagnosticEvent>) {
    events.sort_by(event_cmp);
    let mut engine = OnlineDetector::new(cfg);
    for e in &events {
        engine.observe(e);
    }
    let detections = engine.finish();
    (engine, detections)
}

/// One detection as emitted on the live stream: the finding itself
/// plus when (in virtual time) the hub emitted it.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveDetection {
    /// The detector finding.
    pub event: DiagnosticEvent,
    /// Virtual instant the finding was emitted (an ingest instant for
    /// in-run emissions; the settle horizon otherwise).
    pub emitted_s: f64,
    /// `true` when emitted while ingest was still flowing.
    pub in_run: bool,
}

/// Everything [`LiveDetectorTap::finalize`] produces.
pub struct LiveFinalize {
    /// The settle-replay oracle engine (for phase queries).
    pub detector: OnlineDetector,
    /// The oracle's detections — the run's canonical detection set:
    /// those of an engine fed the whole log in [`event_cmp`] order.
    pub detections: Vec<DiagnosticEvent>,
    /// The live stream: the same detection set, each finding stamped
    /// with its emit instant.
    pub live: Vec<LiveDetection>,
}

struct LiveState {
    /// Events offered so far; the next one's arrival index.
    arrivals: usize,
    /// Events not yet fed to the streaming engine, smallest (by
    /// [`event_cmp`], then arrival) on top. Once `reordered`, every
    /// later arrival stays here.
    pending: BinaryHeap<Pending>,
    /// Events fed to the streaming engine, in feed order: the oracle's
    /// input up to the frontier, kept for the reorder fallback. Its
    /// last entry is the largest event fed.
    fed: Vec<Pending>,
    /// Per-rank maximum `end` seen so far.
    watermark: BTreeMap<u64, f64>,
    /// The streaming engine fed in-run.
    engine: OnlineDetector,
    /// Engine detections already surfaced on the live stream.
    emitted: usize,
    /// Set when an arrival sorted below an already-fed event: per-rank
    /// order broke (retries or WAL replay), so live feeding stops and
    /// the oracle's output becomes the stream.
    reordered: bool,
    /// Live emissions so far.
    live: Vec<LiveDetection>,
}

/// One buffered event awaiting the watermark frontier. Ordered so the
/// max-heap's top is the *smallest* event by [`event_cmp`]; arrival
/// index breaks exact ties the way the oracle's stable sort does.
struct Pending {
    event: OnlineEvent,
    arrival: usize,
}

impl Ord for Pending {
    /// The oracle's order reversed: [`event_cmp`], then arrival, which
    /// is what a stable sort of the events in arrival order yields.
    fn cmp(&self, other: &Self) -> Ordering {
        event_cmp(&other.event, &self.event).then_with(|| other.arrival.cmp(&self.arrival))
    }
}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Pending {}

/// Every offered event, fed or pending, in arrival order: the settle
/// replay's input.
fn arrival_order(mut fed: Vec<Pending>, pending: BinaryHeap<Pending>) -> Vec<OnlineEvent> {
    fed.extend(pending.into_vec());
    fed.sort_unstable_by_key(|p| p.arrival);
    fed.into_iter().map(|p| p.event).collect()
}

/// The detection tap: an off-path [`IngestObserver`] with **streaming
/// window closure** — events are fed to the engine *during* the run,
/// as soon as the per-rank watermark frontier passes them, and
/// detections publish to the live diagnosis hub (when one is attached)
/// at the ingest instant that triggered them.
///
/// # Parity with the settle-replay oracle
///
/// Arrival order across ranks is nondeterministic (OS threads), so the
/// tap holds a reorder buffer: an event is fed only once every
/// expected rank's watermark has passed its `end` (all events that
/// could still sort before it have necessarily arrived; the expected
/// ranks are those that do I/O), and passed
/// events leave the buffer in [`event_cmp`] order. The fed sequence is
/// therefore exactly a prefix of the oracle's fully-sorted replay, and
/// feeding the sorted remainder at [`LiveDetectorTap::finalize`] makes
/// the streaming engine the oracle itself.
///
/// If per-rank order itself breaks (a retry or WAL replay delivered a
/// row after a later-stamped row of the same rank), the prefix
/// property can no longer be guaranteed; the tap detects the violation
/// at arrival, stops live feeding, and reconciles against the oracle
/// at finalize — in-run emissions that match the oracle keep their
/// emit instants, everything else lands at the settle horizon. The
/// parity contract (live set == oracle set) holds unconditionally;
/// only *when* each finding surfaced degrades.
pub struct LiveDetectorTap {
    cfg: DetectionConfig,
    expected_ranks: u64,
    hub: Option<Arc<DiagHub>>,
    state: Mutex<LiveState>,
}

/// Source label for detector events on the hub.
const DETECTOR_SOURCE: &str = "detector";

fn detection_record(d: &DiagnosticEvent, in_run: bool) -> DetectionRecord {
    DetectionRecord {
        kind: d.kind.as_str().to_string(),
        severity: d.severity.as_str().to_string(),
        job_id: d.job_id,
        rank: d.rank,
        op: d.op.clone(),
        onset_s: d.onset,
        detected_s: d.detected_at,
        in_run,
    }
}

impl LiveDetectorTap {
    /// Creates a live tap. `expected_ranks` is how many of the job's
    /// ranks do I/O — the watermark frontier only advances once that
    /// many ranks have reported at least one event. `hub` (optional)
    /// receives a `Detection` event at each emission.
    pub fn new(cfg: DetectionConfig, expected_ranks: u64, hub: Option<Arc<DiagHub>>) -> Arc<Self> {
        Arc::new(Self {
            cfg: cfg.clone(),
            expected_ranks: expected_ranks.max(1),
            hub,
            state: Mutex::new(LiveState {
                arrivals: 0,
                pending: BinaryHeap::new(),
                fed: Vec::new(),
                watermark: BTreeMap::new(),
                engine: OnlineDetector::new(cfg),
                emitted: 0,
                reordered: false,
                live: Vec::new(),
            }),
        })
    }

    /// Events offered so far (fed or pending).
    pub fn buffered(&self) -> usize {
        self.state.lock().arrivals
    }

    /// True when a per-rank order violation forced the tap off the
    /// streaming path.
    #[cfg(test)]
    pub(crate) fn reordered(&self) -> bool {
        self.state.lock().reordered
    }

    /// Offers one event to the tap at ingest instant `recv_time`:
    /// buffers it, advances the rank watermark, and feeds every pending
    /// event the frontier has passed to the streaming engine (in
    /// canonical order), emitting any detections the engine produced.
    pub fn offer(&self, event: OnlineEvent, recv_time: Epoch) {
        let mut st = self.state.lock();
        let st = &mut *st;
        let arrival = st.arrivals;
        st.arrivals += 1;
        if !st.reordered
            && st
                .fed
                .last()
                .is_some_and(|last| event_cmp(&event, &last.event) == Ordering::Less)
        {
            // The event sorts before something already fed: the
            // streamed prefix is no longer a prefix of the oracle's
            // replay. Fall back to settle emission.
            st.reordered = true;
        }
        st.watermark
            .entry(event.rank)
            .and_modify(|w| *w = w.max(event.end))
            .or_insert(event.end);
        st.pending.push(Pending { event, arrival });
        if st.reordered || (st.watermark.len() as u64) < self.expected_ranks {
            return;
        }
        let frontier = st
            .watermark
            .values()
            .fold(f64::INFINITY, |acc, &w| acc.min(w));
        while st.pending.peek().is_some_and(|p| p.event.end < frontier) {
            let due = st.pending.pop().expect("peeked");
            st.engine.observe(&due.event);
            st.fed.push(due);
        }
        let emitted_s = recv_time.as_secs_f64();
        for d in &st.engine.detections()[st.emitted..] {
            if let Some(hub) = &self.hub {
                hub.publish(
                    DETECTOR_SOURCE,
                    recv_time,
                    HubEventKind::Detection(detection_record(d, true)),
                );
            }
            st.live.push(LiveDetection {
                event: d.clone(),
                emitted_s,
                in_run: true,
            });
        }
        st.emitted = st.engine.detections().len();
    }

    /// Closes the stream at the settle `horizon` and returns the
    /// canonical detections together with the reconciled live stream.
    /// While per-rank order held, the streaming engine fed its sorted
    /// remainder has seen exactly the oracle's input sequence, so its
    /// `finish` is the canonical set; only a reordered run sorts every
    /// buffered event and replays them through a fresh engine. Every
    /// finding not already emitted in-run is emitted at the horizon.
    pub fn finalize(&self, horizon: Epoch) -> LiveFinalize {
        let mut st = self.state.lock();
        let st = &mut *st;
        let inrun = std::mem::take(&mut st.live);
        if st.reordered {
            let all = arrival_order(std::mem::take(&mut st.fed), std::mem::take(&mut st.pending));
            let (detector, detections) = settle_replay(all, self.cfg.clone());
            let live = self.reconcile(inrun, &detections, horizon);
            return LiveFinalize {
                detector,
                detections,
                live,
            };
        }
        // Feed the sorted remainder: fed prefix + remainder is exactly
        // the oracle's input sequence. (`Pending`'s order is reversed
        // for the max-heap, hence `rev`; taking the heap also frees its
        // buffer, which otherwise outlives the run at its high-water
        // size.)
        let rest = std::mem::take(&mut st.pending).into_sorted_vec();
        for p in rest.iter().rev() {
            st.engine.observe(&p.event);
        }
        let fed = st.engine.detections().len();
        let detections = st.engine.finish();
        // The stream's order: emission order for what feeding found,
        // then report order for what closing the open windows found.
        let mut order = st.engine.detections().to_vec();
        order[fed..].sort_by(report_order);
        let live = self.reconcile(inrun, &order, horizon);
        let detector = std::mem::replace(&mut st.engine, OnlineDetector::new(self.cfg.clone()));
        LiveFinalize {
            detector,
            detections,
            live,
        }
    }

    /// The live stream over `detections`, in their order: an in-run
    /// emission of a finding keeps its instant, and every other finding
    /// is emitted at `horizon`. In-run emissions that `detections` does
    /// not confirm are dropped from the stream (their hub records
    /// remain, marked in_run, as provisional).
    fn reconcile(
        &self,
        mut inrun: Vec<LiveDetection>,
        detections: &[DiagnosticEvent],
        horizon: Epoch,
    ) -> Vec<LiveDetection> {
        let mut live = Vec::with_capacity(detections.len());
        for d in detections {
            if let Some(i) = inrun.iter().position(|l| &l.event == d) {
                live.push(inrun.swap_remove(i));
            } else {
                self.publish_final(d, horizon);
                live.push(LiveDetection {
                    event: d.clone(),
                    emitted_s: horizon.as_secs_f64(),
                    in_run: false,
                });
            }
        }
        live
    }

    fn publish_final(&self, d: &DiagnosticEvent, horizon: Epoch) {
        if let Some(hub) = &self.hub {
            hub.publish(
                DETECTOR_SOURCE,
                horizon,
                HubEventKind::Detection(detection_record(d, false)),
            );
        }
    }
}

impl IngestObserver for LiveDetectorTap {
    fn on_rows(&self, rows: &[Vec<Value>], recv_time: Epoch) {
        for row in rows {
            if let Some(ev) = row_to_event(row) {
                self.offer(ev, recv_time);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darshan_ldms_connector::{schema::col, COLUMNS};
    use hpcws_sim::online::op_name;

    /// The settle-replay oracle at the default config.
    fn oracle(events: &[OnlineEvent]) -> Vec<DiagnosticEvent> {
        settle_replay(events.to_vec(), DetectionConfig::default()).1
    }

    fn row(job: u64, rank: u64, op: &str, dur: f64, end: f64) -> Vec<Value> {
        COLUMNS
            .iter()
            .map(|&(name, _)| match name {
                "job_id" => Value::U64(job),
                "rank" => Value::U64(rank),
                "ProducerName" => Value::Str("nid00040".to_string()),
                "op" => Value::Str(op.to_string()),
                "file" => Value::Str("/scratch/o.dat".to_string()),
                "seg_len" => Value::I64(4096),
                "seg_off" => Value::I64(0),
                "seg_dur" => Value::F64(dur),
                "seg_timestamp" => Value::F64(end),
                "module" | "exe" | "type" | "seg_data_set" => Value::Str("x".to_string()),
                "uid" | "record_id" | "cnt" => Value::U64(1),
                _ => Value::I64(-1),
            })
            .collect()
    }

    #[test]
    fn rows_decode_and_replay_in_virtual_time_order() {
        let tap = LiveDetectorTap::new(DetectionConfig::default(), 3, None);
        // Delivered out of virtual-time order, as OS threads would.
        tap.on_rows(
            &[
                row(1, 0, "write", 0.1, 105.0),
                row(1, 1, "write", 0.1, 101.0),
            ],
            Epoch::from_secs(1),
        );
        tap.on_rows(&[row(1, 2, "read", 0.05, 103.0)], Epoch::from_secs(1));
        assert_eq!(tap.buffered(), 3);
        let out = tap.finalize(Epoch::from_secs(10_000));
        assert_eq!(out.detector.events(), 3);
        assert_eq!(
            out.detector.late_events(),
            0,
            "sorted replay has no stragglers"
        );
        assert!(out.detections.is_empty());
    }

    #[test]
    fn malformed_rows_are_skipped_not_fatal() {
        let tap = LiveDetectorTap::new(DetectionConfig::default(), 1, None);
        let mut bad = row(1, 0, "write", 0.1, 100.0);
        bad[col::SEG_DUR] = Value::Str("N/A".to_string());
        tap.on_rows(&[bad, row(1, 0, "write", 0.1, 100.5)], Epoch::from_secs(1));
        assert_eq!(tap.buffered(), 1);
    }

    fn ev(job: u64, rank: u64, op: &str, dur: f64, end: f64) -> OnlineEvent {
        OnlineEvent {
            job_id: job,
            rank,
            op: op_name(op),
            file: "/scratch/o.dat".to_string(),
            record_id: 1,
            len: 1 << 20,
            off: 0,
            dur,
            end,
        }
    }

    /// A two-rank workload with a clear duration outlier on rank 0:
    /// three calm baseline windows, then a window of 10 s writes.
    /// Returns per-rank event streams, each in virtual-time order.
    fn outlier_workload() -> Vec<Vec<OnlineEvent>> {
        let mut ranks = vec![Vec::new(), Vec::new()];
        for w in 0..6 {
            for i in 0..4 {
                let t = 100.0 + 10.0 * f64::from(w) + 2.0 * f64::from(i);
                let slow = (3..5).contains(&w);
                ranks[0].push(ev(7, 0, "write", if slow { 10.0 } else { 0.1 }, t));
                ranks[1].push(ev(7, 1, "write", 0.1, t + 0.5));
            }
        }
        ranks
    }

    #[test]
    fn live_tap_matches_settle_replay_under_cross_rank_interleaving() {
        let ranks = outlier_workload();
        // Oracle: plain settle-replay over all events.
        let all: Vec<OnlineEvent> = ranks.iter().flatten().cloned().collect();
        let want = oracle(&all);
        assert!(!want.is_empty(), "workload must produce detections");

        // Live: deliver rank streams interleaved with skew (rank 1
        // runs several events ahead), in-order per rank.
        let tap = LiveDetectorTap::new(DetectionConfig::default(), 2, None);
        let mut idx = [0usize, 0usize];
        let mut clock = 0u64;
        while idx[0] < ranks[0].len() || idx[1] < ranks[1].len() {
            // Alternate 1 event from rank 0 with 2 from rank 1.
            for (r, burst) in [(0usize, 1usize), (1, 2)] {
                for _ in 0..burst {
                    if idx[r] < ranks[r].len() {
                        clock += 1;
                        tap.offer(ranks[r][idx[r]].clone(), Epoch::from_secs(clock));
                        idx[r] += 1;
                    }
                }
            }
        }
        assert!(!tap.reordered(), "per-rank order was preserved");
        let horizon = Epoch::from_secs(10_000);
        let out = tap.finalize(horizon);
        assert_eq!(out.detections, want, "oracle path is unchanged");
        let live_events: Vec<&DiagnosticEvent> = out.live.iter().map(|l| &l.event).collect();
        let want_refs: Vec<&DiagnosticEvent> = want.iter().collect();
        for w in &want_refs {
            assert!(live_events.contains(w), "live stream is missing {w:?}");
        }
        assert_eq!(
            live_events.len(),
            want_refs.len(),
            "no spurious live detections"
        );
        assert!(
            out.live.iter().any(|l| l.in_run),
            "the outlier should surface while ingest is still flowing"
        );
        for l in &out.live {
            assert!(
                l.emitted_s <= horizon.as_secs_f64(),
                "no emission after the settle horizon"
            );
            if l.in_run {
                assert!(l.emitted_s < horizon.as_secs_f64());
            }
        }
    }

    #[test]
    fn per_rank_reorder_falls_back_to_settle_with_exact_parity() {
        let ranks = outlier_workload();
        let tap = LiveDetectorTap::new(DetectionConfig::default(), 2, None);
        // Lockstep interleave so the frontier advances and events are
        // fed live...
        let mut seq = 0u64;
        for pair in ranks[0].iter().zip(ranks[1].iter()) {
            for e in [pair.0, pair.1] {
                seq += 1;
                tap.offer(e.clone(), Epoch::from_secs(seq));
            }
        }
        assert!(!tap.reordered());
        // ...then a WAL-replay straggler arrives with an `end` far
        // below the frontier: its slot in the canonical order has
        // already been consumed.
        tap.offer(ev(7, 0, "write", 0.1, 101.3), Epoch::from_secs(seq + 1));
        assert!(tap.reordered(), "the straggler must trip the order guard");
        let horizon = Epoch::from_secs(10_000);
        let out = tap.finalize(horizon);
        // Parity is unconditional: the live stream equals the oracle.
        let live_events: Vec<DiagnosticEvent> = out.live.iter().map(|l| l.event.clone()).collect();
        assert_eq!(live_events, out.detections);
        assert!(!out.detections.is_empty());
    }

    #[test]
    fn live_tap_observer_matches_plain_tap_on_rows() {
        let live = LiveDetectorTap::new(DetectionConfig::default(), 1, None);
        let rows: Vec<Vec<Value>> = (0..40)
            .map(|i| {
                let w = i / 8;
                let dur = if w == 3 { 8.0 } else { 0.05 };
                row(3, 0, "write", dur, 200.0 + 1.25 * f64::from(i))
            })
            .collect();
        for chunk in rows.chunks(5) {
            live.on_rows(chunk, Epoch::from_secs(9));
        }
        let decoded: Vec<OnlineEvent> = rows.iter().filter_map(|r| row_to_event(r)).collect();
        let want = oracle(&decoded);
        assert!(!want.is_empty(), "the slow window must be detected");
        let out = live.finalize(Epoch::from_secs(10_000));
        assert_eq!(out.detections, want);
        let live_events: Vec<DiagnosticEvent> = out.live.iter().map(|l| l.event.clone()).collect();
        assert_eq!(live_events.len(), want.len());
        for w in &want {
            assert!(live_events.contains(w));
        }
    }

    /// Maximal skew: every event of rank 1 arrives before the first of
    /// rank 0, so the whole of rank 1 sits pending until the frontier
    /// starts moving. The streaming engine must still be fed exactly
    /// the oracle's sorted sequence — here, the sorted prefix below the
    /// final frontier — and finalize must complete it.
    #[test]
    fn skewed_arrival_feeds_the_engine_the_oracle_sequence() {
        let ranks = outlier_workload();
        let tap = LiveDetectorTap::new(DetectionConfig::default(), 2, None);
        let mut clock = 0u64;
        for e in ranks[1].iter().chain(ranks[0].iter()) {
            clock += 1;
            tap.offer(e.clone(), Epoch::from_secs(clock));
        }
        assert!(!tap.reordered(), "per-rank order was preserved");

        let mut sorted: Vec<OnlineEvent> = ranks.iter().flatten().cloned().collect();
        sorted.sort_by(event_cmp);
        let frontier = ranks
            .iter()
            .map(|r| r.last().expect("nonempty rank").end)
            .fold(f64::INFINITY, f64::min);
        let fed = sorted.iter().take_while(|e| e.end < frontier).count();
        assert!(fed > 0 && fed < sorted.len(), "prefix and remainder");
        let mut prefix_engine = OnlineDetector::new(DetectionConfig::default());
        for e in &sorted[..fed] {
            prefix_engine.observe(e);
        }
        {
            let st = tap.state.lock();
            assert_eq!(st.engine.events(), fed as u64);
            assert_eq!(st.engine.late_events(), 0, "fed in canonical order");
            assert_eq!(st.engine.detections(), prefix_engine.detections());
            assert_eq!(st.fed.last().map(|p| &p.event), Some(&sorted[fed - 1]));
            assert_eq!(st.pending.len(), sorted.len() - fed);
        }

        let out = tap.finalize(Epoch::from_secs(10_000));
        assert_eq!(out.detections, oracle(&sorted));
        let mut live: Vec<DiagnosticEvent> = out.live.into_iter().map(|l| l.event).collect();
        let mut want = out.detections.clone();
        let key = |d: &DiagnosticEvent| format!("{d:?}");
        live.sort_by_key(key);
        want.sort_by_key(key);
        assert_eq!(live, want, "live stream is exactly the oracle set");
    }

    /// The live set of a finalized tap, in stream order.
    fn live_events(out: &LiveFinalize) -> Vec<DiagnosticEvent> {
        out.live.iter().map(|l| l.event.clone()).collect()
    }

    /// A master-worker job: of its two ranks only the master does I/O,
    /// and the tap expects that one. The frontier moves with every
    /// event, so the engine is fed in-run, finalize feeds it at most
    /// the last event, and the detections are the oracle's.
    #[test]
    fn master_worker_job_is_fed_in_run() {
        let master = outlier_workload().swap_remove(0);
        let want = oracle(&master);
        assert!(
            !want.is_empty(),
            "the master's slow windows must be detected"
        );
        let tap = LiveDetectorTap::new(DetectionConfig::default(), 1, None);
        for (i, e) in master.iter().enumerate() {
            tap.offer(e.clone(), Epoch::from_secs(i as u64 + 1));
        }
        assert!(!tap.reordered());
        {
            let st = tap.state.lock();
            assert!(
                st.pending.len() <= 1,
                "{} left to finalize",
                st.pending.len()
            );
            assert_eq!(st.engine.events() as usize + st.pending.len(), master.len());
        }
        let out = tap.finalize(Epoch::from_secs(10_000));
        assert_eq!(out.detections, want);
        assert!(out.live.iter().any(|l| l.in_run), "no in-run emission");
        let mut live = live_events(&out);
        let key = |d: &DiagnosticEvent| format!("{d:?}");
        live.sort_by_key(key);
        let mut want = want;
        want.sort_by_key(key);
        assert_eq!(live, want);
    }

    /// More ranks report than the tap expects: with one expected, the
    /// frontier follows whichever rank arrives first, so the other's
    /// events sort below what was fed. The tap falls back, and the live
    /// set is still the oracle's.
    #[test]
    fn an_unexpected_rank_falls_back_with_exact_parity() {
        let ranks = outlier_workload();
        let tap = LiveDetectorTap::new(DetectionConfig::default(), 1, None);
        let mut clock = 0u64;
        for e in ranks[1].iter().chain(ranks[0].iter()) {
            clock += 1;
            tap.offer(e.clone(), Epoch::from_secs(clock));
        }
        assert!(tap.reordered(), "rank 0 arrived below the fed prefix");
        let all: Vec<OnlineEvent> = ranks.iter().flatten().cloned().collect();
        let out = tap.finalize(Epoch::from_secs(10_000));
        assert!(!out.detections.is_empty());
        assert_eq!(live_events(&out), out.detections);
        assert_eq!(out.detections, oracle(&all));
    }

    /// Events equal under [`event_cmp`] that differ only in `dur`: the
    /// reordered replay keeps them in arrival order, as the oracle's
    /// stable sort does, whether they were fed or still pending.
    #[test]
    fn reordered_replay_keeps_exact_ties_in_arrival_order() {
        let arrivals = [
            ev(7, 0, "write", 0.1, 100.0),
            ev(7, 0, "write", 0.3, 100.0),
            ev(7, 0, "write", 0.2, 101.0),
            ev(7, 0, "write", 0.4, 100.0), // ties the fed pair: no reorder
            ev(7, 0, "write", 0.5, 99.5),  // below the fed prefix
            ev(7, 0, "write", 0.6, 100.0),
        ];
        let tap = LiveDetectorTap::new(DetectionConfig::default(), 1, None);
        for (i, e) in arrivals.iter().enumerate() {
            tap.offer(e.clone(), Epoch::from_secs(i as u64 + 1));
            assert_eq!(tap.reordered(), i >= 4, "after arrival {i}");
        }
        let replayed = {
            let mut st = tap.state.lock();
            let st = &mut *st;
            assert_eq!(st.fed.len(), 3, "three ties were fed before the reorder");
            let (fed, pending) = (std::mem::take(&mut st.fed), std::mem::take(&mut st.pending));
            arrival_order(fed, pending)
        };
        assert_eq!(
            replayed, arrivals,
            "the replay's input is the arrival order"
        );
        let mut stable = replayed;
        stable.sort_by(event_cmp);
        let order: Vec<f64> = stable.iter().map(|e| e.dur).collect();
        assert_eq!(order, [0.5, 0.1, 0.3, 0.4, 0.6, 0.2]);
    }

    #[test]
    fn live_detections_publish_to_the_hub() {
        use iosim_telemetry::{HubConfig, HubEvent};
        let hub = DiagHub::new(HubConfig::default());
        let ranks = outlier_workload();
        let tap = LiveDetectorTap::new(DetectionConfig::default(), 2, Some(hub.clone()));
        let mut seq = 0u64;
        for pair in ranks[0].iter().zip(ranks[1].iter()) {
            for e in [pair.0, pair.1] {
                seq += 1;
                tap.offer(e.clone(), Epoch::from_secs(seq));
            }
        }
        let out = tap.finalize(Epoch::from_secs(10_000));
        let hub_detections: Vec<HubEvent> = hub
            .events()
            .into_iter()
            .filter(|e| matches!(e.kind, HubEventKind::Detection(_)))
            .collect();
        assert_eq!(hub_detections.len(), out.live.len());
        for e in &hub_detections {
            assert_eq!(e.source, "detector");
        }
        let in_run_on_hub = hub_detections
            .iter()
            .filter(|e| matches!(&e.kind, HubEventKind::Detection(d) if d.in_run))
            .count();
        assert_eq!(in_run_on_hub, out.live.iter().filter(|l| l.in_run).count());
    }
}
