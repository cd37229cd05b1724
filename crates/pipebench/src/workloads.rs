//! The five workloads.
//!
//! Each one is a closed loop: a single generator thread issues the next
//! call into the program when the previous one returns. A workload is
//! built once per set-up from `(seed, scale)`; every [`Workload::pass`]
//! then runs the same inputs through a freshly built pipeline, times it,
//! and checks what came out against the generator's reference.

use crate::check::{hash_row, SeqSum, SetSum, Verdict};
use crate::gen::{generate, EventSet, Shape};
use crate::span::{traced, Tracer};
use darshan_ldms_connector::{
    column_id, BatchConfig, ConnectorConfig, DarshanConnector, DeliveryMode, FaultScript,
    IngestObserver, OverloadConfig, Pipeline, PipelineOpts, QueueConfig, TelemetryConfig,
    WalConfig, COLUMNS, CONTAINER, DEFAULT_STREAM_TAG,
};
use darshan_sim::EventSink;
use dsos_sim::Value;
use hpcws_sim::figures::{
    anomalous_jobs, job_mean_durations, op_occurrence, per_rank_durations, timeline, JobAnomaly,
    OpOccurrence, RankDurations, Timeline,
};
use hpcws_sim::{DataFrame, DetectionConfig};
use iosim_apps::workloads::Hmmer;
use iosim_apps::{run_job, FsChoice, Instrumentation, RunSpec};
use iosim_telemetry::HubConfig;
use iosim_time::{Clock, Epoch, SimDuration};
use ldms_sim::{StreamMessage, StreamSink};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Workload names, in report order.
pub const NAMES: [&str; 5] = [
    "stream-ingest",
    "publish-only",
    "durable-storm",
    "dashboard-query",
    "hmmer-job",
];

/// Full-size event counts. `--smoke` divides them by 20.
const STREAM_EVENTS: usize = 200_000;
const WIDE_EVENTS: usize = 500_000;
const CAMPAIGN_EVENTS: usize = 200_000;

/// Records per frame in `durable-storm`, as in `perf`'s batched modes.
pub const FRAME_RECORDS: usize = 16;

/// What one timed pass measured.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Wall seconds of the timed region.
    pub wall_s: f64,
    /// Events published and settled, or rows returned to the dashboard.
    pub units: u64,
    /// Wall seconds spent inside queries (`dashboard-query` only).
    pub query_s: Option<f64>,
    pub verdict: Verdict,
    /// Counts read off the pass's own pipeline, by per-layer metric
    /// name. They must repeat exactly for a fixed seed.
    pub counts: Vec<(&'static str, f64)>,
}

/// One of the five workloads, set up and ready to run passes.
pub trait Workload {
    /// Runs one timed, checked pass. With a tracer, spans are recorded
    /// around every call into the program.
    fn pass(&mut self, tracer: Option<&Arc<Tracer>>) -> Pass;

    /// The event shape the layer replays of the traced run use.
    fn replay_shape(&self) -> Shape;

    /// Whether a traced pass places spans around the layers. False
    /// where the program owns its pipeline and only one span fits
    /// around the whole of it.
    fn interposed(&self) -> bool {
        true
    }
}

/// Builds a workload by name; `scale` divides its size.
pub fn build(name: &str, seed: u64, scale: usize) -> Option<Box<dyn Workload>> {
    let scale = scale.max(1);
    Some(match name {
        "stream-ingest" => Box::new(Ingest::new(
            IngestKind::Stream,
            Shape::single_stream(STREAM_EVENTS / scale),
            seed,
        )),
        "publish-only" => Box::new(Ingest::new(
            IngestKind::PublishOnly,
            Shape::wide(WIDE_EVENTS / scale),
            seed,
        )),
        "durable-storm" => Box::new(Ingest::new(
            IngestKind::Storm,
            Shape::single_stream(STREAM_EVENTS / scale),
            seed,
        )),
        "dashboard-query" => Box::new(Dashboard::new(
            Shape::campaign(CAMPAIGN_EVENTS / scale),
            seed,
        )),
        "hmmer-job" => Box::new(HmmerJob::new(seed, scale)),
        _ => return None,
    })
}

/// The id all spans of one event share.
pub fn request_id(job_id: u64, rank: u64, seq: u64) -> u64 {
    (job_id & 0xffff) << 48 | (rank & 0xffff) << 32 | (seq & 0xffff_ffff)
}

fn message_id(msg: &StreamMessage) -> u64 {
    let (job, rank) = msg.origin.unwrap_or((0, 0));
    request_id(job, rank, msg.seq.unwrap_or(0))
}

/// A benchmark-owned sink that counts what reaches it and keeps
/// nothing: the paper's "publish only" configuration.
#[derive(Debug, Default)]
pub struct CountingSink {
    msgs: AtomicU64,
    bytes: AtomicU64,
}

impl CountingSink {
    pub fn msgs(&self) -> u64 {
        self.msgs.load(Ordering::Relaxed)
    }
}

impl StreamSink for CountingSink {
    fn deliver(&self, msg: &StreamMessage) {
        self.msgs.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(msg.len() as u64, Ordering::Relaxed);
    }
}

/// Wraps a sink in a span. With `split_at_observer`, a child span is
/// opened too, which [`SplitObserver`] closes where conversion ends and
/// the cluster ingest begins.
pub struct TimingSink {
    pub inner: Arc<dyn StreamSink>,
    pub tracer: Arc<Tracer>,
    pub name: &'static str,
    pub split_at_observer: bool,
}

impl StreamSink for TimingSink {
    fn deliver(&self, msg: &StreamMessage) {
        let id = message_id(msg);
        let depth = self.tracer.enter(self.name, id);
        if self.split_at_observer {
            self.tracer.enter("store.convert", id);
        }
        self.inner.deliver(msg);
        self.tracer.exit_to(depth);
    }
}

/// Marks the instant the store hands its converted rows to the cluster.
pub struct SplitObserver(pub Arc<Tracer>);

impl IngestObserver for SplitObserver {
    fn on_rows(&self, _rows: &[Vec<Value>], _recv_time: Epoch) {
        self.0.split("dsos.ingest");
    }
}

/// Counts read off a settled pipeline, by per-layer metric name.
/// `wire` is what the connectors put on the wire, as frames if `framed`.
pub fn pipeline_counts(p: &Pipeline, wire: u64, framed: bool) -> Vec<(&'static str, f64)> {
    let net = p.network();
    let high_water = net.queue_depths().iter().map(|&(_, _, hw)| hw).max();
    let wal: Vec<_> = net.daemons().iter().filter_map(|d| d.wal_stats()).collect();
    let overload = net.overload_stats();
    let ledger = p.ledger();
    vec![
        ("connector.wire_msgs", wire as f64),
        ("codec.frames", if framed { wire as f64 } else { 0.0 }),
        ("hop.queue_high_water", high_water.unwrap_or(0) as f64),
        (
            "wal.appends",
            wal.iter().map(|w| w.appended).sum::<u64>() as f64,
        ),
        (
            "wal.fsyncs",
            wal.iter().map(|w| w.fsyncs).sum::<u64>() as f64,
        ),
        (
            "wal.high_water",
            wal.iter().map(|w| w.high_water).max().unwrap_or(0) as f64,
        ),
        (
            "wal.replayed",
            wal.iter().map(|w| w.replayed).sum::<u64>() as f64,
        ),
        ("overload.summarized", ledger.summarized() as f64),
        ("overload.accuracy", ledger.accuracy()),
        (
            "overload.max_depth",
            overload
                .iter()
                .map(|(_, s)| s.max_depth)
                .fold(0.0, f64::max),
        ),
        ("ledger.lost", ledger.total_lost() as f64),
        ("store.rejected", p.store().rejected() as f64),
        ("store.duplicates", p.store().duplicates_suppressed() as f64),
    ]
}

/// Calls `f` with every stored event row, one rank's slice at a time,
/// so that reading the store back adds little to the run's peak RSS.
fn for_stored_rows(p: &Pipeline, set: &EventSet, mut f: impl FnMut(&[Value])) {
    for job in &set.jobs {
        for rank in 0..u64::from(set.shape.ranks) {
            let key = [Value::U64(job.job_id), Value::U64(rank)];
            for row in p.cluster().query_prefix(CONTAINER, "job_rank_time", &key) {
                f(&row);
            }
        }
    }
}

// ---------------------------------------------------------------------
// stream-ingest, publish-only, durable-storm
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IngestKind {
    /// The deployed default: store attached, every opt-in off.
    Stream,
    /// A counting null sink at L2 instead of the store.
    PublishOnly,
    /// Every transport opt-in on at once, plus a link flap.
    Storm,
}

/// What the store must hold after an ingest pass.
struct Reference {
    /// Hash of every offered event's row.
    rows: HashSet<u64>,
    all: SetSum,
    /// The open/close rows, which no overload stage may fold away.
    meta: SetSum,
}

impl Reference {
    fn of(set: &EventSet) -> Self {
        let mut r = Self {
            rows: HashSet::with_capacity(set.events.len()),
            all: SetSum::default(),
            meta: SetSum::default(),
        };
        for g in &set.events {
            let h = hash_row(&set.reference_row(g));
            r.rows.insert(h);
            r.all.add(h);
            if matches!(
                g.event.op,
                darshan_sim::OpKind::Open | darshan_sim::OpKind::Close
            ) {
                r.meta.add(h);
            }
        }
        r
    }
}

struct Ingest {
    kind: IngestKind,
    set: EventSet,
    reference: Reference,
    /// Seed-placed L1 link flap of `durable-storm`.
    flap: (Epoch, Epoch),
}

impl Ingest {
    fn new(kind: IngestKind, shape: Shape, seed: u64) -> Self {
        let set = generate(shape, seed);
        let reference = Reference::of(&set);
        // The flap starts 20–60 % into the load and lasts 200–600 ms,
        // as in `chaos storm`, so the retry path and the overload
        // ladder are exercised together.
        let (first, last) = set.span();
        let span_s = last.since(first).as_secs_f64();
        let mix = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11;
        let from =
            first + SimDuration::from_secs_f64(span_s * (0.2 + 0.4 * (mix % 1000) as f64 / 1000.0));
        let until = from + SimDuration::from_millis(200 + (mix / 1000) % 400);
        Self {
            kind,
            set,
            reference,
            flap: (from, until),
        }
    }

    fn pipeline_opts(&self) -> PipelineOpts {
        match self.kind {
            IngestKind::Stream => PipelineOpts::default(),
            IngestKind::PublishOnly => PipelineOpts {
                attach_store: false,
                ..PipelineOpts::default()
            },
            IngestKind::Storm => PipelineOpts {
                queue: QueueConfig::reliable().with_capacity(4096),
                wal: Some(WalConfig::durable()),
                overload: Some(OverloadConfig::for_rate(self.set.offered_rate() / 4.0)),
                faults: FaultScript::new().link_flap("l1", self.flap.0, self.flap.1),
                ..PipelineOpts::default()
            },
        }
    }

    fn connector_config(&self) -> ConnectorConfig {
        match self.kind {
            IngestKind::Storm => ConnectorConfig {
                batch: BatchConfig::frames_of(FRAME_RECORDS),
                delivery: DeliveryMode::Deferred,
                ..ConnectorConfig::default()
            },
            _ => ConnectorConfig::default(),
        }
    }
}

/// Builds one connector per `(job, rank)` stream of the set.
pub fn connectors(
    p: &Pipeline,
    set: &EventSet,
    config: &ConnectorConfig,
) -> Vec<Arc<DarshanConnector>> {
    (0..set.shape.streams() as u32)
        .map(|s| {
            p.connector_for_rank(
                config.clone(),
                set.job_of(s).clone(),
                set.producer_of(s).to_string(),
            )
        })
        .collect()
}

/// Issues every event to its rank's connector in virtual-time order,
/// the next one when the previous call returns.
pub fn drive(set: &EventSet, conns: &[Arc<DarshanConnector>], tracer: Option<&Arc<Tracer>>) {
    let base = set.span().0;
    let mut clocks = vec![Clock::new(base); conns.len()];
    let mut seqs = vec![0u64; conns.len()];
    for g in &set.events {
        let k = g.stream as usize;
        clocks[k].advance_to(g.event.end.abs);
        seqs[k] += 1;
        let id = request_id(
            set.job_of(g.stream).job_id,
            u64::from(g.event.rank),
            seqs[k],
        );
        traced(tracer, "on_event", id, || {
            conns[k].on_event(&g.event, &mut clocks[k])
        });
    }
}

/// The `run_job` outbox merge: flush every connector and stable-sort
/// the staged messages by `(publish instant, stream)`.
pub fn merged_outboxes(conns: &[Arc<DarshanConnector>]) -> Vec<(usize, StreamMessage)> {
    let mut staged = Vec::new();
    for (stream, c) in conns.iter().enumerate() {
        c.flush();
        staged.extend(c.take_outbox().into_iter().map(|m| (stream, m)));
    }
    staged.sort_by_key(|(stream, m)| (m.recv_time, *stream));
    staged
}

/// Merges the outboxes and injects the messages one by one.
fn publish_outboxes(p: &Pipeline, conns: &[Arc<DarshanConnector>], tracer: Option<&Arc<Tracer>>) {
    let staged = traced(tracer, "merge", 0, || merged_outboxes(conns));
    for (_, msg) in staged {
        let id = message_id(&msg);
        traced(tracer, "publish", id, || p.network().publish(msg));
    }
}

/// The settle horizon: a minute of virtual time past the last event.
pub fn horizon(set: &EventSet) -> Epoch {
    set.span().1 + SimDuration::from_secs(60)
}

impl Workload for Ingest {
    fn pass(&mut self, tracer: Option<&Arc<Tracer>>) -> Pass {
        let mut opts = self.pipeline_opts();
        // Traced, the store is subscribed through a timing sink.
        let store_attached = opts.attach_store;
        if tracer.is_some() {
            opts.attach_store = false;
        }
        let p = Pipeline::build_with(&self.set.nodes, &opts);
        let null_sink = Arc::new(CountingSink::default());
        match (tracer, store_attached) {
            (None, true) => {}
            (None, false) => p
                .network()
                .l2()
                .subscribe(DEFAULT_STREAM_TAG, null_sink.clone()),
            (Some(t), true) => {
                p.store()
                    .attach_observer(Arc::new(SplitObserver(t.clone())));
                p.network().l2().subscribe(
                    DEFAULT_STREAM_TAG,
                    Arc::new(TimingSink {
                        inner: p.store().clone(),
                        tracer: t.clone(),
                        name: "store.deliver",
                        split_at_observer: true,
                    }),
                );
            }
            (Some(t), false) => p.network().l2().subscribe(
                DEFAULT_STREAM_TAG,
                Arc::new(TimingSink {
                    inner: null_sink.clone(),
                    tracer: t.clone(),
                    name: "sink.deliver",
                    split_at_observer: false,
                }),
            ),
        }
        let conns = connectors(&p, &self.set, &self.connector_config());
        let horizon = horizon(&self.set);

        let t0 = Instant::now();
        drive(&self.set, &conns, tracer);
        if self.kind == IngestKind::Storm {
            publish_outboxes(&p, &conns, tracer);
        }
        traced(tracer, "settle", 0, || p.settle(horizon));
        let wall_s = t0.elapsed().as_secs_f64();

        let verdict = self.verify(&p, &conns, &null_sink);
        let wire = conns.iter().map(|c| c.stats().wire()).sum();
        Pass {
            wall_s,
            units: self.set.events.len() as u64,
            query_s: None,
            verdict,
            counts: pipeline_counts(&p, wire, self.kind == IngestKind::Storm),
        }
    }

    fn replay_shape(&self) -> Shape {
        self.set.shape
    }
}

impl Ingest {
    fn verify(
        &self,
        p: &Pipeline,
        conns: &[Arc<DarshanConnector>],
        null_sink: &CountingSink,
    ) -> Verdict {
        let offered = self.set.events.len() as u64;
        let mut v = Verdict::attempted(offered);
        let ledger = p.ledger();
        let published: u64 = conns.iter().map(|c| c.stats().published()).sum();
        v.require(published == offered, || {
            format!("connectors published {published} of {offered} events")
        });
        v.require(ledger.balances(), || {
            format!("ledger does not balance: {}", ledger.summary())
        });
        v.require(ledger.total_lost() == 0, || {
            format!("{} messages lost", ledger.total_lost())
        });
        v.require(p.store().rejected() == 0, || {
            format!("store rejected {} rows", p.store().rejected())
        });
        if self.kind == IngestKind::PublishOnly {
            let got = null_sink.msgs();
            v.fail(offered.saturating_sub(got), || {
                format!("null sink saw {got} of {offered} messages")
            });
            v.require(got <= offered, || {
                format!("null sink saw {got} > {offered} messages")
            });
            return v;
        }
        let mut stored = SetSum::default();
        let mut meta = SetSum::default();
        let mut known = 0u64;
        let op = column_id("op");
        for_stored_rows(p, &self.set, |row| {
            let h = hash_row(row);
            stored.add(h);
            known += u64::from(self.reference.rows.contains(&h));
            if matches!(&row[op], Value::Str(op) if op == "open" || op == "close") {
                meta.add(h);
            }
        });
        v.require(known == stored.count, || {
            format!(
                "{} stored rows match no offered event",
                stored.count - known
            )
        });
        // An event is accounted for when its row is stored or a
        // balanced ledger counts it as summarized.
        let summarized = if self.kind == IngestKind::Storm {
            ledger.summarized()
        } else {
            0
        };
        v.fail(offered.saturating_sub(known + summarized), || {
            format!("{known} rows stored + {summarized} summarized of {offered} offered")
        });
        v.require(known + summarized <= offered, || {
            format!("{known} stored + {summarized} summarized exceeds {offered} offered")
        });
        v.require(meta == self.reference.meta, || {
            format!(
                "open/close rows: stored {} of {}, or altered",
                meta.count, self.reference.meta.count
            )
        });
        if self.kind == IngestKind::Stream {
            v.require(stored == self.reference.all, || {
                "stored row set differs from the reference".to_string()
            });
        }
        v
    }
}

// ---------------------------------------------------------------------
// dashboard-query
// ---------------------------------------------------------------------

/// Time windows queried per refresh.
const WINDOWS: usize = 10;

/// One query of the refresh mix.
enum Query {
    /// Everything of a job, `(rank, time)` ordered.
    Job(u64),
    /// One rank of a job, time ordered.
    Rank(u64, u64),
    /// A time window of a job, `(time, rank)` ordered.
    Window(u64, f64, f64),
}

/// The figure outputs of one refresh; they must not change between
/// refreshes of the same store.
#[derive(PartialEq)]
struct Figures {
    occurrence: Vec<OpOccurrence>,
    rank_durations: Vec<RankDurations>,
    job_means: Vec<(u64, f64)>,
    anomalies: Vec<JobAnomaly>,
    timeline: Timeline,
}

struct Dashboard {
    set: EventSet,
    pipeline: Pipeline,
    queries: Vec<(Query, SeqSum)>,
    first_figures: Option<Figures>,
    ingest_problems: Vec<String>,
}

impl Dashboard {
    fn new(shape: Shape, seed: u64) -> Self {
        let set = generate(shape, seed);
        // Set-up: ingest the campaign through the default pipeline.
        let pipeline = Pipeline::build_with(&set.nodes, &PipelineOpts::default());
        let conns = connectors(&pipeline, &set, &ConnectorConfig::default());
        drive(&set, &conns, None);
        pipeline.settle(horizon(&set));
        let mut ingest_problems = Vec::new();
        let stored = pipeline.stored_events();
        if stored != set.events.len() || pipeline.store().rejected() != 0 {
            ingest_problems.push(format!(
                "set-up stored {stored} of {} rows, {} rejected",
                set.events.len(),
                pipeline.store().rejected()
            ));
        }

        // The reference: a linear scan of the generator's events.
        struct RefRow {
            job: u64,
            rank: u64,
            ts: f64,
            hash: u64,
        }
        let mut refs: Vec<RefRow> = set
            .events
            .iter()
            .map(|g| RefRow {
                job: set.job_of(g.stream).job_id,
                rank: u64::from(g.event.rank),
                ts: g.event.end.abs.as_secs_f64(),
                hash: hash_row(&set.reference_row(g)),
            })
            .collect();
        let expect = |refs: &[RefRow], keep: &dyn Fn(&RefRow) -> bool| {
            let mut s = SeqSum::default();
            refs.iter().filter(|r| keep(r)).for_each(|r| s.add(r.hash));
            s
        };
        let jobs: Vec<u64> = set.jobs.iter().map(|j| j.job_id).collect();
        let mut queries = Vec::new();
        refs.sort_by(|a, b| {
            (a.job, a.rank)
                .cmp(&(b.job, b.rank))
                .then(a.ts.total_cmp(&b.ts))
        });
        for &job in &jobs {
            queries.push((Query::Job(job), expect(&refs, &|r| r.job == job)));
        }
        let sliced = jobs[seed as usize % jobs.len()];
        for rank in 0..u64::from(shape.ranks) {
            let want = expect(&refs, &|r| r.job == sliced && r.rank == rank);
            queries.push((Query::Rank(sliced, rank), want));
        }
        refs.sort_by(|a, b| {
            a.job
                .cmp(&b.job)
                .then(a.ts.total_cmp(&b.ts))
                .then(a.rank.cmp(&b.rank))
        });
        for w in 0..WINDOWS {
            let job = jobs[w % jobs.len()];
            let mut times = refs.iter().filter(|r| r.job == job).map(|r| r.ts);
            let first = times.next().unwrap_or(0.0);
            let last = times.next_back().unwrap_or(first);
            // A tenth of the job's span, starting at a seed-chosen
            // point; the half-nanosecond keeps bounds off event times.
            let start =
                (seed.wrapping_add(w as u64).wrapping_mul(0x9E37_79B9) % 900) as f64 / 1000.0;
            let from = first + (last - first) * start + 0.5e-9;
            let to = from + (last - first) * 0.1;
            let want = expect(&refs, &|r| r.job == job && r.ts >= from && r.ts < to);
            queries.push((Query::Window(job, from, to), want));
        }
        Self {
            set,
            pipeline,
            queries,
            first_figures: None,
            ingest_problems,
        }
    }
}

impl Workload for Dashboard {
    fn pass(&mut self, tracer: Option<&Arc<Tracer>>) -> Pass {
        let cluster = self.pipeline.cluster();
        let spanned = |name: &'static str, f: &mut dyn FnMut()| traced(tracer, name, 0, f);
        let mut results: Vec<Vec<Vec<Value>>> = Vec::with_capacity(self.queries.len());
        let mut figures = None;
        let mut query_s = 0.0;

        let t0 = Instant::now();
        let refresh = tracer.map(|t| t.enter("refresh", 0));
        let q0 = Instant::now();
        for (q, _) in &self.queries {
            match q {
                Query::Job(job) => spanned("dsos.query_job", &mut || {
                    results.push(cluster.query_prefix(
                        CONTAINER,
                        "job_rank_time",
                        &[Value::U64(*job)],
                    ));
                }),
                Query::Rank(job, rank) => spanned("dsos.query_rank", &mut || {
                    results.push(cluster.query_prefix(
                        CONTAINER,
                        "job_rank_time",
                        &[Value::U64(*job), Value::U64(*rank)],
                    ));
                }),
                Query::Window(job, from, to) => spanned("dsos.query_range", &mut || {
                    results.push(cluster.query_range(
                        CONTAINER,
                        "job_time_rank",
                        &[Value::U64(*job), Value::F64(*from)],
                        &[Value::U64(*job), Value::F64(*to)],
                    ));
                }),
            }
        }
        query_s += q0.elapsed().as_secs_f64();
        let units: u64 = results.iter().map(|r| r.len() as u64).sum();
        // The job slices, moved out and concatenated, are the
        // campaign's frame; their checksums are taken from the frame.
        let jobs = self.set.jobs.len();
        let job_lens: Vec<usize> = results[..jobs].iter().map(Vec::len).collect();
        let mut frame = None;
        spanned("analysis.frame", &mut || {
            let columns: Vec<String> = COLUMNS.iter().map(|&(n, _)| n.to_string()).collect();
            let rows = results[..jobs]
                .iter_mut()
                .flat_map(std::mem::take)
                .collect();
            frame = Some(DataFrame::new(columns, rows));
        });
        let df = frame.expect("frame built above");
        spanned("analysis.figures", &mut || {
            figures = Some(Figures {
                occurrence: op_occurrence(&df),
                rank_durations: per_rank_durations(&df),
                job_means: job_mean_durations(&df, "read"),
                anomalies: anomalous_jobs(&df, "read", 3.0),
                timeline: timeline(&df, 60),
            });
        });
        if let (Some(t), Some(depth)) = (tracer, refresh) {
            t.exit_to(depth);
        }
        let wall_s = t0.elapsed().as_secs_f64();

        let mut v = Verdict::attempted(self.queries.len() as u64);
        v.problems.extend(self.ingest_problems.iter().cloned());
        let mut frame_rows = df.rows();
        for (i, ((_, want), rows)) in self.queries.iter().zip(&results).enumerate() {
            let rows = match job_lens.get(i) {
                Some(&len) => {
                    let (head, tail) = frame_rows.split_at(len);
                    frame_rows = tail;
                    head
                }
                None => rows.as_slice(),
            };
            let got = SeqSum::of_rows(rows);
            v.fail(u64::from(got != *want), || {
                format!(
                    "query {i}: {} rows, reference has {}",
                    got.count, want.count
                )
            });
        }
        let figures = figures.expect("figures built above");
        v.require(!figures.anomalies.is_empty(), || {
            "the slow job was not flagged".to_string()
        });
        match &self.first_figures {
            Some(first) => v.require(*first == figures, || {
                "figure outputs changed between refreshes".to_string()
            }),
            None => self.first_figures = Some(figures),
        }
        Pass {
            wall_s,
            units,
            query_s: Some(query_s),
            verdict: v,
            counts: pipeline_counts(&self.pipeline, 0, false),
        }
    }

    fn replay_shape(&self) -> Shape {
        self.set.shape
    }
}

// ---------------------------------------------------------------------
// hmmer-job
// ---------------------------------------------------------------------

struct HmmerJob {
    app: Hmmer,
    spec: RunSpec,
    /// Stored-row checksum of the first pass; later passes must match.
    first_rows: Option<SetSum>,
}

/// The `hmmer-job` application at a given scale: two ranks, as many as
/// the sandbox has cores, and about 122 000 messages at full size.
pub fn hmmer_app(scale: usize) -> Hmmer {
    Hmmer {
        ranks: 2,
        families: (2_000 / scale as u64).max(4),
        sequences: (60_000 / scale as u64).max(120),
        ..Hmmer::tiny()
    }
}

/// What `iowatch` does to a job: store, trace-everything telemetry
/// with the diagnosis hub, and live detection.
pub fn hmmer_spec(seed: u64) -> RunSpec {
    RunSpec::calm(FsChoice::Lustre, Instrumentation::connector_default())
        .with_store(true)
        .with_seed(seed)
        .with_jitter(0.05)
        .with_telemetry(TelemetryConfig::trace_all().with_hub(HubConfig::default()))
        .with_detection(DetectionConfig::default())
}

impl HmmerJob {
    fn new(seed: u64, scale: usize) -> Self {
        Self {
            app: hmmer_app(scale),
            spec: hmmer_spec(seed),
            first_rows: None,
        }
    }
}

impl Workload for HmmerJob {
    fn pass(&mut self, tracer: Option<&Arc<Tracer>>) -> Pass {
        let t0 = Instant::now();
        // The driver owns its pipeline, so nothing inside can be
        // interposed: one span covers the whole job.
        let r = traced(tracer, "run_job", 0, || run_job(&self.app, &self.spec));
        let wall_s = t0.elapsed().as_secs_f64();

        let p = r
            .pipeline
            .as_ref()
            .expect("connector runs carry a pipeline");
        let mut v = Verdict::attempted(r.messages);
        let stored = p.stored_events() as u64;
        v.fail(r.messages.saturating_sub(stored), || {
            format!("stored {stored} of {} messages", r.messages)
        });
        v.require(stored <= r.messages, || {
            format!("stored {stored} > {} messages", r.messages)
        });
        v.require(r.messages_lost == 0, || {
            format!("{} messages lost", r.messages_lost)
        });
        v.require(p.ledger().balances(), || {
            "ledger does not balance".to_string()
        });
        v.require(p.store().rejected() == 0, || {
            format!("store rejected {} rows", p.store().rejected())
        });
        let (live, settled) = (&r.live_detections, &r.detections);
        let same_set =
            live.len() == settled.len() && live.iter().all(|l| settled.contains(&l.event));
        v.require(same_set, || {
            format!(
                "{} live detections differ from {} settled",
                live.len(),
                settled.len()
            )
        });
        let rows = SetSum::of_rows(&p.events_of_job(self.spec.job_id));
        match self.first_rows {
            Some(first) => v.require(first == rows, || {
                "stored rows changed between passes".to_string()
            }),
            None => self.first_rows = Some(rows),
        }

        let mut counts = pipeline_counts(p, r.wire_messages, false);
        counts.extend([
            ("telemetry.spans", r.latency.spans as f64),
            ("telemetry.spans_dropped", r.latency.spans_dropped as f64),
            ("detect.detections", r.detections.len() as f64),
            ("virt_latency_p95", r.latency.p95_end_to_end_s() * 1e3),
        ]);
        Pass {
            wall_s,
            units: r.messages,
            query_s: None,
            verdict: v,
            counts,
        }
    }

    fn replay_shape(&self) -> Shape {
        Shape::pair(self.app.approx_events() as usize)
    }

    fn interposed(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_lossy_pipeline_fails_the_checks() {
        let ingest = Ingest::new(IngestKind::Stream, Shape::single_stream(2_000), 1);
        let opts = PipelineOpts {
            faults: FaultScript::new().link_drop_every("l1", 4),
            ..PipelineOpts::default()
        };
        let p = Pipeline::build_with(&ingest.set.nodes, &opts);
        let conns = connectors(&p, &ingest.set, &ConnectorConfig::default());
        drive(&ingest.set, &conns, None);
        p.settle(horizon(&ingest.set));
        let v = ingest.verify(&p, &conns, &CountingSink::default());
        assert!(!v.correct());
        assert!(v.failed > 0, "dropped messages count as failed events");
        assert_eq!(v.failed, p.ledger().total_lost());
        assert_eq!(v.attempted, 2_000);
    }

    #[test]
    fn a_wrong_query_result_fails_the_checks() {
        let mut d = Dashboard::new(Shape::campaign(2_000), 1);
        let first = d.pass(None);
        assert!(first.verdict.correct(), "{:?}", first.verdict.problems);
        assert_eq!(first.verdict.attempted, 5 + 16 + WINDOWS as u64);
        d.queries[0].1.count += 1;
        let v = d.pass(None).verdict;
        assert_eq!(v.failed, 1);
        assert!(!v.correct());
    }

    #[test]
    fn request_ids_keep_job_rank_and_sequence_apart() {
        assert_ne!(request_id(7001, 3, 9), request_id(7002, 3, 9));
        assert_ne!(request_id(7001, 3, 9), request_id(7001, 4, 9));
        assert_ne!(request_id(7001, 3, 9), request_id(7001, 3, 10));
    }
}
