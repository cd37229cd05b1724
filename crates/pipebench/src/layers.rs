//! Layer replays: what interposition cannot split.
//!
//! A traced pass shows `on_event ⊃ store.deliver ⊃ {convert | ingest}`;
//! it cannot say how `on_event` divides into format, connector and hop,
//! or `convert` into parse and DOM→`Value`, and it never sees the
//! codec, the WAL, the detector or the lints on workloads that leave
//! them off. Here the same generator inputs are replayed through each
//! layer's public functions, one layer at a time, on a warm heap. A
//! [`Replay`] is built once; [`Replay::round`] measures every layer
//! once and is repeated for as long as the run is given.

use crate::alloc::counted;
use crate::gen::{generate, EventSet, Shape};
use crate::workloads::{
    connectors, drive, hmmer_app, hmmer_spec, horizon, merged_outboxes, CountingSink, FRAME_RECORDS,
};
use darshan_ldms_connector::connector::FormatMode;
use darshan_ldms_connector::message::build_message;
use darshan_ldms_connector::{
    ConnectorConfig, DeliveryMode, IngestObserver, Pipeline, PipelineOpts, COLUMNS, CONTAINER,
    DEFAULT_STREAM_TAG,
};
use dsos_sim::Value;
use hpcws_sim::figures::{
    anomalous_jobs, job_mean_durations, op_occurrence, per_rank_durations, timeline,
};
use hpcws_sim::online::{OnlineDetector, OnlineEvent};
use hpcws_sim::{DataFrame, DetectionConfig};
use iolint::{check_pipeline_trace, LintConfig, TraceLintOpts};
use iosim_apps::detect::{event_cmp, row_to_event, LiveDetectorTap};
use iosim_apps::{run_job, FsChoice, Instrumentation, RunSpec};
use iosim_time::Epoch;
use iosim_util::{json, JsonWriter};
use ldms_sim::batch::{decode_frame, encode_frame};
use ldms_sim::{FrameRecord, StreamMessage, StreamSink, WalConfig, WriteAheadLog};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Events replayed per round; smaller workloads replay all of theirs.
const REPLAY_EVENTS: usize = 40_000;

/// The `hmmer-job` probe of a round runs at an eighth of the workload's
/// size, so three runs of it fit into every round.
const PROBE_DIVISOR: usize = 8;

/// One round's numbers, by per-layer metric name.
pub type Numbers = Vec<(&'static str, f64)>;

/// The replay inputs for one workload shape.
pub struct Replay {
    set: EventSet,
    /// The set's events as the connector publishes them, in order.
    msgs: Vec<StreamMessage>,
    /// The same payloads grouped into frames per stream.
    frames: Vec<Vec<FrameRecord>>,
    seed: u64,
    probe_scale: usize,
}

/// Records when the store hands rows to the cluster.
struct MarkObserver {
    origin: Instant,
    at_ns: AtomicU64,
    rows: AtomicU64,
}

impl IngestObserver for MarkObserver {
    fn on_rows(&self, rows: &[Vec<Value>], _recv_time: Epoch) {
        self.at_ns
            .store(self.origin.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.rows.fetch_add(rows.len() as u64, Ordering::Relaxed);
    }
}

fn unsubscribed(set: &EventSet) -> Pipeline {
    Pipeline::build_with(
        &set.nodes,
        &PipelineOpts {
            attach_store: false,
            ..PipelineOpts::default()
        },
    )
}

/// `on_event` into a rank-local outbox: no hop is touched.
fn deferred() -> ConnectorConfig {
    ConnectorConfig {
        delivery: DeliveryMode::Deferred,
        ..ConnectorConfig::default()
    }
}

fn ns_per(t0: Instant, n: usize) -> f64 {
    t0.elapsed().as_nanos() as f64 / n.max(1) as f64
}

impl Replay {
    /// Generates the replay inputs: the workload's shape at replay
    /// size, from the run's seed.
    pub fn new(shape: Shape, seed: u64, scale: usize) -> Self {
        let set = generate(
            Shape {
                events: shape.events.min(REPLAY_EVENTS / scale.max(1)),
                ..shape
            },
            seed,
        );
        let p = unsubscribed(&set);
        let conns = connectors(&p, &set, &deferred());
        drive(&set, &conns, None);
        let staged = merged_outboxes(&conns);
        let mut per_stream = vec![Vec::new(); conns.len()];
        for (stream, m) in &staged {
            per_stream[*stream].push(FrameRecord {
                seq: m.seq,
                payload: m.data.to_string(),
            });
        }
        let frames = per_stream
            .iter()
            .flat_map(|records| records.chunks(FRAME_RECORDS).map(<[FrameRecord]>::to_vec))
            .collect();
        Self {
            set,
            msgs: staged.into_iter().map(|(_, m)| m).collect(),
            frames,
            seed,
            probe_scale: scale * PROBE_DIVISOR,
        }
    }

    /// Events replayed per round.
    pub fn events(&self) -> usize {
        self.set.events.len()
    }

    /// Measures every layer once. With `count`, allocator counts are
    /// taken as well (and the timings of that round are to be
    /// discarded: counting slows the allocator).
    pub fn round(&self, count: bool) -> Numbers {
        let mut out = Numbers::new();
        self.format_and_connector(count, &mut out);
        self.codec(&mut out);
        self.hops(&mut out);
        self.wal(&mut out);
        self.parse(count, &mut out);
        self.store_and_beyond(count, &mut out);
        self.hmmer_probe(&mut out);
        out
    }

    fn format_and_connector(&self, count: bool, out: &mut Numbers) {
        let n = self.set.events.len();
        let format = || {
            let mut w = JsonWriter::with_capacity(1024);
            let mut bytes = 0usize;
            for g in &self.set.events {
                build_message(
                    &mut w,
                    &g.event,
                    self.set.job_of(g.stream),
                    self.set.producer_of(g.stream),
                );
                let payload = w.as_str().to_string();
                bytes += payload.len();
                black_box(payload);
            }
            bytes
        };
        let t0 = Instant::now();
        let bytes = format();
        let format_ns = ns_per(t0, n);
        out.push(("format.ns_per_event", format_ns));
        out.push(("format.bytes_per_event", bytes as f64 / n as f64));
        if count {
            let (_, c) = counted(format);
            out.push(("format.allocs_per_event", c.allocs as f64 / n as f64));
        }

        // `on_event` into a rank-local outbox touches no hop: what it
        // costs beyond formatting is the connector's own bookkeeping.
        let p = unsubscribed(&self.set);
        let conns = connectors(&p, &self.set, &deferred());
        let t0 = Instant::now();
        drive(&self.set, &conns, None);
        let deferred_ns = ns_per(t0, n);
        out.push(("connector.ns_per_event", (deferred_ns - format_ns).max(0.0)));
    }

    fn codec(&self, out: &mut Numbers) {
        let records: usize = self.frames.iter().map(Vec::len).sum();
        let t0 = Instant::now();
        let encoded: Vec<String> = self.frames.iter().map(|f| encode_frame(f)).collect();
        out.push(("codec.encode_ns_per_record", ns_per(t0, records)));
        let t0 = Instant::now();
        for e in &encoded {
            black_box(decode_frame(e).expect("own frames decode"));
        }
        out.push(("codec.decode_ns_per_record", ns_per(t0, records)));
    }

    fn hops(&self, out: &mut Numbers) {
        // Pre-built messages into a null sink: ledger, per-publish pump
        // over every daemon, two hops, terminal dispatch.
        let p = unsubscribed(&self.set);
        let sink = Arc::new(CountingSink::default());
        p.network().l2().subscribe(DEFAULT_STREAM_TAG, sink.clone());
        let t0 = Instant::now();
        for m in &self.msgs {
            p.network().publish(m.clone());
        }
        p.settle(horizon(&self.set));
        out.push(("hop.ns_per_wire_msg", ns_per(t0, self.msgs.len())));
        assert_eq!(
            sink.msgs(),
            self.msgs.len() as u64,
            "hop replay lost messages"
        );

        // The paper's ablation: the whole publish path, formatting off.
        let p = unsubscribed(&self.set);
        p.network()
            .l2()
            .subscribe(DEFAULT_STREAM_TAG, Arc::new(CountingSink::default()));
        let conns = connectors(
            &p,
            &self.set,
            &ConnectorConfig {
                format_mode: FormatMode::NoFormat,
                ..ConnectorConfig::default()
            },
        );
        let t0 = Instant::now();
        drive(&self.set, &conns, None);
        p.settle(horizon(&self.set));
        out.push((
            "hop.ns_per_wire_msg_noformat",
            ns_per(t0, self.set.events.len()),
        ));
    }

    fn wal(&self, out: &mut Numbers) {
        let wal = WriteAheadLog::new(WalConfig::durable());
        let t0 = Instant::now();
        for m in &self.msgs {
            if let Some(lsn) = wal.append(m, 0) {
                wal.complete(lsn);
            }
        }
        out.push(("wal.ns_per_append", ns_per(t0, self.msgs.len())));
        assert_eq!(
            wal.stats().appended,
            self.msgs.len() as u64,
            "WAL replay overflowed"
        );
    }

    fn parse(&self, count: bool, out: &mut Numbers) {
        let parse = || {
            for m in &self.msgs {
                black_box(json::parse(&m.data).expect("connector payloads parse"));
            }
        };
        let t0 = Instant::now();
        parse();
        out.push(("parse.ns_per_msg", ns_per(t0, self.msgs.len())));
        if count {
            let (_, c) = counted(parse);
            out.push((
                "parse.allocs_per_msg",
                c.allocs as f64 / self.msgs.len() as f64,
            ));
        }
    }

    /// The store plugin, the cluster behind it, and everything that
    /// reads what they hold: queries, frame, figures, detector, lint.
    fn store_and_beyond(&self, count: bool, out: &mut Numbers) {
        let n = self.msgs.len();
        let p = unsubscribed(&self.set);
        let origin = Instant::now();
        let mark = Arc::new(MarkObserver {
            origin,
            at_ns: AtomicU64::new(0),
            rows: AtomicU64::new(0),
        });
        p.store().attach_observer(mark.clone());
        let store = p.store().clone();
        let (mut deliver_ns, mut before_ns, mut ingest_ns) = (0u64, 0u64, 0u64);
        let mut deliver_all = || {
            for m in &self.msgs {
                let t0 = origin.elapsed().as_nanos() as u64;
                store.deliver(m);
                let t2 = origin.elapsed().as_nanos() as u64;
                let t1 = mark.at_ns.load(Ordering::Relaxed).clamp(t0, t2);
                deliver_ns += t2 - t0;
                before_ns += t1 - t0;
                ingest_ns += t2 - t1;
            }
        };
        if count {
            let (_, c) = counted(&mut deliver_all);
            let rows = mark.rows.load(Ordering::Relaxed).max(1);
            out.push(("dsos.live_bytes_per_row", c.live_bytes as f64 / rows as f64));
        } else {
            deliver_all();
        }
        let rows = mark.rows.load(Ordering::Relaxed).max(1) as usize;
        assert_eq!(store.ingested() as usize, n, "store replay rejected rows");
        let parse_ns = out
            .iter()
            .find(|(k, _)| *k == "parse.ns_per_msg")
            .map_or(0.0, |&(_, v)| v);
        out.push(("store.deliver_ns_per_msg", deliver_ns as f64 / n as f64));
        out.push((
            "store.convert_ns_per_msg",
            (before_ns as f64 / n as f64 - parse_ns).max(0.0),
        ));
        out.push(("dsos.ingest_ns_per_row", ingest_ns as f64 / rows as f64));
        let cluster = p.cluster();
        let per_daemon: Vec<f64> = (0..cluster.daemon_count())
            .map(|i| cluster.daemon(i).object_count() as f64)
            .collect();
        let mean = per_daemon.iter().sum::<f64>() / per_daemon.len() as f64;
        out.push((
            "dsos.shard_skew",
            per_daemon.iter().copied().fold(0.0, f64::max) / mean.max(1.0),
        ));

        // Queries, in the dashboard's mix.
        let jobs: Vec<u64> = self.set.jobs.iter().map(|j| j.job_id).collect();
        let t0 = Instant::now();
        let job_rows: Vec<Vec<Vec<Value>>> = jobs
            .iter()
            .map(|&j| cluster.query_prefix(CONTAINER, "job_rank_time", &[Value::U64(j)]))
            .collect();
        let returned: usize = job_rows.iter().map(Vec::len).sum();
        out.push(("dsos.query_job_ns_per_row", ns_per(t0, returned)));
        let t0 = Instant::now();
        let mut returned = 0;
        for rank in 0..u64::from(self.set.shape.ranks) {
            let key = [Value::U64(jobs[0]), Value::U64(rank)];
            returned += black_box(cluster.query_prefix(CONTAINER, "job_rank_time", &key)).len();
        }
        out.push(("dsos.query_rank_ns_per_row", ns_per(t0, returned)));
        let (first, last) = self.set.span();
        let (first, last) = (first.as_secs_f64(), last.as_secs_f64());
        let t0 = Instant::now();
        let mut returned = 0;
        for w in 0..10 {
            let job = jobs[w % jobs.len()];
            let from = first + (last - first) * w as f64 / 10.0;
            let to = from + (last - first) / 10.0;
            returned += black_box(cluster.query_range(
                CONTAINER,
                "job_time_rank",
                &[Value::U64(job), Value::F64(from)],
                &[Value::U64(job), Value::F64(to)],
            ))
            .len();
        }
        out.push(("dsos.query_range_ns_per_row", ns_per(t0, returned)));

        // Detector: the live tap's per-row decode and offer, the
        // engine's per-event observe, and the settle replay. The tap
        // sees rows in arrival order, which is time order.
        let by_time: Vec<Vec<Value>> = jobs
            .iter()
            .flat_map(|&j| cluster.query_prefix(CONTAINER, "job_time_rank", &[Value::U64(j)]))
            .collect();
        let cfg = DetectionConfig::default();
        let tap = LiveDetectorTap::new(cfg.clone(), u64::from(self.set.shape.ranks), None);
        let recv = horizon(&self.set);
        let t0 = Instant::now();
        for row in &by_time {
            if let Some(e) = row_to_event(row) {
                tap.offer(e, recv);
            }
        }
        out.push(("detect.tap_ns_per_row", ns_per(t0, by_time.len())));
        let t0 = Instant::now();
        let detections = tap.finalize(recv).detections.len();
        out.push(("detect.finalize_ms", t0.elapsed().as_secs_f64() * 1e3));
        out.push(("detect.detections", detections as f64));
        let mut events: Vec<OnlineEvent> = by_time.iter().filter_map(|r| row_to_event(r)).collect();
        drop(by_time);
        events.sort_by(event_cmp);
        let mut engine = OnlineDetector::new(cfg);
        let t0 = Instant::now();
        for e in &events {
            engine.observe(e);
        }
        out.push(("detect.observe_ns_per_event", ns_per(t0, events.len())));

        // Analysis: rows → frame → the five figure analyses.
        let t0 = Instant::now();
        let columns: Vec<String> = COLUMNS.iter().map(|&(n, _)| n.to_string()).collect();
        let df = DataFrame::new(columns, job_rows.into_iter().flatten().collect());
        out.push(("analysis.frame_ns_per_row", ns_per(t0, df.len())));
        let t0 = Instant::now();
        black_box((
            op_occurrence(&df),
            per_rank_durations(&df),
            job_mean_durations(&df, "read"),
            anomalous_jobs(&df, "read", 3.0),
            timeline(&df, 60),
        ));
        out.push(("analysis.figures_ms", t0.elapsed().as_secs_f64() * 1e3));

        let t0 = Instant::now();
        black_box(check_pipeline_trace(
            &p,
            &TraceLintOpts::default(),
            &LintConfig::new(),
        ));
        out.push(("lint.trace_ms", t0.elapsed().as_secs_f64() * 1e3));
    }

    /// A small `hmmer-job`: Darshan-only for the application's own
    /// cost, then the full spec with telemetry off and on.
    fn hmmer_probe(&self, out: &mut Numbers) {
        let app = hmmer_app(self.probe_scale);
        let full = hmmer_spec(self.seed);
        let bare = RunSpec {
            telemetry: None,
            ..full.clone()
        };
        let t0 = Instant::now();
        black_box(run_job(
            &app,
            &RunSpec::calm(FsChoice::Lustre, Instrumentation::DarshanOnly)
                .with_seed(self.seed)
                .with_jitter(full.jitter),
        ));
        let sim_ns = t0.elapsed().as_nanos() as f64;
        let t0 = Instant::now();
        let off = run_job(&app, &bare);
        let off_ns = t0.elapsed().as_nanos() as f64;
        let t0 = Instant::now();
        let on = run_job(&app, &full);
        let on_ns = t0.elapsed().as_nanos() as f64;
        assert_eq!(
            on.messages, off.messages,
            "telemetry changed the message count"
        );
        out.push((
            "app.sim_ns_per_event",
            sim_ns / on.events_seen.max(1) as f64,
        ));
        out.push((
            "telemetry.ns_per_event",
            (on_ns - off_ns) / on.messages.max(1) as f64,
        ));
        out.push(("telemetry.spans", on.latency.spans as f64));
        out.push(("telemetry.spans_dropped", on.latency.spans_dropped as f64));
        out.push(("virt_latency_p95", on.latency.p95_end_to_end_s() * 1e3));
    }
}
