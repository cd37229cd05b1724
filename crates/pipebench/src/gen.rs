//! The seeded load generator.
//!
//! Everything the program under test receives comes from here: a
//! virtual-time-ordered list of [`IoEvent`]s in one of three shapes.
//! The same `(shape, seed)` always yields the same list, byte for
//! byte. The reference rows the correctness checks compare stored data
//! against are computed here too, straight from each event and never
//! through the connector's JSON, so a formatting or parsing defect in
//! the program cannot hide in its own reference.

use darshan_sim::types::record_id_of;
use darshan_sim::{IoEvent, JobMeta, ModuleId, OpKind};
use dsos_sim::Value;
use iosim_time::{Epoch, TimePair};
#[cfg(test)]
use iosim_util::hash::{fnv1a64_continue, FNV_OFFSET};
use std::sync::Arc;

/// Events between one `open` and its `close`, both included: HMMER's
/// master re-opens its seed file rarely against millions of tiny reads.
const BLOCK: usize = 64;

/// Job start of the first job, as in the repo's own experiments.
const EPOCH_S: u64 = 1_650_000_000;

/// How many jobs, ranks and nodes an event list spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Jobs, run one after another in virtual time.
    pub jobs: u32,
    /// Ranks per job.
    pub ranks: u32,
    /// Compute nodes the ranks of a job are spread over.
    pub nodes: u32,
    /// Events in total, split evenly over every `(job, rank)` stream.
    pub events: usize,
    /// A job whose later reads run 40 times slower (the Figure 7–9
    /// "job 2" signature), so the anomaly analyses find something.
    pub slow_job: Option<u32>,
}

impl Shape {
    /// One HMMER-like job: 16 ranks on 4 nodes.
    pub fn single_stream(events: usize) -> Self {
        Self {
            jobs: 1,
            ranks: 16,
            nodes: 4,
            events,
            slow_job: None,
        }
    }

    /// One wide job: 128 ranks on 32 nodes, where the per-publish pump
    /// over every daemon is at its dearest.
    pub fn wide(events: usize) -> Self {
        Self {
            jobs: 1,
            ranks: 128,
            nodes: 32,
            events,
            slow_job: None,
        }
    }

    /// The figure campaign: 5 jobs of 16 ranks, the second one slow.
    pub fn campaign(events: usize) -> Self {
        Self {
            jobs: 5,
            ranks: 16,
            nodes: 4,
            events,
            slow_job: Some(1),
        }
    }

    /// Two ranks on one node, the rank layout of `hmmer-job`.
    pub fn pair(events: usize) -> Self {
        Self {
            jobs: 1,
            ranks: 2,
            nodes: 1,
            events,
            slow_job: None,
        }
    }

    /// Independent `(job, rank)` event streams.
    pub fn streams(&self) -> usize {
        (self.jobs * self.ranks) as usize
    }
}

/// One generated event and the `(job, rank)` stream it belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct GenEvent {
    /// `job * ranks + rank`.
    pub stream: u32,
    pub event: IoEvent,
}

/// A generated workload input: the events in virtual-time order plus
/// the job and node identities they refer to.
#[derive(Debug, Clone)]
pub struct EventSet {
    pub shape: Shape,
    pub jobs: Vec<Arc<JobMeta>>,
    pub nodes: Vec<String>,
    pub events: Vec<GenEvent>,
}

/// splitmix64, kept here so the inputs depend on nothing in the
/// program under test.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..lo + span`.
    fn within(&mut self, lo: u64, span: u64) -> u64 {
        lo + self.next() % span
    }
}

/// Generates the event list for `shape` from `seed`.
pub fn generate(shape: Shape, seed: u64) -> EventSet {
    let per_stream = shape.events / shape.streams();
    let extra = shape.events % shape.streams();
    // Jobs run back to back: a stream advances at most 1.6 ms per
    // event, so this spacing keeps consecutive jobs apart.
    let job_spacing_ns = per_stream as u64 * 2_000_000 + 30_000_000_000;
    let mut events = Vec::with_capacity(shape.events);
    for job in 0..shape.jobs {
        let job_start = EPOCH_S * 1_000_000_000 + u64::from(job) * job_spacing_ns;
        for rank in 0..shape.ranks {
            let stream = job * shape.ranks + rank;
            let n = per_stream + usize::from((stream as usize) < extra);
            let slow = shape.slow_job == Some(job);
            gen_stream(seed, job, rank, stream, n, job_start, slow, &mut events);
        }
    }
    events.sort_by_key(|g| (g.event.end.abs, g.stream));
    EventSet {
        shape,
        jobs: (0..shape.jobs)
            .map(|j| {
                JobMeta::new(
                    7_001 + u64::from(j),
                    99_066,
                    "/apps/hmmer/hmmbuild",
                    shape.ranks,
                )
            })
            .collect(),
        nodes: (0..shape.nodes)
            .map(|i| format!("nid{:05}", 40 + i))
            .collect(),
        events,
    }
}

#[allow(clippy::too_many_arguments)]
fn gen_stream(
    seed: u64,
    job: u32,
    rank: u32,
    stream: u32,
    n: usize,
    job_start_ns: u64,
    slow: bool,
    out: &mut Vec<GenEvent>,
) {
    let mut rng = SplitMix(seed ^ (u64::from(job) << 40) ^ (u64::from(rank) << 20) ^ 0xD1B5_4A32);
    let file = format!("/home/user/pfam/job{job}/r{rank:03}.seed");
    let record_id = record_id_of(&file);
    let mut t = job_start_ns + rng.within(0, 1_000_000);
    let (mut read_off, mut write_off) = (0i64, 0i64);
    let (mut cnt, mut switches) = (0u64, 0i64);
    let mut last_rw: Option<OpKind> = None;
    for i in 0..n {
        let op = match i % BLOCK {
            0 => OpKind::Open,
            p if p == BLOCK - 1 || i == n - 1 => OpKind::Close,
            _ if rng.next() % 31 == 0 => OpKind::Write,
            _ => OpKind::Read,
        };
        cnt += 1;
        let (len, offset, mut dur_ns) = match op {
            OpKind::Read => {
                let len = rng.within(60, 60) as i64;
                read_off += len;
                (len, read_off - len, rng.within(1_000, 4_000))
            }
            OpKind::Write => {
                let len = rng.within(4_000, 6_000) as i64;
                write_off += len;
                (len, write_off - len, rng.within(20_000, 40_000))
            }
            OpKind::Open => (-1, -1, rng.within(50_000, 100_000)),
            _ => (-1, -1, rng.within(5_000, 10_000)),
        };
        if matches!(op, OpKind::Read | OpKind::Write) {
            if last_rw.is_some_and(|prev| prev != op) {
                switches += 1;
            }
            last_rw = Some(op);
        }
        if slow && op == OpKind::Read && i > n / 2 {
            dur_ns *= 40;
        }
        let pair = |ns: u64| TimePair {
            rel: (ns - job_start_ns) as f64 / 1e9,
            abs: Epoch::from_nanos(ns),
        };
        let (start, end) = (pair(t), pair(t + dur_ns));
        out.push(GenEvent {
            stream,
            event: IoEvent {
                module: ModuleId::Stdio,
                op,
                file: file.clone(),
                record_id,
                rank,
                len,
                offset,
                start,
                end,
                dur: dur_ns as f64 / 1e9,
                cnt,
                switches,
                flushes: -1,
                max_byte: if len >= 0 { offset + len - 1 } else { -1 },
                hdf5: None,
            },
        });
        if op == OpKind::Close {
            cnt = 0;
        }
        t += dur_ns + rng.within(500_000, 1_000_000);
    }
}

impl EventSet {
    /// The job a stream's events belong to.
    pub fn job_of(&self, stream: u32) -> &Arc<JobMeta> {
        &self.jobs[(stream / self.shape.ranks) as usize]
    }

    /// The compute node a stream publishes from.
    pub fn producer_of(&self, stream: u32) -> &str {
        let rank = stream % self.shape.ranks;
        &self.nodes[(rank / self.shape.ranks.div_ceil(self.shape.nodes)) as usize]
    }

    /// First event end and last event end, the virtual span of the
    /// load.
    pub fn span(&self) -> (Epoch, Epoch) {
        let first = self
            .events
            .first()
            .map_or(Epoch::from_secs(EPOCH_S), |g| g.event.end.abs);
        let last = self.events.last().map_or(first, |g| g.event.end.abs);
        (first, last)
    }

    /// Events per virtual second over the whole list.
    pub fn offered_rate(&self) -> f64 {
        let (first, last) = self.span();
        self.events.len() as f64 / last.since(first).as_secs_f64().max(1e-9)
    }

    /// FNV-1a over a canonical encoding of every event, in order.
    #[cfg(test)]
    pub fn stream_hash(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for g in &self.events {
            let e = &g.event;
            for word in [
                u64::from(g.stream),
                u64::from(e.module.code()),
                u64::from(e.op.code()),
                e.record_id,
                e.len as u64,
                e.offset as u64,
                e.start.abs.as_nanos(),
                e.end.abs.as_nanos(),
                e.dur.to_bits(),
                e.cnt,
                e.switches as u64,
                e.max_byte as u64,
            ] {
                h = fnv1a64_continue(h, &word.to_le_bytes());
            }
            h = fnv1a64_continue(h, e.file.as_bytes());
        }
        h
    }

    /// The `darshan_data` row (Table I columns, Figure 3 order) the
    /// store must hold for one event. The writer prints floats with
    /// the shortest digits that round-trip, so the stored `seg_dur`
    /// and `seg_timestamp` equal the event's own values exactly.
    pub fn reference_row(&self, g: &GenEvent) -> Vec<Value> {
        let e = &g.event;
        let job = self.job_of(g.stream);
        let open = e.op == OpKind::Open;
        let text = |s: &str| Value::Str(s.to_string());
        let path = |s: &str| text(if open { s } else { "N/A" });
        vec![
            text(e.module.name()),
            Value::U64(u64::from(job.uid)),
            text(self.producer_of(g.stream)),
            Value::I64(e.switches),
            path(&e.file),
            Value::U64(u64::from(e.rank)),
            Value::I64(e.flushes),
            Value::U64(e.record_id),
            path(&job.exe),
            Value::I64(e.max_byte),
            text(if open { "MET" } else { "MOD" }),
            Value::U64(job.job_id),
            text(e.op.name()),
            Value::U64(e.cnt),
            Value::I64(e.offset),
            Value::I64(-1),
            Value::F64(e.dur),
            Value::I64(e.len),
            Value::I64(-1),
            Value::I64(-1),
            Value::I64(-1),
            text("N/A"),
            Value::I64(-1),
            Value::F64(e.end.abs.as_secs_f64()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_the_same_stream_twice_and_two_seeds_differ() {
        for shape in [
            Shape::single_stream(5_000),
            Shape::wide(5_000),
            Shape::campaign(5_000),
        ] {
            let a = generate(shape, 1);
            let b = generate(shape, 1);
            let c = generate(shape, 2);
            assert_eq!(a.events.len(), shape.events);
            assert_eq!(a.events, b.events, "same seed, same events");
            assert_eq!(a.stream_hash(), b.stream_hash());
            assert_ne!(a.stream_hash(), c.stream_hash(), "seeds must differ");
        }
    }

    #[test]
    fn timestamps_rise_strictly_within_each_stream_and_jobs_do_not_overlap() {
        let set = generate(Shape::campaign(8_000), 3);
        let mut last = vec![Epoch::from_nanos(0); set.shape.streams()];
        let mut job_bounds = [(Epoch::from_nanos(u64::MAX), Epoch::from_nanos(0)); 5];
        for g in &set.events {
            let e = &g.event;
            assert!(e.start.abs > last[g.stream as usize], "stream {}", g.stream);
            assert!(e.end.abs > e.start.abs);
            last[g.stream as usize] = e.end.abs;
            let b = &mut job_bounds[(g.stream / set.shape.ranks) as usize];
            *b = (b.0.min(e.start.abs), b.1.max(e.end.abs));
        }
        for pair in job_bounds.windows(2) {
            assert!(pair[0].1 < pair[1].0, "jobs run back to back");
        }
        // The merged list is in virtual-time order.
        assert!(set
            .events
            .windows(2)
            .all(|w| w[0].event.end.abs <= w[1].event.end.abs));
    }

    #[test]
    fn streams_are_hmmer_shaped() {
        let set = generate(Shape::single_stream(16 * 640), 1);
        let opens = set.events.iter().filter(|g| g.event.op == OpKind::Open);
        let closes = set.events.iter().filter(|g| g.event.op == OpKind::Close);
        assert_eq!(opens.count(), 160, "one open per 64 events");
        assert_eq!(closes.count(), 160);
        let reads = set.events.iter().filter(|g| g.event.op == OpKind::Read);
        assert!(reads.count() > 9_000, "reads dominate");
        assert_eq!(set.producer_of(0), "nid00040");
        assert_eq!(set.producer_of(15), "nid00043");
    }

    #[test]
    fn reference_rows_follow_the_schema() {
        use darshan_ldms_connector::{darshan_schema, COLUMNS};
        let set = generate(Shape::campaign(1_000), 1);
        let schema = darshan_schema();
        for g in &set.events {
            let row = set.reference_row(g);
            assert_eq!(row.len(), COLUMNS.len());
            schema
                .validate(&row)
                .expect("reference row fits the schema");
        }
    }
}
