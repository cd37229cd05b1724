//! Per-rank runtime core (the `darshan_core` analogue).
//!
//! Each simulated rank owns a [`RankRuntime`]: the per-record counter
//! store, the DXT tracer, and the optional [`EventSink`] hook the
//! connector registers. Module wrappers (POSIX/MPIIO/STDIO/HDF5) funnel
//! every operation through [`RankRuntime::io_event`], which updates the
//! counters, traces the DXT segment, and fires the hook — the single
//! code path the paper's modification instruments with absolute
//! timestamps.

use crate::counters::RecordCounters;
use crate::dxt::{DxtSegment, DxtTracer};
use crate::hooks::{EventSink, Hdf5Info, IoEvent};
use crate::types::{ModuleId, OpKind};
use iosim_time::{Clock, TimePair};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Job-level metadata shared by all ranks (what `darshan_core` learns
/// from the environment at init).
#[derive(Debug, Clone, PartialEq)]
pub struct JobMeta {
    /// Scheduler job id (Table I `job_id`).
    pub job_id: u64,
    /// Numeric user id (Table I `uid`).
    pub uid: u32,
    /// Absolute path of the application executable (Table I `exe`).
    pub exe: String,
    /// Number of ranks in the job.
    pub nprocs: u32,
}

impl JobMeta {
    /// Convenience constructor.
    pub fn new(job_id: u64, uid: u32, exe: &str, nprocs: u32) -> Arc<Self> {
        Arc::new(Self {
            job_id,
            uid,
            exe: exe.to_string(),
            nprocs,
        })
    }
}

/// Parameters of one detected I/O event, produced by a module wrapper.
#[derive(Debug, Clone)]
pub struct EventParams {
    /// Module observing the event.
    pub module: ModuleId,
    /// Operation class.
    pub op: OpKind,
    /// File path.
    pub file: Arc<str>,
    /// Darshan record id of the file.
    pub record_id: u64,
    /// Offset, or `None` for metadata ops.
    pub offset: Option<u64>,
    /// Length, or `None` for metadata ops.
    pub len: Option<u64>,
    /// Operation start.
    pub start: TimePair,
    /// Operation end.
    pub end: TimePair,
    /// Ops on this record since open, including this one.
    pub cnt: u64,
    /// HDF5 payload, if any.
    pub hdf5: Option<Hdf5Info>,
}

struct Inner {
    records: HashMap<(ModuleId, u64), RecordCounters>,
    names: HashMap<u64, Arc<str>>,
    dxt: DxtTracer,
    sink: Option<Arc<dyn EventSink>>,
    events_fired: u64,
}

/// The per-rank Darshan runtime. Cheap to clone (shared interior).
#[derive(Clone)]
pub struct RankRuntime {
    job: Arc<JobMeta>,
    rank: u32,
    inner: Arc<Mutex<Inner>>,
}

/// Final per-rank state handed to the log writer.
#[derive(Debug)]
pub struct RankSnapshot {
    /// The rank this snapshot came from.
    pub rank: u32,
    /// Counter records keyed by (module, record id).
    pub records: Vec<((ModuleId, u64), RecordCounters)>,
    /// Record id → file path.
    pub names: HashMap<u64, Arc<str>>,
    /// All DXT segments: (module, record id, segments).
    pub dxt: Vec<(ModuleId, u64, Vec<DxtSegment>)>,
}

impl RankRuntime {
    /// Initializes the runtime for one rank.
    pub fn new(job: Arc<JobMeta>, rank: u32) -> Self {
        Self {
            job,
            rank,
            inner: Arc::new(Mutex::new(Inner {
                records: HashMap::new(),
                names: HashMap::new(),
                dxt: DxtTracer::default(),
                sink: None,
                events_fired: 0,
            })),
        }
    }

    /// Registers the event sink (the connector's attach point). Passing
    /// a sink enables run-time streaming; without one, the runtime is
    /// "Darshan only" as in the paper's baseline runs.
    pub fn set_sink(&self, sink: Option<Arc<dyn EventSink>>) {
        self.inner.lock().sink = sink;
    }

    /// Number of events fired to the sink so far.
    pub fn events_fired(&self) -> u64 {
        self.inner.lock().events_fired
    }

    /// Central event path: updates counters + DXT, then fires the sink.
    /// Returns the record's switch count after this event (what the
    /// connector publishes as `switches`).
    pub fn io_event(&self, clock: &mut Clock, p: EventParams) -> u64 {
        let mut inner = self.inner.lock();
        inner
            .names
            .entry(p.record_id)
            .or_insert_with(|| p.file.clone());
        // `RecordCounters::new` is NOT `Default::default()` — it seeds
        // the -1 sentinels — so clippy's suggestion to use
        // `or_default` would change behaviour.
        #[allow(clippy::unwrap_or_default)]
        let rec = inner
            .records
            .entry((p.module, p.record_id))
            .or_insert_with(RecordCounters::new);
        let dur = (p.end.rel - p.start.rel).max(0.0);
        match p.op {
            OpKind::Open => rec.record_open(p.end.rel, dur),
            OpKind::Close => rec.record_close(p.end.rel, dur),
            OpKind::Flush => rec.record_flush(dur),
            OpKind::Read => {
                rec.record_read(p.offset.unwrap_or(0), p.len.unwrap_or(0), dur);
            }
            OpKind::Write => {
                rec.record_write(p.offset.unwrap_or(0), p.len.unwrap_or(0), dur);
            }
        }
        let switches = rec.rw_switches;
        let flushes = match p.module {
            ModuleId::H5f | ModuleId::H5d => rec.flushes as i64,
            _ => -1,
        };
        inner.dxt.trace(
            p.module,
            p.record_id,
            DxtSegment::new(
                p.op,
                p.offset.unwrap_or(u64::MAX),
                p.len.unwrap_or(0),
                p.start,
                p.end,
            ),
        );
        // Fire the hook outside the borrow of the record but inside the
        // rank's lock (the lock is per-rank and uncontended).
        if let Some(sink) = inner.sink.clone() {
            let max_byte = match (p.offset, p.len) {
                (Some(o), Some(l)) if l > 0 => (o + l - 1) as i64,
                _ => -1,
            };
            let ev = IoEvent {
                module: p.module,
                op: p.op,
                file: p.file.to_string(),
                record_id: p.record_id,
                rank: self.rank,
                len: p.len.map_or(-1, |l| l as i64),
                offset: p.offset.map_or(-1, |o| o as i64),
                start: p.start,
                end: p.end,
                dur,
                cnt: p.cnt,
                switches: switches as i64,
                flushes,
                max_byte,
                hdf5: p.hdf5.clone(),
            };
            inner.events_fired += 1;
            drop(inner);
            sink.on_event(&ev, clock);
            return switches;
        }
        switches
    }

    /// Returns the counters for a record, if any (tests/log writer).
    pub fn counters(&self, module: ModuleId, record_id: u64) -> Option<RecordCounters> {
        self.inner.lock().records.get(&(module, record_id)).cloned()
    }

    /// Finalizes the rank: extracts all records and traces.
    pub fn finalize(&self) -> RankSnapshot {
        let mut inner = self.inner.lock();
        let records: Vec<_> = inner.records.drain().collect();
        let names = std::mem::take(&mut inner.names);
        let dxt_store = std::mem::take(&mut inner.dxt);
        let dxt = dxt_store
            .iter()
            .map(|(m, r, s)| (m, r, s.to_vec()))
            .collect();
        let mut records = records;
        records.sort_by_key(|&((m, r), _)| (m, r));
        RankSnapshot {
            rank: self.rank,
            records,
            names,
            dxt,
        }
    }
}

impl std::fmt::Debug for RankRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RankRuntime")
            .field("rank", &self.rank)
            .field("job_id", &self.job.job_id)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::CollectingSink;
    use iosim_time::{Epoch, SimDuration};

    fn params(op: OpKind, cnt: u64, start: TimePair, end: TimePair) -> EventParams {
        EventParams {
            module: ModuleId::Posix,
            op,
            file: Arc::from("/data/out.dat"),
            record_id: 42,
            offset: matches!(op, OpKind::Read | OpKind::Write).then_some(0),
            len: matches!(op, OpKind::Read | OpKind::Write).then_some(4096),
            start,
            end,
            cnt,
            hdf5: None,
        }
    }

    fn tick(clock: &mut Clock) -> (TimePair, TimePair) {
        let s = clock.time_pair();
        clock.advance(SimDuration::from_millis(1));
        (s, clock.time_pair())
    }

    #[test]
    fn events_update_counters_and_fire_sink() {
        let job = JobMeta::new(259903, 99066, "/apps/mpi-io-test", 4);
        let rt = RankRuntime::new(job, 3);
        let sink = Arc::new(CollectingSink::new());
        rt.set_sink(Some(sink.clone()));
        let mut clock = Clock::new(Epoch::from_secs(1_650_000_000));

        let (s, e) = tick(&mut clock);
        rt.io_event(&mut clock, params(OpKind::Open, 1, s, e));
        let (s, e) = tick(&mut clock);
        rt.io_event(&mut clock, params(OpKind::Write, 2, s, e));
        let (s, e) = tick(&mut clock);
        rt.io_event(&mut clock, params(OpKind::Read, 3, s, e));
        let (s, e) = tick(&mut clock);
        rt.io_event(&mut clock, params(OpKind::Close, 4, s, e));

        let c = rt.counters(ModuleId::Posix, 42).unwrap();
        assert_eq!(c.opens, 1);
        assert_eq!(c.writes, 1);
        assert_eq!(c.reads, 1);
        assert_eq!(c.closes, 1);
        assert_eq!(c.rw_switches, 1);

        let events = sink.take();
        assert_eq!(events.len(), 4);
        assert_eq!(events[1].op, OpKind::Write);
        assert_eq!(events[1].rank, 3);
        assert_eq!(events[1].max_byte, 4095);
        assert_eq!(events[0].len, -1); // open has no length
                                       // Absolute timestamps flow through.
        assert!(events[3].end.abs.as_secs_f64() > 1_650_000_000.0);
        assert_eq!(rt.events_fired(), 4);
    }

    #[test]
    fn no_sink_means_no_fires_but_counters_still_work() {
        let rt = RankRuntime::new(JobMeta::new(1, 1, "/x", 1), 0);
        let mut clock = Clock::new(Epoch::from_secs(0));
        let (s, e) = tick(&mut clock);
        rt.io_event(&mut clock, params(OpKind::Write, 1, s, e));
        assert_eq!(rt.events_fired(), 0);
        assert_eq!(rt.counters(ModuleId::Posix, 42).unwrap().writes, 1);
    }

    #[test]
    fn finalize_drains_state() {
        let rt = RankRuntime::new(JobMeta::new(1, 1, "/x", 1), 0);
        let mut clock = Clock::new(Epoch::from_secs(0));
        let (s, e) = tick(&mut clock);
        rt.io_event(&mut clock, params(OpKind::Write, 1, s, e));
        let snap = rt.finalize();
        assert_eq!(snap.records.len(), 1);
        assert_eq!(snap.names[&42].as_ref(), "/data/out.dat");
        assert_eq!(snap.dxt.len(), 1);
        assert_eq!(snap.dxt[0].2.len(), 1);
        // Drained: second finalize is empty.
        assert!(rt.finalize().records.is_empty());
    }

    #[test]
    fn switches_published_match_counters() {
        let rt = RankRuntime::new(JobMeta::new(1, 1, "/x", 1), 0);
        let sink = Arc::new(CollectingSink::new());
        rt.set_sink(Some(sink.clone()));
        let mut clock = Clock::new(Epoch::from_secs(0));
        for op in [OpKind::Write, OpKind::Read, OpKind::Write] {
            let (s, e) = tick(&mut clock);
            rt.io_event(&mut clock, params(op, 1, s, e));
        }
        let events = sink.take();
        assert_eq!(events[0].switches, 0);
        assert_eq!(events[1].switches, 1);
        assert_eq!(events[2].switches, 2);
    }
}
