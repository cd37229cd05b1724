//! The per-event hook the Darshan-LDMS Connector attaches to.
//!
//! "The Darshan-LDMS Connector is implemented such that when Darshan
//! detects an I/O event, the Darshan-LDMS Connector will collect and
//! format that current set of I/O metrics into a json message"
//! (Section VI.A). [`EventSink::on_event`] is that detection point: the
//! runtime calls it synchronously from the wrapped I/O path, handing the
//! sink the rank's virtual clock so the sink can charge its formatting
//! cost to the application — which is precisely the overhead mechanism
//! Table II measures.

use crate::types::{ModuleId, OpKind};
use iosim_time::{Clock, TimePair};

/// HDF5-specific event payload (Table I's `seg:` HDF5 fields). `None`
/// for non-HDF5 modules, which publish the `-1`/`"N/A"` sentinels.
#[derive(Debug, Clone, PartialEq)]
pub struct Hdf5Info {
    /// Dataset name (`seg:data_set`).
    pub data_set: String,
    /// Number of dimensions in the dataset's dataspace (`seg:ndims`).
    pub ndims: i64,
    /// Number of points in the dataset's dataspace (`seg:npoints`).
    pub npoints: i64,
    /// Number of regular hyperslabs (`seg:reg_hslab`).
    pub reg_hslab: i64,
    /// Number of irregular hyperslabs (`seg:irreg_hslab`).
    pub irreg_hslab: i64,
    /// Number of different access selections (`seg:pt_sel`).
    pub pt_sel: i64,
}

/// One I/O event as Darshan detects it — the complete metric set the
/// connector needs to build its Table I JSON message.
#[derive(Debug, Clone, PartialEq)]
pub struct IoEvent {
    /// Which module observed the event.
    pub module: ModuleId,
    /// Operation class.
    pub op: OpKind,
    /// Absolute path of the file being accessed.
    pub file: String,
    /// Darshan record id of the file.
    pub record_id: u64,
    /// Rank performing the operation.
    pub rank: u32,
    /// Bytes transferred (`seg:len`); `-1` for open/close/flush.
    pub len: i64,
    /// File offset (`seg:off`); `-1` for open/close/flush.
    pub offset: i64,
    /// Operation start (relative + absolute).
    pub start: TimePair,
    /// Operation end (relative + absolute) — `seg:timestamp` publishes
    /// the absolute end time.
    pub end: TimePair,
    /// Operation duration in seconds (`seg:dur`).
    pub dur: f64,
    /// Operations performed on this record since (and including) the
    /// last open; resets after close (Table I `cnt`).
    pub cnt: u64,
    /// Read/write alternation count so far (Table I `switches`).
    pub switches: i64,
    /// Flush count so far; `-1` for modules without flush semantics.
    pub flushes: i64,
    /// Highest offset byte accessed per operation (Table I `max_byte`);
    /// `-1` when not applicable.
    pub max_byte: i64,
    /// HDF5 payload when the module is H5F/H5D.
    pub hdf5: Option<Hdf5Info>,
}

/// A consumer of Darshan I/O events (the connector, or a test probe).
pub trait EventSink: Send + Sync {
    /// Called synchronously on every detected I/O event. `clock` is the
    /// calling rank's virtual clock: time the sink spends (e.g. JSON
    /// formatting) is charged by advancing it.
    fn on_event(&self, event: &IoEvent, clock: &mut Clock);
}

/// A sink that records every event, for tests.
#[derive(Debug, Default)]
pub struct CollectingSink {
    events: parking_lot::Mutex<Vec<IoEvent>>,
}

impl CollectingSink {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drains and returns all collected events.
    pub fn take(&self) -> Vec<IoEvent> {
        std::mem::take(&mut self.events.lock())
    }
}

impl EventSink for CollectingSink {
    fn on_event(&self, event: &IoEvent, _clock: &mut Clock) {
        self.events.lock().push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosim_time::Epoch;

    #[test]
    fn collecting_sink_records_events() {
        let sink = CollectingSink::new();
        let mut clock = Clock::new(Epoch::from_secs(0));
        let tp = clock.time_pair();
        let ev = IoEvent {
            module: ModuleId::Posix,
            op: OpKind::Write,
            file: "/f".into(),
            record_id: 1,
            rank: 0,
            len: 10,
            offset: 0,
            start: tp,
            end: tp,
            dur: 0.0,
            cnt: 1,
            switches: 0,
            flushes: -1,
            max_byte: 9,
            hdf5: None,
        };
        sink.on_event(&ev, &mut clock);
        sink.on_event(&ev, &mut clock);
        let drained = sink.take();
        assert_eq!(drained.len(), 2);
        assert!(sink.take().is_empty());
        assert_eq!(drained[0].op, OpKind::Write);
    }
}
