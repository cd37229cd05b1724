//! Table I / Figure 3 JSON message construction.
//!
//! One message per I/O event, built field by field with the
//! `sprintf`-faithful [`JsonWriter`]. The `type` field follows Section
//! IV.C: `"MET"` (meta) for open events — these carry the absolute
//! directories of the executable and the accessed file — and `"MOD"`
//! (module) for all other events, which carry `"N/A"` instead "to
//! reduce the message size and latency when sending the data through an
//! HPC production system pipeline". Fields that a module does not trace
//! (the HDF5 dataspace fields for POSIX, say) are filled with `"N/A"`
//! or `-1` exactly as Figure 3 shows.

use darshan_sim::hooks::{Hdf5Info, IoEvent};
use darshan_sim::runtime::JobMeta;
use darshan_sim::OpKind;
use iosim_util::JsonWriter;

/// Message classification (Table I `type`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgType {
    /// Static metadata message (open events).
    Met,
    /// Module data message (everything else).
    Mod,
}

impl MsgType {
    /// The `type` string published in the JSON.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            MsgType::Met => "MET",
            MsgType::Mod => "MOD",
        }
    }

    /// Classifies an event per Section IV.C: MET for opens, MOD
    /// otherwise.
    pub(crate) fn of(event: &IoEvent) -> Self {
        if event.op == OpKind::Open {
            MsgType::Met
        } else {
            MsgType::Mod
        }
    }
}

/// Builds the connector JSON message for one event into `w` (cleared
/// first; the caller owns the workhorse buffer). Returns the message
/// type chosen.
pub fn build_message(
    w: &mut JsonWriter,
    event: &IoEvent,
    job: &JobMeta,
    producer: &str,
) -> MsgType {
    w.reset();
    let ty = MsgType::of(event);
    w.begin_object();
    w.field_uint("uid", u64::from(job.uid));
    match ty {
        MsgType::Met => {
            w.field_str("exe", &job.exe);
            w.field_str("file", &event.file);
        }
        MsgType::Mod => {
            w.field_str("exe", "N/A");
            w.field_str("file", "N/A");
        }
    }
    w.field_uint("job_id", job.job_id);
    w.field_int("rank", i64::from(event.rank));
    w.field_str("ProducerName", producer);
    w.field_uint("record_id", event.record_id);
    w.field_str("module", event.module.name());
    w.field_str("type", ty.as_str());
    w.field_int("max_byte", event.max_byte);
    w.field_int("switches", event.switches);
    w.field_int("flushes", event.flushes);
    w.field_uint("cnt", event.cnt);
    w.field_str("op", event.op.name());
    w.comma();
    w.key("seg");
    w.begin_array();
    w.comma();
    w.begin_object();
    match &event.hdf5 {
        Some(Hdf5Info {
            data_set,
            ndims,
            npoints,
            reg_hslab,
            irreg_hslab,
            pt_sel,
        }) => {
            w.field_str("data_set", data_set);
            w.field_int("pt_sel", *pt_sel);
            w.field_int("irreg_hslab", *irreg_hslab);
            w.field_int("reg_hslab", *reg_hslab);
            w.field_int("ndims", *ndims);
            w.field_int("npoints", *npoints);
        }
        None => {
            // Fields DXT does not trace for this module: Figure 3's
            // "N/A" / -1 sentinels.
            w.field_str("data_set", "N/A");
            w.field_int("pt_sel", -1);
            w.field_int("irreg_hslab", -1);
            w.field_int("reg_hslab", -1);
            w.field_int("ndims", -1);
            w.field_int("npoints", -1);
        }
    }
    w.field_int("off", event.offset);
    w.field_int("len", event.len);
    w.field_float("dur", event.dur);
    w.field_float("timestamp", event.end.abs.as_secs_f64());
    w.end_object();
    w.end_array();
    w.end_object();
    ty
}

#[cfg(test)]
mod tests {
    use super::*;
    use darshan_sim::ModuleId;
    use iosim_time::{Clock, Epoch, SimDuration};

    fn event(op: OpKind) -> IoEvent {
        let mut clock = Clock::new(Epoch::from_secs(1_650_000_000));
        let start = clock.time_pair();
        clock.advance(SimDuration::from_millis(5));
        IoEvent {
            module: ModuleId::Posix,
            op,
            file: "/scratch/mpi-io-test.tmp.dat".into(),
            record_id: 1_601_543_006,
            rank: 3,
            len: if matches!(op, OpKind::Read | OpKind::Write) {
                4096
            } else {
                -1
            },
            offset: if matches!(op, OpKind::Read | OpKind::Write) {
                0
            } else {
                -1
            },
            start,
            end: clock.time_pair(),
            dur: 0.005,
            cnt: 1,
            switches: 0,
            flushes: -1,
            max_byte: 4095,
            hdf5: None,
        }
    }

    fn job() -> JobMeta {
        JobMeta {
            job_id: 259_903,
            uid: 99_066,
            exe: "/apps/mpi-io-test".into(),
            nprocs: 4,
        }
    }

    #[test]
    fn open_is_met_with_paths() {
        let mut w = JsonWriter::new();
        let ty = build_message(&mut w, &event(OpKind::Open), &job(), "nid00046");
        assert_eq!(ty, MsgType::Met);
        let v = iosim_util::json::parse(w.as_str()).unwrap();
        assert_eq!(v.get("type").unwrap().as_str(), Some("MET"));
        assert_eq!(v.get("exe").unwrap().as_str(), Some("/apps/mpi-io-test"));
        assert_eq!(
            v.get("file").unwrap().as_str(),
            Some("/scratch/mpi-io-test.tmp.dat")
        );
        assert_eq!(v.get("op").unwrap().as_str(), Some("open"));
    }

    #[test]
    fn write_is_mod_without_paths() {
        let mut w = JsonWriter::new();
        let ty = build_message(&mut w, &event(OpKind::Write), &job(), "nid00046");
        assert_eq!(ty, MsgType::Mod);
        let v = iosim_util::json::parse(w.as_str()).unwrap();
        assert_eq!(v.get("type").unwrap().as_str(), Some("MOD"));
        assert_eq!(v.get("exe").unwrap().as_str(), Some("N/A"));
        assert_eq!(v.get("file").unwrap().as_str(), Some("N/A"));
        assert_eq!(v.get("max_byte").unwrap().as_i64(), Some(4095));
    }

    #[test]
    fn seg_carries_timing_and_sentinels() {
        let mut w = JsonWriter::new();
        build_message(&mut w, &event(OpKind::Write), &job(), "nid00046");
        let v = iosim_util::json::parse(w.as_str()).unwrap();
        let seg = &v.get("seg").unwrap().as_array().unwrap()[0];
        assert_eq!(seg.get("len").unwrap().as_i64(), Some(4096));
        assert_eq!(seg.get("ndims").unwrap().as_i64(), Some(-1));
        assert_eq!(seg.get("data_set").unwrap().as_str(), Some("N/A"));
        let ts = seg.get("timestamp").unwrap().as_f64().unwrap();
        assert!(ts > 1_650_000_000.0 && ts < 1_650_000_001.0);
        let dur = seg.get("dur").unwrap().as_f64().unwrap();
        assert!((dur - 0.005).abs() < 1e-9);
    }

    #[test]
    fn hdf5_fields_flow_through() {
        let mut ev = event(OpKind::Write);
        ev.module = ModuleId::H5d;
        ev.flushes = 2;
        ev.hdf5 = Some(Hdf5Info {
            data_set: "velocity".into(),
            ndims: 3,
            npoints: 32768,
            reg_hslab: 4,
            irreg_hslab: 0,
            pt_sel: 1,
        });
        let mut w = JsonWriter::new();
        build_message(&mut w, &ev, &job(), "nid00046");
        let v = iosim_util::json::parse(w.as_str()).unwrap();
        assert_eq!(v.get("module").unwrap().as_str(), Some("H5D"));
        assert_eq!(v.get("flushes").unwrap().as_i64(), Some(2));
        let seg = &v.get("seg").unwrap().as_array().unwrap()[0];
        assert_eq!(seg.get("data_set").unwrap().as_str(), Some("velocity"));
        assert_eq!(seg.get("ndims").unwrap().as_i64(), Some(3));
        assert_eq!(seg.get("reg_hslab").unwrap().as_i64(), Some(4));
    }

    #[test]
    fn formatted_digits_counted_for_cost_model() {
        let mut w = JsonWriter::new();
        build_message(&mut w, &event(OpKind::Write), &job(), "nid00046");
        // A MOD message converts uid, job_id, rank, record_id, max_byte,
        // switches, flushes, cnt plus the seg numerics: tens of bytes.
        assert!(w.formatted_digits() > 40, "got {}", w.formatted_digits());
        assert!(w.len() > 300, "message should be a few hundred bytes");
    }

    /// Golden test against the paper's Figure 3: the JSON message must
    /// carry exactly the published field set — the 14 top-level fields
    /// and the 10 `seg` fields of Table I.
    #[test]
    fn message_fields_match_figure3_exactly() {
        let mut w = JsonWriter::new();
        build_message(&mut w, &event(OpKind::Write), &job(), "nid00046");
        let v = iosim_util::json::parse(w.as_str()).unwrap();
        let top: Vec<&str> = v.as_object().unwrap().keys().map(String::as_str).collect();
        let mut expected_top = vec![
            "uid",
            "exe",
            "file",
            "job_id",
            "rank",
            "ProducerName",
            "record_id",
            "module",
            "type",
            "max_byte",
            "switches",
            "flushes",
            "cnt",
            "op",
            "seg",
        ];
        expected_top.sort_unstable();
        assert_eq!(top, expected_top, "top-level field set");
        let seg = &v.get("seg").unwrap().as_array().unwrap()[0];
        let seg_fields: Vec<&str> = seg
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        let mut expected_seg = vec![
            "data_set",
            "pt_sel",
            "irreg_hslab",
            "reg_hslab",
            "ndims",
            "npoints",
            "off",
            "len",
            "dur",
            "timestamp",
        ];
        expected_seg.sort_unstable();
        assert_eq!(seg_fields, expected_seg, "seg field set");
    }

    #[test]
    fn reuse_of_workhorse_buffer_resets_cleanly() {
        let mut w = JsonWriter::new();
        build_message(&mut w, &event(OpKind::Open), &job(), "nid00046");
        let first = w.as_str().to_string();
        build_message(&mut w, &event(OpKind::Open), &job(), "nid00046");
        assert_eq!(w.as_str(), first);
    }
}
