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
///
/// Figure 3's keys and punctuation are one template of `'static`
/// fragments; the writer converts only the values. The module and op
/// names are constants with nothing to escape, and the five HDF5 `-1`
/// sentinels count as the ten converted bytes that formatting them
/// would produce, so the cost model charges what it always did.
pub fn build_message(
    w: &mut JsonWriter,
    event: &IoEvent,
    job: &JobMeta,
    producer: &str,
) -> MsgType {
    w.reset();
    let ty = MsgType::of(event);
    w.fragment(r#"{"uid":"#, 0);
    w.uint(u64::from(job.uid));
    match ty {
        MsgType::Met => {
            w.fragment(r#","exe":"#, 0);
            w.string(&job.exe);
            w.fragment(r#","file":"#, 0);
            w.string(&event.file);
        }
        MsgType::Mod => w.fragment(r#","exe":"N/A","file":"N/A""#, 0),
    }
    w.fragment(r#","job_id":"#, 0);
    w.uint(job.job_id);
    w.fragment(r#","rank":"#, 0);
    w.uint(u64::from(event.rank));
    w.fragment(r#","ProducerName":"#, 0);
    w.string(producer);
    w.fragment(r#","record_id":"#, 0);
    w.uint(event.record_id);
    w.fragment(r#","module":""#, 0);
    w.fragment(event.module.name(), 0);
    w.fragment(r#"","type":""#, 0);
    w.fragment(ty.as_str(), 0);
    w.fragment(r#"","max_byte":"#, 0);
    w.int(event.max_byte);
    w.fragment(r#","switches":"#, 0);
    w.int(event.switches);
    w.fragment(r#","flushes":"#, 0);
    w.int(event.flushes);
    w.fragment(r#","cnt":"#, 0);
    w.uint(event.cnt);
    w.fragment(r#","op":""#, 0);
    w.fragment(event.op.name(), 0);
    w.fragment(r#"","seg":[{"data_set":"#, 0);
    match &event.hdf5 {
        Some(Hdf5Info {
            data_set,
            ndims,
            npoints,
            reg_hslab,
            irreg_hslab,
            pt_sel,
        }) => {
            w.string(data_set);
            w.fragment(r#","pt_sel":"#, 0);
            w.int(*pt_sel);
            w.fragment(r#","irreg_hslab":"#, 0);
            w.int(*irreg_hslab);
            w.fragment(r#","reg_hslab":"#, 0);
            w.int(*reg_hslab);
            w.fragment(r#","ndims":"#, 0);
            w.int(*ndims);
            w.fragment(r#","npoints":"#, 0);
            w.int(*npoints);
        }
        // Fields DXT does not trace for this module: Figure 3's
        // "N/A" / -1 sentinels.
        None => w.fragment(
            r#""N/A","pt_sel":-1,"irreg_hslab":-1,"reg_hslab":-1,"ndims":-1,"npoints":-1"#,
            10,
        ),
    }
    w.fragment(r#","off":"#, 0);
    w.int(event.offset);
    w.fragment(r#","len":"#, 0);
    w.int(event.len);
    w.fragment(r#","dur":"#, 0);
    w.float(event.dur);
    w.fragment(r#","timestamp":"#, 0);
    w.float(event.end.abs.as_secs_f64());
    w.fragment("}]}", 0);
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

    /// The message as it was built before the template: one `field_*`
    /// call per Table I field. The template must match it byte for
    /// byte and digit for digit.
    fn build_message_by_field(
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
            Some(h) => {
                w.field_str("data_set", &h.data_set);
                w.field_int("pt_sel", h.pt_sel);
                w.field_int("irreg_hslab", h.irreg_hslab);
                w.field_int("reg_hslab", h.reg_hslab);
                w.field_int("ndims", h.ndims);
                w.field_int("npoints", h.npoints);
            }
            None => {
                w.field_str("data_set", "N/A");
                for key in ["pt_sel", "irreg_hslab", "reg_hslab", "ndims", "npoints"] {
                    w.field_int(key, -1);
                }
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

    mod oracle {
        use super::*;
        use iosim_time::{Epoch, TimePair};
        use proptest::prelude::*;

        const MODULES: [ModuleId; 7] = [
            ModuleId::Posix,
            ModuleId::Mpiio,
            ModuleId::Stdio,
            ModuleId::H5f,
            ModuleId::H5d,
            ModuleId::Lustre,
            ModuleId::Pnetcdf,
        ];
        const OPS: [OpKind; 5] = [
            OpKind::Open,
            OpKind::Close,
            OpKind::Read,
            OpKind::Write,
            OpKind::Flush,
        ];

        /// Paths and names with quotes, backslashes, control characters
        /// and multi-byte text: everything `JsonWriter::string` escapes
        /// or passes through.
        fn text() -> impl Strategy<Value = String> {
            const POOL: [char; 18] = [
                'a', 'Z', '0', '/', '.', ' ', '"', '\\', '\n', '\t', '\r', '\u{0}', '\u{1}',
                '\u{1f}', '\u{7f}', 'é', '世', '🦀',
            ];
            prop::collection::vec(0..POOL.len(), 0..12)
                .prop_map(|picks| picks.into_iter().map(|i| POOL[i]).collect())
        }

        fn signed() -> impl Strategy<Value = i64> {
            prop_oneof![
                any::<i64>(),
                -1000i64..1000,
                Just(i64::MIN),
                Just(i64::MAX),
                Just(-1i64),
            ]
        }

        fn unsigned() -> impl Strategy<Value = u64> {
            prop_oneof![any::<u64>(), 0u64..1000, Just(u64::MAX), Just(0u64)]
        }

        /// `JsonWriter::float`'s branches: non-finite sentinels, the
        /// `{:.1}` form of round values below 1e15 and `Display` above.
        fn real() -> impl Strategy<Value = f64> {
            prop_oneof![
                any::<f64>(),
                -1e6..1e6,
                (-1_000_000i64..1_000_000).prop_map(|i| i as f64),
                prop_oneof![
                    Just(f64::NAN),
                    Just(f64::INFINITY),
                    Just(f64::NEG_INFINITY),
                    Just(-0.0),
                    Just(1e15 - 1.0),
                    Just(1e15),
                    Just(1e15 + 1.0),
                    Just(1e-7),
                    Just(1e300),
                ],
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// Every module × op, with and without HDF5 fields, over
            /// random values: the template writes the oracle's bytes,
            /// charges its digits and picks its type.
            #[test]
            fn template_matches_the_field_by_field_builder(
                top in (text(), unsigned(), any::<u32>(), signed(), signed(), unsigned()),
                counters in (real(), signed(), signed(), signed(), any::<u64>()),
                seg in (text(), signed(), signed(), signed(), signed(), signed()),
                meta in (unsigned(), any::<u32>(), text(), text()),
            ) {
                let (file, record_id, rank, len, offset, cnt) = top;
                let (dur, switches, flushes, max_byte, end_ns) = counters;
                let (data_set, ndims, npoints, reg_hslab, irreg_hslab, pt_sel) = seg;
                let (job_id, uid, exe, producer) = meta;
                let job = JobMeta { job_id, uid, exe, nprocs: 1 };
                let hdf5 = Hdf5Info { data_set, ndims, npoints, reg_hslab, irreg_hslab, pt_sel };
                let at = TimePair { rel: 0.0, abs: Epoch::from_nanos(end_ns) };
                let (mut fast, mut oracle) = (JsonWriter::new(), JsonWriter::new());
                for module in MODULES {
                    for op in OPS {
                        for hdf5 in [None, Some(hdf5.clone())] {
                            let event = IoEvent {
                                module, op, file: file.clone(), record_id, rank, len, offset,
                                start: at, end: at, dur, cnt, switches, flushes, max_byte, hdf5,
                            };
                            let ty = build_message(&mut fast, &event, &job, &producer);
                            let want = build_message_by_field(&mut oracle, &event, &job, &producer);
                            prop_assert_eq!(fast.as_str(), oracle.as_str());
                            prop_assert_eq!(fast.formatted_digits(), oracle.formatted_digits());
                            prop_assert_eq!(ty, want);
                        }
                    }
                }
            }
        }
    }
}
