//! Property-based tests over the core data structures and invariants.

#[path = "fault_common/mod.rs"]
mod fault_common;

use iolint::{check_flow, parse_conf, LintConfig};
use proptest::prelude::*;
use repro_suite::connector::{FaultScript, QueueConfig, WalConfig};
use repro_suite::dsos::{DsosCluster, ReplicationConfig, Schema, Type, Value};
use repro_suite::ldms::batch::{decode_frame, encode_frame, is_frame_payload, FrameRecord};
use repro_suite::ldms::store::json_to_rows;
use repro_suite::ldms::LdmsNetwork;
use repro_suite::simtime::{Clock, Epoch, SimDuration};
use repro_suite::util::json::{self, JsonValue, JsonWriter};
use repro_suite::util::merge::merge_sorted;
use repro_suite::util::{csv, fnv1a64};
use std::collections::BTreeMap;
use std::path::Path;

// --- JSON -----------------------------------------------------------

fn arb_json(depth: u32) -> impl Strategy<Value = JsonValue> {
    let leaf = prop_oneof![
        Just(JsonValue::Null),
        any::<bool>().prop_map(JsonValue::Bool),
        any::<i64>().prop_map(JsonValue::Int),
        any::<u64>().prop_map(JsonValue::UInt),
        // Finite floats only: JSON cannot carry NaN/Inf.
        prop::num::f64::NORMAL.prop_map(JsonValue::Float),
        "[a-zA-Z0-9 /_.:-]{0,24}".prop_map(JsonValue::Str),
    ];
    leaf.prop_recursive(depth, 64, 8, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..6).prop_map(JsonValue::Array),
            prop::collection::btree_map("[a-z_]{1,8}", inner, 0..6)
                .prop_map(|m: BTreeMap<String, JsonValue>| JsonValue::Object(m)),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn json_round_trips(v in arb_json(3)) {
        let rendered = v.to_string();
        let parsed = json::parse(&rendered).expect("rendered JSON must parse");
        // Ints may re-parse as Int/UInt across the i64 boundary; compare
        // through a canonical re-render instead of structural equality.
        prop_assert_eq!(parsed.to_string(), rendered);
    }

    #[test]
    fn json_strings_escape_round_trip(s in "\\PC{0,64}") {
        let mut w = JsonWriter::new();
        w.string(&s);
        let v = json::parse(w.as_str()).expect("escaped string parses");
        prop_assert_eq!(v.as_str(), Some(s.as_str()));
        // The same text as `\uXXXX` escapes throughout: a character
        // beyond the BMP is a surrogate pair and comes back as one
        // scalar...
        let units: String = s.encode_utf16().map(|u| format!("\\u{u:04x}")).collect();
        let v = json::parse(&format!("\"{units}\"")).expect("\\u escapes parse");
        prop_assert_eq!(v.as_str(), Some(s.as_str()));
        // ...and a surrogate without its partner is U+FFFD.
        let v = json::parse(&format!("\"\\ud83d{units}|\\ude00\"")).expect("lone surrogates parse");
        prop_assert_eq!(v.as_str(), Some(format!("\u{fffd}{s}|\u{fffd}").as_str()));
    }

    // --- CSV ----------------------------------------------------------

    #[test]
    fn csv_rows_round_trip(fields in prop::collection::vec("[^\r]*", 1..8)) {
        let row = csv::encode_row(&fields);
        prop_assert_eq!(csv::decode_row(&row), fields);
    }

    // --- merge --------------------------------------------------------

    #[test]
    fn kway_merge_equals_global_sort(parts in prop::collection::vec(
        prop::collection::vec(any::<i32>(), 0..50), 0..6)) {
        let mut expect: Vec<i32> = parts.iter().flatten().copied().collect();
        expect.sort();
        let sorted_parts: Vec<Vec<i32>> = parts.into_iter().map(|mut p| { p.sort(); p }).collect();
        prop_assert_eq!(merge_sorted(sorted_parts), expect);
    }

    // --- hashing ------------------------------------------------------

    #[test]
    fn fnv_is_deterministic_and_sensitive(a in any::<Vec<u8>>(), b in any::<Vec<u8>>()) {
        prop_assert_eq!(fnv1a64(&a), fnv1a64(&a));
        if a != b {
            // Not a collision-freedom claim — just that the hash uses
            // its input (differs for almost all generated pairs).
            if fnv1a64(&a) == fnv1a64(&b) {
                // Astronomically unlikely; treat as failure to surface it.
                prop_assert!(false, "unexpected FNV collision in random pair");
            }
        }
    }

    // --- virtual time --------------------------------------------------

    #[test]
    fn clock_advances_monotonically(steps in prop::collection::vec(0u64..1_000_000_000, 1..64)) {
        let mut clock = Clock::new(Epoch::from_secs(1_650_000_000));
        let mut last = clock.now();
        for ns in steps {
            clock.advance(SimDuration::from_nanos(ns));
            let now = clock.now();
            prop_assert!(now >= last);
            let tp = clock.time_pair();
            // The two axes stay consistent to f64 precision.
            let expect = clock.epoch_base().as_secs_f64() + tp.rel;
            prop_assert!((tp.abs.as_secs_f64() - expect).abs() < 1e-6);
            last = now;
        }
    }

    // --- DSOS index invariants ------------------------------------------

    #[test]
    fn dsos_prefix_queries_return_sorted_complete_results(
        entries in prop::collection::vec((1u64..4, 0u64..8, 0u32..10_000), 1..80),
        probe_job in 1u64..4,
    ) {
        let schema = Schema::builder("t")
            .attr("job", Type::U64)
            .attr("rank", Type::U64)
            .attr("ts", Type::F64)
            .index("jrt", &["job", "rank", "ts"])
            .build()
            .unwrap();
        let cluster = DsosCluster::new(3);
        cluster.create_container("t", &schema);
        let mut expected = 0usize;
        for &(job, rank, ts) in &entries {
            cluster.ingest("t", vec![
                Value::U64(job),
                Value::U64(rank),
                Value::F64(f64::from(ts) * 0.25),
            ]).unwrap();
            if job == probe_job { expected += 1; }
        }
        let rows = cluster.query_prefix("t", "jrt", &[Value::U64(probe_job)]);
        prop_assert_eq!(rows.len(), expected);
        // Sorted by (rank, ts) within the job prefix.
        let keys: Vec<(u64, f64)> = rows.iter()
            .map(|r| (r[1].as_u64().unwrap(), r[2].as_f64().unwrap()))
            .collect();
        prop_assert!(keys.windows(2).all(|w| w[0] <= w[1]));
    }

    // --- replicated DSOS durability -------------------------------------

    #[test]
    fn quorum_acked_rows_survive_up_to_r_minus_1_dsosd_crashes(
        n in 3usize..6,
        extra in 0usize..2,
        w_draw in 0usize..3,
        rows in prop::collection::vec((1u64..5, 0u64..8, 0u64..2_000), 1..60),
        windows in prop::collection::vec((0usize..6, 0u64..2_000, 1u64..400), 0..6),
    ) {
        // Random dsosd crash/restart scripts constrained to at most
        // R−1 daemons concurrently down (the tentpole's durability
        // envelope). Every quorum-acked row must come back from the
        // post-recovery full query exactly once, and the completeness
        // report must prove it: zero unavailable mass, acked count
        // matching the ingest-side quorum acks, replay idempotent.
        let r = (2 + extra).min(n);
        let w = 1 + w_draw.min(r - 1);
        let base = Epoch::from_secs(1_650_000_000);
        let cluster = DsosCluster::new_replicated(
            n,
            ReplicationConfig::new(r).with_quorum(w),
        ).unwrap();
        let schema = Schema::builder("t")
            .attr("job", Type::U64)
            .attr("rank", Type::U64)
            .attr("ts", Type::F64)
            .index("jrt", &["job", "rank", "ts"])
            .build()
            .unwrap();
        cluster.create_container("t", &schema);

        // Admit candidate windows in start order, rejecting any that
        // would push the concurrently-down count to R. Touching
        // windows (one ends exactly as another starts) count as
        // concurrent: a replica that dies at the same instant a peer
        // restarts cannot serve as that peer's rebuild source.
        let mut sorted: Vec<(usize, u64, u64)> = windows
            .iter()
            .map(|&(d, from, dur)| (d % n, from, from + dur))
            .collect();
        sorted.sort_by_key(|&(_, from, until)| (from, until));
        let mut active: Vec<(usize, u64)> = Vec::new();
        for (d, from, until) in sorted {
            active.retain(|&(_, u)| u >= from);
            if active.len() >= r - 1 || active.iter().any(|&(ad, _)| ad == d) {
                continue;
            }
            cluster.crash_dsosd(d, base + SimDuration::from_millis(from));
            cluster.restart_dsosd(d, base + SimDuration::from_millis(until));
            active.push((d, until));
        }

        // Unique ts per row makes "exactly once" checkable by key.
        let mut acked: Vec<bool> = Vec::with_capacity(rows.len());
        for (k, &(job, rank, at_ms)) in rows.iter().enumerate() {
            let ack = cluster.ingest_at(
                "t",
                vec![
                    Value::U64(job),
                    Value::U64(rank),
                    Value::F64(k as f64 * 0.5),
                ],
                base + SimDuration::from_millis(at_ms),
            ).unwrap();
            acked.push(ack.quorum);
        }

        let end = base + SimDuration::from_secs(86_400);
        cluster.recover(end);
        let (out, c) = cluster.query_prefix_at("t", "jrt", &[], end);

        let mut seen = vec![0usize; rows.len()];
        for row in &out {
            let k = (row[2].as_f64().unwrap() / 0.5).round() as usize;
            prop_assert!(k < rows.len(), "query invented a row: {row:?}");
            seen[k] += 1;
        }
        for (k, &was_acked) in acked.iter().enumerate() {
            prop_assert!(seen[k] <= 1, "row {} returned {} times", k, seen[k]);
            if was_acked {
                prop_assert_eq!(
                    seen[k], 1,
                    "quorum-acked row {} lost (R={}, W={}, n={})", k, r, w, n
                );
            }
        }
        let acked_total = acked.iter().filter(|&&a| a).count() as u64;
        prop_assert_eq!(c.acked_rows, acked_total);
        prop_assert_eq!(c.unavailable, 0);
        prop_assert!(c.is_complete(), "post-recovery report must be total: {c:?}");
        prop_assert_eq!(c.rows_returned, out.len());
        // Anti-entropy replay is idempotent: a second pass is a no-op.
        prop_assert_eq!(cluster.recover(end), 0);
    }

    // --- Darshan log round trip -----------------------------------------

    #[test]
    fn darshan_logs_round_trip_arbitrary_counters(
        ops in prop::collection::vec((0u8..4, 0u64..1_000_000, 1u64..100_000), 1..40),
        job_id in 1u64..1_000_000,
        rank in 0u32..64,
    ) {
        use repro_suite::darshan::runtime::{EventParams, JobMeta, RankRuntime};
        use repro_suite::darshan::{log, ModuleId, OpKind};
        use std::sync::Arc as StdArc;

        let rt = RankRuntime::new(JobMeta::new(job_id, 42, "/bin/app", 1), rank);
        let mut clock = Clock::new(Epoch::from_secs(1_650_000_000));
        for (kind, off, len) in ops {
            let op = match kind {
                0 => OpKind::Open,
                1 => OpKind::Close,
                2 => OpKind::Read,
                _ => OpKind::Write,
            };
            let start = clock.time_pair();
            clock.advance(SimDuration::from_micros(37));
            let end = clock.time_pair();
            let is_data = matches!(op, OpKind::Read | OpKind::Write);
            rt.io_event(&mut clock, EventParams {
                module: ModuleId::Posix,
                op,
                file: StdArc::from("/data/prop.dat"),
                record_id: 99,
                offset: is_data.then_some(off),
                len: is_data.then_some(len),
                start,
                end,
                cnt: 1,
                hdf5: None,
            });
        }
        let before = rt.counters(ModuleId::Posix, 99).unwrap();
        let snap = rt.finalize();
        let bytes = log::write_log(
            &JobMeta { job_id, uid: 42, exe: "/bin/app".into(), nprocs: 1 },
            0.0,
            clock.elapsed().as_secs_f64(),
            &[snap],
        );
        let parsed = log::parse_log(&bytes).expect("log parses");
        prop_assert_eq!(parsed.job.job_id, job_id);
        prop_assert_eq!(parsed.records.len(), 1);
        let rec = &parsed.records[0];
        prop_assert_eq!(rec.rank, rank);
        // Field-wise comparison: the in-memory record also tracks the
        // last access direction (not serialized — it only drives switch
        // counting at run time).
        prop_assert_eq!(rec.counters.opens, before.opens);
        prop_assert_eq!(rec.counters.closes, before.closes);
        prop_assert_eq!(rec.counters.reads, before.reads);
        prop_assert_eq!(rec.counters.writes, before.writes);
        prop_assert_eq!(rec.counters.bytes_read, before.bytes_read);
        prop_assert_eq!(rec.counters.bytes_written, before.bytes_written);
        prop_assert_eq!(rec.counters.max_byte_read, before.max_byte_read);
        prop_assert_eq!(rec.counters.max_byte_written, before.max_byte_written);
        prop_assert_eq!(rec.counters.rw_switches, before.rw_switches);
        prop_assert_eq!(rec.counters.size_histogram, before.size_histogram);
        prop_assert!((rec.counters.f_read_time - before.f_read_time).abs() < 1e-12);
        prop_assert!((rec.counters.f_write_time - before.f_write_time).abs() < 1e-12);
        // DXT segment count equals total ops.
        let segs: usize = parsed.dxt.iter().map(|d| d.segments.len()).sum();
        prop_assert_eq!(segs as u64, before.total_ops());
    }

    // --- connector message / store row invariants -----------------------

    #[test]
    fn any_flat_connector_like_message_yields_24_field_rows(
        rank in 0u32..512,
        len in -1i64..1_000_000_000,
        nsegs in 1usize..4,
    ) {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("module", "POSIX");
        w.field_int("rank", i64::from(rank));
        w.field_str("op", "write");
        w.comma();
        w.key("seg");
        w.begin_array();
        for i in 0..nsegs {
            w.comma();
            w.begin_object();
            w.field_int("len", len);
            w.field_int("off", i as i64 * 10);
            w.end_object();
        }
        w.end_array();
        w.end_object();
        let rows = json_to_rows(w.as_str()).unwrap();
        prop_assert_eq!(rows.len(), nsegs);
        for row in rows {
            prop_assert_eq!(row.len(), 24);
        }
    }

    #[test]
    fn decoded_connector_messages_equal_the_events_reference_rows(
        ids in (any::<u64>(), any::<u32>(), any::<u64>(), any::<u32>(), any::<u64>()),
        counters in (any::<i64>(), any::<i64>(), any::<i64>(), any::<i64>(), any::<i64>()),
        times in (prop::num::f64::NORMAL, any::<u64>()),
        kind in (0usize..7, 0usize..4),
        text in ("\\PC{0,24}", "\\PC{0,24}", "[a-z0-9]{1,8}"),
        h5 in (any::<bool>(), "\\PC{0,12}", any::<i64>(), any::<i64>(), any::<i64>()),
    ) {
        use repro_suite::connector::message::build_message;
        use repro_suite::connector::{column_id, DsosStreamStore, COLUMNS, CONTAINER};
        use repro_suite::darshan::hooks::{Hdf5Info, IoEvent};
        use repro_suite::darshan::runtime::JobMeta;
        use repro_suite::darshan::{ModuleId, OpKind};
        use repro_suite::ldms::{MsgFormat, StreamMessage, StreamSink};
        use repro_suite::simtime::TimePair;

        let (job_id, uid, record_id, rank, cnt) = ids;
        let (len, offset, switches, flushes, max_byte) = counters;
        let (dur, end_ns) = times;
        let (file, exe, producer) = text;
        let (has_h5, data_set, ndims, npoints, hslab) = h5;
        let modules = [
            ModuleId::Posix, ModuleId::Mpiio, ModuleId::Stdio, ModuleId::H5f,
            ModuleId::H5d, ModuleId::Lustre, ModuleId::Pnetcdf,
        ];
        let end = TimePair { rel: 0.0, abs: Epoch::from_nanos(end_ns) };
        let job = JobMeta { job_id, uid, exe, nprocs: 1 };
        let cluster = DsosCluster::new(1);
        let store = DsosStreamStore::new(cluster.clone(), None, None);
        let mut w = JsonWriter::new();
        // An open is a MET message, every other operation a MOD one.
        let other = [OpKind::Close, OpKind::Read, OpKind::Write, OpKind::Flush][kind.1];
        for (n, op) in [OpKind::Open, other].into_iter().enumerate() {
            let event = IoEvent {
                module: modules[kind.0],
                op,
                file: file.clone(),
                record_id, rank, len, offset,
                start: end,
                end,
                dur, cnt, switches, flushes, max_byte,
                hdf5: has_h5.then(|| Hdf5Info {
                    data_set: data_set.clone(),
                    ndims, npoints,
                    reg_hslab: hslab,
                    irreg_hslab: hslab.wrapping_add(1),
                    pt_sel: hslab.wrapping_sub(1),
                }),
            };
            build_message(&mut w, &event, &job, &producer);
            store.deliver(&StreamMessage::new(
                "darshanConnector", MsgFormat::Json, w.as_str().to_string(), &producer,
                Epoch::from_secs(1),
            ));
            prop_assert_eq!((store.ingested(), store.rejected()), (n as u64 + 1, 0));

            // Table I straight from the event, never through JSON.
            let met = op == OpKind::Open;
            let h = event.hdf5.as_ref();
            let text = |s: &str| Value::Str(s.to_string());
            let reference = vec![
                text(event.module.name()),
                Value::U64(u64::from(uid)),
                text(&producer),
                Value::I64(switches),
                text(if met { &file } else { "N/A" }),
                Value::U64(u64::from(rank)),
                Value::I64(flushes),
                Value::U64(record_id),
                text(if met { &job.exe } else { "N/A" }),
                Value::I64(max_byte),
                text(if met { "MET" } else { "MOD" }),
                Value::U64(job_id),
                text(op.name()),
                Value::U64(cnt),
                Value::I64(offset),
                Value::I64(h.map_or(-1, |h| h.pt_sel)),
                Value::F64(dur),
                Value::I64(len),
                Value::I64(h.map_or(-1, |h| h.ndims)),
                Value::I64(h.map_or(-1, |h| h.reg_hslab)),
                Value::I64(h.map_or(-1, |h| h.irreg_hslab)),
                text(h.map_or("N/A", |h| &h.data_set)),
                Value::I64(h.map_or(-1, |h| h.npoints)),
                Value::F64(end.abs.as_secs_f64()),
            ];
            prop_assert_eq!(reference.len(), COLUMNS.len());
            // Floats by bits, not by `==`.
            let bits = |row: &[Value]| -> Vec<Value> {
                row.iter()
                    .map(|v| match v {
                        Value::F64(x) => Value::U64(x.to_bits()),
                        other => other.clone(),
                    })
                    .collect()
            };
            let stored = cluster.query_prefix(CONTAINER, "job_rank_time", &[]);
            let row = stored
                .iter()
                .find(|row| row[column_id("op")] == reference[column_id("op")])
                .expect("the message's row is stored");
            prop_assert_eq!(bits(row), bits(&reference));
        }
    }

    // --- frame batching --------------------------------------------------

    #[test]
    fn frame_codec_round_trips_arbitrary_record_sequences(
        specs in prop::collection::vec(
            (any::<bool>(), any::<u64>(), "\\PC{0,48}", 0u8..4), 0..9),
    ) {
        // Payloads are adversarial on purpose: record separators,
        // frame headers, and blank lines embedded in the payload text
        // must survive because the codec is length-prefixed, not
        // delimiter-scanned. Covers the empty frame and the
        // single-record frame via the 0..9 size range.
        let records: Vec<FrameRecord> = specs
            .into_iter()
            .map(|(has_seq, seq, text, poison)| FrameRecord {
                seq: has_seq.then_some(seq),
                payload: match poison {
                    0 => text,
                    1 => format!("%LDMSFRAME1%{text}"),
                    2 => format!("{text}\n{text}"),
                    _ => format!("\n3 {}\n{text}", text.len()),
                },
            })
            .collect();
        let wire = encode_frame(&records);
        prop_assert!(is_frame_payload(&wire));
        let decoded = decode_frame(&wire).expect("encoded frame must decode");
        prop_assert_eq!(decoded, records);
    }

    #[test]
    fn wal_replay_of_half_durable_frames_never_duplicates_or_drops(
        seed in any::<u64>(),
        frame in 1usize..6,
        fsync_every in 1u32..8,
        at_ms in 0u64..250,
        dur_ms in 1u64..150,
    ) {
        // A lazily-fsynced WAL under a crash-stop: some frames have
        // durable records, some die with the volatile tail, and the
        // crash can land mid-frame-stream — the "half-durable" case.
        // Whatever the crash destroys, replay must never double-store
        // a row (idempotent per-member claims) and never lose one
        // silently (stored + attributed == published, in logical
        // messages).
        let mut sc = fault_common::random_scenario(seed);
        sc.queue = QueueConfig::reliable().with_seed(seed ^ 0xD1F);
        sc.wal = Some(WalConfig::durable().with_fsync_every(fsync_every));
        let from = fault_common::base_epoch() + SimDuration::from_millis(at_ms);
        let until = from + SimDuration::from_millis(dur_ms);
        sc.script = FaultScript::new().crash("l1", from, until);
        let (p, outcome) = fault_common::run_batched_scenario(&sc, frame);
        if let Err(e) = fault_common::check_invariants(&outcome) {
            prop_assert!(false, "{} (frame {}, scenario: {:?}, outcome: {:?})",
                e, frame, sc, outcome);
        }
        if let Err(e) = fault_common::check_no_duplicate_rows(&p, 7) {
            prop_assert!(false, "{} (frame {}, scenario: {:?})", e, frame, sc);
        }
    }

    // --- end-to-end delivery accounting ---------------------------------

    #[test]
    fn delivery_ledger_balances_under_arbitrary_fault_scripts(seed in any::<u64>()) {
        // The scenario (topology size, workload, queue policy, chaos
        // script) is derived deterministically from the seed, so any
        // failure here replays exactly from the reported seed. The
        // invariant: once the network settles, every published message
        // is stored or attributed to exactly one (hop, cause) bucket,
        // and sequence-gap detection never claims more missing
        // messages than were actually lost.
        let sc = fault_common::random_scenario(seed);
        let (p, outcome) = fault_common::run_scenario(&sc);
        if let Err(e) = fault_common::check_invariants(&outcome) {
            prop_assert!(false, "{} (scenario: {:?}, outcome: {:?})", e, sc, outcome);
        }
        if let Err(e) = fault_common::check_no_duplicate_rows(&p, 7) {
            prop_assert!(false, "{} (scenario: {:?})", e, sc);
        }
    }

    #[test]
    fn crash_recovery_preserves_ledger_and_idempotency(
        seed in any::<u64>(),
        victim in 0u64..4,
        at_ms in 0u64..300,
        dur_ms in 1u64..200,
    ) {
        // One crash-stop of a random daemon at a random virtual
        // instant, layered over a seed-derived workload, queue policy,
        // and WAL/standby draw. Whatever the crash destroys, the
        // ledger must still balance exactly (every gap attributed to a
        // (hop, cause) bucket) and WAL replay must never double-store
        // a DSOS row.
        let mut sc = fault_common::random_scenario(seed);
        let target = match victim {
            0 => "l1".to_string(),
            1 => "l2".to_string(),
            2 if sc.standby => "standby".to_string(),
            _ => format!("nid{:05}", seed % sc.nodes),
        };
        let from = fault_common::base_epoch() + SimDuration::from_millis(at_ms);
        let until = from + SimDuration::from_millis(dur_ms);
        sc.script = FaultScript::new().crash(&target, from, until);
        let (p, outcome) = fault_common::run_scenario(&sc);
        if let Err(e) = fault_common::check_invariants(&outcome) {
            prop_assert!(false, "{} (scenario: {:?}, outcome: {:?})", e, sc, outcome);
        }
        if let Err(e) = fault_common::check_no_duplicate_rows(&p, 7) {
            prop_assert!(false, "{} (scenario: {:?})", e, sc);
        }
    }
}

// --- Conf parser ----------------------------------------------------

/// Every `examples/configs/*.conf`, in name order.
fn example_confs() -> Vec<String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/configs");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("examples/configs exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "conf"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| std::fs::read_to_string(p).expect("readable conf"))
        .collect()
}

/// Tokens a mutation splices into a conf line: numbers at and past
/// every bound, key=value shapes the parsers accept and reject, names
/// of daemons, aliases and links, and directive keywords.
const SPLICE: &[&str] = &[
    "",
    "0",
    "-1",
    "1e400",
    "1e300",
    "99999999999999999",
    "nan",
    "inf",
    "x",
    "=",
    "k=v",
    "capacity=0",
    "rate=0",
    "rate=nan",
    "sample=-5",
    "throttle=inf",
    "spill=0",
    "window-ms=0",
    "window-ms=99999999999999999",
    "keep-every=0",
    "fsync-every=0",
    "checkpoint-every=0",
    "policy=deadline:0",
    "attempts=0",
    "n=0",
    "replicas=9",
    "ugni",
    "site-net",
    "carrier-pigeon",
    "l1",
    "l2",
    "standby",
    "sampler",
    "daemon",
    "upstream",
    "voltrino-head",
    "shirley-agg",
    "nid00040",
    "dsosd-0",
    "#",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A mutated example conf either fails to parse with the line of a
    /// directive, or yields a graph that lints, is analyzed, and builds
    /// or is refused, without a panic.
    #[test]
    fn mutated_confs_fail_on_a_line_or_lint_and_build(
        conf in 0usize..64,
        line in any::<usize>(),
        kind in 0u8..6,
        tok in any::<usize>(),
        splice in 0usize..SPLICE.len(),
        other in any::<usize>(),
    ) {
        let confs = example_confs();
        let mut lines: Vec<String> = confs[conf % confs.len()].lines().map(str::to_string).collect();
        let (at, swap) = (line % lines.len(), other % lines.len());
        let mut toks: Vec<String> = lines[at].split_whitespace().map(str::to_string).collect();
        let t = tok % toks.len().max(1);
        match kind {
            0 => drop(lines.remove(at)),
            1 => lines.insert(at, lines[at].clone()),
            2 => lines.swap(at, swap),
            3 => lines.insert(at, format!("  {}", SPLICE[splice])),
            4 if !toks.is_empty() => drop(toks.remove(t)),
            _ if !toks.is_empty() => {
                // Replace a whole token, or only a setting's value.
                toks[t] = match toks[t].split_once('=') {
                    Some((k, _)) if other % 2 == 0 => format!("{k}={}", SPLICE[splice]),
                    _ => SPLICE[splice].to_string(),
                };
            }
            _ => {}
        }
        if kind >= 4 {
            lines[at] = toks.join(" ");
        }
        let text = lines.join("\n");
        match parse_conf(&text) {
            Err(e) => {
                let directive = text
                    .lines()
                    .nth(e.line.wrapping_sub(1))
                    .map(|l| l.split('#').next().unwrap_or("").trim());
                prop_assert!(
                    directive.is_some_and(|d| !d.is_empty()),
                    "error `{}` names no directive line of:\n{}",
                    e,
                    text
                );
            }
            Ok(spec) => {
                check_flow(&spec, None, &LintConfig::new());
                if let Ok(net) = LdmsNetwork::build(&spec.graph, None) {
                    prop_assert_eq!(net.daemons().len(), spec.graph.daemons.len());
                }
            }
        }
    }
}
