//! One Table I event from every source: a row of owned cells (what the
//! ingest tap reads), the same row stored and read back in place (what
//! the post-run trace lint reads), and the same row printed to a
//! Figure 3 CSV line (what `iolint trace` reads) all decode to the same
//! `OnlineEvent`, and a row that one source rejects every source
//! rejects.

use darshan_ldms_connector::{column_id, darshan_schema, COLUMNS, CONTAINER};
use dsos_sim::{DsosCluster, Value};
use iolint::{events_from_cluster, events_from_csv};
use iosim_apps::detect::row_to_event;

/// A well-formed row: a 1 MiB write, every HDF5 field at its -1
/// sentinel and `seg_data_set` at its `N/A` placeholder.
fn row(op: &str, edits: &[(&str, Value)]) -> Vec<Value> {
    let mut row: Vec<Value> = COLUMNS
        .iter()
        .map(|&(name, _)| match name {
            "module" => Value::Str("POSIX".into()),
            "uid" => Value::U64(1000),
            "ProducerName" => Value::Str("nid00040".into()),
            "switches" | "flushes" => Value::I64(0),
            "cnt" => Value::U64(1),
            "file" => Value::Str("/scratch/out.dat".into()),
            "rank" => Value::U64(3),
            "record_id" => Value::U64(0x9e37_79b9_7f4a_7c15),
            "exe" => Value::Str("/apps/mpi-io-test".into()),
            "type" => Value::Str("MET".into()),
            "job_id" => Value::U64(302),
            "op" => Value::Str(op.into()),
            "seg_off" => Value::I64(1 << 20),
            "seg_len" => Value::I64(1 << 20),
            "seg_dur" => Value::F64(0.145_312_5),
            "seg_timestamp" => Value::F64(1_655_307_212.062_5),
            "seg_data_set" => Value::Str("N/A".into()),
            _ => Value::I64(-1),
        })
        .collect();
    for (name, v) in edits {
        row[column_id(name)] = v.clone();
    }
    row
}

#[test]
fn one_event_from_every_source() {
    let na = || Value::Str("N/A".into());
    let no_extent = [("seg_off", Value::I64(-1)), ("seg_len", Value::I64(-1))];
    let mut short = row("write", &[]);
    short.pop();
    let cases: Vec<(Vec<Value>, bool)> = vec![
        (row("open", &no_extent), true),
        (row("close", &no_extent), true),
        (row("read", &[("seg_off", Value::I64(4096))]), true),
        (row("write", &[]), true),
        (row("flush", &no_extent), true),
        // A MOD record: no exe, no file.
        (
            row(
                "write",
                &[
                    ("type", Value::Str("MOD".into())),
                    ("exe", na()),
                    ("file", na()),
                ],
            ),
            true,
        ),
        // Strings that need CSV quoting.
        (
            row(
                "write",
                &[
                    ("file", Value::Str("/scratch/a,b \"q\".dat".into())),
                    ("exe", Value::Str("\"".into())),
                ],
            ),
            true,
        ),
        (
            row(
                "read",
                &[("seg_dur", Value::F64(0.0)), ("rank", Value::U64(0))],
            ),
            true,
        ),
        // An `N/A` placeholder where a read field needs a number.
        (row("write", &[("seg_dur", na())]), false),
        (row("write", &[("rank", na())]), false),
        (short, false),
    ];
    for (values, decodes) in cases {
        let tapped = row_to_event(&values);
        assert_eq!(tapped.is_some(), decodes, "{values:?}");

        let cluster = DsosCluster::new(2);
        cluster.create_container(CONTAINER, &darshan_schema());
        let ingested = cluster.ingest(CONTAINER, values.clone());
        assert_eq!(ingested.is_ok(), decodes, "{values:?}");
        let stored = events_from_cluster(&cluster);
        assert_eq!(stored, tapped.clone().into_iter().collect::<Vec<_>>());

        let printed: Vec<String> = values.iter().map(ToString::to_string).collect();
        let line = iosim_util::csv::encode_row(&printed);
        let read = events_from_csv(&line).ok();
        assert_eq!(read, tapped.map(|e| vec![e]), "{line}");
    }
}
