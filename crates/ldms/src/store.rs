//! Stream store plugins.
//!
//! The paper's pipeline ends in a store plugin on the L2 aggregator
//! that converts each JSON stream message into CSV rows (Figure 3 shows
//! the exact header) before DSOS ingest. [`CsvStreamStore`] implements
//! that conversion; the DSOS-backed store lives in the connector crate
//! to keep this crate independent of the database. That store decodes
//! the JSON text straight into typed rows, and its tests hold it to
//! [`json_to_rows`] as the oracle: same rows, same rejects.

use crate::stream::{StreamMessage, StreamSink};
use iosim_util::json::{self, JsonValue};
use parking_lot::Mutex;

/// The CSV header of Figure 3 (bottom), in order.
pub(crate) const CSV_HEADER: [&str; 24] = [
    "module",
    "uid",
    "ProducerName",
    "switches",
    "file",
    "rank",
    "flushes",
    "record_id",
    "exe",
    "max_byte",
    "type",
    "job_id",
    "op",
    "cnt",
    "seg:off",
    "seg:pt_sel",
    "seg:dur",
    "seg:len",
    "seg:ndims",
    "seg:reg_hslab",
    "seg:irreg_hslab",
    "seg:data_set",
    "seg:npoints",
    "seg:timestamp",
];

/// Renders one JSON field the way the CSV store prints it: `N/A` for
/// missing or null fields, bare scalars otherwise. Exported so the
/// typed store sends the JSON shapes it has no direct conversion for
/// through the very same rendering.
pub fn field_to_string(v: Option<&JsonValue>) -> String {
    match v {
        None => "N/A".to_string(),
        Some(JsonValue::Str(s)) => s.clone(),
        Some(JsonValue::Int(i)) => i.to_string(),
        Some(JsonValue::UInt(u)) => u.to_string(),
        Some(JsonValue::Float(f)) => format!("{f}"),
        Some(JsonValue::Bool(b)) => b.to_string(),
        Some(JsonValue::Null) => "N/A".to_string(),
        Some(other) => other.to_string(),
    }
}

/// Flattens one connector JSON message into CSV rows — one row per
/// `seg` entry (the `seg` field "is a list containing multiple
/// name:value pairs", Table I).
pub fn json_to_rows(data: &str) -> Result<Vec<Vec<String>>, json::ParseError> {
    let v = json::parse(data)?;
    let top = |name: &str| field_to_string(v.get(name));
    let segs: Vec<&JsonValue> = match v.get("seg").and_then(JsonValue::as_array) {
        Some(arr) if !arr.is_empty() => arr.iter().collect(),
        _ => Vec::new(),
    };
    let base = [
        top("module"),
        top("uid"),
        top("ProducerName"),
        top("switches"),
        top("file"),
        top("rank"),
        top("flushes"),
        top("record_id"),
        top("exe"),
        top("max_byte"),
        top("type"),
        top("job_id"),
        top("op"),
        top("cnt"),
    ];
    let seg_field =
        |seg: Option<&JsonValue>, name: &str| field_to_string(seg.and_then(|s| s.get(name)));
    let build_row = |seg: Option<&JsonValue>| {
        let mut row = Vec::with_capacity(CSV_HEADER.len());
        row.extend(base.iter().cloned());
        for f in [
            "off",
            "pt_sel",
            "dur",
            "len",
            "ndims",
            "reg_hslab",
            "irreg_hslab",
            "data_set",
            "npoints",
            "timestamp",
        ] {
            row.push(seg_field(seg, f));
        }
        row
    };
    if segs.is_empty() {
        Ok(vec![build_row(None)])
    } else {
        Ok(segs.into_iter().map(|s| build_row(Some(s))).collect())
    }
}

/// A store plugin that converts stream JSON to CSV rows in memory.
#[derive(Default)]
pub struct CsvStreamStore {
    rows: Mutex<Vec<Vec<String>>>,
    parse_errors: Mutex<u64>,
}

impl CsvStreamStore {
    /// Creates an empty store.
    pub fn new() -> std::sync::Arc<Self> {
        std::sync::Arc::new(Self::default())
    }

    /// Renders header + rows as a CSV document.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("#");
        out.push_str(&iosim_util::csv::encode_row(&CSV_HEADER));
        out.push('\n');
        for row in self.rows.lock().iter() {
            out.push_str(&iosim_util::csv::encode_row(row));
            out.push('\n');
        }
        out
    }
}

impl StreamSink for CsvStreamStore {
    fn deliver(&self, msg: &StreamMessage) {
        match json_to_rows(&msg.data) {
            Ok(mut rows) => self.rows.lock().append(&mut rows),
            Err(_) => *self.parse_errors.lock() += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::MsgFormat;
    use iosim_time::Epoch;

    const SAMPLE: &str = r#"{"uid":99066,"exe":"/apps/mpi-io-test","job_id":259903,"rank":3,
        "ProducerName":"nid00046","file":"/scratch/out.dat","record_id":160154,
        "module":"POSIX","type":"MOD","max_byte":4095,"switches":0,"flushes":-1,"cnt":2,
        "op":"write","seg":[{"data_set":"N/A","pt_sel":-1,"irreg_hslab":-1,"reg_hslab":-1,
        "ndims":-1,"npoints":-1,"off":0,"len":4096,"dur":0.005,"timestamp":1650000000.25}]}"#;

    #[test]
    fn one_seg_one_row_in_header_order() {
        let rows = json_to_rows(SAMPLE).unwrap();
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(row.len(), CSV_HEADER.len());
        assert_eq!(row[0], "POSIX"); // module
        assert_eq!(row[5], "3"); // rank
        assert_eq!(row[12], "write"); // op
        assert_eq!(row[17], "4096"); // seg:len
        assert_eq!(row[23], "1650000000.25"); // seg:timestamp
    }

    #[test]
    fn multiple_segs_fan_out_to_rows() {
        let data = r#"{"module":"POSIX","op":"write","rank":0,
            "seg":[{"len":1,"off":0},{"len":2,"off":1},{"len":3,"off":3}]}"#;
        let rows = json_to_rows(data).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2][17], "3");
        // Missing fields become N/A.
        assert_eq!(rows[0][1], "N/A"); // uid absent
    }

    #[test]
    fn message_without_seg_still_produces_a_row() {
        let rows = json_to_rows(r#"{"module":"STDIO","op":"open"}"#).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][14], "N/A"); // seg:off
    }

    #[test]
    fn store_collects_rows_and_counts_errors() {
        let store = CsvStreamStore::new();
        let good = StreamMessage::new(
            "darshanConnector",
            MsgFormat::Json,
            SAMPLE.to_string(),
            "nid00046",
            Epoch::from_secs(1),
        );
        let bad = StreamMessage::new(
            "darshanConnector",
            MsgFormat::Json,
            "{not json".to_string(),
            "nid00046",
            Epoch::from_secs(1),
        );
        store.deliver(&good);
        store.deliver(&bad);
        store.deliver(&good);
        assert_eq!(store.rows.lock().len(), 2);
        assert_eq!(*store.parse_errors.lock(), 1);
        let csv = store.to_csv();
        assert!(csv.starts_with("#module,uid,ProducerName"));
        assert_eq!(csv.lines().count(), 3);
    }
}
