//! Semantics the paper specifies for the transport pipeline: LDMS
//! Streams best-effort delivery, no caching, tag matching, multi-hop
//! aggregation latency, and the DSOS store's tolerance of loss.

use repro_suite::connector::{darshan_schema, DsosStreamStore, DEFAULT_STREAM_TAG};
use repro_suite::dsos::{DsosCluster, Value};
use repro_suite::ldms::store::CsvStreamStore;
use repro_suite::ldms::stream::{BufferSink, MsgFormat};
use repro_suite::ldms::StreamSink;
use repro_suite::ldms::{FaultScript, LdmsNetwork, NetworkOpts, StreamMessage};
use repro_suite::simtime::Epoch;

fn connector_msg(ts: f64) -> StreamMessage {
    connector_msg_rank(ts, 0)
}

fn connector_msg_rank(ts: f64, rank: u32) -> StreamMessage {
    StreamMessage::new(
        DEFAULT_STREAM_TAG,
        MsgFormat::Json,
        format!(
            r#"{{"uid":1,"exe":"N/A","file":"N/A","job_id":9,"rank":{rank},"ProducerName":"nid00040",
               "record_id":7,"module":"POSIX","type":"MOD","max_byte":99,"switches":0,
               "flushes":-1,"cnt":1,"op":"write",
               "seg":[{{"data_set":"N/A","pt_sel":-1,"irreg_hslab":-1,"reg_hslab":-1,
               "ndims":-1,"npoints":-1,"off":0,"len":100,"dur":0.01,"timestamp":{ts}}}]}}"#
        ),
        "nid00040",
        Epoch::from_secs_f64_for_tests(ts),
    )
}

/// Helper: epoch from float seconds (test-side convenience).
trait EpochExt {
    fn from_secs_f64_for_tests(s: f64) -> Epoch;
}
impl EpochExt for Epoch {
    fn from_secs_f64_for_tests(s: f64) -> Epoch {
        Epoch::from_nanos((s * 1e9) as u64)
    }
}

#[test]
fn lossy_link_drops_are_tolerated_not_fatal() {
    // Best effort "without a reconnect or resend": build a topology
    // with a lossy UGNI hop and verify the store simply sees fewer rows.
    let net = LdmsNetwork::build(
        &["nid00040".to_string()],
        &NetworkOpts {
            faults: FaultScript::new().link_drop_every("nid00040", 4),
            ..NetworkOpts::default()
        },
    );

    let cluster = DsosCluster::new(2);
    let store = DsosStreamStore::new(cluster.clone(), Some(net.ledger().clone()), None);
    net.l2().subscribe(DEFAULT_STREAM_TAG, store.clone());

    for i in 0..20 {
        net.publish(connector_msg(1_650_000_000.0 + i as f64));
    }
    assert_eq!(store.ingested(), 15); // every 4th dropped on the wire
    assert_eq!(store.rejected(), 0);
    assert_eq!(cluster.object_count("darshan"), 15);
    // The drops are attributed, not silent, in the network's ledger.
    assert_eq!(net.ledger().total_lost(), 5);
    assert!(net.ledger().balances());
}

#[test]
fn no_caching_means_late_subscribers_lose_history() {
    let net = LdmsNetwork::build(&["nid00040".to_string()], &NetworkOpts::default());
    net.publish(connector_msg(1.0));
    let sink = BufferSink::new();
    net.l2().subscribe(DEFAULT_STREAM_TAG, sink.clone());
    net.publish(connector_msg(2.0));
    assert_eq!(sink.len(), 1, "only the post-subscription message arrives");
    assert_eq!(net.l2().stream_stats().dropped(), 1);
}

#[test]
fn csv_store_matches_figure3_header_shape() {
    let net = LdmsNetwork::build(&["nid00040".to_string()], &NetworkOpts::default());
    let csv_store = CsvStreamStore::new();
    net.l2().subscribe(DEFAULT_STREAM_TAG, csv_store.clone());
    net.publish(connector_msg(1_650_000_000.5));
    let doc = csv_store.to_csv();
    let header = doc.lines().next().unwrap();
    assert!(header.starts_with("#module,uid,ProducerName,switches,file,rank"));
    assert!(header.ends_with("seg:npoints,seg:timestamp"));
    let row = doc.lines().nth(1).unwrap();
    assert_eq!(row.split(',').count(), 24);
}

#[test]
fn aggregation_adds_measurable_transport_delay() {
    let net = LdmsNetwork::build(&["nid00040".to_string()], &NetworkOpts::default());
    let at_l1 = BufferSink::new();
    let at_l2 = BufferSink::new();
    net.l1().subscribe(DEFAULT_STREAM_TAG, at_l1.clone());
    net.l2().subscribe(DEFAULT_STREAM_TAG, at_l2.clone());
    net.publish(connector_msg(100.0));
    let m1 = &at_l1.snapshot()[0];
    let m2 = &at_l2.snapshot()[0];
    // Site-network hop dominates: ≥250 µs beyond the UGNI hop.
    let extra = m2.recv_time.since(m1.recv_time).as_secs_f64();
    assert!(extra >= 200e-6, "L1→L2 delay {extra}");
}

#[test]
fn dsos_parallel_query_totals_match_ingest_across_daemons() {
    let cluster = DsosCluster::new(3);
    let schema = darshan_schema();
    cluster.create_container("darshan", &schema);
    let store = DsosStreamStore::new(cluster.clone(), None, None);
    for i in 0..30 {
        // Rows shard by (job, rank): ten ranks spread the 30 rows
        // across the three backends.
        store.deliver(&connector_msg_rank(1_650_000_000.0 + i as f64, i % 10));
    }
    // Rows spread across all daemons...
    for d in 0..3 {
        assert!(cluster.daemon(d).object_count() > 0);
    }
    // ...and the merged query sees all of them in (rank, time) order.
    let rows = cluster.query_prefix("darshan", "job_rank_time", &[Value::U64(9)]);
    assert_eq!(rows.len(), 30);
    let ts_col = 23; // seg_timestamp
    let keys: Vec<(u64, f64)> = rows
        .iter()
        .map(|r| (r[5].as_u64().unwrap(), r[ts_col].as_f64().unwrap()))
        .collect();
    assert!(keys.windows(2).all(|w| w[0] <= w[1]));
}
