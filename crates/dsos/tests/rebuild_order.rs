//! A replica rebuilt by anti-entropy, or filled by read repair, answers
//! equal-key rows in the order they were first ingested — not in
//! whatever order the bookkeeping was walked or a merge met them in.

use dsos_sim::{DsosCluster, ReplicationConfig, Schema, Type, Value};
use iosim_time::Epoch;
use std::sync::Arc;

const ROWS: u64 = 32;

fn ms(ms: u64) -> Epoch {
    Epoch::from_nanos(ms * 1_000_000)
}

fn cluster(daemons: usize, cfg: ReplicationConfig) -> Arc<DsosCluster> {
    let schema = Schema::builder("t")
        .attr("job", Type::U64)
        .attr("rank", Type::U64)
        .attr("ts", Type::F64)
        .attr("n", Type::U64)
        .index("jrt", &["job", "rank", "ts"])
        .build()
        .unwrap();
    let cluster = DsosCluster::new_replicated(daemons, cfg).unwrap();
    cluster.create_container("c", &schema);
    cluster
}

/// Ingests rows that all share one `(job, rank, ts)` key and carry the
/// payloads `n`, in that order, onto the one daemon that is up at `t`.
fn ingest(cluster: &DsosCluster, n: impl Iterator<Item = u64>, t: Epoch) {
    for n in n {
        let row = vec![Value::U64(1), Value::U64(0), Value::F64(5.0), Value::U64(n)];
        assert_eq!(cluster.ingest_at("c", row, t).unwrap().acked, 1);
    }
}

/// The payloads a query at `at` returns, in order.
fn payloads(cluster: &DsosCluster, at: Epoch) -> Vec<u64> {
    let (rows, _) = cluster.query_prefix_at("c", "jrt", &[], at);
    rows.iter().map(|row| row[3].as_u64().unwrap()).collect()
}

#[test]
fn a_rebuilt_replica_answers_equal_keys_in_ingest_order() {
    // Daemon 1 is down while the rows are written and rebuilt from
    // daemon 0 at its restart; then daemon 0 is gone for good.
    let cluster = cluster(2, ReplicationConfig::new(2));
    cluster.crash_dsosd(1, ms(0));
    cluster.restart_dsosd(1, ms(100));
    ingest(&cluster, 0..ROWS, ms(10));
    assert_eq!(cluster.recover(ms(150)), ROWS);
    cluster.crash_dsosd(0, ms(200));
    assert_eq!(payloads(&cluster, ms(300)), (0..ROWS).collect::<Vec<_>>());
}

#[test]
fn a_read_repaired_replica_answers_equal_keys_in_ingest_order() {
    // Three replicas. The first half of the rows, payloads counting
    // down, lands on daemon 0 alone, the second half on daemon 1 alone,
    // daemon 2 misses both. With everyone up a query merges the two by
    // content — daemon 1's half first — and repairs daemon 2.
    let cluster = cluster(3, ReplicationConfig::new(3).with_quorum(1));
    for (d, from) in [(1, 0), (2, 0), (0, 200), (2, 200)] {
        cluster.crash_dsosd(d, ms(from));
        cluster.restart_dsosd(d, ms(from + 100));
    }
    let ingested: Vec<u64> = (0..ROWS).rev().collect();
    ingest(&cluster, (ROWS / 2..ROWS).rev(), ms(10));
    ingest(&cluster, (0..ROWS / 2).rev(), ms(210));
    let merged: Vec<u64> = (0..ROWS / 2).rev().chain((ROWS / 2..ROWS).rev()).collect();
    assert_eq!(payloads(&cluster, ms(400)), merged);
    // Daemon 2 alone answers in ingest order.
    cluster.crash_dsosd(0, ms(500));
    cluster.crash_dsosd(1, ms(500));
    assert_eq!(payloads(&cluster, ms(600)), ingested);
}
