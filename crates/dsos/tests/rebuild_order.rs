//! A replica rebuilt by anti-entropy, or filled by read repair, answers
//! equal-key rows in the order they were first ingested — not in
//! whatever order the bookkeeping was walked or a merge met them in.
//! Rebuild and repair find a row's copies by its id in its container,
//! also on a shard that took older rows after newer ones, and in a
//! container whose ingests were interleaved with another's.

use dsos_sim::{Completeness, DsosCluster, ReplicationConfig, Schema, Type, Value};
use iosim_time::Epoch;
use std::sync::Arc;

const ROWS: u64 = 32;

fn ms(ms: u64) -> Epoch {
    Epoch::from_nanos(ms * 1_000_000)
}

fn schema() -> Arc<Schema> {
    Schema::builder("t")
        .attr("job", Type::U64)
        .attr("rank", Type::U64)
        .attr("ts", Type::F64)
        .attr("n", Type::U64)
        .index("jrt", &["job", "rank", "ts"])
        .build()
        .unwrap()
}

fn cluster(daemons: usize, cfg: ReplicationConfig) -> Arc<DsosCluster> {
    let cluster = DsosCluster::new_replicated(daemons, cfg).unwrap();
    cluster.create_container("c", &schema());
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

/// Ingests one row of key `(1, 0, 5.0)` and payload `n` into each of
/// `containers` in turn, for each `n`, at `t`, where `acked` daemons
/// are up.
fn ingest_into(cluster: &DsosCluster, containers: &[&str], n: &[u64], t: Epoch, acked: usize) {
    for &n in n {
        for c in containers {
            let row = vec![Value::U64(1), Value::U64(0), Value::F64(5.0), Value::U64(n)];
            assert_eq!(cluster.ingest_at(c, row, t).unwrap().acked, acked);
        }
    }
}

/// A query's payloads, in order, and what its report counts: rows,
/// suppressed copies, acknowledged and reachable rows, dead daemons,
/// repairs and degraded shards.
fn answer(cluster: &DsosCluster, container: &str, at: Epoch) -> (Vec<u64>, [u64; 7]) {
    let (rows, c): (_, Completeness) = cluster.query_prefix_at(container, "jrt", &[], at);
    let payloads = rows.iter().map(|row| row[3].as_u64().unwrap()).collect();
    let counts = [
        c.rows_returned as u64,
        c.duplicates_suppressed,
        c.acked_rows,
        c.acked_reachable,
        c.dead_daemons as u64,
        c.read_repairs,
        c.degraded_shards.len() as u64,
    ];
    (payloads, counts)
}

#[test]
fn a_second_crash_after_a_rebuild_finds_copies_out_of_id_order() {
    // Rows A (payloads 0..4) land on daemon 1 alone, rows B (4..8) on
    // daemon 0 alone. Daemon 0's restart rebuild appends A after B, so
    // its row ids stop ascending, and rows C (8..12) land after them.
    // Daemon 1's second crash window then makes its rebuild look for C,
    // whose one copy sits past that descent; daemon 2, down until the
    // end, is rebuilt last. Rows D (12..16) miss daemon 0, and a query
    // repairs them onto it.
    let cluster = cluster(3, ReplicationConfig::new(3).with_quorum(1));
    let windows = [(2, 0, 1_000), (0, 0, 50), (1, 55, 100), (1, 125, 200)];
    for (d, from, until) in windows.into_iter().chain([(0, 1_150, 1_250)]) {
        cluster.crash_dsosd(d, ms(from));
        cluster.restart_dsosd(d, ms(until));
    }
    let rows = |from: u64| (from..from + 4).collect::<Vec<u64>>();
    ingest_into(&cluster, &["c"], &rows(0), ms(10), 1);
    ingest_into(&cluster, &["c"], &rows(4), ms(60), 1);
    assert_eq!(cluster.recover(ms(110)), 12);
    ingest_into(&cluster, &["c"], &rows(8), ms(150), 1);
    assert_eq!(cluster.recover(ms(1_100)), 24);
    ingest_into(&cluster, &["c"], &rows(12), ms(1_200), 2);
    let all: Vec<u64> = (0..16).collect();
    assert_eq!(
        answer(&cluster, "c", ms(1_300)),
        (all.clone(), [16, 28, 16, 16, 0, 4, 0])
    );
    assert_eq!(
        answer(&cluster, "c", ms(1_300)),
        (all.clone(), [16, 32, 16, 16, 0, 0, 0])
    );
    // Each daemon alone answers in the order it took the rows.
    let alone = |d: usize, from: u64| {
        for other in (0..3).filter(|&o| o != d) {
            cluster.crash_dsosd(other, ms(from));
            cluster.restart_dsosd(other, ms(from + 100));
        }
        answer(&cluster, "c", ms(from + 50))
    };
    let d0: Vec<u64> = [4, 0, 8, 12].iter().flat_map(|&from| rows(from)).collect();
    assert_eq!(alone(0, 2_000), (d0, [16, 0, 16, 16, 2, 0, 12]));
    assert_eq!(alone(1, 3_000), (all.clone(), [16, 0, 16, 16, 2, 0, 12]));
    assert_eq!(alone(2, 4_000), (all, [16, 0, 16, 16, 2, 0, 12]));
}

#[test]
fn interleaved_containers_rebuild_and_repair_by_their_own_row_ids() {
    // Every row goes to two containers in turn, so a row's id in
    // either is half its place in the cluster's ingest order. Daemon 1
    // misses both batches: its restart rebuilds the first, a query
    // repairs the second, and it answers alone once daemon 0 is gone.
    let cluster = cluster(2, ReplicationConfig::new(2).with_quorum(1));
    cluster.create_container("d", &schema());
    for (from, until) in [(0, 100), (300, 400)] {
        cluster.crash_dsosd(1, ms(from));
        cluster.restart_dsosd(1, ms(until));
    }
    cluster.crash_dsosd(0, ms(500));
    let first: Vec<u64> = (0..ROWS / 2).rev().collect();
    let second: Vec<u64> = (ROWS / 2..ROWS).collect();
    ingest_into(&cluster, &["c", "d"], &first, ms(10), 1);
    ingest_into(&cluster, &["c", "d"], &second, ms(350), 1);
    assert_eq!(cluster.recover(ms(150)), ROWS);
    let both: Vec<u64> = first.iter().chain(&second).copied().collect();
    let half = ROWS / 2;
    for container in ["c", "d"] {
        assert_eq!(
            answer(&cluster, container, ms(450)),
            (both.clone(), [ROWS, ROWS / 2, ROWS, ROWS, 0, half, 0])
        );
        assert_eq!(
            answer(&cluster, container, ms(600)),
            (both.clone(), [ROWS, 0, ROWS, ROWS, 1, 0, 8])
        );
    }
}
