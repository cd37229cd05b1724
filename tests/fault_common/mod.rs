//! Shared fault-injection scenario machinery, `#[path]`-included by
//! both `failure_injection.rs` (deterministic multi-seed sweeps) and
//! `props.rs` (property-based transcription of the same invariants).
#![allow(dead_code)]

use repro_suite::connector::{
    column_id, FaultScript, OverflowPolicy, OverloadConfig, Pipeline, PipelineOpts, QueueConfig,
    WalConfig, DEFAULT_STREAM_TAG,
};
use repro_suite::dsos::Value;
use repro_suite::ldms::batch::{encode_frame, FrameRecord};
use repro_suite::ldms::{MsgFormat, SimRng, StreamMessage};
use repro_suite::simtime::{Epoch, SimDuration};
use repro_suite::telemetry::TelemetryConfig;
use std::collections::HashSet;

/// The stream tag scenarios publish under.
pub const TAG: &str = DEFAULT_STREAM_TAG;

/// Virtual start of every scenario's publish phase.
pub fn base_epoch() -> Epoch {
    Epoch::from_secs(100)
}

/// Compute-node names `nid00000..`.
pub fn node_names(n: u64) -> Vec<String> {
    (0..n).map(|i| format!("nid{i:05}")).collect()
}

/// A connector-shaped JSON payload the DSOS store can ingest, carrying
/// the `(job_id, rank)` key gap detection needs.
pub fn payload(producer: &str, job_id: u64, rank: u64, ts: f64) -> String {
    format!(
        concat!(
            r#"{{"uid":99066,"exe":"/apps/t","file":"/scratch/o.dat","job_id":{},"#,
            r#""rank":{},"ProducerName":"{}","record_id":42,"module":"POSIX","type":"MOD","#,
            r#""max_byte":4095,"switches":0,"flushes":-1,"cnt":1,"op":"write","#,
            r#""seg":[{{"data_set":"N/A","pt_sel":-1,"irreg_hslab":-1,"reg_hslab":-1,"#,
            r#""ndims":-1,"npoints":-1,"off":0,"len":4096,"dur":0.005,"timestamp":{}}}]}}"#
        ),
        job_id, rank, producer, ts
    )
}

/// One fault-injection scenario: a topology, a publish workload, a
/// per-hop queue configuration, and a chaos script.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Compute-node count.
    pub nodes: u64,
    /// Sequence-stamped messages published per node.
    pub msgs_per_node: u64,
    /// Retry-queue configuration for every hop.
    pub queue: QueueConfig,
    /// Faults applied before publishing.
    pub script: FaultScript,
    /// Settle horizon, seconds past the base epoch.
    pub slack_s: u64,
    /// Deploy the standby L1 aggregator (heartbeat failover routes).
    pub standby: bool,
    /// Crash-durable write-ahead log attached to every hop.
    pub wal: Option<WalConfig>,
    /// Overload controller attached to every forwarding hop (`None`
    /// keeps the delivery path byte-identical to the seed pipeline).
    pub overload: Option<OverloadConfig>,
}

/// What a scenario run produced, reduced to the accounting numbers the
/// invariants are stated over.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Messages the scenario pushed into the network.
    pub published: u64,
    /// Messages the ledger saw enter the network.
    pub ledger_published: u64,
    /// Events the DSOS store holds (1 per delivered message).
    pub stored: u64,
    /// Messages the ledger attributes as lost, all hops and causes.
    pub lost: u64,
    /// Event mass delivered at summary fidelity — bulk events the
    /// overload sampler folded into sketches that reached the store.
    pub summarized: u64,
    /// Sequence gaps the store detected.
    pub missing: u64,
    /// `published == delivered + lost + summarized` per the ledger.
    pub balances: bool,
}

/// Assembles a scenario's pipeline, optionally with self-telemetry
/// (tracing every message, so latency percentiles are exact).
fn build_pipeline(sc: &Scenario, telemetry: bool) -> Pipeline {
    let nodes = node_names(sc.nodes);
    Pipeline::build_with(
        &nodes,
        &PipelineOpts {
            dsosd_count: 1,
            attach_store: true,
            queue: sc.queue.clone(),
            faults: sc.script.clone(),
            standby_l1: sc.standby,
            wal: sc.wal.clone(),
            overload: sc.overload.clone(),
            telemetry: telemetry.then(TelemetryConfig::trace_all),
            ..PipelineOpts::default()
        },
    )
}

/// Publishes the scenario workload one message per wire frame.
fn publish_unbatched(p: &Pipeline, sc: &Scenario) -> u64 {
    let nodes = node_names(sc.nodes);
    let base = base_epoch();
    let mut published = 0u64;
    for i in 0..sc.msgs_per_node {
        for (n_idx, name) in nodes.iter().enumerate() {
            let t = base + SimDuration::from_millis(i * 10 + n_idx as u64);
            let data = payload(name, 7, n_idx as u64, t.as_secs_f64());
            p.network().publish(
                StreamMessage::new(TAG, MsgFormat::Json, data, name, t)
                    .with_seq(i + 1)
                    .with_origin(7, n_idx as u64),
            );
            published += 1;
        }
    }
    published
}

/// Reduces a settled pipeline to the accounting numbers.
fn reduce_outcome(p: &Pipeline, published: u64) -> Outcome {
    Outcome {
        published,
        ledger_published: p.ledger().published(),
        stored: p.stored_events() as u64,
        lost: p.ledger().total_lost(),
        summarized: p.ledger().summarized(),
        missing: p.store().total_missing(),
        balances: p.ledger().balances(),
    }
}

/// Runs a scenario to quiescence and returns the pipeline (for
/// cause/hop-level queries) plus the reduced outcome.
pub fn run_scenario(sc: &Scenario) -> (Pipeline, Outcome) {
    let p = build_pipeline(sc, false);
    let published = publish_unbatched(&p, sc);
    p.settle(base_epoch() + SimDuration::from_secs(sc.slack_s));
    let outcome = reduce_outcome(&p, published);
    (p, outcome)
}

/// Runs a scenario with frame batching: each node's sequence-stamped
/// messages coalesce into frames of `frame` records (the last frame
/// may run short), published at the last member's instant — the same
/// framing the connector produces. The outcome stays in *logical*
/// messages: a dropped frame counts every record it carried.
pub fn run_batched_scenario(sc: &Scenario, frame: usize) -> (Pipeline, Outcome) {
    let p = build_pipeline(sc, false);
    let published = publish_batched(&p, sc, frame);
    p.settle(base_epoch() + SimDuration::from_secs(sc.slack_s));
    let outcome = reduce_outcome(&p, published);
    (p, outcome)
}

/// Runs a scenario with self-telemetry enabled (every message traced),
/// batched when `frame` is given — for harnesses that gate observed
/// queue depths, WAL high-water marks, and latency percentiles against
/// static predictions.
pub fn run_instrumented_scenario(sc: &Scenario, frame: Option<usize>) -> (Pipeline, Outcome) {
    let p = build_pipeline(sc, true);
    let published = match frame {
        Some(f) => publish_batched(&p, sc, f),
        None => publish_unbatched(&p, sc),
    };
    p.settle(base_epoch() + SimDuration::from_secs(sc.slack_s));
    let outcome = reduce_outcome(&p, published);
    (p, outcome)
}

/// Publishes the scenario workload coalesced into `frame`-record wire
/// frames (the framing `run_batched_scenario` documents).
fn publish_batched(p: &Pipeline, sc: &Scenario, frame: usize) -> u64 {
    assert!(frame >= 1);
    let nodes = node_names(sc.nodes);
    let base = base_epoch();
    let mut published = 0u64;
    for (n_idx, name) in nodes.iter().enumerate() {
        let mut records: Vec<FrameRecord> = Vec::new();
        let mut last_t = base;
        let flush = |records: &mut Vec<FrameRecord>, at: Epoch| {
            if records.is_empty() {
                return;
            }
            let count = records.len() as u32;
            p.network().publish(
                StreamMessage::new(TAG, MsgFormat::Json, encode_frame(records), name, at)
                    .with_origin(7, n_idx as u64)
                    .with_batch(count),
            );
            records.clear();
        };
        for i in 0..sc.msgs_per_node {
            let t = base + SimDuration::from_millis(i * 10 + n_idx as u64);
            last_t = t;
            records.push(FrameRecord {
                seq: Some(i + 1),
                payload: payload(name, 7, n_idx as u64, t.as_secs_f64()),
            });
            published += 1;
            if records.len() >= frame {
                flush(&mut records, t);
            }
        }
        flush(&mut records, last_t);
    }
    published
}

/// The end-to-end loss-accounting invariants every scenario must
/// satisfy once settled, regardless of queue configuration or faults.
pub fn check_invariants(o: &Outcome) -> Result<(), String> {
    if o.ledger_published != o.published {
        return Err(format!(
            "ledger saw {} published, scenario pushed {}",
            o.ledger_published, o.published
        ));
    }
    if !o.balances {
        return Err(format!(
            "ledger does not balance: published={} stored={} lost={} summarized={}",
            o.published, o.stored, o.lost, o.summarized
        ));
    }
    if o.stored + o.lost + o.summarized != o.published {
        return Err(format!(
            "published ({}) != stored ({}) + attributed losses ({}) + summarized ({})",
            o.published, o.stored, o.lost, o.summarized
        ));
    }
    // Folded events vanish from the store's per-publisher sequence
    // space just like lost ones — gap detection cannot claim more
    // missing than the ledger accounts for either way.
    if o.missing > o.lost + o.summarized {
        return Err(format!(
            "gap detection reports {} missing but only {} were lost and {} summarized",
            o.missing, o.lost, o.summarized
        ));
    }
    Ok(())
}

/// Asserts idempotent ingest: no two DSOS rows of the job share the
/// `(ProducerName, rank, seg_timestamp)` identity, i.e. WAL replay
/// after a crash never double-stores a message. Scenario runs publish
/// under job id 7.
pub fn check_no_duplicate_rows(p: &Pipeline, job_id: u64) -> Result<(), String> {
    let mut seen: HashSet<(String, u64, u64)> = HashSet::new();
    for row in p.events_of_job(job_id) {
        let producer = match &row[column_id("ProducerName")] {
            Value::Str(s) => s.clone(),
            v => return Err(format!("non-string ProducerName: {v:?}")),
        };
        let rank = match row[column_id("rank")] {
            Value::U64(r) => r,
            ref v => return Err(format!("non-u64 rank: {v:?}")),
        };
        let ts = match row[column_id("seg_timestamp")] {
            Value::F64(t) => t.to_bits(),
            ref v => return Err(format!("non-f64 seg_timestamp: {v:?}")),
        };
        if !seen.insert((producer.clone(), rank, ts)) {
            return Err(format!(
                "duplicate DSOS row for producer={producer} rank={rank}"
            ));
        }
    }
    Ok(())
}

/// Derives a full scenario deterministically from one seed: topology
/// size, workload length, queue configuration (all four policies), and
/// up to two faults drawn from every [`FaultScript`] constructor.
pub fn random_scenario(seed: u64) -> Scenario {
    let mut rng = SimRng::new(seed);
    let nodes = 1 + rng.next_u64() % 3;
    let msgs_per_node = 5 + rng.next_u64() % 26;
    let queue = match rng.next_u64() % 4 {
        0 => QueueConfig::best_effort(),
        1 => QueueConfig::reliable().with_seed(rng.next_u64()),
        2 => QueueConfig::reliable()
            .with_capacity(2)
            .with_seed(rng.next_u64()),
        _ => QueueConfig::reliable()
            .with_policy(OverflowPolicy::BlockWithDeadline(SimDuration::from_millis(
                50,
            )))
            .with_seed(rng.next_u64()),
    };
    // Crash-recovery machinery is drawn independently of the faults so
    // crashes run both with and without a WAL / standby route.
    let standby = rng.next_u64() % 3 == 0;
    let wal = match rng.next_u64() % 3 {
        0 => None,
        1 => Some(WalConfig::durable()),
        // A lazily-fsynced WAL: crashes legitimately lose the unsynced
        // tail, which must then be attributed, not replayed.
        _ => Some(WalConfig::durable().with_fsync_every(8)),
    };
    // Overload controller on half the scenarios: scenarios publish at
    // ~100 msg/s per node, so a service rate drawn from 5..55 msg/s is
    // heavily oversubscribed (the ladder must escalate into sampling)
    // while 500+ msg/s never leaves Normal — both paths must conserve.
    let overload = match rng.next_u64() % 4 {
        0 | 1 => None,
        2 => Some(
            OverloadConfig::for_rate(5.0 + (rng.next_u64() % 50) as f64)
                .with_window(SimDuration::from_millis(50 + rng.next_u64() % 200)),
        ),
        _ => Some(OverloadConfig::for_rate(
            500.0 + (rng.next_u64() % 1000) as f64,
        )),
    };
    // Fault windows overlap the publish span (10 ms per message step).
    let span_ms = msgs_per_node * 10 + 10;
    let mut script = FaultScript::new();
    for _ in 0..rng.next_u64() % 3 {
        let target = match rng.next_u64() % 3 {
            0 => "l1".to_string(),
            1 => "l2".to_string(),
            _ => format!("nid{:05}", rng.next_u64() % nodes),
        };
        let from = base_epoch() + SimDuration::from_millis(rng.next_u64() % span_ms);
        let until = from + SimDuration::from_millis(1 + rng.next_u64() % 200);
        script = match rng.next_u64() % 5 {
            0 => script.daemon_outage(&target, from, until),
            1 => script.link_flap(&target, from, until),
            2 => script.link_loss_prob(&target, 0.1 + 0.4 * rng.next_f64(), rng.next_u64()),
            3 => script.link_drop_every(&target, 2 + rng.next_u64() % 4),
            // Crash-stop: volatile state dies at `from`, the daemon
            // restarts (and replays its WAL, if any) at `until`.
            _ => script.crash(&target, from, until),
        };
    }
    Scenario {
        nodes,
        msgs_per_node,
        queue,
        script,
        slack_s: 60,
        standby,
        wal,
        overload,
    }
}
