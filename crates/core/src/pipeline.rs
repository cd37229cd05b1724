//! One-call assembly of the Figure 4 topology.
//!
//! Compute-node `ldmsd`s → head-node aggregator → remote aggregator →
//! DSOS store plugin → DSOS cluster. The experiment driver builds one
//! [`Pipeline`] per measurement campaign and hands each rank a
//! connector built with [`Pipeline::connector_for_rank`].

use crate::connector::{ConnectorConfig, DarshanConnector};
use crate::schema::{DsosStreamStore, CONTAINER};
use crate::DEFAULT_STREAM_TAG;
use darshan_sim::runtime::JobMeta;
use dsos_sim::{Completeness, DsosCluster, ReplicationConfig, Value};
use iosim_telemetry::{Telemetry, TelemetryConfig};
use iosim_time::Epoch;
use ldms_sim::{
    DeliveryLedger, FaultScript, FaultSpec, LdmsNetwork, OverloadConfig, QueueConfig,
    RecoveryReport, Topology, WalConfig,
};
use std::sync::Arc;

/// Full pipeline construction options. The defaults reproduce the
/// paper's deployment exactly: best-effort hops, no faults, store
/// attached.
#[derive(Debug, Clone)]
pub struct PipelineOpts {
    /// `dsosd` backend count for the DSOS cluster.
    pub dsosd_count: usize,
    /// Whether to subscribe the DSOS store at L2 (under
    /// [`DEFAULT_STREAM_TAG`]). Overhead campaigns that only need
    /// message counts run without a subscriber — LDMS Streams'
    /// no-caching semantics drop the payloads at L2 while every
    /// counter still ticks, keeping multi-million-event runs cheap.
    pub attach_store: bool,
    /// Retry-queue configuration applied to every aggregation hop.
    pub queue: QueueConfig,
    /// Chaos schedule the network and the DSOS cluster are built with.
    pub faults: FaultScript,
    /// Deploy a standby L1 aggregator and ranked sampler routes.
    pub standby_l1: bool,
    /// Attach a crash-durable write-ahead log to every hop.
    pub wal: Option<WalConfig>,
    /// Self-telemetry policy: `Some` builds one [`Telemetry`] hub and
    /// attaches every daemon, the connector (trace stamping), and the
    /// DSOS store to it. `None` (the default) keeps the pipeline
    /// byte-identical to the uninstrumented build.
    pub telemetry: Option<TelemetryConfig>,
    /// Overload-control policy: `Some` attaches an
    /// [`ldms_sim::OverloadController`] to every forwarding hop, adding
    /// backpressure throttling, spill-to-WAL buffering, and
    /// accuracy-bounded adaptive sampling under message storms. `None`
    /// (the default) keeps the delivery path byte-identical.
    pub overload: Option<OverloadConfig>,
    /// Replication policy for the DSOS cluster: R copies per row,
    /// acknowledged at a write quorum. The default (R=1, W=1) is the
    /// seed behaviour.
    pub replication: ReplicationConfig,
}

impl Default for PipelineOpts {
    fn default() -> Self {
        Self {
            dsosd_count: 2,
            attach_store: true,
            queue: QueueConfig::default(),
            faults: FaultScript::new(),
            standby_l1: false,
            wal: None,
            telemetry: None,
            overload: None,
            replication: ReplicationConfig::none(),
        }
    }
}

/// The assembled monitoring pipeline.
pub struct Pipeline {
    topology: Topology,
    network: Arc<LdmsNetwork>,
    cluster: Arc<DsosCluster>,
    store: Arc<DsosStreamStore>,
    telemetry: Option<Arc<Telemetry>>,
}

impl Pipeline {
    /// Builds the pipeline for the given compute nodes, complete:
    /// per-hop retry-queue configuration, crash-recovery machinery
    /// (standby aggregator, write-ahead logs), telemetry, overload
    /// control, the replicated DSOS cluster, and the chaos schedule.
    pub fn build_with(node_names: &[String], opts: &PipelineOpts) -> Self {
        let telemetry = opts.telemetry.map(Telemetry::new);
        let paper = Topology::paper(node_names, opts.standby_l1);
        let mut topology = Topology {
            faults: opts.faults.clone(),
            ..paper.with_hops(&opts.queue, opts.wal.as_ref(), opts.overload.as_ref())
        };
        if opts.attach_store {
            let l2 = topology.resolve("l2").expect("the paper graph has an L2");
            topology.daemons[l2]
                .subscribers
                .push(DEFAULT_STREAM_TAG.to_string());
        }
        let network = Arc::new(
            LdmsNetwork::build(&topology, telemetry.as_ref())
                .unwrap_or_else(|e| panic!("the paper graph builds: {e}")),
        );
        let cluster = DsosCluster::new_replicated(opts.dsosd_count, opts.replication)
            .unwrap_or_else(|e| panic!("invalid pipeline replication policy: {e}"));
        for spec in topology.faults.specs() {
            match spec {
                FaultSpec::CrashDsosd { daemon, at } => {
                    if let Some(i) = cluster.resolve_daemon(daemon) {
                        cluster.crash_dsosd(i, *at);
                    }
                }
                FaultSpec::RestartDsosd { daemon, at } => {
                    if let Some(i) = cluster.resolve_daemon(daemon) {
                        cluster.restart_dsosd(i, *at);
                    }
                }
                _ => {}
            }
        }
        let store = DsosStreamStore::new(
            cluster.clone(),
            Some(network.ledger().clone()),
            telemetry.as_ref(),
        );
        if let Some(tel) = &telemetry {
            cluster.attach_telemetry(tel);
        }
        for (daemon, spec) in network.daemons().iter().zip(&topology.daemons) {
            for tag in &spec.subscribers {
                daemon.subscribe(tag, store.clone());
            }
        }
        Self {
            topology,
            network,
            cluster,
            store,
            telemetry,
        }
    }

    /// The telemetry hub shared by the network, connectors, and store
    /// (when enabled via [`PipelineOpts::telemetry`]).
    pub fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        self.telemetry.as_ref()
    }

    /// The daemon graph and fault script the pipeline was built from.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The LDMS aggregation network.
    pub fn network(&self) -> &Arc<LdmsNetwork> {
        &self.network
    }

    /// The DSOS cluster.
    pub fn cluster(&self) -> &Arc<DsosCluster> {
        &self.cluster
    }

    /// The DSOS store plugin.
    pub fn store(&self) -> &Arc<DsosStreamStore> {
        &self.store
    }

    /// The network-wide delivery ledger.
    pub fn ledger(&self) -> &Arc<DeliveryLedger> {
        self.network.ledger()
    }

    /// Runs the network to quiescence: drains retry queues up to
    /// `horizon` in virtual time, then abandons (and attributes)
    /// whatever is still parked. Afterwards the ledger balances:
    /// `published == delivered + total_lost`. Returns the number of
    /// abandoned messages.
    ///
    /// Also runs the DSOS anti-entropy pass: every scripted `dsosd`
    /// restart up to `horizon` rebuilds the returning daemon's shards
    /// from live peers, so post-settle queries see the recovered store.
    pub fn settle(&self, horizon: Epoch) -> usize {
        let abandoned = self.network.settle(horizon);
        self.cluster.recover(horizon);
        abandoned
    }

    /// Completeness report for the event container as of `at`:
    /// quorum-acked rows, rows provably unavailable given the fault
    /// schedule, and per-shard liveness.
    pub fn store_completeness(&self, at: Epoch) -> Completeness {
        self.cluster.completeness(CONTAINER, at)
    }

    /// Builds the connector instance for one rank.
    pub fn connector_for_rank(
        &self,
        config: ConnectorConfig,
        job: Arc<JobMeta>,
        producer: String,
    ) -> Arc<DarshanConnector> {
        DarshanConnector::with_telemetry(
            config,
            job,
            producer,
            self.network.clone(),
            self.telemetry.clone(),
        )
    }

    /// Convenience query: all stored events of a job in
    /// `(rank, timestamp)` order.
    pub fn events_of_job(&self, job_id: u64) -> Vec<Vec<Value>> {
        self.cluster
            .query_prefix(CONTAINER, "job_rank_time", &[Value::U64(job_id)])
    }

    /// Total events stored.
    pub fn stored_events(&self) -> usize {
        self.cluster.object_count(CONTAINER)
    }

    /// All summary-sketch rows of a job in `(rank, window)` order
    /// (empty unless an overload controller degraded into sampling).
    pub fn summaries_of_job(&self, job_id: u64) -> Vec<Vec<Value>> {
        self.cluster.query_prefix(
            crate::schema::SUMMARY_CONTAINER,
            "job_rank_window",
            &[Value::U64(job_id)],
        )
    }

    /// Total summary sketches stored.
    pub fn stored_summaries(&self) -> usize {
        self.cluster.object_count(crate::schema::SUMMARY_CONTAINER)
    }

    /// Aggregated crash-recovery counters for the run (all zero on the
    /// default fault-free path).
    pub fn recovery_report(&self) -> RecoveryReport {
        self.network.recovery_report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::column_id;
    use darshan_sim::hooks::EventSink;
    use darshan_sim::{ModuleId, OpKind};
    use iosim_time::{Clock, Epoch, SimDuration};

    #[test]
    fn full_pipeline_event_to_queryable_row() {
        let nodes = vec!["nid00040".to_string(), "nid00041".to_string()];
        let p = Pipeline::build_with(&nodes, &PipelineOpts::default());
        let job = JobMeta::new(555, 10, "/apps/demo", 2);
        let mut clock = Clock::new(Epoch::from_secs(1_650_000_000));

        for rank in 0..2u32 {
            let conn = p.connector_for_rank(
                ConnectorConfig::default(),
                job.clone(),
                format!("nid{:05}", 40 + rank),
            );
            let start = clock.time_pair();
            clock.advance(SimDuration::from_millis(3));
            let ev = darshan_sim::IoEvent {
                module: ModuleId::Posix,
                op: OpKind::Write,
                file: "/scratch/a.dat".into(),
                record_id: 9,
                rank,
                len: 128,
                offset: 0,
                start,
                end: clock.time_pair(),
                dur: 0.003,
                cnt: 1,
                switches: 0,
                flushes: -1,
                max_byte: 127,
                hdf5: None,
            };
            conn.on_event(&ev, &mut clock);
        }

        assert_eq!(p.stored_events(), 2);
        let rows = p.events_of_job(555);
        assert_eq!(rows.len(), 2);
        // Ordered by rank under job_rank_time.
        assert_eq!(rows[0][column_id("rank")], Value::U64(0));
        assert_eq!(rows[1][column_id("rank")], Value::U64(1));
        assert_eq!(
            rows[0][column_id("ProducerName")],
            Value::Str("nid00040".into())
        );
        assert_eq!(p.store().rejected(), 0);
    }

    #[test]
    fn events_of_missing_job_is_empty() {
        let p = Pipeline::build_with(
            &["nid00001".to_string()],
            &PipelineOpts {
                dsosd_count: 1,
                ..PipelineOpts::default()
            },
        );
        assert!(p.events_of_job(1).is_empty());
        assert_eq!(p.stored_events(), 0);
    }
}
