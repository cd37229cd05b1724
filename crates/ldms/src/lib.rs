//! An LDMS (Lightweight Distributed Metric Service) work-alike.
//!
//! LDMS collects and transports HPC telemetry through `ldmsd` daemons:
//! sampler plugins on compute nodes, multi-hop aggregation across
//! daemon levels, and store plugins at the end of the pipeline. The
//! paper's integration leans on two LDMS capabilities, both modelled
//! here:
//!
//! * **LDMS Streams** ([`stream`]) — the publish/subscribe bus the
//!   connector publishes JSON messages to. Semantics follow Section
//!   IV.B: push-based, tag-matched, best-effort ("without a reconnect
//!   or resend"), uncached (published data is only received by parties
//!   already subscribed), and variable-length string/JSON payloads.
//! * **Transport & aggregation** ([`daemon`], [`LdmsNetwork`],
//!   [`TransportLink`]) — compute node daemons push to a first-level
//!   aggregator (the paper's head node) which pushes to a second-level
//!   aggregator on another cluster (Shirley) where the store plugin
//!   runs. The network is built complete, faults included, before the
//!   first publish.
//!
//! [`sampler`] adds conventional metric-set sampling (meminfo/vmstat
//! style) so system telemetry can be collected alongside the Darshan
//! stream, which is what enables the paper's "correlate I/O with system
//! behaviour" analyses. [`store`] defines the stream-store interface
//! and a CSV store matching Figure 3's JSON→CSV conversion.
//!
//! On top of the paper's always-up, fire-and-forget pipeline sits a
//! fault-tolerance layer: [`fault`] (daemon/link lifecycles, seeded
//! RNG, declarative chaos scripts), [`queue`] (bounded per-hop
//! store-and-forward retry queues), and [`ledger`] (end-to-end delivery
//! accounting — every published message is eventually counted exactly
//! once as delivered or as lost with a `(hop, cause)` attribution).
//! All of it is opt-in: the default [`queue::QueueConfig::best_effort`]
//! preserves the paper's semantics unchanged.
//!
//! The crash-recovery layer extends that further: [`wal`] (durable
//! write-ahead logs making retry queues survive crash-stop faults),
//! [`heartbeat`] (liveness detection policy driving standby-aggregator
//! failover), and idempotent sequence-keyed terminal delivery in
//! [`ledger`] so a WAL replay never double-counts a row. Again all
//! opt-in — with no crash scripted and no WAL configured, the pipeline
//! behaves byte-identically to the best-effort default.
//!
//! [`overload`] closes the loop on message storms: per-hop
//! backpressure watermarks over a fluid ingress meter, priority
//! classes on [`stream::StreamMessage`], spill-to-WAL buffering, and
//! accuracy-bounded adaptive sampling into first-class summary
//! sketches — every degradation step accounted in the ledger's
//! `summarized` column so conservation still balances exactly.

#![forbid(unsafe_code)]

pub mod batch;
pub mod daemon;
pub mod fault;
mod heartbeat;
pub mod ledger;
mod network;
pub mod overload;
pub mod queue;
pub mod sampler;
pub mod store;
pub mod stream;
mod transport;
mod wal;

pub use batch::{BatchConfig, FrameRecord};
pub use daemon::{DaemonRole, Ldmsd};
pub use fault::{FaultScript, FaultSpec, Lifecycle, SimRng};
pub use iosim_telemetry::{CrashDump, LatencySummary, Telemetry, TelemetryConfig};
pub use ledger::{DeliveryKey, DeliveryLedger, LossCause, LossRecord, SeqRanges, StreamSeqs};
pub use network::{LdmsNetwork, NetworkOpts, RecoveryReport};
pub use overload::{OverloadConfig, OverloadController, OverloadState, OverloadStats};
pub use queue::{OverflowPolicy, QueueConfig, RetryQueue};
pub use stream::{MsgClass, MsgFormat, StreamMessage, StreamSink, StreamStats};
pub use transport::TransportLink;
pub use wal::{WalConfig, WalRecord, WalStats, WriteAheadLog};
