//! The per-publish sweep over every daemon that the wake schedule
//! replaced, and the tests that hold the schedule to it: the same
//! ledger, sink order, queue depths, recovery report and hub event log
//! under any topology, fault script and hop configuration; no daemon
//! visited when nothing is due; no wake-up lost to a concurrent pass.

use super::*;
use crate::queue::OverflowPolicy;
use crate::stream::{MsgClass, MsgFormat, StreamSink};
use crate::{FaultScript, LdmsNetwork, OverloadConfig, RecoveryReport, Topology, WalConfig};
use iosim_telemetry::{HubConfig, HubEvent, Telemetry, TelemetryConfig};
use iosim_time::SimDuration;
use proptest::prelude::*;
use std::sync::atomic::Ordering;
use std::sync::mpsc;

impl LdmsNetwork {
    /// Pumps every daemon, in order, whether or not anything is due.
    fn sweep(&self, now: Epoch) {
        if let Some(tel) = &self.telemetry {
            tel.advance_diag(now);
        }
        for d in &self.ordered {
            d.pump(now);
        }
    }

    fn publish_by_sweep(&self, msg: StreamMessage) {
        self.note_publish(&msg);
        self.sweep(msg.recv_time);
        self.inject(msg);
    }

    /// Settles by asking every daemon for its next event before every
    /// step.
    fn settle_by_sweep(&self, horizon: Epoch) -> usize {
        loop {
            loop {
                let next = self.ordered.iter().filter_map(|d| d.next_event()).min();
                match next {
                    Some(t) if t <= horizon => self.sweep(t),
                    _ => break,
                }
            }
            let flushed: usize = self.ordered.iter().map(|d| d.flush_overload(horizon)).sum();
            if flushed == 0 {
                break;
            }
        }
        self.ordered.iter().map(|d| d.abandon_queue(horizon)).sum()
    }
}

const TAG: &str = "darshanConnector";

fn node_names(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("nid{i:05}")).collect()
}

fn ms(t: u64) -> Epoch {
    Epoch::from_nanos(100_000_000_000 + t * 1_000_000)
}

/// The drawn scenarios' unit of time. Heartbeats keep their fixed
/// 1 s beat, 3 misses and 10 s hold, so every other interval of a
/// scenario — fault windows, traffic gaps, settles, backoffs, deadlines
/// and overload windows — is dilated until a drawn outage outlasts
/// failover detection and a recovered primary outlasts the failback
/// hold.
const TICK_MS: u64 = 12;

fn tick(t: u64) -> Epoch {
    ms(t * TICK_MS)
}

fn ticks(t: u64) -> SimDuration {
    SimDuration::from_millis(t * TICK_MS)
}

/// A sink that keeps every message, in arrival order.
#[derive(Default)]
struct Recorder(Mutex<Vec<StreamMessage>>);

impl StreamSink for Recorder {
    fn deliver(&self, msg: &StreamMessage) {
        self.0.lock().push(msg.clone());
    }
}

/// Everything a run leaves behind that the schedule must not change.
#[derive(Debug, PartialEq)]
struct Outcome {
    ledger: String,
    abandoned: Vec<usize>,
    delivered: Vec<StreamMessage>,
    queue_depths: Vec<(String, usize, u64)>,
    recovery: RecoveryReport,
    overload: Vec<(String, OverloadStats)>,
    hub_events: Vec<HubEvent>,
}

/// One drawn scenario: hop configuration, fault script, traffic.
#[derive(Debug, Clone)]
struct Scenario {
    nodes: usize,
    opts: (bool, usize, usize, usize, usize),
    faults: Vec<(usize, usize, u64, u64)>,
    traffic: Vec<(usize, u64, bool)>,
    settle_after: usize,
}

impl Scenario {
    fn network(&self) -> LdmsNetwork {
        let (standby_l1, queue, wal, overload, telemetry) = self.opts;
        let reliable = QueueConfig {
            base_backoff: ticks(1),
            max_backoff: ticks(1_000),
            ..QueueConfig::reliable()
        };
        let queue = match queue {
            0 => QueueConfig::best_effort(),
            1 => reliable,
            2 => reliable.with_capacity(3),
            3 => reliable
                .with_capacity(2)
                .with_policy(OverflowPolicy::DropNewest)
                .with_max_attempts(3),
            4 => reliable
                .with_policy(OverflowPolicy::BlockWithDeadline(ticks(300)))
                .with_max_attempts(4),
            _ => reliable.with_capacity(4),
        };
        let mut targets = node_names(self.nodes);
        targets.extend(["l1", "l2", "standby"].map(String::from));
        let mut faults = FaultScript::new();
        for &(kind, target, from, dur) in &self.faults {
            let daemon = &targets[target % targets.len()];
            let again = tick(from + 2 * dur);
            let (from, until) = (tick(from), tick(from + dur));
            faults = match kind {
                0 => faults.daemon_outage(daemon, from, until),
                1 => faults.link_flap(daemon, from, until),
                2 => faults.link_loss_prob(daemon, dur as f64 / 3000.0, from.as_nanos()),
                3 => faults.link_drop_every(daemon, 2 + dur % 5),
                // A second outage starting where another may end.
                4 => faults.daemon_outage(daemon, until, again),
                _ => faults.crash(daemon, from, until),
            };
        }
        let wal = match wal {
            0 => None,
            1 => Some(WalConfig::durable()),
            _ => Some(WalConfig::group_commit().with_checkpoint_every(2)),
        };
        let telemetry = match telemetry {
            0 => None,
            1 => Some(Telemetry::new(TelemetryConfig::metrics_only())),
            _ => Some(Telemetry::new(TelemetryConfig::trace_all().with_hub(
                HubConfig {
                    snapshot_every_s: 1,
                },
            ))),
        };
        let overload = match overload {
            0 => None,
            1 => Some(OverloadConfig::for_rate(1e6)),
            _ => Some(
                OverloadConfig {
                    service_rate: 5.0 / TICK_MS as f64,
                    ..OverloadConfig::for_rate(5.0)
                }
                .with_window(ticks(200))
                .with_propagation(ticks(20)),
            ),
        };
        let graph = Topology::paper(&node_names(self.nodes), standby_l1).with_hops(
            &queue,
            wal.as_ref(),
            overload.as_ref(),
        );
        LdmsNetwork::build(&Topology { faults, ..graph }, telemetry.as_ref())
            .expect("the paper graph builds")
    }

    /// Publishes the traffic, settling once part-way and once at the
    /// end, through `publish` and `settle`.
    fn run(
        &self,
        publish: impl Fn(&LdmsNetwork, StreamMessage),
        settle: impl Fn(&LdmsNetwork, Epoch) -> usize,
    ) -> Outcome {
        let net = self.network();
        let sink = Arc::new(Recorder::default());
        net.l2().subscribe(TAG, sink.clone());
        let mut abandoned = Vec::new();
        let mut now = 0u64;
        let mut seqs = vec![0u64; self.nodes + 1];
        for (i, &(node, gap, meta)) in self.traffic.iter().enumerate() {
            if i == self.settle_after {
                abandoned.push(settle(&net, tick(now + 150)));
            }
            now += gap;
            // One past the last node is a producer the network does
            // not know: it enters at L1.
            let node = node % (self.nodes + 1);
            seqs[node] += 1;
            let trace = net
                .telemetry
                .as_ref()
                .and_then(|tel| tel.sample(7, node as u64, seqs[node]));
            let payload = format!("{{\"len\":{},\"dur\":0.002}}", 64 + i);
            let class = if meta { MsgClass::Meta } else { MsgClass::Bulk };
            let msg = StreamMessage::new(
                TAG,
                MsgFormat::Json,
                payload,
                &format!("nid{node:05}"),
                tick(now),
            )
            .with_seq(seqs[node])
            .with_origin(7, node as u64)
            .with_trace(trace)
            .with_class(class);
            publish(&net, msg);
        }
        abandoned.push(settle(&net, tick(now + 2_000)));
        assert!(net.ledger().balances(), "{}", net.ledger().summary());
        let delivered = std::mem::take(&mut *sink.0.lock());
        Outcome {
            ledger: net.ledger().summary(),
            abandoned,
            delivered,
            queue_depths: net.queue_depths(),
            recovery: net.recovery_report(),
            overload: net.overload_stats(),
            hub_events: net
                .telemetry
                .as_ref()
                .and_then(|tel| tel.diag())
                .map_or(Vec::new(), |hub| hub.events()),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn schedule_driven_runs_equal_the_sweep(
        nodes in 1usize..6,
        opts in (any::<bool>(), 0usize..6, 0usize..3, 0usize..3, 0usize..3),
        faults in prop::collection::vec((0usize..8, 0usize..9, 0u64..4_000, 1u64..1_200), 0..8),
        traffic in prop::collection::vec((0usize..7, 0u64..60, any::<bool>()), 1..140),
        settle_after in 0usize..140,
    ) {
        let scenario = Scenario { nodes, opts, faults, traffic, settle_after };
        let swept = scenario.run(LdmsNetwork::publish_by_sweep, LdmsNetwork::settle_by_sweep);
        let scheduled = scenario.run(LdmsNetwork::publish, LdmsNetwork::settle);
        // Field by field first, for a failure one can read.
        prop_assert_eq!(&scheduled.ledger, &swept.ledger, "{:?}", scenario);
        prop_assert_eq!(&scheduled.abandoned, &swept.abandoned, "{:?}", scenario);
        prop_assert_eq!(&scheduled.queue_depths, &swept.queue_depths, "{:?}", scenario);
        prop_assert_eq!(&scheduled.recovery, &swept.recovery, "{:?}", scenario);
        prop_assert_eq!(&scheduled.overload, &swept.overload, "{:?}", scenario);
        prop_assert_eq!(&scheduled.hub_events, &swept.hub_events, "{:?}", scenario);
        prop_assert_eq!(scheduled, swept, "{:?}", scenario);
    }
}

#[test]
fn the_differential_scenarios_reach_every_mechanism() {
    // The proptest above proves nothing if its scenarios never park,
    // crash, replay, fail over or fold: count what a sample of them do.
    let mut seen = RecoveryReport::default();
    let (mut parked, mut summarized, mut health, mut abandoned) = (0, 0, 0, 0);
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut draw = |n: u64| {
        // splitmix64
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    };
    for _ in 0..256 {
        let scenario = Scenario {
            nodes: 1 + draw(5) as usize,
            opts: (
                draw(2) == 0,
                draw(6) as usize,
                draw(3) as usize,
                draw(3) as usize,
                draw(3) as usize,
            ),
            faults: (0..draw(8))
                .map(|_| {
                    (
                        draw(8) as usize,
                        draw(9) as usize,
                        draw(4_000),
                        1 + draw(1_199),
                    )
                })
                .collect(),
            traffic: (0..1 + draw(139))
                .map(|_| (draw(7) as usize, draw(60), draw(2) == 0))
                .collect(),
            settle_after: draw(140) as usize,
        };
        let out = scenario.run(LdmsNetwork::publish, LdmsNetwork::settle);
        seen.crashes += out.recovery.crashes;
        seen.wal_replayed += out.recovery.wal_replayed;
        seen.recovered += out.recovery.recovered;
        seen.duplicates_suppressed += out.recovery.duplicates_suppressed;
        seen.failovers += out.recovery.failovers;
        seen.failbacks += out.recovery.failbacks;
        parked += out.queue_depths.iter().map(|d| d.2).sum::<u64>();
        summarized += out.overload.iter().map(|(_, s)| s.summaries).sum::<u64>();
        abandoned += out.abandoned.iter().sum::<usize>();
        health += out
            .hub_events
            .iter()
            .filter(|e| matches!(e.kind, HubEventKind::Health { .. }))
            .count();
    }
    let reached = format!(
        "{seen:?} parked={parked} summarized={summarized} abandoned={abandoned} health={health}"
    );
    assert!(seen.crashes > 100 && seen.wal_replayed > 10, "{reached}");
    assert!(
        seen.recovered > 0 && seen.duplicates_suppressed > 0,
        "{reached}"
    );
    assert!(seen.failovers > 10 && seen.failbacks > 10, "{reached}");
    assert!(parked > 500 && summarized > 500, "{reached}");
    assert!(abandoned > 50 && health > 500, "{reached}");
}

#[test]
fn a_fault_free_fleet_is_never_visited() {
    let net = LdmsNetwork::build(&Topology::paper(&node_names(128), false), None)
        .expect("the paper graph builds");
    let sink = Arc::new(Recorder::default());
    net.l2().subscribe(TAG, sink.clone());
    for i in 0..2_000u64 {
        let node = i % 128;
        net.publish(
            StreamMessage::new(
                TAG,
                MsgFormat::Json,
                "{}".to_string(),
                &format!("nid{node:05}"),
                ms(i),
            )
            .with_seq(1 + i / 128)
            .with_origin(7, node),
        );
    }
    assert_eq!(net.settle(ms(10_000)), 0);
    assert_eq!(sink.0.lock().len(), 2_000);
    assert_eq!(net.daemon_pumps(), 0, "nothing was ever due");
    // 128 in-order streams are 128 runs, not 2 000 keys.
    assert_eq!(net.ledger().settled_key_intervals(), 128);
}

#[test]
fn a_parked_message_costs_one_visit_per_retry_not_one_per_publish() {
    let net = super::tests::paper_net(
        &node_names(8),
        false,
        QueueConfig::reliable(),
        None,
        FaultScript::new().link_flap("nid00003", ms(0), ms(500)),
    );
    net.l2().subscribe(TAG, Arc::new(Recorder::default()));
    let publish = |node: u64, at: u64| {
        net.publish(
            StreamMessage::new(
                TAG,
                MsgFormat::Json,
                "{}".to_string(),
                &format!("nid{node:05}"),
                ms(at),
            )
            .with_seq(at)
            .with_origin(7, node),
        )
    };
    publish(3, 10);
    assert_eq!(net.nodes["nid00003"].queued(), 1);
    for at in 11..400 {
        publish(at % 3, at);
    }
    // The flap's two edges are not booked (a link is not a daemon),
    // and the parked message waits for the link: no visit yet.
    assert_eq!(net.daemon_pumps(), 0);
    publish(0, 600);
    assert_eq!(net.daemon_pumps(), 1, "the retry came due once");
    assert_eq!(net.nodes["nid00003"].queued(), 0);
    assert_eq!(net.settle(ms(1_000)), 0);
    assert!(net.ledger().balances());
}

/// A sink whose first delivery announces itself and then waits to be
/// released, holding the delivering thread inside its pass.
struct Gate {
    entered: Mutex<Option<mpsc::Sender<()>>>,
    release: Mutex<mpsc::Receiver<()>>,
    delivered: AtomicU64,
}

impl StreamSink for Gate {
    fn deliver(&self, _: &StreamMessage) {
        self.delivered.fetch_add(1, Ordering::Relaxed);
        let first = self.entered.lock().take();
        if let Some(entered) = first {
            entered.send(()).expect("the test is listening");
            self.release.lock().recv().expect("the test releases");
        }
    }
}

#[test]
fn a_wake_booked_behind_a_running_pass_waits_for_the_next_one() {
    // L2 is out until 140: a message published at 120 parks at L1
    // (position 2). nid00000's link (position 0) is down around 130.
    let net = super::tests::paper_net(
        &node_names(2),
        false,
        QueueConfig::reliable(),
        None,
        FaultScript::new()
            .daemon_outage("l2", ms(100), ms(140))
            .link_flap("nid00000", ms(125), ms(135)),
    );
    let (entered_tx, entered) = mpsc::channel();
    let (release, release_rx) = mpsc::channel();
    let gate = Arc::new(Gate {
        entered: Mutex::new(Some(entered_tx)),
        release: Mutex::new(release_rx),
        delivered: AtomicU64::new(0),
    });
    net.l2().subscribe(TAG, gate.clone());
    let msg = |node: u64, at: u64| {
        StreamMessage::new(
            TAG,
            MsgFormat::Json,
            "{}".to_string(),
            &format!("nid{node:05}"),
            ms(at),
        )
        .with_seq(at)
        .with_origin(7, node)
    };
    net.publish(msg(1, 120));
    assert_eq!(net.l1().queued(), 1);
    std::thread::scope(|s| {
        // This pass finds L1 due, re-sends, and blocks in the sink at
        // L2 — mid-pass, positioned at L1.
        let pass = s.spawn(|| net.pump(ms(200)));
        entered.recv().expect("the pass reaches the sink");
        // Meanwhile a publish parks at nid00000: due at 135 <= 200,
        // booked behind the running pass's position.
        net.publish(msg(0, 130));
        assert_eq!(net.nodes["nid00000"].queued(), 1);
        release.send(()).expect("the pass is waiting");
        pass.join().expect("the pass finishes");
    });
    // The running pass did not go back for it...
    assert_eq!(gate.delivered.load(Ordering::Relaxed), 1);
    assert_eq!(net.nodes["nid00000"].queued(), 1);
    // ...and did not lose it: the next pass finds it due.
    net.pump(ms(200));
    assert_eq!(gate.delivered.load(Ordering::Relaxed), 2);
    assert_eq!(net.settle(ms(1_000)), 0);
    assert!(net.ledger().balances());
}
