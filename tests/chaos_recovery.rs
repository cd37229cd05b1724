//! Crash recovery end to end: crash-stop faults destroy volatile
//! daemon state mid-run, write-ahead logs replay the durable tail,
//! heartbeat failover elects the standby aggregator, and the
//! idempotent terminal suppresses replay duplicates — while the
//! delivery ledger stays exactly balanced and the DSOS store never
//! holds two rows for one message.

#[path = "fault_common/mod.rs"]
mod fault_common;

use fault_common::{base_epoch, check_invariants, check_no_duplicate_rows, run_scenario, Scenario};
use repro_suite::apps::workloads::HaccIo;
use repro_suite::apps::{run_job, FsChoice, Instrumentation, RunSpec};
use repro_suite::connector::{FaultScript, LossCause, QueueConfig, RecoveryReport, WalConfig};
use repro_suite::simtime::{Epoch, SimDuration};

/// The default path must stay byte-identical to the pre-recovery
/// pipeline: no crash machinery engages, every counter is zero.
#[test]
fn fault_free_run_reports_all_zero_recovery() {
    let app = HaccIo::tiny();
    let r = run_job(
        &app,
        &RunSpec::calm(FsChoice::Lustre, Instrumentation::connector_default()).with_store(true),
    );
    assert_eq!(r.recovery, RecoveryReport::default());
    assert_eq!(r.messages_lost, 0);
    let p = r.pipeline.as_ref().unwrap();
    assert_eq!(p.stored_events() as u64, r.messages);
    assert!(p.ledger().balances());
}

/// The acceptance scenario: HACC-IO with the head-node aggregator
/// crash-stopping mid-run while the store-side aggregator rides out an
/// outage of its own. Everything the crash caught in flight is either
/// WAL-recovered or failed over to the standby; the run ends with the
/// ledger exactly balanced, zero loss, and zero duplicate DSOS rows.
#[test]
fn hacc_io_aggregator_crash_recovers_exactly() {
    let app = HaccIo::tiny();
    let mk = |faults: FaultScript| {
        let mut s =
            RunSpec::calm(FsChoice::Lustre, Instrumentation::connector_default()).with_store(true);
        s.pipeline.queue = QueueConfig::reliable();
        s.pipeline.standby_l1 = true;
        s.pipeline.wal = Some(WalConfig::durable());
        s.pipeline.faults = faults;
        s
    };
    // Probe run: the publish schedule is application-driven, so the
    // fault-free runtime tells us where "mid-run" is in virtual time.
    let probe = run_job(&app, &mk(FaultScript::new()));
    assert!(probe.messages > 0);
    let epoch = RunSpec::calm(FsChoice::Lustre, Instrumentation::connector_default()).epoch_base;
    let runtime = SimDuration::from_secs_f64(probe.runtime_s);

    // L2 is out from job start until shortly after job end, so the
    // head node's retry queue (and WAL) fill up; the head node then
    // crash-stops mid-run and restarts only after L2 is back.
    let l2_up = epoch + runtime + SimDuration::from_secs(5);
    let crash_at = epoch + SimDuration::from_secs_f64(probe.runtime_s * 0.5);
    let restart = epoch + runtime + SimDuration::from_secs(10);
    let faults = FaultScript::new()
        .daemon_outage("l2", epoch, l2_up)
        .crash("l1", crash_at, restart);

    let r = run_job(&app, &mk(faults));
    let p = r.pipeline.as_ref().unwrap();

    // Published messages match the probe; nothing is lost despite the
    // crash, and the ledger closes exactly.
    assert_eq!(r.messages, probe.messages);
    assert_eq!(r.messages_lost, 0, "ledger: {}", p.ledger().summary());
    assert!(p.ledger().balances(), "ledger: {}", p.ledger().summary());
    assert_eq!(p.stored_events() as u64, r.messages);

    // At least one message was demonstrably WAL-recovered: parked at
    // the head node when it crashed, replayed at restart, delivered.
    assert_eq!(r.recovery.crashes, 1, "{}", r.recovery.summary());
    assert!(r.recovery.wal_replayed >= 1, "{}", r.recovery.summary());
    assert!(r.recovery.recovered >= 1, "{}", r.recovery.summary());
    assert_eq!(r.recovery.lost_crash, 0, "{}", r.recovery.summary());

    // The crash window outlasts the heartbeat detection threshold, so
    // samplers elected the standby at least once.
    assert!(r.recovery.failovers >= 1, "{}", r.recovery.summary());
    assert!(r.recovery.max_failover_latency_s > 0.0);

    // Idempotent ingest: no DSOS row appears twice.
    let spec = RunSpec::calm(FsChoice::Lustre, Instrumentation::connector_default());
    check_no_duplicate_rows(p, spec.job_id).unwrap();
}

/// Without a WAL, a crash destroys the volatile retry queue outright;
/// the destroyed messages must surface as `lost-crash` in the ledger,
/// never as silent gaps.
#[test]
fn crash_without_wal_attributes_every_lost_message() {
    let base = base_epoch();
    let sc = Scenario {
        nodes: 1,
        msgs_per_node: 20,
        queue: QueueConfig::reliable(),
        script: FaultScript::new()
            .daemon_outage("l2", base, base + SimDuration::from_secs(1))
            .crash(
                "l1",
                base + SimDuration::from_millis(100),
                base + SimDuration::from_millis(500),
            ),
        slack_s: 60,
        standby: false,
        wal: None,
        overload: None,
    };
    let (p, outcome) = run_scenario(&sc);
    check_invariants(&outcome).unwrap();
    check_no_duplicate_rows(&p, 7).unwrap();
    // Messages parked at L1 when it crashed are gone for good — and
    // every one of them is attributed to the crash.
    let crashed = p.ledger().lost_with_cause(LossCause::Crash);
    assert!(crashed >= 1, "ledger: {}", p.ledger().summary());
    assert_eq!(outcome.lost, crashed, "ledger: {}", p.ledger().summary());
    assert_eq!(outcome.stored + crashed, outcome.published);
    assert_eq!(p.recovery_report().lost_crash, crashed);
    assert_eq!(p.recovery_report().recovered, 0);
}

/// A WAL crash can revert volatile completion marks, so replay re-sends
/// messages that were already delivered. The sequence-keyed terminal
/// rejects every one of them: the store sees each message exactly once.
#[test]
fn uncheckpointed_replay_duplicates_are_suppressed_end_to_end() {
    let base = base_epoch();
    let sc = Scenario {
        nodes: 1,
        msgs_per_node: 10,
        queue: QueueConfig::reliable(),
        // Park everything at L1 (L2 out), deliver on L2's return, then
        // crash L1 before any checkpoint persists the completions.
        script: FaultScript::new()
            .daemon_outage("l2", base, base + SimDuration::from_millis(500))
            .crash(
                "l1",
                base + SimDuration::from_secs(1),
                base + SimDuration::from_secs(2),
            ),
        slack_s: 60,
        standby: false,
        // durable() checkpoints every 64 completions — more than this
        // run delivers, so the crash reverts all of them.
        wal: Some(WalConfig::durable()),
        overload: None,
    };
    let (p, outcome) = run_scenario(&sc);
    check_invariants(&outcome).unwrap();
    check_no_duplicate_rows(&p, 7).unwrap();
    assert_eq!(outcome.stored, outcome.published, "nothing may be lost");
    assert_eq!(outcome.lost, 0);
    let rec = p.recovery_report();
    assert!(rec.wal_replayed >= 1, "{}", rec.summary());
    assert!(rec.duplicates_suppressed >= 1, "{}", rec.summary());
    assert_eq!(p.ledger().duplicates(), rec.duplicates_suppressed);
}

/// Crashing the terminal daemon itself: L2's volatile state dies, L1
/// rides the window out in its retry queue, and on restart delivery
/// resumes with no duplicates — the dedup set is part of the ledger,
/// not of any daemon's volatile state.
#[test]
fn terminal_crash_resumes_without_duplicates() {
    let base = base_epoch();
    let sc = Scenario {
        nodes: 2,
        msgs_per_node: 10,
        queue: QueueConfig::reliable(),
        script: FaultScript::new().crash(
            "l2",
            base + SimDuration::from_millis(50),
            base + SimDuration::from_secs(2),
        ),
        slack_s: 60,
        standby: false,
        wal: Some(WalConfig::durable()),
        overload: None,
    };
    let (p, outcome) = run_scenario(&sc);
    check_invariants(&outcome).unwrap();
    check_no_duplicate_rows(&p, 7).unwrap();
    assert_eq!(outcome.stored, outcome.published, "nothing may be lost");
    assert_eq!(Epoch::from_secs(100), base, "scenario epoch contract");
}
