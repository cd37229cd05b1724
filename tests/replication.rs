//! Storage-tier failover end to end: `dsosd` crash faults against the
//! replicated DSOS cluster, with the completeness report proving
//! exactly what survived.
//!
//! Acceptance drills (mirrored by the `chaos crash-dsosd` CI job):
//! HACC-IO with R=2 and one backend crashed + restarted mid-run must
//! lose zero acknowledged rows, return every row exactly once after
//! the anti-entropy rebuild, and report a non-zero rebuild count; the
//! same drill with R=1 must report the crashed backend's mass as
//! provably unavailable, balancing the ledger's acknowledged count
//! exactly.

#[path = "fault_common/mod.rs"]
mod fault_common;

use fault_common::check_no_duplicate_rows;
use repro_suite::apps::workloads::HaccIo;
use repro_suite::apps::{run_job, FsChoice, Instrumentation, RunSpec};
use repro_suite::connector::{FaultScript, ReplicationConfig};
use repro_suite::simtime::{Epoch, SimDuration};

/// Job start instant shared by every drill (the `RunSpec::calm`
/// epoch), from which the crash window offsets are measured.
fn epoch() -> Epoch {
    Epoch::from_secs(1_650_000_000)
}

/// A stored, unreplicated spec against a 4-backend DSOS cluster.
fn four_backends() -> RunSpec {
    let mut spec =
        RunSpec::calm(FsChoice::Lustre, Instrumentation::connector_default()).with_store(true);
    spec.pipeline.dsosd_count = 4;
    spec
}

/// HACC-IO against a 4-backend cluster with the given replication
/// factor at write quorum 1, `dsosd-0` crashing `crash_s` seconds in
/// and restarting 20 virtual seconds later.
fn drill_spec(replicas: usize, crash_s: f64) -> RunSpec {
    let crash_at = epoch() + SimDuration::from_secs_f64(crash_s);
    let mut spec = four_backends();
    spec.pipeline.replication = ReplicationConfig::new(replicas).with_quorum(1);
    spec.pipeline.faults = FaultScript::new()
        .crash_dsosd("dsosd-0", crash_at)
        .restart_dsosd("dsosd-0", crash_at + SimDuration::from_secs(20));
    spec
}

/// Fault-free runtime of the drill workload, so the crash window can
/// be pinned strictly inside the publish phase.
fn probe_runtime() -> f64 {
    run_job(&HaccIo::tiny(), &four_backends()).runtime_s
}

#[test]
fn hacc_io_r2_dsosd_crash_loses_no_acked_rows() {
    let app = HaccIo::tiny();
    let spec = drill_spec(2, probe_runtime() * 0.4);
    let r = run_job(&app, &spec);
    let p = r.pipeline.as_ref().unwrap();
    let c = r.completeness.as_ref().unwrap();

    // Zero acknowledged-row loss, proven by the report.
    assert!(c.is_complete(), "R=2 must ride out one crash: {c:?}");
    assert_eq!(c.acked_rows, r.messages, "every published row acked");
    // Exactly once: every row back, no duplicates.
    assert_eq!(p.stored_events() as u64, r.messages);
    check_no_duplicate_rows(p, spec.job_id).unwrap();
    // The anti-entropy pass actually rebuilt the returning backend.
    assert!(
        p.cluster().rebuild_count() > 0,
        "restart must trigger a rebuild"
    );
    // Acked accounting agrees with the delivery ledger.
    assert_eq!(p.ledger().store_acked(), c.acked_rows);
    assert!(p.ledger().balances());
}

#[test]
fn hacc_io_r1_dsosd_crash_unavailable_mass_balances_the_ledger() {
    let app = HaccIo::tiny();
    let spec = drill_spec(1, probe_runtime() * 0.4);
    let r = run_job(&app, &spec);
    let p = r.pipeline.as_ref().unwrap();
    let c = r.completeness.as_ref().unwrap();

    // Unreplicated: the crashed backend's pre-crash rows are gone, and
    // the report must say so rather than silently shrinking the query.
    assert!(c.unavailable > 0, "mid-run crash must strand rows: {c:?}");
    assert_eq!(
        p.stored_events() as u64 + c.unavailable,
        c.acked_rows,
        "reachable + provably-unavailable must cover every acked row"
    );
    assert_eq!(p.ledger().store_acked(), c.acked_rows);
    // Nothing to rebuild from: no peer holds a copy.
    assert_eq!(p.cluster().rebuild_count(), 0);
    check_no_duplicate_rows(p, spec.job_id).unwrap();
    assert!(p.ledger().balances());
}

/// Replication is invisible to queries: the default path (R=1, no
/// dsosd faults) and an R=2 fault-free run return byte-identical rows
/// in identical order.
#[test]
fn replication_does_not_change_fault_free_query_results() {
    let app = HaccIo::tiny();
    let base = four_backends();
    let mut repl = base.clone();
    repl.pipeline.replication = ReplicationConfig::new(2);

    let a = run_job(&app, &base);
    let b = run_job(&app, &repl);
    let rows_a = a.pipeline.as_ref().unwrap().events_of_job(base.job_id);
    let rows_b = b.pipeline.as_ref().unwrap().events_of_job(base.job_id);
    assert_eq!(rows_a, rows_b, "replication must not perturb results");
    // Fault-free completeness is trivially total on both paths.
    assert!(a.completeness.as_ref().unwrap().is_complete());
    assert!(b.completeness.as_ref().unwrap().is_complete());
}

/// Two sequential (non-overlapping) crashes with R=2 still lose
/// nothing: the first backend is rebuilt before the second goes down,
/// so a live holder always remains.
#[test]
fn sequential_dsosd_crashes_survive_with_r2() {
    let app = HaccIo::tiny();
    let runtime = probe_runtime();
    let first = epoch() + SimDuration::from_secs_f64(runtime * 0.3);
    let second = first + SimDuration::from_secs(30);
    let mut spec = four_backends();
    spec.pipeline.replication = ReplicationConfig::new(2).with_quorum(1);
    spec.pipeline.faults = FaultScript::new()
        .crash_dsosd("dsosd-0", first)
        .restart_dsosd("dsosd-0", first + SimDuration::from_secs(10))
        .crash_dsosd("dsosd-1", second)
        .restart_dsosd("dsosd-1", second + SimDuration::from_secs(10));
    let r = run_job(&app, &spec);
    let p = r.pipeline.as_ref().unwrap();
    let c = r.completeness.as_ref().unwrap();
    assert!(
        c.is_complete(),
        "staggered crashes must lose nothing: {c:?}"
    );
    assert_eq!(p.stored_events() as u64, r.messages);
    check_no_duplicate_rows(p, spec.job_id).unwrap();
}
