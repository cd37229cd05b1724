//! `chaos` CLI: seeded crash/failover drills over the HACC-IO pipeline.
//!
//! ```text
//! chaos [--json] [--seed N] <crash-compute|crash-aggregator|crash-store|flapping-link|storm>
//! ```
//!
//! Each scenario runs HACC-IO through the crash-tolerant deployment
//! (reliable retry queues, durable write-ahead logs, standby L1
//! aggregator) and injects one class of fault at a seed-derived virtual
//! instant:
//!
//! - `crash-compute`: a compute-node sampler daemon crash-stops mid-run;
//! - `crash-aggregator`: the head-node aggregator crash-stops while the
//!   store-side aggregator rides out an outage of its own — the full
//!   WAL-replay + heartbeat-failover acceptance scenario;
//! - `crash-store`: the store-side aggregator itself crash-stops;
//! - `flapping-link`: the head node's uplink flaps three times;
//! - `storm`: a 16×-oversubscribed HMMER burst through the overload
//!   controller, with a seed-placed link outage overlapping the storm.
//!   Passes only if the ledger balances exactly, nothing is silently
//!   dropped, the sampler actually degraded into sketches, and every
//!   metadata (open/close) event was delivered individually.
//! - `crash-dsosd`: a storage backend (`dsosd-0`) crash-stops mid-run
//!   and restarts 20 virtual seconds later. With `--replicas 2` the
//!   drill passes only if the completeness report proves zero
//!   acknowledged-row loss, zero duplicates, and the anti-entropy pass
//!   actually rebuilt rows; with `--replicas 1` it passes only if the
//!   provably-unavailable mass exactly balances the ledger's
//!   acknowledged count.
//!
//! The drill emits a recovery report (WAL replays, failover latency in
//! virtual time, suppressed duplicates) and the ledger accounting.
//!
//! Exit status: 0 when the delivery ledger balances exactly after the
//! drill (every loss attributed to one `(hop, cause)` bucket), 1 when
//! it does not, 2 on usage errors.

use darshan_ldms_connector::{
    column_id, FaultScript, OverloadConfig, Pipeline, QueueConfig, ReplicationConfig,
    TelemetryConfig, WalConfig,
};
use dsos_sim::Value;
use iosim_apps::workloads::{HaccIo, Hmmer};
use iosim_apps::{run_job, FsChoice, Instrumentation, RunSpec};
use iosim_time::{Epoch, SimDuration};
use iosim_util::JsonWriter;
use ldms_sim::SimRng;
use std::process::ExitCode;

const USAGE: &str = "usage: chaos [--json] [--seed N] [--replicas R] \
     <crash-compute|crash-aggregator|crash-store|crash-dsosd|flapping-link|storm>";

const SCENARIOS: [&str; 6] = [
    "crash-compute",
    "crash-aggregator",
    "crash-store",
    "crash-dsosd",
    "flapping-link",
    "storm",
];

struct Cli {
    json: bool,
    seed: u64,
    replicas: usize,
    scenario: String,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut json = false;
    let mut seed = 0u64;
    let mut replicas = 2usize;
    let mut scenario: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                seed = v.parse().map_err(|_| format!("bad seed `{v}`"))?;
            }
            "--replicas" => {
                let v = it.next().ok_or("--replicas needs a value")?;
                replicas = v
                    .parse()
                    .ok()
                    .filter(|&r| r >= 1)
                    .ok_or(format!("bad replicas `{v}` (want >= 1)"))?;
            }
            // `--chaos <scenario>` is accepted as an alias for the
            // positional form, so `repro-bench --chaos crash-store`
            // reads naturally in CI scripts.
            "--chaos" => scenario = Some(it.next().ok_or("--chaos needs a scenario")?.clone()),
            "-h" | "--help" => return Err(USAGE.to_string()),
            other if !other.starts_with('-') => scenario = Some(other.to_string()),
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    let scenario = scenario.ok_or(USAGE)?;
    if !SCENARIOS.contains(&scenario.as_str()) {
        return Err(format!("unknown scenario `{scenario}`\n{USAGE}"));
    }
    Ok(Cli {
        json,
        seed,
        replicas,
        scenario,
    })
}

/// The crash-tolerant deployment every drill runs against.
fn spec(faults: FaultScript) -> RunSpec {
    let mut s = RunSpec::calm(FsChoice::Lustre, Instrumentation::connector_default())
        .with_store(true)
        // Metrics + flight recorders on every drill: a failed drill
        // dumps the crashed daemon's last actions instead of just an
        // unbalanced ledger.
        .with_telemetry(TelemetryConfig::metrics_only());
    s.pipeline.queue = QueueConfig::reliable();
    s.pipeline.standby_l1 = true;
    s.pipeline.wal = Some(WalConfig::durable());
    s.pipeline.faults = faults;
    s
}

/// Builds the scenario's fault script from the fault-free runtime: the
/// seed perturbs where inside the run the fault lands.
fn script(scenario: &str, seed: u64, epoch: Epoch, runtime_s: f64) -> FaultScript {
    let mut rng = SimRng::new(seed ^ 0xC4A0_5EED);
    let runtime = SimDuration::from_secs_f64(runtime_s);
    // A seed-derived instant 20–60% into the run.
    let mut mid = || epoch + SimDuration::from_secs_f64(runtime_s * (0.2 + 0.4 * rng.next_f64()));
    match scenario {
        "crash-compute" => {
            let at = mid();
            FaultScript::new().crash("nid00040", at, at + SimDuration::from_secs(5))
        }
        "crash-aggregator" => {
            // L2 is out from job start until past job end, so the head
            // node's WAL fills; the head node crash-stops mid-run and
            // restarts only after L2 is back.
            let l2_up = epoch + runtime + SimDuration::from_secs(5);
            let restart = epoch + runtime + SimDuration::from_secs(10);
            FaultScript::new()
                .daemon_outage("l2", epoch, l2_up)
                .crash("l1", mid(), restart)
        }
        "crash-store" => {
            let at = mid();
            FaultScript::new().crash("l2", at, epoch + runtime + SimDuration::from_secs(5))
        }
        "flapping-link" => {
            let mut script = FaultScript::new();
            for _ in 0..3 {
                let from = mid();
                script = script.link_flap("l1", from, from + SimDuration::from_millis(200));
            }
            script
        }
        _ => unreachable!("scenario validated in parse_args"),
    }
}

/// Stored rows of the drill job whose `op` is a metadata event.
fn meta_rows(p: &Pipeline, job_id: u64) -> u64 {
    p.events_of_job(job_id)
        .iter()
        .filter(
            |row| matches!(&row[column_id("op")], Value::Str(op) if op == "open" || op == "close"),
        )
        .count() as u64
}

/// The `storm` drill: an HMMER burst offered at 16× the overload
/// controller's service rate, with a seed-placed link outage landing
/// mid-storm. The probe run (fault-free, no controller) calibrates the
/// offered rate and the expected metadata-row count.
fn storm_drill(cli: &Cli) -> ExitCode {
    let app = Hmmer {
        ranks: 8,
        families: 200,
        sequences: 4_000,
        ..Hmmer::tiny()
    };
    let base_spec = || {
        let mut s = RunSpec::calm(FsChoice::Lustre, Instrumentation::connector_deferred())
            .with_store(true)
            .with_telemetry(TelemetryConfig::metrics_only());
        s.pipeline.queue = QueueConfig::reliable().with_capacity(4096);
        s.pipeline.wal = Some(WalConfig::durable());
        s
    };
    let probe = run_job(&app, &base_spec());
    let job_id = base_spec().job_id;
    let meta_expected = meta_rows(probe.pipeline.as_ref().expect("probe pipeline"), job_id);
    let offered = probe.msg_rate;

    // Seed-placed outage: the head node's uplink drops for 200–600 ms
    // somewhere 20–60% into the run, overlapping the burst so the
    // controller degrades while the retry path is also exercised.
    let mut rng = SimRng::new(cli.seed ^ 0x5707_4A11);
    let epoch = base_spec().epoch_base;
    let from = epoch + SimDuration::from_secs_f64(probe.runtime_s * (0.2 + 0.4 * rng.next_f64()));
    let until = from + SimDuration::from_millis(200 + rng.next_u64() % 400);
    let faults = FaultScript::new().link_flap("l1", from, until);

    let mut storm = base_spec();
    storm.pipeline.overload = Some(OverloadConfig::for_rate(offered / 16.0));
    storm.pipeline.faults = faults;
    let r = run_job(&app, &storm);
    let p = r.pipeline.as_ref().expect("connector run has a pipeline");
    let stored = p.stored_events() as u64;
    let meta_stored = meta_rows(p, job_id);
    let balanced = p.ledger().balances();
    let max_depth = p
        .network()
        .overload_stats()
        .iter()
        .map(|(_, s)| s.max_depth)
        .fold(0.0f64, f64::max);

    let mut failures: Vec<String> = Vec::new();
    if !balanced {
        failures.push("ledger does not balance".to_string());
    }
    if r.messages_lost != 0 {
        failures.push(format!(
            "{} messages silently dropped (outage must drain through the retry path)",
            r.messages_lost
        ));
    }
    if r.messages_summarized == 0 {
        failures.push("16x oversubscription never degraded into sketches".to_string());
    }
    if stored + r.messages_lost + r.messages_summarized != r.messages {
        failures.push(format!(
            "coverage hole: stored {} + lost {} + summarized {} != published {}",
            stored, r.messages_lost, r.messages_summarized, r.messages
        ));
    }
    if meta_stored != meta_expected {
        failures.push(format!(
            "metadata events not delivered individually: stored {meta_stored}, expected {meta_expected}"
        ));
    }

    if cli.json {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("scenario", "storm");
        w.field_uint("seed", cli.seed);
        w.field_float("offered_rate", offered);
        w.field_float("service_rate", offered / 16.0);
        w.field_uint("published", r.messages);
        w.field_uint("stored", stored);
        w.field_uint("summarized", r.messages_summarized);
        w.field_uint("lost", r.messages_lost);
        w.field_float("accuracy", r.accuracy);
        w.field_uint("balanced", u64::from(balanced));
        w.field_uint("meta_expected", meta_expected);
        w.field_uint("meta_stored", meta_stored);
        w.field_float("max_overload_depth", max_depth);
        w.field_uint("summary_sketches", p.stored_summaries() as u64);
        // Parked-then-journaled frames: varies with the seed-placed
        // outage window, showing the retry path was exercised.
        w.field_uint("wal_appended", r.recovery.wal_appended);
        w.field_uint("passed", u64::from(failures.is_empty()));
        w.end_object();
        println!("{}", w.as_str());
    } else {
        println!("== chaos drill: storm (seed {})", cli.seed);
        println!(
            "offered {:.0} msg/s against a {:.0} msg/s controller (16x oversubscribed)",
            offered,
            offered / 16.0
        );
        println!(
            "published={} stored={} summarized={} lost={} accuracy={:.4} balanced={}",
            r.messages, stored, r.messages_summarized, r.messages_lost, r.accuracy, balanced
        );
        println!(
            "metadata: {meta_stored}/{meta_expected} delivered individually; peak modeled backlog {max_depth:.0} msgs"
        );
        println!("ledger: {}", p.ledger().summary());
    }

    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("\nstorm drill FAILED:");
        for f in &failures {
            eprintln!("  {f}");
        }
        ExitCode::from(1)
    }
}

/// The `crash-dsosd` drill: HACC-IO against a 4-backend DSOS cluster
/// with `--replicas` copies per row (write quorum 1), `dsosd-0`
/// crash-stopping at a seed-derived mid-run instant and restarting 20
/// virtual seconds later. The LDMS tier stays fault-free so every
/// discrepancy is attributable to the storage tier.
fn crash_dsosd_drill(cli: &Cli) -> ExitCode {
    let app = HaccIo::tiny();
    let base_spec = |faults: FaultScript| {
        let mut s = RunSpec::calm(FsChoice::Lustre, Instrumentation::connector_default())
            .with_store(true)
            .with_telemetry(TelemetryConfig::metrics_only());
        s.pipeline.dsosd_count = 4;
        s.pipeline.replication = ReplicationConfig::new(cli.replicas).with_quorum(1);
        s.pipeline.faults = faults;
        s
    };
    // Probe run: fault-free runtime places the crash window mid-run.
    let probe = run_job(&app, &base_spec(FaultScript::new()));
    let mut rng = SimRng::new(cli.seed ^ 0xD505_D0D0);
    let epoch = base_spec(FaultScript::new()).epoch_base;
    let crash_at =
        epoch + SimDuration::from_secs_f64(probe.runtime_s * (0.2 + 0.4 * rng.next_f64()));
    let restart_at = crash_at + SimDuration::from_secs(20);
    let faults = FaultScript::new()
        .crash_dsosd("dsosd-0", crash_at)
        .restart_dsosd("dsosd-0", restart_at);

    let r = run_job(&app, &base_spec(faults));
    let p = r.pipeline.as_ref().expect("connector run has a pipeline");
    let c = r
        .completeness
        .as_ref()
        .expect("stored run has completeness");
    let stored = p.stored_events() as u64;
    let acked = p.ledger().store_acked();
    let rebuilt = p.cluster().rebuild_count();
    let balanced = p.ledger().balances();

    let mut failures: Vec<String> = Vec::new();
    if !balanced {
        failures.push("delivery ledger does not balance".to_string());
    }
    if c.acked_rows != acked {
        failures.push(format!(
            "completeness acked {} != ledger store_acked {acked}",
            c.acked_rows
        ));
    }
    if stored + c.unavailable != c.acked_rows {
        failures.push(format!(
            "accounting hole: stored {stored} + unavailable {} != acked {}",
            c.unavailable, c.acked_rows
        ));
    }
    if cli.replicas >= 2 {
        // One crash against R >= 2: the report must prove zero
        // acknowledged-row loss, every published row queryable exactly
        // once, and the anti-entropy pass must actually have rebuilt.
        if !c.is_complete() {
            failures.push(format!(
                "R={} must survive one dsosd crash, but {} acked row(s) are unavailable",
                cli.replicas, c.unavailable
            ));
        }
        if c.acked_rows != r.messages {
            failures.push(format!(
                "every published row must be quorum-acked: acked {} != published {}",
                c.acked_rows, r.messages
            ));
        }
        if stored != r.messages {
            failures.push(format!(
                "post-recovery query must return every row exactly once: stored {stored}, \
                 published {}",
                r.messages
            ));
        }
        if rebuilt == 0 {
            failures.push("anti-entropy rebuilt nothing; the crash window missed the run".into());
        }
    } else {
        // Unreplicated: the crashed backend's pre-crash mass must be
        // reported as provably unavailable — no silent loss.
        if c.unavailable == 0 {
            failures
                .push("R=1 with a mid-run dsosd crash must report unavailable mass".to_string());
        }
        if rebuilt != 0 {
            failures.push(format!(
                "nothing can be rebuilt without a peer replica, yet rebuild_rows={rebuilt}"
            ));
        }
    }

    if cli.json {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("scenario", "crash-dsosd");
        w.field_uint("seed", cli.seed);
        w.field_uint("replicas", cli.replicas as u64);
        w.field_uint("published", r.messages);
        w.field_uint("stored", stored);
        w.field_uint("acked", c.acked_rows);
        w.field_uint("unavailable", c.unavailable);
        w.field_uint("dead_daemons", c.dead_daemons as u64);
        w.field_uint("duplicates_suppressed", c.duplicates_suppressed);
        w.field_uint("read_repairs", p.cluster().read_repair_count());
        w.field_uint("rebuild_rows", rebuilt);
        w.field_uint("balanced", u64::from(balanced));
        w.field_uint("passed", u64::from(failures.is_empty()));
        w.end_object();
        println!("{}", w.as_str());
    } else {
        println!(
            "== chaos drill: crash-dsosd (seed {}, R={})",
            cli.seed, cli.replicas
        );
        println!(
            "published={} stored={} acked={} unavailable={} rebuild_rows={rebuilt} balanced={balanced}",
            r.messages, stored, c.acked_rows, c.unavailable
        );
        println!("ledger: {}", p.ledger().summary());
    }

    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("\ncrash-dsosd drill FAILED:");
        for f in &failures {
            eprintln!("  {f}");
        }
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    if cli.scenario == "storm" {
        return storm_drill(&cli);
    }
    if cli.scenario == "crash-dsosd" {
        return crash_dsosd_drill(&cli);
    }

    let app = HaccIo::tiny();
    // Probe run: the publish schedule is application-driven, so the
    // fault-free runtime tells the script where "mid-run" lies.
    let probe = run_job(&app, &spec(FaultScript::new()));
    let epoch = spec(FaultScript::new()).epoch_base;
    let faults = script(&cli.scenario, cli.seed, epoch, probe.runtime_s);

    let r = run_job(&app, &spec(faults));
    let p = r.pipeline.as_ref().expect("connector run has a pipeline");
    let stored = p.stored_events() as u64;
    let balanced = p.ledger().balances();
    let rec = &r.recovery;

    if cli.json {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("scenario", &cli.scenario);
        w.field_uint("seed", cli.seed);
        w.field_uint("published", r.messages);
        w.field_uint("stored", stored);
        w.field_uint("lost", r.messages_lost);
        w.field_uint("balanced", u64::from(balanced));
        w.field_uint("crashes", rec.crashes);
        w.field_uint("wal_appended", rec.wal_appended);
        w.field_uint("wal_replayed", rec.wal_replayed);
        w.field_uint("wal_dropped_unsynced", rec.wal_dropped_unsynced);
        w.field_uint("wal_rejected", rec.wal_rejected);
        w.field_uint("lost_crash", rec.lost_crash);
        w.field_uint("recovered", rec.recovered);
        w.field_uint("duplicates_suppressed", rec.duplicates_suppressed);
        w.field_uint("failovers", rec.failovers);
        w.field_uint("failbacks", rec.failbacks);
        w.field_float("max_failover_latency_s", rec.max_failover_latency_s);
        w.end_object();
        println!("{}", w.as_str());
    } else {
        println!("== chaos drill: {} (seed {})", cli.scenario, cli.seed);
        println!(
            "published={} stored={} lost={} balanced={}",
            r.messages, stored, r.messages_lost, balanced
        );
        println!("{}", rec.summary());
        println!("ledger: {}", p.ledger().summary());
    }

    if balanced {
        ExitCode::SUCCESS
    } else {
        // Post-mortem: dump each crashed daemon's flight recorder so
        // the failing drill is diagnosable from the CI log alone.
        eprintln!("\nledger did not balance; crash flight recorders:");
        if rec.crash_dumps.is_empty() {
            eprintln!("  (no crash-stop fault fired — imbalance is elsewhere)");
        }
        for dump in &rec.crash_dumps {
            eprintln!("{}", dump.render());
        }
        ExitCode::from(1)
    }
}
