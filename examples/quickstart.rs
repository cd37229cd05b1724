//! Quickstart: instrument a tiny MPI job with Darshan, attach the
//! Darshan-LDMS Connector, and watch timestamped I/O events land in
//! DSOS while the job is still running (conceptually — everything here
//! is the simulated substrate on a virtual clock).
//!
//! Run with: `cargo run -p repro-suite --example quickstart`

use repro_suite::apps::stack::DarshanStack;
use repro_suite::connector::{schema::column_id, ConnectorConfig, Pipeline, PipelineOpts};
use repro_suite::darshan::runtime::JobMeta;
use repro_suite::dsos::Value;
use repro_suite::simfs::nfs::NfsModel;
use repro_suite::simfs::{SimFs, Weather};
use repro_suite::simmpi::{Job, JobParams, PosixLayer};

fn main() {
    // 1. A simulated NFS file system on a virtual clock.
    let fs = SimFs::new(Box::<NfsModel>::default(), Weather::calm(), 1024 * 1024);
    fs.set_active_clients(4);

    // 2. The monitoring pipeline of the paper's Figure 4: compute-node
    //    ldmsds -> L1 aggregator -> L2 aggregator -> DSOS store.
    let nodes: Vec<String> = (0..2).map(|i| format!("nid{:05}", 40 + i)).collect();
    let pipeline = Pipeline::build_with(&nodes, &PipelineOpts::default());

    // 3. A 4-rank MPI job whose every I/O call is wrapped by Darshan,
    //    with the connector registered as the per-event hook.
    let job = JobMeta::new(259_903, 99_066, "/apps/quickstart", 4);
    let params = JobParams {
        ranks: 4,
        ranks_per_node: 2,
        jitter: 0.0,
        ..Default::default()
    };
    Job::run(params, |ctx| {
        let connector = pipeline.connector_for_rank(
            ConnectorConfig::default(),
            job.clone(),
            ctx.io.producer_name(),
        );
        let stack = DarshanStack::new(fs.clone(), job.clone(), ctx.rank(), Some(connector));
        // Each rank writes its slice of a shared file and reads it back.
        let mut h = stack
            .posix
            .open(&mut ctx.io, "/scratch/quickstart.dat", true, true, true)
            .unwrap();
        let off = u64::from(ctx.rank()) * 1024 * 1024;
        stack
            .posix
            .write_at(&mut ctx.io, &mut h, off, 1024 * 1024)
            .unwrap();
        stack
            .posix
            .read_at(&mut ctx.io, &mut h, off, 1024 * 1024)
            .unwrap();
        stack.posix.close(&mut ctx.io, &mut h).unwrap();
    });

    // 4. Query the stored events back out of DSOS through the
    //    `job_rank_time` joint index — ordered by job, rank, timestamp.
    let events = pipeline.events_of_job(259_903);
    println!("stored {} timestamped I/O events; first few:", events.len());
    let (op, rank, ts, dur) = (
        column_id("op"),
        column_id("rank"),
        column_id("seg_timestamp"),
        column_id("seg_dur"),
    );
    for e in events.iter().take(8) {
        println!(
            "  rank {:>2}  {:<5}  t={}  dur={}s",
            e[rank], e[op], e[ts], e[dur]
        );
    }
    // The absolute timestamp is the integration's contribution: stock
    // Darshan would only know per-file aggregates after the run.
    let first_ts = events
        .iter()
        .filter_map(|e| e[ts].as_f64())
        .fold(f64::INFINITY, f64::min);
    assert!(first_ts > 1.6e9, "timestamps are absolute epoch seconds");
    let met = events
        .iter()
        .filter(|e| e[column_id("type")] == Value::Str("MET".into()))
        .count();
    println!("MET (metadata-bearing open) messages: {met}");
}
