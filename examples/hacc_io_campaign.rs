//! HACC-IO campaign: run the same checkpoint/restart workload five
//! times (as the paper does for Figure 5), store every event, and
//! reproduce the per-op occurrence statistics and per-node breakdown.
//!
//! Run with: `cargo run --release -p repro-suite --example hacc_io_campaign`

use repro_suite::apps::figdata;
use repro_suite::connector::COLUMNS;
use repro_suite::dsos::Value;
use repro_suite::hpcws::{dashboard, figures, DataFrame};

fn main() {
    // Five connector-instrumented HACC-IO jobs on Lustre (scaled-down
    // geometry so the example finishes in seconds; pass jobs through
    // the paper-scale path via `repro-bench --bin fig5` instead).
    let runs = figdata::hacc_figure_runs(5, true);
    let df = runs.frame();
    println!(
        "collected {} events across {} jobs\n",
        df.len(),
        runs.job_ids.len()
    );

    // Figure 5: operation occurrence means with 95% CIs.
    let occ = figures::op_occurrence(&df);
    println!(
        "{}",
        dashboard::render_op_occurrence("HACC-IO op occurrences (5 jobs, ±95% CI)", &occ)
    );

    // Figure 6: per-node open/close counts for the first two jobs.
    let job_col = repro_suite::connector::schema::column_id("job_id");
    let columns: Vec<&str> = COLUMNS.iter().map(|&(name, _)| name).collect();
    let rows = df
        .rows()
        .iter()
        .filter(|row| matches!(row[job_col], Value::U64(j) if j <= 301));
    let two_jobs = DataFrame::new(columns, rows.cloned().collect());
    let per_node = figures::per_node_ops(&two_jobs, &["open", "close"]);
    println!(
        "{}",
        dashboard::render_per_node_ops("open/close per node (jobs 300, 301)", &per_node)
    );

    // The runs also wrote classic Darshan logs; show one summary to
    // contrast post-run aggregates with the run-time stream.
    let log = repro_suite::darshan::log::parse_log(&runs.results[0].log_bytes).unwrap();
    println!(
        "--- stock Darshan post-run summary of job {} ---",
        runs.job_ids[0]
    );
    print!("{}", log.summary());
}
