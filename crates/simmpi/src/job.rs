//! Job launcher: spawns rank threads with placement and clocks.

use crate::comm::Communicator;
use crate::interconnect::Interconnect;
use iosim_fs::IoCtx;
use iosim_time::{Epoch, SimDuration};

/// Parameters of one job launch.
#[derive(Debug, Clone, Copy)]
pub struct JobParams {
    /// Total MPI ranks.
    pub ranks: u32,
    /// Ranks placed per compute node.
    pub ranks_per_node: u32,
    /// Seed for per-rank jitter streams.
    pub seed: u64,
    /// Job start time (absolute) — anchors every rank's clock and
    /// therefore all published absolute timestamps.
    pub epoch_base: Epoch,
    /// Interconnect model for collectives.
    pub interconnect: Interconnect,
    /// Jitter half-width for I/O durations (0 disables).
    pub jitter: f64,
    /// First node id (Cray nid numbering).
    pub first_node: u32,
}

impl Default for JobParams {
    fn default() -> Self {
        Self {
            ranks: 1,
            ranks_per_node: 1,
            seed: 0,
            epoch_base: Epoch::from_secs(1_650_000_000),
            interconnect: Interconnect::default(),
            jitter: 0.05,
            first_node: 40,
        }
    }
}

impl JobParams {
    /// Number of nodes this job occupies.
    #[cfg(test)]
    pub(crate) fn nodes(&self) -> u32 {
        self.ranks.div_ceil(self.ranks_per_node.max(1))
    }

    /// The node index a rank is placed on.
    pub(crate) fn node_of(&self, rank: u32) -> u32 {
        self.first_node + rank / self.ranks_per_node.max(1)
    }
}

/// Everything a rank's code receives: its I/O context (clock + jitter)
/// and its communicator handle.
pub struct RankCtx {
    /// Per-rank I/O context.
    pub io: IoCtx,
    /// Communicator handle for this rank.
    pub comm: Communicator,
}

impl RankCtx {
    /// This rank's number.
    pub fn rank(&self) -> u32 {
        self.comm.rank()
    }
}

/// Result of a completed job.
#[derive(Debug)]
pub struct JobReport<R> {
    /// Virtual elapsed time per rank at completion.
    pub rank_elapsed: Vec<SimDuration>,
    /// Job runtime: the slowest rank's elapsed time (what the paper's
    /// "Average Runtime (s)" measures per run).
    pub elapsed: SimDuration,
    /// Per-rank return values of the rank function, in rank order.
    pub results: Vec<R>,
}

/// The launcher.
pub struct Job;

impl Job {
    /// Runs `f` on every rank concurrently and waits for completion.
    ///
    /// Panics in rank functions propagate (the scope unwinds), matching
    /// an MPI abort.
    pub fn run<F, R>(params: JobParams, f: F) -> JobReport<R>
    where
        F: Fn(&mut RankCtx) -> R + Sync,
        R: Send,
    {
        assert!(params.ranks > 0, "job needs at least one rank");
        let comm0 = Communicator::new(params.ranks, params.interconnect);
        let mut slots: Vec<Option<(SimDuration, R)>> = (0..params.ranks).map(|_| None).collect();
        std::thread::scope(|s| {
            for (rank, slot) in slots.iter_mut().enumerate() {
                let rank = rank as u32;
                let comm = comm0.for_rank(rank);
                let f = &f;
                s.spawn(move || {
                    let io = IoCtx::new(params.seed, rank, params.node_of(rank), params.epoch_base)
                        .with_jitter(params.jitter);
                    let mut ctx = RankCtx { io, comm };
                    // MPI_Abort semantics: if this rank panics, poison
                    // the communicator so ranks blocked in collectives
                    // abort too instead of deadlocking the job.
                    let outcome =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut ctx)));
                    match outcome {
                        Ok(result) => {
                            *slot = Some((ctx.io.clock.elapsed(), result));
                        }
                        Err(payload) => {
                            ctx.comm.poison();
                            std::panic::resume_unwind(payload);
                        }
                    }
                });
            }
        });
        let mut rank_elapsed = Vec::with_capacity(slots.len());
        let mut results = Vec::with_capacity(slots.len());
        for s in slots {
            let (e, r) = s.expect("rank did not report");
            rank_elapsed.push(e);
            results.push(r);
        }
        let elapsed = rank_elapsed
            .iter()
            .copied()
            .max()
            .unwrap_or(SimDuration::ZERO);
        JobReport {
            rank_elapsed,
            elapsed,
            results,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_maps_ranks_to_nodes() {
        let p = JobParams {
            ranks: 8,
            ranks_per_node: 4,
            first_node: 40,
            ..Default::default()
        };
        assert_eq!(p.nodes(), 2);
        assert_eq!(p.node_of(0), 40);
        assert_eq!(p.node_of(3), 40);
        assert_eq!(p.node_of(4), 41);
        assert_eq!(p.node_of(7), 41);
    }

    #[test]
    fn job_reports_slowest_rank() {
        let p = JobParams {
            ranks: 4,
            ..Default::default()
        };
        let report = Job::run(p, |ctx| {
            ctx.io
                .clock
                .advance(SimDuration::from_secs(u64::from(ctx.rank()) + 1));
            ctx.rank()
        });
        assert_eq!(report.results, vec![0, 1, 2, 3]);
        assert_eq!(report.elapsed, SimDuration::from_secs(4));
        assert_eq!(report.rank_elapsed[0], SimDuration::from_secs(1));
    }

    #[test]
    fn ranks_communicate_within_job() {
        let p = JobParams {
            ranks: 6,
            ranks_per_node: 2,
            ..Default::default()
        };
        let report = Job::run(p, |ctx| {
            let me = u64::from(ctx.rank());
            ctx.comm.allreduce_u64(&mut ctx.io.clock, me, |a, b| a + b)
        });
        assert!(report.results.iter().all(|&s| s == 15));
    }

    #[test]
    fn panicking_rank_aborts_the_whole_job() {
        // Rank 1 dies before the barrier; without MPI_Abort semantics
        // the other ranks would wait forever. With poisoning, the whole
        // job unwinds promptly.
        let p = JobParams {
            ranks: 4,
            ..Default::default()
        };
        let result = std::panic::catch_unwind(|| {
            Job::run(p, |ctx| {
                if ctx.rank() == 1 {
                    panic!("simulated rank failure");
                }
                ctx.comm.barrier(&mut ctx.io.clock);
            })
        });
        assert!(result.is_err(), "job must abort, not hang");
    }

    #[test]
    fn odd_rank_count_placement() {
        let p = JobParams {
            ranks: 5,
            ranks_per_node: 2,
            ..Default::default()
        };
        assert_eq!(p.nodes(), 3);
        assert_eq!(p.node_of(4), p.first_node + 2);
    }
}
