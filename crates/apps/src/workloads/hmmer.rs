//! HMMER `hmmbuild` (Section V.A).
//!
//! "HMMER has a building code called 'hmmbuild' that uses MPI to build
//! a database by concatenating multiple profiles Stockholm alignment
//! files. In our experiment, we used the Pfam-A.seed file to generate a
//! large Pfam-A.hmm database. We ran HMMER with 32 MPI ranks on one
//! node."
//!
//! `hmmbuild --mpi` is master-worker: rank 0 parses the Stockholm seed
//! file (millions of tiny buffered stdio reads — two per sequence
//! line-group here), farms alignments to workers, and appends each
//! finished profile HMM to the output database. The workers only
//! compute. This is why a 32-rank job generates 3–4.5 million Darshan
//! events *from one rank*, at 1.5–2.4 k msgs/s — the configuration that
//! exposes the connector's formatting overhead (Table IIc: 276.86 % on
//! NFS, 1276.67 % on Lustre).

use crate::stack::DarshanStack;
use crate::workloads::Workload;
use iosim_fs::FsResult;
use iosim_mpi::RankCtx;
use iosim_time::SimDuration;

/// HMMER configuration.
#[derive(Debug, Clone)]
pub struct Hmmer {
    /// MPI ranks (paper: 32, one node).
    pub ranks: u32,
    /// Pfam families in the seed file (Pfam-A.seed ≈ 19 632 in the
    /// 2021 release).
    pub families: u64,
    /// Total aligned sequences across all families (≈1.5 M).
    pub sequences: u64,
    /// Mean bytes per sequence read.
    pub seq_bytes: u64,
    /// Mean bytes of one profile HMM appended to the database.
    pub hmm_bytes: u64,
    /// Modelled worker compute time per family (seconds).
    pub compute_s_per_family: f64,
    /// Seed (input) path.
    pub seed_path: String,
    /// Database (output) path.
    pub db_path: String,
}

impl Hmmer {
    /// The paper's Pfam-A.seed configuration.
    pub(crate) fn paper_config() -> Self {
        Self {
            ranks: 32,
            families: 19_632,
            sequences: 1_525_000,
            seq_bytes: 180,
            hmm_bytes: 70_000,
            compute_s_per_family: 0.18,
            seed_path: "/home/user/Pfam-A.seed".to_string(),
            db_path: "/home/user/Pfam-A.hmm".to_string(),
        }
    }

    /// A scaled-down configuration for tests (hundreds of events, not
    /// millions).
    pub fn tiny() -> Self {
        Self {
            ranks: 4,
            families: 20,
            sequences: 400,
            seq_bytes: 180,
            hmm_bytes: 7_000,
            compute_s_per_family: 0.01,
            seed_path: "/home/user/tiny.seed".to_string(),
            db_path: "/home/user/tiny.hmm".to_string(),
        }
    }

    /// Expected Darshan events for one run (all from the master):
    /// two stdio reads per sequence, one write per family, plus the
    /// seed-prepopulation and open/close bookkeeping. Useful for
    /// budgeting; the exact number comes from the run itself.
    pub fn approx_events(&self) -> u64 {
        2 * self.sequences + self.families + 8
    }
}

impl Workload for Hmmer {
    fn name(&self) -> &'static str {
        "HMMER"
    }

    fn exe(&self) -> &'static str {
        "/apps/hmmer/hmmbuild"
    }

    fn ranks(&self) -> u32 {
        self.ranks
    }

    fn ranks_per_node(&self) -> u32 {
        // Single-node job: "HMMER could only run on one node".
        self.ranks
    }

    fn io_clients(&self) -> u32 {
        1 // master-worker: only rank 0 touches the file system
    }

    fn run_rank(&self, ctx: &mut RankCtx, stack: &DarshanStack) -> FsResult<()> {
        if ctx.rank() != 0 {
            // Workers: pure compute, modelled per family share.
            let workers = u64::from(self.ranks.max(2) - 1);
            let my_families = self.families / workers;
            ctx.io.clock.advance(SimDuration::from_secs_f64(
                my_families as f64 * self.compute_s_per_family,
            ));
            ctx.comm.barrier(&mut ctx.io.clock);
            return Ok(());
        }
        // Master: materialize the seed file once (stands in for the
        // pre-existing input; written without instrumentation noise by
        // using large writes).
        let seed_bytes = self.sequences * self.seq_bytes;
        let mut seed = stack
            .stdio
            .fopen(&mut ctx.io, &self.seed_path, true, true)?;
        let mut left = seed_bytes;
        while left > 0 {
            let chunk = left.min(64 * 1024 * 1024);
            stack.stdio.fwrite(&mut ctx.io, &mut seed, chunk)?;
            left -= chunk;
        }
        stack.stdio.fclose(&mut ctx.io, &mut seed)?;

        // Parse + build: stream the seed, append profiles to the db.
        let mut seed = stack
            .stdio
            .fopen(&mut ctx.io, &self.seed_path, false, false)?;
        let mut db = stack.stdio.fopen(&mut ctx.io, &self.db_path, true, true)?;
        let seqs_per_family = (self.sequences / self.families.max(1)).max(1);
        for _family in 0..self.families {
            for _seq in 0..seqs_per_family {
                // Name/accession line group, then alignment block.
                stack
                    .stdio
                    .fread(&mut ctx.io, &mut seed, self.seq_bytes / 2)?;
                stack
                    .stdio
                    .fread(&mut ctx.io, &mut seed, self.seq_bytes / 2)?;
            }
            // The finished profile comes back from a worker and is
            // appended to the database.
            stack.stdio.fwrite(&mut ctx.io, &mut db, self.hmm_bytes)?;
        }
        stack.stdio.fclose(&mut ctx.io, &mut seed)?;
        stack.stdio.fflush(&mut ctx.io, &mut db)?;
        stack.stdio.fclose(&mut ctx.io, &mut db)?;
        ctx.comm.barrier(&mut ctx.io.clock);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{run_job, Instrumentation, RunSpec};
    use crate::platform::FsChoice;

    #[test]
    fn only_master_produces_events() {
        let app = Hmmer::tiny();
        let spec = RunSpec::calm(FsChoice::Lustre, Instrumentation::connector_default());
        let r = run_job(&app, &spec);
        assert!(r.messages > 0);
        // All events come from rank 0: per-rank message counts prove it.
        assert_eq!(r.messages, r.rank_messages[0]);
        for &m in &r.rank_messages[1..] {
            assert_eq!(m, 0);
        }
    }

    #[test]
    fn event_volume_scales_with_sequences() {
        let small = Hmmer::tiny();
        let mut big = Hmmer::tiny();
        big.sequences = 1200;
        big.families = 60;
        let rs = run_job(
            &small,
            &RunSpec::calm(FsChoice::Lustre, Instrumentation::connector_default()),
        );
        let rb = run_job(
            &big,
            &RunSpec::calm(FsChoice::Lustre, Instrumentation::connector_default()),
        );
        assert!(rb.messages > rs.messages * 2);
    }

    #[test]
    fn nfs_is_much_slower_than_lustre_for_hmmer() {
        // The per-op client overhead on NFS dominates millions of tiny
        // stdio reads — the paper's 749.88 s vs 135.40 s contrast.
        let app = Hmmer::tiny();
        let nfs = run_job(
            &app,
            &RunSpec::calm(FsChoice::Nfs, Instrumentation::DarshanOnly),
        );
        let lustre = run_job(
            &app,
            &RunSpec::calm(FsChoice::Lustre, Instrumentation::DarshanOnly),
        );
        // Tiny config has little I/O; compare I/O time via fs stats
        // proxy: runtimes still ordered.
        assert!(nfs.runtime_s >= lustre.runtime_s);
    }
}
