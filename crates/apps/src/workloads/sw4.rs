//! sw4: seismic wave propagation with mesh refinement (Section V.A).
//!
//! "sw4 is a geodynamics code that solves 3D seismic wave equations
//! with local mesh refinement … we selected a size that uses about 50%
//! of the available memory to mimic a realistic run." The paper lists
//! sw4 as the fourth application but reports no overhead table for it;
//! here it serves the same role — a realistic HDF5-based consumer that
//! exercises the connector's H5F/H5D fields (`data_set`, `ndims`,
//! `npoints`, hyperslab counts) which the other three applications
//! leave at their sentinels.
//!
//! Model: each rank reads its block of the input mesh, then time-steps;
//! every `checkpoint_every` steps all ranks write their hyperslab of
//! the solution datasets to a checkpoint HDF5 file.

use crate::stack::DarshanStack;
use crate::workloads::Workload;
use darshan_sim::hdf5::Selection;
use iosim_fs::FsResult;
use iosim_mpi::RankCtx;
use iosim_time::SimDuration;

/// sw4 configuration.
#[derive(Debug, Clone)]
pub struct Sw4 {
    /// Nodes in the job.
    pub nodes: u32,
    /// Ranks per node.
    pub ranks_per_node: u32,
    /// Global grid dimensions.
    pub grid: [u64; 3],
    /// Time steps to simulate.
    pub steps: u32,
    /// Checkpoint interval in steps.
    pub checkpoint_every: u32,
    /// Modelled compute seconds per step per rank.
    pub compute_s_per_step: f64,
    /// Checkpoint path prefix.
    pub path: String,
}

impl Sw4 {
    /// A scaled-down configuration for tests.
    pub fn tiny() -> Self {
        Self {
            nodes: 1,
            ranks_per_node: 4,
            grid: [32, 32, 16],
            steps: 4,
            checkpoint_every: 2,
            compute_s_per_step: 0.01,
            path: "/scratch/sw4-tiny".to_string(),
        }
    }

    /// Points in one rank's slab (grid split along the first axis).
    fn slab_points(&self) -> u64 {
        let total: u64 = self.grid.iter().product();
        total / u64::from(self.ranks())
    }
}

impl Workload for Sw4 {
    fn name(&self) -> &'static str {
        "sw4"
    }

    fn exe(&self) -> &'static str {
        "/apps/sw4/sw4"
    }

    fn ranks(&self) -> u32 {
        self.nodes * self.ranks_per_node
    }

    fn ranks_per_node(&self) -> u32 {
        self.ranks_per_node
    }

    fn run_rank(&self, ctx: &mut RankCtx, stack: &DarshanStack) -> FsResult<()> {
        // Read the input mesh: each rank opens the shared mesh file and
        // reads its slab as a regular hyperslab.
        let mesh_path = format!("{}/mesh.h5", self.path);
        let mut mesh = stack.hdf5.open_file(&mut ctx.io, &mesh_path, true)?;
        let mut grid_ds =
            stack
                .hdf5
                .create_dataset(&mut ctx.io, &mut mesh, "grid", &self.grid, 8)?;
        if ctx.rank() == 0 {
            // Rank 0 materializes the mesh (input generation stand-in).
            stack
                .hdf5
                .write_dataset(&mut ctx.io, &mut mesh, &mut grid_ds, Selection::All)?;
        }
        ctx.comm.barrier(&mut ctx.io.clock);
        stack.hdf5.read_dataset(
            &mut ctx.io,
            &mut mesh,
            &mut grid_ds,
            Selection::RegularHyperslab {
                count: 1,
                block: self.slab_points(),
            },
        )?;
        stack.hdf5.close_dataset(&mut ctx.io, &mesh, &mut grid_ds);
        stack.hdf5.close_file(&mut ctx.io, mesh)?;

        // Time stepping with periodic checkpoints.
        let mut checkpoint_no = 0u32;
        for step in 1..=self.steps {
            ctx.io
                .clock
                .advance(SimDuration::from_secs_f64(self.compute_s_per_step));
            if step % self.checkpoint_every == 0 {
                checkpoint_no += 1;
                let path = format!("{}/ckpt{:03}.h5", self.path, checkpoint_no);
                let ckpt_path = format!("{path}.rank{}", ctx.rank());
                let mut f = stack.hdf5.open_file(&mut ctx.io, &ckpt_path, true)?;
                for var in ["ux", "uy", "uz"] {
                    let mut d = stack.hdf5.create_dataset(
                        &mut ctx.io,
                        &mut f,
                        var,
                        &[self.slab_points()],
                        8,
                    )?;
                    stack
                        .hdf5
                        .write_dataset(&mut ctx.io, &mut f, &mut d, Selection::All)?;
                    stack.hdf5.close_dataset(&mut ctx.io, &f, &mut d);
                }
                stack.hdf5.flush_file(&mut ctx.io, &mut f)?;
                stack.hdf5.close_file(&mut ctx.io, f)?;
                ctx.comm.barrier(&mut ctx.io.clock);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{run_job, Instrumentation, RunSpec};
    use crate::platform::FsChoice;

    #[test]
    fn sw4_emits_hdf5_module_events() {
        let app = Sw4::tiny();
        let spec =
            RunSpec::calm(FsChoice::Lustre, Instrumentation::connector_default()).with_store(true);
        let r = run_job(&app, &spec);
        assert!(r.messages > 0);
        let p = r.pipeline.as_ref().unwrap();
        let rows = p.events_of_job(spec.job_id);
        let module_col = darshan_ldms_connector::schema::column_id("module");
        let has_h5d = rows
            .iter()
            .any(|o| o[module_col] == dsos_sim::Value::Str("H5D".into()));
        let has_h5f = rows
            .iter()
            .any(|o| o[module_col] == dsos_sim::Value::Str("H5F".into()));
        assert!(has_h5d && has_h5f, "HDF5 events must reach DSOS");
        // Dataset names flow through to storage.
        let ds_col = darshan_ldms_connector::schema::column_id("seg_data_set");
        assert!(rows
            .iter()
            .any(|o| o[ds_col] == dsos_sim::Value::Str("ux".into())));
    }

    #[test]
    fn checkpoint_count_follows_interval() {
        let app = Sw4::tiny(); // 4 steps, every 2 → 2 checkpoints
        let spec = RunSpec::calm(FsChoice::Lustre, Instrumentation::DarshanOnly);
        let r = run_job(&app, &spec);
        // Each rank writes 3 datasets per checkpoint; fs write count
        // includes mesh writes. At least 2 ckpts × 3 vars × 4 ranks.
        assert!(r.fs_stats.writes >= 24);
    }
}
