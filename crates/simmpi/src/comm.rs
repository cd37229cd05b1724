//! Communicators and collectives.
//!
//! Collectives are implemented over a shared exchange buffer guarded by
//! a condition variable. Every collective synchronizes the virtual
//! clocks of all participants to the maximum (plus the interconnect's
//! collective latency), which makes rank imbalance visible as wait time
//! exactly like a real `MPI_Barrier`.

use crate::interconnect::Interconnect;
use iosim_time::Epoch;
use parking_lot::{Condvar, Mutex};
use std::sync::Arc;

/// Per-collective exchange cell. A generation counter allows reuse
/// across an unbounded number of collectives without reallocation.
struct ExchangeState {
    /// One deposited payload slot per rank.
    slots: Vec<Option<Vec<u8>>>,
    /// Clock value deposited by each rank.
    clocks: Vec<Epoch>,
    /// How many ranks have deposited in the current round.
    arrived: usize,
    /// How many ranks have picked up the result of the *finished* round.
    departed: usize,
    /// Round number, bumped when the last rank arrives.
    generation: u64,
    /// Result of the finished round (clock max).
    synced_clock: Epoch,
    /// True while ranks may deposit; false while the finished round is
    /// draining. A rank entering a new collective must wait for the
    /// previous round to drain completely or it would clobber slots
    /// other ranks have not read yet.
    depositing: bool,
    /// Set when a rank aborted (panicked): every rank blocked in or
    /// entering a collective panics instead of waiting forever — the
    /// `MPI_Abort` analogue.
    poisoned: bool,
}

struct Shared {
    state: Mutex<ExchangeState>,
    cv: Condvar,
    size: u32,
    interconnect: Interconnect,
}

/// A communicator spanning `size` ranks. Clone one handle per rank.
#[derive(Clone)]
pub struct Communicator {
    shared: Arc<Shared>,
    rank: u32,
}

impl Communicator {
    /// Creates the rank-0 handle of a new communicator of `size` ranks
    /// over the given interconnect.
    pub(crate) fn new(size: u32, interconnect: Interconnect) -> Self {
        assert!(size > 0, "communicator needs at least one rank");
        let shared = Arc::new(Shared {
            state: Mutex::new(ExchangeState {
                slots: (0..size).map(|_| None).collect(),
                clocks: vec![Epoch::from_nanos(0); size as usize],
                arrived: 0,
                departed: 0,
                generation: 0,
                synced_clock: Epoch::from_nanos(0),
                depositing: true,
                poisoned: false,
            }),
            cv: Condvar::new(),
            size,
            interconnect,
        });
        Self { shared, rank: 0 }
    }

    /// Returns the handle for a specific rank (used when spawning rank
    /// threads).
    pub(crate) fn for_rank(&self, rank: u32) -> Self {
        assert!(rank < self.shared.size, "rank out of range");
        Self {
            shared: self.shared.clone(),
            rank,
        }
    }

    /// This handle's rank.
    pub(crate) fn rank(&self) -> u32 {
        self.rank
    }

    /// Number of ranks in the communicator.
    pub(crate) fn size(&self) -> u32 {
        self.shared.size
    }

    /// The interconnect model.
    pub(crate) fn interconnect(&self) -> &Interconnect {
        &self.shared.interconnect
    }

    /// Marks the communicator as dead (`MPI_Abort` analogue): every
    /// rank blocked in — or later entering — a collective panics
    /// instead of waiting for a participant that will never arrive.
    pub(crate) fn poison(&self) {
        let mut st = self.shared.state.lock();
        st.poisoned = true;
        self.shared.cv.notify_all();
    }

    /// Core exchange: every rank deposits a payload and its clock; once
    /// all have arrived, every rank receives all payloads and the
    /// maximum clock. This is the substrate of every collective.
    fn exchange(&self, clock_now: Epoch, payload: Vec<u8>) -> (Vec<Vec<u8>>, Epoch) {
        let shared = &*self.shared;
        let size = shared.size as usize;
        let mut st = shared.state.lock();
        // Wait for the previous round to fully drain before depositing.
        while !st.depositing && !st.poisoned {
            shared.cv.wait(&mut st);
        }
        if st.poisoned {
            panic!("communicator poisoned: another rank aborted");
        }
        let my_gen = st.generation;
        st.slots[self.rank as usize] = Some(payload);
        st.clocks[self.rank as usize] = clock_now;
        st.arrived += 1;
        if st.arrived == size {
            st.synced_clock = st.clocks.iter().copied().max().unwrap();
            st.generation += 1;
            st.arrived = 0;
            st.depositing = false; // round complete; draining begins
            shared.cv.notify_all();
        } else {
            while st.generation == my_gen && !st.poisoned {
                shared.cv.wait(&mut st);
            }
            if st.poisoned {
                panic!("communicator poisoned: another rank aborted");
            }
        }
        // Round complete: read results.
        let all: Vec<Vec<u8>> = st
            .slots
            .iter()
            .map(|s| s.clone().expect("all slots deposited"))
            .collect();
        let synced = st.synced_clock;
        st.departed += 1;
        if st.departed == size {
            st.departed = 0;
            for s in st.slots.iter_mut() {
                *s = None;
            }
            st.depositing = true; // drained; next round may begin
            shared.cv.notify_all();
        }
        (all, synced)
    }

    /// Exchanges clock values without synchronizing them: every rank
    /// learns when every other rank reached this point, but keeps its
    /// own virtual time. Used to model polling/waiting patterns
    /// deterministically (a rank can compute how long it would have
    /// polled before a condition held globally).
    pub fn exchange_clocks(&self, clock: &iosim_time::Clock) -> Vec<Epoch> {
        let (all, _) = self.exchange(clock.now(), clock.now().as_nanos().to_le_bytes().to_vec());
        all.into_iter()
            .map(|b| Epoch::from_nanos(u64::from_le_bytes(b.try_into().expect("8-byte payload"))))
            .collect()
    }

    /// Barrier: blocks until all ranks arrive; advances the local clock
    /// to the latest participant plus the collective latency.
    pub fn barrier(&self, clock: &mut iosim_time::Clock) {
        let (_, synced) = self.exchange(clock.now(), Vec::new());
        clock.advance_to(synced);
        clock.advance(self.shared.interconnect.collective_latency(self.size()));
    }

    /// All-gather of a fixed-size byte payload. Returns every rank's
    /// payload in rank order; clocks synchronize as in a barrier and
    /// pay for moving the gathered bytes.
    pub(crate) fn allgather(
        &self,
        clock: &mut iosim_time::Clock,
        payload: Vec<u8>,
    ) -> Vec<Vec<u8>> {
        let bytes_moved = payload.len() as u64 * u64::from(self.size());
        let (all, synced) = self.exchange(clock.now(), payload);
        clock.advance_to(synced);
        clock.advance(
            self.shared
                .interconnect
                .collective_transfer(self.size(), bytes_moved),
        );
        all
    }
}

/// Collectives the workloads do not call, kept for the tests that
/// drive `allgather` through them.
#[cfg(test)]
impl Communicator {
    /// Broadcast from `root`: every rank receives root's payload.
    pub(crate) fn bcast(
        &self,
        clock: &mut iosim_time::Clock,
        root: u32,
        payload: Vec<u8>,
    ) -> Vec<u8> {
        let to_send = if self.rank == root {
            payload
        } else {
            Vec::new()
        };
        let mut all = self.allgather(clock, to_send);
        all.swap_remove(root as usize)
    }

    /// All-reduce of a `u64` with the given associative operation.
    pub(crate) fn allreduce_u64(
        &self,
        clock: &mut iosim_time::Clock,
        value: u64,
        op: fn(u64, u64) -> u64,
    ) -> u64 {
        let all = self.allgather(clock, value.to_le_bytes().to_vec());
        all.into_iter()
            .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte payload")))
            .reduce(op)
            .expect("non-empty communicator")
    }

    /// All-reduce max of an `f64` (used to compute job elapsed time).
    pub(crate) fn allreduce_max_f64(&self, clock: &mut iosim_time::Clock, value: f64) -> f64 {
        let all = self.allgather(clock, value.to_le_bytes().to_vec());
        all.into_iter()
            .map(|b| f64::from_le_bytes(b.try_into().expect("8-byte payload")))
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

impl std::fmt::Debug for Communicator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Communicator")
            .field("rank", &self.rank)
            .field("size", &self.shared.size)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosim_time::{Clock, SimDuration};

    fn spawn_ranks<F, R>(n: u32, f: F) -> Vec<R>
    where
        F: Fn(Communicator, Clock) -> R + Sync,
        R: Send,
    {
        let comm0 = Communicator::new(n, Interconnect::default());
        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        std::thread::scope(|s| {
            for (rank, slot) in out.iter_mut().enumerate() {
                let comm = comm0.for_rank(rank as u32);
                let f = &f;
                s.spawn(move || {
                    let clock = Clock::new(iosim_time::Epoch::from_secs(1000));
                    *slot = Some(f(comm, clock));
                });
            }
        });
        out.into_iter().map(Option::unwrap).collect()
    }

    #[test]
    fn barrier_syncs_clocks_to_max() {
        let ends = spawn_ranks(4, |comm, mut clock| {
            // Rank r works for r seconds before the barrier.
            clock.advance(SimDuration::from_secs(u64::from(comm.rank())));
            comm.barrier(&mut clock);
            clock.elapsed().as_secs_f64()
        });
        // Everyone ends at >= 3s (slowest rank), all equal.
        for &e in &ends {
            assert!(e >= 3.0);
            assert!((e - ends[0]).abs() < 1e-9);
        }
    }

    #[test]
    fn allgather_orders_by_rank() {
        let results = spawn_ranks(3, |comm, mut clock| {
            comm.allgather(&mut clock, vec![comm.rank() as u8 * 10])
        });
        for r in results {
            assert_eq!(r, vec![vec![0], vec![10], vec![20]]);
        }
    }

    #[test]
    fn bcast_delivers_root_payload() {
        let results = spawn_ranks(4, |comm, mut clock| {
            let payload = if comm.rank() == 2 { vec![7, 7] } else { vec![] };
            comm.bcast(&mut clock, 2, payload)
        });
        for r in results {
            assert_eq!(r, vec![7, 7]);
        }
    }

    #[test]
    fn allreduce_sum_and_max() {
        let sums = spawn_ranks(5, |comm, mut clock| {
            comm.allreduce_u64(&mut clock, u64::from(comm.rank()) + 1, |a, b| a + b)
        });
        assert!(sums.iter().all(|&s| s == 15));
        let maxes = spawn_ranks(5, |comm, mut clock| {
            comm.allreduce_max_f64(&mut clock, f64::from(comm.rank()))
        });
        assert!(maxes.iter().all(|&m| (m - 4.0).abs() < 1e-12));
    }

    #[test]
    fn repeated_collectives_do_not_deadlock() {
        let counts = spawn_ranks(4, |comm, mut clock| {
            let mut total = 0u64;
            for i in 0..50 {
                total += comm.allreduce_u64(&mut clock, i, |a, b| a + b);
            }
            total
        });
        assert!(counts.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn single_rank_communicator_works() {
        let r = spawn_ranks(1, |comm, mut clock| {
            comm.barrier(&mut clock);
            comm.allreduce_u64(&mut clock, 9, |a, b| a + b)
        });
        assert_eq!(r, vec![9]);
    }
}
