//! Virtual time for the I/O simulation substrate.
//!
//! The paper's central modification to Darshan is exposing the *absolute
//! timestamp* of every I/O event (Section III/IV.A: a time struct
//! pointer threaded through all of Darshan's modules). Our substrate
//! runs on a virtual clock instead of `clock_gettime()`: every rank owns
//! a [`Clock`] that advances by the durations the file-system model
//! computes, plus any cost the connector charges for message formatting.
//!
//! Two time axes exist, exactly as in the paper:
//!
//! * **relative seconds** since job start — what stock Darshan records;
//! * **absolute epoch time** — what the Darshan-LDMS integration adds,
//!   obtained here by anchoring each job at a configurable epoch base
//!   (standing in for the real wall-clock date of the run, which also
//!   drives the file-system "weather" model).
//!
//! All arithmetic is in integer nanoseconds so simulations are exactly
//! reproducible across runs and platforms.

#![forbid(unsafe_code)]

mod clock;
mod duration;
mod epoch;

pub use clock::{Clock, TimePair};
pub use duration::SimDuration;
pub use epoch::Epoch;
