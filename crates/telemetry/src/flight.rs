//! The per-daemon flight recorder.
//!
//! Each daemon keeps a small ring buffer of its most recent notable
//! events — parks, retry expiries, failovers, crashes, WAL replays —
//! stamped with virtual time. The ring is always on: the events it
//! records only happen on fault paths, so the calm hot path never
//! touches it. When a crash-stop fault hits, the ring is snapshotted
//! into a [`CrashDump`] and attached to the run's `RecoveryReport`,
//! so a chaos drill can explain *why* a message was lost (what the
//! daemon was doing in the moments before it died), not just that
//! it was.

use iosim_time::Epoch;
use parking_lot::Mutex;
use std::collections::VecDeque;

/// One recorded event: a virtual instant and a rendered description.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightEvent {
    /// Virtual instant the event happened.
    pub at: Epoch,
    /// Human-readable description.
    pub what: String,
}

impl FlightEvent {
    /// Renders as `  t=<epoch>s  <what>`.
    pub fn render(&self) -> String {
        format!("  t={:.6}s  {}", self.at.as_secs_f64(), self.what)
    }
}

/// Ring capacity — enough to cover the fault window a chaos drill
/// opens, small enough to be negligible per daemon.
const FLIGHT_CAPACITY: usize = 64;

/// Bounded ring buffer of the [`FLIGHT_CAPACITY`] most recent
/// [`FlightEvent`]s.
#[derive(Debug, Default)]
pub struct FlightRecorder {
    events: Mutex<VecDeque<FlightEvent>>,
}

impl FlightRecorder {
    /// Records an event, evicting the oldest once the ring is full.
    pub fn note(&self, at: Epoch, what: String) {
        let mut events = self.events.lock();
        if events.len() == FLIGHT_CAPACITY {
            events.pop_front();
        }
        events.push_back(FlightEvent { at, what });
    }

    /// Events currently in the ring, oldest first.
    pub fn snapshot(&self) -> Vec<FlightEvent> {
        self.events.lock().iter().cloned().collect()
    }
}

/// The flight-recorder snapshot taken at a crash-stop fault, attached
/// to the run's `RecoveryReport`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CrashDump {
    /// The daemon that crashed.
    pub daemon: String,
    /// Virtual instant of the crash, seconds since the epoch.
    pub at_s: f64,
    /// Volatile queue entries dropped by the crash.
    pub dropped_volatile: u64,
    /// Of those, entries covered by a durable WAL record (replayable
    /// at restart).
    pub wal_covered: u64,
    /// Rendered flight-recorder lines, oldest first, as of the crash.
    pub events: Vec<String>,
}

impl CrashDump {
    /// Multi-line rendering for CLI output.
    pub fn render(&self) -> String {
        let mut out = format!(
            "flight recorder: {} crashed at t={:.6}s ({} volatile entries dropped, {} WAL-covered)\n",
            self.daemon, self.at_s, self.dropped_volatile, self.wal_covered
        );
        if self.events.is_empty() {
            out.push_str("  (no recorded events before the crash)\n");
        } else {
            for line in &self.events {
                out.push_str(line);
                out.push('\n');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest() {
        let fr = FlightRecorder::default();
        let n = FLIGHT_CAPACITY as u64 + 2;
        for i in 0..n {
            fr.note(Epoch::from_secs(100 + i), format!("event {i}"));
        }
        let snap = fr.snapshot();
        assert_eq!(snap.len(), FLIGHT_CAPACITY);
        assert_eq!(snap[0].what, "event 2");
        assert_eq!(snap[FLIGHT_CAPACITY - 1].what, format!("event {}", n - 1));
    }

    #[test]
    fn dump_renders_header_and_events() {
        let dump = CrashDump {
            daemon: "voltrino-head".to_string(),
            at_s: 100.5,
            dropped_volatile: 3,
            wal_covered: 2,
            events: vec!["  t=100.400000s  park: cause=link-loss".to_string()],
        };
        let text = dump.render();
        assert!(text.contains("voltrino-head crashed at t=100.5"));
        assert!(text.contains("3 volatile entries dropped"));
        assert!(text.contains("park: cause=link-loss"));
        let empty = CrashDump::default().render();
        assert!(empty.contains("no recorded events"));
    }
}
