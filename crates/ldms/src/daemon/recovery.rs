//! Crash-stop faults and write-ahead-log recovery.
//!
//! A daemon's crash windows are fixed when the network builds it. At a
//! crash instant all volatile state dies: parked queue entries without
//! a durable WAL record are attributed `lost-crash`, covered ones live
//! on in the log, and the restart replays them into the queue. With
//! telemetry on, the crash also freezes the daemon's flight recorder
//! into a [`CrashDump`].

use super::telemetry::DaemonTelemetry;
use super::Ldmsd;
use crate::ledger::LossCause;
use crate::queue::QueueEntry;
use crate::wal::{WalStats, WriteAheadLog};
use iosim_telemetry::{CrashDump, FaultKind, FlightEvent, HopKind};
use iosim_time::Epoch;
use std::sync::atomic::Ordering;

/// One scripted crash-stop window and its processing state.
pub(super) struct CrashWindow {
    at: Epoch,
    restart: Epoch,
    crashed: bool,
    replayed: bool,
}

impl CrashWindow {
    pub(super) fn new((at, restart): (Epoch, Epoch)) -> Self {
        Self {
            at,
            restart,
            crashed: false,
            replayed: false,
        }
    }
}

impl Ldmsd {
    /// Crash-stop events this daemon has processed.
    pub(crate) fn crashes_seen(&self) -> u64 {
        self.crash_count.load(Ordering::Relaxed)
    }

    /// Crash dumps recorded at this daemon's crash-stop instants
    /// (empty unless telemetry is on and a crash fired).
    pub(crate) fn crash_dumps(&self) -> Vec<CrashDump> {
        self.crash_dumps.lock().clone()
    }

    /// Counter snapshot of the hop's write-ahead log, if it has one.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.upstream
            .as_ref()
            .and_then(|u| u.wal.as_ref().map(WriteAheadLog::stats))
    }

    /// The earliest crash or WAL-replaying restart still to process.
    pub(super) fn next_crash_event(&self) -> Option<Epoch> {
        if !self.has_crashes.load(Ordering::Relaxed) {
            return None;
        }
        self.crashes
            .lock()
            .iter()
            .flat_map(|cw| {
                let crash = (!cw.crashed).then_some(cw.at);
                let restart = (!cw.replayed).then_some(cw.restart);
                crash.into_iter().chain(restart)
            })
            .min()
    }

    /// Processes scheduled crash windows that have come due: at the
    /// crash instant all volatile state dies; at the restart instant
    /// durable WAL records are replayed into the queue.
    pub(super) fn process_crashes(&self, now: Epoch) {
        if !self.has_crashes.load(Ordering::Relaxed) {
            return;
        }
        let mut crashes = self.crashes.lock();
        for cw in crashes.iter_mut() {
            if !cw.crashed && cw.at <= now {
                cw.crashed = true;
                self.crash_count.fetch_add(1, Ordering::Relaxed);
                self.crash_drop_volatile(cw.at);
                self.note_fault(
                    cw.at,
                    FaultKind::Crash,
                    format!(
                        "crash-stop at {:.3}s (restart {:.3}s)",
                        cw.at.as_secs_f64(),
                        cw.restart.as_secs_f64()
                    ),
                );
                self.note_health(cw.at);
            }
            if cw.crashed && !cw.replayed && cw.restart <= now {
                cw.replayed = true;
                self.replay_wal(cw.restart);
                self.note_fault(
                    cw.restart,
                    FaultKind::Restart,
                    format!("restarted; {} entries parked for retry", self.queued()),
                );
                self.note_health(cw.restart);
            }
        }
        if crashes.iter().all(|cw| cw.replayed) {
            self.has_crashes.store(false, Ordering::Relaxed);
        }
    }

    /// Crash-stop: destroys the volatile retry queue. Entries without
    /// a surviving (durable) WAL record are attributed `lost-crash`;
    /// covered entries live on in the log until the restart replays
    /// them.
    fn crash_drop_volatile(&self, at: Epoch) {
        let tel = self.tel.as_ref();
        let Some(up) = &self.upstream else {
            // A terminal daemon has no queue to lose, but its flight
            // recorder still explains what it saw before dying.
            if let Some(tel) = tel {
                self.snapshot_crash_dump(tel, at, 0, 0);
            }
            return;
        };
        let entries = up.queue.drain_all();
        let surviving = up.wal.as_ref().map(|w| w.crash());
        let dropped = entries.len() as u64;
        let mut wal_covered = 0u64;
        for e in entries {
            let covered = matches!(
                (&surviving, e.lsn),
                (Some(set), Some(lsn)) if set.contains(&lsn)
            );
            if covered {
                wal_covered += 1;
            } else {
                self.record_loss(&self.name, LossCause::Crash, &e.msg);
            }
        }
        if let Some(tel) = tel {
            tel.queue_depth.set(0);
            self.snapshot_crash_dump(tel, at, dropped, wal_covered);
        }
    }

    /// Freezes the flight recorder into a [`CrashDump`] at the crash
    /// instant, after noting the crash itself so the dump's last line
    /// is the death.
    fn snapshot_crash_dump(&self, tel: &DaemonTelemetry, at: Epoch, dropped: u64, covered: u64) {
        tel.flight.note(
            at,
            format!("crash-stop: {dropped} volatile queue entries ({covered} WAL-covered)"),
        );
        self.crash_dumps.lock().push(CrashDump {
            daemon: self.name.clone(),
            at_s: at.as_secs_f64(),
            dropped_volatile: dropped,
            wal_covered: covered,
            events: tel
                .flight
                .snapshot()
                .iter()
                .map(FlightEvent::render)
                .collect(),
        });
    }

    /// Restart recovery: re-parks every durable, uncompleted WAL
    /// record. Replayed messages are flagged so the terminal can count
    /// genuine recoveries, and keep their LSN so a later loss (or a
    /// second crash) stays exactly accounted.
    fn replay_wal(&self, restart: Epoch) {
        let Some(up) = &self.upstream else { return };
        let Some(w) = &up.wal else { return };
        let tel = self.tel.as_ref();
        for rec in w.replay() {
            let mut msg = rec.msg;
            if let Some(tel) = tel {
                tel.wal_replayed.inc();
                tel.flight.note(
                    restart,
                    format!("wal-replay: lsn={} attempts={}", rec.lsn, rec.attempts),
                );
                if let Some(trace) = msg.trace {
                    // The replayed message keeps its original trace
                    // id and gains a replay span covering the gap
                    // between its last sighting and the restart.
                    tel.hub.span(
                        trace,
                        HopKind::Replay,
                        &tel.site,
                        restart,
                        restart.since(msg.recv_time),
                    );
                }
            }
            msg.replayed = true;
            msg.recv_time = msg.recv_time.max(restart);
            let attempts = rec.attempts;
            let next_attempt = up.queue.backoff_after(attempts.max(1), restart);
            let entry = QueueEntry {
                msg,
                attempts,
                next_attempt,
                expire: None,
                cause: LossCause::Crash,
                lsn: Some(rec.lsn),
            };
            self.enqueue(up, entry, restart);
        }
        if let Some(tel) = tel {
            tel.queue_depth.set(up.queue.len() as u64);
        }
    }
}
