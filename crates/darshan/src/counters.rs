//! Per-record counter sets.
//!
//! Real Darshan keeps dozens of integer and floating-point counters per
//! (module, file) record. We implement the representative subset that
//! the paper's connector publishes (Table I) plus what the summary log
//! needs: operation counts, byte totals, maximum offsets, read/write
//! switches, cumulative operation time, open/close window, and the
//! access-size histogram Darshan reports in its job summaries.

/// Darshan's access-size histogram buckets (upper bounds in bytes).
pub(crate) const SIZE_BUCKETS: [u64; 10] = [
    100,
    1_024,
    10_240,
    102_400,
    1_048_576,
    4_194_304,
    10_485_760,
    104_857_600,
    1_073_741_824,
    u64::MAX,
];

/// Returns the histogram bucket index for an access of `bytes`.
pub(crate) fn size_bucket(bytes: u64) -> usize {
    SIZE_BUCKETS
        .iter()
        .position(|&ub| bytes <= ub)
        .unwrap_or(SIZE_BUCKETS.len() - 1)
}

/// Counter record for one (module, file, rank).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecordCounters {
    /// Number of opens.
    pub opens: u64,
    /// Number of closes.
    pub closes: u64,
    /// Number of reads.
    pub reads: u64,
    /// Number of writes.
    pub writes: u64,
    /// Number of flushes.
    pub flushes: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Highest byte offset read (`-1` before any read).
    pub max_byte_read: i64,
    /// Highest byte offset written (`-1` before any write).
    pub max_byte_written: i64,
    /// Times access alternated between read and write (Table I
    /// `switches`).
    pub rw_switches: u64,
    /// Cumulative time spent in reads (seconds).
    pub f_read_time: f64,
    /// Cumulative time spent in writes (seconds).
    pub f_write_time: f64,
    /// Cumulative time spent in metadata ops (seconds).
    pub f_meta_time: f64,
    /// Relative time of the first open (`-1` before any open).
    pub f_open_start: f64,
    /// Relative time of the last close (`-1` before any close).
    pub f_close_end: f64,
    /// Access-size histogram over reads and writes.
    pub size_histogram: [u64; 10],
    /// Direction of the most recent read/write (`None` before the
    /// first), used to count switches.
    last_dir: Option<bool>, // true = write
}

impl RecordCounters {
    /// Fresh counters with sentinel values matching Darshan's defaults.
    pub(crate) fn new() -> Self {
        Self {
            max_byte_read: -1,
            max_byte_written: -1,
            f_open_start: -1.0,
            f_close_end: -1.0,
            ..Default::default()
        }
    }

    /// Records an open at relative time `t`.
    pub(crate) fn record_open(&mut self, t: f64, meta_time: f64) {
        self.opens += 1;
        if self.f_open_start < 0.0 {
            self.f_open_start = t;
        }
        self.f_meta_time += meta_time;
    }

    /// Records a close at relative time `t`.
    pub(crate) fn record_close(&mut self, t: f64, meta_time: f64) {
        self.closes += 1;
        self.f_close_end = t;
        self.f_meta_time += meta_time;
    }

    /// Records a flush.
    pub(crate) fn record_flush(&mut self, meta_time: f64) {
        self.flushes += 1;
        self.f_meta_time += meta_time;
    }

    /// Records a read of `bytes` at `offset` taking `dur` seconds.
    /// Returns `true` when the access switched direction.
    pub(crate) fn record_read(&mut self, offset: u64, bytes: u64, dur: f64) -> bool {
        self.reads += 1;
        self.bytes_read += bytes;
        let high = offset.saturating_add(bytes).saturating_sub(1) as i64;
        self.max_byte_read = self.max_byte_read.max(high);
        self.f_read_time += dur;
        self.size_histogram[size_bucket(bytes)] += 1;
        let switched = self.last_dir == Some(true);
        if switched {
            self.rw_switches += 1;
        }
        self.last_dir = Some(false);
        switched
    }

    /// Records a write of `bytes` at `offset` taking `dur` seconds.
    /// Returns `true` when the access switched direction.
    pub(crate) fn record_write(&mut self, offset: u64, bytes: u64, dur: f64) -> bool {
        self.writes += 1;
        self.bytes_written += bytes;
        let high = offset.saturating_add(bytes).saturating_sub(1) as i64;
        self.max_byte_written = self.max_byte_written.max(high);
        self.f_write_time += dur;
        self.size_histogram[size_bucket(bytes)] += 1;
        let switched = self.last_dir == Some(false);
        if switched {
            self.rw_switches += 1;
        }
        self.last_dir = Some(true);
        switched
    }

    /// Total operations across all classes.
    pub fn total_ops(&self) -> u64 {
        self.opens + self.closes + self.reads + self.writes + self.flushes
    }

    /// Merges another record into this one (rank reduction at log
    /// time). Times accumulate; extrema combine.
    pub(crate) fn merge(&mut self, other: &RecordCounters) {
        self.opens += other.opens;
        self.closes += other.closes;
        self.reads += other.reads;
        self.writes += other.writes;
        self.flushes += other.flushes;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.max_byte_read = self.max_byte_read.max(other.max_byte_read);
        self.max_byte_written = self.max_byte_written.max(other.max_byte_written);
        self.rw_switches += other.rw_switches;
        self.f_read_time += other.f_read_time;
        self.f_write_time += other.f_write_time;
        self.f_meta_time += other.f_meta_time;
        self.f_open_start = match (self.f_open_start < 0.0, other.f_open_start < 0.0) {
            (true, _) => other.f_open_start,
            (false, true) => self.f_open_start,
            (false, false) => self.f_open_start.min(other.f_open_start),
        };
        self.f_close_end = self.f_close_end.max(other.f_close_end);
        for (a, b) in self.size_histogram.iter_mut().zip(&other.size_histogram) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_buckets_partition() {
        assert_eq!(size_bucket(0), 0);
        assert_eq!(size_bucket(100), 0);
        assert_eq!(size_bucket(101), 1);
        assert_eq!(size_bucket(1024), 1);
        assert_eq!(size_bucket(1_048_576), 4);
        assert_eq!(size_bucket(u64::MAX), 9);
    }

    #[test]
    fn switches_count_direction_changes() {
        let mut c = RecordCounters::new();
        assert!(!c.record_write(0, 10, 0.1)); // first access, no switch
        assert!(!c.record_write(10, 10, 0.1));
        assert!(c.record_read(0, 10, 0.1)); // w -> r
        assert!(c.record_write(20, 10, 0.1)); // r -> w
        assert_eq!(c.rw_switches, 2);
    }

    #[test]
    fn max_byte_tracks_highest_offset() {
        let mut c = RecordCounters::new();
        assert_eq!(c.max_byte_written, -1);
        c.record_write(100, 50, 0.0);
        assert_eq!(c.max_byte_written, 149);
        c.record_write(0, 10, 0.0);
        assert_eq!(c.max_byte_written, 149);
    }

    #[test]
    fn open_close_window() {
        let mut c = RecordCounters::new();
        c.record_open(1.5, 0.01);
        c.record_open(9.0, 0.01); // re-open later: start keeps first
        c.record_close(12.0, 0.01);
        assert_eq!(c.f_open_start, 1.5);
        assert_eq!(c.f_close_end, 12.0);
        assert_eq!(c.opens, 2);
        // Two opens + one close, each contributing 0.01s of meta time.
        assert!((c.f_meta_time - 0.03).abs() < 1e-12);
    }

    #[test]
    fn merge_combines_extrema_and_sums() {
        let mut a = RecordCounters::new();
        a.record_open(2.0, 0.0);
        a.record_write(0, 100, 0.5);
        a.record_close(5.0, 0.0);
        let mut b = RecordCounters::new();
        b.record_open(1.0, 0.0);
        b.record_read(0, 40, 0.25);
        b.record_close(9.0, 0.0);
        a.merge(&b);
        assert_eq!(a.opens, 2);
        assert_eq!(a.bytes_written, 100);
        assert_eq!(a.bytes_read, 40);
        assert_eq!(a.f_open_start, 1.0);
        assert_eq!(a.f_close_end, 9.0);
        assert!((a.f_read_time - 0.25).abs() < 1e-12);
    }

    #[test]
    fn merge_with_unopened_keeps_sentinels_sane() {
        let mut a = RecordCounters::new();
        let b = RecordCounters::new();
        a.merge(&b);
        assert_eq!(a.f_open_start, -1.0);
        let mut c = RecordCounters::new();
        c.record_open(3.0, 0.0);
        a.merge(&c);
        assert_eq!(a.f_open_start, 3.0);
    }

    #[test]
    fn histogram_accumulates_both_directions() {
        let mut c = RecordCounters::new();
        c.record_write(0, 50, 0.0); // bucket 0
        c.record_read(0, 2048, 0.0); // bucket 2
        assert_eq!(c.size_histogram[0], 1);
        assert_eq!(c.size_histogram[2], 1);
        assert_eq!(c.total_ops(), 2);
    }
}
