//! Row checksums and the failure ledger the correctness checks fill.

use dsos_sim::Value;
use iosim_util::hash::{fnv1a64_continue, FNV_OFFSET};

/// FNV-1a over a row's values, each tagged with its type so `U64(1)`
/// and `I64(1)` differ. Floats hash by bit pattern: the store must hold
/// exactly the value the event carried.
pub fn hash_row(row: &[Value]) -> u64 {
    let mut h = FNV_OFFSET;
    for v in row {
        h = match v {
            Value::U64(x) => fnv1a64_continue(fnv1a64_continue(h, b"u"), &x.to_le_bytes()),
            Value::I64(x) => fnv1a64_continue(fnv1a64_continue(h, b"i"), &x.to_le_bytes()),
            Value::F64(x) => {
                fnv1a64_continue(fnv1a64_continue(h, b"f"), &x.to_bits().to_le_bytes())
            }
            Value::Str(s) => fnv1a64_continue(
                fnv1a64_continue(fnv1a64_continue(h, b"s"), &(s.len() as u64).to_le_bytes()),
                s.as_bytes(),
            ),
        };
    }
    h
}

/// Count plus order-independent checksum of a row set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SetSum {
    pub count: u64,
    pub sum: u64,
}

impl SetSum {
    pub fn add(&mut self, row_hash: u64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(row_hash);
    }

    pub fn of_rows(rows: &[Vec<Value>]) -> Self {
        let mut s = Self::default();
        for r in rows {
            s.add(hash_row(r));
        }
        s
    }
}

/// Count plus order-sensitive checksum of a row sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeqSum {
    pub count: u64,
    pub chain: u64,
}

impl Default for SeqSum {
    fn default() -> Self {
        Self {
            count: 0,
            chain: FNV_OFFSET,
        }
    }
}

impl SeqSum {
    pub fn add(&mut self, row_hash: u64) {
        self.count += 1;
        self.chain = fnv1a64_continue(self.chain, &row_hash.to_le_bytes());
    }

    pub fn of_rows(rows: &[Vec<Value>]) -> Self {
        let mut s = Self::default();
        for r in rows {
            s.add(hash_row(r));
        }
        s
    }
}

/// What one pass attempted and what failed, with the reasons. A pass
/// is correct when nothing failed and no check tripped.
#[derive(Debug, Default, Clone)]
pub struct Verdict {
    /// Events offered or queries issued.
    pub attempted: u64,
    /// Events neither stored nor accounted for, or queries whose
    /// result differs from the reference.
    pub failed: u64,
    /// Checks that tripped, in words.
    pub problems: Vec<String>,
}

impl Verdict {
    pub fn attempted(attempted: u64) -> Self {
        Self {
            attempted,
            ..Self::default()
        }
    }

    /// Records a tripped check that is not a per-operation failure.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Records `n` failed operations.
    pub fn fail(&mut self, n: u64, what: impl FnOnce() -> String) {
        if n > 0 {
            self.failed += n;
            self.problems.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    pub fn merge(&mut self, other: Verdict) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(rank: u64, ts: f64) -> Vec<Value> {
        vec![Value::U64(rank), Value::F64(ts), Value::Str("read".into())]
    }

    #[test]
    fn row_hash_sees_type_value_and_string_boundaries() {
        assert_ne!(hash_row(&[Value::U64(1)]), hash_row(&[Value::I64(1)]));
        assert_ne!(hash_row(&row(1, 0.5)), hash_row(&row(1, 0.5000000001)));
        let ab = [Value::Str("ab".into()), Value::Str("c".into())];
        let bc = [Value::Str("a".into()), Value::Str("bc".into())];
        assert_ne!(hash_row(&ab), hash_row(&bc));
        assert_eq!(hash_row(&row(3, 1.0)), hash_row(&row(3, 1.0)));
    }

    #[test]
    fn set_sum_ignores_order_and_seq_sum_does_not() {
        let a = vec![row(0, 1.0), row(1, 2.0), row(2, 3.0)];
        let b = vec![row(2, 3.0), row(0, 1.0), row(1, 2.0)];
        assert_eq!(SetSum::of_rows(&a), SetSum::of_rows(&b));
        assert_ne!(SeqSum::of_rows(&a), SeqSum::of_rows(&b));
        assert_ne!(SetSum::of_rows(&a), SetSum::of_rows(&a[..2]));
    }

    #[test]
    fn a_verdict_is_correct_only_with_no_failure_and_no_problem() {
        let mut v = Verdict::attempted(10);
        v.require(true, || unreachable!());
        assert!(v.correct());
        v.fail(0, || unreachable!());
        assert!(v.correct());
        v.fail(2, || "two rows missing".into());
        assert!(!v.correct());
        assert_eq!(v.failed, 2);
        let mut w = Verdict::attempted(5);
        w.require(false, || "ledger does not balance".into());
        assert!(!w.correct());
        v.merge(w);
        assert_eq!((v.attempted, v.failed, v.problems.len()), (15, 2, 2));
    }
}
