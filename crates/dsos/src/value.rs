//! Typed attribute values.

use std::cmp::Ordering;
use std::fmt;

/// Attribute types supported by schemas. Declaration order is the
/// order values of different types sort in (see [`Value`]'s `Ord`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Type {
    /// Unsigned 64-bit integer.
    U64,
    /// Signed 64-bit integer.
    I64,
    /// 64-bit float.
    F64,
    /// UTF-8 string.
    Str,
}

/// One attribute value. Totally ordered (floats order NaN last) so any
/// combination can serve as an index key.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer value.
    U64(u64),
    /// Signed integer value.
    I64(i64),
    /// Float value.
    F64(f64),
    /// String value.
    Str(String),
}

/// One attribute value, borrowed: what ingest reads out of a message
/// and what a scan hands out of a stored row, with no `String` built.
/// Ordered as [`Value`] is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueRef<'a> {
    /// Unsigned integer value.
    U64(u64),
    /// Signed integer value.
    I64(i64),
    /// Float value.
    F64(f64),
    /// String value.
    Str(&'a str),
}

/// A cell that reads as a [`ValueRef`]: an owned [`Value`] or a
/// borrowed one, so one validation and one ingest path serve both.
pub trait AsValueRef {
    /// The cell, borrowed.
    fn as_value_ref(&self) -> ValueRef<'_>;
}

impl AsValueRef for Value {
    fn as_value_ref(&self) -> ValueRef<'_> {
        self.as_ref()
    }
}

impl AsValueRef for ValueRef<'_> {
    fn as_value_ref(&self) -> ValueRef<'_> {
        *self
    }
}

impl Value {
    /// The value, borrowed.
    pub fn as_ref(&self) -> ValueRef<'_> {
        match self {
            Value::U64(v) => ValueRef::U64(*v),
            Value::I64(v) => ValueRef::I64(*v),
            Value::F64(v) => ValueRef::F64(*v),
            Value::Str(s) => ValueRef::Str(s),
        }
    }

    /// Unsigned accessor.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_ref().as_u64()
    }

    /// Signed accessor.
    pub fn as_i64(&self) -> Option<i64> {
        self.as_ref().as_i64()
    }

    /// Float accessor (integers coerce).
    pub fn as_f64(&self) -> Option<f64> {
        self.as_ref().as_f64()
    }

    /// String accessor.
    pub fn as_str(&self) -> Option<&str> {
        self.as_ref().as_str()
    }

    /// Parses a string into the given type (CSV import).
    pub fn parse(ty: Type, s: &str) -> Option<Value> {
        ValueRef::parse(ty, s).map(ValueRef::to_owned)
    }
}

impl<'a> ValueRef<'a> {
    /// The value's type.
    pub(crate) fn ty(self) -> Type {
        match self {
            ValueRef::U64(_) => Type::U64,
            ValueRef::I64(_) => Type::I64,
            ValueRef::F64(_) => Type::F64,
            ValueRef::Str(_) => Type::Str,
        }
    }

    /// The value, owned.
    pub fn to_owned(self) -> Value {
        match self {
            ValueRef::U64(v) => Value::U64(v),
            ValueRef::I64(v) => Value::I64(v),
            ValueRef::F64(v) => Value::F64(v),
            ValueRef::Str(s) => Value::Str(s.to_string()),
        }
    }

    /// Unsigned accessor.
    pub fn as_u64(self) -> Option<u64> {
        match self {
            ValueRef::U64(v) => Some(v),
            ValueRef::I64(v) if v >= 0 => Some(v as u64),
            _ => None,
        }
    }

    /// Signed accessor.
    pub fn as_i64(self) -> Option<i64> {
        match self {
            ValueRef::I64(v) => Some(v),
            ValueRef::U64(v) if v <= i64::MAX as u64 => Some(v as i64),
            _ => None,
        }
    }

    /// Float accessor (integers coerce).
    pub fn as_f64(self) -> Option<f64> {
        match self {
            ValueRef::F64(v) => Some(v),
            ValueRef::U64(v) => Some(v as f64),
            ValueRef::I64(v) => Some(v as f64),
            ValueRef::Str(_) => None,
        }
    }

    /// String accessor.
    pub fn as_str(self) -> Option<&'a str> {
        match self {
            ValueRef::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Parses a string into the given type, borrowing a `Str`.
    pub fn parse(ty: Type, s: &'a str) -> Option<Self> {
        Some(match ty {
            Type::U64 => ValueRef::U64(s.parse().ok()?),
            Type::I64 => ValueRef::I64(s.parse().ok()?),
            Type::F64 => ValueRef::F64(s.parse().ok()?),
            Type::Str => ValueRef::Str(s),
        })
    }

    /// The total order of values: within a type by value, floats with
    /// `-0.0 == 0.0` and every NaN equal and above everything else;
    /// across types by type.
    pub(crate) fn total_cmp(self, other: ValueRef<'_>) -> Ordering {
        match (self, other) {
            (ValueRef::U64(a), ValueRef::U64(b)) => a.cmp(&b),
            (ValueRef::I64(a), ValueRef::I64(b)) => a.cmp(&b),
            (ValueRef::F64(a), ValueRef::F64(b)) => a.partial_cmp(&b).unwrap_or_else(|| {
                // NaN sorts after everything, NaN == NaN.
                match (a.is_nan(), b.is_nan()) {
                    (true, true) => Ordering::Equal,
                    (true, false) => Ordering::Greater,
                    (false, true) => Ordering::Less,
                    (false, false) => unreachable!(),
                }
            }),
            (ValueRef::Str(a), ValueRef::Str(b)) => a.cmp(b),
            // Heterogeneous comparisons order by type; schemas make
            // this unreachable for well-formed keys, but the total order
            // must still be lawful.
            (a, b) => a.ty().cmp(&b.ty()),
        }
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_ref().total_cmp(other.as_ref())
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::U64(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_within_types() {
        assert!(Value::U64(1) < Value::U64(2));
        assert!(Value::Str("a".into()) < Value::Str("b".into()));
        assert!(Value::F64(1.5) < Value::F64(2.5));
        assert!(Value::I64(-5) < Value::I64(3));
    }

    #[test]
    fn nan_sorts_last_and_equals_itself() {
        let nan = Value::F64(f64::NAN);
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
        assert!(Value::F64(1e300) < nan);
    }

    #[test]
    fn parse_round_trips() {
        assert_eq!(Value::parse(Type::U64, "42"), Some(Value::U64(42)));
        assert_eq!(Value::parse(Type::I64, "-7"), Some(Value::I64(-7)));
        assert_eq!(Value::parse(Type::F64, "2.5"), Some(Value::F64(2.5)));
        assert_eq!(
            Value::parse(Type::Str, "hello"),
            Some(Value::Str("hello".into()))
        );
        assert_eq!(Value::parse(Type::U64, "nope"), None);
    }

    #[test]
    fn accessors_coerce_sensibly() {
        assert_eq!(Value::I64(5).as_u64(), Some(5));
        assert_eq!(Value::I64(-5).as_u64(), None);
        assert_eq!(Value::U64(7).as_f64(), Some(7.0));
        assert_eq!(Value::Str("x".into()).as_f64(), None);
    }

    #[test]
    fn display_renders_plainly() {
        assert_eq!(Value::U64(3).to_string(), "3");
        assert_eq!(Value::Str("f.dat".into()).to_string(), "f.dat");
    }
}
