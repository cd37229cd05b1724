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

impl Value {
    /// The value's type.
    pub(crate) fn ty(&self) -> Type {
        match self {
            Value::U64(_) => Type::U64,
            Value::I64(_) => Type::I64,
            Value::F64(_) => Type::F64,
            Value::Str(_) => Type::Str,
        }
    }

    /// Unsigned accessor.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            Value::I64(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    /// Signed accessor.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::I64(v) => Some(*v),
            Value::U64(v) if *v <= i64::MAX as u64 => Some(*v as i64),
            _ => None,
        }
    }

    /// Float accessor (integers coerce).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F64(v) => Some(*v),
            Value::U64(v) => Some(*v as f64),
            Value::I64(v) => Some(*v as f64),
            Value::Str(_) => None,
        }
    }

    /// String accessor.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Parses a string into the given type (CSV import).
    pub fn parse(ty: Type, s: &str) -> Option<Value> {
        Some(match ty {
            Type::U64 => Value::U64(s.parse().ok()?),
            Type::I64 => Value::I64(s.parse().ok()?),
            Type::F64 => Value::F64(s.parse().ok()?),
            Type::Str => Value::Str(s.to_string()),
        })
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
        match (self, other) {
            (Value::U64(a), Value::U64(b)) => a.cmp(b),
            (Value::I64(a), Value::I64(b)) => a.cmp(b),
            (Value::F64(a), Value::F64(b)) => a.partial_cmp(b).unwrap_or_else(|| {
                // NaN sorts after everything, NaN == NaN.
                match (a.is_nan(), b.is_nan()) {
                    (true, true) => Ordering::Equal,
                    (true, false) => Ordering::Greater,
                    (false, true) => Ordering::Less,
                    (false, false) => unreachable!(),
                }
            }),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            // Heterogeneous comparisons order by type; schemas make
            // this unreachable for well-formed keys, but the total order
            // must still be lawful.
            (a, b) => a.ty().cmp(&b.ty()),
        }
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
