//! Schemas and objects.

use crate::row::number;
use crate::value::{AsValueRef, Type, Value, ValueRef};
use std::collections::HashMap;
use std::sync::Arc;

/// One attribute definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrDef {
    /// Attribute name.
    pub name: String,
    /// Attribute type.
    pub ty: Type,
}

/// A joint (composite) index definition over schema attributes — the
/// paper's `job_rank_time` style indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexDef {
    /// Index name (conventionally the joined attribute names).
    pub name: String,
    /// Attribute positions forming the key, in significance order.
    pub attrs: Vec<usize>,
}

/// Most attributes one joint index may key.
pub(crate) const MAX_KEY_ATTRS: usize = 4;

/// An index key packed into order-preserving words, one per key
/// attribute and zero beyond the index's arity (in scan bounds too):
/// comparing two packed keys of one index compares their values as
/// [`Value`]'s `Ord` does.
pub(crate) type IndexKey = [u64; MAX_KEY_ATTRS];

/// A position between packed keys, for scan bounds: just below every
/// entry with this key (`false`) or just above every one (`true`).
pub(crate) type Cut = (IndexKey, bool);

const SIGN: u64 = 1 << 63;

/// Every NaN packs to this one word, the first above `+∞`'s.
const NAN_WORD: u64 = 0xfff0_0000_0000_0001;

/// The order-preserving word of a key value: a `U64` as is, an `I64`
/// with the sign bit flipped, an `F64` by the total-order bit trick
/// (negatives inverted, positives with the sign bit set) after folding
/// `-0.0` into `+0.0` and every NaN into [`NAN_WORD`], which are the
/// values `Value::cmp` calls equal.
fn key_word(v: ValueRef<'_>) -> u64 {
    match v {
        ValueRef::U64(x) => x,
        ValueRef::I64(x) => x as u64 ^ SIGN,
        // With the sign shifted out both zeros are 0, and a NaN lies
        // above `∞`'s bits.
        ValueRef::F64(x) => match x.to_bits() {
            bits if bits << 1 == 0 => SIGN,
            bits if bits << 1 > 0xffe0_0000_0000_0000 => NAN_WORD,
            bits if bits & SIGN == 0 => bits | SIGN,
            bits => !bits,
        },
        ValueRef::Str(_) => unreachable!("Schema::build admits no Str index attribute"),
    }
}

/// A schema: named, typed attributes plus joint index definitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    name: String,
    attrs: Vec<AttrDef>,
    by_name: HashMap<String, usize>,
    indices: Vec<IndexDef>,
}

/// Errors from schema/object operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaError {
    /// Referenced attribute does not exist.
    NoSuchAttr(String),
    /// Object arity does not match the schema.
    Arity { expected: usize, got: usize },
    /// Value type does not match the attribute type.
    TypeMismatch {
        /// Offending attribute.
        attr: String,
        /// Declared type.
        expected: Type,
    },
    /// Duplicate attribute or index name.
    Duplicate(String),
    /// An index keys a `Str` attribute: index keys are packed into
    /// fixed-width words, which a string has no order-preserving form of.
    StrIndexAttr {
        /// Offending index.
        index: String,
        /// Its string attribute.
        attr: String,
    },
    /// An index keys more attributes than a packed key has words.
    IndexTooWide {
        /// Offending index.
        index: String,
        /// Attributes it names.
        attrs: usize,
    },
}

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchemaError::NoSuchAttr(a) => write!(f, "no such attribute: {a}"),
            SchemaError::Arity { expected, got } => {
                write!(f, "object has {got} values, schema has {expected}")
            }
            SchemaError::TypeMismatch { attr, expected } => {
                write!(f, "attribute {attr} expects {expected:?}")
            }
            SchemaError::Duplicate(n) => write!(f, "duplicate name: {n}"),
            SchemaError::StrIndexAttr { index, attr } => {
                write!(f, "index {index} keys string attribute {attr}")
            }
            SchemaError::IndexTooWide { index, attrs } => {
                write!(
                    f,
                    "index {index} keys {attrs} attributes, at most {MAX_KEY_ATTRS} fit a key"
                )
            }
        }
    }
}

impl std::error::Error for SchemaError {}

/// Builder for [`Schema`].
#[derive(Debug, Default)]
pub struct SchemaBuilder {
    name: String,
    attrs: Vec<AttrDef>,
    indices: Vec<(String, Vec<String>)>,
}

impl SchemaBuilder {
    /// Starts a schema with the given name.
    pub(crate) fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            attrs: Vec::new(),
            indices: Vec::new(),
        }
    }

    /// Adds an attribute.
    pub fn attr(mut self, name: &str, ty: Type) -> Self {
        self.attrs.push(AttrDef {
            name: name.to_string(),
            ty,
        });
        self
    }

    /// Adds a joint index over the named attributes.
    pub fn index(mut self, name: &str, attrs: &[&str]) -> Self {
        self.indices.push((
            name.to_string(),
            attrs.iter().map(|s| s.to_string()).collect(),
        ));
        self
    }

    /// Validates and builds the schema.
    pub fn build(self) -> Result<Arc<Schema>, SchemaError> {
        let mut by_name = HashMap::with_capacity(self.attrs.len());
        for (i, a) in self.attrs.iter().enumerate() {
            if by_name.insert(a.name.clone(), i).is_some() {
                return Err(SchemaError::Duplicate(a.name.clone()));
            }
        }
        let mut indices = Vec::with_capacity(self.indices.len());
        let mut seen = std::collections::HashSet::new();
        for (name, attrs) in self.indices {
            if !seen.insert(name.clone()) {
                return Err(SchemaError::Duplicate(name));
            }
            if attrs.len() > MAX_KEY_ATTRS {
                return Err(SchemaError::IndexTooWide {
                    index: name,
                    attrs: attrs.len(),
                });
            }
            let mut ids = Vec::with_capacity(attrs.len());
            for a in attrs {
                let id = *by_name.get(&a).ok_or(SchemaError::NoSuchAttr(a.clone()))?;
                if self.attrs[id].ty == Type::Str {
                    return Err(SchemaError::StrIndexAttr {
                        index: name,
                        attr: a,
                    });
                }
                ids.push(id);
            }
            indices.push(IndexDef { name, attrs: ids });
        }
        Ok(Arc::new(Schema {
            name: self.name,
            attrs: self.attrs,
            by_name,
            indices,
        }))
    }
}

impl Schema {
    /// Starts building a schema.
    pub fn builder(name: &str) -> SchemaBuilder {
        SchemaBuilder::new(name)
    }

    /// The attribute definitions, in declaration order.
    pub fn attrs(&self) -> &[AttrDef] {
        &self.attrs
    }

    /// The index definitions.
    pub fn indices(&self) -> &[IndexDef] {
        &self.indices
    }

    /// Looks up an attribute position by name.
    pub(crate) fn attr_id(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).copied()
    }

    /// Looks up an index definition by name.
    pub fn index_def(&self, name: &str) -> Option<&IndexDef> {
        self.indices.iter().find(|i| i.name == name)
    }

    /// Position of a named index in [`indices`](Self::indices).
    pub(crate) fn index_pos(&self, name: &str) -> Option<usize> {
        self.indices.iter().position(|i| i.name == name)
    }

    /// Validates an object, owned or borrowed, against this schema.
    pub fn validate(&self, obj: &[impl AsValueRef]) -> Result<(), SchemaError> {
        if obj.len() != self.attrs.len() {
            return Err(SchemaError::Arity {
                expected: self.attrs.len(),
                got: obj.len(),
            });
        }
        for (v, a) in obj.iter().zip(&self.attrs) {
            if v.as_value_ref().ty() != a.ty {
                return Err(SchemaError::TypeMismatch {
                    attr: a.name.clone(),
                    expected: a.ty,
                });
            }
        }
        Ok(())
    }

    /// Packs the index key of a stored row from its words, `word(attr)`
    /// being attribute `attr`'s: a row's cells or the row read in place.
    pub(crate) fn pack_key(&self, index: &IndexDef, word: impl Fn(usize) -> u64) -> IndexKey {
        let mut key = [0; MAX_KEY_ATTRS];
        for (packed, &attr) in key.iter_mut().zip(&index.attrs) {
            let cell = number(self.attrs[attr].ty, word(attr));
            *packed = key_word(cell.expect("Schema::build admits no Str index attribute"));
        }
        key
    }

    /// Where a scan bound — any values, of any length — falls among
    /// the packed keys of `index`, by the order of `[Value]` slices: a
    /// bound shorter than the key sorts below every key it prefixes
    /// (`pad_high` asks for the position above them instead, the far end
    /// of a prefix scan), a longer one above the key it extends, and a
    /// component of the wrong variant below or above every key that
    /// shares the components before it, as its type ranks.
    pub(crate) fn cut(&self, index: &IndexDef, bound: &[Value], pad_high: bool) -> Cut {
        let mut key = [0; MAX_KEY_ATTRS];
        for (j, &attr) in index.attrs.iter().enumerate() {
            let above = match bound.get(j) {
                None => pad_high,
                Some(v) => match v.as_ref().ty().cmp(&self.attrs[attr].ty) {
                    std::cmp::Ordering::Equal => {
                        key[j] = key_word(v.as_ref());
                        continue;
                    }
                    rank => rank.is_gt(),
                },
            };
            if above {
                key[j..index.attrs.len()].fill(u64::MAX);
            }
            return (key, above);
        }
        (key, pad_high || bound.len() > index.attrs.len())
    }

    /// Extracts an index key from an object, as values: what
    /// [`pack_key`](Self::pack_key) must order like.
    #[cfg(test)]
    pub(crate) fn key_for(&self, index: &IndexDef, obj: &[Value]) -> Vec<Value> {
        index.attrs.iter().map(|&i| obj[i].clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn darshan_schema() -> Arc<Schema> {
        Schema::builder("darshan_data")
            .attr("job_id", Type::U64)
            .attr("rank", Type::U64)
            .attr("timestamp", Type::F64)
            .attr("op", Type::Str)
            .index("job_rank_time", &["job_id", "rank", "timestamp"])
            .index("job_time_rank", &["job_id", "timestamp", "rank"])
            .build()
            .unwrap()
    }

    #[test]
    fn builder_resolves_index_attrs() {
        let s = darshan_schema();
        let idx = s.index_def("job_rank_time").unwrap();
        assert_eq!(idx.attrs, vec![0, 1, 2]);
        assert_eq!(s.index_def("job_time_rank").unwrap().attrs, vec![0, 2, 1]);
        assert!(s.index_def("nope").is_none());
    }

    #[test]
    fn validation_catches_arity_and_type() {
        let s = darshan_schema();
        let good = vec![
            Value::U64(1),
            Value::U64(0),
            Value::F64(1.5),
            Value::Str("write".into()),
        ];
        assert!(s.validate(&good).is_ok());
        assert!(matches!(
            s.validate(&good[..3]),
            Err(SchemaError::Arity {
                expected: 4,
                got: 3
            })
        ));
        let bad = vec![
            Value::I64(1), // wrong type
            Value::U64(0),
            Value::F64(1.5),
            Value::Str("write".into()),
        ];
        assert!(matches!(
            s.validate(&bad),
            Err(SchemaError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn key_extraction_follows_index_order() {
        let s = darshan_schema();
        let obj = vec![
            Value::U64(9),
            Value::U64(3),
            Value::F64(100.5),
            Value::Str("read".into()),
        ];
        let k = s.key_for(s.index_def("job_time_rank").unwrap(), &obj);
        assert_eq!(k, vec![Value::U64(9), Value::F64(100.5), Value::U64(3)]);
    }

    #[test]
    fn string_and_over_wide_indices_rejected() {
        let wide = |n: usize| {
            let names: Vec<String> = (0..n).map(|i| format!("a{i}")).collect();
            let mut b = Schema::builder("s");
            for name in &names {
                b = b.attr(name, Type::U64);
            }
            let names: Vec<&str> = names.iter().map(String::as_str).collect();
            b.index("all", &names).build()
        };
        assert!(wide(MAX_KEY_ATTRS).is_ok());
        assert_eq!(
            wide(MAX_KEY_ATTRS + 1),
            Err(SchemaError::IndexTooWide {
                index: "all".into(),
                attrs: MAX_KEY_ATTRS + 1
            })
        );
        let by_op = Schema::builder("s")
            .attr("job_id", Type::U64)
            .attr("op", Type::Str)
            .index("job_op", &["job_id", "op"])
            .build();
        assert_eq!(
            by_op,
            Err(SchemaError::StrIndexAttr {
                index: "job_op".into(),
                attr: "op".into()
            })
        );
    }

    #[test]
    fn duplicate_names_rejected() {
        assert!(matches!(
            Schema::builder("s")
                .attr("a", Type::U64)
                .attr("a", Type::U64)
                .build(),
            Err(SchemaError::Duplicate(_))
        ));
        assert!(matches!(
            Schema::builder("s")
                .attr("a", Type::U64)
                .index("i", &["missing"])
                .build(),
            Err(SchemaError::NoSuchAttr(_))
        ));
    }

    use proptest::prelude::*;

    const U64S: [u64; 6] = [0, 1, (1 << 63) - 1, 1 << 63, u64::MAX - 1, u64::MAX];
    const I64S: [i64; 6] = [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX];
    /// Every boundary of the bit trick: both infinities, both zeros,
    /// subnormals either side, and NaNs of both signs and payloads.
    fn f64s() -> [f64; 14] {
        [
            f64::NEG_INFINITY,
            f64::MIN,
            -1.0,
            -f64::MIN_POSITIVE,
            -5e-324,
            -0.0,
            0.0,
            5e-324,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0001),
        ]
    }

    /// One `(F64, U64, I64, F64)` key: each component one of the values
    /// above (picks below 16, so two keys often agree on it) or any.
    fn key_tuple(picks: &[usize], (u, i, f, g): (u64, i64, f64, f64)) -> Vec<Value> {
        let float = |pick: usize, any: f64| f64s().get(pick).copied().unwrap_or(any);
        vec![
            Value::F64(float(picks[0], f)),
            Value::U64(U64S.get(picks[1]).copied().unwrap_or(u)),
            Value::I64(I64S.get(picks[2]).copied().unwrap_or(i)),
            Value::F64(float(picks[3], g)),
        ]
    }

    /// A string-free object's stored words.
    fn words(obj: &[Value]) -> Vec<u64> {
        let mut symbols = crate::row::Symbols::default();
        obj.iter()
            .enumerate()
            .map(|(col, v)| crate::row::encode(v.as_ref(), col, &mut symbols))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn packed_keys_order_like_values(
            picks in prop::collection::vec(0usize..20, 8),
            a in (any::<u64>(), any::<i64>(), any::<f64>(), any::<f64>()),
            b in (any::<u64>(), any::<i64>(), any::<f64>(), any::<f64>()),
        ) {
            let s = Schema::builder("s")
                .attr("f", Type::F64)
                .attr("u", Type::U64)
                .attr("i", Type::I64)
                .attr("g", Type::F64)
                .index("all", &["f", "u", "i", "g"])
                .index("tail", &["i", "g"])
                .build()
                .unwrap();
            let (a, b) = (key_tuple(&picks[..4], a), key_tuple(&picks[4..], b));
            for def in s.indices() {
                let (wa, wb) = (words(&a), words(&b));
                let packed = s.pack_key(def, |i| wa[i]).cmp(&s.pack_key(def, |i| wb[i]));
                prop_assert_eq!(packed, s.key_for(def, &a).cmp(&s.key_for(def, &b)), "{:?} {:?}", a, b);
                // A full-length bound cuts where its key sorts.
                prop_assert_eq!(s.cut(def, &s.key_for(def, &a), false), (s.pack_key(def, |i| wa[i]), false));
            }
        }
    }
}
