//! Schemas and objects.

use crate::value::{Type, Value};
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
            let mut ids = Vec::with_capacity(attrs.len());
            for a in attrs {
                ids.push(*by_name.get(&a).ok_or(SchemaError::NoSuchAttr(a.clone()))?);
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

    /// Validates an object against this schema.
    pub fn validate(&self, obj: &[Value]) -> Result<(), SchemaError> {
        if obj.len() != self.attrs.len() {
            return Err(SchemaError::Arity {
                expected: self.attrs.len(),
                got: obj.len(),
            });
        }
        for (v, a) in obj.iter().zip(&self.attrs) {
            if v.ty() != a.ty {
                return Err(SchemaError::TypeMismatch {
                    attr: a.name.clone(),
                    expected: a.ty,
                });
            }
        }
        Ok(())
    }

    /// Extracts an index key from an object.
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
}
