//! The stored row layout: one word per attribute, strings interned once
//! per container, words packed by column once a chunk of rows is full.
//!
//! A `U64` cell is stored as is, an `I64` as its bits, an `F64` as
//! `to_bits()` (so `-0.0` and NaN payloads come back bit for bit) and a
//! `Str` as the id of its text in the container's [`Symbols`]. Where a
//! word sits in its row's bytes, and at what width, is its [`Column`]'s
//! business. A scan reads a stored row in place through a [`RowRef`];
//! only [`RowRef::to_values`] turns one back into owned [`Value`]s.

use crate::schema::Schema;
use crate::value::{AsValueRef, Type, Value, ValueRef};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Ids each column remembers having interned last.
const RECENT: usize = 4;

/// A container's strings, each held once: a `Str` cell's word is the id
/// of its text here. Ingest, rebuild and read repair write under the
/// cluster's bookkeeping lock and scans read under it, so every replica
/// of a row stores the same words.
#[derive(Default)]
pub(crate) struct Symbols {
    texts: Vec<Arc<str>>,
    /// Ids by text. The texts come from messages, so the map keeps the
    /// standard hasher, which keys crafted to collide cannot defeat.
    ids: HashMap<Arc<str>, u64>,
    /// The ids each column interned last, most recent first: a column
    /// holds few distinct strings, so its next one is likely among
    /// them, found by comparing text rather than hashing it.
    recent: Vec<[u64; RECENT]>,
}

impl Symbols {
    /// The id of `text`, a cell of column `col`, interned on first sight.
    fn intern(&mut self, col: usize, text: &str) -> u64 {
        if col >= self.recent.len() {
            self.recent.resize(col + 1, [u64::MAX; RECENT]);
        }
        let recent = &mut self.recent[col];
        let hit = recent
            .iter()
            .position(|&id| self.texts.get(id as usize).is_some_and(|t| **t == *text));
        if let Some(i) = hit {
            recent[..=i].rotate_right(1);
            return recent[0];
        }
        let id = match self.ids.get(text) {
            Some(&id) => id,
            None => {
                let id = self.texts.len() as u64;
                let text: Arc<str> = Arc::from(text);
                self.texts.push(text.clone());
                self.ids.insert(text, id);
                id
            }
        };
        recent.rotate_right(1);
        recent[0] = id;
        id
    }

    /// The text of symbol `id`.
    pub(crate) fn text(&self, id: u64) -> &str {
        &self.texts[id as usize]
    }
}

/// The word a cell of column `col` is stored as.
pub(crate) fn encode(cell: ValueRef<'_>, col: usize, symbols: &mut Symbols) -> u64 {
    match cell {
        ValueRef::U64(x) => x,
        ValueRef::I64(x) => x as u64,
        ValueRef::F64(x) => x.to_bits(),
        ValueRef::Str(s) => symbols.intern(col, s),
    }
}

/// The cell a word of type `ty` stores, unless it is a `Str`, whose
/// text only the symbols know.
pub(crate) fn number(ty: Type, word: u64) -> Option<ValueRef<'static>> {
    Some(match ty {
        Type::U64 => ValueRef::U64(word),
        Type::I64 => ValueRef::I64(word as i64),
        Type::F64 => ValueRef::F64(f64::from_bits(word)),
        Type::Str => return None,
    })
}

/// Where one column's words sit in the rows of a chunk, frame-of-
/// reference coded: a word is the column's `base` plus the little-endian
/// number, `mask` wide, that starts `offset` bytes into its row. A word
/// kept whole has base 0 and an all-ones mask.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Column {
    pub(crate) base: u64,
    mask: u64,
    pub(crate) offset: usize,
}

impl Column {
    /// A column of `width` bytes (0, 1, 2, 4 or 8) at `offset`.
    pub(crate) fn new(base: u64, width: usize, offset: usize) -> Self {
        Self {
            base,
            mask: u64::MAX.checked_shr(64 - 8 * width as u32).unwrap_or(0),
            offset,
        }
    }

    /// The column's word in `row`: the bytes from the row's start to
    /// the end of its chunk, which holds eight bytes from any `offset`.
    #[inline]
    pub(crate) fn word(&self, row: &[u8]) -> u64 {
        let bytes = row[self.offset..self.offset + 8].try_into();
        let cell = u64::from_le_bytes(bytes.expect("eight bytes"));
        self.base.wrapping_add(cell & self.mask)
    }
}

/// One stored row, read in place: what a scan hands its visitor. Cells
/// borrow from the shard and the container's symbols for as long as the
/// scan holds them. Rows order as their `[Value]` slices do.
#[derive(Clone, Copy)]
pub struct RowRef<'a> {
    schema: &'a Schema,
    symbols: &'a Symbols,
    /// One column per attribute.
    columns: &'a [Column],
    row: &'a [u8],
}

impl<'a> RowRef<'a> {
    pub(crate) fn new(
        schema: &'a Schema,
        symbols: &'a Symbols,
        columns: &'a [Column],
        row: &'a [u8],
    ) -> Self {
        Self {
            schema,
            symbols,
            columns,
            row,
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True for a row of no cells.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Cell `i`, borrowed.
    pub fn get(&self, i: usize) -> ValueRef<'a> {
        let word = self.columns[i].word(self.row);
        number(self.schema.attrs()[i].ty, word)
            .unwrap_or_else(|| ValueRef::Str(self.symbols.text(word)))
    }

    /// The row as owned values: the one place a stored row becomes
    /// [`Value`]s.
    pub fn to_values(&self) -> Vec<Value> {
        (0..self.len()).map(|i| self.get(i).to_owned()).collect()
    }

    /// The stored words, decoded, for copying a row onto another
    /// replica.
    pub(crate) fn words(&self) -> Vec<u64> {
        self.columns.iter().map(|c| c.word(self.row)).collect()
    }
}

/// A row read a cell at a time, however it is held: a stored row in
/// place, or a slice of cells — owned [`Value`]s, or the [`ValueRef`]s
/// of a CSV line parsed as their columns' types — so one decoder serves
/// every source.
pub trait Cells {
    /// Number of cells.
    fn arity(&self) -> usize;
    /// Cell `i`, borrowed.
    fn cell(&self, i: usize) -> ValueRef<'_>;
}

impl Cells for RowRef<'_> {
    fn arity(&self) -> usize {
        self.len()
    }

    fn cell(&self, i: usize) -> ValueRef<'_> {
        self.get(i)
    }
}

impl<T: AsValueRef> Cells for [T] {
    fn arity(&self) -> usize {
        self.len()
    }

    fn cell(&self, i: usize) -> ValueRef<'_> {
        self[i].as_value_ref()
    }
}

impl Ord for RowRef<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        (0..self.len().min(other.len()))
            .map(|i| self.get(i).total_cmp(other.get(i)))
            .find(|o| o.is_ne())
            .unwrap_or_else(|| self.len().cmp(&other.len()))
    }
}

impl PartialOrd for RowRef<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for RowRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for RowRef<'_> {}

impl fmt::Debug for RowRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries((0..self.len()).map(|i| self.get(i)))
            .finish()
    }
}
