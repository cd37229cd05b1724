//! K-way merge of sorted streams.
//!
//! The paper's DSOS client queries every `dsosd` in parallel ("results of
//! the queried data are then returned in parallel and sorted based on the
//! index selected by the user", Section II). Here the cluster's scan walks
//! the live daemons in the caller's thread; this merges their streams.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An entry in the merge heap: the current head of stream `source`.
struct HeapEntry<T> {
    item: T,
    source: usize,
}

// BinaryHeap is a max-heap; invert the ordering to pop smallest first.
impl<T: Ord> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.item == other.item && self.source == other.source
    }
}
impl<T: Ord> Eq for HeapEntry<T> {}
impl<T: Ord> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T: Ord> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .item
            .cmp(&self.item)
            // Tie-break on source so the merge is stable across daemons.
            .then_with(|| other.source.cmp(&self.source))
    }
}

/// Iterator merging several ascending-sorted iterators into one
/// ascending stream. Stable: ties resolve in source order.
pub struct KWayMerge<I: Iterator> {
    heap: BinaryHeap<HeapEntry<I::Item>>,
    sources: Vec<I>,
}

impl<I> KWayMerge<I>
where
    I: Iterator,
    I::Item: Ord,
{
    /// Builds the merge from the given sorted sources.
    pub fn new(sources: Vec<I>) -> Self {
        let mut sources = sources;
        let mut heap = BinaryHeap::with_capacity(sources.len());
        for (source, it) in sources.iter_mut().enumerate() {
            if let Some(item) = it.next() {
                heap.push(HeapEntry { item, source });
            }
        }
        Self { heap, sources }
    }
}

impl<I> Iterator for KWayMerge<I>
where
    I: Iterator,
    I::Item: Ord,
{
    type Item = I::Item;

    fn next(&mut self) -> Option<Self::Item> {
        let entry = self.heap.pop()?;
        if let Some(next) = self.sources[entry.source].next() {
            self.heap.push(HeapEntry {
                item: next,
                source: entry.source,
            });
        }
        Some(entry.item)
    }
}

/// Merges pre-sorted vectors into one sorted vector.
pub fn merge_sorted<T: Ord>(parts: Vec<Vec<T>>) -> Vec<T> {
    let total: usize = parts.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    out.extend(KWayMerge::new(
        parts.into_iter().map(Vec::into_iter).collect(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merges_three_streams() {
        let merged = merge_sorted(vec![vec![1, 4, 7], vec![2, 5, 8], vec![3, 6, 9]]);
        assert_eq!(merged, vec![1, 2, 3, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn handles_empty_streams() {
        let merged = merge_sorted(vec![vec![], vec![1, 2], vec![]]);
        assert_eq!(merged, vec![1, 2]);
        let empty: Vec<i32> = merge_sorted(Vec::<Vec<i32>>::new());
        assert!(empty.is_empty());
    }

    #[test]
    fn stable_on_ties() {
        // Ties keep source order: (key, source_tag)
        let merged = merge_sorted(vec![vec![(1, 'a'), (2, 'a')], vec![(1, 'b')]]);
        assert_eq!(merged, vec![(1, 'a'), (1, 'b'), (2, 'a')]);
    }

    #[test]
    fn merge_of_duplicates() {
        let merged = merge_sorted(vec![vec![5, 5, 5], vec![5, 5]]);
        assert_eq!(merged, vec![5; 5]);
    }
}
