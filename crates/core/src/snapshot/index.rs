//! The point index of a [`DendrogramSnapshot`](super::DendrogramSnapshot): two persistent
//! fixed-chunk arrays that make the export walkable (see the [module docs](super) for the
//! invariants).

use super::SnapshotNode;
use dynsld_forest::{EdgeId, VertexId, Weight};
use std::sync::Arc;

/// Slots per chunk: 4 KiB of either array (unit tests shrink both so a few dozen ids already
/// span several chunks).
const EDGE_SLOTS: usize = if cfg!(test) { 4 } else { 256 };
const VERTEX_SLOTS: usize = if cfg!(test) { 8 } else { 1024 };

/// "No edge": the parent of a root, the lowest edge of an isolated vertex.
const NONE: u32 = u32::MAX;
/// The `parent` of a by-edge slot whose id has no record. Edge ids index a dense table, so
/// neither sentinel is ever a real id.
const VACANT: u32 = u32::MAX - 1;

/// What the by-edge array holds per edge id: the two fields of the id's record a walk reads.
#[derive(Copy, Clone, Debug)]
pub(super) struct EdgeSlot {
    pub(super) weight: Weight,
    parent: u32,
}

/// Bit-exact on the weight: `-0.0` and `0.0` are different rank keys.
impl PartialEq for EdgeSlot {
    fn eq(&self, other: &Self) -> bool {
        self.weight.to_bits() == other.weight.to_bits() && self.parent == other.parent
    }
}

impl EdgeSlot {
    const EMPTY: EdgeSlot = EdgeSlot {
        weight: 0.0,
        parent: VACANT,
    };

    fn of(node: &SnapshotNode) -> EdgeSlot {
        debug_assert!(node.edge.0 < VACANT && node.parent.is_none_or(|p| p.0 < VACANT));
        EdgeSlot {
            weight: node.weight,
            parent: node.parent.map_or(NONE, |p| p.0),
        }
    }

    /// The id of the parent record, if the record has one.
    pub(super) fn parent(self) -> Option<u32> {
        (self.parent != NONE).then_some(self.parent)
    }
}

/// A persistent array of `N`-slot chunks: slot `i` is `chunks[i / N][i % N]` and every chunk
/// is exactly `N` long. Written through a [`ChunkWriter`] only.
#[derive(Clone, Debug)]
struct Chunked<T, const N: usize> {
    chunks: Vec<Arc<[T]>>,
}

impl<T, const N: usize> Default for Chunked<T, N> {
    fn default() -> Self {
        Chunked { chunks: Vec::new() }
    }
}

impl<T: Copy + PartialEq, const N: usize> Chunked<T, N> {
    fn get(&self, i: usize) -> Option<T> {
        self.chunks.get(i / N).map(|chunk| chunk[i % N])
    }

    /// Makes room for `slots` slots; the chunks this adds are one allocation of `blank`s.
    fn grow_to(&mut self, slots: usize, blank: T) {
        let chunks = slots.div_ceil(N);
        if chunks > self.chunks.len() {
            self.chunks
                .resize(chunks, std::iter::repeat_n(blank, N).collect());
        }
    }

    fn writer(&mut self) -> ChunkWriter<'_, T, N> {
        let views = self.chunks.iter_mut().map(|chunk| View {
            shared: Some(chunk),
            mine: &mut [],
        });
        ChunkWriter {
            views: views.collect(),
            copied: 0,
        }
    }
}

/// One chunk as a writer sees it: `shared` until the first write lands in it, then `mine` —
/// a chunk no one else holds, written in place with no further reference counting.
struct View<'a, T> {
    shared: Option<&'a mut Arc<[T]>>,
    mine: &'a mut [T],
}

/// Copy-on-first-write access to a [`Chunked`] array.
struct ChunkWriter<'a, T, const N: usize> {
    views: Vec<View<'a, T>>,
    copied: usize,
}

impl<T: Copy + PartialEq, const N: usize> ChunkWriter<'_, T, N> {
    /// Slot `i`, which must be in range.
    fn get(&self, i: usize) -> T {
        let view = &self.views[i / N];
        match &view.shared {
            Some(chunk) => chunk[i % N],
            None => view.mine[i % N],
        }
    }

    /// Sets slot `i` (in range). A slot that already holds `value` is left alone, so its
    /// chunk stays shared.
    fn set(&mut self, i: usize, value: T) {
        if self.get(i) == value {
            return;
        }
        let view = &mut self.views[i / N];
        if let Some(chunk) = view.shared.take() {
            // One allocation and one copy — unless the array is already the only holder (a
            // blank it has a single chunk of).
            if Arc::get_mut(chunk).is_none() {
                *chunk = Arc::from(&chunk[..]);
                self.copied += 1;
            }
            view.mine = Arc::get_mut(chunk).expect("the array is the chunk's only holder");
        }
        view.mine[i % N] = value;
    }
}

#[derive(Clone, Debug, Default)]
struct Arrays {
    by_edge: Chunked<EdgeSlot, EDGE_SLOTS>,
    by_vertex: Chunked<u32, VERTEX_SLOTS>,
}

/// The two arrays behind one pointer: cloning an index — into the exporter's cache, a
/// published view, a mirror — copies no chunk-pointer list.
#[derive(Clone, Debug, Default)]
pub(super) struct PointIndex {
    arrays: Arc<Arrays>,
}

impl PointIndex {
    /// The index of a rank-sorted record list over `num_vertices` vertices whose edge ids are
    /// all below `edge_bound`, in one pass: a vertex's lowest incident edge is the first
    /// record that names it.
    pub(super) fn from_records<'a>(
        records: impl Iterator<Item = &'a SnapshotNode>,
        num_vertices: usize,
        edge_bound: usize,
    ) -> PointIndex {
        PointIndex::default()
            .advance(num_vertices, edge_bound, |writer| {
                for node in records {
                    writer.set_edge(node.edge, Some(node));
                    for x in [node.u, node.v] {
                        if x.index() < num_vertices && writer.by_vertex.get(x.index()) == NONE {
                            writer.set_lowest(x, Some(node.edge));
                        }
                    }
                }
            })
            .0
    }

    /// The next index: this one grown to `num_vertices` vertices and `edge_bound` edge ids,
    /// with `write`'s changes — plus how many chunks that copied and how many the two
    /// indexes share.
    pub(super) fn advance(
        &self,
        num_vertices: usize,
        edge_bound: usize,
        write: impl FnOnce(&mut IndexWriter<'_>),
    ) -> (PointIndex, usize, usize) {
        let mut arrays = Arrays::clone(&self.arrays);
        arrays.by_edge.grow_to(edge_bound, EdgeSlot::EMPTY);
        arrays.by_vertex.grow_to(num_vertices, NONE);
        let mut writer = IndexWriter {
            by_edge: arrays.by_edge.writer(),
            by_vertex: arrays.by_vertex.writer(),
        };
        write(&mut writer);
        let copied = writer.by_edge.copied + writer.by_vertex.copied;
        let chunks = arrays.by_edge.chunks.len() + arrays.by_vertex.chunks.len();
        let index = PointIndex {
            arrays: Arc::new(arrays),
        };
        (index, copied, chunks - copied)
    }

    /// The slot of edge id `e`, if the id has a record.
    pub(super) fn record(&self, e: u32) -> Option<EdgeSlot> {
        let slot = self.arrays.by_edge.get(e as usize)?;
        (slot.parent != VACANT).then_some(slot)
    }

    /// The lowest-ranked record with `v` (in range) as an endpoint, if there is one.
    pub(super) fn lowest(&self, v: VertexId) -> Option<u32> {
        let e = self.arrays.by_vertex.get(v.index())?;
        (e != NONE).then_some(e)
    }
}

/// The writes that take a [`PointIndex`] to the next export (see [`PointIndex::advance`]).
pub(super) struct IndexWriter<'a> {
    by_edge: ChunkWriter<'a, EdgeSlot, EDGE_SLOTS>,
    by_vertex: ChunkWriter<'a, u32, VERTEX_SLOTS>,
}

impl IndexWriter<'_> {
    /// Records that edge id `e` now has the record `node` (none: the id is not alive).
    pub(super) fn set_edge(&mut self, e: EdgeId, node: Option<&SnapshotNode>) {
        self.by_edge
            .set(e.index(), node.map_or(EdgeSlot::EMPTY, EdgeSlot::of));
    }

    /// Records that the lowest-ranked record at vertex `v` is now `lowest`.
    pub(super) fn set_lowest(&mut self, v: VertexId, lowest: Option<EdgeId>) {
        self.by_vertex.set(v.index(), lowest.map_or(NONE, |e| e.0));
    }
}

#[cfg(test)]
impl PointIndex {
    /// Content equality: the same record per edge id and the same lowest edge per vertex,
    /// whatever the arrays' lengths (slots past the end read as empty).
    pub(super) fn same_content(&self, other: &PointIndex) -> bool {
        let (a, b) = (&self.arrays, &other.arrays);
        let edges = a.by_edge.chunks.len().max(b.by_edge.chunks.len()) * EDGE_SLOTS;
        let vertices = a.by_vertex.chunks.len().max(b.by_vertex.chunks.len()) * VERTEX_SLOTS;
        (0..edges as u32).all(|e| self.record(e) == other.record(e))
            && (0..vertices as u32).all(|v| self.lowest(VertexId(v)) == other.lowest(VertexId(v)))
    }

    /// Every chunk of both arrays as an address, with the ids it covers: `(is_edge_array,
    /// first id, one past the last id, allocation)`.
    pub(super) fn chunk_spans(&self) -> Vec<(bool, usize, usize, *const u8)> {
        let edges = self.arrays.by_edge.chunks.iter().enumerate().map(|(i, c)| {
            let at = Arc::as_ptr(c).cast::<u8>();
            (true, i * EDGE_SLOTS, (i + 1) * EDGE_SLOTS, at)
        });
        let vertices = self
            .arrays
            .by_vertex
            .chunks
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let at = Arc::as_ptr(c).cast::<u8>();
                (false, i * VERTEX_SLOTS, (i + 1) * VERTEX_SLOTS, at)
            });
        edges.chain(vertices).collect()
    }
}
