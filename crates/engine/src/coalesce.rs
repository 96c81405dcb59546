//! Update coalescing: the ingest buffer between event submission and batch application.
//!
//! A high-rate stream routinely contains redundant work — an edge inserted and deleted within
//! one ingest window, a weight updated many times between flushes. The [`Coalescer`] keeps at
//! most **one pending operation per edge** by merging each incoming event with the edge's
//! pending state:
//!
//! | pending \ event | `Insert(w)`            | `Delete`          | `Reweight(w)`      |
//! |-----------------|------------------------|-------------------|--------------------|
//! | *(none)*        | `Insert(w)`¹           | `Delete`²         | `Reweight(w)`²     |
//! | `Insert(w₀)`    | reject (present)       | *(annihilate)*    | `Insert(w)`        |
//! | `Delete`        | `Reweight(w)`          | reject (absent)   | reject (absent)    |
//! | `Reweight(w₀)`  | reject (present)       | `Delete`          | `Reweight(w)`      |
//!
//! ¹ rejected if the edge is already applied; ² rejected if it is not.
//!
//! An insert or re-weight at a NaN or infinite weight is rejected in every row, as a self-loop
//! is: the rank order, the cluster thresholds and the wire encoding all need a finite weight.
//!
//! Rejections happen at *submit* time against (applied state ∪ pending buffer), so a drained
//! batch is always valid by construction and the apply path never has to roll back. Draining
//! yields one homogeneous deletion batch and one homogeneous insertion batch (a pending
//! re-weight contributes to both, which is exactly the delete + re-insert the per-edge path
//! would perform — minus the redundant intermediate applications).
//!
//! Every row but *(none)* holds on every graph state, so `merge` states it once for both of
//! its users: the [`Coalescer`], which adds the applied-state check of the first row, and the
//! submission queue's [`Backpressure::Coalesce`](crate::Backpressure::Coalesce) compaction
//! (`compact`), which cannot see shard state and leaves that row to the driver.

use dynsld_forest::workload::GraphUpdate;
use dynsld_forest::{VertexId, Weight};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Why the coalescer rejected an event.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// `u == v`.
    SelfLoop,
    /// An endpoint is outside the engine's vertex range.
    VertexOutOfRange,
    /// Insert of an edge that is (or will be after the pending ops) present.
    AlreadyPresent,
    /// Delete or re-weight of an edge that is (or will be) absent.
    NotPresent,
    /// Insert or re-weight at a NaN or infinite weight.
    NonFiniteWeight,
}

/// What folding an event into its edge's pending operation does. A pending operation is
/// kept as the event that states it, on the endpoints of the edge's first pending event.
#[derive(Copy, Clone, Debug, PartialEq)]
enum Merge {
    /// Nothing was pending: the event becomes the edge's pending operation, if the applied
    /// graph allows it (the *(none)* row of the table).
    Start,
    /// The pending operation becomes this one; the event is absorbed.
    Replace(GraphUpdate),
    /// A pending insert met a delete: both events vanish.
    Annihilate,
}

/// The merge table of the module docs, except the applied-state check of its *(none)* row.
/// An `Err` is an event that is invalid on every graph state: a self-loop, an insert or
/// re-weight at a non-finite weight, or an arm that rejects whatever the applied graph holds.
fn merge(pending: Option<GraphUpdate>, event: GraphUpdate) -> Result<Merge, RejectReason> {
    use GraphUpdate::{Delete, Insert, Reweight};
    let (a, b) = event.endpoints();
    if a == b {
        return Err(RejectReason::SelfLoop);
    }
    if let Insert { weight, .. } | Reweight { weight, .. } = event {
        if !weight.is_finite() {
            return Err(RejectReason::NonFiniteWeight);
        }
    }
    let Some(pending) = pending else {
        return Ok(Merge::Start);
    };
    match (pending, event) {
        (Insert { .. } | Reweight { .. }, Insert { .. }) => Err(RejectReason::AlreadyPresent),
        // The pending insert never happened as far as the graph is concerned.
        (Insert { .. }, Delete { .. }) => Ok(Merge::Annihilate),
        // Re-weighting an insert that was never applied: insert at the new weight.
        (Insert { u, v, .. }, Reweight { weight, .. }) => {
            Ok(Merge::Replace(Insert { u, v, weight }))
        }
        // Delete then insert of an applied edge = change its weight.
        (Delete { u, v }, Insert { weight, .. }) => Ok(Merge::Replace(Reweight { u, v, weight })),
        (Delete { .. }, Delete { .. } | Reweight { .. }) => Err(RejectReason::NotPresent),
        // A re-weight made moot by a following delete.
        (Reweight { u, v, .. }, Delete { .. }) => Ok(Merge::Replace(Delete { u, v })),
        // Re-weight chains collapse to the last weight.
        (Reweight { u, v, .. }, Reweight { weight, .. }) => {
            Ok(Merge::Replace(Reweight { u, v, weight }))
        }
    }
}

/// Compacts a queued event sequence in place through `merge`: each event folds into the
/// queued event of its edge, in that event's slot, so survivors keep their relative order.
/// An event that is invalid on every graph state (a self-loop, a double delete, an insert
/// over an insert, …) stays in place untouched for the driver to reject, and later events of
/// its edge never fold across it. Events whose validity depends on the applied graph cannot
/// be told apart here; see the caveat on `Backpressure::Coalesce`. Returns the number of
/// events absorbed, counted like the [`Coalescer`]: an annihilated pair counts 2, a
/// replacement 1.
pub(crate) fn compact(buf: &mut VecDeque<GraphUpdate>) -> usize {
    let mut slots: Vec<Option<GraphUpdate>> = Vec::with_capacity(buf.len());
    let mut slot_of: HashMap<(VertexId, VertexId), usize> = HashMap::new();
    let mut absorbed = 0;
    for event in buf.drain(..) {
        let key = event.endpoints();
        let slot = slot_of.get(&key).copied();
        match merge(slot.and_then(|i| slots[i]), event) {
            Ok(Merge::Start) => {
                slot_of.insert(key, slots.len());
                slots.push(Some(event));
            }
            Ok(Merge::Replace(op)) => {
                slots[slot.expect("a merge has a queued event")] = Some(op);
                absorbed += 1;
            }
            Ok(Merge::Annihilate) => {
                slots[slot.expect("a merge has a queued event")] = None;
                absorbed += 2;
            }
            Err(_) => {
                slot_of.remove(&key);
                slots.push(Some(event));
            }
        }
    }
    buf.extend(slots.into_iter().flatten());
    absorbed
}

/// The two homogeneous batches produced by a drain, in application order: deletions first
/// (freeing edge slots and reserve entries), then insertions. A re-weighted edge appears in
/// both.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CoalescedBatch {
    /// Edges to delete, sorted by normalised endpoint pair.
    pub deletions: Vec<(VertexId, VertexId)>,
    /// Edges to insert, sorted by normalised endpoint pair.
    pub insertions: Vec<(VertexId, VertexId, Weight)>,
    /// How many of the pending ops were re-weights (they contribute one deletion *and* one
    /// insertion each).
    pub reweights: usize,
}

impl CoalescedBatch {
    /// Number of pending logical operations (a re-weight counts once).
    pub fn num_ops(&self) -> usize {
        self.deletions.len() + self.insertions.len() - self.reweights
    }

    /// True if nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.deletions.is_empty() && self.insertions.is_empty()
    }
}

/// The ingest buffer: merges a stream of [`GraphUpdate`]s into at most one pending operation
/// per edge. See the module docs for the merge table.
#[derive(Clone, Debug, Default)]
pub struct Coalescer {
    /// Pending op per normalised edge pair. A `BTreeMap` so that draining is deterministic.
    pending: BTreeMap<(VertexId, VertexId), GraphUpdate>,
    /// Events absorbed since construction.
    submitted: u64,
    /// Events that vanished because an insert and a delete annihilated (counted in pairs:
    /// both the buffered insert and the incoming delete).
    annihilated: u64,
    /// Events merged into an existing pending op (re-weight chains, delete+insert fusions).
    collapsed: u64,
}

impl Coalescer {
    /// An empty coalescer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of edges with a pending operation.
    pub fn pending_ops(&self) -> usize {
        self.pending.len()
    }

    /// Events absorbed since construction.
    pub fn events_submitted(&self) -> u64 {
        self.submitted
    }

    /// Events that annihilated (insert ⊕ delete pairs, counted individually).
    pub fn events_annihilated(&self) -> u64 {
        self.annihilated
    }

    /// Events that merged into an existing pending operation.
    pub fn events_collapsed(&self) -> u64 {
        self.collapsed
    }

    /// Merges one event into the buffer. `alive` reports whether the edge exists in the
    /// *applied* graph (the state all pending ops will be applied on top of).
    ///
    /// On rejection the buffer is unchanged and the event must not be considered ingested.
    pub fn push(&mut self, event: GraphUpdate, alive: bool) -> Result<(), RejectReason> {
        let key = event.endpoints();
        match merge(self.pending.get(&key).copied(), event)? {
            Merge::Start => match (event, alive) {
                (GraphUpdate::Insert { .. }, true) => return Err(RejectReason::AlreadyPresent),
                (GraphUpdate::Delete { .. } | GraphUpdate::Reweight { .. }, false) => {
                    return Err(RejectReason::NotPresent);
                }
                _ => {
                    self.pending.insert(key, event);
                }
            },
            Merge::Replace(op) => {
                self.collapsed += 1;
                self.pending.insert(key, op);
            }
            Merge::Annihilate => {
                self.annihilated += 2;
                self.pending.remove(&key);
            }
        }
        self.submitted += 1;
        Ok(())
    }

    /// Drains the buffer into homogeneous batches (deletions, then insertions), leaving the
    /// coalescer empty. Ordering is deterministic (sorted by endpoint pair).
    pub fn drain(&mut self) -> CoalescedBatch {
        let mut batch = CoalescedBatch::default();
        for (&(u, v), &op) in &self.pending {
            match op {
                GraphUpdate::Insert { weight, .. } => batch.insertions.push((u, v, weight)),
                GraphUpdate::Delete { .. } => batch.deletions.push((u, v)),
                GraphUpdate::Reweight { weight, .. } => {
                    batch.reweights += 1;
                    batch.deletions.push((u, v));
                    batch.insertions.push((u, v, weight));
                }
            }
        }
        self.pending.clear();
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    fn ins(a: u32, b: u32, w: f64) -> GraphUpdate {
        GraphUpdate::Insert {
            u: v(a),
            v: v(b),
            weight: w,
        }
    }

    fn del(a: u32, b: u32) -> GraphUpdate {
        GraphUpdate::Delete { u: v(a), v: v(b) }
    }

    fn rew(a: u32, b: u32, w: f64) -> GraphUpdate {
        GraphUpdate::Reweight {
            u: v(a),
            v: v(b),
            weight: w,
        }
    }

    #[test]
    fn insert_then_delete_annihilates() {
        let mut c = Coalescer::new();
        c.push(ins(0, 1, 1.0), false).unwrap();
        assert_eq!(c.pending_ops(), 1);
        c.push(del(0, 1), false).unwrap();
        assert_eq!(c.pending_ops(), 0);
        assert_eq!(c.events_annihilated(), 2);
        assert!(c.drain().is_empty());
    }

    #[test]
    fn delete_then_insert_becomes_reweight() {
        let mut c = Coalescer::new();
        c.push(del(0, 1), true).unwrap();
        c.push(ins(1, 0, 7.5), true).unwrap();
        let batch = c.drain();
        assert_eq!(batch.reweights, 1);
        assert_eq!(batch.deletions, vec![(v(0), v(1))]);
        assert_eq!(batch.insertions, vec![(v(0), v(1), 7.5)]);
        assert_eq!(batch.num_ops(), 1);
    }

    #[test]
    fn reweight_chains_collapse_to_last() {
        let mut c = Coalescer::new();
        for w in [1.0, 2.0, 3.0, 4.0] {
            c.push(rew(0, 1, w), true).unwrap();
        }
        assert_eq!(c.events_collapsed(), 3);
        let batch = c.drain();
        assert_eq!(batch.insertions, vec![(v(0), v(1), 4.0)]);
        assert_eq!(batch.deletions, vec![(v(0), v(1))]);
        // Re-weighting a *pending* insert just rewrites the insert weight.
        c.push(ins(2, 3, 1.0), false).unwrap();
        c.push(rew(2, 3, 9.0), false).unwrap();
        let batch = c.drain();
        assert_eq!(batch.insertions, vec![(v(2), v(3), 9.0)]);
        assert!(batch.deletions.is_empty());
    }

    #[test]
    fn invalid_events_are_rejected_without_buffer_damage() {
        let mut c = Coalescer::new();
        assert_eq!(c.push(ins(0, 0, 1.0), false), Err(RejectReason::SelfLoop));
        assert_eq!(
            c.push(ins(0, 1, 1.0), true),
            Err(RejectReason::AlreadyPresent)
        );
        assert_eq!(c.push(del(0, 1), false), Err(RejectReason::NotPresent));
        assert_eq!(c.push(rew(0, 1, 2.0), false), Err(RejectReason::NotPresent));
        c.push(ins(0, 1, 1.0), false).unwrap();
        assert_eq!(
            c.push(ins(0, 1, 2.0), false),
            Err(RejectReason::AlreadyPresent)
        );
        c.push(del(2, 3), true).unwrap();
        assert_eq!(c.push(del(2, 3), true), Err(RejectReason::NotPresent));
        assert_eq!(c.push(rew(2, 3, 5.0), true), Err(RejectReason::NotPresent));
        // Delete of a pending-reweight edge collapses to a delete.
        c.push(rew(4, 5, 5.0), true).unwrap();
        c.push(del(4, 5), true).unwrap();
        let batch = c.drain();
        assert_eq!(batch.deletions, vec![(v(2), v(3)), (v(4), v(5))]);
        assert_eq!(batch.insertions, vec![(v(0), v(1), 1.0)]);
        assert_eq!(batch.reweights, 0);
    }

    #[test]
    fn non_finite_weights_are_rejected_in_every_row() {
        for w in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let mut c = Coalescer::new();
            assert_eq!(
                c.push(ins(0, 1, w), false),
                Err(RejectReason::NonFiniteWeight)
            );
            assert_eq!(
                c.push(rew(0, 1, w), true),
                Err(RejectReason::NonFiniteWeight)
            );
            c.push(ins(2, 3, 1.0), false).unwrap();
            c.push(del(4, 5), true).unwrap();
            c.push(rew(6, 7, 2.0), true).unwrap();
            for (a, b) in [(2, 3), (4, 5), (6, 7)] {
                assert_eq!(
                    c.push(rew(a, b, w), true),
                    Err(RejectReason::NonFiniteWeight)
                );
                assert_eq!(
                    c.push(ins(a, b, w), true),
                    Err(RejectReason::NonFiniteWeight)
                );
            }
            assert_eq!(c.events_submitted(), 3, "rejections are not ingested");
            let batch = c.drain();
            assert_eq!(batch.insertions, vec![(v(2), v(3), 1.0), (v(6), v(7), 2.0)]);
            assert_eq!(batch.deletions, vec![(v(4), v(5)), (v(6), v(7))]);
        }
    }

    #[test]
    fn drain_is_sorted_and_resets() {
        let mut c = Coalescer::new();
        c.push(ins(5, 4, 1.0), false).unwrap();
        c.push(ins(0, 9, 2.0), false).unwrap();
        c.push(del(2, 1), true).unwrap();
        let batch = c.drain();
        assert_eq!(batch.insertions, vec![(v(0), v(9), 2.0), (v(4), v(5), 1.0)]);
        assert_eq!(batch.deletions, vec![(v(1), v(2))]);
        assert_eq!(c.pending_ops(), 0);
        assert!(c.drain().is_empty());
        assert_eq!(c.events_submitted(), 3);
    }
}
