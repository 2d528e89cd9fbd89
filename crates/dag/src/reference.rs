//! Frozen pre-CSR twins of the DAG runtime layer (the PR 5 "legacy" path).
//!
//! Before the CSR/pooling rework, a [`DagJobSpec`] kept
//! its adjacency as one `Vec<NodeId>` **per node**, `sources()` re-scanned
//! and allocated on every call, and the engine built a brand-new
//! [`UnfoldState`](crate::UnfoldState) (then five heap allocations) plus
//! a `busy`/`dirty` scratch pair for **every arriving job**. This module
//! freezes that memory behaviour so the `dagsched-bench` arrival-storm
//! group can time the old path against the pooled CSR path *in the same
//! process*, and so differential tests can hold the rewrite to
//! observational identity.
//!
//! The twins are deliberately faithful to the old code's allocation
//! pattern, not just its semantics: [`ReferenceDag::from_spec`] materializes
//! the nested `Vec<Vec<NodeId>>` adjacency, and [`ReferenceUnfold::new`]
//! allocates its vectors fresh and calls the allocating
//! [`ReferenceDag::sources`] — exactly what every arrival used to pay.
//! Do not "optimize" this module; it is a measurement baseline.

use crate::spec::DagJobSpec;
use dagsched_core::{NodeId, Work};

const NIL: u32 = u32::MAX;

/// The pre-CSR spec shape: per-node successor vectors plus pred counts.
#[derive(Debug, Clone)]
pub struct ReferenceDag {
    node_work: Vec<Work>,
    /// Successor adjacency, one heap allocation per node (the old layout).
    succs: Vec<Vec<NodeId>>,
    pred_count: Vec<u32>,
}

impl ReferenceDag {
    /// Re-materialize the old nested-`Vec` layout from a CSR spec.
    pub fn from_spec(spec: &DagJobSpec) -> ReferenceDag {
        let n = spec.num_nodes();
        ReferenceDag {
            node_work: spec.node_works().to_vec(),
            succs: (0..n as u32)
                .map(|v| spec.successors(NodeId(v)).to_vec())
                .collect(),
            pred_count: (0..n as u32).map(|v| spec.pred_count(NodeId(v))).collect(),
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.node_work.len()
    }

    /// Successors of a node (sorted), through the nested layout.
    pub fn successors(&self, node: NodeId) -> &[NodeId] {
        &self.succs[node.index()]
    }

    /// Sources by rescan, allocating a fresh `Vec` per call — the old
    /// `DagJobSpec::sources()` contract.
    pub fn sources(&self) -> Vec<NodeId> {
        (0..self.num_nodes() as u32)
            .map(NodeId)
            .filter(|n| self.pred_count[n.index()] == 0)
            .collect()
    }

    /// Number of edges by rescan — the old `DagJobSpec::num_edges()`.
    pub fn num_edges(&self) -> usize {
        self.succs.iter().map(Vec::len).sum()
    }
}

/// The pre-pooling unfold state: every field heap-allocated at construction,
/// dropped at job completion. Mirrors `UnfoldState` pre-PR5 (intrusive FIFO
/// ready list, scaled remaining work) without the `reset_from` reuse path.
#[derive(Debug, Clone)]
pub struct ReferenceUnfold {
    remaining: Vec<Work>,
    waiting_preds: Vec<u32>,
    next: Vec<u32>,
    prev: Vec<u32>,
    member: Vec<bool>,
    head: u32,
    tail: u32,
    ready_len: usize,
    completed_nodes: usize,
    remaining_total: Work,
}

impl ReferenceUnfold {
    /// Fresh execution state over the nested-`Vec` dag — five vector
    /// allocations plus the `sources()` rescan, per arrival.
    pub fn new(dag: &ReferenceDag, scale: u64) -> ReferenceUnfold {
        assert!(scale >= 1, "scale must be at least 1");
        let n = dag.num_nodes();
        let remaining: Vec<Work> = dag
            .node_work
            .iter()
            .map(|w| w.checked_scale(scale).expect("scaled work overflows u64"))
            .collect();
        let remaining_total = Work(remaining.iter().map(|w| w.units()).sum());
        let mut st = ReferenceUnfold {
            remaining,
            waiting_preds: dag.pred_count.clone(),
            next: vec![NIL; n],
            prev: vec![NIL; n],
            member: vec![false; n],
            head: NIL,
            tail: NIL,
            ready_len: 0,
            completed_nodes: 0,
            remaining_total,
        };
        for s in dag.sources() {
            st.push_back(s);
        }
        st
    }

    fn push_back(&mut self, v: NodeId) {
        let i = v.0;
        debug_assert!(!self.member[i as usize]);
        self.member[i as usize] = true;
        self.prev[i as usize] = self.tail;
        self.next[i as usize] = NIL;
        if self.tail == NIL {
            self.head = i;
        } else {
            self.next[self.tail as usize] = i;
        }
        self.tail = i;
        self.ready_len += 1;
    }

    fn remove(&mut self, v: NodeId) {
        let i = v.0;
        debug_assert!(self.member[i as usize]);
        self.member[i as usize] = false;
        let (p, n) = (self.prev[i as usize], self.next[i as usize]);
        if p == NIL {
            self.head = n;
        } else {
            self.next[p as usize] = n;
        }
        if n == NIL {
            self.tail = p;
        } else {
            self.prev[n as usize] = p;
        }
        self.ready_len -= 1;
    }

    /// Number of ready nodes.
    pub fn ready_count(&self) -> usize {
        self.ready_len
    }

    /// First ready node in FIFO order, if any.
    pub fn first_ready(&self) -> Option<NodeId> {
        (self.head != NIL).then_some(NodeId(self.head))
    }

    /// Total remaining scaled work.
    pub fn remaining_total(&self) -> Work {
        self.remaining_total
    }

    /// All nodes complete?
    pub fn is_complete(&self) -> bool {
        self.completed_nodes == self.remaining.len()
    }

    /// Execute `budget` scaled units of a ready node; unlock successors on
    /// completion exactly as the live `UnfoldState::advance` does.
    pub fn advance(&mut self, dag: &ReferenceDag, node: NodeId, budget: u64) -> (u64, bool) {
        assert!(self.member[node.index()], "advance() on non-ready node");
        let consumed = self.remaining[node.index()].deplete(budget);
        self.remaining_total -= Work(consumed);
        if self.remaining[node.index()].is_zero() {
            self.remove(node);
            self.completed_nodes += 1;
            for &s in dag.successors(node) {
                let w = &mut self.waiting_preds[s.index()];
                debug_assert!(*w > 0);
                *w -= 1;
                if *w == 0 {
                    self.push_back(s);
                }
            }
            (consumed, true)
        } else {
            (consumed, false)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::unfold::UnfoldState;
    use dagsched_core::Rng64;

    #[test]
    fn reference_dag_mirrors_the_csr_spec() {
        let mut rng = Rng64::seed_from(77);
        for _ in 0..20 {
            let n = 1 + rng.gen_range(30) as u32;
            let d = gen::random_dag(&mut rng, n, 0.2, (1, 9));
            let r = ReferenceDag::from_spec(&d);
            assert_eq!(r.num_nodes(), d.num_nodes());
            assert_eq!(r.num_edges(), d.num_edges());
            assert_eq!(r.sources(), d.sources());
            for v in 0..d.num_nodes() as u32 {
                assert_eq!(r.successors(NodeId(v)), d.successors(NodeId(v)));
            }
        }
    }

    #[test]
    fn reference_unfold_tracks_the_live_unfold_to_completion() {
        let mut rng = Rng64::seed_from(78);
        for _ in 0..20 {
            let n = 1 + rng.gen_range(25) as u32;
            let d = gen::random_dag(&mut rng, n, 0.25, (1, 7)).into_shared();
            let r = ReferenceDag::from_spec(&d);
            let scale = 1 + rng.gen_range(3);
            let mut legacy = ReferenceUnfold::new(&r, scale);
            let mut live = UnfoldState::new(d.clone(), scale);
            while !live.is_complete() {
                assert_eq!(legacy.ready_count(), live.ready_count());
                assert_eq!(legacy.remaining_total(), live.remaining_total());
                let a = legacy.first_ready().expect("ready while incomplete");
                let b = live.ready_prefix(1)[0];
                assert_eq!(a, b, "FIFO heads diverge");
                let budget = 1 + rng.gen_range(6);
                assert_eq!(legacy.advance(&r, a, budget), live.advance(b, budget));
            }
            assert!(legacy.is_complete());
            assert_eq!(legacy.remaining_total(), Work::ZERO);
        }
    }
}
