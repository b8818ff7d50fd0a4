//! Output checks computed apart from the incremental path: the naive
//! fixpoint over a freshly built matrix, a BFS of the benchmark's own, and
//! the fold of a delta stream. Also the bound-crossing classifier of the
//! traced run.

use gpm::distance::UNREACHABLE;
use gpm::matching::naive::bounded_simulation_naive_with_oracle;
use gpm::{
    fold_deltas, DataGraph, DistanceMatrix, DistanceOracle, EdgeBound, Executor, MatchDelta,
    MatchRelation, NodeId, Parallelism, PatternGraph, QueryId,
};
use std::collections::VecDeque;

/// Non-empty shortest distances from `source` by breadth-first search:
/// `dist[v]` is the length of the shortest path of at least one edge, so
/// `dist[source]` is the shortest cycle through it.
pub fn bfs_nonempty(g: &DataGraph, source: NodeId) -> Vec<Option<u32>> {
    let mut dist = vec![None; g.node_count()];
    let mut queue = VecDeque::new();
    for &w in g.out_neighbors(source) {
        if dist[w.index()].is_none() {
            dist[w.index()] = Some(1);
            queue.push_back(w);
        }
    }
    while let Some(v) = queue.pop_front() {
        let d = dist[v.index()].expect("queued nodes have a distance");
        for &w in g.out_neighbors(v) {
            if dist[w.index()].is_none() {
                dist[w.index()] = Some(d + 1);
                queue.push_back(w);
            }
        }
    }
    dist
}

/// Whether a distance change from `old` to `new` (hops, `UNREACHABLE` for
/// no path) can be seen by a pattern edge: reachability flips, or the two
/// distances fall on different sides of some registered finite bound.
pub fn crosses_bound(old: u16, new: u16, bounds: &[EdgeBound]) -> bool {
    if (old == UNREACHABLE) != (new == UNREACHABLE) {
        return true;
    }
    bounds.iter().any(|b| match *b {
        EdgeBound::Hops(k) => (u32::from(old) <= k) != (u32::from(new) <= k),
        EdgeBound::Unbounded => false,
    })
}

/// Checks one subscription stream: it starts with a snapshot, belongs to
/// `query`, has non-decreasing epochs and folds to `expected`.
pub fn check_stream(
    query: QueryId,
    deltas: &[MatchDelta],
    expected: &MatchRelation,
) -> Result<(), String> {
    let first = deltas
        .first()
        .ok_or_else(|| format!("{query}: empty stream, no snapshot"))?;
    if !first.removed.is_empty() {
        return Err(format!("{query}: first delta is not a snapshot"));
    }
    if let Some(d) = deltas.iter().find(|d| d.query != query) {
        return Err(format!("{query}: stream carries a delta of {}", d.query));
    }
    if deltas.windows(2).any(|w| w[1].epoch < w[0].epoch) {
        return Err(format!("{query}: epochs go backwards"));
    }
    if fold_deltas(expected.pattern_node_count(), deltas) != *expected {
        return Err(format!("{query}: folded stream differs from the result"));
    }
    Ok(())
}

/// Compares every `(pattern, result)` with the naive fixpoint over a freshly
/// built distance matrix of `g`.
pub fn check_naive(
    g: &DataGraph,
    results: &[(&PatternGraph, MatchRelation)],
) -> Result<(), String> {
    let matrix = DistanceMatrix::build_with(g, &Executor::new(Parallelism::available()));
    for (i, (pattern, result)) in results.iter().enumerate() {
        let naive = bounded_simulation_naive_with_oracle(pattern, g, &matrix).relation;
        if naive != *result {
            return Err(format!(
                "query #{i}: result has {} pairs, naive fixpoint {}",
                result.pair_count(),
                naive.pair_count()
            ));
        }
    }
    Ok(())
}

/// Compares the maintained oracle with [`bfs_nonempty`] from each sampled
/// source to every node.
pub fn check_distances<O: DistanceOracle + ?Sized>(
    g: &DataGraph,
    oracle: &O,
    sources: &[NodeId],
) -> Result<(), String> {
    for &s in sources {
        for (v, &want) in bfs_nonempty(g, s).iter().enumerate() {
            let v = NodeId::new(v as u32);
            let got = oracle.nonempty_distance(g, s, v);
            if got != want {
                return Err(format!("dist({s}, {v}): oracle {got:?}, BFS {want:?}"));
            }
        }
    }
    Ok(())
}

/// Every bound of every pattern edge, deduplicated.
pub fn registered_bounds<'a>(
    patterns: impl IntoIterator<Item = &'a PatternGraph>,
) -> Vec<EdgeBound> {
    let mut bounds: Vec<EdgeBound> = Vec::new();
    for p in patterns {
        for e in p.edges() {
            if !bounds.contains(&e.bound) {
                bounds.push(e.bound);
            }
        }
    }
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm::{DataGraphBuilder, PatternGraphBuilder, PatternNodeId};

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn bfs_on_a_hand_drawn_graph() {
        // 0 -> 1 -> 2 -> 0 is a 3-cycle; 2 -> 3; 4 is isolated; 1 -> 3.
        let g = DataGraph::from_edges(5, &[(0, 1), (1, 2), (2, 0), (2, 3), (1, 3)]).unwrap();
        assert_eq!(
            bfs_nonempty(&g, n(0)),
            vec![Some(3), Some(1), Some(2), Some(2), None]
        );
        assert_eq!(
            bfs_nonempty(&g, n(2)),
            vec![Some(1), Some(2), Some(3), Some(1), None]
        );
        // A sink reaches nothing, itself included.
        assert_eq!(bfs_nonempty(&g, n(3)), vec![None; 5]);
        // And the oracle agrees with it.
        let m = DistanceMatrix::build(&g);
        check_distances(&g, &m, &[n(0), n(1), n(2), n(3), n(4)]).unwrap();
    }

    #[test]
    fn bound_crossing_on_hand_built_pairs() {
        let finite = [EdgeBound::Hops(3)];
        // 2 -> 3 stays within the bound; 3 -> 4 leaves it; 5 -> 4 stays out.
        assert!(!crosses_bound(2, 3, &finite));
        assert!(crosses_bound(3, 4, &finite));
        assert!(crosses_bound(4, 3, &finite));
        assert!(!crosses_bound(5, 4, &finite));
        // A `*` edge only sees reachability.
        let star = [EdgeBound::Unbounded];
        assert!(!crosses_bound(1, 9, &star));
        assert!(crosses_bound(9, UNREACHABLE, &star));
        // Unreachable <-> reachable flips count whatever the bounds.
        assert!(crosses_bound(UNREACHABLE, 7, &finite));
        assert!(crosses_bound(UNREACHABLE, 7, &[]));
        assert!(!crosses_bound(UNREACHABLE, UNREACHABLE, &finite));
        // Several bounds: crossing any one of them counts.
        let both = [EdgeBound::Hops(1), EdgeBound::Hops(5)];
        assert!(!crosses_bound(2, 4, &both));
        assert!(crosses_bound(1, 2, &both));
        assert!(crosses_bound(5, 6, &both));
    }

    #[test]
    fn stream_fold_on_a_hand_built_stream() {
        let q = QueryId::from_raw(7);
        let (u0, u1) = (PatternNodeId::new(0), PatternNodeId::new(1));
        let snapshot = MatchDelta {
            query: q,
            epoch: 0,
            added: vec![(u0, n(1)), (u1, n(2))],
            removed: vec![],
        };
        let later = MatchDelta {
            query: q,
            epoch: 3,
            added: vec![(u1, n(4))],
            removed: vec![(u1, n(2))],
        };
        let stream = vec![snapshot.clone(), later.clone()];
        let expected = MatchRelation::from_sets(vec![vec![n(1)], vec![n(4)]]);
        check_stream(q, &stream, &expected).unwrap();

        // Missing the last delta: the fold differs.
        assert!(check_stream(q, &stream[..1], &expected).is_err());
        // No snapshot first.
        assert!(check_stream(q, std::slice::from_ref(&later), &expected).is_err());
        assert!(check_stream(q, &[], &expected).is_err());
        // Out-of-order epochs.
        let late_snapshot = MatchDelta {
            epoch: 5,
            ..snapshot.clone()
        };
        assert!(check_stream(q, &[late_snapshot, later.clone()], &expected).is_err());
        // Another query's delta.
        let foreign = MatchDelta {
            query: QueryId::from_raw(8),
            ..later
        };
        assert!(check_stream(q, &[snapshot, foreign], &expected).is_err());
    }

    #[test]
    fn naive_check_accepts_the_true_result_only() {
        let (g, _) = DataGraphBuilder::new()
            .labeled_node("a")
            .labeled_node("b")
            .path(&["a", "b"])
            .build()
            .unwrap();
        let (p, ids) = PatternGraphBuilder::new()
            .labeled_node("a")
            .labeled_node("b")
            .edge("a", "b", 1u32)
            .build()
            .unwrap();
        let truth = gpm::bounded_simulation(&p, &g).relation;
        assert_eq!(truth.matches_of(ids["b"]).len(), 1);
        check_naive(&g, &[(&p, truth)]).unwrap();
        check_naive(&g, &[(&p, MatchRelation::empty(2))]).unwrap_err();
        assert_eq!(registered_bounds([&p, &p]), vec![EdgeBound::Hops(1)]);
    }
}
