//! In-memory invariants of the call graph and the effect lattice.
//!
//! [`check`] asserts the contract of the `"callgraph"` and `"effects"`
//! report sections on the structs they are rendered from, so no JSON
//! is re-parsed to trust them:
//!
//! * edge endpoints, seeds, SCC members and effect rows name declared
//!   nodes; edges are sorted and unique; rows ascend;
//! * SCCs are disjoint and the condensation is acyclic (every cycle is
//!   inside a declared SCC);
//! * `resolved + external == call_sites` and `ambiguous <= resolved`;
//! * `local ⊆ mask` per node, and `mask[caller] ⊇ mask[callee]` on
//!   every edge (monotonicity);
//! * every witness hop is a real call edge whose target carries the
//!   bit, and every witness chain ends at a local source;
//! * the effects stats add up.
//!
//! The golden test runs it on every analyzer fixture and the self-host
//! test on the workspace.

use std::collections::VecDeque;

use crate::model::{CallGraphReport, EffectsReport};

/// Checks every invariant; `Err` lists the violations, one per line.
pub fn check(cg: &CallGraphReport, fx: &EffectsReport) -> Result<(), String> {
    let mut bad = Vec::new();
    check_graph(cg, &mut bad);
    check_effects(cg, fx, &mut bad);
    if bad.is_empty() {
        Ok(())
    } else {
        Err(bad.join("\n"))
    }
}

fn check_graph(cg: &CallGraphReport, bad: &mut Vec<String>) {
    let n = cg.nodes.len();
    let in_range = |id: u32| (id as usize) < n;
    for &(a, b) in &cg.edges {
        if !in_range(a) || !in_range(b) {
            bad.push(format!("edge [{a},{b}] references a node outside 0..{n}"));
        }
    }
    if let Some(w) = cg.edges.windows(2).find(|w| w[0] >= w[1]) {
        bad.push(format!(
            "edges are not sorted and unique: {:?} then {:?}",
            w[0], w[1]
        ));
    }
    let seeds = [
        ("determinism", &cg.seeds_determinism),
        ("hotpath", &cg.seeds_hotpath),
        ("worker", &cg.seeds_worker),
    ];
    for (name, ids) in seeds {
        if let Some(&id) = ids.iter().find(|&&id| !in_range(id)) {
            bad.push(format!("{name} seed {id} references a node outside 0..{n}"));
        }
    }

    // Component id per node: its SCC, or a fresh singleton.
    let mut comp: Vec<Option<usize>> = vec![None; n];
    for (ci, members) in cg.sccs.iter().enumerate() {
        for &id in members {
            match comp.get_mut(id as usize) {
                None => bad.push(format!("scc member {id} is outside 0..{n}")),
                Some(Some(_)) => bad.push(format!("node {id} appears in more than one scc")),
                Some(slot) => *slot = Some(ci),
            }
        }
    }
    let mut next = cg.sccs.len();
    let comp: Vec<usize> = comp
        .into_iter()
        .map(|c| {
            c.unwrap_or_else(|| {
                next += 1;
                next - 1
            })
        })
        .collect();
    // Kahn over the condensation: a leftover component sits on a cycle
    // no declared SCC covers.
    let mut out_edges: Vec<Vec<usize>> = vec![Vec::new(); next];
    let mut indegree = vec![0usize; next];
    for &(a, b) in cg
        .edges
        .iter()
        .filter(|&&(a, b)| in_range(a) && in_range(b))
    {
        let (ca, cb) = (comp[a as usize], comp[b as usize]);
        if ca != cb {
            out_edges[ca].push(cb);
            indegree[cb] += 1;
        }
    }
    let mut queue: VecDeque<usize> = (0..next).filter(|&c| indegree[c] == 0).collect();
    let mut done = 0;
    while let Some(c) = queue.pop_front() {
        done += 1;
        for &d in &out_edges[c] {
            indegree[d] -= 1;
            if indegree[d] == 0 {
                queue.push_back(d);
            }
        }
    }
    if done < next {
        bad.push(format!(
            "condensation is not a DAG: {} component(s) sit on a cycle no scc covers",
            next - done
        ));
    }

    if cg.resolved + cg.external != cg.call_sites {
        bad.push(format!(
            "site stats do not add up: resolved {} + external {} != call_sites {}",
            cg.resolved, cg.external, cg.call_sites
        ));
    }
    if cg.ambiguous > cg.resolved {
        bad.push(format!(
            "ambiguous {} exceeds resolved {}",
            cg.ambiguous, cg.resolved
        ));
    }
}

fn check_effects(cg: &CallGraphReport, fx: &EffectsReport, bad: &mut Vec<String>) {
    let n = cg.nodes.len();
    let mut mask = vec![0u32; n];
    let mut local = vec![0u32; n];
    let mut via = vec![[-1i32; 6]; n];
    for (i, r) in fx.rows.iter().enumerate() {
        let node = r.node as usize;
        if node >= n || (i > 0 && fx.rows[i - 1].node >= r.node) {
            bad.push(format!(
                "effects row for node {} is out of range or out of order",
                r.node
            ));
            continue;
        }
        if r.mask == 0 || r.mask > 63 {
            bad.push(format!(
                "node {node}: mask {} is outside the six-bit lattice",
                r.mask
            ));
        }
        if r.local & !r.mask != 0 {
            bad.push(format!(
                "node {node}: local bits {} escape mask {}",
                r.local, r.mask
            ));
        }
        mask[node] = r.mask;
        local[node] = r.local;
        via[node] = r.via;
    }

    let has_edge = |a: usize, b: usize| cg.edges.binary_search(&(a as u32, b as u32)).is_ok();
    for &(a, b) in &cg.edges {
        let (a, b) = (a as usize, b as usize);
        if a < n && b < n && mask[b] & !mask[a] != 0 {
            bad.push(format!(
                "mask shrinks over edge [{a},{b}]: {} does not cover {}",
                mask[a], mask[b]
            ));
        }
    }

    for u in 0..n {
        for (b, &hop) in via[u].iter().enumerate() {
            let bit = 1u32 << b;
            if mask[u] & bit == 0 {
                if hop != -1 {
                    bad.push(format!("node {u}: via[{b}] is {hop} but bit {b} is unset"));
                }
                continue;
            }
            if local[u] & bit != 0 {
                if hop != u as i32 {
                    bad.push(format!(
                        "node {u}: bit {b} is local but via[{b}] is {hop}, not the node itself"
                    ));
                }
                continue;
            }
            let hop_ok =
                usize::try_from(hop).is_ok_and(|v| v < n && has_edge(u, v) && mask[v] & bit != 0);
            if !hop_ok {
                bad.push(format!(
                    "node {u}: witness hop via[{b}] = {hop} is no call edge to a node carrying bit {b}"
                ));
                continue;
            }
            // Follow the chain; at most `n` hops reach a local source.
            let mut v = u;
            let mut steps = 0;
            while local[v] & bit == 0 && steps <= n {
                match usize::try_from(via[v][b]) {
                    Ok(w) if w < n && w != v => v = w,
                    _ => break,
                }
                steps += 1;
            }
            if local[v] & bit == 0 {
                bad.push(format!(
                    "node {u}: witness chain for bit {b} does not end at a local source"
                ));
            }
        }
    }

    let local_bits: u32 = local.iter().map(|m| m.count_ones()).sum();
    let total_bits: u32 = mask.iter().map(|m| m.count_ones()).sum();
    if fx.functions as usize != n
        || fx.local_bits != local_bits
        || fx.propagated_bits + local_bits != total_bits
    {
        bad.push(format!(
            "effects stats do not add up: functions {} / local_bits {} / propagated_bits {}, \
             but the graph has {n} nodes and the rows carry {local_bits} local of {total_bits} bits",
            fx.functions, fx.local_bits, fx.propagated_bits
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::EffectRow;

    /// A consistent graph: 0 -> {1, 3}, 1 <-> 2 (an SCC). Node 3
    /// allocates locally, node 2 locks locally; 1 inherits the lock
    /// from 2, and 0 inherits both.
    fn valid() -> (CallGraphReport, EffectsReport) {
        let cg = CallGraphReport {
            nodes: (0..4).map(|i| format!("a.rs::f{i}@{i}:1")).collect(),
            edges: vec![(0, 1), (0, 3), (1, 2), (2, 1)],
            seeds_determinism: vec![0],
            seeds_hotpath: vec![0],
            seeds_worker: vec![],
            sccs: vec![vec![1, 2]],
            call_sites: 5,
            resolved: 4,
            external: 1,
            ambiguous: 1,
        };
        let row = |node, mask, local, alloc: i32, lock: i32| EffectRow {
            node,
            mask,
            local,
            via: [alloc, lock, -1, -1, -1, -1],
        };
        let fx = EffectsReport {
            rows: vec![
                row(0, 3, 0, 3, 1),
                row(1, 2, 0, -1, 2),
                row(2, 2, 2, -1, 2),
                row(3, 1, 1, 3, -1),
            ],
            functions: 4,
            local_bits: 2,
            propagated_bits: 3,
        };
        (cg, fx)
    }

    fn violation(cg: &CallGraphReport, fx: &EffectsReport, needle: &str) {
        match check(cg, fx) {
            Ok(()) => panic!("doctored input passed; expected {needle:?}"),
            Err(e) => assert!(e.contains(needle), "expected {needle:?}, got:\n{e}"),
        }
    }

    #[test]
    fn consistent_graph_and_lattice_pass() {
        let (cg, fx) = valid();
        assert_eq!(check(&cg, &fx), Ok(()));
        let empty = (CallGraphReport::default(), EffectsReport::default());
        assert_eq!(check(&empty.0, &empty.1), Ok(()));
    }

    #[test]
    fn out_of_range_endpoint_fails() {
        let (mut cg, fx) = valid();
        cg.edges.push((3, 9));
        violation(&cg, &fx, "edge [3,9] references a node outside");
    }

    #[test]
    fn unsorted_or_duplicate_edges_fail() {
        let (mut cg, fx) = valid();
        cg.edges.insert(1, (0, 1));
        violation(&cg, &fx, "not sorted and unique");
    }

    #[test]
    fn overlapping_sccs_fail() {
        let (mut cg, fx) = valid();
        cg.sccs.push(vec![2, 3]);
        violation(&cg, &fx, "node 2 appears in more than one scc");
    }

    #[test]
    fn uncovered_cycle_fails() {
        let (mut cg, fx) = valid();
        cg.sccs.clear();
        violation(&cg, &fx, "condensation is not a DAG");
    }

    #[test]
    fn site_stats_that_do_not_add_up_fail() {
        let (mut cg, fx) = valid();
        cg.external = 2;
        violation(&cg, &fx, "site stats do not add up");
    }

    #[test]
    fn ambiguous_beyond_resolved_fails() {
        let (mut cg, fx) = valid();
        cg.ambiguous = 5;
        violation(&cg, &fx, "ambiguous 5 exceeds resolved 4");
    }

    #[test]
    fn local_bits_escaping_the_mask_fail() {
        let (cg, mut fx) = valid();
        fx.rows[3].local = 3;
        violation(&cg, &fx, "node 3: local bits 3 escape mask 1");
    }

    #[test]
    fn mask_shrinking_over_an_edge_fails() {
        let (cg, mut fx) = valid();
        // Node 0 drops the allocation bit node 3 carries.
        fx.rows[0].mask = 2;
        fx.rows[0].via[0] = -1;
        violation(&cg, &fx, "mask shrinks over edge [0,3]");
    }

    #[test]
    fn witness_hop_off_the_call_graph_fails() {
        let (cg, mut fx) = valid();
        // 0 -> 2 is no call edge, though 2 carries the lock bit.
        fx.rows[0].via[1] = 2;
        violation(&cg, &fx, "node 0: witness hop via[1] = 2 is no call edge");
    }

    #[test]
    fn witness_chain_without_a_local_source_fails() {
        let (cg, mut fx) = valid();
        // Node 2 loses its local lock source: the 1 <-> 2 chain cycles.
        fx.rows[2].local = 0;
        fx.rows[2].via[1] = 1;
        fx.local_bits = 1;
        fx.propagated_bits = 4;
        violation(
            &cg,
            &fx,
            "witness chain for bit 1 does not end at a local source",
        );
    }

    #[test]
    fn effect_rows_out_of_order_fail() {
        let (cg, mut fx) = valid();
        fx.rows.swap(0, 1);
        violation(
            &cg,
            &fx,
            "effects row for node 0 is out of range or out of order",
        );
    }

    #[test]
    fn stray_or_misplaced_witnesses_fail() {
        let (cg, mut fx) = valid();
        fx.rows[1].via[2] = 2; // bit 2 is unset on node 1
        fx.rows[3].via[0] = 0; // node 3's allocation is its own
        violation(&cg, &fx, "node 1: via[2] is 2 but bit 2 is unset");
        violation(&cg, &fx, "node 3: bit 0 is local but via[0] is 0");
    }

    #[test]
    fn effects_stats_that_do_not_add_up_fail() {
        let (cg, mut fx) = valid();
        fx.propagated_bits = 4;
        violation(&cg, &fx, "effects stats do not add up");
    }
}
