//! BFS: breadth-first search (Rodinia).
//!
//! Mixed access pattern: dense sweeps over the frontier masks plus
//! data-dependent gathers into the node/edge arrays — the gathers are the
//! irregular half that stresses remote cacheline access and TLB reach.

use gh_profiler::Phase;
use gh_sim::{Frag, Machine, MemMode, RunReport};

use crate::common::{coalesce, coalesce_unit_ids, UBuf};

/// Input parameters.
#[derive(Debug, Clone)]
pub struct BfsParams {
    /// Node count (paper: 16M; scaled default 1M).
    pub nodes: usize,
    /// Average out-degree.
    pub degree: usize,
    /// RNG seed for graph construction.
    pub seed: u64,
}

impl Default for BfsParams {
    fn default() -> Self {
        Self {
            nodes: 1_000_000,
            degree: 6,
            seed: 31,
        }
    }
}

/// A CSR graph.
#[derive(Debug)]
pub struct Graph {
    /// Per-node `(first_edge, edge_count)`.
    pub nodes: Vec<(u32, u32)>,
    /// Flattened adjacency.
    pub edges: Vec<u32>,
}

fn rng_next(state: &mut u64) -> u64 {
    // SplitMix64: deterministic, seedable, no dependency on rand's API.
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builds the random graph the Rodinia input generator would produce:
/// every node gets `degree ± 2` random neighbours, plus a chain edge
/// (`i → i+1`) so the graph is connected and BFS reaches everything.
pub fn build_graph(p: &BfsParams) -> Graph {
    let n = p.nodes;
    let mut state = p.seed | 1;
    let mut nodes = Vec::with_capacity(n);
    let mut edges = Vec::new();
    for i in 0..n {
        let start = edges.len() as u32;
        let extra = (rng_next(&mut state) % 5) as i64 - 2;
        let deg = (p.degree as i64 + extra).max(1) as usize;
        if i + 1 < n {
            edges.push((i + 1) as u32);
        }
        for _ in 0..deg {
            edges.push((rng_next(&mut state) % n as u64) as u32);
        }
        nodes.push((start, edges.len() as u32 - start));
    }
    Graph { nodes, edges }
}

/// Sequential reference BFS: level per node (-1 if unreachable).
pub fn reference(g: &Graph) -> Vec<i32> {
    let mut cost = vec![-1i32; g.nodes.len()];
    cost[0] = 0;
    let mut frontier = vec![0u32];
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for &u in &frontier {
            let (s, c) = g.nodes[u as usize];
            for &v in &g.edges[s as usize..(s + c) as usize] {
                if cost[v as usize] < 0 {
                    cost[v as usize] = cost[u as usize] + 1;
                    next.push(v);
                }
            }
        }
        frontier = next;
    }
    cost
}

fn checksum_of(cost: &[i32]) -> f64 {
    cost.iter()
        .map(|&c| if c >= 0 { c as f64 + 1.0 } else { 0.0 })
        .sum()
}

/// A coalesced span as a fragment: merged runs of 2 KiB or more stream
/// densely, smaller ones are irregular (line-granular) touches.
fn frag((off, len): (u64, u64)) -> Frag {
    Frag {
        off,
        len,
        random: len < 2048,
    }
}

/// Runs BFS under `mode` (checksum = Σ (level+1) over reached nodes).
pub fn run(mut m: Machine, mode: MemMode, p: &BfsParams) -> RunReport {
    let g = build_graph(p);
    let n = p.nodes;
    let nodes_bytes = (n * 8) as u64;
    let edges_bytes = (g.edges.len() * 4) as u64;
    let cost_bytes = (n * 4) as u64;
    let mask_bytes = n as u64;

    // ---- GPU context initialization + argument parsing (phase 1) ----
    m.phase(Phase::CtxInit);
    m.rt.cuda_init();

    // ---- allocation ----
    m.phase(Phase::Alloc);
    let nodes_buf = UBuf::alloc(&mut m, mode, nodes_bytes, "bfs.nodes");
    let edges_buf = UBuf::alloc(&mut m, mode, edges_bytes, "bfs.edges");
    let cost_buf = UBuf::alloc(&mut m, mode, cost_bytes, "bfs.cost");
    let mask_buf = UBuf::alloc(&mut m, mode, mask_bytes, "bfs.mask");
    let upd_buf = UBuf::alloc(&mut m, mode, mask_bytes, "bfs.updating");
    let vis_buf = UBuf::alloc(&mut m, mode, mask_bytes, "bfs.visited");

    // ---- CPU-side initialization ----
    m.phase(Phase::CpuInit);
    nodes_buf.cpu_init(&mut m, 0, nodes_bytes);
    edges_buf.cpu_init(&mut m, 0, edges_bytes);
    cost_buf.cpu_init(&mut m, 0, cost_bytes);
    mask_buf.cpu_init(&mut m, 0, mask_bytes);
    upd_buf.cpu_init(&mut m, 0, mask_bytes);
    vis_buf.cpu_init(&mut m, 0, mask_bytes);

    // ---- compute ----
    m.phase(Phase::Compute);
    for b in [
        &nodes_buf, &edges_buf, &cost_buf, &mask_buf, &upd_buf, &vis_buf,
    ] {
        b.upload(&mut m);
    }

    // Real BFS with metered per-level kernels.
    let mut cost = vec![-1i32; n];
    cost[0] = 0;
    let mut frontier: Vec<u32> = vec![0];
    while !frontier.is_empty() {
        let mut next: Vec<u32> = Vec::new();
        // Kernel 1: expand the frontier.
        {
            let mut k = m.rt.launch("bfs_kernel1");
            // Dense sweep over the mask to find frontier threads.
            k.read(mask_buf.gpu(), 0, mask_bytes);
            // Gather node descriptors of the frontier (coalesced; all
            // unit-granular touch lists go through the bitmap coalescer,
            // which produces the same spans as sort+merge without the
            // per-level sort).
            let nodes = coalesce_unit_ids(&frontier, 8, n);
            k.fragments(nodes_buf.gpu(), false, nodes.into_iter().map(frag));
            // Per-node adjacency segments + neighbour visited checks.
            let mut edge_touches = Vec::with_capacity(frontier.len());
            let mut neigh_ids = Vec::new();
            let mut discovered = Vec::new();
            for &u in &frontier {
                let (s, c) = g.nodes[u as usize];
                edge_touches.push(((s as u64) * 4, (c as u64) * 4));
                for &v in &g.edges[s as usize..(s + c) as usize] {
                    neigh_ids.push(v);
                    if cost[v as usize] < 0 {
                        cost[v as usize] = cost[u as usize] + 1;
                        next.push(v);
                        discovered.push(v);
                    }
                }
            }
            let edges = coalesce(edge_touches);
            k.fragments(edges_buf.gpu(), false, edges.into_iter().map(frag));
            let visited = coalesce_unit_ids(&neigh_ids, 1, n);
            k.fragments(vis_buf.gpu(), false, visited.into_iter().map(frag));
            // Scatter: new costs + updating mask for discovered nodes.
            let costs = coalesce_unit_ids(&discovered, 4, n);
            k.fragments(cost_buf.gpu(), true, costs.into_iter().map(frag));
            let updating = coalesce_unit_ids(&discovered, 1, n);
            k.fragments(upd_buf.gpu(), true, updating.into_iter().map(frag));
            k.compute((n + g.edges.len()) as u64);
            k.finish();
        }
        // Kernel 2: fold the updating mask into mask/visited.
        {
            let mut k = m.rt.launch("bfs_kernel2");
            k.read(upd_buf.gpu(), 0, mask_bytes);
            // One fragment per call: each node's mask and visited writes
            // interleave, and the TLB, L2 and counters see that order.
            for f in coalesce_unit_ids(&next, 1, n).into_iter().map(frag) {
                k.fragments(mask_buf.gpu(), true, [f]);
                k.fragments(vis_buf.gpu(), true, [f]);
            }
            k.compute(n as u64);
            k.finish();
        }
        frontier = next;
    }
    cost_buf.download(&mut m, 0, cost_bytes);
    m.set_checksum(checksum_of(&cost));

    // ---- de-allocation ----
    m.phase(Phase::Dealloc);
    for b in [nodes_buf, edges_buf, cost_buf, mask_buf, upd_buf, vis_buf] {
        b.free(&mut m);
    }
    m.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> BfsParams {
        BfsParams {
            nodes: 2000,
            degree: 4,
            seed: 13,
        }
    }

    #[test]
    fn graph_is_connected_via_chain() {
        let g = build_graph(&small());
        let cost = reference(&g);
        assert!(cost.iter().all(|&c| c >= 0), "chain edge connects all");
    }

    #[test]
    fn all_modes_agree_with_reference() {
        let p = small();
        let expected = checksum_of(&reference(&build_graph(&p)));
        for mode in MemMode::ALL {
            let r = run(gh_sim::platform::gh200().machine(), mode, &p);
            assert_eq!(r.checksum, expected, "{mode}");
        }
    }

    #[test]
    fn bfs_levels_are_sane() {
        let g = build_graph(&small());
        let cost = reference(&g);
        assert_eq!(cost[0], 0);
        // A neighbour of node 0 must be at level 1.
        let (s, c) = g.nodes[0];
        for &v in &g.edges[s as usize..(s + c) as usize] {
            assert!(cost[v as usize] <= 1);
        }
    }

    #[test]
    fn csr_offsets_are_consistent() {
        let g = build_graph(&small());
        let mut expected_start = 0u32;
        for &(s, c) in &g.nodes {
            assert_eq!(s, expected_start);
            expected_start = s + c;
        }
        assert_eq!(expected_start as usize, g.edges.len());
    }

    #[test]
    fn deterministic_across_runs() {
        let p = small();
        let a = run(gh_sim::platform::gh200().machine(), MemMode::System, &p);
        let b = run(gh_sim::platform::gh200().machine(), MemMode::System, &p);
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(
            a.phases.compute, b.phases.compute,
            "virtual time deterministic"
        );
    }
}
