//! BFS: breadth-first search (Rodinia).
//!
//! Mixed access pattern: dense sweeps over the frontier masks plus
//! data-dependent gathers into the node/edge arrays — the gathers are the
//! irregular half that stresses remote cacheline access and TLB reach.
//!
//! Metering a level reads only that level's lists, so `run` meters on
//! the calling thread while a gh-par worker expands the next level, at
//! most one level ahead (`Handoff`, under `gh_par::join`). A level the
//! worker has not started is expanded by the metering thread itself, so
//! a run never waits on a step that no thread is running.

use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use gh_profiler::Phase;
use gh_sim::{Frag, Machine, MemMode, RunReport};

use crate::common::UBuf;

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

/// Runs `(first, count)` of consecutive ids (node or edge indices) as
/// fragments over `unit`-byte elements.
fn frags(runs: &[(u32, u32)], unit: u64) -> impl Iterator<Item = Frag> + '_ {
    runs.iter()
        .map(move |&(first, count)| frag((u64::from(first) * unit, u64::from(count) * unit)))
}

/// The set bits of `bits` (bit `id % 64` of word `id / 64`) as runs of
/// consecutive ids `(first, count)`, ascending; clears the bitmap.
fn take_runs(bits: &mut [u64]) -> Vec<(u32, u32)> {
    let mut runs: Vec<(u32, u32)> = Vec::new();
    for (w, word) in bits.iter_mut().enumerate() {
        let mut x = std::mem::take(word);
        while x != 0 {
            let lo = x.trailing_zeros();
            let ones = (x >> lo).trailing_ones();
            let first = w as u32 * 64 + lo;
            match runs.last_mut() {
                Some((f, c)) if *f + *c == first => *c += ones,
                _ => runs.push((first, ones)),
            }
            x &= (!0u64).checked_shl(lo + ones).unwrap_or(0);
        }
    }
    runs
}

/// What one level touches, each list ascending. Node and edge indices
/// fit `u32` (the graph stores them so), which keeps each list half the
/// size of byte spans.
#[derive(Debug)]
struct Level {
    /// The frontier's CSR edge segments, coalesced: runs of edge indices.
    edges: Vec<(u32, u32)>,
    /// Runs of neighbour ids: the visited checks.
    neigh: Vec<(u32, u32)>,
    /// Runs of newly discovered ids: the cost and updating scatters, and
    /// the next frontier, which the expansion of the next level shares.
    next: Arc<Vec<(u32, u32)>>,
}

/// A BFS in flight: each node's level, and bitmaps over node ids.
///
/// A level's frontier, neighbour set, discovered set and edge segments
/// are sets: they do not depend on the order its nodes were found in.
/// Expanding the frontier in ascending id order yields each one sorted,
/// so each list equals the sort-and-merge of its touches, with no sort.
#[derive(Debug)]
struct Walk {
    /// Each node's level; -1 until reached.
    cost: Vec<i32>,
    /// Reached so far.
    seen: Vec<u64>,
    /// Discovered by the level being expanded.
    next: Vec<u64>,
    /// Neighbours of the level being expanded.
    neigh: Vec<u64>,
}

impl Walk {
    /// A walk from node 0 over `n` nodes.
    fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        let mut walk = Walk {
            cost: vec![-1; n],
            seen: vec![0; words],
            next: vec![0; words],
            neigh: vec![0; words],
        };
        walk.cost[0] = 0;
        walk.seen[0] = 1;
        walk
    }

    /// Expands `frontier`, the runs of ids at `level`, in id order.
    fn expand(&mut self, g: &Graph, frontier: &[(u32, u32)], level: i32) -> Level {
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for &(first, count) in frontier {
            for u in first..first + count {
                let (s, c) = g.nodes[u as usize];
                if c == 0 {
                    continue;
                }
                // CSR segments ascend with the id: each one joins the
                // previous span when it starts at or before that span's
                // end, the merge rule of a sorted coalesce.
                match edges.last_mut() {
                    Some((o, l)) if *o + *l >= s => *l = (s + c).max(*o + *l) - *o,
                    _ => edges.push((s, c)),
                }
                for &v in &g.edges[s as usize..(s + c) as usize] {
                    let (w, bit) = (v as usize / 64, 1u64 << (v % 64));
                    self.neigh[w] |= bit;
                    if self.seen[w] & bit == 0 {
                        self.seen[w] |= bit;
                        self.next[w] |= bit;
                        self.cost[v as usize] = level + 1;
                    }
                }
            }
        }
        Level {
            edges,
            neigh: take_runs(&mut self.neigh),
            next: Arc::new(take_runs(&mut self.next)),
        }
    }
}

/// The expansion's side of a run: the walk, the level it expands next,
/// and at most one expanded level the metering has not taken yet.
#[derive(Debug)]
struct Ahead {
    walk: Walk,
    /// Runs of the ids at `level`; empty once the walk is done.
    frontier: Arc<Vec<(u32, u32)>>,
    level: i32,
    ready: Option<Level>,
    /// The metering has stopped, by return or by unwinding.
    stopped: bool,
}

impl Ahead {
    /// Expands the next level; what it discovers is the frontier after it.
    fn step(&mut self, g: &Graph) -> Level {
        let lv = self.walk.expand(g, &self.frontier, self.level);
        self.frontier = Arc::clone(&lv.next);
        self.level += 1;
        lv
    }
}

/// Levels handed from the expansion to the metering. A thread expands
/// only while it holds the lock, so a thread that waits for the lock
/// waits on a step that is running; `room` wakes the expansion when the
/// metering takes the level it waits to follow.
#[derive(Debug)]
struct Handoff {
    ahead: Mutex<Ahead>,
    room: Condvar,
}

impl Handoff {
    #[expect(
        clippy::expect_used,
        reason = "a poisoned lock means the other side panicked mid-step and left the walk half expanded; `join` re-raises a panic either way"
    )]
    fn lock(&self) -> MutexGuard<'_, Ahead> {
        self.ahead
            .lock()
            .expect("the other side of the bfs hand-off panicked")
    }

    /// The metering's next level: the one expanded ahead, or else one
    /// this thread expands itself, since no thread is expanding it.
    fn take(&self, g: &Graph) -> Level {
        let mut ahead = self.lock();
        match ahead.ready.take() {
            Some(lv) => {
                self.room.notify_one();
                lv
            }
            None => ahead.step(g),
        }
    }

    /// The expansion's loop: expands each level as soon as the metering
    /// has taken the one before, until the walk is done or the metering
    /// has stopped.
    fn expand_ahead(&self, g: &Graph) {
        let mut ahead = self.lock();
        while !ahead.stopped && !ahead.frontier.is_empty() {
            if ahead.ready.is_some() {
                #[expect(
                    clippy::expect_used,
                    reason = "as in `lock`: the metering panicked mid-step"
                )]
                let woken = self.room.wait(ahead).expect("the bfs metering panicked");
                ahead = woken;
            } else {
                ahead.ready = Some(ahead.step(g));
            }
        }
    }
}

/// Marks the metering stopped when it leaves, by return or by unwinding,
/// so an expansion waiting for room returns.
struct Stop<'a>(&'a Handoff);

impl Drop for Stop<'_> {
    fn drop(&mut self) {
        // A drop must not panic, and the flag is valid whatever state a
        // panicking step left the walk in.
        let mut ahead = self.0.ahead.lock().unwrap_or_else(PoisonError::into_inner);
        ahead.stopped = true;
        self.0.room.notify_one();
    }
}

/// Runs BFS under `mode` (checksum = Σ (level+1) over reached nodes).
pub fn run(mut m: Machine, mode: MemMode, p: &BfsParams) -> RunReport {
    assert!(p.nodes > 0, "nodes must be positive");
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

    // Real BFS with metered per-level kernels. Each level is a set of
    // node ids expanded in id order (`Walk`), so every list the kernels
    // meter comes off a bitmap as runs of consecutive ids, already
    // sorted and coalesced. Metering a level reads only that level's
    // lists, so a gh-par worker expands the next level meanwhile.
    let handoff = Handoff {
        ahead: Mutex::new(Ahead {
            walk: Walk::new(n),
            frontier: Arc::new(vec![(0, 1)]),
            level: 0,
            ready: None,
            stopped: false,
        }),
        room: Condvar::new(),
    };
    let meter = || {
        let _stop = Stop(&handoff);
        let mut frontier = Arc::new(vec![(0, 1)]);
        loop {
            let lv = handoff.take(&g);
            // Kernel 1: expand the frontier.
            let mut k = m.rt.launch("bfs_kernel1");
            // Dense sweep over the mask to find frontier threads.
            k.read(mask_buf.gpu(), 0, mask_bytes);
            // Gather node descriptors of the frontier.
            k.fragments(nodes_buf.gpu(), false, frags(&frontier, 8));
            // Per-node adjacency segments + neighbour visited checks.
            k.fragments(edges_buf.gpu(), false, frags(&lv.edges, 4));
            k.fragments(vis_buf.gpu(), false, frags(&lv.neigh, 1));
            // Scatter: new costs + updating mask for discovered nodes.
            k.fragments(cost_buf.gpu(), true, frags(&lv.next, 4));
            k.fragments(upd_buf.gpu(), true, frags(&lv.next, 1));
            k.compute((n + g.edges.len()) as u64);
            k.finish();
            // Kernel 2: fold the updating mask into mask/visited.
            let mut k = m.rt.launch("bfs_kernel2");
            k.read(upd_buf.gpu(), 0, mask_bytes);
            // One fragment per call: each node's mask and visited writes
            // interleave, and the TLB, L2 and counters see that order.
            for f in frags(&lv.next, 1) {
                k.fragments(mask_buf.gpu(), true, [f]);
                k.fragments(vis_buf.gpu(), true, [f]);
            }
            k.compute(n as u64);
            k.finish();
            if lv.next.is_empty() {
                break;
            }
            frontier = lv.next;
        }
    };
    gh_par::join(meter, || handoff.expand_ahead(&g));
    // `join` returned, so neither side panicked and nothing poisoned the lock.
    let walk = handoff
        .ahead
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .walk;
    cost_buf.download(&mut m, 0, cost_bytes);
    m.set_checksum(checksum_of(&walk.cost));

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

    /// Sort-and-merge coalescing of `(offset, len)` touches, the way the
    /// level lists were built before the bitmaps: the oracle they equal.
    fn coalesce(mut touches: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
        touches.sort_unstable();
        let mut out: Vec<(u64, u64)> = Vec::new();
        for (off, len) in touches.into_iter().filter(|&(_, len)| len > 0) {
            match out.last_mut() {
                Some((o, l)) if *o + *l >= off => *l = (off + len).max(*o + *l) - *o,
                _ => out.push((off, len)),
            }
        }
        out
    }

    fn unit_touches(ids: &[u32], unit: u64) -> Vec<(u64, u64)> {
        coalesce(ids.iter().map(|&id| (u64::from(id) * unit, unit)).collect())
    }

    fn spans(runs: &[(u32, u32)], unit: u64) -> Vec<(u64, u64)> {
        frags(runs, unit).map(|f| (f.off, f.len)).collect()
    }

    /// A random CSR graph with out-degrees 0..=4, a third of them 0, and
    /// no chain edge, so some nodes are unreachable.
    fn random_csr(n: usize, seed: u64) -> Graph {
        let mut state = seed;
        let mut nodes = Vec::with_capacity(n);
        let mut edges = Vec::new();
        for _ in 0..n {
            let start = edges.len() as u32;
            for _ in 0..(rng_next(&mut state) % 6).saturating_sub(1) {
                edges.push((rng_next(&mut state) % n as u64) as u32);
            }
            nodes.push((start, edges.len() as u32 - start));
        }
        Graph { nodes, edges }
    }

    #[test]
    fn level_lists_match_sort_and_merge_and_costs_match_reference() {
        let (mut unreachable, mut empty_in_frontier) = (false, false);
        for n in [1usize, 63, 64, 65, 3000] {
            for seed in 1..=12 {
                let g = random_csr(n, seed);
                // The per-level id vectors the bitmaps replace.
                let mut cost = vec![-1i32; n];
                cost[0] = 0;
                let mut ids: Vec<u32> = vec![0];
                let mut walk = Walk::new(n);
                let mut frontier = Arc::new(vec![(0, 1)]);
                let mut level = 0;
                while !ids.is_empty() {
                    let what = format!("n={n} seed={seed} level={level}");
                    assert_eq!(spans(&frontier, 8), unit_touches(&ids, 8), "{what}: nodes");
                    let (mut segments, mut neigh, mut next) = (vec![], vec![], vec![]);
                    for &u in &ids {
                        let (s, c) = g.nodes[u as usize];
                        empty_in_frontier |= c == 0;
                        segments.push((u64::from(s) * 4, u64::from(c) * 4));
                        for &v in &g.edges[s as usize..(s + c) as usize] {
                            neigh.push(v);
                            if cost[v as usize] < 0 {
                                cost[v as usize] = level + 1;
                                next.push(v);
                            }
                        }
                    }
                    let lv = walk.expand(&g, &frontier, level);
                    assert_eq!(spans(&lv.edges, 4), coalesce(segments), "{what}: edges");
                    assert_eq!(
                        spans(&lv.neigh, 1),
                        unit_touches(&neigh, 1),
                        "{what}: visited"
                    );
                    for unit in [1, 4] {
                        assert_eq!(
                            spans(&lv.next, unit),
                            unit_touches(&next, unit),
                            "{what}: next"
                        );
                    }
                    (ids, frontier, level) = (next, lv.next, level + 1);
                }
                assert!(frontier.is_empty(), "n={n} seed={seed}");
                assert_eq!(walk.cost, reference(&g), "n={n} seed={seed}");
                unreachable |= walk.cost.contains(&-1);
            }
        }
        assert!(
            unreachable && empty_in_frontier,
            "the graphs cover both cases"
        );
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
