//! Spanning trees, the terminal-tree construction of Section 3.3, and the
//! proof-labelling scheme of Lemma 18.
//!
//! The general-graph dQMA protocols (Algorithms 5, 8 and 9 of the paper) do
//! not run on the raw network: the prover announces a spanning tree `T`
//! rooted at the most central terminal, with all terminals as leaves, depth at
//! most `r + 1` and maximum degree at most `t`. The nodes verify the
//! announced tree with a classical deterministic proof-labelling scheme
//! (Lemma 18, from Korman–Kutten–Peleg) and then run the quantum protocol on
//! the tree. This module implements both the construction and the
//! verification.

use crate::graph::Graph;

/// A rooted spanning tree of (a subset of) a graph's nodes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanningTree {
    root: usize,
    parent: Vec<Option<usize>>,
    children: Vec<Vec<usize>>,
    depth: Vec<Option<usize>>,
    num_graph_nodes: usize,
}

impl SpanningTree {
    /// Builds the BFS spanning tree of a connected graph rooted at `root`.
    ///
    /// # Panics
    ///
    /// Panics if the graph is disconnected or `root` is out of range.
    pub fn bfs(graph: &Graph, root: usize) -> Self {
        Self::bfs_inner(graph, root, None)
    }

    /// As [`SpanningTree::bfs`], but breaking the parent-choice ties of the
    /// BFS layer-by-layer sweep with a seeded permutation of each node's
    /// neighbour list. Depths are unchanged (BFS layering is order-free), so
    /// every §3.3 depth bound still holds — only *which* shortest-path tree
    /// is announced varies with `seed`. This is the re-randomisation hook of
    /// the peer-churn runtime: a supervisor can re-announce a fresh spanning
    /// tree mid-workload without touching the underlying graph.
    pub fn bfs_seeded(graph: &Graph, root: usize, seed: u64) -> Self {
        Self::bfs_inner(graph, root, Some(seed))
    }

    fn bfs_inner(graph: &Graph, root: usize, seed: Option<u64>) -> Self {
        assert!(root < graph.num_nodes(), "root out of range");
        assert!(
            graph.is_connected(),
            "BFS spanning tree requires a connected graph"
        );
        let n = graph.num_nodes();
        let mut rng = seed.map(<rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64);
        let mut parent = vec![None; n];
        let mut depth = vec![None; n];
        let mut children = vec![Vec::new(); n];
        let mut queue = std::collections::VecDeque::new();
        let mut nbrs: Vec<usize> = Vec::new();
        depth[root] = Some(0);
        queue.push_back(root);
        while let Some(u) = queue.pop_front() {
            nbrs.clear();
            nbrs.extend_from_slice(graph.neighbors(u));
            if let Some(rng) = rng.as_mut() {
                // Fisher–Yates with the vendored generator (no shuffle
                // adaptor in the stub).
                for i in (1..nbrs.len()).rev() {
                    let j = (rand::Rng::random::<u64>(rng) % (i as u64 + 1)) as usize;
                    nbrs.swap(i, j);
                }
            }
            for &v in &nbrs {
                if depth[v].is_none() {
                    depth[v] = Some(depth[u].expect("queued node has depth") + 1);
                    parent[v] = Some(u);
                    children[u].push(v);
                    queue.push_back(v);
                }
            }
        }
        SpanningTree {
            root,
            parent,
            children,
            depth,
            num_graph_nodes: n,
        }
    }

    /// The root node.
    pub fn root(&self) -> usize {
        self.root
    }

    /// The parent of `v` (`None` for the root or for nodes not in the tree).
    pub fn parent(&self, v: usize) -> Option<usize> {
        self.parent[v]
    }

    /// The children of `v` in the tree.
    pub fn children(&self, v: usize) -> &[usize] {
        &self.children[v]
    }

    /// The depth of `v` (`None` if `v` is not in the tree).
    pub fn depth(&self, v: usize) -> Option<usize> {
        self.depth[v]
    }

    /// Returns `true` if `v` belongs to the tree.
    pub fn contains(&self, v: usize) -> bool {
        self.depth[v].is_some()
    }

    /// Returns `true` if `v` is a leaf of the tree.
    pub fn is_leaf(&self, v: usize) -> bool {
        self.contains(v) && self.children[v].is_empty() && v != self.root
    }

    /// Maximum depth over the tree.
    pub fn max_depth(&self) -> usize {
        self.depth.iter().flatten().copied().max().unwrap_or(0)
    }

    /// All nodes currently in the tree.
    pub fn nodes(&self) -> Vec<usize> {
        (0..self.num_graph_nodes)
            .filter(|&v| self.contains(v))
            .collect()
    }

    /// Removes the subtree strictly below every node for which `keep` returns
    /// `false` on *all* nodes of that subtree, keeping exactly the nodes that
    /// are ancestors of (or equal to) a node satisfying `keep`.
    pub fn prune_to_ancestors_of(&mut self, keep: impl Fn(usize) -> bool) {
        // Mark nodes whose subtree contains a kept node, by processing nodes in
        // decreasing depth order.
        let mut order: Vec<usize> = self.nodes();
        order.sort_by_key(|&v| std::cmp::Reverse(self.depth[v]));
        let n = self.num_graph_nodes;
        let mut marked = vec![false; n];
        for &v in &order {
            if keep(v) || self.children[v].iter().any(|&c| marked[c]) {
                marked[v] = true;
            }
        }
        // Drop unmarked nodes.
        for (v, &kept) in marked.iter().enumerate() {
            if self.contains(v) && !kept {
                self.depth[v] = None;
                self.parent[v] = None;
                self.children[v].clear();
            }
        }
        for v in 0..n {
            self.children[v].retain(|&c| marked[c]);
        }
    }

    /// Maximum number of children over nodes in the tree.
    pub fn max_children(&self) -> usize {
        self.children.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Number of nodes of the underlying graph (not all of which need be in
    /// the tree after pruning).
    pub fn num_graph_nodes(&self) -> usize {
        self.num_graph_nodes
    }
}

/// A logical node of a [`TerminalTree`]: either a real graph node or the
/// virtual relay copy `u'_i` of a terminal that was not a leaf.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TreeNode {
    /// The physical graph node that simulates this logical node.
    pub physical: usize,
    /// Whether this is a virtual relay copy inserted by the construction.
    pub is_virtual: bool,
}

/// The tree constructed in Section 3.3 of the paper: rooted at the most
/// central terminal, all terminals appear as leaves, depth at most `r + 1`.
///
/// Logical nodes are indexed `0..num_nodes()`; each maps to a physical graph
/// node via [`TerminalTree::node`]. A physical node may simulate up to two
/// logical nodes (a non-leaf terminal and its virtual relay copy), which by
/// the paper's argument does not affect completeness or soundness.
#[derive(Clone, Debug)]
pub struct TerminalTree {
    nodes: Vec<TreeNode>,
    parent: Vec<Option<usize>>,
    children: Vec<Vec<usize>>,
    depth: Vec<usize>,
    root: usize,
    /// terminal_leaf[i] = logical index of the leaf holding terminal i's input.
    terminal_leaves: Vec<usize>,
}

impl TerminalTree {
    /// Builds the terminal tree for the given terminals following §3.3:
    ///
    /// 1. pick the most central terminal `u_1` as root,
    /// 2. take the BFS tree from `u_1`,
    /// 3. truncate below terminals that have no terminal descendants,
    /// 4. give every non-leaf terminal a virtual relay copy so that all
    ///    terminals become leaves.
    ///
    /// # Panics
    ///
    /// Panics if there are fewer than 2 terminals, if terminals repeat, or if
    /// the graph is disconnected.
    pub fn build(graph: &Graph, terminals: &[usize]) -> Self {
        Self::build_inner(graph, terminals, None)
    }

    /// As [`TerminalTree::build`], but with the underlying BFS tree drawn by
    /// [`SpanningTree::bfs_seeded`]: the root choice and every depth bound
    /// are unchanged, while the announced shortest-path tree varies with
    /// `seed`. Used by the churn runtime to re-randomise the §3.3 tree
    /// mid-workload.
    pub fn build_seeded(graph: &Graph, terminals: &[usize], seed: u64) -> Self {
        Self::build_inner(graph, terminals, Some(seed))
    }

    fn build_inner(graph: &Graph, terminals: &[usize], seed: Option<u64>) -> Self {
        assert!(terminals.len() >= 2, "need at least two terminals");
        for (i, &t) in terminals.iter().enumerate() {
            assert!(t < graph.num_nodes(), "terminal {t} out of range");
            assert!(!terminals[(i + 1)..].contains(&t), "duplicate terminal {t}");
        }
        let root_terminal = graph.most_central_of(terminals);
        let mut bfs = match seed {
            Some(s) => SpanningTree::bfs_seeded(graph, root_terminal, s),
            None => SpanningTree::bfs(graph, root_terminal),
        };
        // Keep only ancestors of terminals.
        let term_set: Vec<bool> = {
            let mut s = vec![false; graph.num_nodes()];
            for &t in terminals {
                s[t] = true;
            }
            s
        };
        bfs.prune_to_ancestors_of(|v| term_set[v]);

        // Convert to logical nodes, inserting virtual relay copies for
        // non-leaf terminals (including the root terminal).
        let mut nodes: Vec<TreeNode> = Vec::new();
        let mut parent: Vec<Option<usize>> = Vec::new();
        let mut children: Vec<Vec<usize>> = Vec::new();
        let mut depth: Vec<usize> = Vec::new();
        let mut logical_of_physical: Vec<Option<usize>> = vec![None; graph.num_nodes()];

        // First pass: create one logical node per kept physical node, in BFS order
        // (parents before children).
        let mut order: Vec<usize> = bfs.nodes();
        order.sort_by_key(|&v| bfs.depth(v));
        for &v in &order {
            let idx = nodes.len();
            logical_of_physical[v] = Some(idx);
            nodes.push(TreeNode {
                physical: v,
                is_virtual: false,
            });
            depth.push(bfs.depth(v).expect("kept node has depth"));
            parent.push(
                bfs.parent(v)
                    .map(|p| logical_of_physical[p].expect("parent precedes child")),
            );
            children.push(Vec::new());
        }
        for (idx, maybe_parent) in parent.iter().enumerate() {
            if let Some(p) = *maybe_parent {
                children[p].push(idx);
            }
        }

        // Second pass: for every terminal that is not a leaf of the pruned tree,
        // swap roles: the existing logical node becomes the virtual relay copy
        // u'_i (it keeps the tree position), and a fresh leaf logical node is
        // attached below it to hold the terminal's input.
        let mut terminal_leaves = vec![usize::MAX; terminals.len()];
        for (i, &t) in terminals.iter().enumerate() {
            let idx = logical_of_physical[t].expect("terminal kept in pruned tree");
            let is_leaf_here = children[idx].is_empty() && parent[idx].is_some();
            if is_leaf_here {
                terminal_leaves[i] = idx;
            } else {
                // idx becomes the virtual relay u'_i; attach the true terminal leaf.
                nodes[idx].is_virtual = true;
                let leaf = nodes.len();
                nodes.push(TreeNode {
                    physical: t,
                    is_virtual: false,
                });
                depth.push(depth[idx] + 1);
                parent.push(Some(idx));
                children.push(Vec::new());
                children[idx].push(leaf);
                terminal_leaves[i] = leaf;
            }
        }

        let root = logical_of_physical[root_terminal].expect("root kept");
        TerminalTree {
            nodes,
            parent,
            children,
            depth,
            root,
            terminal_leaves,
        }
    }

    /// Number of logical nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The logical node descriptor.
    pub fn node(&self, idx: usize) -> TreeNode {
        self.nodes[idx]
    }

    /// The logical root index.
    pub fn root(&self) -> usize {
        self.root
    }

    /// Parent of a logical node.
    pub fn parent(&self, idx: usize) -> Option<usize> {
        self.parent[idx]
    }

    /// Children of a logical node.
    pub fn children(&self, idx: usize) -> &[usize] {
        &self.children[idx]
    }

    /// Depth of a logical node (root has depth 0).
    pub fn depth(&self, idx: usize) -> usize {
        self.depth[idx]
    }

    /// Maximum depth of the tree.
    pub fn max_depth(&self) -> usize {
        self.depth.iter().copied().max().unwrap_or(0)
    }

    /// Maximum number of children of any logical node.
    pub fn max_children(&self) -> usize {
        self.children.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// The logical leaf holding terminal `i`'s input.
    pub fn terminal_leaf(&self, i: usize) -> usize {
        self.terminal_leaves[i]
    }

    /// Number of terminals.
    pub fn num_terminals(&self) -> usize {
        self.terminal_leaves.len()
    }

    /// The logical leaves holding the terminals' inputs, in terminal order.
    pub fn terminal_leaves(&self) -> &[usize] {
        &self.terminal_leaves
    }

    /// Returns `true` if the logical node is a leaf.
    pub fn is_leaf(&self, idx: usize) -> bool {
        self.children[idx].is_empty() && idx != self.root
    }

    /// The logical nodes in post-order (every node after all of its
    /// descendants) — the order in which a bottom-up protocol sweep can run
    /// each node's permutation test after all of its children have forwarded
    /// their registers.
    pub fn post_order(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.nodes.len());
        // Iterative DFS with an explicit visited flag per stack entry.
        let mut stack = vec![(self.root, false)];
        while let Some((v, expanded)) = stack.pop() {
            if expanded {
                out.push(v);
            } else {
                stack.push((v, true));
                for &c in &self.children[v] {
                    stack.push((c, false));
                }
            }
        }
        out
    }
}

/// The per-node label of the Lemma 18 proof-labelling scheme for a spanning
/// tree: each node is told the root identifier, its distance to the root and
/// its parent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TreeLabel {
    /// Claimed identifier of the tree root.
    pub root_id: usize,
    /// Claimed distance from this node to the root.
    pub dist: usize,
    /// Claimed parent of this node (`None` for the root).
    pub parent: Option<usize>,
}

/// The honest Lemma 18 proof for a full BFS spanning tree: one label per node.
pub fn tree_proof(tree: &SpanningTree) -> Vec<TreeLabel> {
    (0..tree.num_graph_nodes())
        .map(|v| TreeLabel {
            root_id: tree.root(),
            dist: tree.depth(v).unwrap_or(usize::MAX),
            parent: tree.parent(v),
        })
        .collect()
}

/// Size in bits of one [`TreeLabel`] for a graph on `n` nodes: `O(log n)`.
pub fn tree_label_bits(n: usize) -> usize {
    let log = (usize::BITS - n.next_power_of_two().leading_zeros()) as usize;
    3 * log
}

/// Locally verifies a claimed spanning-tree labelling (Lemma 18): every node
/// checks its own label against its neighbours' labels. Returns the per-node
/// accept decisions; the labelling encodes a spanning tree rooted at the
/// common `root_id` if and only if every node accepts.
pub fn verify_tree_proof(graph: &Graph, labels: &[TreeLabel]) -> Vec<bool> {
    let n = graph.num_nodes();
    assert_eq!(labels.len(), n, "one label per node required");
    (0..n)
        .map(|v| {
            let l = labels[v];
            // Root id must be consistent with every neighbour.
            if graph
                .neighbors(v)
                .iter()
                .any(|&u| labels[u].root_id != l.root_id)
            {
                return false;
            }
            match l.parent {
                None => {
                    // Claims to be the root.
                    l.dist == 0 && l.root_id == v
                }
                Some(p) => {
                    // Parent must be an adjacent node one step closer to the root.
                    graph.has_edge(v, p) && l.dist == labels[p].dist + 1 && l.dist > 0
                }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology;

    #[test]
    fn bfs_tree_on_path() {
        let g = topology::path(4);
        let t = SpanningTree::bfs(&g, 0);
        assert_eq!(t.root(), 0);
        assert_eq!(t.depth(4), Some(4));
        assert_eq!(t.parent(3), Some(2));
        assert_eq!(t.children(2), &[3]);
        assert!(t.is_leaf(4));
        assert_eq!(t.max_depth(), 4);
    }

    #[test]
    fn bfs_tree_spans_connected_graph() {
        let g = topology::random_connected(20, 0.2, 5);
        let t = SpanningTree::bfs(&g, 3);
        assert_eq!(t.nodes().len(), 20);
        // Every non-root node has a parent that is adjacent in the graph.
        for v in t.nodes() {
            if v != 3 {
                let p = t.parent(v).expect("non-root has parent");
                assert!(g.has_edge(v, p));
                assert_eq!(t.depth(v), Some(t.depth(p).unwrap() + 1));
            }
        }
    }

    #[test]
    fn prune_keeps_only_ancestors_of_marked() {
        let g = topology::star(5);
        let mut t = SpanningTree::bfs(&g, 0);
        t.prune_to_ancestors_of(|v| v == 2 || v == 4);
        let mut kept = t.nodes();
        kept.sort();
        assert_eq!(kept, vec![0, 2, 4]);
    }

    #[test]
    fn terminal_tree_on_path_keeps_endpoints_as_leaves() {
        let g = topology::path(6);
        let tt = TerminalTree::build(&g, &[0, 6]);
        // The root is the most central terminal (an endpoint here, dist 6).
        let root_phys = tt.node(tt.root()).physical;
        assert!(root_phys == 0 || root_phys == 6);
        // Both terminals appear as leaves.
        for i in 0..2 {
            let leaf = tt.terminal_leaf(i);
            assert!(tt.is_leaf(leaf) || leaf == tt.root());
        }
        // Depth is at most r + 1 = 7.
        assert!(tt.max_depth() <= 7);
    }

    #[test]
    fn terminal_tree_on_spider_has_all_terminals_as_leaves() {
        let g = topology::spider(4, 3);
        let terminals: Vec<usize> = (0..4).map(|k| topology::spider_leaf(k, 3)).collect();
        let tt = TerminalTree::build(&g, &terminals);
        for (i, &t) in terminals.iter().enumerate() {
            let leaf = tt.terminal_leaf(i);
            assert!(tt.children(leaf).is_empty(), "terminal {i} must be a leaf");
            assert_eq!(tt.node(leaf).physical, t);
        }
        assert!(tt.max_depth() <= g.radius() + 1 + 3); // depth bounded by eccentricity of root terminal + 1
    }

    #[test]
    fn terminal_tree_with_internal_terminal_gets_virtual_copy() {
        // Path 0-1-2-3-4 with terminals 0, 2, 4: terminal 2 is internal.
        let g = topology::path(4);
        let tt = TerminalTree::build(&g, &[0, 2, 4]);
        // Terminal 2 is the most central, so it is the root; it must still own a leaf.
        let root = tt.root();
        assert_eq!(tt.node(root).physical, 2);
        assert!(
            tt.node(root).is_virtual,
            "root position is the virtual relay copy"
        );
        let leaf_idx = tt.terminal_leaf(1);
        assert_eq!(tt.node(leaf_idx).physical, 2);
        assert!(!tt.node(leaf_idx).is_virtual);
        assert!(tt.children(leaf_idx).is_empty());
        // Depth grew by at most 1 over the pruned BFS tree.
        assert!(tt.max_depth() <= g.radius() + 1 + 1);
    }

    #[test]
    fn terminal_tree_prunes_irrelevant_branches() {
        // A star with 6 leaves but only 2 terminals: other leaves are pruned.
        let g = topology::star(6);
        let tt = TerminalTree::build(&g, &[1, 2]);
        // Logical nodes: the two terminals plus possibly the centre and a virtual copy.
        assert!(tt.num_nodes() <= 4);
    }

    #[test]
    fn post_order_visits_children_before_parents() {
        let g = topology::spider(3, 2);
        let terminals: Vec<usize> = (0..3).map(|k| topology::spider_leaf(k, 2)).collect();
        let tt = TerminalTree::build(&g, &terminals);
        let order = tt.post_order();
        assert_eq!(
            order.len(),
            tt.num_nodes(),
            "post-order must visit every node once"
        );
        let position = |v: usize| order.iter().position(|&x| x == v).unwrap();
        for v in 0..tt.num_nodes() {
            for &c in tt.children(v) {
                assert!(
                    position(c) < position(v),
                    "child {c} must precede parent {v}"
                );
            }
        }
        assert_eq!(*order.last().unwrap(), tt.root());
    }

    #[test]
    fn honest_tree_proof_verifies() {
        let g = topology::random_connected(12, 0.3, 9);
        let t = SpanningTree::bfs(&g, 2);
        let labels = tree_proof(&t);
        let verdicts = verify_tree_proof(&g, &labels);
        assert!(
            verdicts.iter().all(|&b| b),
            "honest proof must be accepted everywhere"
        );
    }

    #[test]
    fn forged_tree_proof_is_rejected_somewhere() {
        let g = topology::path(5);
        let t = SpanningTree::bfs(&g, 0);
        let mut labels = tree_proof(&t);
        // Forge: claim node 3's parent is node 5 (not adjacent).
        labels[3].parent = Some(5);
        let verdicts = verify_tree_proof(&g, &labels);
        assert!(!verdicts[3]);
        // Forge: two different roots.
        let mut labels2 = tree_proof(&t);
        labels2[5] = TreeLabel {
            root_id: 5,
            dist: 0,
            parent: None,
        };
        let verdicts2 = verify_tree_proof(&g, &labels2);
        assert!(verdicts2.iter().any(|&b| !b));
    }

    #[test]
    fn cycle_proof_without_root_is_rejected() {
        // A labelling where everyone has a parent (no root) must be rejected:
        // distances cannot all decrease along a cycle.
        let g = topology::cycle(4);
        let labels = vec![
            TreeLabel {
                root_id: 0,
                dist: 1,
                parent: Some(1),
            },
            TreeLabel {
                root_id: 0,
                dist: 1,
                parent: Some(2),
            },
            TreeLabel {
                root_id: 0,
                dist: 1,
                parent: Some(3),
            },
            TreeLabel {
                root_id: 0,
                dist: 1,
                parent: Some(0),
            },
        ];
        let verdicts = verify_tree_proof(&g, &labels);
        assert!(verdicts.iter().any(|&b| !b));
    }

    #[test]
    fn tree_label_bits_grow_logarithmically() {
        assert!(tree_label_bits(1024) <= 3 * 11);
        assert!(tree_label_bits(16) < tree_label_bits(1 << 20));
    }
}
