//! Rooted trees (the topology of diffusing computations).

use rand::Rng;

/// A finite rooted tree over nodes `0..n`, node `0` being the root.
///
/// Stored as a parent vector: `parent[j]` is the parent of `j`, with
/// `parent[0] == 0` (the paper's convention `P.j = j` for the root).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tree {
    parent: Vec<usize>,
}

/// Why a parent vector is not a rooted tree ([`Tree::from_parents`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// The vector is empty: a tree has at least its root.
    Empty,
    /// Node `0` is not its own parent, so it is not the root.
    RootHasParent {
        /// The parent the vector gives node `0`.
        parent: usize,
    },
    /// Some node's parent is not a node of the tree.
    ParentOutOfRange {
        /// The node.
        node: usize,
        /// Its out-of-range parent.
        parent: usize,
    },
    /// Some node never reaches the root: the parents form a cycle.
    Cycle {
        /// The lowest node whose parent chain misses the root.
        node: usize,
    },
}

impl std::fmt::Display for TreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TreeError::Empty => f.write_str("a tree has at least its root"),
            TreeError::RootHasParent { parent } => {
                write!(
                    f,
                    "node 0 must be the root (its own parent), not a child of {parent}"
                )
            }
            TreeError::ParentOutOfRange { node, parent } => {
                write!(f, "parent {parent} of node {node} is out of range")
            }
            TreeError::Cycle { node } => {
                write!(f, "parent vector contains a cycle (at {node})")
            }
        }
    }
}

impl std::error::Error for TreeError {}

impl Tree {
    /// Build a tree from a parent vector.
    ///
    /// # Errors
    ///
    /// A [`TreeError`] if the vector is empty, `parent[0] != 0`, some
    /// parent index is out of range, or the structure has a cycle (i.e.
    /// is not a tree).
    pub fn from_parents(parent: Vec<usize>) -> Result<Self, TreeError> {
        let Some(&root_parent) = parent.first() else {
            return Err(TreeError::Empty);
        };
        if root_parent != 0 {
            return Err(TreeError::RootHasParent {
                parent: root_parent,
            });
        }
        let n = parent.len();
        if let Some((node, &p)) = parent.iter().enumerate().find(|&(_, &p)| p >= n) {
            return Err(TreeError::ParentOutOfRange { node, parent: p });
        }
        // Every node must reach the root in < n hops.
        for start in 0..n {
            let mut j = start;
            for _ in 0..n {
                if j == 0 {
                    break;
                }
                j = parent[j];
            }
            if j != 0 {
                return Err(TreeError::Cycle { node: start });
            }
        }
        Ok(Tree { parent })
    }

    /// A chain `0 - 1 - … - (n-1)` rooted at `0`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn chain(n: usize) -> Self {
        assert!(n > 0);
        Tree {
            parent: (0..n).map(|j| j.saturating_sub(1)).collect(),
        }
    }

    /// A star: the root `0` with `n - 1` leaves.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn star(n: usize) -> Self {
        assert!(n > 0);
        Tree { parent: vec![0; n] }
    }

    /// A balanced binary tree with `n` nodes in heap layout
    /// (`parent[j] = (j-1)/2`).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn binary(n: usize) -> Self {
        assert!(n > 0);
        Tree {
            parent: (0..n)
                .map(|j| if j == 0 { 0 } else { (j - 1) / 2 })
                .collect(),
        }
    }

    /// A uniformly random recursive tree: node `j`'s parent is drawn from
    /// `0..j`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn random<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Self {
        assert!(n > 0);
        Tree {
            parent: (0..n)
                .map(|j| if j == 0 { 0 } else { rng.gen_range(0..j) })
                .collect(),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the tree is just the root.
    pub fn is_empty(&self) -> bool {
        false // a Tree always has at least the root
    }

    /// The parent of `j` (the root is its own parent).
    pub fn parent(&self, j: usize) -> usize {
        self.parent[j]
    }

    /// The children of `j`, in increasing order.
    pub fn children(&self, j: usize) -> Vec<usize> {
        (1..self.parent.len())
            .filter(|&k| self.parent[k] == j)
            .collect()
    }

    /// Whether `j` has no children.
    pub fn is_leaf(&self, j: usize) -> bool {
        (1..self.parent.len()).all(|k| self.parent[k] != j)
    }

    /// Depth of node `j` (root has depth 0).
    pub fn depth(&self, j: usize) -> usize {
        let mut d = 0;
        let mut j = j;
        while j != 0 {
            j = self.parent[j];
            d += 1;
        }
        d
    }

    /// The height of the tree (maximum depth).
    pub fn height(&self) -> usize {
        (0..self.len()).map(|j| self.depth(j)).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn chain_shape() {
        let t = Tree::chain(4);
        assert_eq!(t.len(), 4);
        assert_eq!(t.parent(0), 0);
        assert_eq!(t.parent(3), 2);
        assert_eq!(t.children(1), vec![2]);
        assert!(t.is_leaf(3) && !t.is_leaf(0));
        assert_eq!(t.height(), 3);
        assert_eq!(t.depth(3), 3);
    }

    #[test]
    fn star_shape() {
        let t = Tree::star(5);
        assert_eq!(t.children(0), vec![1, 2, 3, 4]);
        assert_eq!(t.height(), 1);
        for j in 1..5 {
            assert!(t.is_leaf(j));
        }
    }

    #[test]
    fn binary_shape() {
        let t = Tree::binary(7);
        assert_eq!(t.children(0), vec![1, 2]);
        assert_eq!(t.children(1), vec![3, 4]);
        assert_eq!(t.children(2), vec![5, 6]);
        assert_eq!(t.height(), 2);
    }

    #[test]
    fn random_trees_are_valid() {
        let mut rng = StdRng::seed_from_u64(1);
        for n in 1..20 {
            let t = Tree::random(n, &mut rng);
            assert_eq!(t.len(), n);
            // from_parents validates; rebuild to exercise the validator.
            let rebuilt = Tree::from_parents((0..n).map(|j| t.parent(j)).collect());
            assert_eq!(rebuilt, Ok(t));
        }
    }

    #[test]
    fn singleton_tree() {
        let t = Tree::chain(1);
        assert_eq!(t.len(), 1);
        assert!(t.is_leaf(0));
        assert_eq!(t.height(), 0);
        assert!(!t.is_empty());
    }

    #[test]
    fn empty_parents_rejected() {
        assert_eq!(Tree::from_parents(vec![]), Err(TreeError::Empty));
    }

    #[test]
    fn non_root_zero_rejected() {
        assert_eq!(
            Tree::from_parents(vec![1, 0]),
            Err(TreeError::RootHasParent { parent: 1 })
        );
    }

    #[test]
    fn out_of_range_parent_rejected() {
        assert_eq!(
            Tree::from_parents(vec![0, 0, 3]),
            Err(TreeError::ParentOutOfRange { node: 2, parent: 3 })
        );
    }

    #[test]
    fn cyclic_parents_rejected() {
        let err = Tree::from_parents(vec![0, 2, 1]).unwrap_err();
        assert_eq!(err, TreeError::Cycle { node: 1 });
        assert!(err.to_string().contains("cycle"));
    }
}
