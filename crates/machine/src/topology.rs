//! Rank-to-node placement.
//!
//! The simulated cluster places MPI ranks onto nodes in contiguous blocks
//! (the common `--map-by core` layout): ranks `0..c-1` on node 0, `c..2c-1`
//! on node 1, and so on, where `c` is the number of rank slots per node.

/// Placement of ranks onto nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    /// Number of rank slots per node (cores per node for MPI-everywhere
    /// runs; fewer when each rank also hosts threads).
    pub ranks_per_node: usize,
}

impl Topology {
    /// All ranks on a single node (shared-memory machine).
    pub const SINGLE_NODE: Topology = Topology {
        ranks_per_node: usize::MAX,
    };

    /// Create a block placement with `ranks_per_node` slots per node.
    /// A value of 0 is treated as 1.
    pub fn block(ranks_per_node: usize) -> Topology {
        Topology {
            ranks_per_node: ranks_per_node.max(1),
        }
    }

    /// The node hosting `rank`.
    #[inline]
    pub fn node_of(&self, rank: usize) -> usize {
        rank / self.ranks_per_node.max(1)
    }

    /// Number of nodes used by `nranks` ranks.
    pub fn nodes_for(&self, nranks: usize) -> usize {
        if nranks == 0 {
            0
        } else {
            (nranks - 1) / self.ranks_per_node.max(1) + 1
        }
    }

    /// How many of `nranks` ranks block placement puts on `node`: a full
    /// `ranks_per_node`, fewer on the tail node, none beyond it.
    /// Saturating because [`Topology::SINGLE_NODE`] has `usize::MAX` slots.
    pub fn ranks_on_node(&self, node: usize, nranks: usize) -> usize {
        let rpn = self.ranks_per_node.max(1);
        let first = node.saturating_mul(rpn);
        let end = node.saturating_add(1).saturating_mul(rpn).min(nranks);
        end.saturating_sub(first)
    }

    /// True when two ranks share a node.
    #[inline]
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.node_of(a) == self.node_of(b)
    }

    /// True when the given world ranks span more than one node.
    pub fn spans_nodes(&self, ranks: &[usize]) -> bool {
        match ranks.first() {
            None => false,
            Some(&first) => {
                let n0 = self.node_of(first);
                ranks.iter().any(|&r| self.node_of(r) != n0)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_mapping() {
        let t = Topology::block(8);
        assert_eq!(t.node_of(0), 0);
        assert_eq!(t.node_of(7), 0);
        assert_eq!(t.node_of(8), 1);
        assert_eq!(t.node_of(63), 7);
        assert!(t.same_node(0, 7));
        assert!(!t.same_node(7, 8));
    }

    #[test]
    fn nodes_for_counts() {
        let t = Topology::block(8);
        assert_eq!(t.nodes_for(0), 0);
        assert_eq!(t.nodes_for(1), 1);
        assert_eq!(t.nodes_for(8), 1);
        assert_eq!(t.nodes_for(9), 2);
        assert_eq!(t.nodes_for(456), 57);
    }

    #[test]
    fn single_node_never_spans() {
        let t = Topology::SINGLE_NODE;
        let ranks: Vec<usize> = (0..1000).collect();
        assert!(!t.spans_nodes(&ranks));
        assert!(t.same_node(0, 999));
    }

    #[test]
    fn spans_detection() {
        let t = Topology::block(4);
        assert!(!t.spans_nodes(&[0, 1, 2, 3]));
        assert!(t.spans_nodes(&[0, 1, 2, 3, 4]));
        assert!(t.spans_nodes(&[3, 4]));
        assert!(!t.spans_nodes(&[]));
    }

    #[test]
    fn zero_is_clamped() {
        let t = Topology::block(0);
        assert_eq!(t.ranks_per_node, 1);
        assert_eq!(t.node_of(5), 5);
    }
}
