//! Network model: point-to-point transfer costs and collective cost formulas.
//!
//! The model is LogGP-flavoured: a message costs a CPU overhead `o` on each
//! side, a wire latency `l`, and a serialization term `bytes / bandwidth`.
//! Two parameter sets exist — intra-node (shared memory) and inter-node
//! (interconnect) — chosen per message from the communicating ranks' node
//! placement. Collectives use standard tree/linear formulas on top.

/// One set of LogGP-ish link parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    /// One-way wire latency in seconds.
    pub latency: f64,
    /// Bandwidth in bytes/s.
    pub bandwidth: f64,
    /// Per-message CPU overhead (each side) in seconds.
    pub overhead: f64,
}

impl LinkModel {
    /// An idealized link with zero cost (ablation A2).
    pub const FREE: LinkModel = LinkModel {
        latency: 0.0,
        bandwidth: f64::INFINITY,
        overhead: 0.0,
    };

    /// End-to-end transfer time for a message of `bytes` (excluding any
    /// jitter, which the runtime adds separately).
    #[inline]
    pub fn transfer_secs(&self, bytes: usize) -> f64 {
        self.latency + bytes as f64 / self.bandwidth
    }
}

/// Full network model of a machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    /// Link used between ranks on the same node.
    pub intra_node: LinkModel,
    /// Link used between ranks on different nodes.
    pub inter_node: LinkModel,
}

impl NetworkModel {
    /// A network where all communication is free (ablation A2).
    pub const FREE: NetworkModel = NetworkModel {
        intra_node: LinkModel::FREE,
        inter_node: LinkModel::FREE,
    };

    /// The link connecting two ranks given their node ids.
    #[inline]
    pub fn link(&self, node_a: usize, node_b: usize) -> &LinkModel {
        if node_a == node_b {
            &self.intra_node
        } else {
            &self.inter_node
        }
    }

    /// The slower (inter-node) link if the set of nodes spans more than one
    /// node, else the intra-node link. Collectives on a communicator use
    /// this as their per-hop link.
    #[inline]
    pub fn span_link(&self, spans_nodes: bool) -> &LinkModel {
        if spans_nodes {
            &self.inter_node
        } else {
            &self.intra_node
        }
    }
}

/// Number of tree rounds for `p` participants: ceil(log2 p), 0 for p <= 1.
#[inline]
pub fn tree_rounds(p: usize) -> u32 {
    if p <= 1 {
        0
    } else {
        usize::BITS - (p - 1).leading_zeros()
    }
}

/// Cost formulas for the collectives the runtime implements. All return
/// seconds and assume the operation starts once every participant arrived;
/// the runtime handles the arrival synchronization itself.
#[derive(Debug, Clone, Copy)]
pub struct CollectiveCost<'a> {
    pub link: &'a LinkModel,
    /// Number of participants.
    pub p: usize,
}

impl CollectiveCost<'_> {
    /// The cost of collective `op`, the runtime's rendezvous label, when
    /// its members declared `total_bytes` together: the one table from a
    /// label to its formula. An unknown label panics rather than costing
    /// nothing.
    pub fn base_secs(&self, op: &str, total_bytes: u64) -> f64 {
        let total = total_bytes as usize;
        let p = self.p.max(1);
        match op {
            "barrier" | "split.exchange" | "split.create" => self.barrier(),
            "bcast" => self.bcast(total),
            // Reduce: the broadcast tree, reversed.
            "reduce" => self.bcast(total / p),
            // Gather: the scatter, reversed.
            "scatterv" | "gatherv" => self.scatter(total),
            "allgather" => self.allgather(total / p),
            "allreduce" => self.allreduce(total / p),
            _ => panic!("machine: no cost formula for collective '{op}'"),
        }
    }

    fn hop(&self, bytes: usize) -> f64 {
        2.0 * self.link.overhead + self.link.transfer_secs(bytes)
    }

    /// Dissemination barrier: ceil(log2 p) rounds of empty messages.
    pub fn barrier(&self) -> f64 {
        tree_rounds(self.p) as f64 * self.hop(0)
    }

    /// Binomial-tree broadcast of `bytes` per destination.
    pub fn bcast(&self, bytes: usize) -> f64 {
        tree_rounds(self.p) as f64 * self.hop(bytes)
    }

    /// Allreduce: reduce + broadcast.
    pub fn allreduce(&self, bytes: usize) -> f64 {
        2.0 * self.bcast(bytes)
    }

    /// Scatter of `total_bytes` from the root: the root serializes all data
    /// once (root-bound linear term) plus a tree latency component.
    pub fn scatter(&self, total_bytes: usize) -> f64 {
        tree_rounds(self.p) as f64 * self.hop(0) + self.link.transfer_secs(total_bytes)
            - self.link.latency
    }

    /// Allgather: ring — (p-1) rounds each moving `bytes_per_rank`.
    pub fn allgather(&self, bytes_per_rank: usize) -> f64 {
        if self.p <= 1 {
            return 0.0;
        }
        (self.p - 1) as f64 * self.hop(bytes_per_rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link() -> LinkModel {
        LinkModel {
            latency: 2e-6,
            bandwidth: 1e9,
            overhead: 5e-7,
        }
    }

    #[test]
    fn transfer_components() {
        let l = link();
        let t = l.transfer_secs(1_000_000);
        assert!((t - (2e-6 + 1e-3)).abs() < 1e-12);
        assert_eq!(LinkModel::FREE.transfer_secs(1 << 30), 0.0);
    }

    #[test]
    fn tree_rounds_values() {
        assert_eq!(tree_rounds(0), 0);
        assert_eq!(tree_rounds(1), 0);
        assert_eq!(tree_rounds(2), 1);
        assert_eq!(tree_rounds(3), 2);
        assert_eq!(tree_rounds(4), 2);
        assert_eq!(tree_rounds(5), 3);
        assert_eq!(tree_rounds(8), 3);
        assert_eq!(tree_rounds(9), 4);
        assert_eq!(tree_rounds(456), 9);
    }

    #[test]
    fn link_selection() {
        let net = NetworkModel {
            intra_node: LinkModel::FREE,
            inter_node: link(),
        };
        assert_eq!(net.link(3, 3), &LinkModel::FREE);
        assert_eq!(net.link(3, 4), &link());
        assert_eq!(net.span_link(false), &LinkModel::FREE);
        assert_eq!(net.span_link(true), &link());
    }

    #[test]
    fn barrier_grows_logarithmically() {
        let l = link();
        let c2 = CollectiveCost { link: &l, p: 2 }.barrier();
        let c4 = CollectiveCost { link: &l, p: 4 }.barrier();
        let c256 = CollectiveCost { link: &l, p: 256 }.barrier();
        assert!((c4 / c2 - 2.0).abs() < 1e-9);
        assert!((c256 / c2 - 8.0).abs() < 1e-9);
    }

    #[test]
    fn single_rank_collectives_are_free() {
        let l = link();
        let c = CollectiveCost { link: &l, p: 1 };
        assert_eq!(c.barrier(), 0.0);
        assert_eq!(c.bcast(1_000_000), 0.0);
        assert_eq!(c.allgather(100), 0.0);
    }

    #[test]
    fn scatter_dominated_by_root_serialization() {
        let l = link();
        let c = CollectiveCost { link: &l, p: 64 };
        let t = c.scatter(500_000_000); // 0.5 GB at 1 GB/s -> ~0.5 s
        assert!(t > 0.5 && t < 0.51, "{t}");
    }

    #[test]
    fn base_secs_normalises_the_byte_total_per_operation() {
        let l = link();
        let c = CollectiveCost { link: &l, p: 4 };
        assert_eq!(c.base_secs("split.create", 1 << 20), c.barrier());
        assert_eq!(c.base_secs("gatherv", 4096), c.scatter(4096));
        assert_eq!(c.base_secs("reduce", 4096), c.bcast(1024));
        assert_eq!(c.base_secs("allreduce", 4096), c.allreduce(1024));
    }

    #[test]
    #[should_panic(expected = "no cost formula for collective 'alreduce'")]
    fn a_misspelt_collective_is_not_free() {
        let l = link();
        CollectiveCost { link: &l, p: 4 }.base_secs("alreduce", 8);
    }

    #[test]
    fn allreduce_is_twice_bcast() {
        let l = link();
        let c = CollectiveCost { link: &l, p: 16 };
        assert!((c.allreduce(4096) - 2.0 * c.bcast(4096)).abs() < 1e-15);
    }
}
