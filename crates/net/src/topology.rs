//! Network topologies built from fixed-radix switches.
//!
//! A topology's only job in the LogGOPS model is to answer "how many
//! switches does the route from `a` to `b` cross?", from which the latency
//! `L` follows. Three families are supported:
//!
//! * **Fat tree** (§4.2: "We construct a fat tree network from 36-port
//!   switches") — the classic folded-Clos construction:
//!   * up to `k` nodes: a single switch (1 switch on every route);
//!   * up to `k²/2` nodes: two-level leaf–spine, `k/2` nodes per leaf
//!     (1 switch within a leaf, 3 across);
//!   * up to `k³/4` nodes: three-level fat tree with pods of `k/2` leaves
//!     (1 / 3 / 5 switches for same-leaf / same-pod / cross-pod routes).
//! * **Dragonfly** — groups of routers with all-to-all local links and
//!   all-to-all global links between groups. Minimal routing crosses
//!   1 switch on the same router, 2 within a group, and 4 across groups
//!   (source router, source-side gateway, destination-side gateway,
//!   destination router).
//! * **Torus** — a k-ary n-cube with one router per node; a minimal route
//!   crosses `manhattan-with-wraparound distance + 1` routers.
//!
//! Node ids map onto the structure densely: fat-tree leaves, dragonfly
//! routers, and torus coordinates are all filled in id order (dimension 0
//! fastest for the torus).

use serde::{Deserialize, Serialize};

/// Index of a network endpoint (one NIC+host pair).
pub type NodeId = u32;

/// A topology instance: endpoint count plus the routing structure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Topology {
    nodes: u32,
    kind: Kind,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Kind {
    FatTree {
        ports: u32,
        levels: u32,
    },
    Dragonfly {
        groups: u32,
        routers_per_group: u32,
        nodes_per_router: u32,
    },
    Torus {
        dims: Vec<u32>,
    },
}

/// Declarative description of a topology, as a scenario file states it.
/// [`TopologySpec::build`] turns it into a [`Topology`]; the node count is
/// implied (fat tree states it, dragonfly and torus derive it from their
/// dimensions).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TopologySpec {
    /// Smallest fat tree of `ports`-radix switches connecting `nodes`.
    FatTree { nodes: u32, ports: u32 },
    /// `groups × routers_per_group × nodes_per_router` dragonfly.
    Dragonfly {
        groups: u32,
        routers_per_group: u32,
        nodes_per_router: u32,
    },
    /// k-ary n-cube with `dims[i]` routers along dimension `i`.
    Torus { dims: Vec<u32> },
}

impl TopologySpec {
    /// Endpoint count this spec produces.
    pub fn nodes(&self) -> u32 {
        match self {
            TopologySpec::FatTree { nodes, .. } => *nodes,
            TopologySpec::Dragonfly {
                groups,
                routers_per_group,
                nodes_per_router,
            } => groups * routers_per_group * nodes_per_router,
            TopologySpec::Torus { dims } => dims.iter().product(),
        }
    }

    /// Instantiate the topology (panics on invalid dimensions, like the
    /// underlying constructors).
    pub fn build(&self) -> Topology {
        match self {
            TopologySpec::FatTree { nodes, ports } => Topology::fat_tree(*nodes, *ports),
            TopologySpec::Dragonfly {
                groups,
                routers_per_group,
                nodes_per_router,
            } => Topology::dragonfly(*groups, *routers_per_group, *nodes_per_router),
            TopologySpec::Torus { dims } => Topology::torus(dims.clone()),
        }
    }
}

/// Which routing family a [`Topology`] instance belongs to — the public
/// face of the private `Kind` discriminant, for callers (like the fault
/// compiler) that must branch on structure without reaching inside.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Folded-Clos fat tree: leaf switches plus (at 2+ levels) an upper
    /// spine/core tier with path diversity.
    FatTree,
    /// Dragonfly: every switch is a router with directly attached nodes.
    Dragonfly,
    /// Torus: one router per node.
    Torus,
}

impl Topology {
    /// Build the smallest fat tree of `ports`-radix switches that connects
    /// `nodes` endpoints.
    ///
    /// # Panics
    /// Panics where [`Topology::try_fat_tree`] returns an error.
    pub fn fat_tree(nodes: u32, ports: u32) -> Self {
        Self::try_fat_tree(nodes, ports).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Topology::fat_tree`], returning an error that names the problem
    /// if the radix is below 2, `nodes` is zero, or `nodes` exceeds the
    /// 3-level capacity `k³/4`.
    pub fn try_fat_tree(nodes: u32, ports: u32) -> Result<Self, String> {
        if ports < 2 {
            return Err(format!(
                "a fat tree needs switches of at least 2 ports, got {ports}"
            ));
        }
        if nodes < 1 {
            return Err("a fat tree needs at least one node".into());
        }
        let k = ports as u64;
        let levels = if nodes as u64 <= k {
            1
        } else if nodes as u64 <= k * k / 2 {
            2
        } else if nodes as u64 <= k * k * k / 4 {
            3
        } else {
            return Err(format!(
                "{} nodes exceed the 3-level fat-tree capacity of {} with {}-port switches",
                nodes,
                k * k * k / 4,
                ports
            ));
        };
        Ok(Topology {
            nodes,
            kind: Kind::FatTree { ports, levels },
        })
    }

    /// Build a dragonfly of `groups` groups, each holding
    /// `routers_per_group` routers with `nodes_per_router` endpoints; the
    /// endpoint count is exactly the product.
    ///
    /// # Panics
    /// Panics if any dimension is zero.
    pub fn dragonfly(groups: u32, routers_per_group: u32, nodes_per_router: u32) -> Self {
        assert!(
            groups >= 1 && routers_per_group >= 1 && nodes_per_router >= 1,
            "dragonfly dimensions must all be at least 1"
        );
        let nodes = groups
            .checked_mul(routers_per_group)
            .and_then(|n| n.checked_mul(nodes_per_router))
            .expect("dragonfly size overflows u32");
        Topology {
            nodes,
            kind: Kind::Dragonfly {
                groups,
                routers_per_group,
                nodes_per_router,
            },
        }
    }

    /// Build a torus (k-ary n-cube) with `dims[i]` routers along dimension
    /// `i` and one endpoint per router; ids map to coordinates with
    /// dimension 0 varying fastest.
    ///
    /// # Panics
    /// Panics on an empty dimension list or a zero-sized dimension.
    pub fn torus(dims: Vec<u32>) -> Self {
        assert!(!dims.is_empty(), "torus needs at least one dimension");
        assert!(
            dims.iter().all(|&d| d >= 1),
            "torus dimensions must all be at least 1"
        );
        let nodes = dims
            .iter()
            .try_fold(1u32, |acc, &d| acc.checked_mul(d))
            .expect("torus size overflows u32");
        Topology {
            nodes,
            kind: Kind::Torus { dims },
        }
    }

    /// Number of endpoints.
    pub fn nodes(&self) -> u32 {
        self.nodes
    }

    /// The routing family this instance belongs to.
    pub fn family(&self) -> Family {
        match &self.kind {
            Kind::FatTree { .. } => Family::FatTree,
            Kind::Dragonfly { .. } => Family::Dragonfly,
            Kind::Torus { .. } => Family::Torus,
        }
    }

    /// Number of tree levels (1, 2, or 3). Fat tree only.
    pub fn levels(&self) -> u32 {
        match &self.kind {
            Kind::FatTree { levels, .. } => *levels,
            other => panic!("levels() is fat-tree-specific, topology is {other:?}"),
        }
    }

    /// Endpoints attached to each leaf switch (`k` for 1 level, `k/2`
    /// above). Fat tree only.
    pub fn nodes_per_leaf(&self) -> u32 {
        match &self.kind {
            Kind::FatTree { ports, levels } => {
                if *levels == 1 {
                    *ports
                } else {
                    *ports / 2
                }
            }
            other => panic!("nodes_per_leaf() is fat-tree-specific, topology is {other:?}"),
        }
    }

    /// Endpoints per pod (only meaningful at 3 levels: `(k/2)²`). Fat tree
    /// only.
    pub fn nodes_per_pod(&self) -> u32 {
        match &self.kind {
            Kind::FatTree { ports, levels } => match levels {
                1 => self.nodes,
                2 => self.nodes, // a 2-level tree is a single "pod"
                _ => (*ports / 2) * (*ports / 2),
            },
            other => panic!("nodes_per_pod() is fat-tree-specific, topology is {other:?}"),
        }
    }

    /// Number of switches the route from `a` to `b` traverses.
    /// Self-routes cross zero switches (NIC-local loopback).
    pub fn route_switches(&self, a: NodeId, b: NodeId) -> u32 {
        assert!(a < self.nodes && b < self.nodes, "node id out of range");
        if a == b {
            return 0;
        }
        match &self.kind {
            Kind::FatTree { levels, .. } => {
                let leaf_a = a / self.nodes_per_leaf();
                let leaf_b = b / self.nodes_per_leaf();
                if leaf_a == leaf_b {
                    return 1;
                }
                if *levels == 2 {
                    return 3;
                }
                let pod_a = a / self.nodes_per_pod();
                let pod_b = b / self.nodes_per_pod();
                if pod_a == pod_b {
                    3
                } else {
                    5
                }
            }
            Kind::Dragonfly {
                routers_per_group,
                nodes_per_router,
                ..
            } => {
                let router_a = a / nodes_per_router;
                let router_b = b / nodes_per_router;
                if router_a == router_b {
                    return 1;
                }
                if router_a / routers_per_group == router_b / routers_per_group {
                    2
                } else {
                    4
                }
            }
            Kind::Torus { dims } => {
                let mut dist = 0u32;
                let (mut ra, mut rb) = (a, b);
                for &d in dims {
                    let (ca, cb) = (ra % d, rb % d);
                    let gap = ca.abs_diff(cb);
                    dist += gap.min(d - gap);
                    ra /= d;
                    rb /= d;
                }
                dist + 1
            }
        }
    }

    /// The fewest switches any route between two *distinct* endpoints
    /// crosses — the closest pair in the fabric. Combined with the latency
    /// model this bounds how early any packet can arrive anywhere, which
    /// is the conservative-parallel engine's lookahead.
    ///
    /// # Panics
    /// Panics on a single-node topology (no distinct pair exists).
    pub fn min_route_switches(&self) -> u32 {
        assert!(
            self.nodes >= 2,
            "no distinct node pair in a {}-node topology",
            self.nodes
        );
        match &self.kind {
            Kind::FatTree { levels, .. } => {
                if self.nodes_per_leaf() >= 2 {
                    1
                } else if *levels == 2 || self.nodes_per_pod() >= 2 {
                    3
                } else {
                    5
                }
            }
            Kind::Dragonfly {
                routers_per_group,
                nodes_per_router,
                ..
            } => {
                // Every router is fully populated (the constructor sizes
                // the node count as the exact product), so the closest
                // pair shares a router iff routers hold more than one
                // node, and a group iff groups hold more than one router.
                if *nodes_per_router >= 2 {
                    1
                } else if *routers_per_group >= 2 {
                    2
                } else {
                    4
                }
            }
            // Any fabric with >= 2 nodes has a pair adjacent along some
            // dimension: distance 1, two routers.
            Kind::Torus { .. } => 2,
        }
    }

    /// The fewest switches any route between a node in `a` and a *distinct*
    /// node in `b` crosses — the pairwise analogue of
    /// [`Topology::min_route_switches`], used by the sharded engine to
    /// derive a per-shard-pair lookahead from the closest inter-range
    /// route (ranges are the shards' contiguous rank spans).
    ///
    /// Exhaustive over the cross product while it stays small; above
    /// ~a million pairs it falls back to the global closest-pair bound,
    /// which can only *under*-estimate the pairwise distance — a smaller
    /// lookahead is always conservative, never wrong.
    ///
    /// # Panics
    /// Panics if either range is empty, out of bounds, or the only
    /// candidate pair is a node with itself.
    pub fn min_route_switches_between(
        &self,
        a: std::ops::Range<NodeId>,
        b: std::ops::Range<NodeId>,
    ) -> u32 {
        assert!(!a.is_empty() && !b.is_empty(), "empty shard range");
        assert!(
            a.end <= self.nodes && b.end <= self.nodes,
            "shard range out of bounds"
        );
        assert!(
            a.clone().any(|x| b.clone().any(|y| y != x)),
            "no distinct node pair between {a:?} and {b:?}"
        );
        let pairs = (a.len() as u64) * (b.len() as u64);
        if pairs > 1 << 20 {
            return self.min_route_switches();
        }
        a.flat_map(|x| b.clone().filter(move |&y| y != x).map(move |y| (x, y)))
            .map(|(x, y)| self.route_switches(x, y))
            .min()
            .expect("distinct pair checked above")
    }

    /// Total number of switches in the fabric (for reporting).
    pub fn switch_count(&self) -> u32 {
        match &self.kind {
            Kind::FatTree { ports, levels } => {
                let k = *ports;
                match levels {
                    1 => 1,
                    2 => {
                        let leaves = self.nodes.div_ceil(k / 2);
                        leaves + leaves.div_ceil(2).max(1)
                    }
                    _ => {
                        let pods = self.nodes.div_ceil(self.nodes_per_pod());
                        pods * k + (k / 2) * (k / 2)
                    }
                }
            }
            Kind::Dragonfly {
                groups,
                routers_per_group,
                ..
            } => groups * routers_per_group,
            Kind::Torus { .. } => self.nodes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_switch_up_to_radix() {
        let t = Topology::fat_tree(36, 36);
        assert_eq!(t.levels(), 1);
        assert_eq!(t.route_switches(0, 35), 1);
        assert_eq!(t.route_switches(5, 5), 0);
    }

    #[test]
    fn two_level_tree() {
        let t = Topology::fat_tree(64, 36);
        assert_eq!(t.levels(), 2);
        // 18 nodes per leaf.
        assert_eq!(t.nodes_per_leaf(), 18);
        assert_eq!(t.route_switches(0, 17), 1);
        assert_eq!(t.route_switches(0, 18), 3);
        assert_eq!(t.route_switches(20, 40), 3);
    }

    #[test]
    fn three_level_tree() {
        let t = Topology::fat_tree(1024, 36);
        assert_eq!(t.levels(), 3);
        assert_eq!(t.nodes_per_leaf(), 18);
        assert_eq!(t.nodes_per_pod(), 324);
        // Same leaf.
        assert_eq!(t.route_switches(0, 17), 1);
        // Same pod, different leaf.
        assert_eq!(t.route_switches(0, 100), 3);
        // Different pod.
        assert_eq!(t.route_switches(0, 900), 5);
    }

    #[test]
    fn capacities() {
        // 2-level capacity with k=36 is 648; 649 forces 3 levels.
        assert_eq!(Topology::fat_tree(648, 36).levels(), 2);
        assert_eq!(Topology::fat_tree(649, 36).levels(), 3);
        // 3-level capacity is 11664.
        assert_eq!(Topology::fat_tree(11_664, 36).levels(), 3);
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn over_capacity_panics() {
        Topology::fat_tree(11_665, 36);
    }

    #[test]
    fn routes_are_symmetric() {
        let t = Topology::fat_tree(700, 36);
        for (a, b) in [(0u32, 1), (0, 30), (10, 400), (650, 20), (333, 334)] {
            assert_eq!(t.route_switches(a, b), t.route_switches(b, a));
        }
    }

    #[test]
    fn dragonfly_route_classes() {
        // 3 groups × 4 routers × 2 nodes = 24 endpoints.
        let t = Topology::dragonfly(3, 4, 2);
        assert_eq!(t.nodes(), 24);
        assert_eq!(t.switch_count(), 12);
        assert_eq!(t.route_switches(3, 3), 0);
        // Nodes 0 and 1 share router 0.
        assert_eq!(t.route_switches(0, 1), 1);
        // Nodes 0 and 2 are on routers 0 and 1, both in group 0.
        assert_eq!(t.route_switches(0, 2), 2);
        // Node 8 is on router 4, the first router of group 1.
        assert_eq!(t.route_switches(0, 8), 4);
        assert_eq!(t.min_route_switches(), 1);
    }

    #[test]
    fn torus_routes_are_wraparound_manhattan() {
        // 4 × 3 torus, id = x + 4*y.
        let t = Topology::torus(vec![4, 3]);
        assert_eq!(t.nodes(), 12);
        assert_eq!(t.switch_count(), 12);
        assert_eq!(t.route_switches(0, 0), 0);
        // (0,0) -> (1,0): one hop.
        assert_eq!(t.route_switches(0, 1), 2);
        // (0,0) -> (3,0): wraps to one hop.
        assert_eq!(t.route_switches(0, 3), 2);
        // (0,0) -> (2,0): two hops.
        assert_eq!(t.route_switches(0, 2), 3);
        // (0,0) -> (2,1): 2 + 1 hops.
        assert_eq!(t.route_switches(0, 6), 4);
        // (0,0) -> (0,2): wraps to one hop in y.
        assert_eq!(t.route_switches(0, 8), 2);
        assert_eq!(t.min_route_switches(), 2);
    }

    #[test]
    fn min_route_switches_matches_closest_pair() {
        // Exhaustively confirm against brute force on assorted shapes,
        // including degenerate radix-2 trees whose leaves hold one node,
        // skinny dragonflies, and 1-wide torus dimensions.
        let shapes: Vec<Topology> = vec![
            Topology::fat_tree(2, 36),
            Topology::fat_tree(36, 36),
            Topology::fat_tree(64, 36),
            Topology::fat_tree(1024, 36),
            Topology::fat_tree(12, 4),
            Topology::fat_tree(4, 3), // 2 levels, 1 node per leaf: closest pair crosses 3
            Topology::fat_tree(5, 3), // 3 levels, 1 node per leaf and pod: every route is 5
            Topology::dragonfly(3, 4, 2),
            Topology::dragonfly(4, 3, 1), // closest pair shares only a group
            Topology::dragonfly(5, 1, 1), // every distinct pair crosses groups
            Topology::dragonfly(1, 3, 2), // single group
            Topology::torus(vec![4, 3]),
            Topology::torus(vec![2]),
            Topology::torus(vec![1, 5]),
            Topology::torus(vec![3, 3, 3]),
        ];
        for t in shapes {
            let nodes = t.nodes();
            let brute = (0..nodes)
                .flat_map(|a| (0..nodes).filter(move |&b| b != a).map(move |b| (a, b)))
                .map(|(a, b)| t.route_switches(a, b))
                .min()
                .unwrap();
            assert_eq!(t.min_route_switches(), brute, "topology {t:?}");
        }
    }

    #[test]
    fn non_fat_tree_routes_are_symmetric() {
        for t in [Topology::dragonfly(3, 3, 2), Topology::torus(vec![4, 5])] {
            let n = t.nodes();
            for (a, b) in [(0u32, 1), (0, n - 1), (2, n / 2), (n / 3, n - 2)] {
                assert_eq!(t.route_switches(a, b), t.route_switches(b, a), "{t:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "no distinct node pair")]
    fn min_route_switches_rejects_single_node() {
        Topology::fat_tree(1, 36).min_route_switches();
    }

    #[test]
    fn min_route_switches_between_finds_closest_inter_range_route() {
        // 3-level radix-4 fat tree of 12: leaves of 2, pods of 4.
        let t = Topology::fat_tree(12, 4);
        // Ranges sharing a leaf pair up at 1 switch.
        assert_eq!(t.min_route_switches_between(0..2, 0..2), 1);
        // Adjacent ranges inside one pod: closest pair crosses leaves (3).
        assert_eq!(t.min_route_switches_between(0..2, 2..4), 3);
        // Ranges in different pods: every route crosses the core (5).
        assert_eq!(t.min_route_switches_between(0..4, 8..12), 5);
        // A wide range straddling pods still finds the 3-switch pair.
        assert_eq!(t.min_route_switches_between(0..2, 2..12), 3);
        // Overlapping ranges admit a same-leaf pair.
        assert_eq!(t.min_route_switches_between(0..12, 0..12), 1);

        let d = Topology::dragonfly(3, 4, 2);
        assert_eq!(d.min_route_switches_between(0..2, 0..2), 1);
        assert_eq!(d.min_route_switches_between(0..2, 2..8), 2);
        assert_eq!(d.min_route_switches_between(0..8, 8..24), 4);

        // Torus neighbours along dimension 0 (with wraparound).
        let r = Topology::torus(vec![4, 3]);
        assert_eq!(r.min_route_switches_between(0..1, 1..2), 2);
        assert_eq!(r.min_route_switches_between(0..1, 2..3), 3);

        // The pairwise bound can never undercut the global closest pair.
        for t in [
            Topology::fat_tree(12, 4),
            Topology::dragonfly(3, 4, 2),
            Topology::torus(vec![4, 3]),
        ] {
            let n = t.nodes();
            let g = t.min_route_switches();
            for (a, b) in [(0..n / 2, n / 2..n), (0..1, 1..n), (0..n, 0..n)] {
                assert!(t.min_route_switches_between(a, b) >= g, "{t:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "no distinct node pair")]
    fn min_route_switches_between_rejects_self_pair() {
        Topology::fat_tree(12, 4).min_route_switches_between(3..4, 3..4);
    }

    #[test]
    fn switch_count_sane() {
        assert_eq!(Topology::fat_tree(30, 36).switch_count(), 1);
        assert!(Topology::fat_tree(648, 36).switch_count() >= 36);
        assert!(Topology::fat_tree(1024, 36).switch_count() > 100);
    }

    #[test]
    fn spec_builds_each_family() {
        let spec = TopologySpec::FatTree {
            nodes: 12,
            ports: 4,
        };
        assert_eq!(spec.nodes(), 12);
        assert_eq!(spec.build(), Topology::fat_tree(12, 4));
        let spec = TopologySpec::Dragonfly {
            groups: 2,
            routers_per_group: 3,
            nodes_per_router: 4,
        };
        assert_eq!(spec.nodes(), 24);
        assert_eq!(spec.build(), Topology::dragonfly(2, 3, 4));
        let spec = TopologySpec::Torus { dims: vec![4, 4] };
        assert_eq!(spec.nodes(), 16);
        assert_eq!(spec.build(), Topology::torus(vec![4, 4]));
    }
}
