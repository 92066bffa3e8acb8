//! Network topologies: which graph the nodes are wired into.
//!
//! The paper states its bounds on the complete graph, but ROADMAP item
//! 3(a) asks for the topology × adversary matrix the related work hands
//! us directly — diameter-two graphs (Chatterjee–Pandurangan–Robinson,
//! "The Complexity of Leader Election: A Chasm at Diameter Two") and
//! bounded-degree general graphs (Kutten et al., "Sublinear Bounds for
//! Randomized Leader Election"). [`Topology`] makes the graph an explicit
//! part of [`crate::engine::SimConfig`]:
//!
//! * [`Topology::Complete`] — the paper's model, and the default. Runs
//!   are bit-identical to the pre-topology engine: the same per-node port
//!   permutations, the same RNG draws, the same record ids.
//! * [`Topology::DiameterTwo`] — a hub graph: nodes `0..clusters` are
//!   hubs adjacent to everyone; the rest are adjacent to exactly the
//!   hubs. Diameter 2 for every `clusters ≥ 1` (any two non-hubs meet at
//!   a hub), the canonical shape of the CPR chasm results.
//! * [`Topology::RandomRegular`] — a seeded random `d`-regular simple
//!   graph via the configuration (pairing) model with deterministic
//!   switch repair. Connected with high probability for `d ≥ 3`.
//! * [`Topology::Explicit`] — an arbitrary adjacency escape hatch for
//!   tests and hand-built scenarios.
//!
//! [`Topology::edge_set`] is the one place a run's graph is built. Its
//! [`EdgeSet`] is the graph every layer reads: each node's port map
//! permutes the node's row of it ([`crate::ports::PortMap::new`]), the
//! control core checks forged sends against it, and the socket runtime
//! (`ftc-mesh`) opens only the links some edge of it crosses. A driver
//! builds it once per run and wires every node from it (DESIGN D31).

use std::fmt;
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::engine::ConfigError;
use crate::ids::NodeId;
use crate::perm::stream_seed;
use crate::ports::Wiring;

/// Salt mixing the run's topology seed into the graph-generation stream
/// (only [`Topology::RandomRegular`] draws from it).
const SALT_GRAPH: u64 = 0x4752_4150; // "GRAP"

/// Per-node sorted neighbour lists; each port map of the run shares its
/// node's row.
type Adjacency = Vec<Arc<[u32]>>;

/// The graph an execution runs on.
///
/// Part of [`crate::engine::SimConfig`]; validated by
/// [`Topology::validate`] before anything runs. The default is
/// [`Topology::Complete`], which serializes to the pre-topology JSON
/// schema unchanged (the field is omitted entirely), so every committed
/// Complete-graph record keeps its content-addressed id.
#[derive(Clone, Debug, PartialEq, Default)]
pub enum Topology {
    /// The complete graph `K_n` — the paper's model.
    #[default]
    Complete,
    /// The hub graph: nodes `0..clusters` are adjacent to every node,
    /// every other node is adjacent to exactly the hubs. Diameter ≤ 2.
    DiameterTwo {
        /// Number of hub nodes, in `1..=n`. `clusters = n` degenerates
        /// to the complete graph.
        clusters: u32,
    },
    /// A seeded random `d`-regular simple graph (configuration model
    /// with switch repair). Requires `1 ≤ d ≤ n-1` and `n·d` even.
    RandomRegular {
        /// Uniform node degree.
        d: u32,
    },
    /// An explicit adjacency: one sorted, self-free, symmetric,
    /// non-empty neighbour list per node.
    Explicit {
        /// `adjacency[u]` = sorted neighbour ids of node `u`.
        adjacency: Arc<Vec<Vec<u32>>>,
    },
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Topology::Complete => write!(f, "complete"),
            Topology::DiameterTwo { clusters } => write!(f, "diam2x{clusters}"),
            Topology::RandomRegular { d } => write!(f, "rr{d}"),
            Topology::Explicit { adjacency } => write!(f, "explicit[{}]", adjacency.len()),
        }
    }
}

impl Topology {
    /// Whether this is the complete graph variant (the schema-invisible
    /// default).
    pub fn is_complete(&self) -> bool {
        matches!(self, Topology::Complete)
    }

    /// Validates the topology against network size `n`.
    pub fn validate(&self, n: u32) -> Result<(), ConfigError> {
        match self {
            Topology::Complete => Ok(()),
            Topology::DiameterTwo { clusters } => {
                if *clusters == 0 || *clusters > n {
                    return Err(ConfigError::ClustersOutOfRange {
                        clusters: *clusters,
                        n,
                    });
                }
                Ok(())
            }
            Topology::RandomRegular { d } => {
                if *d == 0 || *d >= n || (u64::from(n) * u64::from(*d)) % 2 != 0 {
                    return Err(ConfigError::DegreeOutOfRange { d: *d, n });
                }
                Ok(())
            }
            Topology::Explicit { adjacency } => {
                if adjacency.len() != n as usize {
                    return Err(ConfigError::AdjacencyWrongLength {
                        lists: adjacency.len() as u32,
                        n,
                    });
                }
                for (u, list) in adjacency.iter().enumerate() {
                    let u32u = u as u32;
                    if list.is_empty() {
                        return Err(ConfigError::BadAdjacency { node: u32u });
                    }
                    let mut prev: Option<u32> = None;
                    for &v in list {
                        // Sorted strictly increasing, in range, self-free.
                        if v >= n || v == u32u || prev.is_some_and(|p| p >= v) {
                            return Err(ConfigError::BadAdjacency { node: u32u });
                        }
                        prev = Some(v);
                        // Symmetric: `u ∈ adjacency[v]`.
                        if adjacency[v as usize].binary_search(&u32u).is_err() {
                            return Err(ConfigError::BadAdjacency { node: u32u });
                        }
                    }
                }
                Ok(())
            }
        }
    }

    /// Builds the run's graph: the `(n, topology_seed)` pair pins it
    /// exactly, seeded generation included. This is the only place a graph
    /// is built; the closed-form variants are never expanded, and the
    /// list variants are materialized once, here.
    ///
    /// # Panics
    ///
    /// Panics (deterministically, with the generation seed in the
    /// message) if random-regular switch repair fails to converge — which
    /// for valid parameters is astronomically unlikely; the panic message
    /// carries everything needed to replay it.
    pub fn edge_set(&self, n: u32, topology_seed: u64) -> EdgeSet {
        let kind = match self {
            Topology::Complete => EdgeSetKind::Complete,
            Topology::DiameterTwo { clusters } => EdgeSetKind::Hub {
                clusters: *clusters,
            },
            Topology::RandomRegular { d } => {
                EdgeSetKind::Lists(random_regular_adjacency(n, *d, topology_seed))
            }
            Topology::Explicit { adjacency } => {
                EdgeSetKind::Lists(adjacency.iter().map(|l| Arc::from(l.as_slice())).collect())
            }
        };
        EdgeSet {
            n,
            topology_seed,
            kind,
        }
    }
}

// Complete encodes too, but every writer elides it (`[elide]` rows): that
// is what keeps pre-topology records bit-identical.
crate::codec! {
    enum Topology: to_json {
        "complete" => Complete,
        "diameter_two" => DiameterTwo { "clusters": clusters },
        "random_regular" => RandomRegular { "d": d },
        "explicit" => Explicit { "adjacency": adjacency },
    }
}

/// One run's graph, built by [`Topology::edge_set`], and the one edge
/// oracle of the run.
///
/// Closed-form variants (complete, hub) answer in O(1) without expanding
/// anything; list variants answer by binary search over the rows the
/// port maps permute, so the oracle and the maps can never disagree
/// about which links exist. The control core checks forged sends with it,
/// and the socket runtime (`ftc-mesh`'s proc-pair fabric) consults it to
/// open a socket only where an edge crosses — exactly the topology's
/// links at one node per proc.
#[derive(Clone, Debug)]
pub struct EdgeSet {
    pub(crate) n: u32,
    /// The seed the graph was built from; every node's port permutation
    /// derives from it too.
    pub(crate) topology_seed: u64,
    kind: EdgeSetKind,
}

#[derive(Clone, Debug)]
enum EdgeSetKind {
    Complete,
    Hub { clusters: u32 },
    Lists(Adjacency),
}

impl EdgeSet {
    /// Whether the undirected edge `{u, v}` exists. Self-pairs and
    /// out-of-range ids are simply absent, not errors.
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        if u == v || u >= self.n || v >= self.n {
            return false;
        }
        match &self.kind {
            EdgeSetKind::Complete => true,
            EdgeSetKind::Hub { clusters } => u < *clusters || v < *clusters,
            EdgeSetKind::Lists(adj) => adj[u as usize].binary_search(&v).is_ok(),
        }
    }

    /// Visits every undirected edge exactly once as `(u, v)` with
    /// `u < v`. Cost is O(edges), never O(n²) for sparse variants — the
    /// shape the fabric's crossing computation needs.
    pub fn for_each_edge(&self, mut f: impl FnMut(u32, u32)) {
        match &self.kind {
            EdgeSetKind::Complete => {
                for u in 0..self.n {
                    for v in (u + 1)..self.n {
                        f(u, v);
                    }
                }
            }
            EdgeSetKind::Hub { clusters } => {
                // Every edge has a hub as its lower-or-only hub endpoint:
                // hub–hub pairs (both below `clusters`) and hub–spoke pairs.
                for u in 0..*clusters {
                    for v in (u + 1)..self.n {
                        f(u, v);
                    }
                }
            }
            EdgeSetKind::Lists(adj) => {
                for (u, list) in adj.iter().enumerate() {
                    let u = u as u32;
                    for &v in list.iter().filter(|&&v| v > u) {
                        f(u, v);
                    }
                }
            }
        }
    }

    /// Node `node`'s row: the shape its port permutation ranges over.
    pub(crate) fn wiring(&self, node: NodeId) -> Wiring {
        match &self.kind {
            // A hub is adjacent to everyone — wired exactly like a
            // complete-graph node.
            EdgeSetKind::Complete => Wiring::Complete,
            EdgeSetKind::Hub { clusters } if node.0 < *clusters => Wiring::Complete,
            EdgeSetKind::Hub { clusters } => Wiring::Hub {
                clusters: *clusters,
            },
            EdgeSetKind::Lists(adj) => Wiring::List(adj[node.index()].clone()),
        }
    }
}

/// Generates a random `d`-regular simple graph on `n` nodes via the
/// configuration model: `n·d` stubs shuffled and paired, then repaired by
/// degree-preserving 2-switches until no self-loops or duplicate edges
/// remain. Deterministic in `(n, d, topology_seed)`.
///
/// # Panics
///
/// Panics with full `(n, d, seed)` context if repair exceeds its attempt
/// budget — deterministic and replayable, never reachable in practice for
/// parameters accepted by [`Topology::validate`].
fn random_regular_adjacency(n: u32, d: u32, topology_seed: u64) -> Adjacency {
    use std::collections::HashSet;
    let nn = n as usize;
    let dd = d as usize;
    if d == n - 1 {
        // The unique (n-1)-regular simple graph is K_n; the pairing model
        // cannot converge to it by local switches, so build it directly.
        return (0..n)
            .map(|u| (0..n).filter(|&v| v != u).collect::<Vec<u32>>())
            .map(Arc::from)
            .collect();
    }
    let m = nn * dd / 2;
    let seed = stream_seed(topology_seed, SALT_GRAPH);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut stubs: Vec<u32> = (0..n).flat_map(|v| std::iter::repeat_n(v, dd)).collect();
    // Fisher–Yates (the vendored `rand` subset has no `shuffle`).
    for i in (1..stubs.len()).rev() {
        let j = rng.random_range(0..=i);
        stubs.swap(i, j);
    }

    let canon = |a: u32, b: u32| (a.min(b), a.max(b));
    let mut edges: Vec<(u32, u32)> = (0..m)
        .map(|i| canon(stubs[2 * i], stubs[2 * i + 1]))
        .collect();
    let mut present: HashSet<(u32, u32)> = HashSet::with_capacity(m);
    let mut bad: Vec<usize> = Vec::new();
    for (i, &e) in edges.iter().enumerate() {
        if e.0 == e.1 || !present.insert(e) {
            bad.push(i);
        }
    }

    // Switch repair: replace a bad pairing and a random good edge with a
    // crosswise re-pairing when that removes the defect. Each accepted
    // switch preserves all degrees; expected work is O(bad · n/(n-d)).
    let mut attempts: u64 = 0;
    let cap = 500 * (m as u64) + 100_000;
    while let Some(&i) = bad.last() {
        attempts += 1;
        assert!(
            attempts <= cap,
            "random-regular repair did not converge for n={n} d={d} \
             (topology seed {topology_seed:#x}, graph seed {seed:#x})"
        );
        let j = rng.random_range(0..m);
        if i == j || bad.contains(&j) {
            continue;
        }
        let (u, v) = edges[i];
        let (x, y) = edges[j];
        // Two crosswise re-pairings; a fair coin keeps the model honest.
        let (a, b) = if rng.random::<bool>() {
            (canon(u, x), canon(v, y))
        } else {
            (canon(u, y), canon(v, x))
        };
        if a.0 == a.1 || b.0 == b.1 || a == b || present.contains(&a) || present.contains(&b) {
            continue;
        }
        present.remove(&(x, y));
        present.insert(a);
        present.insert(b);
        edges[i] = a;
        edges[j] = b;
        bad.pop();
    }

    let mut lists: Vec<Vec<u32>> = vec![Vec::with_capacity(dd); nn];
    for &(a, b) in &edges {
        lists[a as usize].push(b);
        lists[b as usize].push(a);
    }
    lists
        .into_iter()
        .map(|mut l| {
            l.sort_unstable();
            Arc::from(l)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn explicit(lists: &[&[u32]]) -> Topology {
        Topology::Explicit {
            adjacency: Arc::new(lists.iter().map(|l| l.to_vec()).collect()),
        }
    }

    #[test]
    fn default_is_complete_and_validates_everywhere() {
        assert!(Topology::default().is_complete());
        for n in [2, 97, 1 << 20] {
            assert!(Topology::Complete.validate(n).is_ok());
        }
    }

    #[test]
    fn parameter_validation_catches_bad_shapes() {
        let n = 16;
        assert_eq!(
            Topology::DiameterTwo { clusters: 0 }.validate(n),
            Err(ConfigError::ClustersOutOfRange { clusters: 0, n })
        );
        assert_eq!(
            Topology::DiameterTwo { clusters: 17 }.validate(n),
            Err(ConfigError::ClustersOutOfRange { clusters: 17, n })
        );
        assert!(Topology::DiameterTwo { clusters: 16 }.validate(n).is_ok());
        assert_eq!(
            Topology::RandomRegular { d: 0 }.validate(n),
            Err(ConfigError::DegreeOutOfRange { d: 0, n })
        );
        assert_eq!(
            Topology::RandomRegular { d: 16 }.validate(n),
            Err(ConfigError::DegreeOutOfRange { d: 16, n })
        );
        // n·d odd: 15 nodes of degree 3 cannot exist.
        assert_eq!(
            Topology::RandomRegular { d: 3 }.validate(15),
            Err(ConfigError::DegreeOutOfRange { d: 3, n: 15 })
        );
        assert!(Topology::RandomRegular { d: 3 }.validate(16).is_ok());
        // Tiny networks are refused, not wrapped: d ≥ n for every d ≥ 1.
        for n in [0, 1] {
            assert_eq!(
                Topology::RandomRegular { d: 2 }.validate(n),
                Err(ConfigError::DegreeOutOfRange { d: 2, n })
            );
        }
    }

    #[test]
    fn explicit_validation_requires_canonical_symmetric_lists() {
        let path = explicit(&[&[1], &[0, 2], &[1]]);
        assert!(path.validate(3).is_ok());
        // Wrong length.
        assert_eq!(
            path.validate(4),
            Err(ConfigError::AdjacencyWrongLength { lists: 3, n: 4 })
        );
        // Empty list.
        assert_eq!(
            explicit(&[&[], &[0]]).validate(2),
            Err(ConfigError::BadAdjacency { node: 0 })
        );
        // Self loop.
        assert_eq!(
            explicit(&[&[0, 1], &[0]]).validate(2),
            Err(ConfigError::BadAdjacency { node: 0 })
        );
        // Unsorted.
        assert_eq!(
            explicit(&[&[2, 1], &[0, 2], &[0, 1]]).validate(3),
            Err(ConfigError::BadAdjacency { node: 0 })
        );
        // Asymmetric: 0 lists 1, 1 does not list 0.
        assert_eq!(
            explicit(&[&[1], &[2], &[1]]).validate(3),
            Err(ConfigError::BadAdjacency { node: 0 })
        );
        // Out of range.
        assert_eq!(
            explicit(&[&[1], &[0, 5], &[1]]).validate(3),
            Err(ConfigError::BadAdjacency { node: 1 })
        );
    }

    #[test]
    fn random_regular_generation_is_simple_regular_and_deterministic() {
        for (n, d, seed) in [(16u32, 3u32, 1u64), (64, 8, 7), (101, 4, 42), (10, 9, 3)] {
            let adj = random_regular_adjacency(n, d, seed);
            assert_eq!(adj.len(), n as usize);
            for (u, list) in adj.iter().enumerate() {
                assert_eq!(list.len(), d as usize, "degree of node {u}");
                let mut prev = None;
                for &v in list.iter() {
                    assert!(v < n && v != u as u32, "edge ({u},{v}) invalid");
                    assert!(prev.is_none_or(|p| p < v), "list of {u} not strict-sorted");
                    prev = Some(v);
                    assert!(
                        adj[v as usize].binary_search(&(u as u32)).is_ok(),
                        "edge ({u},{v}) not symmetric"
                    );
                }
            }
            // Same seed, same graph; different seed, different graph.
            assert_eq!(adj, random_regular_adjacency(n, d, seed));
        }
        assert_ne!(
            random_regular_adjacency(64, 8, 7),
            random_regular_adjacency(64, 8, 8)
        );
    }

    #[test]
    fn json_round_trips_every_variant() {
        let topos = [
            Topology::Complete,
            Topology::DiameterTwo { clusters: 8 },
            Topology::RandomRegular { d: 6 },
            explicit(&[&[1], &[0, 2], &[1]]),
        ];
        for topo in topos {
            let text = topo.to_json().render();
            let back = Topology::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, topo, "{text}");
        }
        assert!(Topology::from_json(&Json::parse(r#"{"kind":"torus"}"#).unwrap()).is_err());
    }

    #[test]
    fn edge_set_rows_are_the_port_maps_neighbours() {
        use crate::ports::PortMap;
        let n = 24;
        let seed = 11;
        let topos = [
            Topology::Complete,
            Topology::DiameterTwo { clusters: 5 },
            Topology::RandomRegular { d: 4 },
            explicit(&[&[1], &[0, 2], &[1]]),
        ];
        for topo in topos {
            let n = if matches!(topo, Topology::Explicit { .. }) {
                3
            } else {
                n
            };
            let edges = topo.edge_set(n, seed);
            // Membership is symmetric and self-free, and each node's row
            // is exactly the neighbours its port map reaches.
            let mut total = 0usize;
            for u in 0..n {
                let row: Vec<u32> = (0..n).filter(|&v| edges.has_edge(u, v)).collect();
                let mut wired: Vec<u32> = PortMap::new(&edges, NodeId(u))
                    .neighbors()
                    .map(|v| v.0)
                    .collect();
                wired.sort_unstable();
                assert_eq!(wired, row, "{topo} node {u}");
                for v in 0..n {
                    assert_eq!(edges.has_edge(u, v), edges.has_edge(v, u));
                }
                assert!(!edges.has_edge(u, u));
                total += row.len();
            }
            // Enumeration visits exactly the member edges, each once.
            let mut seen = std::collections::HashSet::new();
            edges.for_each_edge(|u, v| {
                assert!(u < v, "{topo}: ({u},{v}) not canonical");
                assert!(
                    edges.has_edge(u, v),
                    "{topo}: ({u},{v}) enumerated but absent"
                );
                assert!(seen.insert((u, v)), "{topo}: ({u},{v}) visited twice");
            });
            assert_eq!(seen.len(), total / 2, "{topo}");
        }
        // Out-of-range queries are absent, not panics.
        assert!(!Topology::Complete.edge_set(4, 0).has_edge(0, 9));
    }

    #[test]
    fn display_labels_are_compact() {
        assert_eq!(Topology::Complete.to_string(), "complete");
        assert_eq!(Topology::DiameterTwo { clusters: 8 }.to_string(), "diam2x8");
        assert_eq!(Topology::RandomRegular { d: 6 }.to_string(), "rr6");
    }
}
