//! The four workloads: how each is configured, how its inputs are built from
//! the seed, and how its outputs are checked.

use graphh_cluster::ClusterConfig;
use graphh_compress::Codec;
use graphh_core::{reference, DirectionOptimizingBfs, GabProgram, GraphHConfig, PageRank};
use graphh_graph::generators::{GraphGenerator, RmatGenerator};
use graphh_graph::ids::VertexId;
use graphh_graph::Graph;
use graphh_partition::{PartitionedGraph, Spe, SpeConfig};
use std::time::Instant;

/// RMAT edge factor of every workload.
pub const EDGE_FACTOR: u32 = 16;
/// Tile count the SPE targets.
pub const TILES: u32 = 64;
/// PageRank supersteps.
pub const PAGERANK_SUPERSTEPS: u32 = 10;
/// BFS trials cycle over this many sources, so every source repeats within a
/// run and its per-trial invariants are compared against an earlier trial.
pub const BFS_SOURCES: usize = 8;
/// PageRank must match the plain reference within this absolute error.
pub const PAGERANK_TOLERANCE: f64 = 1e-9;

/// One benchmark workload (see the README for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PagerankDense,
    BfsFrontier,
    PagerankEdgeCache,
    PagerankClusterTcp,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PagerankDense,
        Workload::BfsFrontier,
        Workload::PagerankEdgeCache,
        Workload::PagerankClusterTcp,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PagerankDense => "pagerank-dense",
            Workload::BfsFrontier => "bfs-frontier",
            Workload::PagerankEdgeCache => "pagerank-edge-cache",
            Workload::PagerankClusterTcp => "pagerank-cluster-tcp",
        }
    }

    pub fn parse(name: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| format!("unknown workload {name:?}"))
    }

    pub fn servers(self) -> u32 {
        match self {
            Workload::PagerankEdgeCache => 1,
            _ => 2,
        }
    }

    pub fn threads_per_server(self) -> u32 {
        match self {
            Workload::PagerankEdgeCache => 2,
            _ => 1,
        }
    }

    /// The engine configuration: the paper default, except that the edge-cache
    /// workload caps the cache at 3/4 of the server's raw tile bytes (so
    /// `CacheMode::Auto` picks snappy) and the cluster workload sends its
    /// messages uncompressed (`graphh-node --compressor none`).
    pub fn config(self, partitioned: &PartitionedGraph) -> GraphHConfig {
        let mut config = GraphHConfig::paper_default(ClusterConfig::paper_testbed(self.servers()))
            .with_threads_per_server(self.threads_per_server());
        match self {
            Workload::PagerankEdgeCache => {
                config.cache_capacity = Some(partitioned.total_tile_bytes() * 3 / 4)
            }
            Workload::PagerankClusterTcp => config.message_compressor = None,
            _ => {}
        }
        config
    }

    /// The codec the edge cache must select; anything else is config drift.
    pub fn expected_cache_codec(self) -> Codec {
        match self {
            Workload::PagerankEdgeCache => Codec::Snappy,
            _ => Codec::Raw,
        }
    }

    /// Distinct jobs a run cycles over: one per BFS source, else one.
    pub fn sources(self, graph: &Graph, seed: u64) -> Vec<VertexId> {
        match self {
            Workload::BfsFrontier => {
                let mut picker = SourcePicker::new(graph.out_degrees(), seed);
                (0..BFS_SOURCES).map(|_| picker.pick_next()).collect()
            }
            _ => vec![0],
        }
    }

    pub fn program(self, source: VertexId) -> Box<dyn GabProgram> {
        match self {
            Workload::BfsFrontier => Box::new(DirectionOptimizingBfs::new(source)),
            _ => Box::new(PageRank::new(PAGERANK_SUPERSTEPS)),
        }
    }

    /// Check `values` (a sequential-executor result) against the plain
    /// single-machine implementation in `graphh_core::reference`.
    pub fn check_reference(
        self,
        graph: &Graph,
        source: VertexId,
        values: &[f64],
    ) -> Result<(), String> {
        match self {
            Workload::BfsFrontier => {
                let expected = reference::bfs(graph, source);
                if expected.len() != values.len()
                    || expected.iter().zip(values).any(|(a, b)| a != b)
                {
                    return Err(format!(
                        "BFS from {source} differs from the reference levels"
                    ));
                }
            }
            _ => {
                let expected = reference::pagerank(graph, PAGERANK_SUPERSTEPS);
                let diff = reference::max_abs_diff(&expected, values);
                // `max_abs_diff` folds with `f64::max`, which skips NaN.
                if values.iter().any(|v| !v.is_finite()) || diff >= PAGERANK_TOLERANCE {
                    return Err(format!("PageRank differs from the reference by {diff:e}"));
                }
            }
        }
        Ok(())
    }
}

/// gapbs-style source picker: seeded uniform draws, skipping vertices
/// without out-edges (a BFS from such a vertex does no work).
pub struct SourcePicker<'a> {
    out_degrees: &'a [u32],
    state: u64,
}

impl<'a> SourcePicker<'a> {
    pub fn new(out_degrees: &'a [u32], seed: u64) -> Self {
        assert!(
            out_degrees.iter().any(|&d| d > 0),
            "the graph needs at least one vertex with out-edges"
        );
        Self {
            out_degrees,
            state: seed ^ 0x5eed_0f5e_1ec7_ed00,
        }
    }

    pub fn pick_next(&mut self) -> VertexId {
        loop {
            // SplitMix64.
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            let v = (z % self.out_degrees.len() as u64) as usize;
            if self.out_degrees[v] > 0 {
                return v as VertexId;
            }
        }
    }
}

/// The generated graph and its partition, with the time each step took.
pub struct Inputs {
    pub graph: Graph,
    pub partitioned: PartitionedGraph,
    pub generate_s: f64,
    pub partition_s: f64,
}

/// Generate the RMAT graph for `seed` and partition it — the benchmark's
/// set-up, the same steps `graphh-node` runs for the cluster workload.
pub fn build_inputs(scale: u32, seed: u64) -> Result<Inputs, String> {
    let started = Instant::now();
    let graph = RmatGenerator::new(scale, EDGE_FACTOR).generate(seed);
    let generate_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let partitioned = Spe::partition(&graph, &SpeConfig::with_tile_count("rmat", &graph, TILES))
        .map_err(|e| format!("partition: {e}"))?;
    let partition_s = started.elapsed().as_secs_f64();
    Ok(Inputs {
        graph,
        partitioned,
        generate_s,
        partition_s,
    })
}

/// Whether two value arrays are bit-for-bit identical.
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_picker_is_seeded_and_skips_sinks() {
        let degrees = [0, 3, 0, 0, 1, 0, 0, 2];
        let a: Vec<_> = {
            let mut p = SourcePicker::new(&degrees, 7);
            (0..16).map(|_| p.pick_next()).collect()
        };
        let mut p = SourcePicker::new(&degrees, 7);
        assert!(a.iter().all(|&v| p.pick_next() == v));
        assert!(a.iter().all(|&v| degrees[v as usize] > 0));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Ok(w));
        }
        assert!(Workload::parse("nope").is_err());
    }
}
