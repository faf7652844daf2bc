//! The layer walk: a replay of `SequentialExecutor::execute`'s superstep loop
//! through the crates' public API, with a timer around each call into a
//! layer. Every broadcast message additionally travels over a real
//! [`BroadcastPlane`] so the plane's calls are timed too.
//!
//! The walk must stay the same program as the executor it replays: its values
//! are compared bit for bit with `SequentialExecutor`'s on every traced run.

use graphh_cluster::{BroadcastEncoding, BroadcastMessage};
use graphh_compress::{Codec, CompressorScratch};
use graphh_core::exec::merge_updates_in_place;
use graphh_core::{Direction, ExecutionPlan, GabProgram, GraphHConfig, ServerState};
use graphh_graph::ids::VertexId;
use graphh_partition::PartitionedGraph;
use graphh_runtime::{BroadcastPlane, ChannelPlane, PollPlane};
use std::time::{Duration, Instant};

/// Which plane carries the walk's broadcasts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlaneKind {
    /// In-process `ChannelPlane`s (the threaded executor's plane).
    Channel,
    /// `PollPlane`s over loopback TCP (`graphh-node --plane poll`).
    Poll,
}

/// Per-layer totals of one walked job.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    pub plan_prepare_s: f64,
    pub server_build_s: f64,
    pub tile_phase_s: f64,
    pub apply_s: f64,
    pub encode_s: f64,
    pub decode_s: f64,
    pub compress_s: f64,
    pub decompress_s: f64,
    pub broadcast_s: f64,
    pub end_superstep_s: f64,
    pub collect_s: f64,
    pub edges_processed: u64,
    pub tiles_skipped: u64,
    pub push_supersteps: u64,
    pub pull_supersteps: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub storage_read_bytes: u64,
    /// Encoded message bytes before compression.
    pub plain_bytes: u64,
    /// Message bytes handed to the plane (after compression, if any).
    pub wire_bytes: u64,
    /// Bytes pushed through the compressor.
    pub compressed_input_bytes: u64,
    /// The part of `compressed_input_bytes` that at least one peer receives.
    pub useful_compressed_bytes: u64,
    pub dense_messages: u64,
    pub sparse_messages: u64,
}

/// What the walk computed.
pub struct WalkOutput {
    pub values: Vec<f64>,
    pub supersteps_run: u32,
    pub layers: Layers,
}

fn timed<T>(total: &mut f64, f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = f();
    *total += started.elapsed().as_secs_f64();
    out
}

/// Connect one endpoint per server, returning the planes and the seconds the
/// connection took.
pub fn connect(
    kind: PlaneKind,
    servers: u32,
) -> Result<(Vec<Box<dyn BroadcastPlane>>, f64), String> {
    let started = Instant::now();
    let planes: Vec<Box<dyn BroadcastPlane>> = match kind {
        PlaneKind::Channel => ChannelPlane::connect(servers)
            .into_iter()
            .map(|p| Box::new(p) as Box<dyn BroadcastPlane>)
            .collect(),
        PlaneKind::Poll => {
            let bound = (0..servers)
                .map(|sid| PollPlane::bind(sid, servers, "127.0.0.1:0"))
                .collect::<std::io::Result<Vec<_>>>()
                .map_err(|e| format!("bind poll plane: {e}"))?;
            let addrs = bound
                .iter()
                .map(|b| b.local_addr())
                .collect::<std::io::Result<Vec<_>>>()
                .map_err(|e| format!("poll plane address: {e}"))?;
            // Establishing blocks until every peer has connected, so each
            // endpoint establishes on its own thread.
            std::thread::scope(|scope| {
                let handles: Vec<_> = bound
                    .into_iter()
                    .map(|b| {
                        let addrs = &addrs;
                        scope
                            .spawn(move || b.establish_with_timeout(addrs, Duration::from_secs(30)))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| match h.join() {
                        Ok(Ok(plane)) => Ok(Box::new(plane) as Box<dyn BroadcastPlane>),
                        Ok(Err(e)) => Err(format!("establish poll plane: {e}")),
                        Err(_) => Err("establish thread panicked".to_string()),
                    })
                    .collect::<Result<Vec<_>, String>>()
            })?
        }
    };
    Ok((planes, started.elapsed().as_secs_f64()))
}

/// Run `program` the way `SequentialExecutor` does, timing each layer.
pub fn walk(
    config: &GraphHConfig,
    partitioned: &PartitionedGraph,
    program: &dyn GabProgram,
    planes: &mut [Box<dyn BroadcastPlane>],
) -> Result<WalkOutput, String> {
    let mut l = Layers::default();
    let plan = timed(&mut l.plan_prepare_s, || {
        ExecutionPlan::prepare(config, partitioned, program)
    })
    .map_err(|e| format!("prepare: {e}"))?;
    let servers = config.cluster.num_servers as usize;
    if planes.len() != servers {
        return Err(format!("{} planes for {servers} servers", planes.len()));
    }
    let mut states: Vec<ServerState> = timed(&mut l.server_build_s, || {
        (0..servers as u32)
            .map(|sid| ServerState::build(config, &plan, partitioned, sid))
            .collect()
    });
    let mode = plan.message_codec.mode();
    let compressor = plan.message_codec.compressor().filter(|&c| c != Codec::Raw);

    let mut previously_updated: Vec<VertexId> = plan.initial_frontier();
    let mut all_updates: Vec<(VertexId, f64)> = Vec::new();
    let (mut plain, mut wire, mut decompressed) = (Vec::new(), Vec::new(), Vec::new());
    let mut comp = CompressorScratch::new();
    let mut sent = vec![0u64; servers];
    let mut supersteps_run = 0;
    for superstep in 0..plan.max_supersteps {
        all_updates.clear();
        sent.fill(0);
        let view = plan.frontier_view(program, &previously_updated);
        match view.direction {
            Direction::Push => l.push_supersteps += 1,
            _ => l.pull_supersteps += 1,
        }
        for (sid, state) in states.iter_mut().enumerate() {
            let phase = timed(&mut l.tile_phase_s, || {
                state.run_tile_phase(program, &plan, superstep, &view, config.use_bloom_filter)
            })
            .map_err(|e| format!("tile phase: {e}"))?;
            l.edges_processed += phase.metrics.edges_processed;
            l.tiles_skipped += phase.metrics.tiles_skipped;
            for message in &phase.messages {
                let encoding = message.choose_encoding(mode);
                match encoding {
                    BroadcastEncoding::Dense => l.dense_messages += 1,
                    BroadcastEncoding::Sparse => l.sparse_messages += 1,
                }
                timed(&mut l.encode_s, || {
                    message.encode_into(encoding, &mut plain)
                });
                l.plain_bytes += plain.len() as u64;
                let on_wire: &[u8] = match compressor {
                    Some(codec) => {
                        timed(&mut l.compress_s, || {
                            codec.compress_into_with(&plain, &mut wire, &mut comp)
                        });
                        l.compressed_input_bytes += plain.len() as u64;
                        if servers > 1 {
                            l.useful_compressed_bytes += plain.len() as u64;
                        }
                        &wire
                    }
                    None => &plain,
                };
                l.wire_bytes += on_wire.len() as u64;
                sent[sid] += on_wire.len() as u64;
                timed(&mut l.broadcast_s, || {
                    planes[sid].broadcast(superstep, on_wire)
                })
                .map_err(|e| format!("broadcast: {e}"))?;
                // Decode once for every receiver, as the sequential executor does.
                let data: &[u8] = match compressor {
                    Some(codec) => {
                        timed(&mut l.decompress_s, || {
                            codec.decompress_into(on_wire, &mut decompressed)
                        })
                        .map_err(|e| format!("decompress: {e}"))?;
                        &decompressed
                    }
                    None => on_wire,
                };
                timed(&mut l.decode_s, || {
                    BroadcastMessage::decode_each(data, |v, val| all_updates.push((v, val)))
                })
                .map_err(|e| format!("decode: {e}"))?;
            }
        }
        for plane in planes.iter_mut() {
            timed(&mut l.end_superstep_s, || plane.end_superstep(superstep))
                .map_err(|e| format!("end superstep: {e}"))?;
        }
        let total_sent: u64 = sent.iter().sum();
        for (sid, plane) in planes.iter_mut().enumerate() {
            let received = timed(&mut l.collect_s, || plane.collect(superstep))
                .map_err(|e| format!("collect: {e}"))?;
            let bytes: u64 = received.iter().map(|m| m.len() as u64).sum();
            if bytes != total_sent - sent[sid] {
                return Err(format!(
                    "server {sid} collected {bytes} bytes in superstep {superstep}, peers sent {}",
                    total_sent - sent[sid]
                ));
            }
        }
        timed(&mut l.apply_s, || {
            merge_updates_in_place(&mut all_updates);
            for state in &mut states {
                state.apply_updates(&all_updates);
            }
        });
        previously_updated.clear();
        previously_updated.extend(all_updates.iter().map(|&(v, _)| v));
        supersteps_run = superstep + 1;
        if previously_updated.is_empty() {
            break;
        }
    }

    for state in &states {
        let cache = state.cache_stats();
        l.cache_hits += cache.hits;
        l.cache_misses += cache.misses;
        l.storage_read_bytes += state.io_snapshot().bytes_read;
    }
    let mut states = states.into_iter();
    let values = states.next().map(|s| s.values).unwrap_or_default();
    if states.any(|s| !crate::workload::same_bits(&s.values, &values)) {
        return Err("server replicas diverged in the layer walk".into());
    }
    Ok(WalkOutput {
        values,
        supersteps_run,
        layers: l,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{build_inputs, same_bits, Workload};
    use graphh_core::{GraphHEngine, SequentialExecutor};
    use std::sync::Arc;

    #[test]
    fn walk_is_bit_identical_to_the_sequential_executor() {
        let inputs = build_inputs(9, 3).unwrap();
        for workload in Workload::ALL {
            let config = workload.config(&inputs.partitioned);
            let kind = if workload == Workload::PagerankClusterTcp {
                PlaneKind::Poll
            } else {
                PlaneKind::Channel
            };
            for source in workload.sources(&inputs.graph, 3) {
                let program = workload.program(source);
                let expected = GraphHEngine::with_executor(
                    config.clone(),
                    Arc::new(SequentialExecutor::new()),
                )
                .run(&inputs.partitioned, program.as_ref())
                .unwrap();
                let (mut planes, _) = connect(kind, workload.servers()).unwrap();
                let out =
                    walk(&config, &inputs.partitioned, program.as_ref(), &mut planes).unwrap();
                assert!(
                    same_bits(&out.values, &expected.values),
                    "{}",
                    workload.name()
                );
                assert_eq!(out.supersteps_run, expected.supersteps_run);
                let edges: u64 = expected
                    .metrics
                    .supersteps
                    .iter()
                    .map(|s| s.total_edges_processed())
                    .sum();
                assert_eq!(out.layers.edges_processed, edges);
            }
        }
    }
}
