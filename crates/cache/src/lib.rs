//! # graphh-cache
//!
//! GraphH's edge cache system (paper §IV-B).
//!
//! Each server keeps its assigned tiles on local disk; whatever memory is left after
//! vertex states and message buffers is used to cache tiles so later supersteps skip
//! the disk read. The cache can hold tiles raw or compressed — the paper's four
//! "cache modes" are raw, snappy, zlib-1 and zlib-3 — and it picks the lightest
//! codec whose estimated compression ratio lets the whole tile set fit
//! (`minimise i subject to S / γᵢ ≤ C`, falling back to zlib-1 when none fits).
//!
//! Raw mode stores the *decoded* tile behind an `Arc`, so a hit is a refcount bump —
//! no memcpy, no re-parse. Compressed modes store the compressed blob as an
//! `Arc<[u8]>` and decompress outside the cache lock on each hit. Recency can be
//! stamped explicitly by the caller ([`EdgeCache::lookup`] / [`EdgeCache::admit`]),
//! which is how the engine keeps LRU state deterministic when `threads_per_server`
//! workers probe the cache concurrently. Admission splits in two for the same
//! reason: [`EdgeCache::prepare`] compresses a missed tile without taking the
//! lock, so workers compress in parallel, and [`EdgeCache::admit_prepared`]
//! charges, evicts and inserts, which the engine does on one thread in tile order.
//!
//! The cache records hits, misses, evictions and the decompression time it incurs so
//! the engine can charge them to the superstep's cost.

use graphh_compress::Codec;
use graphh_graph::ids::TileId;
use graphh_partition::Tile;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// How the cache chooses its codec.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CacheMode {
    /// Always use this codec (cache modes 1–4 of the paper when given
    /// `Raw`/`Snappy`/`Zlib1`/`Zlib3`).
    Fixed(Codec),
    /// Choose automatically from the total tile size and the cache capacity.
    Auto,
}

/// Configuration of one server's edge cache.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeCacheConfig {
    /// Memory the cache may use, in bytes (the server's idle memory).
    pub capacity_bytes: u64,
    /// Codec selection policy.
    pub mode: CacheMode,
}

impl EdgeCacheConfig {
    /// A cache with automatic codec selection.
    pub fn auto(capacity_bytes: u64) -> Self {
        Self {
            capacity_bytes,
            mode: CacheMode::Auto,
        }
    }

    /// A cache pinned to one of the paper's cache modes (1–4).
    pub fn fixed_mode(capacity_bytes: u64, paper_mode: u8) -> Option<Self> {
        Codec::from_cache_mode(paper_mode).map(|codec| Self {
            capacity_bytes,
            mode: CacheMode::Fixed(codec),
        })
    }
}

/// Counters the cache exposes for the experiment harness (Fig. 7b) and cost model.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CacheStats {
    /// Lookups that found the tile in memory.
    pub hits: u64,
    /// Lookups that did not.
    pub misses: u64,
    /// Tiles evicted to stay under capacity.
    pub evictions: u64,
    /// Tiles currently resident.
    pub resident_tiles: u64,
    /// Bytes currently used by cached (possibly compressed) tiles.
    pub used_bytes: u64,
    /// Seconds spent decompressing cached tiles (to be charged to the superstep).
    pub decompress_seconds: f64,
    /// Seconds spent compressing tiles on insert.
    pub compress_seconds: f64,
}

impl CacheStats {
    /// Hit ratio (1.0 when never consulted).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Choose the cache codec the way GraphH does at program start (§IV-B): the lightest
/// codec whose *estimated* ratio γ fits the total tile bytes into the capacity;
/// zlib-1 if even zlib-3 would not fit.
pub fn select_codec(total_tile_bytes: u64, capacity_bytes: u64) -> Codec {
    for codec in [Codec::Raw, Codec::Snappy, Codec::Zlib1, Codec::Zlib3] {
        if (total_tile_bytes as f64 / codec.estimated_ratio()) <= capacity_bytes as f64 {
            return codec;
        }
    }
    Codec::Zlib1
}

/// How a tile is held in memory.
#[derive(Debug)]
enum Stored {
    /// Raw mode: the *decoded* tile. A hit is an `Arc` refcount bump — no
    /// memcpy, no re-parse.
    Raw(Arc<Tile>),
    /// Compressed modes: the compressed blob, reference-counted so hits can
    /// decompress outside the cache lock without cloning the bytes.
    Compressed(Arc<[u8]>),
}

#[derive(Debug)]
struct Entry {
    data: Stored,
    /// Bytes charged against the capacity: the serialized tile size for raw
    /// mode (what the old byte-blob cache charged), the compressed size
    /// otherwise.
    charged_bytes: u64,
    /// Recency stamp for LRU eviction.
    last_used: u64,
}

/// A cache hit: the decoded tile plus the decompression time this particular
/// hit cost (0 for raw mode). Returning the per-hit time lets callers
/// accumulate codec time in a deterministic order of their own choosing
/// (the engine reduces per-tile metrics in tile order), instead of relying on
/// the cache's internal, lock-order-dependent accumulation.
#[derive(Debug)]
pub struct TileFetch {
    /// The decoded tile.
    pub tile: Arc<Tile>,
    /// Seconds of decompression charged for this hit.
    pub decompress_seconds: f64,
}

/// A missed tile made ready for admission by [`EdgeCache::prepare`]: already
/// compressed (or, in raw mode, the decoded tile) and sized, waiting for
/// [`EdgeCache::admit_prepared`] to insert it.
#[derive(Debug)]
pub struct PreparedTile {
    data: Stored,
    charged_bytes: u64,
    compress_seconds: f64,
}

#[derive(Debug, Default)]
struct Inner {
    entries: HashMap<TileId, Entry>,
    used_bytes: u64,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    decompress_seconds: f64,
    compress_seconds: f64,
}

/// A capacity-bounded, LRU, optionally compressing tile cache.
#[derive(Debug)]
pub struct EdgeCache {
    capacity: u64,
    codec: Codec,
    inner: Mutex<Inner>,
}

impl EdgeCache {
    /// Build a cache for a tile set whose serialized size totals `total_tile_bytes`.
    /// With [`CacheMode::Auto`] the codec is selected from that size and the capacity.
    pub fn new(config: EdgeCacheConfig, total_tile_bytes: u64) -> Self {
        let codec = match config.mode {
            CacheMode::Fixed(c) => c,
            CacheMode::Auto => select_codec(total_tile_bytes, config.capacity_bytes),
        };
        Self {
            capacity: config.capacity_bytes,
            codec,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// The codec the cache ended up using.
    pub fn codec(&self) -> Codec {
        self.codec
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Current value of the recency clock. Callers that stamp their own
    /// lookups (see [`EdgeCache::lookup`]) derive deterministic stamps from
    /// this base.
    pub fn clock(&self) -> u64 {
        self.inner.lock().clock
    }

    /// Look up a tile with an explicit recency stamp.
    ///
    /// The stamp replaces the internal access-order clock so concurrent
    /// callers can assign recency deterministically (the engine stamps each
    /// tile by its position in the server's tile order, making LRU state
    /// independent of thread scheduling). The internal clock ratchets to the
    /// largest stamp seen.
    pub fn lookup(&self, tile_id: TileId, stamp: u64) -> Option<TileFetch> {
        let mut inner = self.inner.lock();
        inner.clock = inner.clock.max(stamp);
        match inner.entries.get_mut(&tile_id) {
            Some(entry) => {
                entry.last_used = entry.last_used.max(stamp);
                let data = match &entry.data {
                    Stored::Raw(tile) => Stored::Raw(Arc::clone(tile)),
                    Stored::Compressed(blob) => Stored::Compressed(Arc::clone(blob)),
                };
                inner.hits += 1;
                match data {
                    Stored::Raw(tile) => Some(TileFetch {
                        tile,
                        decompress_seconds: 0.0,
                    }),
                    Stored::Compressed(blob) => {
                        let decompress_seconds =
                            blob.len() as f64 / self.codec.decompress_throughput();
                        inner.decompress_seconds += decompress_seconds;
                        // Decompress + parse outside the lock.
                        drop(inner);
                        let bytes = self
                            .codec
                            .decompress(&blob)
                            .expect("cache blob was produced by this codec");
                        let tile = Arc::new(
                            Tile::from_bytes(&bytes).expect("cache blob is a serialized tile"),
                        );
                        Some(TileFetch {
                            tile,
                            decompress_seconds,
                        })
                    }
                }
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Make a missed tile ready for admission: compress it (or, in raw mode,
    /// keep the decoded tile) and size it. Takes no lock and touches no cache
    /// state, so any thread can prepare tiles concurrently; the entry only
    /// becomes visible through [`EdgeCache::admit_prepared`].
    ///
    /// `serialized` is the tile's on-disk form (sizes the entry and feeds the
    /// compressor); `decoded` is the already-parsed tile the caller obtained
    /// from those bytes — raw mode stores it directly so later hits skip the
    /// parse.
    pub fn prepare(&self, serialized: &[u8], decoded: &Arc<Tile>) -> PreparedTile {
        match self.codec {
            Codec::Raw => PreparedTile {
                data: Stored::Raw(Arc::clone(decoded)),
                charged_bytes: serialized.len() as u64,
                compress_seconds: 0.0,
            },
            codec => {
                let blob = codec.compress(serialized);
                PreparedTile {
                    charged_bytes: blob.len() as u64,
                    data: Stored::Compressed(Arc::from(blob.into_boxed_slice())),
                    // Compression throughput is of the same order as
                    // decompression for the codecs we model; reuse the
                    // decompression figure.
                    compress_seconds: serialized.len() as f64 / codec.decompress_throughput(),
                }
            }
        }
    }

    /// Insert a tile made ready by [`EdgeCache::prepare`], with an explicit
    /// recency stamp (see [`EdgeCache::lookup`]). Oldest tiles are evicted
    /// until the new entry fits; if the entry alone exceeds the capacity it
    /// is not cached. Returns the compression time charged (0 for raw mode),
    /// so the caller can fold it into its own metrics deterministically.
    pub fn admit_prepared(&self, tile_id: TileId, prepared: PreparedTile, stamp: u64) -> f64 {
        let PreparedTile {
            data,
            charged_bytes,
            compress_seconds,
        } = prepared;
        let mut inner = self.inner.lock();
        inner.clock = inner.clock.max(stamp);
        inner.compress_seconds += compress_seconds;
        if charged_bytes > self.capacity {
            return compress_seconds;
        }
        if let Some(old) = inner.entries.remove(&tile_id) {
            inner.used_bytes -= old.charged_bytes;
        }
        while inner.used_bytes + charged_bytes > self.capacity {
            let Some((&victim, _)) = inner.entries.iter().min_by_key(|(_, e)| e.last_used) else {
                break;
            };
            let evicted = inner.entries.remove(&victim).expect("victim exists");
            inner.used_bytes -= evicted.charged_bytes;
            inner.evictions += 1;
        }
        inner.used_bytes += charged_bytes;
        inner.entries.insert(
            tile_id,
            Entry {
                data,
                charged_bytes,
                last_used: stamp,
            },
        );
        compress_seconds
    }

    /// Admit a tile after a miss: [`EdgeCache::prepare`] followed by
    /// [`EdgeCache::admit_prepared`]. Returns the compression time charged.
    pub fn admit(
        &self,
        tile_id: TileId,
        serialized: &[u8],
        decoded: &Arc<Tile>,
        stamp: u64,
    ) -> f64 {
        self.admit_prepared(tile_id, self.prepare(serialized, decoded), stamp)
    }

    /// Reserve a unique access-order stamp: the clock is incremented under
    /// the lock, so concurrent callers can never mint the same stamp (a
    /// duplicate would make LRU ties break by hash-map iteration order).
    fn reserve_stamp(&self) -> u64 {
        let mut inner = self.inner.lock();
        inner.clock += 1;
        inner.clock
    }

    /// Look up a tile using the internal access-order clock. Returns the
    /// decoded tile on a hit, `None` on a miss.
    pub fn get(&self, tile_id: TileId) -> Option<Arc<Tile>> {
        let stamp = self.reserve_stamp();
        self.lookup(tile_id, stamp).map(|fetch| fetch.tile)
    }

    /// Insert a tile (serialized form) after a miss, using the internal
    /// access-order clock. Bytes that do not parse as a tile are not cached.
    pub fn insert(&self, tile_id: TileId, serialized_tile: &[u8]) {
        let Ok(tile) = Tile::from_bytes(serialized_tile) else {
            return;
        };
        let stamp = self.reserve_stamp();
        self.admit(tile_id, serialized_tile, &Arc::new(tile), stamp);
    }

    /// Whether a tile is currently resident (does not affect recency or stats).
    pub fn contains(&self, tile_id: TileId) -> bool {
        self.inner.lock().entries.contains_key(&tile_id)
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            resident_tiles: inner.entries.len() as u64,
            used_bytes: inner.used_bytes,
            decompress_seconds: inner.decompress_seconds,
            compress_seconds: inner.compress_seconds,
        }
    }

    /// Reset hit/miss/time counters (keeps the cached tiles).
    pub fn reset_stats(&self) {
        let mut inner = self.inner.lock();
        inner.hits = 0;
        inner.misses = 0;
        inner.evictions = 0;
        inner.decompress_seconds = 0.0;
        inner.compress_seconds = 0.0;
    }

    /// Drop every cached tile.
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.entries.clear();
        inner.used_bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphh_graph::generators::{GraphGenerator, RmatGenerator};
    use graphh_partition::{Spe, SpeConfig};

    fn tile(id: TileId, edges_per_target: usize) -> Tile {
        let adjacency: Vec<Vec<(u32, f32)>> = (0..10)
            .map(|t| {
                (0..edges_per_target)
                    .map(|s| ((t * 100 + s) as u32, 1.0))
                    .collect()
            })
            .collect();
        Tile::from_adjacency(id, id * 10, &adjacency, false)
    }

    #[test]
    fn auto_mode_selection_follows_paper_rule() {
        // Fits raw → raw.
        assert_eq!(select_codec(100, 1000), Codec::Raw);
        // Fits only after 2x compression → snappy.
        assert_eq!(select_codec(1800, 1000), Codec::Snappy);
        // Needs 4x → zlib-1.
        assert_eq!(select_codec(3900, 1000), Codec::Zlib1);
        // Needs 5x → zlib-3.
        assert_eq!(select_codec(4900, 1000), Codec::Zlib3);
        // Does not fit at all → zlib-1 (paper's fallback).
        assert_eq!(select_codec(100_000, 1000), Codec::Zlib1);
    }

    #[test]
    fn hit_returns_identical_tile() {
        let cache = EdgeCache::new(EdgeCacheConfig::auto(1 << 20), 1 << 10);
        let t = tile(3, 5);
        assert!(cache.get(3).is_none());
        cache.insert(3, &t.to_bytes());
        let got = cache.get(3).expect("tile should be cached");
        assert_eq!(*got, t);
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.resident_tiles, 1);
        assert!((stats.hit_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn compressed_modes_roundtrip_and_record_time() {
        for mode in 2u8..=4 {
            let cfg = EdgeCacheConfig::fixed_mode(1 << 20, mode).unwrap();
            let cache = EdgeCache::new(cfg, 0);
            let t = tile(1, 50);
            cache.insert(1, &t.to_bytes());
            assert_eq!(*cache.get(1).unwrap(), t);
            let stats = cache.stats();
            assert!(stats.decompress_seconds > 0.0, "mode {mode}");
            assert!(stats.compress_seconds > 0.0, "mode {mode}");
            assert!(
                stats.used_bytes < t.serialized_size(),
                "mode {mode} should compress"
            );
        }
    }

    #[test]
    fn eviction_respects_capacity_and_lru_order() {
        let t0 = tile(0, 20);
        let blob = t0.to_bytes();
        // Capacity for roughly two raw tiles.
        let cache = EdgeCache::new(
            EdgeCacheConfig {
                capacity_bytes: blob.len() as u64 * 2 + 10,
                mode: CacheMode::Fixed(Codec::Raw),
            },
            0,
        );
        cache.insert(0, &tile(0, 20).to_bytes());
        cache.insert(1, &tile(1, 20).to_bytes());
        // Touch tile 0 so tile 1 is the LRU victim.
        assert!(cache.get(0).is_some());
        cache.insert(2, &tile(2, 20).to_bytes());
        assert!(cache.contains(0));
        assert!(!cache.contains(1), "LRU tile should have been evicted");
        assert!(cache.contains(2));
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert!(stats.used_bytes <= cache.capacity());
    }

    #[test]
    fn oversized_tile_is_not_cached() {
        let cache = EdgeCache::new(
            EdgeCacheConfig {
                capacity_bytes: 16,
                mode: CacheMode::Fixed(Codec::Raw),
            },
            0,
        );
        cache.insert(7, &tile(7, 50).to_bytes());
        assert!(!cache.contains(7));
        assert_eq!(cache.stats().resident_tiles, 0);
    }

    #[test]
    fn reinserting_same_tile_does_not_leak_bytes() {
        let cache = EdgeCache::new(EdgeCacheConfig::auto(1 << 20), 0);
        let t = tile(5, 10);
        cache.insert(5, &t.to_bytes());
        let used_once = cache.stats().used_bytes;
        cache.insert(5, &t.to_bytes());
        assert_eq!(cache.stats().used_bytes, used_once);
        assert_eq!(cache.stats().resident_tiles, 1);
    }

    #[test]
    fn clear_and_reset() {
        let cache = EdgeCache::new(EdgeCacheConfig::auto(1 << 20), 0);
        cache.insert(1, &tile(1, 5).to_bytes());
        let _ = cache.get(1);
        let _ = cache.get(2);
        cache.reset_stats();
        let stats = cache.stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 0);
        assert_eq!(stats.resident_tiles, 1);
        cache.clear();
        assert_eq!(cache.stats().resident_tiles, 0);
        assert_eq!(cache.stats().used_bytes, 0);
    }

    #[test]
    fn raw_mode_hits_share_one_decoded_tile() {
        let cache = EdgeCache::new(
            EdgeCacheConfig {
                capacity_bytes: 1 << 20,
                mode: CacheMode::Fixed(Codec::Raw),
            },
            0,
        );
        let t = tile(4, 8);
        cache.insert(4, &t.to_bytes());
        let a = cache.get(4).unwrap();
        let b = cache.get(4).unwrap();
        // A raw hit is a refcount bump on the same decoded tile, not a copy.
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats().decompress_seconds, 0.0);
    }

    #[test]
    fn explicit_stamps_drive_lru_deterministically() {
        let t0 = tile(0, 20);
        let blob = t0.to_bytes();
        let cache = EdgeCache::new(
            EdgeCacheConfig {
                capacity_bytes: blob.len() as u64 * 2 + 10,
                mode: CacheMode::Fixed(Codec::Raw),
            },
            0,
        );
        // Admit tiles 0 and 1, then bump tile 0's recency via a stamped
        // lookup; tile 1 must be the victim when tile 2 arrives, regardless
        // of the order the operations' locks were acquired in.
        cache.admit(0, &tile(0, 20).to_bytes(), &Arc::new(tile(0, 20)), 1);
        cache.admit(1, &tile(1, 20).to_bytes(), &Arc::new(tile(1, 20)), 2);
        assert!(cache.lookup(0, 3).is_some());
        cache.admit(2, &tile(2, 20).to_bytes(), &Arc::new(tile(2, 20)), 4);
        assert!(cache.contains(0));
        assert!(!cache.contains(1));
        assert!(cache.contains(2));
        // Stale stamps never roll recency backwards.
        assert!(cache.lookup(0, 1).is_some());
        assert_eq!(cache.clock(), 4);
    }

    /// `prepare` + `admit_prepared` is `admit`, step for step: same returned
    /// compression time, occupancy, evictions and LRU victims, for every
    /// codec, also when the tiles were prepared on other threads.
    #[test]
    fn prepared_admission_matches_admit() {
        let tiles: Vec<Tile> = (0..8).map(|id| tile(id, 10 + 7 * id as usize)).collect();
        let serialized: Vec<Vec<u8>> = tiles.iter().map(Tile::to_bytes).collect();
        let decoded: Vec<Arc<Tile>> = tiles.into_iter().map(Arc::new).collect();
        for codec in [Codec::Raw, Codec::Snappy, Codec::Zlib1, Codec::Zlib3] {
            let charged: u64 = serialized
                .iter()
                .map(|b| match codec {
                    Codec::Raw => b.len() as u64,
                    c => c.compress(b).len() as u64,
                })
                .sum();
            // Room for about a third of the tiles, so admissions evict.
            let config = EdgeCacheConfig {
                capacity_bytes: charged / 3,
                mode: CacheMode::Fixed(codec),
            };
            let whole = EdgeCache::new(config, 0);
            let split = EdgeCache::new(config, 0);
            let prepared: Vec<PreparedTile> = std::thread::scope(|scope| {
                let handles: Vec<_> = serialized
                    .iter()
                    .zip(&decoded)
                    .map(|(bytes, tile)| scope.spawn(|| split.prepare(bytes, tile)))
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            let mut stamp = 0;
            for (id, prepared) in prepared.into_iter().enumerate() {
                let tile_id = id as TileId;
                stamp += 1;
                let expected = whole.admit(tile_id, &serialized[id], &decoded[id], stamp);
                assert_eq!(prepared.compress_seconds, expected, "{codec:?}");
                assert_eq!(split.admit_prepared(tile_id, prepared, stamp), expected);
                // Re-touch tile 0 so the victims are not plain FIFO order.
                stamp += 1;
                assert_eq!(
                    whole.lookup(0, stamp).is_some(),
                    split.lookup(0, stamp).is_some()
                );
                assert_eq!(whole.stats(), split.stats(), "{codec:?} after tile {id}");
                for probe in 0..8 {
                    assert_eq!(whole.contains(probe), split.contains(probe));
                }
            }
            let stats = split.stats();
            assert!(stats.evictions > 0, "{codec:?}: no eviction pressure");
            assert!(stats.used_bytes <= split.capacity());
            assert_eq!(stats.compress_seconds > 0.0, codec != Codec::Raw);
            // Every resident tile still decodes to the admitted tile.
            for (id, tile) in decoded.iter().enumerate() {
                if let Some(fetch) = split.lookup(id as TileId, stamp + 1) {
                    assert_eq!(*fetch.tile, **tile);
                }
            }
        }
    }

    #[test]
    fn prepared_tile_larger_than_capacity_is_not_cached() {
        let small = Arc::new(tile(0, 2));
        let big = Arc::new(tile(1, 60));
        for codec in [Codec::Raw, Codec::Snappy, Codec::Zlib1, Codec::Zlib3] {
            let sizer = EdgeCache::new(
                EdgeCacheConfig {
                    capacity_bytes: u64::MAX,
                    mode: CacheMode::Fixed(codec),
                },
                0,
            );
            let big_bytes = sizer.prepare(&big.to_bytes(), &big).charged_bytes;
            let small_bytes = sizer.prepare(&small.to_bytes(), &small).charged_bytes;
            assert!(small_bytes < big_bytes, "{codec:?}");
            let cache = EdgeCache::new(
                EdgeCacheConfig {
                    capacity_bytes: big_bytes - 1,
                    mode: CacheMode::Fixed(codec),
                },
                0,
            );
            cache.admit(0, &small.to_bytes(), &small, 1);
            let prepared = cache.prepare(&big.to_bytes(), &big);
            let seconds = prepared.compress_seconds;
            assert_eq!(cache.admit_prepared(1, prepared, 2), seconds);
            assert!(!cache.contains(1), "{codec:?}");
            // The oversized entry evicted nothing on its way out.
            assert!(cache.contains(0), "{codec:?}");
            let stats = cache.stats();
            assert_eq!(stats.evictions, 0);
            assert_eq!(stats.resident_tiles, 1);
            assert_eq!(stats.used_bytes, small_bytes);
        }
    }

    /// Snappy must shrink the tiles of a generated RMAT graph to under 3/4
    /// of their raw bytes. A cache capped at 3/4 of the tile bytes (the
    /// paper's single-server case, and the `pagerank-edge-cache` benchmark)
    /// then selects snappy and keeps every tile resident; a codec change that
    /// loses this margin would silently push tiles back to disk.
    #[test]
    fn snappy_keeps_rmat_tiles_resident_in_three_quarters_of_their_bytes() {
        let graph = RmatGenerator::new(14, 16).generate(7);
        let config = SpeConfig::with_tile_count("rmat-14", &graph, 64);
        let tiles = Spe::partition(&graph, &config).unwrap().tiles;
        let serialized: Vec<Vec<u8>> = tiles.iter().map(Tile::to_bytes).collect();
        let raw: u64 = serialized.iter().map(|b| b.len() as u64).sum();
        let packed: u64 = serialized
            .iter()
            .map(|b| Codec::Snappy.compress(b).len() as u64)
            .sum();
        let ratio = packed as f64 / raw as f64;
        assert!(ratio < 0.75, "snappy tile ratio {ratio:.3}");

        let cache = EdgeCache::new(EdgeCacheConfig::auto(raw * 3 / 4), raw);
        assert_eq!(cache.codec(), Codec::Snappy);
        for (stamp, (tile, bytes)) in tiles.iter().zip(&serialized).enumerate() {
            cache.admit(tile.tile_id, bytes, &Arc::new(tile.clone()), stamp as u64);
        }
        let stats = cache.stats();
        assert_eq!(stats.resident_tiles, tiles.len() as u64);
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.used_bytes, packed);
    }

    #[test]
    fn unparseable_bytes_are_not_cached() {
        let cache = EdgeCache::new(EdgeCacheConfig::auto(1 << 20), 0);
        cache.insert(9, b"definitely not a tile");
        assert!(!cache.contains(9));
    }

    #[test]
    fn zero_capacity_cache_never_stores() {
        let cache = EdgeCache::new(
            EdgeCacheConfig {
                capacity_bytes: 0,
                mode: CacheMode::Fixed(Codec::Raw),
            },
            0,
        );
        cache.insert(0, &tile(0, 5).to_bytes());
        assert!(cache.get(0).is_none());
        assert_eq!(cache.stats().hit_ratio(), 0.0);
    }
}
