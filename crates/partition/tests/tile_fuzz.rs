//! Tile decoder fuzz: tiles are read back from disks and out of cache blobs,
//! so every malformed blob must come back as `Err` — never a panic, never an
//! abort on a header-sized allocation, and never an `Ok` tile that panics
//! when walked.

use graphh_graph::generators::{GraphGenerator, RmatGenerator};
use graphh_partition::{Spe, SpeConfig, Tile};

/// Byte offsets of the header fields written by `Tile::to_bytes`.
const TARGET_START: usize = 12;
const TARGET_END: usize = 16;
const WEIGHTED: usize = 20;
const NUM_EDGES: usize = 21;
const OFFSETS: usize = 29;

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// A tile over `targets` targets with a random number of in-edges each.
fn random_tile(seed: u64, targets: usize, weighted: bool) -> Tile {
    let mut rng = XorShift(seed);
    let adjacency: Vec<Vec<(u32, f32)>> = (0..targets)
        .map(|_| {
            let degree = (rng.next() % 7) as usize;
            (0..degree)
                .map(|_| {
                    (
                        (rng.next() % 10_000) as u32,
                        (rng.next() % 100) as f32 * 0.25,
                    )
                })
                .collect()
        })
        .collect();
    Tile::from_adjacency(3, 500, &adjacency, weighted)
}

/// Real tiles: unweighted tiles of a partitioned RMAT graph, random weighted
/// and unweighted tiles (with empty targets), and an empty tile.
fn tiles() -> Vec<Tile> {
    let graph = RmatGenerator::new(8, 4).generate(5);
    let config = SpeConfig::with_tile_count("fuzz", &graph, 8);
    let rmat = Spe::partition(&graph, &config).unwrap().tiles;
    let mut out: Vec<Tile> = rmat.into_iter().step_by(3).collect();
    out.push(random_tile(0x9E37_79B9_7F4A_7C15, 40, true));
    out.push(random_tile(0xD1B5_4A32_D192_ED03, 40, false));
    out.push(Tile::from_adjacency(0, 9, &[], true));
    out
}

/// A tile that parsed must be safe to use: every target's in-edges can be
/// walked, the degrees add up, and it re-serializes to the same bytes (bytes,
/// not `==`: a flipped weight may be a NaN).
fn assert_walkable(tile: &Tile, what: &str) {
    let mut edges = 0u64;
    for target in tile.targets() {
        let walked = tile.in_edges(target).count() as u64;
        assert_eq!(walked, u64::from(tile.in_degree(target)), "{what}");
        edges += walked;
    }
    assert_eq!(edges, tile.num_edges(), "{what}");
    let bytes = tile.to_bytes();
    assert_eq!(
        Tile::from_bytes(&bytes).unwrap().to_bytes(),
        bytes,
        "{what}"
    );
}

fn must_reject(bytes: &[u8], what: &str) {
    if let Ok(tile) = Tile::from_bytes(bytes) {
        panic!("{what}: accepted a tile of {} edges", tile.num_edges());
    }
}

#[test]
fn every_tile_roundtrips() {
    for tile in tiles() {
        assert_walkable(&tile, "original");
    }
}

#[test]
fn every_truncation_is_rejected() {
    for tile in tiles() {
        let bytes = tile.to_bytes();
        for len in 0..bytes.len() {
            must_reject(&bytes[..len], &format!("truncated to {len}"));
        }
    }
}

/// A flipped bit in a vertex id, a weight or the tile id is another valid
/// tile; the decoder may accept it, but what it accepts must be walkable.
/// Flips in the magic, the edge count or the first or last offset can never
/// give a consistent tile and must be rejected.
#[test]
fn every_single_bit_flip_errs_or_parses_to_a_walkable_tile() {
    for tile in tiles() {
        let bytes = tile.to_bytes();
        let last_offset = OFFSETS + 8 * tile.num_targets() as usize;
        for pos in 0..bytes.len() {
            let structural = pos < 8
                || (NUM_EDGES..NUM_EDGES + 8).contains(&pos)
                || (OFFSETS..OFFSETS + 8).contains(&pos)
                || (last_offset..last_offset + 8).contains(&pos);
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[pos] ^= 1 << bit;
                let what = format!("bit {bit} of byte {pos}");
                match Tile::from_bytes(&flipped) {
                    Ok(parsed) => {
                        assert!(!structural, "{what}: accepted");
                        assert_walkable(&parsed, &what);
                    }
                    Err(err) => assert!(err.to_string().contains("corrupt"), "{what}: {err}"),
                }
            }
        }
    }
}

/// The header counts say how much to allocate; a blob that claims more
/// elements than it carries must fail before anything of that size is
/// reserved (this used to abort the process on a 32 GiB allocation).
#[test]
fn huge_target_range_is_an_error_not_an_abort() {
    let one_edge = Tile::from_adjacency(0, 0, &[vec![(1, 1.0)]], false).to_bytes();
    let mut bad = one_edge.clone();
    bad[TARGET_END..TARGET_END + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    must_reject(&bad, "target_end = u32::MAX");

    let mut bad = one_edge;
    bad[TARGET_START..TARGET_START + 4].copy_from_slice(&7u32.to_le_bytes());
    bad[TARGET_END..TARGET_END + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    must_reject(&bad, "target range of 2^32 - 8");
}

#[test]
fn huge_edge_count_is_an_error_not_an_abort() {
    for weighted in [false, true] {
        let tile = Tile::from_adjacency(0, 0, &[vec![(1, 1.0)]], weighted).to_bytes();
        for claimed in [1u64 << 40, 1 << 62, u64::MAX] {
            // Claim `claimed` edges, with a last offset that agrees, so the
            // decoder gets past the consistency check to the array lengths.
            let mut bad = tile.clone();
            bad[NUM_EDGES..NUM_EDGES + 8].copy_from_slice(&claimed.to_le_bytes());
            bad[OFFSETS + 8..OFFSETS + 16].copy_from_slice(&claimed.to_le_bytes());
            must_reject(&bad, &format!("num_edges = {claimed}, weighted {weighted}"));
        }
    }
}

#[test]
fn inverted_target_range_is_rejected() {
    let mut bad = random_tile(7, 4, false).to_bytes();
    bad[TARGET_START..TARGET_START + 4].copy_from_slice(&600u32.to_le_bytes());
    let err = Tile::from_bytes(&bad).unwrap_err();
    assert!(err.to_string().contains("inverted"), "{err}");
}

#[test]
fn offsets_that_disagree_with_the_edge_count_are_rejected() {
    let tile = random_tile(11, 6, true);
    let bytes = tile.to_bytes();
    let last_offset = OFFSETS + 8 * tile.num_targets() as usize;
    let edges = tile.num_edges();

    let mut bad = bytes.clone();
    bad[NUM_EDGES..NUM_EDGES + 8].copy_from_slice(&(edges - 1).to_le_bytes());
    let err = Tile::from_bytes(&bad).unwrap_err();
    assert!(err.to_string().contains("edge count"), "{err}");

    let mut bad = bytes.clone();
    bad[last_offset..last_offset + 8].copy_from_slice(&(edges + 1).to_le_bytes());
    let err = Tile::from_bytes(&bad).unwrap_err();
    assert!(err.to_string().contains("edge count"), "{err}");

    // Offsets that do not start at 0, or that descend, would make a walk
    // index past its edges.
    let mut bad = bytes.clone();
    bad[OFFSETS..OFFSETS + 8].copy_from_slice(&1u64.to_le_bytes());
    let err = Tile::from_bytes(&bad).unwrap_err();
    assert!(err.to_string().contains("ascend"), "{err}");

    let mut bad = bytes;
    bad[OFFSETS + 8..OFFSETS + 16].copy_from_slice(&(edges + 5).to_le_bytes());
    let err = Tile::from_bytes(&bad).unwrap_err();
    assert!(err.to_string().contains("ascend"), "{err}");
}

#[test]
fn missing_weight_array_is_rejected() {
    let mut bad = random_tile(13, 8, false).to_bytes();
    bad[WEIGHTED] = 1;
    must_reject(&bad, "weighted flag without weights");
}

#[test]
fn random_bodies_behind_a_valid_magic_never_panic() {
    let mut rng = XorShift(0x2545_F491_4F6C_DD1D);
    for _ in 0..20_000 {
        let len = 8 + (rng.next() % 96) as usize;
        let mut bytes: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
        bytes[..8].copy_from_slice(b"GHTILE01");
        if let Ok(tile) = Tile::from_bytes(&bytes) {
            assert_walkable(&tile, "random body");
        }
    }
}
