//! Hexagonal core lattice geometry and channel→core assignment.
//!
//! Imaging fibers pack cores on a triangular (hexagonal) lattice. We use
//! axial coordinates `(q, r)`: the six neighbors of a core are at unit
//! steps, and Euclidean positions follow from the pitch. Channels are
//! assigned to cores spiralling outward from the center, which matches how
//! an imaged square-ish LED array lands on the facet and keeps early
//! channels in the best (central, least-aberrated) region.

use mosaic_units::Length;

/// Axial hex-lattice coordinate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HexCoord {
    /// Axial q coordinate.
    pub q: i32,
    /// Axial r coordinate.
    pub r: i32,
}

impl HexCoord {
    /// The origin (central core).
    pub const CENTER: HexCoord = HexCoord { q: 0, r: 0 };

    /// The six axial direction steps, in counter-clockwise order.
    pub const DIRECTIONS: [HexCoord; 6] = [
        HexCoord { q: 1, r: 0 },
        HexCoord { q: 1, r: -1 },
        HexCoord { q: 0, r: -1 },
        HexCoord { q: -1, r: 0 },
        HexCoord { q: -1, r: 1 },
        HexCoord { q: 0, r: 1 },
    ];

    /// Hex-grid distance (number of lattice steps) to another coordinate.
    pub fn distance(self, other: HexCoord) -> u32 {
        let dq = (self.q - other.q).abs();
        let dr = (self.r - other.r).abs();
        let ds = (self.q + self.r - other.q - other.r).abs();
        ((dq + dr + ds) / 2) as u32
    }

    /// Ring index (distance from center).
    pub fn ring(self) -> u32 {
        self.distance(HexCoord::CENTER)
    }

    /// The six lattice neighbors.
    pub fn neighbors(self) -> [HexCoord; 6] {
        let mut out = [HexCoord::CENTER; 6];
        for (o, d) in out.iter_mut().zip(Self::DIRECTIONS) {
            *o = HexCoord {
                q: self.q + d.q,
                r: self.r + d.r,
            };
        }
        out
    }

    /// Euclidean position in metres for a lattice with the given pitch.
    pub fn position(self, pitch: Length) -> (f64, f64) {
        let p = pitch.as_m();
        let x = p * (self.q as f64 + self.r as f64 / 2.0);
        let y = p * (3f64.sqrt() / 2.0) * self.r as f64;
        (x, y)
    }
}

/// Number of cores in a filled hex lattice of `rings` rings
/// (ring 0 = just the center): `1 + 3·k·(k+1)`.
pub fn cores_in_rings(rings: u32) -> usize {
    1 + 3 * rings as usize * (rings as usize + 1)
}

/// Smallest ring count whose filled lattice holds at least `n` cores.
pub fn rings_for_cores(n: usize) -> u32 {
    let mut k = 0;
    while cores_in_rings(k) < n {
        k += 1;
    }
    k
}

/// A concrete core lattice: coordinates of every usable core, in spiral
/// (center-out) order, with the physical pitch.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreLattice {
    /// Core coordinates in spiral assignment order.
    pub cores: Vec<HexCoord>,
    /// Center-to-center core pitch.
    pub pitch: Length,
    /// Per-core populated-neighbor indices in `DIRECTIONS` order,
    /// `NO_NEIGHBOR` marking unpopulated directions. Precomputed once at
    /// construction so the budget engine's per-channel crosstalk query is
    /// O(1) instead of a linear scan over the whole lattice.
    adjacency: Vec<[u32; 6]>,
}

/// Sentinel for an unpopulated neighbor slot in the adjacency table.
const NO_NEIGHBOR: u32 = u32::MAX;

fn build_adjacency(cores: &[HexCoord]) -> Vec<[u32; 6]> {
    // Dense index grid over |q|, |r| ≤ k with k one ring beyond the
    // outermost core, so every neighbor of a core lands in bounds: one
    // array write per core and six reads, instead of a tree map.
    let k = cores.iter().map(|c| c.ring()).max().unwrap_or(0) as i32 + 1;
    let side = (2 * k + 1) as usize;
    let cell = |c: HexCoord| (c.q + k) as usize * side + (c.r + k) as usize;
    let mut grid = vec![NO_NEIGHBOR; side * side];
    for (i, &c) in cores.iter().enumerate() {
        grid[cell(c)] = i as u32;
    }
    cores
        .iter()
        .map(|c| {
            let mut slots = [NO_NEIGHBOR; 6];
            for (slot, n) in slots.iter_mut().zip(c.neighbors()) {
                *slot = grid[cell(n)];
            }
            slots
        })
        .collect()
}

impl CoreLattice {
    /// Build a lattice with exactly `count` cores assigned spiralling out
    /// from the center.
    pub fn spiral(count: usize, pitch: Length) -> Self {
        assert!(count >= 1, "a lattice needs at least one core");
        let mut cores = Vec::with_capacity(count);
        cores.push(HexCoord::CENTER);
        let mut ring = 1u32;
        'outer: while cores.len() < count {
            // Walk the ring counter-clockwise starting from the "east" spoke.
            let mut c = HexCoord {
                q: ring as i32,
                r: 0,
            };
            for dir in [2usize, 3, 4, 5, 0, 1] {
                for _ in 0..ring {
                    cores.push(c);
                    if cores.len() == count {
                        break 'outer;
                    }
                    let d = HexCoord::DIRECTIONS[dir];
                    c = HexCoord {
                        q: c.q + d.q,
                        r: c.r + d.r,
                    };
                }
            }
            ring += 1;
        }
        let adjacency = build_adjacency(&cores);
        CoreLattice {
            cores,
            pitch,
            adjacency,
        }
    }

    /// Number of cores.
    pub fn len(&self) -> usize {
        self.cores.len()
    }

    /// True if the lattice is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.cores.is_empty()
    }

    /// Indices of populated lattice neighbors of core `idx` (the crosstalk
    /// aggressor set), in `DIRECTIONS` order.
    pub fn neighbor_indices(&self, idx: usize) -> Vec<usize> {
        self.adjacency[idx]
            .iter()
            .filter(|&&n| n != NO_NEIGHBOR)
            .map(|&n| n as usize)
            .collect()
    }

    /// Number of populated lattice neighbors of core `idx`. Allocation-free;
    /// the crosstalk model only needs the aggressor count.
    pub fn neighbor_count(&self, idx: usize) -> usize {
        self.adjacency[idx]
            .iter()
            .filter(|&&n| n != NO_NEIGHBOR)
            .count()
    }

    /// Euclidean distance from the lattice center of core `idx`, metres —
    /// drives radially-varying effects (lens aberration, vignetting).
    pub fn radius_of(&self, idx: usize) -> Length {
        let (x, y) = self.cores[idx].position(self.pitch);
        Length::from_m((x * x + y * y).sqrt())
    }

    /// The largest core radius in the lattice (the image-circle radius the
    /// coupling optics must cover).
    pub fn image_radius(&self) -> Length {
        (0..self.len())
            .map(|i| self.radius_of(i))
            .fold(Length::ZERO, Length::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ring_population() {
        assert_eq!(cores_in_rings(0), 1);
        assert_eq!(cores_in_rings(1), 7);
        assert_eq!(cores_in_rings(2), 19);
        assert_eq!(cores_in_rings(5), 91);
        assert_eq!(rings_for_cores(100), 6); // 127 cores
    }

    #[test]
    fn spiral_has_unique_cores() {
        let lat = CoreLattice::spiral(127, Length::from_um(20.0));
        let mut set: Vec<_> = lat.cores.clone();
        set.sort();
        set.dedup();
        assert_eq!(set.len(), 127);
    }

    #[test]
    fn spiral_fills_rings_in_order() {
        let lat = CoreLattice::spiral(19, Length::from_um(20.0));
        // First 7 cores are rings 0–1, the rest ring 2.
        assert!(lat.cores[..7].iter().all(|c| c.ring() <= 1));
        assert!(lat.cores[7..].iter().all(|c| c.ring() == 2));
    }

    #[test]
    fn interior_core_has_six_neighbors() {
        let lat = CoreLattice::spiral(19, Length::from_um(20.0));
        assert_eq!(lat.neighbor_indices(0).len(), 6); // center
                                                      // A ring-2 (outermost) corner core has fewer populated neighbors.
        let outer = lat.cores.iter().position(|c| c.ring() == 2).unwrap();
        assert!(lat.neighbor_indices(outer).len() < 6);
    }

    #[test]
    fn neighbor_distance_equals_pitch() {
        let pitch = Length::from_um(20.0);
        let a = HexCoord::CENTER.position(pitch);
        for n in HexCoord::CENTER.neighbors() {
            let b = n.position(pitch);
            let d = ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt();
            assert!((d - pitch.as_m()).abs() < 1e-12);
        }
    }

    #[test]
    fn image_radius_grows_with_core_count() {
        let pitch = Length::from_um(20.0);
        let small = CoreLattice::spiral(7, pitch).image_radius();
        let big = CoreLattice::spiral(127, pitch).image_radius();
        assert!(big.as_m() > small.as_m());
        // 127 cores = 6 rings → radius 6·pitch.
        assert!((big.as_um() - 120.0).abs() < 1e-6);
    }

    /// The tree-map adjacency the dense grid replaced: every neighbor
    /// coordinate looked up in a `BTreeMap` from coordinate to index.
    fn tree_adjacency(cores: &[HexCoord]) -> Vec<[u32; 6]> {
        let index: std::collections::BTreeMap<HexCoord, u32> = cores
            .iter()
            .enumerate()
            .map(|(i, &c)| (c, i as u32))
            .collect();
        cores
            .iter()
            .map(|c| {
                let mut slots = [NO_NEIGHBOR; 6];
                for (slot, n) in slots.iter_mut().zip(c.neighbors()) {
                    if let Some(&i) = index.get(&n) {
                        *slot = i;
                    }
                }
                slots
            })
            .collect()
    }

    #[test]
    fn dense_adjacency_matches_tree_map_for_every_count_to_2000() {
        // One spiral of 2000 cores holds every smaller spiral as a prefix.
        let all = CoreLattice::spiral(2000, Length::from_um(20.0)).cores;
        for n in 1..=all.len() {
            let lat = CoreLattice::spiral(n, Length::from_um(20.0));
            assert_eq!(lat.cores, all[..n]);
            assert_eq!(lat.adjacency, tree_adjacency(&lat.cores), "count {n}");
        }
    }

    #[test]
    fn dense_adjacency_handles_arbitrary_core_sets() {
        // Not spiral-shaped: a gap, an off-center core and a far ring.
        let cores = [
            HexCoord { q: 0, r: 0 },
            HexCoord { q: 2, r: -1 },
            HexCoord { q: 1, r: -1 },
            HexCoord { q: -5, r: 5 },
            HexCoord { q: -4, r: 5 },
        ];
        assert_eq!(build_adjacency(&cores), tree_adjacency(&cores));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn dense_adjacency_matches_tree_map(n in 1usize..=10_000) {
            let lat = CoreLattice::spiral(n, Length::from_um(20.0));
            prop_assert_eq!(&lat.adjacency, &tree_adjacency(&lat.cores));
        }
    }

    proptest! {
        #[test]
        fn hex_distance_symmetric(q1 in -8i32..8, r1 in -8i32..8, q2 in -8i32..8, r2 in -8i32..8) {
            let a = HexCoord { q: q1, r: r1 };
            let b = HexCoord { q: q2, r: r2 };
            prop_assert_eq!(a.distance(b), b.distance(a));
        }

        #[test]
        fn hex_distance_triangle_inequality(
            q1 in -6i32..6, r1 in -6i32..6,
            q2 in -6i32..6, r2 in -6i32..6,
            q3 in -6i32..6, r3 in -6i32..6,
        ) {
            let a = HexCoord { q: q1, r: r1 };
            let b = HexCoord { q: q2, r: r2 };
            let c = HexCoord { q: q3, r: r3 };
            prop_assert!(a.distance(c) <= a.distance(b) + b.distance(c));
        }

        #[test]
        fn spiral_count_exact(n in 1usize..400) {
            let lat = CoreLattice::spiral(n, Length::from_um(20.0));
            prop_assert_eq!(lat.len(), n);
        }

        #[test]
        fn adjacency_matches_linear_scan(n in 1usize..200) {
            // The precomputed table must agree with the original O(n) search
            // (same indices, same DIRECTIONS order).
            let lat = CoreLattice::spiral(n, Length::from_um(20.0));
            for idx in 0..lat.len() {
                let me = lat.cores[idx];
                let scanned: Vec<usize> = me
                    .neighbors()
                    .iter()
                    .filter_map(|n| lat.cores.iter().position(|c| c == n))
                    .collect();
                prop_assert_eq!(&lat.neighbor_indices(idx), &scanned);
                prop_assert_eq!(lat.neighbor_count(idx), scanned.len());
            }
        }

        #[test]
        fn neighbors_are_at_unit_distance(q in -8i32..8, r in -8i32..8) {
            let c = HexCoord { q, r };
            for n in c.neighbors() {
                prop_assert_eq!(c.distance(n), 1);
            }
        }
    }
}
