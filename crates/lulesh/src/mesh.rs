//! Structured 3-D mesh fields and the cubic domain decomposition.
//!
//! Each MPI process owns an `s × s × s` block of elements (and the
//! `(s+1)³` nodes of its closure) of a globally cubic mesh, placed on a
//! `side × side × side` process grid (Fig. 7: p ∈ {1, 8, 27, 64}).
//! Element-centred fields support face extraction and ghost-face lookup so
//! stencil kernels compute *exactly* what a sequential run computes — the
//! proxy's decomposition-independence test rests on this.

use mpisim::CartGrid;

/// Axis index: 0 = x (fastest), 1 = y, 2 = z (slowest).
pub type Axis = usize;

/// Face side along an axis: 0 = low (coordinate 0), 1 = high.
pub type Side = usize;

/// Index of a face in `[Option<_>; 6]` ghost arrays.
#[inline]
pub fn face_index(axis: Axis, side: Side) -> usize {
    axis * 2 + side
}

/// An element-centred scalar field on the local `s³` block.
/// Layout: `data[(k*s + j)*s + i]` (x fastest).
#[derive(Debug, Clone, PartialEq)]
pub struct Field3 {
    /// Local edge length in elements.
    pub s: usize,
    /// The samples.
    pub data: Vec<f64>,
}

impl Field3 {
    /// A constant field.
    pub fn constant(s: usize, value: f64) -> Field3 {
        Field3 {
            s,
            data: vec![value; s * s * s],
        }
    }

    /// Flat index of `(i, j, k)`.
    #[inline]
    pub fn idx(&self, i: usize, j: usize, k: usize) -> usize {
        (k * self.s + j) * self.s + i
    }

    /// Value at `(i, j, k)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize, k: usize) -> f64 {
        self.data[self.idx(i, j, k)]
    }

    /// Mutable access at `(i, j, k)`.
    #[inline]
    pub fn get_mut(&mut self, i: usize, j: usize, k: usize) -> &mut f64 {
        let idx = self.idx(i, j, k);
        &mut self.data[idx]
    }

    /// Extract the boundary face on `(axis, side)` as a contiguous `s²`
    /// vector, iterated in (slow, fast) order of the two remaining axes.
    pub fn face(&self, axis: Axis, side: Side) -> Vec<f64> {
        let s = self.s;
        let fixed = if side == 0 { 0 } else { s - 1 };
        let mut out = Vec::with_capacity(s * s);
        match axis {
            0 => {
                for k in 0..s {
                    for j in 0..s {
                        out.push(self.get(fixed, j, k));
                    }
                }
            }
            1 => {
                for k in 0..s {
                    for i in 0..s {
                        out.push(self.get(i, fixed, k));
                    }
                }
            }
            2 => {
                for j in 0..s {
                    for i in 0..s {
                        out.push(self.get(i, j, fixed));
                    }
                }
            }
            _ => panic!("axis must be 0..3"),
        }
        out
    }

    /// Value of the neighbour of `(i, j, k)` one step along `(axis, side)`:
    /// a local element when the step stays inside the block, the ghost face
    /// when one exists across the boundary, the element itself otherwise
    /// (reflective / zero-flux at the global border).
    #[inline]
    pub fn neighbor(
        &self,
        ghosts: &FaceGhosts,
        i: usize,
        j: usize,
        k: usize,
        axis: Axis,
        side: Side,
    ) -> f64 {
        let s = self.s;
        let coord = [i, j, k][axis];
        let inside = if side == 0 { coord > 0 } else { coord + 1 < s };
        if inside {
            let (mut ni, mut nj, mut nk) = (i, j, k);
            match axis {
                0 => ni = if side == 0 { i - 1 } else { i + 1 },
                1 => nj = if side == 0 { j - 1 } else { j + 1 },
                _ => nk = if side == 0 { k - 1 } else { k + 1 },
            }
            return self.get(ni, nj, nk);
        }
        match &ghosts.faces[face_index(axis, side)] {
            Some(face) => {
                // The face vector uses (slow, fast) order of the two free
                // axes, matching Field3::face.
                let (a, b) = match axis {
                    0 => (j, k), // fast j, slow k
                    1 => (i, k),
                    _ => (i, j),
                };
                face[b * s + a]
            }
            None => self.get(i, j, k), // reflective at the global border
        }
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }
}

/// Ghost faces of one element field, indexed by [`face_index`].
#[derive(Debug, Clone, Default)]
pub struct FaceGhosts {
    /// `None` where no neighbour exists (global boundary).
    pub faces: [Option<Vec<f64>>; 6],
}

/// The cubic process decomposition.
#[derive(Debug, Clone)]
pub struct Decomposition {
    /// The process grid (side × side × side).
    pub grid: CartGrid,
    /// This process's rank in the grid.
    pub rank: usize,
    /// Grid coordinates, `[cz, cy, cx]` in the grid's row-major order.
    pub coords: Vec<usize>,
    /// The six face neighbours by [`face_index`], resolved once: every
    /// exchange of every iteration asks for them.
    neighbors: [Option<usize>; 6],
    /// Per-process edge length in elements.
    pub s: usize,
}

impl Decomposition {
    /// Build for `nranks` processes (must be a perfect cube).
    pub fn new(nranks: usize, rank: usize, s: usize) -> Decomposition {
        let grid = CartGrid::cube(nranks);
        let coords = grid.coords_of(rank);
        // Mesh axis 0 (x) is grid dim 2; side 0 is one step down.
        let neighbors =
            std::array::from_fn(|face| grid.neighbor(rank, 2 - face / 2, [-1, 1][face % 2]));
        Decomposition {
            grid,
            rank,
            coords,
            neighbors,
            s,
        }
    }

    /// Edge length of the process grid.
    pub fn side(&self) -> usize {
        self.grid.dims()[0]
    }

    /// The grid coordinate along a mesh axis (x = grid dim 2, the fastest).
    #[inline]
    pub fn coord(&self, axis: Axis) -> usize {
        // Mesh axis 0 (x) is the fastest-varying rank dimension (grid dim
        // 2); mesh axis 2 (z) the slowest (grid dim 0).
        self.coords[2 - axis]
    }

    /// Neighbouring rank one step along `(axis, side)`, if any.
    pub fn neighbor(&self, axis: Axis, side: Side) -> Option<usize> {
        self.neighbors[face_index(axis, side)]
    }

    /// Global element offset of this block along a mesh axis.
    pub fn offset(&self, axis: Axis) -> usize {
        self.coord(axis) * self.s
    }

    /// Is this block's `(axis, side)` face on the global boundary?
    pub fn at_global_boundary(&self, axis: Axis, side: Side) -> bool {
        if side == 0 {
            self.coord(axis) == 0
        } else {
            self.coord(axis) + 1 == self.side()
        }
    }

    /// Global edge length in elements.
    pub fn global_elems(&self) -> usize {
        self.side() * self.s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(s: usize) -> Field3 {
        let mut f = Field3::constant(s, 0.0);
        for k in 0..s {
            for j in 0..s {
                for i in 0..s {
                    *f.get_mut(i, j, k) = (i + 10 * j + 100 * k) as f64;
                }
            }
        }
        f
    }

    #[test]
    fn indexing_layout() {
        let f = ramp(4);
        assert_eq!(f.get(1, 2, 3), 321.0);
        assert_eq!(f.idx(1, 0, 0), 1); // x fastest
        assert_eq!(f.idx(0, 1, 0), 4);
        assert_eq!(f.idx(0, 0, 1), 16);
    }

    #[test]
    fn face_extraction() {
        let f = ramp(3);
        // x-low face: i = 0, values 10j + 100k in (j fast, k slow) order.
        let xlow = f.face(0, 0);
        assert_eq!(xlow.len(), 9);
        assert_eq!(xlow[0], 0.0);
        assert_eq!(xlow[1], 10.0); // j=1, k=0
        assert_eq!(xlow[3], 100.0); // j=0, k=1
                                    // z-high face: k = 2.
        let zhigh = f.face(2, 1);
        assert_eq!(zhigh[0], 200.0);
        assert_eq!(zhigh[1], 201.0); // i=1, j=0
    }

    #[test]
    fn neighbor_interior() {
        let f = ramp(4);
        let ghosts = FaceGhosts::default();
        assert_eq!(f.neighbor(&ghosts, 2, 2, 2, 0, 0), f.get(1, 2, 2));
        assert_eq!(f.neighbor(&ghosts, 2, 2, 2, 1, 1), f.get(2, 3, 2));
    }

    #[test]
    fn neighbor_reflects_without_ghost() {
        let f = ramp(4);
        let ghosts = FaceGhosts::default();
        assert_eq!(f.neighbor(&ghosts, 0, 1, 1, 0, 0), f.get(0, 1, 1));
        assert_eq!(f.neighbor(&ghosts, 3, 1, 1, 0, 1), f.get(3, 1, 1));
    }

    #[test]
    fn neighbor_uses_ghost_face() {
        let f = ramp(3);
        let mut ghosts = FaceGhosts::default();
        // A ghost on the x-low face with recognizable values.
        let ghost: Vec<f64> = (0..9).map(|v| 1000.0 + v as f64).collect();
        ghosts.faces[face_index(0, 0)] = Some(ghost);
        // Element (0, j=1, k=2) -> ghost index b*s + a = k*3 + j = 7.
        assert_eq!(f.neighbor(&ghosts, 0, 1, 2, 0, 0), 1007.0);
    }

    #[test]
    fn ghost_face_matches_neighbor_extraction_order() {
        // The ghost my neighbour sends me (their high face) must line up
        // with my low-face lookups: both use (fast, slow) of the free axes.
        let s = 3;
        let left = ramp(s);
        let ghost = left.face(0, 1); // left block's x-high face
        let right = Field3::constant(s, -1.0);
        let mut ghosts = FaceGhosts::default();
        ghosts.faces[face_index(0, 0)] = Some(ghost);
        for k in 0..s {
            for j in 0..s {
                assert_eq!(
                    right.neighbor(&ghosts, 0, j, k, 0, 0),
                    left.get(s - 1, j, k),
                    "j={j} k={k}"
                );
            }
        }
    }

    #[test]
    fn decomposition_coords_and_neighbors() {
        // 8 ranks: 2x2x2 grid. Rank 0 at the origin corner.
        let d0 = Decomposition::new(8, 0, 4);
        assert_eq!(d0.side(), 2);
        assert!(d0.at_global_boundary(0, 0));
        assert!(!d0.at_global_boundary(0, 1));
        assert_eq!(d0.neighbor(0, 0), None);
        // Its x-high neighbour differs in the fastest grid dim.
        let xplus = d0.neighbor(0, 1).unwrap();
        let dx = Decomposition::new(8, xplus, 4);
        assert_eq!(dx.coord(0), 1);
        assert_eq!(dx.coord(1), 0);
        assert_eq!(dx.coord(2), 0);
        assert_eq!(dx.offset(0), 4);
        assert_eq!(d0.global_elems(), 8);
    }

    #[test]
    fn cached_neighbors_are_the_grid_s() {
        for p in [1, 8, 27, 64] {
            for rank in 0..p {
                let d = Decomposition::new(p, rank, 2);
                for axis in 0..3 {
                    for (side, disp) in [(0, -1), (1, 1)] {
                        assert_eq!(
                            d.neighbor(axis, side),
                            d.grid.neighbor(rank, 2 - axis, disp),
                            "p {p} rank {rank} axis {axis} side {side}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn neighbor_relation_is_symmetric() {
        for rank in 0..27 {
            let d = Decomposition::new(27, rank, 2);
            for axis in 0..3 {
                for side in 0..2 {
                    if let Some(n) = d.neighbor(axis, side) {
                        let dn = Decomposition::new(27, n, 2);
                        assert_eq!(
                            dn.neighbor(axis, 1 - side),
                            Some(rank),
                            "rank {rank} axis {axis} side {side}"
                        );
                    } else {
                        assert!(d.at_global_boundary(axis, side));
                    }
                }
            }
        }
    }
}
