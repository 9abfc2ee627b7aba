//! Cartesian process-grid helpers (the useful subset of `MPI_Cart_*`).
//!
//! The convolution benchmark uses a 1-D row decomposition; the LULESH proxy
//! uses a cubic 3-D decomposition. Both build on these rank/coordinate
//! mappings, which operate on *local* ranks of any communicator and do not
//! reorder ranks.

/// Balanced factorization of `n` ranks into `ndims` dimensions — the
/// behaviour of `MPI_Dims_create` with all dimensions free: the dims are as
/// close to each other as possible and sorted in decreasing order.
///
/// ```
/// assert_eq!(mpisim::dims_create(64, 3), vec![4, 4, 4]);
/// assert_eq!(mpisim::dims_create(12, 2), vec![4, 3]);
/// ```
pub fn dims_create(n: usize, ndims: usize) -> Vec<usize> {
    assert!(ndims >= 1, "dims_create needs at least one dimension");
    assert!(n >= 1, "dims_create needs at least one rank");
    let mut dims = vec![1usize; ndims];
    let mut remaining = n;
    // Peel prime factors largest-first onto the currently smallest dim.
    let mut factors = Vec::new();
    let mut f = 2;
    while f * f <= remaining {
        while remaining.is_multiple_of(f) {
            factors.push(f);
            remaining /= f;
        }
        f += 1;
    }
    if remaining > 1 {
        factors.push(remaining);
    }
    factors.sort_unstable_by(|a, b| b.cmp(a));
    for factor in factors {
        let smallest = dims
            .iter()
            .enumerate()
            .min_by_key(|(_, &d)| d)
            .map(|(i, _)| i)
            .expect("ndims >= 1");
        dims[smallest] *= factor;
    }
    dims.sort_unstable_by(|a, b| b.cmp(a));
    dims
}

/// A cartesian grid over the local ranks `0..size` of a communicator, in
/// row-major rank order (last dimension varies fastest). Dimensions are
/// non-periodic by default; [`CartGrid::new_periodic`] builds tori.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CartGrid {
    dims: Vec<usize>,
    periodic: Vec<bool>,
}

impl CartGrid {
    /// Build a non-periodic grid; the product of `dims` must equal the
    /// intended size.
    pub fn new(dims: Vec<usize>) -> CartGrid {
        let periodic = vec![false; dims.len()];
        CartGrid::new_periodic(dims, periodic)
    }

    /// Build a grid with per-dimension periodicity (`MPI_Cart_create`'s
    /// `periods` argument): periodic dimensions wrap around.
    pub fn new_periodic(dims: Vec<usize>, periodic: Vec<bool>) -> CartGrid {
        assert!(!dims.is_empty(), "cartesian grid needs dimensions");
        assert!(dims.iter().all(|&d| d > 0), "zero-sized dimension");
        assert_eq!(dims.len(), periodic.len(), "periodicity arity mismatch");
        CartGrid { dims, periodic }
    }

    /// Per-dimension periodicity flags.
    pub fn periodic(&self) -> &[bool] {
        &self.periodic
    }

    /// A 1-D grid of `n` ranks.
    pub fn line(n: usize) -> CartGrid {
        CartGrid::new(vec![n])
    }

    /// A cubic 3-D grid; `n` must be a perfect cube.
    pub fn cube(n: usize) -> CartGrid {
        let side = (n as f64).cbrt().round() as usize;
        assert_eq!(
            side * side * side,
            n,
            "cube grid needs a perfect-cube rank count, got {n}"
        );
        CartGrid::new(vec![side, side, side])
    }

    /// Number of dimensions.
    pub fn ndims(&self) -> usize {
        self.dims.len()
    }

    /// The extents.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Total number of ranks in the grid.
    pub fn size(&self) -> usize {
        self.dims.iter().product()
    }

    /// Coordinates of a local rank (row-major).
    pub fn coords_of(&self, rank: usize) -> Vec<usize> {
        assert!(rank < self.size(), "rank {rank} outside grid");
        let mut coords = vec![0; self.dims.len()];
        let mut rem = rank;
        for (i, &d) in self.dims.iter().enumerate().rev() {
            coords[i] = rem % d;
            rem /= d;
        }
        coords
    }

    /// Local rank at the given coordinates.
    pub fn rank_of(&self, coords: &[usize]) -> usize {
        assert_eq!(coords.len(), self.dims.len(), "coordinate arity mismatch");
        let mut rank = 0;
        for (i, (&c, &d)) in coords.iter().zip(self.dims.iter()).enumerate() {
            assert!(c < d, "coordinate {c} out of range in dim {i}");
            rank = rank * d + c;
        }
        rank
    }

    /// Neighbour of `rank` displaced by `disp` along `dim`. Periodic
    /// dimensions wrap; non-periodic ones return `None` at the boundary
    /// (like `MPI_PROC_NULL`).
    ///
    /// Halo exchanges ask this per message, so it allocates nothing: in
    /// row-major order one step along `dim` is the product of the faster
    /// dimensions, and the coordinate falls out of the rank by that
    /// stride.
    pub fn neighbor(&self, rank: usize, dim: usize, disp: isize) -> Option<usize> {
        assert!(rank < self.size(), "rank {rank} outside grid");
        let d = self.dims[dim] as isize;
        let stride: usize = self.dims[dim + 1..].iter().product();
        let here = rank / stride % self.dims[dim];
        let c = here as isize + disp;
        let c = if self.periodic[dim] {
            c.rem_euclid(d)
        } else if c < 0 || c >= d {
            return None;
        } else {
            c
        };
        Some(rank - here * stride + c as usize * stride)
    }

    /// All face neighbours (±1 along each dimension), `MPI_PROC_NULL`
    /// entries omitted.
    pub fn face_neighbors(&self, rank: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(2 * self.dims.len());
        for dim in 0..self.dims.len() {
            for disp in [-1isize, 1] {
                if let Some(n) = self.neighbor(rank, dim, disp) {
                    out.push(n);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims_create_balanced() {
        assert_eq!(dims_create(8, 3), vec![2, 2, 2]);
        assert_eq!(dims_create(12, 2), vec![4, 3]);
        assert_eq!(dims_create(7, 2), vec![7, 1]);
        assert_eq!(dims_create(64, 3), vec![4, 4, 4]);
        assert_eq!(dims_create(1, 3), vec![1, 1, 1]);
        assert_eq!(dims_create(456, 1), vec![456]);
    }

    #[test]
    fn dims_create_preserves_product() {
        for n in 1..=100 {
            for ndims in 1..=4 {
                let dims = dims_create(n, ndims);
                assert_eq!(dims.iter().product::<usize>(), n, "n={n} ndims={ndims}");
            }
        }
    }

    #[test]
    fn coords_roundtrip() {
        let g = CartGrid::new(vec![3, 4, 5]);
        assert_eq!(g.size(), 60);
        for rank in 0..60 {
            assert_eq!(g.rank_of(&g.coords_of(rank)), rank);
        }
        assert_eq!(g.coords_of(0), vec![0, 0, 0]);
        assert_eq!(g.coords_of(59), vec![2, 3, 4]);
        // Row-major: last dim fastest.
        assert_eq!(g.coords_of(1), vec![0, 0, 1]);
    }

    #[test]
    fn line_neighbors() {
        let g = CartGrid::line(4);
        assert_eq!(g.neighbor(0, 0, -1), None);
        assert_eq!(g.neighbor(0, 0, 1), Some(1));
        assert_eq!(g.neighbor(3, 0, 1), None);
        assert_eq!(g.neighbor(2, 0, -1), Some(1));
    }

    #[test]
    fn cube_construction() {
        let g = CartGrid::cube(27);
        assert_eq!(g.dims(), &[3, 3, 3]);
        // Center rank has 6 face neighbours, corner has 3.
        let center = g.rank_of(&[1, 1, 1]);
        assert_eq!(g.face_neighbors(center).len(), 6);
        assert_eq!(g.face_neighbors(0).len(), 3);
    }

    #[test]
    #[should_panic(expected = "perfect-cube")]
    fn cube_rejects_noncube() {
        let _ = CartGrid::cube(10);
    }

    #[test]
    fn periodic_dimensions_wrap() {
        let g = CartGrid::new_periodic(vec![4], vec![true]);
        assert_eq!(g.neighbor(0, 0, -1), Some(3));
        assert_eq!(g.neighbor(3, 0, 1), Some(0));
        assert_eq!(g.neighbor(1, 0, 6), Some(3)); // wraps past the end
        assert_eq!(g.neighbor(0, 0, -9), Some(3));
        // A ring's every rank has exactly 2 distinct face neighbours.
        for r in 0..4 {
            assert_eq!(g.face_neighbors(r).len(), 2);
        }
    }

    #[test]
    fn mixed_periodicity() {
        // A cylinder: periodic in dim 1 only.
        let g = CartGrid::new_periodic(vec![3, 4], vec![false, true]);
        assert_eq!(g.neighbor(0, 0, -1), None);
        let wrapped = g.neighbor(0, 1, -1).unwrap();
        assert_eq!(g.coords_of(wrapped), vec![0, 3]);
        assert_eq!(g.periodic(), &[false, true]);
    }

    #[test]
    #[should_panic(expected = "periodicity arity mismatch")]
    fn periodicity_arity_checked() {
        let _ = CartGrid::new_periodic(vec![2, 2], vec![true]);
    }

    #[test]
    fn neighbor_is_the_coordinate_formulation() {
        // What `neighbor` computed before it went to strides: move one
        // coordinate, map the coordinates back.
        fn by_coords(g: &CartGrid, rank: usize, dim: usize, disp: isize) -> Option<usize> {
            let mut coords = g.coords_of(rank);
            let d = g.dims()[dim] as isize;
            let c = coords[dim] as isize + disp;
            if !g.periodic()[dim] && !(0..d).contains(&c) {
                return None;
            }
            coords[dim] = c.rem_euclid(d) as usize;
            Some(g.rank_of(&coords))
        }
        let dims = vec![3, 4, 5];
        for periodic in [vec![false; 3], vec![true; 3], vec![true, false, true]] {
            let g = CartGrid::new_periodic(dims.clone(), periodic);
            for rank in 0..g.size() {
                for dim in 0..3 {
                    for disp in -7..=7 {
                        assert_eq!(
                            g.neighbor(rank, dim, disp),
                            by_coords(&g, rank, dim, disp),
                            "{g:?} rank {rank} dim {dim} disp {disp}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside grid")]
    fn neighbor_of_a_rank_outside_the_grid_panics() {
        let _ = CartGrid::new(vec![3, 4, 5]).neighbor(60, 2, -1);
    }

    #[test]
    fn displacement_beyond_one() {
        let g = CartGrid::line(10);
        assert_eq!(g.neighbor(5, 0, 3), Some(8));
        assert_eq!(g.neighbor(5, 0, -6), None);
    }
}
