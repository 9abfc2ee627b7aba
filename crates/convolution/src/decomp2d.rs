//! 2-D (tile) domain decomposition of the convolution benchmark.
//!
//! The paper's benchmark splits 1-D ("when splitting in 1D as done in this
//! benchmark, the number of halo-cells is constant"); its §3 argues that
//! higher-dimensional decompositions trade communication volume against
//! memory per rank. This module implements the 2-D variant with full
//! 8-neighbour halo exchange (the 3×3 stencil needs the diagonal corner
//! cells too), bit-exact against the sequential reference, so the 1-D/2-D
//! comparison of the `halo` module can be validated by execution.

use crate::bench::{partition_rows, ConvConfig, ConvOutcome, Fidelity};
use crate::image::{Image, CHANNELS};
use crate::stencil::{codec_work, convolve_work};
use mpi_sections::SectionRuntime;
use mpisim::{dims_create, CartGrid, Payload, Proc, Src, TagSel};

/// The eight halo directions, as (drow, dcol).
const DIRS: [(isize, isize); 8] = [
    (-1, 0),
    (1, 0),
    (0, -1),
    (0, 1),
    (-1, -1),
    (-1, 1),
    (1, -1),
    (1, 1),
];

fn opposite(dir: usize) -> usize {
    match dir {
        0 => 1,
        1 => 0,
        2 => 3,
        3 => 2,
        4 => 7,
        5 => 6,
        6 => 5,
        7 => 4,
        _ => unreachable!(),
    }
}

const TAG_BASE: i32 = 400;

/// This rank's tile: its pixel rectangle within the global image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tile {
    pub row_start: usize,
    pub row_end: usize,
    pub col_start: usize,
    pub col_end: usize,
}

impl Tile {
    /// Tile of local rank `rank` on a `grid` over a `width`×`height` image.
    pub fn of(grid: &CartGrid, rank: usize, width: usize, height: usize) -> Tile {
        let coords = grid.coords_of(rank);
        let (grows, gcols) = (grid.dims()[0], grid.dims()[1]);
        let (row_start, row_end) = partition_rows(height, grows, coords[0]);
        let (col_start, col_end) = partition_rows(width, gcols, coords[1]);
        Tile {
            row_start,
            row_end,
            col_start,
            col_end,
        }
    }

    pub fn rows(&self) -> usize {
        self.row_end - self.row_start
    }

    pub fn cols(&self) -> usize {
        self.col_end - self.col_start
    }

    pub fn pixels(&self) -> usize {
        self.rows() * self.cols()
    }

    /// Samples (pixels × channels).
    pub fn samples(&self) -> usize {
        self.pixels() * CHANNELS
    }
}

/// Extract a tile's pixels from the full image (row-major within the
/// tile, channel-interleaved).
pub fn extract_tile(img: &Image, tile: &Tile) -> Vec<f64> {
    let mut out = Vec::with_capacity(tile.samples());
    for y in tile.row_start..tile.row_end {
        let row = &img.data[(y * img.width + tile.col_start) * CHANNELS
            ..(y * img.width + tile.col_end) * CHANNELS];
        out.extend_from_slice(row);
    }
    out
}

/// The edge (or corner) of a tile buffer to send in a given direction.
fn edge_of(tile: &[f64], rows: usize, cols: usize, dir: usize) -> Vec<f64> {
    let stride = cols * CHANNELS;
    let row = |r: usize| &tile[r * stride..(r + 1) * stride];
    let col = |c: usize| -> Vec<f64> {
        (0..rows)
            .flat_map(|r| tile[(r * cols + c) * CHANNELS..(r * cols + c + 1) * CHANNELS].to_vec())
            .collect()
    };
    let px = |r: usize, c: usize| {
        tile[(r * cols + c) * CHANNELS..(r * cols + c + 1) * CHANNELS].to_vec()
    };
    match DIRS[dir] {
        (-1, 0) => row(0).to_vec(),
        (1, 0) => row(rows - 1).to_vec(),
        (0, -1) => col(0),
        (0, 1) => col(cols - 1),
        (-1, -1) => px(0, 0),
        (-1, 1) => px(0, cols - 1),
        (1, -1) => px(rows - 1, 0),
        (1, 1) => px(rows - 1, cols - 1),
        _ => unreachable!(),
    }
}

/// Logical element count of a direction's halo message.
fn edge_elems(rows: usize, cols: usize, dir: usize) -> usize {
    match DIRS[dir] {
        (0, _) => rows * CHANNELS,
        (_, 0) => cols * CHANNELS,
        _ => CHANNELS,
    }
}

/// Build the (rows+2)×(cols+2) expanded tile from the tile plus received
/// halos, clamping edges where no neighbour exists (global border).
fn expand_tile(tile: &[f64], rows: usize, cols: usize, halos: &[Option<Vec<f64>>; 8]) -> Vec<f64> {
    let ecols = cols + 2;
    let erows = rows + 2;
    let mut out = vec![0.0f64; erows * ecols * CHANNELS];
    let src = |r: usize, c: usize| &tile[(r * cols + c) * CHANNELS..(r * cols + c + 1) * CHANNELS];
    // A closure writing one pixel of the expanded buffer.
    let mut put = |er: usize, ec: usize, px: &[f64]| {
        out[(er * ecols + ec) * CHANNELS..(er * ecols + ec + 1) * CHANNELS].copy_from_slice(px);
    };
    // Interior.
    for r in 0..rows {
        for c in 0..cols {
            put(r + 1, c + 1, src(r, c));
        }
    }
    // Edges: halo if present, else clamp to the tile's own border.
    for c in 0..cols {
        let top = halos[0]
            .as_deref()
            .map(|h| &h[c * CHANNELS..(c + 1) * CHANNELS])
            .unwrap_or_else(|| src(0, c));
        put(0, c + 1, top);
        let bottom = halos[1]
            .as_deref()
            .map(|h| &h[c * CHANNELS..(c + 1) * CHANNELS])
            .unwrap_or_else(|| src(rows - 1, c));
        put(rows + 1, c + 1, bottom);
    }
    for r in 0..rows {
        let left = halos[2]
            .as_deref()
            .map(|h| &h[r * CHANNELS..(r + 1) * CHANNELS])
            .unwrap_or_else(|| src(r, 0));
        put(r + 1, 0, left);
        let right = halos[3]
            .as_deref()
            .map(|h| &h[r * CHANNELS..(r + 1) * CHANNELS])
            .unwrap_or_else(|| src(r, cols - 1));
        put(r + 1, cols + 1, right);
    }
    // Corners: diagonal halo if present, else clamp like the reference
    // does (the clamped sample equals the nearest in-image pixel; when an
    // orthogonal neighbour exists but the diagonal does not, the correct
    // clamp is that neighbour's edge cell — copy from the already-filled
    // expanded edges, which hold exactly that).
    type CornerCase = (usize, usize, usize, (usize, usize), (usize, usize));
    let corner_cases: [CornerCase; 4] = [
        // (dir, expanded row, expanded col, vertical fallback, horizontal fallback)
        (4, 0, 0, (0, 1), (1, 0)),
        (5, 0, cols + 1, (0, cols), (1, cols + 1)),
        (6, rows + 1, 0, (rows + 1, 1), (rows, 0)),
        (7, rows + 1, cols + 1, (rows + 1, cols), (rows, cols + 1)),
    ];
    for (dir, er, ec, vfall, hfall) in corner_cases {
        let px: Vec<f64> = if let Some(h) = halos[dir].as_deref() {
            h.to_vec()
        } else {
            // No diagonal neighbour. Clamp: prefer the vertical neighbour's
            // value (already in the expanded top/bottom edge) if the
            // vertical side exists, else the horizontal, else own corner.
            let has_vertical = halos[if DIRS[dir].0 < 0 { 0 } else { 1 }].is_some();
            let has_horizontal = halos[if DIRS[dir].1 < 0 { 2 } else { 3 }].is_some();
            let (fr, fc) = if has_vertical && has_horizontal {
                // Both orthogonal neighbours exist but the diagonal rank
                // is missing — impossible on a full grid.
                unreachable!("full grid: diagonal must exist");
            } else if has_vertical {
                vfall
            } else if has_horizontal {
                hfall
            } else {
                // Global corner: clamp to own corner pixel (already at the
                // adjacent interior position).
                (
                    if DIRS[dir].0 < 0 { 1 } else { rows },
                    if DIRS[dir].1 < 0 { 1 } else { cols },
                )
            };
            out[(fr * ecols + fc) * CHANNELS..(fr * ecols + fc + 1) * CHANNELS].to_vec()
        };
        out[(er * ecols + ec) * CHANNELS..(er * ecols + ec + 1) * CHANNELS].copy_from_slice(&px);
    }
    out
}

/// Convolve the interior of an expanded tile (3×3 mean filter).
fn convolve_expanded(expanded: &[f64], rows: usize, cols: usize) -> Vec<f64> {
    let ecols = cols + 2;
    let mut out = vec![0.0f64; rows * cols * CHANNELS];
    for r in 0..rows {
        for c in 0..cols {
            for ch in 0..CHANNELS {
                let mut acc = 0.0;
                for dr in 0..3 {
                    for dc in 0..3 {
                        acc += expanded[((r + dr) * ecols + (c + dc)) * CHANNELS + ch];
                    }
                }
                out[(r * cols + c) * CHANNELS + ch] = acc / 9.0;
            }
        }
    }
    out
}

/// Run the convolution benchmark on a 2-D tile decomposition. Requires the
/// process grid to fit the image (`grid rows <= height`, `grid cols <=
/// width`). Section structure is identical to the 1-D variant.
pub fn run_convolution_2d(
    p: &mut Proc,
    sections: &SectionRuntime,
    cfg: &ConvConfig,
) -> ConvOutcome {
    let world = p.world();
    let nranks = world.size();
    let rank = world.rank();
    let dims = dims_create(nranks, 2);
    let grid = CartGrid::new(dims.clone());
    assert!(
        dims[0] <= cfg.height && dims[1] <= cfg.width,
        "2-D decomposition: process grid {dims:?} does not fit {}x{}",
        cfg.width,
        cfg.height
    );
    let tile = Tile::of(&grid, rank, cfg.width, cfg.height);
    let coords = grid.coords_of(rank);
    let neighbor = |dir: usize| -> Option<usize> {
        let (dr, dc) = DIRS[dir];
        let nr = coords[0] as isize + dr;
        let nc = coords[1] as isize + dc;
        (nr >= 0 && (nr as usize) < dims[0] && nc >= 0 && (nc as usize) < dims[1])
            .then(|| grid.rank_of(&[nr as usize, nc as usize]))
    };

    // ---- LOAD ------------------------------------------------------------
    let mut full_image: Option<Image> = None;
    sections.scoped(p, &world, crate::bench::SECTION_LOAD, |p| {
        if rank == 0 {
            if cfg.fidelity == Fidelity::Full {
                full_image = Some(Image::synthetic(cfg.width, cfg.height));
            }
            p.compute(codec_work(cfg.samples()));
        }
    });

    // ---- SCATTER ----------------------------------------------------------
    // From here on the pixels exist exactly where the image did.
    let mut data: Option<Vec<f64>> = None;
    sections.scoped(p, &world, crate::bench::SECTION_SCATTER, |p| {
        let tiles = (rank == 0).then(|| {
            (0..nranks)
                .map(|r| {
                    let t = Tile::of(&grid, r, cfg.width, cfg.height);
                    let pixels = full_image.as_ref().map(|img| extract_tile(img, &t));
                    Payload::maybe(pixels, t.samples())
                })
                .collect()
        });
        data = world.scatterv_payload(p, 0, tiles).into_data();
    });

    let (rows, cols) = (tile.rows(), tile.cols());
    for _step in 0..cfg.steps {
        let mut halos: [Option<Vec<f64>>; 8] = Default::default();
        sections.scoped(p, &world, crate::bench::SECTION_HALO, |p| {
            #[allow(clippy::needless_range_loop)] // dir indexes DIRS and halos
            for dir in 0..8 {
                if let Some(nbr) = neighbor(dir) {
                    let mine = data.as_deref().map(|d| edge_of(d, rows, cols, dir));
                    let got = world.sendrecv_payload(
                        p,
                        nbr,
                        TAG_BASE + dir as i32,
                        Payload::maybe(mine, edge_elems(rows, cols, dir)),
                        Src::Rank(nbr),
                        TagSel::Is(TAG_BASE + opposite(dir) as i32),
                    );
                    halos[dir] = Some(got.data);
                }
            }
        });
        sections.scoped(p, &world, crate::bench::SECTION_CONVOLVE, |p| {
            if tile.pixels() > 0 {
                data = data.take().map(|d| {
                    let expanded = expand_tile(&d, rows, cols, &halos);
                    convolve_expanded(&expanded, rows, cols)
                });
                p.compute(convolve_work(tile.samples()));
            }
        });
    }

    // ---- GATHER -----------------------------------------------------------
    let mut outcome = ConvOutcome::default();
    sections.scoped(p, &world, crate::bench::SECTION_GATHER, |p| {
        let tiles = world.gatherv_payload(p, 0, Payload::maybe(data.take(), tile.samples()));
        // Rank 0 reassembles the image where the tiles carry pixels.
        let pixels: Option<Vec<Vec<f64>>> = tiles.into_iter().map(Payload::into_data).collect();
        if let (0, Some(tiles)) = (rank, pixels) {
            let mut img = Image::zeros(cfg.width, cfg.height);
            for (r, chunk) in tiles.into_iter().enumerate() {
                let t = Tile::of(&grid, r, cfg.width, cfg.height);
                for (i, row) in (t.row_start..t.row_end).enumerate() {
                    let src = &chunk[i * t.cols() * CHANNELS..(i + 1) * t.cols() * CHANNELS];
                    let at = (row * cfg.width + t.col_start) * CHANNELS;
                    img.data[at..at + src.len()].copy_from_slice(src);
                }
            }
            outcome.checksum = Some(img.checksum());
            outcome.image = Some(img);
        }
    });

    // ---- STORE ------------------------------------------------------------
    sections.scoped(p, &world, crate::bench::SECTION_STORE, |p| {
        if rank == 0 {
            p.compute(codec_work(cfg.samples()));
            if let (Some(path), Some(img)) = (&cfg.store_path, &outcome.image) {
                img.write_ppm(path).expect("store the result image");
            }
        }
    });

    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_sections::{SectionRuntime, VerifyMode};
    use mpisim::WorldBuilder;
    use std::sync::Arc;

    fn run(nranks: usize, cfg: ConvConfig) -> ConvOutcome {
        let sections = SectionRuntime::new(VerifyMode::Active);
        let s = sections.clone();
        let cfg = Arc::new(cfg);
        WorldBuilder::new(nranks)
            .machine(machine::presets::nehalem_cluster())
            .seed(17)
            .run(move |p| run_convolution_2d(p, &s, &cfg))
            .unwrap()
            .results
            .remove(0)
    }

    #[test]
    fn tiles_partition_the_image() {
        let grid = CartGrid::new(dims_create(6, 2));
        let (w, h) = (13, 11);
        let mut covered = vec![0u8; w * h];
        for r in 0..6 {
            let t = Tile::of(&grid, r, w, h);
            for y in t.row_start..t.row_end {
                for x in t.col_start..t.col_end {
                    covered[y * w + x] += 1;
                }
            }
        }
        assert!(covered.iter().all(|&c| c == 1));
    }

    #[test]
    fn distributed_2d_matches_reference_exactly() {
        for (w, h, steps, nranks) in [
            (17, 13, 3, 4),
            (16, 16, 2, 9),
            (10, 20, 2, 6),
            (12, 12, 4, 1),
        ] {
            let reference = Image::synthetic(w, h).mean_filter(steps);
            let outcome = run(nranks, ConvConfig::small(w, h, steps));
            assert_eq!(
                outcome.image.unwrap().data,
                reference.data,
                "w={w} h={h} steps={steps} p={nranks}"
            );
        }
    }

    #[test]
    fn timing_mode_runs_cleanly() {
        let mut cfg = ConvConfig::small(24, 24, 3);
        cfg.fidelity = Fidelity::Timing;
        let outcome = run(9, cfg);
        assert!(outcome.image.is_none());
    }

    #[test]
    fn edge_extraction_shapes() {
        // 2x3 tile with recognizable values.
        let tile: Vec<f64> = (0..2 * 3 * CHANNELS).map(|x| x as f64).collect();
        assert_eq!(edge_of(&tile, 2, 3, 0).len(), 3 * CHANNELS); // top row
        assert_eq!(edge_of(&tile, 2, 3, 2).len(), 2 * CHANNELS); // left col
        assert_eq!(edge_of(&tile, 2, 3, 4).len(), CHANNELS); // corner
        assert_eq!(edge_elems(2, 3, 0), 3 * CHANNELS);
        assert_eq!(edge_elems(2, 3, 3), 2 * CHANNELS);
        assert_eq!(edge_elems(2, 3, 7), CHANNELS);
    }

    #[test]
    fn opposite_directions_pair_up() {
        for dir in 0..8 {
            assert_eq!(opposite(opposite(dir)), dir);
            let (dr, dc) = DIRS[dir];
            let (or, oc) = DIRS[opposite(dir)];
            assert_eq!((dr, dc), (-or, -oc));
        }
    }
}
