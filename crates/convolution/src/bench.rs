//! The distributed convolution benchmark (paper Fig. 4), outlined with the
//! six MPI sections of §5.1: LOAD, SCATTER, CONVOLVE, HALO, GATHER, STORE.
//!
//! The benchmark runs in two fidelity modes:
//!
//! * [`Fidelity::Full`] — image data really moves and the stencil really
//!   executes; the distributed result is bit-identical to the sequential
//!   reference (`Image::mean_filter`). Used by correctness tests.
//! * [`Fidelity::Timing`] — payloads are virtual (sizes only) and compute
//!   is charged to the virtual clock without touching pixels. This is what
//!   lets the paper-scale configuration (5616×3744 doubles, 1000 steps,
//!   456 ranks) run in seconds.
//!
//! The mode is read once, where rank 0 loads the image. From there the
//! pixels exist (`Some`) or do not, and each message is a
//! [`mpisim::Payload::maybe`] of them: both modes make identical MPI calls
//! with identical logical sizes under identical sections.

use crate::image::{Image, CHANNELS};
use crate::stencil::{codec_work, convolve_band, convolve_work};
use mpi_sections::SectionRuntime;
use mpisim::{Payload, Proc, Src, TagSel};
use std::path::PathBuf;

/// Section labels in program order.
pub const SECTION_LOAD: &str = "LOAD";
pub const SECTION_SCATTER: &str = "SCATTER";
pub const SECTION_CONVOLVE: &str = "CONVOLVE";
pub const SECTION_HALO: &str = "HALO";
pub const SECTION_GATHER: &str = "GATHER";
pub const SECTION_STORE: &str = "STORE";

/// All six benchmark sections, in the order of Fig. 4.
pub const SECTIONS: [&str; 6] = [
    SECTION_LOAD,
    SECTION_SCATTER,
    SECTION_CONVOLVE,
    SECTION_HALO,
    SECTION_GATHER,
    SECTION_STORE,
];

const TAG_UPWARD: i32 = 101; // row travelling to the smaller rank
const TAG_DOWNWARD: i32 = 102; // row travelling to the larger rank

/// Whether pixels really move or only their costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Real data, bit-exact against the sequential reference.
    Full,
    /// Virtual payloads and modelled compute only.
    Timing,
}

/// Benchmark configuration.
#[derive(Debug, Clone)]
pub struct ConvConfig {
    /// Image width in pixels.
    pub width: usize,
    /// Image height in pixels.
    pub height: usize,
    /// Number of convolution time steps.
    pub steps: usize,
    /// Data fidelity.
    pub fidelity: Fidelity,
    /// In `Full` mode, write the result image here (rank 0).
    pub store_path: Option<PathBuf>,
}

impl ConvConfig {
    /// The paper's configuration: 5616×3744 RGB doubles, timing fidelity.
    /// The paper runs 1000 steps; pass fewer to trade resolution for time.
    pub fn paper(steps: usize) -> ConvConfig {
        ConvConfig {
            width: 5616,
            height: 3744,
            steps,
            fidelity: Fidelity::Timing,
            store_path: None,
        }
    }

    /// A small full-fidelity configuration for correctness tests.
    pub fn small(width: usize, height: usize, steps: usize) -> ConvConfig {
        ConvConfig {
            width,
            height,
            steps,
            fidelity: Fidelity::Full,
            store_path: None,
        }
    }

    /// Total channel-samples of the image.
    pub fn samples(&self) -> usize {
        self.width * self.height * CHANNELS
    }
}

/// Contiguous row partition: the rows owned by `rank` out of `nranks`.
pub fn partition_rows(height: usize, nranks: usize, rank: usize) -> (usize, usize) {
    let n = nranks.max(1);
    let base = height / n;
    let extra = height % n;
    let start = rank * base + rank.min(extra);
    let len = base + usize::from(rank < extra);
    (start, start + len)
}

/// Per-rank outcome of a benchmark run.
#[derive(Debug, Clone, Default)]
pub struct ConvOutcome {
    /// The assembled result image (rank 0, `Full` mode only).
    pub image: Option<Image>,
    /// Checksum of the result (rank 0, `Full` mode only).
    pub checksum: Option<f64>,
}

/// Run the benchmark as the SPMD body of a rank. All ranks of the world
/// communicator must call this with the same configuration.
pub fn run_convolution(p: &mut Proc, sections: &SectionRuntime, cfg: &ConvConfig) -> ConvOutcome {
    let world = p.world();
    let nranks = world.size();
    let rank = world.rank();
    let stride = cfg.width * CHANNELS;
    let (row_start, row_end) = partition_rows(cfg.height, nranks, rank);
    let my_rows = row_end - row_start;
    let rows_of = |r: usize| {
        let (s, e) = partition_rows(cfg.height, nranks, r);
        e - s
    };

    // ---- LOAD: decode on rank 0, everyone else passes through. ----------
    let mut full_image: Option<Image> = None;
    sections.scoped(p, &world, SECTION_LOAD, |p| {
        if rank == 0 {
            if cfg.fidelity == Fidelity::Full {
                full_image = Some(Image::synthetic(cfg.width, cfg.height));
            }
            p.compute(codec_work(cfg.samples()));
        }
    });

    // ---- SCATTER: 1-D row split from rank 0. -----------------------------
    // From here on the pixels exist exactly where the image did.
    let mut band: Option<Vec<f64>> = None;
    sections.scoped(p, &world, SECTION_SCATTER, |p| {
        let bands = (rank == 0).then(|| {
            (0..nranks)
                .map(|r| {
                    let (s, e) = partition_rows(cfg.height, nranks, r);
                    let rows = full_image.as_ref().map(|img| img.rows(s, e).to_vec());
                    Payload::maybe(rows, (e - s) * stride)
                })
                .collect()
        });
        band = world.scatterv_payload(p, 0, bands).into_data();
    });

    // ---- Time-step loop: HALO exchange then CONVOLVE. --------------------
    let up = (rank > 0 && my_rows > 0 && rows_of(rank - 1) > 0).then(|| rank - 1);
    let down = (rank + 1 < nranks && my_rows > 0 && rows_of(rank + 1) > 0).then(|| rank + 1);
    let mut halo_top: Option<Vec<f64>> = None;
    let mut halo_bottom: Option<Vec<f64>> = None;

    for _step in 0..cfg.steps {
        sections.scoped(p, &world, SECTION_HALO, |p| {
            // Exchange with the upper neighbour: my first row goes up; its
            // last row comes down.
            if let Some(up) = up {
                let mine = band.as_ref().map(|b| b[..stride].to_vec());
                let got = world.sendrecv_payload(
                    p,
                    up,
                    TAG_UPWARD,
                    Payload::maybe(mine, stride),
                    Src::Rank(up),
                    TagSel::Is(TAG_DOWNWARD),
                );
                halo_top = Some(got.data);
            }
            if let Some(down) = down {
                let mine = band.as_ref().map(|b| b[(my_rows - 1) * stride..].to_vec());
                let got = world.sendrecv_payload(
                    p,
                    down,
                    TAG_DOWNWARD,
                    Payload::maybe(mine, stride),
                    Src::Rank(down),
                    TagSel::Is(TAG_UPWARD),
                );
                halo_bottom = Some(got.data);
            }
        });

        sections.scoped(p, &world, SECTION_CONVOLVE, |p| {
            if my_rows > 0 {
                band = band.take().map(|b| {
                    let (top, bottom) = (halo_top.as_deref(), halo_bottom.as_deref());
                    convolve_band(&b, cfg.width, my_rows, top, bottom)
                });
                p.compute(convolve_work(my_rows * stride));
            }
        });
    }

    // ---- GATHER: collect bands back on rank 0. ----------------------------
    let mut outcome = ConvOutcome::default();
    sections.scoped(p, &world, SECTION_GATHER, |p| {
        let bands = world.gatherv_payload(p, 0, Payload::maybe(band.take(), my_rows * stride));
        // Rank 0 reassembles the image where the bands carry pixels.
        let pixels: Option<Vec<Vec<f64>>> = bands.into_iter().map(Payload::into_data).collect();
        if let (0, Some(bands)) = (rank, pixels) {
            let mut img = Image::zeros(cfg.width, cfg.height);
            let mut offset = 0;
            for chunk in bands {
                img.data[offset..offset + chunk.len()].copy_from_slice(&chunk);
                offset += chunk.len();
            }
            outcome.checksum = Some(img.checksum());
            outcome.image = Some(img);
        }
    });

    // ---- STORE: encode and write on rank 0. -------------------------------
    sections.scoped(p, &world, SECTION_STORE, |p| {
        if rank == 0 {
            p.compute(codec_work(cfg.samples()));
            if let (Some(path), Some(img)) = (&cfg.store_path, &outcome.image) {
                img.write_ppm(path).expect("store the result image");
            }
        }
    });

    outcome
}
