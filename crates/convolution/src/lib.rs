//! # convolution — the paper's §5.1 benchmark
//!
//! An MPI image-convolution benchmark modelling a stencil simulation code:
//! a three-channel image in double precision is scattered row-wise, a 3×3
//! mean filter runs for many time steps with halo-row exchanges between
//! neighbouring ranks, and the result is gathered and stored. Every phase
//! is outlined with an `MPI_Section` (LOAD, SCATTER, CONVOLVE, HALO,
//! GATHER, STORE — Fig. 4 of the paper).
//!
//! Two fidelity modes let the same code serve correctness tests (real
//! pixels, bit-exact against the sequential reference) and the paper-scale
//! scaling study (virtual payloads, modelled compute); see
//! [`bench::Fidelity`]. Fidelity decides only whether rank 0 loads the
//! image: every scatter, halo and gather then builds one
//! [`mpisim::Payload`] from whether its pixels exist and makes one call,
//! so both modes make the same calls and price the same clock.

pub mod bench;
pub mod decomp2d;
pub mod halo;
pub mod image;
pub mod stencil;

pub use bench::{
    partition_rows, run_convolution, ConvConfig, ConvOutcome, Fidelity, SECTIONS, SECTION_CONVOLVE,
    SECTION_GATHER, SECTION_HALO, SECTION_LOAD, SECTION_SCATTER, SECTION_STORE,
};
pub use decomp2d::{run_convolution_2d, Tile};
pub use halo::{ghost_ratio, halo_bytes_per_step, halo_table, HaloRow};
pub use image::{Image, CHANNELS};
pub use stencil::{codec_work, convolve_band, convolve_work};

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_sections::{SectionProfiler, SectionRuntime, VerifyMode};
    use mpisim::WorldBuilder;
    use std::sync::Arc;

    fn run_distributed(nranks: usize, cfg: ConvConfig) -> (ConvOutcome, mpi_sections::Profile) {
        let sections = SectionRuntime::new(VerifyMode::Active);
        let profiler = SectionProfiler::new();
        sections.attach(profiler.clone());
        let s = sections.clone();
        let cfg = Arc::new(cfg);
        let report = WorldBuilder::new(nranks)
            .machine(machine::presets::nehalem_cluster())
            .seed(11)
            .tool(sections.clone())
            .run(move |p| run_convolution(p, &s, &cfg))
            .unwrap();
        (
            report.results.into_iter().next().unwrap(),
            profiler.snapshot(),
        )
    }

    #[test]
    fn distributed_matches_sequential_reference_exactly() {
        let cfg = ConvConfig::small(20, 17, 3);
        let reference = Image::synthetic(20, 17).mean_filter(3);
        for nranks in [1usize, 2, 3, 5] {
            let (outcome, _) = run_distributed(nranks, cfg.clone());
            let img = outcome.image.expect("rank 0 has the image");
            assert_eq!(
                img.data, reference.data,
                "p={nranks}: distributed result must be bit-exact"
            );
        }
    }

    #[test]
    fn more_ranks_than_rows() {
        // 23 ranks, 17 rows: tail ranks own zero rows and must still
        // traverse every section (collective consistency).
        let cfg = ConvConfig::small(8, 17, 2);
        let reference = Image::synthetic(8, 17).mean_filter(2);
        let (outcome, profile) = run_distributed(23, cfg);
        assert_eq!(outcome.image.unwrap().data, reference.data);
        // All 23 ranks traversed HALO (even if empty).
        let halo = profile.get_world(SECTION_HALO).unwrap();
        assert_eq!(halo.per_instance[0].count, 23);
    }

    #[test]
    fn all_sections_profiled_in_order() {
        let (_, profile) = run_distributed(4, ConvConfig::small(16, 16, 2));
        for label in SECTIONS {
            let s = profile
                .get_world(label)
                .unwrap_or_else(|| panic!("{label} missing"));
            assert!(s.instances >= 1, "{label}");
        }
        let halo = profile.get_world(SECTION_HALO).unwrap();
        let conv = profile.get_world(SECTION_CONVOLVE).unwrap();
        assert_eq!(halo.instances, 2);
        assert_eq!(conv.instances, 2);
    }

    #[test]
    fn timing_mode_has_same_section_structure() {
        let mut cfg = ConvConfig::small(16, 16, 2);
        cfg.fidelity = Fidelity::Timing;
        let (outcome, profile) = run_distributed(4, cfg);
        assert!(outcome.image.is_none());
        for label in SECTIONS {
            assert!(profile.get_world(label).is_some(), "{label} missing");
        }
    }

    #[test]
    fn partition_covers_all_rows() {
        for height in [1usize, 7, 100, 3744] {
            for nranks in [1usize, 3, 8, 456, 500] {
                let mut covered = 0;
                let mut prev_end = 0;
                for r in 0..nranks {
                    let (s, e) = partition_rows(height, nranks, r);
                    assert_eq!(s, prev_end);
                    covered += e - s;
                    prev_end = e;
                }
                assert_eq!(covered, height, "h={height} n={nranks}");
            }
        }
    }

    #[test]
    fn store_writes_result_to_disk() {
        let dir = std::env::temp_dir().join("convolution-store-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("result.ppm");
        let mut cfg = ConvConfig::small(12, 12, 1);
        cfg.store_path = Some(path.clone());
        let (_outcome, _) = run_distributed(3, cfg);
        let stored = Image::read_ppm(&path).unwrap();
        assert_eq!(stored.width, 12);
        assert_eq!(stored.height, 12);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sequential_run_has_zero_halo_time() {
        let (_, profile) = run_distributed(1, ConvConfig::small(16, 16, 3));
        let halo = profile.get_world(SECTION_HALO).unwrap();
        // Sections are entered/exited but no message ever moves: the
        // paper's "communication sequential time is null".
        assert!(halo.total_own_secs < 1e-9, "{}", halo.total_own_secs);
    }

    #[test]
    fn convolve_dominates_sequentially_halo_grows_with_p() {
        // The Fig. 5(a) direction at small scale: CONVOLVE share shrinks
        // and HALO total time grows as ranks are added.
        let cfg = || {
            let mut c = ConvConfig::small(64, 64, 10);
            c.fidelity = Fidelity::Timing;
            c
        };
        let (_, p1) = run_distributed(1, cfg());
        let (_, p8) = run_distributed(8, cfg());
        let conv1 = p1.get_world(SECTION_CONVOLVE).unwrap().total_own_secs;
        let halo1 = p1.get_world(SECTION_HALO).unwrap().total_own_secs;
        let halo8 = p8.get_world(SECTION_HALO).unwrap().total_own_secs;
        assert!(conv1 > 0.0);
        assert!(halo1 < 1e-9);
        assert!(halo8 > 0.0, "halo time appears with parallelism");
    }
}
