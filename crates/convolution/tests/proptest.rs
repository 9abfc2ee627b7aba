//! Property tests for the convolution benchmark: the distributed stencil
//! is bit-exact against the sequential reference for arbitrary image
//! shapes, decompositions and step counts.

use convolution::{partition_rows, run_convolution, ConvConfig, Image};
use mpi_sections::{SectionRuntime, VerifyMode};
use mpisim::WorldBuilder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// One generator per case, seeded by the case number.
fn cases(n: u64) -> impl Iterator<Item = StdRng> {
    (0..n).map(StdRng::seed_from_u64)
}

#[test]
fn distributed_equals_reference() {
    for mut rng in cases(12) {
        let width = rng.gen_range(3..24);
        let height = rng.gen_range(3..24);
        let steps = rng.gen_range(0..4);
        let nranks = rng.gen_range(1..9);
        let reference = Image::synthetic(width, height).mean_filter(steps);
        let sections = SectionRuntime::new(VerifyMode::Active);
        let s = sections.clone();
        let cfg = Arc::new(ConvConfig::small(width, height, steps));
        let report = WorldBuilder::new(nranks)
            .machine(machine::presets::nehalem_cluster())
            .seed(99)
            .run(move |p| run_convolution(p, &s, &cfg).image)
            .unwrap();
        let image = report.results[0].clone().expect("rank 0 owns the result");
        assert_eq!(image.data, reference.data);
    }
}

#[test]
fn partition_is_contiguous_and_balanced() {
    for mut rng in cases(32) {
        let (height, nranks) = (rng.gen_range(0..10_000), rng.gen_range(1..512));
        let mut prev_end = 0;
        let base = height / nranks;
        for r in 0..nranks {
            let (s, e) = partition_rows(height, nranks, r);
            assert_eq!(s, prev_end);
            assert!(e - s == base || e - s == base + 1);
            prev_end = e;
        }
        assert_eq!(prev_end, height);
    }
}

#[test]
fn mean_filter_is_a_contraction() {
    for mut rng in cases(32) {
        let (width, height) = (rng.gen_range(2..32), rng.gen_range(2..32));
        // The mean filter never expands the value range.
        let img = Image::synthetic(width, height);
        let out = img.mean_filter_step();
        let min = img.data.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = img.data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for &v in &out.data {
            assert!(v >= min - 1e-12 && v <= max + 1e-12);
        }
    }
}

#[test]
fn ppm_roundtrip_quantization_bound() {
    for mut rng in cases(32) {
        let (width, height) = (rng.gen_range(1..24), rng.gen_range(1..24));
        let salt: u32 = rng.gen_range(0..1000);
        let dir = std::env::temp_dir().join("convolution-proptest");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("img_{width}x{height}_{salt}.ppm"));
        let img = Image::synthetic(width, height);
        img.write_ppm(&path).unwrap();
        let back = Image::read_ppm(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back.width, width);
        assert_eq!(back.height, height);
        for (a, b) in img.data.iter().zip(back.data.iter()) {
            assert!((a - b).abs() <= 0.5 / 255.0 + 1e-9);
        }
    }
}
