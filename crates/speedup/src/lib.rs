//! # speedup — scaling-law analysis for section profiles
//!
//! The analysis side of the reproduction: classical scaling laws (the
//! canonical speedup of Eq. 1, Amdahl, Gustafson–Barsis) and the paper's
//! contribution, **partial speedup bounding** (Eq. 6): every
//! program section individually bounds the strong-scaling speedup by
//! `Σ_j f_j(n0,1) / f_i(n0,p)`.
//!
//! Building blocks:
//!
//! * [`laws`] — speedup, efficiency, Amdahl, Gustafson;
//! * [`partial`] — Eq. 6 in both "total across ranks" (Fig. 6) and
//!   per-process (§5.2) forms, and the tightest-first ranking;
//! * [`series`] — time-vs-parallelism series with inflexion-point
//!   detection (Fig. 10): the first scale at which a section stops
//!   accelerating already caps the whole program's speedup;
//! * [`study`] — the one per-(scale, section) table: section speedup,
//!   parallel efficiency, Eq. 6 bound and inflexion at every measured
//!   scale against the smallest one. A comparison of two runs is a study
//!   at two scales.

pub mod fit;
pub mod iso;
pub mod laws;
pub mod partial;
pub mod series;
pub mod study;
pub mod trend;

pub use fit::{
    fit_amdahl_serial_fraction, gustafson_serial_fraction, linear_fit, scaled_speedup_measured,
    weak_efficiency,
};
pub use iso::{fit_overhead_power_law, required_work, total_overhead};
pub use laws::{efficiency, speedup};
pub use partial::{partial_bound, partial_bound_per_process, rank_bounds};
pub use series::{ScalePoint, ScalingSeries};
pub use study::{ScalingStudy, SectionStudy, StoredSectionRow};
pub use trend::{SectionTrend, TrendConfig};

#[cfg(test)]
mod tests {
    use super::*;

    /// End-to-end: the bound computed at a small scale must hold (be an
    /// upper bound) for the measured speedups at larger scales when the
    /// bounding section's per-process time does not shrink — the paper's
    /// transposition argument under Fig. 6.
    #[test]
    fn bounds_from_small_scales_hold_at_larger_scales() {
        let seq_total = 5000.0;
        // A section whose per-process time is constant with p (like HALO's
        // message size) while compute shrinks as 1/p.
        let section = 2.0; // seconds per process at every p
        let walltime = |p: usize| 4998.0 / p as f64 + section;
        for p_bound in [8usize, 16, 32] {
            let bound = partial_bound_per_process(seq_total, section);
            for p_measure in [64usize, 128, 456] {
                let s = speedup(walltime(1), walltime(p_measure));
                assert!(
                    s <= bound,
                    "bound {bound} from p={p_bound} violated by S={s} at p={p_measure}"
                );
            }
        }
    }
}
