//! The full §2 workflow as one object: feed section rows measured at
//! several scales, get back every section's scaling series, inflexion
//! point and Eq. 6 bound trajectory — plus the program-level verdict
//! ("which section binds, and from which scale on").
//!
//! This is the analysis a tool built on `MPI_Section` ships as its main
//! screen; the `figures` harness and the examples assemble it by hand,
//! [`ScalingStudy`] packages it.

use crate::partial::partial_bound_per_process;
use crate::series::ScalingSeries;
use mpi_sections::MPI_MAIN;
use std::collections::BTreeMap;

/// One section's view across all measured scales.
#[derive(Debug, Clone)]
pub struct SectionStudy {
    /// The label.
    pub label: String,
    /// Per-process time vs scale.
    pub per_process: ScalingSeries,
    /// Eq. 6 bound at each scale (same order as `per_process`).
    pub bounds: Vec<(usize, f64)>,
    /// The scale at which the section's per-process time stops improving
    /// (its inflexion point), if the series is long enough to tell.
    pub inflexion_p: Option<usize>,
}

/// One persisted per-(scale, section) measurement, as the mpistudy run
/// store serves them: no live profile object, just the numbers a stored
/// metrics document carries.
#[derive(Debug, Clone)]
pub struct StoredSectionRow {
    /// Scale (MPI processes, or threads for a thread study).
    pub p: usize,
    /// Section label (world communicator).
    pub label: String,
    /// Inclusive seconds averaged per participating rank.
    pub avg_per_rank_secs: f64,
    /// Exclusive seconds summed over ranks (Eq. 6 numerator material).
    pub total_excl_secs: f64,
}

/// A multi-scale scaling study over section profiles.
#[derive(Debug, Clone)]
pub struct ScalingStudy {
    /// Program walltime (MPI_MAIN per-process) vs scale.
    pub walltime: ScalingSeries,
    /// Sequential program total (sum of leaf sections at the smallest p).
    pub seq_total_secs: f64,
    /// Per-section studies, keyed by label.
    pub sections: BTreeMap<String, SectionStudy>,
}

impl ScalingStudy {
    /// Build from per-(scale, section) rows of world-communicator
    /// sections (sub-communicator sections can share a label across
    /// disjoint communicators and cannot be lined up across scales by
    /// it) — what the `figures` harness has after a run and the mpistudy
    /// store after reading its documents back. Requires at least one row;
    /// the smallest `p` serves as the baseline, and sections missing at
    /// some scales contribute only where present.
    ///
    /// The Eq. 6 numerator is the baseline's total exclusive section time
    /// summed across its ranks. With a sequential baseline (p = 1, the
    /// normal use) that is exactly `Σ_j f_j(n0, 1)`; with a parallel
    /// baseline it is an *estimate* of the sequential total (exact for
    /// work-conserving sections, inflated by whatever overhead the
    /// baseline itself already pays).
    pub fn from_rows(rows: &[StoredSectionRow]) -> ScalingStudy {
        assert!(!rows.is_empty(), "study needs measurements");
        let mut ps: Vec<usize> = rows.iter().map(|r| r.p).collect();
        ps.sort_unstable();
        ps.dedup();
        let base_p = ps[0];
        // Eq. 6's numerator is the *total program time* — the sum of
        // exclusive section times (they partition the run). Summing
        // inclusive times would double-count nested sections.
        // The MPI_MAIN row is the program frame: it feeds the walltime
        // series, never the section studies or the numerator (its
        // exclusive time is unattributed glue, not a leaf section).
        let seq_total_secs: f64 = rows
            .iter()
            .filter(|r| r.p == base_p && r.label != MPI_MAIN)
            .map(|r| r.total_excl_secs)
            .sum();

        let mut walltime_points = Vec::new();
        // Per label: (per-process time points, Eq. 6 bound points).
        type LabelPoints = (Vec<(usize, f64)>, Vec<(usize, f64)>);
        let mut per_label: BTreeMap<String, LabelPoints> = BTreeMap::new();
        for &p in &ps {
            for row in rows.iter().filter(|r| r.p == p) {
                if row.label == MPI_MAIN {
                    walltime_points.push((p, row.avg_per_rank_secs));
                    continue;
                }
                let entry = per_label.entry(row.label.clone()).or_default();
                entry.0.push((p, row.avg_per_rank_secs));
                // Eq. 6 in per-process form: correct both for MPI scaling
                // (participants == p) and for thread scaling (one rank,
                // p counts threads).
                entry.1.push((
                    p,
                    partial_bound_per_process(seq_total_secs, row.avg_per_rank_secs),
                ));
            }
        }

        let sections = per_label
            .into_iter()
            .map(|(label, (series_points, bounds))| {
                let per_process = ScalingSeries::new(series_points);
                let inflexion_p = if per_process.points().len() >= 2 {
                    per_process.inflexion(0.02).map(|pt| pt.p)
                } else {
                    None
                };
                (
                    label.clone(),
                    SectionStudy {
                        label,
                        per_process,
                        bounds,
                        inflexion_p,
                    },
                )
            })
            .collect();

        ScalingStudy {
            walltime: ScalingSeries::new(walltime_points),
            seq_total_secs,
            sections,
        }
    }

    /// The binding section at scale `p`: smallest Eq. 6 bound there.
    pub fn binding_at(&self, p: usize) -> Option<(&str, f64)> {
        self.sections
            .values()
            .filter_map(|s| {
                s.bounds
                    .iter()
                    .find(|(bp, _)| *bp == p)
                    .map(|(_, b)| (s.label.as_str(), *b))
            })
            .filter(|(_, b)| b.is_finite())
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
    }

    /// Sections that have passed their inflexion point before the largest
    /// measured scale — the paper's "should never be ran" configurations.
    pub fn saturated_sections(&self) -> Vec<&SectionStudy> {
        let max_p = self
            .walltime
            .points()
            .last()
            .map(|pt| pt.p)
            .unwrap_or(usize::MAX);
        self.sections
            .values()
            .filter(|s| s.inflexion_p.map(|p| p < max_p).unwrap_or(false))
            .collect()
    }

    /// Measured program speedups relative to the smallest scale.
    pub fn speedups(&self) -> Vec<(usize, f64)> {
        self.walltime.speedups()
    }

    /// Render the study as an aligned text summary.
    pub fn render(&self) -> String {
        let mut out = format!(
            "scaling study: baseline total {:.2} s, scales {:?}\n",
            self.seq_total_secs,
            self.walltime
                .points()
                .iter()
                .map(|pt| pt.p)
                .collect::<Vec<_>>()
        );
        out.push_str(&format!(
            "{:<28} {:>10} {:>14} {:>12}\n",
            "section", "inflexion", "bound@max (x)", "t/proc@max"
        ));
        for s in self.sections.values() {
            let last_bound = s
                .bounds
                .last()
                .map(|(_, b)| {
                    if b.is_finite() {
                        format!("{b:.1}")
                    } else {
                        "inf".into()
                    }
                })
                .unwrap_or_default();
            let last_t = s
                .per_process
                .points()
                .last()
                .map(|pt| format!("{:.4}", pt.secs))
                .unwrap_or_default();
            out.push_str(&format!(
                "{:<28} {:>10} {:>14} {:>12}\n",
                s.label,
                s.inflexion_p
                    .map(|p| p.to_string())
                    .unwrap_or_else(|| "-".into()),
                last_bound,
                last_t,
            ));
        }
        if let Some(last) = self.walltime.points().last() {
            if let Some((label, bound)) = self.binding_at(last.p) {
                let measured = self.speedups().last().map(|(_, s)| *s).unwrap_or(0.0);
                out.push_str(&format!(
                    "\nat p = {}: measured S = {measured:.2}, binding section '{label}' \
                     caps S <= {bound:.2}\n",
                    last.p
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machine::Work;
    use mpi_sections::{Profile, SectionProfiler, SectionRuntime, VerifyMode};
    use mpisim::WorldBuilder;

    /// The study over `(p, profile)` measurements: every world section
    /// (the `MPI_MAIN` frame among them) as a row.
    fn study_of(measurements: &[(usize, Profile)]) -> ScalingStudy {
        let rows: Vec<StoredSectionRow> = measurements
            .iter()
            .flat_map(|(p, profile)| {
                profile
                    .sections()
                    .filter(|s| s.key.comm == mpisim::CommId::WORLD)
                    .map(|s| StoredSectionRow {
                        p: *p,
                        label: s.key.label.clone(),
                        avg_per_rank_secs: s.avg_per_rank_secs(),
                        total_excl_secs: s.total_excl_secs,
                    })
            })
            .collect();
        ScalingStudy::from_rows(&rows)
    }

    /// A program with a perfectly parallel phase and a fixed-cost phase.
    fn profile_at(p: usize) -> Profile {
        let sections = SectionRuntime::new(VerifyMode::Active);
        let profiler = SectionProfiler::new();
        sections.attach(profiler.clone());
        let s = sections.clone();
        WorldBuilder::new(p)
            .tool(sections.clone())
            .run(move |proc| {
                let world = proc.world();
                s.scoped(proc, &world, "work", |proc| {
                    proc.compute(Work::flops(6.4e9 / proc.world_size() as f64));
                });
                s.scoped(proc, &world, "fixed", |proc| {
                    proc.advance_secs(0.2);
                });
            })
            .unwrap();
        profiler.snapshot()
    }

    fn study() -> ScalingStudy {
        let ms: Vec<(usize, Profile)> = [1usize, 2, 4, 8, 16, 32]
            .iter()
            .map(|&p| (p, profile_at(p)))
            .collect();
        study_of(&ms)
    }

    #[test]
    fn baseline_and_series() {
        let st = study();
        assert!((st.seq_total_secs - 6.6).abs() < 1e-9);
        let work = &st.sections["work"];
        // Per-process work halves each doubling.
        let pts = work.per_process.points();
        assert!((pts[0].secs - 6.4).abs() < 1e-9);
        assert!((pts[5].secs - 0.2).abs() < 1e-9);
        // Fixed section never improves: inflexion at the first scale.
        assert_eq!(st.sections["fixed"].inflexion_p, Some(1));
        // Work keeps improving: inflexion (min) is the last scale, which
        // is not *before* max_p, so it is not "saturated".
        assert_eq!(work.inflexion_p, Some(32));
        assert_eq!(st.saturated_sections().len(), 1);
    }

    #[test]
    fn binding_section_shifts_with_scale() {
        let st = study();
        // At p=2 the parallel work still dominates (bound 6.6/3.2 ≈ 2.06
        // vs fixed's 33): work binds.
        assert_eq!(st.binding_at(2).unwrap().0, "work");
        // At p=32 work's per-process time (0.2) equals fixed's: both
        // bound at 33; at any larger scale fixed would win. Check the
        // bound values are equal-ish here.
        let (label, bound) = st.binding_at(32).unwrap();
        assert!((bound - 33.0).abs() < 1e-6, "{label} {bound}");
    }

    #[test]
    fn speedups_and_validity() {
        let st = study();
        for (p, s) in st.speedups() {
            if let Some((_, bound)) = st.binding_at(p) {
                assert!(s <= bound + 1e-9, "S={s} > bound {bound} at p={p}");
            }
        }
    }

    #[test]
    fn render_mentions_binding() {
        let text = study().render();
        assert!(text.contains("binding section"));
        assert!(text.contains("work"));
        assert!(text.contains("fixed"));
    }

    #[test]
    #[should_panic(expected = "needs measurements")]
    fn empty_rows_rejected() {
        let _ = ScalingStudy::from_rows(&[]);
    }

    #[test]
    fn nested_sections_do_not_inflate_the_numerator() {
        // A parent section wrapping the work must not double the program
        // total (Eq. 6's numerator sums *exclusive* times).
        let nested_profile = |p: usize| {
            let sections = SectionRuntime::new(VerifyMode::Active);
            let profiler = SectionProfiler::new();
            sections.attach(profiler.clone());
            let s = sections.clone();
            WorldBuilder::new(p)
                .tool(sections.clone())
                .run(move |proc| {
                    let world = proc.world();
                    s.scoped(proc, &world, "loop", |proc| {
                        s.scoped(proc, &world, "work", |proc| {
                            proc.compute(Work::flops(4.0e9 / proc.world_size() as f64));
                        });
                    });
                })
                .unwrap();
            profiler.snapshot()
        };
        let st = study_of(&[(1, nested_profile(1)), (4, nested_profile(4))]);
        // Program total is 4 s, not 8 (loop's exclusive time is ~0).
        assert!(
            (st.seq_total_secs - 4.0).abs() < 1e-9,
            "nested double-count: {}",
            st.seq_total_secs
        );
        // And the measured speedup still respects every bound.
        for (p, s) in st.speedups() {
            if let Some((_, bound)) = st.binding_at(p) {
                assert!(s <= bound + 1e-9);
            }
        }
    }

    #[test]
    fn single_measurement_study() {
        let st = study_of(&[(4, profile_at(4))]);
        assert_eq!(st.walltime.points().len(), 1);
        // One point: no inflexion claims.
        assert!(st.sections["work"].inflexion_p.is_none());
        assert!(st.saturated_sections().is_empty());
    }
}
