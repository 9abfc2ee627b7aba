//! Cross-run profile comparison — the §2 workflow as an API.
//!
//! The partial-speedup methodology needs two measurements: a baseline run
//! (normally sequential) and a parallel run. [`ProfileComparison`] lines
//! the two profiles up section by section and derives, for each section,
//! its own speedup, its share drift, and its Eq. 6 bound on the program —
//! i.e. the table a scaling study reads off first ("which section stopped
//! scaling?").

use crate::profiler::Profile;
use crate::section::MPI_MAIN;

/// Eq. 6 in "total across ranks" form: `seq_total / (section_total / p)`.
/// Every Eq. 6 figure the crates print is this function or the next.
///
/// Returns infinity for a zero-cost section (it does not bound anything).
///
/// ```
/// // The paper's Fig. 6 headline row: B(64) = 5589.84 / (3025.44/64).
/// let b = mpi_sections::partial_bound(5589.84, 3025.44, 64);
/// assert!((b - 118.25).abs() < 0.01);
/// ```
pub fn partial_bound(seq_total_secs: f64, section_total_secs: f64, p: usize) -> f64 {
    if section_total_secs <= 0.0 {
        return f64::INFINITY;
    }
    seq_total_secs / (section_total_secs / p.max(1) as f64)
}

/// Eq. 6 in per-process form: `seq_total / section_per_process`.
pub fn partial_bound_per_process(seq_total_secs: f64, section_secs: f64) -> f64 {
    if section_secs <= 0.0 {
        return f64::INFINITY;
    }
    seq_total_secs / section_secs
}

/// One section's scaling behaviour between two runs.
#[derive(Debug, Clone, PartialEq)]
pub struct SectionScaling {
    /// The label.
    pub label: String,
    /// Total (across ranks) seconds in the baseline run.
    pub base_total_secs: f64,
    /// Total seconds in the target run.
    pub target_total_secs: f64,
    /// Per-process seconds in the target run.
    pub target_per_rank_secs: f64,
    /// The section's own speedup: `base_total / target_per_rank`
    /// (how much faster the section's work completes with p ranks).
    pub section_speedup: f64,
    /// Eq. 6: the bound this section imposes on the whole program,
    /// `base_program_total / target_per_rank`.
    pub program_bound: f64,
}

/// A lined-up comparison of two profiles (world-communicator sections).
#[derive(Debug, Clone, Default)]
pub struct ProfileComparison {
    /// Per-section rows, sorted by ascending `program_bound` (the binding
    /// constraint first).
    pub sections: Vec<SectionScaling>,
    /// Baseline program total (sum of leaf section totals), seconds.
    pub base_program_total_secs: f64,
    /// Target parallelism.
    pub target_p: usize,
}

impl ProfileComparison {
    /// Compare `base` (typically p = 1) against `target` at `target_p`
    /// ranks. Sections appearing in only one run get zero time on the
    /// other side (new sections bound nothing; vanished sections scale
    /// infinitely).
    pub fn between(base: &Profile, target: &Profile, target_p: usize) -> ProfileComparison {
        let mut labels: Vec<String> = base
            .sections()
            .chain(target.sections())
            .filter(|s| s.key.label != MPI_MAIN)
            .map(|s| s.key.label.clone())
            .collect();
        labels.sort();
        labels.dedup();
        // Exclusive times partition the program; inclusive sums would
        // double-count nested sections (Eq. 6's numerator is the total
        // program time).
        let base_program_total_secs: f64 = base
            .world_labels()
            .iter()
            .filter_map(|l| base.get_world(l))
            .map(|s| s.total_excl_secs)
            .sum();
        let mut sections: Vec<SectionScaling> = labels
            .into_iter()
            .map(|label| {
                let base_total = base
                    .get_world(&label)
                    .map(|s| s.total_own_secs)
                    .unwrap_or(0.0);
                let target_total = target
                    .get_world(&label)
                    .map(|s| s.total_own_secs)
                    .unwrap_or(0.0);
                SectionScaling {
                    label,
                    base_total_secs: base_total,
                    target_total_secs: target_total,
                    target_per_rank_secs: target_total / target_p.max(1) as f64,
                    section_speedup: partial_bound(base_total, target_total, target_p),
                    program_bound: partial_bound(base_program_total_secs, target_total, target_p),
                }
            })
            .collect();
        sections.sort_by(|a, b| {
            a.program_bound
                .partial_cmp(&b.program_bound)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        ProfileComparison {
            sections,
            base_program_total_secs,
            target_p,
        }
    }

    /// The binding section (smallest program bound), if any has cost.
    pub fn binding(&self) -> Option<&SectionScaling> {
        self.sections.iter().find(|s| s.program_bound.is_finite())
    }

    /// Sections that are *pure overhead*: zero baseline cost but non-zero
    /// parallel cost (e.g. communication — the paper's "their sequential
    /// time is null, creating a pure overhead").
    pub fn pure_overheads(&self) -> Vec<&SectionScaling> {
        self.sections
            .iter()
            .filter(|s| s.base_total_secs <= 0.0 && s.target_total_secs > 0.0)
            .collect()
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "section scaling vs baseline (program total {:.2} s) at p = {}:\n",
            self.base_program_total_secs, self.target_p
        );
        out.push_str(&format!(
            "{:<32} {:>12} {:>12} {:>12} {:>12}\n",
            "section", "base (s)", "par/rank (s)", "sec speedup", "Eq.6 bound"
        ));
        for s in &self.sections {
            let fmt_inf = |x: f64| {
                if x.is_infinite() {
                    "inf".to_string()
                } else {
                    format!("{x:.2}")
                }
            };
            out.push_str(&format!(
                "{:<32} {:>12.3} {:>12.4} {:>12} {:>12}\n",
                s.label,
                s.base_total_secs,
                s.target_per_rank_secs,
                fmt_inf(s.section_speedup),
                fmt_inf(s.program_bound),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SectionProfiler, SectionRuntime, VerifyMode};
    use machine::Work;
    use mpisim::WorldBuilder;

    fn profile_at(p: usize) -> Profile {
        let sections = SectionRuntime::new(VerifyMode::Active);
        let profiler = SectionProfiler::new();
        sections.attach(profiler.clone());
        let s = sections.clone();
        WorldBuilder::new(p)
            .tool(sections.clone())
            .run(move |proc| {
                let world = proc.world();
                // Perfectly parallel work.
                s.scoped(proc, &world, "work", |proc| {
                    proc.compute(Work::flops(8.0e9 / proc.world_size() as f64));
                });
                // Fixed per-rank overhead, absent sequentially.
                if proc.world_size() > 1 {
                    s.scoped(proc, &world, "comm", |proc| {
                        proc.advance_secs(0.5);
                    });
                } else {
                    s.scoped(proc, &world, "comm", |_| {});
                }
            })
            .unwrap();
        profiler.snapshot()
    }

    #[test]
    fn comparison_derives_bounds_and_binding() {
        let base = profile_at(1);
        let target = profile_at(8);
        let cmp = ProfileComparison::between(&base, &target, 8);
        // Baseline total: 8 s of work (comm free sequentially).
        assert!((cmp.base_program_total_secs - 8.0).abs() < 1e-9);
        let work = cmp.sections.iter().find(|s| s.label == "work").unwrap();
        // Per-rank work at p=8: 1 s -> section speedup 8, bound 8.
        assert!((work.target_per_rank_secs - 1.0).abs() < 1e-9);
        assert!((work.section_speedup - 8.0).abs() < 1e-9);
        let comm = cmp.sections.iter().find(|s| s.label == "comm").unwrap();
        // Pure overhead: 0.5 s/rank -> program bound 16.
        assert!((comm.program_bound - 16.0).abs() < 1e-9);
        assert_eq!(comm.section_speedup, 0.0); // zero base / positive cost
                                               // Binding: work (bound 8 < 16).
        assert_eq!(cmp.binding().unwrap().label, "work");
    }

    #[test]
    fn pure_overheads_identified() {
        let base = profile_at(1);
        let target = profile_at(4);
        let cmp = ProfileComparison::between(&base, &target, 4);
        let overheads = cmp.pure_overheads();
        assert_eq!(overheads.len(), 1);
        assert_eq!(overheads[0].label, "comm");
    }

    #[test]
    fn render_contains_rows() {
        let base = profile_at(1);
        let target = profile_at(2);
        let text = ProfileComparison::between(&base, &target, 2).render();
        assert!(text.contains("work"));
        assert!(text.contains("comm"));
        assert!(text.contains("Eq.6 bound"));
    }

    #[test]
    fn empty_profiles() {
        let cmp = ProfileComparison::between(&Profile::default(), &Profile::default(), 4);
        assert!(cmp.sections.is_empty());
        assert!(cmp.binding().is_none());
        assert!(cmp.pure_overheads().is_empty());
    }
}
