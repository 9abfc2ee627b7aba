//! Text profile reports — the kind of breakdown the paper's MALP tool
//! (§8) renders from section data: per-section share of the execution,
//! imbalance columns, and the partial-speedup-bound ranking that tells the
//! user which region caps their scaling.

use crate::balance::BalanceReport;
use crate::profiler::{Profile, SectionStats};
use crate::section::MPI_MAIN;

/// Options controlling report rendering.
#[derive(Debug, Clone)]
pub struct ReportOptions {
    /// Sort sections by exclusive (true) or inclusive (false) time.
    pub sort_by_exclusive: bool,
    /// Cap the number of sections shown (0 = all).
    pub top: usize,
    /// Include the per-section load-balance block.
    pub with_balance: bool,
}

impl Default for ReportOptions {
    fn default() -> Self {
        ReportOptions {
            sort_by_exclusive: true,
            top: 0,
            with_balance: true,
        }
    }
}

/// Render a human-readable profile report.
pub fn render(profile: &Profile, opts: &ReportOptions) -> String {
    let mut sections: Vec<&SectionStats> = profile
        .sections()
        .filter(|s| s.key.label != MPI_MAIN)
        .collect();
    let keyf = |s: &SectionStats| {
        if opts.sort_by_exclusive {
            s.total_excl_secs
        } else {
            s.total_own_secs
        }
    };
    sections.sort_by(|a, b| {
        keyf(b)
            .partial_cmp(&keyf(a))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    if opts.top > 0 {
        sections.truncate(opts.top);
    }
    let denom: f64 = profile
        .sections()
        .filter(|s| s.key.label != MPI_MAIN)
        .map(|s| s.total_excl_secs)
        .sum();

    let mut out = String::new();
    out.push_str(&format!(
        "{:<32} {:>6} {:>6} {:>12} {:>12} {:>8} {:>10}\n",
        "section", "ranks", "inst", "incl (s)", "excl (s)", "excl %", "imb (s)"
    ));
    out.push_str(&"-".repeat(92));
    out.push('\n');
    for s in &sections {
        let pct = if denom > 0.0 {
            100.0 * s.total_excl_secs / denom
        } else {
            0.0
        };
        out.push_str(&format!(
            "{:<32} {:>6} {:>6} {:>12.3} {:>12.3} {:>7.2}% {:>10.4}\n",
            truncate_label(&s.key.label, 32),
            s.participants,
            s.instances,
            s.total_own_secs,
            s.total_excl_secs,
            pct,
            s.mean_imbalance_secs,
        ));
    }
    if let Some(main) = profile.get_world(MPI_MAIN) {
        out.push_str(&format!(
            "\nMPI_MAIN: {:.3} s inclusive over {} ranks ({:.3} s per rank)\n",
            main.total_own_secs,
            main.participants,
            main.avg_per_rank_secs(),
        ));
    }
    if opts.with_balance {
        let reports = crate::balance::rank_by_saving(profile);
        let interesting: Vec<&BalanceReport> = reports
            .iter()
            .filter(|r| r.potential_saving_secs() > 1e-9)
            .take(5)
            .collect();
        if !interesting.is_empty() {
            out.push_str("\nload balance (largest potential saving first):\n");
            for r in interesting {
                out.push_str("  ");
                out.push_str(&r.summary());
                out.push('\n');
            }
        }
    }
    out
}

/// Render the Eq. 6 bound ranking against a sequential baseline total.
pub fn render_bounds(profile: &Profile, seq_total_secs: f64, p: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "partial speedup bounds (Eq. 6) vs sequential total {seq_total_secs:.2} s at p = {p}:\n"
    ));
    let mut bounds: Vec<(String, f64)> = profile
        .sections()
        .filter(|s| s.key.label != MPI_MAIN)
        .map(|s| {
            let bound = crate::partial_bound(seq_total_secs, s.total_own_secs, p);
            (s.key.label.clone(), bound)
        })
        .collect();
    bounds.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
    for (label, bound) in bounds {
        if bound.is_infinite() {
            out.push_str(&format!("  {label:<32} (no cost: unbounded)\n"));
        } else {
            out.push_str(&format!("  {label:<32} S <= {bound:.2}\n"));
        }
    }
    out
}

/// Truncate a section label to `max` characters for table alignment,
/// marking the cut with `…` (char-safe on multi-byte labels). Public so
/// downstream report renderers (e.g. `speedup::trend`) align the same way.
pub fn truncate_label(label: &str, max: usize) -> String {
    if label.chars().count() <= max {
        label.to_string()
    } else {
        // Char-safe: byte slicing would panic on multi-byte labels.
        let head: String = label.chars().take(max.saturating_sub(1)).collect();
        format!("{head}…")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SectionProfiler, SectionRuntime, VerifyMode};
    use mpisim::WorldBuilder;

    fn sample_profile() -> Profile {
        let sections = SectionRuntime::new(VerifyMode::Active);
        let profiler = SectionProfiler::new();
        sections.attach(profiler.clone());
        let s = sections.clone();
        WorldBuilder::new(4)
            .tool(sections.clone())
            .run(move |p| {
                let world = p.world();
                s.scoped(p, &world, "compute", |p| {
                    p.advance_secs(1.0 + p.world_rank() as f64 * 0.5);
                });
                s.scoped(p, &world, "io", |p| {
                    p.advance_secs(0.25);
                });
            })
            .unwrap();
        profiler.snapshot()
    }

    #[test]
    fn report_lists_sections_by_exclusive_share() {
        let profile = sample_profile();
        let text = render(&profile, &ReportOptions::default());
        assert!(text.contains("compute"));
        assert!(text.contains("io"));
        assert!(text.contains("MPI_MAIN"));
        // compute (7 s total) sorts above io (1 s total). Search at line
        // starts ("section" also contains the substring "io").
        let c = text.find("\ncompute").unwrap();
        let i = text.find("\nio").unwrap();
        assert!(c < i);
        // Balance block flags compute's skew.
        assert!(text.contains("load balance"));
        assert!(text.contains("imbalance x"));
    }

    #[test]
    fn top_truncates() {
        let profile = sample_profile();
        let text = render(
            &profile,
            &ReportOptions {
                top: 1,
                with_balance: false,
                ..Default::default()
            },
        );
        assert!(text.contains("compute"));
        assert!(!text.lines().any(|l| l.starts_with("io")));
    }

    #[test]
    fn bounds_report_sorted_tightest_first() {
        let profile = sample_profile();
        let text = render_bounds(&profile, 10.0, 4);
        let compute_at = text.find("compute").unwrap();
        let io_at = text.find("io ").unwrap_or(text.find("io").unwrap());
        assert!(compute_at < io_at, "tighter bound first:\n{text}");
    }

    #[test]
    fn per_rank_distribution_is_recorded() {
        let profile = sample_profile();
        let compute = profile.get_world("compute").unwrap();
        assert_eq!(compute.per_rank_own.len(), 4);
        // Rank 3 advanced 2.5 s inside compute.
        assert!((compute.per_rank_own[3] - 2.5).abs() < 1e-9);
        assert!((compute.per_rank_own[0] - 1.0).abs() < 1e-9);
        let balance = crate::balance::BalanceReport::for_section(compute).unwrap();
        assert_eq!(balance.max.0, 3);
    }

    #[test]
    fn truncation_helper() {
        assert_eq!(truncate_label("short", 10), "short");
        let long = truncate_label("averyveryverylonglabel", 8);
        assert!(long.chars().count() <= 8);
    }
}
