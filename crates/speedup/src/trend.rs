//! Trend detection over windowed efficiency series.
//!
//! The paper's Fig. 5b finding — HALO time grows with p because jitter
//! *accumulates* across iterations — is a statement about a *trajectory*,
//! not a total. This module turns the per-window POP metrics of
//! [`mpi_sections::Timeline`] into a machine-readable diagnosis: for each
//! section it fits a least-squares line ([`crate::fit::linear_fit`])
//! through the communication-efficiency series, locates the best
//! two-segment change point, names the dominant wait-state class, and
//! flags the section as *degrading* when both the slope and the total
//! drop clear configurable thresholds. A noise-free machine produces
//! flat series and no flags; with jitter on, idle waves accumulate and
//! the detector names the sliding section and why it slides.

use mpi_sections::timeline::{Timeline, WindowSection};
use mpisim::diag::json_str;
use std::fmt::Write as _;

/// Detection thresholds. The defaults are deliberately conservative:
/// synchronization-free compute phases under jitter wobble by a few
/// percent per run without trending anywhere, so a section is flagged
/// only when its communication efficiency both *slides* (slope) and has
/// *lost ground* overall (drop).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrendConfig {
    /// Minimum windows with data before a fit is attempted.
    pub min_windows: usize,
    /// Flag only slopes steeper than this many efficiency points
    /// (fraction of 1.0) lost per window.
    pub slope_threshold: f64,
    /// Flag only when the fitted line loses at least this much efficiency
    /// end to end.
    pub drop_threshold: f64,
}

impl Default for TrendConfig {
    fn default() -> Self {
        TrendConfig {
            min_windows: 4,
            slope_threshold: 0.002,
            drop_threshold: 0.05,
        }
    }
}

/// The fitted trend of one section's communication efficiency.
#[derive(Debug, Clone, PartialEq)]
pub struct SectionTrend {
    /// Section label.
    pub label: String,
    /// Windows with data (fit sample size).
    pub windows: usize,
    /// Least-squares slope, efficiency per window (negative = degrading).
    pub slope: f64,
    /// Fitted value at the first window with data.
    pub fitted_first: f64,
    /// Fitted value at the last window with data.
    pub fitted_last: f64,
    /// Best two-segment split: the window index where the mean shifts,
    /// if splitting there explains at least half the series variance.
    pub change_point: Option<usize>,
    /// Wait-state class holding the largest share of the section's lost
    /// time: `"late-sender"`, `"coll-wait"` or `"transfer"`.
    pub dominant_wait: &'static str,
    /// True when the fit clears both thresholds — the section's
    /// communication efficiency is sliding, not just noisy.
    pub degrading: bool,
}

impl SectionTrend {
    fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"label\":{},\"windows\":{},\"slope\":{:.6},\"fitted_first\":{:.6},\
             \"fitted_last\":{:.6},\"change_point\":",
            json_str(&self.label),
            self.windows,
            self.slope,
            self.fitted_first,
            self.fitted_last,
        );
        match self.change_point {
            Some(w) => {
                let _ = write!(out, "{w}");
            }
            None => out.push_str("null"),
        }
        let _ = write!(
            out,
            ",\"dominant_wait\":{},\"degrading\":{}}}",
            json_str(self.dominant_wait),
            self.degrading
        );
        out
    }
}

/// Best two-segment mean split of `ys`: returns `(index, gain)` where
/// `gain` is the fraction of the one-mean sum of squared errors removed
/// by splitting before `index`.
fn change_point(ys: &[f64]) -> Option<(usize, f64)> {
    let n = ys.len();
    if n < 4 {
        return None;
    }
    let sse = |s: &[f64]| -> f64 {
        let m = s.iter().sum::<f64>() / s.len() as f64;
        s.iter().map(|y| (y - m) * (y - m)).sum()
    };
    let total = sse(ys);
    if total < 1e-18 {
        return None;
    }
    let mut best = (0usize, f64::INFINITY);
    for k in 2..=(n - 2) {
        let split = sse(&ys[..k]) + sse(&ys[k..]);
        if split < best.1 {
            best = (k, split);
        }
    }
    let gain = 1.0 - best.1 / total;
    Some((best.0, gain))
}

fn dominant_wait(totals: &WindowSection) -> &'static str {
    let ls = totals.late_sender_ns;
    let cw = totals.coll_wait_ns;
    let tr = totals.transfer_ns;
    if ls >= cw && ls >= tr {
        "late-sender"
    } else if cw >= tr {
        "coll-wait"
    } else {
        "transfer"
    }
}

/// Fit every section's communication-efficiency series and flag the
/// degrading ones. Results are sorted steepest-degrading first, then by
/// label, so the headline offender leads the report.
pub fn detect(tl: &Timeline, cfg: &TrendConfig) -> Vec<SectionTrend> {
    let totals = tl.section_totals();
    let mut trends = Vec::new();
    for label in tl.labels() {
        let series = tl.series(label, |ws| ws.efficiency().comm);
        let presence = tl.series(label, |ws| ws.time_ns as f64);
        // Support filter: at the run's edges a section is only marginally
        // present in its boundary windows (ramp-in on some ranks, drain-out
        // on others), and its capacity-normalized efficiency there reads
        // near 1 regardless of behaviour — those windows would drown the
        // real trajectory. Fit only windows carrying at least half the
        // section's median presence.
        let mut support: Vec<f64> = presence.iter().filter_map(|v| *v).collect();
        support.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let median = support.get(support.len() / 2).copied().unwrap_or(0.0);
        let points: Vec<(f64, f64)> = series
            .iter()
            .zip(presence.iter())
            .enumerate()
            .filter_map(|(i, (v, pr))| match (v, pr) {
                (Some(y), Some(pr)) if *pr >= 0.5 * median => Some((i as f64, *y)),
                _ => None,
            })
            .collect();
        if points.len() < cfg.min_windows {
            continue;
        }
        let Some((slope, intercept)) = crate::fit::linear_fit(&points) else {
            continue;
        };
        let first_x = points.first().map(|&(x, _)| x).unwrap_or(0.0);
        let last_x = points.last().map(|&(x, _)| x).unwrap_or(0.0);
        let fitted_first = (intercept + slope * first_x).clamp(0.0, 1.0);
        let fitted_last = (intercept + slope * last_x).clamp(0.0, 1.0);
        let ys: Vec<f64> = points.iter().map(|&(_, y)| y).collect();
        let cp = change_point(&ys)
            .filter(|&(_, gain)| gain > 0.5)
            .map(|(k, _)| points[k].0 as usize);
        let degrading =
            slope <= -cfg.slope_threshold && (fitted_first - fitted_last) >= cfg.drop_threshold;
        trends.push(SectionTrend {
            label: label.to_string(),
            windows: points.len(),
            slope,
            fitted_first,
            fitted_last,
            change_point: cp,
            dominant_wait: dominant_wait(totals.get(label).unwrap_or(&WindowSection::default())),
            degrading,
        });
    }
    trends.sort_by(|a, b| {
        b.degrading
            .cmp(&a.degrading)
            .then(
                a.slope
                    .partial_cmp(&b.slope)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
            .then(a.label.cmp(&b.label))
    });
    trends
}

/// Render the trend table. Degrading sections are marked `DEGRADING` and
/// carry the diagnosis (dominant wait class, change point).
pub fn render(trends: &[SectionTrend]) -> String {
    let mut out = String::from("communication-efficiency trends (least-squares over windows):\n");
    let _ = writeln!(
        out,
        "{:<24} {:>4} {:>12} {:>7} {:>7}  diagnosis",
        "section", "wins", "slope/win", "first", "last"
    );
    out.push_str(&"-".repeat(78));
    out.push('\n');
    for t in trends {
        let diagnosis = if t.degrading {
            let cp = t
                .change_point
                .map(|w| format!(", shift at window {w}"))
                .unwrap_or_default();
            format!("DEGRADING: {} wait{}", t.dominant_wait, cp)
        } else {
            "steady".to_string()
        };
        let _ = writeln!(
            out,
            "{:<24} {:>4} {:>12.5} {:>7.3} {:>7.3}  {}",
            mpi_sections::report::truncate_label(&t.label, 24),
            t.windows,
            t.slope,
            t.fitted_first,
            t.fitted_last,
            diagnosis,
        );
    }
    if !trends.iter().any(|t| t.degrading) {
        out.push_str("no degrading sections: all trajectories within thresholds\n");
    }
    out
}

/// JSON array of the trends (deterministic order and field layout).
pub fn to_json(trends: &[SectionTrend]) -> String {
    let mut out = String::from("[");
    for (i, t) in trends.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&t.to_json());
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_sections::timeline::{build, Windowing};
    use mpi_sections::{CommRecorder, SectionRuntime, VerifyMode};
    use mpisim::{Src, TagSel, WorldBuilder};

    /// A two-rank pipeline where the sender falls further behind every
    /// step: the receiver's wait share — and so the section's
    /// communication inefficiency — grows window over window.
    fn degrading_timeline() -> Timeline {
        let sections = SectionRuntime::new(VerifyMode::Active);
        let rec = CommRecorder::new();
        let s = sections.clone();
        WorldBuilder::new(2)
            .tool(sections.clone())
            .tool(rec.clone())
            .run(move |p| {
                let world = p.world();
                for step in 0..8u64 {
                    s.scoped(p, &world, "PIPE", |p| {
                        let world = p.world();
                        if p.world_rank() == 0 {
                            p.advance_secs(1.0 + step as f64 * 0.5);
                            world.send(p, 1, 0, &[1u8; 8]);
                        } else {
                            p.advance_secs(1.0);
                            let _ = world.recv::<u8>(p, Src::Rank(0), TagSel::Any);
                        }
                    });
                }
            })
            .unwrap();
        build(&rec.freeze(), &Windowing::Fixed(8))
    }

    /// Both ranks do identical compute and exchange promptly: flat.
    fn steady_timeline() -> Timeline {
        let sections = SectionRuntime::new(VerifyMode::Active);
        let rec = CommRecorder::new();
        let s = sections.clone();
        WorldBuilder::new(2)
            .tool(sections.clone())
            .tool(rec.clone())
            .run(move |p| {
                let world = p.world();
                for _ in 0..8u64 {
                    s.scoped(p, &world, "STEP", |p| {
                        let world = p.world();
                        p.advance_secs(1.0);
                        let peer = 1 - p.world_rank();
                        if p.world_rank() == 0 {
                            world.send(p, peer, 0, &[1u8; 8]);
                            let _ = world.recv::<u8>(p, Src::Rank(peer), TagSel::Any);
                        } else {
                            let _ = world.recv::<u8>(p, Src::Rank(peer), TagSel::Any);
                            world.send(p, peer, 0, &[1u8; 8]);
                        }
                    });
                }
            })
            .unwrap();
        build(&rec.freeze(), &Windowing::Fixed(8))
    }

    #[test]
    fn growing_imbalance_is_flagged_with_cause() {
        let trends = detect(&degrading_timeline(), &TrendConfig::default());
        let pipe = trends.iter().find(|t| t.label == "PIPE").unwrap();
        assert!(pipe.degrading, "{pipe:?}");
        assert!(pipe.slope < 0.0);
        assert!(pipe.fitted_first > pipe.fitted_last);
        assert_eq!(pipe.dominant_wait, "late-sender");
        // The degrading section sorts first.
        assert_eq!(trends[0].label, "PIPE");
    }

    #[test]
    fn steady_exchange_is_not_flagged() {
        let trends = detect(&steady_timeline(), &TrendConfig::default());
        assert!(
            trends.iter().all(|t| !t.degrading),
            "{:?}",
            trends
                .iter()
                .map(|t| (&t.label, t.slope))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn change_point_finds_a_step() {
        let mut ys = vec![0.9; 6];
        ys.extend(vec![0.4; 6]);
        let (k, gain) = change_point(&ys).unwrap();
        assert_eq!(k, 6);
        assert!(gain > 0.9, "{gain}");
        // Flat series has no change point.
        assert_eq!(change_point(&[0.5; 8]), None);
        assert_eq!(change_point(&[0.1, 0.9]), None);
    }

    #[test]
    fn render_and_json_are_stable() {
        let trends = detect(&degrading_timeline(), &TrendConfig::default());
        let text = render(&trends);
        assert!(text.contains("DEGRADING: late-sender"), "{text}");
        let json = to_json(&trends);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"dominant_wait\":\"late-sender\""), "{json}");
        assert_eq!(to_json(&[]), "[]");
        let empty = render(&[]);
        assert!(empty.contains("no degrading sections"), "{empty}");
    }
}
