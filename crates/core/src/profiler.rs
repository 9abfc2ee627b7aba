//! The section profiler: the "preliminary tool built on top of this
//! interface" the paper uses for both benchmarks (§5).
//!
//! [`SectionProfiler`] implements [`SectionTool`], aggregating every
//! completed section traversal into per-(communicator, label) streaming
//! statistics. After the run, [`SectionProfiler::snapshot`] yields an
//! immutable [`Profile`] that the analysis layer (the `speedup` crate) and
//! the figure harness consume.
//!
//! What grows with the run (one [`InstanceStats`] per instance, two
//! per-rank sums) is held once: `snapshot` shares it with the [`Profile`]
//! and the next leave takes it back, copying only if the `Profile` lives.

use crate::metrics::InstanceStats;
use crate::tool::{EnterInfo, LeaveInfo, SectionTool};
use mpisim::{CommId, Label, SectionData, WorldCell};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Identifies a profiled section.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SectionKey {
    /// Communicator the section was collective over.
    pub comm: CommId,
    /// The label.
    pub label: String,
}

/// What a section accumulates, growing with the run.
#[derive(Default)]
struct Series {
    /// Instances indexed by occurrence.
    instances: Vec<InstanceStats>,
    /// Accumulated inclusive and exclusive seconds per communicator rank
    /// (the §8 load-balance interface needs the per-rank distribution).
    per_rank_own: Vec<f64>,
    per_rank_excl: Vec<f64>,
}

/// Where a section's series is: owned while leaves fold into it, inside
/// the statistics the last snapshot built from it until the next leave.
enum Store {
    Live(Series),
    Shared(SectionStats),
}

impl Default for Store {
    fn default() -> Store {
        Store::Live(Series::default())
    }
}

impl Store {
    /// The series to fold into. Only the first leave after a snapshot
    /// finds it shared: it takes the vectors back if every `Profile` made
    /// from them is gone and copies them otherwise.
    fn live(&mut self) -> &mut Series {
        if let Store::Shared(_) = self {
            if let Store::Shared(stats) = std::mem::take(self) {
                *self = Store::Live(Series {
                    instances: Arc::unwrap_or_clone(stats.per_instance),
                    per_rank_own: Arc::unwrap_or_clone(stats.per_rank_own),
                    per_rank_excl: Arc::unwrap_or_clone(stats.per_rank_excl),
                });
            }
        }
        match self {
            Store::Live(series) => series,
            Store::Shared(_) => unreachable!("taken back above"),
        }
    }
}

#[derive(Default)]
struct SectionAgg {
    /// The section's identity — `None` until the first leave lands here;
    /// the label is named when a snapshot builds the key.
    meta: Option<(CommId, Label)>,
    /// Largest participant count observed.
    participants: usize,
    store: Store,
}

impl SectionAgg {
    /// The section's statistics as a `Profile` holds them: built once per
    /// idle stretch, the vectors moving behind `Arc`s (no element is
    /// copied), and from then on the store only points to them.
    fn stats(&mut self) -> Option<SectionStats> {
        let (comm, label) = self.meta?;
        if let Store::Live(series) = &mut self.store {
            let key = SectionKey {
                comm,
                label: label.name().to_string(),
            };
            let series = std::mem::take(series);
            self.store = Store::Shared(SectionStats::from_series(key, self.participants, series));
        }
        match &self.store {
            Store::Shared(stats) => Some(stats.clone()),
            Store::Live(_) => unreachable!("shared above"),
        }
    }
}

/// The profiler tool. Attach to a [`crate::SectionRuntime`], run, then
/// [`snapshot`](SectionProfiler::snapshot).
///
/// Aggregation is indexed by the runtime's dense section id
/// ([`LeaveInfo::section`]): folding a leave costs one bounds-checked
/// array index and no hashing at all. The sorted [`SectionKey`] view is
/// built once, at [`snapshot`](SectionProfiler::snapshot) time. Because
/// ids are per-runtime, one profiler instance must not be shared between
/// two `SectionRuntime`s.
#[derive(Default)]
pub struct SectionProfiler {
    sections: WorldCell<Vec<SectionAgg>>,
}

impl SectionProfiler {
    /// A fresh profiler behind an `Arc`, ready to attach.
    pub fn new() -> Arc<SectionProfiler> {
        Arc::new(SectionProfiler::default())
    }

    /// Freeze the collected data into an immutable profile, which shares
    /// the per-instance and per-rank vectors with the profiler (no copy).
    pub fn snapshot(&self) -> Profile {
        let mut sections = self.sections.lock();
        let stats = sections.iter_mut().filter_map(SectionAgg::stats);
        Profile {
            sections: stats.map(|s| (s.key.clone(), s)).collect(),
        }
    }
}

impl SectionTool for SectionProfiler {
    fn on_enter(&self, _info: &EnterInfo, _data: &mut SectionData) {
        // All statistics fold in at leave time, when the matching enter
        // timestamp travels in `LeaveInfo`.
    }

    fn wants_enter(&self) -> bool {
        false
    }

    fn on_leave(&self, info: &LeaveInfo, _data: &SectionData) {
        let mut sections = self.sections.lock();
        let slot = info.section as usize;
        if sections.len() <= slot {
            sections.resize_with(slot + 1, SectionAgg::default);
        }
        let agg = &mut sections[slot];
        if agg.meta.is_none() {
            agg.meta = Some((info.comm, info.label));
        }
        agg.participants = agg.participants.max(info.comm_size.max(1));
        let live = agg.store.live();
        let idx = info.occurrence as usize;
        if live.instances.len() <= idx {
            live.instances.resize_with(idx + 1, InstanceStats::default);
        }
        live.instances[idx].record(info.enter_time, info.time, info.exclusive);
        if live.per_rank_own.len() <= info.comm_rank {
            live.per_rank_own.resize(info.comm_rank + 1, 0.0);
            live.per_rank_excl.resize(info.comm_rank + 1, 0.0);
        }
        live.per_rank_own[info.comm_rank] += info.duration.as_secs_f64();
        live.per_rank_excl[info.comm_rank] += info.exclusive.as_secs_f64();
    }
}

/// Immutable per-run profile: one [`SectionStats`] per (comm, label).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profile {
    sections: BTreeMap<SectionKey, SectionStats>,
}

impl Profile {
    /// All profiled sections, in (comm, label) order.
    pub fn sections(&self) -> impl Iterator<Item = &SectionStats> {
        self.sections.values()
    }

    /// Look up a section by communicator and label.
    pub fn get(&self, comm: CommId, label: &str) -> Option<&SectionStats> {
        self.sections.get(&SectionKey {
            comm,
            label: label.to_string(),
        })
    }

    /// Look up a world-communicator section by label.
    pub fn get_world(&self, label: &str) -> Option<&SectionStats> {
        self.get(CommId::WORLD, label)
    }

    /// Labels profiled on the world communicator, excluding `MPI_MAIN`.
    pub fn world_labels(&self) -> Vec<&str> {
        self.sections
            .keys()
            .filter(|k| k.comm == CommId::WORLD && k.label != crate::section::MPI_MAIN)
            .map(|k| k.label.as_str())
            .collect()
    }

    /// Sum of `total_own_secs` over the given labels (world communicator) —
    /// the denominator for percentage breakdowns like Fig. 5(a).
    pub fn total_over(&self, labels: &[&str]) -> f64 {
        labels
            .iter()
            .filter_map(|l| self.get_world(l))
            .map(|s| s.total_own_secs)
            .sum()
    }

    /// Export the per-section summary as CSV (one row per section), for
    /// external analysis pipelines.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "comm,label,participants,instances,total_incl_s,total_excl_s,\
             total_span_s,mean_imbalance_s,mean_entry_imbalance_s\n",
        );
        for s in self.sections() {
            out.push_str(&format!(
                "{},{},{},{},{:.9},{:.9},{:.9},{:.9},{:.9}\n",
                s.key.comm.0,
                csv_field(&s.key.label),
                s.participants,
                s.instances,
                s.total_own_secs,
                s.total_excl_secs,
                s.total_span_secs,
                s.mean_imbalance_secs,
                s.mean_entry_imbalance_secs,
            ));
        }
        out
    }
}

/// A section label as one CSV field (RFC 4180): quoted, with embedded
/// quotes doubled, only when it holds a comma, a quote or a line break.
pub(crate) fn csv_field(label: &str) -> Cow<'_, str> {
    if label.contains([',', '"', '\n', '\r']) {
        Cow::Owned(format!("\"{}\"", label.replace('"', "\"\"")))
    } else {
        Cow::Borrowed(label)
    }
}

/// Aggregated statistics of one section across the whole run.
#[derive(Debug, Clone, PartialEq)]
pub struct SectionStats {
    /// The section's identity.
    pub key: SectionKey,
    /// Number of participating ranks (max observed communicator size).
    pub participants: usize,
    /// Number of instances (occurrences).
    pub instances: u64,
    /// Σ over instances and ranks of the inclusive duration `Tout - Tin`,
    /// in seconds ("total time" in Fig. 5b).
    pub total_own_secs: f64,
    /// Σ of exclusive durations (inclusive minus nested sections).
    pub total_excl_secs: f64,
    /// Σ over instances of the span `Tmax - Tmin` (distributed wall
    /// presence of the section).
    pub total_span_secs: f64,
    /// Mean over instances of the paper's imbalance
    /// `(Tmax - Tmin) - mean(Tsection)`, in seconds.
    pub mean_imbalance_secs: f64,
    /// Mean over instances of the mean entry imbalance, in seconds.
    pub mean_entry_imbalance_secs: f64,
    /// Per-instance statistics, indexed by occurrence.
    pub per_instance: Arc<Vec<InstanceStats>>,
    /// Accumulated inclusive seconds per communicator rank (the §8
    /// load-balance distribution).
    pub per_rank_own: Arc<Vec<f64>>,
    /// Accumulated exclusive seconds per communicator rank.
    pub per_rank_excl: Arc<Vec<f64>>,
}

impl SectionStats {
    fn from_series(key: SectionKey, participants: usize, series: Series) -> SectionStats {
        let instances = &series.instances;
        let n = instances.len().max(1) as f64;
        // The declared communicator size can be unavailable on some paths
        // (e.g. the MPI_MAIN exit at Finalize); the number of ranks that
        // actually completed an instance is always authoritative.
        let participants = participants.max(
            instances
                .iter()
                .map(|i| i.count as usize)
                .max()
                .unwrap_or(0),
        );
        let total_own_secs = instances.iter().map(|i| i.total_own_secs()).sum();
        let total_excl_secs = instances.iter().map(|i| i.total_excl_secs()).sum();
        let total_span_secs = instances.iter().map(|i| i.span().as_secs_f64()).sum();
        let mean_imbalance_secs = instances.iter().map(|i| i.imbalance_secs()).sum::<f64>() / n;
        let mean_entry_imbalance_secs = instances
            .iter()
            .map(|i| i.mean_entry_imbalance_secs())
            .sum::<f64>()
            / n;
        SectionStats {
            key,
            participants,
            instances: instances.len() as u64,
            total_own_secs,
            total_excl_secs,
            total_span_secs,
            mean_imbalance_secs,
            mean_entry_imbalance_secs,
            per_instance: Arc::new(series.instances),
            per_rank_own: Arc::new(series.per_rank_own),
            per_rank_excl: Arc::new(series.per_rank_excl),
        }
    }

    /// Average time per process: `total_own / participants` — the y-axis of
    /// Fig. 5(c).
    pub fn avg_per_rank_secs(&self) -> f64 {
        self.total_own_secs / self.participants.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::section::{SectionRuntime, VerifyMode, MPI_MAIN};
    use machine::Work;
    use mpisim::WorldBuilder;

    fn profile_of<F>(nranks: usize, f: F) -> Profile
    where
        F: Fn(&mut mpisim::Proc, &Arc<SectionRuntime>) + Send + Sync,
    {
        let sections = SectionRuntime::new(VerifyMode::Active);
        let profiler = SectionProfiler::new();
        sections.attach(profiler.clone());
        let s = sections.clone();
        WorldBuilder::new(nranks)
            .tool(sections.clone())
            .run(move |p| f(p, &s))
            .unwrap();
        profiler.snapshot()
    }

    #[test]
    fn mpi_main_is_profiled_implicitly() {
        let profile = profile_of(3, |p, _| {
            p.advance_secs(2.0);
        });
        let main = profile.get_world(MPI_MAIN).expect("MPI_MAIN profiled");
        assert_eq!(main.instances, 1);
        assert_eq!(main.per_instance[0].count, 3);
        assert!((main.total_own_secs - 6.0).abs() < 1e-9);
        assert!((main.avg_per_rank_secs() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn per_section_totals_accumulate_over_instances() {
        let profile = profile_of(2, |p, s| {
            let world = p.world();
            for _ in 0..10 {
                s.scoped(p, &world, "step", |p| p.advance_secs(0.5));
            }
        });
        let step = profile.get_world("step").unwrap();
        assert_eq!(step.instances, 10);
        // 2 ranks x 10 instances x 0.5 s.
        assert!((step.total_own_secs - 10.0).abs() < 1e-9);
        assert!((step.avg_per_rank_secs() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn exclusive_excludes_children() {
        let profile = profile_of(1, |p, s| {
            let world = p.world();
            s.enter(p, &world, "outer");
            p.advance_secs(1.0);
            s.scoped(p, &world, "inner", |p| p.advance_secs(3.0));
            p.advance_secs(1.0);
            s.exit(p, &world, "outer");
        });
        let outer = profile.get_world("outer").unwrap();
        let inner = profile.get_world("inner").unwrap();
        assert!((outer.total_own_secs - 5.0).abs() < 1e-9);
        assert!((outer.total_excl_secs - 2.0).abs() < 1e-9);
        assert!((inner.total_own_secs - 3.0).abs() < 1e-9);
        assert!((inner.total_excl_secs - 3.0).abs() < 1e-9);
        // MPI_MAIN exclusive excludes everything.
        let main = profile.get_world(MPI_MAIN).unwrap();
        assert!(main.total_excl_secs.abs() < 1e-9);
    }

    #[test]
    fn imbalance_reflects_rank_skew() {
        let profile = profile_of(4, |p, s| {
            let world = p.world();
            // Ranks enter the section at different times.
            p.advance_secs(p.world_rank() as f64);
            s.scoped(p, &world, "skewed", |p| p.advance_secs(1.0));
        });
        let skewed = profile.get_world("skewed").unwrap();
        // Enters at 0,1,2,3; exits at 1,2,3,4. Tmin=0, Tmax=4, span=4.
        // Tsection = exits - Tmin = 1,2,3,4 -> mean 2.5. imb = 1.5.
        let inst = &skewed.per_instance[0];
        assert!((inst.span().as_secs_f64() - 4.0).abs() < 1e-9);
        assert!((inst.imbalance_secs() - 1.5).abs() < 1e-9);
        assert!((inst.mean_entry_imbalance_secs() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn world_labels_exclude_main() {
        let profile = profile_of(1, |p, s| {
            let world = p.world();
            s.scoped(p, &world, "a", |_| {});
            s.scoped(p, &world, "b", |_| {});
        });
        let labels = profile.world_labels();
        assert_eq!(labels, vec!["a", "b"]);
        assert!(profile.get_world(MPI_MAIN).is_some());
    }

    #[test]
    fn total_over_sums_selected_sections() {
        let profile = profile_of(1, |p, s| {
            let world = p.world();
            s.scoped(p, &world, "a", |p| p.advance_secs(1.0));
            s.scoped(p, &world, "b", |p| p.advance_secs(3.0));
        });
        assert!((profile.total_over(&["a", "b"]) - 4.0).abs() < 1e-9);
        assert!((profile.total_over(&["a"]) - 1.0).abs() < 1e-9);
        assert_eq!(profile.total_over(&["missing"]), 0.0);
    }

    #[test]
    fn csv_export_has_one_row_per_section() {
        let profile = profile_of(2, |p, s| {
            let world = p.world();
            s.scoped(p, &world, "a", |p| p.advance_secs(1.0));
            s.scoped(p, &world, "b", |_| {});
        });
        let csv = profile.to_csv();
        // Header + MPI_MAIN + a + b.
        assert_eq!(csv.lines().count(), 4);
        assert!(csv.starts_with("comm,label"));
        assert!(csv.contains(",a,2,1,"));
        assert!(csv.contains(",b,2,1,"));
    }

    /// Split one CSV record into fields (RFC 4180 quoting).
    fn csv_fields(row: &str) -> Vec<String> {
        let (mut fields, mut field, mut quoted) = (Vec::new(), String::new(), false);
        let mut chars = row.chars().peekable();
        while let Some(c) = chars.next() {
            match c {
                '"' if quoted && chars.peek() == Some(&'"') => {
                    field.push('"');
                    chars.next();
                }
                '"' => quoted = !quoted,
                ',' if !quoted => fields.push(std::mem::take(&mut field)),
                c => field.push(c),
            }
        }
        fields.push(field);
        fields
    }

    #[test]
    fn a_label_that_needs_quoting_keeps_the_csv_well_formed() {
        let hostile = "a,b \"c\"";
        let profile = profile_of(2, move |p, s| {
            let world = p.world();
            s.scoped(p, &world, hostile, |p| p.advance_secs(1.0));
            s.scoped(p, &world, "plain", |_| {});
        });
        let csv = profile.to_csv();
        let columns = csv_fields(csv.lines().next().unwrap()).len();
        let rows: Vec<Vec<String>> = csv.lines().skip(1).map(csv_fields).collect();
        assert!(rows.iter().all(|row| row.len() == columns), "{csv}");
        let labels: Vec<&str> = rows.iter().map(|row| row[1].as_str()).collect();
        assert_eq!(labels, [MPI_MAIN, hostile, "plain"]);
        // Only the label that needs it is quoted.
        assert!(csv.contains("0,\"a,b \"\"c\"\"\",2,1,"), "{csv}");
        assert!(csv.contains("0,plain,2,1,"), "{csv}");
        assert_eq!(csv_field("line\nbreak"), "\"line\nbreak\"");
    }

    #[test]
    fn sections_on_subcommunicators_are_distinct() {
        let profile = profile_of(4, |p, s| {
            let world = p.world();
            let sub = world
                .split(p, Some((p.world_rank() % 2) as i32), 0)
                .unwrap();
            s.scoped(p, &sub, "local", |p| p.advance_secs(1.0));
        });
        // Two sub-communicators -> two distinct "local" sections.
        let locals: Vec<&SectionStats> = profile
            .sections()
            .filter(|sec| sec.key.label == "local")
            .collect();
        assert_eq!(locals.len(), 2);
        for sec in locals {
            assert_eq!(sec.participants, 2);
            assert!((sec.total_own_secs - 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn profile_survives_compute_noise() {
        let sections = SectionRuntime::new(VerifyMode::Active);
        let profiler = SectionProfiler::new();
        sections.attach(profiler.clone());
        let s = sections.clone();
        WorldBuilder::new(4)
            .machine(machine::presets::nehalem_cluster())
            .seed(7)
            .tool(sections.clone())
            .run(move |p| {
                let world = p.world();
                for _ in 0..5 {
                    s.scoped(p, &world, "work", |p| p.compute(Work::flops(1e8)));
                    world.barrier(p);
                }
            })
            .unwrap();
        let profile = profiler.snapshot();
        let work = profile.get_world("work").unwrap();
        assert_eq!(work.instances, 5);
        assert!(work.total_own_secs > 0.0);
        // With noise, ranks can't be perfectly aligned.
        assert!(work.mean_imbalance_secs > 0.0);
    }
}
