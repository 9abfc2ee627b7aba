//! Online event-stream reduction — the lineage of the paper's MALP tool
//! (reference [34], *"Event streaming for online performance measurements
//! reduction"*): instead of storing every section event (like
//! [`crate::TraceTool`], whose memory grows with the event count), reduce
//! the stream *online* into per-label duration histograms with
//! logarithmic buckets. Memory is O(labels × buckets) no matter how many
//! billions of events flow through — the property that makes a tool
//! usable at scale.

use crate::sketch::QuantileSketch;
use crate::tool::{EnterInfo, LeaveInfo, SectionTool};
use mpisim::{SectionData, WorldCell};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Streaming summary of one label's durations: the workspace's one
/// log-bucket histogram. Count, sum and extremes survive the reduction
/// exactly; [`QuantileSketch::half_decade_counts`] is the coarse view
/// exports print.
pub type DurationHistogram = QuantileSketch;

/// A tool reducing the section event stream into per-label histograms.
#[derive(Default)]
pub struct HistogramTool {
    labels: WorldCell<BTreeMap<String, DurationHistogram>>,
}

impl HistogramTool {
    /// A fresh tool behind an `Arc`, ready to attach.
    pub fn new() -> Arc<HistogramTool> {
        Arc::new(HistogramTool::default())
    }

    /// Snapshot the per-label histograms.
    pub fn snapshot(&self) -> BTreeMap<String, DurationHistogram> {
        self.labels.lock().clone()
    }
}

impl SectionTool for HistogramTool {
    fn on_enter(&self, _info: &EnterInfo, _data: &mut SectionData) {}

    fn wants_enter(&self) -> bool {
        false
    }

    fn on_leave(&self, info: &LeaveInfo, _data: &SectionData) {
        self.labels
            .lock()
            .entry(info.label.to_string())
            .or_default()
            .record(info.duration.as_nanos());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SectionRuntime, VerifyMode};
    use machine::VTime;
    use mpisim::WorldBuilder;

    #[test]
    fn exact_aggregates_survive_reduction() {
        let mut h = DurationHistogram::default();
        for ns in [100u64, 200, 300, 1_000_000] {
            h.record(ns);
        }
        assert_eq!(h.total, 4);
        assert_eq!(h.min_ns, 100);
        assert_eq!(h.max_ns, 1_000_000);
        assert!((h.mean_secs() - 250_150.0 * 1e-9).abs() < 1e-15);
    }

    #[test]
    fn memory_is_bounded_by_labels_not_events() {
        // 2 ranks x 500 instances x 2 labels = 2000 events -> 2 entries.
        let sections = SectionRuntime::new(VerifyMode::Off);
        let hist = HistogramTool::new();
        sections.attach(hist.clone());
        let s = sections.clone();
        WorldBuilder::new(2)
            .tool(sections.clone())
            .run(move |p| {
                let world = p.world();
                for i in 0..500u64 {
                    s.scoped(p, &world, "step", |p| {
                        p.advance(VTime::from_nanos(1_000 + i));
                    });
                    s.scoped(p, &world, "sync", |p| p.advance(VTime::from_nanos(50)));
                }
            })
            .unwrap();
        // MPI_MAIN + step + sync.
        let snap = hist.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap["step"].total, 1000);
        assert_eq!(snap["sync"].total, 1000);
        assert_eq!(snap["sync"].min_ns, 50);
        assert!(snap["step"].min_ns >= 1_000);
    }
}
