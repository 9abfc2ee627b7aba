//! Crash/context attribution — the paper's §5.3 debugger scenario: "A
//! debugger would tell you that the bug is in the 'communication' section
//! of 'load-balancing', for example."
//!
//! [`ContextTool`] tracks each rank's currently-open section stack. At any
//! moment — in particular after a rank dies — a debugger (or the launch
//! harness) can ask *where* a rank was, phrased in the program's own
//! semantic vocabulary instead of a call stack.

use crate::spine::Spine;
use crate::tool::{EnterInfo, LeaveInfo, SectionTool};
use mpisim::SectionData;
use parking_lot::Mutex;
use std::sync::Arc;

/// Tracks the open-section stack of every rank (across communicators,
/// interleaved in entry order — the semantic "where is this rank now").
#[derive(Default)]
pub struct ContextTool {
    spine: Mutex<Spine<()>>,
}

impl ContextTool {
    /// A fresh context tool behind an `Arc`, ready to attach.
    pub fn new() -> Arc<ContextTool> {
        Arc::new(ContextTool::default())
    }

    /// The rank's open sections, outermost first (empty if idle/unknown).
    pub fn context_of(&self, world_rank: usize) -> Vec<String> {
        let spine = self.spine.lock();
        let frames = spine.ranks().get(world_rank).map(|r| r.tracker.frames());
        let names = spine.interner.names();
        frames
            .unwrap_or_default()
            .iter()
            .map(|&(_, id)| names[id as usize].clone())
            .collect()
    }

    /// A human-readable location string, e.g.
    /// `"MPI_MAIN > timeloop > LagrangeNodal > CommSBN"`.
    pub fn describe(&self, world_rank: usize) -> String {
        let ctx = self.context_of(world_rank);
        if ctx.is_empty() {
            "outside any section".to_string()
        } else {
            ctx.join(" > ")
        }
    }

    /// Ranks currently inside a section with the given label.
    pub fn ranks_in(&self, label: &str) -> Vec<usize> {
        let spine = self.spine.lock();
        let id = spine.interner.id_of(label);
        let ranks = spine.ranks().iter().enumerate();
        ranks
            .filter(|(_, r)| {
                let mut open = r.tracker.frames().iter();
                open.any(|&(_, l)| Some(l) == id)
            })
            .map(|(rank, _)| rank)
            .collect()
    }
}

impl SectionTool for ContextTool {
    fn on_enter(&self, info: &EnterInfo, _data: &mut SectionData) {
        self.spine
            .lock()
            .enter(info.world_rank, info.comm, &info.label);
    }

    fn on_leave(&self, info: &LeaveInfo, _data: &SectionData) {
        self.spine
            .lock()
            .leave(info.world_rank, info.comm, &info.label);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SectionRuntime, VerifyMode};
    use machine::VTime;
    use mpisim::{CommId, WorldBuilder};

    #[test]
    fn crash_location_is_attributed_to_sections() {
        // Rank 1 dies inside HALO (nested in timeloop); the context tool
        // still holds its semantic location after the run fails.
        let sections = SectionRuntime::new(VerifyMode::Off);
        let context = ContextTool::new();
        sections.attach(context.clone());
        let s = sections.clone();
        let result = WorldBuilder::new(2).tool(sections.clone()).run(move |p| {
            let world = p.world();
            s.enter(p, &world, "timeloop");
            s.enter(p, &world, "HALO");
            if p.world_rank() == 1 {
                panic!("segfault-equivalent");
            }
            // Rank 0 blocks on a message its dead peer never sends; the
            // poisoned world unwinds it mid-section.
            let _ = world.recv::<u8>(p, mpisim::Src::Rank(1), mpisim::TagSel::Any);
            s.exit(p, &world, "HALO");
            s.exit(p, &world, "timeloop");
        });
        assert!(result.is_err());
        // The paper's §5.3 sentence, literally: both the crashed rank and
        // the one its death stranded are located semantically.
        assert_eq!(context.describe(1), "MPI_MAIN > timeloop > HALO");
        assert_eq!(context.describe(0), "MPI_MAIN > timeloop > HALO");
        assert_eq!(context.ranks_in("HALO"), vec![0, 1]);
    }

    #[test]
    fn context_clears_on_clean_exit() {
        let sections = SectionRuntime::new(VerifyMode::Active);
        let context = ContextTool::new();
        sections.attach(context.clone());
        let s = sections.clone();
        WorldBuilder::new(1)
            .tool(sections.clone())
            .run(move |p| {
                let world = p.world();
                s.scoped(p, &world, "phase", |_| {});
            })
            .unwrap();
        // MPI_MAIN closed at Finalize; nothing remains open.
        assert_eq!(context.describe(0), "outside any section");
        assert!(context.context_of(0).is_empty());
    }

    #[test]
    fn ranks_in_reports_membership() {
        let tool = ContextTool::default();
        let enter = |rank: usize, label: &str| {
            let info = EnterInfo {
                world_rank: rank,
                comm: CommId::WORLD,
                comm_size: 4,
                comm_rank: rank,
                label: Arc::from(label),
                section: 0,
                time: VTime::ZERO,
                occurrence: 0,
                depth: 0,
            };
            let mut data = [0u8; 32];
            tool.on_enter(&info, &mut data);
        };
        enter(0, "io");
        enter(2, "io");
        enter(1, "compute");
        assert_eq!(tool.ranks_in("io"), vec![0, 2]);
        assert_eq!(tool.ranks_in("compute"), vec![1]);
        assert!(tool.ranks_in("missing").is_empty());
    }

    #[test]
    fn interleaved_communicator_sections_unwind_correctly() {
        let sections = SectionRuntime::new(VerifyMode::Off);
        let context = ContextTool::new();
        sections.attach(context.clone());
        let s = sections.clone();
        let ctx_inner = context.clone();
        WorldBuilder::new(2)
            .tool(sections.clone())
            .run(move |p| {
                let world = p.world();
                let dup = world.dup(p);
                s.enter(p, &world, "a");
                s.enter(p, &dup, "b");
                // Cross-communicator exit order is free.
                s.exit(p, &world, "a");
                assert_eq!(ctx_inner.context_of(p.world_rank()).last().unwrap(), "b");
                s.exit(p, &dup, "b");
            })
            .unwrap();
        assert_eq!(context.describe(0), "outside any section");
    }
}
