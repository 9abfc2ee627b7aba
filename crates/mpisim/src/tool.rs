//! The tool (PMPI interposition) interface.
//!
//! A [`Tool`] observes every [`MpiEvent`] raised by every rank. Tools are
//! registered on the world before launch and shared by every rank. A world
//! runs one rank at a time, so a tool is called from one thread *at a
//! time* — but not always the same one (the threads engine gives every
//! rank its own), and one tool object may be attached to several worlds:
//! the `Send + Sync` bound stays. The bundled tools keep all mutable state
//! in one [`WorldCell`](crate::WorldCell) locked once per event, with
//! per-rank state in a `Vec` indexed by world rank and sized at
//! `Init { size }`. The cell's rule is one running world at a time: the
//! world that reaches it first reads and writes it with plain loads and
//! stores until that world ends, and a second world that reaches the tool
//! meanwhile waits for it to end.
//!
//! Tools additionally declare an *interest mask* ([`Tool::interests`]):
//! the runtime unions the masks of all attached tools and skips building
//! events no tool subscribed to, which keeps a lightly-instrumented
//! 16k-rank run close to uninstrumented speed.

use crate::event::{EventKind, EventMask, MpiEvent};
use std::sync::Arc;

/// A performance/debugging tool observing runtime events.
///
/// Callbacks take `&self`: a tool keeps its mutable state behind interior
/// mutability. A [`WorldCell`](crate::WorldCell) costs no locked
/// instruction per event, and serves one running world at a time — a
/// second world that reaches it waits until the first has ended.
pub trait Tool: Send + Sync {
    /// Called synchronously on the acting rank for every event whose kind
    /// is in [`Tool::interests`].
    fn on_event(&self, world_rank: usize, event: &MpiEvent);

    /// The event kinds this tool wants delivered. Defaults to every kind;
    /// override to let the runtime skip constructing unneeded events
    /// (the analyzer-grade ones clone member lists and candidate sets).
    /// The mask is sampled once at launch; it must be constant.
    fn interests(&self) -> EventMask {
        EventMask::ALL
    }

    /// Called once after the run completes (all ranks joined), with the
    /// number of ranks. Default: no-op.
    fn on_run_complete(&self, _nranks: usize) {}

    /// A short description of this tool's per-rank context — e.g. the
    /// rank's open-section stack — appended to
    /// [`RunError::RankPanicked`](crate::RunError::RankPanicked) messages
    /// when that rank fails. Default: no context.
    fn rank_context(&self, _world_rank: usize) -> Option<String> {
        None
    }
}

/// The ordered set of tools attached to a world. Each tool's interest
/// mask is sampled once at construction and cached next to it, so
/// per-event filtering costs a bit test, not a virtual call.
#[derive(Clone)]
pub struct ToolSet {
    tools: Arc<Vec<(EventMask, Arc<dyn Tool>)>>,
    /// Union of every attached tool's interest mask.
    mask: EventMask,
}

impl Default for ToolSet {
    fn default() -> Self {
        ToolSet {
            tools: Arc::new(Vec::new()),
            mask: EventMask::NONE,
        }
    }
}

impl ToolSet {
    /// An empty tool set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from a list of tools.
    pub fn from_tools(tools: Vec<Arc<dyn Tool>>) -> Self {
        let tools: Vec<(EventMask, Arc<dyn Tool>)> =
            tools.into_iter().map(|t| (t.interests(), t)).collect();
        let mask = tools
            .iter()
            .fold(EventMask::NONE, |m, (tm, _)| m.union(*tm));
        ToolSet {
            tools: Arc::new(tools),
            mask,
        }
    }

    /// True when no tool is registered (event raising short-circuits).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tools.is_empty()
    }

    /// Does any attached tool want events of `kind`? Callers use this to
    /// skip constructing the event entirely.
    #[inline]
    pub fn wants(&self, kind: EventKind) -> bool {
        self.mask.contains(kind)
    }

    /// Deliver an event to every subscribed tool, in registration order.
    #[inline]
    pub fn raise(&self, world_rank: usize, event: &MpiEvent) {
        let kind = event.kind();
        if !self.mask.contains(kind) {
            return;
        }
        for (tool_mask, tool) in self.tools.iter() {
            if tool_mask.contains(kind) {
                tool.on_event(world_rank, event);
            }
        }
    }

    /// Deliver the end-of-run notification.
    pub fn complete(&self, nranks: usize) {
        for (_, tool) in self.tools.iter() {
            tool.on_run_complete(nranks);
        }
    }

    /// Collect every tool's context for a failing rank, in registration
    /// order (used to enrich `RankPanicked` messages).
    pub fn rank_context(&self, world_rank: usize) -> Vec<String> {
        self.tools
            .iter()
            .filter_map(|(_, t)| t.rank_context(world_rank))
            .collect()
    }
}

impl std::fmt::Debug for ToolSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ToolSet({} tools)", self.tools.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machine::VTime;
    use std::sync::atomic::{AtomicUsize, Ordering};

    struct Counter(AtomicUsize);
    impl Tool for Counter {
        fn on_event(&self, _rank: usize, _event: &MpiEvent) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A tool subscribed to lifecycle events only.
    struct LifecycleOnly(AtomicUsize);
    impl Tool for LifecycleOnly {
        fn on_event(&self, _rank: usize, _event: &MpiEvent) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
        fn interests(&self) -> EventMask {
            EventMask::LIFECYCLE
        }
    }

    #[test]
    fn raise_reaches_all_tools() {
        let a = Arc::new(Counter(AtomicUsize::new(0)));
        let b = Arc::new(Counter(AtomicUsize::new(0)));
        let set = ToolSet::from_tools(vec![a.clone(), b.clone()]);
        assert!(!set.is_empty());
        let ev = MpiEvent::Init {
            size: 1,
            time: VTime::ZERO,
        };
        set.raise(0, &ev);
        set.raise(0, &ev);
        assert_eq!(a.0.load(Ordering::Relaxed), 2);
        assert_eq!(b.0.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn empty_set() {
        let set = ToolSet::new();
        assert!(set.is_empty());
        set.raise(0, &MpiEvent::Finalize { time: VTime::ZERO });
        set.complete(4);
    }

    #[test]
    fn interest_masks_filter_delivery() {
        let narrow = Arc::new(LifecycleOnly(AtomicUsize::new(0)));
        let wide = Arc::new(Counter(AtomicUsize::new(0)));
        let set = ToolSet::from_tools(vec![narrow.clone(), wide.clone()]);
        assert!(set.wants(EventKind::Init));
        assert!(set.wants(EventKind::Compute)); // wide tool wants ALL
        set.raise(
            0,
            &MpiEvent::Init {
                size: 1,
                time: VTime::ZERO,
            },
        );
        set.raise(
            0,
            &MpiEvent::Compute {
                base: VTime::ZERO,
                elapsed: VTime::ZERO,
                time: VTime::ZERO,
            },
        );
        assert_eq!(narrow.0.load(Ordering::Relaxed), 1, "Compute filtered");
        assert_eq!(wide.0.load(Ordering::Relaxed), 2);

        // A set with only the narrow tool rejects non-lifecycle kinds
        // outright, so callers can skip event construction.
        let set = ToolSet::from_tools(vec![narrow.clone()]);
        assert!(set.wants(EventKind::Finalize));
        assert!(!set.wants(EventKind::SendEnqueued));
    }
}
