//! The process-wide section label table. A program enters a section by
//! text (`MPIX_Section_enter(comm, "HALO")`); a section event names it by
//! [`Label`], a `u32` id into one append-only table per process. Every
//! section runtime and every tool of every world in the process sees the
//! same id for the same text, so no tool keeps a label table of its own,
//! and an id stays valid after the runtime that first met it is gone.
//!
//! Ids follow the order in which the process first met each text, which
//! depends on scheduling when worlds run on parallel threads: artifacts
//! key and sort by [`Label::name`], never by id. [`Label::MAIN`] is id 0.
//! [`Label::intern`] takes one lock (a section runtime calls it when it
//! meets a label for the first time, not per event); [`Label::name`] takes
//! none. Each text is leaked once: the table only grows, and a program
//! enters a handful of labels.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::OnceLock;

/// The label of the implicit outermost section, entered at `MPI_Init` and
/// left at `MPI_Finalize` (paper §4).
pub const MPI_MAIN: &str = "MPI_MAIN";

/// A section label: an id into the process-wide label table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(u32);

/// Every label but `MPI_MAIN` by text; the one lock interning takes.
static IDS: Mutex<BTreeMap<&'static str, Label>> = Mutex::new(BTreeMap::new());

/// Every label's text by id, in buckets allocated as ids grow: bucket `b`
/// holds the `2^b` ids from `2^b - 1`, so a name never moves once written
/// and a reader takes no lock.
static NAMES: [OnceLock<Box<[OnceLock<&'static str>]>>; 32] = [const { OnceLock::new() }; 32];

/// The bucket of `id` and its index there.
fn slot(id: u32) -> (usize, usize) {
    let n = u64::from(id) + 1;
    let bucket = n.ilog2() as usize;
    (bucket, (n - (1 << bucket)) as usize)
}

impl Label {
    /// `MPI_MAIN`, id 0 in every process.
    pub const MAIN: Label = Label(0);

    /// The label of `text`, given the next id if the process never met it.
    pub fn intern(text: &str) -> Label {
        if text == MPI_MAIN {
            return Label::MAIN;
        }
        let mut ids = IDS.lock();
        if let Some(&label) = ids.get(text) {
            return label;
        }
        let id = u32::try_from(ids.len() + 1).expect("mpisim: more than 2^32 section labels");
        let name: &'static str = Box::leak(text.into());
        let (bucket, at) = slot(id);
        let names =
            NAMES[bucket].get_or_init(|| (0..1 << bucket).map(|_| OnceLock::new()).collect());
        names[at]
            .set(name)
            .expect("mpisim: a label id was handed out twice");
        ids.insert(name, Label(id));
        Label(id)
    }

    /// The label's text.
    pub fn name(self) -> &'static str {
        if self == Label::MAIN {
            return MPI_MAIN;
        }
        let (bucket, at) = slot(self.0);
        let names = NAMES[bucket].get();
        names
            .and_then(|names| names[at].get())
            .expect("a label is named before its id exists")
    }

    /// The label's id: dense from 0 in the process's first-seen order.
    pub fn id(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn main_is_label_zero() {
        assert_eq!(Label::MAIN.id(), 0);
        assert_eq!(Label::MAIN.name(), MPI_MAIN);
        assert_eq!(Label::intern(MPI_MAIN), Label::MAIN);
    }

    #[test]
    fn the_buckets_tile_the_ids() {
        assert_eq!(slot(0), (0, 0));
        assert_eq!((slot(1), slot(2)), ((1, 0), (1, 1)));
        assert_eq!((slot(6), slot(7)), ((2, 3), (3, 0)));
        assert_eq!(slot(u32::MAX - 1), (31, (1 << 31) - 1));
    }

    /// Two threads intern overlapping label sets in opposite orders, in
    /// lockstep: each thread is the first to meet half of the shared
    /// texts. Each text gets exactly one id, and every name comes back,
    /// also past the first buckets.
    #[test]
    fn two_threads_get_one_id_per_text() {
        let texts: Vec<String> = (0..80).map(|k| format!("label-test-{k}")).collect();
        let step = std::sync::Barrier::new(2);
        let lockstep = |order: Vec<&String>| -> Vec<Label> {
            let intern = |text: &String| {
                let label = Label::intern(text);
                step.wait();
                label
            };
            order.into_iter().map(intern).collect()
        };
        let (a, mut b) = std::thread::scope(|s| {
            let a = s.spawn(|| lockstep(texts[..60].iter().collect()));
            let b = s.spawn(|| lockstep(texts[20..].iter().rev().collect()));
            (a.join().unwrap(), b.join().unwrap())
        });
        b.reverse();
        // The shared texts got the same id on both threads.
        assert_eq!(a[20..], b[..40]);
        let all: Vec<Label> = a.iter().chain(&b[40..]).copied().collect();
        let mut ids: Vec<u32> = all.iter().map(|l| l.id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), texts.len(), "one id per text");
        for (label, text) in all.iter().zip(&texts) {
            assert_eq!(label.name(), text);
            assert_eq!(Label::intern(text), *label);
        }
        assert!(all.iter().any(|l| l.id() >= 32), "{all:?}");
        assert_eq!(format!("{}", all[3]), "label-test-3");
    }
}
