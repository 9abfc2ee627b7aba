//! Per-machine calibration tables, computed once and cached.
//!
//! A sweep orchestrator prices the *same* machine model hundreds of times
//! (every grid cell re-opens it). The raw model is cheap to evaluate
//! point-wise, but the derived artifact a study wants — the machine's
//! effective roofline curve across thread counts, its ping-pong latency/
//! bandwidth curve, the collective cost trajectory — is a dense probe
//! over the whole parameter space, and identical for every cell that
//! names the same machine. [`cached`] computes that probe once per
//! distinct machine *configuration* and hands every later caller the same
//! `Arc`. The key is [`MachineModel::to_config_str`], which parses back to
//! an identical model — not the name, and not the rounded
//! [`MachineModel::describe`], which leaves out `ranks_per_node` — so an
//! edited `--machine-file` never reuses a stale table.
//!
//! The table doubles as provenance: the study store persists each
//! machine's calibration next to the runs priced under it, so a report
//! can state exactly what hardware model produced a row.

use crate::work::Work;
use crate::{json_str, MachineModel};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Active-thread counts probed for the compute roofline.
const THREAD_PROBES: [usize; 8] = [1, 2, 4, 8, 16, 64, 256, 1024];

/// Message sizes probed for the network curves, in bytes.
const SIZE_PROBES: [usize; 8] = [8, 64, 512, 4 << 10, 32 << 10, 256 << 10, 2 << 20, 16 << 20];

/// Participant counts probed for the collective trajectories.
const P_PROBES: [usize; 8] = [2, 4, 8, 16, 64, 256, 1024, 16384];

/// A machine's derived cost tables. All values are seconds.
#[derive(Debug, Clone)]
pub struct Calibration {
    /// The machine's name (presentation only — the cache key is the
    /// config string).
    pub machine: String,
    /// The machine's [`MachineModel::describe`] line (provenance: it is
    /// rounded, so it is not the cache key).
    pub describe: String,
    /// `(active_threads, secs)` for one Gflop of pure compute per thread.
    pub gflop_secs: Vec<(usize, f64)>,
    /// `(active_threads, secs)` for one GiB of memory traffic per thread.
    pub gib_secs: Vec<(usize, f64)>,
    /// `(bytes, intra_secs, inter_secs)` one-way transfer cost.
    pub pingpong_secs: Vec<(usize, f64, f64)>,
    /// `(p, secs)` 8-byte allreduce over the node-spanning link.
    pub allreduce_secs: Vec<(usize, f64)>,
    /// `(p, secs)` dissemination barrier over the node-spanning link.
    pub barrier_secs: Vec<(usize, f64)>,
    /// `(threads, secs)` OpenMP parallel-region overhead.
    pub omp_region_secs: Vec<(usize, f64)>,
}

impl Calibration {
    /// Derive the calibration tables by probing `m`'s cost models.
    pub fn derive(m: &MachineModel) -> Calibration {
        let gflop = Work::flops(1e9);
        let gib = Work::bytes((1u64 << 30) as f64);
        let gflop_secs = THREAD_PROBES
            .iter()
            .map(|&t| (t, m.thread_seconds_for(gflop, t)))
            .collect();
        let gib_secs = THREAD_PROBES
            .iter()
            .map(|&t| (t, m.thread_seconds_for(gib, t)))
            .collect();
        let pingpong_secs = SIZE_PROBES
            .iter()
            .map(|&bytes| {
                (
                    bytes,
                    m.network.intra_node.transfer_secs(bytes),
                    m.network.inter_node.transfer_secs(bytes),
                )
            })
            .collect();
        let spans_nodes = m.topology.nodes_for(P_PROBES[P_PROBES.len() - 1]) > 1;
        let allreduce_secs = P_PROBES
            .iter()
            .map(|&p| (p, m.collective(p, spans_nodes).allreduce(8)))
            .collect();
        let barrier_secs = P_PROBES
            .iter()
            .map(|&p| (p, m.collective(p, spans_nodes).barrier()))
            .collect();
        let omp_region_secs = THREAD_PROBES
            .iter()
            .map(|&t| (t, m.omp.region_secs(t)))
            .collect();
        Calibration {
            machine: m.name.clone(),
            describe: m.describe(),
            gflop_secs,
            gib_secs,
            pingpong_secs,
            allreduce_secs,
            barrier_secs,
            omp_region_secs,
        }
    }

    /// The calibration as a JSON document (hand-rolled like every other
    /// exporter in the workspace; `mpisim::jsoncheck`-valid).
    pub fn to_json(&self) -> String {
        let pair_rows = |rows: &[(usize, f64)], key: &str| -> String {
            let cells: Vec<String> = rows
                .iter()
                .map(|(k, s)| format!("{{\"{key}\": {k}, \"secs\": {s:e}}}"))
                .collect();
            cells.join(", ")
        };
        let pingpong: Vec<String> = self
            .pingpong_secs
            .iter()
            .map(|(b, intra, inter)| {
                format!("{{\"bytes\": {b}, \"intra_secs\": {intra:e}, \"inter_secs\": {inter:e}}}")
            })
            .collect();
        format!(
            "{{\"schema\": \"mpistudy-calibration-v1\", \"machine\": {}, \"describe\": {}, \
             \"gflop_secs\": [{}], \"gib_secs\": [{}], \"pingpong_secs\": [{}], \
             \"allreduce_secs\": [{}], \"barrier_secs\": [{}], \"omp_region_secs\": [{}]}}\n",
            json_str(&self.machine),
            json_str(&self.describe),
            pair_rows(&self.gflop_secs, "threads"),
            pair_rows(&self.gib_secs, "threads"),
            pingpong.join(", "),
            pair_rows(&self.allreduce_secs, "p"),
            pair_rows(&self.barrier_secs, "p"),
            pair_rows(&self.omp_region_secs, "threads"),
        )
    }
}

/// Process-wide calibration cache keyed by the machine's config string.
fn cache() -> &'static Mutex<HashMap<String, Arc<Calibration>>> {
    static CACHE: OnceLock<Mutex<HashMap<String, Arc<Calibration>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// `(hits, misses)` counters for the process-wide cache.
fn counters() -> &'static Mutex<(u64, u64)> {
    static COUNTERS: OnceLock<Mutex<(u64, u64)>> = OnceLock::new();
    COUNTERS.get_or_init(|| Mutex::new((0, 0)))
}

/// The calibration for `m`, derived at most once per distinct machine
/// configuration in this process. Concurrent first callers may race to
/// derive, but all end up sharing whichever table landed in the cache.
pub fn cached(m: &MachineModel) -> Arc<Calibration> {
    let key = m.to_config_str();
    if let Some(hit) = cache().lock().expect("calibration cache").get(&key) {
        counters().lock().expect("calibration counters").0 += 1;
        return hit.clone();
    }
    let derived = Arc::new(Calibration::derive(m));
    let mut map = cache().lock().expect("calibration cache");
    let entry = map.entry(key).or_insert_with(|| derived.clone());
    counters().lock().expect("calibration counters").1 += 1;
    entry.clone()
}

/// `(hits, misses)` observed by [`cached`] since process start. A warm
/// sweep over an already-seen machine set shows only hits growing.
pub fn cache_counters() -> (u64, u64) {
    *counters().lock().expect("calibration counters")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn derives_monotone_tables() {
        let c = Calibration::derive(&presets::knl());
        // Compute never gets faster with more contending threads.
        for w in c.gflop_secs.windows(2) {
            assert!(w[1].1 >= w[0].1, "{:?}", c.gflop_secs);
        }
        // Bigger messages never transfer faster.
        for w in c.pingpong_secs.windows(2) {
            assert!(w[1].1 >= w[0].1 && w[1].2 >= w[0].2);
        }
        // Collectives grow (weakly) with participant count.
        for w in c.allreduce_secs.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
    }

    #[test]
    fn cache_hits_on_identical_configuration() {
        // The counters are process-wide and other tests miss and hit
        // concurrently, so only growth this test caused is asserted.
        let a = cached(&presets::dual_broadwell());
        let (hits_between, _) = cache_counters();
        let b = cached(&presets::dual_broadwell());
        assert!(Arc::ptr_eq(&a, &b), "second lookup must be a cache hit");
        let (hits_after, _) = cache_counters();
        assert!(hits_after > hits_between);
    }

    #[test]
    fn cache_distinguishes_edited_models() {
        let base = presets::nehalem_cluster();
        let mut edited = presets::nehalem_cluster();
        edited.noise = crate::NoiseModel::NONE;
        let a = cached(&base);
        let b = cached(&edited);
        assert!(!Arc::ptr_eq(&a, &b), "edited model must re-calibrate");
        // Two edits the rounded `describe` line cannot see: a parameter it
        // leaves out, and one it rounds to two significant digits.
        let mut fat_nodes = presets::nehalem_cluster();
        fat_nodes.topology.ranks_per_node = 100_000;
        let mut slower = presets::nehalem_cluster();
        slower.network.inter_node.latency *= 1.004;
        for (what, edited) in [("ranks_per_node", fat_nodes), ("inter latency", slower)] {
            assert_eq!(edited.describe(), base.describe(), "{what}");
            let b = cached(&edited);
            assert!(!Arc::ptr_eq(&a, &b), "{what}: served another table");
            let derived = Calibration::derive(&edited);
            assert_eq!(b.allreduce_secs, derived.allreduce_secs, "{what}");
        }
    }

    #[test]
    fn json_is_wellformed_enough() {
        let j = Calibration::derive(&presets::ideal()).to_json();
        assert!(j.starts_with('{') && j.ends_with("}\n"));
        assert!(j.contains("\"machine\": \"ideal\""));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }
}
