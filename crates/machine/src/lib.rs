//! # machine — parameterized machine models for virtual-time simulation
//!
//! This crate is the substrate that lets the reproduction "run" the paper's
//! hardware — a 456-core Nehalem cluster, an Intel KNL, a dual-socket
//! Broadwell — on a laptop. Nothing here executes work; it *prices* work:
//!
//! * [`Work`] describes a kernel (flops + bytes) machine-independently;
//! * [`ComputeModel`] converts work into seconds with a roofline rule,
//!   including SMT and memory-bandwidth contention;
//! * [`NetworkModel`] prices point-to-point messages and collectives with a
//!   LogGP-style model (intra- vs inter-node links chosen by [`Topology`]);
//! * [`OmpModel`] prices fork/join/barrier overheads of a shared-memory
//!   runtime — the ingredient behind the paper's "inflexion point";
//! * [`NoiseModel`] adds deterministic, seeded performance jitter — the
//!   ingredient behind the paper's growing HALO time (Fig. 5b);
//! * [`VTime`] is the integer-nanosecond virtual time unit used everywhere.
//!
//! See `presets` for the three calibrated machines plus an `ideal()` machine
//! used in tests and ablations.

pub mod calibration;
pub mod compute;
pub mod config;
pub mod network;
pub mod noise;
pub mod omp;
pub mod presets;
pub mod time;
pub mod topology;
pub mod work;

pub use calibration::Calibration;
pub use compute::{ComputeModel, CoreModel, MemoryModel};
pub use config::ConfigError;
pub use network::{CollectiveCost, LinkModel, NetworkModel};
pub use noise::{DetRng, NoiseModel, RankStream};
pub use omp::OmpModel;
pub use time::VTime;
pub use topology::Topology;
pub use work::Work;

/// A complete machine description: node shape, compute, network, OpenMP
/// runtime, and noise.
#[derive(Debug, Clone)]
pub struct MachineModel {
    /// Human-readable machine name (appears in experiment output).
    pub name: String,
    /// Physical cores per node.
    pub cores_per_node: usize,
    /// Hardware threads per core (1 = no SMT).
    pub hw_threads_per_core: usize,
    /// How MPI ranks are placed onto nodes.
    pub topology: Topology,
    /// Core + memory model.
    pub compute: ComputeModel,
    /// Interconnect model.
    pub network: NetworkModel,
    /// Shared-memory runtime overhead model.
    pub omp: OmpModel,
    /// Performance jitter model.
    pub noise: NoiseModel,
}

impl MachineModel {
    /// Total hardware threads one node can run without oversubscription.
    pub fn hw_threads_per_node(&self) -> usize {
        self.cores_per_node.saturating_mul(self.hw_threads_per_core)
    }

    /// How many hardware threads end up sharing one core when `active`
    /// software threads run on a node (1 if the node is not even full).
    pub fn threads_per_core_at(&self, active: usize) -> usize {
        if self.cores_per_node == 0 || self.cores_per_node == usize::MAX {
            return 1;
        }
        active.div_ceil(self.cores_per_node).max(1)
    }

    /// Oversubscription slowdown factor: 1.0 while `active` fits in the
    /// node's hardware threads, proportional beyond (time-sharing).
    pub fn oversubscription_factor(&self, active: usize) -> f64 {
        let hw = self.hw_threads_per_node();
        if hw == 0 || hw == usize::MAX || active <= hw {
            1.0
        } else {
            active as f64 / hw as f64
        }
    }

    /// Price `work` for one thread, with `active` software threads on the
    /// node. Covers memory contention, SMT sharing and oversubscription.
    pub fn thread_seconds_for(&self, work: Work, active: usize) -> f64 {
        // Contention (memory bandwidth, SMT) is bounded by the threads
        // that actually run concurrently — the hardware thread count.
        // Software threads beyond that time-share instead, which the
        // oversubscription factor prices; feeding the raw `active` into
        // the contention model too would penalize the excess twice.
        let hw_active = active.min(self.hw_threads_per_node());
        let on_core = self.threads_per_core_at(hw_active);
        self.compute.seconds_for(work, hw_active, on_core) * self.oversubscription_factor(active)
    }

    /// Collective cost calculator for `p` participants whose world ranks
    /// may or may not span several nodes.
    pub fn collective(&self, p: usize, spans_nodes: bool) -> CollectiveCost<'_> {
        CollectiveCost {
            link: self.network.span_link(spans_nodes),
            p,
        }
    }

    #[inline]
    fn link_between(&self, a: usize, b: usize) -> &LinkModel {
        self.network
            .link(self.topology.node_of(a), self.topology.node_of(b))
    }

    /// The CPU overhead world rank `src` pays to send to world rank `dst`.
    /// This and the next two methods price every message and collective,
    /// for the engine and the what-if replay alike, so the clocks agree.
    #[inline]
    pub fn send_overhead(&self, src: usize, dst: usize) -> VTime {
        VTime::from_secs_f64(self.link_between(src, dst).overhead)
    }

    /// When a receive posted at `posted` on world rank `dst` completes for
    /// `bytes` sent from world rank `src` at `sent`: `max(posted, sent +
    /// transfer + jitter) + overhead`, the jitter drawn from `rng`.
    #[inline]
    pub fn recv_done(
        &self,
        src: usize,
        dst: usize,
        bytes: u64,
        sent: VTime,
        posted: VTime,
        rng: &mut DetRng,
    ) -> VTime {
        let link = self.link_between(src, dst);
        let jitter = self.noise.latency_jitter(rng);
        let arrival = sent + VTime::from_secs_f64(link.transfer_secs(bytes as usize) + jitter);
        posted.max(arrival) + VTime::from_secs_f64(link.overhead)
    }

    /// When the `p` members (on several nodes if `spans_nodes`) leave
    /// collective `op`: `max_entry + cost(total_bytes) + jitter`, the
    /// jitter drawn from `rng`.
    pub fn collective_exit(
        &self,
        op: &str,
        p: usize,
        spans_nodes: bool,
        total_bytes: u64,
        max_entry: VTime,
        rng: &mut DetRng,
    ) -> VTime {
        let base = self.collective(p, spans_nodes).base_secs(op, total_bytes);
        let jitter = self.noise.latency_jitter(rng);
        max_entry + VTime::from_secs_f64(base + jitter)
    }

    /// A human-readable parameter dump, for experiment provenance (every
    /// figure's CSV should be reproducible from seed + this description).
    pub fn describe(&self) -> String {
        format!(
            "machine '{}': {} cores/node x {} hw-threads, \
             core {:.3e} flops/s (smt eff {:.2}), \
             mem {:.2e}/{:.2e} B/s (node/thread), \
             net intra(l={:.1e}s bw={:.2e} o={:.1e}) inter(l={:.1e}s bw={:.2e} o={:.1e}), \
             omp(fork {:.1e}+{:.1e}/t, barrier {:.1e}+{:.1e}/round, dyn {:.1e}/chunk), \
             noise(sigma={:.3}, net-jitter={:.1e}s)",
            self.name,
            self.cores_per_node,
            self.hw_threads_per_core,
            self.compute.core.flops_per_sec,
            self.compute.core.smt_efficiency,
            self.compute.memory.node_bandwidth,
            self.compute.memory.per_thread_bandwidth,
            self.network.intra_node.latency,
            self.network.intra_node.bandwidth,
            self.network.intra_node.overhead,
            self.network.inter_node.latency,
            self.network.inter_node.bandwidth,
            self.network.inter_node.overhead,
            self.omp.fork_base,
            self.omp.fork_per_thread,
            self.omp.barrier_base,
            self.omp.barrier_per_round,
            self.omp.dynamic_per_chunk,
            self.noise.compute_sigma,
            self.noise.net_latency_jitter_mean,
        )
    }
}

/// Render a string as a JSON string literal (quotes included), escaping
/// quotes, backslashes and control characters. The workspace builds with no
/// registry access (no serde), so every hand-rolled JSON emitter shares
/// this one escaper. It lives here because this is the lowest crate that
/// emits JSON (the calibration document); everything above reaches it as
/// `mpisim::diag::json_str`.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_per_core_at_counts() {
        let m = presets::knl();
        assert_eq!(m.threads_per_core_at(1), 1);
        assert_eq!(m.threads_per_core_at(68), 1);
        assert_eq!(m.threads_per_core_at(69), 2);
        assert_eq!(m.threads_per_core_at(272), 4);
    }

    #[test]
    fn oversubscription() {
        let m = presets::dual_broadwell();
        assert_eq!(m.oversubscription_factor(72), 1.0);
        assert!((m.oversubscription_factor(144) - 2.0).abs() < 1e-12);
        let ideal = presets::ideal();
        assert_eq!(ideal.oversubscription_factor(1_000_000), 1.0);
    }

    #[test]
    fn describe_mentions_key_parameters() {
        let d = presets::knl().describe();
        assert!(d.contains("knl"));
        assert!(d.contains("68 cores/node"));
        assert!(d.contains("sigma"));
    }

    #[test]
    fn thread_seconds_monotone_in_contention() {
        let m = presets::knl();
        let w = Work::new(1e9, 1e9);
        let t1 = m.thread_seconds_for(w, 1);
        let t68 = m.thread_seconds_for(w, 68);
        let t272 = m.thread_seconds_for(w, 272);
        assert!(t1 <= t68 && t68 <= t272, "{t1} {t68} {t272}");
    }
}
