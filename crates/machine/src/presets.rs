//! Machine presets calibrated against the paper's three test systems.
//!
//! Calibration targets (see EXPERIMENTS.md for the paper-vs-measured table):
//!
//! * `nehalem_cluster` — the convolution benchmark's sequential run takes
//!   ≈5590 s (paper: 5589.84 s total section time) and the HALO section
//!   becomes the dominant speedup bound past ~64 processes.
//! * `knl` — LULESH s=48 single-process walltime ≈882 s (paper: 882.48 s)
//!   with the Lagrange phases hitting their inflexion point near 24 threads.
//! * `dual_broadwell` — faster cores, flatter OpenMP overhead: MPI
//!   parallelism outruns OpenMP in strong scaling, but OpenMP still helps
//!   when the per-process problem is large (p = 1).
//!
//! Absolute seconds are calibrated; the *shapes* (who wins, where the
//! crossovers and inflexion points fall) are what the reproduction checks.

use crate::compute::{ComputeModel, CoreModel, MemoryModel};
use crate::network::{LinkModel, NetworkModel};
use crate::noise::NoiseModel;
use crate::omp::OmpModel;
use crate::topology::Topology;
use crate::MachineModel;

/// The Intel Nehalem test cluster of the convolution experiment (§5.1):
/// single-socket 8-core Xeon X5560 nodes, 24 GB each, up to 57 nodes
/// (456 cores), DDR InfiniBand-class interconnect.
pub fn nehalem_cluster() -> MachineModel {
    MachineModel {
        name: "nehalem-cluster".to_string(),
        cores_per_node: 8,
        hw_threads_per_core: 1, // hyper-threading disabled in the paper
        topology: Topology::block(8),
        compute: ComputeModel {
            // Effective rate calibrated to the paper's 5.6 s per 21 Mpx
            // convolution sweep (unvectorized stencil code, not peak).
            core: CoreModel {
                flops_per_sec: 2.05e8,
                smt_efficiency: 1.0,
            },
            memory: MemoryModel {
                node_bandwidth: 25.0e9,
                per_thread_bandwidth: 6.0e9,
            },
        },
        network: NetworkModel {
            intra_node: LinkModel {
                latency: 6.0e-7,
                bandwidth: 5.0e9,
                overhead: 2.5e-7,
            },
            inter_node: LinkModel {
                latency: 2.2e-6,
                bandwidth: 3.2e9,
                overhead: 9.0e-7,
            },
        },
        omp: OmpModel {
            fork_base: 1.5e-6,
            fork_per_thread: 4.0e-7,
            barrier_base: 8.0e-7,
            barrier_per_round: 5.0e-7,
            dynamic_per_chunk: 8.0e-8,
        },
        // Jitter drives the Fig. 5b finding: per-step compute noise
        // accumulating through halo dependencies over 1000 steps. The
        // sigma is calibrated against the paper's Fig. 6 HALO totals
        // (≈47 ms of wait per 87 ms step at p = 64 — the cluster the
        // paper measured was genuinely noisy at scale).
        noise: NoiseModel {
            compute_sigma: 0.28,
            net_latency_jitter_mean: 1.0e-5,
        },
    }
}

/// The Intel Knights Landing node of §5.2: 68 cores, 4 hardware threads
/// each, slow cores, high-bandwidth MCDRAM that saturates early, and an
/// OpenMP runtime whose per-thread costs climb quickly.
pub fn knl() -> MachineModel {
    MachineModel {
        name: "knl".to_string(),
        cores_per_node: 68,
        hw_threads_per_core: 4,
        topology: Topology::SINGLE_NODE,
        compute: ComputeModel {
            // Roughly 1/3 of a Broadwell core for scalar-ish hydro code.
            // Hardware threads sharing a KNL core buy almost nothing for
            // flop-saturated hydro kernels (low smt_efficiency) — this is
            // what makes extra OpenMP threads hurt at p = 27/64 (Fig. 9).
            core: CoreModel {
                flops_per_sec: 5.0e8,
                smt_efficiency: 0.10,
            },
            memory: MemoryModel {
                node_bandwidth: 90.0e9,
                per_thread_bandwidth: 7.0e9,
            },
        },
        network: NetworkModel {
            intra_node: LinkModel {
                latency: 9.0e-7,
                bandwidth: 4.0e9,
                overhead: 4.0e-7,
            },
            // Single node: inter-node params only matter if a run asks for
            // more ranks than the node holds; keep them finite anyway.
            inter_node: LinkModel {
                latency: 2.5e-6,
                bandwidth: 3.0e9,
                overhead: 1.0e-6,
            },
        },
        // Steep per-thread fork cost: this is what places the LULESH
        // inflexion point near 24 threads at s = 48 (Fig. 10). The value
        // is calibrated from the paper's own measurements — at 24 threads
        // the two Lagrange phases spend ≈71 s of their 108 s in runtime
        // overhead (882.48/24 ≈ 37 s would be perfect scaling), which over
        // ~2500 iterations and ~10 parallel regions per iteration implies
        // ≈1e-4 s of fork/join cost per thread. The paper itself notes the
        // KNL's "OpenMP overhead tends to increase more rapidly than on
        // the Broadwell".
        omp: OmpModel {
            fork_base: 5.0e-6,
            fork_per_thread: 6.0e-5,
            barrier_base: 2.0e-6,
            barrier_per_round: 3.0e-6,
            dynamic_per_chunk: 2.5e-7,
        },
        noise: NoiseModel {
            compute_sigma: 0.015,
            net_latency_jitter_mean: 1.0e-6,
        },
    }
}

/// The dual-socket Broadwell node of §5.2: 2 × 18 cores, 2 hardware threads
/// per core.
pub fn dual_broadwell() -> MachineModel {
    MachineModel {
        name: "dual-broadwell".to_string(),
        cores_per_node: 36,
        hw_threads_per_core: 2,
        topology: Topology::SINGLE_NODE,
        compute: ComputeModel {
            core: CoreModel {
                flops_per_sec: 1.5e9,
                smt_efficiency: 0.25,
            },
            memory: MemoryModel {
                node_bandwidth: 130.0e9,
                per_thread_bandwidth: 12.0e9,
            },
        },
        network: NetworkModel {
            intra_node: LinkModel {
                latency: 5.0e-7,
                bandwidth: 8.0e9,
                overhead: 2.0e-7,
            },
            inter_node: LinkModel {
                latency: 2.0e-6,
                bandwidth: 6.0e9,
                overhead: 8.0e-7,
            },
        },
        // An order of magnitude flatter than the KNL: OpenMP keeps paying
        // off to high thread counts when the per-process problem is large.
        omp: OmpModel {
            fork_base: 3.0e-6,
            fork_per_thread: 1.2e-5,
            barrier_base: 2.0e-6,
            barrier_per_round: 3.0e-6,
            dynamic_per_chunk: 1.0e-7,
        },
        noise: NoiseModel {
            compute_sigma: 0.01,
            net_latency_jitter_mean: 5.0e-7,
        },
    }
}

/// A hypothetical next-generation many-core node, in the spirit of the
/// paper's motivation (§1/§7: "porting applications using domain
/// decomposition to future generation platforms with greater cores counts
/// and reduced memory per thread"): 256 slower cores with 2-way SMT,
/// aggressive bandwidth ceiling relative to the core count, and OpenMP
/// overheads between the Broadwell and the KNL. Used by the `forecast`
/// experiment target.
pub fn future_manycore() -> MachineModel {
    MachineModel {
        name: "future-manycore".to_string(),
        cores_per_node: 256,
        hw_threads_per_core: 2,
        topology: Topology::block(256),
        compute: ComputeModel {
            core: CoreModel {
                flops_per_sec: 4.0e8,
                smt_efficiency: 0.15,
            },
            memory: MemoryModel {
                // Lots of cores, proportionally little bandwidth: the
                // "reduced memory (and bandwidth) per thread" squeeze.
                node_bandwidth: 200.0e9,
                per_thread_bandwidth: 2.0e9,
            },
        },
        network: NetworkModel {
            intra_node: LinkModel {
                latency: 7.0e-7,
                bandwidth: 6.0e9,
                overhead: 3.0e-7,
            },
            inter_node: LinkModel {
                latency: 1.5e-6,
                bandwidth: 12.0e9,
                overhead: 5.0e-7,
            },
        },
        omp: OmpModel {
            fork_base: 4.0e-6,
            fork_per_thread: 3.0e-5,
            barrier_base: 2.0e-6,
            barrier_per_round: 4.0e-6,
            dynamic_per_chunk: 1.5e-7,
        },
        noise: NoiseModel {
            compute_sigma: 0.08,
            net_latency_jitter_mean: 2.0e-6,
        },
    }
}

/// An idealized machine: 1 Gflop/s cores, free network, free OpenMP
/// runtime, no noise. Used by unit tests (costs are exactly predictable)
/// and by the D1/D2 ablations.
pub fn ideal() -> MachineModel {
    MachineModel {
        name: "ideal".to_string(),
        cores_per_node: usize::MAX,
        hw_threads_per_core: 1,
        topology: Topology::SINGLE_NODE,
        compute: ComputeModel {
            core: CoreModel::UNIT,
            memory: MemoryModel::INFINITE,
        },
        network: NetworkModel::FREE,
        omp: OmpModel::FREE,
        noise: NoiseModel::NONE,
    }
}

/// The names a preset answers to (canonical spelling first) and its
/// constructor.
type Preset = (&'static [&'static str], fn() -> MachineModel);

/// Every preset. This is the one place a machine name is matched to a
/// model: `profile --machine`, `study` grids and `--what-if net=` all
/// resolve through [`by_name`].
const REGISTRY: [Preset; 5] = [
    (&["nehalem_cluster", "nehalem"], nehalem_cluster),
    (&["knl"], knl),
    (&["dual_broadwell", "broadwell"], dual_broadwell),
    (&["future_manycore", "future"], future_manycore),
    (&["ideal"], ideal),
];

/// Resolve a preset by any of its names; the error lists the canonical
/// ones.
pub fn by_name(name: &str) -> Result<MachineModel, String> {
    match REGISTRY.iter().find(|(names, _)| names.contains(&name)) {
        Some((_, preset)) => Ok(preset()),
        None => {
            let known: Vec<&str> = REGISTRY.iter().map(|(names, _)| names[0]).collect();
            Err(format!(
                "unknown machine '{name}' (known: {})",
                known.join(", ")
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::work::Work;

    #[test]
    fn presets_construct() {
        for m in [nehalem_cluster(), knl(), dual_broadwell(), ideal()] {
            assert!(m.cores_per_node >= 1);
            assert!(m.compute.core.flops_per_sec > 0.0);
        }
    }

    #[test]
    fn by_name_accepts_every_spelling_and_lists_the_registry() {
        for (short, long) in [
            ("nehalem", "nehalem_cluster"),
            ("broadwell", "dual_broadwell"),
            ("future", "future_manycore"),
            ("knl", "knl"),
            ("ideal", "ideal"),
        ] {
            assert_eq!(
                by_name(short).unwrap().describe(),
                by_name(long).unwrap().describe()
            );
        }
        let err = by_name("marsrover").unwrap_err();
        assert!(err.contains("unknown machine 'marsrover'"), "{err}");
        for (names, _) in REGISTRY {
            assert!(err.contains(names[0]), "{err}");
        }
    }

    #[test]
    fn nehalem_sequential_convolution_calibration() {
        // 5616 x 3744 RGB doubles, 9-tap mean filter, 2 flops/tap, 1000 steps.
        let m = nehalem_cluster();
        let px = 5616.0 * 3744.0 * 3.0;
        let flops_per_step = px * 9.0 * 2.0;
        let secs = m.compute.seconds_for(Work::flops(flops_per_step), 1, 1) * 1000.0;
        // Paper: 5589.84 s total sequential section time. Within 10%.
        assert!(
            (secs - 5589.84).abs() / 5589.84 < 0.10,
            "calibration off: {secs}"
        );
    }

    #[test]
    fn ideal_is_free() {
        let m = ideal();
        assert_eq!(m.omp.region_secs(1024), 0.0);
        assert_eq!(m.network.inter_node.transfer_secs(1 << 30), 0.0);
        assert!(m.noise.is_none());
    }

    #[test]
    fn knl_threads_capacity() {
        let m = knl();
        assert_eq!(m.hw_threads_per_node(), 272);
        let b = dual_broadwell();
        assert_eq!(b.hw_threads_per_node(), 72);
    }
}
