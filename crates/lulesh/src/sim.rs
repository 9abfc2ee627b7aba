//! The LULESH-proxy time loop, outlined with the paper's 21 MPI sections.
//!
//! "We added 21 sections in the main source file in order to outline main
//! computation steps" (§5.2). The labels below follow LULESH's own function
//! names. `timeloop` accounts for ≈99% of `MPI_MAIN`, and within it the two
//! mutually exclusive phases `LagrangeNodal` and `LagrangeElements`
//! dominate — the structure Figs. 8–10 measure.

use crate::comm::{exchange_faces, sync_shared_nodes};
use crate::config::{Fidelity, LuleshConfig};
use crate::mesh::{Decomposition, Field3};
use crate::physics::{self, State};
use mpi_sections::SectionRuntime;
use mpisim::Proc;
use shmem::Team;

/// The 21 section labels, in first-entry order.
pub const SECTION_LABELS: [&str; 21] = [
    "timeloop",
    "TimeIncrement",
    "LagrangeLeapFrog",
    "LagrangeNodal",
    "CalcForceForNodes",
    "IntegrateStressForElems",
    "CommSBN",
    "CalcHourglassControlForElems",
    "CalcAccelerationForNodes",
    "ApplyAccelerationBC",
    "CalcVelocityForNodes",
    "CalcPositionForNodes",
    "CommSyncPosVel",
    "LagrangeElements",
    "CalcLagrangeElements",
    "CalcQForElems",
    "CommMonoQ",
    "ApplyMaterialPropertiesForElems",
    "UpdateVolumesForElems",
    "CalcTimeConstraintsForElems",
    "CalcCourantHydroConstraint",
];

/// Per-rank outcome of a run.
#[derive(Debug, Clone)]
pub struct LuleshOutcome {
    /// Iterations executed.
    pub iterations: usize,
    /// Final global time step.
    pub final_dt: f64,
    /// Global total energy (`Full` fidelity; identical on every rank).
    pub total_energy: Option<f64>,
    /// The gathered global energy field (rank 0, `Full` + `collect`).
    pub global_energy: Option<Field3>,
}

/// Run an element kernel over the local block under the thread team:
/// prices the loop in both fidelity modes and executes `body` per element
/// in `Full` mode.
fn elem_kernel<F>(
    p: &mut Proc,
    team: &Team,
    s: usize,
    flops: f64,
    state: Option<&mut State>,
    body: F,
) where
    F: FnMut(&mut State, usize, usize, usize),
{
    let n = s * s * s;
    match state {
        Some(st) => {
            let mut body = body;
            team.parallel_for_uniform(p, n, physics::elem_work(flops), |idx| {
                let i = idx % s;
                let j = (idx / s) % s;
                let k = idx / (s * s);
                body(&mut *st, i, j, k);
            });
        }
        None => {
            team.for_cost_uniform(p, n, physics::elem_work(flops));
        }
    }
}

/// Like [`elem_kernel`] but spread over `regions` separate parallel
/// regions (real LULESH functions contain several `omp parallel for` loop
/// nests each): the body executes in the first region; the rest are priced
/// only. Region count drives fork/join overhead.
fn elem_kernel_split<F>(
    p: &mut Proc,
    team: &Team,
    s: usize,
    flops: f64,
    regions: usize,
    state: Option<&mut State>,
    body: F,
) where
    F: FnMut(&mut State, usize, usize, usize),
{
    let per = flops / regions.max(1) as f64;
    elem_kernel(p, team, s, per, state, body);
    for _ in 1..regions {
        team.for_cost_uniform(p, s * s * s, physics::elem_work(per));
    }
}

/// Run the proxy as the SPMD body of one rank. The world size must be a
/// perfect cube (Fig. 7: 1, 8, 27, 64).
pub fn run_lulesh(p: &mut Proc, sections: &SectionRuntime, cfg: &LuleshConfig) -> LuleshOutcome {
    let world = p.world();
    let nranks = world.size();
    let decomp = Decomposition::new(nranks, world.rank(), cfg.s);
    let team = Team::new(cfg.threads).with_schedule(cfg.schedule);
    let s = cfg.s;
    let n_elems = cfg.elems();
    let n_nodes = cfg.nodes();
    let sn = s + 1;
    let dx = 1.0 / decomp.global_elems() as f64;
    let full = cfg.fidelity == Fidelity::Full;

    let owns_origin = (0..3).all(|axis| decomp.coord(axis) == 0);
    let mut state = full.then(|| State::init(s, owns_origin));

    // Which of this rank's node planes sit on the global low boundary
    // (LULESH's symmetry planes); used by ApplyAccelerationBC.
    let at_low = [
        decomp.at_global_boundary(0, 0),
        decomp.at_global_boundary(1, 0),
        decomp.at_global_boundary(2, 0),
    ];
    let boundary_nodes: usize = at_low.iter().filter(|&&b| b).count() * sn * sn;

    // Initial dt guess: identical on all ranks.
    let mut dt_local =
        physics::CFL * dx / ((physics::GAMMA - 1.0) * physics::GAMMA * physics::E_SPIKE).sqrt();
    let mut dt = dt_local;

    sections.scoped(p, &world, "timeloop", |p| {
        for _iter in 0..cfg.iterations {
            // ---- TimeIncrement: the global dt reduction. -----------------
            sections.scoped(p, &world, "TimeIncrement", |p| {
                dt = world.allreduce_min_f64(p, dt_local);
            });

            sections.scoped(p, &world, "LagrangeLeapFrog", |p| {
                // ==== LagrangeNodal =======================================
                sections.scoped(p, &world, "LagrangeNodal", |p| {
                    sections.scoped(p, &world, "CalcForceForNodes", |p| {
                        sections.scoped(p, &world, "IntegrateStressForElems", |p| {
                            elem_kernel(
                                p,
                                &team,
                                s,
                                physics::STRESS_FLOPS,
                                state.as_mut(),
                                physics::integrate_stress,
                            );
                        });
                        let p_ghosts = sections.scoped(p, &world, "CommSBN", |p| {
                            exchange_faces(p, &world, &decomp, state.as_ref().map(|st| &st.p))
                        });
                        sections.scoped(p, &world, "CalcHourglassControlForElems", |p| {
                            elem_kernel(
                                p,
                                &team,
                                s,
                                physics::HOURGLASS_FLOPS,
                                state.as_mut(),
                                |st, i, j, k| physics::hourglass_control(st, &p_ghosts, i, j, k),
                            );
                        });
                    });

                    sections.scoped(p, &world, "CalcAccelerationForNodes", |p| {
                        let work = physics::node_work(physics::NODE_ACCEL_FLOPS);
                        match state.as_mut() {
                            Some(st) => {
                                let off = [decomp.offset(0), decomp.offset(1), decomp.offset(2)];
                                let u = &mut st.u;
                                team.parallel_for_uniform(p, n_nodes, work, |idx| {
                                    let i = idx % sn;
                                    let j = (idx / sn) % sn;
                                    let k = idx / (sn * sn);
                                    physics::node_accel(
                                        &mut u[idx],
                                        dt,
                                        off[0] + i,
                                        off[1] + j,
                                        off[2] + k,
                                    );
                                });
                            }
                            None => {
                                team.for_cost_uniform(p, n_nodes, work);
                            }
                        }
                    });

                    sections.scoped(p, &world, "ApplyAccelerationBC", |p| {
                        let work = physics::node_work(physics::NODE_BC_FLOPS);
                        team.for_cost_uniform(p, boundary_nodes, work);
                        if let Some(st) = state.as_mut() {
                            // Zero the velocities on the symmetry planes.
                            for k in 0..sn {
                                for j in 0..sn {
                                    for i in 0..sn {
                                        let on_plane = (at_low[0] && i == 0)
                                            || (at_low[1] && j == 0)
                                            || (at_low[2] && k == 0);
                                        if on_plane {
                                            st.u[(k * sn + j) * sn + i] = 0.0;
                                        }
                                    }
                                }
                            }
                        }
                    });

                    sections.scoped(p, &world, "CalcVelocityForNodes", |p| {
                        let work = physics::node_work(physics::NODE_VEL_FLOPS);
                        match state.as_mut() {
                            Some(st) => {
                                let u = &mut st.u;
                                team.parallel_for_uniform(p, n_nodes, work, |idx| {
                                    physics::node_velocity(&mut u[idx], dt);
                                });
                            }
                            None => {
                                team.for_cost_uniform(p, n_nodes, work);
                            }
                        }
                    });

                    sections.scoped(p, &world, "CalcPositionForNodes", |p| {
                        let work = physics::node_work(physics::NODE_POS_FLOPS);
                        match state.as_mut() {
                            Some(st) => {
                                let (u, xd) = (&st.u, &mut st.xd);
                                team.parallel_for_uniform(p, n_nodes, work, |idx| {
                                    physics::node_position(&mut xd[idx], u[idx], dt);
                                });
                            }
                            None => {
                                team.for_cost_uniform(p, n_nodes, work);
                            }
                        }
                    });

                    sections.scoped(p, &world, "CommSyncPosVel", |p| {
                        let nodal = state.as_ref().map(|st| &st.u[..]);
                        sync_shared_nodes(p, &world, &decomp, nodal);
                    });
                });

                // ==== LagrangeElements ====================================
                sections.scoped(p, &world, "LagrangeElements", |p| {
                    sections.scoped(p, &world, "CalcLagrangeElements", |p| {
                        elem_kernel_split(
                            p,
                            &team,
                            s,
                            physics::KINEMATICS_FLOPS,
                            physics::KINEMATICS_REGIONS,
                            state.as_mut(),
                            |st, i, j, k| physics::kinematics(st, dt, i, j, k),
                        );
                    });

                    sections.scoped(p, &world, "CalcQForElems", |p| {
                        let e_ghosts = sections.scoped(p, &world, "CommMonoQ", |p| {
                            exchange_faces(p, &world, &decomp, state.as_ref().map(|st| &st.e))
                        });
                        let q_per =
                            physics::MONOTONIC_Q_FLOPS / physics::MONOTONIC_Q_REGIONS as f64;
                        match state.as_mut() {
                            Some(st) => {
                                let e_prev = st.e.clone();
                                team.parallel_for_uniform(
                                    p,
                                    n_elems,
                                    physics::elem_work(q_per),
                                    |idx| {
                                        let i = idx % s;
                                        let j = (idx / s) % s;
                                        let k = idx / (s * s);
                                        physics::monotonic_q(st, &e_prev, &e_ghosts, dt, i, j, k);
                                    },
                                );
                            }
                            None => {
                                team.for_cost_uniform(p, n_elems, physics::elem_work(q_per));
                            }
                        }
                        for _ in 1..physics::MONOTONIC_Q_REGIONS {
                            team.for_cost_uniform(p, n_elems, physics::elem_work(q_per));
                        }
                    });

                    sections.scoped(p, &world, "ApplyMaterialPropertiesForElems", |p| {
                        match cfg.cost_gradient {
                            None => elem_kernel_split(
                                p,
                                &team,
                                s,
                                physics::EOS_FLOPS,
                                physics::EOS_REGIONS,
                                state.as_mut(),
                                |st, i, j, k| physics::eval_eos(st, dt, i, j, k),
                            ),
                            Some(gradient) => {
                                // Material-cost imbalance: EOS cost per
                                // element ramps along the global x axis,
                                // so the priced loop must be weighted.
                                let per = physics::EOS_FLOPS / physics::EOS_REGIONS as f64;
                                let ox = decomp.offset(0);
                                let gn = decomp.global_elems();
                                let weight = |idx: usize| {
                                    let gx = ox + idx % s;
                                    physics::elem_work(
                                        per * physics::gradient_multiplier(
                                            gx,
                                            gn,
                                            gradient.max_multiplier,
                                        ),
                                    )
                                };
                                match state.as_mut() {
                                    Some(st) => {
                                        team.parallel_for_weighted(p, n_elems, weight, |idx| {
                                            let i = idx % s;
                                            let j = (idx / s) % s;
                                            let k = idx / (s * s);
                                            physics::eval_eos(st, dt, i, j, k);
                                        });
                                    }
                                    None => {
                                        team.parallel_for_weighted(p, n_elems, weight, |_| {});
                                    }
                                }
                                for _ in 1..physics::EOS_REGIONS {
                                    team.parallel_for_weighted(p, n_elems, weight, |_| {});
                                }
                            }
                        }
                    });

                    sections.scoped(p, &world, "UpdateVolumesForElems", |p| {
                        elem_kernel(
                            p,
                            &team,
                            s,
                            physics::VOLUME_FLOPS,
                            state.as_mut(),
                            physics::update_volumes,
                        );
                    });
                });

                // ==== CalcTimeConstraints =================================
                sections.scoped(p, &world, "CalcTimeConstraintsForElems", |p| {
                    sections.scoped(p, &world, "CalcCourantHydroConstraint", |p| {
                        let work = physics::elem_work(physics::CONSTRAINT_FLOPS);
                        dt_local = match &state {
                            Some(st) => team.parallel_reduce_uniform(
                                p,
                                n_elems,
                                work,
                                f64::INFINITY,
                                |acc: f64, idx| {
                                    let i = idx % s;
                                    let j = (idx / s) % s;
                                    let k = idx / (s * s);
                                    acc.min(physics::element_dt(st, dx, i, j, k))
                                },
                            ),
                            None => {
                                team.for_cost_uniform(p, n_elems, work);
                                dt_local
                            }
                        };
                    });
                });
            });
        }
    });

    // Post-loop validation/collection (inside MPI_MAIN, outside timeloop).
    let total_energy = state.as_ref().map(|st| {
        let local = st.total_energy();
        world.allreduce_sum_f64(p, local)
    });
    let global_energy = if cfg.collect && full {
        gather_energy(p, &decomp, state.as_ref().expect("full fidelity"))
    } else {
        None
    };

    LuleshOutcome {
        iterations: cfg.iterations,
        final_dt: dt,
        total_energy,
        global_energy,
    }
}

/// Gather the element energy field onto rank 0, reassembled in global
/// index order.
fn gather_energy(p: &mut Proc, decomp: &Decomposition, state: &State) -> Option<Field3> {
    let world = p.world();
    let all = world.gatherv(p, 0, state.e.data.clone());
    if world.rank() != 0 {
        return None;
    }
    let s = decomp.s;
    let side = decomp.side();
    let gs = side * s;
    let mut global = Field3::constant(gs, 0.0);
    for (rank, chunk) in all.into_iter().enumerate() {
        let d = Decomposition::new(world.size(), rank, s);
        let (ox, oy, oz) = (d.offset(0), d.offset(1), d.offset(2));
        for k in 0..s {
            for j in 0..s {
                for i in 0..s {
                    *global.get_mut(ox + i, oy + j, oz + k) = chunk[(k * s + j) * s + i];
                }
            }
        }
    }
    Some(global)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_21_sections() {
        assert_eq!(SECTION_LABELS.len(), 21);
        let mut unique = SECTION_LABELS.to_vec();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), 21, "labels must be distinct");
    }
}
