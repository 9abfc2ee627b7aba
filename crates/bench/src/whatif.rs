//! What-if scenario reports: run the counterfactual replay over a
//! recorded log and package the result the way the profiler reports it —
//! predicted makespan and speedup next to the measured run, the Eq. 6 and
//! critical-path bounds re-evaluated on the re-timed trace, the re-timed
//! wait-state totals, and the windowed trend diagnosis.
//!
//! Lives in `bench` (not `mpi-sections`) because the report spans layers:
//! the replay and timeline are core, the trend detector is `speedup`, and
//! the table/JSON conventions are the profiler's.

use machine::MachineModel;
use mpi_sections::whatif::WhatIfSpec;
use mpi_sections::{classify, critpath, replay, CommLog, Windowing, MPI_MAIN};
use mpisim::diag::json_str;
use speedup::trend::{self, SectionTrend, TrendConfig};

/// One evaluated scenario: the replay's headline numbers plus the full
/// re-timed diagnosis.
pub struct Scenario {
    /// The spec text (scenario label everywhere).
    pub spec: String,
    /// Recorded makespan, ns.
    pub baseline_ns: u64,
    /// Re-timed makespan, ns.
    pub predicted_ns: u64,
    /// Speedup of the recorded run against the sequential total.
    pub measured_speedup: f64,
    /// Speedup the scenario predicts.
    pub predicted_speedup: f64,
    /// Eq. 6 program bound re-evaluated on the re-timed section presence
    /// (infinite when no section has presence).
    pub eq6_bound: f64,
    /// Critical-path length of the re-timed trace, ns.
    pub critical_path_ns: u64,
    /// Critical-path speedup bound of the re-timed trace.
    pub critical_path_bound: f64,
    /// Re-timed wait-state totals.
    pub waits: mpi_sections::waitstate::WaitBreakdown,
    /// Trend diagnosis over the re-timed windowed timeline.
    pub trends: Vec<SectionTrend>,
}

impl Scenario {
    /// One-line trend verdict: the first degrading section, or steady.
    pub fn verdict(&self) -> String {
        match self.trends.iter().find(|t| t.degrading) {
            Some(t) => format!("{} DEGRADING ({} wait)", t.label, t.dominant_wait),
            None => "all steady".to_string(),
        }
    }

    /// Predicted-over-baseline makespan change in percent (negative =
    /// the scenario is faster).
    pub fn delta_pct(&self) -> f64 {
        if self.baseline_ns == 0 {
            return 0.0;
        }
        100.0 * (self.predicted_ns as f64 - self.baseline_ns as f64) / self.baseline_ns as f64
    }

    /// The scenario as one JSON object (jsoncheck-valid: non-finite
    /// bounds become null).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"spec\":{},\"baseline_makespan_ns\":{},\"predicted_makespan_ns\":{},\
             \"delta_pct\":{},\"measured_speedup\":{},\"predicted_speedup\":{},\
             \"eq6_bound\":{},\"critical_path_ns\":{},\"critical_path_bound\":{},\
             \"waits\":{{\"late_sender_ns\":{},\"late_receiver_ns\":{},\"coll_wait_ns\":{}}},\
             \"verdict\":{},\"trends\":{}}}",
            json_str(&self.spec),
            self.baseline_ns,
            self.predicted_ns,
            json_num(self.delta_pct()),
            json_num(self.measured_speedup),
            json_num(self.predicted_speedup),
            json_num(self.eq6_bound),
            self.critical_path_ns,
            json_num(self.critical_path_bound),
            self.waits.late_sender_ns,
            self.waits.late_receiver_ns,
            self.waits.coll_wait_ns,
            json_str(&self.verdict()),
            trend::to_json(&self.trends),
        )
    }
}

/// Evaluate one scenario against a recorded log.
///
/// `seq_total_secs` is the sequential-total reference both speedups and
/// both bounds are normalized by (the profiler's non-`MPI_MAIN` exclusive
/// aggregate); `windowing` selects the timeline the trend detector sees.
pub fn analyze(
    log: &CommLog,
    machine: &MachineModel,
    seed: u64,
    spec: &WhatIfSpec,
    seq_total_secs: f64,
    p: usize,
    windowing: &Windowing,
) -> Result<Scenario, String> {
    let re = replay(log, machine, seed, spec)?;
    let baseline_ns = log.makespan_ns();
    let predicted_ns = re.makespan_ns();
    let cp = critpath::extract(&re);
    let tl = mpi_sections::timeline::build(&re, windowing);
    let trends = trend::detect(&tl, &TrendConfig::default());
    // Eq. 6 on the re-timed trace: every section's presence caps the
    // program at seq_total / (presence / p); the program takes the min.
    let eq6_bound = tl
        .section_totals()
        .iter()
        .filter(|(label, ws)| label.as_str() != MPI_MAIN && ws.time_ns > 0)
        .map(|(_, ws)| mpi_sections::partial_bound(seq_total_secs, ws.time_ns as f64 / 1e9, p))
        .fold(f64::INFINITY, f64::min);
    Ok(Scenario {
        spec: spec.raw.clone(),
        baseline_ns,
        predicted_ns,
        measured_speedup: speedup_of(seq_total_secs, baseline_ns),
        predicted_speedup: speedup_of(seq_total_secs, predicted_ns),
        eq6_bound,
        critical_path_ns: cp.length_ns,
        critical_path_bound: cp.bound(seq_total_secs),
        waits: classify(&re).totals(),
        trends,
    })
}

fn speedup_of(seq_total_secs: f64, makespan_ns: u64) -> f64 {
    if makespan_ns == 0 {
        f64::INFINITY
    } else {
        seq_total_secs / (makespan_ns as f64 / 1e9)
    }
}

/// The scenario delta table: measured run first, one row per scenario.
pub fn render(scenarios: &[Scenario]) -> String {
    let mut rows: Vec<Vec<String>> = Vec::new();
    if let Some(first) = scenarios.first() {
        rows.push(vec![
            "measured".to_string(),
            crate::f2(first.baseline_ns as f64 / 1e9),
            "-".to_string(),
            crate::f2(first.measured_speedup),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
        ]);
    }
    for s in scenarios {
        rows.push(vec![
            s.spec.clone(),
            crate::f2(s.predicted_ns as f64 / 1e9),
            format!("{:+.1}%", s.delta_pct()),
            crate::f2(s.predicted_speedup),
            bound_cell(s.eq6_bound),
            crate::f2(s.critical_path_ns as f64 / 1e9),
            s.verdict(),
        ]);
    }
    let mut out = String::from("what-if replay (re-timed recorded trace)\n");
    out.push_str(&crate::render_table(
        &[
            "scenario",
            "makespan s",
            "delta",
            "speedup",
            "Eq.6 bound",
            "critpath s",
            "trend verdict",
        ],
        &rows,
    ));
    out
}

fn bound_cell(b: f64) -> String {
    if b.is_finite() {
        crate::f2(b)
    } else {
        "unbounded".to_string()
    }
}

/// All scenarios as a JSON array (the `whatif` object of
/// `--metrics-json`).
pub fn to_json(scenarios: &[Scenario]) -> String {
    let items: Vec<String> = scenarios.iter().map(|s| s.to_json()).collect();
    format!("[{}]", items.join(","))
}

/// The full machine-model parameter block for the `--metrics-json`
/// config object: LogGP link parameters, placement, noise configuration
/// and a fingerprint of the lossless config round-trip (so two documents
/// disagree whenever any model parameter does).
pub fn machine_config_json(m: &MachineModel) -> String {
    let link = |l: &machine::LinkModel| {
        format!(
            "{{\"latency_s\":{},\"bandwidth_bytes_per_s\":{},\"overhead_s\":{}}}",
            json_num(l.latency),
            json_num(l.bandwidth),
            json_num(l.overhead)
        )
    };
    format!(
        "{{\"name\":{},\"cores_per_node\":{},\"hw_threads_per_core\":{},\
         \"ranks_per_node\":{},\"intra_node\":{},\"inter_node\":{},\
         \"noise\":{{\"compute_sigma\":{},\"net_latency_jitter_mean_s\":{}}},\
         \"fingerprint\":\"{:016x}\"}}",
        json_str(&m.name),
        m.cores_per_node,
        m.hw_threads_per_core,
        json_usize(m.topology.ranks_per_node),
        link(&m.network.intra_node),
        link(&m.network.inter_node),
        json_num(m.noise.compute_sigma),
        json_num(m.noise.net_latency_jitter_mean),
        mpiverify::fingerprint(&m.to_config_str()),
    )
}

/// A float as a JSON number, or null when not finite (JSON has no
/// inf/nan and an ideal machine has infinite bandwidth).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:e}")
    } else {
        "null".to_string()
    }
}

/// A usize as a JSON number, with the `usize::MAX` "unbounded" sentinel
/// (single-node topology) mapped to null.
fn json_usize(v: usize) -> String {
    if v == usize::MAX {
        "null".to_string()
    } else {
        v.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_sections::whatif;

    fn demo() -> (CommLog, MachineModel) {
        let m = machine::presets::nehalem_cluster();
        let sections = mpi_sections::SectionRuntime::new(mpi_sections::VerifyMode::Active);
        let rec = mpi_sections::CommRecorder::new();
        let s = sections.clone();
        mpisim::WorldBuilder::new(4)
            .machine(m.clone())
            .seed(9)
            .tool(sections.clone())
            .tool(rec.clone())
            .run(move |p| {
                let world = p.world();
                for _ in 0..6 {
                    s.scoped(p, &world, "HALO", |p| {
                        let world = p.world();
                        p.compute(machine::Work::new(5e6, 5e5));
                        let next = (p.world_rank() + 1) % p.world_size();
                        let prev = (p.world_rank() + p.world_size() - 1) % p.world_size();
                        world.send(p, next, 1, &[3u8; 512]);
                        let _ = world.recv::<u8>(p, mpisim::Src::Rank(prev), mpisim::TagSel::Any);
                    });
                }
            })
            .unwrap();
        (rec.freeze(), m)
    }

    #[test]
    fn scenario_json_is_valid_and_deterministic() {
        let (log, m) = demo();
        let spec = whatif::parse("jitter=0").unwrap();
        let a = analyze(&log, &m, 9, &spec, 1.0, 4, &Windowing::Fixed(4)).unwrap();
        let b = analyze(&log, &m, 9, &spec, 1.0, 4, &Windowing::Fixed(4)).unwrap();
        assert_eq!(a.to_json(), b.to_json());
        assert!(!a.to_json().contains("inf"), "{}", a.to_json());
        assert!(a.predicted_ns > 0);
        assert!(a.predicted_ns <= a.baseline_ns);
    }

    #[test]
    fn identity_scenario_predicts_the_measurement() {
        let (log, m) = demo();
        let s = analyze(
            &log,
            &m,
            9,
            &WhatIfSpec::identity(),
            1.0,
            4,
            &Windowing::Fixed(4),
        )
        .unwrap();
        assert_eq!(s.baseline_ns, s.predicted_ns);
        assert_eq!(s.delta_pct(), 0.0);
        assert_eq!(s.measured_speedup, s.predicted_speedup);
    }

    #[test]
    fn render_has_measured_row_and_every_scenario() {
        let (log, m) = demo();
        let specs = ["net=ideal", "jitter=0"];
        let scenarios: Vec<Scenario> = specs
            .iter()
            .map(|raw| {
                let spec = whatif::parse(raw).unwrap();
                analyze(&log, &m, 9, &spec, 1.0, 4, &Windowing::Fixed(4)).unwrap()
            })
            .collect();
        let table = render(&scenarios);
        assert!(table.contains("measured"));
        for raw in specs {
            assert!(table.contains(raw), "{table}");
        }
    }

    #[test]
    fn machine_config_json_guards_non_finite_floats() {
        let ideal = machine_config_json(&machine::presets::ideal());
        assert!(!ideal.contains("inf"), "{ideal}");
        assert!(ideal.contains("\"fingerprint\""));
        let nehalem = machine_config_json(&machine::presets::nehalem_cluster());
        assert_ne!(ideal, nehalem);
    }
}
