//! Cross-run analyses served entirely from the store.
//!
//! `study report` never simulates: it ingests every stored run document,
//! groups the convolution cells into the §5.1 sweep and the weak-scaling
//! cells into the Gustafson sweep, and emits
//!
//! * a pypop-style per-section table — parallel efficiency vs p,
//!   computation-scaling rows, Eq. 6 bound and the detected inflexion;
//! * the `results/*.csv` figures, rebuilt through the **same** `bench`
//!   row builders the ad-hoc harness uses, so the regenerated files are
//!   byte-identical to harness output for the same seeds;
//! * a machine-readable report document (`mpistudy-report-v1`).

use crate::doc::RunDoc;
use crate::store::RunStore;
use bench::{conv_run_from_cells, CellOutcome, ConvRun};
use speedup::{ScalingStudy, StoredSectionRow};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Everything `study report` derives from one store.
#[derive(Debug)]
pub struct Report {
    /// Stored run documents considered (all of them).
    pub total_docs: usize,
    /// The convolution sweep group: `(machine, steps)` and its runs,
    /// seed-averaged per p (ascending).
    pub conv: Option<ConvGroup>,
    /// The weak-scaling group: `(machine, steps, rows_per_rank)` and its
    /// seed-averaged `(p, wall)` points (ascending p).
    pub weak: Option<WeakGroup>,
}

/// The seed-averaged §5.1-style convolution sweep found in the store.
#[derive(Debug)]
pub struct ConvGroup {
    /// Machine preset name.
    pub machine: String,
    /// Time steps per cell.
    pub steps: usize,
    /// Seeds that were averaged (ascending).
    pub seeds: Vec<u64>,
    /// Seed-averaged runs, ascending p.
    pub runs: Vec<ConvRun>,
    /// The multi-scale section study over the stored rows.
    pub study: ScalingStudy,
}

/// The weak-scaling sweep found in the store.
#[derive(Debug)]
pub struct WeakGroup {
    /// Machine preset name.
    pub machine: String,
    /// Time steps per cell.
    pub steps: usize,
    /// Image rows per rank.
    pub rows_per_rank: usize,
    /// `(p, wall_secs)`, ascending p; the wall is the mean over the seeds
    /// the sweep holds at every p.
    pub walls: Vec<(usize, f64)>,
}

/// Build the report from every document in the store. When the store
/// holds several distinct sweeps, the largest group wins (ties break on
/// the group key, deterministically).
pub fn build(store: &RunStore) -> Report {
    let docs = store.iter();
    Report {
        total_docs: docs.len(),
        conv: conv_group(&docs),
        weak: weak_group(&docs),
    }
}

/// One sweep found in the store: its group key, the seeds that are
/// complete at every scale (ascending — the order the harness feeds seeds
/// in) and, per scale in ascending p, the outcomes of exactly those seeds
/// in that order.
type Sweep<K> = (K, Vec<u64>, Vec<(usize, Vec<CellOutcome>)>);

/// The one grouping both reports use. Documents of `workload` are grouped
/// by `key` (a document without one is skipped); the largest group wins,
/// ties break on the key. Seeds must be complete across every p for an
/// average to mean the same thing at every scale, so only those present
/// everywhere are kept; a group with none is no sweep.
fn largest_sweep<K: Ord + Clone>(
    docs: &[RunDoc],
    workload: &str,
    key: impl Fn(&RunDoc) -> Option<K>,
) -> Option<Sweep<K>> {
    let mut groups: BTreeMap<K, Vec<&RunDoc>> = BTreeMap::new();
    for doc in docs.iter().filter(|d| d.workload == workload) {
        if let Some(key) = key(doc) {
            groups.entry(key).or_default().push(doc);
        }
    }
    let (key, members) = groups
        .into_iter()
        .max_by_key(|(k, v)| (v.len(), std::cmp::Reverse(k.clone())))?;
    let mut by_p: BTreeMap<usize, BTreeMap<u64, &RunDoc>> = BTreeMap::new();
    for doc in members {
        by_p.entry(doc.p).or_default().insert(doc.seed, doc);
    }
    let mut seeds: Vec<u64> = by_p.values().next()?.keys().copied().collect();
    seeds.retain(|s| by_p.values().all(|m| m.contains_key(s)));
    if seeds.is_empty() {
        return None;
    }
    let cells = by_p
        .iter()
        .map(|(&p, by_seed)| (p, seeds.iter().map(|s| by_seed[s].outcome()).collect()))
        .collect();
    Some((key, seeds, cells))
}

fn conv_group(docs: &[RunDoc]) -> Option<ConvGroup> {
    let ((machine, steps), seeds, cells) = largest_sweep(docs, "conv", |doc| {
        Some((doc.machine.clone(), doc.steps()?))
    })?;
    let runs: Vec<ConvRun> = cells
        .iter()
        .map(|(p, cells)| conv_run_from_cells(*p, cells))
        .collect();

    // Section study rows: per (p, label), seed-averaged in the seed order
    // of the figures.
    let rows: Vec<StoredSectionRow> = cells
        .iter()
        .flat_map(|(p, cells)| bench::study_rows(*p, cells))
        .collect();
    Some(ConvGroup {
        machine,
        steps,
        seeds,
        runs,
        study: ScalingStudy::from_rows(&rows),
    })
}

fn weak_group(docs: &[RunDoc]) -> Option<WeakGroup> {
    let ((machine, steps, rows_per_rank), seeds, cells) =
        largest_sweep(docs, "conv-weak", |doc| {
            Some((doc.machine.clone(), doc.steps()?, doc.rows_per_rank()?))
        })?;
    // The wall is averaged over the seeds as the conv sweep's is.
    let n = seeds.len() as f64;
    let walls = cells
        .iter()
        .map(|(p, cells)| (*p, cells.iter().map(|c| c.wall_secs).sum::<f64>() / n))
        .collect();
    Some(WeakGroup {
        machine,
        steps,
        rows_per_rank,
        walls,
    })
}

impl Report {
    /// The human-facing report: the study verdict plus the pypop-style
    /// per-section table.
    pub fn render(&self) -> String {
        let mut out = format!("run store: {} documents\n", self.total_docs);
        if let Some(conv) = &self.conv {
            out.push_str(&format!(
                "\nconvolution sweep: machine={} steps={} seeds={:?} p={:?}\n\n",
                conv.machine,
                conv.steps,
                conv.seeds,
                conv.runs.iter().map(|r| r.p).collect::<Vec<_>>(),
            ));
            out.push_str(&conv.study.render());
            out.push('\n');
            out.push_str(&section_table(conv));
        } else {
            out.push_str("\n(no convolution sweep stored)\n");
        }
        if let Some(weak) = &self.weak {
            out.push_str(&format!(
                "\nweak scaling: machine={} steps={} rows/rank={}\n",
                weak.machine, weak.steps, weak.rows_per_rank
            ));
            out.push_str(&bench::render_table(
                &bench::WEAK_HEADER,
                &bench::weak_scaling_rows(weak.rows_per_rank, &weak.walls),
            ));
        }
        out
    }

    /// Regenerate the figure CSVs this store can serve, returning the
    /// paths written. Output is byte-identical to the `figures` harness
    /// for the same machine/steps/seeds because both call the same
    /// `bench` row builders on the same numbers.
    pub fn write_figures(&self, out_dir: &Path) -> std::io::Result<Vec<PathBuf>> {
        let mut written = Vec::new();
        if let Some(conv) = &self.conv {
            let rows = bench::fig6_rows(&conv.runs);
            if !rows.is_empty() {
                written.push(bench::write_csv(
                    out_dir,
                    "fig6",
                    &bench::FIG6_HEADER,
                    &rows,
                )?);
            }
        }
        if let Some(weak) = &self.weak {
            let rows = bench::weak_scaling_rows(weak.rows_per_rank, &weak.walls);
            written.push(bench::write_csv(
                out_dir,
                "weak_scaling",
                &bench::WEAK_HEADER,
                &rows,
            )?);
        }
        Ok(written)
    }

    /// Machine-readable report (`mpistudy-report-v1`, jsoncheck-valid).
    pub fn to_json(&self) -> String {
        let conv = match &self.conv {
            None => "null".to_string(),
            Some(conv) => {
                let sections: Vec<String> = conv
                    .study
                    .sections
                    .values()
                    .map(|s| {
                        let effs: Vec<String> = s
                            .per_process
                            .points()
                            .iter()
                            .filter_map(|pt| {
                                let e = conv.study.parallel_efficiency(s, pt.p)?;
                                Some(format!("{{\"p\": {}, \"eff\": {e}}}", pt.p))
                            })
                            .collect();
                        let bounds: Vec<String> = s
                            .bounds
                            .iter()
                            .map(|(p, b)| {
                                let b = if b.is_finite() {
                                    format!("{b}")
                                } else {
                                    "null".to_string()
                                };
                                format!("{{\"p\": {p}, \"bound\": {b}}}")
                            })
                            .collect();
                        format!(
                            "{{\"label\": \"{}\", \"inflexion_p\": {}, \
                             \"efficiency\": [{}], \"bounds\": [{}]}}",
                            s.label,
                            s.inflexion_p
                                .map(|p| p.to_string())
                                .unwrap_or_else(|| "null".into()),
                            effs.join(", "),
                            bounds.join(", "),
                        )
                    })
                    .collect();
                format!(
                    "{{\"machine\": \"{}\", \"steps\": {}, \"seeds\": {:?}, \
                     \"seq_total_secs\": {}, \"sections\": [{}]}}",
                    conv.machine,
                    conv.steps,
                    conv.seeds,
                    conv.study.seq_total_secs,
                    sections.join(", "),
                )
            }
        };
        let weak = match &self.weak {
            None => "null".to_string(),
            Some(weak) => {
                let walls: Vec<String> = weak
                    .walls
                    .iter()
                    .map(|(p, w)| format!("{{\"p\": {p}, \"wall_secs\": {w}}}"))
                    .collect();
                format!(
                    "{{\"machine\": \"{}\", \"steps\": {}, \"rows_per_rank\": {}, \
                     \"walls\": [{}]}}",
                    weak.machine,
                    weak.steps,
                    weak.rows_per_rank,
                    walls.join(", "),
                )
            }
        };
        format!(
            "{{\"schema\": \"mpistudy-report-v1\", \"total_docs\": {}, \
             \"conv\": {conv}, \"weak\": {weak}}}\n",
            self.total_docs,
        )
    }
}

/// The pypop-style table: one block per section, with the study's
/// parallel efficiency and Eq. 6 bound at every stored scale, and
/// computation scaling (the section's time summed over ranks relative to
/// the baseline, from the seed-averaged `ConvRun` totals Fig. 5(b)
/// prints).
fn section_table(conv: &ConvGroup) -> String {
    let ps: Vec<usize> = conv.runs.iter().map(|r| r.p).collect();
    let mut header: Vec<String> = vec!["section".into(), "metric".into()];
    header.extend(ps.iter().map(|p| format!("p={p}")));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let study = &conv.study;
    let mut rows = Vec::new();
    for s in study.sections.values() {
        let mut eff_row = vec![s.label.clone(), "parallel_eff".into()];
        let mut comp_row = vec![String::new(), "comp_scaling".into()];
        let mut bound_row = vec![String::new(), "eq6_bound".into()];
        let base_total = conv.runs.first().map_or(0.0, |r| r.total(&s.label));
        for run in &conv.runs {
            eff_row.push(
                study
                    .parallel_efficiency(s, run.p)
                    .map_or_else(|| "-".into(), |e| format!("{e:.3}")),
            );
            comp_row.push(if base_total > 0.0 {
                format!("{:.3}", run.total(&s.label) / base_total)
            } else {
                "-".into()
            });
            bound_row.push(s.bound_at(run.p).map_or_else(|| "-".into(), bench::f2));
        }
        rows.push(eff_row);
        rows.push(comp_row);
        rows.push(bound_row);
    }
    let mut out = format!(
        "per-section scaling (baseline p={}; parallel_eff 1.000 = perfect, \
         comp_scaling 1.000 = work conserved):\n",
        study.base_p
    );
    out.push_str(&bench::render_table(&header_refs, &rows));
    if let Some(inflexion) = study
        .saturated_sections()
        .iter()
        .map(|s| format!("{} (p={})", s.label, s.inflexion_p.unwrap_or(0)))
        .reduce(|a, b| format!("{a}, {b}"))
    {
        out.push_str(&format!(
            "sections past their inflexion before the largest scale: {inflexion}\n"
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{machine_fingerprint, resolve_machine, CellConfig, GridSpec};
    use crate::pool::{execute_cell, run_sweep};

    fn tmp_store(tag: &str) -> RunStore {
        let dir =
            std::env::temp_dir().join(format!("mpistudy-report-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        RunStore::open(dir).unwrap()
    }

    /// The grid's cells simulated in-process and never written down, one
    /// `Vec` of seed outcomes per p: what the stored documents must give
    /// back bit-for-bit through the JSON round trip.
    fn in_process(grid: &GridSpec) -> Vec<(usize, Vec<CellOutcome>)> {
        let machine = resolve_machine(&grid.machine).unwrap();
        let cells = grid.cells();
        cells
            .chunks(grid.seeds.len())
            .map(|per_p| {
                let outcomes = per_p.iter().map(|c| execute_cell(c, &machine)).collect();
                (per_p[0].p, outcomes)
            })
            .collect()
    }

    #[test]
    fn report_from_small_sweep() {
        let store = tmp_store("basic");
        let grid =
            GridSpec::parse("workload=conv machine=nehalem_cluster p=1,4,16 steps=5 seeds=0,1")
                .unwrap();
        run_sweep(&store, &grid.cells(), 2);
        let report = build(&store);
        let conv = report.conv.as_ref().expect("conv group");
        assert_eq!(conv.seeds, vec![0, 1]);
        assert_eq!(
            conv.runs.iter().map(|r| r.p).collect::<Vec<_>>(),
            vec![1, 4, 16]
        );
        let text = report.render();
        assert!(text.contains("parallel_eff"));
        assert!(text.contains("eq6_bound"));
        assert!(text.contains("CONVOLVE"));
        mpisim::jsoncheck::assert_json(&report.to_json(), "report document");
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn stored_runs_match_the_harness_bitwise() {
        // The acceptance criterion behind figure regeneration: the seed-
        // averaged runs reconstructed from stored documents must equal the
        // average of the same cells simulated in-process, bit-for-bit.
        let store = tmp_store("bitwise");
        let grid = GridSpec::parse("workload=conv machine=nehalem_cluster p=1,4 steps=5 seeds=0,1")
            .unwrap();
        run_sweep(&store, &grid.cells(), 2);
        let conv = build(&store).conv.expect("conv group");
        let direct = in_process(&grid);
        assert_eq!(conv.runs.len(), direct.len());
        for (run, (p, cells)) in conv.runs.iter().zip(&direct) {
            let direct = conv_run_from_cells(*p, cells);
            assert_eq!(run.p, direct.p);
            assert_eq!(run.wall.to_bits(), direct.wall.to_bits(), "p={}", run.p);
            for (label, total) in &run.section_total {
                assert_eq!(
                    total.to_bits(),
                    direct.section_total[label].to_bits(),
                    "p={} {label}",
                    run.p
                );
            }
        }
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn fig6_regenerates_byte_identical_to_the_harness() {
        // p=1 is the baseline; 64 and 80 are paper scales Fig. 6 reports.
        let store = tmp_store("fig6");
        let grid =
            GridSpec::parse("workload=conv machine=nehalem_cluster p=1,64,80 steps=5 seeds=0,1")
                .unwrap();
        run_sweep(&store, &grid.cells(), 2);
        let report = build(&store);
        let out = store.root().join("figures");
        let written = report.write_figures(&out).unwrap();
        assert!(written.iter().any(|p| p.ends_with("fig6.csv")));

        // The harness path on the same cells.
        let runs: Vec<ConvRun> = in_process(&grid)
            .iter()
            .map(|(p, cells)| conv_run_from_cells(*p, cells))
            .collect();
        let mut expected = bench::FIG6_HEADER.join(",");
        expected.push('\n');
        for row in bench::fig6_rows(&runs) {
            expected.push_str(&row.join(","));
            expected.push('\n');
        }
        let stored = std::fs::read_to_string(out.join("fig6.csv")).unwrap();
        assert_eq!(stored, expected);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn weak_group_and_figures() {
        let store = tmp_store("weak");
        let grid = GridSpec::parse(
            "workload=conv-weak machine=nehalem_cluster p=1,2,4 rows_per_rank=64 steps=4 seeds=31",
        )
        .unwrap();
        run_sweep(&store, &grid.cells(), 2);
        let report = build(&store);
        let weak = report.weak.as_ref().expect("weak group");
        assert_eq!(weak.rows_per_rank, 64);
        assert_eq!(weak.walls.len(), 3);
        let out = store.root().join("figures");
        let written = report.write_figures(&out).unwrap();
        assert!(written.iter().any(|p| p.ends_with("weak_scaling.csv")));
        // Byte-identity with the harness path for the same cells.
        let walls: Vec<(usize, f64)> = in_process(&grid)
            .iter()
            .map(|(p, cells)| (*p, cells[0].wall_secs))
            .collect();
        let harness_rows = bench::weak_scaling_rows(64, &walls);
        let stored = std::fs::read_to_string(out.join("weak_scaling.csv")).unwrap();
        let mut expected = bench::WEAK_HEADER.join(",");
        expected.push('\n');
        for row in harness_rows {
            expected.push_str(&row.join(","));
            expected.push('\n');
        }
        assert_eq!(stored, expected);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn weak_walls_are_the_seed_mean_whatever_order_documents_arrive_in() {
        // Three seeds per p. The store lists documents in file-name (=
        // hash) order, so a table built from "the last document per p"
        // would mix seeds: the wall is the per-p mean over the seeds and
        // does not depend on the order the documents come in.
        let grid = GridSpec::parse(
            "workload=conv-weak machine=nehalem_cluster p=1,2,4 rows_per_rank=64 steps=4 \
             seeds=0,1,2",
        )
        .unwrap();
        let machine = resolve_machine(&grid.machine).unwrap();
        let fp = machine_fingerprint(&machine);
        let cells: Vec<CellConfig> = grid.cells();
        let mut docs: Vec<RunDoc> = cells
            .iter()
            .map(|c| RunDoc::new(c, &fp, &execute_cell(c, &machine)))
            .collect();
        let mean_of = |p: usize| {
            let walls = docs.iter().filter(|d| d.p == p).map(|d| d.wall_secs);
            walls.sum::<f64>() / 3.0
        };
        let expected: Vec<(usize, f64)> = [1, 2, 4].map(|p| (p, mean_of(p))).to_vec();
        // Seeds differ, or the mean would prove nothing.
        assert_ne!(docs[0].wall_secs.to_bits(), docs[1].wall_secs.to_bits());

        let forward = weak_group(&docs).expect("weak group").walls;
        docs.reverse();
        let backward = weak_group(&docs).expect("weak group").walls;
        docs.rotate_left(4);
        let rotated = weak_group(&docs).expect("weak group").walls;
        for walls in [&forward, &backward, &rotated] {
            assert_eq!(walls.len(), 3);
            for ((p, wall), (ep, ewall)) in walls.iter().zip(&expected) {
                assert_eq!(p, ep);
                assert_eq!(wall.to_bits(), ewall.to_bits(), "p={p}");
            }
        }

        // A seed missing at one p is left out everywhere.
        docs.retain(|d| !(d.p == 2 && d.seed == 1));
        let partial = weak_group(&docs).expect("weak group").walls;
        let only = |p: usize, seeds: [u64; 2]| {
            let walls = seeds.map(|s| {
                let doc = docs.iter().find(|d| d.p == p && d.seed == s);
                doc.expect("document").wall_secs
            });
            (walls[0] + walls[1]) / 2.0
        };
        assert_eq!(partial[0].1.to_bits(), only(1, [0, 2]).to_bits());
        assert_eq!(partial[1].1.to_bits(), only(2, [0, 2]).to_bits());
    }
}
