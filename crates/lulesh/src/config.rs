//! Run configurations, including the paper's strong-scaling table (Fig. 7).

use shmem::Schedule;

/// Whether state arrays really exist and kernels really execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Real (simplified) hydro state; decomposition-independent results.
    Full,
    /// Modelled costs only; virtual halo payloads.
    Timing,
}

/// Configuration of one LULESH-proxy run.
#[derive(Debug, Clone)]
pub struct LuleshConfig {
    /// Per-process edge length in elements (`-s` in LULESH).
    pub s: usize,
    /// Number of time-loop iterations.
    pub iterations: usize,
    /// OpenMP-style threads per MPI process.
    pub threads: usize,
    /// Loop schedule of the threaded kernels.
    pub schedule: Schedule,
    /// Data fidelity.
    pub fidelity: Fidelity,
    /// Gather the global energy field on rank 0 at the end (`Full` only;
    /// used by decomposition-independence tests).
    pub collect: bool,
    /// Optional material-cost imbalance (real LULESH's `-b` regions): the
    /// EOS cost of an element ramps linearly along the global x axis from
    /// 1× to `max_multiplier`×. Creates both intra-rank (thread) and
    /// inter-rank (MPI) imbalance.
    pub cost_gradient: Option<CostGradient>,
}

/// Material-cost gradient configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostGradient {
    /// EOS cost multiplier at the far end of the x axis (>= 1).
    pub max_multiplier: f64,
}

impl LuleshConfig {
    /// A full-fidelity configuration for correctness tests.
    pub fn small(s: usize, iterations: usize) -> LuleshConfig {
        LuleshConfig {
            s,
            iterations,
            threads: 1,
            schedule: Schedule::Static,
            fidelity: Fidelity::Full,
            collect: true,
            cost_gradient: None,
        }
    }

    /// A timing-fidelity configuration for scaling studies.
    pub fn timing(s: usize, iterations: usize, threads: usize) -> LuleshConfig {
        LuleshConfig {
            s,
            iterations,
            threads,
            schedule: Schedule::Static,
            fidelity: Fidelity::Timing,
            collect: false,
            cost_gradient: None,
        }
    }

    /// Local element count (`s³`).
    pub fn elems(&self) -> usize {
        self.s * self.s * self.s
    }

    /// Local node count (`(s+1)³`).
    pub fn nodes(&self) -> usize {
        (self.s + 1) * (self.s + 1) * (self.s + 1)
    }
}

/// The paper's iteration count for the §5.2 measurements (LULESH at
/// `-s 48` runs ~2500 time steps). Together with the per-kernel flop
/// weights this calibrates the KNL preset to the 882.48 s sequential
/// walltime of Fig. 10.
pub const PAPER_ITERATIONS: usize = 2500;

/// The total element count all Fig. 7 configurations preserve.
pub const PAPER_TOTAL_ELEMENTS: usize = 110_592;

/// The most threads per rank a run accepts: 8× the hardware threads of the
/// largest machine preset (`future_manycore`, 512). A priced region draws
/// one jitter factor per thread, so the count bounds the run's time.
pub const MAX_THREADS: usize = 4096;

/// `threads` if a run accepts it (`1..=MAX_THREADS`), else what to tell
/// whoever asked for it. Command lines and sweep grids check here; the
/// thread team itself silently runs 0 threads as 1.
pub fn threads_in_range(threads: usize) -> Result<usize, String> {
    if (1..=MAX_THREADS).contains(&threads) {
        Ok(threads)
    } else {
        Err(format!(
            "expects 1..={MAX_THREADS} threads per rank, got {threads}"
        ))
    }
}

/// The per-process size `s` keeping `total` elements over a cubic
/// decomposition of `p` processes, if it exists: `s = cbrt(total / p)`.
pub fn size_for(total: usize, p: usize) -> Option<usize> {
    if p == 0 || !total.is_multiple_of(p) {
        return None;
    }
    let local = total / p;
    let s = (local as f64).cbrt().round() as usize;
    (s * s * s == local).then_some(s)
}

/// The strong-scaling table of Fig. 7: `(MPI processes, s, total elements)`.
pub fn table7() -> Vec<(usize, usize, usize)> {
    [1usize, 8, 27, 64]
        .iter()
        .map(|&p| {
            let s = size_for(PAPER_TOTAL_ELEMENTS, p).expect("Fig. 7 sizes are exact cubes");
            (p, s, PAPER_TOTAL_ELEMENTS)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_rows() {
        // The exact Fig. 7 table: 48/24/16/12 all preserving 110 592.
        assert_eq!(
            table7(),
            vec![
                (1, 48, 110_592),
                (8, 24, 110_592),
                (27, 16, 110_592),
                (64, 12, 110_592),
            ]
        );
    }

    #[test]
    fn thread_counts_outside_the_range_are_refused() {
        assert_eq!(threads_in_range(1), Ok(1));
        assert_eq!(threads_in_range(MAX_THREADS), Ok(MAX_THREADS));
        for threads in [0, MAX_THREADS + 1, usize::MAX] {
            let refused = threads_in_range(threads).unwrap_err();
            assert!(refused.contains("1..=4096"), "{refused}");
        }
    }

    #[test]
    fn size_for_rejects_non_cubes() {
        assert_eq!(size_for(110_592, 2), None); // 55296 is not a cube
        assert_eq!(size_for(110_592, 7), None); // not even divisible
        assert_eq!(size_for(0, 0), None);
        assert_eq!(size_for(27, 27), Some(1));
    }

    #[test]
    fn counts() {
        let cfg = LuleshConfig::small(4, 10);
        assert_eq!(cfg.elems(), 64);
        assert_eq!(cfg.nodes(), 125);
    }
}
