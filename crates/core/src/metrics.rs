//! Derived section metrics — the quantities of the paper's Fig. 3.
//!
//! For one *instance* of a section (the k-th time a label is entered on a
//! communicator), across all participating ranks:
//!
//! * `Tmin`  — earliest enter time (first process into the region);
//! * `Tin`   — per-rank enter timestamps;
//! * `Tout`  — per-rank exit timestamps;
//! * `Tsection = Tout - Tmin` — the paper's per-rank section time;
//! * `Tmax`  — latest exit time;
//! * entry imbalance per rank: `imb_in = Tin - Tmin`;
//! * section imbalance: `imb = (Tmax - Tmin) - mean(Tsection)`.
//!
//! [`InstanceStats`] accumulates these in streaming form (no per-rank
//! storage), so profiling a 456-rank, 1000-step run stays cheap. A long run
//! holds one per instance, so it carries only what a report reads: integer
//! sums and min/max, 96 bytes, folded order-independently.

use machine::VTime;

/// Streaming statistics of one section instance across its participants.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceStats {
    /// Number of ranks that completed the instance so far.
    pub count: u64,
    /// Earliest enter (`Tmin`).
    pub min_enter: VTime,
    /// Latest exit (`Tmax`).
    pub max_exit: VTime,
    /// Sum of enter timestamps (nanoseconds).
    pub sum_enter_ns: u128,
    /// Sum of exit timestamps (nanoseconds).
    pub sum_exit_ns: u128,
    /// Smallest per-rank inclusive duration.
    pub min_own: VTime,
    /// Largest per-rank inclusive duration.
    pub max_own: VTime,
    /// Sum of per-rank exclusive durations (nanoseconds).
    pub sum_excl_ns: u128,
}

impl Default for InstanceStats {
    fn default() -> Self {
        InstanceStats {
            count: 0,
            min_enter: VTime::MAX,
            max_exit: VTime::ZERO,
            sum_enter_ns: 0,
            sum_exit_ns: 0,
            min_own: VTime::MAX,
            max_own: VTime::ZERO,
            sum_excl_ns: 0,
        }
    }
}

impl InstanceStats {
    /// Fold in one rank's completed traversal (`exit` is not before
    /// `enter`: a rank's clock only moves forward).
    pub fn record(&mut self, enter: VTime, exit: VTime, exclusive: VTime) {
        debug_assert!(exit >= enter, "exit {exit:?} before enter {enter:?}");
        let own = exit - enter;
        self.count += 1;
        self.min_enter = self.min_enter.min(enter);
        self.max_exit = self.max_exit.max(exit);
        self.sum_enter_ns += enter.as_nanos() as u128;
        self.sum_exit_ns += exit.as_nanos() as u128;
        self.min_own = self.min_own.min(own);
        self.max_own = self.max_own.max(own);
        self.sum_excl_ns += exclusive.as_nanos() as u128;
    }

    /// `Tmin` — when the first process entered the region.
    pub fn t_min(&self) -> VTime {
        if self.count == 0 {
            VTime::ZERO
        } else {
            self.min_enter
        }
    }

    /// `Tmax` — when the last process left the region.
    pub fn t_max(&self) -> VTime {
        self.max_exit
    }

    /// `Tmax - Tmin`: the instance's distributed wall presence.
    pub fn span(&self) -> VTime {
        if self.count == 0 {
            VTime::ZERO
        } else {
            self.max_exit - self.min_enter
        }
    }

    /// Mean of the paper's per-rank `Tsection = Tout - Tmin`, in seconds.
    pub fn mean_t_section_secs(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let mean_exit = self.sum_exit_ns as f64 / self.count as f64 * 1e-9;
        mean_exit - self.min_enter.as_secs_f64()
    }

    /// Sum of per-rank inclusive durations `Tout - Tin`, in seconds:
    /// the exits' sum less the enters', exact since no exit precedes its
    /// enter.
    pub fn total_own_secs(&self) -> f64 {
        (self.sum_exit_ns - self.sum_enter_ns) as f64 * 1e-9
    }

    /// Sum of per-rank exclusive durations, in seconds.
    pub fn total_excl_secs(&self) -> f64 {
        self.sum_excl_ns as f64 * 1e-9
    }

    /// The paper's section imbalance `imb = (Tmax - Tmin) - mean(Tsection)`,
    /// in seconds. Mathematically non-negative (`mean(Tout) <= Tmax`);
    /// clamped against floating-point rounding.
    pub fn imbalance_secs(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        (self.span().as_secs_f64() - self.mean_t_section_secs()).max(0.0)
    }

    /// Mean entry imbalance `mean(Tin - Tmin)`, in seconds.
    pub fn mean_entry_imbalance_secs(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let mean_enter = self.sum_enter_ns as f64 / self.count as f64 * 1e-9;
        mean_enter - self.min_enter.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> VTime {
        VTime::from_secs_f64(s)
    }

    /// The Fig. 3 scenario: three ranks enter a region at different times
    /// and leave at different times.
    fn fig3_instance() -> InstanceStats {
        let mut inst = InstanceStats::default();
        // rank 0: 1.0 -> 4.0, rank 1: 2.0 -> 5.0, rank 2: 3.0 -> 6.0
        inst.record(t(1.0), t(4.0), t(3.0));
        inst.record(t(2.0), t(5.0), t(3.0));
        inst.record(t(3.0), t(6.0), t(3.0));
        inst
    }

    #[test]
    fn tmin_tmax_span() {
        let inst = fig3_instance();
        assert_eq!(inst.t_min(), t(1.0));
        assert_eq!(inst.t_max(), t(6.0));
        assert_eq!(inst.span(), t(5.0));
        assert_eq!(inst.count, 3);
    }

    #[test]
    fn t_section_is_exit_minus_tmin() {
        let inst = fig3_instance();
        // Tsection per rank: 3, 4, 5 -> mean 4.
        assert!((inst.mean_t_section_secs() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn imbalance_matches_paper_formula() {
        let inst = fig3_instance();
        // imb = (Tmax - Tmin) - mean(Tsection) = 5 - 4 = 1.
        assert!((inst.imbalance_secs() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn entry_imbalance() {
        let inst = fig3_instance();
        // Tin - Tmin: 0, 1, 2 -> mean 1.
        assert!((inst.mean_entry_imbalance_secs() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn own_durations() {
        let inst = fig3_instance();
        assert!((inst.total_own_secs() - 9.0).abs() < 1e-9);
        assert_eq!(inst.min_own, t(3.0));
        assert_eq!(inst.max_own, t(3.0));
    }

    #[test]
    fn perfectly_synchronized_region_has_zero_imbalance() {
        let mut inst = InstanceStats::default();
        for _ in 0..4 {
            inst.record(t(10.0), t(12.0), t(2.0));
        }
        assert!(inst.imbalance_secs().abs() < 1e-9);
        assert!(inst.mean_entry_imbalance_secs().abs() < 1e-9);
    }

    #[test]
    fn empty_instance_is_all_zeros() {
        let inst = InstanceStats::default();
        assert_eq!(inst.t_min(), VTime::ZERO);
        assert_eq!(inst.span(), VTime::ZERO);
        assert_eq!(inst.mean_t_section_secs(), 0.0);
        assert_eq!(inst.imbalance_secs(), 0.0);
    }

    #[test]
    fn one_instance_is_96_bytes() {
        assert_eq!(size_of::<InstanceStats>(), 96);
    }

    #[test]
    fn exclusive_tracking() {
        let mut inst = InstanceStats::default();
        inst.record(t(0.0), t(10.0), t(4.0));
        assert!((inst.total_excl_secs() - 4.0).abs() < 1e-9);
        assert!((inst.total_own_secs() - 10.0).abs() < 1e-9);
    }
}
