//! Classical scaling laws (paper §2, Eqs. 1–2 and related work).

/// The canonical speedup `S(n,p) = seq(n) / par(n,p)` (Eq. 1).
///
/// Returns 0 for a non-positive parallel time to keep downstream plots
/// finite on degenerate measurements.
pub fn speedup(seq_secs: f64, par_secs: f64) -> f64 {
    if par_secs <= 0.0 {
        0.0
    } else {
        seq_secs / par_secs
    }
}

/// Parallel efficiency `S / p`.
pub fn efficiency(seq_secs: f64, par_secs: f64, p: usize) -> f64 {
    if p == 0 {
        0.0
    } else {
        speedup(seq_secs, par_secs) / p as f64
    }
}

/// Amdahl's law (Eq. 2).
pub mod amdahl {
    /// Speedup bound for serial fraction `fs` on `p` units:
    /// `1 / (fs + (1-fs)/p)`.
    pub fn bound(fs: f64, p: usize) -> f64 {
        let fs = fs.clamp(0.0, 1.0);
        let p = p.max(1) as f64;
        1.0 / (fs + (1.0 - fs) / p)
    }

    /// The asymptotic limit `1/fs` for `p -> inf` (infinite when fs = 0).
    pub fn limit(fs: f64) -> f64 {
        if fs <= 0.0 {
            f64::INFINITY
        } else {
            1.0 / fs
        }
    }
}

/// Gustafson–Barsis scaled speedup.
pub mod gustafson {
    /// `S_scaled = p - fs * (p - 1)` for serial fraction `fs`.
    pub fn scaled_speedup(fs: f64, p: usize) -> f64 {
        let fs = fs.clamp(0.0, 1.0);
        let p = p.max(1) as f64;
        p - fs * (p - 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_speedup() {
        assert_eq!(speedup(100.0, 25.0), 4.0);
        assert_eq!(speedup(100.0, 0.0), 0.0);
        assert!((efficiency(100.0, 25.0, 8) - 0.5).abs() < 1e-12);
        assert_eq!(efficiency(1.0, 1.0, 0), 0.0);
    }

    #[test]
    fn amdahl_bound_properties() {
        // No serial fraction: perfect scaling.
        assert!((amdahl::bound(0.0, 16) - 16.0).abs() < 1e-12);
        // All serial: no scaling.
        assert!((amdahl::bound(1.0, 16) - 1.0).abs() < 1e-12);
        // 5% serial on 16 units: the textbook ~9.14x.
        let s = amdahl::bound(0.05, 16);
        assert!((s - 9.1428).abs() < 1e-3, "{s}");
        // Monotone in p, bounded by the limit.
        assert!(amdahl::bound(0.05, 1024) > amdahl::bound(0.05, 16));
        assert!(amdahl::bound(0.05, 1 << 20) < amdahl::limit(0.05));
        assert!((amdahl::limit(0.05) - 20.0).abs() < 1e-12);
        assert!(amdahl::limit(0.0).is_infinite());
    }

    #[test]
    fn gustafson_properties() {
        assert!((gustafson::scaled_speedup(0.0, 64) - 64.0).abs() < 1e-12);
        assert!((gustafson::scaled_speedup(1.0, 64) - 1.0).abs() < 1e-12);
        // 10% serial, 32 units: 32 - 0.1*31 = 28.9.
        assert!((gustafson::scaled_speedup(0.1, 32) - 28.9).abs() < 1e-12);
    }
}
