//! Fixed-budget streaming sketches for the bounded-memory summarizer.
//!
//! Two classical data structures back [`crate::summary::SummaryTool`]:
//!
//! * [`QuantileSketch`] — a log-bucketed histogram at 16 sub-buckets per
//!   decade, the workspace's one log-bucket histogram (its half-decade
//!   view is [`QuantileSketch::half_decade_counts`]). Reporting the geometric midpoint of the bucket
//!   containing a quantile bounds the *relative* error by the half-width
//!   of one bucket: `10^(1/32) - 1 ≈ 7.5%` ([`QUANTILE_REL_ERR`]), the
//!   same guarantee family as DDSketch. Count, sum, min and max survive
//!   exactly, so whole-run totals remain comparable bit-for-bit with the
//!   exact classifier. Memory is a constant ~1.7 KB per sketch no matter
//!   how many events flow through.
//!
//! * [`SpaceSaving`] — the Metwally et al. heavy-hitter summary: at most
//!   `cap` keyed counters; an unseen key evicts the lightest entry and
//!   inherits its weight as a recorded overestimate (`err`). Every
//!   eviction is counted, so downstream reports can state exactly how
//!   many distinct keys were forgotten instead of truncating silently.
//!   Eviction victims are chosen by `(weight, key)` order, which keeps
//!   the sketch deterministic for a deterministic input stream.

/// Sub-buckets per decade of the quantile sketch.
const SUB_BUCKETS: usize = 16;

/// Decades covered: 1 ns up to 10^13 ns (~2.8 virtual hours); larger
/// durations clamp into the last bucket.
const DECADES: usize = 13;

/// Total bucket count of one [`QuantileSketch`].
pub const QUANTILE_BUCKETS: usize = SUB_BUCKETS * DECADES;

/// Buckets of the half-decade view: 1 ns .. ~32 s in steps of `10^(1/2)`;
/// the last collects everything larger.
pub const HALF_DECADE_BUCKETS: usize = 22;

/// Documented worst-case relative error of [`QuantileSketch::quantile`]
/// for durations inside the covered range: `10^(1/32) - 1`.
pub const QUANTILE_REL_ERR: f64 = 0.0747;

/// Bucket index of a duration: `floor(16 * log10(ns))`, clamped.
fn bucket_of(ns: u64) -> usize {
    if ns <= 1 {
        return 0;
    }
    let idx = (SUB_BUCKETS as f64 * (ns as f64).log10()).floor() as isize;
    idx.clamp(0, QUANTILE_BUCKETS as isize - 1) as usize
}

/// Geometric midpoint (ns) of bucket `i`: `10^((i + 0.5) / 16)`.
fn bucket_mid_ns(i: usize) -> u64 {
    10f64.powf((i as f64 + 0.5) / SUB_BUCKETS as f64).round() as u64
}

/// A fixed-budget log-bucketed quantile sketch over durations (ns).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantileSketch {
    counts: [u64; QUANTILE_BUCKETS],
    /// Exact event count.
    pub total: u64,
    /// Exact sum of all recorded durations, ns.
    pub sum_ns: u128,
    /// Exact minimum (`u64::MAX` while empty).
    pub min_ns: u64,
    /// Exact maximum.
    pub max_ns: u64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        QuantileSketch {
            counts: [0; QUANTILE_BUCKETS],
            total: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }
}

impl QuantileSketch {
    /// Fold one duration in.
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.total += 1;
        self.sum_ns += ns as u128;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Estimated `q`-quantile in ns, within [`QUANTILE_REL_ERR`] of the
    /// exact order statistic for in-range durations. The estimate is
    /// clamped to the exact `[min, max]`, so degenerate distributions
    /// (single value, empty) come back exact.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_mid_ns(i).clamp(self.min_ns, self.max_ns);
            }
        }
        self.max_ns
    }

    /// The counts regrouped into half-decade buckets, `floor(2 * log10(ns))`
    /// clamped to the last: each is 8 adjacent sub-buckets, and scaling by
    /// 8 is exact in binary floating point, so no boundary value moves.
    pub fn half_decade_counts(&self) -> [u64; HALF_DECADE_BUCKETS] {
        let mut out = [0; HALF_DECADE_BUCKETS];
        for (i, &c) in self.counts.iter().enumerate() {
            out[(i / (SUB_BUCKETS / 2)).min(HALF_DECADE_BUCKETS - 1)] += c;
        }
        out
    }

    /// Exact mean duration in seconds (0 while empty).
    pub fn mean_secs(&self) -> f64 {
        self.mean_ns() * 1e-9
    }

    /// Exact mean in ns (0 while empty).
    pub fn mean_ns(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.total as f64
        }
    }

    /// Fold another sketch in (bucket-wise sum; exact fields combine).
    pub fn merge(&mut self, other: &QuantileSketch) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum_ns += other.sum_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

/// One heavy-hitter entry: a keyed weight with a secondary count and the
/// overestimate inherited from evictions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeavyHitter {
    /// Caller-packed key (the summarizer packs `(src << 32) | dst`).
    pub key: u64,
    /// Ranking weight (bytes for comm edges). Overestimated by at most
    /// `err` after evictions.
    pub weight: u64,
    /// Secondary counter (messages), carried alongside but reset when an
    /// entry is taken over — approximate after any eviction of this key.
    pub count: u64,
    /// Upper bound on how much of `weight` belongs to evicted keys.
    pub err: u64,
}

/// Metwally-style space-saving top-k sketch over `u64` keys.
#[derive(Debug, Clone)]
pub struct SpaceSaving {
    cap: usize,
    entries: Vec<HeavyHitter>,
    /// Number of evictions performed — the explicit count of forgotten
    /// keys a report must surface (0 means the table is exact).
    pub evictions: u64,
}

impl SpaceSaving {
    /// An empty sketch holding at most `cap` keys.
    pub fn new(cap: usize) -> SpaceSaving {
        SpaceSaving {
            cap: cap.max(1),
            entries: Vec::new(),
            evictions: 0,
        }
    }

    /// Keys currently tracked.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no key has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Fold `weight`/`count` into `key`, evicting the lightest entry if
    /// the table is full and `key` is unseen.
    pub fn record(&mut self, key: u64, weight: u64, count: u64) {
        self.fold(HeavyHitter {
            key,
            weight,
            count,
            err: 0,
        });
    }

    fn fold(&mut self, item: HeavyHitter) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.key == item.key) {
            e.weight += item.weight;
            e.count += item.count;
            e.err += item.err;
            return;
        }
        if self.entries.len() < self.cap {
            self.entries.push(item);
            return;
        }
        let victim = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| (e.weight, e.key))
            .map(|(i, _)| i)
            .expect("cap >= 1");
        self.evictions += 1;
        let base = self.entries[victim].weight;
        self.entries[victim] = HeavyHitter {
            key: item.key,
            weight: base + item.weight,
            count: item.count,
            err: base + item.err,
        };
    }

    /// Fold another sketch in, heaviest entries first (so the merge keeps
    /// the globally heavy keys), accumulating its eviction count.
    pub fn absorb(&mut self, other: &SpaceSaving) {
        let mut items = other.entries.clone();
        items.sort_unstable_by_key(|e| (std::cmp::Reverse(e.weight), e.key));
        for item in items {
            self.fold(item);
        }
        self.evictions += other.evictions;
    }

    /// Entries sorted heaviest-first (ties broken by key).
    pub fn top(&self) -> Vec<HeavyHitter> {
        let mut items = self.entries.clone();
        items.sort_unstable_by_key(|e| (std::cmp::Reverse(e.weight), e.key));
        items
    }

    /// Bytes actually held by live entries.
    pub fn state_bytes(&self) -> usize {
        std::mem::size_of::<SpaceSaving>() + self.entries.len() * std::mem::size_of::<HeavyHitter>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_clamped() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert!(bucket_of(100) > bucket_of(50));
        assert_eq!(bucket_of(u64::MAX), QUANTILE_BUCKETS - 1);
        // Non-decreasing everywhere (integer rounding flattens the
        // sub-10ns buckets), strictly increasing once a bucket spans
        // more than 1 ns.
        for i in 1..QUANTILE_BUCKETS {
            assert!(bucket_mid_ns(i) >= bucket_mid_ns(i - 1), "bucket {i}");
        }
        for i in SUB_BUCKETS + 1..QUANTILE_BUCKETS {
            assert!(bucket_mid_ns(i) > bucket_mid_ns(i - 1), "bucket {i}");
        }
    }

    #[test]
    fn quantiles_meet_documented_error() {
        // Log-uniform durations spanning six decades: the adversarial
        // shape for a log-bucketed sketch.
        let mut sk = QuantileSketch::default();
        let mut vals: Vec<u64> = Vec::new();
        let mut x = 37u64;
        for i in 0..5000u64 {
            // Deterministic pseudo-random walk over [10^2, 10^8).
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
            let exp = 2.0 + (x % 60_000) as f64 / 10_000.0;
            let v = 10f64.powf(exp) as u64;
            vals.push(v);
            sk.record(v);
        }
        vals.sort_unstable();
        for q in [0.5, 0.9, 0.99] {
            let exact = vals[((q * vals.len() as f64).ceil() as usize - 1).min(vals.len() - 1)];
            let est = sk.quantile(q);
            let rel = (est as f64 - exact as f64).abs() / exact as f64;
            assert!(
                rel <= QUANTILE_REL_ERR + 0.005,
                "q={q}: est {est} vs exact {exact} (rel {rel:.4})"
            );
        }
    }

    #[test]
    fn half_decade_view_is_floor_two_log10() {
        for ns in [
            0,
            1,
            3,
            4,
            9,
            10,
            31,
            32,
            316,
            317,
            999_999,
            1_000_000,
            31_622_776_601,
            31_622_776_602,
            u64::MAX,
        ] {
            let mut sk = QuantileSketch::default();
            sk.record(ns);
            let want =
                ((2.0 * (ns.max(1) as f64).log10()).floor() as usize).min(HALF_DECADE_BUCKETS - 1);
            assert_eq!(sk.half_decade_counts()[want], 1, "{ns} ns");
        }
    }

    #[test]
    fn exact_aggregates_and_degenerate_quantiles() {
        let mut sk = QuantileSketch::default();
        assert_eq!(sk.quantile(0.5), 0);
        for _ in 0..10 {
            sk.record(12_345);
        }
        // A single distinct value is reported exactly via the min/max clamp.
        assert_eq!(sk.quantile(0.5), 12_345);
        assert_eq!(sk.quantile(0.99), 12_345);
        assert_eq!(sk.total, 10);
        assert_eq!(sk.sum_ns, 123_450);
        assert_eq!(sk.min_ns, 12_345);
        assert_eq!(sk.max_ns, 12_345);
    }

    #[test]
    fn exact_aggregates_survive_reduction() {
        let mut h = QuantileSketch::default();
        for ns in [100u64, 200, 300, 1_000_000] {
            h.record(ns);
        }
        assert_eq!(h.total, 4);
        assert_eq!(h.min_ns, 100);
        assert_eq!(h.max_ns, 1_000_000);
        assert!((h.mean_secs() - 250_150.0 * 1e-9).abs() < 1e-15);
    }

    #[test]
    fn merge_is_sum() {
        let mut a = QuantileSketch::default();
        let mut b = QuantileSketch::default();
        a.record(10);
        b.record(1_000_000);
        b.record(20);
        let mut c = QuantileSketch::default();
        for v in [10, 20, 1_000_000] {
            c.record(v);
        }
        a.merge(&b);
        assert_eq!(a, c);
    }

    #[test]
    fn space_saving_is_exact_under_capacity() {
        let mut ss = SpaceSaving::new(8);
        for (k, w) in [(1u64, 100u64), (2, 50), (3, 10), (1, 5)] {
            ss.record(k, w, 1);
        }
        assert_eq!(ss.evictions, 0);
        let top = ss.top();
        assert_eq!(top.len(), 3);
        assert_eq!((top[0].key, top[0].weight, top[0].count), (1, 105, 2));
        assert_eq!(top[1].key, 2);
        assert!(top.iter().all(|e| e.err == 0));
    }

    #[test]
    fn space_saving_counts_evictions_and_keeps_heavy_keys() {
        let mut ss = SpaceSaving::new(2);
        ss.record(1, 1000, 1);
        ss.record(2, 900, 1);
        ss.record(3, 1, 1); // evicts key 2? no — evicts the lightest (2=900 vs 1=1000): victim is 2
        assert_eq!(ss.evictions, 1);
        // The takeover inherits the victim's weight as err.
        let e3 = ss.top().into_iter().find(|e| e.key == 3).unwrap();
        assert_eq!(e3.weight, 901);
        assert_eq!(e3.err, 900);
        // A genuinely heavy late arrival still surfaces.
        ss.record(4, 5000, 1);
        assert!(ss.top()[0].weight >= 5000);
        assert_eq!(ss.evictions, 2);
    }

    #[test]
    fn absorb_merges_in_weight_order() {
        let mut a = SpaceSaving::new(4);
        a.record(1, 10, 1);
        let mut b = SpaceSaving::new(4);
        b.record(1, 5, 1);
        b.record(2, 99, 1);
        a.absorb(&b);
        assert_eq!(a.evictions, 0);
        let top = a.top();
        assert_eq!((top[0].key, top[0].weight), (2, 99));
        assert_eq!((top[1].key, top[1].weight, top[1].count), (1, 15, 2));
    }
}
