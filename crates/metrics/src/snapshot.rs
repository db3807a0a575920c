//! Serializable registry snapshots.
//!
//! A [`Snapshot`] is the wire form of the registry at one instant:
//! schema-versioned, key-sorted (every table is a `BTreeMap`), and pure
//! integers — so two snapshots of the same run compare bitwise, and the
//! JSON rendering is byte-stable across thread counts once wall-clock
//! fields are neutralised with [`Snapshot::canonical`].

use crate::hist::Log2Hist;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Version stamp of the snapshot schema. Bump on any field change; the
/// artifact validator (`obs_check --metrics`) rejects mismatches.
pub const SCHEMA_VERSION: u32 = 2;

/// Aggregate of one named wall-clock span (fed by [`span`](crate::span())).
///
/// Everything except `count` is wall-clock derived and therefore
/// nondeterministic; [`Snapshot::canonical`] zeroes those fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SpanProfile {
    /// Completed spans.
    pub count: u64,
    /// Total wall time across spans, nanoseconds.
    pub total_ns: u64,
    /// Longest single span, nanoseconds.
    pub max_ns: u64,
    /// Median span, nanoseconds, interpolated inside its log2 bucket.
    pub p50_ns: u64,
    /// 95th-percentile span, nanoseconds, interpolated inside its log2
    /// bucket.
    pub p95_ns: u64,
}

/// A point-in-time copy of the whole registry.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Snapshot {
    /// Schema version ([`SCHEMA_VERSION`] at creation).
    pub schema_version: u32,
    /// Monotonic counter totals.
    pub counters: BTreeMap<String, u64>,
    /// Last-written gauge values.
    pub gauges: BTreeMap<String, u64>,
    /// Log2 histograms of deterministic quantities.
    pub histograms: BTreeMap<String, Log2Hist>,
    /// Per-span wall-clock profiles.
    pub spans: BTreeMap<String, SpanProfile>,
}

impl Snapshot {
    /// The snapshot with every wall-clock-derived field zeroed: span
    /// profiles keep their counts, lose their timings. Counters, gauges
    /// and histograms hold only simulated/algorithmic state, so they pass
    /// through untouched. Canonical snapshots of the same workload are
    /// bitwise identical at any thread count.
    pub fn canonical(&self) -> Snapshot {
        let mut c = self.clone();
        for profile in c.spans.values_mut() {
            *profile = SpanProfile {
                count: profile.count,
                ..SpanProfile::default()
            };
        }
        c
    }

    /// The change since `earlier`: counters and histogram contents
    /// subtract (saturating, so a registry reset between snapshots
    /// degrades to "everything since the reset" instead of underflowing),
    /// gauges carry this snapshot's current value, and span profiles
    /// subtract their counts and totals while keeping this snapshot's
    /// `max`/percentile fields (quantiles do not difference): what one
    /// phase of a run added to the monotonic registry.
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        let mut d = self.clone();
        for (name, v) in &mut d.counters {
            if let Some(prev) = earlier.counters.get(name) {
                *v = v.saturating_sub(*prev);
            }
        }
        for (name, h) in &mut d.histograms {
            if let Some(prev) = earlier.histograms.get(name) {
                h.count = h.count.saturating_sub(prev.count);
                h.sum = h.sum.saturating_sub(prev.sum);
                for (b, pb) in h.buckets.iter_mut().zip(&prev.buckets) {
                    *b = b.saturating_sub(*pb);
                }
                // `max` is a running maximum, not a sum; keep the current
                // value (it bounds the interval's maximum from above).
            }
        }
        for (name, p) in &mut d.spans {
            if let Some(prev) = earlier.spans.get(name) {
                p.count = p.count.saturating_sub(prev.count);
                p.total_ns = p.total_ns.saturating_sub(prev.total_ns);
            }
        }
        d
    }

    /// Is there anything in the snapshot?
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.spans.is_empty()
    }

    /// The human-readable end-of-run table: counters, gauges, histograms
    /// and span timings (count, total, p50, p95, max).
    ///
    /// Ordering is part of the contract: every section iterates its
    /// `BTreeMap` in ascending key order, so two renders of equal
    /// snapshots are byte-identical and artifact diffs are stable across
    /// runs. Pinned by `render_ordering_is_deterministic`.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "-- metrics snapshot (schema v{})", self.schema_version);
        if !self.counters.is_empty() {
            let _ = writeln!(s, "{:<36} {:>14}", "counter", "total");
            for (name, v) in &self.counters {
                let _ = writeln!(s, "{name:<36} {v:>14}");
            }
        }
        if !self.gauges.is_empty() {
            let _ = writeln!(s, "{:<36} {:>14}", "gauge", "value");
            for (name, v) in &self.gauges {
                let _ = writeln!(s, "{name:<36} {v:>14}");
            }
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(
                s,
                "{:<36} {:>10} {:>12} {:>12}",
                "histogram", "count", "mean", "max"
            );
            for (name, h) in &self.histograms {
                let _ = writeln!(
                    s,
                    "{name:<36} {:>10} {:>12.2} {:>12}",
                    h.count,
                    h.mean(),
                    h.max
                );
            }
        }
        if !self.spans.is_empty() {
            let _ = writeln!(
                s,
                "{:<36} {:>8} {:>10} {:>10} {:>10} {:>10}",
                "span", "count", "total ms", "p50 ms", "p95 ms", "max ms"
            );
            for (name, p) in &self.spans {
                let _ = writeln!(
                    s,
                    "{name:<36} {:>8} {:>10.2} {:>10.3} {:>10.3} {:>10.2}",
                    p.count,
                    p.total_ns as f64 / 1e6,
                    p.p50_ns as f64 / 1e6,
                    p.p95_ns as f64 / 1e6,
                    p.max_ns as f64 / 1e6,
                );
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut s = Snapshot {
            schema_version: SCHEMA_VERSION,
            ..Snapshot::default()
        };
        s.counters.insert("em.iterations".into(), 420);
        s.gauges.insert("threads".into(), 4);
        let mut h = Log2Hist::default();
        h.observe(17);
        s.histograms.insert("iters".into(), h);
        s.spans.insert(
            "identify".into(),
            SpanProfile {
                count: 3,
                total_ns: 999,
                max_ns: 500,
                p50_ns: 255,
                p95_ns: 511,
            },
        );
        s
    }

    #[test]
    fn canonical_zeroes_wall_clock_but_keeps_counts() {
        let c = sample().canonical();
        let p = c.spans["identify"];
        assert_eq!(p.count, 3);
        assert_eq!(
            (p.total_ns, p.max_ns, p.p50_ns, p.p95_ns),
            (0, 0, 0, 0),
            "wall-clock fields must be neutralised"
        );
        assert_eq!(c.counters["em.iterations"], 420);
        assert_eq!(c.histograms["iters"].count, 1);
    }

    #[test]
    fn render_mentions_every_table() {
        let table = sample().render();
        for needle in ["em.iterations", "threads", "iters", "identify"] {
            assert!(table.contains(needle), "{needle} missing from:\n{table}");
        }
    }

    #[test]
    fn is_empty_on_default() {
        assert!(Snapshot::default().is_empty());
        assert!(!sample().is_empty());
    }

    #[test]
    fn render_ordering_is_deterministic() {
        // Insert keys in reverse order; the render must still come out
        // sorted, byte-identical no matter the insertion history.
        let mut a = Snapshot {
            schema_version: SCHEMA_VERSION,
            ..Snapshot::default()
        };
        for key in ["zeta", "alpha", "mid"] {
            a.counters.insert(key.into(), 1);
            a.gauges.insert(key.into(), 2);
        }
        let mut b = Snapshot {
            schema_version: SCHEMA_VERSION,
            ..Snapshot::default()
        };
        for key in ["mid", "zeta", "alpha"] {
            b.counters.insert(key.into(), 1);
            b.gauges.insert(key.into(), 2);
        }
        assert_eq!(a.render(), b.render());
        let table = a.render();
        let (za, zm) = (table.find("alpha").unwrap(), table.find("mid").unwrap());
        let zz = table.find("zeta").unwrap();
        assert!(za < zm && zm < zz, "keys must render sorted:\n{table}");
    }

    #[test]
    fn delta_subtracts_monotonic_state_and_keeps_gauges() {
        let earlier = sample();
        let mut later = sample();
        *later.counters.get_mut("em.iterations").unwrap() += 80;
        later.counters.insert("new.counter".into(), 7);
        later.gauges.insert("threads".into(), 8);
        later.histograms.get_mut("iters").unwrap().observe(33);
        {
            let p = later.spans.get_mut("identify").unwrap();
            p.count += 2;
            p.total_ns += 1000;
        }
        let d = later.delta(&earlier);
        assert_eq!(d.counters["em.iterations"], 80);
        assert_eq!(d.counters["new.counter"], 7, "new keys pass through");
        assert_eq!(d.gauges["threads"], 8, "gauges carry the current value");
        assert_eq!(d.histograms["iters"].count, 1);
        assert_eq!(d.histograms["iters"].sum, 33);
        assert_eq!(d.spans["identify"].count, 2);
        assert_eq!(d.spans["identify"].total_ns, 1000);
        // A registry reset (later < earlier) saturates instead of
        // underflowing.
        let back = earlier.delta(&later);
        assert_eq!(back.counters["em.iterations"], 0);
        // Delta against an empty snapshot is the snapshot itself.
        assert_eq!(later.delta(&Snapshot::default()), later);
    }
}
