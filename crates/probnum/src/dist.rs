//! Discrete distributions over delay symbols.
//!
//! The paper discretises end-end queuing delay into `M` equal-width bins and
//! works with distributions over the symbols `1..=M`. [`Pmf`] stores such a
//! distribution (index `0` holds the mass of symbol `1`), and [`Cdf`] is its
//! cumulative form; the SDCL/WDCL hypothesis tests are phrased entirely in
//! terms of [`Cdf::min_support_above`] and [`Cdf::value`].

use serde::{Deserialize, Serialize};

use crate::stochastic;

/// A probability mass function over delay symbols `1..=M`.
///
/// `==` is bit equality: two PMFs are equal when every mass entry has the
/// same `f64::to_bits`, so `0.0` and `-0.0` differ and a NaN equals
/// itself.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Pmf {
    mass: Vec<f64>,
}

impl PartialEq for Pmf {
    fn eq(&self, other: &Self) -> bool {
        let Pmf { mass } = self;
        mass.len() == other.mass.len()
            && mass
                .iter()
                .zip(&other.mass)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

impl Pmf {
    /// Build a PMF from raw (possibly unnormalised) non-negative mass per
    /// symbol. Zero total mass yields the uniform distribution.
    pub fn from_mass(mass: Vec<f64>) -> Self {
        assert!(!mass.is_empty(), "PMF needs at least one symbol");
        assert!(
            mass.iter().all(|&x| x >= 0.0 && x.is_finite()),
            "PMF mass must be finite and non-negative"
        );
        let mut mass = mass;
        stochastic::normalize(&mut mass);
        Pmf { mass }
    }

    /// Build a PMF by counting occurrences of symbols (`1..=m`).
    pub fn from_counts(m: usize, symbols: impl IntoIterator<Item = usize>) -> Self {
        assert!(m > 0);
        let mut mass = vec![0.0; m];
        for s in symbols {
            assert!((1..=m).contains(&s), "symbol {s} outside alphabet 1..={m}");
            mass[s - 1] += 1.0;
        }
        Pmf::from_mass(mass)
    }

    /// Point mass on `symbol` within an alphabet of `m` symbols.
    pub fn point(m: usize, symbol: usize) -> Self {
        assert!((1..=m).contains(&symbol));
        let mut mass = vec![0.0; m];
        mass[symbol - 1] = 1.0;
        Pmf { mass }
    }

    /// Number of symbols `M`.
    pub fn num_symbols(&self) -> usize {
        self.mass.len()
    }

    /// Probability of `symbol` (`1..=M`).
    pub fn prob(&self, symbol: usize) -> f64 {
        assert!((1..=self.mass.len()).contains(&symbol));
        self.mass[symbol - 1]
    }

    /// The mass vector, index `i` holding the mass of symbol `i + 1`.
    pub fn mass(&self) -> &[f64] {
        &self.mass
    }

    /// Cumulative form of this PMF.
    pub fn cdf(&self) -> Cdf {
        let mut cum = Vec::with_capacity(self.mass.len());
        let mut acc = 0.0;
        for &p in &self.mass {
            acc += p;
            cum.push(acc.min(1.0));
        }
        // Guard against rounding leaving the last value slightly below 1.
        if let Some(last) = cum.last_mut() {
            *last = 1.0;
        }
        Cdf { cum }
    }

    /// Mean symbol value.
    pub fn mean(&self) -> f64 {
        self.mass
            .iter()
            .enumerate()
            .map(|(i, &p)| (i + 1) as f64 * p)
            .sum()
    }

    /// Mode (symbol with the largest mass; smallest symbol wins ties).
    pub fn mode(&self) -> usize {
        let mut best = 0;
        for (i, &p) in self.mass.iter().enumerate() {
            if p > self.mass[best] {
                best = i;
            }
        }
        best + 1
    }

    /// Total-variation distance to `other` (must share the alphabet size).
    pub fn total_variation(&self, other: &Pmf) -> f64 {
        assert_eq!(self.mass.len(), other.mass.len());
        0.5 * self
            .mass
            .iter()
            .zip(&other.mass)
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
    }

    /// Split the support into maximal *connected components*: runs of
    /// consecutive symbols whose mass exceeds `floor`, separated by symbols
    /// at or below `floor`.
    ///
    /// This backs the paper's heuristic bound (Section IV-B / Fig. 7): with
    /// a fine discretisation, the PMF of virtual queuing delays separates
    /// into components and the component holding most of the mass starts at
    /// (an upper bound of) the dominant link's maximum queuing delay.
    ///
    /// Returns `(first_symbol, last_symbol, total_mass)` per component, in
    /// increasing symbol order.
    pub fn connected_components(&self, floor: f64) -> Vec<(usize, usize, f64)> {
        let mut out = Vec::new();
        let mut start: Option<usize> = None;
        let mut mass = 0.0;
        for (i, &p) in self.mass.iter().enumerate() {
            if p > floor {
                if start.is_none() {
                    start = Some(i + 1);
                    mass = 0.0;
                }
                mass += p;
            } else if let Some(s) = start.take() {
                out.push((s, i, mass));
            }
        }
        if let Some(s) = start {
            out.push((s, self.mass.len(), mass));
        }
        out
    }
}

/// A cumulative distribution function over delay symbols `1..=M`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cdf {
    cum: Vec<f64>,
}

impl Cdf {
    /// Number of symbols `M`.
    pub fn num_symbols(&self) -> usize {
        self.cum.len()
    }

    /// `F(d)` for a symbol `d`. Symbols above `M` saturate at 1; `F(0)` is 0.
    ///
    /// The saturation matters because the hypothesis tests evaluate
    /// `F(2 d*)`, which can exceed the alphabet.
    pub fn value(&self, d: usize) -> f64 {
        if d == 0 {
            0.0
        } else if d > self.cum.len() {
            1.0
        } else {
            self.cum[d - 1]
        }
    }

    /// Smallest symbol `d` with `F(d) > threshold`, or `None` if none exists
    /// (only possible for `threshold >= 1`).
    ///
    /// This is the `d*` of Theorems 1 and 2: `threshold = 0` (up to the
    /// numerical floor chosen by the caller) gives the minimum of the
    /// support; `threshold = ε₁` gives the weakly-dominant variant.
    pub fn min_support_above(&self, threshold: f64) -> Option<usize> {
        self.cum.iter().position(|&f| f > threshold).map(|i| i + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_counts_normalises() {
        let p = Pmf::from_counts(4, [1, 1, 3, 3, 3, 4].iter().copied());
        assert!((p.prob(1) - 2.0 / 6.0).abs() < 1e-12);
        assert!((p.prob(3) - 3.0 / 6.0).abs() < 1e-12);
        assert_eq!(p.prob(2), 0.0);
    }

    #[test]
    fn equality_compares_mass_bits() {
        let zero = Pmf {
            mass: vec![0.0, 1.0],
        };
        let negative_zero = Pmf {
            mass: vec![-0.0, 1.0],
        };
        assert_ne!(zero, negative_zero);
        let nan = Pmf {
            mass: vec![f64::NAN, 1.0],
        };
        assert_eq!(nan, nan.clone());
    }

    #[test]
    #[should_panic]
    fn from_counts_rejects_out_of_alphabet() {
        let _ = Pmf::from_counts(3, [4].iter().copied());
    }

    #[test]
    fn point_mass_and_mode() {
        let p = Pmf::point(5, 4);
        assert_eq!(p.mode(), 4);
        assert_eq!(p.mean(), 4.0);
        assert_eq!(p.prob(4), 1.0);
    }

    #[test]
    fn cdf_saturates_and_indexes() {
        let p = Pmf::from_mass(vec![0.25, 0.25, 0.5]);
        let f = p.cdf();
        assert_eq!(f.value(0), 0.0);
        assert!((f.value(1) - 0.25).abs() < 1e-12);
        assert!((f.value(2) - 0.5).abs() < 1e-12);
        assert_eq!(f.value(3), 1.0);
        assert_eq!(f.value(99), 1.0);
    }

    #[test]
    fn min_support_above_matches_theorem_usage() {
        let p = Pmf::from_mass(vec![0.0, 0.05, 0.0, 0.95]);
        let f = p.cdf();
        assert_eq!(f.min_support_above(0.0), Some(2));
        assert_eq!(f.min_support_above(0.06), Some(4));
        assert_eq!(f.min_support_above(1.0), None);
    }

    #[test]
    fn total_variation_is_zero_for_self_and_one_for_disjoint() {
        let a = Pmf::point(4, 1);
        let b = Pmf::point(4, 4);
        assert_eq!(a.total_variation(&a), 0.0);
        assert!((a.total_variation(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn connected_components_splits_runs() {
        let p = Pmf::from_mass(vec![0.2, 0.2, 0.0, 0.0, 0.3, 0.3]);
        let comps = p.connected_components(1e-9);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0].0, 1);
        assert_eq!(comps[0].1, 2);
        assert!((comps[0].2 - 0.4).abs() < 1e-12);
        assert_eq!(comps[1].0, 5);
        assert_eq!(comps[1].1, 6);
        assert!((comps[1].2 - 0.6).abs() < 1e-12);
    }

    #[test]
    fn connected_components_handles_trailing_run() {
        let p = Pmf::from_mass(vec![0.0, 1.0]);
        let comps = p.connected_components(0.0);
        assert_eq!(comps, vec![(2, 2, 1.0)]);
    }
}
