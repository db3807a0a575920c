//! The SDCL and WDCL hypothesis tests (§IV-A, Theorems 1 and 2).
//!
//! Both tests read the CDF `F` of the discretised virtual queuing delay `Y`
//! of lost probes:
//!
//! * **SDCL-Test** — null hypothesis: a *strongly* dominant congested link
//!   exists. Let `d* = min{d : F(d) > 0}`. Under the null, every loss sees
//!   the dominant link's full queue (`Y ≥ Q_k`) and that queue dominates the
//!   rest of the path (`Y ≤ 2 Q_k`), so all mass lies in `[d*, 2 d*]`:
//!   accept iff `F(2 d*) = 1`.
//! * **WDCL-Test** — null hypothesis: a *weakly* dominant congested link
//!   with parameters `(ε₁, ε₂)` exists. Let `d* = min{d : F(d) > ε₁}`.
//!   Under the null at most `ε₁` of the loss mass comes from other links
//!   (so `F(Q_k − 1) ≤ ε₁` and `d* ≥ Q_k`) and the delay condition fails
//!   with probability at most `ε₂`: accept iff `F(2 d*) ≥ 1 − ε₁ − ε₂`.
//!
//! The SDCL-Test is the WDCL-Test at `ε₁ = ε₂ = 0`. Estimated CDFs carry
//! numerical dust (EM posteriors are rarely exactly zero), so the tests take
//! a `numeric_floor`: probabilities at or below it count as zero, both when
//! locating `d*` and when checking `F(2 d*) = 1`.

use dcl_probnum::Cdf;
use serde::{Deserialize, Serialize};

/// Outcome of a hypothesis test. `==` compares the floats by their bits.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TestOutcome {
    /// Was the null hypothesis (a dominant congested link exists) accepted?
    pub accepted: bool,
    /// The test statistic's support point `d*`, if the CDF has any mass
    /// above the threshold.
    pub d_star: Option<usize>,
    /// `F(2 d*)` (0 when `d*` is undefined).
    pub f_at_2d_star: f64,
    /// The acceptance threshold `1 − ε₁ − ε₂` (adjusted by the numeric
    /// floor).
    pub threshold: f64,
}

impl PartialEq for TestOutcome {
    fn eq(&self, other: &Self) -> bool {
        let TestOutcome {
            accepted,
            d_star,
            f_at_2d_star,
            threshold,
        } = self;
        *accepted == other.accepted
            && *d_star == other.d_star
            && f_at_2d_star.to_bits() == other.f_at_2d_star.to_bits()
            && threshold.to_bits() == other.threshold.to_bits()
    }
}

/// Parameters of the weakly-dominant test.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WdclParams {
    /// Maximum fraction of losses allowed on other links (`ε₁`).
    pub eps1: f64,
    /// Maximum probability of the delay condition failing (`ε₂`).
    pub eps2: f64,
}

impl WdclParams {
    /// The paper's canonical setting for the ns validation:
    /// `ε₁ = 0.06, ε₂ = 0` (at least 94 % of losses on the dominant link).
    pub fn paper_ns() -> Self {
        WdclParams {
            eps1: 0.06,
            eps2: 0.0,
        }
    }

    /// The paper's setting for the Internet experiments:
    /// `ε₁ = ε₂ = 0.05`.
    pub fn paper_internet() -> Self {
        WdclParams {
            eps1: 0.05,
            eps2: 0.05,
        }
    }
}

/// Run the WDCL-Test on an (estimated) CDF of lost-probe queuing delays.
///
/// `numeric_floor` absorbs estimation dust (see module docs); pass `0.0`
/// for exact arithmetic on analytic distributions.
pub fn wdcl_test(cdf: &Cdf, params: WdclParams, numeric_floor: f64) -> TestOutcome {
    run_test(cdf, params, numeric_floor)
}

/// Run the SDCL-Test: the WDCL-Test at `ε₁ = ε₂ = 0`.
pub fn sdcl_test(cdf: &Cdf, numeric_floor: f64) -> TestOutcome {
    run_test(
        cdf,
        WdclParams {
            eps1: 0.0,
            eps2: 0.0,
        },
        numeric_floor,
    )
}

/// The shared test body. It records nothing: an identification's
/// decisions reach the event stream once, in its `verdict-provenance`.
fn run_test(cdf: &Cdf, params: WdclParams, numeric_floor: f64) -> TestOutcome {
    assert!(
        (0.0..1.0).contains(&params.eps1) && (0.0..1.0).contains(&params.eps2),
        "epsilon parameters must be in [0, 1)"
    );
    assert!(params.eps1 + params.eps2 < 1.0, "degenerate test");
    let support_threshold = params.eps1.max(numeric_floor);
    let threshold = 1.0 - params.eps1 - params.eps2 - numeric_floor;
    match cdf.min_support_above(support_threshold) {
        Some(d_star) => {
            let f = cdf.value(2 * d_star);
            TestOutcome {
                accepted: f >= threshold,
                d_star: Some(d_star),
                f_at_2d_star: f,
                threshold,
            }
        }
        None => TestOutcome {
            accepted: false,
            d_star: None,
            f_at_2d_star: 0.0,
            threshold,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcl_probnum::Pmf;

    #[test]
    fn sdcl_accepts_concentrated_upper_mass() {
        // All loss mass on symbol 5 of 5 (the paper's Fig. 5 situation):
        // d* = 5, F(10) = 1 -> accept.
        let f = Pmf::point(5, 5).cdf();
        let out = sdcl_test(&f, 0.0);
        assert!(out.accepted);
        assert_eq!(out.d_star, Some(5));
        assert_eq!(out.f_at_2d_star, 1.0);
    }

    #[test]
    fn sdcl_accepts_mass_within_a_factor_of_two() {
        // Mass on symbols 3..=5: d* = 3, 2 d* = 6 >= 5 -> accept.
        let f = Pmf::from_mass(vec![0.0, 0.0, 0.3, 0.3, 0.4]).cdf();
        assert!(sdcl_test(&f, 0.0).accepted);
    }

    #[test]
    fn sdcl_rejects_two_separated_lossy_links() {
        // The paper's two-lossy-link example: mass at Q_a (symbol 2) and at
        // Q_b + extra (symbol 5): d* = 2, F(4) = 0.6 < 1 -> reject.
        let f = Pmf::from_mass(vec![0.0, 0.6, 0.0, 0.0, 0.4]).cdf();
        let out = sdcl_test(&f, 0.0);
        assert!(!out.accepted);
        assert_eq!(out.d_star, Some(2));
        assert!((out.f_at_2d_star - 0.6).abs() < 1e-12);
    }

    #[test]
    fn wdcl_tolerates_eps1_of_alien_loss_mass() {
        // 5% of losses from another (faster) link at symbol 1, the rest at
        // symbols 4-5. SDCL rejects (d* = 1, F(2) = 0.05), but WDCL with
        // eps1 = 0.06 skips the alien mass: d* = 4, F(8) = 1 -> accept.
        let pmf = Pmf::from_mass(vec![0.05, 0.0, 0.0, 0.55, 0.40]);
        let f = pmf.cdf();
        assert!(!sdcl_test(&f, 0.0).accepted);
        let out = wdcl_test(&f, WdclParams::paper_ns(), 0.0);
        assert!(out.accepted, "{out:?}");
        assert_eq!(out.d_star, Some(4));
    }

    #[test]
    fn wdcl_rejects_comparable_lossy_links() {
        // The paper's Table IV shape: two links with comparable loss, mass
        // split far apart -> F(2 d*) ~ 0.64 < 0.94.
        let f = Pmf::from_mass(vec![0.0, 0.64, 0.0, 0.0, 0.0, 0.0, 0.36, 0.0]).cdf();
        let out = wdcl_test(&f, WdclParams::paper_ns(), 0.0);
        assert!(!out.accepted);
        assert!((out.f_at_2d_star - 0.64).abs() < 1e-12);
    }

    #[test]
    fn stricter_eps_can_flip_acceptance() {
        // 95% of losses on the dominant link: accepted at eps1 = 0.06 but
        // rejected at eps1 = 0.02 (the paper's exact illustration).
        let f = Pmf::from_mass(vec![0.05, 0.0, 0.0, 0.0, 0.95]).cdf();
        assert!(
            wdcl_test(
                &f,
                WdclParams {
                    eps1: 0.06,
                    eps2: 0.0
                },
                0.0
            )
            .accepted
        );
        assert!(
            !wdcl_test(
                &f,
                WdclParams {
                    eps1: 0.02,
                    eps2: 0.0
                },
                0.0
            )
            .accepted
        );
    }

    #[test]
    fn numeric_floor_absorbs_estimation_dust() {
        // A sharply concentrated estimate with 1e-4 dust at symbol 1 must
        // still be accepted by SDCL when the floor covers the dust.
        let f = Pmf::from_mass(vec![1e-4, 0.0, 0.0, 0.0, 1.0]).cdf();
        assert!(!sdcl_test(&f, 0.0).accepted, "exact test sees the dust");
        assert!(sdcl_test(&f, 1e-3).accepted, "floored test ignores it");
    }

    #[test]
    fn monotonicity_in_parameters() {
        // A link accepted at (eps1, eps2) is accepted at any weaker
        // (larger) parameters — the paper's remark after Definition 2.
        let f = Pmf::from_mass(vec![0.03, 0.0, 0.0, 0.47, 0.5]).cdf();
        let strict = wdcl_test(
            &f,
            WdclParams {
                eps1: 0.04,
                eps2: 0.0,
            },
            0.0,
        );
        assert!(strict.accepted);
        for eps1 in [0.05, 0.1, 0.2] {
            for eps2 in [0.0, 0.05, 0.1] {
                let weaker = wdcl_test(&f, WdclParams { eps1, eps2 }, 0.0);
                assert!(weaker.accepted, "eps1={eps1} eps2={eps2}");
            }
        }
    }

    #[test]
    #[should_panic]
    fn rejects_degenerate_epsilons() {
        let f = Pmf::point(2, 1).cdf();
        let _ = wdcl_test(
            &f,
            WdclParams {
                eps1: 0.7,
                eps2: 0.5,
            },
            0.0,
        );
    }
}
