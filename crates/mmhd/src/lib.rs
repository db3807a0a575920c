//! Markov model with a hidden dimension (MMHD).
//!
//! The model of §V-B / Appendix B of the paper (introduced in Wei, Wang &
//! Towsley, *Continuous-time hidden Markov models for network performance
//! evaluation*, Performance Evaluation 2002 \[38\]): the chain state is the
//! *pair* `x_t = (h_t, d_t)` of a hidden component `h ∈ 1..=N` and the delay
//! symbol `d ∈ 1..=M` itself. Unlike the HMM — where the symbol is emitted
//! conditionally independently given the hidden state — the MMHD's next
//! state depends on the current *symbol* too, which captures the strong
//! correlation between consecutive probe delays; this is why the paper finds
//! MMHD accurate where the HMM is not (Fig. 8). With `N = 1` it degenerates
//! to an ordinary Markov chain on the delay symbols.
//!
//! The observation at time `t` is `d_t` if the probe was delivered and a
//! loss otherwise; `c_m = P(loss | d_t = m)` links losses to the unobserved
//! delay. [`try_fit`] runs the EM algorithm of Appendix B;
//! [`Mmhd::loss_delay_pmf`] computes the paper's Eq. (5).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod em;
mod model;

pub use em::{
    em_step, em_step_with, fit_warm, try_fit, EmBudget, EmOptions, EmScratch, FitResult,
    MmhdSettings,
};
pub use model::Mmhd;

#[cfg(test)]
mod tests {
    use super::*;
    use dcl_probnum::{Matrix, Obs};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Planted 1-hidden-state MMHD over 3 symbols: a sticky chain where
    /// symbol 3 is lossy.
    fn planted_markov() -> Mmhd {
        let trans = Matrix::from_vec(
            3,
            3,
            vec![
                0.90, 0.09, 0.01, //
                0.10, 0.80, 0.10, //
                0.02, 0.18, 0.80,
            ],
        );
        Mmhd::from_parts(vec![0.8, 0.15, 0.05], trans, vec![0.0, 0.02, 0.40], 1)
    }

    #[test]
    fn em_recovers_planted_markov_chain() {
        let truth = planted_markov();
        let mut rng = SmallRng::seed_from_u64(17);
        let obs = truth.generate(&mut rng, 40_000);
        let losses = obs.iter().filter(|o| o.is_loss()).count();
        assert!(losses > 200, "{losses} losses");

        let fit = try_fit(
            &obs,
            &EmOptions {
                num_hidden: 1,
                num_symbols: 3,
                tol: 1e-5,
                max_iters: 400,
                seed: 5,
                restarts: 1,
                parallelism: None,
                budget: None,
                settings: MmhdSettings {
                    empirical_init: true,
                    tied_loss: false,
                },
            },
        )
        .unwrap();
        let inferred = fit.model.loss_delay_pmf(&obs).expect("losses present");
        let truth_pmf = truth.loss_delay_pmf(&obs).expect("losses present");
        let tv = inferred.total_variation(&truth_pmf);
        assert!(tv < 0.05, "tv {tv}: {inferred:?} vs {truth_pmf:?}");
        // Almost all loss mass must sit on symbol 3.
        assert!(inferred.prob(3) > 0.85, "{inferred:?}");
    }

    #[test]
    fn em_with_hidden_dimension_still_recovers_loss_distribution() {
        // Generate from a 2-hidden-state model and fit with N=2.
        let mut rng = SmallRng::seed_from_u64(23);
        let truth = Mmhd::random(2, 4, &mut rng);
        // Force a recognisable loss profile.
        let truth = Mmhd::from_parts(
            truth.initial().to_vec(),
            truth.transition().clone(),
            vec![0.0, 0.0, 0.05, 0.5],
            2,
        );
        let obs = truth.generate(&mut rng, 30_000);
        if !obs.iter().any(|o| o.is_loss()) {
            panic!("planted model produced no losses");
        }
        // The generator's loss probabilities are genuinely tied per symbol
        // and its transitions are unstructured, so fit in tied mode (the
        // untied model has nothing to hang the extra freedom on here).
        let fit = try_fit(
            &obs,
            &EmOptions {
                num_hidden: 2,
                num_symbols: 4,
                tol: 1e-4,
                max_iters: 200,
                seed: 2,
                restarts: 2,
                parallelism: None,
                budget: None,
                settings: MmhdSettings {
                    empirical_init: true,
                    tied_loss: true,
                },
            },
        )
        .unwrap();
        let inferred = fit.model.loss_delay_pmf(&obs).expect("losses present");
        // A randomly-wired generator has little temporal structure to pin
        // the loss symbols down, so require qualitative recovery: the bulk
        // of the loss mass on the genuinely lossy symbol 4, little below
        // symbol 3.
        let f = inferred.cdf();
        assert!(f.value(2) < 0.15, "{inferred:?}");
        assert!(inferred.prob(4) > 0.6, "{inferred:?}");
    }

    #[test]
    fn em_monotonically_improves_likelihood() {
        let truth = planted_markov();
        let mut rng = SmallRng::seed_from_u64(4);
        let obs = truth.generate(&mut rng, 5000);
        let mut model = Mmhd::random(2, 3, &mut SmallRng::seed_from_u64(9));
        let mut prev = f64::NEG_INFINITY;
        for _ in 0..20 {
            let (next, ll) = em_step(&model, &obs);
            assert!(ll >= prev - 1e-7, "likelihood fell: {prev} -> {ll}");
            prev = ll;
            model = next;
        }
    }

    #[test]
    fn degenerates_to_markov_model_when_n_is_one() {
        // With N = 1 the state *is* the symbol: transitions between observed
        // symbols should match empirical bigram frequencies on loss-free
        // data.
        let truth = Mmhd::from_parts(
            vec![0.5, 0.5],
            Matrix::from_vec(2, 2, vec![0.7, 0.3, 0.2, 0.8]),
            vec![0.0, 0.0],
            1,
        );
        let mut rng = SmallRng::seed_from_u64(31);
        let obs = truth.generate(&mut rng, 50_000);
        let fit = try_fit(
            &obs,
            &EmOptions {
                num_hidden: 1,
                num_symbols: 2,
                tol: 1e-7,
                max_iters: 500,
                seed: 1,
                restarts: 1,
                parallelism: None,
                budget: None,
                settings: MmhdSettings {
                    empirical_init: true,
                    tied_loss: false,
                },
            },
        )
        .unwrap();
        // Empirical bigram estimate of P(1 -> 1).
        let mut n11 = 0.0;
        let mut n1 = 0.0;
        for w in obs.windows(2) {
            if w[0] == Obs::Sym(1) {
                n1 += 1.0;
                if w[1] == Obs::Sym(1) {
                    n11 += 1.0;
                }
            }
        }
        let emp = n11 / n1;
        let got = fit.model.transition().get(0, 0);
        assert!((got - emp).abs() < 1e-3, "fit {got} vs empirical {emp}");
    }
}
