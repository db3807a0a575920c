//! Hidden Markov model with loss-augmented emissions.
//!
//! The model of §V of the paper, HMM variant: `N` hidden states drive a
//! Markov chain; state `j` emits a discretised delay symbol `m ∈ 1..=M` with
//! probability `b_j(m)`, and independently the probe carrying symbol `m` is
//! lost with probability `c_m = P(loss | delay symbol = m)`. The observer
//! sees either the symbol (probe delivered) or a bare loss (the symbol is
//! *missing*). The EM algorithm is the Baum–Welch recursion of Rabiner \[31\]
//! extended to these missing values; after fitting,
//! [`Hmm::loss_delay_pmf`] recovers `P(delay symbol | loss)` — the virtual
//! queuing delay distribution of the lost probes (the paper's Eq. (5)).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod em;
mod model;

pub use em::{em_step, em_step_with, fit_warm, try_fit, EmBudget, EmOptions, EmScratch, FitResult};
pub use model::Hmm;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// A ground-truth model with two clearly separated regimes:
    /// state 0 = "quiet" (low symbols, no loss), state 1 = "congested"
    /// (high symbols, losses).
    fn planted() -> Hmm {
        Hmm::from_parts(
            vec![0.5, 0.5],
            dcl_probnum::Matrix::from_vec(2, 2, vec![0.97, 0.03, 0.05, 0.95]),
            dcl_probnum::Matrix::from_vec(
                2,
                5,
                vec![
                    0.55, 0.35, 0.10, 0.00, 0.00, // quiet
                    0.00, 0.00, 0.10, 0.30, 0.60, // congested
                ],
            ),
            vec![0.0, 0.0, 0.02, 0.10, 0.35],
        )
    }

    #[test]
    fn em_recovers_loss_delay_distribution_of_planted_model() {
        // Only state 1 emits symbols 4 and 5, and a lost probe's symbol is
        // never seen, so how the loss splits between c_4 and c_5 is not
        // identified: the fits land at total variation 0.40-0.62 from the
        // generating model's loss-delay distribution while beating its
        // likelihood. Test what is identified, on every seed: the fit is
        // at least as likely as the generating model, and the loss mass
        // sits on the high symbols.
        let truth = planted();
        for data_seed in [42, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11] {
            let mut rng = SmallRng::seed_from_u64(data_seed);
            let obs = truth.generate(&mut rng, 30_000);
            assert!(obs.iter().any(|o| o.is_loss()), "need losses in the data");

            let result = try_fit(
                &obs,
                &EmOptions {
                    num_hidden: 2,
                    num_symbols: 5,
                    tol: 1e-5,
                    max_iters: 300,
                    seed: 7,
                    restarts: 2,
                    parallelism: None,
                    budget: None,
                    settings: (),
                },
            )
            .unwrap();
            let truth_ll = truth.log_likelihood(&obs);
            // Relative slack for rounding over 30,000 steps.
            assert!(
                result.log_likelihood >= truth_ll - 1e-9 * truth_ll.abs(),
                "seed {data_seed}: fit {} below the generating model's {truth_ll}",
                result.log_likelihood
            );
            let inferred = result.model.loss_delay_pmf(&obs).expect("losses present");
            let f = inferred.cdf();
            assert!(
                f.value(3) < 0.15,
                "seed {data_seed}: low symbols should carry no loss mass: {inferred:?}"
            );
        }
    }

    #[test]
    fn em_monotonically_improves_likelihood() {
        let truth = planted();
        let mut rng = SmallRng::seed_from_u64(3);
        let obs = truth.generate(&mut rng, 4000);
        let mut model = Hmm::random(2, 5, &mut SmallRng::seed_from_u64(1));
        let mut prev = f64::NEG_INFINITY;
        for _ in 0..25 {
            let (next, ll) = em_step(&model, &obs);
            assert!(
                ll >= prev - 1e-7,
                "EM decreased the likelihood: {prev} -> {ll}"
            );
            prev = ll;
            model = next;
        }
    }
}
