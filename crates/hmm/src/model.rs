//! The HMM parameterisation and inference queries.

// Index-based loops are deliberate in the numeric kernels below: the
// indices couple several arrays at once and mirror the papers' notation.
#![allow(clippy::needless_range_loop)]

use dcl_probnum::em::EmModel;
use dcl_probnum::obs::Obs;
use dcl_probnum::{stochastic, Emissions, ForwardBackward, Matrix, Pmf};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A hidden Markov model over delay symbols with per-symbol loss
/// probabilities.
///
/// Parameters (`N` hidden states, `M` symbols):
///
/// * `pi` — initial hidden-state distribution (`N`);
/// * `a`  — hidden-state transition matrix (`N x N`, row stochastic);
/// * `b`  — emission matrix (`N x M`, row stochastic): `b[j][m-1]` is the
///   probability that state `j` produces delay symbol `m`;
/// * `c`  — loss probabilities (`M`): `c[m-1] = P(loss | symbol m)`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Hmm {
    pub(crate) pi: Vec<f64>,
    pub(crate) a: Matrix,
    pub(crate) b: Matrix,
    pub(crate) c: Vec<f64>,
}

impl Hmm {
    /// Assemble a model from its parts, validating shapes and
    /// stochasticity.
    pub fn from_parts(pi: Vec<f64>, a: Matrix, b: Matrix, c: Vec<f64>) -> Self {
        let n = pi.len();
        let m = c.len();
        assert!(n > 0 && m > 0, "model needs at least one state and symbol");
        assert_eq!(a.rows(), n);
        assert_eq!(a.cols(), n);
        assert_eq!(b.rows(), n);
        assert_eq!(b.cols(), m);
        let model = Hmm { pi, a, b, c };
        assert!(
            model.is_feasible(),
            "pi and the rows of A and B must be stochastic, loss probabilities in [0, 1]"
        );
        model
    }

    /// Random model for EM initialisation, following the guidelines of
    /// Rabiner \[31\]: strictly positive random stochastic parameters; loss
    /// probabilities start small and increasing with the symbol (losses
    /// correlate with long delays).
    pub fn random<R: Rng + ?Sized>(num_states: usize, num_symbols: usize, rng: &mut R) -> Self {
        let pi = stochastic::random_distribution(rng, num_states);
        let a = Matrix::random_stochastic(rng, num_states, num_states);
        let b = Matrix::random_stochastic(rng, num_states, num_symbols);
        let c = (0..num_symbols)
            .map(|m| 0.02 + 0.1 * (m as f64 + rng.gen_range(0.0..1.0)) / num_symbols as f64)
            .collect();
        Hmm { pi, a, b, c }
    }

    /// Number of hidden states `N`.
    pub fn num_states(&self) -> usize {
        self.pi.len()
    }

    /// Number of delay symbols `M`.
    pub fn num_symbols(&self) -> usize {
        self.c.len()
    }

    /// Initial hidden-state distribution.
    pub fn initial(&self) -> &[f64] {
        &self.pi
    }

    /// Hidden-state transition matrix.
    pub fn transition(&self) -> &Matrix {
        &self.a
    }

    /// Emission matrix.
    pub fn emission(&self) -> &Matrix {
        &self.b
    }

    /// Per-symbol loss probabilities `c_m`.
    pub fn loss_probs(&self) -> &[f64] {
        &self.c
    }

    /// Emission likelihood of observation `o` in state `j`:
    /// `b_j(m) (1 - c_m)` for an observed symbol `m`, and
    /// `sum_m b_j(m) c_m` for a loss.
    pub fn emission_likelihood(&self, j: usize, o: Obs) -> f64 {
        match o {
            Obs::Sym(s) => {
                let m = s as usize - 1;
                self.b.get(j, m) * (1.0 - self.c[m])
            }
            Obs::Loss => self
                .b
                .row(j)
                .iter()
                .zip(&self.c)
                .map(|(&bm, &cm)| bm * cm)
                .sum(),
        }
    }

    /// The emission likelihoods of a sequence, written into a reusable
    /// buffer: one full row of [`Hmm::emission_likelihood`] per observation
    /// value (each delivered symbol, then a loss), which the steps name
    /// (zero likelihoods are not stored).
    pub(crate) fn emissions_into(&self, obs: &[Obs], e: &mut Emissions) {
        let n = self.num_states();
        e.reset(n);
        let values = (1..=self.num_symbols()).map(|m| Obs::Sym(m as u16));
        for o in values.chain([Obs::Loss]) {
            for j in 0..n {
                e.push(j, self.emission_likelihood(j, o));
            }
            e.end_row();
        }
        e.observe(obs);
    }

    /// The emission likelihoods of `obs` in a fresh buffer.
    fn emissions(&self, obs: &[Obs]) -> Emissions {
        let mut e = Emissions::new(self.num_states());
        self.emissions_into(obs, &mut e);
        e
    }

    /// Log-likelihood of an observation sequence under this model (the
    /// forward pass alone).
    pub fn log_likelihood(&self, obs: &[Obs]) -> f64 {
        assert!(!obs.is_empty(), "empty observation sequence");
        ForwardBackward::log_likelihood_of(&self.pi, &self.a, &self.emissions(obs))
    }

    /// Posterior distribution of the delay symbol of a *lost* observation,
    /// one row per state `j`: `P(m | state j, loss) ∝ b_j(m) c_m`, written
    /// into a reusable `N x M` buffer.
    pub(crate) fn loss_symbol_posteriors_into(&self, out: &mut Matrix) {
        out.resize(self.num_states(), self.num_symbols());
        for j in 0..self.num_states() {
            let row = out.row_mut(j);
            for ((o, &bm), &cm) in row.iter_mut().zip(self.b.row(j)).zip(&self.c) {
                *o = bm * cm;
            }
            stochastic::normalize(row);
        }
    }

    /// The virtual queuing delay distribution `P(delay symbol | loss)`
    /// inferred from the entire observation sequence (the paper's Eq. (5)):
    /// expected symbol counts of the loss observations under the smoothed
    /// state posteriors.
    ///
    /// Returns `None` when the sequence contains no losses, or when the
    /// model rules it out (log-likelihood `-inf`).
    pub fn loss_delay_pmf(&self, obs: &[Obs]) -> Option<Pmf> {
        if !obs.iter().any(|o| o.is_loss()) {
            return None;
        }
        let emis = self.emissions(obs);
        let fb = ForwardBackward::run(&self.pi, &self.a, &emis);
        if !fb.log_likelihood.is_finite() {
            return None;
        }
        let mut post = Matrix::zeros(0, 0);
        self.loss_symbol_posteriors_into(&mut post);
        let mut mass = vec![0.0; self.num_symbols()];
        let mut gamma = vec![0.0; self.num_states()];
        for (t, &o) in obs.iter().enumerate() {
            if !o.is_loss() {
                continue;
            }
            for &j in fb.gamma_into(&emis, t, &mut gamma) {
                let gj = gamma[j as usize];
                if gj == 0.0 {
                    continue;
                }
                for (k, &pk) in post.row(j as usize).iter().enumerate() {
                    mass[k] += gj * pk;
                }
            }
        }
        Some(Pmf::from_mass(mass))
    }

    /// Sample an observation sequence of length `len` from the model
    /// (for tests and synthetic studies).
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R, len: usize) -> Vec<Obs> {
        let mut out = Vec::with_capacity(len);
        if len == 0 {
            return out;
        }
        let mut state = stochastic::sample_index(rng, &self.pi);
        for t in 0..len {
            if t > 0 {
                state = stochastic::sample_index(rng, self.a.row(state));
            }
            let sym = stochastic::sample_index(rng, self.b.row(state));
            let lost = rng.gen_bool(self.c[sym].clamp(0.0, 1.0));
            out.push(if lost {
                Obs::Loss
            } else {
                Obs::Sym((sym + 1) as u16)
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn tiny() -> Hmm {
        Hmm::from_parts(
            vec![1.0, 0.0],
            Matrix::from_vec(2, 2, vec![0.9, 0.1, 0.2, 0.8]),
            Matrix::from_vec(2, 3, vec![0.8, 0.2, 0.0, 0.0, 0.3, 0.7]),
            vec![0.0, 0.1, 0.5],
        )
    }

    #[test]
    fn emission_likelihood_definitions() {
        let h = tiny();
        // Observed symbol 2 in state 0: 0.2 * (1 - 0.1).
        assert!((h.emission_likelihood(0, Obs::Sym(2)) - 0.18).abs() < 1e-12);
        // Loss in state 1: 0*0 + 0.3*0.1 + 0.7*0.5.
        assert!((h.emission_likelihood(1, Obs::Loss) - 0.38).abs() < 1e-12);
    }

    #[test]
    fn loss_symbol_posterior_is_normalised_and_weighted() {
        let h = tiny();
        let mut post = Matrix::zeros(0, 0);
        h.loss_symbol_posteriors_into(&mut post);
        let p = post.row(1);
        assert!(dcl_probnum::stochastic::is_distribution(p));
        // In state 1: symbol 3 carries 0.35 of 0.38 loss mass.
        assert!((p[2] - 0.35 / 0.38).abs() < 1e-12);
        assert_eq!(p[0], 0.0);
    }

    #[test]
    fn generate_respects_loss_free_symbols() {
        let h = tiny();
        let mut rng = SmallRng::seed_from_u64(5);
        let obs = h.generate(&mut rng, 5000);
        assert_eq!(obs.len(), 5000);
        // Symbol 1 has c=0; the model can never lose a symbol-1 probe, and
        // state 0 (initial) emits it mostly, so it must appear.
        assert!(obs.contains(&Obs::Sym(1)));
    }

    #[test]
    fn loss_delay_pmf_none_without_losses() {
        let h = tiny();
        assert!(h.loss_delay_pmf(&[Obs::Sym(1), Obs::Sym(2)]).is_none());
    }

    /// Symbol 3 is never delivered (`c = 1`), so the delivered `Sym(3)` at
    /// step 1 has likelihood 0 in every state and the model rules the
    /// sequence out: its EM step has no re-estimate and gives the model
    /// back unchanged with `-inf`, and it has no loss-delay distribution.
    #[test]
    fn a_model_that_rules_the_data_out_does_not_step() {
        let h = tiny();
        let model = Hmm::from_parts(h.pi, h.a, h.b, vec![0.0, 0.1, 1.0]);
        let obs = [Obs::Sym(1), Obs::Sym(3), Obs::Loss];
        let (next, ll) = crate::em_step(&model, &obs);
        assert_eq!(ll, f64::NEG_INFINITY);
        assert_eq!(format!("{next:?}"), format!("{model:?}"));
        assert_eq!(model.log_likelihood(&obs), f64::NEG_INFINITY);
        assert!(model.loss_delay_pmf(&obs).is_none());
    }

    #[test]
    fn log_likelihood_prefers_generating_model() {
        let truth = tiny();
        let mut rng = SmallRng::seed_from_u64(11);
        let obs = truth.generate(&mut rng, 3000);
        let other = Hmm::from_parts(
            vec![0.5, 0.5],
            Matrix::uniform_stochastic(2, 2),
            Matrix::uniform_stochastic(2, 3),
            vec![0.2, 0.2, 0.2],
        );
        assert!(truth.log_likelihood(&obs) > other.log_likelihood(&obs));
    }

    #[test]
    #[should_panic]
    fn from_parts_rejects_nonstochastic() {
        let _ = Hmm::from_parts(
            vec![0.7, 0.7],
            Matrix::uniform_stochastic(2, 2),
            Matrix::uniform_stochastic(2, 3),
            vec![0.0; 3],
        );
    }
}
