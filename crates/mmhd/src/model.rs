//! The MMHD parameterisation and inference queries.

// Index-based loops are deliberate in the numeric kernels below: the
// indices couple several arrays at once and mirror the papers' notation.
#![allow(clippy::needless_range_loop)]

use dcl_probnum::em::EmModel;
use dcl_probnum::obs::Obs;
use dcl_probnum::{stochastic, Emissions, ForwardBackward, Matrix, Pmf};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A Markov model with a hidden dimension.
///
/// The chain runs on the product state space `x = (h, d)` with `h ∈ 0..N`
/// hidden and `d ∈ 0..M` the (0-based) delay symbol. States are flattened
/// as `x = h * M + d`. Parameters:
///
/// * `pi` — initial state distribution (`N*M`);
/// * `p`  — full transition matrix over the product space
///   (`N*M x N*M`, row stochastic);
/// * `c`  — loss probabilities, stored per *state* (`N*M`). In the paper's
///   formulation the loss probability depends on the delay symbol only
///   (`c_m = P(loss | d = m)`); that is the *tied* mode, in which the EM
///   M-step pools the per-state statistics by symbol so all hidden
///   components of a symbol share one value. The untied (per-state) mode is
///   a strict generalisation this crate adds: it lets a "congested" hidden
///   component of a symbol be lossy while a quiet component of the same
///   symbol is not, which markedly improves loss attribution when a delay
///   bin mixes full-queue and draining-queue visits (see DESIGN.md).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mmhd {
    pub(crate) pi: Vec<f64>,
    pub(crate) p: Matrix,
    pub(crate) c: Vec<f64>,
    pub(crate) num_hidden: usize,
    pub(crate) tied_loss: bool,
}

impl Mmhd {
    /// Assemble a model with the paper's *tied* (per-symbol) loss
    /// probabilities: `c` has `M` entries, replicated across hidden
    /// components. Validates shapes and stochasticity.
    pub fn from_parts(pi: Vec<f64>, p: Matrix, c: Vec<f64>, num_hidden: usize) -> Self {
        let m = c.len();
        let mut per_state = Vec::with_capacity(num_hidden * m);
        for _ in 0..num_hidden {
            per_state.extend_from_slice(&c);
        }
        let mut model = Mmhd::from_parts_per_state(pi, p, per_state, num_hidden);
        model.tied_loss = true;
        model
    }

    /// Assemble a model with untied (per-state) loss probabilities:
    /// `c` has `N*M` entries, indexed like the states.
    pub fn from_parts_per_state(pi: Vec<f64>, p: Matrix, c: Vec<f64>, num_hidden: usize) -> Self {
        let s = c.len();
        assert!(num_hidden > 0 && s >= num_hidden, "need N >= 1 and M >= 1");
        assert_eq!(s % num_hidden, 0, "c must have N*M entries");
        assert_eq!(pi.len(), s, "pi must have N*M entries");
        assert_eq!(p.rows(), s);
        assert_eq!(p.cols(), s);
        let model = Mmhd {
            pi,
            p,
            c,
            num_hidden,
            tied_loss: false,
        };
        assert!(
            model.is_feasible(),
            "pi and the rows of P must be stochastic, loss probabilities in [0, 1]"
        );
        model
    }

    /// Random model for EM initialisation. Following the paper: the
    /// transition matrix entries are random (strictly positive), the initial
    /// distribution and the loss probabilities start uniform.
    pub fn random<R: Rng + ?Sized>(num_hidden: usize, num_symbols: usize, rng: &mut R) -> Self {
        let s = num_hidden * num_symbols;
        let pi = stochastic::uniform(s);
        let p = Matrix::random_stochastic(rng, s, s);
        let c = vec![0.1; s];
        Mmhd {
            pi,
            p,
            c,
            num_hidden,
            tied_loss: true,
        }
    }

    /// Data-informed initialisation: the transition matrix starts from the
    /// empirical bigram frequencies of the *observed* delay symbols
    /// (lightly smoothed, jittered across the hidden components), the
    /// initial distribution from the empirical symbol frequencies, and the
    /// loss probabilities from the overall loss fraction.
    ///
    /// Rationale: with fully random initialisation, EM frequently converges
    /// to a degenerate optimum that parks the loss mass on *sparsely
    /// observed* symbols — explaining losses there costs almost no emission
    /// probability because such symbols have few delivered observations to
    /// contradict it. Starting from the empirical delay dynamics puts the
    /// optimisation in the basin where a loss is attributed to the delay
    /// symbols its temporal context supports, which is exactly the paper's
    /// insight. The random initialisation remains available for ablation.
    pub fn empirical_init<R: Rng + ?Sized>(
        obs: &[Obs],
        num_hidden: usize,
        num_symbols: usize,
        rng: &mut R,
    ) -> Self {
        let m = num_symbols;
        let s = num_hidden * m;
        // Smoothed bigram counts over consecutive *observed* symbols.
        let mut bigram = Matrix::filled(m, m, 0.02);
        let mut freq = vec![0.05; m];
        let mut losses = 0usize;
        for w in obs.windows(2) {
            if let (Obs::Sym(a), Obs::Sym(b)) = (w[0], w[1]) {
                let (a, b) = (a as usize - 1, b as usize - 1);
                bigram.set(a, b, bigram.get(a, b) + 1.0);
            }
        }
        for o in obs {
            match o {
                Obs::Sym(sym) => freq[*sym as usize - 1] += 1.0,
                Obs::Loss => losses += 1,
            }
        }
        bigram.normalize_rows();
        stochastic::normalize(&mut freq);

        // Product-space transition: bigram on the symbol dimension, a
        // jittered random mix on the hidden dimension.
        let mut p = Matrix::zeros(s, s);
        for h in 0..num_hidden {
            for d in 0..m {
                let row_idx = h * m + d;
                let hidden_mix = stochastic::random_distribution(rng, num_hidden);
                let row = p.row_mut(row_idx);
                for (h2, &mix) in hidden_mix.iter().enumerate() {
                    for d2 in 0..m {
                        let jitter = 0.5 + rng.gen_range(0.0..1.0);
                        row[h2 * m + d2] = bigram.get(d, d2) * mix * jitter;
                    }
                }
                stochastic::normalize(row);
            }
        }
        let mut pi = vec![0.0; s];
        for h in 0..num_hidden {
            for d in 0..m {
                pi[h * m + d] = freq[d] / num_hidden as f64;
            }
        }
        let loss_frac = if obs.is_empty() {
            0.05
        } else {
            (losses as f64 / obs.len() as f64).clamp(0.01, 0.5)
        };
        let c = vec![loss_frac; s];
        Mmhd {
            pi,
            p,
            c,
            num_hidden,
            tied_loss: true,
        }
    }

    /// Number of hidden components `N`.
    pub fn num_hidden(&self) -> usize {
        self.num_hidden
    }

    /// Number of delay symbols `M`.
    pub fn num_symbols(&self) -> usize {
        self.c.len() / self.num_hidden
    }

    /// Number of product states `N*M`.
    pub fn num_states(&self) -> usize {
        self.pi.len()
    }

    /// Flatten `(h, d)` (0-based) to a state index.
    #[inline]
    pub fn state_index(&self, h: usize, d: usize) -> usize {
        debug_assert!(h < self.num_hidden && d < self.num_symbols());
        h * self.num_symbols() + d
    }

    /// The delay symbol (0-based) of state `x`.
    #[inline]
    pub fn symbol_of(&self, x: usize) -> usize {
        x % self.num_symbols()
    }

    /// Initial distribution over product states.
    pub fn initial(&self) -> &[f64] {
        &self.pi
    }

    /// Transition matrix over product states.
    pub fn transition(&self) -> &Matrix {
        &self.p
    }

    /// Loss probabilities, one per product state (tied models carry the
    /// same value for every hidden component of a symbol).
    pub fn loss_probs(&self) -> &[f64] {
        &self.c
    }

    /// Is the loss probability tied per symbol (the paper's formulation)?
    pub fn tied_loss(&self) -> bool {
        self.tied_loss
    }

    /// Set whether the M-step ties loss probabilities per symbol.
    pub fn set_tied_loss(&mut self, tied: bool) {
        self.tied_loss = tied;
    }

    /// Emission likelihood of observation `o` in product state `x`:
    /// `1{d = m} (1 - c_x)` for an observed symbol `m`, `c_x` for a loss.
    pub fn emission_likelihood(&self, x: usize, o: Obs) -> f64 {
        let d = self.symbol_of(x);
        match o {
            Obs::Sym(s) => {
                if d == s as usize - 1 {
                    1.0 - self.c[x]
                } else {
                    0.0
                }
            }
            Obs::Loss => self.c[x],
        }
    }

    /// The emission likelihoods of a sequence, written into a reusable
    /// buffer straight from the parameters with the values of
    /// [`Mmhd::emission_likelihood`]. The likelihoods depend only on the
    /// observation, so the table holds one row per value and each step
    /// names its row: the row of delivered symbol `m` is its `N` states'
    /// `1 - c_x`, the loss row is the states' `c_x`, and zero likelihoods
    /// are not stored.
    pub(crate) fn emissions_into(&self, obs: &[Obs], e: &mut Emissions) {
        let s = self.num_states();
        let m = self.num_symbols();
        e.reset(s);
        for d in 0..m {
            for x in (d..s).step_by(m) {
                e.push(x, 1.0 - self.c[x]);
            }
            e.end_row();
        }
        for (x, &cx) in self.c.iter().enumerate() {
            e.push(x, cx);
        }
        e.end_row();
        e.observe(obs);
    }

    /// The emission likelihoods of `obs` in a fresh buffer.
    fn emissions(&self, obs: &[Obs]) -> Emissions {
        let mut e = Emissions::new(self.num_states());
        self.emissions_into(obs, &mut e);
        e
    }

    /// Log-likelihood of `obs` under this model (the forward pass alone).
    pub fn log_likelihood(&self, obs: &[Obs]) -> f64 {
        assert!(!obs.is_empty(), "empty observation sequence");
        ForwardBackward::log_likelihood_of(&self.pi, &self.p, &self.emissions(obs))
    }

    /// The virtual queuing delay distribution `P(delay symbol | loss)` —
    /// the paper's Eq. (5): the smoothed posterior symbol mass of the loss
    /// observations, normalised by the number of losses.
    ///
    /// Returns `None` when the sequence contains no losses, or when the
    /// model rules it out (log-likelihood `-inf`).
    pub fn loss_delay_pmf(&self, obs: &[Obs]) -> Option<Pmf> {
        if !obs.iter().any(|o| o.is_loss()) {
            return None;
        }
        let emis = self.emissions(obs);
        let fb = ForwardBackward::run(&self.pi, &self.p, &emis);
        if !fb.log_likelihood.is_finite() {
            return None;
        }
        let mut mass = vec![0.0; self.num_symbols()];
        let mut gamma = vec![0.0; self.num_states()];
        for (t, &o) in obs.iter().enumerate() {
            if !o.is_loss() {
                continue;
            }
            for &x in fb.gamma_into(&emis, t, &mut gamma) {
                mass[self.symbol_of(x as usize)] += gamma[x as usize];
            }
        }
        Some(Pmf::from_mass(mass))
    }

    /// Sample an observation sequence of length `len`.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R, len: usize) -> Vec<Obs> {
        let mut out = Vec::with_capacity(len);
        if len == 0 {
            return out;
        }
        let mut state = stochastic::sample_index(rng, &self.pi);
        for t in 0..len {
            if t > 0 {
                state = stochastic::sample_index(rng, self.p.row(state));
            }
            let d = self.symbol_of(state);
            let lost = rng.gen_bool(self.c[state].clamp(0.0, 1.0));
            out.push(if lost {
                Obs::Loss
            } else {
                Obs::Sym((d + 1) as u16)
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn tiny() -> Mmhd {
        // N=2, M=2: 4 product states.
        let p = Matrix::uniform_stochastic(4, 4);
        Mmhd::from_parts(vec![0.25; 4], p, vec![0.1, 0.4], 2)
    }

    #[test]
    fn indexing_round_trips() {
        let m = tiny();
        assert_eq!(m.num_states(), 4);
        for h in 0..2 {
            for d in 0..2 {
                let x = m.state_index(h, d);
                assert_eq!(m.symbol_of(x), d);
            }
        }
    }

    #[test]
    fn emission_likelihood_definitions() {
        let m = tiny();
        let x = m.state_index(1, 1); // symbol 2
        assert!((m.emission_likelihood(x, Obs::Sym(2)) - 0.6).abs() < 1e-12);
        assert_eq!(m.emission_likelihood(x, Obs::Sym(1)), 0.0);
        assert!((m.emission_likelihood(x, Obs::Loss) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn generate_produces_valid_alphabet() {
        let m = tiny();
        let mut rng = SmallRng::seed_from_u64(3);
        let obs = m.generate(&mut rng, 10_000);
        assert!(dcl_probnum::obs::validate_sequence(&obs, 2).is_ok());
        let losses = obs.iter().filter(|o| o.is_loss()).count();
        // Expected loss fraction ~ (0.1 + 0.4) / 2 = 0.25.
        let frac = losses as f64 / obs.len() as f64;
        assert!((frac - 0.25).abs() < 0.03, "loss fraction {frac}");
    }

    #[test]
    fn loss_delay_pmf_weights_by_c() {
        let m = tiny();
        let mut rng = SmallRng::seed_from_u64(3);
        let obs = m.generate(&mut rng, 20_000);
        let pmf = m.loss_delay_pmf(&obs).unwrap();
        // Symbol 2 is four times as lossy and equally likely: ~0.8 mass.
        assert!((pmf.prob(2) - 0.8).abs() < 0.05, "{pmf:?}");
    }

    #[test]
    fn loss_delay_pmf_none_without_losses() {
        let m = tiny();
        assert!(m.loss_delay_pmf(&[Obs::Sym(1)]).is_none());
    }

    #[test]
    #[should_panic]
    fn from_parts_rejects_wrong_pi_length() {
        let p = Matrix::uniform_stochastic(4, 4);
        let _ = Mmhd::from_parts(vec![0.5, 0.5], p, vec![0.1, 0.1], 2);
    }

    /// A model whose loss probabilities mix `c = 0`, `c = 1` and values in
    /// between, and a sequence of every symbol and losses: `N ∈ {1, 2, 4}`,
    /// `M ∈ {2, 5, 40}`. Each symbol's states are all `c = 0` (so a loss row
    /// skips them), all `c = 1` (so a delivered row of the symbol is empty),
    /// or drawn one by one from the three kinds.
    fn emissions_case() -> impl Strategy<Value = (Mmhd, Vec<Obs>)> {
        (0usize..3, 0usize..3, 1usize..60, any::<u64>()).prop_map(|(ni, mi, len, seed)| {
            let (n, m) = ([1, 2, 4][ni], [2, 5, 40][mi]);
            let mut rng = SmallRng::seed_from_u64(seed);
            let kind: Vec<usize> = (0..m).map(|_| rng.gen_range(0..3)).collect();
            let c: Vec<f64> = (0..n * m)
                .map(|x| match (kind[x % m], rng.gen_range(0..3)) {
                    (0, _) | (2, 0) => 0.0,
                    (1, _) | (2, 1) => 1.0,
                    _ => rng.gen_range(0.01..0.99),
                })
                .collect();
            let base = Mmhd::random(n, m, &mut rng);
            let model = Mmhd::from_parts_per_state(
                base.initial().to_vec(),
                base.transition().clone(),
                c,
                n,
            );
            let obs = (0..len)
                .map(|_| {
                    if rng.gen_range(0.0..1.0) < 0.3 {
                        Obs::Loss
                    } else {
                        Obs::Sym(1 + rng.gen_range(0..m) as u16)
                    }
                })
                .collect();
            (model, obs)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Each sparse emission row is exactly the non-zero likelihoods of
        /// `emission_likelihood`: the same states, ascending, and the same
        /// values to the bit.
        #[test]
        fn emission_rows_are_the_nonzero_likelihoods((model, obs) in emissions_case()) {
            let mut rows = Emissions::new(0);
            model.emissions_into(&obs, &mut rows);
            prop_assert_eq!(rows.steps(), obs.len());
            prop_assert_eq!(rows.states(), model.num_states());
            for (t, &o) in obs.iter().enumerate() {
                let (support, values): (Vec<u32>, Vec<u64>) = (0..model.num_states())
                    .map(|x| (x, model.emission_likelihood(x, o)))
                    .filter(|&(_, e)| e != 0.0)
                    .map(|(x, e)| (x as u32, e.to_bits()))
                    .unzip();
                prop_assert_eq!(rows.support(t), &support[..]);
                let got: Vec<u64> = rows.values(t).iter().map(|e| e.to_bits()).collect();
                prop_assert_eq!(got, values);
            }
        }
    }

    /// Symbol 1 is never delivered (`c = 1`), so the delivered `Sym(1)` at
    /// step 1 has an empty emission row and the model rules the sequence
    /// out: its EM step has no re-estimate and gives the model back
    /// unchanged with `-inf`, and it has no loss-delay distribution.
    #[test]
    fn a_model_that_rules_the_data_out_does_not_step() {
        let p = Matrix::from_vec(2, 2, vec![0.6, 0.4, 0.3, 0.7]);
        let model = Mmhd::from_parts_per_state(vec![0.5, 0.5], p, vec![1.0, 0.5], 1);
        let obs = [Obs::Sym(2), Obs::Sym(1), Obs::Loss];
        let (next, ll) = crate::em_step(&model, &obs);
        assert_eq!(ll, f64::NEG_INFINITY);
        assert_eq!(format!("{next:?}"), format!("{model:?}"));
        assert_eq!(model.log_likelihood(&obs), f64::NEG_INFINITY);
        assert!(model.loss_delay_pmf(&obs).is_none());
    }
}
