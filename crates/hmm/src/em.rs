//! Baum–Welch EM extended with missing (loss) observations.
//!
//! The E-step computes, under the current model, the smoothed state
//! posteriors and — for each loss — the joint posterior over (state, delay
//! symbol). The M-step re-estimates `pi`, `A`, `B` and the per-symbol loss
//! probabilities `c_m` from the expected counts. Iteration stops when the
//! maximum absolute parameter change falls below the tolerance (the paper
//! uses `1e-4`/`1e-5`) or after `max_iters`.

// Index-based loops are deliberate in the numeric kernels below: the
// indices couple several arrays at once and mirror the papers' notation.
#![allow(clippy::needless_range_loop)]

use crate::model::Hmm;
use dcl_probnum::em::{self, EmModel, EmNames};
pub use dcl_probnum::em::{em_step, em_step_with, EmBudget};
use dcl_probnum::obs::{apply_loss_restriction, FitError, Obs};
use dcl_probnum::{stochastic, Emissions, ForwardBackward, Matrix, Pmf};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// EM configuration: the shared schedule, with no HMM-specific settings.
pub type EmOptions = em::EmOptions<()>;

/// Outcome of a fit.
pub type FitResult = em::FitResult<Hmm>;

/// Reusable per-restart scratch buffers for [`em_step_with`].
///
/// One EM iteration needs the forward–backward tables, the emission rows
/// and several small per-step vectors; reallocating them every iteration
/// dominates the allocator traffic of a fit. A scratch is cheap to create
/// empty and grows to the working-set size on first use.
/// Every buffer entry is written before it is read (the gamma buffer only
/// on the states `gamma_into` returns), so stepping through a scratch is
/// bitwise identical to the allocating [`em_step`] — the property tests
/// pin that down.
#[derive(Debug, Clone)]
pub struct EmScratch {
    fb: ForwardBackward,
    emis: Emissions,
    gamma: Vec<f64>,
    loss_post: Matrix,
    /// Expected losses per symbol.
    loss_num: Vec<f64>,
    /// Expected occurrences per symbol.
    sym_total: Vec<f64>,
}

impl Default for EmScratch {
    fn default() -> Self {
        EmScratch::new()
    }
}

impl EmScratch {
    /// An empty scratch; buffers are sized lazily on first use.
    pub fn new() -> EmScratch {
        EmScratch {
            fb: ForwardBackward::empty(),
            emis: Emissions::new(0),
            gamma: Vec::new(),
            loss_post: Matrix::zeros(0, 0),
            loss_num: Vec::new(),
            sym_total: Vec::new(),
        }
    }
}

impl EmModel for Hmm {
    type Settings = ();
    type Scratch = EmScratch;
    const NAMES: &'static EmNames = &EmNames {
        model: "hmm",
        restart_span: "hmm.em.restart",
        warm_span: "hmm.em.warm",
        restarts: "hmm.em.restarts",
        iterations: "hmm.em.iterations",
        iters_per_restart: "hmm.em.iters_per_restart",
        converged: "hmm.em.converged",
        guard_trips: "hmm.em.guard_trips",
        budget_clipped: "hmm.em.budget_clipped",
        budget_fallbacks: "hmm.em.budget_fallbacks",
        warm_starts: "hmm.em.warm_starts",
        warm_fallbacks: "hmm.em.warm_fallbacks",
    };

    /// The expected counts accumulate in `out`'s matrices, which the
    /// M-step then normalises in place.
    fn em_step_into(&self, obs: &[Obs], scratch: &mut EmScratch, out: &mut Hmm) -> f64 {
        let EmScratch {
            fb,
            emis,
            gamma,
            loss_post,
            loss_num,  // expected losses per symbol
            sym_total, // expected occurrences per symbol
        } = scratch;
        self.emissions_into(obs, emis);
        fb.run_into(self.initial(), self.transition(), emis);
        if !fb.log_likelihood.is_finite() {
            // The model rules `obs` out: there are no posteriors to count.
            return fb.log_likelihood;
        }
        let n = self.num_states();
        let m = self.num_symbols();

        // Accumulators for the expected counts.
        let Hmm {
            pi: pi_new,
            a: trans_num, // expected transitions i -> j
            b: b_num,     // expected (state, symbol) counts
            c: c_new,
        } = out;
        pi_new.clear();
        pi_new.resize(n, 0.0);
        trans_num.resize(n, n);
        trans_num.fill(0.0);
        b_num.resize(n, m);
        b_num.fill(0.0);
        for v in [&mut *loss_num, &mut *sym_total] {
            v.clear();
            v.resize(m, 0.0);
        }

        // Cache the per-state loss-symbol posterior (model-constant).
        self.loss_symbol_posteriors_into(loss_post);
        gamma.resize(n, 0.0);

        for (t, &o) in obs.iter().enumerate() {
            // gamma_t is zero off the states it wrote.
            let wrote = fb.gamma_into(emis, t, gamma);
            if t == 0 {
                for &j in wrote {
                    pi_new[j as usize] = gamma[j as usize];
                }
            }
            // Symbol attribution.
            match o {
                Obs::Sym(s) => {
                    let k = s as usize - 1;
                    for &j in wrote {
                        let j = j as usize;
                        b_num.set(j, k, b_num.get(j, k) + gamma[j]);
                    }
                    sym_total[k] += 1.0;
                }
                Obs::Loss => {
                    for &j in wrote {
                        let j = j as usize;
                        let gj = gamma[j];
                        if gj == 0.0 {
                            continue;
                        }
                        let post = loss_post.row(j);
                        for k in 0..m {
                            let w = gj * post[k];
                            b_num.set(j, k, b_num.get(j, k) + w);
                            loss_num[k] += w;
                            sym_total[k] += w;
                        }
                    }
                }
            }
        }
        fb.add_transitions(emis, self.transition(), trans_num, |x, e, b| x * e * b);

        // M-step.
        trans_num.normalize_rows();
        b_num.normalize_rows();
        c_new.clear();
        c_new.extend((0..m).map(|k| {
            if sym_total[k] > 0.0 {
                (loss_num[k] / sym_total[k]).clamp(0.0, 1.0)
            } else {
                0.0
            }
        }));
        stochastic::normalize(pi_new);
        debug_assert!(out.is_feasible(), "the M-step left the simplex");
        fb.log_likelihood
    }

    fn initial_model(_obs: &[Obs], opts: &EmOptions, rng_seed: u64) -> Hmm {
        let mut rng = SmallRng::seed_from_u64(rng_seed);
        Hmm::random(opts.num_hidden, opts.num_symbols, &mut rng)
    }

    fn prepare(&mut self, obs: &[Obs], _opts: &EmOptions) {
        let m = self.c.len();
        apply_loss_restriction(&mut self.c, m, obs);
    }

    fn loss_delay_pmf(&self, obs: &[Obs]) -> Option<Pmf> {
        Hmm::loss_delay_pmf(self, obs)
    }

    fn log_likelihood(&self, obs: &[Obs]) -> f64 {
        Hmm::log_likelihood(self, obs)
    }

    fn dims(&self) -> (usize, usize) {
        (self.num_states(), self.num_symbols())
    }

    /// π, `A`, `B` (both row-major), `c`.
    fn params(&self) -> impl Iterator<Item = &[f64]> {
        [
            &self.pi[..],
            self.a.as_slice(),
            self.b.as_slice(),
            &self.c[..],
        ]
        .into_iter()
    }

    fn params_mut(&mut self) -> impl Iterator<Item = &mut [f64]> {
        [
            &mut self.pi[..],
            self.a.as_mut_slice(),
            self.b.as_mut_slice(),
            &mut self.c[..],
        ]
        .into_iter()
    }

    fn warm_floor_mut(&mut self) -> impl Iterator<Item = (&mut [f64], usize)> {
        let n = self.pi.len();
        [(&mut self.pi[..], n), (&mut self.c[..], 2)].into_iter()
    }

    /// The feasibility rule; [`Hmm::from_parts`] asserts it.
    fn is_feasible(&self) -> bool {
        stochastic::is_distribution(&self.pi)
            && self.a.is_row_stochastic()
            && self.b.is_row_stochastic()
            && self.c.iter().all(|&x| (0.0..=1.0).contains(&x))
    }
}

/// Fit an HMM to `obs` by EM with random restarts, returning a typed
/// [`FitError`] instead of panicking or propagating a numerically broken
/// model. The schedule — restarts on [`EmOptions::parallelism`] threads,
/// guarded retries, the optional [`EmOptions::budget`] — is
/// [`dcl_probnum::em::try_fit`]'s; the result is bitwise identical at
/// every thread count.
pub fn try_fit(obs: &[Obs], opts: &EmOptions) -> Result<FitResult, FitError> {
    em::try_fit(obs, opts)
}

/// Fit an HMM to `obs` warm-started from a previously fitted model,
/// ahead of the random-restart schedule.
///
/// The streaming engine refits overlapping windows whose optimum moves
/// slowly, so it seeds EM from the previous window's parameters. The
/// seed's π and loss probabilities are first mixed with the uniform
/// distribution over their outcomes at weight ε = 1e-3: π is a point
/// mass on the old window's first state, and a zero loss probability
/// would stay 0. The rows of `A` and `B` keep their zeros, and a window
/// that needs a transition or emission they rule out is fitted by
/// [`try_fit`], since it left the regime the seed describes. So is an
/// `init` with the wrong dimensions, and a warm trajectory that trips a
/// guard goes on into its restarts (see [`dcl_probnum::em::fit_warm`]);
/// the result is a pure function of `(obs, opts, init)`.
pub fn fit_warm(obs: &[Obs], opts: &EmOptions, init: &Hmm) -> Result<FitResult, FitError> {
    em::fit_warm(obs, opts, init)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// A fitted model's exact zeros must not trip the next window's fit.
    /// Each state emits one symbol, and each seed below gives the window
    /// likelihood 0 as it stands. π a point mass on state 0, which cannot
    /// emit the window's first symbol 2, is an artefact of the old window,
    /// and the floor lets the fit run warm. `A` with the 1 → 0 transition
    /// at 0, which the window takes, says the window left the seed's
    /// regime, and the fit is the cold schedule's. Neither trips a guard.
    #[test]
    fn warm_start_floors_pi_and_refits_a_ruled_out_transition_cold() {
        let obs: Vec<Obs> = (0..300)
            .map(|i| match i % 5 {
                2 => Obs::Loss,
                k => Obs::Sym(2 - (k % 2) as u16),
            })
            .collect();
        assert_eq!(obs[..2], [Obs::Sym(2), Obs::Sym(1)]);
        let opts = EmOptions {
            num_hidden: 2,
            num_symbols: 2,
            max_iters: 50,
            ..EmOptions::default()
        };
        let cold = try_fit(&obs, &opts).unwrap();
        let point_mass = vec![1.0, 0.0];
        let uniform = vec![0.5; 2];
        let no_1_to_0 = Matrix::from_vec(2, 2, vec![0.5, 0.5, 0.0, 1.0]);
        let seeds = [
            (point_mass.clone(), Matrix::filled(2, 2, 0.5), true),
            (uniform, no_1_to_0.clone(), false),
            (point_mass, no_1_to_0, false),
        ];
        for (pi, a, warm) in seeds {
            let b = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
            let init = Hmm::from_parts(pi, a, b, vec![0.1; 2]);
            assert!(!init.log_likelihood(&obs).is_finite());
            let (fit, captured) = dcl_metrics::capture(|| fit_warm(&obs, &opts, &init).unwrap());
            assert_eq!(fit.guard_trips, 0);
            assert!(fit.log_likelihood.is_finite());
            assert_eq!(captured.metrics.counter("hmm.em.warm_starts"), 1);
            assert_eq!(
                captured.metrics.counter("hmm.em.warm_fallbacks"),
                u64::from(!warm)
            );
            if !warm {
                assert_eq!(fit.log_likelihood.to_bits(), cold.log_likelihood.to_bits());
                assert_eq!(fit.iterations, cold.iterations);
            }
        }
    }

    #[test]
    fn fit_rejects_bad_symbols() {
        let opts = EmOptions {
            num_symbols: 5,
            ..EmOptions::default()
        };
        assert!(try_fit(&[Obs::Sym(9)], &opts).is_err());
    }

    #[test]
    fn fit_handles_loss_free_sequences() {
        // All-observed data: c must collapse to ~0 and the fit succeed.
        let truth = Hmm::from_parts(
            vec![1.0],
            Matrix::from_vec(1, 1, vec![1.0]),
            Matrix::from_vec(1, 3, vec![0.2, 0.5, 0.3]),
            vec![0.0, 0.0, 0.0],
        );
        let mut rng = SmallRng::seed_from_u64(2);
        let obs = truth.generate(&mut rng, 2000);
        let r = try_fit(
            &obs,
            &EmOptions {
                num_hidden: 1,
                num_symbols: 3,
                ..EmOptions::default()
            },
        )
        .unwrap();
        assert!(r.log_likelihood.is_finite());
        assert!(r.model.loss_probs().iter().all(|&c| c < 1e-6));
        // The emission distribution should match the empirical frequencies.
        let freq2 = obs.iter().filter(|&&o| o == Obs::Sym(2)).count() as f64 / obs.len() as f64;
        assert!((r.model.emission().get(0, 1) - freq2).abs() < 1e-6);
    }

    #[test]
    fn single_state_model_recovers_loss_probabilities() {
        // With N = 1 the data are i.i.d. over {1..M, loss} with
        // probabilities b_m (1 - c_m) and sum_m b_m c_m: M free numbers
        // for 2M - 1 parameters. Any split of b and c with the same
        // products fits equally well, so the planted c is not identified
        // (seed 8 fits c = [0.028, 0.086, 0.143, 0.162]). Test what is:
        // the maximum-likelihood fit reproduces the empirical symbol and
        // loss frequencies, and no generating model beats it.
        let truth = Hmm::from_parts(
            vec![1.0],
            Matrix::from_vec(1, 1, vec![1.0]),
            Matrix::from_vec(1, 4, vec![0.4, 0.3, 0.2, 0.1]),
            vec![0.0, 0.0, 0.1, 0.6],
        );
        for data_seed in [8, 1, 2, 3, 4, 5, 6, 7, 9, 10] {
            let mut rng = SmallRng::seed_from_u64(data_seed);
            let obs = truth.generate(&mut rng, 60_000);
            let r = try_fit(
                &obs,
                &EmOptions {
                    num_hidden: 1,
                    num_symbols: 4,
                    tol: 1e-6,
                    max_iters: 500,
                    seed: 3,
                    restarts: 1,
                    parallelism: None,
                    budget: None,
                    settings: (),
                },
            )
            .unwrap();
            let (b, c) = (r.model.emission(), r.model.loss_probs());
            let freq = |o: Obs| obs.iter().filter(|&&x| x == o).count() as f64 / obs.len() as f64;
            for k in 0..4 {
                let fitted = b.get(0, k) * (1.0 - c[k]);
                let empirical = freq(Obs::Sym(k as u16 + 1));
                assert!(
                    (fitted - empirical).abs() < 1e-9,
                    "seed {data_seed}, symbol {}: {fitted} vs {empirical}",
                    k + 1
                );
            }
            let fitted_loss: f64 = (0..4).map(|k| b.get(0, k) * c[k]).sum();
            let loss_rate = freq(Obs::Loss);
            assert!(
                (fitted_loss - loss_rate).abs() < 1e-9,
                "seed {data_seed}: loss {fitted_loss} vs {loss_rate}"
            );
            let truth_ll = truth.log_likelihood(&obs);
            // Relative slack for rounding over 60,000 steps.
            assert!(
                r.log_likelihood >= truth_ll - 1e-9 * truth_ll.abs(),
                "seed {data_seed}: fit {} below the generating model's {truth_ll}",
                r.log_likelihood
            );
        }
    }

    fn planted() -> Hmm {
        Hmm::from_parts(
            vec![0.5, 0.5],
            Matrix::from_vec(2, 2, vec![0.97, 0.03, 0.05, 0.95]),
            Matrix::from_vec(
                2,
                5,
                vec![
                    0.55, 0.35, 0.10, 0.00, 0.00, //
                    0.00, 0.00, 0.10, 0.30, 0.60,
                ],
            ),
            vec![0.0, 0.0, 0.02, 0.10, 0.35],
        )
    }

    /// A NaN parameter makes the convergence metric NaN, so the guard on
    /// non-finite parameters trips instead of the largest finite change
    /// (here 0.1, in `pi`) passing for it.
    #[test]
    fn a_nan_parameter_gives_a_nan_param_diff() {
        let finite = planted();
        let mut moved = finite.clone();
        moved.pi = vec![0.6, 0.4];
        assert!((em::max_param_diff(&moved, &finite) - 0.1).abs() < 1e-12);
        moved.c[4] = f64::NAN;
        assert!(em::max_param_diff(&moved, &finite).is_nan());
        assert!(em::max_param_diff(&finite, &moved).is_nan());
    }

    #[test]
    fn restarts_pick_the_best_likelihood() {
        let truth = planted();
        let mut rng = SmallRng::seed_from_u64(21);
        let obs = truth.generate(&mut rng, 5000);
        let single = try_fit(
            &obs,
            &EmOptions {
                num_hidden: 2,
                num_symbols: 5,
                restarts: 1,
                seed: 100,
                ..EmOptions::default()
            },
        )
        .unwrap();
        let multi = try_fit(
            &obs,
            &EmOptions {
                num_hidden: 2,
                num_symbols: 5,
                restarts: 4,
                seed: 100,
                ..EmOptions::default()
            },
        )
        .unwrap();
        assert!(multi.log_likelihood >= single.log_likelihood - 1e-9);
    }
}
