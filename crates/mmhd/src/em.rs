//! The EM algorithm of Appendix B.
//!
//! Expectation step: scaled forward–backward over the product state space
//! gives the smoothed state posteriors `gamma_t(x)` and transition
//! posteriors `xi_t(x, x')`. Maximisation step (Eqs. (6)–(8) of the
//! appendix): the transition matrix from the `xi`/`gamma` ratios, the loss
//! probabilities `c_m` from the expected share of loss observations among
//! the visits to symbol-`m` states, and the initial distribution from
//! `gamma_1`.

// Index-based loops are deliberate in the numeric kernels below: the
// indices couple several arrays at once and mirror the papers' notation.
#![allow(clippy::needless_range_loop)]

use crate::model::Mmhd;
use dcl_probnum::em::{self, EmModel, EmNames};
pub use dcl_probnum::em::{em_step, em_step_with, EmBudget};
use dcl_probnum::obs::{apply_loss_restriction, FitError, Obs};
use dcl_probnum::{stochastic, Emissions, ForwardBackward, Pmf};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The MMHD's own EM settings, carried in [`EmOptions::settings`].
#[derive(Debug, Clone, Copy)]
pub struct MmhdSettings {
    /// Initialise the transition matrix from empirical delay-symbol bigrams
    /// (see [`Mmhd::empirical_init`]) instead of fully at random. Defaults
    /// to `true`; disable to reproduce the paper's stated random
    /// initialisation (ablated in the bench harness).
    pub empirical_init: bool,
    /// Tie the loss probabilities per symbol (the paper's `c_m`). With
    /// `false` each hidden component of a symbol carries its own loss
    /// probability, which separates full-queue visits from draining-queue
    /// visits of the same delay bin and markedly improves loss attribution
    /// on bursty traces. Defaults to `false` (the generalised model); set
    /// `true` to reproduce the paper's exact formulation.
    pub tied_loss: bool,
}

impl Default for MmhdSettings {
    fn default() -> Self {
        MmhdSettings {
            empirical_init: true,
            tied_loss: false,
        }
    }
}

/// EM configuration: the shared schedule plus [`MmhdSettings`].
pub type EmOptions = em::EmOptions<MmhdSettings>;

/// Outcome of a fit.
pub type FitResult = em::FitResult<Mmhd>;

/// Reusable per-restart scratch buffers for [`em_step_with`].
///
/// One EM iteration needs the forward–backward tables, the sparse
/// emission rows and several per-step vectors; reallocating them every
/// iteration dominates the allocator traffic of a fit. Every buffer entry
/// is written before it is read (the gamma buffer only on the states
/// `gamma_into` returns), so stepping through a scratch is bitwise
/// identical to the allocating [`em_step`] — the property tests pin that
/// down.
#[derive(Debug, Clone)]
pub struct EmScratch {
    fb: ForwardBackward,
    emis: Emissions,
    gamma: Vec<f64>,
    /// Expected losses per state.
    loss_num: Vec<f64>,
    /// Expected visits per state.
    state_total: Vec<f64>,
    /// Expected losses and visits per symbol (tied loss probabilities).
    sym_loss: Vec<f64>,
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
            loss_num: Vec::new(),
            state_total: Vec::new(),
            sym_loss: Vec::new(),
            sym_total: Vec::new(),
        }
    }
}

impl EmModel for Mmhd {
    type Settings = MmhdSettings;
    type Scratch = EmScratch;
    const NAMES: &'static EmNames = &EmNames {
        model: "mmhd",
        restart_span: "mmhd.em.restart",
        warm_span: "mmhd.em.warm",
        restarts: "mmhd.em.restarts",
        iterations: "mmhd.em.iterations",
        iters_per_restart: "mmhd.em.iters_per_restart",
        converged: "mmhd.em.converged",
        guard_trips: "mmhd.em.guard_trips",
        budget_clipped: "mmhd.em.budget_clipped",
        budget_fallbacks: "mmhd.em.budget_fallbacks",
        warm_starts: "mmhd.em.warm_starts",
        warm_fallbacks: "mmhd.em.warm_fallbacks",
    };

    /// The transition counts accumulate in `out`'s matrix, which the
    /// M-step then normalises in place.
    fn em_step_into(&self, obs: &[Obs], scratch: &mut EmScratch, out: &mut Mmhd) -> f64 {
        let EmScratch {
            fb,
            emis,
            gamma,
            loss_num,
            state_total,
            sym_loss,
            sym_total,
        } = scratch;
        self.emissions_into(obs, emis);
        fb.run_into(self.initial(), self.transition(), emis);
        if !fb.log_likelihood.is_finite() {
            // The model rules `obs` out: there are no posteriors to count.
            return fb.log_likelihood;
        }
        let s = self.num_states();
        let m = self.num_symbols();

        out.num_hidden = self.num_hidden;
        out.tied_loss = self.tied_loss;
        let pi_new = &mut out.pi;
        pi_new.clear();
        pi_new.resize(s, 0.0);
        let trans_num = &mut out.p;
        trans_num.resize(s, s);
        trans_num.fill(0.0);
        for v in [&mut *loss_num, &mut *state_total] {
            v.clear();
            v.resize(s, 0.0);
        }

        gamma.resize(s, 0.0);

        for (t, o) in obs.iter().enumerate() {
            // gamma_t is zero off the states it wrote: the support of step t,
            // or every state when its row sum fell back to uniform.
            let wrote = fb.gamma_into(emis, t, gamma);
            if t == 0 {
                for &x in wrote {
                    pi_new[x as usize] = gamma[x as usize];
                }
            }
            let is_loss = o.is_loss();
            for &x in wrote {
                let x = x as usize;
                state_total[x] += gamma[x];
                if is_loss {
                    loss_num[x] += gamma[x];
                }
            }
        }
        fb.add_transitions(emis, self.transition(), trans_num, |x, e, b| x * (e * b));

        trans_num.normalize_rows();
        let c_new = &mut out.c;
        c_new.clear();
        if self.tied_loss() {
            // The paper's formulation: pool the statistics by symbol so every
            // hidden component of a symbol shares one loss probability.
            for v in [&mut *sym_loss, &mut *sym_total] {
                v.clear();
                v.resize(m, 0.0);
            }
            for x in 0..s {
                let d = self.symbol_of(x);
                sym_loss[d] += loss_num[x];
                sym_total[d] += state_total[x];
            }
            c_new.extend((0..s).map(|x| {
                let d = self.symbol_of(x);
                if sym_total[d] > 0.0 {
                    (sym_loss[d] / sym_total[d]).clamp(0.0, 1.0)
                } else {
                    0.0
                }
            }));
        } else {
            c_new.extend((0..s).map(|x| {
                if state_total[x] > 0.0 {
                    (loss_num[x] / state_total[x]).clamp(0.0, 1.0)
                } else {
                    0.0
                }
            }));
        }
        stochastic::normalize(pi_new);
        debug_assert!(out.is_feasible(), "the M-step left the simplex");
        fb.log_likelihood
    }

    /// Empirical bigram initialisation reads the data when enabled.
    fn initial_model(obs: &[Obs], opts: &EmOptions, rng_seed: u64) -> Mmhd {
        let mut rng = SmallRng::seed_from_u64(rng_seed);
        if opts.settings.empirical_init {
            Mmhd::empirical_init(obs, opts.num_hidden, opts.num_symbols, &mut rng)
        } else {
            Mmhd::random(opts.num_hidden, opts.num_symbols, &mut rng)
        }
    }

    fn prepare(&mut self, obs: &[Obs], opts: &EmOptions) {
        self.set_tied_loss(opts.settings.tied_loss);
        apply_loss_restriction(&mut self.c, opts.num_symbols, obs);
    }

    fn loss_delay_pmf(&self, obs: &[Obs]) -> Option<Pmf> {
        Mmhd::loss_delay_pmf(self, obs)
    }

    fn log_likelihood(&self, obs: &[Obs]) -> f64 {
        Mmhd::log_likelihood(self, obs)
    }

    fn dims(&self) -> (usize, usize) {
        (self.num_hidden(), self.num_symbols())
    }

    /// π, `p` (row-major), `c`.
    fn params(&self) -> impl Iterator<Item = &[f64]> {
        [&self.pi[..], self.p.as_slice(), &self.c[..]].into_iter()
    }

    fn params_mut(&mut self) -> impl Iterator<Item = &mut [f64]> {
        [&mut self.pi[..], self.p.as_mut_slice(), &mut self.c[..]].into_iter()
    }

    fn warm_floor_mut(&mut self) -> impl Iterator<Item = (&mut [f64], usize)> {
        let s = self.pi.len();
        [(&mut self.pi[..], s), (&mut self.c[..], 2)].into_iter()
    }

    /// The feasibility rule; [`Mmhd::from_parts_per_state`] asserts it.
    fn is_feasible(&self) -> bool {
        stochastic::is_distribution(&self.pi)
            && self.p.is_row_stochastic()
            && self.c.iter().all(|&x| (0.0..=1.0).contains(&x))
    }
}

/// Fit an MMHD to `obs` by EM with random restarts, returning a typed
/// error instead of panicking on unusable input or numerical breakdown.
/// The schedule — restarts on [`EmOptions::parallelism`] threads,
/// guarded retries, the optional [`EmOptions::budget`] — is
/// [`dcl_probnum::em::try_fit`]'s; the result is bitwise identical at
/// every thread count.
pub fn try_fit(obs: &[Obs], opts: &EmOptions) -> Result<FitResult, FitError> {
    em::try_fit(obs, opts)
}

/// Fit an MMHD to `obs` warm-started from a previously fitted model,
/// ahead of the restart schedule.
///
/// The streaming engine refits overlapping windows whose optimum moves
/// slowly, so it seeds EM from the previous window's parameters. The
/// seed's π and loss probabilities `c` are first mixed with the uniform
/// distribution over their outcomes at weight ε = 1e-3: π is a point
/// mass on the old window's first state, and a zero loss probability
/// would stay 0. The rows of `p` keep their zeros, and a window that
/// takes a transition they rule out is fitted by [`try_fit`], since it
/// left the regime the seed describes. On the `stream` benchmark a
/// quarter of the warm starts go that way, and a decision spends 117.5
/// E-steps (162.5 when every such zero, π's included, sent the window
/// to the cold schedule through a guard trip). An `init` with the wrong
/// dimensions is fitted by [`try_fit`] too, and a warm trajectory that
/// trips a guard goes on into its restarts (see
/// [`dcl_probnum::em::fit_warm`]); the result is a pure function of
/// `(obs, opts, init)`.
pub fn fit_warm(obs: &[Obs], opts: &EmOptions, init: &Mmhd) -> Result<FitResult, FitError> {
    em::fit_warm(obs, opts, init)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcl_probnum::Matrix;

    #[test]
    fn fit_rejects_empty_and_bad_alphabet() {
        assert!(try_fit(&[], &EmOptions::default()).is_err());
        assert!(try_fit(&[Obs::Sym(99)], &EmOptions::default()).is_err());
    }

    #[test]
    fn fit_handles_all_loss_free_data() {
        let obs: Vec<Obs> = (0..500).map(|i| Obs::Sym(1 + (i % 3) as u16)).collect();
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
        assert!(r.model.loss_probs().iter().all(|&c| c < 1e-9));
    }

    #[test]
    fn fit_handles_short_sequences() {
        let obs = [Obs::Sym(1), Obs::Loss, Obs::Sym(2)];
        let r = try_fit(
            &obs,
            &EmOptions {
                num_hidden: 1,
                num_symbols: 2,
                max_iters: 50,
                ..EmOptions::default()
            },
        )
        .unwrap();
        assert!(r.log_likelihood.is_finite());
        assert!(r.model.loss_delay_pmf(&obs).is_some());
    }

    /// A fitted model's exact zeros must not trip the next window's fit.
    /// Each seed below gives the window likelihood 0 as it stands. π a
    /// point mass on state 0, whose symbol 1 the window's first
    /// observation is not, is an artefact of the old window, and the
    /// floor lets the fit run warm. `p` with the 2 → 3 transition at 0,
    /// which the window takes, says the window left the seed's regime,
    /// and the fit is the cold schedule's. Neither trips a guard.
    #[test]
    fn warm_start_floors_pi_and_refits_a_ruled_out_transition_cold() {
        let obs: Vec<Obs> = (0..300)
            .map(|i| match i % 7 {
                3 => Obs::Loss,
                k => Obs::Sym(2 + (k % 2) as u16),
            })
            .chain((0..60).map(|i| Obs::Sym(1 + (i % 3) as u16)))
            .collect();
        assert_eq!(obs[..2], [Obs::Sym(2), Obs::Sym(3)]);
        let opts = EmOptions {
            num_hidden: 1,
            num_symbols: 3,
            max_iters: 50,
            ..EmOptions::default()
        };
        let cold = try_fit(&obs, &opts).unwrap();
        let point_mass = vec![1.0, 0.0, 0.0];
        let uniform = vec![1.0 / 3.0; 3];
        let mut no_2_to_3 = Matrix::filled(3, 3, 1.0 / 3.0);
        no_2_to_3.row_mut(1).copy_from_slice(&[0.5, 0.5, 0.0]);
        let seeds = [
            (point_mass.clone(), Matrix::filled(3, 3, 1.0 / 3.0), true),
            (uniform, no_2_to_3.clone(), false),
            (point_mass, no_2_to_3, false),
        ];
        for (pi, p, warm) in seeds {
            let init = Mmhd::from_parts_per_state(pi, p, vec![0.1; 3], 1);
            assert!(!init.log_likelihood(&obs).is_finite());
            let (fit, captured) = dcl_metrics::capture(|| fit_warm(&obs, &opts, &init).unwrap());
            assert_eq!(fit.guard_trips, 0);
            assert!(fit.log_likelihood.is_finite());
            assert_eq!(captured.metrics.counter("mmhd.em.warm_starts"), 1);
            assert_eq!(
                captured.metrics.counter("mmhd.em.warm_fallbacks"),
                u64::from(!warm)
            );
            if !warm {
                assert_eq!(fit.log_likelihood.to_bits(), cold.log_likelihood.to_bits());
                assert_eq!(fit.iterations, cold.iterations);
            }
        }
    }

    /// A loss probability EM set to 0 would stay 0. The seed says state 0
    /// (symbol 1) never loses, but the window's losses all fall inside
    /// runs of symbol 1, far from its runs of symbol 2. The floor lets the
    /// fit move the loss mass to state 0.
    #[test]
    fn warm_start_raises_a_zero_loss_probability() {
        let obs: Vec<Obs> = (0..400)
            .map(|i| match i % 40 {
                0..=19 => Obs::Sym(2),
                25 | 30 | 35 => Obs::Loss,
                _ => Obs::Sym(1),
            })
            .collect();
        let opts = EmOptions {
            num_hidden: 1,
            num_symbols: 2,
            max_iters: 100,
            ..EmOptions::default()
        };
        let init =
            Mmhd::from_parts_per_state(vec![0.5; 2], Matrix::filled(2, 2, 0.5), vec![0.0, 0.5], 1);
        let fit = fit_warm(&obs, &opts, &init).unwrap();
        assert_eq!(fit.guard_trips, 0);
        assert!(
            fit.model.loss_probs()[0] > 0.05,
            "{:?}",
            fit.model.loss_probs()
        );
    }

    #[test]
    fn converged_flag_reflects_tolerance() {
        let obs: Vec<Obs> = (0..200).map(|i| Obs::Sym(1 + (i % 2) as u16)).collect();
        let strict = try_fit(
            &obs,
            &EmOptions {
                num_hidden: 1,
                num_symbols: 2,
                tol: 0.0, // unattainable
                max_iters: 3,
                ..EmOptions::default()
            },
        )
        .unwrap();
        assert!(!strict.converged);
        assert_eq!(strict.iterations, 3);
        let loose = try_fit(
            &obs,
            &EmOptions {
                num_hidden: 1,
                num_symbols: 2,
                tol: 1.0, // immediate
                max_iters: 50,
                ..EmOptions::default()
            },
        )
        .unwrap();
        assert!(loose.converged);
    }
}
