//! The EM fit schedule shared by the HMM and the MMHD.
//!
//! Both models fit by one guarded schedule: random restarts, each a
//! guarded attempt (a resumable SQUAREM-accelerated trajectory of EM
//! steps that stops at the tolerance or the E-step cap) retried from an
//! escalated seed when a numerical guard trips, the best likelihood
//! winning. [`fit_warm`] runs a previous fit as one more attempt ahead of
//! the restarts, and an optional [`EmBudget`] bounds the work of them all.
//! The model crates supply the numerics through [`EmModel`]; this module
//! owns the schedule, its options, guards and observability, once.

use crate::dist::Pmf;
use crate::obs::{validate_sequence, FitError, Obs};

/// Metric, span and event names of one model family. Counters and spans
/// take `&'static str`, so every name is spelled out once per model
/// rather than formatted per call.
#[derive(Debug)]
pub struct EmNames {
    /// The `model` label of EM events (`"hmm"`, `"mmhd"`).
    pub model: &'static str,
    /// Span around one restart.
    pub restart_span: &'static str,
    /// Span around a warm-started trajectory.
    pub warm_span: &'static str,
    /// Counter: finished trajectories.
    pub restarts: &'static str,
    /// Counter: EM iterations (E-steps) of finished trajectories.
    pub iterations: &'static str,
    /// Histogram: iterations per finished trajectory.
    pub iters_per_restart: &'static str,
    /// Counter: trajectories that met the tolerance.
    pub converged: &'static str,
    /// Counter: numerical-guard trips.
    pub guard_trips: &'static str,
    /// Counter: fits clipped by their budget.
    pub budget_clipped: &'static str,
    /// Counter: budgeted fits that fell back to the initial model.
    pub budget_fallbacks: &'static str,
    /// Counter: warm starts attempted.
    pub warm_starts: &'static str,
    /// Counter: warm starts that fell back to the cold schedule.
    pub warm_fallbacks: &'static str,
}

/// Bounded-work contract for one fit's EM spend. When the budget is
/// exhausted mid-fit, the fitter stops and returns the best model found
/// so far flagged *degraded* (or a deterministic fallback if nothing
/// survived) instead of erroring, so the caller always gets a verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmBudget {
    /// Maximum total EM iterations (E-steps) across all restarts of one
    /// fit.
    pub max_iters: usize,
    /// Maximum total guard trips across all restarts of one fit; further
    /// trips abandon the fit rather than re-seeding.
    pub max_guard_trips: usize,
}

impl Default for EmBudget {
    fn default() -> Self {
        EmBudget {
            max_iters: 400,
            max_guard_trips: 4,
        }
    }
}

/// The EM schedule of one fit, shared by every model family, plus the
/// family's own `settings` (`()` for the HMM, the initialisation and
/// loss-tying switches for the MMHD). The model crates export it as their
/// `EmOptions`.
#[derive(Debug, Clone, Copy)]
pub struct EmOptions<X> {
    /// Hidden states (HMM) or hidden components (MMHD), `N`.
    pub num_hidden: usize,
    /// Delay symbols, `M`.
    pub num_symbols: usize,
    /// Convergence threshold on the maximum parameter change (the paper
    /// uses `1e-4` / `1e-5`).
    pub tol: f64,
    /// Iteration cap of one trajectory, in E-steps.
    pub max_iters: usize,
    /// Base seed of the random initialisations.
    pub seed: u64,
    /// Random restarts; the best likelihood wins.
    pub restarts: usize,
    /// Worker threads for the random restarts. `None` (the default) uses
    /// the `DCL_PARALLELISM` / `RAYON_NUM_THREADS` environment variables or
    /// every available core; `Some(1)` is the exact legacy serial path.
    /// The fit result is bitwise identical at every setting: each restart
    /// derives its own RNG from `seed + restart_index` and the best
    /// likelihood is reduced in restart order.
    pub parallelism: Option<usize>,
    /// Bounded-work budget for the whole fit (total EM iterations and
    /// guard trips across all restarts). `None` (the default) is the
    /// historical unbudgeted schedule. With a budget, restarts run
    /// serially (the budget is a sequential resource) and an exhausted
    /// budget returns the best model found so far flagged `degraded` in
    /// its [`FitResult`] — or a deterministic initial-model fallback if
    /// nothing survived — instead of erroring.
    pub budget: Option<EmBudget>,
    /// The model family's own settings ([`EmModel::Settings`]).
    pub settings: X,
}

impl<X: Default> Default for EmOptions<X> {
    fn default() -> Self {
        EmOptions {
            num_hidden: 2,
            num_symbols: 5,
            tol: 1e-4,
            max_iters: 200,
            seed: 1,
            restarts: 1,
            parallelism: None,
            budget: None,
            settings: X::default(),
        }
    }
}

/// A model this module can fit: its EM step, its parameters as one flat
/// view, and the per-model pieces of the schedule.
pub trait EmModel: Clone + Send + Sync + Sized {
    /// The model family's own settings, carried in
    /// [`EmOptions::settings`].
    type Settings: Copy + Sync;
    /// Reusable buffers of [`EmModel::em_step_into`] and [`em_step_with`].
    type Scratch: Default;
    /// The model family's metric, span and event names.
    const NAMES: &'static EmNames;

    /// One EM step: writes the re-estimated model into `out`, a model of
    /// the same dimensions whose parameters are all overwritten, and
    /// returns the log-likelihood of `obs` under `self`.
    fn em_step_into(&self, obs: &[Obs], scratch: &mut Self::Scratch, out: &mut Self) -> f64;
    /// The initial model of a restart seeded from `rng_seed`.
    fn initial_model(obs: &[Obs], opts: &EmOptions<Self::Settings>, rng_seed: u64) -> Self;
    /// Fix up a trajectory's starting model for `obs` and `opts` (the
    /// loss restriction; the MMHD's tied-loss mode).
    fn prepare(&mut self, obs: &[Obs], opts: &EmOptions<Self::Settings>);
    /// `P(delay symbol | loss)` over `obs`: the paper's Eq. (5), the
    /// distribution every fit exists to produce. `None` when `obs` holds
    /// no loss.
    fn loss_delay_pmf(&self, obs: &[Obs]) -> Option<Pmf>;
    /// Log-likelihood of `obs` under the model.
    fn log_likelihood(&self, obs: &[Obs]) -> f64;
    /// `(N, M)`: the dimensions [`fit_warm`] checks against the options.
    fn dims(&self) -> (usize, usize);
    /// The flat parameter view the accelerated trajectory extrapolates:
    /// every parameter EM re-estimates, as blocks in a fixed order.
    fn params(&self) -> impl Iterator<Item = &[f64]>;
    /// The blocks of [`EmModel::params`], writable: a model is rebuilt
    /// from a flat view by writing them and checking
    /// [`EmModel::is_feasible`].
    fn params_mut(&mut self) -> impl Iterator<Item = &mut [f64]>;
    /// The blocks whose exact zeros a fit leaves behind without saying
    /// anything about the next window, writable, each with the number of
    /// outcomes its entries are probabilities over: the initial
    /// distribution (`S` states), which EM makes a point mass on the
    /// fitted window's first state, and the loss probabilities (2: lost
    /// or delivered), which EM leaves at 0 in a state no loss was
    /// attributed to. [`fit_warm`] floors them; the transition (and
    /// emission) rows keep their zeros.
    fn warm_floor_mut(&mut self) -> impl Iterator<Item = (&mut [f64], usize)>;
    /// Can EM step from this model: is every distribution (initial, each
    /// transition and emission row) a probability vector, and every loss
    /// probability in `[0, 1]`? The checks the constructors assert.
    fn is_feasible(&self) -> bool;
}

/// One EM step: the re-estimated model and the log-likelihood of `obs`
/// under the *input* model.
pub fn em_step<M: EmModel>(model: &M, obs: &[Obs]) -> (M, f64) {
    em_step_with(model, obs, &mut M::Scratch::default())
}

/// [`em_step`] reusing the caller's scratch buffers; numerically (bitwise)
/// identical to the allocating version. The returned model is still a new
/// allocation (a clone of `model`, overwritten); the fit's trajectory
/// steps into models it holds instead.
pub fn em_step_with<M: EmModel>(model: &M, obs: &[Obs], scratch: &mut M::Scratch) -> (M, f64) {
    let mut next = model.clone();
    let ll = model.em_step_into(obs, scratch, &mut next);
    (next, ll)
}

/// Largest absolute difference between the parameters of two models of
/// the same dimensions, over [`EmModel::params`]: the EM convergence
/// metric (the paper's thresholds are `1e-4` / `1e-5`). NaN when any
/// difference is NaN, so the guard on non-finite parameters sees a NaN
/// parameter. Panics on blocks of unequal lengths.
pub fn max_param_diff<M: EmModel>(a: &M, b: &M) -> f64 {
    let mut d = 0.0;
    for (x, y) in a.params().zip(b.params()) {
        assert_eq!(x.len(), y.len(), "parameter blocks of unequal lengths");
        for (p, q) in x.iter().zip(y) {
            let e = (p - q).abs();
            if e.is_nan() {
                return f64::NAN;
            }
            d = e.max(d);
        }
    }
    d
}

/// Outcome of a fit.
#[derive(Debug, Clone)]
pub struct FitResult<M> {
    /// The fitted model.
    pub model: M,
    /// Log-likelihood of the data under `model`.
    pub log_likelihood: f64,
    /// EM iterations (E-steps) of the winning trajectory.
    pub iterations: usize,
    /// Did the winning trajectory converge before the iteration cap?
    pub converged: bool,
    /// Numerical-guard trips across all restarts and retries (0 on a
    /// clean fit).
    pub guard_trips: usize,
    /// Is this the warm trajectory: did [`fit_warm`]'s prepared seed
    /// survive its guarded attempt? `false` for every cold fit, and for a
    /// warm fit that fell back to the cold schedule.
    pub warm: bool,
    /// Was the fit clipped by an exhausted [`EmBudget`]? A degraded fit
    /// is best-effort: the caller gets a usable model, but it stopped
    /// short of the configured schedule. Always `false` without a
    /// budget.
    pub degraded: bool,
}

/// Relative slack on the likelihood-decrease guard: EM never decreases
/// the likelihood in exact arithmetic, so a drop beyond this (scaled)
/// slack signals numerical divergence, not rounding noise. The slack is
/// wide enough that no healthy fit trips it — tripping re-seeds the
/// restart, which would otherwise perturb bitwise reproducibility.
const LL_DECREASE_SLACK: f64 = 1e-8;

/// Guarded retries per restart. A restart that trips a numerical guard
/// (non-finite likelihood, likelihood decrease beyond numerical noise,
/// non-finite parameters) is retried up to this many times with a
/// deterministically escalated seed (see `attempt_seed`), a pure function
/// of the restart and attempt index, so the fit stays bitwise identical at
/// every thread count. Attempt 0 is the historical seed derivation, so
/// untripped fits are unchanged bit-for-bit.
const GUARD_RETRIES: usize = 2;

/// Weight ε of the uniform floor [`fit_warm`] mixes into the blocks of
/// [`EmModel::warm_floor_mut`]. EM leaves exact zeros there that the next
/// window need not respect: π is γ₁, a point mass on the fitted window's
/// first state, and a state no loss was attributed to keeps loss
/// probability 0, which EM never raises again. The floor must sit well
/// above what the tolerance stop can see: a floored entry that EM starts
/// to raise must move by more than `tol` (1e-4) per step, or the
/// trajectory stops on the floor (DESIGN.md, "Warm-started EM").
const WARM_FLOOR: f64 = 1e-3;

/// Mix the entries of [`EmModel::warm_floor_mut`] with the uniform
/// distribution over their outcomes at weight [`WARM_FLOOR`]: `x ←
/// (1 − ε)·x + ε/S` for an entry over `S` outcomes. π still sums to 1,
/// loss probabilities stay in `[0, 1]`, and every such entry becomes
/// positive.
fn floor_params<M: EmModel>(model: &mut M) {
    for (block, outcomes) in model.warm_floor_mut() {
        let floor = WARM_FLOOR / outcomes as f64;
        for x in block {
            *x = (1.0 - WARM_FLOOR) * *x + floor;
        }
    }
    debug_assert!(model.is_feasible(), "the floor left the simplex");
}

/// Fit by EM with random restarts, returning a typed [`FitError`] instead
/// of panicking or propagating a numerically broken model.
///
/// Without a budget the restarts are independent — each derives its RNG
/// from the seed and its restart index — and run on
/// [`EmOptions::parallelism`] worker threads. The winner is reduced in
/// restart order with a strict best-likelihood comparison (ties keep the
/// lowest restart index, NaN never wins), so the result is bitwise
/// identical at every thread count. With a budget the same restarts run
/// serially over the remaining work. Restarts that trip a numerical guard
/// are retried with a deterministically escalated seed; only if every
/// restart exhausts its retries does the fit fail.
pub fn try_fit<M: EmModel>(
    obs: &[Obs],
    opts: &EmOptions<M::Settings>,
) -> Result<FitResult<M>, FitError> {
    validate(obs, opts)?;
    fit_restarts(obs, opts, None)
}

/// Fit warm-started from a previously fitted model: the seed runs as one
/// guarded attempt ahead of the restart schedule, and is the fit if it
/// survives.
///
/// The seed is `init` with its initial distribution and loss
/// probabilities mixed with the uniform distribution over their outcomes
/// at weight ε = 1e-3 ([`EmModel::warm_floor_mut`]), so neither the old
/// window's first state nor a loss in a state that lost nothing before
/// is impossible. The transitions keep their zeros: a window that takes
/// a transition the seed rules out has likelihood 0 under it, so it left
/// the seed's regime and is fitted by [`try_fit`] without a guard trip,
/// as is an `init` of the wrong dimensions. A seed that survives is the
/// fit, flagged [`FitResult::warm`]. A seed that trips a guard leaves the
/// restarts what it left of any budget, and its trip counts in
/// [`FitResult::guard_trips`], or in the error if no restart survives
/// either. The result is a pure function of
/// `(obs, opts, init)`: the seed draws no random numbers.
pub fn fit_warm<M: EmModel>(
    obs: &[Obs],
    opts: &EmOptions<M::Settings>,
    init: &M,
) -> Result<FitResult<M>, FitError> {
    validate(obs, opts)?;
    let mut seed = None;
    if init.dims() == (opts.num_hidden, opts.num_symbols) {
        dcl_metrics::counter(M::NAMES.warm_starts, 1);
        let mut s = init.clone();
        floor_params(&mut s);
        s.prepare(obs, opts);
        seed = Some(s).filter(|s| s.log_likelihood(obs).is_finite());
    }
    if seed.is_none() {
        // A dimension change, or a window that left the seed's regime:
        // the cold schedule, on the whole budget.
        dcl_metrics::counter(M::NAMES.warm_fallbacks, 1);
    }
    fit_restarts(obs, opts, seed)
}

/// Reject sequences the model cannot fit under `opts`.
fn validate<X>(obs: &[Obs], opts: &EmOptions<X>) -> Result<(), FitError> {
    validate_sequence(obs, opts.num_symbols).map_err(FitError::InvalidSequence)?;
    assert!(opts.num_hidden > 0 && opts.restarts > 0);
    Ok(())
}

/// Work a fit may still spend. Unbudgeted fits run on an unbounded one,
/// which no attempt can exhaust.
struct Remaining {
    iters: usize,
    trips: usize,
    /// Set once the budget stopped the schedule short.
    clipped: bool,
}

impl Remaining {
    fn of(budget: Option<EmBudget>) -> Remaining {
        let (iters, trips) = budget.map_or((usize::MAX, usize::MAX), |b| {
            (b.max_iters.max(1), b.max_guard_trips)
        });
        Remaining {
            iters,
            trips,
            clipped: false,
        }
    }
}

/// The fit schedule and its reduction: the prepared `warm` seed, if any,
/// then, unless it survived, the restarts. A budgeted fit that ends with
/// no survivor returns a deterministic initial-model fallback (flagged
/// degraded) so the caller still gets a verdict; a generous budget
/// reproduces the unbudgeted schedule exactly.
fn fit_restarts<M: EmModel>(
    obs: &[Obs],
    opts: &EmOptions<M::Settings>,
    warm: Option<M>,
) -> Result<FitResult<M>, FitError> {
    let mut left = Remaining::of(opts.budget);
    let warm = warm.map(|seed| guarded_attempt(obs, opts, 0, 0, seed, &mut left));
    // A warm trip counts in the fit's guard trips, not in the restarts'
    // error.
    let warm_trips = usize::from(matches!(warm, Some(None)));
    if warm_trips == 1 {
        // The restarts run on what the seed left of the budget, at least
        // one E-step, and on the trips after its own.
        dcl_metrics::counter(M::NAMES.warm_fallbacks, 1);
        left.iters = left.iters.max(1);
        left.trips = left.trips.saturating_sub(1);
    }
    let candidates = match warm.flatten() {
        Some(fit) => vec![(Some(FitResult { warm: true, ..fit }), 0)],
        None if opts.budget.is_none() => {
            dcl_parallel::par_map_indexed(opts.parallelism, opts.restarts, |r| {
                guarded_restart(obs, opts, r, &mut Remaining::of(None))
            })
        }
        None => {
            // The budget is a sequential resource: serial restarts make
            // the spend schedule, and with it every seed and every event,
            // the same at any thread count.
            (0..opts.restarts)
                .map_while(|r| {
                    left.clipped |= left.iters == 0;
                    (!left.clipped).then(|| guarded_restart(obs, opts, r, &mut left))
                })
                .collect()
        }
    };

    let mut best: Option<FitResult<M>> = None;
    let mut guard_trips = 0usize;
    for (candidate, trips) in candidates {
        guard_trips += trips;
        best = match (best, candidate) {
            (None, c) => c,
            (Some(b), Some(c)) if c.log_likelihood > b.log_likelihood => Some(c),
            (b, _) => b,
        };
    }
    let guard_trips = guard_trips + warm_trips;
    let all_tripped = FitError::AllRestartsTripped {
        restarts: opts.restarts,
        guard_trips,
    };
    match best {
        Some(mut b) => {
            b.guard_trips = guard_trips;
            if left.clipped {
                b.degraded = true;
                dcl_metrics::counter(M::NAMES.budget_clipped, 1);
            }
            Ok(b)
        }
        None if left.clipped => {
            // Best-effort fallback: the deterministic attempt-0 initial
            // model, prepared but unfitted.
            let mut model = M::initial_model(obs, opts, attempt_seed(opts, 0, 0));
            model.prepare(obs, opts);
            let ll = model.log_likelihood(obs);
            if !ll.is_finite() {
                return Err(all_tripped);
            }
            dcl_metrics::counter(M::NAMES.budget_fallbacks, 1);
            Ok(FitResult {
                model,
                log_likelihood: ll,
                iterations: 0,
                converged: false,
                guard_trips,
                warm: false,
                degraded: true,
            })
        }
        None => Err(all_tripped),
    }
}

/// RNG seed of attempt `trips` of restart `r`: attempt 0 is the historical
/// per-restart derivation (`seed + r * 0x9E37`, the stride decorrelating
/// nearby restarts); retries escalate the base to `seed + restarts +
/// trips` before the same stride. A pure function of `(r, trips)`, so no
/// schedule can change a draw.
fn attempt_seed<X>(opts: &EmOptions<X>, r: usize, trips: usize) -> u64 {
    let base = if trips == 0 {
        opts.seed
    } else {
        opts.seed
            .wrapping_add(opts.restarts as u64)
            .wrapping_add(trips as u64)
    };
    base.wrapping_add(r as u64 * 0x9E37)
}

/// Restart `r`: guarded attempts from escalating seeds until one survives
/// or the retries or the budget run out. The survivor and the trips spent.
fn guarded_restart<M: EmModel>(
    obs: &[Obs],
    opts: &EmOptions<M::Settings>,
    r: usize,
    left: &mut Remaining,
) -> (Option<FitResult<M>>, usize) {
    let _span = dcl_metrics::span(M::NAMES.restart_span);
    let mut trips = 0usize;
    loop {
        let mut model = M::initial_model(obs, opts, attempt_seed(opts, r, trips));
        model.prepare(obs, opts);
        if let Some(fit) = guarded_attempt(obs, opts, r, trips + 1, model, left) {
            return (Some(fit), trips);
        }
        trips += 1;
        // Out of trips, or of E-steps with a retry left: the budget clips.
        let clipped = left.trips == 0 || (trips <= GUARD_RETRIES && left.iters == 0);
        left.trips = left.trips.saturating_sub(1);
        if clipped || trips > GUARD_RETRIES {
            left.clipped = clipped;
            return (None, trips);
        }
    }
}

/// One guarded trajectory from `model`, prepared for `obs`, capped by the
/// budget `left` and charged to it: attempt `attempt` (from 1) of restart
/// `r`, or 0 for [`fit_warm`]'s seed (in the warm span). A guard trip
/// records its `em-guard` event and gives `None`.
fn guarded_attempt<M: EmModel>(
    obs: &[Obs],
    opts: &EmOptions<M::Settings>,
    r: usize,
    attempt: usize,
    model: M,
    left: &mut Remaining,
) -> Option<FitResult<M>> {
    let names = M::NAMES;
    let cap = opts.max_iters.min(left.iters);
    let run = {
        let _warm = (attempt == 0).then(|| dcl_metrics::span(names.warm_span));
        let mut trajectory = Trajectory::new(obs, opts, r, model, cap);
        trajectory.advance(cap).and_then(|()| trajectory.finish())
    };
    match run {
        Ok(mut fit) => {
            left.iters = left.iters.saturating_sub(fit.iterations.max(1));
            if !fit.converged && fit.iterations == cap && cap < opts.max_iters {
                // Stopped by the budget, not the configured cap.
                fit.degraded = true;
                left.clipped = true;
            }
            Some(fit)
        }
        Err((reason, spent)) => {
            left.iters = left.iters.saturating_sub(spent.max(1));
            dcl_metrics::counter(names.guard_trips, 1);
            dcl_metrics::obs::record_with(|| dcl_metrics::obs::Event::EmGuard {
                model: names.model.to_string(),
                restart: r,
                attempt,
                reason: match attempt {
                    0 => format!("warm:{reason}"),
                    _ => reason.to_string(),
                },
            });
            None
        }
    }
}

/// A guard trip: the reason and the E-steps the trajectory spent.
type Trip = (&'static str, usize);

/// Most times the SQUAREM step length is halved toward −1 in search of a
/// feasible point before the cycle settles for `θ₂` itself.
const MAX_BACKTRACKS: usize = 10;

/// One guarded EM trajectory from a model prepared for `obs`, its E-step
/// cap fixed when it is built; the restart index `r` only labels events.
///
/// The trajectory runs SqS3 SQUAREM cycles (Varadhan & Roland, Scand. J.
/// Statist. 35, 2008) of three E-steps: two EM steps `θ₁ = F(θ₀)`, `θ₂ =
/// F(θ₁)`; the extrapolated point `θ′ = θ₀ − 2αr + α²v` for `r = θ₁ − θ₀`,
/// `v = θ₂ − 2θ₁ + θ₀` and `α = −‖r‖/‖v‖` (at most −1), backtracked toward
/// −1 until it is feasible (see [`extrapolate`]); and one stabilising step
/// `F(θ′)`, accepted only if the likelihood of `θ′` is at least the best
/// one the trajectory has accepted, else the trajectory goes on from `θ₂`.
/// At `α = −1` the point is `θ₂` itself and the cycle is three plain
/// steps. Only accepted steps pass through the guards: a non-finite
/// likelihood, a likelihood decrease beyond numerical noise, non-finite
/// parameters, and in [`Trajectory::finish`] a non-finite likelihood of
/// the final model. The extrapolation is affine, so it keeps row sums and
/// every exact zero the three iterates share.
struct Trajectory<'a, M: EmModel> {
    obs: &'a [Obs],
    r: usize,
    tol: f64,
    cap: usize,
    /// θ₀, θ₁ (which the candidate θ′ overwrites) and θ₂.
    theta: [M; 3],
    scratch: M::Scratch,
    /// E-steps spent.
    steps: usize,
    /// Log-likelihood of the last accepted step's input model.
    last_ll: f64,
    /// The best log-likelihood of an accepted step's input model.
    best_ll: f64,
    converged: bool,
}

impl<'a, M: EmModel> Trajectory<'a, M> {
    fn new(obs: &'a [Obs], opts: &EmOptions<M::Settings>, r: usize, model: M, cap: usize) -> Self {
        Trajectory {
            obs,
            r,
            tol: opts.tol,
            cap,
            scratch: M::Scratch::default(),
            theta: [model.clone(), model.clone(), model],
            steps: 0,
            last_ll: f64::NEG_INFINITY,
            best_ll: f64::NEG_INFINITY,
            converged: false,
        }
    }

    /// Run SqS3 cycles, or plain steps once fewer than three E-steps are
    /// left before the cap, while fewer than `until` E-steps are spent and
    /// the trajectory has not converged. It stops only between cycles, so
    /// it never passes the cap, and advancing to `k` and then to the cap is
    /// advancing to the cap at once, bit for bit.
    fn advance(&mut self, until: usize) -> Result<(), Trip> {
        while self.steps < until.min(self.cap) && !self.converged {
            if self.cap - self.steps < 3 {
                self.converged = self.plain(0, 1)?;
                self.theta.swap(0, 1);
            } else if self.plain(0, 1)? {
                self.theta.swap(0, 1);
                self.converged = true;
            } else if self.plain(1, 2)? {
                self.theta.swap(0, 2);
                self.converged = true;
            } else if !extrapolate(&mut self.theta) {
                // α = −1: the candidate is θ₂, and the stabilising step a
                // plain one.
                self.converged = self.plain(2, 0)?;
            } else {
                let ll = self.step(1, 0);
                if ll >= self.best_ll {
                    self.converged = self.accept(1, 0, ll)?;
                } else {
                    self.theta.swap(0, 2);
                }
            }
        }
        Ok(())
    }

    /// The final-likelihood guard, then the `em-restart` event and counters.
    fn finish(self) -> Result<FitResult<M>, Trip> {
        let names = M::NAMES;
        let ([model, ..], iterations, converged) = (self.theta, self.steps, self.converged);
        let final_ll = model.log_likelihood(self.obs);
        if !final_ll.is_finite() {
            return Err(("degenerate-posterior", iterations));
        }
        dcl_metrics::obs::record_with(|| dcl_metrics::obs::Event::EmRestart {
            model: names.model.to_string(),
            restart: self.r,
            iterations,
            converged,
            reason: if converged { "tol" } else { "max-iters" }.to_string(),
            log_likelihood: final_ll,
        });
        dcl_metrics::counter(names.restarts, 1);
        dcl_metrics::counter(names.iterations, iterations as u64);
        dcl_metrics::observe(names.iters_per_restart, iterations as u64);
        if converged {
            dcl_metrics::counter(names.converged, 1);
        }
        Ok(FitResult {
            model,
            log_likelihood: final_ll,
            iterations,
            converged,
            guard_trips: 0,
            warm: false,
            degraded: false,
        })
    }

    /// One counted EM step from `theta[from]` into `theta[to]`; the
    /// log-likelihood of `theta[from]`.
    fn step(&mut self, from: usize, to: usize) -> f64 {
        self.steps += 1;
        let (lo, hi) = self.theta.split_at_mut(from.max(to));
        let (from, to) = if from < to {
            (&lo[from], &mut hi[0])
        } else {
            (&hi[0], &mut lo[to])
        };
        from.em_step_into(self.obs, &mut self.scratch, to)
    }

    /// Accept the step from `theta[from]` to `theta[to]`, whose input had
    /// log-likelihood `ll`, through the guards. `Ok(true)` when its
    /// parameter change met the tolerance.
    fn accept(&mut self, from: usize, to: usize, ll: f64) -> Result<bool, Trip> {
        if !ll.is_finite() {
            return Err(("non-finite-likelihood", self.steps));
        }
        if ll < self.last_ll - LL_DECREASE_SLACK * (1.0 + self.last_ll.abs()) {
            return Err(("likelihood-decrease", self.steps));
        }
        let delta = max_param_diff(&self.theta[to], &self.theta[from]);
        if !delta.is_finite() {
            return Err(("non-finite-params", self.steps));
        }
        self.last_ll = ll;
        self.best_ll = self.best_ll.max(ll);
        dcl_metrics::obs::record_with(|| dcl_metrics::obs::Event::EmIteration {
            model: M::NAMES.model.to_string(),
            restart: self.r,
            iteration: self.steps,
            log_likelihood: ll,
            max_param_delta: delta,
        });
        Ok(delta < self.tol)
    }

    /// A plain EM step: a step, then its acceptance.
    fn plain(&mut self, from: usize, to: usize) -> Result<bool, Trip> {
        let ll = self.step(from, to);
        self.accept(from, to, ll)
    }
}

/// Overwrite `t1` with the SqS3 point of `t0`, `t1 = F(t0)` and `t2 =
/// F(t1)`: `t0 − 2αr + α²v` for `r = t1 − t0`, `v = t2 − 2t1 + t0` and `α
/// = −‖r‖/‖v‖`, with `α` halved toward −1 until every entry of the point
/// lies in `[0, 1]`. The point is written only once that `α` is found, and
/// must then pass [`EmModel::is_feasible`] (its row sums). `false` when
/// `α` reaches −1, whose point is `t2` itself, or the written point fails
/// the check; `t1` may then hold either.
fn extrapolate<M: EmModel>([t0, t1, t2]: &mut [M; 3]) -> bool {
    fn point(a: f64, b: f64, c: f64, alpha: f64) -> f64 {
        let r = b - a;
        let v = c - b - r;
        a - 2.0 * alpha * r + alpha * alpha * v
    }
    let (mut rr, mut vv) = (0.0, 0.0);
    for ((a, b), c) in t0.params().zip(t1.params()).zip(t2.params()) {
        for ((&a, &b), &c) in a.iter().zip(b).zip(c) {
            let r = b - a;
            let v = c - b - r;
            rr += r * r;
            vv += v * v;
        }
    }
    if vv == 0.0 {
        return false;
    }
    let mut alpha = -(rr / vv).sqrt();
    let mut halvings = 0;
    loop {
        if alpha >= -1.0 || halvings > MAX_BACKTRACKS {
            return false;
        }
        let blocks = t0.params().zip(t1.params()).zip(t2.params());
        let inside = blocks
            .flat_map(|((a, b), c)| a.iter().zip(b).zip(c))
            .all(|((&a, &b), &c)| (0.0..=1.0).contains(&point(a, b, c, alpha)));
        if inside {
            break;
        }
        alpha = (alpha - 1.0) / 2.0;
        halvings += 1;
    }
    for ((out, a), c) in t1.params_mut().zip(t0.params()).zip(t2.params()) {
        for ((o, &a), &c) in out.iter_mut().zip(a).zip(c) {
            *o = point(a, *o, c, alpha);
        }
    }
    t1.is_feasible()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcl_metrics::obs::Event;

    /// A toy model whose EM step contracts two probabilities toward fixed
    /// targets at different rates, so a SQUAREM cycle does not land on
    /// the fixed point at once, and whose log-likelihood, a weighted sum,
    /// rises as they approach: an extrapolation that overshoots the
    /// heavy one loses likelihood. `fuse` is the number of E-steps the model can take
    /// before its step returns a non-finite likelihood; `None` never
    /// trips.
    #[derive(Clone, Debug, PartialEq)]
    struct Toy {
        p: [f64; 2],
        fuse: Option<usize>,
    }

    const TARGET: [f64; 2] = [0.3, 0.6];
    const RATE: [f64; 2] = [0.5, 0.9];
    const WEIGHT: [f64; 2] = [100.0, 1.0];

    static TOY_NAMES: EmNames = EmNames {
        model: "toy",
        restart_span: "toy.em.restart",
        warm_span: "toy.em.warm",
        restarts: "toy.em.restarts",
        iterations: "toy.em.iterations",
        iters_per_restart: "toy.em.iters_per_restart",
        converged: "toy.em.converged",
        guard_trips: "toy.em.guard_trips",
        budget_clipped: "toy.em.budget_clipped",
        budget_fallbacks: "toy.em.budget_fallbacks",
        warm_starts: "toy.em.warm_starts",
        warm_fallbacks: "toy.em.warm_fallbacks",
    };

    impl EmModel for Toy {
        /// The fuse of the initial model seeded from an RNG seed.
        type Settings = fn(u64) -> Option<usize>;
        type Scratch = ();
        const NAMES: &'static EmNames = &TOY_NAMES;

        fn em_step_into(&self, obs: &[Obs], _: &mut (), out: &mut Toy) -> f64 {
            for i in 0..2 {
                out.p[i] = TARGET[i] + RATE[i] * (self.p[i] - TARGET[i]);
            }
            out.fuse = self.fuse.map(|f| f.saturating_sub(1));
            match self.fuse {
                Some(0) => f64::NAN,
                _ => self.log_likelihood(obs),
            }
        }
        fn initial_model(_: &[Obs], opts: &EmOptions<Self::Settings>, rng_seed: u64) -> Toy {
            Toy {
                p: [
                    0.05 + (rng_seed % 9) as f64 / 10.0,
                    0.95 - (rng_seed % 7) as f64 / 10.0,
                ],
                fuse: (opts.settings)(rng_seed),
            }
        }
        fn prepare(&mut self, _: &[Obs], _: &EmOptions<Self::Settings>) {}
        fn loss_delay_pmf(&self, _: &[Obs]) -> Option<Pmf> {
            None
        }
        fn log_likelihood(&self, _: &[Obs]) -> f64 {
            -(0..2)
                .map(|i| WEIGHT[i] * (self.p[i] - TARGET[i]).powi(2))
                .sum::<f64>()
        }
        fn dims(&self) -> (usize, usize) {
            (1, 1)
        }
        fn params(&self) -> impl Iterator<Item = &[f64]> {
            std::iter::once(&self.p[..])
        }
        fn params_mut(&mut self) -> impl Iterator<Item = &mut [f64]> {
            std::iter::once(&mut self.p[..])
        }
        fn warm_floor_mut(&mut self) -> impl Iterator<Item = (&mut [f64], usize)> {
            std::iter::empty()
        }
        fn is_feasible(&self) -> bool {
            self.p.iter().all(|x| (0.0..=1.0).contains(x))
        }
    }

    const OBS: &[Obs] = &[Obs::Sym(1); 8];

    fn opts(
        seed: u64,
        restarts: usize,
        fuse: fn(u64) -> Option<usize>,
    ) -> EmOptions<fn(u64) -> Option<usize>> {
        EmOptions {
            num_hidden: 1,
            num_symbols: 1,
            tol: 1e-6,
            max_iters: 50,
            seed,
            restarts,
            parallelism: Some(1),
            budget: None,
            settings: fuse,
        }
    }

    fn never(_: u64) -> Option<usize> {
        None
    }

    /// Everything a fit reports, its floats by their bits.
    fn key(fit: &FitResult<Toy>) -> ([u64; 2], u64, usize, bool, usize, bool, bool) {
        (
            fit.model.p.map(f64::to_bits),
            fit.log_likelihood.to_bits(),
            fit.iterations,
            fit.converged,
            fit.guard_trips,
            fit.warm,
            fit.degraded,
        )
    }

    /// The schedule's events, iterations left out, as short labels.
    fn schedule(events: &[Event]) -> Vec<String> {
        events
            .iter()
            .filter_map(|e| match e {
                Event::SpanOpen { name, .. } => Some(format!("open {name}")),
                Event::SpanClose { name, .. } => Some(format!("close {name}")),
                Event::EmGuard {
                    restart,
                    attempt,
                    reason,
                    ..
                } => Some(format!("guard {restart}/{attempt} {reason}")),
                Event::EmRestart {
                    restart, converged, ..
                } => Some(format!("restart {restart} {converged}")),
                _ => None,
            })
            .collect()
    }

    /// The fit of a `cap`-E-step trajectory advanced to each of `stops` in
    /// turn, and its `em-iteration` events.
    fn advanced(cap: usize, tol: f64, stops: &[usize]) -> (FitResult<Toy>, Vec<Event>) {
        let o = EmOptions {
            tol,
            max_iters: cap,
            ..opts(1, 1, never)
        };
        // Far from the light target and near the heavy one, so the first
        // extrapolation overshoots the heavy one and is rejected.
        let model = Toy {
            p: [0.31, 0.95],
            fuse: None,
        };
        let (fit, got) = dcl_metrics::capture(|| {
            let mut trajectory = Trajectory::new(OBS, &o, 0, model, cap);
            for &until in stops {
                trajectory.advance(until).unwrap();
            }
            trajectory.finish().unwrap()
        });
        let iterations = got
            .events
            .into_iter()
            .filter(|e| matches!(e, Event::EmIteration { .. }))
            .collect();
        (fit, iterations)
    }

    #[test]
    fn a_trajectory_advanced_in_two_legs_is_the_one_advanced_once() {
        for tol in [0.0, EmOptions::<()>::default().tol] {
            for cap in 1..=12 {
                let (fit, events) = advanced(cap, tol, &[cap]);
                for k in 1..cap {
                    let (resumed, resumed_events) = advanced(cap, tol, &[k, cap]);
                    let case = format!("tol {tol}, cap {cap}, first leg to {k}");
                    assert_eq!(key(&resumed), key(&fit), "{case}");
                    assert_eq!(resumed_events, events, "{case}");
                }
            }
        }
    }

    #[test]
    fn a_tripped_restart_is_retried_from_the_escalated_seed() {
        // Restart 0's attempt 0 draws seed 10; its retry draws 10 + 1 + 1.
        let o = opts(10, 1, |s| (s == 10).then_some(0));
        let (fit, got) = dcl_metrics::capture(|| try_fit::<Toy>(OBS, &o).unwrap());
        assert_eq!(
            schedule(&got.events),
            [
                "open toy.em.restart",
                "guard 0/1 non-finite-likelihood",
                "restart 0 true",
                "close toy.em.restart",
            ]
        );
        let clean = try_fit::<Toy>(OBS, &opts(12, 1, never)).unwrap();
        assert!(clean.converged);
        assert_eq!(
            key(&fit),
            key(&FitResult {
                guard_trips: 1,
                ..clean
            })
        );
        assert_eq!(got.metrics.counter("toy.em.guard_trips"), 1);
        assert_eq!(got.metrics.counter("toy.em.restarts"), 1);
    }

    #[test]
    fn every_attempt_tripping_fails_the_fit() {
        let o = opts(10, 2, |_| Some(0));
        let (fit, got) = dcl_metrics::capture(|| try_fit::<Toy>(OBS, &o));
        assert_eq!(
            fit.unwrap_err(),
            FitError::AllRestartsTripped {
                restarts: 2,
                guard_trips: 2 * (1 + GUARD_RETRIES),
            }
        );
        assert_eq!(got.metrics.counter("toy.em.guard_trips"), 6);
        assert_eq!(got.metrics.counter("toy.em.restarts"), 0);
    }

    /// A warm seed that trips on its second E-step.
    const TRIPPING_SEED: Toy = Toy {
        p: [0.5, 0.5],
        fuse: Some(1),
    };

    #[test]
    fn a_tripped_warm_seed_falls_back_to_the_cold_schedule() {
        // Restart 0's first attempt trips too; restart 1 is clean.
        let o = opts(20, 2, |s| (s == 20).then_some(0));
        let (fit, got) = dcl_metrics::capture(|| fit_warm::<Toy>(OBS, &o, &TRIPPING_SEED).unwrap());
        let cold = try_fit::<Toy>(OBS, &o).unwrap();
        assert_eq!(cold.guard_trips, 1);
        assert_eq!(
            key(&fit),
            key(&FitResult {
                guard_trips: 2,
                ..cold
            })
        );
        assert_eq!(
            schedule(&got.events),
            [
                "open toy.em.warm",
                "close toy.em.warm",
                "guard 0/0 warm:non-finite-likelihood",
                "open toy.em.restart",
                "guard 0/1 non-finite-likelihood",
                "restart 0 true",
                "close toy.em.restart",
                "open toy.em.restart",
                "restart 1 true",
                "close toy.em.restart",
            ]
        );
        for (name, n) in [
            ("warm_starts", 1),
            ("warm_fallbacks", 1),
            ("guard_trips", 2),
            ("restarts", 2),
        ] {
            assert_eq!(got.metrics.counter(&format!("toy.em.{name}")), n, "{name}");
        }
    }

    #[test]
    fn a_tripped_warm_seed_counts_in_the_error_of_an_all_tripping_schedule() {
        let o = opts(20, 2, |_| Some(0));
        let (fit, got) = dcl_metrics::capture(|| fit_warm::<Toy>(OBS, &o, &TRIPPING_SEED));
        let guard_trips = 1 + 2 * (1 + GUARD_RETRIES);
        assert_eq!(
            fit.unwrap_err(),
            FitError::AllRestartsTripped {
                restarts: 2,
                guard_trips,
            }
        );
        assert_eq!(
            got.metrics.counter("toy.em.guard_trips"),
            guard_trips as u64
        );
    }

    #[test]
    fn a_tripped_warm_seed_leaves_the_cold_schedule_the_rest_of_its_budget() {
        let clean: fn(u64) -> Option<usize> = never;
        let cold_trip: fn(u64) -> Option<usize> = |s| (s == 20).then_some(0);
        for (fuse, max_iters, max_guard_trips, degraded) in [
            // The warm trip spends the one guard trip allowed; the cold
            // schedule still runs unclipped: a warm trip is not refused.
            (clean, 400, 0, false),
            (clean, 400, 1, false),
            // Two E-steps spent leave 4, fewer than the cold restart needs.
            (clean, 6, 4, true),
            // Nothing left: the cold schedule still gets one E-step.
            (clean, 2, 4, true),
            // The cold trip finds no trip left, and nothing survives.
            (cold_trip, 400, 0, true),
            (cold_trip, 400, 1, true),
            (cold_trip, 400, 2, false),
        ] {
            let budget = EmBudget {
                max_iters,
                max_guard_trips,
            };
            let o = EmOptions {
                budget: Some(budget),
                ..opts(20, 2, fuse)
            };
            let case = format!("{budget:?}");
            let (fit, got) =
                dcl_metrics::capture(|| fit_warm::<Toy>(OBS, &o, &TRIPPING_SEED).unwrap());
            // The warm seed's two E-steps and its trip come off the budget.
            let rest = EmOptions {
                budget: Some(EmBudget {
                    max_iters: max_iters - 2,
                    max_guard_trips: max_guard_trips.saturating_sub(1),
                }),
                ..o
            };
            let cold = try_fit::<Toy>(OBS, &rest).unwrap();
            assert_eq!(
                key(&fit),
                key(&FitResult {
                    guard_trips: cold.guard_trips + 1,
                    ..cold
                }),
                "{case}"
            );
            assert_eq!(fit.degraded, degraded, "{case}");
            assert_eq!(
                got.metrics.counter("toy.em.budget_clipped")
                    + got.metrics.counter("toy.em.budget_fallbacks"),
                u64::from(degraded),
                "{case}"
            );
            assert_eq!(
                schedule(&got.events)[2],
                "guard 0/0 warm:non-finite-likelihood",
                "{case}"
            );
        }
    }

    #[test]
    fn a_warm_seed_that_survives_is_the_fit() {
        let seed = Toy {
            p: [0.5, 0.5],
            fuse: None,
        };
        for budget in [
            None,
            Some(EmBudget {
                max_iters: 3,
                max_guard_trips: 0,
            }),
        ] {
            let o = EmOptions {
                budget,
                ..opts(20, 2, never)
            };
            let (fit, got) = dcl_metrics::capture(|| fit_warm::<Toy>(OBS, &o, &seed).unwrap());
            assert!(fit.warm, "{budget:?}");
            assert_eq!(fit.guard_trips, 0);
            assert_eq!(fit.degraded, budget.is_some(), "{budget:?}");
            assert_eq!(
                got.metrics.counter("toy.em.budget_clipped"),
                u64::from(budget.is_some())
            );
            assert_eq!(got.metrics.counter("toy.em.restarts"), 1);
            assert_eq!(got.metrics.counter("toy.em.warm_fallbacks"), 0);
        }
    }
}
