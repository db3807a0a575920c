//! Scaled forward–backward recursion, generic over the state space.
//!
//! Both EM algorithms of the paper (HMM, Appendix B's MMHD) reduce to the
//! same machinery once the per-step emission likelihoods are in hand: a
//! forward pass, a backward pass, per-step rescaling, and the resulting
//! smoothed posteriors. This module implements that machinery once, with
//! the textbook per-step normalisation (Rabiner's scaling), accumulating
//! the exact log-likelihood from the scale factors.
//!
//! The recursion runs on *active sets*. The support of step `t` is the set
//! of states whose emission likelihood of the step's observation is not
//! zero; [`Emissions`] stores exactly those entries. An MMHD state is a
//! (hidden component, delay symbol) pair and a delivered probe pins the
//! symbol, so only `N` of the `N·M` states can emit it. The active set of
//! step `t` is its support: `alpha_t` is zero off it, so alpha and beta are
//! stored on it alone, one compact row per step. A step that no state
//! explains makes the observations impossible under the model: the run
//! stops there with log-likelihood `-inf` and has no posteriors. The
//! forward pass scans the previous support, `beta_t` is computed only on
//! step `t`'s, [`ForwardBackward::gamma_into`] writes only there and
//! [`ForwardBackward::add_transitions`] pairs it with the next support, so
//! a step costs `O(|support(t)| · |support(t+1)|)`. Every skipped term is
//! an exact `+0.0` and the surviving terms are summed in the dense index
//! order, so alpha, the scales, the likelihood, gamma, and beta wherever
//! alpha is not zero are bitwise those of the dense recursion (pinned by
//! the dense oracle in the property tests). HMM emission rows are dense,
//! so the HMM runs the same code with full supports.

// Index-based loops are deliberate in the numeric kernels below: the
// indices couple several arrays at once and mirror the papers' notation.
#![allow(clippy::needless_range_loop)]

use crate::matrix::Matrix;
use crate::obs::Obs;

/// Per-step emission likelihoods as shared sparse rows. A row is a support
/// (the states, ascending, whose likelihood of an observation is not zero)
/// and those likelihoods; each step names the row of its observation, so a
/// model whose likelihoods depend only on the observed value writes one row
/// per value and `T` row ids, not `T` rows.
///
/// A model writes a row entry by entry with [`Emissions::push`], which
/// drops zero likelihoods, closes it with [`Emissions::end_row`], and
/// appends steps with [`Emissions::step`] (or [`Emissions::observe`]);
/// [`Emissions::reset`] starts a new table in the same buffers, so an EM
/// loop allocates once.
#[derive(Debug, Clone)]
pub struct Emissions {
    states: usize,
    index: Vec<u32>,
    value: Vec<f64>,
    /// Row `r` is `index[start[r]..start[r + 1]]`; entries past the last
    /// start belong to the row being written.
    start: Vec<usize>,
    /// Step `t` uses the row at `index[span.0..span.1]`, `span = spans[t]`.
    spans: Vec<(usize, usize)>,
}

impl Emissions {
    /// An empty table over `states` states.
    pub fn new(states: usize) -> Emissions {
        Emissions {
            states,
            index: Vec::new(),
            value: Vec::new(),
            start: vec![0],
            spans: Vec::new(),
        }
    }

    /// Drop every row and step and start a table over `states` states,
    /// keeping the buffers.
    pub fn reset(&mut self, states: usize) {
        self.states = states;
        self.index.clear();
        self.value.clear();
        self.start.clear();
        self.start.push(0);
        self.spans.clear();
    }

    /// Append likelihood `v` of state `j` to the row being written. States
    /// come in ascending order; a zero `v` is not stored. Panics on a state
    /// out of range or out of order.
    pub fn push(&mut self, j: usize, v: f64) {
        assert!(j < self.states, "state {j} out of range");
        assert!(
            self.index.len() == self.start[self.start.len() - 1]
                || (self.index[self.index.len() - 1] as usize) < j,
            "states must be pushed in ascending order"
        );
        if v != 0.0 {
            self.index.push(j as u32);
            self.value.push(v);
        }
    }

    /// Close the row being written and return its id, for
    /// [`Emissions::step`]. Ids count up from zero in writing order.
    pub fn end_row(&mut self) -> usize {
        self.start.push(self.index.len());
        self.start.len() - 2
    }

    /// Append a step whose likelihoods are closed row `row`. Panics on an
    /// id no row has.
    pub fn step(&mut self, row: usize) {
        assert!(row < self.start.len() - 1, "row {row} is not a closed row");
        self.spans.push((self.start[row], self.start[row + 1]));
    }

    /// Append one step per observation, for a table whose rows were written
    /// in the alphabet's order: row `m - 1` for a delivered `Obs::Sym(m)`,
    /// and the last closed row, `M`, for a loss. Panics on a symbol outside
    /// `1..=M`.
    pub fn observe(&mut self, obs: &[Obs]) {
        let loss = self
            .start
            .len()
            .checked_sub(2)
            .expect("the alphabet's rows are written before its steps");
        for &o in obs {
            let row = match o {
                Obs::Sym(m) => {
                    assert!(
                        (1..=loss).contains(&usize::from(m)),
                        "symbol {m} outside 1..={loss}"
                    );
                    usize::from(m) - 1
                }
                Obs::Loss => loss,
            };
            self.step(row);
        }
    }

    /// Number of steps.
    pub fn steps(&self) -> usize {
        self.spans.len()
    }

    /// Number of states `S`.
    pub fn states(&self) -> usize {
        self.states
    }

    /// The support of step `t`: its states, ascending.
    pub fn support(&self, t: usize) -> &[u32] {
        let (a, b) = self.spans[t];
        &self.index[a..b]
    }

    /// The likelihoods of step `t`, aligned with [`Emissions::support`].
    pub fn values(&self, t: usize) -> &[f64] {
        let (a, b) = self.spans[t];
        &self.value[a..b]
    }
}

/// Output of the scaled forward–backward recursion over `T` steps and `S`
/// states.
///
/// Alpha and beta are stored on the supports only: row `t` of each holds
/// one entry per state of the support of step `t` in the run's emissions,
/// in that order, and both are zero off it. The models read them only
/// through [`ForwardBackward::gamma_into`] and
/// [`ForwardBackward::add_transitions`]; the row accessors serve the
/// dense-recursion test oracles. A run whose likelihood is not finite
/// stopped at its first impossible step and has no posteriors.
#[derive(Debug, Clone)]
pub struct ForwardBackward {
    /// Scaled forward variables, flat; row `t` sums to one.
    alpha: Vec<f64>,
    /// Scaled backward variables, flat, scaled with the forward factors.
    /// Only the support of step `t` is computed: `beta_t(j)` only ever
    /// multiplies `alpha_t(j)`, which is zero off it.
    beta: Vec<f64>,
    /// Row `t` of `alpha` and `beta` is `offset[t]..offset[t + 1]`.
    offset: Vec<usize>,
    /// Per-step scale factors (the inverse row sums of the unscaled alpha).
    pub scales: Vec<f64>,
    /// Log-likelihood of the observation sequence.
    pub log_likelihood: f64,
    /// Every state, ascending.
    all: Vec<u32>,
    /// The backward pass's `beta_{t+1} * e_{t+1}` over the support of step
    /// `t + 1`, reused from step to step and run to run.
    weighted: Vec<f64>,
}

impl ForwardBackward {
    /// An empty recursion output, usable as a reusable scratch target for
    /// [`ForwardBackward::run_into`]. Querying it before a run is a shape
    /// error on the caller's part.
    pub fn empty() -> ForwardBackward {
        ForwardBackward {
            alpha: Vec::new(),
            beta: Vec::new(),
            offset: Vec::new(),
            scales: Vec::new(),
            log_likelihood: 0.0,
            all: Vec::new(),
            weighted: Vec::new(),
        }
    }

    /// Run the recursion.
    ///
    /// * `init` — initial distribution (length `S`);
    /// * `trans` — row-stochastic transition matrix (`S x S`);
    /// * `emis` — emission likelihood of each step's observation in each
    ///   state of the step's support (entries need not be normalised over
    ///   states).
    ///
    /// Panics on shape mismatches or an empty sequence. If some step makes
    /// every state impossible (all-zero forward row after the emissions),
    /// the run stops there and its log-likelihood is `-inf`: the model
    /// rules the observations out, and the run has no posteriors
    /// ([`ForwardBackward::gamma_into`] and
    /// [`ForwardBackward::add_transitions`] panic on it).
    pub fn run(init: &[f64], trans: &Matrix, emis: &Emissions) -> ForwardBackward {
        let mut fb = ForwardBackward::empty();
        fb.run_into(init, trans, emis);
        fb
    }

    /// [`ForwardBackward::run`] writing into `self`, reusing its buffers.
    ///
    /// The hot EM loops call the recursion once per iteration; recomputing
    /// in place removes the dominant allocation from every `em_step`. Every
    /// row of `alpha` and `beta` is laid out afresh from the run's supports
    /// and every scale is overwritten, so the results are bitwise identical
    /// to a fresh [`ForwardBackward::run`] — a property the determinism
    /// suite pins down.
    pub fn run_into(&mut self, init: &[f64], trans: &Matrix, emis: &Emissions) {
        let s = init.len();
        let t_len = emis.steps();
        check_shapes(s, trans, emis);
        self.all.clear();
        self.all.extend(0..s as u32);
        let ForwardBackward {
            alpha,
            beta,
            offset,
            scales,
            log_likelihood,
            weighted,
            ..
        } = self;
        let sup = |t: usize| emis.support(t);

        // Forward: row t is appended at offset[t].
        alpha.clear();
        offset.clear();
        offset.push(0);
        scales.clear();
        *log_likelihood = 0.0;
        for t in 0..t_len {
            let start = alpha.len();
            alpha.resize(start + sup(t).len(), 0.0);
            let (head, cur) = alpha.split_at_mut(start);
            let prev = (t > 0).then(|| (&head[offset[t - 1]..], sup(t - 1)));
            let Some((inv, ln_sum)) = forward_row(prev, init, trans, sup(t), emis.values(t), cur)
            else {
                *log_likelihood = f64::NEG_INFINITY;
                return;
            };
            scales.push(inv);
            *log_likelihood += ln_sum;
            offset.push(alpha.len());
        }

        // Backward, scaled by the forward factors so that
        // gamma_t(j) ~ alpha_t(j) * beta_t(j) without further normalisation
        // beyond a per-row sum. Only the entries of the support of step t
        // are computed, each a dot product of its transition row with the
        // weighted beta_{t+1} over the support of step t + 1, ascending, so
        // every entry takes its terms in the dense sum's order. The last row
        // is one; every other row is overwritten.
        beta.clear();
        beta.resize(alpha.len(), 1.0);
        for t in (0..t_len - 1).rev() {
            let (head, next) = beta.split_at_mut(offset[t + 1]);
            let next_sup = sup(t + 1);
            weighted.clear();
            weighted.extend(next.iter().zip(emis.values(t + 1)).map(|(b, &e)| b * e));
            let row = &mut head[offset[t]..];
            let scale = scales[t + 1];
            for (r, &i) in row.iter_mut().zip(sup(t)) {
                let arow = trans.row(i as usize);
                let mut acc = 0.0;
                for (&j, &w) in next_sup.iter().zip(&*weighted) {
                    acc += arow[j as usize] * w;
                }
                *r = acc * scale;
            }
        }
    }

    /// Log-likelihood of the observations alone: the forward pass of
    /// [`ForwardBackward::run`] over two rolling rows, with no `alpha` or
    /// `beta` table. Bitwise equal to `run(init, trans, emis).log_likelihood`.
    pub fn log_likelihood_of(init: &[f64], trans: &Matrix, emis: &Emissions) -> f64 {
        let s = init.len();
        check_shapes(s, trans, emis);
        let mut prev = Vec::with_capacity(s);
        let mut cur = Vec::with_capacity(s);
        let mut log_likelihood = 0.0;
        for t in 0..emis.steps() {
            let sup = emis.support(t);
            cur.clear();
            cur.resize(sup.len(), 0.0);
            let prev_row = (t > 0).then(|| (&prev[..], emis.support(t - 1)));
            match forward_row(prev_row, init, trans, sup, emis.values(t), &mut cur) {
                Some((_, ln_sum)) => log_likelihood += ln_sum,
                None => return f64::NEG_INFINITY,
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        log_likelihood
    }

    /// Add the expected transition counts of the last run to `counts`
    /// (`S x S`): `counts(i, j) += sum_t xi_t(i, j)`, where
    /// `xi_t(i, j) = P(s_t = i, s_{t+1} = j | obs)` is proportional to
    /// `alpha_t(i) a(i, j) e_{t+1}(j) beta_{t+1}(j)`; `emis` and `trans` are
    /// the run's. Panics when the run's likelihood is not finite.
    ///
    /// A term is zero unless `alpha_t(i)` is not (so `i` is in the support
    /// of step `t`) and `j` is in the support of step `t + 1`, so a step
    /// costs `O(|support(t)| · |support(t+1)|)` and no `S x S` table is
    /// built. The step's norm is summed over those terms first; each term
    /// is then recomputed (same expression, same order) and added divided
    /// by it. A step whose norm is zero adds nothing.
    ///
    /// `term(alpha_t(i) a(i, j), e_{t+1}(j), beta_{t+1}(j))` is the
    /// unnormalised term. The caller writes the product so that each model
    /// keeps its own association, and with it its pinned bits.
    pub fn add_transitions(
        &self,
        emis: &Emissions,
        trans: &Matrix,
        counts: &mut Matrix,
        term: impl Fn(f64, f64, f64) -> f64,
    ) {
        self.assert_posteriors();
        let s = self.all.len();
        assert_eq!((counts.rows(), counts.cols()), (s, s), "counts shape");
        for t in 1..self.len() {
            let active = emis.support(t - 1);
            let a_row = self.alpha_row(t - 1);
            let (sup, e, b) = (emis.support(t), emis.values(t), self.beta_row(t));
            let mut norm = 0.0;
            for (&i, &ai) in active.iter().zip(a_row) {
                if ai == 0.0 {
                    continue;
                }
                let arow = trans.row(i as usize);
                for ((&j, &ej), &bj) in sup.iter().zip(e).zip(b) {
                    norm += term(ai * arow[j as usize], ej, bj);
                }
            }
            if norm > 0.0 {
                let inv = 1.0 / norm;
                for (&i, &ai) in active.iter().zip(a_row) {
                    if ai == 0.0 {
                        continue;
                    }
                    let arow = trans.row(i as usize);
                    let crow = counts.row_mut(i as usize);
                    for ((&j, &ej), &bj) in sup.iter().zip(e).zip(b) {
                        crow[j as usize] += term(ai * arow[j as usize], ej, bj) * inv;
                    }
                }
            }
        }
    }

    /// The scaled forward variables of step `t`, aligned with the support
    /// of step `t` in the run's emissions.
    pub fn alpha_row(&self, t: usize) -> &[f64] {
        &self.alpha[self.offset[t]..self.offset[t + 1]]
    }

    /// The scaled backward variables of step `t`, aligned with the support
    /// of step `t` in the run's emissions.
    pub fn beta_row(&self, t: usize) -> &[f64] {
        &self.beta[self.offset[t]..self.offset[t + 1]]
    }

    /// Smoothed state posterior at step `t` (normalised product of the
    /// scaled alpha and beta rows), dense over all `S` states; `emis` are
    /// the emissions of the last run.
    pub fn gamma(&self, emis: &Emissions, t: usize) -> Vec<f64> {
        let mut g = vec![0.0; self.all.len()];
        self.gamma_into(emis, t, &mut g);
        g
    }

    /// [`ForwardBackward::gamma`] into a caller-provided buffer of length
    /// `S`, for loops that query the posterior at every step. Returns the
    /// states it wrote: the support of step `t`, or every state when the
    /// product's row sum is not positive and finite and the posterior
    /// falls back to uniform, as [`crate::stochastic::normalize`] does. The
    /// posterior is zero off the returned states, where `out` is left as it
    /// was. Panics when the run's likelihood is not finite.
    pub fn gamma_into<'a>(&'a self, emis: &'a Emissions, t: usize, out: &mut [f64]) -> &'a [u32] {
        self.assert_posteriors();
        assert_eq!(out.len(), self.all.len(), "gamma buffer length");
        let active = emis.support(t);
        for ((&j, &a), &b) in active.iter().zip(self.alpha_row(t)).zip(self.beta_row(t)) {
            out[j as usize] = a * b;
        }
        if normalize_on(out, active) {
            active
        } else {
            out.fill(1.0 / out.len() as f64);
            &self.all
        }
    }

    /// Number of steps the last run recursed over: all of them, or those
    /// before its first impossible step.
    pub fn len(&self) -> usize {
        self.scales.len()
    }

    /// Did the last run recurse over no step (true only when its first
    /// step is impossible: construction rejects empty sequences)?
    pub fn is_empty(&self) -> bool {
        self.scales.is_empty()
    }

    /// Posteriors exist only for a run that reached its last step.
    fn assert_posteriors(&self) {
        assert!(
            self.log_likelihood.is_finite(),
            "no posteriors: the last run's likelihood is not finite"
        );
    }
}

fn check_shapes(s: usize, trans: &Matrix, emis: &Emissions) {
    assert!(emis.steps() > 0, "empty observation sequence");
    assert_eq!(trans.rows(), s);
    assert_eq!(trans.cols(), s);
    assert_eq!(emis.states(), s);
}

/// [`crate::stochastic::normalize`] of a vector that is zero off the
/// entries `idx`: the same finite-entry sum (the zeros add nothing) and the
/// same quotients, computed only on `idx`. Returns `false`, leaving `v`
/// untouched, when that sum is not positive and finite — where `normalize`
/// falls back to uniform.
fn normalize_on(v: &mut [f64], idx: &[u32]) -> bool {
    let sum: f64 = idx
        .iter()
        .map(|&j| v[j as usize])
        .filter(|x| x.is_finite())
        .sum();
    if !(sum > 0.0 && sum.is_finite()) {
        return false;
    }
    for &j in idx {
        let x = &mut v[j as usize];
        if !x.is_finite() {
            *x = 0.0;
        }
        *x /= sum;
    }
    true
}

/// One scaled forward step into `cur`, aligned with `sup` (the support of
/// step `t`, with likelihoods `e`) and holding zeros:
/// `alpha_0(j) = init(j) e_0(j)` when `prev` is `None`, else
/// `alpha_t(j) = sum_i alpha_{t-1}(i) a(i,j) * e_t(j)`, then normalised.
/// `prev` carries the previous row and its support, aligned with it, so
/// the cost is `O(|support(t-1)| · |support(t)|)`.
///
/// Returns the scale factor and the log of the row sum, or `None` when no
/// state explains the observation: the row sum is not positive and finite.
fn forward_row(
    prev: Option<(&[f64], &[u32])>,
    init: &[f64],
    trans: &Matrix,
    sup: &[u32],
    e: &[f64],
    cur: &mut [f64],
) -> Option<(f64, f64)> {
    match prev {
        None => {
            for ((c, &j), &ej) in cur.iter_mut().zip(sup).zip(e) {
                *c = init[j as usize] * ej;
            }
        }
        Some((prev, active)) => {
            for (&i, &ai) in active.iter().zip(prev) {
                if ai == 0.0 {
                    continue;
                }
                let arow = trans.row(i as usize);
                for (c, &j) in cur.iter_mut().zip(sup) {
                    *c += ai * arow[j as usize];
                }
            }
            for (c, &ej) in cur.iter_mut().zip(e) {
                *c *= ej;
            }
        }
    }
    let sum = cur.iter().fold(0.0, |acc, &x| acc + x);
    if sum > 0.0 && sum.is_finite() {
        let inv = 1.0 / sum;
        for c in cur.iter_mut() {
            *c *= inv;
        }
        Some((inv, sum.ln()))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sparse rows of a dense emission table, one row per step.
    fn csr(emis: &Matrix) -> Emissions {
        let mut e = Emissions::new(emis.cols());
        for t in 0..emis.rows() {
            for (j, &v) in emis.row(t).iter().enumerate() {
                e.push(j, v);
            }
            let row = e.end_row();
            e.step(row);
        }
        e
    }

    /// A 2-state chain with distinct emissions; hand-checkable numbers.
    fn toy() -> (Vec<f64>, Matrix, Matrix) {
        let init = vec![0.6, 0.4];
        let trans = Matrix::from_vec(2, 2, vec![0.7, 0.3, 0.4, 0.6]);
        // Three steps, emission likelihood of the observed symbol per state.
        let emis = Matrix::from_vec(3, 2, vec![0.9, 0.2, 0.1, 0.8, 0.9, 0.2]);
        (init, trans, emis)
    }

    /// Call `f` with every state path over the steps of `emis` and its
    /// (unscaled) probability.
    fn for_each_path(
        init: &[f64],
        trans: &Matrix,
        emis: &Matrix,
        mut f: impl FnMut(&[usize], f64),
    ) {
        let s = init.len();
        let t_len = emis.rows();
        let mut path = vec![0usize; t_len];
        loop {
            let mut p = init[path[0]] * emis.get(0, path[0]);
            for t in 1..t_len {
                p *= trans.get(path[t - 1], path[t]) * emis.get(t, path[t]);
            }
            f(&path, p);
            // Increment the path odometer.
            let mut t = 0;
            loop {
                path[t] += 1;
                if path[t] < s {
                    break;
                }
                path[t] = 0;
                t += 1;
                if t == t_len {
                    return;
                }
            }
        }
    }

    /// Direct (unscaled) likelihood by brute-force path enumeration.
    fn brute_force_likelihood(init: &[f64], trans: &Matrix, emis: &Matrix) -> f64 {
        let mut total = 0.0;
        for_each_path(init, trans, emis, |_, p| total += p);
        total
    }

    /// `sum_t P(s_t = i, s_{t+1} = j | obs)` by brute-force path
    /// enumeration.
    fn brute_force_transitions(init: &[f64], trans: &Matrix, emis: &Matrix) -> Matrix {
        let s = init.len();
        let mut counts = Matrix::zeros(s, s);
        let mut total = 0.0;
        for_each_path(init, trans, emis, |path, p| {
            total += p;
            for w in path.windows(2) {
                counts.set(w[0], w[1], counts.get(w[0], w[1]) + p);
            }
        });
        for x in counts.as_mut_slice() {
            *x /= total;
        }
        counts
    }

    /// Both models' associations of the transition term.
    const TERMS: [fn(f64, f64, f64) -> f64; 2] = [|x, e, b| x * e * b, |x, e, b| x * (e * b)];

    /// [`ForwardBackward::add_transitions`] over a fresh `S x S` table.
    fn transitions(
        fb: &ForwardBackward,
        emis: &Emissions,
        trans: &Matrix,
        term: fn(f64, f64, f64) -> f64,
    ) -> Matrix {
        let mut counts = Matrix::zeros(trans.rows(), trans.rows());
        fb.add_transitions(emis, trans, &mut counts, term);
        counts
    }

    fn assert_close(got: &Matrix, want: &Matrix) {
        for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
            assert!((g - w).abs() < 1e-12, "{got:?} vs {want:?}");
        }
    }

    #[test]
    fn log_likelihood_matches_brute_force() {
        let (init, trans, emis) = toy();
        let fb = ForwardBackward::run(&init, &trans, &csr(&emis));
        let direct = brute_force_likelihood(&init, &trans, &emis);
        assert!((fb.log_likelihood - direct.ln()).abs() < 1e-10);
    }

    #[test]
    fn gammas_are_distributions() {
        let (init, trans, emis) = toy();
        let rows = csr(&emis);
        let fb = ForwardBackward::run(&init, &trans, &rows);
        for t in 0..fb.len() {
            let g = fb.gamma(&rows, t);
            assert!(crate::stochastic::is_distribution(&g), "t={t}: {g:?}");
        }
    }

    #[test]
    fn gamma_matches_brute_force_posterior() {
        let (init, trans, emis) = toy();
        let rows = csr(&emis);
        let fb = ForwardBackward::run(&init, &trans, &rows);
        // Posterior of state 0 at t=1 by enumeration.
        let s = 2;
        let mut num = 0.0;
        let mut den = 0.0;
        for s0 in 0..s {
            for s1 in 0..s {
                for s2 in 0..s {
                    let p = init[s0]
                        * emis.get(0, s0)
                        * trans.get(s0, s1)
                        * emis.get(1, s1)
                        * trans.get(s1, s2)
                        * emis.get(2, s2);
                    den += p;
                    if s1 == 0 {
                        num += p;
                    }
                }
            }
        }
        let g = fb.gamma(&rows, 1);
        assert!((g[0] - num / den).abs() < 1e-10);
    }

    #[test]
    fn transitions_match_brute_force() {
        let (init, trans, emis) = toy();
        let rows = csr(&emis);
        let want = brute_force_transitions(&init, &trans, &emis);
        let fb = ForwardBackward::run(&init, &trans, &rows);
        for term in TERMS {
            assert_close(&transitions(&fb, &rows, &trans, term), &want);
        }
    }

    /// Every row, scale and the likelihood of a run, as bits.
    fn bits(fb: &ForwardBackward) -> Vec<u64> {
        let rows = (0..fb.len()).flat_map(|t| fb.alpha_row(t).iter().chain(fb.beta_row(t)));
        rows.chain(&fb.scales)
            .chain([&fb.log_likelihood])
            .map(|x| x.to_bits())
            .collect()
    }

    /// Step 1 is impossible from step 0 (state 0 cannot leave and only
    /// state 1 emits), so the run stops there with likelihood `-inf`, as
    /// does the forward pass alone. A shorter finite run into the same
    /// buffers afterwards lays every row out afresh.
    #[test]
    fn an_impossible_step_ends_the_run() {
        let init = vec![0.6, 0.4];
        let trans = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.3, 0.7]);
        let emis = Matrix::from_vec(4, 2, vec![0.9, 0.0, 0.0, 0.8, 0.9, 0.2, 0.1, 0.8]);
        let rows = csr(&emis);
        let mut fb = ForwardBackward::empty();
        fb.run_into(&init, &trans, &rows);
        assert_eq!(fb.log_likelihood, f64::NEG_INFINITY);
        assert_eq!(
            ForwardBackward::log_likelihood_of(&init, &trans, &rows),
            f64::NEG_INFINITY
        );

        let (init, trans, emis) = toy();
        let rows = csr(&emis);
        fb.run_into(&init, &trans, &rows);
        let fresh = ForwardBackward::run(&init, &trans, &rows);
        assert_eq!(bits(&fb), bits(&fresh));
        for term in TERMS {
            assert_eq!(
                transitions(&fb, &rows, &trans, term).as_slice(),
                transitions(&fresh, &rows, &trans, term).as_slice()
            );
        }
    }

    #[test]
    #[should_panic(expected = "no posteriors")]
    fn an_impossible_run_has_no_posteriors() {
        let init = vec![1.0, 0.0];
        let trans = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        let emis = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        let rows = csr(&emis);
        ForwardBackward::run(&init, &trans, &rows).gamma(&rows, 0);
    }

    #[test]
    fn long_sequences_do_not_underflow() {
        let init = vec![0.5, 0.5];
        let trans = Matrix::from_vec(2, 2, vec![0.9, 0.1, 0.1, 0.9]);
        let t_len = 20_000;
        let mut emis = Matrix::zeros(t_len, 2);
        for t in 0..t_len {
            emis.set(t, 0, 0.3);
            emis.set(t, 1, 0.05);
        }
        let rows = csr(&emis);
        let fb = ForwardBackward::run(&init, &trans, &rows);
        assert!(fb.log_likelihood.is_finite());
        assert!(fb.log_likelihood < 0.0);
        let g = fb.gamma(&rows, t_len / 2);
        assert!(g[0] > 0.9, "state 0 should dominate: {g:?}");
    }

    #[test]
    fn impossible_observation_saturates_likelihood() {
        let init = vec![1.0, 0.0];
        let trans = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        let emis = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 0.0]);
        let fb = ForwardBackward::run(&init, &trans, &csr(&emis));
        assert_eq!(fb.log_likelihood, f64::NEG_INFINITY);
    }

    /// Steps name shared rows; `observe` maps the alphabet onto them.
    #[test]
    fn steps_share_rows() {
        let mut e = Emissions::new(3);
        e.push(0, 0.5);
        assert_eq!(e.end_row(), 0);
        e.push(1, 0.0);
        e.push(2, 0.25);
        assert_eq!(e.end_row(), 1);
        e.observe(&[Obs::Loss, Obs::Sym(1), Obs::Loss]);
        e.step(0);
        assert_eq!(e.steps(), 4);
        assert_eq!(e.support(0), &[2]);
        assert_eq!(e.values(2), &[0.25]);
        assert_eq!(e.support(1), e.support(3));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn push_rejects_a_state_out_of_range() {
        Emissions::new(2).push(2, 0.5);
    }

    #[test]
    #[should_panic(expected = "ascending order")]
    fn push_rejects_states_out_of_order() {
        let mut e = Emissions::new(3);
        e.push(1, 0.5);
        e.push(0, 0.5);
    }

    #[test]
    #[should_panic(expected = "not a closed row")]
    fn step_rejects_an_unknown_row() {
        let mut e = Emissions::new(2);
        e.push(0, 0.5);
        e.end_row();
        e.push(1, 0.5);
        e.step(1);
    }

    #[test]
    #[should_panic(expected = "outside 1..=1")]
    fn observe_rejects_a_symbol_outside_the_alphabet() {
        let mut e = Emissions::new(2);
        e.push(0, 0.5);
        e.end_row();
        e.push(1, 0.5);
        e.end_row();
        e.observe(&[Obs::Sym(2)]);
    }
}
