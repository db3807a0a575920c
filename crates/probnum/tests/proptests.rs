//! Property-based tests for the probability primitives.

use dcl_probnum::{stochastic, Cdf, Emissions, ForwardBackward, Matrix, Pmf};
use proptest::prelude::*;

fn mass_vec() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..100.0, 1..20)
        .prop_filter("some mass", |v| v.iter().sum::<f64>() > 1e-9)
}

fn pmf() -> impl Strategy<Value = Pmf> {
    mass_vec().prop_map(Pmf::from_mass)
}

proptest! {
    #[test]
    fn normalized_vectors_are_distributions(v in mass_vec()) {
        let n = stochastic::normalized(&v);
        prop_assert!(stochastic::is_distribution(&n));
    }

    #[test]
    fn pmf_mass_sums_to_one(p in pmf()) {
        let sum: f64 = p.mass().iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one(p in pmf()) {
        let f = p.cdf();
        let m = f.num_symbols();
        let mut prev = 0.0;
        for d in 1..=m {
            let v = f.value(d);
            prop_assert!(v + 1e-12 >= prev, "CDF must be non-decreasing");
            prev = v;
        }
        prop_assert!((f.value(m) - 1.0).abs() < 1e-12);
        prop_assert_eq!(f.value(m + 7), 1.0);
    }

    #[test]
    fn min_support_above_is_consistent(p in pmf(), thr in 0.0f64..0.999) {
        let f = p.cdf();
        match f.min_support_above(thr) {
            Some(d) => {
                prop_assert!(f.value(d) > thr);
                prop_assert!(d == 1 || f.value(d - 1) <= thr);
            }
            None => prop_assert!(f.value(f.num_symbols()) <= thr),
        }
    }

    #[test]
    fn total_variation_is_a_metric_within_bounds(a in pmf()) {
        prop_assert!(a.total_variation(&a) < 1e-12);
        let m = a.num_symbols();
        let b = Pmf::point(m, 1);
        let tv = a.total_variation(&b);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&tv));
    }

    #[test]
    fn connected_components_partition_the_thresholded_support(
        p in pmf(),
        floor in 0.0f64..0.2,
    ) {
        let comps = p.connected_components(floor);
        // Components are disjoint, ordered, and cover exactly the bins
        // above the floor.
        let mut covered = vec![false; p.num_symbols()];
        let mut last_end = 0usize;
        for (a, b, mass) in &comps {
            prop_assert!(*a >= 1 && *b <= p.num_symbols() && a <= b);
            prop_assert!(*a > last_end, "components must be ordered/disjoint");
            last_end = *b;
            let expect: f64 = (*a..=*b).map(|i| p.prob(i)).sum();
            prop_assert!((mass - expect).abs() < 1e-9);
            for i in *a..=*b {
                covered[i - 1] = true;
                prop_assert!(p.prob(i) > floor);
            }
        }
        for i in 1..=p.num_symbols() {
            if !covered[i - 1] {
                prop_assert!(p.prob(i) <= floor);
            }
        }
    }

    #[test]
    fn sample_index_is_in_range(v in mass_vec(), seed in any::<u64>()) {
        use rand::SeedableRng;
        let p = stochastic::normalized(&v);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let i = stochastic::sample_index(&mut rng, &p);
        prop_assert!(i < p.len());
    }
}

/// The sparse rows of a dense emission table, one row per step.
fn csr(emis: &Matrix) -> Emissions {
    let steps: Vec<usize> = (0..emis.rows()).collect();
    shared(emis, &steps)
}

/// The sparse rows of `table`, shared by the steps: step `t` names row
/// `row_of[t]`.
fn shared(table: &Matrix, row_of: &[usize]) -> Emissions {
    let mut e = Emissions::new(table.cols());
    for r in 0..table.rows() {
        for (j, &v) in table.row(r).iter().enumerate() {
            e.push(j, v);
        }
        e.end_row();
    }
    for &r in row_of {
        e.step(r);
    }
    e
}

/// Strategy for a random (init, transition, emissions) triple.
fn fb_inputs() -> impl Strategy<Value = (Vec<f64>, Matrix, Matrix)> {
    (2usize..5, 2usize..6, any::<u64>()).prop_map(|(s, t, seed)| {
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let init = stochastic::random_distribution(&mut rng, s);
        let trans = Matrix::random_stochastic(&mut rng, s, s);
        // Emission likelihoods in (0, 1], not normalised over states.
        let mut emis = Matrix::zeros(t, s);
        for r in 0..t {
            for c in 0..s {
                use rand::Rng;
                emis.set(r, c, rng.gen_range(0.01..1.0));
            }
        }
        (init, trans, emis)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn forward_backward_gammas_are_distributions((init, trans, emis) in fb_inputs()) {
        let rows = csr(&emis);
        let fb = ForwardBackward::run(&init, &trans, &rows);
        prop_assert!(fb.log_likelihood.is_finite());
        for t in 0..fb.len() {
            let g = fb.gamma(&rows, t);
            prop_assert!(stochastic::is_distribution(&g), "t={t}: {g:?}");
        }
    }

    #[test]
    fn forward_backward_likelihood_below_zero_for_subunit_emissions(
        (init, trans, emis) in fb_inputs()
    ) {
        // Every emission likelihood < 1, so the sequence likelihood < 1.
        let fb = ForwardBackward::run(&init, &trans, &csr(&emis));
        prop_assert!(fb.log_likelihood < 1e-9);
    }
}

/// The dense scaled recursion, kept as the oracle of the support-sparse
/// kernel: every state at every step, `O(S²)` per step.
struct DenseFb {
    alpha: Matrix,
    beta: Matrix,
    scales: Vec<f64>,
    log_likelihood: f64,
}

#[allow(clippy::needless_range_loop)] // mirrors the kernel's indices
fn dense_run(init: &[f64], trans: &Matrix, emis: &Matrix) -> DenseFb {
    let s = init.len();
    let t_len = emis.rows();
    let mut alpha = Matrix::zeros(t_len, s);
    let mut scales = vec![0.0; t_len];
    let mut log_likelihood = 0.0;
    for t in 0..t_len {
        let e = emis.row(t);
        let mut cur = vec![0.0; s];
        if t == 0 {
            for j in 0..s {
                cur[j] = init[j] * e[j];
            }
        } else {
            let prev = alpha.row(t - 1);
            for (i, &ai) in prev.iter().enumerate() {
                if ai == 0.0 {
                    continue;
                }
                let arow = trans.row(i);
                for j in 0..s {
                    cur[j] += ai * arow[j];
                }
            }
            for j in 0..s {
                cur[j] *= e[j];
            }
        }
        let sum: f64 = cur.iter().sum();
        if sum > 0.0 && sum.is_finite() {
            let inv = 1.0 / sum;
            for x in cur.iter_mut() {
                *x *= inv;
            }
            scales[t] = inv;
            log_likelihood += sum.ln();
        } else {
            let u = 1.0 / s as f64;
            for x in cur.iter_mut() {
                *x = u;
            }
            scales[t] = 1.0;
            log_likelihood = f64::NEG_INFINITY;
        }
        alpha.row_mut(t).copy_from_slice(&cur);
    }
    let mut beta = Matrix::zeros(t_len, s);
    beta.row_mut(t_len - 1).fill(1.0);
    let mut weighted = vec![0.0; s];
    for t in (0..t_len - 1).rev() {
        let e = emis.row(t + 1);
        for j in 0..s {
            weighted[j] = beta.get(t + 1, j) * e[j];
        }
        for i in 0..s {
            let arow = trans.row(i);
            let mut acc = 0.0;
            for j in 0..s {
                acc += arow[j] * weighted[j];
            }
            beta.set(t, i, acc * scales[t + 1]);
        }
    }
    DenseFb {
        alpha,
        beta,
        scales,
        log_likelihood,
    }
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// MMHD-shaped recursion inputs: `S = N·M` states with `N ∈ {1, 2, 4}` and
/// `M ∈ {2, 5, 40}`, state `x` carrying delay symbol `x % M`, so a
/// delivered probe's emission row is non-zero on `N` states only. `case`
/// picks the edge exercised: 0 random losses; 1 every `c = 0` on a
/// loss-free sequence (a loss would be impossible); 2 an all-loss
/// sequence; 3 one all-zero emission row (an impossible step, which ends
/// the run); 4 dense HMM rows; 5 rows shared across steps, as the models
/// write them: the `M` delivered rows and the loss row. Case 5 also zeroes
/// most transitions, as an M-step does for transitions never taken, so a
/// step whose support the previous support cannot reach ends the run too,
/// with a non-empty support.
///
/// The value is `(init, trans, table, row_of)`: step `t`'s likelihoods
/// are row `row_of[t]` of `table`. Cases 0–4 give each step its own row.
#[allow(clippy::needless_range_loop)]
fn sparse_fb_inputs() -> impl Strategy<Value = (Vec<f64>, Matrix, Matrix, Vec<usize>)> {
    (0usize..3, 0usize..3, 1usize..40, 0usize..6, any::<u64>()).prop_map(
        |(ni, mi, t_len, case, seed)| {
            use rand::{Rng, SeedableRng};
            let (n, m) = ([1, 2, 4][ni], [2, 5, 40][mi]);
            let s = n * m;
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let init = stochastic::random_distribution(&mut rng, s);
            let mut trans = Matrix::random_stochastic(&mut rng, s, s);
            if case == 5 {
                for i in 0..s {
                    let keep = rng.gen_range(0..s);
                    for j in 0..s {
                        if j != keep && rng.gen_range(0.0..1.0) < 0.7 {
                            trans.set(i, j, 0.0);
                        }
                    }
                }
                trans.normalize_rows();
            }
            let c: Vec<f64> = (0..s)
                .map(|_| {
                    if case == 1 {
                        0.0
                    } else {
                        rng.gen_range(0.0..1.0)
                    }
                })
                .collect();
            if case == 5 {
                let loss = m;
                let mut table = Matrix::zeros(m + 1, s);
                for x in 0..s {
                    table.set(x % m, x, 1.0 - c[x]);
                    table.set(loss, x, c[x]);
                }
                let row_of: Vec<usize> = (0..t_len)
                    .map(|_| {
                        if rng.gen_range(0.0..1.0) < 0.2 {
                            loss
                        } else {
                            rng.gen_range(0..m)
                        }
                    })
                    .collect();
                return (init, trans, table, row_of);
            }
            let mut emis = Matrix::zeros(t_len, s);
            for t in 0..t_len {
                let loss = case == 2 || (case != 1 && rng.gen_range(0.0..1.0) < 0.2);
                let sym = rng.gen_range(0..m);
                for x in 0..s {
                    let e = if case == 4 {
                        rng.gen_range(0.01..1.0)
                    } else if loss {
                        c[x]
                    } else if x % m == sym {
                        1.0 - c[x]
                    } else {
                        0.0
                    };
                    emis.set(t, x, e);
                }
            }
            if case == 3 {
                let t = rng.gen_range(0..t_len);
                emis.row_mut(t).fill(0.0);
            }
            (init, trans, emis, (0..t_len).collect())
        },
    )
}

/// A vector of `s` zeros with `vals` written at the states `idx`.
fn scatter(s: usize, idx: &[u32], vals: &[f64]) -> Vec<f64> {
    let mut dense = vec![0.0; s];
    for (&j, &v) in idx.iter().zip(vals) {
        dense[j as usize] = v;
    }
    dense
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The support-sparse recursion reproduces the dense oracle to the bit —
    /// alpha, scales, log-likelihood, every step's gamma, and beta wherever
    /// alpha is not zero (beta off the support is not computed) — and so
    /// does the forward-only likelihood, including through a reused buffer.
    /// Alpha and beta are stored one entry per supported state, and are
    /// scattered to dense rows for the comparison. Where the oracle finds
    /// an impossible step, both passes give `-inf` and there is no more to
    /// compare.
    #[test]
    fn sparse_recursion_is_bitwise_the_dense_oracle(
        (init, trans, table, row_of) in sparse_fb_inputs()
    ) {
        let s = init.len();
        let mut emis = Matrix::zeros(row_of.len(), s);
        for (t, &r) in row_of.iter().enumerate() {
            emis.row_mut(t).copy_from_slice(table.row(r));
        }
        let want = dense_run(&init, &trans, &emis);
        let sparse = shared(&table, &row_of);
        // A buffer first used on another shape must not leak into the run.
        let one = Matrix::from_vec(1, 1, vec![1.0]);
        let mut got = ForwardBackward::run(&[1.0], &one, &csr(&Matrix::from_vec(2, 1, vec![0.5, 0.5])));
        got.run_into(&init, &trans, &sparse);
        let ll = ForwardBackward::log_likelihood_of(&init, &trans, &sparse);
        if want.log_likelihood == f64::NEG_INFINITY {
            prop_assert_eq!(got.log_likelihood, f64::NEG_INFINITY);
            prop_assert_eq!(ll, f64::NEG_INFINITY);
            return Ok(());
        }
        prop_assert_eq!(got.len(), emis.rows());
        for t in 0..emis.rows() {
            let active = sparse.support(t);
            prop_assert_eq!(got.alpha_row(t).len(), active.len(), "alpha row {}", t);
            prop_assert_eq!(got.beta_row(t).len(), active.len(), "beta row {}", t);
            let alpha = scatter(s, active, got.alpha_row(t));
            prop_assert_eq!(bits(&alpha), bits(want.alpha.row(t)), "alpha at {}", t);
            let beta = scatter(s, active, got.beta_row(t));
            for (j, (&a, (&b_got, &b_want))) in
                alpha.iter().zip(beta.iter().zip(want.beta.row(t))).enumerate()
            {
                if a != 0.0 {
                    prop_assert_eq!(b_got.to_bits(), b_want.to_bits(), "beta at {}, {}", t, j);
                }
            }
        }
        prop_assert_eq!(bits(&got.scales), bits(&want.scales));
        prop_assert_eq!(got.log_likelihood.to_bits(), want.log_likelihood.to_bits());
        prop_assert_eq!(ll.to_bits(), want.log_likelihood.to_bits());
        let mut gamma = vec![f64::NAN; s];
        for t in 0..emis.rows() {
            let nonzero: Vec<u32> = (0..s)
                .filter(|&j| emis.get(t, j) != 0.0)
                .map(|j| j as u32)
                .collect();
            prop_assert_eq!(sparse.support(t), &nonzero[..]);
            let product: Vec<f64> = want
                .alpha
                .row(t)
                .iter()
                .zip(want.beta.row(t))
                .map(|(&a, &b)| a * b)
                .collect();
            // Poisoned: every returned state must be written. The posterior
            // is zero off the returned states, which are not read.
            gamma.fill(f64::NAN);
            let wrote = got.gamma_into(&sparse, t, &mut gamma);
            let written: Vec<f64> = wrote.iter().map(|&j| gamma[j as usize]).collect();
            prop_assert_eq!(
                bits(&scatter(s, wrote, &written)),
                bits(&stochastic::normalized(&product)),
                "gamma at {}",
                t
            );
        }
    }
}

/// Regression-style deterministic checks that complement the random ones.
#[test]
fn cdf_of_point_mass_is_step() {
    let f: Cdf = Pmf::point(4, 3).cdf();
    assert_eq!(f.value(2), 0.0);
    assert_eq!(f.value(3), 1.0);
}
