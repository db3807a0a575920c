//! Property-based tests for the HMM with loss-augmented emissions.

use dcl_hmm::{em_step, em_step_with, EmScratch, Hmm};
use dcl_probnum::em::{max_param_diff, EmModel};
use dcl_probnum::obs::{validate_sequence, Obs};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Run `f` under a capture and return what it counted. The shard holds
/// only this call's folds, whatever other tests run beside it.
fn counted<R>(f: impl FnOnce() -> R) -> (R, dcl_metrics::Shard) {
    let (out, captured) = dcl_metrics::capture(f);
    (out, captured.metrics)
}

/// Bitwise model equality: scratch reuse must not change a single ulp.
fn assert_models_identical(a: &Hmm, b: &Hmm) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.initial().len(), b.initial().len());
    for (x, y) in a.initial().iter().zip(b.initial()) {
        prop_assert_eq!(x.to_bits(), y.to_bits());
    }
    for (x, y) in a
        .transition()
        .as_slice()
        .iter()
        .zip(b.transition().as_slice())
    {
        prop_assert_eq!(x.to_bits(), y.to_bits());
    }
    for (x, y) in a.emission().as_slice().iter().zip(b.emission().as_slice()) {
        prop_assert_eq!(x.to_bits(), y.to_bits());
    }
    for (x, y) in a.loss_probs().iter().zip(b.loss_probs()) {
        prop_assert_eq!(x.to_bits(), y.to_bits());
    }
    Ok(())
}

fn random_model() -> impl Strategy<Value = (Hmm, u64)> {
    (1usize..4, 2usize..6, any::<u64>()).prop_map(|(n, m, seed)| {
        let mut rng = SmallRng::seed_from_u64(seed);
        (Hmm::random(n, m, &mut rng), seed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn generated_sequences_are_valid((model, seed) in random_model(), len in 1usize..300) {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xFACE);
        let obs = model.generate(&mut rng, len);
        prop_assert_eq!(obs.len(), len);
        prop_assert!(validate_sequence(&obs, model.num_symbols()).is_ok());
    }

    #[test]
    fn em_step_never_decreases_likelihood((model, seed) in random_model()) {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xBEEF);
        let obs = model.generate(&mut rng, 250);
        let mut rng2 = SmallRng::seed_from_u64(seed ^ 0xD00D);
        let mut cur = Hmm::random(model.num_states(), model.num_symbols(), &mut rng2);
        let mut prev = f64::NEG_INFINITY;
        for _ in 0..6 {
            let (next, ll) = em_step(&cur, &obs);
            prop_assert!(ll >= prev - 1e-6, "EM decreased likelihood: {prev} -> {ll}");
            prev = ll;
            cur = next;
        }
    }

    #[test]
    fn em_step_preserves_stochasticity((model, seed) in random_model()) {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xC0DE);
        let obs = model.generate(&mut rng, 200);
        let (next, _) = em_step(&model, &obs);
        prop_assert!(next.transition().is_row_stochastic());
        prop_assert!(next.emission().is_row_stochastic());
        let pi_sum: f64 = next.initial().iter().sum();
        prop_assert!((pi_sum - 1.0).abs() < 1e-9);
        prop_assert!(next.loss_probs().iter().all(|&c| (0.0..=1.0).contains(&c)));
    }

    #[test]
    fn loss_delay_pmf_is_distribution_when_losses_exist((model, seed) in random_model()) {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xF00D);
        let obs = model.generate(&mut rng, 300);
        match model.loss_delay_pmf(&obs) {
            Some(pmf) => {
                let sum: f64 = pmf.mass().iter().sum();
                prop_assert!((sum - 1.0).abs() < 1e-9);
            }
            None => prop_assert!(obs.iter().all(|o| !o.is_loss())),
        }
    }

    /// A scratch buffer reused across several EM steps (as the parallel
    /// restart workers do) produces bitwise-identical models and
    /// likelihoods to the fresh-allocation `em_step`.
    #[test]
    fn scratch_reuse_matches_fresh_allocation((model, seed) in random_model()) {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5C7A);
        let obs = model.generate(&mut rng, 200);
        let mut scratch = EmScratch::new();
        let mut fresh = model.clone();
        let mut reused = model.clone();
        for _ in 0..4 {
            let (f, ll_f) = em_step(&fresh, &obs);
            let (r, ll_r) = em_step_with(&reused, &obs, &mut scratch);
            prop_assert_eq!(ll_f.to_bits(), ll_r.to_bits());
            assert_models_identical(&f, &r)?;
            fresh = f;
            reused = r;
        }
    }

    /// Instrumentation is a pure tap: running the full fit under a
    /// capture must reproduce the uncaptured result to the last bit,
    /// while actually emitting events.
    #[test]
    fn fit_is_bit_identical_with_instrumentation_enabled((model, seed) in random_model()) {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x0B5E);
        let obs = model.generate(&mut rng, 300);
        let opts = dcl_hmm::EmOptions {
            num_hidden: model.num_states(),
            num_symbols: model.num_symbols(),
            tol: 1e-3,
            max_iters: 10,
            seed,
            restarts: 2,
            parallelism: Some(1),
            budget: None,
            settings: (),
        };
        // No capture is open on this thread: the baseline records nothing,
        // whatever the tests running beside it capture.
        prop_assert!(!dcl_metrics::is_enabled() && !dcl_metrics::obs::is_enabled());
        let off = dcl_hmm::try_fit(&obs, &opts).unwrap();
        let (on, captured) = dcl_metrics::capture(|| dcl_hmm::try_fit(&obs, &opts).unwrap());
        let events = captured.events;
        prop_assert!(!events.is_empty(), "enabled fit emitted no events");
        prop_assert!(events.iter().any(|e| e.kind() == "em-restart"));
        prop_assert_eq!(off.log_likelihood.to_bits(), on.log_likelihood.to_bits());
        prop_assert_eq!(off.iterations, on.iterations);
        prop_assert_eq!(off.converged, on.converged);
        assert_models_identical(&off.model, &on.model)?;
    }

    /// The HMM and the MMHD agree on the likelihood of an i.i.d. model:
    /// with N = 1 and uniform transitions both reduce to the same
    /// independent mixture.
    #[test]
    fn hmm_and_mmhd_agree_on_iid_models(
        m in 2usize..5,
        seed in any::<u64>(),
        len in 10usize..200,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let weights = dcl_probnum::stochastic::random_distribution(&mut rng, m);
        let c: Vec<f64> = (0..m).map(|i| 0.1 + 0.05 * i as f64).collect();
        let hmm = Hmm::from_parts(
            vec![1.0],
            dcl_probnum::Matrix::from_vec(1, 1, vec![1.0]),
            dcl_probnum::Matrix::from_vec(1, m, weights.clone()),
            c.clone(),
        );
        // MMHD with N = 1 and every row equal to the weights: an i.i.d.
        // symbol process.
        let mut p = dcl_probnum::Matrix::zeros(m, m);
        for r in 0..m {
            p.row_mut(r).copy_from_slice(&weights);
        }
        let mmhd = dcl_mmhd::Mmhd::from_parts(weights.clone(), p, c, 1);
        let obs = hmm.generate(&mut rng, len);
        let l1 = hmm.log_likelihood(&obs);
        let l2 = mmhd.log_likelihood(&obs);
        prop_assert!((l1 - l2).abs() < 1e-7, "HMM {l1} vs MMHD {l2}");
    }
}

/// Edge cases for scratch reuse: sequences at the extremes of the loss
/// process, where whole branches of the E-step vanish. A scratch buffer
/// whose stale entries leaked through would diverge here first.
#[test]
fn scratch_reuse_handles_all_loss_and_loss_free_sequences() {
    let mut rng = SmallRng::seed_from_u64(0x5C7A);
    let model = Hmm::random(2, 3, &mut rng);
    let all_loss = vec![Obs::Loss; 40];
    let loss_free: Vec<Obs> = (0..40).map(|i| Obs::Sym(1 + (i % 3) as u16)).collect();

    // One scratch across both sequences: the second run must not see the
    // first run's buffers.
    let mut scratch = EmScratch::new();
    for obs in [&all_loss, &loss_free] {
        let mut fresh = model.clone();
        let mut reused = model.clone();
        for _ in 0..3 {
            let (f, ll_f) = em_step(&fresh, obs);
            let (r, ll_r) = em_step_with(&reused, obs, &mut scratch);
            assert_eq!(ll_f.to_bits(), ll_r.to_bits());
            assert_eq!(
                f.transition().as_slice(),
                r.transition().as_slice(),
                "transition diverged on {} sequence",
                if obs[0].is_loss() {
                    "all-loss"
                } else {
                    "loss-free"
                }
            );
            assert_eq!(f.emission().as_slice(), r.emission().as_slice());
            assert_eq!(f.loss_probs(), r.loss_probs());
            assert_eq!(f.initial(), r.initial());
            fresh = f;
            reused = r;
        }
    }
}

/// Fold `word` into an FNV-1a-style 64-bit hash.
fn fold(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(0x0000_0100_0000_01B3)
}

/// The E-step's bitwise oracle: three EM steps through one reused scratch
/// on 60 seeded cases, every parameter and log-likelihood bit folded into
/// one hash pinned from the dense-`xi` step, which filled the whole
/// `N x N` transition-expectation table and added every entry. `N ∈ {1,
/// 2, 4}`, `M ∈ {2, 5, 12}`; `case` picks the edge: 0 generated from the
/// model, 1 a loss-free sequence, 2 an all-loss sequence, 3 symbol 1
/// never delivered (`c_1 = 1`) yet observed once, 4 losses only on the
/// upper half of the symbols (sparse loss rows). Case 3's model rules its
/// sequence out, so it has no re-estimate and folds only the `-inf`
/// likelihood.
#[test]
fn em_step_bits_match_the_pinned_dense_fold() {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for case_seed in 0..60u64 {
        let mut rng = SmallRng::seed_from_u64(0xE57E_0000 + case_seed);
        let (n, m) = (
            [1, 2, 4][rng.gen_range(0..3)],
            [2, 5, 12][rng.gen_range(0..3)],
        );
        let case = case_seed % 5;
        let base = Hmm::random(n, m, &mut rng);
        let c: Vec<f64> = (0..m)
            .map(|k| match case {
                1 => 0.0,
                3 if k == 0 => 1.0,
                4 if k < m / 2 => 0.0,
                _ => rng.gen_range(0.05..0.6),
            })
            .collect();
        let model = Hmm::from_parts(
            base.initial().to_vec(),
            base.transition().clone(),
            base.emission().clone(),
            c,
        );
        let len = rng.gen_range(2usize..120);
        let obs: Vec<Obs> = match case {
            1 => (0..len)
                .map(|_| Obs::Sym(1 + rng.gen_range(0..m) as u16))
                .collect(),
            2 => vec![Obs::Loss; len],
            _ => {
                let mut obs = model.generate(&mut rng, len);
                if case == 3 {
                    obs[len / 2] = Obs::Sym(1);
                }
                obs
            }
        };
        let mut scratch = EmScratch::new();
        let mut model = model;
        for _ in 0..3 {
            let (next, ll) = em_step_with(&model, &obs, &mut scratch);
            h = fold(h, ll.to_bits());
            if case == 3 {
                assert_eq!(ll, f64::NEG_INFINITY);
                break;
            }
            let params = [
                next.initial(),
                next.transition().as_slice(),
                next.emission().as_slice(),
                next.loss_probs(),
            ];
            for x in params.into_iter().flatten() {
                h = fold(h, x.to_bits());
            }
            model = next;
        }
    }
    assert_eq!(h, PINNED_DENSE_FOLD, "E-step bits moved: {h:#018x}");
}

/// [`em_step_bits_match_the_pinned_dense_fold`]'s hash. Every case but 3
/// folds the dense `xi` E-step's bits: without case 3 the fold reads
/// `0x6855_8f76_efa8_c4d7` under both the dense step and the sparse one
/// that ends a run at its first impossible step.
const PINNED_DENSE_FOLD: u64 = 0xfa94_6bc1_65e2_8221;

/// A fitted result compared bit for bit: model, log-likelihood, iteration
/// count and guard trips.
fn assert_fits_identical(a: &dcl_hmm::FitResult, b: &dcl_hmm::FitResult) {
    assert_models_identical(&a.model, &b.model).unwrap();
    assert_eq!(a.log_likelihood.to_bits(), b.log_likelihood.to_bits());
    assert_eq!(a.iterations, b.iterations);
    assert_eq!(a.guard_trips, b.guard_trips);
}

/// The restart, iteration and convergence counters one captured fit
/// folded.
fn em_counts(shard: &dcl_metrics::Shard) -> [u64; 3] {
    ["hmm.em.restarts", "hmm.em.iterations", "hmm.em.converged"].map(|k| shard.counter(k))
}

/// The EM schedules beyond the plain restart loop: a generous
/// budget replays the unbudgeted fit exactly, a tight one clips it, and
/// `fit_warm` either runs one warm trajectory or — when the initial model
/// has other dimensions — is exactly `try_fit`. Counters are read from a
/// capture shard, so concurrent tests cannot leak into them.
#[test]
fn budgeted_and_warm_schedules_keep_the_fit_contract() {
    let mut rng = SmallRng::seed_from_u64(0xD81E);
    let truth = Hmm::random(2, 5, &mut rng);
    let obs = truth.generate(&mut rng, 600);
    let opts = dcl_hmm::EmOptions {
        num_hidden: 2,
        num_symbols: 5,
        max_iters: 40,
        seed: 11,
        restarts: 3,
        parallelism: Some(1),
        ..dcl_hmm::EmOptions::default()
    };
    let (plain, plain_counts) = counted(|| dcl_hmm::try_fit(&obs, &opts).unwrap());
    assert_eq!(plain_counts.counter("hmm.em.restarts"), 3);

    // A budget that never binds is the unbudgeted schedule.
    let generous = dcl_hmm::EmOptions {
        budget: Some(dcl_hmm::EmBudget {
            max_iters: 1_000_000,
            max_guard_trips: 100,
        }),
        ..opts
    };
    let (fit, counts) = counted(|| dcl_hmm::try_fit(&obs, &generous).unwrap());
    assert_fits_identical(&fit, &plain);
    assert!(!fit.degraded);
    assert_eq!(em_counts(&counts), em_counts(&plain_counts));
    assert_eq!(counts.counter("hmm.em.budget_clipped"), 0);

    // A tight one stops the first restart after 5 iterations and skips
    // the rest.
    let tight = dcl_hmm::EmOptions {
        tol: 0.0,
        budget: Some(dcl_hmm::EmBudget {
            max_iters: 5,
            max_guard_trips: 100,
        }),
        ..opts
    };
    let (fit, counts) = counted(|| dcl_hmm::try_fit(&obs, &tight).unwrap());
    assert!(fit.degraded);
    assert_eq!(fit.iterations, 5);
    assert_eq!(counts.counter("hmm.em.budget_clipped"), 1);
    assert_eq!(em_counts(&counts), [1, 5, 0]);

    // Warm start from a model of the right dimensions: one trajectory.
    let (fit, counts) = counted(|| dcl_hmm::fit_warm(&obs, &opts, &plain.model).unwrap());
    assert_eq!(counts.counter("hmm.em.warm_starts"), 1);
    assert_eq!(counts.counter("hmm.em.warm_fallbacks"), 0);
    assert_eq!(
        em_counts(&counts),
        [1, fit.iterations as u64, fit.converged as u64]
    );

    // Warm start from a model of other dimensions: the cold fit.
    let other = Hmm::random(3, 5, &mut rng);
    let (fit, counts) = counted(|| dcl_hmm::fit_warm(&obs, &opts, &other).unwrap());
    assert_fits_identical(&fit, &plain);
    assert_eq!(counts.counter("hmm.em.warm_starts"), 0);
    assert_eq!(counts.counter("hmm.em.warm_fallbacks"), 1);
    assert_eq!(em_counts(&counts), em_counts(&plain_counts));
}

/// The test-only plain-EM oracle: restart 0's prepared initial model
/// stepped by `em_step_with` until the tolerance or `cap` steps, and the
/// returned model's log-likelihood — the trajectory an EM fit ran before
/// SQUAREM.
fn plain_em(obs: &[Obs], opts: &dcl_hmm::EmOptions, cap: usize) -> (Hmm, f64) {
    let mut model = <Hmm as EmModel>::initial_model(obs, opts, opts.seed);
    model.prepare(obs, opts);
    let mut scratch = EmScratch::new();
    for _ in 0..cap {
        let (next, _) = em_step_with(&model, obs, &mut scratch);
        let delta = max_param_diff(&next, &model);
        model = next;
        if delta < opts.tol {
            break;
        }
    }
    let ll = model.log_likelihood(obs);
    (model, ll)
}

/// A planted two-state model whose losses sit on the high-delay symbols,
/// and `len` observations of it.
fn planted(len: usize, seed: u64) -> (Hmm, Vec<Obs>) {
    let truth = Hmm::from_parts(
        vec![0.5, 0.5],
        dcl_probnum::Matrix::from_vec(2, 2, vec![0.97, 0.03, 0.05, 0.95]),
        dcl_probnum::Matrix::from_vec(
            2,
            5,
            vec![
                0.55, 0.35, 0.10, 0.00, 0.00, //
                0.00, 0.00, 0.10, 0.30, 0.60,
            ],
        ),
        vec![0.0, 0.0, 0.02, 0.10, 0.35],
    );
    let obs = truth.generate(&mut SmallRng::seed_from_u64(seed), len);
    (truth, obs)
}

fn accel_opts(max_iters: usize) -> dcl_hmm::EmOptions {
    dcl_hmm::EmOptions {
        num_hidden: 2,
        num_symbols: 5,
        tol: 0.0,
        max_iters,
        seed: 5,
        restarts: 1,
        parallelism: Some(1),
        ..dcl_hmm::EmOptions::default()
    }
}

/// The cap counts E-steps: at `tol = 0` a trajectory spends exactly its
/// cap, whether it ends on a full three-step cycle or on plain steps.
#[test]
fn accelerated_trajectory_spends_exactly_its_cap() {
    let (_, obs) = planted(400, 1);
    for cap in 1..=7 {
        let (fit, counts) = counted(|| dcl_hmm::try_fit(&obs, &accel_opts(cap)).unwrap());
        assert_eq!(fit.iterations, cap);
        assert!(!fit.converged);
        assert_eq!(em_counts(&counts), [1, cap as u64, 0]);
    }
}

/// A budget bounds the E-steps of the whole fit, cycles included, and a
/// warm start clipped by its budget is flagged degraded.
#[test]
fn budgets_are_never_overspent() {
    let (_, obs) = planted(400, 2);
    let opts = dcl_hmm::EmOptions {
        restarts: 3,
        ..accel_opts(5)
    };
    for max_iters in 1..=16 {
        let budgeted = dcl_hmm::EmOptions {
            budget: Some(dcl_hmm::EmBudget {
                max_iters,
                max_guard_trips: 4,
            }),
            ..opts
        };
        let (fit, counts) = counted(|| dcl_hmm::try_fit(&obs, &budgeted).unwrap());
        let spent = counts.counter("hmm.em.iterations");
        assert!(
            spent <= max_iters as u64,
            "{spent} E-steps on a budget of {max_iters}"
        );
        assert_eq!(fit.degraded, max_iters < 15, "budget {max_iters}");
    }

    let warm = dcl_hmm::EmOptions {
        max_iters: 40,
        budget: Some(dcl_hmm::EmBudget {
            max_iters: 7,
            max_guard_trips: 4,
        }),
        ..opts
    };
    let init = plain_em(&obs, &opts, 3).0;
    let (fit, counts) = counted(|| dcl_hmm::fit_warm(&obs, &warm, &init).unwrap());
    assert!(fit.degraded);
    assert_eq!(fit.iterations, 7);
    assert_eq!(counts.counter("hmm.em.budget_clipped"), 1);
}

/// Loss probabilities the loss restriction zeroes stay exactly zero
/// through the extrapolation, which does run here: the fit is not plain
/// EM's.
#[test]
fn restricted_loss_probabilities_stay_exactly_zero() {
    // Symbol 2 is never delivered, so its `c` starts at zero.
    let (_, obs) = planted(1500, 3);
    let obs: Vec<Obs> = obs
        .into_iter()
        .map(|o| if o == Obs::Sym(2) { Obs::Sym(1) } else { o })
        .collect();
    let opts = accel_opts(60);
    let fit = dcl_hmm::try_fit(&obs, &opts).unwrap();
    assert_eq!(fit.model.loss_probs()[1].to_bits(), 0);
    let (plain, _) = plain_em(&obs, &opts, 60);
    assert_ne!(
        fit.model.transition().as_slice(),
        plain.transition().as_slice(),
        "no cycle extrapolated"
    );
}

/// On planted data the accelerated trajectory ends at least as high as
/// plain EM with the same cap and tolerance, up to rounding (a relative
/// 1e-12) plus the case's documented shortfall. SQUAREM does not
/// dominate plain EM step for step. On these HMM fixtures it holds at
/// `tol = 0` from a cap of 30 E-steps, but it trails at small caps (by
/// 0.0276 nats after 5 E-steps, data 5, seed 1; 0.0208 after 10, data 6,
/// seed 3), and at the production tolerance 1e-4 it stops on the
/// tolerance short of where plain EM stops later (0.0040 nats, data 5,
/// seed 2, 12 E-steps; 0.0025, data 4, seed 2). The stop rule, not the
/// cycle, decides that last case. The bounds are about twice the
/// measured worst gaps, so a worse trajectory fails.
#[test]
fn accelerated_fit_reaches_plain_em_likelihood() {
    // (tol, cap, allowed shortfall in nats)
    let cases = [
        (0.0, 5, 0.06),
        (0.0, 10, 0.04),
        (0.0, 30, 0.0),
        (0.0, 100, 0.0),
        (0.0, 200, 0.0),
        (1e-4, 200, 0.008),
    ];
    for data_seed in [4, 5, 6] {
        let (_, obs) = planted(2000, data_seed);
        for (tol, cap, shortfall) in cases {
            for seed in [1, 2, 3] {
                let opts = dcl_hmm::EmOptions {
                    seed,
                    tol,
                    ..accel_opts(cap)
                };
                let fit = dcl_hmm::try_fit(&obs, &opts).unwrap();
                let (_, plain) = plain_em(&obs, &opts, cap);
                assert!(
                    fit.log_likelihood >= plain - shortfall - 1e-12 * plain.abs(),
                    "data {data_seed}, tol {tol}, cap {cap}, seed {seed}: {} < plain {plain}",
                    fit.log_likelihood
                );
            }
        }
    }
}

/// The accelerated fit is bitwise the same at one and at two threads.
#[test]
fn accelerated_fit_is_bitwise_identical_across_threads() {
    let (_, obs) = planted(800, 7);
    let fits: Vec<_> = [1, 2]
        .map(|threads| {
            let opts = dcl_hmm::EmOptions {
                tol: 1e-4,
                restarts: 4,
                parallelism: Some(threads),
                ..accel_opts(60)
            };
            dcl_hmm::try_fit(&obs, &opts).unwrap()
        })
        .into();
    assert_fits_identical(&fits[0], &fits[1]);
}
