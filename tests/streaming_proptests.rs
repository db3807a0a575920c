//! Property-style sweeps for the streaming engine, written — like
//! `fault_robustness.rs` — as plain seeded `#[test]` sweeps rather than a
//! proptest harness, so every run replays identically everywhere. The
//! swept inputs (chunk-size patterns, fault plans) are deterministic
//! functions of fixed seeds.
//!
//! Pinned properties:
//!
//! * **Chunking invariance** — splitting the same probe stream into
//!   arbitrary chunk sizes cannot change a single window evaluation:
//!   positions, warm flags, transitions, and every report bit.
//! * **Warm-start robustness** — warm-started fits never yield a
//!   non-finite log-likelihood or a NaN report, even under sampled
//!   fault-injection stacks, and a dimension-mismatched warm init falls
//!   back bitwise to the cold restart schedule.

mod common;

use common::{dominant_trace, synth_obs};
use dominant_congested_links::faults::FaultPlan;
use dominant_congested_links::hmm;
use dominant_congested_links::identification::identify::{IdentifyConfig, ModelKind};
use dominant_congested_links::identification::{
    StreamConfig, StreamUpdate, StreamingIdentifier, WindowSpec,
};
use dominant_congested_links::mmhd;
use dominant_congested_links::netsim::time::Dur;
use dominant_congested_links::netsim::trace::ProbeTrace;

fn stream_cfg(window: usize, hop: usize, warm_start: bool, model: ModelKind) -> StreamConfig {
    StreamConfig {
        window: WindowSpec::Count(window),
        hop,
        warm_start,
        identify: IdentifyConfig {
            model,
            restarts: 2,
            estimate_bound: false,
            parallelism: Some(1),
            ..IdentifyConfig::default()
        },
    }
}

/// Feed the trace through a fresh engine in chunks whose sizes cycle
/// through `sizes`, then flush.
fn run_chunked(trace: &ProbeTrace, cfg: StreamConfig, sizes: &[usize]) -> Vec<StreamUpdate> {
    let mut engine = StreamingIdentifier::new(cfg, trace.base_delay, trace.interval);
    let mut updates = Vec::new();
    let (mut i, mut k) = (0usize, 0usize);
    while i < trace.records.len() {
        let take = sizes[k % sizes.len()].min(trace.records.len() - i);
        k += 1;
        updates.extend(engine.push_chunk(&trace.records[i..i + take]));
        i += take;
    }
    updates.extend(engine.flush());
    updates
}

/// Chunk-size patterns drawn from a seeded linear congruential generator:
/// deterministic, replayable "arbitrary" splits.
fn lcg_sizes(seed: u64, len: usize) -> Vec<usize> {
    let mut x = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    (0..len)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            1 + (x >> 33) as usize % 37
        })
        .collect()
}

/// The chunking-invariance property on real fits: per-record, small,
/// large, mixed-cycle and LCG-sampled splits all reproduce the
/// single-chunk reference stream bit for bit.
#[test]
fn arbitrary_chunk_splits_yield_identical_window_streams() {
    let trace = dominant_trace(2_000);
    let cfg = stream_cfg(800, 400, true, ModelKind::Mmhd { num_hidden: 2 });
    // `run_trace` ingests the whole trace as one chunk: the reference.
    let reference = StreamingIdentifier::run_trace(&trace, cfg);
    assert!(reference.len() >= 3, "expected several windows");

    let fixed: &[&[usize]] = &[&[1], &[7], &[64], &[3, 11, 1, 29, 5, 2, 17]];
    for sizes in fixed {
        let updates = run_chunked(&trace, cfg, sizes);
        assert_eq!(updates, reference, "chunk sizes {sizes:?}");
    }
    for seed in 0..4u64 {
        let sizes = lcg_sizes(seed, 64);
        let updates = run_chunked(&trace, cfg, &sizes);
        assert_eq!(updates, reference, "LCG chunk seed {seed}");
    }
}

/// Chunking invariance also holds on the windowing mechanics alone when
/// every window is unusable (a loss-free stream): evaluation points are
/// a pure function of the ingest count, not of chunk boundaries.
#[test]
fn chunk_splits_cannot_move_evaluation_points() {
    let mut trace = dominant_trace(1_100);
    for r in &mut trace.records {
        if !r.delivered() {
            r.arrival = Some(r.stamp.sent_at + Dur::from_millis(40.0));
            r.stamp.loss_hop = None;
        }
    }
    let cfg = stream_cfg(300, 100, true, ModelKind::Mmhd { num_hidden: 2 });
    let reference = StreamingIdentifier::run_trace(&trace, cfg);
    assert_eq!(reference.len(), 9); // at 300, 400, ..., 1100; no tail left
    for seed in 10..16u64 {
        let sizes = lcg_sizes(seed, 48);
        let updates = run_chunked(&trace, cfg, &sizes);
        assert_eq!(updates, reference, "LCG chunk seed {seed}");
    }
}

/// The `warm` flag is purely configuration-driven: off means every
/// window cold-starts; on means every window after a usable one
/// warm-starts.
#[test]
fn warm_flag_tracks_configuration() {
    let trace = dominant_trace(1_600);
    let model = ModelKind::Mmhd { num_hidden: 2 };

    let warm_run = StreamingIdentifier::run_trace(&trace, stream_cfg(800, 400, true, model));
    assert!(warm_run.len() >= 3);
    assert!(!warm_run[0].warm, "first window has no warm state");
    assert!(
        warm_run[0].result.is_ok(),
        "dominant window must be usable: {:?}",
        warm_run[0].result
    );
    for u in &warm_run[1..] {
        assert!(u.warm, "window {} should warm-start", u.window_index);
    }

    let cold_run = StreamingIdentifier::run_trace(&trace, stream_cfg(800, 400, false, model));
    assert!(
        cold_run.iter().all(|u| !u.warm),
        "warm_start off must cold-start"
    );
}

/// The fault-robustness property lifted to the streaming engine: sampled
/// fault stacks pushed through warm-started windows never panic and
/// never produce a NaN — every window ends in a finite report or a
/// typed, displayable error.
#[test]
fn warm_started_windows_never_nan_under_fault_stacks() {
    let trace = dominant_trace(1_200);
    let models = [
        ModelKind::Mmhd { num_hidden: 2 },
        ModelKind::Hmm { num_states: 2 },
    ];
    for seed in 0..4u64 {
        for &intensity in &[0.0, 0.5, 1.0] {
            let plan = FaultPlan::sampled(seed * 7919 + 3, intensity, 7);
            let (impaired, _report) = plan.apply(&trace);
            for model in models {
                let cfg = stream_cfg(400, 200, true, model);
                let updates = StreamingIdentifier::run_trace(&impaired, cfg);
                assert!(!updates.is_empty(), "no windows evaluated");
                for u in &updates {
                    let ctx = format!(
                        "seed {seed} intensity {intensity} model {model:?} window {}",
                        u.window_index
                    );
                    match &u.result {
                        Ok(r) => {
                            assert!(r.loss_rate.is_finite(), "{ctx}: loss_rate NaN");
                            assert!(
                                r.pmf.mass().iter().all(|x| x.is_finite() && *x >= 0.0),
                                "{ctx}: pmf has NaN/negative mass"
                            );
                            let mass: f64 = r.pmf.mass().iter().sum();
                            assert!((mass - 1.0).abs() < 1e-6, "{ctx}: pmf mass {mass}");
                            assert!(
                                r.sdcl.f_at_2d_star.is_finite() && r.wdcl.f_at_2d_star.is_finite(),
                                "{ctx}: test statistics NaN"
                            );
                        }
                        Err(e) => assert!(!format!("{e}").is_empty(), "{ctx}"),
                    }
                }
            }
        }
    }
}

use dominant_congested_links::identification::StreamingCheckpoint;

/// The checkpoint property, swept: at *any* cut point — cold engine,
/// exactly on an evaluation point, mid-window, LCG-sampled arbitrary
/// offsets — and across window bounds and warm/cold configurations, the
/// checkpoint (a) round-trips through JSON byte-identically and keeps
/// its logical clocks, and (b) restores to an engine whose continuation
/// reproduces the uninterrupted window stream bit for bit.
#[test]
fn checkpoints_round_trip_and_restore_identically_at_arbitrary_cuts() {
    let trace = dominant_trace(1_500);
    let len = trace.records.len();
    let configs = [
        (600usize, 300usize, true),
        (500, 125, false),
        (700, 700, true),
    ];
    for &(window, hop, warm) in &configs {
        let cfg = stream_cfg(window, hop, warm, ModelKind::Mmhd { num_hidden: 2 });
        let reference = StreamingIdentifier::run_trace(&trace, cfg);
        let mut cuts = vec![0, window / 2, window, window + hop / 2 + 1, len];
        for seed in 40..43u64 {
            cuts.push(lcg_sizes(seed, 4).iter().sum::<usize>() * 31 % (len + 1));
        }
        for cut in cuts {
            let cut = cut.min(len);
            let at = format!("window {window} hop {hop} warm {warm} cut {cut}");
            let mut engine = StreamingIdentifier::new(cfg, trace.base_delay, trace.interval);
            let mut updates = engine.push_chunk(&trace.records[..cut]);
            let ck = engine.checkpoint();
            let json = serde_json::to_string(&ck).expect("checkpoint serialises");
            drop(engine);
            let back: StreamingCheckpoint = serde_json::from_str(&json).expect("parses");
            assert_eq!(
                serde_json::to_string(&back).expect("re-serialises"),
                json,
                "{at}: round trip is not byte-identical"
            );
            assert_eq!(back.ingested(), cut, "{at}: ingest clock");
            assert_eq!(
                back.windows_evaluated(),
                updates.len(),
                "{at}: window clock"
            );
            assert!(
                back.window_len() <= window.min(cut),
                "{at}: buffered window exceeds its bound"
            );
            let mut engine = StreamingIdentifier::restore(cfg, back).expect("restores");
            updates.extend(engine.push_chunk(&trace.records[cut..]));
            updates.extend(engine.flush());
            assert_eq!(updates, reference, "{at}");
        }
    }
}

fn hmm_opts(num_hidden: usize) -> hmm::EmOptions {
    hmm::EmOptions {
        num_hidden,
        num_symbols: 5,
        tol: 1e-4,
        max_iters: 30,
        seed: 11,
        restarts: 3,
        parallelism: Some(1),
        budget: None,
        settings: (),
    }
}

fn mmhd_opts(num_hidden: usize) -> mmhd::EmOptions {
    mmhd::EmOptions {
        num_hidden,
        num_symbols: 5,
        tol: 1e-4,
        max_iters: 30,
        seed: 11,
        restarts: 3,
        parallelism: Some(1),
        budget: None,
        settings: mmhd::MmhdSettings {
            empirical_init: false,
            tied_loss: false,
        },
    }
}

/// Direct `fit_warm` sweep: warm fits on data the init was not fitted on
/// stay finite, and a dimension-mismatched init falls back bitwise to
/// the cold restart schedule.
#[test]
fn warm_fits_stay_finite_and_mismatched_inits_fall_back_to_cold() {
    for salt in 0..6usize {
        let a = synth_obs(800, 5, salt);
        let b = synth_obs(800, 5, salt + 100);

        let cold_h = hmm::try_fit(&a, &hmm_opts(2)).unwrap();
        let warm_h = hmm::fit_warm(&b, &hmm_opts(2), &cold_h.model).expect("hmm warm fit");
        assert!(
            warm_h.log_likelihood.is_finite(),
            "salt {salt}: hmm warm LL non-finite"
        );

        let cold_m = mmhd::try_fit(&a, &mmhd_opts(2)).unwrap();
        let warm_m = mmhd::fit_warm(&b, &mmhd_opts(2), &cold_m.model).expect("mmhd warm fit");
        assert!(
            warm_m.log_likelihood.is_finite(),
            "salt {salt}: mmhd warm LL non-finite"
        );

        // A three-state init offered to a two-state fit cannot be used:
        // the fallback must be exactly the cold fit, bit for bit.
        let wrong_h = hmm::try_fit(&a, &hmm_opts(3)).unwrap();
        let fell_back = hmm::fit_warm(&b, &hmm_opts(2), &wrong_h.model).expect("fallback fit");
        let reference = hmm::try_fit(&b, &hmm_opts(2)).expect("cold fit");
        assert_eq!(
            fell_back.log_likelihood.to_bits(),
            reference.log_likelihood.to_bits(),
            "salt {salt}: hmm dimension fallback is not the cold fit"
        );

        let wrong_m = mmhd::try_fit(&a, &mmhd_opts(3)).unwrap();
        let fell_back = mmhd::fit_warm(&b, &mmhd_opts(2), &wrong_m.model).expect("fallback fit");
        let reference = mmhd::try_fit(&b, &mmhd_opts(2)).expect("cold fit");
        assert_eq!(
            fell_back.log_likelihood.to_bits(),
            reference.log_likelihood.to_bits(),
            "salt {salt}: mmhd dimension fallback is not the cold fit"
        );
    }
}
