//! End-to-end robustness properties: seeded fault-injection stacks pushed
//! through the full identification pipeline must **never panic and never
//! yield NaN** — every run ends in either a valid report (possibly carrying
//! repair warnings) or a typed [`IdentifyError`]. A fault-free plan must be
//! bitwise invisible, at every thread count.
//!
//! The suite is a plain seeded sweep rather than a proptest harness so it
//! replays identically everywhere; the fault plans themselves are the
//! random inputs ([`FaultPlan::sampled`] is deterministic in its seed).

mod common;

use common::dominant_trace;
use dominant_congested_links::faults::FaultPlan;
use dominant_congested_links::hmm;
use dominant_congested_links::identification::identify::{identify, IdentifyConfig, ModelKind};
use dominant_congested_links::identification::IdentifyError;
use dominant_congested_links::mmhd;
use dominant_congested_links::netsim::packet::ProbeStamp;
use dominant_congested_links::netsim::sim::ProbeRecord;
use dominant_congested_links::netsim::time::{Dur, Time};
use dominant_congested_links::netsim::trace::{ProbeTrace, TraceSanitation};
use dominant_congested_links::probnum::Obs;

fn cfg_for(model: ModelKind) -> IdentifyConfig {
    IdentifyConfig {
        model,
        restarts: 2,
        estimate_bound: false,
        ..IdentifyConfig::default()
    }
}

fn assert_report_sane(
    r: &dominant_congested_links::identification::identify::Identification,
    ctx: &str,
) {
    assert!(r.loss_rate.is_finite(), "{ctx}: loss_rate NaN");
    assert!(
        (0.0..=1.0).contains(&r.loss_rate),
        "{ctx}: loss_rate {} out of range",
        r.loss_rate
    );
    let mass: f64 = r.pmf.mass().iter().sum();
    assert!(
        r.pmf.mass().iter().all(|x| x.is_finite() && *x >= 0.0),
        "{ctx}: pmf has NaN/negative mass"
    );
    assert!((mass - 1.0).abs() < 1e-6, "{ctx}: pmf mass {mass}");
    assert!(
        r.sdcl.f_at_2d_star.is_finite() && r.wdcl.f_at_2d_star.is_finite(),
        "{ctx}: test statistics NaN"
    );
}

/// The core no-panic property: every sampled fault stack, at every
/// intensity, through both model backends, ends in Ok-with-finite-numbers
/// or a typed error whose Display works.
#[test]
fn impaired_traces_never_panic_and_never_nan() {
    let trace = dominant_trace(1500);
    let models = [
        ModelKind::Mmhd { num_hidden: 2 },
        ModelKind::Hmm { num_states: 2 },
    ];
    for seed in 0..5u64 {
        for &intensity in &[0.0, 0.35, 0.7, 1.0] {
            let plan = FaultPlan::sampled(seed * 7919 + 1, intensity, 7);
            let (impaired, report) = plan.apply(&trace);
            for model in models {
                let ctx = format!(
                    "seed {seed} intensity {intensity} model {model:?} plan {:?}",
                    plan.faults
                );
                match identify(&impaired, &cfg_for(model)) {
                    Ok(r) => assert_report_sane(&r, &ctx),
                    Err(e) => {
                        // Typed, displayable, and consistent with the
                        // injected impairments.
                        assert!(!format!("{e}").is_empty());
                        assert!(
                            report.total_affected() > 0 || impaired.loss_count() < 2,
                            "{ctx}: error {e} on an untouched trace"
                        );
                    }
                }
            }
        }
    }
}

/// A fault-free plan must be invisible: identification of the "impaired"
/// trace is bitwise identical to the clean run, at the serial pin, at two
/// workers, and at the auto setting.
#[test]
fn identity_plan_is_bitwise_invisible_at_every_parallelism() {
    let trace = dominant_trace(1500);
    let (untouched, report) = FaultPlan::identity(99).apply(&trace);
    assert_eq!(report.total_affected(), 0);
    for model in [
        ModelKind::Mmhd { num_hidden: 2 },
        ModelKind::Hmm { num_states: 2 },
    ] {
        let base = identify(&trace, &cfg_for(model)).expect("clean trace fits");
        assert_eq!(
            base.sanitation,
            TraceSanitation::default(),
            "clean trace must not be repaired"
        );
        for parallelism in [Some(1), Some(2), None] {
            let cfg = IdentifyConfig {
                parallelism,
                ..cfg_for(model)
            };
            let run = identify(&untouched, &cfg).expect("identity plan fits");
            assert_eq!(base, run, "model {model:?} parallelism {parallelism:?}");
        }
    }
}

/// Repairable impairments (reordering, duplication, light corruption)
/// surface as warnings on an Ok verdict, not as errors.
#[test]
fn repairable_impairments_yield_warnings_not_errors() {
    use dominant_congested_links::faults::Fault;
    let trace = dominant_trace(1500);
    let plan = FaultPlan {
        seed: 21,
        faults: vec![
            Fault::Reorder {
                rate: 0.05,
                max_displacement: 3,
            },
            Fault::Duplicate { rate: 0.02 },
            Fault::Corrupt { rate: 0.01 },
        ],
    };
    let (impaired, report) = plan.apply(&trace);
    assert!(report.total_affected() > 0);
    let r = identify(&impaired, &cfg_for(ModelKind::Mmhd { num_hidden: 2 }))
        .expect("light impairments must not kill the pipeline");
    assert_ne!(
        r.sanitation,
        TraceSanitation::default(),
        "repairs must be reported: {report:?}"
    );
    assert_report_sane(&r, "repairable impairments");
}

/// Degenerate traces reach typed pipeline errors, never panics.
#[test]
fn degenerate_traces_yield_typed_errors() {
    let cfg = cfg_for(ModelKind::Mmhd { num_hidden: 2 });

    let mut all_loss = dominant_trace(200);
    for r in &mut all_loss.records {
        r.arrival = None;
        r.stamp.loss_hop = Some(0);
    }
    assert_eq!(
        identify(&all_loss, &cfg),
        Err(IdentifyError::DegenerateDelays)
    );

    let mut loss_free = dominant_trace(200);
    loss_free.records.retain(|r| r.delivered());
    assert_eq!(identify(&loss_free, &cfg), Err(IdentifyError::NoLosses));

    let mut single = dominant_trace(1);
    single.records[0].arrival = None;
    single.records[0].stamp.loss_hop = Some(1);
    assert!(matches!(
        identify(&single, &cfg),
        Err(IdentifyError::NoLosses) | Err(IdentifyError::TooFewLosses { .. })
    ));

    // One loss among many deliveries: below the evidence floor.
    let mut one_loss = dominant_trace(200);
    for r in &mut one_loss.records {
        if !r.delivered() {
            r.arrival = Some(r.stamp.sent_at + Dur::from_millis(40.0));
            r.stamp.loss_hop = None;
        }
    }
    one_loss.records[50].arrival = None;
    one_loss.records[50].stamp.loss_hop = Some(1);
    assert_eq!(
        identify(&one_loss, &cfg),
        Err(IdentifyError::TooFewLosses {
            losses: 1,
            required: 2
        })
    );

    // Constant delays: no variation to discretise.
    let constant = ProbeTrace {
        records: (0..200)
            .map(|i| {
                let sent = Time::from_secs(i as f64 * 0.02);
                let mut stamp = ProbeStamp::new(i as u64, None, sent);
                let arrival = if i % 50 == 7 {
                    stamp.loss_hop = Some(1);
                    None
                } else {
                    Some(sent + Dur::from_millis(30.0))
                };
                ProbeRecord { stamp, arrival }
            })
            .collect(),
        base_delay: Dur::from_millis(30.0),
        interval: Dur::from_millis(20.0),
    };
    assert_eq!(
        identify(&constant, &cfg),
        Err(IdentifyError::DegenerateDelays)
    );
}

/// Degenerate observation sequences fed straight to the fitters: either a
/// typed [`FitError`] or a finite fit — never a panic, never NaN.
#[test]
fn degenerate_em_inputs_never_panic_or_nan() {
    let sequences: Vec<(&str, Vec<Obs>)> = vec![
        ("all-loss", vec![Obs::Loss; 50]),
        (
            "loss-free",
            (0..60).map(|i| Obs::Sym(1 + (i % 5) as u16)).collect(),
        ),
        ("single-obs", vec![Obs::Sym(3)]),
        ("single-loss", vec![Obs::Loss]),
        ("constant-symbol", {
            let mut v = vec![Obs::Sym(2); 40];
            v[7] = Obs::Loss;
            v
        }),
        ("empty", vec![]),
    ];
    for (name, obs) in &sequences {
        let h = hmm::try_fit(obs, &hmm::EmOptions::default());
        match h {
            Ok(f) => assert!(
                f.log_likelihood.is_finite(),
                "hmm {name}: non-finite likelihood"
            ),
            Err(e) => assert!(!format!("{e}").is_empty()),
        }
        let m = mmhd::try_fit(obs, &mmhd::EmOptions::default());
        match m {
            Ok(f) => assert!(
                f.log_likelihood.is_finite(),
                "mmhd {name}: non-finite likelihood"
            ),
            Err(e) => assert!(!format!("{e}").is_empty()),
        }
    }
    // The empty sequence specifically must be the typed Empty error.
    assert!(matches!(
        hmm::try_fit(&[], &hmm::EmOptions::default()),
        Err(
            dominant_congested_links::probnum::FitError::InvalidSequence(
                dominant_congested_links::probnum::ObsError::Empty
            )
        )
    ));
}

/// Fault application composes with sanitisation: heavy but repairable
/// stacks still round-trip to a monotone, duplicate-free trace.
#[test]
fn sanitisation_repairs_sampled_stacks() {
    let trace = dominant_trace(800);
    for seed in 0..8u64 {
        let plan = FaultPlan::sampled(seed, 0.9, 7);
        let (impaired, _) = plan.apply(&trace);
        let (clean, _san) = impaired.sanitized();
        let seqs: Vec<u64> = clean.records.iter().map(|r| r.stamp.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(seqs, sorted, "seed {seed}: not sorted/deduped");
        for r in &clean.records {
            if let Some(a) = r.arrival {
                assert!(a >= r.stamp.sent_at, "seed {seed}: corrupt survived");
            }
        }
    }
}
