//! Virtual-queuing-delay distribution estimators.
//!
//! Everything downstream (hypothesis tests, bounds) consumes a PMF over
//! delay symbols; this module provides the four ways of producing one that
//! the paper compares:
//!
//! * [`GroundTruth`] — the simulator's virtual probes ("ns virtual");
//! * [`LossPairEstimator`] — the empirical loss-pair baseline \[21\];
//! * [`HmmEstimator`] — the model-based approach with an HMM;
//! * [`MmhdEstimator`] — the model-based approach with an MMHD (the
//!   paper's recommended configuration).

use crate::discretize::Discretizer;
use crate::hyptest::{sdcl_test, wdcl_test};
use crate::identify::{IdentifyConfig, Verdict};
use dcl_mmhd::MmhdSettings;
use dcl_netsim::trace::ProbeTrace;
use dcl_probnum::em::{self, EmModel, EmOptions};
use dcl_probnum::{FitError, Pmf};
use std::fmt;

/// Why an estimator could not produce a distribution. Every variant is a
/// property of the *input trace* (or of the fit it induced) — estimators
/// never panic on unusable measurement data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EstimateError {
    /// The trace yields no observations at all.
    NoData,
    /// The trace contains no lost probes, so there is no loss-delay
    /// distribution to estimate.
    NoLosses,
    /// The loss-pair baseline found no loss pairs in the trace.
    NoLossPairs,
    /// The EM fit failed or produced a degenerate loss-delay posterior.
    Fit(FitError),
}

impl fmt::Display for EstimateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EstimateError::NoData => write!(f, "trace yields no observations"),
            EstimateError::NoLosses => write!(f, "trace contains no losses"),
            EstimateError::NoLossPairs => write!(f, "trace contains no loss pairs"),
            EstimateError::Fit(e) => write!(f, "model fit failed: {e}"),
        }
    }
}

impl std::error::Error for EstimateError {}

/// A strategy for estimating the distribution of the end-end virtual
/// queuing delay of lost probes.
pub trait VqdEstimator {
    /// Short name for reports ("mmhd", "loss-pair", ...).
    fn name(&self) -> &'static str;

    /// Estimate the PMF over the discretiser's symbols. Returns a typed
    /// [`EstimateError`] when the trace carries no usable information
    /// (e.g. no losses) or the model fit breaks down.
    fn estimate(&self, trace: &ProbeTrace, disc: &Discretizer) -> Result<Pmf, EstimateError>;
}

/// A fitted loss-delay PMF is only reportable if it exists and every mass
/// entry is finite; anything else is a degenerate posterior.
fn check_pmf(pmf: Option<Pmf>) -> Result<Pmf, EstimateError> {
    match pmf {
        Some(p) if p.mass().iter().all(|x| x.is_finite()) => Ok(p),
        _ => Err(EstimateError::Fit(FitError::DegeneratePosterior)),
    }
}

/// Fitted model parameters retained between windows so the streaming
/// engine can warm-start the next fit (`crate::stream`). Tagged by model
/// family: warm state from one family never seeds the other. Serialisable
/// so a streaming checkpoint can carry the warm state across a restart.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub(crate) enum FittedModel {
    /// Parameters of a fitted [`HmmEstimator`] model.
    Hmm(dcl_hmm::Hmm),
    /// Parameters of a fitted [`MmhdEstimator`] model.
    Mmhd(dcl_mmhd::Mmhd),
}

/// Facts about how a winning fit was obtained, carried alongside the PMF
/// so identification can attach provenance to its verdict. Pure
/// telemetry: every field is copied out of the fit result the pipeline
/// already computed, so surfacing it is bitwise-invisible to the
/// numerics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FitStats {
    /// Iterations of the winning EM trajectory.
    pub iterations: usize,
    /// Did the winning trajectory converge within tolerance?
    pub converged: bool,
    /// Numerical guard trips across the whole fit.
    pub guard_trips: usize,
    /// Final log-likelihood of the winning model.
    pub log_likelihood: f64,
    /// Is the fit the warm trajectory from previous-window parameters
    /// ([`em::FitResult::warm`])?
    pub warm: bool,
    /// Was the fit clipped by the [`IdentifyConfig::budget`] (best-effort
    /// result rather than a fully converged one)?
    pub degraded: bool,
}

impl FitStats {
    fn from_fit<M>(fit: &em::FitResult<M>) -> FitStats {
        FitStats {
            iterations: fit.iterations,
            converged: fit.converged,
            guard_trips: fit.guard_trips,
            log_likelihood: fit.log_likelihood,
            warm: fit.warm,
            degraded: fit.degraded,
        }
    }
}

/// The one fit body behind both model estimators: the observation checks,
/// a cold ([`em::try_fit`]) or warm ([`em::fit_warm`]) EM fit, its
/// [`FitStats`] and the checked loss-delay PMF. Returns the fitted model
/// too, so the streaming engine can warm-start the next window from it;
/// `warm: None` is the exact cold path of [`VqdEstimator::estimate`].
pub(crate) fn estimate_fitted<M: EmModel>(
    trace: &ProbeTrace,
    disc: &Discretizer,
    opts: &EmOptions<M::Settings>,
    warm: Option<&M>,
) -> Result<(Pmf, M, FitStats), EstimateError> {
    let obs = disc.observations(trace);
    if obs.is_empty() {
        return Err(EstimateError::NoData);
    }
    if !obs.iter().any(|o| o.is_loss()) {
        return Err(EstimateError::NoLosses);
    }
    let fit = match warm {
        Some(init) => em::fit_warm(&obs, opts, init),
        None => em::try_fit(&obs, opts),
    }
    .map_err(EstimateError::Fit)?;
    let stats = FitStats::from_fit(&fit);
    let pmf = check_pmf(fit.model.loss_delay_pmf(&obs))?;
    Ok((pmf, fit.model, stats))
}

/// Ground truth from the simulator's virtual probes.
#[derive(Debug, Clone, Copy, Default)]
pub struct GroundTruth;

impl VqdEstimator for GroundTruth {
    fn name(&self) -> &'static str {
        "ns-virtual"
    }

    fn estimate(&self, trace: &ProbeTrace, disc: &Discretizer) -> Result<Pmf, EstimateError> {
        disc.queuing_pmf(&trace.ground_truth_virtual_delays())
            .ok_or(EstimateError::NoLosses)
    }
}

/// The ground-truth verdict of a trace: the simulator's virtual queuing
/// delays of the lost probes, put through the identification discretiser
/// of `cfg` and the same SDCL/WDCL tests [`identify`](crate::identify())
/// runs. `None` when the trace has no lost probes or no delay spread.
pub fn ground_truth_verdict(trace: &ProbeTrace, cfg: &IdentifyConfig) -> Option<Verdict> {
    let (clean, _) = trace.sanitized();
    let disc = Discretizer::from_trace(&clean, cfg.num_symbols, cfg.known_floor)?;
    let cdf = GroundTruth.estimate(&clean, &disc).ok()?.cdf();
    Some(Verdict::from_tests(
        sdcl_test(&cdf, cfg.numeric_floor).accepted,
        wdcl_test(&cdf, cfg.wdcl, cfg.numeric_floor).accepted,
    ))
}

/// The loss-pair baseline: the surviving probe of each loss pair stands in
/// for its lost sibling.
#[derive(Debug, Clone, Copy, Default)]
pub struct LossPairEstimator;

impl VqdEstimator for LossPairEstimator {
    fn name(&self) -> &'static str {
        "loss-pair"
    }

    fn estimate(&self, trace: &ProbeTrace, disc: &Discretizer) -> Result<Pmf, EstimateError> {
        let analysis = dcl_losspair::extract(trace);
        if analysis.pairs.is_empty() {
            return Err(EstimateError::NoLossPairs);
        }
        disc.queuing_pmf(&analysis.virtual_queuing_samples(disc.floor()))
            .ok_or(EstimateError::NoLossPairs)
    }
}

/// Model-based estimation with a hidden Markov model. Every EM setting
/// it does not name is [`EmOptions::default`]'s.
#[derive(Debug, Clone, Copy)]
pub struct HmmEstimator {
    /// Number of hidden states `N`.
    pub num_states: usize,
    /// Random restarts.
    pub restarts: usize,
}

impl Default for HmmEstimator {
    fn default() -> Self {
        HmmEstimator {
            num_states: 2,
            restarts: 1,
        }
    }
}

impl HmmEstimator {
    /// The EM options of a fit over `disc`'s symbols.
    fn options(&self, disc: &Discretizer) -> dcl_hmm::EmOptions {
        dcl_hmm::EmOptions {
            num_hidden: self.num_states,
            num_symbols: disc.num_symbols(),
            restarts: self.restarts,
            ..EmOptions::default()
        }
    }
}

impl VqdEstimator for HmmEstimator {
    fn name(&self) -> &'static str {
        "hmm"
    }

    fn estimate(&self, trace: &ProbeTrace, disc: &Discretizer) -> Result<Pmf, EstimateError> {
        estimate_fitted::<dcl_hmm::Hmm>(trace, disc, &self.options(disc), None)
            .map(|(pmf, _, _)| pmf)
    }
}

/// Model-based estimation with a Markov model with a hidden dimension —
/// the configuration the paper recommends. Every EM setting it does not
/// name is [`EmOptions::default`]'s.
#[derive(Debug, Clone, Copy)]
pub struct MmhdEstimator {
    /// Number of hidden components `N`.
    pub num_hidden: usize,
    /// Random restarts.
    pub restarts: usize,
    /// The MMHD's initialisation and loss-tying switches.
    pub settings: MmhdSettings,
}

impl Default for MmhdEstimator {
    fn default() -> Self {
        MmhdEstimator {
            num_hidden: 2,
            restarts: 6,
            settings: MmhdSettings::default(),
        }
    }
}

impl MmhdEstimator {
    /// The EM options of a fit over `disc`'s symbols.
    fn options(&self, disc: &Discretizer) -> dcl_mmhd::EmOptions {
        dcl_mmhd::EmOptions {
            num_hidden: self.num_hidden,
            num_symbols: disc.num_symbols(),
            restarts: self.restarts,
            settings: self.settings,
            ..EmOptions::default()
        }
    }
}

impl VqdEstimator for MmhdEstimator {
    fn name(&self) -> &'static str {
        "mmhd"
    }

    fn estimate(&self, trace: &ProbeTrace, disc: &Discretizer) -> Result<Pmf, EstimateError> {
        estimate_fitted::<dcl_mmhd::Mmhd>(trace, disc, &self.options(disc), None)
            .map(|(pmf, _, _)| pmf)
    }
}

/// Ensemble of default MMHD fits at N = 1, 2 and 4 hidden components,
/// averaging the resulting virtual-queuing-delay PMFs with equal weight.
///
/// The paper fits N = 1..4 and observes that "the inference results under
/// different values of N are very similar" (§VI-B); when they are, the
/// average changes nothing. When one N lands in a degenerate EM basin (the
/// concentration failure of DESIGN.md §7), the others outvote it — making
/// the ensemble the most robust default for low-loss wide-area traces.
#[derive(Debug, Clone, Copy)]
pub struct MmhdEnsemble;

impl MmhdEnsemble {
    /// Hidden-component counts of the members, in accumulation order.
    const HIDDEN: [usize; 3] = [1, 2, 4];
}

impl VqdEstimator for MmhdEnsemble {
    fn name(&self) -> &'static str {
        "mmhd-ensemble"
    }

    fn estimate(&self, trace: &ProbeTrace, disc: &Discretizer) -> Result<Pmf, EstimateError> {
        let mut acc = vec![0.0; disc.num_symbols()];
        let mut members = 0usize;
        let mut last_err = EstimateError::NoData;
        for num_hidden in Self::HIDDEN {
            let est = MmhdEstimator {
                num_hidden,
                ..MmhdEstimator::default()
            };
            match est.estimate(trace, disc) {
                Ok(pmf) => {
                    for (a, &p) in acc.iter_mut().zip(pmf.mass()) {
                        *a += p;
                    }
                    members += 1;
                }
                // A member landing in a degenerate basin is exactly what
                // the ensemble exists to absorb; only if every member
                // fails does the error (the last one) surface.
                Err(e) => last_err = e,
            }
        }
        if members == 0 {
            return Err(last_err);
        }
        Ok(Pmf::from_mass(acc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcl_netsim::packet::ProbeStamp;
    use dcl_netsim::sim::ProbeRecord;
    use dcl_netsim::time::{Dur, Time};

    /// A synthetic trace in which losses cluster with high delays
    /// (a dominant congested link in miniature).
    fn synthetic_trace(n: usize, pairs: bool) -> ProbeTrace {
        let mut records = Vec::with_capacity(n);
        for i in 0..n {
            let sent = Time::from_secs(i as f64 * 0.02);
            // Deterministic cycle: stretches of low delay, bursts of
            // congestion in which the middle probe is lost.
            let phase = i % 20;
            let congested = phase >= 15;
            let lost = phase == 17;
            let pair = pairs.then_some(((i / 2) as u64, (i % 2) as u8));
            let mut stamp = ProbeStamp::new(i as u64, pair, sent);
            let arrival = if lost {
                stamp.loss_hop = Some(1);
                stamp.link_waits = vec![Dur::from_millis(150.0)];
                None
            } else {
                // Quiet phases ramp across the low/middle symbols (as real
                // queues do); congestion sits at the top of the range.
                let owd = if congested {
                    160.0 + (phase % 4) as f64 * 4.0
                } else {
                    25.0 + ((i * 7) % 90) as f64
                };
                Some(sent + Dur::from_millis(owd))
            };
            records.push(ProbeRecord { stamp, arrival });
        }
        ProbeTrace {
            records,
            base_delay: Dur::from_millis(20.0),
            interval: Dur::from_millis(20.0),
        }
    }

    #[test]
    fn ground_truth_uses_recorded_virtual_delays() {
        let t = synthetic_trace(200, false);
        let disc = Discretizer::from_trace(&t, 5, None).unwrap();
        let pmf = GroundTruth.estimate(&t, &disc).unwrap();
        // All planted virtual delays are 150 ms -> one symbol carries all.
        assert_eq!(
            pmf.mode(),
            disc.symbol_for_queuing(Dur::from_millis(150.0)) as usize
        );
        assert!(pmf.prob(pmf.mode()) > 0.999);
    }

    #[test]
    fn ground_truth_verdict_reads_the_virtual_delays() {
        let cfg = IdentifyConfig::default();
        let t = synthetic_trace(200, false);
        assert_eq!(
            ground_truth_verdict(&t, &cfg),
            Some(Verdict::StronglyDominant)
        );
        let mut lossless = t.clone();
        lossless.records.retain(|r| r.arrival.is_some());
        assert_eq!(ground_truth_verdict(&lossless, &cfg), None);
    }

    #[test]
    fn a_verdict_has_one_complete_record() {
        use dcl_metrics::obs::Event;
        let t = synthetic_trace(1000, false);
        let cfg = IdentifyConfig {
            estimate_bound: false,
            restarts: 2,
            ..IdentifyConfig::default()
        };
        let (report, captured) = dcl_metrics::capture(|| crate::identify(&t, &cfg).unwrap());
        let records: Vec<&Event> = captured
            .events
            .iter()
            .filter(|e| e.kind() == "verdict-provenance")
            .collect();
        let [Event::VerdictProvenance {
            sdcl_accepted,
            sdcl_margin,
            sdcl_d_star,
            wdcl_accepted,
            wdcl_margin,
            wdcl_d_star,
            ..
        }] = records[..]
        else {
            panic!("one verdict-provenance per identify: {records:?}");
        };
        let outcome = |t: crate::TestOutcome| (t.accepted, t.d_star, t.f_at_2d_star - t.threshold);
        assert_eq!(
            (*sdcl_accepted, *sdcl_d_star, *sdcl_margin),
            outcome(report.sdcl)
        );
        assert_eq!(
            (*wdcl_accepted, *wdcl_d_star, *wdcl_margin),
            outcome(report.wdcl)
        );
        assert!(report.sdcl.d_star.is_some() && report.wdcl.d_star.is_some());

        let (verdict, captured) = dcl_metrics::capture(|| ground_truth_verdict(&t, &cfg));
        assert_eq!(verdict, Some(Verdict::StronglyDominant));
        assert_eq!(captured.events, []);
    }

    #[test]
    fn model_estimators_put_loss_mass_on_high_symbols() {
        let t = synthetic_trace(2000, false);
        let disc = Discretizer::from_trace(&t, 5, None).unwrap();
        for est in [
            Box::new(MmhdEstimator::default()) as Box<dyn VqdEstimator>,
            Box::new(HmmEstimator::default()),
        ] {
            let pmf = est.estimate(&t, &disc).unwrap();
            let f = pmf.cdf();
            assert!(
                f.value(3) < 0.2,
                "{}: loss mass should be high: {pmf:?}",
                est.name()
            );
        }
    }

    #[test]
    fn loss_pair_estimator_needs_pairs() {
        let single = synthetic_trace(200, false);
        let disc = Discretizer::from_trace(&single, 5, None).unwrap();
        assert!(LossPairEstimator.estimate(&single, &disc).is_err());

        let paired = synthetic_trace(400, true);
        let disc = Discretizer::from_trace(&paired, 5, None).unwrap();
        // In the synthetic pattern the lost probe (phase 17) sits next to a
        // delivered congested probe, so loss pairs exist.
        let pmf = LossPairEstimator.estimate(&paired, &disc);
        assert!(pmf.is_ok());
    }

    #[test]
    fn model_estimators_equal_a_direct_em_fit() {
        let t = synthetic_trace(2000, false);
        let disc = Discretizer::from_trace(&t, 5, None).unwrap();
        let obs = disc.observations(&t);
        let mmhd: dcl_mmhd::EmOptions = EmOptions {
            num_hidden: 2,
            num_symbols: 5,
            restarts: 6,
            ..EmOptions::default()
        };
        let direct = em::try_fit::<dcl_mmhd::Mmhd>(&obs, &mmhd).unwrap().model;
        assert_eq!(
            MmhdEstimator::default().estimate(&t, &disc).ok(),
            direct.loss_delay_pmf(&obs)
        );
        let hmm: dcl_hmm::EmOptions = EmOptions {
            num_hidden: 2,
            num_symbols: 5,
            restarts: 1,
            ..EmOptions::default()
        };
        let direct = em::try_fit::<dcl_hmm::Hmm>(&obs, &hmm).unwrap().model;
        assert_eq!(
            HmmEstimator::default().estimate(&t, &disc).ok(),
            direct.loss_delay_pmf(&obs)
        );
    }

    #[test]
    fn ensemble_averages_member_estimates() {
        // Losses in the quiet phases too, so that the members' estimates
        // differ and the mass check below sees which members were summed.
        let mut t = synthetic_trace(1500, false);
        for r in t.records.iter_mut().skip(5).step_by(40) {
            r.arrival = None;
            r.stamp.loss_hop = Some(1);
        }
        let disc = Discretizer::from_trace(&t, 5, None).unwrap();
        let ens = MmhdEnsemble.estimate(&t, &disc).unwrap();
        let sum: f64 = ens.mass().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        // The ensemble must agree with its members on where the bulk is.
        let single = MmhdEstimator::default().estimate(&t, &disc).unwrap();
        assert_eq!(ens.mode(), single.mode());
        // Its mass is the members' mass, summed in N order, normalised.
        let mut acc = vec![0.0; disc.num_symbols()];
        for num_hidden in [1, 2, 4] {
            let member = MmhdEstimator {
                num_hidden,
                ..MmhdEstimator::default()
            }
            .estimate(&t, &disc)
            .unwrap();
            for (a, &p) in acc.iter_mut().zip(member.mass()) {
                *a += p;
            }
        }
        let total: f64 = acc.iter().sum();
        let normalised: Vec<f64> = acc.iter().map(|a| a / total).collect();
        assert_eq!(ens.mass(), &normalised[..]);
    }

    #[test]
    fn estimators_return_none_without_losses() {
        let mut t = synthetic_trace(100, false);
        t.records.retain(|r| r.delivered());
        let disc = Discretizer::from_trace(&t, 5, None).unwrap();
        assert_eq!(
            GroundTruth.estimate(&t, &disc).err(),
            Some(EstimateError::NoLosses)
        );
        assert_eq!(
            MmhdEstimator::default().estimate(&t, &disc).err(),
            Some(EstimateError::NoLosses)
        );
        assert_eq!(
            HmmEstimator::default().estimate(&t, &disc).err(),
            Some(EstimateError::NoLosses)
        );
    }
}
